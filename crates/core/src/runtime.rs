//! The replica runtime: primary and backup as [`Replica`] values on one
//! simulated timeline.
//!
//! A [`Replica`] is a VM plus its replication coordinator. [`FtJvm`]'s
//! builders here make replicas over a shared world for the code that
//! steps them — [`crate::group::GroupTask`] for every hot configuration
//! (a hot pair is a group with one standby), the straight-line cold runs
//! of [`crate::pair`] for the store-only modes:
//!
//! * **Cold backup** ([`LagBudget::Cold`]) — the paper's baseline (§1): the
//!   backup only stores the log during normal operation; on failure it
//!   replays from the initial state. The primary runs to completion (or
//!   crash) first, then the drained log is replayed.
//! * **Hot standby** ([`LagBudget::Hot`]) — the paper's "keeping the backup
//!   updated would require only minor modifications": primary and backup
//!   are *co-simulated*. The primary executes in bounded instruction
//!   slices; frames flushed to each standby's link are
//!   delivered at their simulated arrival instants and streamed into the
//!   backup, which replays each record as it arrives (bounded-lag
//!   streaming replay). Failure detection is driven by the heartbeat
//!   records actually received (a [`ftjvm_netsim::HeartbeatMonitor`]), so
//!   the backup *measures* detection and suffix-replay latency in-timeline
//!   instead of computing them from a formula.
//!
//! Exactly-once outputs survive the hot path because a streaming backup
//! only replays an output once a later record from the same thread proves
//! the primary performed it; everything still uncertain at promotion is
//! resolved with the side-effect handlers' `test` — which is sound then,
//! because the detection instant is after the primary's last action.

use crate::backup::{Backup, BackupLog, ResumeSeed};
use crate::codec::build_snapshot_chunk;
use crate::ftjvm::{FtJvm, Technique};
use crate::primary::{
    decode_vt_map, LogChannel, Primary, PrimaryCore, ReliableLink, EXT_CODEC_CTX, EXT_COUNTERS,
    EXT_ND_SEQ, EXT_OUT_SEQ, EXT_SE_LATEST,
};
use crate::se::SeRegistry;
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{
    Category, ChannelStats, FaultPlan, LossyChannel, SharedLink, SimChannel, SimTime, WireReader,
};
use ftjvm_vm::ThreadIdx;
use ftjvm_vm::{
    Coordinator, RunOutcome, RunReport, SharedWorld, SimEnv, SliceOutcome, SnapshotError, Vm,
    VmConfig, VmError,
};

/// Instruction units the primary executes per co-simulation slice. Small
/// enough that flushed frames reach the hot standby with fine granularity,
/// large enough that slicing overhead stays negligible.
pub const SLICE_UNITS: u64 = 256;

/// A snapshot refused at an epoch cut: a protocol bug, since the cut's
/// quiescence gate should make it impossible.
fn epoch_snapshot_error(e: SnapshotError) -> VmError {
    VmError::Internal(format!("epoch snapshot: {e}"))
}

/// How far a backup is allowed to lag the primary's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagBudget {
    /// Store-only during normal operation; replay the whole log at
    /// failover (the paper's cold backup, §1).
    #[default]
    Cold,
    /// Streaming replay: consume each flushed frame as it arrives, so only
    /// the unconsumed log suffix remains at failover.
    Hot,
}

impl std::fmt::Display for LagBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LagBudget::Cold => "cold",
            LagBudget::Hot => "hot",
        })
    }
}

/// One replica: a VM plus its replication coordinator, a [`Primary`] or a
/// [`Backup`] — each side's operations exist only on its own type. Built
/// by [`FtJvm`]; stepped in bounded instruction slices so a co-simulation
/// driver can interleave a pair.
pub struct Replica<C> {
    vm: Vm,
    coord: C,
}

impl<C: Coordinator> std::fmt::Debug for Replica<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica").field("now", &self.now()).finish()
    }
}

impl<C: Coordinator> Replica<C> {
    /// The replica's current simulated instant.
    pub fn now(&self) -> SimTime {
        self.vm.core().acct.now()
    }

    /// Executes up to `max_units` instruction units.
    ///
    /// # Errors
    /// Propagates fatal VM errors (including replay divergence).
    pub fn step(&mut self, max_units: u64) -> Result<SliceOutcome, VmError> {
        self.vm.run_slice(&mut self.coord, max_units)
    }

    /// Runs to completion (or crash).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_to_end(&mut self) -> Result<RunReport, VmError> {
        self.vm.run(&mut self.coord)
    }

    /// Wakes threads a streaming backup deferred while waiting for log
    /// records (call after feeding frames).
    pub fn poll_suspended(&mut self) {
        self.vm.poll_suspended(&mut self.coord);
    }

    /// Advances this replica's clock to `instant` (no-op if already past).
    pub fn wait_until(&mut self, instant: SimTime) {
        self.vm.core_mut().acct.wait_until(Category::Misc, instant);
    }

    /// Marks the replica's environment failed (fail-stop: volatile state
    /// is lost with the process).
    pub fn fail_env(&mut self) {
        self.vm.core_mut().env.fail();
    }
}

impl Replica<Primary> {
    /// The primary core: fan-out, ack policy, voting and link liveness for
    /// the group driver, epoch-ack relay and degraded mode, and each
    /// link's delivered frames for the co-simulation's receive step.
    pub(crate) fn core(&mut self) -> &mut PrimaryCore {
        &mut self.coord.core
    }

    /// Cuts an epoch checkpoint if the interval has elapsed and the VM is
    /// at a quiescent, coordinator-ready boundary. Returns whether a cut
    /// happened.
    ///
    /// Nothing reads this cut's blob — a joiner gets a fresh forced cut
    /// at recruitment — so the snapshot is counted
    /// ([`Vm::snapshot_len`]) and charged by that length, never built.
    ///
    /// # Errors
    /// Propagates snapshot failures (a protocol bug: the quiescence gate
    /// should make them impossible).
    pub fn try_cut_epoch(&mut self) -> Result<bool, VmError> {
        let Some(ext) = self.prepare_cut(false) else { return Ok(false) };
        let len = self.vm.snapshot_len(&ext).map_err(epoch_snapshot_error)?;
        debug_assert_eq!(
            Ok(len),
            self.vm.snapshot(&ext).map(|blob| blob.len()),
            "counted snapshot length"
        );
        self.coord.core.commit_epoch(len, &mut self.vm.core_mut().acct);
        Ok(true)
    }

    /// Cuts an epoch like [`Replica::try_cut_epoch`] but builds the
    /// snapshot and returns it, for a caller that ships it. `force` cuts
    /// even before the interval elapses (re-integration state transfer
    /// needs a fresh snapshot now); the quiescence and
    /// coordinator-readiness gates still apply. `None`: no cut happened.
    ///
    /// # Errors
    /// Propagates snapshot failures.
    pub(crate) fn cut_epoch_blob(&mut self, force: bool) -> Result<Option<Bytes>, VmError> {
        let Some(ext) = self.prepare_cut(force) else { return Ok(None) };
        let blob = self.vm.snapshot(&ext).map_err(epoch_snapshot_error)?;
        self.coord.core.commit_epoch(blob.len(), &mut self.vm.core_mut().acct);
        Ok(Some(blob))
    }

    /// First half of every cut: the interval (unless `force`d),
    /// quiescence, and coordinator-readiness gates, then the primary's
    /// flush and extension sections. `None` when no cut may happen here.
    /// The second half is [`PrimaryCore::commit_epoch`]: the epoch mark,
    /// suffix truncation, and the serialization charge.
    fn prepare_cut(&mut self, force: bool) -> Option<Vec<(u8, Bytes)>> {
        if !(force || self.coord.core.wants_epoch_cut()) || !self.vm.quiescent() {
            return None;
        }
        self.coord.prepare_cut(&mut self.vm.core_mut().acct)
    }

    /// Ships `blob`, the snapshot of the epoch just cut, as chunk frames
    /// over fan-out link `idx` only (re-integration recruits a single
    /// standby — its peers must not see the chunks — and the cold durable
    /// store sits on link 0). Returns the epoch shipped.
    pub(crate) fn ship_snapshot(&mut self, idx: usize, blob: &[u8]) -> u64 {
        /// Chunk payload size: small enough that loss retransmits stay
        /// cheap, large enough that a snapshot is a handful of frames.
        const CHUNK: usize = 4096;
        let core = &mut self.coord.core;
        let epoch = core.epoch();
        let total = blob.len().div_ceil(CHUNK) as u64;
        let acct = &mut self.vm.core_mut().acct;
        for (i, piece) in blob.chunks(CHUNK).enumerate() {
            core.send_on(idx, build_snapshot_chunk(epoch, i as u64, total, piece), acct);
        }
        core.stats.snapshot_chunks_sent += total;
        epoch
    }

    /// The primary half of re-integration: force-cut an epoch at the
    /// current boundary, point fan-out link `idx` at `fresh` (the link
    /// toward the replacement at that rank slot), and ship the snapshot as
    /// chunk frames while the other links keep streaming undisturbed.
    /// Returns the epoch shipped, or `None` — leaving the link untouched —
    /// when the VM is not at a cuttable boundary yet (the driver retries
    /// next slice).
    pub(crate) fn begin_state_transfer(
        &mut self,
        idx: usize,
        fresh: LogChannel,
    ) -> Result<Option<u64>, VmError> {
        let Some(blob) = self.cut_epoch_blob(true)? else { return Ok(None) };
        // The old link pointed at the dead (or stale) standby; frames
        // still in flight on it are lost with that host.
        drop(self.coord.core.swap_link(idx, fresh));
        Ok(Some(self.ship_snapshot(idx, &blob)))
    }

    /// Consumes the replica, returning every fan-out link in rank order
    /// plus the final replication statistics.
    pub(crate) fn into_parts(self) -> (Vec<LogChannel>, ReplicationStats) {
        self.coord.core.into_parts()
    }
}

impl Replica<Backup> {
    /// The backup coordinator: replay progress and statistics.
    pub(crate) fn backup(&self) -> &Backup {
        &self.coord
    }

    /// Streams one arrived log frame into a hot backup, advancing its
    /// clock to the frame's arrival instant. Returns the number of
    /// heartbeat records the frame carried.
    ///
    /// # Errors
    /// Returns an error for a malformed frame.
    pub fn feed_frame(&mut self, arrival: SimTime, frame: Bytes) -> Result<u32, VmError> {
        let acct = &mut self.vm.core_mut().acct;
        acct.wait_until(Category::Communication, arrival);
        self.coord.feed_frame(frame, acct)
    }

    /// Promotes a streaming backup: the stream ended (the primary failed
    /// and detection fired, or it completed), volatile environment state
    /// is restored from the received side-effect snapshots, and replay may
    /// run past the log into the live phase.
    pub fn finish_stream(&mut self) {
        let core = self.vm.core_mut();
        self.coord.finish_stream(&mut core.env, &mut core.acct);
        self.vm.poll_suspended(&mut self.coord);
    }

    /// Promotes a *finished* streaming backup to primary **in place**: the
    /// replayed VM keeps running, only the coordinator changes sides. The
    /// new reign starts with `links` fan-out links (all fresh transports,
    /// all marked dead — survivors re-home via per-link state transfer),
    /// the output-id allocator continues the dead reign's exactly-once
    /// numbering, the side-effect registry moves over from the replay, and
    /// the lock-id / branch-counter allocators seed from the replayed VM so
    /// fresh assignments never collide with history.
    ///
    /// # Errors
    /// Typed [`crate::backup::ReplayError::PromotionIncomplete`] when
    /// replay records are still unconsumed.
    pub(crate) fn promote(
        self,
        jvm: &FtJvm,
        fault: FaultPlan,
        links: usize,
    ) -> Result<Replica<Primary>, VmError> {
        let Replica { vm, coord } = self;
        let parts = coord.into_promotion_parts().map_err(|e| e.at(ThreadIdx(0)))?;
        let mut core = jvm.primary_core(links, fault, parts.se);
        core.seed_outputs(parts.next_output, parts.commit_samples);
        // No standby is live until the driver re-recruits it: mark every
        // link dead and start degraded (uncovered outputs are counted).
        for idx in 0..links {
            core.mark_link_dead(idx);
        }
        core.enter_degraded();
        let technique = Technique::of(jvm.cfg.mode, jvm.cfg.lock_variant);
        let coord = Primary::promoted(core, technique, vm.core());
        Ok(Replica { vm, coord })
    }
}

/// The replica builders and the log-producing and log-replaying halves of
/// a cold pair: every run builds fresh replicas over a fresh
/// [`ftjvm_vm::World`] from the harness's program, natives and
/// configuration.
impl FtJvm {
    /// Routes this pair's replication traffic through a shared trunk:
    /// every frame sent on a perfect channel queues behind the trunk's
    /// other traffic (fleet-level contention). `offset` maps this pair's
    /// local clock onto the trunk's global timeline. Detached (the
    /// default), channel timing is byte-identical to the single-pair
    /// runs; lossy (net-fault-armed) transports ignore the trunk.
    pub fn set_shared_bandwidth(&mut self, link: SharedLink, offset: SimTime) {
        self.shared = Some((link, offset));
    }

    /// The base VM configuration with scheduler seed `seed`.
    pub(crate) fn vm_config(&self, seed: u64) -> VmConfig {
        VmConfig { sched_seed: seed, ..self.cfg.vm.clone() }
    }

    /// The primary's environment over `world`.
    pub(crate) fn primary_env(&self, world: &SharedWorld) -> SimEnv {
        SimEnv::new("primary", world.clone(), self.cfg.primary_skew, self.cfg.primary_env_seed)
    }

    /// Environment for the standby at `rank` in a replica group. Rank 0
    /// is the pair's backup (name `backup`, the configured skew and seed),
    /// so a group of size 2 is byte-identical to the pair; higher ranks
    /// get their own name and ND seed.
    fn backup_env(&self, world: &SharedWorld, rank: u32) -> SimEnv {
        let name = if rank == 0 { "backup".to_string() } else { format!("backup-r{rank}") };
        let seed = self.cfg.backup_env_seed + rank as u64;
        SimEnv::new(&name, world.clone(), self.cfg.backup_skew, seed)
    }

    fn ranked_backup_seed(&self, rank: u32) -> u64 {
        self.cfg.backup_seed + rank as u64
    }

    /// Builds a log transport per the configured net-fault plan: an armed
    /// plan swaps the paper's perfect FIFO channel for the lossy link plus
    /// the reliability sublayer; unarmed runs keep the perfect channel
    /// (and its exact seed-run timing). Re-integration builds a second one
    /// toward the replacement backup.
    pub(crate) fn make_channel(&self) -> LogChannel {
        if self.cfg.net_fault.is_armed() {
            let link = LossyChannel::new(self.cfg.vm.cost.net.clone(), self.cfg.net_fault.clone());
            LogChannel::Reliable(Box::new(ReliableLink::new(link)))
        } else {
            let mut ch = SimChannel::new(self.cfg.vm.cost.net.clone());
            if let Some((link, offset)) = &self.shared {
                ch.attach_shared(link.clone(), *offset);
            }
            LogChannel::Perfect(ch)
        }
    }

    /// The configured primary machinery over `links` fresh fan-out links,
    /// one per standby.
    fn primary_core(&self, links: usize, fault: FaultPlan, se: SeRegistry) -> PrimaryCore {
        let links = (0..links).map(|_| self.make_channel()).collect();
        let mut core = PrimaryCore::new(links, self.cfg.vm.cost.clone(), fault, se);
        core.flush_threshold = self.cfg.flush_threshold;
        core.set_codec(self.cfg.codec);
        core.set_heartbeat_interval(self.cfg.detector.interval());
        core.set_checkpoint_interval(self.cfg.checkpoint_interval);
        core
    }

    /// Builds the primary replica: a VM with the mode's logging
    /// coordinator over a fresh channel.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn build_primary(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
    ) -> Result<Replica<Primary>, VmError> {
        self.build_fanout_primary(world, fault, 1)
    }

    /// [`build_primary`](Self::build_primary) with `links` fan-out links,
    /// one per standby of a replica group, in rank order.
    pub(crate) fn build_fanout_primary(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
        links: usize,
    ) -> Result<Replica<Primary>, VmError> {
        let core = self.primary_core(links, fault, (self.cfg.se_factory)());
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            self.primary_env(world),
            self.vm_config(self.cfg.primary_seed),
        )?;
        let technique = Technique::of(self.cfg.mode, self.cfg.lock_variant);
        Ok(Replica { vm, coord: Primary::new(core, technique) })
    }

    /// Builds a hot (streaming) backup replica whose log starts empty: the
    /// standby at `rank` of a replica group (rank 0 is the pair's backup).
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn build_hot_backup(
        &self,
        world: &SharedWorld,
        rank: u32,
    ) -> Result<Replica<Backup>, VmError> {
        let se = (self.cfg.se_factory)();
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            self.backup_env(world, rank),
            self.vm_config(self.ranked_backup_seed(rank)),
        )?;
        let cost = self.cfg.vm.cost.clone();
        let technique = Technique::of(self.cfg.mode, self.cfg.lock_variant);
        let coord = Backup::streaming(world.clone(), se, cost, technique);
        Ok(Replica { vm, coord })
    }

    /// Builds a cold backup replica over a fully decoded log (the one
    /// shared drain-and-replay path — used after a crash *and* by the
    /// failure-free replay harness).
    ///
    /// # Errors
    /// Propagates program-loading and log-decoding errors.
    pub fn build_cold_backup(
        &self,
        world: &SharedWorld,
        frames: Vec<Bytes>,
    ) -> Result<Replica<Backup>, VmError> {
        let mut se = (self.cfg.se_factory)();
        let log = BackupLog::decode(frames, &mut se)?;
        let mut benv = self.backup_env(world, 0);
        // SE-handler `restore`: re-create the primary's volatile
        // environment state (open files at their recovered offsets).
        se.restore(&mut benv);
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            benv,
            self.vm_config(self.cfg.backup_seed),
        )?;
        let cost = self.cfg.vm.cost.clone();
        let technique = Technique::of(self.cfg.mode, self.cfg.lock_variant);
        let coord = Backup::new(log, world.clone(), se, cost, technique);
        Ok(Replica { vm, coord })
    }

    /// Builds a replacement hot standby from an epoch snapshot blob: the
    /// VM restores from the blob, the replication-layer extension
    /// sections seed a *resumed* streaming coordinator (decoder context,
    /// consumed-sequence maps, output-id floor, latest side-effect
    /// payloads), and the replica continues from the cut as if it had
    /// consumed the whole truncated prefix. `rank` is its rank in the
    /// replica group, as for [`build_hot_backup`](Self::build_hot_backup).
    ///
    /// # Errors
    /// Returns an error for a corrupt blob or malformed extension
    /// sections.
    pub fn build_resumed_backup(
        &self,
        world: &SharedWorld,
        blob: &[u8],
        rank: u32,
    ) -> Result<Replica<Backup>, VmError> {
        let (vm, ext) = Vm::restore(
            self.program.clone(),
            self.natives.clone(),
            world.clone(),
            &self.vm_config(self.ranked_backup_seed(rank)),
            blob,
        )
        .map_err(|e| VmError::Internal(format!("restore epoch snapshot: {e}")))?;
        let mut seed = ResumeSeed::default();
        let mut se = (self.cfg.se_factory)();
        for (tag, payload) in &ext {
            let malformed = |what: &str| VmError::Internal(format!("snapshot ext {what}"));
            match *tag {
                EXT_CODEC_CTX => seed.decoder_ctx = payload.clone(),
                EXT_ND_SEQ => {
                    seed.nd_consumed =
                        decode_vt_map(payload).map_err(|e| malformed(&format!("nd map: {e}")))?;
                }
                EXT_OUT_SEQ => {
                    seed.commit_consumed = decode_vt_map(payload)
                        .map_err(|e| malformed(&format!("commit map: {e}")))?;
                }
                EXT_COUNTERS => {
                    let mut r = WireReader::new(payload.clone());
                    seed.live_output_base =
                        r.get_uvarint().map_err(|e| malformed(&format!("counters: {e}")))?;
                }
                EXT_SE_LATEST => {
                    // Replay the latest pre-cut SE-state payload into each
                    // handler, as if it had arrived on the stream.
                    let mut r = WireReader::new(payload.clone());
                    let n = r.get_uvarint().map_err(|e| malformed(&format!("se count: {e}")))?;
                    for _ in 0..n {
                        let h = r.get_u8().map_err(|e| malformed(&format!("se handler: {e}")))?;
                        let p =
                            r.get_vbytes().map_err(|e| malformed(&format!("se payload: {e}")))?;
                        se.receive(h, p);
                    }
                }
                _ => {}
            }
        }
        let cost = self.cfg.vm.cost.clone();
        let technique = Technique::of(self.cfg.mode, self.cfg.lock_variant);
        let coord = Backup::resumed(world.clone(), se, cost, seed, technique, vm.core())?;
        Ok(Replica { vm, coord })
    }

    /// Runs the primary to completion or crash in one coarse `run_to_end`
    /// and returns its report, its undrained channel, and its replication
    /// statistics. A crashed primary's volatile environment state is lost
    /// with its process (fail-stop); the external world survives.
    pub(crate) fn run_primary(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
    ) -> Result<(RunReport, LogChannel, ReplicationStats), VmError> {
        let mut primary = self.build_primary(world, fault)?;
        let report = primary.run_to_end()?;
        if report.outcome == RunOutcome::Stopped {
            primary.fail_env();
        }
        // `build_primary` builds exactly one link.
        let (mut links, stats) = primary.into_parts();
        Ok((report, links.swap_remove(0), stats))
    }

    /// Runs the primary to completion (or crash) and returns its report,
    /// the drained log frames, and the replication and channel statistics
    /// — the log-producing half shared by the replay harness and the
    /// log-inspection entry points.
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_primary_to_log(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
    ) -> Result<(RunReport, Vec<Bytes>, ReplicationStats, ChannelStats), VmError> {
        let (report, mut channel, stats) = self.run_primary(world, fault)?;
        let frames = channel.drain().into_iter().map(|(_, frame)| frame).collect();
        // Stats after the drain: on a lossy link the takeover delivery
        // itself detects duplicates/corruption worth counting.
        let channel_stats = channel.stats();
        Ok((report, frames, stats, channel_stats))
    }

    /// Replays a drained log on a cold backup over `world` — the single
    /// drain-and-replay helper shared by the failover and benchmark paths.
    ///
    /// # Errors
    /// Propagates fatal VM errors, including replay divergence.
    pub fn replay_log(
        &self,
        world: &SharedWorld,
        frames: Vec<Bytes>,
    ) -> Result<(RunReport, ReplicationStats, Option<SimTime>), VmError> {
        let mut backup = self.build_cold_backup(world, frames)?;
        let report = backup.run_to_end()?;
        let b = backup.backup();
        Ok((report, b.stats().clone(), b.recovery_completed_at()))
    }
}
