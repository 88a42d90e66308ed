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

use crate::backup::{BackupLog, IntervalBackup, LockSyncBackup, ResumeSeed, TsBackup};
use crate::codec::build_snapshot_chunk;
use crate::ftjvm::{FtJvm, LockVariant, ReplicationMode};
use crate::primary::{
    decode_vt_map, IntervalPrimary, LockSyncPrimary, LogChannel, PrimaryCore, ReliableLink,
    TsPrimary, EXT_CODEC_CTX, EXT_COUNTERS, EXT_ND_SEQ, EXT_OUT_SEQ, EXT_SE_LATEST,
};
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{
    Category, ChannelStats, FaultPlan, LossyChannel, SharedLink, SimChannel, SimTime, WireReader,
};
use ftjvm_vm::ThreadIdx;
use ftjvm_vm::{
    Coordinator, RunOutcome, RunReport, SharedWorld, SimEnv, SliceOutcome, SnapshotError, Vm,
    VmConfig, VmError, VtPath,
};
use std::collections::HashMap;

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

/// The coordinator driving one replica's VM (private: which concrete
/// coordinator a replica runs is the runtime's business).
enum ReplicaCoord {
    LockPrimary(LockSyncPrimary),
    IntervalPrimary(IntervalPrimary),
    TsPrimary(TsPrimary),
    LockBackup(LockSyncBackup),
    IntervalBackup(IntervalBackup),
    TsBackup(TsBackup),
}

impl ReplicaCoord {
    fn as_dyn(&mut self) -> &mut dyn Coordinator {
        match self {
            ReplicaCoord::LockPrimary(c) => c,
            ReplicaCoord::IntervalPrimary(c) => c,
            ReplicaCoord::TsPrimary(c) => c,
            ReplicaCoord::LockBackup(c) => c,
            ReplicaCoord::IntervalBackup(c) => c,
            ReplicaCoord::TsBackup(c) => c,
        }
    }

    fn primary_core_mut(&mut self) -> Option<&mut PrimaryCore> {
        match self {
            ReplicaCoord::LockPrimary(c) => Some(&mut c.common),
            ReplicaCoord::IntervalPrimary(c) => Some(&mut c.common),
            ReplicaCoord::TsPrimary(c) => Some(&mut c.common),
            _ => None,
        }
    }
}

/// One replica: a VM plus its replication coordinator. Built by
/// [`FtJvm`]; stepped in bounded instruction slices so a co-simulation
/// driver can interleave a pair.
pub struct Replica {
    vm: Vm,
    coord: ReplicaCoord,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica").field("now", &self.now()).finish()
    }
}

impl Replica {
    /// The replica's current simulated instant.
    pub fn now(&self) -> SimTime {
        self.vm.core().acct.now()
    }

    /// Executes up to `max_units` instruction units.
    ///
    /// # Errors
    /// Propagates fatal VM errors (including replay divergence).
    pub fn step(&mut self, max_units: u64) -> Result<SliceOutcome, VmError> {
        self.vm.run_slice(self.coord.as_dyn(), max_units)
    }

    /// Runs to completion (or crash).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_to_end(&mut self) -> Result<RunReport, VmError> {
        self.vm.run(self.coord.as_dyn())
    }

    /// Streams one arrived log frame into a hot backup, advancing its
    /// clock to the frame's arrival instant. Returns the number of
    /// heartbeat records the frame carried.
    ///
    /// # Errors
    /// Returns an error for a malformed frame, or if called on a replica
    /// that is not a backup.
    pub fn feed_frame(&mut self, arrival: SimTime, frame: Bytes) -> Result<u32, VmError> {
        let Replica { vm, coord } = self;
        let core = vm.core_mut();
        core.acct.wait_until(Category::Communication, arrival);
        match coord {
            ReplicaCoord::LockBackup(c) => c.feed_frame(frame),
            ReplicaCoord::IntervalBackup(c) => c.feed_frame(frame),
            ReplicaCoord::TsBackup(c) => c.feed_frame(frame, &mut core.acct),
            _ => Err(VmError::Internal("feed_frame on a non-backup replica".into())),
        }
    }

    /// Promotes a streaming backup: the stream ended (the primary failed
    /// and detection fired, or it completed), volatile environment state
    /// is restored from the received side-effect snapshots, and replay may
    /// run past the log into the live phase.
    pub fn finish_stream(&mut self) {
        {
            let Replica { vm, coord } = &mut *self;
            let core = vm.core_mut();
            match coord {
                ReplicaCoord::LockBackup(c) => c.finish_stream(&mut core.env, &core.acct),
                ReplicaCoord::IntervalBackup(c) => c.finish_stream(&mut core.env, &core.acct),
                ReplicaCoord::TsBackup(c) => c.finish_stream(&mut core.env, &mut core.acct),
                _ => {}
            }
        }
        self.vm.poll_suspended(self.coord.as_dyn());
    }

    /// Wakes threads a streaming backup deferred while waiting for log
    /// records (call after feeding frames).
    pub fn poll_suspended(&mut self) {
        self.vm.poll_suspended(self.coord.as_dyn());
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

    /// Epoch marks a streaming backup has absorbed — its epoch
    /// acknowledgment (0 for primaries).
    pub(crate) fn epochs_absorbed(&self) -> u64 {
        match &self.coord {
            ReplicaCoord::LockBackup(c) => c.epochs_absorbed(),
            ReplicaCoord::IntervalBackup(c) => c.epochs_absorbed(),
            ReplicaCoord::TsBackup(c) => c.epochs_absorbed(),
            _ => 0,
        }
    }

    /// Relays the backup's epoch acknowledgment into the primary's stats.
    pub(crate) fn relay_epoch_ack(&mut self, acked: u64) {
        if let Some(core) = self.coord.primary_core_mut() {
            core.record_epoch_ack(acked);
        }
    }

    /// Exits degraded mode once a replacement standby is live.
    pub(crate) fn exit_degraded(&mut self) {
        if let Some(core) = self.coord.primary_core_mut() {
            core.exit_degraded();
        }
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
        self.commit_cut(len)?;
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
        self.commit_cut(blob.len())?;
        Ok(Some(blob))
    }

    /// First half of every cut: the interval (unless `force`d),
    /// quiescence, and coordinator-readiness gates, then the primary's
    /// flush and extension sections. `None` when no cut may happen here.
    fn prepare_cut(&mut self, force: bool) -> Option<Vec<(u8, Bytes)>> {
        let wants = self.coord.primary_core_mut().is_some_and(|c| force || c.wants_epoch_cut());
        if !wants || !self.vm.quiescent() {
            return None;
        }
        let acct = &mut self.vm.core_mut().acct;
        match &mut self.coord {
            ReplicaCoord::LockPrimary(c) => Some(c.common.prepare_epoch_cut(acct)),
            ReplicaCoord::IntervalPrimary(c) => {
                // Close the open acquisition interval so the flushed
                // prefix is self-contained.
                c.close_open(acct);
                Some(c.common.prepare_epoch_cut(acct))
            }
            ReplicaCoord::TsPrimary(c) => c.cut_ready().then(|| c.common.prepare_epoch_cut(acct)),
            _ => None,
        }
    }

    /// Second half of every cut: the epoch mark, suffix truncation, and a
    /// serialization charge for a `snapshot_len`-byte snapshot.
    fn commit_cut(&mut self, snapshot_len: usize) -> Result<(), VmError> {
        let Replica { vm, coord } = self;
        // The gate in `prepare_cut` makes a non-primary unreachable here;
        // fail typed rather than aborting the whole process.
        let core = coord
            .primary_core_mut()
            .ok_or_else(|| VmError::Internal("epoch commit on a non-primary replica".into()))?;
        core.commit_epoch(snapshot_len, &mut vm.core_mut().acct);
        Ok(())
    }

    /// Ships `blob`, the snapshot of the epoch just cut, as chunk frames
    /// over fan-out link `idx` only (re-integration recruits a single
    /// standby — its peers must not see the chunks — and the cold durable
    /// store sits on link 0). Returns the epoch shipped.
    ///
    /// # Errors
    /// Returns an error when the replica is not a primary.
    pub(crate) fn ship_snapshot(&mut self, idx: usize, blob: &[u8]) -> Result<u64, VmError> {
        /// Chunk payload size: small enough that loss retransmits stay
        /// cheap, large enough that a snapshot is a handful of frames.
        const CHUNK: usize = 4096;
        let Replica { vm, coord } = self;
        let core = coord
            .primary_core_mut()
            .ok_or_else(|| VmError::Internal("snapshot transfer from a non-primary".into()))?;
        let epoch = core.epoch();
        let total = blob.len().div_ceil(CHUNK) as u64;
        let acct = &mut vm.core_mut().acct;
        for (i, piece) in blob.chunks(CHUNK).enumerate() {
            core.send_raw_on(idx, build_snapshot_chunk(epoch, i as u64, total, piece), acct);
        }
        core.stats.snapshot_chunks_sent += total;
        Ok(epoch)
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
        if let Some(core) = self.coord.primary_core_mut() {
            // The old link pointed at the dead (or stale) standby; frames
            // still in flight on it are lost with that host.
            drop(core.swap_link(idx, fresh));
        }
        self.ship_snapshot(idx, &blob).map(Some)
    }

    /// Consumes a primary replica, returning its channel and final
    /// replication statistics.
    ///
    /// # Errors
    /// Returns a typed error (instead of panicking) when called on a
    /// backup replica — a driver bug.
    pub(crate) fn into_primary_parts(self) -> Result<(LogChannel, ReplicationStats), VmError> {
        match self.coord {
            ReplicaCoord::LockPrimary(c) => Ok(c.common.into_parts()),
            ReplicaCoord::IntervalPrimary(c) => Ok(c.common.into_parts()),
            ReplicaCoord::TsPrimary(c) => Ok(c.common.into_parts()),
            _ => Err(VmError::Internal("into_primary_parts on a backup replica".into())),
        }
    }

    /// Backup-side replication statistics (empty for primaries).
    pub(crate) fn backup_stats(&self) -> ReplicationStats {
        match &self.coord {
            ReplicaCoord::LockBackup(c) => c.stats().clone(),
            ReplicaCoord::IntervalBackup(c) => c.stats().clone(),
            ReplicaCoord::TsBackup(c) => c.stats().clone(),
            _ => ReplicationStats::default(),
        }
    }

    /// Simulated instant at which the backup's log replay completed.
    pub(crate) fn recovery_completed_at(&self) -> Option<SimTime> {
        match &self.coord {
            ReplicaCoord::LockBackup(c) => c.recovery_completed_at(),
            ReplicaCoord::IntervalBackup(c) => c.recovery_completed_at(),
            ReplicaCoord::TsBackup(c) => c.recovery_completed_at(),
            _ => None,
        }
    }

    /// True once a backup's replay fully consumed its log (trivially true
    /// for primaries).
    pub(crate) fn recovery_complete(&self) -> bool {
        match &self.coord {
            ReplicaCoord::LockBackup(c) => c.recovery_complete(),
            ReplicaCoord::IntervalBackup(c) => c.recovery_complete(),
            ReplicaCoord::TsBackup(c) => c.recovery_complete(),
            _ => true,
        }
    }

    /// Replay records still unconsumed on a backup — a promotion must run
    /// the VM until this reaches zero (0 for primaries).
    pub(crate) fn replay_pending(&self) -> u64 {
        match &self.coord {
            ReplicaCoord::LockBackup(c) => c.replay_pending(),
            ReplicaCoord::IntervalBackup(c) => c.replay_pending(),
            ReplicaCoord::TsBackup(c) => c.replay_pending(),
            _ => 0,
        }
    }

    /// The primary core, for group drivers configuring fan-out, ack
    /// policy, voting, and link liveness (None for backups).
    pub(crate) fn primary_core(&mut self) -> Option<&mut PrimaryCore> {
        self.coord.primary_core_mut()
    }

    /// Verified in-order frames delivered on fan-out link `idx` by `now` —
    /// the co-simulation drivers' receive step.
    ///
    /// # Errors
    /// Returns a typed error (instead of panicking) when called on a
    /// replica without a channel — a misconfigured driver.
    pub(crate) fn recv_ready(
        &mut self,
        idx: usize,
        now: SimTime,
    ) -> Result<Vec<(SimTime, Bytes)>, VmError> {
        match self.coord.primary_core_mut() {
            Some(core) => Ok(core.link_mut(idx).recv_ready(now)),
            None => Err(VmError::Internal(
                "co-simulated primary replica has no replication channel".into(),
            )),
        }
    }

    /// Consumes a primary replica, returning every fan-out link in rank
    /// order plus the final replication statistics.
    ///
    /// # Errors
    /// Returns a typed error when called on a backup replica.
    pub(crate) fn into_group_parts(self) -> Result<(Vec<LogChannel>, ReplicationStats), VmError> {
        match self.coord {
            ReplicaCoord::LockPrimary(c) => Ok(c.common.into_group_parts()),
            ReplicaCoord::IntervalPrimary(c) => Ok(c.common.into_group_parts()),
            ReplicaCoord::TsPrimary(c) => Ok(c.common.into_group_parts()),
            _ => Err(VmError::Internal("into_group_parts on a backup replica".into())),
        }
    }

    /// Promotes a *finished* streaming backup to primary **in place**: the
    /// replayed VM keeps running, only the coordinator changes sides. The
    /// new reign starts with `extra_links + 1` fan-out links (all fresh
    /// transports, all marked dead — survivors re-home via per-link state
    /// transfer), the output-id allocator continues the dead reign's
    /// exactly-once numbering, the side-effect registry moves over from
    /// the replay, and the lock-id / branch-counter allocators seed from
    /// the replayed VM so fresh assignments never collide with history.
    ///
    /// # Errors
    /// Typed [`crate::backup::ReplayError::PromotionIncomplete`] when
    /// replay records are still unconsumed, and a driver-bug error when
    /// called on a primary.
    pub(crate) fn promote(
        self,
        jvm: &FtJvm,
        fault: FaultPlan,
        extra_links: usize,
    ) -> Result<Replica, VmError> {
        enum Kind {
            Lock,
            Interval,
            Ts,
        }
        let Replica { vm, coord } = self;
        let (parts, kind) = match coord {
            ReplicaCoord::LockBackup(c) => (c.into_promotion_parts(), Kind::Lock),
            ReplicaCoord::IntervalBackup(c) => (c.into_promotion_parts(), Kind::Interval),
            ReplicaCoord::TsBackup(c) => (c.into_promotion_parts(), Kind::Ts),
            _ => return Err(VmError::Internal("promote on a primary replica".into())),
        };
        let parts = parts.map_err(|e| e.at(ThreadIdx(0)))?;
        let cfg = &jvm.cfg;
        let mut core =
            PrimaryCore::with_transport(jvm.make_channel(), cfg.vm.cost.clone(), fault, parts.se);
        core.flush_threshold = cfg.flush_threshold;
        core.set_codec(cfg.codec);
        core.set_heartbeat_interval(cfg.detector.interval());
        core.set_checkpoint_interval(cfg.checkpoint_interval);
        core.seed_outputs(parts.next_output, parts.commit_samples);
        core.enable_fanout((0..extra_links).map(|_| jvm.make_channel()).collect());
        // No standby is live until the driver re-recruits it: mark every
        // link dead and start degraded (uncovered outputs are counted).
        for idx in 0..core.link_count() {
            core.mark_link_dead(idx);
        }
        core.enter_degraded();
        let coord = match kind {
            Kind::Lock => {
                let next_l_id = vm.core().monitors.max_lock_id().map_or(0, |m| m + 1);
                ReplicaCoord::LockPrimary(LockSyncPrimary::resumed(core, next_l_id))
            }
            Kind::Interval => ReplicaCoord::IntervalPrimary(IntervalPrimary::new(core)),
            Kind::Ts => {
                let last_br: HashMap<u32, u64> =
                    vm.core().threads.iter().map(|t| (t.idx.0, t.br_cnt)).collect();
                ReplicaCoord::TsPrimary(TsPrimary::resumed(core, last_br))
            }
        };
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

    /// Builds the primary replica: a VM with the mode's logging
    /// coordinator over a fresh channel.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn build_primary(&self, world: &SharedWorld, fault: FaultPlan) -> Result<Replica, VmError> {
        let mut core = PrimaryCore::with_transport(
            self.make_channel(),
            self.cfg.vm.cost.clone(),
            fault,
            (self.cfg.se_factory)(),
        );
        core.flush_threshold = self.cfg.flush_threshold;
        core.set_codec(self.cfg.codec);
        core.set_heartbeat_interval(self.cfg.detector.interval());
        core.set_checkpoint_interval(self.cfg.checkpoint_interval);
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            self.primary_env(world),
            self.vm_config(self.cfg.primary_seed),
        )?;
        let coord = match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => {
                ReplicaCoord::LockPrimary(LockSyncPrimary::new(core))
            }
            (ReplicationMode::LockSync, LockVariant::Intervals) => {
                ReplicaCoord::IntervalPrimary(IntervalPrimary::new(core))
            }
            (ReplicationMode::ThreadSched, _) => ReplicaCoord::TsPrimary(TsPrimary::new(core)),
        };
        Ok(Replica { vm, coord })
    }

    /// Builds a hot (streaming) backup replica whose log starts empty: the
    /// standby at `rank` of a replica group (rank 0 is the pair's backup).
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn build_hot_backup(&self, world: &SharedWorld, rank: u32) -> Result<Replica, VmError> {
        let se = (self.cfg.se_factory)();
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            self.backup_env(world, rank),
            self.vm_config(self.ranked_backup_seed(rank)),
        )?;
        let cost = self.cfg.vm.cost.clone();
        let coord = match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => {
                ReplicaCoord::LockBackup(LockSyncBackup::streaming(world.clone(), se, cost))
            }
            (ReplicationMode::LockSync, LockVariant::Intervals) => {
                ReplicaCoord::IntervalBackup(IntervalBackup::streaming(world.clone(), se, cost))
            }
            (ReplicationMode::ThreadSched, _) => {
                ReplicaCoord::TsBackup(TsBackup::streaming(world.clone(), se, cost))
            }
        };
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
    ) -> Result<Replica, VmError> {
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
        let coord = match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => {
                ReplicaCoord::LockBackup(LockSyncBackup::new(log, world.clone(), se, cost))
            }
            (ReplicationMode::LockSync, LockVariant::Intervals) => {
                ReplicaCoord::IntervalBackup(IntervalBackup::new(log, world.clone(), se, cost))
            }
            (ReplicationMode::ThreadSched, _) => {
                ReplicaCoord::TsBackup(TsBackup::new(log, world.clone(), se, cost))
            }
        };
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
    ) -> Result<Replica, VmError> {
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
        let coord = match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => {
                ReplicaCoord::LockBackup(LockSyncBackup::resumed(world.clone(), se, cost, seed)?)
            }
            (ReplicationMode::LockSync, LockVariant::Intervals) => ReplicaCoord::IntervalBackup(
                IntervalBackup::resumed(world.clone(), se, cost, seed)?,
            ),
            (ReplicationMode::ThreadSched, _) => {
                // The cut happened with no schedule record half-captured,
                // so the thread current on the primary is the designated
                // thread; the restored VM preserves it. Branch counters
                // seed from the restored threads so progress-cost
                // accounting continues rather than restarting.
                let core = vm.core();
                let designated = core
                    .current
                    .and_then(|idx| core.threads.get(idx.0 as usize))
                    .and_then(|t| t.vt.clone())
                    .or_else(|| Some(VtPath::root()));
                let last_br: HashMap<u32, u64> =
                    core.threads.iter().map(|t| (t.idx.0, t.br_cnt)).collect();
                ReplicaCoord::TsBackup(TsBackup::resumed(
                    world.clone(),
                    se,
                    cost,
                    seed,
                    designated,
                    last_br,
                )?)
            }
        };
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
        let (channel, stats) = primary.into_primary_parts()?;
        Ok((report, channel, stats))
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
        Ok((report, backup.backup_stats(), backup.recovery_completed_at()))
    }
}
