//! N-replica groups: rank-ordered promotion chains and ND-record quorum
//! voting (BFT-lite).
//!
//! [`GroupTask`] is the one driver that slices a hot primary and feeds
//! its standbys — a hot pair ([`crate::pair`]) is a group of size 2, and
//! [`crate::FtJvm`] builds its replicas. The primary fans its sealed frame
//! stream over `k` independent links (one [`crate::primary::LogChannel`] per standby, each with its
//! own send/receive windows on a lossy transport), every standby
//! acknowledges independently, and output commit waits on a configurable
//! [`AckPolicy`] over the live links. Standbys carry a *static rank* —
//! their member id, assigned at construction — and on heartbeat-detected
//! primary death the lowest-rank live standby promotes **in place** via
//! the replica runtime's promotion path: it replays its verified log
//! prefix, keeps its VM, and swaps its coordinator to the primary side.
//! Survivors re-home to the new reign through snapshot-grounded state
//! transfer (their old decode context belongs to the dead reign's
//! stream), so the group tolerates a *chain* of failovers: each reign is
//! a fresh fan-out from the newest primary, and each promotion continues
//! the dead reign's exactly-once output numbering. The chain ends when
//! the promoting standby held the only seat: with nobody left to stream
//! to, it finishes the program as the backup it is.
//!
//! # BFT-lite digest voting
//!
//! With [`GroupConfig::vote_quorum`]`= Some(q)` the primary follows every
//! record-bearing frame with a digest vote — CRC32C over the frame as the
//! replication layer produced it, *before* any (injected) byzantine bit
//! flip and before CRC sealing. Each standby recomputes the digest over
//! the copy it received and compares it with the claim:
//!
//! * a **mismatching minority** of standbys received corrupted copies —
//!   they refuse the frame (their replay state stays honest), are marked
//!   suspect, evicted, and re-recruited from an honest snapshot;
//! * a **mismatching majority** means the primary itself is the outlier
//!   (it equivocated): the primary's own quorum gate in
//!   [`crate::primary::PrimaryCore`] refuses to release the next output
//!   commit — fewer than `q` matching digests can ever arrive — and
//!   demotes itself *before the corrupted output byte escapes*; the group
//!   driver then runs the ordinary rank-ordered promotion.
//!
//! Outputs in vote mode release only after the ack policy **and** `q-1`
//! untainted standby acknowledgments (the primary's own claim is the
//! `q`-th matching digest).

use crate::backup::Backup;
use crate::codec::{
    flush_digest, frame_digest, frame_is_epoch_mark, frame_is_heartbeat, frame_is_snapshot_chunk,
    frame_is_vote, parse_vote_frame, SnapshotAssembler,
};
use crate::ftjvm::FtJvm;
use crate::primary::{AckPolicy, Primary};
use crate::runtime::{Replica, SLICE_UNITS};
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{ChannelStats, FaultPlan, HeartbeatMonitor, SimTime};
use ftjvm_vm::{RunReport, SharedWorld, SliceOutcome, VmError, World};

/// Configuration of one replica group run.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Total group size: one primary plus `size - 1` ranked standbys.
    pub size: usize,
    /// Output-commit acknowledgment policy over the live fan-out links.
    pub ack_policy: AckPolicy,
    /// BFT-lite digest voting: outputs release only once this many
    /// matching digests exist (the primary's claim included). `None`
    /// disables vote frames and the release gate entirely.
    pub vote_quorum: Option<u32>,
    /// Fault plan per reign: `kills[0]` fells the initial primary,
    /// `kills[1]` its successor, and so on. Missing entries mean the
    /// reigning primary runs to completion. `AfterInstructions` and
    /// `AfterFlush` counters are reign-relative (each promotion starts a
    /// fresh primary core); `BeforeOutput`/`AfterOutput` thresholds are in
    /// the *global* output-id sequence, which promotion continues.
    pub kills: Vec<FaultPlan>,
    /// Kill the standby at this rank slot after this many primary
    /// execution units (fail-stop; the primary notices via its reverse
    /// heartbeat detector). Fires at most once, at the first slice past
    /// the unit count (reign-relative) at which that slot's standby is
    /// live. The slot must exist (`< size - 1`).
    pub kill_standby_after_units: Option<(usize, u64)>,
    /// Re-recruit dead, evicted, and re-homing standbys via snapshot +
    /// chunked state transfer. Without it any lost standby stays lost and
    /// each promotion leaves the new primary permanently degraded.
    pub reintegrate: bool,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            size: 3,
            ack_policy: AckPolicy::All,
            vote_quorum: None,
            kills: Vec::new(),
            kill_standby_after_units: None,
            reintegrate: true,
        }
    }
}

/// What a [`GroupTask::step`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupEvent {
    /// The local clock reached the step target; the group is still running.
    Running {
        /// The group-local instant after the step.
        now: SimTime,
    },
    /// The scheduled standby kill fired.
    StandbyKilled {
        /// The kill instant.
        at: SimTime,
        /// Member id of the killed standby.
        member: u32,
    },
    /// Every standby is dead: the primary stopped waiting for
    /// acknowledgments.
    Degraded {
        /// The degraded-entry instant (the reverse detector's deadline, or
        /// the eviction instant).
        at: SimTime,
    },
    /// A standby finished state transfer and went live.
    Reintegrated {
        /// The reintegration instant.
        at: SimTime,
        /// Member id of the reintegrated standby.
        member: u32,
    },
    /// A standby was evicted on a digest-vote mismatch.
    Evicted {
        /// The eviction instant.
        at: SimTime,
        /// Member id of the evicted standby.
        member: u32,
    },
    /// The reigning primary crashed or was demoted by the vote quorum. If
    /// a standby survived, the next reign is already running (promotion,
    /// catch-up replay, and re-homing kick-off happened inside the step);
    /// otherwise the next step returns [`GroupEvent::Done`].
    PrimaryFailed {
        /// The crash/demotion instant.
        at: SimTime,
        /// The 0-based reign that just ended.
        reign: usize,
    },
    /// The run is over and the report is ready
    /// ([`GroupTask::into_report`]).
    Done,
}

/// One successful rank-ordered promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// The 0-based reign that ended.
    pub reign: usize,
    /// When the reigning primary died (its own clock).
    pub crash_at: SimTime,
    /// Heartbeat-deadline detection latency on the promoting standby.
    pub detection_latency: SimTime,
    /// Verified-prefix suffix replay time after promotion.
    pub suffix_replay: SimTime,
    /// Member id of the standby that promoted.
    pub promoted: u32,
    /// True when the reign ended in a digest-vote demotion rather than a
    /// fail-stop crash.
    pub demoted_by_vote: bool,
}

/// Per-reign primary-side statistics.
#[derive(Debug, Clone)]
pub struct ReignStats {
    /// Member id of the replica that reigned.
    pub member: u32,
    /// Its run report at reign end (completion, crash, or demotion).
    pub report: RunReport,
    /// Its replication statistics.
    pub stats: ReplicationStats,
    /// Per-link channel statistics, in rank-slot order.
    pub channels: Vec<ChannelStats>,
}

/// One entry of the human-readable failure timeline.
#[derive(Debug, Clone)]
pub struct GroupMoment {
    /// The simulated instant.
    pub at: SimTime,
    /// What happened.
    pub what: String,
}

impl std::fmt::Display for GroupMoment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12}ns] {}", self.at.as_nanos(), self.what)
    }
}

/// The standby side of a run's end: the lowest-rank standby still live
/// when the run ended, after it replayed the stream to its end — quietly
/// behind a primary that completed, or, as the last seat of a promotion
/// chain, on through the rest of the program.
#[derive(Debug)]
pub struct StandbyEnd {
    /// Member id of that standby.
    pub member: u32,
    /// Its run report.
    pub report: RunReport,
    /// Its backup-side replication statistics (pending-record watermark,
    /// commit samples of outputs it performed past the log's end).
    pub stats: ReplicationStats,
}

/// The finished report of one replica-group run.
#[derive(Debug)]
pub struct GroupReport {
    /// The configured group size.
    pub size: usize,
    /// Run report of the member that finished (or, when the whole group
    /// was lost, of the last primary to die).
    pub final_report: RunReport,
    /// Member id of that replica (0 is the original primary).
    pub survivor: u32,
    /// True when the program ran to completion on some member.
    pub completed: bool,
    /// True when at least one reign ended in a crash or demotion.
    pub crashed: bool,
    /// Every successful promotion, in order.
    pub failovers: Vec<FailoverRecord>,
    /// Standbys evicted on digest-vote mismatches.
    pub evictions: u64,
    /// Primary-side statistics per reign, in order.
    pub reigns: Vec<ReignStats>,
    /// The standby side of the run's end; `None` when no standby was live.
    pub standby: Option<StandbyEnd>,
    /// When the scheduled standby kill fired.
    pub standby_killed_at: Option<SimTime>,
    /// When a reigning primary first ran with no live standby: the reverse
    /// detector's deadline for the last one, an eviction, or a promotion
    /// into a reign whose seats are still re-homing.
    pub degraded_at: Option<SimTime>,
    /// Every instant a standby finished state transfer and went live.
    pub reintegrated: Vec<SimTime>,
    /// The failure timeline, in order.
    pub timeline: Vec<GroupMoment>,
    /// The shared world: console, files, applied outputs.
    pub world: SharedWorld,
}

impl GroupReport {
    /// The console text lines the external world observed, in order.
    pub fn console(&self) -> Vec<String> {
        self.world.borrow().console_texts()
    }

    /// Checks that every console output id is unique (no duplicated
    /// outputs — the observable half of exactly-once).
    ///
    /// # Errors
    /// Returns the offending output id.
    pub fn check_no_duplicate_outputs(&self) -> Result<(), u64> {
        let world = self.world.borrow();
        let mut seen = std::collections::BTreeSet::new();
        for line in world.console() {
            if !seen.insert(line.output_id) {
                return Err(line.output_id);
            }
        }
        Ok(())
    }

    /// True when any reign ended in a digest-vote demotion.
    pub fn demoted_by_vote(&self) -> bool {
        self.reigns.iter().any(|r| r.stats.byzantine_demotions > 0)
    }

    /// Total byzantine flips the injection applied across all reigns.
    pub fn byzantine_flips(&self) -> u64 {
        self.reigns.iter().map(|r| r.stats.byzantine_flips).sum()
    }
}

/// Driver-side digest-vote gate for one fan-out link: accumulates the
/// record-bearing frames of one flush and releases the whole group to the
/// standby only when the flush's vote arrives with a matching combined
/// digest. Verifying per flush (not per frame) preserves the atomic sets
/// the protocol keeps inside one flush — a native's result and its
/// side-effect snapshot, an output commit and its payload — so a
/// mismatch (or a crash) can never release half of one: the gate's
/// verified prefix always ends on a flush boundary. Group-by-adjacency
/// (not index bookkeeping) keeps the gate robust to mid-reign joins: a
/// state-transferred standby starts a fresh gate on a fresh link and its
/// stream begins on a flush boundary.
struct VoteGate {
    /// False outside vote mode: everything passes through untouched.
    enabled: bool,
    /// The record-bearing frames of the in-progress flush group, awaiting
    /// the group's vote.
    pending: Vec<(SimTime, Bytes)>,
    /// A mismatch happened: this link's stream is poisoned past the
    /// verified prefix; nothing further is released.
    stalled: bool,
}

impl VoteGate {
    fn new(enabled: bool) -> Self {
        VoteGate { enabled, pending: Vec::new(), stalled: false }
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.stalled = false;
    }

    /// Routes one arrived frame, appending anything releasable to `out`.
    /// Released records carry their *vote's* arrival instant — the
    /// standby may not act on them before verification completes.
    fn admit(&mut self, arrival: SimTime, frame: Bytes, out: &mut Vec<(SimTime, Bytes)>) {
        if self.stalled {
            return;
        }
        if frame_is_vote(&frame) {
            let claim = match parse_vote_frame(&frame) {
                Ok((_fi, claim)) => claim,
                Err(_) => {
                    self.stalled = true;
                    return;
                }
            };
            let digests: Vec<u32> = self.pending.iter().map(|(_, f)| frame_digest(f)).collect();
            if !self.pending.is_empty() && flush_digest(&digests) == claim {
                out.extend(self.pending.drain(..).map(|(_, rec)| (arrival, rec)));
            } else {
                // Mismatch, or a vote with no preceding records: the
                // copies on this link diverged from the primary's claim.
                self.pending.clear();
                self.stalled = true;
            }
            return;
        }
        if frame_is_heartbeat(&frame)
            || frame_is_snapshot_chunk(&frame)
            || frame_is_epoch_mark(&frame)
        {
            // Liveness and control traffic carries no vote, and is never
            // sent mid-flush — it cannot interleave with a vote group.
            out.push((arrival, frame));
            return;
        }
        self.pending.push((arrival, frame));
    }

    fn admit_all(&mut self, delivered: Vec<(SimTime, Bytes)>) -> Vec<(SimTime, Bytes)> {
        if !self.enabled {
            return delivered;
        }
        let mut out = Vec::with_capacity(delivered.len());
        for (arrival, frame) in delivered {
            self.admit(arrival, frame, &mut out);
        }
        out
    }
}

/// The standby occupying one rank slot, as the driver sees it.
enum SlotState {
    /// A live hot standby consuming the stream.
    Live(Box<Replica<Backup>>),
    /// Killed, evicted, or awaiting re-homing; no replacement recruited.
    Dead,
    /// State transfer in progress: record frames buffer here until the
    /// snapshot chunks assemble and the replacement comes up.
    Transfer(Vec<(SimTime, Bytes)>),
}

/// One rank slot: link index on the reigning primary equals the slot's
/// position, the member id is the replica's static rank identity.
struct Slot {
    member: u32,
    /// Build rank for replica construction (environment naming and seed
    /// derivation) — distinct from `member` because a re-badged slot (a
    /// dead ex-primary's seat refilled by a fresh process) gets a fresh
    /// incarnation rank.
    rank: u32,
    state: SlotState,
    monitor: HeartbeatMonitor,
    assembler: SnapshotAssembler,
    /// Epoch the slot's snapshot covers — its epoch acks are relative to
    /// this base.
    ack_base: u64,
    report: Option<RunReport>,
    gate: VoteGate,
    /// Pending reverse-detection deadline after a kill; `None` once the
    /// primary has marked the link dead (or the death was a driver-level
    /// membership decision needing no detector).
    dead_deadline: Option<SimTime>,
}

impl Slot {
    fn is_live(&self) -> bool {
        matches!(self.state, SlotState::Live(_))
    }
}

/// One reign: the current primary plus the rank slots streaming from it.
struct ReignState {
    reign: usize,
    member: u32,
    primary: Box<Replica<Primary>>,
    slots: Vec<Slot>,
    units_run: u64,
}

/// The phase a [`GroupTask`] is in.
#[allow(clippy::large_enum_variant)]
enum GState {
    /// A reign is running.
    Run(Box<ReignState>),
    /// Report ready.
    Finished,
    /// A step returned an error; the task is poisoned.
    Failed,
}

/// One replica group as a resumable value: the reigning primary, the
/// ranked standbys, per-slot failure detection, vote gates, and the
/// promotion chain in a single owned task.
pub struct GroupTask {
    jvm: FtJvm,
    world: SharedWorld,
    cfg: GroupConfig,
    state: GState,
    /// Next unassigned incarnation rank — re-badged slots (refilled
    /// ex-primary seats) draw fresh ranks from here.
    fresh_rank: u32,
    crashes: u64,
    evictions: u64,
    failovers: Vec<FailoverRecord>,
    reigns: Vec<ReignStats>,
    standby_killed_at: Option<SimTime>,
    degraded_at: Option<SimTime>,
    reintegrated: Vec<SimTime>,
    timeline: Vec<GroupMoment>,
    report: Option<GroupReport>,
}

impl std::fmt::Debug for GroupTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match &self.state {
            GState::Run(st) => format!("reign-{}", st.reign),
            GState::Finished => "finished".into(),
            GState::Failed => "failed".into(),
        };
        f.debug_struct("GroupTask")
            .field("phase", &phase)
            .field("size", &self.cfg.size)
            .field("now", &self.now())
            .finish()
    }
}

/// The group's collective epoch acknowledgment: the slowest slot bounds
/// how much retained log prefix the primary may truncate. Transferring
/// slots pin their snapshot's epoch; dead slots pin nothing (their
/// replacement restarts from a fresh snapshot).
fn group_epoch_ack(slots: &[Slot]) -> Option<u64> {
    let mut min: Option<u64> = None;
    for s in slots {
        let acked = match &s.state {
            SlotState::Live(b) => s.ack_base + b.backup().epochs_absorbed(),
            SlotState::Transfer(_) => s.ack_base,
            SlotState::Dead => continue,
        };
        min = Some(min.map_or(acked, |m| m.min(acked)));
    }
    min
}

/// Routes delivered frames into one rank slot: live standbys consume them
/// through the vote gate, dead slots lose them, and during state transfer
/// snapshot chunks assemble (completion brings the replacement up at the
/// final chunk's arrival and replays the gated buffered suffix). Returns
/// the reintegration instant when the transfer completed.
fn deliver_slot(
    jvm: &FtJvm,
    world: &SharedWorld,
    slot: &mut Slot,
    delivered: Vec<(SimTime, Bytes)>,
) -> Result<Option<SimTime>, VmError> {
    if delivered.is_empty() {
        return Ok(None);
    }
    match std::mem::replace(&mut slot.state, SlotState::Dead) {
        SlotState::Dead => Ok(None),
        SlotState::Live(mut b) => {
            let released = slot.gate.admit_all(delivered);
            pump_backup(&mut b, &mut slot.monitor, released, &mut slot.report)?;
            slot.state = SlotState::Live(b);
            Ok(None)
        }
        SlotState::Transfer(mut buffered) => {
            let mut live: Option<(Box<Replica<Backup>>, SimTime)> = None;
            let mut iter = delivered.into_iter();
            for (arrival, frame) in iter.by_ref() {
                if frame_is_snapshot_chunk(&frame) {
                    let done = slot
                        .assembler
                        .offer(&frame)
                        .map_err(|e| VmError::Internal(format!("snapshot transfer: {e}")))?;
                    if let Some((_epoch, blob)) = done {
                        let mut nb = Box::new(jvm.build_resumed_backup(world, &blob, slot.rank)?);
                        nb.wait_until(arrival);
                        slot.monitor = jvm.cfg.detector.monitor(arrival);
                        slot.report = None;
                        slot.gate.reset();
                        let seeded = slot.gate.admit_all(std::mem::take(&mut buffered));
                        pump_backup(&mut nb, &mut slot.monitor, seeded, &mut slot.report)?;
                        live = Some((nb, arrival));
                        break;
                    }
                } else {
                    buffered.push((arrival, frame));
                }
            }
            match live {
                Some((mut b, at)) => {
                    let rest = slot.gate.admit_all(iter.collect());
                    pump_backup(&mut b, &mut slot.monitor, rest, &mut slot.report)?;
                    slot.state = SlotState::Live(b);
                    Ok(Some(at))
                }
                None => {
                    slot.state = SlotState::Transfer(buffered);
                    Ok(None)
                }
            }
        }
    }
}

/// Feeds delivered `(arrival, frame)` pairs into a hot standby, re-arming
/// the failure detector at each heartbeat arrival, then lets the standby
/// replay until it catches up with the log (starves) or finishes.
fn pump_backup(
    backup: &mut Replica<Backup>,
    monitor: &mut HeartbeatMonitor,
    delivered: Vec<(SimTime, Bytes)>,
    done: &mut Option<RunReport>,
) -> Result<(), VmError> {
    if delivered.is_empty() {
        return Ok(());
    }
    for (arrival, frame) in delivered {
        if backup.feed_frame(arrival, frame)? > 0 {
            monitor.observe(arrival);
        }
    }
    if done.is_some() {
        return Ok(());
    }
    backup.poll_suspended();
    match backup.step(u64::MAX)? {
        SliceOutcome::Paused => {}
        SliceOutcome::Completed(r) | SliceOutcome::Stopped(r) => *done = Some(r),
        SliceOutcome::Budget => {
            Err(VmError::Internal("unbounded backup slice exhausted its budget".into()))?;
        }
    }
    Ok(())
}

impl GroupTask {
    /// Builds a replica group: a primary fanning out to `size - 1` ranked
    /// hot standbys. Rank slot 0 is the classic pair backup, bit for bit.
    ///
    /// # Errors
    /// Returns an error when [`crate::FtConfig::checkpoint_interval`] is
    /// unset although a join could need a state transfer (any group but a
    /// size-2 one that never re-integrates), when the size, quorum, or
    /// standby-kill slot is out of range, and propagates program-loading
    /// errors.
    pub fn new(jvm: FtJvm, cfg: GroupConfig) -> Result<Self, VmError> {
        if cfg.size < 2 {
            return Err(VmError::Internal("a replica group needs at least 2 members".into()));
        }
        // Snapshots ground every join: re-integration of a lost standby,
        // and the re-homing of the other seats after a promotion.
        let joins_possible = cfg.reintegrate || cfg.size > 2;
        if joins_possible && jvm.cfg.checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "replica groups require FtConfig::checkpoint_interval (state transfer grounds every join)"
                    .into(),
            ));
        }
        if let Some((idx, _)) = cfg.kill_standby_after_units {
            if idx >= cfg.size - 1 {
                return Err(VmError::Internal(format!(
                    "kill_standby_after_units names rank slot {idx}, but a group of {} has slots 0..{}",
                    cfg.size,
                    cfg.size - 1
                )));
            }
        }
        if let Some(q) = cfg.vote_quorum {
            if q < 2 || q as usize > cfg.size {
                return Err(VmError::Internal(format!(
                    "vote_quorum {q} out of range for a group of {}",
                    cfg.size
                )));
            }
        }
        let world = World::shared();
        let fault = cfg.kills.first().copied().unwrap_or(FaultPlan::None);
        let mut primary = Box::new(jvm.build_fanout_primary(&world, fault, cfg.size - 1)?);
        {
            let core = primary.core();
            core.set_ack_policy(cfg.ack_policy);
            core.set_vote_quorum(cfg.vote_quorum);
            // Byzantine injection models the *original* primary's fault;
            // replacements promoted later are honest.
            core.set_byzantine(jvm.cfg.net_fault.clone());
        }
        let mut slots = Vec::with_capacity(cfg.size - 1);
        for i in 0..cfg.size - 1 {
            let b = jvm.build_hot_backup(&world, i as u32)?;
            slots.push(Slot {
                member: i as u32 + 1,
                rank: i as u32,
                state: SlotState::Live(Box::new(b)),
                monitor: jvm.cfg.detector.monitor(SimTime::ZERO),
                assembler: SnapshotAssembler::new(),
                ack_base: 0,
                report: None,
                gate: VoteGate::new(cfg.vote_quorum.is_some()),
                dead_deadline: None,
            });
        }
        let state =
            GState::Run(Box::new(ReignState { reign: 0, member: 0, primary, slots, units_run: 0 }));
        let fresh_rank = cfg.size as u32 - 1;
        Ok(GroupTask {
            jvm,
            world,
            cfg,
            state,
            fresh_rank,
            crashes: 0,
            evictions: 0,
            failovers: Vec::new(),
            reigns: Vec::new(),
            standby_killed_at: None,
            degraded_at: None,
            reintegrated: Vec::new(),
            timeline: Vec::new(),
            report: None,
        })
    }

    /// The group-local instant the task has reached.
    pub fn now(&self) -> SimTime {
        match &self.state {
            GState::Run(st) => st.primary.now(),
            GState::Finished | GState::Failed => {
                self.report.as_ref().map(|r| r.final_report.acct.now()).unwrap_or(SimTime::ZERO)
            }
        }
    }

    /// True once the report is ready and further steps return
    /// [`GroupEvent::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self.state, GState::Finished)
    }

    /// The finished report, if the run is over.
    pub fn report(&self) -> Option<&GroupReport> {
        self.report.as_ref()
    }

    /// Consumes the task, returning the group report.
    ///
    /// # Errors
    /// Returns an error if the task has not finished.
    pub fn into_report(self) -> Result<GroupReport, VmError> {
        self.report.ok_or_else(|| VmError::Internal("group task has no report yet".into()))
    }

    /// Steps the task to completion.
    ///
    /// # Errors
    /// Propagates the first step error.
    pub fn run_to_completion(mut self) -> Result<Self, VmError> {
        while !self.is_done() {
            self.step(SimTime::MAX)?;
        }
        Ok(self)
    }

    /// Advances the group until its local clock reaches `until`, a state
    /// transition happens, or the run completes. Pass [`SimTime::MAX`] to
    /// run to the next transition regardless of time.
    ///
    /// # Errors
    /// Propagates fatal VM errors from any replica; the task is poisoned
    /// afterwards.
    pub fn step(&mut self, until: SimTime) -> Result<GroupEvent, VmError> {
        match std::mem::replace(&mut self.state, GState::Failed) {
            GState::Finished => {
                self.state = GState::Finished;
                Ok(GroupEvent::Done)
            }
            GState::Failed => Err(VmError::Internal("stepping a failed group task".into())),
            GState::Run(st) => self.step_run(st, until),
        }
    }

    fn note(&mut self, at: SimTime, what: String) {
        self.timeline.push(GroupMoment { at, what });
    }

    fn finish(
        &mut self,
        final_report: RunReport,
        survivor: u32,
        completed: bool,
        standby: Option<StandbyEnd>,
    ) {
        self.report = Some(GroupReport {
            size: self.cfg.size,
            final_report,
            survivor,
            completed,
            crashed: self.crashes > 0,
            failovers: std::mem::take(&mut self.failovers),
            evictions: self.evictions,
            reigns: std::mem::take(&mut self.reigns),
            standby,
            standby_killed_at: self.standby_killed_at,
            degraded_at: self.degraded_at,
            reintegrated: std::mem::take(&mut self.reintegrated),
            timeline: std::mem::take(&mut self.timeline),
            world: self.world.clone(),
        });
        self.state = GState::Finished;
    }

    /// Marks link `idx`'s standby dead on the reigning primary; with no
    /// live link left the primary goes degraded (output commits stop
    /// waiting for acknowledgments). Returns whether it did.
    fn drop_link(&mut self, primary: &mut Replica<Primary>, idx: usize, at: SimTime) -> bool {
        let core = primary.core();
        core.mark_link_dead(idx);
        if core.live_links() > 0 || core.is_degraded() {
            return false;
        }
        core.enter_degraded();
        self.degraded_at.get_or_insert(at);
        true
    }

    /// One reign's co-simulation pass: slice the primary, apply the kill
    /// schedule and reverse detection, recruit replacements, deliver every
    /// link through its vote gate, apply the eviction policy, and handle
    /// reign end (completion, crash, or vote demotion — the latter two
    /// flowing into rank-ordered promotion).
    #[allow(clippy::too_many_lines)]
    fn step_run(&mut self, mut st: Box<ReignState>, until: SimTime) -> Result<GroupEvent, VmError> {
        let (primary_report, crashed) = loop {
            let outcome = st.primary.step(SLICE_UNITS)?;
            st.units_run += SLICE_UNITS;
            let now_p = st.primary.now();
            let mut killed_now: Option<u32> = None;
            let mut degraded_now: Option<SimTime> = None;
            let mut reintegrated_now: Option<(SimTime, u32)> = None;
            let mut evicted_now: Option<u32> = None;

            // Scheduled standby kill: fail-stop at a slice boundary. The
            // primary only learns of it when the reverse-heartbeat
            // deadline lapses below.
            if let (Some((idx, after)), None) =
                (self.cfg.kill_standby_after_units, self.standby_killed_at)
            {
                let slot = &mut st.slots[idx];
                if let (true, SlotState::Live(standby)) = (st.units_run >= after, &mut slot.state) {
                    standby.fail_env();
                    slot.state = SlotState::Dead;
                    slot.report = None;
                    slot.dead_deadline = Some(self.jvm.cfg.detector.monitor(now_p).deadline());
                    let member = slot.member;
                    self.standby_killed_at = Some(now_p);
                    killed_now = Some(member);
                    self.note(now_p, format!("standby m{member} killed"));
                }
            }

            // Reverse failure detection, per slot: acknowledgment waits
            // keep counting a killed standby's link until its deadline
            // lapses — a timing artifact only (phantom transport acks of a
            // dead host); exactly-once output is unaffected.
            for idx in 0..st.slots.len() {
                let Some(deadline) = st.slots[idx].dead_deadline else { continue };
                if now_p < deadline {
                    continue;
                }
                st.slots[idx].dead_deadline = None;
                let member = st.slots[idx].member;
                if self.drop_link(&mut st.primary, idx, deadline) {
                    degraded_now = Some(deadline);
                    self.note(deadline, format!("standby m{member} declared dead; degraded"));
                } else {
                    self.note(deadline, format!("standby m{member} declared dead"));
                }
            }

            // Recruit one replacement per pass: force-cut a fresh epoch
            // (retried until the VM is at a cuttable boundary) and start
            // the state transfer on a fresh link toward that rank slot.
            if self.cfg.reintegrate {
                let dead = st
                    .slots
                    .iter()
                    .position(|s| matches!(s.state, SlotState::Dead) && s.dead_deadline.is_none());
                if let Some(idx) = dead {
                    let fresh = self.jvm.make_channel();
                    if let Some(base) = st.primary.begin_state_transfer(idx, fresh)? {
                        let slot = &mut st.slots[idx];
                        slot.ack_base = base;
                        slot.assembler = SnapshotAssembler::new();
                        slot.gate.reset();
                        slot.report = None;
                        slot.state = SlotState::Transfer(Vec::new());
                        let member = slot.member;
                        self.note(
                            st.primary.now(),
                            format!("state transfer to m{member} begun (epoch {base})"),
                        );
                    }
                }
            }

            // Fan-in: deliver each link's verified arrivals to its slot.
            for idx in 0..st.slots.len() {
                let ready = st.primary.core().link_mut(idx).recv_ready(now_p);
                if let Some(at) = deliver_slot(&self.jvm, &self.world, &mut st.slots[idx], ready)? {
                    let member = st.slots[idx].member;
                    self.reintegrated.push(at);
                    reintegrated_now = Some((at, member));
                    self.note(at, format!("standby m{member} reintegrated at rank slot {idx}"));
                }
            }

            // Digest-vote eviction policy: stalled standbys received
            // corrupted copies — evict and re-recruit them from an honest
            // snapshot, unless they form a strict *majority* of the live
            // set. A stalled majority means the primary equivocated: leave
            // the honest survivors holding their verified prefixes and let
            // the primary's own quorum gate demote it. (A half-half split
            // sides with the unstalled half: availability-preserving, and
            // a primary that tainted that many links demotes itself at its
            // next output commit anyway.)
            let stalled: Vec<usize> = st
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.gate.stalled && s.is_live())
                .map(|(i, _)| i)
                .collect();
            if !stalled.is_empty() {
                let live = st.slots.iter().filter(|s| s.is_live()).count();
                if stalled.len() * 2 <= live {
                    for idx in stalled {
                        let member = st.slots[idx].member;
                        if let SlotState::Live(mut dead) =
                            std::mem::replace(&mut st.slots[idx].state, SlotState::Dead)
                        {
                            dead.fail_env();
                        }
                        st.slots[idx].report = None;
                        st.slots[idx].dead_deadline = None;
                        if self.drop_link(&mut st.primary, idx, now_p) {
                            degraded_now = Some(now_p);
                        }
                        self.evictions += 1;
                        evicted_now = Some(member);
                        self.note(now_p, format!("standby m{member} evicted: digest mismatch"));
                    }
                }
            }

            // Epoch-ack relay (the slowest member gates prefix truncation)
            // and degraded exit once any healthy standby streams again.
            if let Some(ack) = group_epoch_ack(&st.slots) {
                st.primary.core().record_epoch_ack(ack);
            }
            if st.slots.iter().any(|s| s.is_live() && !s.gate.stalled) {
                st.primary.core().exit_degraded();
            }

            match outcome {
                SliceOutcome::Budget => {
                    st.primary.try_cut_epoch()?;
                    // Yield on milestones (latest wins) or on reaching the
                    // step target; otherwise keep iterating.
                    let event = if let Some(member) = evicted_now {
                        Some(GroupEvent::Evicted { at: now_p, member })
                    } else if let Some((at, member)) = reintegrated_now {
                        Some(GroupEvent::Reintegrated { at, member })
                    } else if let Some(at) = degraded_now {
                        Some(GroupEvent::Degraded { at })
                    } else if let Some(member) = killed_now {
                        Some(GroupEvent::StandbyKilled { at: now_p, member })
                    } else if now_p >= until {
                        Some(GroupEvent::Running { now: now_p })
                    } else {
                        None
                    };
                    if let Some(event) = event {
                        self.state = GState::Run(st);
                        return Ok(event);
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };

        // --- Reign end -----------------------------------------------------
        let crash_at = primary_report.acct.now();
        let ReignState { reign, member, mut primary, mut slots, .. } = *st;
        if crashed {
            // Fail-stop: the primary's volatile environment state is lost
            // with its process; the external world survives.
            primary.fail_env();
        }
        let (mut links, pstats) = primary.into_parts();
        // Takeover delivery: everything flushed *and verified in order* per
        // link reaches its slot; records still in the primary's buffer —
        // and, on a lossy link, frames beyond an unresolved gap — are lost
        // with it. A state transfer may complete during the drain (chunks
        // already on the wire when the primary died).
        let mut channels = Vec::with_capacity(links.len());
        for (idx, link) in links.iter_mut().enumerate() {
            let drained = link.drain();
            if let Some(slot) = slots.get_mut(idx) {
                if let Some(at) = deliver_slot(&self.jvm, &self.world, slot, drained)? {
                    let m = slot.member;
                    self.reintegrated.push(at);
                    self.note(at, format!("standby m{m} reintegrated during takeover"));
                }
            }
            channels.push(link.stats());
        }
        let demoted_by_vote = pstats.byzantine_demotions > 0;
        self.reigns.push(ReignStats {
            member,
            report: primary_report.clone(),
            stats: pstats,
            channels,
        });

        if !crashed {
            // Failure-free reign end: the stream is over; every healthy
            // standby replays the remainder quietly (each output has a
            // commit record, so replay suppresses them all). Stalled
            // standbys hold their verified prefix and are dropped — their
            // gate refused frames, so running them live would re-execute.
            let mut standby = None;
            for slot in &mut slots {
                if slot.gate.stalled {
                    continue;
                }
                if let SlotState::Live(b) = &mut slot.state {
                    b.finish_stream();
                    let report = match slot.report.take() {
                        Some(r) => r,
                        None => b.run_to_end()?,
                    };
                    standby.get_or_insert(StandbyEnd {
                        member: slot.member,
                        report,
                        stats: b.backup().stats().clone(),
                    });
                }
            }
            self.note(crash_at, format!("m{member} completed the program"));
            self.finish(primary_report, member, true, standby);
            return Ok(GroupEvent::Done);
        }

        self.crashes += 1;
        self.note(
            crash_at,
            if demoted_by_vote {
                format!("m{member} demoted: digest-vote quorum unreachable")
            } else {
                format!("m{member} crashed")
            },
        );

        // Rank-ordered promotion: the lowest-rank live standby takes over.
        // Without one the run exceeded its fault model; report what
        // happened.
        let Some(chosen) = slots.iter().position(Slot::is_live) else {
            self.note(crash_at, "no live standby: the group is lost".into());
            self.finish(primary_report, member, false, None);
            return Ok(GroupEvent::PrimaryFailed { at: crash_at, reign });
        };
        let slot = slots.remove(chosen);
        let SlotState::Live(mut b) = slot.state else {
            return Err(VmError::Internal("promotion chose a standby that is not live".into()));
        };
        // Detection fires when the heartbeat deadline lapses — measured on
        // the arrival timeline, not computed from the crash instant (which
        // no one observes). The standby learns of the failure then and
        // becomes the authority.
        let detection_at = slot.monitor.deadline().max(crash_at);
        let detection_latency = detection_at - crash_at;
        b.wait_until(detection_at);
        let promoted_at = b.now();
        b.finish_stream();
        let finished = match slot.report {
            Some(r) => Some(r),
            // The chain ends when the promoting standby held the only
            // seat: nobody is left to stream to, so it carries the program
            // to completion as the backup it is (one coarse run — slicing
            // would add thread-scheduling consults).
            None if slots.is_empty() => Some(b.run_to_end()?),
            // Catch-up replay of the verified suffix, sliced so promotion
            // happens the moment recovery completes. The (rare) completion
            // here means the program ended inside the dead reign's log.
            None => {
                let mut done = None;
                while done.is_none()
                    && (!b.backup().recovery_complete() || b.backup().replay_pending() > 0)
                {
                    match b.step(SLICE_UNITS)? {
                        SliceOutcome::Budget => {}
                        SliceOutcome::Paused => {
                            return Err(VmError::Internal(
                                "promoting standby paused after stream end".into(),
                            ));
                        }
                        SliceOutcome::Completed(r) => done = Some(r),
                        SliceOutcome::Stopped(_) => {
                            return Err(VmError::Internal("promoting standby fail-stopped".into()));
                        }
                    }
                }
                done
            }
        };
        // Only the unconsumed suffix of the log remained to replay.
        let recovered_at = b.backup().recovery_completed_at().unwrap_or_else(|| b.now());
        self.failovers.push(FailoverRecord {
            reign,
            crash_at,
            detection_latency,
            suffix_replay: recovered_at.saturating_sub(promoted_at),
            promoted: slot.member,
            demoted_by_vote,
        });
        if let Some(r) = finished {
            self.note(detection_at, format!("m{} took over and finished the program", slot.member));
            let standby = StandbyEnd {
                member: slot.member,
                report: r.clone(),
                stats: b.backup().stats().clone(),
            };
            self.finish(r, slot.member, true, Some(standby));
            return Ok(GroupEvent::PrimaryFailed { at: crash_at, reign });
        }

        // In-place promotion: the replayed VM keeps running; only the
        // coordinator changes sides. Survivors cannot consume the new
        // reign's stream mid-context (their decoders belong to the dead
        // reign), so each re-homes through snapshot-grounded state
        // transfer — the new reign's stream effectively begins at the new
        // primary's first epoch cut. The dead ex-primary's seat refills
        // too (a fresh process re-badged with its member id, at tail
        // promotion priority), so the group regains full strength — in
        // particular, a vote quorum of `size` stays reachable after a
        // demotion.
        self.note(detection_at, format!("m{} promoted (reign {})", slot.member, reign + 1));
        let next_fault = self.cfg.kills.get(reign + 1).copied().unwrap_or(FaultPlan::None);
        let mut np = Box::new(b.promote(&self.jvm, next_fault, slots.len() + 1)?);
        {
            let core = np.core();
            core.set_ack_policy(self.cfg.ack_policy);
            core.set_vote_quorum(self.cfg.vote_quorum);
        }
        self.degraded_at.get_or_insert(detection_at);
        let promoted_member = slot.member;
        let mut new_slots = Vec::with_capacity(slots.len() + 1);
        let reslot = |member: u32, rank: u32| Slot {
            member,
            rank,
            state: SlotState::Dead,
            monitor: self.jvm.cfg.detector.monitor(detection_at),
            assembler: SnapshotAssembler::new(),
            ack_base: 0,
            report: None,
            gate: VoteGate::new(self.cfg.vote_quorum.is_some()),
            dead_deadline: None,
        };
        for old in slots {
            if let SlotState::Live(mut survivor) = old.state {
                // The survivor process discards its dead-reign replay
                // state; its re-homed incarnation restores from the new
                // primary's snapshot.
                survivor.fail_env();
            }
            new_slots.push(reslot(old.member, old.rank));
        }
        new_slots.push(reslot(member, self.fresh_rank));
        self.fresh_rank += 1;
        self.note(detection_at, "survivors re-homing via state transfer".into());
        self.state = GState::Run(Box::new(ReignState {
            reign: reign + 1,
            member: promoted_member,
            primary: np,
            slots: new_slots,
            units_run: 0,
        }));
        Ok(GroupEvent::PrimaryFailed { at: crash_at, reign })
    }
}
