//! The backup-side recovery runtime: the received log, the shared
//! non-deterministic-native replay, and the backup coordinator.
//!
//! The backup is *cold* (§1): during normal operation it only stores the
//! primary's records. On failure it re-executes the program from the
//! initial state, using the log to make every non-deterministic choice the
//! way the primary made it. [`Backup`] does so per technique (§4.2):
//!
//! * under *replicated lock synchronization* it reproduces the primary's
//!   per-lock acquisition order from lock-acquisition records and id maps,
//!   including the end-of-log rules for threads that run past their logged
//!   history — or, interval-compressed, the total acquisition order;
//! * under *replicated thread scheduling* it reproduces the primary's
//!   thread schedule from schedule records, stopping each thread at
//!   exactly the recorded `(br_cnt, pc_off, mon_cnt)` point — including
//!   preemptions inside native methods, replayed via `mon_cnt` — and
//!   scheduling the recorded next thread;
//!
//! and under both, [`NativeReplay`] imposes logged ND native results,
//! suppresses already-performed outputs, `test`s the uncertain last
//! output, and hands out fresh output ids once execution passes the end
//! of the log (§3.4, §4.1).

use crate::codec::{
    continues_flush, frame_is_epoch_mark, frame_is_heartbeat, frame_is_snapshot_chunk, open_frame,
    parse_epoch_frame, RecordDecoder, SnapshotAssembler,
};
use crate::ftjvm::Technique;
use crate::primary::branch_counts;
use crate::records::{sig_hash, LoggedResult, Record};
use crate::se::SeRegistry;
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{Category, CostModel, SimTime, TimeAccount};
use ftjvm_vm::coordinator::Pick;
use ftjvm_vm::exec::VmCore;
use ftjvm_vm::native::NativeDecl;
use ftjvm_vm::ThreadIdx;
use ftjvm_vm::{
    AdoptedOutcome, Coordinator, MonitorDecision, NativeDirective, ObjRef, QuietBudget,
    SharedWorld, StopReason, SwitchReason, ThreadObs, ThreadSnap, Value, VmError, VtPath,
};
use std::collections::{HashMap, VecDeque};

#[derive(Debug, Clone)]
struct NdRec {
    seq: u64,
    sig_hash: u64,
    result: LoggedResult,
    out_args: Vec<(u8, Vec<crate::records::WireValue>)>,
}

#[derive(Debug, Clone)]
struct CommitRec {
    seq: u64,
    output_id: u64,
    /// Arrival index within the whole log: if any record follows, the
    /// output is known to have been performed (the primary performs the
    /// output immediately after the acknowledged commit, before producing
    /// any further record).
    global_idx: usize,
}

#[derive(Debug, Clone)]
struct IntervalRec {
    t: VtPath,
    t_asn_start: u64,
    count: u64,
    remaining: u64,
}

#[derive(Debug, Clone)]
struct LockAcqRec {
    t_asn: u64,
    l_id: u64,
    l_asn: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SchedRec {
    t: VtPath,
    br_cnt: u64,
    method: u32,
    pc_off: u32,
    mon_cnt: u64,
    l_asn: u64,
    in_native: bool,
    next: VtPath,
}

/// Why a replay could not proceed from the log it was given.
///
/// Replay paths used to `expect(...)` on these conditions; with an
/// adversarial channel a truncated or internally inconsistent log is a
/// *reachable* state, so each condition now degrades to a reported
/// recovery failure ([`VmError::ReplayDivergence`]) instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A replay hook fired for a thread with no virtual identity (a system
    /// thread) — the log steered execution somewhere it never went on the
    /// primary.
    MissingThreadIdentity {
        /// Which replay hook observed it.
        hook: &'static str,
    },
    /// A record queue that replay logic had just checked non-empty (or
    /// that must be non-empty for the log to be self-consistent) was
    /// empty — the log lost records mid-stream.
    EmptyRecordQueue {
        /// Which queue was unexpectedly empty.
        what: &'static str,
    },
    /// A standby was asked to promote to primary before its replay
    /// finished — records from the dead primary's verified prefix are
    /// still unconsumed, so taking over now would fork history.
    PromotionIncomplete {
        /// Replay records still unconsumed at the promotion attempt.
        pending: u64,
    },
    /// A side-effect handler's latest state message does not parse, so
    /// the volatile state it describes (open files, sockets) cannot be
    /// recovered; the handler restored nothing.
    MalformedSeState {
        /// The handler's registered name.
        handler: &'static str,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingThreadIdentity { hook } => {
                write!(f, "replay hook `{hook}` reached a thread without a virtual identity")
            }
            ReplayError::EmptyRecordQueue { what } => {
                write!(f, "log is missing expected {what} records (truncated or corrupt log)")
            }
            ReplayError::PromotionIncomplete { pending } => {
                write!(f, "promotion attempted with {pending} replay records unconsumed")
            }
            ReplayError::MalformedSeState { handler } => {
                write!(f, "side-effect handler `{handler}` received a malformed state message")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl ReplayError {
    /// The [`VmError`] this failure surfaces as, attributed to thread `t`.
    pub fn at(self, t: ThreadIdx) -> VmError {
        VmError::ReplayDivergence { thread: t, detail: self.to_string() }
    }
}

/// The decoded, indexed log the backup recovered from the channel.
#[derive(Debug, Default)]
pub struct BackupLog {
    lock_acqs: HashMap<VtPath, VecDeque<LockAcqRec>>,
    lock_total: usize,
    id_maps: HashMap<(VtPath, u64), u64>,
    sched: VecDeque<SchedRec>,
    nd: HashMap<VtPath, VecDeque<NdRec>>,
    commits: HashMap<VtPath, VecDeque<CommitRec>>,
    intervals: VecDeque<IntervalRec>,
    interval_total: usize,
    /// Per thread, the largest arrival index of a record that proves the
    /// thread made *execution progress* (lock acquisition, id map, native
    /// result, or a later output commit). Schedule records are excluded:
    /// a preemption can land exactly between an output commit and the
    /// output itself, so a schedule record after a commit does NOT prove
    /// the output was performed.
    progress_max: HashMap<VtPath, usize>,
    total_records: usize,
    max_output_id: u64,
    has_outputs: bool,
}

impl BackupLog {
    /// Decodes the flushed frames (in FIFO arrival order), feeding
    /// side-effect state records to `se` (its `receive` compression hook).
    ///
    /// # Errors
    /// Returns an error for malformed frames — a truncated *suffix* cannot
    /// happen (the channel is reliable and frames are whole records), so
    /// corruption means a protocol bug.
    pub fn decode(frames: Vec<Bytes>, se: &mut SeRegistry) -> Result<BackupLog, VmError> {
        let mut log = BackupLog::default();
        // One decoder across all frames: the compact codec's delta context
        // spans batch boundaries, mirroring the primary's encoder. Frames
        // are self-describing, so fixed records (heartbeats, or a whole
        // fixed-codec log) and compact batches may interleave.
        let mut decoder = RecordDecoder::new();
        let mut scratch = Vec::new();
        let mut idx = 0usize;
        for (frame_idx, frame) in frames.into_iter().enumerate() {
            scratch.clear();
            decoder.decode_frame(frame, &mut scratch).map_err(|e| {
                VmError::Internal(format!(
                    "malformed log record at index {idx} (frame {frame_idx}): {e}"
                ))
            })?;
            for rec in scratch.drain(..) {
                log.ingest(idx, rec, se);
                idx += 1;
            }
        }
        Ok(log)
    }

    /// Indexes one decoded record. `idx` is the record's position in the
    /// flat log (the global order replay replays in); under the compact
    /// codec a batch frame contributes one index per contained record.
    fn ingest(&mut self, idx: usize, rec: Record, se: &mut SeRegistry) {
        self.total_records += 1;
        match rec {
            Record::IdMap { l_id, t, t_asn } => {
                self.progress_max.insert(t.clone(), idx);
                self.id_maps.insert((t, t_asn), l_id);
            }
            Record::LockAcq { t, t_asn, l_id, l_asn } => {
                self.lock_total += 1;
                self.progress_max.insert(t.clone(), idx);
                self.lock_acqs.entry(t).or_default().push_back(LockAcqRec { t_asn, l_id, l_asn });
            }
            Record::Sched { t, br_cnt, method, pc_off, mon_cnt, l_asn, in_native, next } => {
                self.sched.push_back(SchedRec {
                    t,
                    br_cnt,
                    method,
                    pc_off,
                    mon_cnt,
                    l_asn,
                    in_native,
                    next,
                });
            }
            Record::NativeResult { t, seq, sig_hash, result, out_args } => {
                self.progress_max.insert(t.clone(), idx);
                self.nd.entry(t).or_default().push_back(NdRec { seq, sig_hash, result, out_args });
            }
            Record::OutputCommit { t, seq, output_id } => {
                self.max_output_id = self.max_output_id.max(output_id);
                self.has_outputs = true;
                self.progress_max.insert(t.clone(), idx);
                self.commits.entry(t).or_default().push_back(CommitRec {
                    seq,
                    output_id,
                    global_idx: idx,
                });
            }
            Record::LockInterval { t, t_asn_start, count } => {
                self.interval_total += count as usize;
                self.progress_max.insert(t.clone(), idx);
                self.intervals.push_back(IntervalRec { t, t_asn_start, count, remaining: count });
            }
            Record::Heartbeat { .. } => {
                // Liveness only; carries no replay information.
            }
            Record::SeState { handler, payload } => {
                se.receive(handler, payload);
            }
        }
    }

    /// Total records received.
    pub fn total_records(&self) -> usize {
        self.total_records
    }

    /// Lock-acquisition records received (lock-sync mode).
    pub fn lock_records(&self) -> usize {
        self.lock_total
    }

    /// Schedule records received (TS mode).
    pub fn sched_records(&self) -> usize {
        self.sched.len()
    }

    /// Interval records received (interval-compressed lock-sync).
    pub fn interval_records(&self) -> usize {
        self.intervals.len()
    }
}

/// Replication-layer state a replacement backup needs, on top of the VM
/// snapshot itself, to resume the stream mid-history. The runtime builds
/// it from the snapshot's extension sections
/// ([`crate::primary::EXT_CODEC_CTX`] and friends).
#[derive(Debug, Clone, Default)]
pub struct ResumeSeed {
    /// Compact-codec decoder context exported by the primary's encoder at
    /// the cut ([`crate::codec::RecordEncoder::export_ctx`]).
    pub decoder_ctx: Bytes,
    /// Per-thread ND results already consumed before the cut (sequence
    /// checks in the suffix continue from these).
    pub nd_consumed: HashMap<VtPath, u64>,
    /// Per-thread output commits already consumed before the cut.
    pub commit_consumed: HashMap<VtPath, u64>,
    /// The primary's `next_output_id` at the cut — the floor for live
    /// output ids after promotion.
    pub live_output_base: u64,
}

/// What a backup coordinator that finished its replay hands the primary
/// coordinator replacing it.
pub(crate) struct PromotionParts {
    /// The restored side-effect registry.
    pub(crate) se: SeRegistry,
    /// The first output id the new reign may assign (exactly-once across
    /// the takeover).
    pub(crate) next_output: u64,
    /// Commit samples of the outputs the backup performed live, past the
    /// log's end, before it turned primary: they are the new reign's
    /// first commits.
    pub(crate) commit_samples: Vec<(u64, u64)>,
}

/// Shared backup-side native replay (ND results, outputs, exactly-once).
///
/// Owns the [`BackupLog`] the coordinator consumes from. In *cold* replay
/// the log is complete at construction (`eof` is true from the start); in
/// *streaming* (hot-standby) replay the log grows via `feed_frame` while
/// the primary is still running and `eof` flips only at promotion (or once
/// the primary completes), via `finish`.
pub struct NativeReplay {
    cost: CostModel,
    log: BackupLog,
    /// Decoder state for streamed frames (the compact codec's delta
    /// context spans frame boundaries, so one decoder must see them all).
    decoder: RecordDecoder,
    /// One streamed frame's decoded records on their way into the log,
    /// kept so that each frame reuses the allocation.
    scratch: Vec<Record>,
    /// Arrival index of the next streamed record.
    next_idx: usize,
    /// True once no further records can arrive: cold replay always, hot
    /// replay after promotion. Until then replay may not run ahead of the
    /// log — threads defer instead of going live.
    eof: bool,
    nd_consumed: HashMap<VtPath, u64>,
    commit_consumed: HashMap<VtPath, u64>,
    world: SharedWorld,
    se: SeRegistry,
    next_live_output: u64,
    /// Floor for live output ids: a replica resumed from an epoch snapshot
    /// knows the primary's `next_output_id` at the cut, and its (empty)
    /// suffix log may never mention an output. Zero on the from-genesis
    /// paths, where the log alone determines the floor.
    live_output_base: u64,
    /// Epoch marks absorbed from the stream — the backup's epoch
    /// acknowledgment counter, relayed to the primary by the driver.
    pub epochs_absorbed: u64,
    error: Option<VmError>,
    /// Simulated instant at which recovery (log replay) completed, if it
    /// has.
    pub recovery_completed_at: Option<ftjvm_netsim::SimTime>,
    /// Backup-side observability.
    pub stats: ReplicationStats,
}

impl std::fmt::Debug for NativeReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeReplay")
            .field("records", &self.log.total_records)
            .field("eof", &self.eof)
            .field("next_live_output", &self.next_live_output)
            .finish()
    }
}

impl NativeReplay {
    /// Cold replay over a complete, already-decoded log.
    fn new(log: BackupLog, world: SharedWorld, se: SeRegistry, cost: CostModel) -> Self {
        let next_live_output = if log.has_outputs { log.max_output_id + 1 } else { 0 };
        NativeReplay {
            cost,
            next_idx: log.total_records,
            log,
            decoder: RecordDecoder::new(),
            scratch: Vec::new(),
            eof: true,
            nd_consumed: HashMap::new(),
            commit_consumed: HashMap::new(),
            world,
            se,
            next_live_output,
            live_output_base: 0,
            epochs_absorbed: 0,
            error: None,
            recovery_completed_at: None,
            stats: ReplicationStats::default(),
        }
    }

    /// Streaming (hot-standby) replay: starts with an empty log that grows
    /// as flushed frames arrive.
    fn streaming(world: SharedWorld, se: SeRegistry, cost: CostModel) -> Self {
        NativeReplay {
            cost,
            log: BackupLog::default(),
            decoder: RecordDecoder::new(),
            scratch: Vec::new(),
            next_idx: 0,
            eof: false,
            nd_consumed: HashMap::new(),
            commit_consumed: HashMap::new(),
            world,
            se,
            next_live_output: 0,
            live_output_base: 0,
            epochs_absorbed: 0,
            error: None,
            recovery_completed_at: None,
            stats: ReplicationStats::default(),
        }
    }

    /// Streaming replay *resumed from an epoch snapshot*: the VM state was
    /// transplanted from the primary's checkpoint, so the replay starts
    /// mid-history — the decoder context, per-thread consumed counters,
    /// and output-id floor all come from the snapshot's extension
    /// sections instead of zero.
    ///
    /// # Errors
    /// Returns an error if the seed's codec context is malformed.
    fn resumed(
        world: SharedWorld,
        se: SeRegistry,
        cost: CostModel,
        seed: ResumeSeed,
    ) -> Result<Self, VmError> {
        let mut decoder = RecordDecoder::new();
        decoder
            .import_ctx(&seed.decoder_ctx)
            .map_err(|e| VmError::Internal(format!("resume seed codec context: {e}")))?;
        Ok(NativeReplay {
            cost,
            log: BackupLog::default(),
            decoder,
            scratch: Vec::new(),
            next_idx: 0,
            eof: false,
            nd_consumed: seed.nd_consumed,
            commit_consumed: seed.commit_consumed,
            world,
            se,
            next_live_output: 0,
            live_output_base: seed.live_output_base,
            epochs_absorbed: 0,
            error: None,
            recovery_completed_at: None,
            stats: ReplicationStats::default(),
        })
    }

    /// Decodes one arrived frame into the log. Returns the number of
    /// heartbeat records it carried (for the caller's failure detector).
    ///
    /// # Errors
    /// Returns an error for a malformed frame (a protocol bug: the channel
    /// is reliable and frames are whole records).
    fn feed_frame(&mut self, frame: Bytes) -> Result<u32, VmError> {
        if frame_is_epoch_mark(&frame) {
            parse_epoch_frame(&frame)
                .map_err(|e| VmError::Internal(format!("malformed epoch mark: {e}")))?;
            // A hot standby consumes records as it co-executes, so the mark
            // only needs counting: it is the backup's acknowledgment that
            // everything before it was absorbed.
            self.epochs_absorbed += 1;
            return Ok(0);
        }
        if frame_is_snapshot_chunk(&frame) {
            // State transfer is driver-routed; a chunk reaching the replay
            // path carries no records.
            return Ok(0);
        }
        self.scratch.clear();
        let at = self.next_idx;
        self.decoder.decode_frame(frame, &mut self.scratch).map_err(|e| {
            VmError::Internal(format!("malformed streamed log record at index {at}: {e}"))
        })?;
        let mut heartbeats = 0u32;
        for rec in self.scratch.drain(..) {
            if matches!(rec, Record::Heartbeat { .. }) {
                heartbeats += 1;
            }
            self.log.ingest(self.next_idx, rec, &mut self.se);
            self.next_idx += 1;
        }
        self.stats.peak_backup_pending = self.stats.peak_backup_pending.max(self.pending_records());
        Ok(heartbeats)
    }

    /// Records received but not yet consumed by the co-executing replay —
    /// the backup's live log memory.
    fn pending_records(&self) -> u64 {
        let nd: usize = self.log.nd.values().map(|q| q.len()).sum();
        let commits: usize = self.log.commits.values().map(|q| q.len()).sum();
        (self.log.lock_total + self.log.interval_total + self.log.sched.len() + nd + commits) as u64
    }

    /// Ends the stream: no further records can arrive (the primary failed
    /// and was detected, or it completed). Restores volatile environment
    /// state from the received side-effect snapshots and unlocks the live
    /// phase (fresh output ids start after the largest logged one).
    fn finish(&mut self, env: &mut ftjvm_vm::SimEnv) {
        if self.eof {
            return;
        }
        self.eof = true;
        let from_log = if self.log.has_outputs { self.log.max_output_id + 1 } else { 0 };
        self.next_live_output = from_log.max(self.live_output_base);
        if let Err(e) = self.se.restore(env) {
            self.fail_replay(ThreadIdx(0), e);
        }
    }

    /// May this native invocation proceed right now? Always true at eof.
    /// Pre-eof (streaming), an ND native needs its logged result to have
    /// arrived, and an output native needs its commit record *and* proof
    /// that the primary performed the output (a later same-thread record):
    /// while the primary is alive, `test`-based uncertainty resolution is
    /// unsound — the primary may perform the output after we look — so the
    /// thread defers until the proof arrives or the stream ends.
    fn ready_for(&self, t: &ThreadObs<'_>, decl: &NativeDecl) -> bool {
        if self.eof || !(decl.nondeterministic || decl.output) {
            return true;
        }
        let Some(vt) = t.vt else { return true };
        if decl.nondeterministic && self.log.nd.get(vt).is_none_or(|q| q.is_empty()) {
            return false;
        }
        if decl.output {
            let Some(c) = self.log.commits.get(vt).and_then(|q| q.front()) else {
                return false;
            };
            let proven = self.log.progress_max.get(vt).is_some_and(|m| c.global_idx < *m);
            if !proven {
                return false;
            }
        }
        true
    }

    fn mark_recovery_complete(&mut self, acct: &TimeAccount) {
        if self.recovery_completed_at.is_none() {
            self.recovery_completed_at = Some(acct.now());
        }
    }

    fn fail(&mut self, t: ThreadIdx, detail: String) {
        if self.error.is_none() {
            self.error = Some(VmError::ReplayDivergence { thread: t, detail });
        }
    }

    /// Records a typed [`ReplayError`] as the run's failure (first error
    /// wins, like [`fail`](Self::fail)).
    fn fail_replay(&mut self, t: ThreadIdx, err: ReplayError) {
        if self.error.is_none() {
            self.error = Some(err.at(t));
        }
    }

    fn take_stop(&mut self) -> Option<StopReason> {
        self.error.take().map(StopReason::Error)
    }

    /// Consumes a *finished* replay, yielding what a promotion to primary
    /// seeds from it.
    ///
    /// # Errors
    /// Typed [`ReplayError::PromotionIncomplete`] if replay records are
    /// still unconsumed — promoting now would fork the replicated history.
    fn into_promotion_parts(self) -> Result<PromotionParts, ReplayError> {
        let pending = self.pending_records();
        if !self.eof || pending > 0 {
            return Err(ReplayError::PromotionIncomplete { pending });
        }
        Ok(PromotionParts {
            se: self.se,
            next_output: self.next_live_output,
            commit_samples: self.stats.commit_samples,
        })
    }

    /// True once thread `vt` has no logged natives or outputs left.
    fn drained_for(&self, vt: &VtPath) -> bool {
        self.log.nd.get(vt).map(|q| q.is_empty()).unwrap_or(true)
            && self.log.commits.get(vt).map(|q| q.is_empty()).unwrap_or(true)
    }

    /// The replay decision for one native invocation (§4.1, §3.4).
    fn directive(
        &mut self,
        t: &ThreadObs<'_>,
        decl: &NativeDecl,
        acct: &mut TimeAccount,
    ) -> NativeDirective {
        if !(decl.nondeterministic || decl.output) {
            return NativeDirective::Execute;
        }
        let Some(vt) = t.vt.cloned() else {
            self.fail_replay(t.t, ReplayError::MissingThreadIdentity { hook: "directive" });
            return NativeDirective::Execute;
        };
        let nd_rec = if decl.nondeterministic {
            self.log.nd.get_mut(&vt).and_then(|q| q.pop_front())
        } else {
            None
        };
        if let Some(rec) = &nd_rec {
            self.stats.nm_intercepted += 1;
            acct.charge(Category::Misc, self.cost.nd_result_record);
            let consumed = {
                let c = self.nd_consumed.entry(vt.clone()).or_insert(0);
                *c += 1;
                *c
            };
            if rec.seq != consumed {
                self.fail(
                    t.t,
                    format!("ND result sequence {} but thread consumed {}", rec.seq, consumed),
                );
            }
            if rec.sig_hash != sig_hash(&decl.name) {
                self.fail(
                    t.t,
                    format!(
                        "logged ND result is for a different native than `{}` — a data race (R4A violation) \
                         likely reordered this thread's execution",
                        decl.name
                    ),
                );
            }
        }
        let commit = if decl.output {
            self.log.commits.get_mut(&vt).and_then(|q| q.pop_front())
        } else {
            None
        };
        if let Some(c) = &commit {
            let consumed = {
                let x = self.commit_consumed.entry(vt.clone()).or_insert(0);
                *x += 1;
                *x
            };
            if c.seq != consumed {
                self.fail(
                    t.t,
                    format!("output commit sequence {} but thread performed {}", c.seq, consumed),
                );
            }
        }
        if nd_rec.is_none() && commit.is_none() {
            // Past the end of this thread's logged history: the backup is
            // now the authority for this call.
            return NativeDirective::Execute;
        }
        if decl.output && commit.is_none() {
            // A logged result implies its (earlier) commit record arrived.
            self.fail(
                t.t,
                format!("native `{}` has a logged result but no output commit", decl.name),
            );
            return NativeDirective::Execute;
        }
        let performed = match &commit {
            Some(c) => {
                let proven =
                    self.log.progress_max.get(&vt).map(|max| c.global_idx < *max).unwrap_or(false);
                if proven {
                    // A later record from the same thread proves it ran
                    // past this output (the body executes before the
                    // thread can produce another lock/native/commit
                    // record). Schedule records deliberately don't count.
                    true
                } else {
                    // Uncertain: ask the environment (side-effect handler
                    // `test`, restriction R5).
                    self.stats.output_commits += 1;
                    self.se.test(&decl.name, &self.world.borrow(), c.output_id)
                }
            }
            None => true,
        };
        // Whether to run the body:
        // * logged result present — only re-run if the output still needs
        //   performing (imposing the logged result either way);
        // * no logged result (it was still in the primary's buffer at the
        //   crash) — re-run unless this is a pure console-style output
        //   that already reached the environment: re-running a performed
        //   file write is harmless (writes are idempotent by output id)
        //   and recomputes the return value the log lost, but re-running a
        //   performed console print would visibly duplicate it.
        let execute = match &nd_rec {
            Some(_) => decl.output && !performed,
            None => !performed || decl.returns || decl.creates_volatile,
        };
        let result = match &nd_rec {
            Some(r) => Some(match &r.result {
                LoggedResult::Ok(v) => Ok(v.map(|w| w.to_value())),
                LoggedResult::Err { code, msg } => Err((*code, msg.clone())),
            }),
            None => {
                if execute {
                    None // keep whatever the re-executed body produces
                } else {
                    Some(Ok(None)) // performed console output: skip
                }
            }
        };
        let out_args = nd_rec
            .map(|r| {
                r.out_args
                    .into_iter()
                    .map(|(i, vs)| {
                        (i, vs.into_iter().map(|w| w.to_value()).collect::<Vec<Value>>())
                    })
                    .collect()
            })
            .unwrap_or_default();
        NativeDirective::Replay(AdoptedOutcome {
            result,
            out_args,
            execute,
            output_id: commit.map(|c| c.output_id),
        })
    }

    fn live_output_id(&mut self) -> u64 {
        let id = self.next_live_output;
        self.next_live_output += 1;
        id
    }

    /// Allocates a live output id and samples the commit instant. Live
    /// outputs (a promoted backup past the log's end) commit without an
    /// ack wait — there is no peer to wait for — so the sampled wait is
    /// zero.
    fn live_output(&mut self, acct: &ftjvm_netsim::TimeAccount) -> u64 {
        self.stats.commit_samples.push((acct.now().as_nanos(), 0));
        self.live_output_id()
    }
}

/// The lock-synchronization replay rules, per acquisition and
/// interval-compressed, over the log `NativeReplay` owns.
impl NativeReplay {
    /// May `t` acquire the monitor now? Reproduces the primary's per-lock
    /// acquisition order from lock-acquisition records and id maps (§4.2),
    /// including the end-of-log rules for threads that run past their
    /// logged history.
    fn lock_pre_acquire(
        &mut self,
        t: &ThreadObs<'_>,
        l_id: Option<u64>,
        l_asn: u64,
    ) -> MonitorDecision {
        if self.eof && self.log.lock_total == 0 {
            // End of recovery: the log has no more lock-acquisition
            // records, so ordering constraints are over (§4.2).
            return MonitorDecision::Grant;
        }
        let Some(vt) = t.vt else {
            self.fail_replay(
                t.t,
                ReplayError::MissingThreadIdentity { hook: "pre_monitor_acquire" },
            );
            return MonitorDecision::Grant;
        };
        let Some(rec) = self.log.lock_acqs.get(vt).and_then(|q| q.front()) else {
            // This thread ran past its (arrived) logged history; it must
            // wait — for more frames while streaming, or for the whole log
            // to drain — before acquiring anything new.
            return MonitorDecision::Defer;
        };
        if rec.t_asn != t.t_asn + 1 {
            let detail = format!(
                "lock record t_asn {} but thread is at acquisition {}",
                rec.t_asn,
                t.t_asn + 1
            );
            self.fail(t.t, detail);
            return MonitorDecision::Grant;
        }
        match l_id {
            Some(id) => {
                if rec.l_id != id {
                    let detail = format!(
                        "thread's next logged acquisition is lock {} but it is acquiring lock {id} — \
                         a data race (R4A violation) changed the acquisition sequence",
                        rec.l_id
                    );
                    self.fail(t.t, detail);
                    return MonitorDecision::Grant;
                }
                if rec.l_asn == l_asn + 1 {
                    MonitorDecision::Grant
                } else {
                    // Not this thread's turn for the lock yet.
                    MonitorDecision::Defer
                }
            }
            None => {
                // The lock has no id at the backup yet. If this thread
                // assigned the id at the primary, its id map names it.
                if self.log.id_maps.contains_key(&(vt.clone(), t.t_asn + 1)) {
                    if rec.l_asn == l_asn + 1 {
                        MonitorDecision::Grant
                    } else {
                        MonitorDecision::Defer
                    }
                } else if rec.l_asn <= 1 {
                    // First acquisition of the lock but no id map: the map
                    // cannot have been lost without the (later) acquisition
                    // record also being lost.
                    self.fail(t.t, "acquisition record without its id map".into());
                    MonitorDecision::Grant
                } else {
                    // Another thread assigns this lock's id; wait for it.
                    MonitorDecision::Defer
                }
            }
        }
    }

    /// Consumes the lock record of a granted acquisition, claiming the
    /// thread's id map on a lock's first acquisition.
    fn lock_post_acquire(
        &mut self,
        t: &ThreadObs<'_>,
        l_id: Option<u64>,
        l_asn: u64,
        acct: &mut TimeAccount,
    ) -> Option<u64> {
        if self.eof && self.log.lock_total == 0 {
            return None; // live phase
        }
        let Some(vt) = t.vt else {
            self.fail_replay(
                t.t,
                ReplayError::MissingThreadIdentity { hook: "post_monitor_acquire" },
            );
            return None;
        };
        let Some(rec) = self.log.lock_acqs.get_mut(vt).and_then(|q| q.pop_front()) else {
            self.fail(t.t, "granted an acquisition with no record to consume".into());
            return None;
        };
        self.log.lock_total -= 1;
        if self.log.lock_total == 0 && self.eof {
            self.mark_recovery_complete(acct);
        }
        self.stats.locks_acquired += 1;
        // Replay bookkeeping: locating and consuming the record costs
        // about what creating it did (no communication, though).
        acct.charge(Category::LockAcquire, self.cost.lock_record);
        if rec.l_asn != l_asn || rec.t_asn != t.t_asn {
            let detail = format!(
                "acquisition replayed at (t_asn {}, l_asn {l_asn}) but record says ({}, {})",
                t.t_asn, rec.t_asn, rec.l_asn
            );
            self.fail(t.t, detail);
        }
        match l_id {
            Some(id) => {
                debug_assert_eq!(id, rec.l_id, "pre_monitor_acquire verified the id");
                None
            }
            None => {
                // Claim this thread's id map (§4.2): it must exist, since
                // pre granted the first acquisition only on a map match.
                match self.log.id_maps.remove(&(vt.clone(), t.t_asn)) {
                    Some(mapped) => {
                        if mapped != rec.l_id {
                            let detail = format!(
                                "id map assigns lock {mapped} but record names lock {}",
                                rec.l_id
                            );
                            self.fail(t.t, detail);
                        }
                        Some(rec.l_id)
                    }
                    None => {
                        self.fail(t.t, "first acquisition granted without an id map".into());
                        Some(rec.l_id)
                    }
                }
            }
        }
    }

    /// May `t` acquire a monitor now? Under interval compression only the
    /// thread of the front interval may; everyone else defers.
    fn interval_pre_acquire(&mut self, t: &ThreadObs<'_>) -> MonitorDecision {
        let Some(front) = self.log.intervals.front() else {
            if self.eof {
                return MonitorDecision::Grant; // end of recovery
            }
            // Streaming: the interval covering this acquisition has not
            // arrived (the primary's current interval is still open).
            return MonitorDecision::Defer;
        };
        let Some(vt) = t.vt else {
            self.fail_replay(
                t.t,
                ReplayError::MissingThreadIdentity { hook: "pre_monitor_acquire" },
            );
            return MonitorDecision::Grant;
        };
        if &front.t == vt {
            MonitorDecision::Grant
        } else {
            MonitorDecision::Defer
        }
    }

    /// Consumes one acquisition of the front interval.
    fn interval_post_acquire(&mut self, t: &ThreadObs<'_>, acct: &mut TimeAccount) {
        let Some(vt) = t.vt else {
            self.fail_replay(
                t.t,
                ReplayError::MissingThreadIdentity { hook: "post_monitor_acquire" },
            );
            return;
        };
        let expected = match self.log.intervals.front() {
            None => return, // live phase
            Some(front) if &front.t != vt => {
                self.fail(t.t, "acquisition granted outside the current interval".into());
                return;
            }
            // t_asn ordering inside the interval.
            Some(front) => front.t_asn_start + (front.count - front.remaining),
        };
        if t.t_asn != expected {
            let detail = format!("interval expected acquisition t_asn {expected}, got {}", t.t_asn);
            self.fail(t.t, detail);
        }
        acct.charge(Category::LockAcquire, self.cost.interval_update);
        self.log.interval_total -= 1;
        let Some(front) = self.log.intervals.front_mut() else {
            self.fail_replay(t.t, ReplayError::EmptyRecordQueue { what: "lock interval" });
            return;
        };
        front.remaining -= 1;
        if front.remaining == 0 {
            self.log.intervals.pop_front();
        }
        self.stats.locks_acquired += 1;
        if self.log.interval_total == 0 && self.eof {
            self.mark_recovery_complete(acct);
        }
    }
}

/// A recorded switch the designated thread already reached whose schedule
/// record has not arrived yet (streaming replay only). The thread is held
/// at the switch point — it cannot make further progress — so the saved
/// counters stay valid until the record arrives and is matched.
#[derive(Debug)]
enum PendingSwitch {
    /// The designated thread yielded at a blocking point (monitor, wait,
    /// sleep, internal lock) with these counters.
    Block {
        /// Thread index, for divergence reports.
        t: ThreadIdx,
        /// Replication-stable id.
        vt: VtPath,
        /// `br_cnt` at the yield.
        br_cnt: u64,
        /// `mon_cnt` at the yield.
        mon_cnt: u64,
        /// Innermost method, if any.
        method: Option<u32>,
        /// PC at the yield.
        pc: u32,
        /// Whether the yield happened inside a native method.
        in_native: bool,
        /// `l_asn` of the lock blocked on (wake-order check).
        blocked_lasn: u64,
    },
    /// The designated thread terminated.
    Exit(VtPath),
}

/// The backup coordinator (§4.2): [`NativeReplay`] plus the replay state
/// of the technique whose records it consumes. The native, output and
/// stream handling is shared; the technique decides who may acquire a
/// monitor or run next.
#[derive(Debug)]
pub struct Backup {
    replay: NativeReplay,
    state: BackupState,
}

#[derive(Debug)]
enum BackupState {
    /// Replicated lock synchronization: the per-lock acquisition order.
    Lock,
    /// Interval-compressed lock synchronization: the total acquisition
    /// order recorded as [`Record::LockInterval`]s.
    Interval,
    /// Replicated thread scheduling: the primary's schedule, each thread
    /// stopped at exactly the recorded `(br_cnt, pc_off, mon_cnt)` point —
    /// including preemptions inside native methods, replayed via
    /// `mon_cnt` — and the recorded next thread scheduled.
    Ts {
        /// Last observed `br_cnt` per thread (progress-cost accounting).
        last_br: HashMap<u32, u64>,
        /// The thread the replay says must run now; `None` once recovery
        /// is over and free scheduling resumes.
        designated: Option<VtPath>,
        /// Streaming only: a switch waiting for its schedule record.
        pending: Option<PendingSwitch>,
    },
}

impl BackupState {
    /// Replay state at the start of the program. Execution always begins
    /// with the root thread; even with no schedule records
    /// (single-threaded programs) the root stays designated until its
    /// logged natives/outputs drain (the paper's final-record rule).
    fn at_start(technique: Technique) -> Self {
        match technique {
            Technique::Lock => BackupState::Lock,
            Technique::Interval => BackupState::Interval,
            Technique::ThreadSched => BackupState::Ts {
                last_br: HashMap::new(),
                designated: Some(VtPath::root()),
                pending: None,
            },
        }
    }
}

impl Backup {
    /// Builds a cold-replay coordinator from a complete decoded log.
    pub fn new(
        log: BackupLog,
        world: SharedWorld,
        se: SeRegistry,
        cost: CostModel,
        technique: Technique,
    ) -> Self {
        Backup {
            replay: NativeReplay::new(log, world, se, cost),
            state: BackupState::at_start(technique),
        }
    }

    /// Builds a hot-standby (streaming) coordinator whose log starts empty
    /// and grows via [`feed_frame`](Backup::feed_frame).
    pub fn streaming(
        world: SharedWorld,
        se: SeRegistry,
        cost: CostModel,
        technique: Technique,
    ) -> Self {
        Backup {
            replay: NativeReplay::streaming(world, se, cost),
            state: BackupState::at_start(technique),
        }
    }

    /// Builds a streaming coordinator resumed from an epoch snapshot
    /// (re-integration of a replacement backup) over `vm`, the VM restored
    /// from it. Monitors already carry their `l_id` and `l_asn` state, so
    /// lock replay needs only the replication-layer seed. Schedule replay
    /// designates the application thread that was current on the primary
    /// at the cut — a cut never lands with a schedule record
    /// half-captured, so it runs until its next record — and seeds the
    /// per-thread branch counters from the restored threads so
    /// progress-cost accounting continues rather than restarting.
    ///
    /// # Errors
    /// Returns an error if the seed is malformed.
    pub fn resumed(
        world: SharedWorld,
        se: SeRegistry,
        cost: CostModel,
        seed: ResumeSeed,
        technique: Technique,
        vm: &VmCore,
    ) -> Result<Self, VmError> {
        let state = match technique {
            Technique::ThreadSched => {
                let designated = vm
                    .current
                    .and_then(|idx| vm.threads.get(idx.0 as usize))
                    .and_then(|t| t.vt.clone())
                    .unwrap_or_else(VtPath::root);
                BackupState::Ts {
                    last_br: branch_counts(vm),
                    designated: Some(designated),
                    pending: None,
                }
            }
            lock => BackupState::at_start(lock),
        };
        Ok(Backup { replay: NativeReplay::resumed(world, se, cost, seed)?, state })
    }

    /// Epoch marks absorbed from the stream (the backup's epoch ack).
    pub fn epochs_absorbed(&self) -> u64 {
        self.replay.epochs_absorbed
    }

    /// Streams one arrived frame into the log, then resolves any switch
    /// that was waiting for its schedule record. Returns the number of
    /// heartbeat records the frame carried.
    ///
    /// # Errors
    /// Returns an error for a malformed frame (a protocol bug).
    pub fn feed_frame(&mut self, frame: Bytes, acct: &mut TimeAccount) -> Result<u32, VmError> {
        let heartbeats = self.replay.feed_frame(frame)?;
        if let BackupState::Ts { designated, pending, .. } = &mut self.state {
            drain_pending(&mut self.replay, designated, pending, acct);
        }
        Ok(heartbeats)
    }

    /// Promotes a streaming backup: no further records can arrive.
    pub fn finish_stream(&mut self, env: &mut ftjvm_vm::SimEnv, acct: &mut TimeAccount) {
        let replay = &mut self.replay;
        replay.finish(env);
        let complete = match &mut self.state {
            BackupState::Lock => replay.log.lock_total == 0,
            BackupState::Interval => replay.log.interval_total == 0,
            BackupState::Ts { designated, pending, .. } => {
                drain_pending(replay, designated, pending, acct);
                if replay.log.sched.is_empty() {
                    match pending.take() {
                        Some(PendingSwitch::Exit(vt)) => {
                            // The exit's schedule record was lost in the crash.
                            if replay.drained_for(&vt) {
                                *designated = None;
                            } else {
                                replay.fail(
                                    ThreadIdx(0),
                                    "designated thread exited with logged interactions left to \
                                     reproduce"
                                        .into(),
                                );
                            }
                        }
                        // A lost blocking-switch record: the log simply ends
                        // at the block; `maybe_finish` decides whether
                        // replay is over.
                        Some(PendingSwitch::Block { .. }) | None => {}
                    }
                }
                maybe_finish(replay, designated);
                designated.is_none()
            }
        };
        if complete {
            replay.mark_recovery_complete(acct);
        }
    }

    /// Backup-side statistics.
    pub fn stats(&self) -> &ReplicationStats {
        &self.replay.stats
    }

    /// True once the stream ended and every ordering record was consumed
    /// (under thread scheduling: once free scheduling has resumed).
    pub fn recovery_complete(&self) -> bool {
        match &self.state {
            BackupState::Lock => self.replay.eof && self.replay.log.lock_total == 0,
            BackupState::Interval => self.replay.eof && self.replay.log.interval_total == 0,
            BackupState::Ts { designated, .. } => designated.is_none(),
        }
    }

    /// Replay records (of every class) still unconsumed — promotion must
    /// wait for zero.
    pub(crate) fn replay_pending(&self) -> u64 {
        self.replay.pending_records()
    }

    /// Simulated instant at which the log replay finished.
    pub fn recovery_completed_at(&self) -> Option<ftjvm_netsim::SimTime> {
        self.replay.recovery_completed_at
    }

    /// Consumes the coordinator for promotion to primary (see
    /// [`NativeReplay::into_promotion_parts`]).
    pub(crate) fn into_promotion_parts(self) -> Result<PromotionParts, ReplayError> {
        self.replay.into_promotion_parts()
    }
}

/// Does a thread at `(br, mon, method, pc, in_native)` stand at the front
/// schedule record's progress point?
fn matches_front(
    rec: &SchedRec,
    br: u64,
    mon: u64,
    method: Option<u32>,
    pc: u32,
    in_native: bool,
) -> bool {
    // Inside a native method the JVM cannot see the PC; there the
    // monitor-operation count is what identifies the replay point (§4.2).
    rec.br_cnt == br
        && rec.in_native == in_native
        && rec.mon_cnt == mon
        && rec.pc_off == pc
        && method == Some(rec.method)
}

/// Consumes the front schedule record: its next thread becomes the
/// designated one.
fn advance(replay: &mut NativeReplay, designated: &mut Option<VtPath>, acct: &mut TimeAccount) {
    let Some(rec) = replay.log.sched.pop_front() else {
        replay.fail_replay(ThreadIdx(0), ReplayError::EmptyRecordQueue { what: "schedule" });
        return;
    };
    *designated = Some(rec.next);
    replay.stats.sched_records += 1;
    acct.charge(Category::Resched, replay.cost.sched_record);
}

/// After consuming records (or at any progress point), schedule recovery
/// ends when no schedule records remain and the designated thread has
/// reproduced all of its logged interactions with the environment. While
/// streaming, an empty queue only means the replay caught up.
fn maybe_finish(replay: &NativeReplay, designated: &mut Option<VtPath>) {
    if !replay.eof || !replay.log.sched.is_empty() {
        return;
    }
    if designated.as_ref().is_some_and(|des| replay.drained_for(des)) {
        *designated = None;
    }
}

/// Matches a pending switch against a newly arrived schedule record.
fn drain_pending(
    replay: &mut NativeReplay,
    designated: &mut Option<VtPath>,
    pending: &mut Option<PendingSwitch>,
    acct: &mut TimeAccount,
) {
    let Some(p) = pending.as_ref() else { return };
    let Some(rec) = replay.log.sched.front() else { return };
    match p {
        PendingSwitch::Block { t, vt, br_cnt, mon_cnt, method, pc, in_native, blocked_lasn } => {
            if &rec.t != vt {
                // The chain invariant says the next record is for the
                // parked designated thread; leave the mismatch for the
                // post-eof stall check to report.
                return;
            }
            if matches_front(rec, *br_cnt, *mon_cnt, *method, *pc, *in_native) {
                if rec.l_asn != 0 && rec.l_asn != *blocked_lasn {
                    let (t, blocked_lasn, expect) = (*t, *blocked_lasn, rec.l_asn);
                    replay.fail(
                        t,
                        format!(
                            "blocked with lock at l_asn {blocked_lasn} but the record \
                             expected {expect}"
                        ),
                    );
                }
                *pending = None;
                advance(replay, designated, acct);
            }
        }
        PendingSwitch::Exit(vt) => {
            if &rec.t == vt {
                *pending = None;
                advance(replay, designated, acct);
            } else {
                replay.fail(ThreadIdx(0), "designated thread exited out of recorded order".into());
                *pending = None;
            }
        }
    }
}

impl Coordinator for Backup {
    fn mode(&self) -> &'static str {
        match self.state {
            BackupState::Lock => "lock-sync-backup",
            BackupState::Interval => "lock-interval-backup",
            BackupState::Ts { .. } => "ts-backup",
        }
    }

    fn stop(&mut self) -> Option<StopReason> {
        self.replay.take_stop()
    }

    fn allow_quantum_preempt(&mut self, _t: &ThreadObs<'_>) -> bool {
        // During schedule recovery only recorded points may switch
        // application threads; afterwards, normal preemption resumes.
        match &self.state {
            BackupState::Ts { designated, .. } => designated.is_none(),
            BackupState::Lock | BackupState::Interval => true,
        }
    }

    fn check_preempt(&mut self, t: &ThreadObs<'_>, acct: &mut TimeAccount) -> bool {
        let Backup { replay, state } = self;
        let BackupState::Ts { last_br, designated, pending } = state else { return false };
        maybe_finish(replay, designated);
        let Some(des) = designated.as_ref() else {
            replay.mark_recovery_complete(acct);
            return false;
        };
        // The backup tracks replay progress with the same block-boundary
        // counter materialization as the primary: a PC update per consult,
        // plus one `br_cnt` store when control flow happened in the block.
        let mut cost = replay.cost.ts_pc_track;
        let last = last_br.entry(t.t.0).or_insert(0);
        if t.br_cnt > *last {
            *last = t.br_cnt;
            cost += replay.cost.ts_br_track;
        }
        acct.charge(Category::Misc, cost);
        let Some(vt) = t.vt else {
            replay.fail_replay(t.t, ReplayError::MissingThreadIdentity { hook: "check_preempt" });
            return false;
        };
        if vt != des {
            // A non-designated application thread slipped in; park it.
            return true;
        }
        if pending.is_some() {
            // The designated thread already reached a recorded switch whose
            // record has not arrived; it may not run past it.
            return true;
        }
        // Streaming: with no record in hand the designated thread must not
        // run — it could overshoot the primary's next preemption point.
        let Some(rec) = replay.log.sched.front() else { return !replay.eof };
        if &rec.t != vt {
            let detail = format!(
                "designated thread {vt} running but front schedule record is for {}",
                rec.t
            );
            replay.fail(t.t, detail);
            return false;
        }
        if matches_front(rec, t.br_cnt, t.mon_cnt, t.method.map(|m| m.0), t.pc, t.in_native) {
            advance(replay, designated, acct);
            return true;
        }
        false
    }

    fn quiet_budget(&mut self, t: &ThreadObs<'_>, max: u64) -> QuietBudget {
        // Exact replay at block granularity: bound each block so the
        // designated thread stops precisely at the recorded progress point
        // rather than overshooting it inside a fused run.
        let unlimited = QuietBudget { units: max, stop_br: None };
        let BackupState::Ts { designated: Some(_), .. } = &self.state else { return unlimited };
        let Some(rec) = self.replay.log.sched.front() else { return unlimited };
        let Some(vt) = t.vt else { return unlimited };
        if &rec.t != vt {
            return unlimited;
        }
        if rec.br_cnt > t.br_cnt {
            // Run freely up to the recorded branch count; the interpreter
            // halts the block the moment `br_cnt` reaches it.
            return QuietBudget { units: max, stop_br: Some(rec.br_cnt) };
        }
        if rec.br_cnt == t.br_cnt {
            if !t.in_native
                && !rec.in_native
                && rec.mon_cnt == t.mon_cnt
                && t.method.map(|m| m.0) == Some(rec.method)
                && rec.pc_off > t.pc
            {
                // Same straight-line run as the record: the remaining unit
                // count to the recorded PC is exact.
                return QuietBudget {
                    units: max.min(u64::from(rec.pc_off - t.pc)),
                    stop_br: Some(t.br_cnt + 1),
                };
            }
            // At the recorded branch count but not provably before the
            // recorded point; single-step until the next branch.
            return QuietBudget { units: max, stop_br: Some(t.br_cnt + 1) };
        }
        unlimited
    }

    fn on_yield(&mut self, snap: &ThreadSnap, reason: SwitchReason, acct: &mut TimeAccount) {
        // Blocking yields consume their schedule record here: the counters
        // in the record include bumps performed inside the blocking unit
        // (e.g. `wait` releases the monitor before parking).
        let Backup { replay, state } = self;
        let BackupState::Ts { designated, pending, .. } = state else { return };
        let blocking = matches!(
            reason,
            SwitchReason::BlockedMonitor
                | SwitchReason::Waiting
                | SwitchReason::Sleep
                | SwitchReason::Internal
        );
        if !blocking {
            return;
        }
        let Some(des) = designated.as_ref() else { return };
        if snap.vt.as_ref() != Some(des) {
            return;
        }
        let Some(rec) = replay.log.sched.front() else {
            if !replay.eof {
                // The record for this switch is still in flight (or still
                // in the primary's buffer); hold the switch until it lands.
                *pending = Some(PendingSwitch::Block {
                    t: snap.t,
                    vt: des.clone(),
                    br_cnt: snap.br_cnt,
                    mon_cnt: snap.mon_cnt,
                    method: snap.method.map(|m| m.0),
                    pc: snap.pc,
                    in_native: snap.in_native,
                    blocked_lasn: snap.blocked_lasn,
                });
            }
            return;
        };
        if &rec.t != des {
            return;
        }
        let method = snap.method.map(|m| m.0);
        if matches_front(rec, snap.br_cnt, snap.mon_cnt, method, snap.pc, snap.in_native) {
            // Wake-order consistency check (the record's l_asn field).
            if rec.l_asn != 0 && rec.l_asn != snap.blocked_lasn {
                let detail = format!(
                    "blocked with lock at l_asn {} but the record expected {}",
                    snap.blocked_lasn, rec.l_asn
                );
                replay.fail(snap.t, detail);
            }
            advance(replay, designated, acct);
        }
    }

    fn on_thread_exit(&mut self, t: &ThreadObs<'_>, acct: &mut TimeAccount) {
        let Backup { replay, state } = self;
        let BackupState::Ts { designated, pending, .. } = state else { return };
        let Some(des) = designated.clone() else { return };
        let Some(vt) = t.vt else {
            replay.fail_replay(t.t, ReplayError::MissingThreadIdentity { hook: "on_thread_exit" });
            return;
        };
        if *vt != des {
            return;
        }
        match replay.log.sched.front() {
            Some(rec) if &rec.t == vt => advance(replay, designated, acct),
            Some(_) => {
                // Terminated while a record for another thread is at the
                // front — impossible in a faithful replay.
                replay.fail(t.t, "designated thread exited out of recorded order".into());
            }
            None if !replay.eof => {
                // The exit's schedule record has not arrived yet.
                *pending = Some(PendingSwitch::Exit(vt.clone()));
            }
            None => {
                if replay.drained_for(vt) {
                    *designated = None;
                    replay.mark_recovery_complete(acct);
                } else {
                    replay.fail(
                        t.t,
                        "designated thread exited with logged interactions left to reproduce"
                            .into(),
                    );
                }
            }
        }
    }

    fn pick_next(&mut self, candidates: &[ThreadSnap]) -> Pick {
        let BackupState::Ts { designated: Some(des), pending, .. } = &self.state else {
            return Pick::Default;
        };
        // Streaming: only dispatch the designated thread when a schedule
        // record bounds how far it may run.
        let replay_blocked =
            !self.replay.eof && (pending.is_some() || self.replay.log.sched.front().is_none());
        if !replay_blocked {
            if let Some(i) = candidates.iter().position(|c| c.vt.as_ref() == Some(des)) {
                return Pick::Choose(i);
            }
        }
        // The designated thread is not runnable (or must wait for its next
        // record): let system threads work (they may hold the lock it
        // needs); never run another app thread.
        if let Some(i) = candidates.iter().position(|c| c.vt.is_none()) {
            return Pick::Choose(i);
        }
        Pick::Idle
    }

    fn pre_monitor_acquire(
        &mut self,
        t: &ThreadObs<'_>,
        _obj: ObjRef,
        l_id: Option<u64>,
        l_asn: u64,
    ) -> MonitorDecision {
        match self.state {
            BackupState::Lock => self.replay.lock_pre_acquire(t, l_id, l_asn),
            BackupState::Interval => self.replay.interval_pre_acquire(t),
            BackupState::Ts { .. } => MonitorDecision::Grant,
        }
    }

    fn post_monitor_acquire(
        &mut self,
        t: &ThreadObs<'_>,
        _obj: ObjRef,
        l_id: Option<u64>,
        l_asn: u64,
        acct: &mut TimeAccount,
    ) -> Option<u64> {
        match self.state {
            BackupState::Lock => self.replay.lock_post_acquire(t, l_id, l_asn, acct),
            BackupState::Interval => {
                self.replay.interval_post_acquire(t, acct);
                None
            }
            BackupState::Ts { .. } => None,
        }
    }

    fn pre_native(
        &mut self,
        t: &ThreadObs<'_>,
        decl: &NativeDecl,
        _args: &[Value],
        acct: &mut TimeAccount,
    ) -> NativeDirective {
        self.replay.directive(t, decl, acct)
    }

    fn begin_output(
        &mut self,
        _t: &ThreadObs<'_>,
        _decl: &NativeDecl,
        acct: &mut TimeAccount,
    ) -> u64 {
        self.replay.live_output(acct)
    }

    fn native_ready(&mut self, t: &ThreadObs<'_>, decl: &NativeDecl) -> bool {
        self.replay.ready_for(t, decl)
    }

    fn starved(&mut self) -> bool {
        // Pre-eof stalls are starvation, not divergence: the replay caught
        // up with the arrived log and must pause until the next frame.
        !self.replay.eof
    }

    fn on_stall(&mut self, _acct: &mut TimeAccount) -> bool {
        // Ordering records remain but nobody can consume them: the
        // replayed execution diverged (typically a data race, Fig. 1).
        let log = &self.replay.log;
        let detail = match &self.state {
            BackupState::Lock if log.lock_total > 0 => format!(
                "recovery stalled with {} unconsumed lock-acquisition records — \
                 the replay diverged from the primary (R4A violation?)",
                log.lock_total
            ),
            BackupState::Interval if log.interval_total > 0 => format!(
                "interval recovery stalled with {} acquisitions left to replay",
                log.interval_total
            ),
            BackupState::Ts { designated: designated @ Some(_), .. } => format!(
                "thread-schedule recovery stalled with {} records left (designated {designated:?})",
                log.sched.len()
            ),
            _ => return false,
        };
        self.replay.error.get_or_insert(VmError::ReplayDivergence { thread: ThreadIdx(0), detail });
        true
    }
}

/// The *cold* backup's durable epoch store. A cold standby never executes
/// during normal operation — it only stores the primary's frames — so with
/// checkpointing the primary ships each epoch's snapshot inline and the
/// store keeps just the latest snapshot plus the frames after its epoch
/// mark, instead of the whole log from genesis.
#[derive(Debug, Default)]
pub struct EpochStore {
    assembler: SnapshotAssembler,
    latest_snapshot: Option<(u64, Bytes)>,
    suffix: Vec<Bytes>,
    /// A mark whose snapshot has not finished assembling yet: the mark's
    /// epoch and the suffix length it promises to retire (the chunks
    /// travel *behind* the mark, so truncation must wait for them).
    pending_cut: Option<(u64, usize)>,
    /// Epoch marks absorbed (each one truncated the stored prefix).
    pub epochs_stored: u64,
    /// Deepest the suffix ever got — with checkpointing, bounded by one
    /// epoch's record-bearing frames.
    pub peak_frames: u64,
    /// Frames dropped by prefix truncation over the run.
    pub dropped_frames: u64,
}

impl EpochStore {
    /// Fresh, empty store.
    pub fn new() -> Self {
        EpochStore::default()
    }

    /// Absorbs one frame in arrival order: snapshot chunks assemble into
    /// the latest snapshot, an epoch mark truncates the stored prefix
    /// (only once the mark's snapshot is fully held — a mark whose
    /// snapshot never assembled leaves the prefix in place, since it is
    /// still the only recovery path), heartbeats are dropped, and every
    /// record-bearing frame joins the suffix.
    ///
    /// # Errors
    /// Returns an error for a malformed control frame.
    pub fn absorb(&mut self, frame: Bytes) -> Result<(), VmError> {
        if frame_is_snapshot_chunk(&frame) {
            if let Some((epoch, blob)) = self
                .assembler
                .offer(&frame)
                .map_err(|e| VmError::Internal(format!("stored snapshot chunk: {e}")))?
            {
                self.latest_snapshot = Some((epoch, blob));
                if let Some((mark_epoch, len)) = self.pending_cut {
                    if epoch >= mark_epoch {
                        self.suffix.drain(..len.min(self.suffix.len()));
                        self.dropped_frames += len as u64;
                        self.pending_cut = None;
                    }
                }
            }
            return Ok(());
        }
        if frame_is_epoch_mark(&frame) {
            let (epoch, _) = parse_epoch_frame(&frame)
                .map_err(|e| VmError::Internal(format!("stored epoch mark: {e}")))?;
            self.epochs_stored += 1;
            if self.latest_snapshot.as_ref().is_some_and(|(e, _)| *e >= epoch) {
                self.dropped_frames += self.suffix.len() as u64;
                self.suffix.clear();
                self.pending_cut = None;
            } else {
                // The chunks for this epoch are still in flight; retire
                // the prefix the moment its snapshot fully assembles. A
                // later mark supersedes an earlier unfulfilled one.
                self.pending_cut = Some((epoch, self.suffix.len()));
            }
            return Ok(());
        }
        if frame_is_heartbeat(&frame) {
            return Ok(()); // liveness only; nothing to recover from
        }
        self.suffix.push(frame);
        self.peak_frames = self.peak_frames.max(self.suffix.len() as u64);
        Ok(())
    }

    /// The latest fully assembled snapshot, with its epoch.
    pub fn latest_snapshot(&self) -> Option<&(u64, Bytes)> {
        self.latest_snapshot.as_ref()
    }

    /// Consumes the store for recovery: the latest snapshot (if any epoch
    /// completed) and the stored suffix to replay on top of it.
    pub fn into_recovery(self) -> (Option<(u64, Bytes)>, Vec<Bytes>) {
        (self.latest_snapshot, self.suffix)
    }
}

// ---------------------------------------------------------------------------
// Receiver side of the reliability sublayer: gap detection, duplicate
// suppression, and corruption rejection in front of the record decoder.
// ---------------------------------------------------------------------------

/// A control message on the (reliable, tiny) reverse path from the
/// receiver back to the sender's retransmission window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Cumulative acknowledgment: every frame with sequence number below
    /// `next` has been verified and released in order.
    Ack {
        /// The receiver's next expected sequence number.
        next: u64,
    },
    /// Gap report: frame `seq` is missing (an out-of-sequence or corrupt
    /// frame arrived); the sender should retransmit it promptly.
    Nack {
        /// The missing sequence number.
        seq: u64,
    },
}

/// The receiver's reassembly window over a lossy link.
///
/// Every arriving frame is *sealed* ([`crate::codec::seal_frame`]); the
/// window opens it, rejects corruption (CRC), suppresses duplicates
/// (sequence number below the cumulative frontier or already buffered),
/// buffers out-of-order frames, and releases payloads strictly in
/// sequence order — the contract the record decoder's delta context and
/// the log's prefix semantics both depend on. The consumer takes them a
/// whole flush at a time: frames sealed as continuing a flush
/// ([`crate::codec::SEAL_MORE_TAG`]) wait until the frame that ends it is
/// in order too, so a verified prefix always ends on a flush boundary.
#[derive(Debug, Default)]
pub struct RecvWindow {
    /// Next sequence number to release (the cumulative frontier).
    expected: u64,
    /// Verified frames that arrived ahead of a gap, by sequence number,
    /// with whether more frames of their flush follow.
    buffered: std::collections::BTreeMap<u64, (SimTime, Bytes, bool)>,
    /// Verified, in-order payloads not yet taken by the consumer.
    ready: Vec<(SimTime, Bytes)>,
    /// How many of `ready` end on a flush boundary; the rest are the
    /// head of a flush whose end has not been released yet.
    complete: usize,
    /// Release instants are monotone even when a late gap-filler unblocks
    /// frames that physically arrived earlier.
    last_release: SimTime,
    /// Last sequence number a NACK was sent for (suppresses NACK storms
    /// while many frames behind one gap arrive).
    last_nacked: Option<u64>,
    /// Duplicate frames suppressed.
    pub dup_deliveries: u64,
    /// Frames rejected by the open/CRC check.
    pub corrupted_frames: u64,
    /// Frames that arrived out of sequence and were buffered.
    pub reordered: u64,
    /// NACKs sent.
    pub nacks: u64,
}

impl RecvWindow {
    /// Creates an empty window expecting sequence number 0.
    pub fn new() -> Self {
        RecvWindow::default()
    }

    /// The next sequence number the window will release.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// True if verified frames are buffered beyond a missing one.
    pub fn has_gap(&self) -> bool {
        !self.buffered.is_empty()
    }

    /// Offers one raw frame that arrived at `at`. Control messages for the
    /// sender (cumulative ACKs, gap NACKs) are appended to `ctrl`.
    pub fn offer(&mut self, at: SimTime, raw: Bytes, ctrl: &mut Vec<Control>) {
        match open_frame(&raw) {
            Err(_) => {
                self.corrupted_frames += 1;
                // The frame's identity is unknowable; report the frontier
                // so the sender can retransmit whatever is outstanding.
                self.push_nack(self.expected, ctrl);
            }
            Ok((seq, payload)) => {
                let more = continues_flush(&raw);
                if seq < self.expected || self.buffered.contains_key(&seq) {
                    self.dup_deliveries += 1;
                    // Re-ack: the sender may be retransmitting because an
                    // earlier ACK was processed late.
                    ctrl.push(Control::Ack { next: self.expected });
                } else if seq == self.expected {
                    self.release(at, payload, more);
                    // The gap-filler may unblock a buffered run.
                    while let Some((arrived, payload, more)) = self.buffered.remove(&self.expected)
                    {
                        self.release(at.max(arrived), payload, more);
                    }
                    if self.last_nacked.map(|n| n < self.expected).unwrap_or(true) {
                        self.last_nacked = None;
                    }
                    ctrl.push(Control::Ack { next: self.expected });
                } else {
                    self.reordered += 1;
                    self.buffered.insert(seq, (at, payload, more));
                    self.push_nack(self.expected, ctrl);
                }
            }
        }
    }

    fn release(&mut self, at: SimTime, payload: Bytes, more: bool) {
        self.last_release = self.last_release.max(at);
        self.ready.push((self.last_release, payload));
        self.expected += 1;
        if !more {
            self.complete = self.ready.len();
        }
    }

    fn push_nack(&mut self, seq: u64, ctrl: &mut Vec<Control>) {
        if self.last_nacked != Some(seq) {
            self.last_nacked = Some(seq);
            self.nacks += 1;
            ctrl.push(Control::Nack { seq });
        }
    }

    /// Takes the verified, in-order payloads released so far, up to the
    /// last complete flush; the head of a flush still missing its end
    /// stays for a later call.
    pub fn take_ready(&mut self) -> Vec<(SimTime, Bytes)> {
        let complete = std::mem::take(&mut self.complete);
        if complete == self.ready.len() {
            return std::mem::take(&mut self.ready);
        }
        let partial = self.ready.split_off(complete);
        std::mem::replace(&mut self.ready, partial)
    }

    /// Takeover: returns the longest verified frame prefix that ends on a
    /// flush boundary and discards the rest — frames buffered beyond an
    /// unresolved gap and the head of a flush whose end never arrived —
    /// reporting how many were thrown away. The discarded suffix is
    /// equivalent to records the crashed primary never flushed: the
    /// promoted backup re-executes that suffix live and resolves uncertain
    /// outputs via SE-handler `test`.
    pub fn take_prefix(&mut self) -> (Vec<(SimTime, Bytes)>, usize) {
        let discarded = self.buffered.len() + (self.ready.len() - self.complete);
        self.buffered.clear();
        self.ready.truncate(self.complete);
        self.complete = 0;
        (std::mem::take(&mut self.ready), discarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::sig_hash as hash_of;
    use ftjvm_vm::native::{NativeDecl, NativeKind};
    use ftjvm_vm::World;

    fn decl(name: &str, nd: bool, output: bool, volatile_state: bool, returns: bool) -> NativeDecl {
        NativeDecl {
            name: name.into(),
            argc: 0,
            returns,
            nondeterministic: nd,
            output,
            creates_volatile: volatile_state,
            kind: NativeKind::Simple(|_| Ok(None)),
        }
    }

    fn obs(vt: &VtPath) -> (ThreadIdx, &VtPath) {
        (ThreadIdx(0), vt)
    }

    /// Builds a replay over a hand-assembled log.
    fn replay_from(records: Vec<Record>, world: SharedWorld) -> NativeReplay {
        let frames: Vec<Bytes> = records.iter().map(|r| r.encode()).collect();
        let mut se = SeRegistry::with_builtins();
        let log = BackupLog::decode(frames, &mut se).expect("decodes");
        NativeReplay::new(log, world, se, ftjvm_netsim::CostModel::default())
    }

    fn make_obs<'a>(t: ThreadIdx, vt: &'a VtPath) -> ThreadObs<'a> {
        ThreadObs {
            t,
            vt: Some(vt),
            br_cnt: 0,
            mon_cnt: 0,
            t_asn: 0,
            method: None,
            pc: 0,
            in_native: false,
        }
    }

    #[test]
    fn deterministic_non_output_natives_always_execute() {
        let vt = VtPath::root();
        let mut r = replay_from(vec![], World::shared());
        let d = decl("plain.native", false, false, false, true);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        assert!(matches!(
            r.directive(&make_obs(t, vt_ref), &d, &mut acct),
            NativeDirective::Execute
        ));
    }

    #[test]
    fn nd_native_with_logged_result_is_imposed_without_execution() {
        let vt = VtPath::root();
        let mut r = replay_from(
            vec![Record::NativeResult {
                t: vt.clone(),
                seq: 1,
                sig_hash: hash_of("sys.clock"),
                result: LoggedResult::Ok(Some(crate::records::WireValue::Int(42))),
                out_args: vec![],
            }],
            World::shared(),
        );
        let d = decl("sys.clock", true, false, false, true);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => {
                assert!(!a.execute, "pure ND input: skip the body");
                assert_eq!(a.result, Some(Ok(Some(ftjvm_vm::Value::Int(42)))));
            }
            NativeDirective::Execute => panic!("must impose the logged result"),
        }
        // Second call: past the log — live execution.
        assert!(matches!(
            r.directive(&make_obs(t, vt_ref), &d, &mut acct),
            NativeDirective::Execute
        ));
    }

    #[test]
    fn wrong_native_order_is_divergence() {
        let vt = VtPath::root();
        let mut r = replay_from(
            vec![Record::NativeResult {
                t: vt.clone(),
                seq: 1,
                sig_hash: hash_of("sys.clock"),
                result: LoggedResult::Ok(Some(crate::records::WireValue::Int(1))),
                out_args: vec![],
            }],
            World::shared(),
        );
        // The thread calls sys.rand where the log says sys.clock — a data
        // race reordered its execution.
        let d = decl("sys.rand", true, false, false, true);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        let _ = r.directive(&make_obs(t, vt_ref), &d, &mut acct);
        assert!(matches!(r.take_stop(), Some(StopReason::Error(VmError::ReplayDivergence { .. }))));
    }

    #[test]
    fn performed_console_output_is_skipped_unperformed_is_reexecuted() {
        let vt = VtPath::root();
        let world = World::shared();
        // Two committed console outputs; a later same-thread commit proves
        // the first was performed; the second is uncertain and the world
        // says it never happened.
        let mut r = replay_from(
            vec![
                Record::OutputCommit { t: vt.clone(), seq: 1, output_id: 10 },
                Record::OutputCommit { t: vt.clone(), seq: 2, output_id: 11 },
            ],
            world.clone(),
        );
        let d = decl("sys.print", false, true, false, false);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        // Output 10: proven performed (commit 11 is same-thread progress).
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => {
                assert!(!a.execute, "performed console output must not repeat");
                assert_eq!(a.output_id, Some(10));
            }
            NativeDirective::Execute => panic!("output 10 was proven performed"),
        }
        // Output 11: uncertain, test() says not applied -> re-execute with
        // the committed id.
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => {
                assert!(a.execute, "uncertain unperformed output must be performed");
                assert_eq!(a.output_id, Some(11));
                assert!(a.result.is_none(), "keep whatever the re-executed body returns");
            }
            NativeDirective::Execute => panic!("the commit id must be imposed"),
        }
    }

    #[test]
    fn uncertain_output_already_applied_is_skipped_via_test() {
        let vt = VtPath::root();
        let world = World::shared();
        world.borrow_mut().println(10, "primary", "already out");
        let mut r = replay_from(
            vec![Record::OutputCommit { t: vt.clone(), seq: 1, output_id: 10 }],
            world.clone(),
        );
        let d = decl("sys.print", false, true, false, false);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => assert!(!a.execute, "test() said it already happened"),
            NativeDirective::Execute => panic!("must consult test()"),
        }
    }

    #[test]
    fn schedule_records_do_not_prove_output_performed() {
        let vt = VtPath::root();
        let other = VtPath::root().child(0);
        let world = World::shared();
        // A schedule record follows the commit — that can be the preemption
        // *between* commit and output, so it must NOT count as proof.
        let mut r = replay_from(
            vec![
                Record::OutputCommit { t: vt.clone(), seq: 1, output_id: 10 },
                Record::Sched {
                    t: vt.clone(),
                    br_cnt: 5,
                    method: 0,
                    pc_off: 3,
                    mon_cnt: 0,
                    l_asn: 0,
                    in_native: true,
                    next: other,
                },
            ],
            world.clone(),
        );
        let d = decl("sys.print", false, true, false, false);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => {
                assert!(a.execute, "unproven output must be (re-)performed");
            }
            NativeDirective::Execute => panic!("the commit id must be imposed"),
        }
    }

    #[test]
    fn volatile_output_with_lost_result_record_is_reexecuted() {
        // file.write committed + performed, but its result record was
        // still buffered at the crash: re-execute (idempotent by id) and
        // keep the recomputed return value.
        let vt = VtPath::root();
        let world = World::shared();
        world.borrow_mut().write_file_at(10, "f", 0, b"x");
        let mut r = replay_from(
            vec![Record::OutputCommit { t: vt.clone(), seq: 1, output_id: 10 }],
            world.clone(),
        );
        let d = decl("file.write", true, true, true, true);
        let mut acct = TimeAccount::new();
        let (t, vt_ref) = obs(&vt);
        match r.directive(&make_obs(t, vt_ref), &d, &mut acct) {
            NativeDirective::Replay(a) => {
                assert!(a.execute, "must re-run to recompute the lost return value");
                assert!(a.result.is_none());
                assert_eq!(a.output_id, Some(10));
            }
            NativeDirective::Execute => panic!("the commit id must be imposed"),
        }
    }

    #[test]
    fn decode_indexes_records_by_kind() {
        let vt = VtPath::root();
        let records = [
            Record::IdMap { l_id: 0, t: vt.clone(), t_asn: 1 },
            Record::LockAcq { t: vt.clone(), t_asn: 1, l_id: 0, l_asn: 1 },
            Record::LockInterval { t: vt.clone(), t_asn_start: 2, count: 5 },
            Record::Heartbeat { now_ns: 1 },
            Record::OutputCommit { t: vt.clone(), seq: 1, output_id: 0 },
            Record::SeState { handler: 0, payload: Bytes::from_static(b"x") },
        ];
        let frames: Vec<Bytes> = records.iter().map(|r| r.encode()).collect();
        let mut se = SeRegistry::with_builtins();
        let log = BackupLog::decode(frames, &mut se).unwrap();
        assert_eq!(log.total_records(), 6);
        assert_eq!(log.lock_records(), 1);
        assert_eq!(log.interval_records(), 1);
        assert_eq!(log.sched_records(), 0);
    }

    // -- RecvWindow: the receiver half of the reliability sublayer -------

    use crate::codec::seal_frame;
    use crate::primary::SendWindow;

    fn sealed(seq: u64, body: &[u8]) -> Bytes {
        seal_frame(seq, body)
    }

    #[test]
    fn recv_window_releases_in_order_and_acks() {
        let mut w = RecvWindow::new();
        let mut ctrl = Vec::new();
        w.offer(SimTime::from_nanos(10), sealed(0, b"a"), &mut ctrl);
        w.offer(SimTime::from_nanos(20), sealed(1, b"b"), &mut ctrl);
        let got = w.take_ready();
        let bodies: Vec<&[u8]> = got.iter().map(|(_, b)| b.as_ref()).collect();
        assert_eq!(bodies, vec![b"a".as_ref(), b"b".as_ref()]);
        assert_eq!(ctrl, vec![Control::Ack { next: 1 }, Control::Ack { next: 2 }]);
        assert!(!w.has_gap());
    }

    #[test]
    fn recv_window_buffers_gap_nacks_once_and_reassembles() {
        let mut w = RecvWindow::new();
        let mut ctrl = Vec::new();
        // 1 and 2 arrive before 0: one NACK for 0, not one per arrival.
        w.offer(SimTime::from_nanos(10), sealed(1, b"b"), &mut ctrl);
        w.offer(SimTime::from_nanos(20), sealed(2, b"c"), &mut ctrl);
        assert_eq!(ctrl, vec![Control::Nack { seq: 0 }]);
        assert!(w.has_gap() && w.take_ready().is_empty());
        // The late gap-filler unblocks the whole run, in sequence order,
        // with monotone release instants.
        w.offer(SimTime::from_nanos(100), sealed(0, b"a"), &mut ctrl);
        let got = w.take_ready();
        let bodies: Vec<&[u8]> = got.iter().map(|(_, b)| b.as_ref()).collect();
        assert_eq!(bodies, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
        assert!(got.windows(2).all(|p| p[0].0 <= p[1].0), "monotone release times");
        assert_eq!(*ctrl.last().unwrap(), Control::Ack { next: 3 });
    }

    #[test]
    fn recv_window_suppresses_duplicates_and_rejects_corruption() {
        let mut w = RecvWindow::new();
        let mut ctrl = Vec::new();
        w.offer(SimTime::ZERO, sealed(0, b"a"), &mut ctrl);
        w.offer(SimTime::ZERO, sealed(0, b"a"), &mut ctrl); // retransmit twin
        assert_eq!(w.dup_deliveries, 1);
        assert_eq!(w.take_ready().len(), 1, "released exactly once");
        let mut bad = sealed(1, b"b").to_vec();
        bad[6] ^= 0x40;
        w.offer(SimTime::ZERO, bad.into(), &mut ctrl);
        assert_eq!(w.corrupted_frames, 1);
        assert_eq!(w.expected(), 1, "corrupt frame not released");
    }

    #[test]
    fn take_prefix_discards_beyond_unresolved_gap() {
        let mut w = RecvWindow::new();
        let mut ctrl = Vec::new();
        w.offer(SimTime::ZERO, sealed(0, b"a"), &mut ctrl);
        w.offer(SimTime::ZERO, sealed(2, b"c"), &mut ctrl); // 1 never arrives
        w.offer(SimTime::ZERO, sealed(3, b"d"), &mut ctrl);
        let (prefix, discarded) = w.take_prefix();
        assert_eq!(prefix.len(), 1, "only the verified prefix survives");
        assert_eq!(prefix[0].1.as_ref(), b"a");
        assert_eq!(discarded, 2);
        assert!(!w.has_gap());
    }

    #[test]
    fn recv_window_releases_whole_flushes_only() {
        use crate::codec::seal;
        let mut w = RecvWindow::new();
        let mut ctrl = Vec::new();
        // A three-frame flush (result, snapshot, commit) whose end is late.
        w.offer(SimTime::ZERO, seal(0, b"result", true), &mut ctrl);
        w.offer(SimTime::ZERO, seal(1, b"snapshot", true), &mut ctrl);
        assert!(w.take_ready().is_empty(), "the head of a flush waits for its end");
        assert_eq!(w.expected(), 2, "the head is acknowledged all the same");
        w.offer(SimTime::ZERO, seal(2, b"commit", false), &mut ctrl);
        w.offer(SimTime::ZERO, seal(3, b"next-head", true), &mut ctrl);
        let got = w.take_ready();
        let bodies: Vec<&[u8]> = got.iter().map(|(_, b)| b.as_ref()).collect();
        assert_eq!(bodies, vec![b"result".as_ref(), b"snapshot".as_ref(), b"commit".as_ref()]);
        // At takeover the unfinished flush is discarded with the gap.
        w.offer(SimTime::ZERO, seal(5, b"beyond-gap", false), &mut ctrl);
        let (prefix, discarded) = w.take_prefix();
        assert!(prefix.is_empty());
        assert_eq!(discarded, 2, "the head of flush 3 and the frame beyond the gap");
    }

    #[test]
    fn recv_window_interops_with_send_window() {
        // Sender seals via its tracking window; receiver opens and acks;
        // the ack empties the sender's retransmission buffer.
        let mut tx = SendWindow::new(SimTime::from_micros(100));
        let mut rx = RecvWindow::new();
        let mut ctrl = Vec::new();
        for body in [b"x".as_ref(), b"y".as_ref()] {
            let frame = tx.track(SimTime::ZERO, body, false);
            rx.offer(SimTime::from_micros(1), frame, &mut ctrl);
        }
        assert_eq!(tx.outstanding(), 2);
        let mut resend = Vec::new();
        for c in ctrl.drain(..) {
            tx.on_control(SimTime::from_micros(2), c, &mut resend);
        }
        assert_eq!(tx.outstanding(), 0, "cumulative ack cleared the window");
        assert!(resend.is_empty());
    }
}
