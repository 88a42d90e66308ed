//! Fleet-scale serving simulation: hundreds of replicated pairs
//! multiplexed on one global timeline.
//!
//! The paper measures one primary/backup pair on two Sun E5000s. This
//! module asks the fleet question: what service levels does a *building
//! full* of such pairs deliver when faults arrive continuously? Each
//! slot is a [`GroupTask`] — a classic pair is a group of two — and the
//! windowed worker pool of [`crate::parallel`] advances every slot to
//! each global logical-time quantum boundary and merges the shared-trunk
//! reservations at a barrier, so hundreds of pairs interleave on one
//! timeline — on one thread or many, byte-identically
//! ([`FleetConfig::threads`]).
//!
//! The moving parts:
//!
//! * **Seed splitting** ([`split_seed`]) — every random choice a pair
//!   makes (workload size, technique, codec, fault plan, checkpoint
//!   jitter) derives from `(fleet_seed, pair_id, stream)` through a
//!   SplitMix64 finalizer. Pairs are decorrelated by construction, and
//!   any single pair is reproducible standalone from the fleet seed and
//!   its id alone — no fleet run required.
//! * **Fault plans** — per-pair primary crashes and backup kills are
//!   drawn independently per mille; a *rack partition* scenario
//!   additionally kills the backups of one rack at the same local
//!   instant (pairs are racked `pair_id % racks`), modeling correlated
//!   loss of a failure domain.
//! * **Shared capacity** — an optional fleet trunk
//!   ([`ftjvm_netsim::SharedBandwidth`]) that every pair's replication
//!   channel serializes through, so one pair's log burst queues behind
//!   another's (contention). Off, pairs are timing-independent.
//! * **Request router** — each journal write a pair commits serves one
//!   client request. Open-loop clients arrive on a fixed interarrival;
//!   closed-loop clients issue the next request a think time after the
//!   previous completion. Output-commit latency percentiles, failovers
//!   absorbed, and the recovery backlog come out of matching arrivals to
//!   commit completions.
//!
//! Every pair runs the hot + checkpointed configuration (the richest
//! machinery: streaming standby, epoch cuts, degraded mode,
//! re-integration); lock-sync vs thread-sched and fixed vs compact codec
//! are drawn per pair so the fleet exercises the full matrix.

use crate::ftjvm::{FtConfig, FtJvm, LockVariant, ReplicationMode};
use crate::group::{GroupConfig, GroupReport, GroupTask};
use crate::pair::CheckpointPlan;
use crate::parallel::{run_windowed, PoolOptions, PoolStats, WindowTask};
use crate::runtime::LagBudget;
use ftjvm_netsim::{FailureDetector, FaultPlan, SharedLink, SharedStats, SimTime, WireCodec};
use ftjvm_vm::{NativeRegistry, Program, VmError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Local simulated time a pair advances per scheduler turn. Small enough
/// that pairs interleave finely on the shared trunk, large enough that
/// scheduler overhead is negligible against a slice of real execution.
const QUANTUM: SimTime = SimTime::from_micros(500);

/// Bytes one journal entry writes (one output commit = one served
/// request); the final console line prints `14 × requests`.
const ENTRY_BYTES: u64 = 14;

/// Instruction units one journal iteration executes (measured: a
/// 130-request run is ~1183 instructions). Used to place backup kills
/// inside the run — instruction-unit instants, not wall time.
const UNITS_PER_REQUEST: u64 = 9;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for one `(pair, stream)` slot of a fleet: two
/// SplitMix64 finalizer rounds over the fleet seed and the slot id.
/// Distinct pairs and distinct streams within a pair get decorrelated
/// values by construction, and the derivation needs nothing but
/// `(fleet_seed, pair_id)` — so a single pair's whole configuration can
/// be reproduced standalone.
pub fn split_seed(fleet_seed: u64, pair_id: u32, stream: u32) -> u64 {
    splitmix64(splitmix64(fleet_seed ^ ((u64::from(pair_id) << 32) | u64::from(stream))))
}

/// How the client population generates request arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterMode {
    /// Open loop: requests arrive on a fixed interarrival regardless of
    /// completions (arrival rate is exogenous; latency absorbs backlog).
    Open {
        /// Gap between consecutive request arrivals at one pair.
        interarrival: SimTime,
    },
    /// Closed loop: one client per pair issues the next request a think
    /// time after the previous completion (rate adapts to the server).
    Closed {
        /// Client think time between a completion and the next request.
        think: SimTime,
    },
}

/// Fleet-run parameters. Everything downstream — per-pair workload
/// sizes, fault plans, seeds, timing — derives deterministically from
/// this value.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of replicated pairs.
    pub pairs: u32,
    /// Fleet master seed; all per-pair streams split from it.
    pub seed: u64,
    /// Failure domains; a pair lives in rack `pair_id % racks`.
    pub racks: u32,
    /// Per-mille probability that a pair's primary fail-stops mid-run.
    pub crash_per_mille: u32,
    /// Per-mille probability that a pair's backup is killed mid-run.
    pub kill_per_mille: u32,
    /// Correlated scenario: kill the backup of *every* pair in this rack
    /// (in addition to the independent draws).
    pub partition_rack: Option<u32>,
    /// Local instruction-unit instant at which a rack-partition kill
    /// fires (the same for every victim, modeling one switch dying).
    pub partition_kill_units: u64,
    /// Recruit replacement standbys after degraded-mode entry.
    pub reintegrate: bool,
    /// Epoch checkpoint interval floor, in flushes.
    pub checkpoint_base: u64,
    /// Per-pair jitter added to the checkpoint interval (`0..jitter`),
    /// de-phasing epoch cuts across the fleet.
    pub checkpoint_jitter: u64,
    /// Start-time stagger between consecutive pair ids.
    pub stagger: SimTime,
    /// Shared-trunk serialization cost per payload byte; `None` gives
    /// every pair its own uncontended link.
    pub shared_per_byte: Option<SimTime>,
    /// Client arrival model.
    pub router: RouterMode,
    /// Smallest per-pair journal length (requests served).
    pub min_requests: u64,
    /// Largest per-pair journal length.
    pub max_requests: u64,
    /// Check every surviving pair's console against the analytically
    /// expected output and scan for duplicate output ids.
    pub verify: bool,
    /// Replicas per slot: `Some(k)` gives each slot a `k`-replica group
    /// with rank-ordered promotion, the slot's drawn primary crash
    /// becoming the group's first kill and a drawn backup kill the
    /// lowest-priority standby's death. `None` is the classic pair, a
    /// group of two.
    pub group_size: Option<usize>,
    /// BFT-lite digest vote quorum forwarded to group slots (ignored for
    /// classic pairs).
    pub vote_quorum: Option<u32>,
    /// Worker threads for the windowed scheduler. The fleet result is
    /// byte-identical for every value — threads change wall-clock time
    /// only (see [`crate::parallel`]).
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            pairs: 64,
            seed: 0xF1EE7,
            racks: 8,
            crash_per_mille: 150,
            kill_per_mille: 100,
            partition_rack: None,
            partition_kill_units: 512,
            reintegrate: true,
            checkpoint_base: 3,
            checkpoint_jitter: 3,
            stagger: SimTime::from_micros(200),
            shared_per_byte: Some(SimTime::from_nanos(20)),
            router: RouterMode::Open { interarrival: SimTime::from_micros(300) },
            min_requests: 60,
            max_requests: 200,
            verify: true,
            group_size: None,
            vote_quorum: None,
            threads: 1,
        }
    }
}

/// Everything one pair needs, derived from `(fleet_seed, pair_id)`:
/// rack, start offset, workload size, technique, codec, fault plan, and
/// checkpoint cadence.
#[derive(Debug, Clone)]
pub struct PairPlan {
    /// The pair's fleet-wide id.
    pub pair_id: u32,
    /// Failure domain (`pair_id % racks`).
    pub rack: u32,
    /// Global instant the pair's local clock zero maps to.
    pub start_offset: SimTime,
    /// Journal entries the pair writes — requests it serves.
    pub requests: u64,
    /// Replication technique drawn for this pair.
    pub mode: ReplicationMode,
    /// Wire codec drawn for this pair.
    pub codec: WireCodec,
    /// Primary fault injection (a mid-journal `BeforeOutput` crash when
    /// the crash draw fires).
    pub fault: FaultPlan,
    /// Backup kill instant in instruction units, from the independent
    /// draw or the rack partition.
    pub kill_backup_after_units: Option<u64>,
    /// Epoch checkpoint interval (base + per-pair jitter), in flushes.
    pub checkpoint_interval: u64,
}

impl PairPlan {
    /// Derives pair `pair_id`'s plan from the fleet configuration. Pure:
    /// depends only on `(cfg.seed, pair_id)` and the scalar knobs.
    pub fn derive(cfg: &FleetConfig, pair_id: u32) -> PairPlan {
        let s = |stream: u32| split_seed(cfg.seed, pair_id, stream);
        let racks = cfg.racks.max(1);
        let rack = pair_id % racks;
        let span = cfg.max_requests.saturating_sub(cfg.min_requests) + 1;
        let requests = cfg.min_requests + s(0) % span;
        let mode =
            if s(1) % 2 == 0 { ReplicationMode::LockSync } else { ReplicationMode::ThreadSched };
        let codec = if s(2) % 2 == 0 { WireCodec::Fixed } else { WireCodec::Compact };
        let fault = if s(3) % 1000 < u64::from(cfg.crash_per_mille) {
            // Crash in the paper's uncertain-output window, somewhere in
            // the journal's middle half — late enough that epochs exist,
            // early enough that real replay remains.
            FaultPlan::BeforeOutput(requests / 4 + s(4) % (requests / 2).max(1))
        } else {
            FaultPlan::None
        };
        // Kills land in the run's middle half, like crashes: early enough
        // that degraded mode (and re-integration) has execution left to
        // cover, late enough that epochs exist to recover from.
        let total_units = requests * UNITS_PER_REQUEST;
        let drawn_kill = if s(5) % 1000 < u64::from(cfg.kill_per_mille) {
            Some(total_units / 4 + s(6) % (total_units / 2).max(1))
        } else {
            None
        };
        // The partition overrides the independent draw: one switch dies
        // at one instant, taking every victim rack backup with it.
        let kill_backup_after_units = if cfg.partition_rack == Some(rack) {
            Some(cfg.partition_kill_units)
        } else {
            drawn_kill
        };
        let checkpoint_interval = cfg.checkpoint_base + s(7) % cfg.checkpoint_jitter.max(1);
        PairPlan {
            pair_id,
            rack,
            start_offset: SimTime::from_nanos(cfg.stagger.as_nanos() * u64::from(pair_id)),
            requests,
            mode,
            codec,
            fault,
            kill_backup_after_units,
            checkpoint_interval,
        }
    }

    /// The replica-pair configuration this plan runs under: hot +
    /// checkpointed, per-pair derived seeds, a fast detector sized for
    /// journal-scale runs.
    pub fn ft_config(&self, cfg: &FleetConfig) -> FtConfig {
        let s = |stream: u32| split_seed(cfg.seed, self.pair_id, stream);
        FtConfig {
            mode: self.mode,
            lock_variant: LockVariant::PerAcquisition,
            lag_budget: LagBudget::Hot,
            codec: self.codec,
            fault: self.fault,
            checkpoint_interval: Some(self.checkpoint_interval),
            detector: FailureDetector::new(SimTime::from_millis(1), 2),
            primary_seed: s(8),
            backup_seed: s(9),
            primary_env_seed: s(10),
            backup_env_seed: s(11),
            ..FtConfig::default()
        }
    }

    /// The checkpoint plan (fault, kill, re-integration) for the task.
    pub fn checkpoint_plan(&self, cfg: &FleetConfig) -> CheckpointPlan {
        CheckpointPlan {
            fault: self.fault,
            kill_backup_after_units: self.kill_backup_after_units,
            reintegrate: cfg.reintegrate,
        }
    }

    /// The group configuration this plan's slot runs under: the drawn
    /// primary crash becomes the group's first (and only) kill, a drawn
    /// backup kill the death of the lowest-priority standby — rank slot
    /// `size - 2`, which at size 2 is the pair's only backup. Sizes below
    /// 2 are refused by [`GroupTask::new`].
    pub fn group_config(&self, cfg: &FleetConfig, size: usize) -> GroupConfig {
        GroupConfig {
            size,
            vote_quorum: cfg.vote_quorum,
            kills: if self.fault.is_armed() { vec![self.fault] } else { Vec::new() },
            kill_standby_after_units: self
                .kill_backup_after_units
                .map(|units| (size.saturating_sub(2), units)),
            reintegrate: cfg.reintegrate,
            ..GroupConfig::default()
        }
    }

    /// The console line a correct run of this plan must end with: the
    /// journal's final size, `ENTRY_BYTES × requests`.
    pub fn expected_console(&self) -> Vec<String> {
        vec![format!("{}", ENTRY_BYTES * self.requests)]
    }
}

/// What happened to one pair of the fleet.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// The pair's fleet-wide id.
    pub pair_id: u32,
    /// Failure domain.
    pub rack: u32,
    /// Requests the plan asked for.
    pub requests: u64,
    /// Requests matched to a commit completion.
    pub served: u64,
    /// The plan injected a primary crash.
    pub planned_crash: bool,
    /// The plan killed the backup (drawn or rack partition).
    pub planned_kill: bool,
    /// The primary actually fail-stopped and the pair failed over.
    pub crashed: bool,
    /// The primary entered degraded mode (detector declared the backup
    /// dead).
    pub degraded: bool,
    /// A replacement standby went live before the run ended.
    pub reintegrated: bool,
    /// An authority survived to the end (primary, or a promoted backup).
    pub survived: bool,
    /// The surviving console matched the expected output exactly and no
    /// output id was duplicated (only meaningful when `survived`).
    pub output_ok: bool,
    /// Measured latency of the first failover, detection plus suffix
    /// replay (zero for failure-free pairs).
    pub failover_latency: SimTime,
    /// A fatal error the pair's run raised, if any.
    pub error: Option<String>,
    /// Failure timeline, newest last: kills, detections, promotions,
    /// evictions, and re-homing moments.
    pub timeline: Vec<String>,
}

/// Aggregate service levels of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Pairs launched.
    pub pairs: u32,
    /// Pairs that ran to a final report without a fatal error.
    pub completed: u32,
    /// Primary crashes absorbed: the pair failed over *and* its output
    /// verified exactly-once and byte-identical.
    pub failovers_absorbed: u32,
    /// Backups killed by plan (drawn plus rack partition victims).
    pub backups_killed: u32,
    /// Pairs whose primary entered degraded mode.
    pub degraded_entries: u32,
    /// Pairs that re-integrated a replacement standby.
    pub reintegrated: u32,
    /// Pairs that lost both replicas (beyond the 1-fault model: crash
    /// while the backup was dead and no replacement was live).
    pub lost: u32,
    /// Pairs with a surviving authority whose output failed verification
    /// — must be zero.
    pub divergent: u32,
    /// Requests across all plans.
    pub total_requests: u64,
    /// Requests matched to commit completions.
    pub served_requests: u64,
    /// Peak outstanding matched requests (arrived, not yet committed)
    /// across the fleet timeline — the recovery backlog high-water mark.
    pub backlog_peak: u64,
    /// Median output-commit latency (arrival to commit release).
    pub commit_p50: SimTime,
    /// 99th-percentile output-commit latency.
    pub commit_p99: SimTime,
    /// Worst output-commit latency.
    pub commit_max: SimTime,
    /// Global instant the last pair finished.
    pub makespan: SimTime,
    /// Failovers absorbed per simulated second of makespan.
    pub failovers_per_sec: f64,
    /// Largest retained replay suffix any primary held, in frames (the
    /// re-integration buffer; bounded by one epoch under checkpointing).
    pub peak_suffix_frames: u64,
    /// Largest received-but-unconsumed record count any standby held.
    pub peak_backup_pending: u64,
    /// Shared-trunk statistics, when a trunk was configured.
    pub shared: Option<SharedStats>,
    /// Windowed-scheduler diagnostics: worker count, windows merged,
    /// barrier crossings, per-worker slot ownership.
    pub pool: PoolStats,
    /// Per-pair outcomes, indexed by pair id.
    pub outcomes: Vec<PairOutcome>,
}

impl FleetReport {
    /// True when every surviving pair verified and no pair errored.
    pub fn all_verified(&self) -> bool {
        self.divergent == 0 && self.completed == self.pairs
    }
}

/// Builds the per-pair journal workload: `n` file appends — each an
/// output commit, i.e. one served request — then one console print of
/// the resulting file size. Mirrors the `file_journal` micro workload
/// (the workloads crate sits above this one, so the builder is inlined).
/// Public so a single fleet pair can be reproduced standalone.
pub fn journal_program(n: i64) -> Result<Arc<Program>, VmError> {
    use ftjvm_vm::program::ProgramBuilder;
    let mut b = ProgramBuilder::new();
    let print_int = b.import_native("sys.print_int", 1, false);
    let fopen = b.import_native("file.open", 1, true);
    let fwrite = b.import_native("file.write", 3, true);
    let fsize = b.import_native("file.size", 1, true);
    let fclose = b.import_native("file.close", 1, false);
    let name = b.intern("journal.log");
    let entry_text = b.intern("journal-entry\n");
    let mut m = b.method("main", 1);
    m.const_str(name).invoke_native(fopen, 1).store(1);
    let done = m.new_label();
    m.push_i(n).store(2);
    let top = m.bind_new_label();
    m.load(2).if_not(done);
    m.load(1).const_str(entry_text).push_i(ENTRY_BYTES as i64).invoke_native(fwrite, 3).pop();
    m.inc(2, -1).goto(top);
    m.bind(done);
    m.load(1).invoke_native(fsize, 1).invoke_native(print_int, 1);
    m.load(1).invoke_native(fclose, 1);
    m.ret_void();
    let entry = m.build(&mut b);
    b.build(entry).map(Arc::new).map_err(|e| VmError::Internal(format!("journal program: {e:?}")))
}

impl WindowTask for GroupTask {
    fn now(&self) -> SimTime {
        GroupTask::now(self)
    }

    fn is_done(&self) -> bool {
        GroupTask::is_done(self)
    }

    fn step(&mut self, until: SimTime) -> Result<(), VmError> {
        GroupTask::step(self, until).map(|_| ())
    }
}

/// The routing inputs one finished slot contributes to aggregation:
/// plain data, produced on the slot's owning worker (the reports
/// themselves hold `Rc` state and never cross threads).
struct SlotRouting {
    /// Globalized commit completions `(release ns, pessimistic wait ns)`.
    done: Vec<(u64, u64)>,
    /// The slot's final local instant.
    end: SimTime,
    /// Largest retained replay suffix any of its primaries held.
    peak_suffix: u64,
    /// Largest received-but-unconsumed record count its standby held.
    peak_pending: u64,
}

/// One slot's [`Send`] result, carried back from its worker.
struct SlotResult {
    outcome: PairOutcome,
    /// `None` when the slot errored (mirrors the error path of the old
    /// event loop: errored slots route no requests).
    routing: Option<SlotRouting>,
}

/// Runs a whole fleet per `cfg` and aggregates service levels.
///
/// Deterministic: the same configuration always produces the same
/// report, pair for pair and nanosecond for nanosecond — at any
/// [`FleetConfig::threads`] count. Pair-level fatal errors are captured
/// in the pair's outcome (and fail verification) instead of aborting
/// the fleet.
///
/// # Errors
/// Propagates scheduler-invariant breaks (a bug, not a fault); workload
/// and task construction errors surface as per-pair outcomes.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, VmError> {
    let natives = NativeRegistry::with_builtins();
    let programs: Mutex<HashMap<u64, Arc<Program>>> = Mutex::new(HashMap::new());
    let plans: Vec<PairPlan> = (0..cfg.pairs).map(|id| PairPlan::derive(cfg, id)).collect();
    let offsets: Vec<SimTime> = plans.iter().map(|p| p.start_offset).collect();
    let opts = PoolOptions {
        threads: cfg.threads.max(1),
        quantum: QUANTUM,
        trunk_per_byte: cfg.shared_per_byte,
    };

    let build = |pair_id: u32, port: Option<&SharedLink>| -> Result<GroupTask, VmError> {
        let plan = &plans[pair_id as usize];
        let program = {
            let mut cache = programs
                .lock()
                .map_err(|_| VmError::Internal("fleet program cache poisoned".into()))?;
            match cache.get(&plan.requests) {
                Some(p) => p.clone(),
                None => {
                    let p = journal_program(plan.requests as i64)?;
                    cache.insert(plan.requests, p.clone());
                    p
                }
            }
        };
        let mut jvm = FtJvm::with_natives(program, natives.clone(), plan.ft_config(cfg));
        if let Some(link) = port {
            jvm.set_shared_bandwidth(link.clone(), plan.start_offset);
        }
        GroupTask::new(jvm, plan.group_config(cfg, cfg.group_size.unwrap_or(2)))
    };

    let finish = |pair_id: u32, task: Result<GroupTask, VmError>| -> SlotResult {
        let plan = &plans[pair_id as usize];
        match task.and_then(GroupTask::into_report) {
            Err(e) => SlotResult { outcome: error_outcome(plan, &e), routing: None },
            Ok(report) => SlotResult {
                outcome: slot_outcome(plan, cfg, &report),
                routing: Some(SlotRouting {
                    done: completions(plan, &report),
                    end: report
                        .standby
                        .iter()
                        .map(|s| s.report.acct.now())
                        .fold(report.final_report.acct.now(), SimTime::max),
                    peak_suffix: report
                        .reigns
                        .iter()
                        .map(|r| r.stats.peak_suffix_frames)
                        .max()
                        .unwrap_or(0),
                    peak_pending: report
                        .standby
                        .as_ref()
                        .map_or(0, |s| s.stats.peak_backup_pending),
                }),
            },
        }
    };

    let (results, pool, shared) = run_windowed(&opts, &offsets, build, finish)?;
    Ok(aggregate(cfg, &plans, results, pool, shared))
}

/// Builds the error outcome for a pair whose run raised a fatal error.
fn error_outcome(plan: &PairPlan, e: &VmError) -> PairOutcome {
    PairOutcome {
        pair_id: plan.pair_id,
        rack: plan.rack,
        requests: plan.requests,
        served: 0,
        planned_crash: plan.fault.is_armed(),
        planned_kill: plan.kill_backup_after_units.is_some(),
        crashed: false,
        degraded: false,
        reintegrated: false,
        survived: false,
        output_ok: false,
        failover_latency: SimTime::ZERO,
        error: Some(e.to_string()),
        timeline: Vec::new(),
    }
}

/// The outcome record of a finished slot of any size: verification plus
/// what the group's typed report says happened.
fn slot_outcome(plan: &PairPlan, cfg: &FleetConfig, report: &GroupReport) -> PairOutcome {
    let survived = report.completed;
    let output_ok = if cfg.verify {
        survived
            && report.console() == plan.expected_console()
            && report.check_no_duplicate_outputs().is_ok()
    } else {
        survived
    };
    PairOutcome {
        pair_id: plan.pair_id,
        rack: plan.rack,
        requests: plan.requests,
        served: 0, // filled by the router
        planned_crash: plan.fault.is_armed(),
        planned_kill: plan.kill_backup_after_units.is_some(),
        crashed: report.crashed,
        degraded: report.degraded_at.is_some(),
        reintegrated: !report.reintegrated.is_empty(),
        survived,
        output_ok,
        failover_latency: report
            .failovers
            .first()
            .map_or(SimTime::ZERO, |f| f.detection_latency + f.suffix_replay),
        error: None,
        timeline: report.timeline.iter().map(ToString::to_string).collect(),
    }
}

/// Globalized commit completions of one slot, sorted by release instant:
/// `(global release ns, pessimistic wait ns)` — every reign's primary-side
/// samples plus the outputs a surviving standby performed past the log's
/// end.
fn completions(plan: &PairPlan, report: &GroupReport) -> Vec<(u64, u64)> {
    let base = plan.start_offset.as_nanos();
    let mut all: Vec<(u64, u64)> = report
        .reigns
        .iter()
        .map(|r| &r.stats)
        .chain(report.standby.iter().map(|s| &s.stats))
        .flat_map(|stats| stats.commit_samples.iter())
        .map(|&(at, wait)| (base + at, wait))
        .collect();
    all.sort_unstable();
    all
}

/// Matches one pair's request arrivals to its commit completions and
/// returns `(arrival, completion, latency)` triples plus the unserved
/// arrival count.
fn route_pair(
    cfg: &FleetConfig,
    plan: &PairPlan,
    done: &[(u64, u64)],
) -> (Vec<(u64, u64, u64)>, u64) {
    let n = plan.requests as usize;
    let m = n.min(done.len());
    let mut matched = Vec::with_capacity(m);
    let base = plan.start_offset.as_nanos();
    let mut prev_arrival = base;
    for (k, &(at, wait)) in done.iter().take(m).enumerate() {
        let arrival = match cfg.router {
            RouterMode::Open { interarrival } => base + interarrival.as_nanos() * (k as u64 + 1),
            RouterMode::Closed { think } => {
                let prev_done = if k == 0 { base } else { done[k - 1].0 };
                prev_arrival.max(prev_done) + think.as_nanos()
            }
        };
        prev_arrival = arrival;
        // A commit released after the arrival waited in line; one
        // released before it means the server was idle — the request
        // still pays the pessimistic ack wait.
        let latency = if at > arrival { at - arrival } else { wait };
        matched.push((arrival, at, latency));
    }
    (matched, (n - m) as u64)
}

/// Aggregates pair outcomes, routes requests, and computes fleet SLOs.
fn aggregate(
    cfg: &FleetConfig,
    plans: &[PairPlan],
    mut results: Vec<SlotResult>,
    pool: PoolStats,
    shared: Option<SharedStats>,
) -> FleetReport {
    let mut latencies: Vec<u64> = Vec::new();
    let mut sweep: Vec<(u64, i64)> = Vec::new();
    let mut served_total = 0u64;
    let mut makespan = SimTime::ZERO;
    let mut peak_suffix = 0u64;
    let mut peak_pending = 0u64;

    for (plan, result) in plans.iter().zip(results.iter_mut()) {
        // The report already reduced to routing inputs on the owning
        // worker: commit completions, the slot's end instant, and the
        // replay peaks.
        let Some(routing) = result.routing.as_ref() else { continue };
        let (matched, _unserved) = route_pair(cfg, plan, &routing.done);
        result.outcome.served = matched.len() as u64;
        served_total += matched.len() as u64;
        for &(arrival, at, latency) in &matched {
            latencies.push(latency);
            sweep.push((arrival, 1));
            sweep.push((at.max(arrival), -1));
        }
        makespan = makespan.max(plan.start_offset + routing.end);
        peak_suffix = peak_suffix.max(routing.peak_suffix);
        peak_pending = peak_pending.max(routing.peak_pending);
    }

    // Backlog high-water mark: arrivals open, completions close;
    // arrivals sort first at equal instants so the peak is inclusive.
    sweep.sort_unstable_by_key(|&(t, d)| (t, -d));
    let (mut outstanding, mut backlog_peak) = (0i64, 0i64);
    for (_, d) in sweep {
        outstanding += d;
        backlog_peak = backlog_peak.max(outstanding);
    }

    latencies.sort_unstable();
    let pct = |p: u64| -> SimTime {
        if latencies.is_empty() {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(latencies[((latencies.len() - 1) as u64 * p / 100) as usize])
    };

    let outcomes: Vec<PairOutcome> = results.into_iter().map(|r| r.outcome).collect();
    let completed = outcomes.iter().filter(|o| o.error.is_none()).count() as u32;
    let failovers_absorbed = outcomes.iter().filter(|o| o.crashed && o.output_ok).count() as u32;
    let lost = outcomes.iter().filter(|o| o.error.is_none() && !o.survived).count() as u32;
    let divergent =
        outcomes.iter().filter(|o| o.error.is_some() || (o.survived && !o.output_ok)).count()
            as u32;
    let makespan_secs = makespan.as_secs_f64();
    FleetReport {
        pairs: cfg.pairs,
        completed,
        failovers_absorbed,
        backups_killed: outcomes.iter().filter(|o| o.planned_kill).count() as u32,
        degraded_entries: outcomes.iter().filter(|o| o.degraded).count() as u32,
        reintegrated: outcomes.iter().filter(|o| o.reintegrated).count() as u32,
        lost,
        divergent,
        total_requests: outcomes.iter().map(|o| o.requests).sum(),
        served_requests: served_total,
        backlog_peak: backlog_peak.max(0) as u64,
        commit_p50: pct(50),
        commit_p99: pct(99),
        commit_max: pct(100),
        makespan,
        failovers_per_sec: if makespan_secs > 0.0 {
            f64::from(failovers_absorbed) / makespan_secs
        } else {
            0.0
        },
        peak_suffix_frames: peak_suffix,
        peak_backup_pending: peak_pending,
        shared,
        pool,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_decorrelates_pairs_and_streams() {
        let a = split_seed(42, 0, 0);
        assert_eq!(a, split_seed(42, 0, 0), "deterministic");
        assert_ne!(a, split_seed(42, 1, 0), "pairs differ");
        assert_ne!(a, split_seed(42, 0, 1), "streams differ");
        assert_ne!(a, split_seed(43, 0, 0), "fleet seeds differ");
    }

    #[test]
    fn plans_are_standalone_reproducible() {
        let cfg = FleetConfig { pairs: 16, ..FleetConfig::default() };
        for id in 0..cfg.pairs {
            let a = PairPlan::derive(&cfg, id);
            let b = PairPlan::derive(&cfg, id);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.fault, b.fault);
            assert_eq!(a.kill_backup_after_units, b.kill_backup_after_units);
        }
    }

    #[test]
    fn small_group_fleet_serves_and_verifies() {
        let cfg = FleetConfig {
            pairs: 4,
            crash_per_mille: 400,
            kill_per_mille: 100,
            group_size: Some(3),
            shared_per_byte: None,
            verify: true,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg).expect("group fleet runs");
        assert_eq!(report.completed, 4);
        assert_eq!(report.divergent, 0, "every surviving group byte-identical");
        let crashed: Vec<_> = report.outcomes.iter().filter(|o| o.crashed).collect();
        assert!(!crashed.is_empty(), "a standby was promoted in place (else this is vacuous)");
        assert!(
            crashed.iter().all(|o| !o.timeline.is_empty()),
            "group failovers must carry a timeline"
        );
        // Outputs a standby performed live before it turned primary are
        // served requests too.
        for o in report.outcomes.iter().filter(|o| o.survived) {
            assert_eq!(o.served, o.requests, "slot {} serves every request", o.pair_id);
        }
    }

    #[test]
    fn thread_count_is_invisible_in_results() {
        let base = FleetConfig {
            pairs: 12,
            crash_per_mille: 300,
            kill_per_mille: 150,
            ..FleetConfig::default()
        };
        let r1 = run_fleet(&FleetConfig { threads: 1, ..base.clone() }).expect("fleet runs");
        for threads in [2, 4] {
            let rn = run_fleet(&FleetConfig { threads, ..base.clone() }).expect("fleet runs");
            assert_eq!(r1.served_requests, rn.served_requests, "{threads} threads");
            assert_eq!(r1.commit_p50, rn.commit_p50, "{threads} threads");
            assert_eq!(r1.commit_p99, rn.commit_p99, "{threads} threads");
            assert_eq!(r1.makespan, rn.makespan, "{threads} threads");
            assert_eq!(r1.backlog_peak, rn.backlog_peak, "{threads} threads");
            assert_eq!(r1.shared, rn.shared, "{threads} threads");
            assert_eq!(
                format!("{:?}", r1.outcomes),
                format!("{:?}", rn.outcomes),
                "per-pair outcomes byte-identical at {threads} threads"
            );
            assert_eq!(rn.pool.threads, threads.min(base.pairs as usize));
            assert_eq!(r1.pool.windows, rn.pool.windows, "{threads} threads");
        }
    }

    #[test]
    fn small_fleet_serves_and_verifies() {
        let cfg = FleetConfig {
            pairs: 8,
            crash_per_mille: 400,
            kill_per_mille: 0,
            verify: true,
            ..FleetConfig::default()
        };
        let report = run_fleet(&cfg).expect("fleet runs");
        assert_eq!(report.pairs, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.divergent, 0, "every survivor byte-identical");
        assert!(report.served_requests > 0);
        assert!(report.makespan > SimTime::ZERO);
    }
}
