//! Measurement harness regenerating every table and figure of the paper's
//! evaluation (§5): Table 2 (benchmark event profiles), Figure 2
//! (normalized execution times of both techniques, primary and backup),
//! Figure 3 (lock-sync overhead breakdown) and Figure 4 (thread-scheduling
//! overhead breakdown).
//!
//! Each binary in `src/bin/` prints one artifact:
//! `cargo run -p ftjvm-bench --release --bin table2` (likewise `fig2`,
//! `fig3`, `fig4`). Ten of them — those four plus `failover`,
//! `netfault`, `ablations`, `density`, `reintegrate` and `group` — print
//! only simulated time and counts, so their output is a pure function of
//! the code and is committed byte for byte under `docs/results/`. Two
//! report host wall-clock: `interp` (fused vs per-unit `match` dispatch,
//! gated by `--check` against `BENCH_interpreter.json`) and `fleet`
//! (whose simulated half is pinned by `tests/fleet.rs`). Host-time
//! performance of the replication layers is the `benchmark/` package's
//! job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ftjvm_core::{FtConfig, FtJvm, LagBudget, ReplicationMode, ReplicationStats};
use ftjvm_netsim::{Category, FaultPlan, SimTime, TimeAccount};
use ftjvm_vm::ExecCounters;
use ftjvm_workloads::Workload;

/// Everything measured for one benchmark: baseline, both techniques'
/// primaries, and both techniques' backup replays.
#[derive(Debug)]
pub struct BenchRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The original benchmark's execution time on the paper's testbed, in
    /// seconds (Figure 2's caption) — printed alongside our simulated
    /// baseline so the ÷1000 scale is visible.
    pub paper_exec_secs: u32,
    /// Baseline (unreplicated) simulated time.
    pub base: SimTime,
    /// Baseline counters.
    pub counters: ExecCounters,
    /// Lock-sync primary account.
    pub lock_primary: TimeAccount,
    /// Lock-sync backup replay account.
    pub lock_backup: TimeAccount,
    /// Lock-sync primary replication stats.
    pub lock_stats: ReplicationStats,
    /// TS primary account.
    pub ts_primary: TimeAccount,
    /// TS backup replay account.
    pub ts_backup: TimeAccount,
    /// TS primary replication stats.
    pub ts_stats: ReplicationStats,
}

impl BenchRow {
    /// Normalized primary time for a mode (Figure 2's y-axis).
    pub fn normalized_primary(&self, mode: ReplicationMode) -> f64 {
        match mode {
            ReplicationMode::LockSync => self.lock_primary.normalized_to(self.base),
            ReplicationMode::ThreadSched => self.ts_primary.normalized_to(self.base),
        }
    }

    /// Normalized backup replay time for a mode.
    pub fn normalized_backup(&self, mode: ReplicationMode) -> f64 {
        match mode {
            ReplicationMode::LockSync => self.lock_backup.normalized_to(self.base),
            ReplicationMode::ThreadSched => self.ts_backup.normalized_to(self.base),
        }
    }
}

/// The standard benchmark configuration: a fixed seed pair and the default
/// calibrated cost model, like the paper's fixed testbed.
pub fn bench_config(mode: ReplicationMode) -> FtConfig {
    let mut cfg = FtConfig { mode, ..FtConfig::default() };
    // The benchmark timeslice models the green-threads library's timer
    // (~5 ms of simulated CPU), matching the paper's rescheduling density;
    // correctness tests use much smaller quanta to stress interleavings.
    cfg.vm.quantum = 40_000;
    cfg.vm.quantum_jitter = 20_000;
    cfg
}

/// Measures one workload under baseline and both techniques (primary and
/// full backup replay).
///
/// # Panics
/// Panics if any run fails — benchmarks run known-good workloads.
pub fn measure(w: &Workload) -> BenchRow {
    let harness = FtJvm::new(w.program.clone(), bench_config(ReplicationMode::LockSync));
    let (base_report, _) = harness.run_unreplicated().expect("baseline");
    assert!(base_report.uncaught.is_empty(), "{}: {:?}", w.name, base_report.uncaught);
    let lock = FtJvm::new(w.program.clone(), bench_config(ReplicationMode::LockSync))
        .run_backup_replay()
        .expect("lock-sync pair");
    let ts = FtJvm::new(w.program.clone(), bench_config(ReplicationMode::ThreadSched))
        .run_backup_replay()
        .expect("ts pair");
    BenchRow {
        name: w.name,
        paper_exec_secs: w.paper_exec_secs,
        base: base_report.acct.total(),
        counters: base_report.counters,
        lock_primary: lock.primary.acct.clone(),
        lock_backup: lock.backup.as_ref().expect("lock backup replayed").acct.clone(),
        lock_stats: lock.primary_stats,
        ts_primary: ts.primary.acct.clone(),
        ts_backup: ts.backup.as_ref().expect("ts backup replayed").acct.clone(),
        ts_stats: ts.primary_stats,
    }
}

/// Measures the whole SPEC suite.
pub fn measure_suite() -> Vec<BenchRow> {
    ftjvm_workloads::spec_suite().iter().map(measure).collect()
}

/// One failover measurement: latency of a mid-run crash under a cold
/// (store-only) backup versus a hot (streaming) standby.
#[derive(Debug)]
pub struct FailoverSample {
    /// Time from the crash to the detector firing.
    pub detection: SimTime,
    /// Replay left to do at promotion: the full log for cold, the
    /// unconsumed suffix for hot.
    pub replay: SimTime,
    /// End-to-end failover latency (detection + replay).
    pub total: SimTime,
}

/// Cold-vs-hot failover latencies of one workload at one crash point.
#[derive(Debug)]
pub struct FailoverRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Crash point used for both runs.
    pub fault: FaultPlan,
    /// Cold (replay-at-failover) measurement.
    pub cold: FailoverSample,
    /// Hot (streaming standby) measurement.
    pub hot: FailoverSample,
}

/// The per-workload mid-run crash points used by the failover table
/// (roughly the middle of each benchmark's execution).
pub fn failover_fault(name: &str) -> FaultPlan {
    match name {
        "compress" => FaultPlan::AfterInstructions(2_000_000),
        "jess" => FaultPlan::AfterInstructions(300_000),
        "db" => FaultPlan::AfterInstructions(800_000),
        "mpegaudio" => FaultPlan::AfterInstructions(1_000_000),
        "mtrt" => FaultPlan::AfterInstructions(500_000),
        "jack" => FaultPlan::AfterInstructions(400_000),
        _ => FaultPlan::AfterInstructions(100_000),
    }
}

/// Measures one workload's failover latency under both lag budgets.
///
/// # Panics
/// Panics if any run fails — benchmarks run known-good workloads.
pub fn measure_failover(w: &Workload, fault: FaultPlan) -> FailoverRow {
    let sample = |lag_budget| {
        let mut cfg = bench_config(ReplicationMode::LockSync);
        cfg.fault = fault;
        cfg.lag_budget = lag_budget;
        let r = FtJvm::new(w.program.clone(), cfg).run_with_failure().expect("fails over");
        assert!(r.crashed, "{}: fault did not fire", w.name);
        FailoverSample {
            detection: r.detection_latency,
            replay: r.recovery_replay_time,
            total: r.failover_latency,
        }
    };
    FailoverRow { name: w.name, fault, cold: sample(LagBudget::Cold), hot: sample(LagBudget::Hot) }
}

/// Measures the failover table over the whole SPEC suite.
pub fn measure_failover_suite() -> Vec<FailoverRow> {
    ftjvm_workloads::spec_suite()
        .iter()
        .map(|w| measure_failover(w, failover_fault(w.name)))
        .collect()
}

/// Renders one stacked-bar breakdown row (Figures 3 and 4): per-category
/// share normalized to the baseline.
pub fn breakdown(
    acct: &TimeAccount,
    base: SimTime,
    bookkeeping: Category,
) -> [(&'static str, f64); 5] {
    let norm = |t: SimTime| {
        if base == SimTime::ZERO {
            0.0
        } else {
            t.as_nanos() as f64 / base.as_nanos() as f64
        }
    };
    [
        ("original", norm(acct.get(Category::Base))),
        ("communication", norm(acct.get(Category::Communication))),
        (
            match bookkeeping {
                Category::LockAcquire => "lock-acquire",
                _ => "rescheduling",
            },
            norm(acct.get(bookkeeping)),
        ),
        ("misc", norm(acct.get(Category::Misc))),
        ("pessimistic", norm(acct.get(Category::Pessimistic))),
    ]
}

/// Draws a unicode bar of `value` scaled so that 1.0 = `unit_width` cells.
pub fn bar(value: f64, unit_width: usize) -> String {
    let cells = (value * unit_width as f64).round().max(0.0) as usize;
    "█".repeat(cells.min(200))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_micro_has_expected_shape() {
        let w = ftjvm_workloads::micro::sync_counter(2, 40);
        let row = measure(&w);
        assert!(row.base > SimTime::ZERO);
        // Replication always costs something.
        assert!(row.normalized_primary(ReplicationMode::LockSync) > 1.0);
        assert!(row.normalized_primary(ReplicationMode::ThreadSched) > 1.0);
        // Lock-sync logged lock records; TS logged at most a few switches.
        assert!(row.lock_stats.lock_acq_records > 80);
        assert!(row.ts_stats.sched_records < row.lock_stats.lock_acq_records);
    }

    #[test]
    fn breakdown_components_sum_to_normalized_total() {
        let w = ftjvm_workloads::micro::file_journal(5);
        let row = measure(&w);
        let parts = breakdown(&row.lock_primary, row.base, Category::LockAcquire);
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        let total = row.normalized_primary(ReplicationMode::LockSync);
        assert!((sum - total).abs() < 1e-6, "sum {sum} vs total {total}");
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(1.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10), "");
        assert_eq!(bar(2.5, 10).chars().count(), 25);
    }
}
