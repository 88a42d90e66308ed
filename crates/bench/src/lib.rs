//! Measurement harness regenerating every table and figure of the paper's
//! evaluation (§5) — Table 2 and Figures 2-4 — plus the failover,
//! netfault, ablation, density, reintegrate and group tables.
//!
//! Each of these ten artifacts is a [`render`] function returning its
//! text. They print only simulated time and counts, so the text is a pure
//! function of the code, committed byte for byte as
//! `docs/results/<name>.txt` and compared by the root package's
//! `results_golden` test. One bin prints or rewrites them:
//! `cargo run -p ftjvm-bench --release --bin results [<name>...] [--write]`.
//! Two bins report host wall-clock: `interp` (gated by `--check` against
//! `BENCH_interpreter.json`) and `fleet` (whose simulated half
//! `tests/fleet.rs` pins). The `benchmark/` package times the replication
//! layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod figures;

pub use figures::*;

use ftjvm_core::{FtConfig, FtJvm, ReplicationMode, ReplicationStats};
use ftjvm_netsim::{Category, SimTime, TimeAccount};
use ftjvm_vm::ExecCounters;
use ftjvm_workloads::Workload;
use std::sync::OnceLock;

/// The names of the simulated-time renderings, in the order the `results`
/// bin prints them; each is committed as `docs/results/<name>.txt`.
pub const RESULTS: [&str; 10] = [
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "failover",
    "netfault",
    "ablations",
    "density",
    "reintegrate",
    "group",
];

/// Renders the named artifact (one of [`RESULTS`]), or `None` for an
/// unknown name.
pub fn render(name: &str) -> Option<String> {
    let render: fn() -> String = match name {
        "table2" => render_table2,
        "fig2" => render_fig2,
        "fig3" => render_fig3,
        "fig4" => render_fig4,
        "failover" => render_failover,
        "netfault" => render_netfault,
        "ablations" => render_ablations,
        "density" => render_density,
        "reintegrate" => render_reintegrate,
        "group" => render_group,
        _ => return None,
    };
    Some(render())
}

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
    /// Lock-sync frames put on the log channel (fixed codec: one per
    /// record).
    pub lock_messages: u64,
    /// TS primary account.
    pub ts_primary: TimeAccount,
    /// TS backup replay account.
    pub ts_backup: TimeAccount,
    /// TS primary replication stats.
    pub ts_stats: ReplicationStats,
}

impl BenchRow {
    /// The primary's time account under a mode.
    pub fn primary(&self, mode: ReplicationMode) -> &TimeAccount {
        match mode {
            ReplicationMode::LockSync => &self.lock_primary,
            ReplicationMode::ThreadSched => &self.ts_primary,
        }
    }

    /// Normalized primary time for a mode (Figure 2's y-axis).
    pub fn normalized_primary(&self, mode: ReplicationMode) -> f64 {
        self.primary(mode).normalized_to(self.base)
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
    let lock = harness.run_backup_replay().expect("lock-sync pair");
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
        lock_messages: lock.channel.messages_sent,
        ts_primary: ts.primary.acct.clone(),
        ts_backup: ts.backup.as_ref().expect("ts backup replayed").acct.clone(),
        ts_stats: ts.primary_stats,
    }
}

/// The whole SPEC suite, measured on first use and shared by every
/// rendering that reads it, in [`ftjvm_workloads::spec_suite`] order.
pub(crate) fn suite() -> &'static [BenchRow] {
    static SUITE: OnceLock<Vec<BenchRow>> = OnceLock::new();
    SUITE.get_or_init(|| ftjvm_workloads::spec_suite().iter().map(measure).collect())
}

/// One stacked-bar breakdown row (Figures 3 and 4): the time in the
/// original, communication, `bookkeeping`, misc and pessimistic
/// categories, each normalized to the baseline.
pub fn breakdown(acct: &TimeAccount, base: SimTime, bookkeeping: Category) -> [f64; 5] {
    use Category::{Base, Communication, Misc, Pessimistic};
    [Base, Communication, bookkeeping, Misc, Pessimistic].map(|c| {
        if base == SimTime::ZERO {
            0.0
        } else {
            acct.get(c).as_nanos() as f64 / base.as_nanos() as f64
        }
    })
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
        let sum: f64 = parts.iter().sum();
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
