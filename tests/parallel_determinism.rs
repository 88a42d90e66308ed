//! Determinism of the parallel execution path: a fleet — of pairs or of
//! larger groups — scheduled across N worker threads must produce
//! **byte-identical** results for every thread count — parallelism may
//! only change host wall-clock time, never a simulated timestamp,
//! counter, or output.

use ftjvm::netsim::SimTime;
use ftjvm::replication::fleet::{run_fleet, FleetConfig, FleetReport, RouterMode};
use proptest::prelude::*;

/// Everything observable about a fleet run except the pool stats (which
/// legitimately describe the thread layout): scalar counters, latency
/// percentiles, trunk stats, and the full per-pair outcome list.
fn digest(r: &FleetReport) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {:?}",
        r.pairs,
        r.completed,
        r.divergent,
        r.lost,
        r.failovers_absorbed,
        r.backups_killed,
        r.degraded_entries,
        r.reintegrated,
        r.served_requests,
        r.total_requests,
        r.backlog_peak,
        r.commit_p50,
        r.commit_p99,
        r.commit_max,
        r.makespan,
        r.peak_suffix_frames,
        r.shared,
        r.outcomes,
    )
}

fn run_digest(base: &FleetConfig, threads: usize) -> String {
    let cfg = FleetConfig { threads, ..base.clone() };
    let report = run_fleet(&cfg).expect("fleet runs");
    assert_eq!(report.pool.threads, threads.max(1).min(base.pairs as usize));
    digest(&report)
}

/// A pair fleet with every fault class armed, scheduled at 1, 2, 4, and
/// 8 threads: the reports must match to the last byte.
#[test]
fn fleet_reports_are_byte_identical_across_thread_counts() {
    let base = FleetConfig {
        pairs: 24,
        racks: 6,
        crash_per_mille: 300,
        kill_per_mille: 200,
        partition_rack: Some(1),
        ..FleetConfig::default()
    };
    let reference = run_digest(&base, 1);
    for threads in [2, 4, 8] {
        assert_eq!(run_digest(&base, threads), reference, "threads={threads}");
    }
}

/// Group slots (k-replica reigns with rank-ordered promotion) carry
/// per-moment timelines; those, too, must be thread-count-invariant.
#[test]
fn group_fleet_timelines_are_thread_count_invariant() {
    let base = FleetConfig {
        pairs: 6,
        racks: 3,
        crash_per_mille: 500,
        kill_per_mille: 0,
        group_size: Some(3),
        ..FleetConfig::default()
    };
    let reference = run_digest(&base, 1);
    for threads in [2, 4] {
        assert_eq!(run_digest(&base, threads), reference, "threads={threads}");
    }
}

/// An uncontended fleet (every pair on its own link) exercises the
/// no-trunk scheduling path.
#[test]
fn fleet_without_shared_trunk_is_thread_count_invariant() {
    let base = FleetConfig {
        pairs: 10,
        racks: 5,
        crash_per_mille: 250,
        kill_per_mille: 150,
        shared_per_byte: None,
        router: RouterMode::Closed { think: SimTime::from_micros(80) },
        ..FleetConfig::default()
    };
    let reference = run_digest(&base, 1);
    for threads in [3, 8] {
        assert_eq!(run_digest(&base, threads), reference, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random seed × fault mix × thread count: any fleet digest equals
    /// its single-threaded reference.
    #[test]
    fn random_fleets_are_thread_count_invariant(
        seed in any::<u64>(),
        crash_pm in 0u32..600,
        kill_pm in 0u32..400,
        threads in 2usize..9,
    ) {
        let base = FleetConfig {
            pairs: 6,
            racks: 3,
            seed,
            crash_per_mille: crash_pm,
            kill_per_mille: kill_pm,
            ..FleetConfig::default()
        };
        prop_assert_eq!(run_digest(&base, threads), run_digest(&base, 1));
    }
}
