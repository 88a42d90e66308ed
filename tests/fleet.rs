//! Fleet-scale invariants: exactly-once output on every surviving pair,
//! standalone reproducibility of any pair from `(fleet_seed, pair_id)`,
//! and run-to-run determinism of the whole fleet.

use ftjvm::netsim::SimTime;
use ftjvm::replication::fleet::{
    journal_program, run_fleet, split_seed, FleetConfig, PairPlan, RouterMode,
};
use ftjvm::{FtJvm, NativeRegistry};

/// A small fleet with every fault class armed: independent crashes,
/// independent backup kills, and a correlated rack partition. Every pair
/// with a surviving authority must produce the exact expected console
/// with no duplicated outputs.
#[test]
fn surviving_pairs_are_exactly_once_and_byte_identical() {
    let cfg = FleetConfig {
        pairs: 48,
        racks: 6,
        crash_per_mille: 250,
        kill_per_mille: 150,
        partition_rack: Some(2),
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("fleet runs");
    assert_eq!(report.completed, cfg.pairs, "no pair-level fatal errors");
    assert_eq!(report.divergent, 0, "every survivor verified");
    assert!(report.outcomes.iter().all(|o| !o.survived || o.output_ok));
    // The partition actually did something: rack 2's backups were all
    // scheduled to die.
    let rack2 = report.outcomes.iter().filter(|o| o.rack == 2).count();
    let rack2_killed = report.outcomes.iter().filter(|o| o.rack == 2 && o.planned_kill).count();
    assert_eq!(rack2, rack2_killed, "every rack-2 pair had its backup killed");
    assert!(report.served_requests > 0);
}

/// Any single pair is reproducible from `(fleet_seed, pair_id)` alone:
/// derive its plan, run it standalone (no fleet, no shared trunk), and
/// its outcome matches what the fleet observed for that pair.
#[test]
fn pair_is_reproducible_standalone_from_seed_and_id() {
    // Shared capacity off so a standalone run sees identical timing.
    let cfg = FleetConfig {
        pairs: 24,
        crash_per_mille: 300,
        kill_per_mille: 200,
        shared_per_byte: None,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("fleet runs");
    let natives = NativeRegistry::with_builtins();
    let mut checked_crash = false;
    let mut checked_kill = false;
    for outcome in &report.outcomes {
        let plan = PairPlan::derive(&cfg, outcome.pair_id);
        let program = journal_program(plan.requests as i64).expect("program builds");
        let jvm = FtJvm::with_natives(program, natives.clone(), plan.ft_config(&cfg));
        let standalone = jvm.run_checkpointed(plan.checkpoint_plan(&cfg)).expect("standalone run");
        assert_eq!(standalone.pair.crashed, outcome.crashed, "pair {}", outcome.pair_id);
        assert_eq!(
            standalone.degraded_entered_at.is_some(),
            outcome.degraded,
            "pair {}",
            outcome.pair_id
        );
        assert_eq!(standalone.reintegrated, outcome.reintegrated, "pair {}", outcome.pair_id);
        if outcome.survived {
            assert_eq!(
                standalone.pair.console(),
                plan.expected_console(),
                "pair {}",
                outcome.pair_id
            );
        }
        checked_crash |= outcome.crashed;
        checked_kill |= outcome.planned_kill;
    }
    assert!(checked_crash, "at least one pair crashed (else the test is vacuous)");
    assert!(checked_kill, "at least one backup was killed");
}

/// The same configuration produces the same report, nanosecond for
/// nanosecond — including trunk contention and router latencies.
#[test]
fn fleet_rerun_is_deterministic() {
    let cfg = FleetConfig {
        pairs: 16,
        crash_per_mille: 200,
        kill_per_mille: 150,
        router: RouterMode::Closed { think: SimTime::from_micros(250) },
        ..FleetConfig::default()
    };
    let a = run_fleet(&cfg).expect("first run");
    let b = run_fleet(&cfg).expect("second run");
    assert_eq!(a.commit_p50, b.commit_p50);
    assert_eq!(a.commit_p99, b.commit_p99);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.served_requests, b.served_requests);
    assert_eq!(a.backlog_peak, b.backlog_peak);
    assert_eq!(a.shared.map(|s| s.queue_total), b.shared.map(|s| s.queue_total));
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.crashed, y.crashed);
        assert_eq!(x.served, y.served);
        assert_eq!(x.failover_latency, y.failover_latency);
    }
}

/// Seed splitting: different fleet seeds reshuffle the fault plan; the
/// same seed pins it.
#[test]
fn fleet_seed_controls_fault_plan() {
    let base = FleetConfig { pairs: 32, ..FleetConfig::default() };
    let other = FleetConfig { seed: 0xDEAD_BEEF, ..base.clone() };
    let plans_a: Vec<PairPlan> = (0..32).map(|i| PairPlan::derive(&base, i)).collect();
    let plans_b: Vec<PairPlan> = (0..32).map(|i| PairPlan::derive(&other, i)).collect();
    assert!(
        plans_a.iter().zip(&plans_b).any(|(a, b)| a.requests != b.requests || a.fault != b.fault),
        "a different fleet seed must change at least one pair's plan"
    );
    assert_ne!(split_seed(1, 0, 0), split_seed(2, 0, 0));
}

/// CRC32C over everything simulated a fleet run reports: the five trunk
/// statistics, the commit percentiles, the makespan, the backlog peak,
/// the served count, and every per-pair outcome (failure timelines
/// included).
fn fleet_fingerprint(cfg: &FleetConfig) -> u32 {
    let r = run_fleet(cfg).expect("fleet runs");
    assert!(r.all_verified(), "fleet verifies");
    let trunk = r.shared.map(|s| (s.frames, s.bytes, s.queue_total, s.queue_peak, s.busy));
    let text = format!(
        "{trunk:?} {:?} {:?} {:?} {:?} {} {} {:?}",
        r.commit_p50,
        r.commit_p99,
        r.commit_max,
        r.makespan,
        r.backlog_peak,
        r.served_requests,
        r.outcomes
    );
    ftjvm::replication::crc32c(text.as_bytes())
}

/// The fleet's simulated numbers against constants, not only against a
/// rerun: the 64-pair default (trunk about 28% busy), the 512-pair
/// rack-partition scenario the benchmark runs (81% busy), and the
/// 64-pair rack-partition scenario of the `fleet` bin, each at one, two
/// and four worker threads. The first two were captured from the
/// `BTreeMap` trunk calendar immediately before it was replaced; any
/// change to where a frame is placed on the trunk moves a queue wait and
/// with it a pair's timeline.
#[test]
fn fleet_fingerprints_are_pinned() {
    let cases = [
        ("default-64", FleetConfig::default(), 0xc502_068e_u32),
        (
            "full-512",
            FleetConfig { pairs: 512, partition_rack: Some(5), ..FleetConfig::default() },
            0x54e0_7135,
        ),
        (
            "smoke-64-rack5",
            FleetConfig { pairs: 64, partition_rack: Some(5), ..FleetConfig::default() },
            0x2398_2fad,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, cfg, want) in cases {
        for threads in [1, 2, 4] {
            let got = fleet_fingerprint(&FleetConfig { threads, ..cfg.clone() });
            if got != want {
                wrong
                    .push(format!("{name} at {threads} threads: {got:#010x}, pinned {want:#010x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "fleet fingerprints moved:\n{}", wrong.join("\n"));
}
