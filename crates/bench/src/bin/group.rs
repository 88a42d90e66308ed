//! Replica-group artifact: what N-replica groups cost and what a
//! failover chain looks like, measured on the deterministic timeline.
//!
//! Run: `cargo run -p ftjvm-bench --release --bin group`
//!
//! Three measurements:
//!
//! * **overhead** — a failure-free 3-replica group (fan-out over two
//!   links, two epoch-acking standbys) versus the classic pair on the
//!   same journal workload, per technique.
//! * **chain** — a 5-replica group under a seeded 20%-loss adversarial
//!   link surviving three successive primary kills; per-failover
//!   detection latency and suffix-replay time.
//! * **voting** — the same group with `vote_quorum = 3` and a byzantine
//!   primary; time from the armed flip to the vote demotion.
//!
//! Prints only simulated time, so the output is committed byte for byte
//! as `docs/results/group.txt`.

use ftjvm_core::ftjvm::{FtConfig, FtJvm, ReplicationMode};
use ftjvm_core::group::GroupConfig;
use ftjvm_netsim::{FailureDetector, FaultPlan, NetFaultPlan, SimTime};
use ftjvm_workloads::micro;

fn group_cfg(mode: ReplicationMode) -> FtConfig {
    FtConfig {
        mode,
        checkpoint_interval: Some(3),
        detector: FailureDetector::new(SimTime::from_millis(1), 2),
        ..FtConfig::default()
    }
}

fn lossy(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        drop: 0.20,
        duplicate: 0.05,
        corrupt: 0.02,
        reorder: 0.10,
        jitter: SimTime::from_micros(300),
        ..NetFaultPlan::default()
    }
}

fn main() {
    let w = micro::file_journal(300);

    println!("Replica groups: overhead, failover chain, vote demotion\n");
    println!("-- failure-free overhead (3-replica group vs pair) --");
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        let pair = FtJvm::new(w.program.clone(), FtConfig { mode, ..FtConfig::default() })
            .run_replicated()
            .expect("pair run");
        let group = FtJvm::new(w.program.clone(), group_cfg(mode))
            .run_group(GroupConfig::default())
            .expect("group run");
        let p = pair.primary.acct.total();
        let g = group.final_report.acct.total();
        println!(
            "  {mode:12} pair {p:>12}   group {g:>12}   {:.2}x",
            g.as_nanos() as f64 / p.as_nanos().max(1) as f64
        );
    }

    println!("\n-- 5-replica chain, three primary kills, 20% loss --");
    let mode = ReplicationMode::LockSync;
    let commits = FtJvm::new(w.program.clone(), FtConfig { mode, ..FtConfig::default() })
        .run_replicated()
        .expect("probe")
        .primary_stats
        .output_commits;
    let kills = vec![
        FaultPlan::BeforeOutput(commits / 5),
        FaultPlan::BeforeOutput(commits / 2),
        FaultPlan::BeforeOutput(commits * 4 / 5),
    ];
    let cfg = FtConfig { net_fault: lossy(0x5EED_0001), ..group_cfg(mode) };
    let report = FtJvm::new(w.program.clone(), cfg)
        .run_group(GroupConfig { size: 5, kills, ..GroupConfig::default() })
        .expect("chain run");
    assert!(report.completed, "chain must complete");
    for f in &report.failovers {
        println!(
            "  reign {} -> m{}: detection {:>12}   suffix replay {:>12}",
            f.reign, f.promoted, f.detection_latency, f.suffix_replay
        );
    }
    println!("  survivor m{}   total {}", report.survivor, report.final_report.acct.total());

    println!("\n-- byzantine primary vs vote_quorum = 3 --");
    let cfg = FtConfig {
        net_fault: NetFaultPlan { byzantine_at: vec![4], ..NetFaultPlan::default() },
        ..group_cfg(mode)
    };
    let report = FtJvm::new(w.program.clone(), cfg)
        .run_group(GroupConfig { vote_quorum: Some(3), ..GroupConfig::default() })
        .expect("byzantine run");
    assert!(report.completed, "byzantine group must still complete");
    let demotion = report.failovers.first().expect("a demotion failover");
    println!(
        "  flips {}   demoted at {}   honest successor m{}   detection {}",
        report.byzantine_flips(),
        demotion.crash_at,
        demotion.promoted,
        demotion.detection_latency
    );
    println!(
        "  exactly-once: {}",
        if report.check_no_duplicate_outputs().is_ok() { "ok" } else { "VIOLATED" }
    );
}
