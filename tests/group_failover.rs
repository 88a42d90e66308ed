//! N-replica group acceptance scenarios: rank-ordered promotion chains
//! under adversarial links, and BFT-lite digest voting demoting a
//! byzantine primary before any corrupted output byte escapes.

use ftjvm::netsim::{FailureDetector, FaultPlan, SimTime, WireCodec};
use ftjvm::workloads::{micro, Workload};
use ftjvm::{AckPolicy, FtConfig, FtJvm, GroupConfig, NetFaultPlan, ReplicationMode};

/// The adversarial link: `drop` loss plus duplication, corruption,
/// reordering, and jitter (same shape as `tests/crashpoints.rs`).
fn mixed_plan(seed: u64, drop: f64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        drop,
        duplicate: 0.05,
        corrupt: 0.02,
        reorder: 0.10,
        jitter: SimTime::from_micros(300),
        ..NetFaultPlan::default()
    }
}

/// Groups whose members may join need checkpointing (state transfer
/// grounds every join) and a detector fast enough for micro-workload
/// timescales.
fn group_cfg(mode: ReplicationMode) -> FtConfig {
    FtConfig {
        mode,
        checkpoint_interval: Some(3),
        detector: FailureDetector::new(SimTime::from_millis(1), 2),
        ..FtConfig::default()
    }
}

/// The failure-free reference console (classic pair, default config).
fn free_console(w: &Workload, mode: ReplicationMode) -> Vec<String> {
    FtJvm::new(w.program.clone(), FtConfig { mode, ..FtConfig::default() })
        .run_replicated()
        .unwrap_or_else(|e| panic!("{} {mode} free: {e}", w.name))
        .console()
}

/// Output commits in the failure-free run — kill thresholds derive from it.
fn free_commits(w: &Workload, mode: ReplicationMode) -> u64 {
    FtJvm::new(w.program.clone(), FtConfig { mode, ..FtConfig::default() })
        .run_replicated()
        .unwrap_or_else(|e| panic!("{} {mode} probe: {e}", w.name))
        .primary_stats
        .output_commits
}

// --- failure-free group ---------------------------------------------------

/// With no faults a 3-replica group is an observable no-op relative to the
/// classic pair: byte-identical console, exactly-once, zero failovers.
#[test]
fn failure_free_group_matches_pair() {
    let w = micro::file_journal(120);
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        let free = free_console(&w, mode);
        let report = FtJvm::new(w.program.clone(), group_cfg(mode))
            .run_group(GroupConfig::default())
            .unwrap_or_else(|e| panic!("{mode} group: {e}"));
        assert!(report.completed, "{mode}: group must complete");
        assert!(!report.crashed, "{mode}: no reign may end in a crash");
        assert_eq!(report.survivor, 0, "{mode}: the original primary finishes");
        assert_eq!(report.console(), free, "{mode}: group console");
        report.check_no_duplicate_outputs().expect("exactly-once");
        assert!(report.failovers.is_empty(), "{mode}: no failovers expected");
        assert_eq!(report.reigns.len(), 1, "{mode}: exactly one reign");
    }
}

// --- the acceptance chain: three successive primary kills -----------------

/// A 5-replica group over a seeded 20%-loss adversarial link survives
/// three successive primary kills — the original primary, then two
/// promoted successors — with byte-identical, exactly-once output.
#[test]
fn five_replica_chain_survives_three_primary_kills_under_loss() {
    // Generously sized: after each promotion the group needs a re-forming
    // window (epoch cut + state transfer) before the next kill lands, and
    // the freshly promoted primary runs tens of outputs uncovered while
    // its survivors re-home.
    let w = micro::file_journal(420);
    for (mode, seed) in
        [(ReplicationMode::LockSync, 0x5EED_0001u64), (ReplicationMode::ThreadSched, 0x5EED_0002)]
    {
        let free = free_console(&w, mode);
        let commits = free_commits(&w, mode);
        assert!(commits >= 100, "{mode}: workload too small for a kill chain");
        // `BeforeOutput` thresholds live in the global output-id sequence
        // that promotion continues, so increasing thresholds fell each
        // reign in turn.
        let kills = vec![
            FaultPlan::BeforeOutput(commits / 5),
            FaultPlan::BeforeOutput(commits / 2),
            FaultPlan::BeforeOutput(commits * 4 / 5),
        ];
        let cfg = FtConfig { net_fault: mixed_plan(seed, 0.20), ..group_cfg(mode) };
        let report = FtJvm::new(w.program.clone(), cfg)
            .run_group(GroupConfig { size: 5, kills, ..GroupConfig::default() })
            .unwrap_or_else(|e| panic!("{mode} chain: {e}"));
        assert!(report.completed, "{mode}: the chain must complete");
        assert_eq!(report.failovers.len(), 3, "{mode}: expected exactly three failovers");
        assert_eq!(report.console(), free, "{mode}: chain console");
        report
            .check_no_duplicate_outputs()
            .unwrap_or_else(|id| panic!("{mode}: duplicate output {id}"));
        // Rank order: member 1 promotes first; its successor is whichever
        // replacement re-homed first, but the final survivor must be a
        // standby, not the long-dead original primary.
        assert_eq!(report.failovers[0].promoted, 1, "{mode}: rank-ordered promotion");
        assert_ne!(report.survivor, 0, "{mode}: the original primary is dead");
        assert_eq!(report.reigns.len(), 4, "{mode}: three failovers mean four reigns");
    }
}

/// The same chain holds under the compact delta/varint codec (promotion
/// restarts encoder contexts per reign; re-homing restores them from
/// snapshots).
#[test]
fn chain_holds_under_compact_codec() {
    let w = micro::file_journal(300);
    let mode = ReplicationMode::LockSync;
    let free = FtJvm::new(
        w.program.clone(),
        FtConfig { mode, codec: WireCodec::Compact, ..FtConfig::default() },
    )
    .run_replicated()
    .unwrap_or_else(|e| panic!("compact free: {e}"))
    .console();
    let commits = free_commits(&w, mode);
    let kills =
        vec![FaultPlan::BeforeOutput(commits / 4), FaultPlan::BeforeOutput(commits * 3 / 4)];
    let cfg = FtConfig {
        codec: WireCodec::Compact,
        net_fault: mixed_plan(0xC0DEC, 0.10),
        ..group_cfg(mode)
    };
    let report = FtJvm::new(w.program.clone(), cfg)
        .run_group(GroupConfig { size: 4, kills, ..GroupConfig::default() })
        .unwrap_or_else(|e| panic!("compact chain: {e}"));
    assert!(report.completed, "compact chain must complete");
    assert_eq!(report.failovers.len(), 2);
    assert_eq!(report.console(), free, "compact chain console");
    report.check_no_duplicate_outputs().expect("exactly-once");
}

// --- standby death inside a group -----------------------------------------

/// Killing a mid-rank standby degrades nothing: the group detects it,
/// re-recruits the slot over state transfer, and still survives a later
/// primary kill.
#[test]
fn standby_death_is_absorbed_then_primary_dies() {
    let w = micro::file_journal(200);
    let mode = ReplicationMode::LockSync;
    let free = free_console(&w, mode);
    let commits = free_commits(&w, mode);
    let report = FtJvm::new(w.program.clone(), group_cfg(mode))
        .run_group(GroupConfig {
            size: 3,
            kills: vec![FaultPlan::BeforeOutput(commits * 3 / 4)],
            kill_standby_after_units: Some((1, 512)),
            ..GroupConfig::default()
        })
        .unwrap_or_else(|e| panic!("standby-kill: {e}"));
    assert!(report.completed, "group must complete");
    assert_eq!(report.failovers.len(), 1, "one failover expected");
    assert_eq!(report.console(), free, "console after standby + primary death");
    report.check_no_duplicate_outputs().expect("exactly-once");
    assert!(
        report.timeline.iter().any(|m| m.what.contains("m2 killed")),
        "timeline must record the standby kill: {:#?}",
        report.timeline
    );
}

// --- BFT-lite: digest voting ----------------------------------------------

/// A byzantine primary — its ND stream bit-flipped post-digest on every
/// link — cannot gather `vote_quorum = 3` matching digests: it demotes
/// itself before releasing any corrupted output byte, the honest
/// lowest-rank standby promotes, and the group finishes byte-identically.
#[test]
fn byzantine_primary_demoted_before_corrupt_output() {
    let w = micro::file_journal(120);
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        let free = free_console(&w, mode);
        let cfg = FtConfig {
            net_fault: NetFaultPlan { byzantine_at: vec![4], ..NetFaultPlan::default() },
            ..group_cfg(mode)
        };
        let report = FtJvm::new(w.program.clone(), cfg)
            .run_group(GroupConfig { vote_quorum: Some(3), ..GroupConfig::default() })
            .unwrap_or_else(|e| panic!("{mode} byzantine: {e}"));
        assert!(report.demoted_by_vote(), "{mode}: the quorum gate must demote the primary");
        assert!(report.byzantine_flips() > 0, "{mode}: the flip must have fired");
        assert_eq!(report.failovers.len(), 1, "{mode}: demotion triggers one failover");
        assert!(report.failovers[0].demoted_by_vote, "{mode}: failover must record the demotion");
        assert_eq!(report.failovers[0].promoted, 1, "{mode}: rank 1 promotes");
        assert!(report.completed, "{mode}: the group must still finish");
        assert_eq!(report.console(), free, "{mode}: no corrupted byte may have escaped");
        report.check_no_duplicate_outputs().expect("exactly-once");
    }
}

/// Equivocation: the primary corrupts only one standby's copy. With
/// `vote_quorum = 2` the honest majority carries the output release; the
/// poisoned standby is the digest outlier — evicted, re-recruited from an
/// honest snapshot, and the group completes without any failover.
#[test]
fn equivocating_link_evicts_the_poisoned_standby() {
    let w = micro::file_journal(120);
    let mode = ReplicationMode::LockSync;
    let free = free_console(&w, mode);
    let cfg = FtConfig {
        net_fault: NetFaultPlan {
            byzantine_at: vec![4],
            byzantine_link: Some(1),
            ..NetFaultPlan::default()
        },
        ..group_cfg(mode)
    };
    let report = FtJvm::new(w.program.clone(), cfg)
        .run_group(GroupConfig {
            size: 3,
            ack_policy: AckPolicy::Majority,
            vote_quorum: Some(2),
            ..GroupConfig::default()
        })
        .unwrap_or_else(|e| panic!("equivocation: {e}"));
    assert!(report.evictions >= 1, "the poisoned standby must be evicted");
    assert!(!report.demoted_by_vote(), "the honest majority must keep the primary");
    assert!(report.failovers.is_empty(), "no promotion expected");
    assert!(report.completed, "the group must complete");
    assert_eq!(report.console(), free, "console unaffected by the equivocation");
    report.check_no_duplicate_outputs().expect("exactly-once");
}

// --- configuration validation ---------------------------------------------

#[test]
fn group_config_validation() {
    let w = micro::file_journal(10);
    let h = FtJvm::new(w.program.clone(), group_cfg(ReplicationMode::LockSync));
    assert!(h.run_group(GroupConfig { size: 1, ..GroupConfig::default() }).is_err());
    assert!(h.run_group(GroupConfig { vote_quorum: Some(1), ..GroupConfig::default() }).is_err());
    assert!(h.run_group(GroupConfig { vote_quorum: Some(9), ..GroupConfig::default() }).is_err());
    // A standby kill must name a rank slot that exists (0..size-1).
    let kill = |size, slot| GroupConfig {
        size,
        kill_standby_after_units: Some((slot, 256)),
        ..GroupConfig::default()
    };
    assert!(h.run_group(kill(3, 2)).is_err(), "slot 2 of a group of 3");
    assert!(h.run_group(kill(2, 1)).is_err(), "slot 1 of a group of 2");
    assert!(h.run_group(kill(3, 1)).is_ok());
    assert!(h.run_group(kill(2, 0)).is_ok(), "a pair is a group of two");
    // No checkpoint interval → state transfer is impossible → refused,
    // unless no join could ever need one: a group of two that never
    // re-integrates is the plain hot pair.
    let no_ckpt = FtJvm::new(
        w.program.clone(),
        FtConfig { mode: ReplicationMode::LockSync, ..FtConfig::default() },
    );
    assert!(no_ckpt.run_group(GroupConfig::default()).is_err());
    assert!(no_ckpt.run_group(GroupConfig { size: 2, ..GroupConfig::default() }).is_err());
    let plain = GroupConfig { size: 2, reintegrate: false, ..GroupConfig::default() };
    assert!(no_ckpt.run_group(GroupConfig { size: 3, ..plain.clone() }).is_err());
    let report = no_ckpt.run_group(plain).expect("size 2 without re-integration");
    assert!(report.completed && report.failovers.is_empty());
}

// --- seed sweep: every chain completes exactly once, or the group is lost --

/// How one chain of the sweep ended.
#[derive(Debug, PartialEq)]
enum ChainEnd {
    /// The reference console, every output exactly once.
    Correct,
    /// No live replica was left at a kill: the chain exceeded the fault
    /// model (a kill landed before any survivor finished re-homing).
    GroupLost,
    /// Anything else — an error, a duplicate output or a wrong console —
    /// breaks exactly-once inside the fault model.
    Wrong(String),
}

/// The seeded configuration of `(seed, mode)`, its reference console and
/// its output-commit count. Seeds derive as the benchmark's `lossy_group`
/// workload derives them, so the seed numbers are the ones it reported.
fn chain_setup(seed: u64, case: u32, mode: ReplicationMode) -> (FtConfig, Vec<String>, u64) {
    use ftjvm::replication::split_seed;
    let w = micro::file_journal(300);
    let mut cfg = FtConfig {
        primary_seed: split_seed(seed, case, 0),
        backup_seed: split_seed(seed, case, 1),
        primary_env_seed: split_seed(seed, case, 2),
        backup_env_seed: split_seed(seed, case, 3),
        ..group_cfg(mode)
    };
    cfg.vm.quantum = 40_000;
    cfg.vm.quantum_jitter = 20_000;
    cfg.vm.entry_arg = 1;
    let free = FtJvm::new(w.program.clone(), cfg.clone()).run_unreplicated().expect("reference");
    let want = free.1.borrow().console_texts();
    let commits = FtJvm::new(w.program, cfg.clone())
        .run_replicated()
        .expect("probe")
        .primary_stats
        .output_commits;
    (cfg, want, commits)
}

/// One 5-replica, 20%-loss, three-kill chain on `file_journal(300)`.
fn chain_end(
    (cfg, want, commits): &(FtConfig, Vec<String>, u64),
    seed: u64,
    case: u32,
    chain: u32,
) -> ChainEnd {
    use ftjvm::replication::split_seed;
    let net_seed = split_seed(split_seed(seed, case, 4), chain, 0);
    let cfg = FtConfig { net_fault: mixed_plan(net_seed, 0.20), ..cfg.clone() };
    let kills = vec![
        FaultPlan::BeforeOutput(commits / 5),
        FaultPlan::BeforeOutput(commits / 2),
        FaultPlan::BeforeOutput(commits * 4 / 5),
    ];
    let gcfg = GroupConfig { size: 5, kills, ..GroupConfig::default() };
    match FtJvm::new(micro::file_journal(300).program, cfg).run_group(gcfg) {
        Err(e) => ChainEnd::Wrong(format!("error: {e}")),
        Ok(r) if !r.completed => ChainEnd::GroupLost,
        Ok(r) if r.check_no_duplicate_outputs().is_err() => {
            ChainEnd::Wrong("duplicate output".into())
        }
        Ok(r) if r.console() != *want => {
            ChainEnd::Wrong(format!("console {:?} != {want:?}", r.console()))
        }
        Ok(_) => ChainEnd::Correct,
    }
}

/// Seeds 1-40, two modes × four chains each (320 chains): every chain
/// ends with the reference console and no duplicate output, or with the
/// group lost. None may end a journal write short — the symptom of a
/// standby promoting on a prefix that split a native's result from its
/// side-effect snapshot — and at most two lose the group (seed 23's
/// lock-sync chain 0 and seed 25's thread-sched chain 1).
#[test]
fn group_chain_seed_sweep() {
    let mut lost = Vec::new();
    let mut wrong = Vec::new();
    for seed in 1..=40u64 {
        for (case, mode) in
            [ReplicationMode::LockSync, ReplicationMode::ThreadSched].into_iter().enumerate()
        {
            let setup = chain_setup(seed, case as u32, mode);
            for chain in 0..4 {
                match chain_end(&setup, seed, case as u32, chain) {
                    ChainEnd::Correct => {}
                    ChainEnd::GroupLost => lost.push(format!("seed {seed} {mode} chain {chain}")),
                    ChainEnd::Wrong(why) => {
                        wrong.push(format!("seed {seed} {mode} chain {chain}: {why}"))
                    }
                }
            }
        }
    }
    assert!(wrong.is_empty(), "chains broke exactly-once:\n{}", wrong.join("\n"));
    assert!(lost.len() <= 2, "{} chains lost the group: {lost:?}", lost.len());
}
