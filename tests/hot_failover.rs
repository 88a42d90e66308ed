//! Hot-standby co-simulation: every SPEC JVM98 analog survives a mid-run
//! primary crash with a *streaming* backup — promoted mid-run, replaying
//! only the unconsumed log suffix — with output equal to its own
//! failure-free run, under both replication techniques and both codecs.

use ftjvm::netsim::{FaultPlan, WireCodec};
use ftjvm::workloads;
use ftjvm::{FtConfig, FtJvm, LagBudget, LockVariant, ReplicationMode};

fn hot_failover_matches_free_with(
    w: &workloads::Workload,
    mode: ReplicationMode,
    codec: WireCodec,
    fault: FaultPlan,
) {
    let mk = |lag_budget, fault| FtConfig { mode, codec, lag_budget, fault, ..FtConfig::default() };
    // Reference: the cold failure-free run (the regression oracle).
    let free = FtJvm::new(w.program.clone(), mk(LagBudget::Cold, FaultPlan::None))
        .run_replicated()
        .unwrap_or_else(|e| panic!("{} {mode} {codec} free: {e}", w.name));
    let failed = FtJvm::new(w.program.clone(), mk(LagBudget::Hot, fault))
        .run_with_failure()
        .unwrap_or_else(|e| panic!("{} {mode} {codec} hot {fault:?}: {e}", w.name));
    assert!(failed.crashed, "{} {mode} {codec} hot {fault:?} should crash", w.name);
    assert_eq!(failed.console(), free.console(), "{} {mode} {codec} hot {fault:?}", w.name);
    failed
        .check_no_duplicate_outputs()
        .unwrap_or_else(|id| panic!("{} {mode} {codec} hot: duplicate output {id}", w.name));
}

fn hot_failover_matches_free(w: &workloads::Workload, mode: ReplicationMode, fault: FaultPlan) {
    hot_failover_matches_free_with(w, mode, WireCodec::Fixed, fault);
}

/// Same crash points as the cold sweep in `spec_failover.rs`, with a hot
/// standby instead.
macro_rules! hot_case {
    ($name:ident, $builder:path, $fault:expr) => {
        #[test]
        fn $name() {
            let w = $builder();
            for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
                hot_failover_matches_free(&w, mode, $fault);
            }
        }
    };
}

hot_case!(
    compress_hot_failover_early,
    workloads::compress::workload,
    FaultPlan::AfterInstructions(10_000)
);
hot_case!(
    compress_hot_failover_late,
    workloads::compress::workload,
    FaultPlan::AfterInstructions(2_000_000)
);
hot_case!(jess_hot_failover, workloads::jess::workload, FaultPlan::AfterInstructions(300_000));
hot_case!(jack_hot_failover, workloads::jack::workload, FaultPlan::AfterInstructions(400_000));
hot_case!(db_hot_failover, workloads::db::workload, FaultPlan::AfterInstructions(800_000));
hot_case!(
    mpegaudio_hot_failover,
    workloads::mpegaudio::workload,
    FaultPlan::AfterInstructions(1_000_000)
);
hot_case!(jess_hot_uncertain_output, workloads::jess::workload, FaultPlan::BeforeOutput(2));
hot_case!(jack_hot_after_output, workloads::jack::workload, FaultPlan::AfterOutput(0));
hot_case!(db_hot_uncertain_output, workloads::db::workload, FaultPlan::BeforeOutput(1));

#[test]
fn mtrt_hot_failover_both_modes() {
    // As in the cold sweep: mtrt's checksum is interleaving-dependent, so
    // the reference must come from a complete-log crash (BeforeOutput(0)
    // commits — and therefore flushes — the whole execution).
    let w = workloads::mtrt::workload();
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        hot_failover_matches_free(&w, mode, FaultPlan::BeforeOutput(0));
    }
}

#[test]
fn compact_codec_hot_failover() {
    // The batched delta/varint codec streams through the hot standby's
    // incremental decoder (one decoder per connection; delta context spans
    // frames), so the sweep must hold under it too.
    for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
        let db = workloads::db::workload();
        hot_failover_matches_free_with(
            &db,
            mode,
            WireCodec::Compact,
            FaultPlan::AfterInstructions(800_000),
        );
        hot_failover_matches_free_with(&db, mode, WireCodec::Compact, FaultPlan::BeforeOutput(1));
        let jess = workloads::jess::workload();
        hot_failover_matches_free_with(
            &jess,
            mode,
            WireCodec::Compact,
            FaultPlan::AfterInstructions(300_000),
        );
        let mtrt = workloads::mtrt::workload();
        hot_failover_matches_free_with(&mtrt, mode, WireCodec::Compact, FaultPlan::BeforeOutput(0));
    }
}

#[test]
fn hot_failure_free_matches_cold() {
    // Without a crash the hot standby replays the whole stream quietly
    // (every output suppressed: the primary performed them all); the
    // observable world must be identical to the cold run's.
    for (w, fault) in [
        (workloads::jess::workload(), FaultPlan::None),
        (workloads::db::workload(), FaultPlan::None),
    ] {
        let mk = |lag_budget| FtConfig {
            mode: ReplicationMode::LockSync,
            lag_budget,
            fault,
            ..FtConfig::default()
        };
        let cold =
            FtJvm::new(w.program.clone(), mk(LagBudget::Cold)).run_replicated().expect("cold");
        let hot = FtJvm::new(w.program.clone(), mk(LagBudget::Hot)).run_replicated().expect("hot");
        assert!(!hot.crashed, "{}", w.name);
        assert_eq!(hot.console(), cold.console(), "{}", w.name);
        assert!(hot.backup.is_some(), "{}: hot standby ran to completion", w.name);
        hot.check_no_duplicate_outputs()
            .unwrap_or_else(|id| panic!("{}: duplicate output {id}", w.name));
    }
}

#[test]
fn hot_failover_latency_beats_cold() {
    // The point of the hot standby: at promotion only the unconsumed log
    // suffix remains, so measured failover latency must be strictly less
    // than the cold backup's full-log replay on log-heavy workloads — and
    // under interval-compressed lock records, where the cold log is short
    // but its replay still re-executes the whole prefix.
    for (w, lock_variant, fault) in [
        (
            workloads::db::workload(),
            LockVariant::PerAcquisition,
            FaultPlan::AfterInstructions(800_000),
        ),
        (
            workloads::jack::workload(),
            LockVariant::PerAcquisition,
            FaultPlan::AfterInstructions(400_000),
        ),
        (
            workloads::jack::workload(),
            LockVariant::Intervals,
            FaultPlan::AfterInstructions(400_000),
        ),
    ] {
        let mk = |lag_budget| FtConfig {
            mode: ReplicationMode::LockSync,
            lock_variant,
            lag_budget,
            fault,
            ..FtConfig::default()
        };
        let cold =
            FtJvm::new(w.program.clone(), mk(LagBudget::Cold)).run_with_failure().expect("cold");
        let hot =
            FtJvm::new(w.program.clone(), mk(LagBudget::Hot)).run_with_failure().expect("hot");
        assert_eq!(hot.console(), cold.console(), "{} {lock_variant}", w.name);
        assert!(
            hot.failover_latency < cold.failover_latency,
            "{} {lock_variant}: hot failover {:?} not below cold {:?}",
            w.name,
            hot.failover_latency,
            cold.failover_latency
        );
        assert!(
            hot.recovery_replay_time < cold.recovery_replay_time,
            "{} {lock_variant}: hot suffix replay {:?} not below cold full replay {:?}",
            w.name,
            hot.recovery_replay_time,
            cold.recovery_replay_time
        );
    }
}
