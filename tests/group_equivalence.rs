//! Equivalence suite for the replication driver: every scenario of
//! `tests/group_failover.rs`, plus a clean-link 3-replica failover in both
//! modes × both codecs, pinned to a fingerprint of everything a driver
//! decision could perturb — console CRC and line count, failover count and
//! promoted members, evictions, per-reign record/byte/flush counts, and
//! the measured detection and suffix-replay latencies in nanoseconds.
//!
//! The table was captured from the standalone group driver immediately
//! before it became the only hot driver (pairs included); a change in
//! operation *order* — an extra slice, a reordered drain, a different
//! promotion instant — shows up in at least one field. A property test
//! then checks the other direction of "a pair is a group of two": for
//! random `CheckpointPlan`s, `run_checkpointed(plan)` and `run_group`
//! at size 2 with the same kills report the same run.

use ftjvm::netsim::{FailureDetector, FaultPlan, SimTime, WireCodec};
use ftjvm::workloads::micro;
use ftjvm::{AckPolicy, FtConfig, FtJvm, GroupConfig, GroupReport, NetFaultPlan, ReplicationMode};

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

fn group_cfg(mode: ReplicationMode, codec: WireCodec) -> FtConfig {
    FtConfig {
        mode,
        codec,
        checkpoint_interval: Some(3),
        detector: FailureDetector::new(SimTime::from_millis(1), 2),
        ..FtConfig::default()
    }
}

/// One run's observable fingerprint, as one line.
fn fingerprint(r: &GroupReport) -> String {
    let console = r.console().join("\n");
    let promoted: Vec<u32> = r.failovers.iter().map(|f| f.promoted).collect();
    let reigns: Vec<String> = r
        .reigns
        .iter()
        .map(|g| {
            format!(
                "m{}:{}/{}/{}",
                g.member,
                g.stats.messages_logged(),
                g.stats.bytes_logged,
                g.stats.flushes
            )
        })
        .collect();
    let det: Vec<u64> = r.failovers.iter().map(|f| f.detection_latency.as_nanos()).collect();
    let suffix: Vec<u64> = r.failovers.iter().map(|f| f.suffix_replay.as_nanos()).collect();
    format!(
        "crc={:#x} lines={} completed={} survivor={} failovers={} promoted={:?} evictions={} \
         reigns=[{}] det={:?} suffix={:?}",
        ftjvm::replication::crc32c(console.as_bytes()),
        r.console().len(),
        r.completed,
        r.survivor,
        r.failovers.len(),
        promoted,
        r.evictions,
        reigns.join(","),
        det,
        suffix
    )
}

fn run(key: &str, n: i64, cfg: FtConfig, gcfg: GroupConfig) -> (String, String) {
    let w = micro::file_journal(n);
    let report =
        FtJvm::new(w.program, cfg).run_group(gcfg).unwrap_or_else(|e| panic!("{key}: {e}"));
    report.check_no_duplicate_outputs().unwrap_or_else(|id| panic!("{key}: dup output {id}"));
    (key.to_string(), fingerprint(&report))
}

const MODES: [ReplicationMode; 2] = [ReplicationMode::LockSync, ReplicationMode::ThreadSched];

/// Output commits in the failure-free run of `file_journal(n)` — kill
/// thresholds derive from it, as in `group_failover.rs`.
fn commits(n: i64) -> u64 {
    FtJvm::new(micro::file_journal(n).program, FtConfig::default())
        .run_replicated()
        .expect("probe run")
        .primary_stats
        .output_commits
}

fn matrix() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for mode in MODES {
        out.push(run(
            &format!("free/{mode}"),
            120,
            group_cfg(mode, WireCodec::Fixed),
            GroupConfig::default(),
        ));
    }
    for (mode, seed) in MODES.into_iter().zip([0x5EED_0001u64, 0x5EED_0002]) {
        let c = commits(420);
        out.push(run(
            &format!("chain5/{mode}"),
            420,
            FtConfig { net_fault: mixed_plan(seed, 0.20), ..group_cfg(mode, WireCodec::Fixed) },
            GroupConfig {
                size: 5,
                kills: vec![
                    FaultPlan::BeforeOutput(c / 5),
                    FaultPlan::BeforeOutput(c / 2),
                    FaultPlan::BeforeOutput(c * 4 / 5),
                ],
                ..GroupConfig::default()
            },
        ));
    }
    let c = commits(300);
    out.push(run(
        "chain4/compact",
        300,
        FtConfig {
            net_fault: mixed_plan(0xC0DEC, 0.10),
            ..group_cfg(ReplicationMode::LockSync, WireCodec::Compact)
        },
        GroupConfig {
            size: 4,
            kills: vec![FaultPlan::BeforeOutput(c / 4), FaultPlan::BeforeOutput(c * 3 / 4)],
            ..GroupConfig::default()
        },
    ));
    out.push(run(
        "standby-kill",
        200,
        group_cfg(ReplicationMode::LockSync, WireCodec::Fixed),
        GroupConfig {
            size: 3,
            kills: vec![FaultPlan::BeforeOutput(commits(200) * 3 / 4)],
            kill_standby_after_units: Some((1, 512)),
            ..GroupConfig::default()
        },
    ));
    for mode in MODES {
        out.push(run(
            &format!("byzantine/{mode}"),
            120,
            FtConfig {
                net_fault: NetFaultPlan { byzantine_at: vec![4], ..NetFaultPlan::default() },
                ..group_cfg(mode, WireCodec::Fixed)
            },
            GroupConfig { vote_quorum: Some(3), ..GroupConfig::default() },
        ));
    }
    out.push(run(
        "equivocation",
        120,
        FtConfig {
            net_fault: NetFaultPlan {
                byzantine_at: vec![4],
                byzantine_link: Some(1),
                ..NetFaultPlan::default()
            },
            ..group_cfg(ReplicationMode::LockSync, WireCodec::Fixed)
        },
        GroupConfig {
            size: 3,
            ack_policy: AckPolicy::Majority,
            vote_quorum: Some(2),
            ..GroupConfig::default()
        },
    ));
    for mode in MODES {
        for codec in [WireCodec::Fixed, WireCodec::Compact] {
            out.push(run(
                &format!("clean3/{mode}/{codec:?}"),
                200,
                group_cfg(mode, codec),
                GroupConfig {
                    size: 3,
                    kills: vec![FaultPlan::BeforeOutput(commits(200) / 2)],
                    ..GroupConfig::default()
                },
            ));
        }
    }
    out
}

/// `cargo test --release --test group_equivalence -- --ignored --nocapture`
/// regenerates the pinned table (after an *intentional* behavior change).
#[test]
#[ignore = "fingerprint generator, not a check"]
fn generate_fingerprints() {
    for (key, fp) in matrix() {
        println!("    (\"{key}\", \"{fp}\"),");
    }
}

#[test]
fn group_scenarios_pinned() {
    let got = matrix();
    assert_eq!(got.len(), PINNED.len(), "matrix size");
    for ((key, fp), (pkey, pfp)) in got.iter().zip(PINNED) {
        assert_eq!(key, pkey, "case order");
        assert_eq!(fp, pfp, "{key}: diverged from the pinned driver behaviour");
    }
}

#[rustfmt::skip]
const PINNED: &[(&str, &str)] = &[
    ("free/lock-sync", "crc=0x68dacca lines=1 completed=true survivor=0 failovers=0 promoted=[] evictions=0 reigns=[m0:367/13932/125] det=[] suffix=[]"),
    ("free/thread-sched", "crc=0x68dacca lines=1 completed=true survivor=0 failovers=0 promoted=[] evictions=0 reigns=[m0:367/13932/125] det=[] suffix=[]"),
    ("chain5/lock-sync", "crc=0x944f55eb lines=1 completed=true survivor=3 failovers=3 promoted=[1, 2, 3] evictions=0 reigns=[m0:255/9690/87,m1:301/11425/104,m2:301/11425/104,m3:179/6775/62] det=[0, 0, 0] suffix=[0, 0, 0]"),
    ("chain5/thread-sched", "crc=0x944f55eb lines=1 completed=true survivor=3 failovers=3 promoted=[1, 2, 3] evictions=0 reigns=[m0:255/9690/87,m1:325/12337/112,m2:319/12109/110,m3:191/7231/66] det=[1139362, 139781, 49873] suffix=[318680, 310962, 303504]"),
    ("chain4/compact", "crc=0xa3205023 lines=1 completed=true survivor=2 failovers=2 promoted=[1, 2] evictions=0 reigns=[m0:228/4580/77,m1:373/7465/129,m2:152/3053/52] det=[1926000, 410090] suffix=[0, 0]"),
    ("standby-kill", "crc=0x105b2e99 lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:453/17214/155,m1:77/2899/26] det=[1286030] suffix=[0]"),
    ("byzantine/lock-sync", "crc=0x68dacca lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:6/228/2,m1:287/10879/99] det=[1573720] suffix=[0]"),
    ("byzantine/thread-sched", "crc=0x68dacca lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:6/228/2,m1:290/10993/99] det=[1572659] suffix=[5175]"),
    ("equivocation", "crc=0x68dacca lines=1 completed=true survivor=0 failovers=0 promoted=[] evictions=1 reigns=[m0:367/13932/125] det=[] suffix=[]"),
    ("clean3/lock-sync/Fixed", "crc=0x105b2e99 lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:303/11514/103,m1:227/8599/78] det=[1539750] suffix=[0]"),
    ("clean3/lock-sync/Compact", "crc=0x105b2e99 lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:303/6082/103,m1:227/4555/78] det=[1878340] suffix=[0]"),
    ("clean3/thread-sched/Fixed", "crc=0x105b2e99 lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:303/11514/103,m1:299/11335/102] det=[1538692] suffix=[378344]"),
    ("clean3/thread-sched/Compact", "crc=0x105b2e99 lines=1 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:303/6082/103,m1:299/5995/102] det=[1877811] suffix=[378344]"),
];

// --- a pair is a group of two ---------------------------------------------
//
// `run_checkpointed(plan)` builds a size-2 group and projects its report;
// whatever plan is drawn, the projection must say what `run_group` with
// the same kills says.
mod prop {
    use super::*;
    use ftjvm::{CheckpointPlan, LagBudget};
    use proptest::prelude::*;

    fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
        prop_oneof![
            Just(FaultPlan::None),
            (200u64..2_500).prop_map(FaultPlan::AfterInstructions),
            (0u64..200).prop_map(FaultPlan::BeforeOutput),
            (0u64..200).prop_map(FaultPlan::AfterOutput),
            (0u64..120).prop_map(FaultPlan::AfterFlush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]
        #[test]
        fn pair_is_group_of_two(
            fault in fault_strategy(),
            kill in prop_oneof![Just(None), (1u64..2_000).prop_map(Some)],
            reintegrate in any::<bool>(),
            ts in any::<bool>(),
            compact in any::<bool>(),
            lossy in any::<bool>(),
        ) {
            let mode = if ts { ReplicationMode::ThreadSched } else { ReplicationMode::LockSync };
            let codec = if compact { WireCodec::Compact } else { WireCodec::Fixed };
            let cfg = FtConfig {
                lag_budget: LagBudget::Hot,
                net_fault: if lossy { mixed_plan(0xD0, 0.15) } else { NetFaultPlan::default() },
                ..group_cfg(mode, codec)
            };
            let jvm = FtJvm::new(micro::file_journal(180).program, cfg);
            let tag = format!("{mode} {codec:?} {fault:?} kill {kill:?} re {reintegrate} lossy {lossy}");
            let pair = jvm
                .run_checkpointed(CheckpointPlan {
                    fault,
                    kill_backup_after_units: kill,
                    reintegrate,
                })
                .unwrap_or_else(|e| panic!("pair {tag}: {e}"));
            let group = jvm
                .run_group(GroupConfig {
                    size: 2,
                    kills: vec![fault],
                    kill_standby_after_units: kill.map(|units| (0, units)),
                    reintegrate,
                    ..GroupConfig::default()
                })
                .unwrap_or_else(|e| panic!("group {tag}: {e}"));

            prop_assert_eq!(pair.pair.console(), group.console(), "console: {}", &tag);
            prop_assert_eq!(
                pair.pair.check_no_duplicate_outputs(),
                group.check_no_duplicate_outputs(),
                "exactly-once: {}", &tag
            );
            prop_assert_eq!(pair.pair.crashed, group.crashed, "crashed: {}", &tag);
            // A group of two promotes at most once: the survivor held the
            // only seat, so the chain ends with it.
            prop_assert!(group.failovers.len() <= 1, "failovers: {}", &tag);
            let (det, suffix) = group
                .failovers
                .first()
                .map_or((SimTime::ZERO, SimTime::ZERO), |f| (f.detection_latency, f.suffix_replay));
            prop_assert_eq!(pair.pair.detection_latency, det, "detection: {}", &tag);
            prop_assert_eq!(pair.pair.recovery_replay_time, suffix, "suffix: {}", &tag);
            prop_assert_eq!(pair.pair.failover_latency, det + suffix, "failover: {}", &tag);
            prop_assert_eq!(pair.backup_killed_at, group.standby_killed_at, "kill: {}", &tag);
            prop_assert_eq!(pair.degraded_entered_at, group.degraded_at, "degraded: {}", &tag);
            prop_assert_eq!(
                pair.reintegrated_at, group.reintegrated.first().copied(),
                "reintegrated: {}", &tag
            );
            prop_assert_eq!(pair.pair.backup.is_some(), group.standby.is_some(), "standby: {}", &tag);
        }
    }
}
