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
//!
//! A second table pins each reign's epoch cuts: how many, at which flush
//! counts, the bytes the last snapshot was charged, the retained-suffix
//! peaks, and the primary's per-category time account (which sums every
//! cut's serialization charge). The first table cannot see a cut charged
//! by the wrong length; this one can.
//!
//! A third table pins the lossy runs' transport: every reign's per-link
//! send, drop, retransmit, NACK, duplicate, corruption, reorder and
//! ack-wait counters and its clock.

use ftjvm::netsim::{Category, FailureDetector, FaultPlan, SimTime, WireCodec};
use ftjvm::workloads::micro;
use ftjvm::{
    AckPolicy, FtConfig, FtJvm, GroupConfig, GroupReport, LockVariant, NetFaultPlan,
    ReplicationMode,
};

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

/// Each reign's epoch cuts and primary time account, as one line.
fn epoch_fingerprint(r: &GroupReport) -> String {
    let reigns: Vec<String> = r
        .reigns
        .iter()
        .map(|g| {
            let s = &g.stats;
            let acct: Vec<u64> =
                Category::ALL.iter().map(|&c| g.report.acct.get(c).as_nanos()).collect();
            format!(
                "m{}:cuts={} at={:?} snap={} suffix={}/{} acct={:?}",
                g.member,
                s.epochs_cut,
                s.epoch_cut_flushes,
                s.snapshot_bytes,
                s.peak_suffix_frames,
                s.peak_suffix_bytes,
                acct
            )
        })
        .collect();
    reigns.join(" ")
}

fn run(key: &str, n: i64, cfg: FtConfig, gcfg: GroupConfig) -> (String, GroupReport) {
    let w = micro::file_journal(n);
    let report =
        FtJvm::new(w.program, cfg).run_group(gcfg).unwrap_or_else(|e| panic!("{key}: {e}"));
    report.check_no_duplicate_outputs().unwrap_or_else(|id| panic!("{key}: dup output {id}"));
    (key.to_string(), report)
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
    reports().iter().map(|(key, r)| (key.clone(), fingerprint(r))).collect()
}

fn reports() -> Vec<(String, GroupReport)> {
    let mut out = Vec::new();
    for mode in MODES {
        out.push(run(
            &format!("free/{mode}"),
            120,
            group_cfg(mode, WireCodec::Fixed),
            GroupConfig::default(),
        ));
    }
    out.extend(chain5_reports());
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
    out.extend(byzantine_reports());
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

/// The 5-replica kill chain over a 20%-loss link, both modes.
fn chain5_reports() -> Vec<(String, GroupReport)> {
    let c = commits(420);
    MODES
        .into_iter()
        .zip([0x5EED_0001u64, 0x5EED_0002])
        .map(|(mode, seed)| {
            run(
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
            )
        })
        .collect()
}

/// A byzantine primary demoted by the digest vote, both modes.
fn byzantine_reports() -> Vec<(String, GroupReport)> {
    MODES
        .into_iter()
        .map(|mode| {
            run(
                &format!("byzantine/{mode}"),
                120,
                FtConfig {
                    net_fault: NetFaultPlan { byzantine_at: vec![4], ..NetFaultPlan::default() },
                    ..group_cfg(mode, WireCodec::Fixed)
                },
                GroupConfig { vote_quorum: Some(3), ..GroupConfig::default() },
            )
        })
        .collect()
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

/// The 13 scenarios plus the first `FleetConfig::default()` slot whose
/// killed standby is re-integrated (a force-cut epoch shipped inside a
/// pair), run standalone at size 2 without the trunk.
fn epoch_matrix() -> Vec<(String, String)> {
    use ftjvm::replication::fleet::{journal_program, FleetConfig, PairPlan};
    let mut out: Vec<(String, String)> =
        reports().iter().map(|(key, r)| (key.clone(), epoch_fingerprint(r))).collect();
    let cfg = FleetConfig::default();
    let (id, report) = (0..cfg.pairs)
        .map(|id| PairPlan::derive(&cfg, id))
        .filter(|p| p.kill_backup_after_units.is_some())
        .map(|plan| {
            let program = journal_program(plan.requests as i64).expect("journal program builds");
            let report = FtJvm::new(program, plan.ft_config(&cfg))
                .run_group(plan.group_config(&cfg, 2))
                .unwrap_or_else(|e| panic!("fleet slot {}: {e}", plan.pair_id));
            (plan.pair_id, report)
        })
        .find(|(_, r)| !r.reintegrated.is_empty())
        .expect("the default fleet re-integrates some standby");
    out.push((format!("fleet-slot/{id}"), epoch_fingerprint(&report)));
    out
}

/// `cargo test --release --test group_equivalence generate_epoch_pins --
/// --ignored --nocapture` regenerates [`EPOCH_PINNED`].
#[test]
#[ignore = "fingerprint generator, not a check"]
fn generate_epoch_pins() {
    for (key, fp) in epoch_matrix() {
        println!("    (\"{key}\", \"{fp}\"),");
    }
}

/// Epoch cuts are a pure function of the configuration: same instants,
/// same charged snapshot length, same suffix peaks, same primary clock.
#[test]
fn group_epoch_cuts_pinned() {
    let got = epoch_matrix();
    assert_eq!(got.len(), EPOCH_PINNED.len(), "matrix size");
    for ((key, fp), (pkey, pfp)) in got.iter().zip(EPOCH_PINNED) {
        assert_eq!(key, pkey, "case order");
        assert_eq!(fp, pfp, "{key}: epoch cuts diverged from the pinned run");
    }
}

#[rustfmt::skip]
const EPOCH_PINNED: &[(&str, &str)] = &[
    ("free/lock-sync", "m0:cuts=3 at=[26, 78, 105] snap=4689 suffix=153/5814 acct=[293700, 16995780, 0, 0, 1241130, 14489750]"),
    ("free/thread-sched", "m0:cuts=3 at=[26, 78, 105] snap=4689 suffix=153/5814 acct=[293700, 16995780, 0, 0, 1306218, 14489750]"),
    ("chain5/lock-sync", "m0:cuts=2 at=[26, 78] snap=3572 suffix=153/5814 acct=[205440, 33327000, 0, 0, 704910, 113991274] m1:cuts=3 at=[27, 53, 80] snap=8352 suffix=78/2964 acct=[508480, 164842624, 0, 0, 2376140, 140485188] m2:cuts=3 at=[27, 53, 80] snap=13775 suffix=78/2964 acct=[811360, 323146572, 0, 0, 6637440, 154060689] m3:cuts=3 at=[27, 53, 62] snap=18330 suffix=78/2964 acct=[1015300, 484190291, 0, 0, 10041550, 26744956]"),
    ("chain5/thread-sched", "m0:cuts=2 at=[26, 78] snap=3572 suffix=153/5814 acct=[205440, 34261200, 0, 0, 750147, 159583640] m1:cuts=3 at=[26, 53, 105] snap=9086 suffix=153/5814 acct=[507840, 211813827, 0, 0, 3676178, 229398409] m2:cuts=3 at=[26, 53, 105] snap=14591 suffix=153/5814 acct=[810240, 460606788, 0, 0, 6720794, 229065779] m3:cuts=3 at=[26, 53, 66] snap=18330 suffix=78/2964 acct=[1013700, 697852200, 0, 0, 10267655, 53560261]"),
    ("chain4/compact", "m0:cuts=1 at=[26] snap=1400 suffix=51/3006 acct=[183840, 7587810, 0, 0, 358050, 26290138] m1:cuts=4 at=[27, 53, 80, 106] snap=9108 suffix=27/1573 acct=[544320, 44838478, 0, 0, 5036400, 70003027] m2:cuts=2 at=[27, 52] snap=13198 suffix=27/1573 acct=[726820, 117198014, 0, 0, 6121531, 1269960]"),
    ("standby-kill", "m0:cuts=4 at=[26, 78, 105, 131] snap=5821 suffix=153/5814 acct=[363840, 21297690, 0, 0, 1852200, 18082250] m1:cuts=1 at=[26] snap=8862 suffix=77/2899 acct=[486660, 41114400, 0, 0, 1482620, 0]"),
    ("byzantine/lock-sync", "m0:cuts=0 at=[] snap=0 suffix=6/228 acct=[6240, 378540, 0, 0, 6350, 120920] m1:cuts=3 at=[27, 53, 80] snap=4733 suffix=78/2964 acct=[293860, 11834340, 0, 0, 3091960, 5435910]"),
    ("byzantine/thread-sched", "m0:cuts=0 at=[] snap=0 suffix=6/228 acct=[6240, 378540, 0, 0, 7414, 120920] m1:cuts=2 at=[52, 79] snap=4686 suffix=153/5814 acct=[293700, 7689835, 0, 0, 2913297, 2416600]"),
    ("equivocation", "m0:cuts=3 at=[26, 78, 105] snap=4689 suffix=153/5814 acct=[293700, 18247410, 0, 0, 1241130, 15719650]"),
    ("clean3/lock-sync/Fixed", "m0:cuts=2 at=[26, 78] snap=3572 suffix=153/5814 acct=[243840, 14031900, 0, 0, 753710, 12094750] m1:cuts=2 at=[27, 53] snap=7922 suffix=78/2964 acct=[486340, 33262830, 0, 0, 3174760, 2874000]"),
    ("clean3/lock-sync/Compact", "m0:cuts=2 at=[26, 78] snap=3595 suffix=52/3062 acct=[243840, 5553000, 0, 0, 757760, 11784700] m1:cuts=2 at=[27, 53] snap=7938 suffix=27/1573 acct=[486340, 21422160, 0, 0, 3516230, 2797590]"),
    ("clean3/thread-sched/Fixed", "m0:cuts=2 at=[26, 78] snap=3572 suffix=153/5814 acct=[243840, 14031900, 0, 0, 807414, 12094750] m1:cuts=2 at=[26, 53] snap=6888 suffix=146/5521 acct=[485700, 36749384, 0, 0, 3248540, 5748000]"),
    ("clean3/thread-sched/Compact", "m0:cuts=2 at=[26, 78] snap=3595 suffix=52/3062 acct=[243840, 5553000, 0, 0, 811464, 11784700] m1:cuts=2 at=[26, 53] snap=6904 suffix=49/2920 acct=[485700, 22831334, 0, 0, 3590539, 5595990]"),
    ("fleet-slot/29", "m0:cuts=2 at=[26, 78] snap=3593 suffix=52/3062 acct=[192900, 2513520, 0, 0, 694890, 10640000]"),
];

// --- the interval variant ---------------------------------------------------
//
// Every run above records one lock record per acquisition. This one runs
// `jack` (which takes monitors between its outputs) under interval
// compression in a 3-replica group and kills the first primary, so a
// standby promotes in place to an interval primary with an extra link and
// re-homes the other seat by state transfer.

fn interval_group_fingerprint() -> String {
    let w = ftjvm::workloads::jack::workload();
    let cfg = FtConfig {
        lock_variant: LockVariant::Intervals,
        ..group_cfg(ReplicationMode::LockSync, WireCodec::Fixed)
    };
    let gcfg = GroupConfig {
        size: 3,
        kills: vec![FaultPlan::AfterInstructions(400_000)],
        ..GroupConfig::default()
    };
    let r = FtJvm::new(w.program, cfg).run_group(gcfg).expect("interval group");
    r.check_no_duplicate_outputs().unwrap_or_else(|id| panic!("dup output {id}"));
    assert_eq!(r.failovers.len(), 1, "the kill must fail over once");
    format!("{} | {}", fingerprint(&r), epoch_fingerprint(&r))
}

/// `cargo test --release --test group_equivalence generate_interval_pin --
/// --ignored --nocapture` regenerates [`INTERVAL_GROUP_PINNED`].
#[test]
#[ignore = "fingerprint generator, not a check"]
fn generate_interval_pin() {
    println!("{}", interval_group_fingerprint());
}

#[test]
fn interval_group_pinned() {
    assert_eq!(interval_group_fingerprint(), INTERVAL_GROUP_PINNED, "interval group diverged");
}

#[rustfmt::skip]
const INTERVAL_GROUP_PINNED: &str = "crc=0x540b480f lines=2 completed=true survivor=1 failovers=1 promoted=[1] evictions=0 reigns=[m0:548/92410/22,m1:1172/211656/19] det=[1890630] suffix=[0] | m0:cuts=2 at=[17, 20] snap=20414 suffix=274/49904 acct=[56656160, 36458820, 445880, 0, 2522900, 1916000] m1:cuts=6 at=[1, 2, 6, 10, 13, 17] snap=102489 suffix=276/49985 acct=[184740600, 143585650, 1366860, 0, 34203940, 239500]";

// --- the lossy transport ----------------------------------------------------
//
// The tables above see what the reliable link delivered, not what it took
// to deliver it: no fingerprint counts a retransmission, a NACK or a
// suppressed duplicate. This one pins, for every run over a lossy link,
// each reign's per-link `ChannelStats` and clock and the run's final clock.
// A change to the link's seal, send, pump or ack-wait path that adds,
// drops or reorders one protocol event moves a counter or an instant here.

/// Every reign's clock and per-link transport counters, as one line.
fn transport_fingerprint(r: &GroupReport) -> String {
    let reigns: Vec<String> = r
        .reigns
        .iter()
        .map(|g| {
            let links: Vec<String> = g
                .channels
                .iter()
                .map(|c| {
                    format!(
                        "{}/{}/{}/{}/{}/{}/{}/{}/{}",
                        c.messages_sent,
                        c.bytes_sent,
                        c.drops,
                        c.retransmits,
                        c.dup_deliveries,
                        c.corrupted_frames,
                        c.reordered,
                        c.nacks,
                        c.ack_round_trips
                    )
                })
                .collect();
            format!("m{}@{}:[{}]", g.member, g.report.acct.now().as_nanos(), links.join(" "))
        })
        .collect();
    format!("end={} {}", r.final_report.acct.now().as_nanos(), reigns.join(" "))
}

/// The failure-free 3-replica run of the benchmark's `lossy_group`
/// (a 1000-entry journal over a 10%-loss link, seed 71), both modes, then
/// the chain and vote runs of [`reports`].
fn transport_matrix() -> Vec<(String, String)> {
    let mut out: Vec<(String, GroupReport)> = MODES
        .into_iter()
        .map(|mode| {
            run(
                &format!("ff10/{mode}"),
                1000,
                FtConfig { net_fault: mixed_plan(71, 0.10), ..group_cfg(mode, WireCodec::Fixed) },
                GroupConfig::default(),
            )
        })
        .collect();
    out.extend(chain5_reports());
    out.extend(byzantine_reports());
    out.iter().map(|(key, r)| (key.clone(), transport_fingerprint(r))).collect()
}

/// `cargo test --release --test group_equivalence generate_transport_pins
/// -- --ignored --nocapture` regenerates [`TRANSPORT_PINNED`].
#[test]
#[ignore = "fingerprint generator, not a check"]
fn generate_transport_pins() {
    for (key, fp) in transport_matrix() {
        println!("    (\"{key}\", \"{fp}\"),");
    }
}

/// Every send, drop, retransmission, NACK, duplicate, corrupt frame,
/// reorder and ack wait of the lossy runs, and every reign's clock.
#[test]
fn lossy_transport_pinned() {
    let got = transport_matrix();
    assert_eq!(got.len(), TRANSPORT_PINNED.len(), "matrix size");
    for ((key, fp), (pkey, pfp)) in got.iter().zip(TRANSPORT_PINNED) {
        assert_eq!(key, pkey, "case order");
        assert_eq!(fp, pfp, "{key}: the lossy transport diverged from the pinned run");
    }
}

#[rustfmt::skip]
const TRANSPORT_PINNED: &[(&str, &str)] = &[
    ("ff10/lock-sync", "end=1097859841 m0@1097859841:[4002/162537/416/491/173/82/448/281/1002 4002/162537/416/491/173/82/448/281/1002]"),
    ("ff10/thread-sched", "end=1098362726 m0@1098362726:[4002/162537/416/491/173/82/448/281/1002 4002/162537/416/491/173/82/448/281/1002]"),
    ("chain5/lock-sync", "end=521992097 m0@148228624:[389/15007/66/74/18/10/70/41/85 389/15007/66/74/18/10/70/41/85 389/15007/66/74/18/10/70/41/85 389/15007/66/74/18/10/70/41/85] m1@308212432:[341/19408/61/67/15/8/97/28/50 246/16524/45/50/14/5/45/28/50 113/12458/14/17/7/4/16/11/24 0/0/0/0/0/0/0/0/0] m2@484656061:[341/24780/61/67/15/8/95/28/50 246/21549/45/49/13/5/52/26/50 113/17844/14/17/7/4/23/13/24 0/0/0/0/0/0/0/0/0] m3@521992097:[143/22677/23/26/10/4/52/6/9 42/19489/3/3/5/0/4/3/9 5/18390/0/0/1/0/0/0/0 0/0/0/0/0/0/0/0/0]"),
    ("chain5/thread-sched", "end=762693816 m0@194800427:[398/15570/77/83/16/6/66/39/85 398/15570/77/83/16/6/66/39/85 398/15570/77/83/16/6/66/39/85 398/15570/77/83/16/6/66/39/85] m1@445396254:[388/21213/76/82/16/6/116/36/58 285/17618/57/60/12/3/46/26/58 33/10277/5/5/2/0/2/2/7 0/0/0/0/0/0/0/0/0] m2@697203601:[383/26547/75/82/17/6/114/34/56 280/22744/56/59/12/3/46/25/56 25/15381/3/3/2/0/2/1/5 0/0/0/0/0/0/0/0/0] m3@762693816:[170/23474/32/35/8/3/82/14/13 63/20120/9/9/3/0/5/3/13 5/18390/0/0/0/0/0/0/0 0/0/0/0/0/0/0/0/0]"),
    ("byzantine/lock-sync", "end=20656070 m0@512050:[9/303/0/0/0/0/0/0/1 9/303/0/0/0/0/0/0/1] m1@20656070:[300/15600/0/1/1/0/0/0/45 195/13974/0/1/1/0/0/0/45]"),
    ("byzantine/thread-sched", "end=13313432 m0@513114:[9/303/0/0/0/0/0/0/1 9/303/0/0/0/0/0/0/1] m1@13313432:[196/13981/0/1/1/0/0/0/20 88/11737/0/1/1/0/0/0/20]"),
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
