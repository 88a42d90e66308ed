//! A flush is one atomic unit on the wire. The primary keeps a native's
//! result and its side-effect snapshot in one flush; under the fixed codec
//! that flush is several frames, and a lossy link can lose its tail. A
//! standby that promotes on a verified prefix ending inside a flush would
//! adopt the result without the snapshot (an fd table one write behind)
//! and overwrite a journal entry. So the receive window releases frames
//! only up to the last complete flush, live and at takeover.
//!
//! The sweep crashes the primary right after each flush it sends between
//! output commits, after cutting the link at every frame of that flush,
//! and checks the console against the unreplicated run and exactly-once
//! output. (A flush sent from an output commit is followed by its
//! acknowledgment wait, during which the primary retransmits, so those
//! are never left half-delivered by a crash right after them.)

use ftjvm::netsim::{FaultPlan, WireCodec};
use ftjvm::vm::program::ProgramBuilder;
use ftjvm::workloads::{Std, Workload};
use ftjvm::{FtConfig, FtJvm, GroupConfig, LagBudget, NetFaultPlan, ReplicationMode};
use std::sync::Arc;

/// `n` journal appends to one file, each followed by a `file.size` probe,
/// then the final size printed. Every append and every probe logs a
/// result plus a file-table snapshot: one atomic set each.
fn probed_journal(n: i64) -> Workload {
    let mut b = ProgramBuilder::new();
    let std = Std::import(&mut b);
    let name = b.intern("journal.log");
    let text = b.intern("journal-entry\n");
    let mut m = b.method("main", 1);
    m.const_str(name).invoke_native(std.fopen, 1).store(1);
    m.push_i(n).store(2);
    let done = m.new_label();
    let top = m.bind_new_label();
    m.load(2).if_not(done);
    m.load(1).const_str(text).push_i(14).invoke_native(std.fwrite, 3).pop();
    m.load(1).invoke_native(std.fsize, 1).pop();
    m.inc(2, -1).goto(top);
    m.bind(done);
    m.load(1).invoke_native(std.fsize, 1).invoke_native(std.print_int, 1);
    m.ret_void();
    let entry = m.build(&mut b);
    Workload {
        name: "probed_journal",
        description: "journal appends, each followed by a file.size probe",
        program: Arc::new(b.build(entry).expect("verifies")),
        multithreaded: false,
        paper_exec_secs: 0,
    }
}

#[derive(Debug, Clone, Copy)]
enum Pair {
    Cold,
    Hot,
    HotVoting,
}

/// What one crashed run left behind.
struct Run {
    console: Vec<String>,
    exactly_once: bool,
    completed: bool,
    /// Frames the primary put on its (first) link, retransmissions included.
    sent: u64,
    output_commits: u64,
}

fn run(w: &Workload, cfg: &FtConfig, pair: Pair, flush: u64, cut: Option<u64>) -> Run {
    let fault = FaultPlan::AfterFlush(flush);
    // An inert window arms the reliable transport without losing anything.
    let window = cut.map_or((u64::MAX - 1, u64::MAX), |c| (c, u64::MAX));
    let net_fault = NetFaultPlan { partitions: vec![window], ..NetFaultPlan::default() };
    let cfg = FtConfig { net_fault, ..cfg.clone() };
    let vote_quorum = match pair {
        Pair::Cold => {
            let r = FtJvm::new(w.program.clone(), FtConfig { fault, ..cfg })
                .run_with_failure()
                .unwrap_or_else(|e| panic!("{pair:?} flush {flush} cut {cut:?}: {e}"));
            return Run {
                console: r.console(),
                exactly_once: r.check_no_duplicate_outputs().is_ok(),
                completed: r.backup.is_some_and(|b| b.uncaught.is_empty()),
                sent: r.channel.messages_sent,
                output_commits: r.primary_stats.output_commits,
            };
        }
        Pair::Hot => None,
        Pair::HotVoting => Some(2),
    };
    let gcfg = GroupConfig {
        size: 2,
        reintegrate: false,
        vote_quorum,
        kills: vec![fault],
        ..GroupConfig::default()
    };
    let r = FtJvm::new(w.program.clone(), cfg)
        .run_group(gcfg)
        .unwrap_or_else(|e| panic!("{pair:?} flush {flush} cut {cut:?}: {e}"));
    Run {
        console: r.console(),
        exactly_once: r.check_no_duplicate_outputs().is_ok(),
        completed: r.completed && r.final_report.uncaught.is_empty(),
        sent: r.reigns[0].channels[0].messages_sent,
        output_commits: r.reigns[0].stats.output_commits,
    }
}

/// The flush threshold that makes the primary flush between output
/// commits: under the fixed codec, after two atomic sets (an append and
/// its probe, four frames); under the compact codec, after every set.
fn threshold(w: &Workload, cfg: &FtConfig) -> usize {
    if cfg.codec == WireCodec::Compact {
        return 1;
    }
    let probe = FtConfig { flush_threshold: 1, ..cfg.clone() };
    let s = FtJvm::new(w.program.clone(), probe).run_replicated().expect("probe").primary_stats;
    assert_eq!(s.native_result_bytes % s.native_result_records, 0, "uniform result records");
    assert_eq!(s.se_state_bytes % s.se_state_records, 0, "uniform snapshot records");
    let set =
        s.native_result_bytes / s.native_result_records + s.se_state_bytes / s.se_state_records;
    2 * set as usize
}

#[test]
fn cutting_a_flush_at_any_frame_keeps_output_exactly_once() {
    let w = probed_journal(3);
    let mut cuts = 0;
    let mut failures = Vec::new();
    for codec in [WireCodec::Fixed, WireCodec::Compact] {
        for mode in [ReplicationMode::LockSync, ReplicationMode::ThreadSched] {
            let base = FtConfig { mode, codec, lag_budget: LagBudget::Cold, ..FtConfig::default() };
            let want =
                FtJvm::new(w.program.clone(), base.clone()).run_unreplicated().expect("reference");
            let want = want.1.borrow().console_texts();
            let cfg = FtConfig { flush_threshold: threshold(&w, &base), ..base };
            for pair in [Pair::Cold, Pair::Hot, Pair::HotVoting] {
                let case = format!("{codec} {mode} {pair:?}");
                let mut prev = run(&w, &cfg, pair, 0, None);
                let mut multi_frame = 0;
                for flush in 1.. {
                    let probe = run(&w, &cfg, pair, flush, None);
                    if probe.sent == prev.sent {
                        break; // the program ended before this flush
                    }
                    if probe.output_commits == prev.output_commits {
                        multi_frame += u64::from(probe.sent - prev.sent > 2);
                        for cut in prev.sent..=probe.sent {
                            cuts += 1;
                            let r = run(&w, &cfg, pair, flush, Some(cut));
                            if !r.completed || !r.exactly_once || r.console != want {
                                failures.push(format!(
                                    "{case}: flush {flush}, frames from {cut} lost: console {:?}, exactly-once {}, completed {}",
                                    r.console, r.exactly_once, r.completed
                                ));
                            }
                        }
                    }
                    prev = probe;
                }
                if codec == WireCodec::Fixed {
                    assert!(
                        multi_frame >= 3,
                        "{case}: only {multi_frame} multi-frame flushes swept"
                    );
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {cuts} cuts broke exactly-once:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
