//! Fleet-scale serving artifact: aggregate SLOs of hundreds of
//! replicated pairs multiplexed on one event-loop timeline, under
//! per-pair fault injection plus a correlated rack partition.
//!
//! Run: `cargo run -p ftjvm-bench --release --bin fleet`
//!
//! Two named scenarios are measured:
//!
//! * `full`  — 512 pairs, 8 racks, independent crashes (150‰) and backup
//!   kills (100‰), rack 5 partitioned (every backup in it dies at one
//!   instant), shared trunk, open-loop clients.
//! * `smoke` — the same mix at 64 pairs.
//!
//! Every scenario is measured across a worker-thread sweep (1, 2, and
//! host parallelism). The simulated results MUST be byte-identical at
//! every thread count — the binary hard-fails on any mismatch — so only
//! wall-clock may vary. Both scenarios' simulated numbers are pinned
//! exactly by `fleet_fingerprints_are_pinned` in `tests/fleet.rs`; other
//! sizes run through `ftjvm-run --fleet N`.
//!
//! `--write` refreshes the human-readable `docs/results/fleet.txt`.

use ftjvm_core::fleet::{run_fleet, FleetConfig, FleetReport};
use std::time::Instant;

struct Scenario {
    name: &'static str,
    cfg: FleetConfig,
}

fn scenarios() -> [Scenario; 2] {
    let base = FleetConfig { partition_rack: Some(5), ..FleetConfig::default() };
    [
        Scenario { name: "full", cfg: FleetConfig { pairs: 512, ..base.clone() } },
        Scenario { name: "smoke", cfg: FleetConfig { pairs: 64, ..base } },
    ]
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker-thread counts every scenario is measured at: serial, a fixed
/// 2-thread point (exercised even on 1-core hosts — determinism must
/// not depend on real parallelism), and host parallelism.
fn thread_sweep() -> Vec<usize> {
    let mut v = vec![1, 2, host_cores()];
    v.sort_unstable();
    v.dedup();
    v
}

struct Row {
    name: String,
    cfg: FleetConfig,
    /// Report of the single-threaded run (identical at every thread
    /// count — enforced below).
    report: FleetReport,
    /// (threads, wall-clock ms) across the sweep.
    wall_ms_by_threads: Vec<(usize, f64)>,
}

/// Everything observable about a run except pool layout and host time.
fn digest(r: &FleetReport) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?} {:?}",
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
        r.shared,
        r.outcomes,
    )
}

fn measure(sc: Scenario) -> Row {
    let mut wall_ms_by_threads = Vec::new();
    let mut reference: Option<(FleetReport, String)> = None;
    for threads in thread_sweep() {
        let cfg = FleetConfig { threads, ..sc.cfg.clone() };
        let start = Instant::now();
        let report = run_fleet(&cfg).expect("fleet scenario runs");
        wall_ms_by_threads.push((threads, start.elapsed().as_secs_f64() * 1e3));
        match &reference {
            None => {
                let d = digest(&report);
                reference = Some((report, d));
            }
            Some((_, want)) => {
                // Hard gate: a thread count that changes any simulated
                // result is a determinism bug.
                assert_eq!(
                    &digest(&report),
                    want,
                    "[{}] results at {threads} threads diverged from single-threaded run",
                    sc.name
                );
            }
        }
    }
    let (report, _) = reference.expect("sweep is non-empty");
    Row { name: sc.name.to_string(), cfg: sc.cfg, report, wall_ms_by_threads }
}

fn render_walls(walls: &[(usize, f64)]) -> String {
    walls.iter().map(|(t, ms)| format!("{t}t {ms:.0}ms")).collect::<Vec<_>>().join(", ")
}

fn render_text(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Fleet-scale serving simulation: aggregate SLOs under continuous faults\n");
    out.push_str(&format!(
        "(windowed worker-pool scheduler, shared trunk, open-loop clients, rack 5\n\
         partitioned; measured on a {}-core host — results byte-identical at every\n\
         thread count, wall-clock only varies)\n\n",
        host_cores()
    ));
    for r in rows {
        let rep = &r.report;
        out.push_str(&format!(
            "[{}] {} pairs, {} racks, seed {:#x}\n",
            r.name, rep.pairs, r.cfg.racks, r.cfg.seed
        ));
        out.push_str(&format!(
            "  completed {} / {}   divergent {}   lost (beyond 1-fault model) {}\n",
            rep.completed, rep.pairs, rep.divergent, rep.lost
        ));
        out.push_str(&format!(
            "  failovers absorbed {}   backups killed {}   degraded {}   reintegrated {}\n",
            rep.failovers_absorbed, rep.backups_killed, rep.degraded_entries, rep.reintegrated
        ));
        out.push_str(&format!(
            "  requests {} served / {} issued   backlog peak {}\n",
            rep.served_requests, rep.total_requests, rep.backlog_peak
        ));
        out.push_str(&format!(
            "  output-commit latency p50 {} p99 {} max {}\n",
            rep.commit_p50, rep.commit_p99, rep.commit_max
        ));
        out.push_str(&format!(
            "  makespan {}   failovers/sec {:.2}   peak suffix {} frames   peak pending {}\n",
            rep.makespan, rep.failovers_per_sec, rep.peak_suffix_frames, rep.peak_backup_pending
        ));
        if let Some(s) = &rep.shared {
            out.push_str(&format!(
                "  trunk: {} frames, {} bytes, busy {} ({:.0}% util), oversubscribed {}, \
                 queue peak {}\n",
                s.frames,
                s.bytes,
                s.busy,
                100.0 * s.busy.as_nanos() as f64 / rep.makespan.as_nanos().max(1) as f64,
                s.oversubscribed,
                s.queue_peak
            ));
        }
        out.push_str(&format!("  wall clock: {}\n\n", render_walls(&r.wall_ms_by_threads)));
    }
    out
}

fn main() {
    let write = std::env::args().skip(1).any(|a| a == "--write");
    let rows: Vec<Row> = scenarios().into_iter().map(measure).collect();
    let text = render_text(&rows);
    print!("{text}");
    if write {
        let txt =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results/fleet.txt");
        std::fs::write(&txt, text).expect("write fleet.txt");
        println!("wrote {}", txt.display());
    }
}
