//! Fleet-scale serving artifact: aggregate SLOs of hundreds of
//! replicated pairs multiplexed on one event-loop timeline, under
//! per-pair fault injection plus a correlated rack partition.
//!
//! Run: `cargo run -p ftjvm-bench --release --bin fleet`
//!
//! Two named scenarios are measured by default:
//!
//! * `full`  — 512 pairs, 8 racks, independent crashes (150‰) and backup
//!   kills (100‰), rack 5 partitioned (every backup in it dies at one
//!   instant), shared trunk, open-loop clients.
//! * `smoke` — the same mix at 64 pairs; fast enough for every CI run.
//!
//! Every scenario is measured across a worker-thread sweep (1, 2, and
//! host parallelism). The simulated results MUST be byte-identical at
//! every thread count — the binary itself hard-fails on any mismatch,
//! independent of `--check` — so only wall-clock may vary.
//!
//! Flags:
//!
//! * `--write` refreshes `BENCH_fleet.json` at the repo root and the
//!   human-readable `docs/results/fleet.txt`.
//! * `--check` re-measures and exits nonzero if correctness counts
//!   (completed / divergent / lost / failovers absorbed / served) differ
//!   from the committed JSON, or commit-latency percentiles regressed
//!   more than 25%, or (on hosts with 4+ cores) scheduling at max
//!   threads failed to cut wall-clock at least 20% below single-thread.
//!   The whole simulation is deterministic in simulated time, so
//!   everything but wall-clock is machine-independent; the latency
//!   tolerance only keeps innocuous cost-model tuning from needing a
//!   lockstep `--write` in the same commit.
//! * `--smoke` measures only the 64-pair scenario (the CI release-job
//!   gate runs the full `--check`; `--smoke --check` is the quick local
//!   variant).
//! * `--pairs <n>` measures one custom-sized scenario instead (printed
//!   only; not written or checked).

use ftjvm_core::fleet::{run_fleet, FleetConfig, FleetReport};
use std::time::Instant;

struct Scenario {
    name: &'static str,
    cfg: FleetConfig,
}

fn scenarios(smoke_only: bool) -> Vec<Scenario> {
    let base = FleetConfig { partition_rack: Some(5), ..FleetConfig::default() };
    let mut v = Vec::new();
    if !smoke_only {
        v.push(Scenario { name: "full", cfg: FleetConfig { pairs: 512, ..base.clone() } });
    }
    v.push(Scenario { name: "smoke", cfg: FleetConfig { pairs: 64, ..base } });
    v
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
                // Hard gate, independent of --check: a thread count that
                // changes any simulated result is a determinism bug.
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

fn render_json(rows: &[Row]) -> String {
    let walls_obj = |walls: &[(usize, f64)]| {
        walls.iter().map(|(t, ms)| format!("\"{t}\": {ms:.1}")).collect::<Vec<_>>().join(", ")
    };
    let threads_list = |walls: &[(usize, f64)]| {
        walls.iter().map(|(t, _)| t.to_string()).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 2,\n");
    out.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let rep = &r.report;
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!("      \"pairs\": {},\n", rep.pairs));
        out.push_str(&format!("      \"racks\": {},\n", r.cfg.racks));
        out.push_str(&format!("      \"completed\": {},\n", rep.completed));
        out.push_str(&format!("      \"divergent\": {},\n", rep.divergent));
        out.push_str(&format!("      \"lost\": {},\n", rep.lost));
        out.push_str(&format!("      \"failovers_absorbed\": {},\n", rep.failovers_absorbed));
        out.push_str(&format!("      \"backups_killed\": {},\n", rep.backups_killed));
        out.push_str(&format!("      \"degraded_entries\": {},\n", rep.degraded_entries));
        out.push_str(&format!("      \"reintegrated\": {},\n", rep.reintegrated));
        out.push_str(&format!("      \"total_requests\": {},\n", rep.total_requests));
        out.push_str(&format!("      \"served_requests\": {},\n", rep.served_requests));
        out.push_str(&format!("      \"backlog_peak\": {},\n", rep.backlog_peak));
        out.push_str(&format!("      \"commit_p50_ns\": {},\n", rep.commit_p50.as_nanos()));
        out.push_str(&format!("      \"commit_p99_ns\": {},\n", rep.commit_p99.as_nanos()));
        out.push_str(&format!("      \"commit_max_ns\": {},\n", rep.commit_max.as_nanos()));
        out.push_str(&format!("      \"makespan_ns\": {},\n", rep.makespan.as_nanos()));
        out.push_str(&format!("      \"failovers_per_sec\": {:.2},\n", rep.failovers_per_sec));
        if let Some(s) = &rep.shared {
            out.push_str(&format!("      \"trunk_busy_ns\": {},\n", s.busy.as_nanos()));
            out.push_str(&format!(
                "      \"trunk_oversubscribed_ns\": {},\n",
                s.oversubscribed.as_nanos()
            ));
            out.push_str(&format!("      \"trunk_queue_peak_ns\": {},\n", s.queue_peak.as_nanos()));
        }
        let serial = r.wall_ms_by_threads.first().map_or(0.0, |(_, ms)| *ms);
        out.push_str(&format!("      \"wall_ms\": {serial:.0},\n"));
        out.push_str(&format!("      \"threads\": [{}],\n", threads_list(&r.wall_ms_by_threads)));
        out.push_str(&format!(
            "      \"wall_ms_by_threads\": {{ {} }}\n",
            walls_obj(&r.wall_ms_by_threads)
        ));
        out.push_str(if i + 1 == rows.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"<key>": <number>` out of one committed scenario object
/// (scoped by its `"name"` marker) without a JSON dependency.
fn committed_field(json: &str, scenario: &str, key: &str) -> Option<f64> {
    let obj = json.split(&format!("\"name\": \"{scenario}\"")).nth(1)?;
    let obj = obj.split("\"name\":").next()?;
    let after = obj.split(&format!("\"{key}\"")).nth(1)?;
    let num: String = after
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn repo_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name)
}

fn check(rows: &[Row]) -> bool {
    let path = repo_path("BENCH_fleet.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--check needs {}: {e}", path.display()));
    let mut failed = false;
    for r in rows {
        if committed_field(&committed, &r.name, "pairs").is_none() {
            println!("scenario `{}` not in committed JSON; skipping", r.name);
            continue;
        }
        let rep = &r.report;
        if rep.divergent != 0 {
            eprintln!("FAIL [{}]: {} divergent pairs (must be 0)", r.name, rep.divergent);
            failed = true;
        }
        // Correctness counts are deterministic and machine-independent:
        // any drift is a behavior change and must come with --write.
        let exact: [(&str, u64); 5] = [
            ("completed", u64::from(rep.completed)),
            ("lost", u64::from(rep.lost)),
            ("failovers_absorbed", u64::from(rep.failovers_absorbed)),
            ("served_requests", rep.served_requests),
            ("backlog_peak", rep.backlog_peak),
        ];
        for (key, measured) in exact {
            let Some(want) = committed_field(&committed, &r.name, key) else { continue };
            if (measured as f64 - want).abs() > 0.5 {
                eprintln!("FAIL [{}]: {key} = {measured}, committed {want:.0}", r.name);
                failed = true;
            }
        }
        // Latency percentiles: allow 25% headroom so cost-model tuning
        // elsewhere doesn't demand a lockstep rewrite, but catch real
        // SLO regressions.
        for (key, measured) in [
            ("commit_p50_ns", rep.commit_p50.as_nanos()),
            ("commit_p99_ns", rep.commit_p99.as_nanos()),
        ] {
            let Some(want) = committed_field(&committed, &r.name, key) else { continue };
            let measured = measured as f64;
            println!("[{}] {key}: committed {want:.0}, measured {measured:.0}", r.name);
            if measured > want * 1.25 {
                eprintln!("FAIL [{}]: {key} regressed more than 25%", r.name);
                failed = true;
            }
        }
        // Wall-clock scaling gate, host-local by construction: on a
        // machine with real parallelism, scheduling at max threads must
        // cut at least 20% off the single-threaded wall. Skipped on
        // small hosts where there is nothing to scale onto, and on
        // small scenarios whose wall is dominated by fixed costs.
        if host_cores() >= 4 && rep.pairs >= 128 {
            let serial = r.wall_ms_by_threads.first().map_or(0.0, |(_, ms)| *ms);
            let (max_t, parallel) = r.wall_ms_by_threads.last().copied().unwrap_or((1, serial));
            println!(
                "[{}] scaling: 1t {serial:.0}ms -> {max_t}t {parallel:.0}ms ({:.2}x)",
                r.name,
                serial / parallel.max(0.001)
            );
            if parallel > serial * 0.8 {
                eprintln!(
                    "FAIL [{}]: {max_t}-thread wall {parallel:.0}ms not 20% under 1-thread {serial:.0}ms",
                    r.name
                );
                failed = true;
            }
        } else {
            println!(
                "[{}] scaling gate skipped ({} host cores, {} pairs)",
                r.name,
                host_cores(),
                rep.pairs
            );
        }
    }
    failed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let do_check = args.iter().any(|a| a == "--check");
    let smoke_only = args.iter().any(|a| a == "--smoke");
    let custom_pairs = args
        .iter()
        .position(|a| a == "--pairs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u32>().ok());

    let rows: Vec<Row> = if let Some(pairs) = custom_pairs {
        let cfg = FleetConfig { pairs, partition_rack: Some(5), ..FleetConfig::default() };
        vec![measure(Scenario { name: "custom", cfg })]
    } else {
        scenarios(smoke_only).into_iter().map(measure).collect()
    };

    print!("{}", render_text(&rows));

    if write && custom_pairs.is_none() {
        let json = repo_path("BENCH_fleet.json");
        std::fs::write(&json, render_json(&rows)).expect("write BENCH_fleet.json");
        let txt = repo_path("docs/results/fleet.txt");
        std::fs::create_dir_all(txt.parent().expect("has parent")).expect("mkdir results");
        std::fs::write(&txt, render_text(&rows)).expect("write fleet.txt");
        println!("wrote {} and {}", json.display(), txt.display());
    }
    if do_check {
        if check(&rows) {
            std::process::exit(1);
        }
        println!("OK");
    }
}
