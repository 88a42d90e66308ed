//! Interpreter-throughput artifact: wall-clock instructions/second of the
//! fused (superinstruction + quickening + inline-cache) engine versus the
//! per-unit `match` baseline (`DispatchEngine::Match` with
//! `block_cap = 1`).
//!
//! Run: `cargo run -p ftjvm-bench --release --bin interp`
//!
//! * `--write` refreshes `BENCH_interpreter.json` at the repo root.
//! * `--check` re-measures and exits nonzero if the fused-vs-baseline
//!   speedup regressed more than 20% against the committed JSON. The gate
//!   is on the *speedup ratio*, which is stable across machines; absolute
//!   instructions/second are printed for eyeballing only, because CI
//!   runners differ in raw clock speed.
//! * `--profile-ops` skips the throughput matrix and instead dumps ranked
//!   executed-op single/digram/trigram frequencies per SPEC analog plus
//!   the cross-suite aggregate — the measured provenance of the fusion
//!   table in `crates/vm/src/decoded.rs` (recorded in DESIGN.md §8.6).

use ftjvm_bench::bench_config;
use ftjvm_core::{FtJvm, ReplicationMode};
use ftjvm_netsim::SimTime;
use ftjvm_vm::coordinator::NoopCoordinator;
use ftjvm_vm::{DispatchEngine, NativeRegistry, OpProfiler, SimEnv, Vm, World};
use ftjvm_workloads::Workload;
use std::time::Instant;

/// One workload's throughput under the two engines.
struct Row {
    name: &'static str,
    fused_ips: f64,
    match1_ips: f64,
}

/// Wall-clock instructions/second of one unreplicated run configuration,
/// best of `iters` runs (first run doubles as warmup).
fn instr_per_sec(w: &Workload, engine: DispatchEngine, block_cap: u32, iters: u32) -> f64 {
    let mut cfg = bench_config(ReplicationMode::ThreadSched);
    cfg.vm.engine = engine;
    cfg.vm.block_cap = block_cap;
    let harness = FtJvm::new(w.program.clone(), cfg);
    let mut best = 0.0f64;
    for _ in 0..iters {
        let start = Instant::now();
        let (report, _) = harness.run_unreplicated().expect("benchmark workload runs");
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(report.counters.instructions as f64 / secs);
    }
    best
}

fn measure(iters: u32) -> Vec<Row> {
    ftjvm_workloads::spec_suite()
        .iter()
        .map(|w| Row {
            name: w.name,
            fused_ips: instr_per_sec(w, DispatchEngine::Fused, 0, iters),
            match1_ips: instr_per_sec(w, DispatchEngine::Match, 1, iters),
        })
        .collect()
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in vals {
        log_sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

fn render_json(rows: &[Row]) -> String {
    let fus_geo = geomean(rows.iter().map(|r| r.fused_ips));
    let mat_geo = geomean(rows.iter().map(|r| r.match1_ips));
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 3,\n");
    out.push_str("  \"geomean_instr_per_sec\": {\n");
    out.push_str(&format!("    \"fused\": {fus_geo:.0},\n"));
    out.push_str(&format!("    \"match_cap1\": {mat_geo:.0},\n"));
    out.push_str(&format!("    \"fused_speedup\": {:.3}\n  }},\n", fus_geo / mat_geo));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"instr_per_sec\": {{ \"fused\": {:.0}, \
             \"match_cap1\": {:.0}, \"fused_speedup\": {:.3} }} }}{}\n",
            r.name,
            r.fused_ips,
            r.match1_ips,
            r.fused_ips / r.match1_ips,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"<key>": <f64>` out of the committed JSON's
/// `geomean_instr_per_sec` object without a JSON dependency.
fn committed_geomean_field(json: &str, key: &str) -> Option<f64> {
    let obj = json.split("\"geomean_instr_per_sec\"").nth(1)?;
    let after = obj.split(&format!("\"{key}\"")).nth(1)?;
    let num: String = after
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_interpreter.json")
}

/// `--profile-ops`: executed-op frequency census across the SPEC suite
/// under the `Match` engine (no fusion, no quickening — the point is to
/// measure the raw digram/trigram stream fusion would act on). With
/// `--fused`, profiles the fused stream instead: shows how much of the
/// dynamic mix the superinstructions absorbed.
fn profile_ops(fused: bool) {
    let mut agg = OpProfiler::new();
    for w in ftjvm_workloads::spec_suite() {
        let mut cfg = bench_config(ReplicationMode::ThreadSched).vm;
        cfg.engine = if fused { DispatchEngine::Fused } else { DispatchEngine::Match };
        cfg.profile_ops = true;
        let world = World::shared();
        let env = SimEnv::new("prof", world.clone(), SimTime::ZERO, 7);
        let mut vm = Vm::new(w.program.clone(), NativeRegistry::with_builtins(), env, cfg)
            .expect("workload builds");
        vm.run(&mut NoopCoordinator::new()).expect("workload runs");
        let p = vm.core().profile.as_ref().expect("profiler was enabled");
        println!("== {} ==\n{}", w.name, p.report(12));
        agg.merge(p);
    }
    println!("== aggregate (all six SPEC analogs) ==\n{}", agg.report(20));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--profile-ops") {
        profile_ops(args.iter().any(|a| a == "--fused"));
        return;
    }
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");
    let iters = if check { 3 } else { 2 };

    let rows = measure(iters);
    let fus_geo = geomean(rows.iter().map(|r| r.fused_ips));
    let mat_geo = geomean(rows.iter().map(|r| r.match1_ips));
    let fused_speedup = fus_geo / mat_geo;

    println!("Interpreter throughput: fused block dispatch vs per-unit match (cap=1)\n");
    println!("{:10} {:>15} {:>15} {:>9}", "benchmark", "fused i/s", "match1 i/s", "fspeedup");
    for r in &rows {
        println!(
            "{:10} {:>15.0} {:>15.0} {:>8.2}x",
            r.name,
            r.fused_ips,
            r.match1_ips,
            r.fused_ips / r.match1_ips
        );
    }
    println!(
        "{:10} {:>15.0} {:>15.0} {:>8.2}x  (geomean)",
        "geomean", fus_geo, mat_geo, fused_speedup
    );

    if write {
        let path = json_path();
        std::fs::write(&path, render_json(&rows)).expect("write BENCH_interpreter.json");
        println!("\nwrote {}", path.display());
    }
    if check {
        let path = json_path();
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("--check needs {}: {e}", path.display()));
        let want = committed_geomean_field(&committed, "fused_speedup")
            .unwrap_or_else(|| panic!("{} has no geomean fused_speedup", path.display()));
        println!("\ncommitted geomean fused_speedup {want:.2}x, measured {fused_speedup:.2}x");
        if fused_speedup < want * 0.8 {
            eprintln!("FAIL: fused_speedup regressed more than 20% vs committed baseline");
            std::process::exit(1);
        } else if fused_speedup < want {
            println!("note: below committed baseline but within the 20% tolerance");
        }
        println!("OK");
    }
}
