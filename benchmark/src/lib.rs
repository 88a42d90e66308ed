//! The ftjvm benchmark.
//!
//! `ftjvm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! sets one workload up, measures it for `s` seconds in a closed loop on
//! one driver thread, checks every output, prints each metric with its
//! unit, and ends with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`). Without `--workload` it runs all five workloads, each in
//! a process of its own, and writes `results.json`. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod probes;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::Json;
use metrics::{LayerInputs, Measured, RunData};
use sim::{Ops, Sim};
use stats::{fast_decile, median, Summary};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Harness;
use workloads::{host_can_show_threads, host_threads, Bench, Kind, Size, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Fewest timed set-ups per run; `setup_s` is the median of all of them.
const SETUPS: usize = 5;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: ftjvm-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--quick] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if workloads::kind_of(&w).is_none() {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed =
                    value(&mut i, "--seed")?.parse().map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                a.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--out" => a.out = PathBuf::from(value(&mut i, "--out")?),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// Runs the benchmark with the command line `argv` (program name
/// excluded) and returns the process's exit code: 0 when every output
/// was correct.
pub fn run(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftjvm-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The measured loop's outcome.
struct Loop {
    h: Harness,
    sim: Sim,
    ops: Ops,
    /// Per kept iteration: was the recorder on.
    recorded: Vec<bool>,
}

impl Loop {
    fn data(&self) -> RunData<'_> {
        RunData { h: &self.h, sim: &self.sim }
    }
}

/// When the measured loop stops.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// After this many seconds (and at least two timed iterations).
    Seconds(f64),
    /// After this many timed iterations.
    Iterations(u32),
}

/// Which iterations record spans. Any recording also runs the phases
/// only per-layer metrics need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    /// None: an untraced run.
    Off,
    /// Every other one, so that recorded and unrecorded iterations see
    /// the same drift and their ratio is the recorder's overhead.
    Alternate,
    /// All: a layer probe.
    All,
}

/// Warm-up, then timed iterations until `budget` is spent. Iteration
/// i+1 starts when i returns.
fn measure(bench: &Bench, origin: Instant, budget: Budget, record: Record) -> Loop {
    let mut h = Harness::with_origin(origin);
    let mut ops = Ops::default();
    let mut recorded = Vec::new();
    let mut first: Option<Sim> = None;
    let mut started = Instant::now();
    for i in 0u32.. {
        h.recording = record == Record::All || (record == Record::Alternate && i % 2 == 1);
        let (tally, _) = h.time("iter", |h| bench.iteration(h, record != Record::Off, i));
        ops.merge(tally.ops);
        match &first {
            None => first = Some(tally.sim),
            Some(want) if want.digest != tally.sim.digest => {
                ops.fail(format!("sim_digest of iteration {i} differs from iteration 0"));
            }
            Some(_) => {}
        }
        // Iteration 0 warms caches and lazy state and is not kept.
        h.end_iteration(i > 0);
        if i == 0 {
            started = Instant::now();
            continue;
        }
        recorded.push(h.recording);
        let spent = match budget {
            Budget::Seconds(s) => i >= 2 && started.elapsed().as_secs_f64() >= s,
            Budget::Iterations(n) => i >= n,
        };
        if spent {
            break;
        }
    }
    h.recording = false;
    Loop { h, sim: first.expect("at least one iteration ran"), ops, recorded }
}

/// A small instance of `kind`, run a few times with the recorder on: the
/// source of a layer's metrics on workloads that do not exercise it.
fn layer_probe(kind: Kind, seed: u64, origin: Instant, quick: bool) -> Loop {
    let bench = Bench::setup(kind, seed, Size::Small);
    measure(&bench, origin, Budget::Iterations(if quick { 1 } else { 3 }), Record::All)
}

fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "n/a".into()
    } else if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else if v.fract() == 0.0 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

fn print_metric(m: &Measured) {
    let unmeasured = metrics::NEEDS_THREADS.contains(&m.def.name) && !host_can_show_threads();
    let value = if unmeasured { "unmeasured".to_string() } else { fmt(m.value) };
    let mut line = format!("  {:<38} {:>12} {:<8}", m.def.name, value, m.def.unit);
    if unmeasured {
        println!("{line} one core: no thread-scaling result");
        return;
    }
    if m.samples.len() >= 2 {
        let s = Summary::of(&m.samples);
        line += &format!(
            " | median {} q1 {} q3 {} iqr/median {:.2}% n {}",
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            s.spread() * 100.0,
            s.n
        );
        // The tail that hurts: slow times, or low rates (a rate's slow
        // tail is the high tail of its negation).
        let tail = match m.def.better {
            metrics::Better::Lower => s.tail,
            metrics::Better::Higher => {
                let negated: Vec<f64> = m.samples.iter().map(|x| -x).collect();
                stats::highest_supported_percentile(&negated).map(|(p, v)| (p, -v))
            }
        };
        if let Some((p, v)) = tail {
            line += &format!(" worst-side p{p:.0} {}", fmt(v));
        }
        if m.def.bound > 0.0 && s.spread() > m.def.bound {
            line += &format!(" unresolved (spread over the {:.0}% bound)", m.def.bound * 100.0);
        }
    } else if m.def.exact {
        line += " exact";
    }
    println!("{line}");
}

fn metrics_json(ms: &[Measured]) -> Json {
    Json::obj(ms.iter().map(|m| {
        (m.def.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.def.unit))]))
    }))
}

/// One workload in this process: the contract's single run.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let kind = workloads::kind_of(name).ok_or("unknown workload")?;
    let size = if args.quick { Size::Small } else { Size::Full };
    let origin = Instant::now();

    let bench = Bench::setup(kind, args.seed, size);

    let budget = if args.quick { Budget::Iterations(2) } else { Budget::Seconds(args.seconds) };
    let record = if args.trace { Record::Alternate } else { Record::Off };
    let mut run = measure(&bench, origin, budget, record);
    let iterations = run.recorded.len();

    // `setup_s`: set up again, at least five times and for a second, and
    // report the median. This comes after the measured loop because the
    // first 0.2 s of a process run on a cold, down-clocked core: measured
    // first, half the set-ups of a 35 ms set-up took 65 ms and the median
    // flipped between the two from run to run.
    let mut setup_secs = Vec::new();
    let mut build_ms = Vec::new();
    let setups_began = Instant::now();
    let (least, most) = if args.quick { (2, 2) } else { (SETUPS, 2000) };
    while setup_secs.len() < least
        || (setup_secs.len() < most && setups_began.elapsed().as_secs_f64() < 1.0)
    {
        let t = Instant::now();
        let again = Bench::setup(kind, args.seed, size);
        setup_secs.push(t.elapsed().as_secs_f64());
        build_ms.push(again.build_secs * 1e3);
    }
    println!(
        "== {name}: seed {} | {} s | {} | {iterations} timed iterations after 1 warm-up | {} core(s), {} fleet thread(s)",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, usize::from),
        host_threads(),
    );

    let measured = if args.trace {
        let group = (kind != Kind::LossyGroup)
            .then(|| layer_probe(Kind::LossyGroup, args.seed, origin, args.quick));
        let fleet =
            (kind != Kind::Fleet).then(|| layer_probe(Kind::Fleet, args.seed, origin, args.quick));
        let mut probe_h = Harness::with_origin(origin);
        probe_h.recording = true;
        let probes = probes::run(&mut probe_h, args.seed, if args.quick { 2 } else { 5 });
        for extra in [&group, &fleet].into_iter().flatten() {
            run.ops.merge(extra.ops.clone());
        }

        let iters = run.h.samples("iter");
        let pick = |on: bool| -> Vec<f64> {
            iters.iter().zip(&run.recorded).filter(|(_, &r)| r == on).map(|(&s, _)| s).collect()
        };
        let (on, off) = (pick(true), pick(false));
        let trace_overhead = if on.is_empty() || off.is_empty() {
            0.0
        } else {
            fast_decile(&on) / fast_decile(&off) - 1.0
        };

        let main = run.data();
        let layers = metrics::per_layer(LayerInputs {
            main,
            group: group.as_ref().map_or(main, Loop::data),
            fleet: fleet.as_ref().map_or(main, Loop::data),
            probes: &probes,
            build_ms: median(&build_ms),
            trace_overhead,
        });
        println!("-- per-layer metrics (traced run; end-to-end metrics come from untraced runs)");
        layers.iter().for_each(print_metric);

        let mut harnesses = vec![&run.h, &probe_h];
        harnesses.extend([&group, &fleet].into_iter().flatten().map(|l| &l.h));
        print_trace_tables(&run, &layers, &harnesses);
        let path = args.out.join(format!("trace-{name}.json"));
        write_file(&path, &trace::chrome_trace(&harnesses).render())?;
        println!("-- trace written to {}", path.display());
        layers
    } else {
        let e2e = metrics::end_to_end(run.data(), &setup_secs);
        println!(
            "-- end-to-end metrics (host time: fast decile | median, quartiles, spread; sim_* and counts: exact)"
        );
        e2e.iter().for_each(print_metric);
        e2e
    };

    let ops = &run.ops;
    println!(
        "-- operations: {} attempted, {} failed (failed_op_share {}) | sim_digest {:016x}",
        ops.attempted,
        ops.failed,
        fmt(ops.failed as f64 / ops.attempted.max(1) as f64),
        run.sim.digest.value()
    );
    for note in &ops.notes {
        println!("   FAILED {note}");
    }
    let finite = measured.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("   FAILED a metric is not a finite number");
    }
    let correct = ops.failed == 0 && finite;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(ops.attempted as f64)),
            ("failed", Json::Num(ops.failed as f64)),
            ("metrics", metrics_json(&measured)),
        ])
        .render()
    );
    Ok(correct)
}

/// Self time per span name and the share table of a traced run.
fn print_trace_tables(run: &Loop, layers: &[Measured], harnesses: &[&Harness]) {
    println!("-- self time per span (span minus its children), all recorded iterations");
    let mut own = std::collections::BTreeMap::new();
    for h in harnesses {
        for (name, secs) in h.self_times() {
            *own.entry(name).or_insert(0.0) += secs;
        }
    }
    let mut rows: Vec<_> = own.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in rows {
        println!("  {name:<24} {:>10.3} ms", secs * 1e3);
    }
    let ff = run.data().m("ff");
    let rows = [
        ("base x2 (both replicas execute)", "share.base"),
        ("primary-side extra (primary - base)", "share.primary_extra"),
        ("decode", "share.decode"),
        ("replay extra (replay - base - decode)", "share.replay_extra"),
        ("driver residual (ff - primary - replay)", "share.driver_residual"),
    ];
    println!("-- share table: where the failure-free replicated run's wall goes (fast deciles)");
    let mut sum = 0.0;
    for (what, metric) in rows {
        let share = layers.iter().find(|m| m.def.name == metric).map_or(f64::NAN, |m| m.value);
        sum += share;
        println!("  {what:<42} {:>9.3} ms {:>7.1}%", share * ff * 1e3, share * 100.0);
    }
    println!(
        "  {:<42} {:>9.3} ms {:>7.1}%   (ff {:.3} ms)",
        "sum",
        sum * ff * 1e3,
        sum * 100.0,
        ff * 1e3
    );
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// First line of a tool's output, or `unknown` (a checkout need not be a
/// git repository).
fn tool(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in a child process and returns its result line.
fn child(args: &Args, name: &str, traced: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{name}: cannot start: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let result = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    Ok((result, out.status.success()))
}

/// Every workload, each in its own process; then `results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for (name, _, _) in WORKLOADS {
        let (untraced, ok) = child(args, name, false)?;
        all_ok &= ok;
        let traced = if args.trace {
            let (mut traced, ok) = child(args, name, true)?;
            all_ok &= ok;
            if !host_can_show_threads() {
                unmeasure(&mut traced);
            }
            traced
        } else {
            Json::Null
        };
        println!();
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("untraced", untraced),
            ("traced", traced),
        ]));
    }
    let results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64)),
        ("fleet_threads", Json::Num(host_threads() as f64)),
        ("rustc", Json::str(tool("rustc", &["--version"]))),
        ("commit", Json::str(tool("git", &["rev-parse", "HEAD"]))),
        ("workloads", Json::Arr(rows)),
    ]);
    let path = args.out.join("results.json");
    write_file(&path, &results.render())?;
    println!(
        "results written to {}; {}",
        path.display(),
        if all_ok { "all outputs correct" } else { "FAILURES above" }
    );
    Ok(all_ok)
}

/// Replaces thread-scaling values by the string `unmeasured`.
fn unmeasure(result: &mut Json) {
    let Json::Obj(top) = result else { return };
    let Some((_, Json::Obj(ms))) = top.iter_mut().find(|(k, _)| k == "metrics") else { return };
    for (name, m) in ms.iter_mut() {
        if let (true, Json::Obj(fields)) = (metrics::NEEDS_THREADS.contains(&name.as_str()), m) {
            for (k, v) in fields.iter_mut() {
                if k == "value" {
                    *v = Json::str("unmeasured");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let a = parse_args(&argv("--workload fleet --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fleet"), 7, 3.0, true)
        );
        let a = parse_args(&argv("--trace 0 --seed 9")).unwrap();
        assert!(!a.trace && a.workload.is_none() && a.seed == 9);
        let a = parse_args(&argv("--trace --quick")).unwrap();
        assert!(a.trace && a.quick);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn unmeasure_touches_only_thread_metrics() {
        let mut r = Json::parse(
            r#"{"metrics": {"parallel.speedup_tn": {"value": 1.0, "unit": "ratio"}, "vm.new_us": {"value": 9.5, "unit": "us"}}}"#,
        )
        .unwrap();
        unmeasure(&mut r);
        let m = r.get("metrics").unwrap();
        assert_eq!(
            m.get("parallel.speedup_tn").unwrap().get("value"),
            Some(&Json::str("unmeasured"))
        );
        assert_eq!(m.get("vm.new_us").unwrap().get("value"), Some(&Json::Num(9.5)));
    }
}
