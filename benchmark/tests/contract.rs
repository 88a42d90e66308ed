//! The benchmark against its own contract: `BENCHMARK.json` says what the
//! metric table says, and a two-iteration run of every workload emits
//! every metric that file names, finite and with its unit.

use ftjvm_benchmark::json::Json;
use ftjvm_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use ftjvm_benchmark::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn row(d: &Def, bounded: bool) -> Json {
    let mut fields = vec![
        ("name", Json::str(d.name)),
        ("unit", Json::str(d.unit)),
        ("better", Json::str(d.better.word())),
    ];
    if bounded {
        fields.push(("bound", Json::Num(d.bound)));
    }
    Json::obj(fields)
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let want = Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(15.0)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, _, why)| {
                        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why too long");
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(|d| row(d, true)).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(|d| row(d, false)).collect())),
    ]);
    let got = benchmark_json();
    assert!(got == want, "BENCHMARK.json is out of date; it should read:\n{}", want.render());
}

fn run(workload: &str, trace: &str, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_ftjvm-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(output.status.success(), "{workload} trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line does not parse: {e}"))
}

fn assert_emits(result: &Json, table: &[Def], what: &str) {
    let keys: Vec<&str> =
        result.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
    assert!(result.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0), "{what}");
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{what}");
    let metrics = result.get("metrics").and_then(Json::as_obj).expect("metrics object");
    assert_eq!(metrics.len(), table.len(), "{what}: metric count");
    for d in table {
        let m = result.get("metrics").and_then(|m| m.get(d.name));
        let m = m.unwrap_or_else(|| panic!("{what}: {} missing", d.name));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{what}: {} = {value:?}", d.name);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{what}: {} unit", d.name);
    }
}

#[test]
fn quick_run_emits_every_metric_benchmark_json_names() {
    let named = |section: &str| -> Vec<String> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect()
    };
    assert_eq!(named("end_to_end"), END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    assert_eq!(named("per_layer"), PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    for (workload, _, _) in WORKLOADS {
        assert_emits(&run(workload, "0", &out), &END_TO_END, &format!("{workload} untraced"));
        assert_emits(&run(workload, "1", &out), &PER_LAYER, &format!("{workload} traced"));
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("traced run writes its trace");
        let events = Json::parse(&trace).expect("trace parses");
        let events = events.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        for phase in ["base", "primary", "decode", "replay", "ff", "failover"] {
            assert!(
                events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(phase)),
                "{workload}: no {phase} span"
            );
        }
    }
}
