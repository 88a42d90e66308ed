//! The paper's evaluation as a golden: every simulated-time rendering of
//! `ftjvm-bench` must equal its committed copy `docs/results/<name>.txt`
//! byte for byte. The renderings print only simulated time and counts, so
//! any change to a cost constant, a protocol step or a workload that
//! moves a published number fails here. A change that moves one on
//! purpose regenerates the file with
//! `cargo run -p ftjvm-bench --release --bin results -- <name> --write`.

use std::path::Path;

fn check(name: &str) {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("docs/results").join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let got = ftjvm_bench::render(name).expect("a known rendering");
    if got == want {
        return;
    }
    let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "docs/results/{name}.txt is stale: first difference at line {}\n  committed: {:?}\n  rendered:  {:?}\n\
         regenerate it with `cargo run -p ftjvm-bench --release --bin results -- {name} --write`",
        line + 1,
        want.lines().nth(line).unwrap_or("<end of file>"),
        got.lines().nth(line).unwrap_or("<end of output>"),
    );
}

#[test]
fn table2() {
    check("table2");
}

#[test]
fn fig2() {
    check("fig2");
}

#[test]
fn fig3() {
    check("fig3");
}

#[test]
fn fig4() {
    check("fig4");
}

#[test]
fn failover() {
    check("failover");
}

#[test]
fn netfault() {
    check("netfault");
}

#[test]
fn ablations() {
    check("ablations");
}

#[test]
fn density() {
    check("density");
}

#[test]
fn reintegrate() {
    check("reintegrate");
}

#[test]
fn group() {
    check("group");
}

#[test]
fn every_rendering_has_a_test() {
    assert_eq!(
        ftjvm_bench::RESULTS,
        [
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "failover",
            "netfault",
            "ablations",
            "density",
            "reintegrate",
            "group"
        ]
    );
}
