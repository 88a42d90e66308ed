//! Prints the evaluation's simulated-time renderings (all of them, in
//! [`ftjvm_bench::RESULTS`] order, or the ones named), or with `--write`
//! rewrites their committed copies `docs/results/<name>.txt`.
//!
//! Run: `cargo run -p ftjvm-bench --release --bin results [<name>...] [--write]`

use ftjvm_bench::{render, RESULTS};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = args.iter().any(|a| a == "--write");
    let mut names: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| *a != "--write").collect();
    if let Some(bad) = names.iter().find(|n| !RESULTS.contains(n)) {
        eprintln!("results: no rendering {bad:?}\nusage: results [<name>...] [--write]");
        eprintln!("names: {}", RESULTS.join(" "));
        return ExitCode::from(2);
    }
    if names.is_empty() {
        names = RESULTS.to_vec();
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results");
    for name in names {
        let text = render(name).expect("every name was checked against RESULTS");
        if write {
            let path = dir.join(format!("{name}.txt"));
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            eprintln!("wrote docs/results/{name}.txt");
        } else {
            print!("{text}");
        }
    }
    ExitCode::SUCCESS
}
