//! Command-line entry of the ftjvm benchmark; see the library docs.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ftjvm_benchmark::run(&argv)
}
