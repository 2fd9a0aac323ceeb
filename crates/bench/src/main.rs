//! `berkmin-bench`: regenerates the paper's tables and figure and the
//! `BENCH_*.json` comparisons, one subcommand each. Run it without
//! arguments for the list.
//!
//! ```text
//! cargo run --release -p berkmin-bench -- table3
//! cargo run --release -p berkmin-bench -- all
//! ```
//!
//! Exit codes: 0 on success, 1 when writing the output fails, 2 for an
//! unknown subcommand or flag (with the usage text on stderr).

use std::process::ExitCode;

use berkmin_bench::{dispatch, usage, Error};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            eprintln!("berkmin-bench: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
        Err(Error::Io(e)) => {
            eprintln!("berkmin-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
