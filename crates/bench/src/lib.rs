//! # berkmin-bench — the experiment harness
//!
//! Regenerates every table and figure of the BerkMin paper. The
//! `berkmin-bench` binary runs one subcommand per artifact, each printing
//! the paper-style table from freshly generated workloads; `all` runs the
//! paper set in one process and writes the `EXPERIMENTS-results/`
//! directory (see README, "Reproducing the paper"). [`COMMANDS`] is the
//! one list of subcommands: the binary's dispatch, its usage text and
//! `all` all read it.
//!
//! The paper's wall-clock timeouts become deterministic *conflict budgets*
//! here; a run that exhausts its budget is reported in the paper's
//! `>time (aborted)` cell style.
//!
//! | Subcommand | Artifact |
//! |---|---|
//! | `table1` | Table 1 — sensitivity of decision making |
//! | `table2` | Table 2 — mobility of decision making |
//! | `table3` | Table 3 — skin effect `f(r)` |
//! | `table4` | Table 4 — branch-selection heuristics |
//! | `table5` | Table 5 — database management |
//! | `table6` | Table 6 — BerkMin vs zChaff, comparable classes |
//! | `table7` | Table 7 — classes where BerkMin dominates |
//! | `table8` | Table 8 — per-instance decisions/time |
//! | `table9` | Table 9 — database size ratios |
//! | `table10` | Table 10 — SAT-2002 three-solver shootout |
//! | `fig1` | Fig. 1 — cone switching from idle to active |
//! | `extensions` | The paper's §10 future-work features (not a paper table) |
//! | `calibrate` | Per-class times, for tuning budgets and sizes |
//! | `portfolio` | `BENCH_portfolio.json`: 1 thread vs the sharing portfolio |
//! | `preprocess` | `BENCH_preprocess.json`: simplification off vs on |
//! | `all` | Every paper table and figure, also into `EXPERIMENTS-results/` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod bench_json;
mod fig1;
mod runner;
mod table;
mod tables;

pub use runner::{run_class, run_engine, run_instance, ClassResult, RunResult, Verdict};
pub use table::TextTable;

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use berkmin::Budget;
use berkmin_gens::suites::PaperClass;

/// Why a subcommand stopped early.
#[derive(Debug)]
pub enum Error {
    /// An unknown subcommand or flag, or a bad flag value: the binary
    /// prints this and the usage text and exits with code 2.
    Usage(String),
    /// Writing the output failed.
    Io(io::Error),
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// What a subcommand returns.
pub type Outcome = Result<(), Error>;

/// One subcommand of the `berkmin-bench` binary.
pub struct Command {
    /// The name it is invoked by.
    pub name: &'static str,
    /// Whether `all` runs it (the paper's tables and figure).
    pub paper: bool,
    /// The flags it takes, as shown in the usage text (empty: none).
    pub flags: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// Writes the artifact; gets the arguments after the subcommand name.
    pub run: fn(&[String], &mut dyn Write) -> Outcome,
}

const fn cmd(
    name: &'static str,
    paper: bool,
    flags: &'static str,
    about: &'static str,
    run: fn(&[String], &mut dyn Write) -> Outcome,
) -> Command {
    Command {
        name,
        paper,
        flags,
        about,
        run,
    }
}

/// Every subcommand, in usage and `all` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("table1", true, "", "Table 1: sensitivity of decision making", |_, o| ablation::run("table1", o)),
    cmd("table2", true, "", "Table 2: mobility of decision making", |_, o| ablation::run("table2", o)),
    cmd("table3", true, "", "Table 3: skin effect f(r)", tables::table3),
    cmd("table4", true, "", "Table 4: branch-selection heuristics", |_, o| ablation::run("table4", o)),
    cmd("table5", true, "", "Table 5: database management", |_, o| ablation::run("table5", o)),
    cmd("table6", true, "", "Table 6: BerkMin vs zChaff, comparable classes", tables::table6),
    cmd("table7", true, "", "Table 7: classes where BerkMin dominates", tables::table7),
    cmd("table8", true, "", "Table 8: per-instance decisions and times", tables::table8),
    cmd("table9", true, "", "Table 9: database size ratios", tables::table9),
    cmd("table10", true, "", "Table 10: SAT-2002 three-solver shootout", tables::table10),
    cmd("fig1", true, "", "Fig. 1: cone switching from idle to active", fig1::run),
    cmd("extensions", false, "", "the paper's future-work features vs BerkMin", |_, o| ablation::run("extensions", o)),
    cmd("calibrate", false, "", "per-class times, for tuning budgets and sizes", tables::calibrate),
    cmd("portfolio", false, "[--threads N] [--share-lbd K] [--smoke] [--out FILE]", "1 thread vs the sharing portfolio, into BENCH_portfolio.json", bench_json::portfolio),
    cmd("preprocess", false, "[--smoke] [--out FILE]", "simplification off vs on, into BENCH_preprocess.json", bench_json::preprocess),
    cmd("all", false, "", "every paper table and figure, also into EXPERIMENTS-results/", all),
];

/// The usage text, listing every subcommand in [`COMMANDS`].
pub fn usage() -> String {
    let mut text = String::from("usage: berkmin-bench <SUBCOMMAND> [FLAGS]\n\nsubcommands:\n");
    for c in COMMANDS {
        text += &format!("  {:<11} {}\n", c.name, c.about);
        if !c.flags.is_empty() {
            text += &format!("  {:<11} {}\n", "", c.flags);
        }
    }
    text
}

/// Runs the subcommand named by `argv[0]` with the rest of `argv`,
/// writing its output to `out`.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Outcome {
    let (name, args) = argv
        .split_first()
        .ok_or_else(|| Error::Usage("no subcommand given".into()))?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| Error::Usage(format!("unknown subcommand {name:?}")))?;
    match args.first() {
        Some(flag) if command.flags.is_empty() => {
            Err(Error::Usage(format!("{name} takes no flags, got {flag:?}")))
        }
        _ => (command.run)(args, out),
    }
}

/// `all`: runs every paper table and figure in this process, copying each
/// one to `out` and to `EXPERIMENTS-results/<name>.txt`.
fn all(_: &[String], out: &mut dyn Write) -> Outcome {
    let dir = Path::new("EXPERIMENTS-results");
    std::fs::create_dir_all(dir)?;
    for command in COMMANDS.iter().filter(|c| c.paper) {
        let started = Instant::now();
        writeln!(out, "=== running {} ===", command.name)?;
        let mut text = Vec::new();
        (command.run)(&[], &mut text)?;
        out.write_all(&text)?;
        std::fs::write(dir.join(format!("{}.txt", command.name)), &text)?;
        let secs = started.elapsed().as_secs_f64();
        writeln!(out, "=== {} done in {secs:.1}s ===\n", command.name)?;
    }
    writeln!(out, "all experiments written to {}", dir.display())?;
    Ok(())
}

/// Per-class conflict budgets for the ablation tables (Tables 1/2/4/5).
///
/// Chosen so that the full BerkMin configuration finishes every class
/// comfortably while crippled ablation arms can (and do) abort — mirroring
/// the paper's 60,000 s timeout, which BerkMin never hit but several
/// ablation arms did.
pub fn class_budget(class: PaperClass) -> Budget {
    // Roughly 6–10× what the full BerkMin configuration needs per class
    // (measured with `berkmin-bench calibrate`).
    let conflicts = match class {
        PaperClass::Hole => 300_000,
        PaperClass::Blocksworld => 100_000,
        PaperClass::Par16 => 400_000,
        PaperClass::Sss10 => 100_000,
        PaperClass::Sss10a => 100_000,
        PaperClass::SssSat10 => 100_000,
        PaperClass::FvpUnsat10 => 300_000,
        PaperClass::VliwSat10 => 200_000,
        PaperClass::Beijing => 100_000,
        PaperClass::Hanoi => 200_000,
        PaperClass::Miters => 400_000,
        PaperClass::FvpUnsat20 => 400_000,
    };
    Budget::conflicts(conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin_gens::suites::ABLATION_ORDER;

    #[test]
    fn every_class_has_a_budget() {
        for class in ABLATION_ORDER {
            assert!(class_budget(class).max_conflicts > 0);
        }
    }
}
