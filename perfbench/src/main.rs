//! `perfbench` — time to a certified verdict, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload structured --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread. The inputs of a workload are generated from
//! `--seed`, rendered to DIMACS, then solved and certified pass after pass
//! for `--seconds`. `--trace 0` reports the end-to-end metrics of untraced
//! passes; `--trace 1` alternates untraced and traced passes and reports
//! the per-layer metrics of the traced ones. Every time is scaled to a
//! nominal machine by a reference kernel timed between the solve calls
//! (see `calibrate`), so that the drifting speed of a shared host does not
//! show as a change of the program. The last line of standard output is
//! one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Each run also appends a record (with its provenance) to
//! `perfbench/results/runs.jsonl` and its spans to
//! `perfbench/results/spans-*.jsonl`.

mod calibrate;
mod metrics;
mod pass;
mod provenance;
mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use berkmin::telemetry::json::Value;

use metrics::Summary;
use pass::{Call, Pass};
use workload::{Inputs, Workload};

const USAGE: &str =
    "usage: perfbench --workload <structured|random-certified|large-easy|incremental-bmc> \
                     --seed <n> --seconds <n> --trace <0|1> [--results <dir>]";

/// Where run records, counter fingerprints and spans are written,
/// relative to the directory the benchmark runs in.
const RESULTS_DIR: &str = "perfbench/results";

/// A run stops starting passes after this long even when it has not yet
/// made its minimum number of passes, so it always ends well within the
/// three minutes a run may take.
const HARD_STOP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    results: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut results = RESULTS_DIR.to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--results" => results = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        results,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The first, cold set-up: its inputs are the ones every pass solves, and
/// with a trace its generate/render times go into the span file.
fn set_up(args: &Args, origin: Instant) -> (Inputs, trace::Trace) {
    let mut trace = trace::Trace::new(origin);
    let inputs = workload::generate(args.workload, args.seed, |_, generate_s, render_s| {
        let end = Instant::now();
        let render_start = end - Duration::from_secs_f64(render_s);
        let generate_start = render_start - Duration::from_secs_f64(generate_s);
        trace.record("generate", None, generate_start, render_start);
        trace.record("render", None, render_start, end);
    });
    (inputs, trace)
}

/// Times the set-up again (the result is dropped) until 0.1 s have gone
/// by, at least once. Called before every pass, so that `setup_s` is a
/// median over the same stretch of time as the passes; the times are
/// scaled by the slowdown of the pass that follows.
fn time_set_up(args: &Args, times: &mut Vec<f64>) {
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        drop(workload::generate(args.workload, args.seed, |_, _, _| {}));
        times.push(t0.elapsed().as_secs_f64());
        if started.elapsed() >= Duration::from_millis(100) {
            return;
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let (inputs, setup_trace) = set_up(args, origin);

    // Warm-up pass: fills caches and settles the allocator; checked, not
    // timed.
    let mut errors: Vec<String> = Vec::new();
    let mut kernel = calibrate::Reference::new();
    let reference = match pass::run(args.workload, &inputs, None, &mut kernel) {
        Ok(p) => p,
        Err(e) => return finish(args, Outcome::failed(e)),
    };
    // Read now: the timed passes repeat the same solves, while the
    // benchmark's own records of them grow with how many fit in the run.
    let peak_rss_mb = provenance::peak_rss_mb()?;

    // The run lasts `--seconds` from its start, warm-up included: a pass
    // is started only if one as long as the last one ends by then.
    let deadline = origin + Duration::from_secs(args.seconds);
    let (mut untraced, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let min_passes = if args.trace { 2 } else { 3 };
    let mut setup_times = Vec::new();
    loop {
        let mut set_ups = Vec::new();
        time_set_up(args, &mut set_ups);
        let want_trace = args.trace && traced.len() < untraced.len();
        let started = Instant::now();
        match pass::run(
            args.workload,
            &inputs,
            want_trace.then_some(origin),
            &mut kernel,
        ) {
            Ok(p) => {
                println!(
                    "# pass {:>3} {} solve_s {:.6} certify_s {:.6} slowdown {:.4}",
                    untraced.len() + traced.len() + 1,
                    if want_trace { "traced  " } else { "untraced" },
                    p.solve_s,
                    p.certify_s,
                    p.slowdown
                );
                setup_times.extend(set_ups.iter().map(|t| t / p.slowdown));
                if want_trace {
                    traced.push(p);
                } else {
                    untraced.push(p);
                }
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
        let enough = untraced.len() >= min_passes && (!args.trace || traced.len() >= min_passes);
        if (Instant::now() + started.elapsed() > deadline && enough)
            || origin.elapsed() >= HARD_STOP
        {
            break;
        }
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        errors.push("no complete pass within the time limit".into());
    }

    // Determinism gate: every pass of this build must repeat the warm-up
    // pass's verdicts and search counters exactly, traced or not.
    let keys = |calls: &[Call]| {
        calls
            .iter()
            .map(Call::key)
            .map(|k| format!("{k:?}"))
            .collect::<Vec<_>>()
    };
    let want = keys(&reference.calls);
    for (i, p) in untraced.iter().chain(&traced).enumerate() {
        if keys(&p.calls) != want {
            errors.push(format!(
                "pass {} repeated the inputs with different search counters",
                i + 1
            ));
        }
    }
    let fingerprint = provenance::fingerprint(&want);
    let work = |f: fn(&Call) -> u64| reference.calls.iter().map(f).sum::<u64>();
    println!(
        "# work per pass: calls {} conflicts {} decisions {} propagations {}",
        reference.calls.len(),
        work(|c| c.conflicts),
        work(|c| c.decisions),
        work(|c| c.propagations)
    );

    // Traced-run self-check: layer spans must cover each pass's traced
    // wall time within the stated tolerance.
    for p in &traced {
        let gap = report::unattributed_frac(p);
        if gap > report::SELF_CHECK_TOLERANCE {
            errors.push(format!(
                "layer spans leave {:.2}% of the traced wall time unattributed (tolerance {:.0}%)",
                gap * 100.0,
                report::SELF_CHECK_TOLERANCE * 100.0
            ));
        }
    }

    let all: Vec<&Pass> = std::iter::once(&reference)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    let attempted = all.iter().map(|p| p.calls.len()).sum::<usize>();
    let unsolved = all
        .iter()
        .flat_map(|p| &p.calls)
        .filter(|c| c.verdict == berkmin::SolveVerdict::Unknown)
        .count();

    let solved_frac = metrics::ratio((attempted - unsolved) as f64, attempted as f64);
    let e2e = report::end_to_end(
        &untraced,
        solved_frac,
        &Summary::of(&setup_times),
        peak_rss_mb,
    );
    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        report::per_layer(&traced, &untraced)
            .into_iter()
            .zip(report::PER_LAYER)
            .map(|((name, value), &(_, unit))| (name, value, unit))
            .collect()
    } else {
        e2e.iter()
            .zip(report::END_TO_END)
            .map(|(&(name, s), &(_, unit))| (name, s.median, unit))
            .collect()
    };

    for (name, s) in &e2e {
        println!(
            "# {:<12} median {:.6} q1 {:.6} q3 {:.6} spread {:.3} n {}",
            name,
            s.median,
            s.q1,
            s.q3,
            s.spread(),
            s.n
        );
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("# {name:<34} {value:.6} {unit}");
        }
    }

    let outcome = Outcome {
        errors,
        attempted,
        failed: unsolved,
        metrics,
        fingerprint,
        traced: traced.pop().and_then(|p| p.trace),
        setup_trace,
    };
    finish(args, outcome)
}

struct Outcome {
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    fingerprint: u64,
    traced: Option<trace::Trace>,
    setup_trace: trace::Trace,
}

impl Outcome {
    fn failed(error: String) -> Outcome {
        Outcome {
            errors: vec![error],
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            fingerprint: 0,
            traced: None,
            setup_trace: trace::Trace::new(Instant::now()),
        }
    }
}

/// Records the run, checks its counters against earlier runs of the same
/// build and seed, and prints the result line. Returns whether the run was
/// correct.
fn finish(args: &Args, mut outcome: Outcome) -> Result<bool, String> {
    let prov = provenance::Provenance::collect();
    if outcome.errors.is_empty() {
        if let Err(e) = provenance::check_counters(
            &args.results,
            &prov,
            args.workload.name(),
            args.seed,
            outcome.fingerprint,
        ) {
            outcome.errors.push(e);
        }
    }
    let correct = outcome.errors.is_empty();
    for e in &outcome.errors {
        eprintln!("perfbench: {e}");
    }
    let metrics = Value::Object(
        outcome
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Value::Object(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), m)
            })
            .collect(),
    );
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(outcome.attempted as u64)),
        (
            "failed".into(),
            Value::Int((outcome.failed + usize::from(!correct)).min(outcome.attempted) as u64),
        ),
        ("metrics".into(), metrics),
    ]);
    let record = Value::Object(vec![
        ("provenance".into(), prov.to_json()),
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::Int(args.seed)),
        ("seconds".into(), Value::Int(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "counters_fingerprint".into(),
            Value::Str(format!("{:016x}", outcome.fingerprint)),
        ),
        (
            "errors".into(),
            Value::Array(
                outcome
                    .errors
                    .iter()
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ),
        ("result".into(), result.clone()),
    ]);
    println!("# provenance {}", prov.to_json().render());
    provenance::append(&args.results, "runs.jsonl", &(record.render() + "\n"))?;
    let spans_file = format!(
        "spans-{}-seed{}-trace{}.jsonl",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut spans = outcome.setup_trace.to_json_lines("setup");
    if let Some(t) = &outcome.traced {
        spans.push_str(&t.to_json_lines("pass"));
    }
    provenance::write(&args.results, &spans_file, &spans)?;
    println!("{}", result.render());
    Ok(correct)
}
