//! Turning passes into the named metrics of `BENCHMARK.json`.

use berkmin::Stats;

use crate::metrics::{clauses_removed_frac, percentile, ratio, top_scan_mean, Summary};
use crate::pass::Pass;

/// End-to-end metrics: name and unit. Measured on untraced passes only.
/// Every time is scaled to the nominal machine (see [`crate::calibrate`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("certified_s", "s"),
    ("solved_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
];

/// Per-layer metrics: name and unit. Measured on traced passes; a layer
/// that does not run on a workload reports 0. Times are scaled to the
/// nominal machine like the end-to-end ones; `calibrate.slowdown` gives the
/// factor back.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cnf.parse_s", "s"),
    ("cnf.parse_mb_per_s", "MB/s"),
    ("solver.ingest_s", "s"),
    ("preprocess.simplify_s", "s"),
    ("preprocess.subsumed", "count"),
    ("preprocess.strengthened", "count"),
    ("preprocess.vars_eliminated", "count"),
    ("preprocess.resolvents", "count"),
    ("preprocess.clauses_removed_frac", "ratio"),
    ("search.search_s", "s"),
    ("search.conflicts", "count"),
    ("search.decisions", "count"),
    ("search.propagations", "count"),
    ("limits.restarts", "count"),
    ("search.props_per_s", "1/s"),
    ("search.conflicts_per_s", "1/s"),
    ("search.props_per_conflict", "ratio"),
    ("decide.free_var_frac", "ratio"),
    ("decide.top_scan_mean", "clauses"),
    ("analyze.learnt_len_mean", "lits"),
    ("analyze.lbd_mean", "levels"),
    ("analyze.responsible_per_conflict", "clauses"),
    ("reduce.reduce_s", "s"),
    ("reduce.reductions", "count"),
    ("reduce.deleted_clauses", "count"),
    ("reduce.gc_words_reclaimed", "words"),
    ("reduce.peak_db_ratio", "ratio"),
    ("proof.additions", "count"),
    ("proof.deletions", "count"),
    ("proof.bytes", "bytes"),
    ("drat.check_s", "s"),
    ("drat.additions_checked", "count"),
    ("drat.check_per_solve", "ratio"),
    ("model.check_s", "s"),
    ("bmc.encode_s", "s"),
    ("bmc.calls", "count"),
    ("bmc.conflicts_per_call", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("calibrate.slowdown", "ratio"),
];

/// Largest share of an instance's traced wall time that may fall outside
/// every layer span (the glue between the benchmark's own calls).
pub const SELF_CHECK_TOLERANCE: f64 = 0.02;

/// The latency of each solve call, milliseconds: its median over the
/// passes, so that a stall that hits one call in one pass does not move a
/// percentile. Every pass makes the same calls in the same order.
fn call_latencies(passes: &[Pass]) -> Vec<f64> {
    let calls = passes.first().map_or(0, |p| p.calls.len());
    let mut ms: Vec<f64> = (0..calls)
        .map(|i| {
            let runs: Vec<f64> = passes
                .iter()
                .map(|p| p.calls[i].call_s * 1e3 / p.slowdown)
                .collect();
            Summary::of(&runs).median
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// The end-to-end metrics of a run, with the timing summaries behind them.
pub fn end_to_end(
    untraced: &[Pass],
    solved_frac: f64,
    setup: &Summary,
    peak_rss_mb: f64,
) -> Vec<(&'static str, Summary)> {
    let solve: Vec<f64> = untraced.iter().map(Pass::scaled_solve_s).collect();
    let certified: Vec<f64> = untraced
        .iter()
        .map(|p| (p.solve_s + p.certify_s) / p.slowdown)
        .collect();
    let calls = call_latencies(untraced);
    let exact = |x: f64| Summary::of(&[x]);
    vec![
        ("solve_s", Summary::of(&solve)),
        ("certified_s", Summary::of(&certified)),
        ("solved_frac", exact(solved_frac)),
        ("setup_s", *setup),
        ("peak_rss_mb", exact(peak_rss_mb)),
        ("call_p50_ms", exact(percentile(&calls, 50.0))),
        ("call_p90_ms", exact(percentile(&calls, 90.0))),
    ]
}

/// The per-layer metrics of one traced pass.
pub fn layers(pass: &Pass) -> Vec<(&'static str, f64)> {
    let trace = pass.trace.as_ref().expect("a traced pass");
    let sum = |f: fn(&Stats) -> u64| pass.stats.iter().map(f).sum::<u64>() as f64;
    let total = |name: &str| trace.total(name) / pass.slowdown;
    let parse_s = total("parse");
    let search_s = total("search");
    let conflicts = sum(|s| s.conflicts);
    let propagations = sum(|s| s.propagations);
    let decisions = sum(|s| s.decisions);
    let learnt = sum(|s| s.learnt_total);
    let mut hist: Vec<u64> = Vec::new();
    for s in &pass.stats {
        if hist.len() < s.top_distance_hist.len() {
            hist.resize(s.top_distance_hist.len(), 0);
        }
        for (slot, f) in hist.iter_mut().zip(&s.top_distance_hist) {
            *slot += f;
        }
    }
    let peak_db_ratio = pass
        .stats
        .iter()
        .map(Stats::peak_memory_ratio)
        .fold(0.0, f64::max);
    let bmc_calls = trace.spans.iter().filter(|s| s.name == "call").count() as f64;
    let drat_s = total("drat_check");
    vec![
        ("cnf.parse_s", parse_s),
        (
            "cnf.parse_mb_per_s",
            ratio(pass.text_bytes as f64 / 1e6, parse_s),
        ),
        ("solver.ingest_s", total("ingest") + total("encode")),
        ("preprocess.simplify_s", total("simplify")),
        ("preprocess.subsumed", sum(|s| s.clauses_subsumed)),
        ("preprocess.strengthened", sum(|s| s.clauses_strengthened)),
        ("preprocess.vars_eliminated", sum(|s| s.vars_eliminated)),
        ("preprocess.resolvents", sum(|s| s.elim_resolvents)),
        (
            "preprocess.clauses_removed_frac",
            clauses_removed_frac(&pass.simplify_runs),
        ),
        ("search.search_s", search_s),
        ("search.conflicts", conflicts),
        ("search.decisions", decisions),
        ("search.propagations", propagations),
        ("limits.restarts", sum(|s| s.restarts)),
        ("search.props_per_s", ratio(propagations, search_s)),
        ("search.conflicts_per_s", ratio(conflicts, search_s)),
        ("search.props_per_conflict", ratio(propagations, conflicts)),
        (
            "decide.free_var_frac",
            ratio(sum(|s| s.decisions_from_free_var), decisions),
        ),
        ("decide.top_scan_mean", top_scan_mean(&hist)),
        (
            "analyze.learnt_len_mean",
            ratio(sum(|s| s.learnt_lits_total), learnt),
        ),
        ("analyze.lbd_mean", ratio(sum(|s| s.lbd_sum), learnt)),
        (
            "analyze.responsible_per_conflict",
            ratio(sum(|s| s.responsible_clauses), conflicts),
        ),
        ("reduce.reduce_s", total("reduce")),
        ("reduce.reductions", sum(|s| s.reductions)),
        ("reduce.deleted_clauses", sum(|s| s.deleted_clauses)),
        ("reduce.gc_words_reclaimed", sum(|s| s.gc_words_reclaimed)),
        ("reduce.peak_db_ratio", peak_db_ratio),
        ("proof.additions", pass.proof_additions as f64),
        ("proof.deletions", pass.proof_deletions as f64),
        ("proof.bytes", pass.proof_bytes as f64),
        ("drat.check_s", drat_s),
        ("drat.additions_checked", pass.drat_additions_checked as f64),
        (
            "drat.check_per_solve",
            ratio(drat_s, pass.checked_solve_s / pass.slowdown),
        ),
        ("model.check_s", total("model_check")),
        ("bmc.encode_s", total("encode")),
        ("bmc.calls", bmc_calls),
        ("bmc.conflicts_per_call", ratio(conflicts, bmc_calls)),
        ("trace.unattributed_frac", unattributed_frac(pass)),
        ("calibrate.slowdown", pass.slowdown),
    ]
}

/// Share of the traced wall time of the pass's instances (or BMC calls)
/// that no layer span covers.
pub fn unattributed_frac(pass: &Pass) -> f64 {
    let trace = pass.trace.as_ref().expect("a traced pass");
    let selfs = trace.self_times();
    let (mut uncovered, mut wall) = (0.0, 0.0);
    for (span, own) in trace.spans.iter().zip(&selfs) {
        if span.parent.is_none() {
            uncovered += own;
            wall += span.duration();
        }
    }
    ratio(uncovered, wall)
}

/// The per-layer metrics of a run, in the order of [`PER_LAYER`]: the
/// median over its traced passes, plus the tracing overhead measured
/// against the untraced passes of the same run.
pub fn per_layer(traced: &[Pass], untraced: &[Pass]) -> Vec<(&'static str, f64)> {
    let samples: Vec<Vec<(&'static str, f64)>> = traced.iter().map(layers).collect();
    let med =
        |ps: &[Pass]| Summary::of(&ps.iter().map(Pass::scaled_solve_s).collect::<Vec<_>>()).median;
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if name == "telemetry.overhead_frac" {
                return (name, ratio(med(traced), med(untraced)) - 1.0);
            }
            let values: Vec<f64> = samples
                .iter()
                .map(|s| {
                    s.iter()
                        .find(|(n, _)| *n == name)
                        .expect("every layer metric computed")
                        .1
                })
                .collect();
            (name, Summary::of(&values).median)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_latency_is_the_median_over_passes_on_the_nominal_machine() {
        let pass = |slowdown: f64, secs: &[f64]| Pass {
            calls: secs
                .iter()
                .map(|&call_s| crate::pass::Call {
                    name: String::new(),
                    verdict: berkmin::SolveVerdict::Sat,
                    conflicts: 0,
                    decisions: 0,
                    propagations: 0,
                    call_s,
                })
                .collect(),
            slowdown,
            ..Pass::default()
        };
        // The second call stalls in one pass only; the third pass ran on a
        // machine twice as slow.
        let passes = [
            pass(1.0, &[0.001, 0.004]),
            pass(1.0, &[0.001, 0.040]),
            pass(2.0, &[0.002, 0.008]),
        ];
        assert_eq!(call_latencies(&passes), vec![1.0, 4.0]);
    }

    #[test]
    fn benchmark_json_names_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = berkmin::telemetry::json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn every_layer_metric_is_computed() {
        let traced = || {
            let mut trace = crate::trace::Trace::new(std::time::Instant::now());
            let root = trace.open("instance", None);
            trace.close(root);
            Pass {
                trace: Some(trace),
                stats: vec![Stats::default()],
                slowdown: 1.0,
                ..Pass::default()
            }
        };
        let names: Vec<&str> = per_layer(&[traced()], &[Pass::default()])
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, table);
        assert_eq!(layers(&traced()).len() + 1, PER_LAYER.len());
    }
}
