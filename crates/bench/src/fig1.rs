//! Fig. 1 — "Switching of cone variables from 'idle' to active" (paper
//! §3/§5).
//!
//! The paper's figure shows an AND gate whose control pin gates a cone of
//! logic: with the pin at 0 the cone variables cannot matter; once it
//! switches to 1 they suddenly do, and a *mobile* decision heuristic must
//! refocus on them quickly. This experiment builds exactly that circuit —
//! `out = (cone ∧ control) ⊕ beyond` with a multiplier-parity cone (hard to
//! justify) and an adder-parity "beyond" region — and measures:
//!
//! 1. **idle vs active** — the share of conflict activity on cone
//!    variables with the control pin forced 0 vs forced 1;
//! 2. **mobility** — the per-window cone-decision fraction for BerkMin vs
//!    the `Less_mobility` arm on the active instance.

use std::collections::HashSet;
use std::io::Write;

use berkmin::{Budget, SolveStatus, Solver, SolverConfig};
use berkmin_circuit::{arith, tseitin::encode, Netlist};
use berkmin_cnf::{Cnf, Lit, Var};

use crate::{Outcome, TextTable};

const MUL_BITS: usize = 6;

/// Builds Fig. 1's circuit with arithmetic contents, with the control pin
/// forced to `active`. Returns the CNF and the set of CNF variables
/// belonging to the cone region. An active instance also pins the beyond
/// parity to 0, so the cone must supply the output's 1.
///
/// The cone is "the product of an array multiplier equals a semiprime", so
/// driving the cone output to 1 is a factoring search, rich in conflicts;
/// the beyond region is the parity of a ripple-carry-adder sum over its
/// own inputs.
fn build(active: bool) -> (Cnf, HashSet<usize>) {
    let mut n = Netlist::new();
    // Beyond inputs are declared FIRST so that zero-activity index-order
    // tie-breaking (before any conflicts exist) lands outside the cone.
    let beyond_in = n.inputs_n(2 * MUL_BITS + 1);
    let control_in = n.input();
    let cone_in = n.inputs_n(2 * MUL_BITS);

    let target: u64 = 37 * 53; // both factors fit in MUL_BITS bits
    let cone_start = n.num_nodes();
    let mul = arith::array_multiplier(MUL_BITS);
    let product = n.import(&mul, &cone_in);
    let eq_bits: Vec<_> = product
        .iter()
        .enumerate()
        .map(|(i, &p)| if target >> i & 1 == 1 { p } else { n.not(p) })
        .collect();
    let cone_out = n.and_reduce(&eq_bits);
    let cone_end = n.num_nodes();

    let add = arith::ripple_carry_adder(MUL_BITS);
    let sums = n.import(&add, &beyond_in);
    let beyond_out = n.xor_reduce(&sums);

    let gated = n.and(cone_out, control_in);
    let out = n.xor(gated, beyond_out);
    n.set_output(out);
    n.set_output(beyond_out);

    let mut enc = encode(&n);
    enc.constrain_output(0, true);
    if active {
        enc.cnf.add_clause([Lit::neg(enc.output_vars[1])]);
    }
    let control_var = enc.node_vars[control_in.index()];
    enc.cnf.add_clause([Lit::new(control_var, !active)]);

    let cone_vars: HashSet<usize> = (cone_start..cone_end)
        .map(|i| enc.node_vars[i].index())
        .chain(cone_in.iter().map(|c| enc.node_vars[c.index()].index()))
        .collect();
    (enc.cnf, cone_vars)
}

/// Solves `cnf` under `cfg` with a 30,000-conflict budget, checking any
/// model against the formula.
fn solve(cnf: &Cnf, mut cfg: SolverConfig) -> Solver {
    cfg.budget = Budget::conflicts(30_000);
    let mut solver = Solver::new(cnf, cfg);
    if let SolveStatus::Sat(model) = solver.solve() {
        assert!(cnf.is_satisfied_by(&model), "fig1: bad model");
    }
    solver
}

/// Share of the total `var_activity` mass sitting on cone variables — the
/// paper's own notion of "taking part in conflict making" (§3) — and the
/// conflicts it took.
fn cone_activity_share(cnf: &Cnf, cone: &HashSet<usize>) -> (f64, u64) {
    let solver = solve(cnf, SolverConfig::berkmin());
    let activity = |i: usize| solver.var_activity(Var::new(i as u32));
    let total_mass: u64 = (0..solver.num_vars()).map(activity).sum();
    let cone_mass: u64 = cone.iter().map(|&i| activity(i)).sum();
    let share = if total_mass == 0 {
        0.0
    } else {
        cone_mass as f64 / total_mass as f64
    };
    (share, solver.stats().conflicts)
}

/// Renders Fig. 1a (idle vs active activity share) and Fig. 1b (windowed
/// cone-decision fractions, BerkMin vs `Less_mobility`).
pub(crate) fn run(_: &[String], out: &mut dyn Write) -> Outcome {
    let (idle_cnf, idle_cone) = build(false);
    let (active_cnf, active_cone) = build(true);
    let (idle_share, idle_conf) = cone_activity_share(&idle_cnf, &idle_cone);
    let (active_share, active_conf) = cone_activity_share(&active_cnf, &active_cone);
    writeln!(
        out,
        "Fig. 1a — cone share of conflict activity (var_activity mass), control 0 vs 1:\n  \
         idle   (control=0): {idle_share:.3}  ({idle_conf} conflicts)\n  \
         active (control=1): {active_share:.3}  ({active_conf} conflicts)\n",
    )?;

    let window = 50usize;
    let mut table = TextTable::new(
        "Fig. 1b: fraction of decisions on cone variables per window of 50 decisions (control = 1)",
        &["Decision window", "BerkMin", "Less_mobility"],
    );
    let series: Vec<Vec<f64>> = [SolverConfig::berkmin(), SolverConfig::less_mobility()]
        .into_iter()
        .map(|mut cfg| {
            cfg.record_decisions = true;
            let solver = solve(&active_cnf, cfg);
            let log = &solver.stats().decision_log;
            log.chunks(window)
                .map(|chunk| {
                    let on_cone = chunk.iter().filter(|v| active_cone.contains(&v.index()));
                    on_cone.count() as f64 / chunk.len() as f64
                })
                .collect()
        })
        .collect();
    let rows = series[0].len().max(series[1].len()).min(24);
    for w in 0..rows {
        let cell = |s: &[f64]| s.get(w).map_or_else(|| "-".into(), |f| format!("{f:.3}"));
        table.add_row([
            format!("{}..{}", w * window, (w + 1) * window),
            cell(&series[0]),
            cell(&series[1]),
        ]);
    }
    table.write(out)?;
    let [berkmin, less] =
        [0, 1].map(|i| series[i].iter().sum::<f64>() / series[i].len().max(1) as f64);
    writeln!(
        out,
        "mean cone-decision fraction (active): BerkMin {berkmin:.3} vs Less_mobility {less:.3}"
    )?;
    Ok(())
}
