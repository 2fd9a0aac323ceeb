//! The microprocessor-verification class analogs: *Sss*, *Fvp-unsat*,
//! *Vliw-sat* (Velev's CMU suites, §4/§9).
//!
//! The original CNFs check pipelined processor implementations against
//! sequential reference models; after Burch–Dill flushing the obligation
//! is a *combinational* equivalence between two datapaths. We regenerate
//! that shape: an ALU datapath vs. a `k`-round restructured copy (UNSAT —
//! the `Npipe` family, difficulty rising with `k`), satisfiable variants
//! with an injected stage bug (*Sss-sat*, *Vliw-sat*).

use berkmin_circuit::rewrite::{inject_fault, restructure};
use berkmin_circuit::{arith, eval64, miter, miter_cnf, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BenchInstance;

/// Builds the reference datapath: an ALU of the given width feeding a
/// comparator-style zero flag — the flushed-pipeline proof obligation.
fn datapath(width: usize) -> Netlist {
    arith::alu(width)
}

/// The `Npipe` analog (Fvp-unsat-2.0's `4pipe … 7pipe`): the execution
/// stage's multiplier datapath mitered against a restructured
/// implementation. Widths are chosen so difficulty rises steeply with `k`
/// exactly as the paper's pipe family does (measured on this codebase:
/// `4pipe` ≈ 0.3 s, `5pipe` ≈ 2 s, `6pipe` ≈ 13 s, `7pipe` ≈ minutes with
/// the default configuration). UNSAT.
pub fn npipe(k: usize) -> BenchInstance {
    assert!(k > 0, "pipeline depth must be positive");
    // Multiplier operand widths per depth: the partial-product count is
    // the difficulty dial.
    let (a_bits, b_bits) = match k {
        1 => (4, 4),
        2 => (5, 5),
        3 => (5, 6),
        4 => (6, 6),
        5 => (6, 7),
        6 => (7, 7),
        _ => (7, k + 1), // 7pipe = 7×8, growing beyond
    };
    let reference = arith::array_multiplier_rect(a_bits, b_bits);
    let mut impl_ = reference.clone();
    for round in 0..k.min(3) {
        impl_ = restructure(&impl_, 0xF00D + round as u64);
    }
    BenchInstance::new(
        format!("{k}pipe"),
        miter_cnf(&reference, &impl_),
        Some(false),
    )
}

/// An out-of-order flavored variant (`6pipe_6_ooo` analog): the datapath
/// restructured with a different seed schedule and an extra multiplier
/// stage mixed in.
pub fn npipe_ooo(k: usize) -> BenchInstance {
    assert!(k > 1, "ooo variant needs depth ≥ 2");
    let width = 2 * k;
    // Reference: ALU result XOR-folded with a small multiplier of the low
    // operand bits — models a second functional unit.
    let build = |seed: u64| -> Netlist {
        let mut n = Netlist::new();
        let a = n.inputs_n(width);
        let b = n.inputs_n(width);
        let op0 = n.input();
        let op1 = n.input();
        let alu = datapath(width);
        let mut alu_inputs: Vec<_> = a.iter().chain(&b).copied().collect();
        alu_inputs.push(op0);
        alu_inputs.push(op1);
        let alu_out = n.import(&alu, &alu_inputs);
        let mul = arith::array_multiplier(2);
        let mul_inputs = vec![a[0], a[1], b[0], b[1]];
        let mul_out = n.import(&mul, &mul_inputs);
        for (i, &o) in alu_out.iter().enumerate() {
            let folded = if i < mul_out.len() {
                n.xor(o, mul_out[i])
            } else {
                o
            };
            n.set_output(folded);
        }
        if seed == 0 {
            n
        } else {
            let mut out = n;
            for round in 0..k {
                out = restructure(&out, seed + round as u64);
            }
            out
        }
    };
    let reference = build(0);
    let impl_ = build(0xBEEF);
    BenchInstance::new(
        format!("{k}pipe_{k}_ooo"),
        miter_cnf(&reference, &impl_),
        Some(false),
    )
}

/// The *Vliw-sat* analog: a wide datapath with an injected, observable
/// stage bug — satisfiable, with rare counterexamples.
pub fn vliw_sat(width: usize, seed: u64) -> BenchInstance {
    let reference = datapath(width);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E57);
    let mut fault_seed = seed;
    loop {
        let staged = restructure(&reference, seed.wrapping_add(0xACE));
        if let Some((buggy, _)) = inject_fault(&staged, fault_seed) {
            if observable(&reference, &buggy, &mut rng) {
                return BenchInstance::new(
                    format!("vliw{width}_{seed}"),
                    miter_cnf(&reference, &buggy),
                    Some(true),
                );
            }
        }
        fault_seed = fault_seed.wrapping_add(1);
    }
}

/// The *Sss* analog: small, easy mixed instances (the paper solves the
/// whole Sss1.0 class in seconds). `bug = false` gives the UNSAT
/// correctness check, `bug = true` the SAT falsification check.
pub fn sss_check(width: usize, bug: bool, seed: u64) -> BenchInstance {
    let reference = datapath(width);
    if !bug {
        let impl_ = restructure(&reference, seed);
        BenchInstance::new(
            format!("sss{width}_{seed}"),
            miter_cnf(&reference, &impl_),
            Some(false),
        )
    } else {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let mut fault_seed = seed;
        loop {
            if let Some((buggy, _)) = inject_fault(&reference, fault_seed) {
                if observable(&reference, &buggy, &mut rng) {
                    return BenchInstance::new(
                        format!("sss{width}_{seed}s"),
                        miter_cnf(&reference, &buggy),
                        Some(true),
                    );
                }
            }
            fault_seed = fault_seed.wrapping_add(1);
        }
    }
}

fn observable(a: &Netlist, b: &Netlist, rng: &mut StdRng) -> bool {
    let m = miter(a, b);
    for _ in 0..32 {
        let words: Vec<u64> = (0..m.num_inputs()).map(|_| rng.gen()).collect();
        if eval64(&m, &words)[0] != 0 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use berkmin::{Solver, SolverConfig};

    #[test]
    fn npipe_instances_are_unsat() {
        for k in 1..=2 {
            let inst = npipe(k);
            let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
            assert!(s.solve().is_unsat(), "{}", inst.name);
        }
    }

    #[test]
    fn ooo_variant_is_unsat() {
        let inst = npipe_ooo(2);
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn vliw_instances_are_sat() {
        let inst = vliw_sat(4, 1);
        let mut s = Solver::new(&inst.cnf, SolverConfig::berkmin());
        let status = s.solve();
        assert!(status.is_sat());
        assert!(inst.cnf.is_satisfied_by(status.model().unwrap()));
    }

    #[test]
    fn sss_pair_has_expected_verdicts() {
        let ok = sss_check(3, false, 2);
        let mut s = Solver::new(&ok.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_unsat());

        let bad = sss_check(3, true, 2);
        let mut s = Solver::new(&bad.cnf, SolverConfig::berkmin());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn difficulty_grows_with_depth() {
        // Deeper pipes must produce strictly larger CNFs (the difficulty
        // dial actually turns).
        let a = npipe(1);
        let b = npipe(2);
        assert!(b.cnf.num_clauses() > a.cnf.num_clauses());
        assert!(b.cnf.num_vars() > a.cnf.num_vars());
    }
}
