//! The four workloads: which instances each one generates from the seed,
//! how they are solved, and why each was chosen.
//!
//! Every input is made here from `--seed`; the solver only ever sees the
//! generated DIMACS text (or, for the BMC sweep, the netlist handed to
//! `BmcDriver`). The same seed gives byte-identical inputs.

use berkmin::SolverConfig;
use berkmin_circuit::arith::enabled_counter;
use berkmin_circuit::Netlist;
use berkmin_cnf::{dimacs, Clause, Cnf, Lit, Var};
use berkmin_gens::{bmc_gen, hanoi, hole, ksat, miters, pipeline, BenchInstance};

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Propagation-bound structured rows (miters, pipelines, planning,
    /// BMC, parity), default configuration, no proof.
    Structured,
    /// Threshold random 3-SAT of both verdicts plus pigeonhole, with DRAT
    /// logging on and every refutation checked.
    RandomCertified,
    /// Large under-constrained formulas with bounded variable elimination
    /// on: parse, ingest, simplify and free-variable decisions dominate.
    LargeEasy,
    /// Many short solve calls on one warm engine through `BmcDriver`.
    IncrementalBmc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Structured,
        Workload::RandomCertified,
        Workload::LargeEasy,
        Workload::IncrementalBmc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Structured => "structured",
            Workload::RandomCertified => "random-certified",
            Workload::LargeEasy => "large-easy",
            Workload::IncrementalBmc => "incremental-bmc",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The solver configuration, exactly as the CLI builds it for the
    /// equivalent command line (`--elim` on `large-easy`).
    pub fn config(self) -> SolverConfig {
        let mut config = SolverConfig::berkmin();
        if self == Workload::LargeEasy {
            config.simplify.var_elim = true;
        }
        config
    }

    /// Whether DRAT logging is on and every refutation is checked.
    pub fn logs_proofs(self) -> bool {
        self == Workload::RandomCertified
    }
}

/// One generated instance, rendered the way a user would hand it over.
#[derive(Debug, Clone)]
pub struct Instance {
    pub name: String,
    /// The formula the text encodes; models and proofs are certified
    /// against it.
    pub cnf: Cnf,
    /// DIMACS text, the solver's only input.
    pub text: String,
    /// Verdict guaranteed by construction, when there is one.
    pub expected: Option<bool>,
    /// Deterministic conflict budget; hitting it counts as unsolved.
    pub budget: u64,
}

/// One incremental BMC sweep over the enabled counter: one query per
/// depth, each asking whether every output bit can be 1 at that depth.
#[derive(Debug, Clone)]
pub struct Sweep {
    pub name: String,
    pub netlist: Netlist,
    /// (output, value) pairs in the order they are posed to the driver.
    pub pattern: Vec<(usize, bool)>,
    /// Verdict of the query at each depth, from the matching scratch
    /// instance's `BenchInstance::expected`.
    pub expected: Vec<bool>,
    /// Per-call conflict budget.
    pub budget: u64,
}

/// Everything one workload solves in one pass.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    pub instances: Vec<Instance>,
    pub sweeps: Vec<Sweep>,
}

/// Per-instance conflict budgets: at least 5× the conflicts any seed
/// needed while the sizes were chosen.
const STRUCTURED_BUDGET: u64 = 300_000;
const RANDOM_BUDGET: u64 = 200_000;
const LARGE_BUDGET: u64 = 50_000;
const BMC_CALL_BUDGET: u64 = 100_000;

/// Random 3-SAT size of `random-certified`: 140 variables at the 4.26
/// threshold ratio (about half of the formulas are UNSAT).
const RANDOM_VARS: usize = 140;
const RANDOM_INSTANCES: u64 = 64;

/// Planted 3-SAT of `large-easy`: sixteen formulas of 8 000 variables at
/// ratio 2.8. At ratio 3.0 one scramble in ten runs into hundreds of
/// conflicts; at 2.8 every formula stays under about twenty, so the pass
/// time is the decisions and the layers around them, as intended.
const LARGE_VARS: usize = 8_000;
const LARGE_CLAUSES: usize = 22_400;
const LARGE_INSTANCES: u64 = 16;

/// Counter width of the BMC sweeps: 2^7 = 128 solve calls per sweep.
const BMC_BITS: usize = 7;
/// Sweeps per pass, each posing the property literals in its own order.
const BMC_SWEEPS: usize = 2;

/// Generates the inputs of `workload` for `seed`, calling `on_instance`
/// with the generation and rendering time of each instance (seconds).
pub fn generate(
    workload: Workload,
    seed: u64,
    mut on_instance: impl FnMut(&str, f64, f64),
) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0xBE4C_0000 ^ workload as u64);
    let mut inputs = Inputs::default();
    let mut add = |make: &dyn Fn(u64) -> BenchInstance, budget: u64, rng: &mut SplitMix| {
        let t0 = std::time::Instant::now();
        let inst = make(rng.next());
        let t1 = std::time::Instant::now();
        let text = dimacs::to_string(&inst.cnf);
        let t2 = std::time::Instant::now();
        on_instance(&inst.name, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        inputs.instances.push(Instance {
            name: inst.name,
            cnf: inst.cnf,
            text,
            expected: inst.expected,
            budget,
        });
    };
    match workload {
        Workload::Structured => {
            // (copies, row). Many mid-size copies of similar weight keep
            // the pass time steady from seed to seed, and the six `3pipe`
            // copies are the slowest tenth of the calls, so the p90 call is
            // one of them rather than whichever smaller row ran long. Each
            // copy is scrambled with its own seed.
            let rows: [(usize, &dyn Fn(u64) -> BenchInstance); 8] = [
                (6, &|s| scramble(&pipeline::npipe(3), s)),
                (4, &|s| scramble(&pipeline::npipe_ooo(5), s)),
                (3, &|s| scramble(&pipeline::npipe_ooo(4), s)),
                (5, &|s| scramble(&miters::multiplier_miter(5, 0), s)),
                (5, &|s| scramble(&miters::wallace_vs_array_miter(5), s)),
                (3, &|s| scramble(&miters::adder_arch_miter(32), s)),
                (3, &|s| scramble(&hanoi::hanoi(5), s)),
                (5, &|s| scramble(&bmc_gen::bmc_counter_enable(6), s)),
            ];
            for (copies, make) in rows {
                for _ in 0..copies {
                    add(make, STRUCTURED_BUDGET, &mut rng);
                }
            }
        }
        Workload::RandomCertified => {
            // A fixed population of threshold formulas, scrambled by the
            // seed: fresh formulas per seed would swing the pass time by
            // far more than any change to the solver.
            let m = (RANDOM_VARS as f64 * 4.26).round() as usize;
            for i in 0..RANDOM_INSTANCES {
                add(
                    &|s| scramble(&ksat::random_ksat(RANDOM_VARS, m, 3, i), s),
                    RANDOM_BUDGET,
                    &mut rng,
                );
            }
            add(
                &|s| scramble(&hole::pigeonhole(6), s),
                RANDOM_BUDGET,
                &mut rng,
            );
            add(
                &|s| scramble(&hole::pigeonhole(7), s),
                RANDOM_BUDGET,
                &mut rng,
            );
        }
        Workload::LargeEasy => {
            for i in 0..LARGE_INSTANCES {
                add(
                    &|s| scramble(&ksat::planted_ksat(LARGE_VARS, LARGE_CLAUSES, 3, i), s),
                    LARGE_BUDGET,
                    &mut rng,
                );
            }
            // Two copies of the longest unrolling, which search alone never
            // slows, are the slowest tenth of the calls: the p90 call is
            // one of them, not whichever planted scramble ran longest.
            for _ in 0..2 {
                add(
                    &|s| scramble(&bmc_gen::bmc_fifo(128, 400), s),
                    LARGE_BUDGET,
                    &mut rng,
                );
            }
        }
        Workload::IncrementalBmc => {
            // The verdict of each depth comes from the scratch instance
            // the generators build for it; one set serves every sweep.
            let t0 = std::time::Instant::now();
            let expected: Vec<bool> = (0..1 << BMC_BITS)
                .map(|depth| {
                    bmc_gen::bmc_counter_enable_at(BMC_BITS, depth)
                        .expected
                        .expect("the counter's reachability is known by construction")
                })
                .collect();
            on_instance("expected verdicts", t0.elapsed().as_secs_f64(), 0.0);
            for sweep in 0..BMC_SWEEPS {
                let t0 = std::time::Instant::now();
                let netlist = enabled_counter(BMC_BITS);
                let mut pattern: Vec<(usize, bool)> = (0..BMC_BITS).map(|o| (o, true)).collect();
                rng.shuffle(&mut pattern);
                let name = format!("cnt{BMC_BITS}e-sweep{sweep}");
                on_instance(&name, t0.elapsed().as_secs_f64(), 0.0);
                inputs.sweeps.push(Sweep {
                    name,
                    netlist,
                    pattern,
                    expected: expected.clone(),
                    budget: BMC_CALL_BUDGET,
                });
            }
        }
    }
    inputs
}

/// An isomorphic copy of `inst`: variables renamed by a random
/// permutation, polarities flipped at random, clauses and the literals
/// inside them shuffled. The verdict is unchanged; the search is not.
pub fn scramble(inst: &BenchInstance, seed: u64) -> BenchInstance {
    let mut rng = SplitMix::new(seed);
    let n = inst.cnf.num_vars();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let flip: Vec<bool> = (0..n).map(|_| rng.next() & 1 == 1).collect();
    let mut clauses: Vec<Vec<Lit>> = inst
        .cnf
        .iter()
        .map(|c| {
            c.iter()
                .map(|l| {
                    let v = l.var().index();
                    Lit::new(Var::new(perm[v]), l.is_negative() ^ flip[v])
                })
                .collect()
        })
        .collect();
    rng.shuffle(&mut clauses);
    let mut cnf = Cnf::with_vars(n);
    for mut lits in clauses {
        rng.shuffle(&mut lits);
        cnf.push_clause(Clause::from_lits(lits));
    }
    BenchInstance::new(format!("{}~{seed:x}", inst.name), cnf, inst.expected)
}

/// SplitMix64: a tiny, fully specified generator, so the inputs of a seed
/// never depend on another crate's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = generate(Workload::RandomCertified, 7, |_, _, _| {});
        let b = generate(Workload::RandomCertified, 7, |_, _, _| {});
        let c = generate(Workload::RandomCertified, 8, |_, _, _| {});
        let texts = |i: &Inputs| {
            i.instances
                .iter()
                .map(|x| x.text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
    }

    #[test]
    fn scramble_keeps_the_verdict() {
        let base = hole::pigeonhole(3);
        let s = scramble(&base, 42);
        assert_eq!(s.expected, Some(false));
        assert_eq!(s.cnf.num_clauses(), base.cnf.num_clauses());
        assert_eq!(s.cnf.solve_by_enumeration(), None);
        let sat = scramble(&hole::pigeonhole_sat(3), 42);
        let model = sat.cnf.solve_by_enumeration().expect("still satisfiable");
        assert!(sat.cnf.is_satisfied_by(&model));
    }

    #[test]
    fn rendered_text_parses_back_to_the_formula() {
        let inputs = generate(Workload::Structured, 1, |_, _, _| {});
        for inst in inputs.instances.iter().take(3) {
            let parsed = dimacs::parse(&inst.text).expect("valid DIMACS");
            assert_eq!(parsed.clauses(), inst.cnf.clauses(), "{}", inst.name);
        }
    }
}
