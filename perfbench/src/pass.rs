//! One pass over a workload: every instance (or BMC sweep) solved and
//! certified once, through the same public calls the CLI makes.
//!
//! An untraced pass streams the DIMACS text into a `SolverBuilder`-built
//! engine with `dimacs::stream_into`, exactly like `berkmin-cli`. A traced
//! pass makes the same solver calls in the same order, but parses with
//! `dimacs::parse` and feeds the clauses with an explicit `add_clause` loop
//! so that parsing and ingest can be timed apart, and installs an event
//! tap to cut the solve call into its layers.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use berkmin::{Budget, SatEngine, SolveEvent, SolveStatus, SolveVerdict, SolverBuilder, Stats};
use berkmin_circuit::bmc::BmcDriver;
use berkmin_cnf::{dimacs, Assignment, Cnf, Lit};
use berkmin_drat::{check_refutation, DratProof};

use crate::calibrate::Reference;
use crate::trace::{EventTap, Trace};
use crate::workload::{Inputs, Instance, Sweep, Workload};

/// One solve call and the search counters it spent.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    pub name: String,
    pub verdict: SolveVerdict,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    /// Latency of the call, seconds.
    pub call_s: f64,
}

impl Call {
    /// The part of the call that must repeat exactly between runs.
    pub fn key(&self) -> (&str, SolveVerdict, u64, u64, u64) {
        (
            &self.name,
            self.verdict,
            self.conflicts,
            self.decisions,
            self.propagations,
        )
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub calls: Vec<Call>,
    /// DIMACS text (or netlist) to verdict, summed over the pass.
    pub solve_s: f64,
    /// Independent certification of the answers, summed over the pass.
    pub certify_s: f64,
    /// Final statistics of every engine the pass built.
    pub stats: Vec<Stats>,
    /// DIMACS bytes parsed.
    pub text_bytes: usize,
    /// (clauses before, clauses after) of every simplifier run (traced).
    pub simplify_runs: Vec<(u64, u64)>,
    pub proof_additions: u64,
    pub proof_deletions: u64,
    pub proof_bytes: u64,
    pub drat_additions_checked: u64,
    /// Solve time of the instances whose refutations were DRAT-checked.
    pub checked_solve_s: f64,
    /// The spans of a traced pass.
    pub trace: Option<Trace>,
    /// How much slower than nominal the reference kernel ran during the
    /// pass; every time of the pass is reported divided by it.
    pub slowdown: f64,
}

impl Pass {
    /// `solve_s` on the nominal machine.
    pub fn scaled_solve_s(&self) -> f64 {
        self.solve_s / self.slowdown
    }
}

/// How an answer was certified.
enum Certificate {
    Model,
    Drat(u64),
    ByConstruction,
    Unsolved,
}

/// Runs one pass over `inputs`. Returns an error on a wrong verdict, a
/// model that falsifies a clause, a rejected proof or a DIMACS error —
/// never a number. Reference chunks run between calls, outside every
/// timed interval.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    traced: Option<Instant>,
    reference: &mut Reference,
) -> Result<Pass, String> {
    let mut pass = Pass {
        trace: traced.map(Trace::new),
        ..Pass::default()
    };
    reference.chunk();
    for inst in &inputs.instances {
        solve_instance(workload, inst, &mut pass)?;
        reference.pace();
    }
    for sweep in &inputs.sweeps {
        run_sweep(workload, sweep, &mut pass, reference)?;
    }
    pass.slowdown = reference.take_slowdown();
    Ok(pass)
}

fn builder_for(workload: Workload, budget: u64) -> SolverBuilder {
    SolverBuilder::with_config(workload.config().with_budget(Budget::conflicts(budget)))
}

fn solve_instance(workload: Workload, inst: &Instance, pass: &mut Pass) -> Result<(), String> {
    let proof = Rc::new(RefCell::new(DratProof::new()));
    let logs_proofs = workload.logs_proofs();
    let status;
    let engine;
    let solve_s;
    let call_s;
    if let Some(trace) = pass.trace.as_mut() {
        let tap = EventTap::default();
        let root = trace.open("instance", None);
        let span = trace.open("parse", Some(root));
        let cnf = dimacs::parse(&inst.text).map_err(|e| format!("{}: {e}", inst.name))?;
        trace.close(span);
        let ingest = trace.open("ingest", Some(root));
        let mut builder = builder_for(workload, inst.budget).on_event(tap.observer());
        if logs_proofs {
            builder = builder.proof(Rc::clone(&proof));
        }
        let mut e = builder.build_engine();
        e.reserve_vars(cnf.num_vars());
        for clause in cnf.iter() {
            e.add_clause(clause.lits());
        }
        trace.close(ingest);
        let solve = trace.open("solve", Some(root));
        status = e.solve();
        trace.close(solve);
        let certify_span = trace.open("certify", Some(root));
        let t0 = Instant::now();
        let cert = certify(inst, &status, logs_proofs.then(|| proof.borrow()))?;
        let t1 = Instant::now();
        match cert {
            Certificate::Model => _ = trace.record("model_check", Some(certify_span), t0, t1),
            Certificate::Drat(_) => _ = trace.record("drat_check", Some(certify_span), t0, t1),
            Certificate::ByConstruction | Certificate::Unsolved => {}
        }
        trace.close(certify_span);
        trace.close(root);

        // Bookkeeping outside the spans.
        if cnf.clauses() != inst.cnf.clauses() {
            return Err(format!("{}: dimacs::parse changed the formula", inst.name));
        }
        let events = tap.drain();
        pass.simplify_runs.extend(simplify_runs(&events));
        trace.split_solve(solve, &events);
        let spans = &trace.spans;
        solve_s = spans[solve].end - spans[root].start;
        call_s = spans[solve].duration();
        pass.certify_s += trace.spans[certify_span].duration();
        if let Certificate::Drat(checked) = cert {
            pass.drat_additions_checked += checked;
            pass.checked_solve_s += call_s;
        }
        if logs_proofs {
            let p = proof.borrow();
            pass.proof_additions += p.num_additions() as u64;
            pass.proof_deletions += p.num_deletions() as u64;
            pass.proof_bytes += p.to_text().len() as u64;
        }
        engine = e;
    } else {
        let t0 = Instant::now();
        let mut builder = builder_for(workload, inst.budget);
        if logs_proofs {
            builder = builder.proof(Rc::clone(&proof));
        }
        let mut e = builder.build_engine();
        dimacs::stream_into(inst.text.as_bytes(), &mut e)
            .map_err(|err| format!("{}: {err}", inst.name))?;
        let c0 = Instant::now();
        status = e.solve();
        let t1 = Instant::now();
        certify(inst, &status, logs_proofs.then(|| proof.borrow()))?;
        let t2 = Instant::now();
        solve_s = (t1 - t0).as_secs_f64();
        call_s = (t1 - c0).as_secs_f64();
        pass.certify_s += (t2 - t1).as_secs_f64();
        engine = e;
    }
    pass.solve_s += solve_s;
    pass.text_bytes += inst.text.len();
    let s = engine.stats().clone();
    pass.calls.push(Call {
        name: inst.name.clone(),
        verdict: SolveVerdict::from(&status),
        conflicts: s.conflicts,
        decisions: s.decisions,
        propagations: s.propagations,
        call_s,
    });
    pass.stats.push(s);
    Ok(())
}

/// Certifies one answer with code that shares nothing with the engine:
/// models are checked clause by clause against the generated formula, and
/// refutations are checked by the DRAT checker when a proof was logged.
fn certify(
    inst: &Instance,
    status: &SolveStatus,
    proof: Option<std::cell::Ref<'_, DratProof>>,
) -> Result<Certificate, String> {
    let wrong = |got: &str| {
        format!(
            "{}: answered {got}, but the instance is built the other way",
            inst.name
        )
    };
    match status {
        SolveStatus::Sat(model) => {
            if inst.expected == Some(false) {
                return Err(wrong("SAT"));
            }
            check_model(&inst.cnf, model, &[]).map_err(|e| format!("{}: {e}", inst.name))?;
            Ok(Certificate::Model)
        }
        SolveStatus::Unsat => {
            if inst.expected == Some(true) {
                return Err(wrong("UNSAT"));
            }
            match proof {
                Some(p) => {
                    let report = check_refutation(&inst.cnf, &p)
                        .map_err(|e| format!("{}: proof rejected: {e}", inst.name))?;
                    Ok(Certificate::Drat(report.additions_checked as u64))
                }
                None if inst.expected == Some(false) => Ok(Certificate::ByConstruction),
                None => Err(format!(
                    "{}: UNSAT answer with no proof and no known verdict",
                    inst.name
                )),
            }
        }
        SolveStatus::Unknown(_) => Ok(Certificate::Unsolved),
    }
}

/// Checks that `model` satisfies every clause of `cnf` and every literal
/// of `units`.
pub fn check_model(cnf: &Cnf, model: &Assignment, units: &[Lit]) -> Result<(), String> {
    if let Some(i) = cnf
        .iter()
        .position(|c| !c.iter().any(|&l| model.satisfies(l)))
    {
        return Err(format!("model falsifies clause {}", i + 1));
    }
    if let Some(l) = units.iter().find(|&&l| !model.satisfies(l)) {
        return Err(format!(
            "model falsifies the property literal {}",
            l.to_dimacs()
        ));
    }
    Ok(())
}

fn simplify_runs(events: &[(Instant, SolveEvent)]) -> impl Iterator<Item = (u64, u64)> + '_ {
    events.iter().filter_map(|(_, e)| match e {
        SolveEvent::Simplify {
            clauses_before,
            clauses_after,
            ..
        } => Some((*clauses_before, *clauses_after)),
        _ => None,
    })
}

/// One incremental sweep: a fresh warm engine behind `BmcDriver`, one
/// `check_outputs_at` call per depth. A traced pass first calls
/// `extend_to` on its own (the encode-and-feed span), which leaves the
/// query itself nothing to unroll.
fn run_sweep(
    workload: Workload,
    sweep: &Sweep,
    pass: &mut Pass,
    reference: &mut Reference,
) -> Result<(), String> {
    let tap = EventTap::default();
    let netlist = sweep.netlist.clone();
    let t0 = Instant::now();
    let mut builder = builder_for(workload, sweep.budget);
    if pass.trace.is_some() {
        builder = builder.on_event(tap.observer());
    }
    let mut driver = BmcDriver::with_engine(netlist, builder.build_engine());
    // Time after each query returned: certification, bookkeeping and the
    // reference chunks.
    let mut outside_s = 0.0;
    let mut before = driver.engine().stats().clone();
    for depth in 0..sweep.expected.len() {
        let name = format!("{}@{depth}", sweep.name);
        let (status, call_s, solved_at) = match pass.trace.as_mut() {
            Some(trace) => {
                let root = trace.open("call", None);
                let encode = trace.open("encode", Some(root));
                driver.extend_to(depth + 1);
                trace.close(encode);
                let solve = trace.open("solve", Some(root));
                let status = driver.check_outputs_at(depth, &sweep.pattern);
                trace.close(solve);
                let solved_at = Instant::now();
                let cert = trace.open("certify", Some(root));
                let c0 = Instant::now();
                if check_sweep_answer(sweep, depth, &driver, &status, &name)? {
                    trace.record("model_check", Some(cert), c0, Instant::now());
                }
                trace.close(cert);
                trace.close(root);
                pass.certify_s += trace.spans[cert].duration();
                let events = tap.drain();
                pass.simplify_runs.extend(simplify_runs(&events));
                trace.split_solve(solve, &events);
                (status, trace.spans[solve].duration(), solved_at)
            }
            None => {
                let c0 = Instant::now();
                let status = driver.check_outputs_at(depth, &sweep.pattern);
                let solved_at = Instant::now();
                check_sweep_answer(sweep, depth, &driver, &status, &name)?;
                pass.certify_s += solved_at.elapsed().as_secs_f64();
                (status, (solved_at - c0).as_secs_f64(), solved_at)
            }
        };
        let after = driver.engine().stats().clone();
        pass.calls.push(Call {
            name,
            verdict: SolveVerdict::from(&status),
            conflicts: after.conflicts - before.conflicts,
            decisions: after.decisions - before.decisions,
            propagations: after.propagations - before.propagations,
            call_s,
        });
        before = after;
        reference.pace();
        outside_s += solved_at.elapsed().as_secs_f64();
        if status.is_unknown() {
            break;
        }
    }
    pass.solve_s += t0.elapsed().as_secs_f64() - outside_s;
    pass.stats.push(driver.engine().stats().clone());
    Ok(())
}

/// Certifies one sweep answer: the verdict must match the construction,
/// and a model must satisfy everything the driver fed the engine plus the
/// property at `depth`. Returns whether a model was checked.
fn check_sweep_answer(
    sweep: &Sweep,
    depth: usize,
    driver: &BmcDriver<Box<dyn SatEngine>>,
    status: &SolveStatus,
    name: &str,
) -> Result<bool, String> {
    let expected = sweep.expected[depth];
    match status {
        SolveStatus::Sat(model) if expected => {
            let enc = driver.encoding();
            let property: Vec<Lit> = sweep
                .pattern
                .iter()
                .map(|&(o, v)| Lit::new(enc.output_vars[depth][o], !v))
                .collect();
            check_model(&enc.cnf, model, &property).map_err(|e| format!("{name}: {e}"))?;
            Ok(true)
        }
        SolveStatus::Unsat if !expected => Ok(false),
        SolveStatus::Unknown(_) => Ok(false),
        _ => Err(format!(
            "{name}: answered {}, expected {}",
            SolveVerdict::from(status),
            if expected { "SAT" } else { "UNSAT" }
        )),
    }
}
