//! One representative solve per paper table's workload family, at a size
//! criterion can sample repeatedly. These benches track end-to-end solver
//! performance on each class so regressions show up per-family; the
//! full-size tables are regenerated by the `berkmin-bench` subcommands
//! (`cargo run --release -p berkmin-bench -- table1`, or `-- all`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use berkmin::{Solver, SolverConfig};
use berkmin_gens::{beijing, blocksworld, hanoi, hole, miters, parity, pipeline, BenchInstance};

fn bench_instance(
    c: &mut Criterion,
    group_name: &str,
    inst: &BenchInstance,
    config: &SolverConfig,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.bench_function(inst.name.clone(), |b| {
        b.iter_batched(
            || Solver::new(&inst.cnf, config.clone()),
            |mut s| {
                let status = s.solve();
                match inst.expected {
                    Some(true) => assert!(status.is_sat()),
                    Some(false) => assert!(status.is_unsat()),
                    None => {}
                }
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_tables(c: &mut Criterion) {
    let berkmin = SolverConfig::berkmin();
    // Table 1/2/4/5 ablation families, one representative each.
    bench_instance(c, "table1_hole", &hole::pigeonhole(7), &berkmin);
    bench_instance(
        c,
        "table1_parity",
        &parity::parity_learning(16, 30, 0),
        &berkmin,
    );
    bench_instance(c, "table2_hanoi", &hanoi::hanoi(5), &berkmin);
    bench_instance(c, "table4_beijing", &beijing::factor_prime(10, 1), &berkmin);
    bench_instance(
        c,
        "table5_miters",
        &miters::multiplier_miter(5, 0),
        &berkmin,
    );
    bench_instance(
        c,
        "table6_blocksworld",
        &blocksworld::blocksworld(6, 8, 0),
        &berkmin,
    );
    bench_instance(c, "table6_sss", &pipeline::sss_check(4, false, 0), &berkmin);
    // Table 7/8/9 pipe family representative.
    bench_instance(c, "table7_pipe", &pipeline::npipe(3), &berkmin);
    // Table 10 shootout: same instance under all three solvers.
    let t10 = hole::pigeonhole(6);
    bench_instance(c, "table10_berkmin", &t10, &SolverConfig::berkmin());
    bench_instance(c, "table10_limmat", &t10, &SolverConfig::limmat_like());
    bench_instance(c, "table10_zchaff", &t10, &SolverConfig::chaff_like());
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
