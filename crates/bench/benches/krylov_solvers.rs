//! Criterion: the Krylov solve under each preconditioner — the host-side
//! counterpart of the paper's solve curves and the preconditioner
//! ablation.

use brainshift_bench::problem_with_equations;
use brainshift_sparse::{
    conjugate_gradient, gmres, BlockJacobiPrecond, BlockSolve, IdentityPrecond, JacobiPrecond,
    KrylovWorkspace, SolverOptions,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_solvers(c: &mut Criterion) {
    let p = problem_with_equations(9_000);
    let red = p.structure();
    let (_, rhs) = p.zero_load_rhs(&red);
    let a = &red.matrix;
    let opts = SolverOptions { tolerance: 1e-5, max_iterations: 3000, ..Default::default() };

    let mut g = c.benchmark_group("krylov_9k");
    g.sample_size(10);
    g.bench_function("gmres_none", |b| {
        b.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            let s = gmres(a, &IdentityPrecond, &rhs, &mut x, &opts).expect("dims agree");
            assert!(s.converged());
        });
    });
    g.bench_function("gmres_jacobi", |b| {
        let pc = JacobiPrecond::new(a);
        b.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            let s = gmres(a, &pc, &rhs, &mut x, &opts).expect("dims agree");
            assert!(s.converged());
        });
    });
    g.bench_function("gmres_block_jacobi_ic0_x8", |b| {
        let pc = BlockJacobiPrecond::new(a, 8, BlockSolve::Ic0).expect("singular diagonal block");
        b.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            let s = gmres(a, &pc, &rhs, &mut x, &opts).expect("dims agree");
            assert!(s.converged());
        });
    });
    g.bench_function("cg_jacobi", |b| {
        let pc = JacobiPrecond::new(a);
        let mut ws = KrylovWorkspace::new(a.nrows());
        b.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            let s = conjugate_gradient(a, &pc, &rhs, &mut x, &opts, &mut ws).expect("dims agree");
            assert!(s.converged());
        });
    });
    g.bench_function("cg_block_jacobi_ic0_x8", |b| {
        let pc = BlockJacobiPrecond::new(a, 8, BlockSolve::Ic0).expect("singular diagonal block");
        let mut ws = KrylovWorkspace::new(a.nrows());
        b.iter(|| {
            let mut x = vec![0.0; a.nrows()];
            let s = conjugate_gradient(a, &pc, &rhs, &mut x, &opts, &mut ws).expect("dims agree");
            assert!(s.converged());
        });
    });
    g.bench_function("precond_setup_block_jacobi_ic0_x8", |b| {
        b.iter(|| std::hint::black_box(BlockJacobiPrecond::new(a, 8, BlockSolve::Ic0)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solvers
}
criterion_main!(benches);
