//! Ablation: the paper's solver choice (GMRES + block Jacobi).
//!
//! Compares preconditioners (none / point Jacobi / block-Jacobi with
//! IC(0) blocks) and Krylov methods (GMRES vs CG, the system being SPD
//! after Dirichlet substitution), reporting iteration counts and modeled
//! Deep Flow solve times at 1 and 16 CPUs. The CG rows run the production
//! ladder's CG rung alone (`EscalationPolicy::none()`).

use brainshift_bench::problem_with_equations;
use brainshift_cluster::MachineModel;
use brainshift_sparse::{
    bicgstab, gmres, solve_escalated, BlockJacobiPrecond, BlockSolve, EscalationPolicy,
    IdentityPrecond, JacobiPrecond, KrylovKind, KrylovWorkspace, Preconditioner, SolveStats,
    SolverOptions,
};

fn main() {
    println!("## Ablation — preconditioner and Krylov method\n");
    // A mid-size system so even the unpreconditioned run finishes.
    let p = problem_with_equations(30_000);
    let red = p.structure();
    let (_, rhs) = p.zero_load_rhs(&red);
    println!(
        "system: {} equations ({} free), nnz {}\n",
        p.mesh.num_equations(),
        red.matrix.nrows(),
        red.matrix.nnz()
    );
    let opts = SolverOptions { tolerance: 1e-5, max_iterations: 5000, ..Default::default() };
    let machine = MachineModel::deep_flow();
    // Per-iteration modeled cost at P cpus (coarse: spmv + precond + orth).
    let per_iter_seconds = |iters: usize, cpus: usize, precond_cost: f64| -> f64 {
        let nnz = red.matrix.nnz() as f64;
        let n = red.matrix.nrows() as f64;
        let flops_per_iter = 2.0 * nnz + precond_cost + 4.0 * 15.0 * n;
        let comm = if cpus > 1 { 17.0 * machine.allreduce(cpus, 8.0) } else { 0.0 };
        iters as f64 * (machine.cpu.seconds(flops_per_iter / cpus as f64) + comm)
    };

    println!(
        "{:<28} {:>7} {:>10} {:>12} {:>12}",
        "configuration", "iters", "converged", "t@1cpu(s)", "t@16cpu(s)"
    );
    let report = |name: &str, stats: &SolveStats, precond_cost: f64| {
        println!(
            "{:<28} {:>7} {:>10} {:>12.2} {:>12.2}",
            name,
            stats.iterations,
            stats.converged(),
            per_iter_seconds(stats.iterations, 1, precond_cost),
            per_iter_seconds(stats.iterations, 16, precond_cost)
        );
    };

    let run_gmres = |p: &dyn Preconditioner| -> SolveStats {
        let mut x = vec![0.0; red.matrix.nrows()];
        gmres(&red.matrix, p, &rhs, &mut x, &opts).expect("dims agree")
    };
    let run_cg = |p: &dyn Preconditioner| -> SolveStats {
        let mut x = vec![0.0; red.matrix.nrows()];
        let mut ws = KrylovWorkspace::new(x.len());
        let krylov = KrylovKind::ConjugateGradient;
        solve_escalated(&red.matrix, p, &rhs, &mut x, krylov, &opts, &EscalationPolicy::none(), &mut ws)
            .expect("dims agree")
            .stats
    };
    let nnz = red.matrix.nnz() as f64;

    let s = run_gmres(&IdentityPrecond);
    report("gmres + none", &s, 0.0);
    let s = run_gmres(&JacobiPrecond::new(&red.matrix));
    report("gmres + jacobi", &s, red.matrix.nrows() as f64);
    for blocks in [4usize, 16] {
        let pc = BlockJacobiPrecond::new(&red.matrix, blocks, BlockSolve::Ic0).expect("singular diagonal block");
        let s = run_gmres(&pc);
        report(&format!("gmres + block-jacobi/ic0 x{blocks}"), &s, 4.0 * nnz);
    }
    for blocks in [4usize, 16] {
        let pc = BlockJacobiPrecond::new(&red.matrix, blocks, BlockSolve::Ic0).expect("singular diagonal block");
        report(&format!("cg    + block-jacobi/ic0 x{blocks}"), &run_cg(&pc), 4.0 * nnz);
    }
    report("cg    + jacobi", &run_cg(&JacobiPrecond::new(&red.matrix)), red.matrix.nrows() as f64);
    let pc = BlockJacobiPrecond::new(&red.matrix, 16, BlockSolve::Ic0).expect("singular diagonal block");
    let mut x = vec![0.0; red.matrix.nrows()];
    let s = bicgstab(&red.matrix, &pc, &rhs, &mut x, &opts).expect("dims agree");
    // BiCGStab does 2 matvecs + 2 precond applies per iteration.
    report("bicgstab + block-jacobi x16", &s, 4.0 * nnz + 2.0 * nnz);

    println!("\n(the paper chose GMRES + block Jacobi: block count matches CPU count,");
    println!(" so the preconditioner needs no communication — the trade-off visible");
    println!(" above is more iterations per extra block vs perfectly local work.)");
}
