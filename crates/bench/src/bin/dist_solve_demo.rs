//! Demo: the *executable* distributed solver.
//!
//! The timing figures price a modeled cluster; this binary actually runs
//! the distributed solve — rank threads, ghost exchange, allreduce dot
//! products, block-Jacobi IC(0) preconditioning local to each rank — on
//! the brain FEM system, with CG (the production method) and GMRES (the
//! paper's), and verifies every rank count produces the same displacement
//! field. This is the MPI-style program the paper ran, minus the 1999
//! hardware.
//!
//! ```bash
//! cargo run --release -p brainshift-bench --bin dist_solve_demo [equations]
//! ```

use brainshift_bench::problem_with_equations;
use brainshift_cluster::{distributed_solve, run_ranks, RankSystem};
use brainshift_sparse::partition::even_node_offsets;
use brainshift_sparse::{KrylovKind, SolverOptions};

fn main() {
    let equations: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(20_000);
    println!("## distributed Krylov demo (real rank threads + message passing)\n");
    let p = problem_with_equations(equations);
    let red = p.structure();
    let (_, rhs) = p.zero_load_rhs(&red);
    let n = red.matrix.nrows();
    println!("system: {} equations, {} free, {} nnz", p.mesh.num_equations(), n, red.matrix.nnz());
    let opts = SolverOptions { tolerance: 1e-6, max_iterations: 5000, ..Default::default() };

    let mut reference: Option<Vec<f64>> = None;
    println!(
        "\n{:>6} {:>6} {:>12} {:>8} {:>12} {:>16}",
        "method", "ranks", "rows/rank", "iters", "max ghosts", "vs 1-rank CG"
    );
    for kind in [KrylovKind::ConjugateGradient, KrylovKind::Gmres] {
        for ranks in [1usize, 2, 4, 8] {
            let offsets = even_node_offsets(n, ranks);
            let results = run_ranks(ranks, |comm| {
                let (lo, hi) = (offsets[comm.rank()], offsets[comm.rank() + 1]);
                let sys = RankSystem::new(comm, &red.matrix, &offsets).expect("K_ff blocks factor");
                let (x, stats) =
                    distributed_solve(comm, &sys, kind, &rhs[lo..hi], &opts).expect("slices match the rows");
                (x, stats, sys.ghost_count())
            });
            let stats = results[0].1.clone();
            // The ghost values a rank receives per matvec: the exchange's
            // volume, which grows with the number of rank boundaries.
            let max_ghosts = results.iter().map(|r| r.2).max().unwrap_or(0);
            let x: Vec<f64> = results.into_iter().flat_map(|(xl, _, _)| xl).collect();
            let agreement = match &reference {
                None => {
                    reference = Some(x);
                    "reference".to_string()
                }
                Some(r) => {
                    let num: f64 = x.iter().zip(r).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
                    let den: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
                    format!("{:.2e} rel diff", num / den.max(1e-300))
                }
            };
            println!(
                "{:>6} {:>6} {:>12} {:>8} {:>12} {:>16}",
                kind.to_string(),
                ranks,
                n / ranks,
                stats.iterations,
                max_ghosts,
                agreement
            );
            assert!(stats.converged(), "{kind} at {ranks} ranks failed to converge");
        }
    }
    println!("\n(iterations grow with rank count — each rank's IC(0) block shrinks,");
    println!(" the same effect the paper's Figure 7 solve curve shows. On a 1-CPU");
    println!(" host the threads time-slice; on real cores this program scales.)");
}
