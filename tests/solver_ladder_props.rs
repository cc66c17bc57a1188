//! Property test for the scalar RCM reordering the `ablation_ordering`
//! study uses (DESIGN.md §16 records why no production path reorders):
//! RCM-permuted solves must be equivalent to native-order solves.

use brainshift_sparse::ordering::{permute_vec, unpermute_vec};
use brainshift_sparse::{
    bandwidth, gmres, permute_symmetric, reverse_cuthill_mckee, CsrMatrix, JacobiPrecond,
    SolverOptions, TripletBuilder,
};
use proptest::prelude::*;

/// Random sparse diagonally-dominant SPD matrix from an arbitrary edge
/// list (symmetrized) — the same generator the solver invariants use.
fn spd_from_edges(n: usize, edges: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut b = TripletBuilder::new(n, n);
    let mut diag = vec![1.0f64; n];
    for &(i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i == j {
            continue;
        }
        let w = w.abs().max(0.01);
        b.add(i, j, -w);
        b.add(j, i, -w);
        diag[i] += w;
        diag[j] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        b.add(i, i, d);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RCM is a pure relabeling: solving the permuted system and
    /// unpermuting the solution must match the native solve to solver
    /// tolerance (≤1e-12 here), and — because a symmetric permutation
    /// is an orthogonal transform that Jacobi preconditioning commutes
    /// with — the residual history must have the same length.
    #[test]
    fn rcm_permuted_solve_matches_native(
        n in 5usize..40,
        edges in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..120),
        xs in prop::collection::vec(-3.0f64..3.0, 40),
    ) {
        let a = spd_from_edges(n, &edges);
        let x_true: Vec<f64> = xs.iter().take(n).cloned().collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let opts = SolverOptions { tolerance: 1e-13, max_iterations: 10_000, ..Default::default() };

        let mut x_nat = vec![0.0; n];
        let s_nat = gmres(&a, &JacobiPrecond::new(&a), &rhs, &mut x_nat, &opts)
            .expect("dims agree");
        prop_assert!(s_nat.converged());

        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let ap = permute_symmetric(&a, &perm).expect("valid permutation");
        prop_assert!(bandwidth(&ap) <= bandwidth(&a).max(1) * 4, "RCM should not explode bandwidth");
        let rhs_p = permute_vec(&rhs, &perm);
        let mut xp = vec![0.0; n];
        let s_rcm = gmres(&ap, &JacobiPrecond::new(&ap), &rhs_p, &mut xp, &opts)
            .expect("dims agree");
        prop_assert!(s_rcm.converged());
        let x_rcm = unpermute_vec(&xp, &perm);

        // The permutation must not change the iteration count.
        prop_assert_eq!(s_nat.history.len(), s_rcm.history.len());
        let scale = x_nat.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for i in 0..n {
            prop_assert!(
                (x_rcm[i] - x_nat[i]).abs() <= 1e-12 * scale,
                "x[{}]: rcm {} vs native {}", i, x_rcm[i], x_nat[i]
            );
        }
    }
}
