//! Matrix reordering: reverse Cuthill–McKee.
//!
//! ILU(0) quality and cache behaviour both depend on the row ordering.
//! Our mesher emits nodes in discovery order (good but not optimal); RCM
//! renumbers rows by breadth-first traversal from a peripheral vertex,
//! concentrating non-zeros near the diagonal. No production path
//! reorders (the mesher's native order won when measured, DESIGN.md
//! §16); the `ablation_ordering` study measures the effect on bandwidth
//! and block-Jacobi/ILU(0) iteration counts.

use crate::csr::{CsrMatrix, TripletBuilder};
use crate::error::SparseError;

/// Bandwidth of a matrix: `max |i − j|` over stored entries.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        for &c in cols {
            bw = bw.max(i.abs_diff(c));
        }
    }
    bw
}

/// Reverse Cuthill–McKee permutation of a structurally symmetric matrix:
/// returns `perm` with `perm[new] = old`. Disconnected components are
/// handled by restarting from the unvisited vertex of minimum degree.
///
/// The whole traversal is O(n + nnz): degrees are computed once and the
/// restart vertex comes from a degree-bucketed cursor instead of a fresh
/// O(n) scan per component (which made graphs with many components —
/// e.g. per-node 3×3 block graphs of meshes with isolated islands —
/// quadratic).
///
/// Returns [`SparseError::DimensionMismatch`] for a non-square matrix.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Result<Vec<usize>, SparseError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::DimensionMismatch {
            what: "matrix columns",
            expected: n,
            got: a.ncols(),
        });
    }
    // Degrees once, O(n).
    let deg: Vec<usize> = (0..n).map(|i| a.row(i).0.len()).collect();
    // Vertices bucketed by degree, ids ascending inside each bucket —
    // walking this list with a cursor yields exactly the
    // minimum-degree / lowest-index unvisited vertex the old
    // `min_by_key` scan produced, without re-scanning.
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    let mut counts = vec![0usize; max_deg + 2];
    for &d in &deg {
        counts[d + 1] += 1;
    }
    for k in 1..counts.len() {
        counts[k] += counts[k - 1];
    }
    let mut by_degree = vec![0usize; n];
    {
        let mut next = counts.clone();
        for (i, &d) in deg.iter().enumerate() {
            by_degree[next[d]] = i;
            next[d] += 1;
        }
    }
    let mut cursor = 0usize;

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    let mut nbrs: Vec<usize> = Vec::new();

    while order.len() < n {
        // Next start: unvisited vertex of minimum degree (a cheap
        // peripheral-vertex heuristic). The cursor only moves forward,
        // so all restarts together cost O(n).
        while visited[by_degree[cursor]] {
            cursor += 1;
        }
        let start = by_degree[cursor];
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            // Enqueue unvisited neighbors by increasing degree.
            let (cols, _) = a.row(v);
            nbrs.clear();
            nbrs.extend(cols.iter().cloned().filter(|&c| c != v && !visited[c]));
            nbrs.sort_by_key(|&c| deg[c]);
            for &c in &nbrs {
                visited[c] = true;
                queue.push_back(c);
            }
        }
    }
    order.reverse();
    Ok(order)
}

/// Apply a symmetric permutation: `B[new_i][new_j] = A[perm[new_i]][perm[new_j]]`.
///
/// Returns [`SparseError::DimensionMismatch`] when `perm` does not have
/// one entry per row.
pub fn permute_symmetric(a: &CsrMatrix, perm: &[usize]) -> Result<CsrMatrix, SparseError> {
    let n = a.nrows();
    if perm.len() != n {
        return Err(SparseError::DimensionMismatch {
            what: "permutation",
            expected: n,
            got: perm.len(),
        });
    }
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    let mut b = TripletBuilder::with_capacity(n, a.ncols(), a.nnz());
    for (new_i, &old_i) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old_i);
        for (&c, &v) in cols.iter().zip(vals) {
            b.add(new_i, inv[c], v);
        }
    }
    Ok(b.build())
}

/// Permute a vector into the new ordering: `out[new] = x[perm[new]]`.
pub fn permute_vec(x: &[f64], perm: &[usize]) -> Vec<f64> {
    perm.iter().map(|&old| x[old]).collect()
}

/// Scatter a permuted vector back: `out[perm[new]] = x[new]`.
pub fn unpermute_vec(x: &[f64], perm: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (new, &old) in perm.iter().enumerate() {
        out[old] = x[new];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A "shuffled banded" SPD matrix: banded structure hidden under a
    /// random labeling, so RCM has something to recover.
    fn shuffled_banded(n: usize, bw: usize, seed: u64) -> (CsrMatrix, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut label: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        label.shuffle(&mut rng);
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(label[i], label[i], 4.0);
            for d in 1..=bw {
                if i + d < n {
                    b.add(label[i], label[i + d], -1.0 / d as f64);
                    b.add(label[i + d], label[i], -1.0 / d as f64);
                }
            }
        }
        (b.build(), label)
    }

    #[test]
    fn rcm_is_a_permutation() {
        let (a, _) = shuffled_banded(50, 2, 1);
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_rejects_non_square() {
        let mut b = TripletBuilder::new(3, 4);
        b.add(0, 0, 1.0);
        let a = b.build();
        match reverse_cuthill_mckee(&a) {
            Err(SparseError::DimensionMismatch { expected: 3, got: 4, .. }) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_band() {
        let (a, _) = shuffled_banded(200, 2, 2);
        let before = bandwidth(&a);
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let b = permute_symmetric(&a, &perm).expect("valid permutation");
        let after = bandwidth(&b);
        assert!(after < before / 4, "bandwidth {before} → {after}");
        // Ideal band is 2; RCM should get close.
        assert!(after <= 8, "after = {after}");
    }

    #[test]
    fn many_component_graph_is_ordered_without_rescans() {
        // The old restart picked each component's seed with a fresh O(n)
        // scan — O(n²) on a graph that is mostly isolated vertices. The
        // bucketed cursor keeps this linear; at this size the quadratic
        // version does ~2.5e9 scan steps and visibly hangs a debug test.
        let n = 50_000;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.0);
        }
        // A few real chains mixed in, so not every component is trivial.
        for i in 0..200usize {
            let (u, v) = (5 * i, 5 * i + 3);
            b.add(u, v, -1.0);
            b.add(v, u, -1.0);
        }
        let a = b.build();
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn restart_order_matches_min_degree_lowest_index_rule() {
        // Three components with distinct degrees; the (reversed) order
        // must still restart at the minimum-degree, lowest-index vertex,
        // exactly as the old linear scan did.
        let mut b = TripletBuilder::new(7, 7);
        // Component A: triangle 0-1-2 (degree 3 each with diagonal).
        for &(i, j) in &[(0, 1), (1, 2), (0, 2)] {
            b.add(i, j, -1.0);
            b.add(j, i, -1.0);
        }
        for i in 0..7 {
            b.add(i, i, 4.0);
        }
        // Component B: edge 3-4. Component C: isolated 5, 6.
        b.add(3, 4, -1.0);
        b.add(4, 3, -1.0);
        let a = b.build();
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        // Pre-reversal the traversal is: 5, 6 (isolated, lowest degree),
        // then 3, 4, then the triangle from vertex 0.
        let forward: Vec<usize> = perm.iter().rev().cloned().collect();
        assert_eq!(&forward[..4], &[5, 6, 3, 4]);
        assert_eq!(forward[4], 0);
    }

    #[test]
    fn permutation_preserves_solutions() {
        use crate::gmres;
        use crate::precond::Ilu0;
        use crate::solver::SolverOptions;
        let (a, _) = shuffled_banded(80, 3, 3);
        let x_true: Vec<f64> = (0..80).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut rhs = vec![0.0; 80];
        a.spmv(&x_true, &mut rhs);
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let ap = permute_symmetric(&a, &perm).expect("valid permutation");
        let rhs_p = permute_vec(&rhs, &perm);
        let opts = SolverOptions { tolerance: 1e-11, max_iterations: 5000, ..Default::default() };
        let mut xp = vec![0.0; 80];
        let s = gmres(&ap, &Ilu0::new(&ap), &rhs_p, &mut xp, &opts).expect("dims agree");
        assert!(s.converged());
        let x = unpermute_vec(&xp, &perm);
        for (a1, b1) in x.iter().zip(&x_true) {
            assert!((a1 - b1).abs() < 1e-7);
        }
    }

    #[test]
    fn permute_unpermute_roundtrip() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let perm = vec![3, 1, 4, 0, 5, 9, 2, 6, 8, 7];
        let p = permute_vec(&x, &perm);
        let back = unpermute_vec(&p, &perm);
        assert_eq!(x, back);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        // Two disjoint chains.
        let mut b = TripletBuilder::new(10, 10);
        for i in 0..5usize {
            b.add(i, i, 2.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
                b.add(i - 1, i, -1.0);
            }
        }
        for i in 5..10usize {
            b.add(i, i, 2.0);
            if i > 5 {
                b.add(i, i - 1, -1.0);
                b.add(i - 1, i, -1.0);
            }
        }
        let a = b.build();
        let perm = reverse_cuthill_mckee(&a).expect("square matrix");
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
