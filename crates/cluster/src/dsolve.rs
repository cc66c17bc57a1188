//! The distributed Krylov solve over the thread communicator.
//!
//! The timing figures use the deterministic cost model in [`crate::sim`],
//! but the distributed *algorithm* runs here, on real rank threads
//! exchanging real messages — the executable counterpart of what the
//! paper ran with PETSc over MPI. Each rank owns a contiguous range of
//! whole mesh nodes, and keeps their rows as 3×3 node blocks
//! ([`RankSystem`]), as PETSc keeps a block-AIJ matrix's rows on the
//! process that owns them. A matvec exchanges only the ghost nodes those
//! rows reference, three values per node, and a dot product is a local
//! sum plus an allreduce. Both live in one private [`LinearOperator`], so
//! `sparse`'s own [`conjugate_gradient`] and [`gmres_with_workspace`] run
//! unchanged on each rank's slice of the vectors, as PETSc's one KSP runs
//! any Krylov method over any parallel Mat/Vec. The preconditioner is
//! block Jacobi with one block per rank, the rank's diagonal block
//! factored with IC(0): it needs no communication, exactly the property
//! the paper's configuration exploits.

use crate::comm::Comm;
use brainshift_sparse::partition::check_node_offsets;
use brainshift_sparse::{
    conjugate_gradient, gmres_with_workspace, BsrMatrix, Ic0, KrylovKind, KrylovWorkspace,
    LinearOperator, SolveStats, SolverOptions, SparseError,
};
use std::cell::RefCell;

const TAG_GHOST_PLAN: u64 = 5 << 32;
const TAG_GHOST_DATA: u64 = 6 << 32;

/// One rank's share of a node-partitioned system: its rows, its ghost
/// exchange plan and its block-Jacobi block.
///
/// A matvec multiplies the rows with an extended vector laid out as
/// `[ghost nodes owned by lower ranks | this rank's nodes | ghost nodes
/// owned by higher ranks]`, each part ascending in global numbering. That
/// layout keeps every row's columns in their global order, so a row sums
/// its products exactly as the global matrix's row does (DESIGN §3).
pub struct RankSystem {
    /// This rank's block rows, block columns numbered into the extended
    /// vector.
    rows: BsrMatrix,
    /// IC(0) factor of the diagonal block (own rows × own columns).
    factor: Ic0,
    /// Ghost values that precede this rank's entries in the extended vector.
    below: usize,
    /// The ghost values owned by rank `p` are `ghost_offsets[p]..ghost_offsets[p + 1]`
    /// of all ghost values, ascending, three per ghost node.
    ghost_offsets: Vec<usize>,
    /// `send_to[p]`: the local nodes rank `p` reads from this rank.
    send_to: Vec<Vec<usize>>,
}

impl RankSystem {
    /// Take this rank's rows `offsets[r]..offsets[r + 1]` of `a`, factor
    /// their diagonal block and agree the ghost exchange with the other
    /// ranks. Every rank calls this with the same `a` and `offsets`.
    ///
    /// The ranks own whole nodes: `offsets` that are not one per rank
    /// plus one, or that [`check_node_offsets`] refuses, are
    /// [`SparseError::InvalidOffsets`]. The factor's refusals are
    /// [`Ic0::new`]'s, in `a`'s numbering. The ranks agree on the outcome
    /// with one allreduce before the handshake, so a refusal on one rank
    /// is an `Err` on every rank, never a rank left waiting: the ranks
    /// that could factor return `InvalidOffsets`.
    pub fn new(comm: &mut Comm, a: &BsrMatrix, offsets: &[usize]) -> Result<RankSystem, SparseError> {
        let (me, p) = (comm.rank(), comm.size());
        let local = slice_rows(a, offsets, me, p);
        let refused = comm.allreduce_sum(&[f64::from(u8::from(local.is_err()))])[0];
        let (rows, factor, ghosts) = match local {
            Err(e) => return Err(e),
            Ok(_) if refused > 0.0 => {
                return Err(SparseError::InvalidOffsets {
                    reason: format!("{refused} other rank(s) refused their share of the partition"),
                })
            }
            Ok(parts) => parts,
        };
        let lo = offsets[me] / 3;
        let ghost_nodes: Vec<usize> = offsets.iter().map(|&o| ghosts.partition_point(|&g| 3 * g < o)).collect();
        // Handshake: tell every owner which of its nodes this rank reads.
        for dest in (0..p).filter(|&d| d != me) {
            let wanted = &ghosts[ghost_nodes[dest]..ghost_nodes[dest + 1]];
            comm.send(dest, TAG_GHOST_PLAN, wanted.iter().map(|&g| g as f64).collect());
        }
        let mut send_to = vec![Vec::new(); p];
        for src in (0..p).filter(|&s| s != me) {
            send_to[src] = comm.recv(src, TAG_GHOST_PLAN).into_iter().map(|g| g as usize - lo).collect();
        }
        let ghost_offsets: Vec<usize> = ghost_nodes.iter().map(|&g| 3 * g).collect();
        let below = ghost_offsets[me];
        Ok(RankSystem { rows, factor, below, ghost_offsets, send_to })
    }

    /// Number of ghost values received per matvec (comm volume proxy).
    pub fn ghost_count(&self) -> usize {
        self.rows.ncols() - self.rows.nrows()
    }

    /// This rank's rows of `y = A x`, from this rank's entries of `x`:
    /// send the nodes other ranks read, receive this rank's ghosts,
    /// multiply locally.
    pub fn matvec(&self, comm: &mut Comm, x_local: &[f64], y_local: &mut [f64]) {
        let (me, nloc) = (comm.rank(), self.rows.nrows());
        for (dest, wanted) in self.send_to.iter().enumerate() {
            if !wanted.is_empty() {
                let values = wanted.iter().flat_map(|&v| &x_local[3 * v..3 * v + 3]).copied().collect();
                comm.send(dest, TAG_GHOST_DATA, values);
            }
        }
        let mut ext = vec![0.0; self.rows.ncols()];
        ext[self.below..self.below + nloc].copy_from_slice(x_local);
        for src in 0..comm.size() {
            let (g0, g1) = (self.ghost_offsets[src], self.ghost_offsets[src + 1]);
            if g0 < g1 {
                let at = if src < me { g0 } else { g0 + nloc };
                ext[at..at + (g1 - g0)].copy_from_slice(&comm.recv(src, TAG_GHOST_DATA));
            }
        }
        self.rows.spmv(&ext, y_local);
    }
}

/// This rank's block rows with block columns numbered into the extended
/// vector, the IC(0) factor of their diagonal block, and the ghost nodes
/// ascending.
fn slice_rows(
    a: &BsrMatrix,
    offsets: &[usize],
    me: usize,
    p: usize,
) -> Result<(BsrMatrix, Ic0, Vec<usize>), SparseError> {
    if offsets.len() != p + 1 {
        return Err(SparseError::InvalidOffsets {
            reason: format!("{p} ranks need {} offsets, got {offsets:?}", p + 1),
        });
    }
    check_node_offsets(a.nrows(), offsets)?;
    let (lo, hi) = (offsets[me] / 3, offsets[me + 1] / 3);
    let own = |j: usize| (lo..hi).contains(&j);
    let mut ghosts: Vec<usize> =
        (lo..hi).flat_map(|i| a.block_row(i).0.iter().map(|&j| j as usize)).filter(|&j| !own(j)).collect();
    ghosts.sort_unstable();
    ghosts.dedup();
    let below = ghosts.partition_point(|&g| g < lo);
    let mut indptr = vec![0];
    let (mut indices, mut blocks, mut mask) = (Vec::new(), Vec::new(), Vec::new());
    for i in lo..hi {
        let (cols, row, masks) = a.block_row(i);
        indices.extend(cols.iter().map(|&j| {
            let j = j as usize;
            let at = if own(j) {
                below + j - lo
            } else {
                let k = ghosts.partition_point(|&g| g < j);
                if j < lo {
                    k
                } else {
                    k + (hi - lo)
                }
            };
            u32::try_from(at).unwrap_or(u32::MAX)
        }));
        blocks.extend_from_slice(row);
        mask.extend_from_slice(masks);
        indptr.push(indices.len());
    }
    let rows = BsrMatrix::from_raw(3 * (hi - lo), 3 * (hi - lo + ghosts.len()), indptr, indices, blocks, mask)?;
    let factor = Ic0::new(a, offsets[me]..offsets[me + 1])?;
    Ok((rows, factor, ghosts))
}

/// One rank's rows as a [`LinearOperator`]: `apply` is the ghost exchange
/// plus the local multiply, and `sum` an allreduce, which hands every
/// rank rank 0's total — the same bits everywhere.
struct RankOperator<'a> {
    sys: &'a RankSystem,
    comm: RefCell<&'a mut Comm>,
}

impl LinearOperator for RankOperator<'_> {
    fn dim(&self) -> usize {
        self.sys.rows.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.sys.matvec(&mut self.comm.borrow_mut(), x, y);
    }
    fn sum(&self, local: f64) -> f64 {
        self.comm.borrow_mut().allreduce_sum(&[local])[0]
    }
}

/// Solve this rank's share of `A x = b` with `kind`, from a zero start.
/// Every rank calls this with its [`RankSystem`], its slice of `b` and
/// the same `opts`, and gets back its slice of `x` and the
/// [`SolveStats`] all ranks share. The preconditioner is the rank's
/// IC(0) block, so at one rank this is the serial solve with
/// `Ic0::new(&a, 0..a.nrows())`, bit for bit.
///
/// A wall-clock budget (`opts.time_budget: Some(_)`) is refused with
/// [`SparseError::UnsupportedOption`]: each rank reads its own clock, so
/// one rank could stop while another waits in an allreduce.
pub fn distributed_solve(
    comm: &mut Comm,
    sys: &RankSystem,
    kind: KrylovKind,
    b_local: &[f64],
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolveStats), SparseError> {
    if opts.time_budget.is_some() {
        return Err(SparseError::UnsupportedOption { what: "a time budget in a distributed solve" });
    }
    let op = RankOperator { sys, comm: RefCell::new(comm) };
    let mut x = vec![0.0; op.dim()];
    let mut ws = KrylovWorkspace::default();
    let stats = match kind {
        KrylovKind::ConjugateGradient => conjugate_gradient(&op, &sys.factor, b_local, &mut x, opts, &mut ws),
        KrylovKind::Gmres => gmres_with_workspace(&op, &sys.factor, b_local, &mut x, opts, &mut ws),
    }?;
    Ok((x, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use brainshift_sparse::partition::even_node_offsets;
    use brainshift_sparse::{CsrMatrix, TripletBuilder};
    use std::time::Duration;

    fn laplace_3d_like(n: usize) -> CsrMatrix {
        // A 1-D Laplacian chain plus long-range couplings, SPD.
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut diag = 2.0;
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
            if i + 17 < n {
                b.add(i, i + 17, -0.3);
                b.add(i + 17, i, -0.3);
                diag += 0.3;
            }
            if i >= 17 {
                diag += 0.3;
            }
            b.add(i, i, diag + 0.1);
        }
        b.build()
    }

    fn banded(n: usize, bw: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 3.0 + (i % 5) as f64);
            for d in 1..=bw {
                if i >= d {
                    b.add(i, i - d, -0.4 / d as f64);
                }
                if i + d < n {
                    b.add(i, i + d, -0.3 / d as f64);
                }
            }
        }
        b.build()
    }

    /// The node blocks of a fixture.
    fn blocks(a: &CsrMatrix) -> BsrMatrix {
        BsrMatrix::from_csr(a).expect("whole nodes")
    }

    /// Solve `a x = rhs` on `p` ranks; every rank's `(x slice, stats)`.
    fn solve_on(
        p: usize,
        a: &BsrMatrix,
        kind: KrylovKind,
        rhs: &[f64],
        opts: &SolverOptions,
    ) -> Vec<(Vec<f64>, SolveStats)> {
        let offsets = even_node_offsets(a.nrows(), p);
        run_ranks(offsets.len() - 1, |comm| {
            let (lo, hi) = (offsets[comm.rank()], offsets[comm.rank() + 1]);
            let sys = RankSystem::new(comm, a, &offsets).expect("SPD pattern");
            distributed_solve(comm, &sys, kind, &rhs[lo..hi], opts).expect("shapes agree")
        })
    }

    #[test]
    fn a_one_sided_factor_refusal_fails_every_rank() {
        // Rank 1's block stores (10, 4) but not (4, 10), so its node block
        // (3, 1) has no mirror; rank 0's is fine.
        let mut b = TripletBuilder::new(12, 12);
        for i in 0..12 {
            b.add(i, i, 4.0);
        }
        b.add(10, 4, -1.0);
        let a = blocks(&b.build());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let errs = run_ranks(2, |comm| RankSystem::new(comm, &a, &[0, 3, 12]).err());
            let _ = tx.send(errs);
        });
        let errs = rx.recv_timeout(Duration::from_secs(10)).expect("a rank is still waiting for the other");
        assert!(matches!(errs[0], Some(SparseError::InvalidOffsets { .. })), "{:?}", errs[0]);
        assert_eq!(errs[1], Some(SparseError::AsymmetricPattern { row: 10, col: 4 }));
    }

    #[test]
    fn malformed_offsets_are_a_typed_error() {
        let a = blocks(&laplace_3d_like(21));
        let cases = [
            (2, vec![0, 21]),
            (3, vec![0, 12, 9, 21]),
            (2, vec![0, 9, 18]),
            (2, vec![0, 10, 21]),
            (3, vec![0, 9, 9, 21]),
        ];
        for (p, offsets) in cases {
            for e in run_ranks(p, |comm| RankSystem::new(comm, &a, &offsets).err()) {
                assert!(matches!(e, Some(SparseError::InvalidOffsets { .. })), "{offsets:?}: {e:?}");
            }
        }
    }

    #[test]
    fn a_time_budget_is_refused() {
        let a = blocks(&laplace_3d_like(30));
        let opts = SolverOptions { time_budget: Some(Duration::from_secs(1)), ..Default::default() };
        let errs = run_ranks(2, |comm| {
            let sys = RankSystem::new(comm, &a, &[0, 15, 30]).expect("SPD pattern");
            distributed_solve(comm, &sys, KrylovKind::ConjugateGradient, &[1.0; 15], &opts).err()
        });
        for e in errs {
            assert!(matches!(e, Some(SparseError::UnsupportedOption { .. })), "{e:?}");
        }
    }

    #[test]
    fn one_rank_is_the_serial_solve_bit_for_bit() {
        for n in [201, 39_999] {
            let a = laplace_3d_like(n);
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let opts = SolverOptions { tolerance: 1e-10, max_iterations: 2000, ..Default::default() };
            let ic = Ic0::new(&blocks(&a), 0..n).expect("SPD pattern");
            for kind in [KrylovKind::ConjugateGradient, KrylovKind::Gmres] {
                let mut x = vec![0.0; n];
                let mut ws = KrylovWorkspace::default();
                let serial = match kind {
                    KrylovKind::ConjugateGradient => conjugate_gradient(&a, &ic, &rhs, &mut x, &opts, &mut ws),
                    KrylovKind::Gmres => gmres_with_workspace(&a, &ic, &rhs, &mut x, &opts, &mut ws),
                }
                .expect("shapes agree");
                let (xd, stats) = solve_on(1, &blocks(&a), kind, &rhs, &opts).remove(0);
                assert!(serial.converged(), "{kind} n={n}");
                assert_eq!(stats.iterations, serial.iterations, "{kind} n={n}");
                assert_eq!(stats.relative_residual.to_bits(), serial.relative_residual.to_bits());
                assert!(xd.iter().zip(&x).all(|(p, q)| p.to_bits() == q.to_bits()), "{kind} n={n}");
            }
        }
    }

    #[test]
    fn distributed_matches_serial_solution() {
        let n = 201;
        let a = laplace_3d_like(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut rhs = vec![0.0; n];
        a.spmv(&x_true, &mut rhs);
        let opts = SolverOptions { tolerance: 1e-9, max_iterations: 2000, ..Default::default() };
        for kind in [KrylovKind::ConjugateGradient, KrylovKind::Gmres] {
            for p in [1usize, 2, 4] {
                let results = solve_on(p, &blocks(&a), kind, &rhs, &opts);
                // All ranks agree on the stats.
                let iters0 = results[0].1.iterations;
                for (_, stats) in &results {
                    assert!(stats.converged(), "{kind} p={p}: {:?}", stats.reason);
                    assert_eq!(stats.iterations, iters0);
                }
                // Concatenated solution solves the system.
                let x: Vec<f64> = results.into_iter().flat_map(|(xl, _)| xl).collect();
                for (xi, ti) in x.iter().zip(&x_true) {
                    assert!((xi - ti).abs() < 1e-6, "{kind} p={p}");
                }
            }
        }
    }

    #[test]
    fn iteration_count_grows_with_ranks() {
        // More ranks = more (weaker) block-Jacobi blocks → ≥ iterations.
        let n = 240;
        let a = blocks(&laplace_3d_like(n));
        let rhs = vec![1.0; n];
        let opts = SolverOptions { tolerance: 1e-8, max_iterations: 2000, ..Default::default() };
        for kind in [KrylovKind::ConjugateGradient, KrylovKind::Gmres] {
            let iters: Vec<usize> = [1usize, 4]
                .iter()
                .map(|&p| {
                    let stats = solve_on(p, &a, kind, &rhs, &opts).remove(0).1;
                    assert!(stats.converged());
                    stats.iterations
                })
                .collect();
            assert!(iters[1] >= iters[0], "{kind}: {iters:?}");
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = blocks(&laplace_3d_like(51));
        for kind in [KrylovKind::ConjugateGradient, KrylovKind::Gmres] {
            for (x, s) in solve_on(2, &a, kind, &[0.0; 51], &SolverOptions::default()) {
                assert!(s.converged());
                assert_eq!(s.iterations, 0);
                assert!(x.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn ghost_matvec_matches_serial() {
        let n = 120;
        let a = banded(n, 7);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut serial = vec![0.0; n];
        a.spmv(&x, &mut serial);
        for p in [1usize, 2, 3, 5] {
            let offsets = even_node_offsets(n, p);
            let results = run_ranks(p, |comm| {
                let (lo, hi) = (offsets[comm.rank()], offsets[comm.rank() + 1]);
                let sys = RankSystem::new(comm, &blocks(&a), &offsets).expect("banded pattern is symmetric");
                let mut y = vec![0.0; hi - lo];
                sys.matvec(comm, &x[lo..hi], &mut y);
                (y, sys.ghost_count())
            });
            // Each row sums in the global row's order: the same bits.
            let dist: Vec<f64> = results.iter().flat_map(|(y, _)| y.clone()).collect();
            assert!(dist.iter().zip(&serial).all(|(d, s)| d.to_bits() == s.to_bits()), "p={p}");
            // Ghost volume is bounded by the band overlap, far below n: a
            // band of 7 columns reaches ⌈7/3⌉ = 3 whole nodes each side.
            for (_, gc) in &results {
                assert!(*gc <= 3 * 2 * 7usize.div_ceil(3), "ghosts {gc} exceed the band's nodes");
            }
        }
    }

    #[test]
    fn ghost_exchange_much_smaller_than_allgather() {
        // For a banded system the ghost count per rank is O(bandwidth),
        // not O(n) — the point of the exchange plan.
        let n = 402;
        let a = blocks(&banded(n, 3));
        let p = 4;
        let offsets = even_node_offsets(n, p);
        let counts = run_ranks(p, |comm| RankSystem::new(comm, &a, &offsets).expect("symmetric pattern").ghost_count());
        for (r, &c) in counts.iter().enumerate() {
            let interior = r > 0 && r + 1 < p;
            let bound = if interior { 6 } else { 3 };
            assert!(c <= bound, "rank {r}: {c} ghosts");
            assert!(c < (n / p) / 10, "ghosts not sparse");
        }
    }
}
