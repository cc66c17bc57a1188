//! Integration: the served solve's node-blocked matrices compute what
//! scalar CSR computes, bit for bit.
//!
//! `DirichletStructure` stores `K_ff` and `K_fc` in 3×3 node blocks, and
//! `BlockJacobiPrecond` stores each IC(0) factor in node blocks too. The
//! references here are scalar: `K_ff` and `K_fc` cut from `K` through a
//! `TripletBuilder`, the CSR products, and the scalar IC(0) sweeps on the
//! factor's scalar values (`Ic0::scalar_factor`). On a lattice, on a
//! 32×32×24 phantom, on a pattern that stores an exact `0.0`, and at
//! block-Jacobi offsets that cut nodes, every product, every
//! preconditioner application and a whole CG solve must be the same
//! bits. Run at two `RAYON_NUM_THREADS` counts.
//!
//! The test vectors hold no `−0.0`: there a filled zero of a sweep may
//! flip the sign of a zero in the output (`−0 − (−0) = +0`), which no
//! nonzero, and no CG iterate, ever reads.

use brainshift_bench::phantom_labels;
use brainshift_fem::{assemble_stiffness, DirichletStructure, MaterialTable};
use brainshift_imaging::labels;
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};
use brainshift_sparse::partition::even_offsets;
use brainshift_sparse::{
    conjugate_gradient, BlockJacobiPrecond, BsrMatrix, CsrMatrix, Ic0, KrylovWorkspace,
    Preconditioner, SolverOptions, TripletBuilder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest allocation made on a thread while its tracking is
/// on.
struct LargestAllocation;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(layout.size())));
        }
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(new_size)));
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// The largest allocation `f` makes on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    LARGEST.with(Cell::get)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Vectors with magnitudes over six decades and both signs, one of them
/// with `+0.0` entries.
fn vectors(n: usize) -> Vec<Vec<f64>> {
    let wave = |i: usize, f: f64| (i as f64 * f).sin() * 10f64.powi((i % 7) as i32 - 3);
    vec![
        (0..n).map(|i| wave(i, 0.37)).collect(),
        (0..n).map(|i| if i % 5 == 2 { 0.0 } else { wave(i, 1.91) + 0.5 }).collect(),
        vec![1.0; n],
    ]
}

/// `K_ff` and `K_fc` of `s` cut from `k` as scalar CSR, through a
/// `TripletBuilder`.
fn scalar_blocks(k: &CsrMatrix, s: &DirichletStructure) -> (CsrMatrix, CsrMatrix) {
    let mut constrained_of_dof = vec![usize::MAX; k.nrows()];
    for (ci, &dof) in s.constrained_dofs.iter().enumerate() {
        constrained_of_dof[dof] = ci;
    }
    let mut ff = TripletBuilder::new(s.num_free(), s.num_free());
    let mut fc = TripletBuilder::new(s.num_free(), s.num_constrained());
    for (ri, &dof) in s.free_dofs.iter().enumerate() {
        let (cols, vals) = k.row(dof);
        for (&c, &v) in cols.iter().zip(vals) {
            match s.reduced_of_dof[c] {
                usize::MAX => fc.add(ri, constrained_of_dof[c], v),
                rc => ff.add(ri, rc, v),
            }
        }
    }
    (ff.build(), fc.build())
}

/// The scalar IC(0) sweeps: `z = S (Uᵀ D⁻¹ U)⁻¹ S r`, the forward sweep
/// scattering row `i` of `U` once `z[i]` is final, the backward sweep
/// gathering it.
fn scalar_ic0_solve(u: &CsrMatrix, scale: &[f64], r: &[f64], z: &mut [f64]) {
    let n = scale.len();
    let (indptr, cols, vals) = (u.indptr(), u.indices(), u.values());
    for ((zi, ri), si) in z.iter_mut().zip(r).zip(scale) {
        *zi = ri * si;
    }
    for i in 0..n {
        let pivot = indptr[i];
        let wi_over_d = z[i] / vals[pivot];
        for p in pivot + 1..indptr[i + 1] {
            z[cols[p]] -= vals[p] * wi_over_d;
        }
    }
    for i in (0..n).rev() {
        let pivot = indptr[i];
        let mut acc = z[i];
        for p in pivot + 1..indptr[i + 1] {
            acc -= vals[p] * z[cols[p]];
        }
        z[i] = acc / vals[pivot];
    }
    for (zi, si) in z.iter_mut().zip(scale) {
        *zi *= si;
    }
}

/// Block-Jacobi on scalar CSR: one scalar IC(0) factor per block of
/// `offsets`, applied with the scalar sweeps.
struct ScalarBlockJacobi {
    blocks: Vec<(usize, usize, CsrMatrix, Vec<f64>)>,
}

impl ScalarBlockJacobi {
    fn new(a: &CsrMatrix, offsets: &[usize]) -> Self {
        let blocks = offsets
            .windows(2)
            .map(|w| {
                let ic = Ic0::new(&a.principal_submatrix(w[0], w[1])).expect("K_ff blocks factor");
                let (u, scale) = ic.scalar_factor();
                (w[0], w[1], u, scale.to_vec())
            })
            .collect();
        ScalarBlockJacobi { blocks }
    }
}

impl Preconditioner for ScalarBlockJacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (lo, hi, u, scale) in &self.blocks {
            scalar_ic0_solve(u, scale, &r[*lo..*hi], &mut z[*lo..*hi]);
        }
    }
}

/// Block-Jacobi offsets over `n` rows: the served four-block split and
/// two more whose boundaries fall inside nodes; at least one boundary
/// must cut a node.
fn offset_sets(n: usize) -> Vec<Vec<usize>> {
    let sets = vec![even_offsets(n, 4), vec![0, n / 3 + 1, n], vec![0, 3 * (n / 9) + 2, 2 * n / 3 - 1, n]];
    let cuts = sets.iter().flatten().filter(|&&o| o % 3 != 0).count();
    assert!(cuts > 0, "no offset cuts a node at n = {n}");
    sets
}

/// Everything the served solve computes from `blocks`, against the
/// scalar `csr`: round trip, products, preconditioner applications at
/// each offset set and a cold CG solve.
fn check_products(name: &str, blocks: &BsrMatrix, csr: &CsrMatrix) {
    let n = csr.nrows();
    assert_eq!(blocks.nnz(), csr.nnz(), "{name}: nnz");
    assert_eq!(&blocks.to_csr(), csr, "{name}: to_csr");
    let bitwise = |what: &str, a: &[f64], b: &[f64]| assert!(bits(a) == bits(b), "{name}: {what} differs");
    for x in vectors(n) {
        let (mut want, mut got, mut par) = (vec![0.0; n], vec![f64::NAN; n], vec![f64::NAN; n]);
        csr.spmv(&x, &mut want);
        blocks.spmv(&x, &mut got);
        blocks.spmv_parallel(&x, &mut par);
        bitwise("spmv", &want, &got);
        bitwise("parallel spmv", &want, &par);
    }
    for offsets in offset_sets(n) {
        let served = BlockJacobiPrecond::from_offsets(blocks, &offsets).expect("K_ff blocks factor");
        let scalar = ScalarBlockJacobi::new(csr, &offsets);
        for r in vectors(n) {
            let (mut want, mut got) = (vec![0.0; n], vec![f64::NAN; n]);
            scalar.apply(&r, &mut want);
            served.apply(&r, &mut got);
            bitwise(&format!("block-Jacobi at {offsets:?}"), &want, &got);
        }
        let opts = SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() };
        let b = &vectors(n)[0];
        let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
        let mut ws = KrylovWorkspace::new(n);
        let s_want = conjugate_gradient(csr, &scalar, b, &mut want, &opts, &mut ws).expect("dims agree");
        let s_got = conjugate_gradient(blocks, &served, b, &mut got, &opts, &mut ws).expect("dims agree");
        assert!(s_got.converged(), "{name}: CG at {offsets:?} did not converge");
        assert_eq!(s_want.iterations, s_got.iterations, "{name}: CG iterations at {offsets:?}");
        bitwise(&format!("CG solution at {offsets:?}"), &want, &got);
    }
}

/// The structure of `mesh` reduced along its boundary, checked whole:
/// `K_ff` as above and `K_fc` against its scalar cut.
fn check_mesh(name: &str, mesh: &TetMesh, materials: &MaterialTable) {
    let k = assemble_stiffness(mesh, materials);
    let s = DirichletStructure::new(&k, &boundary_nodes(mesh)).expect("boundary nodes are mesh nodes");
    let (kff, kfc) = scalar_blocks(&k, &s);
    check_products(name, &s.matrix, &kff);
    assert_eq!(s.coupling.nnz(), kfc.nnz(), "{name}: K_fc nnz");
    assert_eq!(s.coupling.to_csr(), kfc, "{name}: K_fc to_csr");
    for u_c in vectors(s.num_constrained()) {
        let (mut want, mut got) = (vec![0.0; s.num_free()], vec![f64::NAN; s.num_free()]);
        kfc.spmv(&u_c, &mut want);
        s.coupling.spmv(&u_c, &mut got);
        assert!(bits(&want) == bits(&got), "{name}: K_fc product differs");
    }
}

fn lattice() -> TetMesh {
    let dims = Dims::new(9, 8, 7);
    let seg = Volume::from_fn(dims, Spacing::new(1.5, 2.0, 2.5), |x, _, _| {
        if 2 * x < dims.nx {
            labels::BRAIN
        } else {
            labels::FALX
        }
    });
    mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
}

#[test]
fn a_lattice_k_ff_and_k_fc_compute_the_scalar_bits() {
    check_mesh("lattice", &lattice(), &MaterialTable::heterogeneous());
}

#[test]
fn a_phantom_k_ff_and_k_fc_compute_the_scalar_bits() {
    let (seg, _) = phantom_labels(Dims::new(32, 32, 24), Spacing::new(7.5, 7.5, 6.25));
    let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
    check_mesh("phantom", &mesh, &MaterialTable::heterogeneous());
}

#[test]
fn a_stored_exact_zero_stays_in_the_pattern_and_the_bits() {
    let mesh = lattice();
    let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
    let s = DirichletStructure::new(&k, &boundary_nodes(&mesh)).expect("boundary nodes are mesh nodes");
    let (kff, _) = scalar_blocks(&k, &s);
    // Store an explicit 0.0 at every seventh pair (i, j), (j, i) near the
    // diagonal that the pattern lacks: the same SPD matrix, with exact
    // zeros in its pattern, inside existing node blocks and in new ones.
    let n = kff.nrows();
    let mut b = TripletBuilder::new(n, n);
    for i in 0..n {
        let (cols, vals) = kff.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            b.add(i, j, v);
        }
        for j in i.saturating_sub(4)..(i + 5).min(n) {
            if cols.binary_search(&j).is_err() && (i.min(j) * 31 + i.max(j)) % 7 == 0 {
                b.add(i, j, 0.0);
            }
        }
    }
    let a = b.build();
    let stored_zeros = a.values().iter().filter(|&&v| v == 0.0).count();
    assert!(stored_zeros > 0, "no stored zero");
    let blocks = BsrMatrix::from_csr(&a).expect("whole nodes");
    check_products("stored zeros", &blocks, &a);
}

#[test]
fn a_warm_cg_solve_allocates_nothing_that_grows_with_n() {
    let mesh = lattice();
    let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
    let s = DirichletStructure::new(&k, &boundary_nodes(&mesh)).expect("boundary nodes are mesh nodes");
    let n = s.num_free();
    let pc = BlockJacobiPrecond::new(&s.matrix, 4).expect("K_ff blocks factor");
    let b = &vectors(n)[0];
    let opts = SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() };
    let mut ws = KrylovWorkspace::default();
    let mut first = vec![0.0; n];
    conjugate_gradient(&s.matrix, &pc, b, &mut first, &opts, &mut ws).expect("dims agree");
    let mut again = vec![0.0; n];
    let mut iterations = 0;
    let largest = largest_allocation(|| {
        let stats = conjugate_gradient(&s.matrix, &pc, b, &mut again, &opts, &mut ws).expect("dims agree");
        iterations = stats.iterations;
    });
    assert!(iterations > 10, "a solve of {iterations} iterations shows little");
    // What remains is O(threads): task boxes and one partial sum per
    // chunk. An n-vector, or any slice of one, would be far larger.
    assert!(largest < n, "the warm solve allocated {largest} bytes at n = {n}");
    assert!(bits(&first) == bits(&again), "a warm workspace solved differently");
}
