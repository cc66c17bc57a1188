//! Integration: the served solve's node-blocked matrices compute what
//! scalar CSR computes, bit for bit, and a warm solve copies no vector.
//!
//! `DirichletStructure` stores `K_ff` and `K_fc` in 3×3 node blocks. The
//! references here are scalar: `K_ff` and `K_fc` cut from `K` through a
//! `TripletBuilder`, and the CSR products. On a lattice, on a 32×32×24
//! phantom and on a pattern that stores an exact `0.0`, every product and
//! a whole CG solve under the served block-Jacobi IC(0) preconditioner
//! (its blocks cut between nodes) must be the same bits. The IC(0)
//! factor itself is held to its defining product and to scalar sweeps of
//! its own values by `brainshift-sparse`'s unit tests. Run at two
//! `RAYON_NUM_THREADS` counts.

use brainshift_bench::phantom_labels;
use brainshift_fem::{
    assemble_stiffness, DirichletBcs, DirichletStructure, FemSolveConfig, MaterialTable,
    SolverContext,
};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};
use brainshift_sparse::{
    conjugate_gradient, BlockJacobiPrecond, BsrMatrix, CsrMatrix, KrylovWorkspace, SolverOptions,
    TripletBuilder,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};

/// Records, on a thread while its tracking is on, the largest allocation
/// and how many allocations had exactly the watched size.
struct WatchingAllocator;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static WATCHED: Cell<usize> = const { Cell::new(0) };
    static SEEN: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    if TRACKING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
        if WATCHED.with(Cell::get) == size {
            SEEN.with(|s| s.set(s.get() + 1));
        }
    }
}

unsafe impl GlobalAlloc for WatchingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: WatchingAllocator = WatchingAllocator;

/// The largest allocation `f` makes on this thread, and how many of its
/// allocations are exactly `watched` bytes.
fn allocations(watched: usize, f: impl FnOnce()) -> (usize, usize) {
    LARGEST.with(|l| l.set(0));
    SEEN.with(|s| s.set(0));
    WATCHED.with(|w| w.set(watched));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    (LARGEST.with(Cell::get), SEEN.with(Cell::get))
}

/// A thread waiting on its parallel tasks runs queued tasks of other
/// threads too, so an allocation counted on one test's thread could be
/// another test's. The tests here run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// Everything the served solve computes from `blocks`, against the
/// scalar `csr`: round trip, products, and a cold CG solve under
/// block-Jacobi IC(0) on 1, 2 and 4 node-cut blocks.
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
    for nblocks in [1, 2, 4] {
        let served = BlockJacobiPrecond::new(blocks, nblocks).expect("K_ff blocks factor");
        let opts = SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() };
        let b = &vectors(n)[0];
        let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
        let mut ws = KrylovWorkspace::new(n);
        let s_want =
            conjugate_gradient(csr, &served, b, &mut want, &opts, &mut ws).expect("dims agree");
        let s_got =
            conjugate_gradient(blocks, &served, b, &mut got, &opts, &mut ws).expect("dims agree");
        assert!(s_got.converged(), "{name}: CG on {nblocks} blocks did not converge");
        assert_eq!(
            s_want.iterations, s_got.iterations,
            "{name}: CG iterations on {nblocks} blocks"
        );
        bitwise(&format!("CG solution on {nblocks} blocks"), &want, &got);
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
    let _one = one_at_a_time();
    check_mesh("lattice", &lattice(), &MaterialTable::heterogeneous());
}

#[test]
fn a_phantom_k_ff_and_k_fc_compute_the_scalar_bits() {
    let _one = one_at_a_time();
    let (seg, _) = phantom_labels(Dims::new(32, 32, 24), Spacing::new(7.5, 7.5, 6.25));
    let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
    check_mesh("phantom", &mesh, &MaterialTable::heterogeneous());
}

#[test]
fn a_stored_exact_zero_stays_in_the_pattern_and_the_bits() {
    let _one = one_at_a_time();
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
    let _one = one_at_a_time();
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
    let (largest, _) = allocations(0, || {
        let stats = conjugate_gradient(&s.matrix, &pc, b, &mut again, &opts, &mut ws).expect("dims agree");
        iterations = stats.iterations;
    });
    assert!(iterations > 10, "a solve of {iterations} iterations shows little");
    // What remains is O(threads): task boxes and one partial sum per
    // chunk. An n-vector, or any slice of one, would be far larger.
    assert!(largest < n, "the warm solve allocated {largest} bytes at n = {n}");
    assert!(bits(&first) == bits(&again), "a warm workspace solved differently");
}

#[test]
fn a_warm_context_solve_copies_no_reduced_vector() {
    let _one = one_at_a_time();
    // The seed a failed solve puts back is kept on the context, not
    // cloned per solve: no allocation is one reduced vector long. The
    // returned field is one `Vec3` per node, 8 bytes per equation, so it
    // cannot be mistaken for one.
    let mesh = lattice();
    let surface = boundary_nodes(&mesh);
    let mut ctx = SolverContext::new(
        &mesh,
        &MaterialTable::homogeneous(),
        &surface,
        FemSolveConfig::default(),
    )
    .expect("context builds");
    let nfree = ctx.structure().num_free();
    assert_ne!(nfree, mesh.num_equations());
    let scan = |scale: f64| {
        let mut bcs = DirichletBcs::new();
        for &n in &surface {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(0.01 * scale * p.y, 0.0, -0.02 * scale * p.x));
        }
        bcs
    };
    ctx.solve(&scan(1.0)).expect("cold solve");
    let mut warm = None;
    let (_, copies) =
        allocations(8 * nfree, || warm = Some(ctx.solve(&scan(1.2)).expect("warm solve")));
    let warm = warm.expect("solved");
    assert!(warm.stats.converged() && warm.stats.iterations > 0, "{:?}", warm.stats);
    assert_eq!(ctx.stats().warm_started_solves, 1);
    assert_eq!(copies, 0, "the warm solve allocated {copies} vector(s) of {nfree} f64");
}
