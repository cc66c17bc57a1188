//! Integration: cross-validation of the numerical stack — the FEM matrix
//! solved through independent code paths must agree, and the distributed
//! (thread message-passing) reductions must match serial arithmetic.

use brainshift_cluster::run_ranks;
use brainshift_fem::{assemble_stiffness, DirichletBcs, DirichletStructure, MaterialTable};
use brainshift_imaging::labels;
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::Vec3;
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
use brainshift_sparse::dense::DenseLu;
use brainshift_sparse::{
    conjugate_gradient, gmres, BlockJacobiPrecond, BlockSolve, Ic0, JacobiPrecond, KrylovWorkspace,
    SolverOptions,
};

fn small_mesh() -> brainshift_mesh::TetMesh {
    let seg = Volume::from_fn(Dims::new(5, 5, 5), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
    mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
}

fn small_reduced() -> (brainshift_sparse::CsrMatrix, Vec<f64>) {
    let seg = Volume::from_fn(Dims::new(5, 5, 5), Spacing::iso(2.0), |_, _, _| labels::BRAIN);
    let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
    let k = assemble_stiffness(&mesh, &MaterialTable::homogeneous());
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(&mesh).iter() {
        let p = mesh.nodes[n];
        bcs.set(n, Vec3::new(0.1 * p.z, -0.05 * p.x, 0.02 * p.y));
    }
    let s = DirichletStructure::new(&k, &bcs.nodes_sorted()).expect("boundary nodes are mesh nodes");
    let mut u_c = vec![0.0; s.num_constrained()];
    let mut rhs = vec![0.0; s.num_free()];
    s.rhs_into(&bcs, Some(&vec![0.0; k.nrows()]), &mut u_c, &mut rhs).expect("valid BC set");
    (s.matrix, rhs)
}

#[test]
fn gmres_cg_and_dense_lu_agree_on_fem_system() {
    let (a, rhs) = small_reduced();
    let n = a.nrows();
    // Dense LU reference.
    let mut dense = vec![0.0; n * n];
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            dense[i * n + c] = v;
        }
    }
    let lu = DenseLu::factorize(&dense, n).expect("SPD system must factor");
    let mut x_lu = vec![0.0; n];
    lu.solve(&rhs, &mut x_lu);

    let opts = SolverOptions { tolerance: 1e-12, max_iterations: 20_000, ..Default::default() };
    let mut x_g = vec![0.0; n];
    let ic = Ic0::new(&a).expect("K_ff has a symmetric pattern");
    let sg = gmres(&a, &ic, &rhs, &mut x_g, &opts).expect("dims agree");
    assert!(sg.converged());
    let mut ws = KrylovWorkspace::new(n);
    let mut x_c = vec![0.0; n];
    let sc = conjugate_gradient(&a, &JacobiPrecond::new(&a), &rhs, &mut x_c, &opts, &mut ws).expect("dims agree");
    assert!(sc.converged());
    let mut x_ic = vec![0.0; n];
    let sic = conjugate_gradient(&a, &ic, &rhs, &mut x_ic, &opts, &mut ws).expect("dims agree");
    assert!(sic.converged());
    assert!(sic.iterations < sc.iterations, "IC(0) {} vs Jacobi {}", sic.iterations, sc.iterations);

    let scale = x_lu.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
    for i in 0..n {
        assert!((x_g[i] - x_lu[i]).abs() < 1e-7 * scale, "gmres[{i}]");
        assert!((x_c[i] - x_lu[i]).abs() < 1e-7 * scale, "cg[{i}]");
        assert!((x_ic[i] - x_lu[i]).abs() < 1e-7 * scale, "cg + ic0[{i}]");
    }
}

#[test]
fn block_jacobi_block_count_does_not_change_solution() {
    let (a, rhs) = small_reduced();
    let opts = SolverOptions { tolerance: 1e-11, max_iterations: 20_000, ..Default::default() };
    let mut reference: Option<Vec<f64>> = None;
    for blocks in [1usize, 2, 5] {
        let pc = BlockJacobiPrecond::new(&a, blocks, BlockSolve::Ic0).expect("singular diagonal block");
        let mut x = vec![0.0; a.nrows()];
        let s = gmres(&a, &pc, &rhs, &mut x, &opts).expect("dims agree");
        assert!(s.converged(), "blocks={blocks}");
        match &reference {
            None => reference = Some(x),
            Some(r) => {
                for (p, q) in x.iter().zip(r) {
                    assert!((p - q).abs() < 1e-6, "blocks={blocks}");
                }
            }
        }
    }
}

#[test]
fn stiffness_matrix_is_symmetric_before_reduction() {
    // The virtual-work bilinear form is symmetric; any asymmetry in the
    // assembled K is an assembly or merge bug. Compare K against Kᵀ
    // entrywise, relative to the largest stiffness entry.
    let mesh = small_mesh();
    let k = assemble_stiffness(&mesh, &MaterialTable::heterogeneous());
    let kt = k.transpose();
    let scale = (0..k.nrows())
        .flat_map(|i| k.row(i).1.iter().copied())
        .fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(scale > 0.0);
    for i in 0..k.nrows() {
        let (cols, vals) = k.row(i);
        let (tcols, tvals) = kt.row(i);
        assert_eq!(cols, tcols, "sparsity pattern asymmetric at row {i}");
        for ((&c, &v), &tv) in cols.iter().zip(vals).zip(tvals) {
            assert!(
                (v - tv).abs() <= 1e-12 * scale,
                "K[{i},{c}] = {v} vs Kᵀ = {tv} (scale {scale})"
            );
        }
    }
}

#[test]
fn reduced_system_is_positive_definite_on_random_vectors() {
    // Elasticity with enough Dirichlet constraints to kill rigid-body
    // modes: the reduced K_ff must satisfy xᵀKx > 0 for every x ≠ 0.
    use rand::{Rng, SeedableRng};
    let (a, _) = small_reduced();
    let n = a.nrows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5bd_c0de);
    let mut ax = vec![0.0; n];
    for trial in 0..50 {
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let norm_sq: f64 = x.iter().map(|v| v * v).sum();
        a.spmv(&x, &mut ax);
        let quad: f64 = x.iter().zip(&ax).map(|(p, q)| p * q).sum();
        // Positive with a physically meaningful margin: the Rayleigh
        // quotient is bounded below by the smallest eigenvalue, which is
        // strictly positive for a constrained elastic body.
        assert!(
            quad > 1e-10 * norm_sq,
            "trial {trial}: xᵀKx = {quad:.3e} for ‖x‖² = {norm_sq:.3e}"
        );
    }
}

#[test]
fn distributed_spmv_matches_serial() {
    // Row-partitioned SpMV executed on real threads with message passing:
    // each rank owns a contiguous row block and gathers the full vector.
    let (a, _) = small_reduced();
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) * 0.25 - 1.0).collect();
    let mut serial = vec![0.0; n];
    a.spmv(&x, &mut serial);

    let p = 4.min(n);
    let offsets = brainshift_sparse::partition::even_offsets(n, p);
    let results = run_ranks(p, |comm| {
        let r = comm.rank();
        let lo = offsets[r];
        let hi = offsets[r + 1];
        // Allgather the input vector (ghost exchange superset).
        let parts = comm.allgatherv(&x[lo..hi]);
        let full: Vec<f64> = parts.concat();
        let mut local = vec![0.0; hi - lo];
        for (li, row) in (lo..hi).enumerate() {
            let (cols, vals) = a.row(row);
            local[li] = cols.iter().zip(vals).map(|(&c, &v)| v * full[c]).sum();
        }
        local
    });
    let distributed: Vec<f64> = results.concat();
    for (d, s) in distributed.iter().zip(&serial) {
        assert!((d - s).abs() < 1e-12);
    }
}

#[test]
fn distributed_gmres_norms_match_serial() {
    // The dot/norm reductions a distributed Krylov solver performs,
    // executed over the thread communicator, must agree with serial.
    let (_, rhs) = small_reduced();
    let n = rhs.len();
    let p = 3;
    let offsets = brainshift_sparse::partition::even_offsets(n, p);
    let serial_dot: f64 = rhs.iter().map(|v| v * v).sum();
    let results = run_ranks(p, |comm| {
        let r = comm.rank();
        let local: f64 = rhs[offsets[r]..offsets[r + 1]].iter().map(|v| v * v).sum();
        comm.allreduce_sum(&[local])[0]
    });
    for r in results {
        assert!((r - serial_dot).abs() < 1e-9 * serial_dot.abs().max(1.0));
    }
}

#[test]
fn distributed_gmres_solves_fem_system() {
    // The real-message-passing distributed solver on the actual reduced
    // FEM matrix: all ranks converge to the serial solution.
    use brainshift_cluster::{distributed_gmres, LocalSystem};
    let (a, rhs) = small_reduced();
    let n = a.nrows();
    let opts = SolverOptions { tolerance: 1e-9, max_iterations: 5000, ..Default::default() };
    // Serial reference.
    let mut x_ref = vec![0.0; n];
    let ic = Ic0::new(&a).expect("K_ff has a symmetric pattern");
    let s_ref = gmres(&a, &ic, &rhs, &mut x_ref, &opts).expect("dims agree");
    assert!(s_ref.converged());
    let p = 4;
    let offsets = brainshift_sparse::partition::even_offsets(n, p);
    let results = run_ranks(p, |comm| {
        let r = comm.rank();
        let sys = LocalSystem::from_global(&a, offsets[r], offsets[r + 1]).expect("valid row slice");
        distributed_gmres(comm, &sys, &rhs[offsets[r]..offsets[r + 1]], &opts)
    });
    let x: Vec<f64> = results.iter().flat_map(|(xl, _)| xl.clone()).collect();
    let scale = x_ref.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
    for (d, s) in x.iter().zip(&x_ref) {
        assert!((d - s).abs() < 1e-5 * scale, "{d} vs {s}");
    }
    for (_, stats) in &results {
        assert!(stats.converged());
    }
}
