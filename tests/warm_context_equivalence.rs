//! Integration: the persistent `SolverContext` is a pure optimization —
//! its warm-started, assemble-once solves must be numerically equivalent
//! to the cold per-scan path, and warm starts must never slow a solve
//! down on the progressive-shift sequence phantom. The cold entry points
//! are themselves one-shot contexts; the bitwise tests below pin that
//! fold to the arithmetic of the hand-rolled path it replaced.

use brainshift_core::{generate_scan_sequence, PipelineConfig};
use brainshift_fem::solver::build_preconditioner;
use brainshift_fem::{
    assemble_gravity, assemble_stiffness, solve_deformation, solve_with_loads, DirichletBcs,
    DirichletStructure, FemError, FemSolution, FemSolveConfig, MaterialTable, SolverContext,
};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{
    boundary_nodes, extract_boundary, mesh_labeled_volume, MesherConfig, TetMesh,
};
use brainshift_scenario::{generate_scenario, ScenarioKind};
use brainshift_sparse::{solve_escalated, KrylovWorkspace, SolverOptions};
use proptest::prelude::*;

fn block_mesh(n: usize) -> TetMesh {
    let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
    mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
}

fn tight() -> FemSolveConfig {
    FemSolveConfig {
        options: SolverOptions { tolerance: 1e-10, max_iterations: 5000, ..Default::default() },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold `solve_deformation` and warm `SolverContext::solve` agree on
    /// arbitrary sequences of boundary displacement fields over a fixed
    /// constrained set — including the later scans where the context is
    /// warm-started from an unrelated previous solution.
    #[test]
    fn warm_context_matches_cold_solver_on_random_bcs(
        scans in prop::collection::vec(
            ((-0.4f64..0.4), (-0.4f64..0.4), (-0.4f64..0.4), (0.2f64..1.4)),
            1..4,
        ),
    ) {
        let mesh = block_mesh(4);
        let materials = MaterialTable::homogeneous();
        let surface = boundary_nodes(&mesh);
        let cfg = tight();
        let mut ctx = SolverContext::new(&mesh, &materials, &surface, cfg.clone()).expect("solver context build failed");
        for (ax, ay, az, freq) in scans {
            let mut bcs = DirichletBcs::new();
            for &n in &surface {
                let p = mesh.nodes[n];
                bcs.set(
                    n,
                    Vec3::new(
                        ax * (freq * p.y).sin(),
                        ay * (freq * p.z).cos(),
                        az * (freq * (p.x + p.y)).sin(),
                    ),
                );
            }
            let warm = ctx.solve(&bcs).expect("solve failed");
            let cold = solve_deformation(&mesh, &materials, &bcs, &cfg).expect("FEM solve rejected its inputs");
            prop_assert!(warm.stats.converged());
            prop_assert!(cold.stats.converged());
            for (a, b) in warm.displacements.iter().zip(&cold.displacements) {
                prop_assert!(
                    (*a - *b).norm() < 1e-7,
                    "warm/cold diverge: {:?} vs {:?}", a, b
                );
            }
        }
        let s = ctx.stats();
        prop_assert_eq!(s.assemblies, 1);
        prop_assert_eq!(s.factorizations, 1);
    }
}

/// On the sequence phantom (progressive brain shift, the ground-truth
/// deformation growing scan over scan), warm-starting scan *i+1* from
/// scan *i*'s displacement must converge in no more iterations than a
/// zero-start solve of the same scan.
#[test]
fn warm_started_sequence_scans_converge_no_slower_than_zero_start() {
    let seq = generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.5),
            ..Default::default()
        },
        &BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() },
        3,
        3,
    );
    let cfg = PipelineConfig::default();
    let mesh = mesh_labeled_volume(&seq.reference.labels, &cfg.mesher);
    let surface = extract_boundary(&mesh);

    // BCs of scan i: the ground-truth deformation sampled at the surface
    // nodes — the ideal active-surface output, scaling with the stage.
    let scan_bcs: Vec<DirichletBcs> = seq
        .gt_forward
        .iter()
        .map(|field| {
            let mut bcs = DirichletBcs::new();
            for &node in &surface.mesh_node {
                bcs.set(node, field.sample(mesh.nodes[node]));
            }
            bcs
        })
        .collect();

    let mut warm_ctx = SolverContext::new(&mesh, &cfg.materials, &surface.mesh_node, cfg.fem.clone()).expect("solver context build failed");
    let warm_iters: Vec<usize> = scan_bcs
        .iter()
        .map(|bcs| {
            let sol = warm_ctx.solve(bcs).expect("solve failed");
            assert!(sol.stats.converged());
            sol.stats.iterations
        })
        .collect();

    // Zero-start baseline: a fresh warm-start state per scan (same
    // cached assembly, so only the seeding differs).
    let mut zero_ctx = SolverContext::new(&mesh, &cfg.materials, &surface.mesh_node, cfg.fem.clone()).expect("solver context build failed");
    let zero_iters: Vec<usize> = scan_bcs
        .iter()
        .map(|bcs| {
            zero_ctx.reset_warm_start();
            let sol = zero_ctx.solve(bcs).expect("solve failed");
            assert!(sol.stats.converged());
            sol.stats.iterations
        })
        .collect();

    assert_eq!(warm_iters[0], zero_iters[0], "scan 0 has nothing to warm-start from");
    for i in 1..warm_iters.len() {
        assert!(
            warm_iters[i] <= zero_iters[i],
            "scan {i}: warm start took {} iterations vs {} from zero",
            warm_iters[i],
            zero_iters[i]
        );
    }
}

/// Generic (no exactly-zero component) surface displacements.
fn generic_bcs(mesh: &TetMesh, surface: &[usize]) -> DirichletBcs {
    let mut bcs = DirichletBcs::new();
    for &n in surface {
        let p = mesh.nodes[n];
        bcs.set(
            n,
            Vec3::new(
                0.11 + 0.3 * (0.7 * p.y).sin(),
                -0.07 + 0.2 * (0.9 * p.z).cos(),
                0.05 + 0.1 * (0.4 * (p.x + p.y)).sin(),
            ),
        );
    }
    bcs
}

fn bits(sol: &FemSolution) -> Vec<u64> {
    sol.displacements.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

/// The cold path as it was written before it became a one-shot context,
/// from public pieces: assemble → reduce → right-hand side under the
/// explicit load → precondition → escalation ladder from a zero start
/// with a fresh workspace → expand.
fn hand_rolled_cold_solve(
    mesh: &TetMesh,
    materials: &MaterialTable,
    bcs: &DirichletBcs,
    loads: &[f64],
    cfg: &FemSolveConfig,
) -> (Vec<u64>, usize) {
    let k = assemble_stiffness(mesh, materials);
    let reduced = DirichletStructure::new(&k, &bcs.nodes_sorted()).expect("reduce");
    let mut u_c = vec![0.0; reduced.num_constrained()];
    let mut rhs = vec![0.0; reduced.num_free()];
    reduced.rhs_into(bcs, Some(loads), &mut u_c, &mut rhs).expect("right-hand side");
    let precond = build_preconditioner(cfg.precond, &reduced.matrix).expect("precondition");
    let mut x = vec![0.0; reduced.matrix.nrows()];
    let mut ws = KrylovWorkspace::new(x.len());
    let out = solve_escalated(
        &reduced.matrix,
        precond.as_ref(),
        &rhs,
        &mut x,
        cfg.krylov,
        &cfg.options,
        &cfg.escalation,
        &mut ws,
    )
    .expect("dims agree");
    let mut full = vec![0.0; k.nrows()];
    reduced.expand_solution_into(&x, &u_c, &mut full);
    (full.iter().map(|v| v.to_bits()).collect(), out.stats.iterations)
}

/// `solve_deformation` is the first solve of a fresh context, and
/// `solve_with_loads` under gravity is the hand-rolled cold path — both
/// bit for bit, on a regular block and on a sliver-bearing resection mesh.
#[test]
fn cold_entry_points_are_bitwise_a_one_shot_context() {
    let case = generate_scenario(ScenarioKind::ResectionCollapse, 7).expect("generate");
    for (mesh, materials) in [
        (block_mesh(4), MaterialTable::homogeneous()),
        (case.mesh, MaterialTable::heterogeneous()),
    ] {
        let surface = boundary_nodes(&mesh);
        let bcs = generic_bcs(&mesh, &surface);
        let cfg = tight();

        let cold = solve_deformation(&mesh, &materials, &bcs, &cfg).expect("cold solve");
        assert!(cold.stats.converged(), "{:?}", cold.stats);
        let mut ctx =
            SolverContext::new(&mesh, &materials, &surface, cfg.clone()).expect("context build");
        let first = ctx.solve(&bcs).expect("first context solve");
        assert_eq!(cold.stats.iterations, first.stats.iterations);
        assert_eq!(bits(&cold), bits(&first), "solve_deformation is not a fresh context's solve");
        let zero = vec![0.0; mesh.num_equations()];
        let (reference, iterations) = hand_rolled_cold_solve(&mesh, &materials, &bcs, &zero, &cfg);
        assert_eq!(cold.stats.iterations, iterations);
        assert_eq!(bits(&cold), reference, "solve_deformation drifted from the pre-fold path");

        let gravity = assemble_gravity(&mesh);
        let loaded = solve_with_loads(&mesh, &materials, &bcs, &gravity, &cfg).expect("loaded");
        assert!(loaded.stats.converged(), "{:?}", loaded.stats);
        let (reference, iterations) =
            hand_rolled_cold_solve(&mesh, &materials, &bcs, &gravity, &cfg);
        assert_eq!(loaded.stats.iterations, iterations);
        assert_eq!(bits(&loaded), reference, "solve_with_loads drifted from the pre-fold path");
        assert_ne!(bits(&loaded), bits(&cold), "gravity must change the field");
    }
}

/// The cold wrappers refuse the same inputs with the same errors as
/// before the fold — a short load vector wins over an empty BC set.
#[test]
fn cold_entry_points_keep_their_typed_errors() {
    let mesh = block_mesh(2);
    let materials = MaterialTable::homogeneous();
    let cfg = FemSolveConfig::default();
    let none = DirichletBcs::new();
    let r = solve_deformation(&mesh, &materials, &none, &cfg);
    assert!(matches!(r, Err(FemError::Unconstrained)));
    let short = vec![0.0; mesh.num_equations() - 1];
    for bcs in [&none, &generic_bcs(&mesh, &boundary_nodes(&mesh))] {
        let r = solve_with_loads(&mesh, &materials, bcs, &short, &cfg);
        assert!(matches!(r, Err(FemError::LoadVectorMismatch { .. })));
    }
}
