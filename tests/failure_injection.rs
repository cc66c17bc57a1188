//! Failure-injection tests: the typed-error layer and the degradation
//! contract, exercised end to end.
//!
//! Four families, matching the failure policy in DESIGN.md:
//!
//! 1. A singular preconditioner block is a [`SparseError::SingularBlock`],
//!    never a silently wrong answer (the historical identity fallback).
//! 2. A malformed mesh (inverted element, sliver) is rejected when the
//!    FEM solver context is built, before any cycles are spent on it.
//! 3. A rigid-registration config the registration cannot run is an
//!    [`Error::Pipeline`] from `run_pipeline` before any stage runs.
//! 4. A solver non-convergence mid-sequence degrades exactly that scan —
//!    the previous scan's displacement field is carried forward and the
//!    surgery's registration stream continues.

use brainshift_core::{
    generate_scan_sequence, run_pipeline, run_scan_sequence_with_faults, Error, FaultInjection,
    PipelineConfig, ScanStatus,
};
use brainshift_fem::{FemError, FemSolveConfig, MaterialTable, SolverContext};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{
    apply_rigid_misalignment, generate_preop, BrainShiftConfig, PhantomConfig,
};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{Mat3, Vec3};
use brainshift_mesh::error::MeshError;
use brainshift_mesh::TetMesh;
use brainshift_register::{MiConfig, RigidRegConfig};
use brainshift_sparse::{BlockJacobiPrecond, BlockSolve, CsrMatrix, SparseError, TripletBuilder};
use proptest::prelude::*;

// ───────────────────────── singular blocks ─────────────────────────

/// Random sparse diagonally-dominant SPD matrix from an arbitrary edge
/// list (symmetrized), with one row/column pair structurally zeroed so
/// that the diagonal block owning it is singular beyond repair.
fn spd_with_dead_row(n: usize, edges: &[(usize, usize, f64)], dead: usize) -> CsrMatrix {
    let mut b = TripletBuilder::new(n, n);
    let mut diag = vec![1.0f64; n];
    for &(i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i == j || i == dead || j == dead {
            continue;
        }
        let w = w.abs().max(0.01);
        b.add(i, j, -w);
        b.add(j, i, -w);
        diag[i] += w;
        diag[j] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        if i != dead {
            b.add(i, i, d);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the sparsity pattern and however the rows are split into
    /// blocks, a structurally zero row must surface as
    /// `SingularBlock { shifted: false }` — not as a factorization that
    /// quietly acts like the identity on that block.
    #[test]
    fn singular_block_is_an_error_not_a_wrong_answer(
        n in 6usize..40,
        edges in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..120),
        dead in 0usize..64,
        nblocks in 1usize..8,
    ) {
        let dead = dead % n;
        let a = spd_with_dead_row(n, &edges, dead);
        let r = BlockJacobiPrecond::new(&a, nblocks, BlockSolve::DenseLu);
        match r {
            Err(SparseError::SingularBlock { rows: (lo, hi), shifted, .. }) => {
                prop_assert!(lo <= dead && dead < hi,
                    "reported block rows {lo}..{hi} do not contain the dead row {dead}");
                prop_assert!(!shifted, "a zero row is not recoverable by a diagonal shift");
            }
            other => prop_assert!(false, "expected SingularBlock, got {other:?}"),
        }
    }
}

#[test]
fn numerically_singular_block_recovers_via_diagonal_shift() {
    // Two identical rows: rank-deficient but structurally sound, so the
    // one-shot relative diagonal shift must rescue the factorization and
    // record that it did.
    let mut b = TripletBuilder::new(2, 2);
    b.add(0, 0, 1.0);
    b.add(0, 1, 1.0);
    b.add(1, 0, 1.0);
    b.add(1, 1, 1.0);
    let a = b.build();
    let pc = BlockJacobiPrecond::new(&a, 1, BlockSolve::DenseLu)
        .expect("shift retry should rescue a duplicated-row block");
    assert_eq!(pc.num_shifted_blocks(), 1);
}

// ───────────────────────── malformed meshes ─────────────────────────

fn unit_tet_nodes() -> Vec<Vec3> {
    vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ]
}

#[test]
fn inverted_tet_rejected_at_context_build() {
    // Swapping two vertices flips the element's orientation: negative
    // volume, caught by validation — and therefore by the FEM context
    // build, before assembly or factorization spend any time on it.
    let mesh = TetMesh {
        nodes: unit_tet_nodes(),
        tets: vec![[0, 2, 1, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(matches!(mesh.validate(), Err(MeshError::InvertedTet { tet: 0, .. })));
    let r = SolverContext::new(&mesh, &MaterialTable::homogeneous(), &[0], FemSolveConfig::default());
    assert!(
        matches!(r, Err(FemError::Mesh(MeshError::InvertedTet { tet: 0, .. }))),
        "context built on an inverted element"
    );
}

#[test]
fn sliver_tet_fails_the_quality_gate() {
    // Nearly coplanar fourth vertex: positive volume (plain validation
    // passes) but a radius ratio far below any reasonable floor.
    let mesh = TetMesh {
        nodes: vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.3, 0.3, 1e-6),
        ],
        tets: vec![[0, 1, 2, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(mesh.validate().is_ok());
    assert!(matches!(
        mesh.validate_quality(0.1),
        Err(MeshError::SliverTet { tet: 0, .. })
    ));
}

#[test]
fn repeated_node_rejected() {
    let mesh = TetMesh {
        nodes: unit_tet_nodes(),
        tets: vec![[0, 1, 1, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(matches!(mesh.validate(), Err(MeshError::RepeatedNode { tet: 0 })));
}

// ───────────────────── rigid-registration config ─────────────────────

#[test]
fn run_pipeline_rejects_a_rigid_config_it_cannot_run() {
    // A misaligned scan: a config that silently skipped the search would
    // hand back the identity transform instead of an error.
    let reference = generate_preop(&PhantomConfig {
        dims: Dims::new(24, 24, 18),
        spacing: Spacing::iso(6.0),
        ..Default::default()
    });
    let scan = apply_rigid_misalignment(&reference, Mat3::rot_z(0.05), Vec3::new(1.5, -1.0, 0.5));
    let cases = [
        // The joint histogram needs two bins per axis.
        ("one histogram bin", RigidRegConfig { mi: MiConfig { bins: 1, ..Default::default() }, ..Default::default() }),
        // A level of factor 0 has no grid.
        ("pyramid factor 0", RigidRegConfig { pyramid: vec![2, 0], ..Default::default() }),
    ];
    for (what, rigid) in cases {
        let cfg = PipelineConfig { rigid, ..Default::default() };
        let r = run_pipeline(&reference.intensity, &reference.labels, &scan.intensity, &cfg);
        assert!(
            matches!(r, Err(Error::Pipeline(_))),
            "{what}: run_pipeline must refuse the config before any stage runs"
        );
    }
}

// ───────────────────── mid-sequence degradation ─────────────────────

fn small_seq(n: usize) -> brainshift_core::ScanSequence {
    generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.5),
            ..Default::default()
        },
        &BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() },
        n,
        n,
    )
}

#[test]
fn forced_nonconvergence_degrades_scan_and_reuses_previous_field() {
    let seq = small_seq(3);
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let res = run_scan_sequence_with_faults(&seq, &cfg, &FaultInjection { fail_fem_scans: vec![1] })
        .expect("a non-converged scan must degrade, not abort the sequence");

    assert_eq!(res.outcomes.len(), 3);
    assert_eq!(res.degraded_scans, 1);
    assert_eq!(res.outcomes[1].status, ScanStatus::Degraded);
    assert!(
        !matches!(res.outcomes[0].status, ScanStatus::Degraded),
        "scan 0 was not injected"
    );
    assert!(
        !matches!(res.outcomes[2].status, ScanStatus::Degraded),
        "scan 2 was not injected"
    );
    // The degraded scan's field is scan 0's field carried forward: its
    // peak magnitude (computed from the field) must match exactly.
    assert_eq!(
        res.outcomes[1].peak_recovered_mm, res.outcomes[0].peak_recovered_mm,
        "degraded scan did not reuse the previous scan's field"
    );
    // Scan 2 solves its own BCs again and recovers a larger shift.
    assert!(res.outcomes[2].peak_recovered_mm > res.outcomes[1].peak_recovered_mm);
    // Counters: every scan attempted a solve; exactly one failed; the
    // surgery still paid one assembly and one factorization.
    assert_eq!(res.solver_stats.solves, 3);
    assert_eq!(res.solver_stats.failed_solves, 1);
    assert_eq!(res.solver_stats.assemblies, 1);
    assert_eq!(res.solver_stats.factorizations, 1);
}

#[test]
fn degraded_first_scan_falls_back_to_zero_field() {
    let seq = small_seq(2);
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let res = run_scan_sequence_with_faults(&seq, &cfg, &FaultInjection { fail_fem_scans: vec![0] })
        .expect("sequence failed");
    assert_eq!(res.outcomes[0].status, ScanStatus::Degraded);
    assert_eq!(
        res.outcomes[0].peak_recovered_mm, 0.0,
        "no previous scan exists: the fallback is the zero field"
    );
    // The next scan recovers normally — the failed solve must not have
    // poisoned the warm-start state.
    assert!(!matches!(res.outcomes[1].status, ScanStatus::Degraded));
    assert!(res.outcomes[1].peak_recovered_mm > 0.0);
}
