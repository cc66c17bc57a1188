//! Integration: the conformance oracle hierarchy at the ISSUE's
//! acceptance thresholds, run as a tier-1 gate — patch tests ≤ 1e-8
//! relative, MMS observed L2 order ≥ 1.9 across three refinement levels,
//! every solve path pairwise within 1e-6, and golden-field hashes
//! reproducing across consecutive runs.

use brainshift_conformance::analytic::unit_cube_mesh;
use brainshift_conformance::mms::manufactured_field;
use brainshift_conformance::{
    default_golden_cases, evaluate_goldens, evaluate_scenario_goldens, golden_field,
    pure_shear_gradient, quantized_field_hash, run_differential, run_keypoint_recovery, run_mms,
    run_patch_test, uniaxial_stretch_gradient, CHECKED_IN_GOLDENS, GOLDEN_QUANTUM_MM,
};
use brainshift_fem::{DirichletBcs, MaterialTable};
use brainshift_mesh::boundary_nodes;

#[test]
fn patch_tests_reach_machine_precision() {
    let mesh = unit_cube_mesh(4);
    let materials = MaterialTable::homogeneous();
    for (name, grad) in [
        ("uniaxial", uniaxial_stretch_gradient(0.02, 0.45)),
        ("pure-shear", pure_shear_gradient(0.03)),
    ] {
        let r = run_patch_test(name, &mesh, &materials, grad, 1e-12);
        assert!(r.converged, "{name} did not converge");
        assert!(r.max_rel_err <= 1e-8, "{name}: {:.3e} > 1e-8", r.max_rel_err);
    }
}

#[test]
fn mms_observed_order_at_least_1_9_over_three_levels() {
    let r = run_mms(&[3, 6, 12], 1e-12);
    assert_eq!(r.levels.len(), 3);
    assert!(
        r.passes(1.9),
        "observed orders {:?}, errors {:?}",
        r.orders,
        r.levels.iter().map(|l| l.l2_rel_err).collect::<Vec<_>>()
    );
}

#[test]
fn every_solve_path_agrees_pairwise_within_1e6() {
    let mesh = unit_cube_mesh(4);
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(&mesh).iter() {
        bcs.set(n, manufactured_field(mesh.nodes[n]));
    }
    let r = run_differential(&mesh, &MaterialTable::homogeneous(), &bcs, &Default::default());
    let names: Vec<&str> = r.paths.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "gmres",
            "bicgstab",
            "escalated",
            "context-warm",
            "distributed-p1",
            "distributed-p2",
            "distributed-p4",
            "distributed-p8",
        ]
    );
    for p in &r.paths {
        assert!(p.converged, "{} failed to converge", p.name);
    }
    assert!(
        r.agrees_within(1e-6),
        "worst pair: {:?}",
        r.pairwise.iter().max_by(|a, b| a.2.total_cmp(&b.2))
    );
}

#[test]
fn golden_hashes_reproduce_across_consecutive_runs_and_match_checked_in() {
    let cases = default_golden_cases();
    // Two consecutive full regenerations of one case must agree bit-for-
    // bit at the quantized level…
    let (_, f1) = golden_field(&cases[0]);
    let (_, f2) = golden_field(&cases[0]);
    assert_eq!(
        quantized_field_hash(&f1, GOLDEN_QUANTUM_MM),
        quantized_field_hash(&f2, GOLDEN_QUANTUM_MM)
    );
    // …and every case must match the goldens checked into the repo.
    for o in evaluate_goldens(&cases, CHECKED_IN_GOLDENS) {
        assert!(
            o.matches,
            "golden drift in '{}': computed {:016x}, expected {:?}",
            o.name,
            o.hash,
            o.expected.map(|h| format!("{h:016x}"))
        );
    }
}

#[test]
fn scenario_golden_hashes_match_checked_in() {
    // One canonical seed per scenario class: the hash covers the whole
    // generator chain (phantom → carve/contact/keypoints → solve), so a
    // silent change anywhere in it fails here and must be acknowledged
    // via `conformance_report --update-goldens`.
    let outcomes = evaluate_scenario_goldens(CHECKED_IN_GOLDENS);
    assert_eq!(outcomes.len(), 4, "one golden per scenario class");
    for o in &outcomes {
        assert!(
            o.matches,
            "scenario golden drift in '{}': computed {:016x}, expected {:?} (peak {:.3} mm)",
            o.name,
            o.hash,
            o.expected.map(|h| format!("{h:016x}")),
            o.max_shift_mm
        );
    }
}

#[test]
fn keypoint_recovery_is_monotone_and_exact_at_full_coverage() {
    // The sparse-keypoint differential at the ISSUE's acceptance
    // thresholds: nested keypoint subsets give non-increasing recovery
    // error, and constraining every boundary node reproduces the dense
    // ground truth to ≤ 1e-6 relative.
    let r = run_keypoint_recovery(2, &[0.1, 0.25, 0.5]);
    assert!(r.curve.len() >= 3);
    assert!(
        r.monotone,
        "recovery error not monotone in K: {:?}",
        r.curve.iter().map(|p| (p.k, p.rms_mm)).collect::<Vec<_>>()
    );
    assert!(
        r.full_coverage_rel <= 1e-6,
        "full-coverage recovery off by {:.3e} relative",
        r.full_coverage_rel
    );
}
