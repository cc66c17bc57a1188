//! Integration: the complete intraoperative chain across all crates —
//! phantom generation → rigid misalignment → MI registration → k-NN
//! segmentation → meshing → active surface → FEM → warp — validated
//! against the elastic ground truth.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::{field_error, intensity_residual};
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{apply_rigid_misalignment, BrainShiftConfig, PhantomConfig, PhantomScan};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{Mat3, Vec3};

fn case() -> brainshift_core::case::ElasticCase {
    generate_elastic_case(
        &PhantomConfig {
            dims: Dims::new(40, 40, 30),
            spacing: Spacing::iso(3.6),
            ..Default::default()
        },
        &BrainShiftConfig { peak_shift_mm: 7.0, resect_tumor: true, ..Default::default() },
        &ElasticCaseOptions::default(),
    )
}

#[test]
fn full_chain_with_rigid_misalignment() {
    let case = case();
    // The later scan arrives in a rotated/translated frame.
    let moved = apply_rigid_misalignment(
        &PhantomScan {
            intensity: case.intraop.intensity.clone(),
            labels: case.intraop.labels.clone(),
        },
        Mat3::rot_z(0.04),
        Vec3::new(1.5, -1.0, 0.5),
    );
    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &moved.intensity,
        &PipelineConfig::default(),
    ).expect("pipeline failed");
    // Rigid stage ran and found a nontrivial transform.
    let rigid = res.rigid.as_ref().expect("rigid stage must run");
    let (angle, _) = rigid.transform.magnitude();
    assert!(angle > 0.01, "rotation not detected: {angle}");
    assert!(res.fem.stats.converged());
    // The warped reference must match the moved scan better than the raw
    // preop scan does, in the brain.
    let brain = res.intraop_seg.map(|&l| labels::is_brain_tissue(l));
    let before = intensity_residual(&case.preop.intensity, &moved.intensity, &brain);
    let after = intensity_residual(&res.warped_reference, &moved.intensity, &brain);
    assert!(
        after.mean_abs < before.mean_abs,
        "no improvement: {} → {}",
        before.mean_abs,
        after.mean_abs
    );
}

#[test]
fn resection_case_mesh_excludes_cavity_target() {
    let case = case();
    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &case.intraop.intensity,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    ).expect("pipeline failed");
    // Mesh is built from the PREOP labels (tumor present).
    let has_tumor_tets = res.mesh.tet_labels.contains(&labels::TUMOR);
    assert!(has_tumor_tets, "preop mesh should include the tumor");
    // Pipeline recovered a deformation of the right order.
    let fe = field_error(&res.forward_field, &case.gt_forward, 3.0);
    assert!(fe.voxels > 100);
    assert!(
        fe.mean_error_mm < fe.mean_truth_mm,
        "error {} exceeds signal {}",
        fe.mean_error_mm,
        fe.mean_truth_mm
    );
}

#[test]
fn pipeline_is_deterministic() {
    let case = case();
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let a = run_pipeline(&case.preop.intensity, &case.preop.labels, &case.intraop.intensity, &cfg).expect("pipeline failed");
    let b = run_pipeline(&case.preop.intensity, &case.preop.labels, &case.intraop.intensity, &cfg).expect("pipeline failed");
    assert_eq!(a.fem.stats.iterations, b.fem.stats.iterations);
    for (x, y) in a.fem.displacements.iter().zip(&b.fem.displacements) {
        assert!((*x - *y).norm() < 1e-12);
    }
}

#[test]
fn pipeline_survives_garbage_intraop_scan() {
    // Failure injection: a pure-noise "scan" must not panic the pipeline;
    // with no coherent brain boundary to track, the recovered deformation
    // should stay small rather than explode.
    use brainshift_imaging::Volume;
    use rand::{Rng, SeedableRng};
    let case = case();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let noise = Volume::from_fn(
        case.intraop.intensity.dims(),
        case.intraop.intensity.spacing(),
        |_, _, _| rng.gen_range(0.0f32..255.0),
    );
    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &noise,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    ).expect("pipeline failed");
    assert!(res.forward_field.max_magnitude().is_finite());
    assert!(
        res.forward_field.max_magnitude() < 60.0,
        "garbage input produced a runaway field: {} mm",
        res.forward_field.max_magnitude()
    );
}

#[test]
fn pipeline_with_intensity_drift_needs_normalization() {
    // Simulate scanner drift: the later scan arrives with a gain/offset
    // distortion. With histogram matching enabled the pipeline still
    // recovers the deformation.
    use brainshift_imaging::Volume;
    let case = case();
    let drifted = Volume::from_vec(
        case.intraop.intensity.dims(),
        case.intraop.intensity.spacing(),
        case.intraop.intensity.data().iter().map(|&v| 1.6 * v + 40.0).collect(),
    );
    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &drifted,
        &PipelineConfig { skip_rigid: true, normalize_intensity: true, ..Default::default() },
    ).expect("pipeline failed");
    assert!(res.fem.stats.converged());
    let fe = brainshift_core::metrics::field_error(&res.forward_field, &case.gt_forward, 3.0);
    assert!(
        fe.mean_error_mm < fe.mean_truth_mm,
        "drifted scan not recovered: {} vs {}",
        fe.mean_error_mm,
        fe.mean_truth_mm
    );
    assert!(res.timeline.seconds_of("intensity normalization") > 0.0);
}

#[test]
fn scan_on_a_foreign_grid_is_a_typed_error_not_a_panic() {
    // `skip_rigid` promises a shared frame; a scan that breaks the promise
    // must come back as the typed grid error of `register_scan`, not die
    // on the feature stack's grid assert.
    use brainshift_core::Error;
    use brainshift_imaging::phantom::generate_preop;
    let spacing = Spacing::iso(4.5);
    let reference =
        generate_preop(&PhantomConfig { dims: Dims::new(32, 32, 24), spacing, ..Default::default() });
    let foreign =
        generate_preop(&PhantomConfig { dims: Dims::new(30, 32, 24), spacing, ..Default::default() });
    let res = run_pipeline(
        &reference.intensity,
        &reference.labels,
        &foreign.intensity,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    );
    let Err(Error::Pipeline(msg)) = res else { panic!("expected the typed grid error") };
    assert!(msg.contains("scan grid") && msg.contains("does not match"), "{msg}");
}
