//! Cross-validation: gravity physics vs image-driven recovery.
//!
//! The strongest end-to-end check in the repository: the ground-truth
//! deformation is produced by *physics* (tissue weight sagging into a
//! freed craniotomy patch — no displacement is prescribed anywhere), the
//! intraoperative scan is synthesized from it, and the paper's pipeline
//! must recover the deformation from the images alone. Nothing about the
//! ground truth's functional form is available to the pipeline. The
//! program asserts that the recovered field's relative error is below 1
//! at both thresholds: the recovery beats the zero field.
//!
//! ```bash
//! cargo run --release -p brainshift-bench --bin gravity_crossval
//! ```

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions, GroundTruthDrive};
use brainshift_core::metrics::field_error;
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

fn main() {
    println!("## Cross-validation — gravity-driven truth, image-driven recovery\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    // peak_shift_mm is ignored by the gravity drive; only the axis is used.
    let shift = BrainShiftConfig { resect_tumor: false, ..Default::default() };
    let case = generate_elastic_case(
        &cfg,
        &shift,
        &ElasticCaseOptions {
            drive: GroundTruthDrive::GravityCraniotomy { opening_radius_mm: 45.0 },
            ..Default::default()
        },
    );
    println!(
        "gravity ground truth: {} equations, peak sag {:.2} mm, mean {:.3} mm",
        case.gt_equations,
        case.gt_forward.max_magnitude(),
        case.gt_forward.mean_magnitude()
    );

    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &case.intraop.intensity,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    ).expect("pipeline failed");
    println!(
        "pipeline: FEM {} equations, {} iterations, surface residual {:.2} mm",
        res.fem.total_equations, res.fem.stats.iterations, res.surface_residual
    );
    println!(
        "recovered: peak {:.2} mm, mean {:.3} mm",
        res.forward_field.max_magnitude(),
        res.forward_field.mean_magnitude()
    );
    for thr in [1.0f64, 2.0] {
        let fe = field_error(&res.forward_field, &case.gt_forward, thr);
        println!(
            "where truth > {thr:.0} mm ({} voxels): mean err {:.2} mm of {:.2} mm truth (relative {:.2})",
            fe.voxels, fe.mean_error_mm, fe.mean_truth_mm, fe.relative_error
        );
        assert!(fe.relative_error < 1.0, "no better than the zero field where truth > {thr} mm");
    }
    println!("\n(the pipeline never sees the gravity model — recovery comes from the");
    println!(" images alone. Error below the truth magnitude means the registration");
    println!(" machinery captures physics-generated deformation it was not fit to.)");
}
