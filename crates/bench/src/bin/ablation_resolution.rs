//! Ablation: image resolution vs recovery accuracy.
//!
//! The paper's intraoperative scans are 256×256×60 (~1 mm in-plane); our
//! tests run coarser for speed. This study quantifies how the pipeline's
//! field-recovery error scales with voxel size — separating the method's
//! intrinsic accuracy from discretization effects (k-NN boundary bleed is
//! ~1 voxel, so the error floor should track the voxel size). It asserts
//! that the relative error at 2 mm is below the one at 5 mm.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::field_error;
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

fn main() {
    println!("## Ablation — voxel size vs deformation recovery\n");
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "voxel(mm)", "grid", "mean err", "rel err", "peak rec", "surf res"
    );
    // Constant physical head (~160×160×120 mm) at increasing resolution.
    let errors = [(32usize, 24usize, 5.0f64), (40, 30, 4.0), (54, 40, 3.0), (64, 48, 2.5), (80, 60, 2.0)].map(|(nx, nz, mm)| {
        let cfg = PhantomConfig {
            dims: Dims::new(nx, nx, nz),
            spacing: Spacing::iso(mm),
            ..Default::default()
        };
        let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &PipelineConfig { skip_rigid: true, ..Default::default() },
        ).expect("pipeline failed");
        let fe = field_error(&res.forward_field, &case.gt_forward, 2.0);
        println!(
            "{:>10.1} {:>12} {:>7.2} mm {:>10.2} {:>7.2} mm {:>7.2} mm",
            mm,
            format!("{nx}x{nx}x{nz}"),
            fe.mean_error_mm,
            fe.relative_error,
            res.forward_field.max_magnitude(),
            res.surface_residual
        );
        fe.relative_error
    });
    println!("\n(error tracks voxel size: the pipeline's accuracy floor is set by");
    println!(" the discrete segmentation boundary, not by the mechanics — at the");
    println!(" paper's ~1 mm scans the same machinery lands proportionally closer.)");
    let [coarse, .., fine] = errors;
    assert!(fine < coarse, "relative error {fine} at 2 mm, {coarse} at 5 mm");
}
