//! Ablation: active-surface force formulation.
//!
//! The paper derives its forces from image gradients with gray-level
//! priors; a distance potential over the segmented target is the more
//! robust modern choice. Both are implemented — this study compares them
//! head-to-head on the same case, and also sweeps the membrane tension
//! (the internal-force weight the paper's formulation leaves implicit)
//! either side of the default, which the distance-potential row runs. It
//! asserts that on this case the distance potential's relative error is
//! below the image gradient's.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::field_error;
use brainshift_core::pipeline::{run_pipeline, PipelineConfig, SurfaceForceKind};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_surface::ActiveSurfaceConfig;

fn main() {
    println!("## Ablation — active-surface force formulation and tension\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());

    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "mean err", "rel err", "peak rec", "surf res"
    );
    let run = |name: &str, pcfg: PipelineConfig| -> f64 {
        let res = run_pipeline(&case.preop.intensity, &case.preop.labels, &case.intraop.intensity, &pcfg).expect("pipeline failed");
        let fe = field_error(&res.forward_field, &case.gt_forward, 2.0);
        println!(
            "{:<22} {:>7.2} mm {:>10.2} {:>7.2} mm {:>7.2} mm",
            name,
            fe.mean_error_mm,
            fe.relative_error,
            res.forward_field.max_magnitude(),
            res.surface_residual
        );
        fe.relative_error
    };

    let distance = run(
        "distance potential",
        PipelineConfig { skip_rigid: true, surface_force: SurfaceForceKind::DistancePotential, ..Default::default() },
    );
    let gradient = run(
        "image gradient (paper)",
        PipelineConfig { skip_rigid: true, surface_force: SurfaceForceKind::ImageGradient, ..Default::default() },
    );
    for tension in [0.02f64, 0.4] {
        run(
            &format!("distance, tension {tension}"),
            PipelineConfig {
                skip_rigid: true,
                active_surface: ActiveSurfaceConfig { tension, ..Default::default() },
                ..Default::default()
            },
        );
    }
    println!("\n(the gradient formulation needs no segmentation of the target scan");
    println!(" but is noisier; higher tension smooths the surface at the cost of");
    println!(" undershooting the sunken cap — the trade-off behind our defaults.)");
    assert!(distance < gradient, "distance-potential relative error {distance}, image-gradient {gradient}");
}
