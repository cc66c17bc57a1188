//! Quickstart: run the complete intraoperative registration pipeline on a
//! synthetic neurosurgery case.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a brain phantom, simulates a craniotomy brain shift with an
//! elastic ground truth, runs the paper's pipeline (tissue classification →
//! active surface → biomechanical FEM → resample) and reports how well the
//! deformation was recovered.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::field_error;
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

fn main() {
    println!("brainshift quickstart");
    println!("=====================\n");

    // 1. A synthetic neurosurgery case: preoperative scan + later
    //    intraoperative scan in which the brain has sunk 8 mm under the
    //    craniotomy (elastic-consistent ground truth).
    let phantom = PhantomConfig {
        dims: Dims::new(48, 48, 36),
        spacing: Spacing::iso(3.0),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() };
    println!("generating case ({}x{}x{} voxels, {:.1} mm)...", phantom.dims.nx, phantom.dims.ny, phantom.dims.nz, phantom.spacing.dx);
    let case = generate_elastic_case(&phantom, &shift, &ElasticCaseOptions::default());
    println!("  ground-truth FEM: {} equations, peak shift {:.1} mm\n", case.gt_equations, shift.peak_shift_mm);

    // 2. The pipeline, exactly as in the operating room (we skip the MI
    //    rigid stage because the synthetic scans share a frame; see the
    //    `neurosurgery_case` example for the full chain).
    println!("running intraoperative pipeline...");
    let result = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &case.intraop.intensity,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    ).expect("pipeline failed");

    // 3. Report.
    println!("  mesh: {} nodes, {} tets", result.mesh.num_nodes(), result.mesh.num_tets());
    println!(
        "  FEM: {} equations, {} converged in {} iterations",
        result.fem.total_equations,
        result.fem.rungs.last().map_or("solver", |r| r.solver),
        result.fem.stats.iterations
    );
    println!("  active surface residual: {:.2} mm", result.surface_residual);
    println!("\nstage timings (the paper's Figure 6):");
    print!("{}", result.timeline.render());

    let err = field_error(&result.forward_field, &case.gt_forward, 2.0);
    println!("\nrecovered deformation vs ground truth (where truth > 2 mm):");
    println!(
        "  mean error {:.2} mm over {} voxels (mean true shift {:.2} mm)",
        err.mean_error_mm, err.voxels, err.mean_truth_mm
    );
    println!(
        "  peak recovered {:.2} mm vs peak truth {:.2} mm",
        result.forward_field.max_magnitude(),
        case.gt_forward.max_magnitude()
    );
}
