//! Figure 4: accuracy of the recovered volumetric deformation.
//!
//! The paper shows four 2-D slices: (a) the first intraoperative scan,
//! (b) the later scan after brain shift, (c) the first scan deformed by
//! the simulation to match, (d) the magnitude of the difference — judged
//! by "the very small intensity differences at the boundary of the
//! simulated deformed brain", plus "a small misregistration of the
//! lateral ventricles" blamed on the homogeneous model.
//!
//! We regenerate the four slices as PGM files and, because our phantom
//! has ground truth, print the quantitative versions: intensity residual
//! statistics before/after simulation, per-structure Dice, and the
//! deformation-field error report.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::{field_error, intensity_residual, structure_overlaps};
use brainshift_core::pipeline::{composite_warped, run_pipeline, PipelineConfig};
use brainshift_fem::MaterialTable;
use brainshift_imaging::field::warp_labels_backward;
use brainshift_imaging::io::write_slice_pgm;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::labels;
use std::path::PathBuf;

fn main() {
    let out_dir = PathBuf::from("bench_out");
    std::fs::create_dir_all(&out_dir).expect("create bench_out/");

    println!("## Figure 4 — accuracy of the simulated deformation\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: true, ..Default::default() };
    // Heterogeneous ground truth vs the pipeline's homogeneous model:
    // reproduces the paper's ventricle-misregistration observation.
    let case = generate_elastic_case(
        &cfg,
        &shift,
        &ElasticCaseOptions { materials: MaterialTable::heterogeneous(), ..Default::default() },
    );
    println!("ground truth: {} equations, peak shift {:.1} mm", case.gt_equations, shift.peak_shift_mm);

    let pipe_cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let res = run_pipeline(&case.preop.intensity, &case.preop.labels, &case.intraop.intensity, &pipe_cfg).expect("pipeline failed");
    println!(
        "pipeline: mesh {} nodes / {} tets, FEM {} eqs ({} free), {} {} iters, converged: {}",
        res.mesh.num_nodes(),
        res.mesh.num_tets(),
        res.fem.total_equations,
        res.fem.reduced_equations,
        res.fem.rungs.last().map_or("solver", |r| r.solver),
        res.fem.stats.iterations,
        res.fem.stats.converged()
    );

    // ---- The four slices. ----
    let z = cfg.dims.nz / 2;
    let (lo, hi) = case.preop.intensity.min_max();
    write_slice_pgm(&case.preop.intensity, z, lo, hi, &out_dir.join("fig4a_first_scan.pgm")).unwrap();
    write_slice_pgm(&case.intraop.intensity, z, lo, hi, &out_dir.join("fig4b_second_scan.pgm")).unwrap();
    let comp = composite_warped(&res.warped_reference, &case.intraop.intensity, &res.intraop_seg);
    write_slice_pgm(&comp, z, lo, hi, &out_dir.join("fig4c_simulated_match.pgm")).unwrap();
    let diff = Volume::from_vec(
        comp.dims(),
        comp.spacing(),
        comp.data()
            .iter()
            .zip(case.intraop.intensity.data())
            .map(|(a, b)| (a - b).abs())
            .collect(),
    );
    write_slice_pgm(&diff, z, 0.0, hi * 0.5, &out_dir.join("fig4d_difference.pgm")).unwrap();
    // Checkerboard QA composites: rigid-only vs after simulation.
    let cb_before = brainshift_imaging::similarity::checkerboard(&case.preop.intensity, &case.intraop.intensity, 8);
    let cb_after = brainshift_imaging::similarity::checkerboard(&comp, &case.intraop.intensity, 8);
    write_slice_pgm(&cb_before, z, lo, hi, &out_dir.join("fig4_checker_rigid.pgm")).unwrap();
    write_slice_pgm(&cb_after, z, lo, hi, &out_dir.join("fig4_checker_simulated.pgm")).unwrap();
    println!("\nslices written to bench_out/fig4a..d*.pgm (+ checkerboard QA, axial z={z})");

    // ---- Quantitative Figure 4(d). ----
    let brain_mask = case.intraop.labels.map(|&l| labels::is_brain_tissue(l));
    let before = intensity_residual(&case.preop.intensity, &case.intraop.intensity, &brain_mask);
    let after = intensity_residual(&comp, &case.intraop.intensity, &brain_mask);
    // Lower bound: even a perfect registration leaves scan-to-scan noise
    // (the paper: "intrinsic MR scanner intensity variability causes a
    // small variation in the observed voxel intensities from scan to
    // scan"). Measure it directly: re-render the SAME deformed anatomy
    // with an independent noise realization and difference the renders.
    let rerender = brainshift_imaging::phantom::render_intensity(
        &case.intraop.labels,
        &PhantomConfig { seed: cfg.seed.wrapping_add(1234), ..cfg.clone() },
    );
    let floor = intensity_residual(&rerender, &case.intraop.intensity, &brain_mask);
    println!("\nintensity residual in the brain (|I1 - I2| per voxel):");
    println!("  rigid alignment only : mean {:>6.2}  rms {:>6.2}  p95 {:>6.2}", before.mean_abs, before.rms, before.p95);
    println!("  after simulation     : mean {:>6.2}  rms {:>6.2}  p95 {:>6.2}", after.mean_abs, after.rms, after.p95);
    println!("  scan-noise floor     : mean {:>6.2}  rms {:>6.2}  p95 {:>6.2}", floor.mean_abs, floor.rms, floor.p95);
    println!(
        "  => simulation removes {:.0}% of the correctable rms residual",
        (before.rms - after.rms) / (before.rms - floor.rms).max(1e-9) * 100.0
    );
    println!("  (the remaining gap concentrates at the brain boundary and in the");
    println!("   gray/white texture, which misregisters in proportion to the");
    println!("   residual field error below)");

    // ---- Field error (possible only with synthetic ground truth). ----
    let fe = field_error(&res.forward_field, &case.gt_forward, 2.0);
    println!("\ndeformation-field error where ‖truth‖ > 2 mm ({} voxels):", fe.voxels);
    println!(
        "  mean {:.2} mm, rms {:.2} mm, max {:.2} mm (mean truth {:.2} mm, relative {:.2})",
        fe.mean_error_mm, fe.rms_error_mm, fe.max_error_mm, fe.mean_truth_mm, fe.relative_error
    );

    // ---- The ventricle observation. ----
    let warped_seg = warp_labels_backward(&case.preop.labels, &res.backward_field, labels::BACKGROUND);
    let overlaps = structure_overlaps(
        &case.preop.labels,
        &warped_seg,
        &case.intraop.labels,
        &[labels::BRAIN, labels::VENTRICLE, labels::FALX],
    );
    println!("\nper-structure Dice (rigid-only → after simulation):");
    for o in &overlaps {
        println!("  {:<10} {:.3} → {:.3}", o.name, o.dice_rigid_only, o.dice_after_simulation);
    }
    println!("\n(homogeneous pipeline vs heterogeneous truth: residual ventricle");
    println!(" misregistration is expected — the paper's Fig 4 discussion.)");
}
