//! A full neurosurgery case, following the paper's clinical protocol:
//!
//! 1. the *first intraoperative scan* is acquired and (here: trusted)
//!    segmented — the patient-specific anatomical model;
//! 2. a later scan arrives in a different scanner frame (the patient/coil
//!    moved) with brain shift and the tumor resected;
//! 3. MI rigid registration brings the model into the new frame;
//! 4. k-NN tissue classification, active surface, biomechanical FEM;
//! 5. the first scan (and anything registered to it preoperatively, e.g.
//!    fMRI) is warped onto the current brain configuration.
//!
//! ```bash
//! cargo run --release --example neurosurgery_case
//! ```

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::intensity_residual;
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_imaging::io::{write_nrrd_f32, write_slice_pgm};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{apply_rigid_misalignment, BrainShiftConfig, PhantomConfig, PhantomScan};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{Mat3, Vec3};

fn main() {
    println!("neurosurgery case: resection with brain shift + frame change");
    println!("=============================================================\n");
    let phantom = PhantomConfig {
        dims: Dims::new(48, 48, 36),
        spacing: Spacing::iso(3.0),
        ..Default::default()
    };
    // Brain shift with tumor resection (the paper's cases: "significant
    // nonrigid deformation and loss of tissue due to tumor resection").
    let shift = BrainShiftConfig { peak_shift_mm: 7.0, resect_tumor: true, ..Default::default() };
    let case = generate_elastic_case(&phantom, &shift, &ElasticCaseOptions::default());

    // The later scan arrives rigidly misaligned (different scan frame):
    // 3° about z plus a few-voxel translation.
    let moved = apply_rigid_misalignment(
        &PhantomScan { intensity: case.intraop.intensity.clone(), labels: case.intraop.labels.clone() },
        Mat3::rot_z(0.05),
        Vec3::new(2.0, -1.5, 0.0),
    );
    println!("later scan: tumor resected, brain sunk {:.0} mm, frame rotated 2.9 deg\n", shift.peak_shift_mm);

    // Full pipeline including MI rigid registration.
    let result = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &moved.intensity,
        &PipelineConfig::default(),
    ).expect("pipeline failed");

    if let Some(r) = &result.rigid {
        let (angle, trans) = r.transform.magnitude();
        println!(
            "rigid registration: recovered {:.1} deg rotation, {:.1} voxel translation ({} MI evaluations)",
            angle.to_degrees(),
            trans,
            r.evaluations
        );
    }
    println!(
        "segmentation found {} resection-cavity-free brain voxels",
        result.intraop_seg.data().iter().filter(|&&l| labels::is_brain_tissue(l)).count()
    );
    println!(
        "FEM: {} equations, {} iterations, converged: {}",
        result.fem.total_equations,
        result.fem.stats.iterations,
        result.fem.stats.converged()
    );

    // How much better is the nonrigid result than rigid-only, in the brain?
    let brain = result.intraop_seg.map(|&l| labels::is_brain_tissue(l));
    let after = intensity_residual(&result.warped_reference, &moved.intensity, &brain);
    println!("\nresidual |warped first scan − current scan| in brain: mean {:.2}, p95 {:.2}", after.mean_abs, after.p95);

    // Write a mid-axial slice strip for visual inspection.
    let out = std::path::PathBuf::from("bench_out");
    std::fs::create_dir_all(&out).unwrap();
    let z = phantom.dims.nz / 2;
    let (lo, hi) = case.preop.intensity.min_max();
    write_slice_pgm(&case.preop.intensity, z, lo, hi, &out.join("case_first_scan.pgm")).unwrap();
    write_slice_pgm(&moved.intensity, z, lo, hi, &out.join("case_later_scan.pgm")).unwrap();
    write_slice_pgm(&result.warped_reference, z, lo, hi, &out.join("case_warped.pgm")).unwrap();
    // Full volumes and the deformed mesh for 3D Slicer / ParaView.
    write_nrrd_f32(&result.warped_reference, &out.join("case_warped.nhdr")).unwrap();
    brainshift_mesh::write_vtk(&result.mesh, Some(&result.fem.displacements), &out.join("case_mesh.vtk")).unwrap();
    println!("\nslices written to bench_out/case_*.pgm");
    println!("volume: bench_out/case_warped.nhdr (3D Slicer); mesh: bench_out/case_mesh.vtk (ParaView)");
    println!("\nstage timings:");
    print!("{}", result.stage_timings.render());
}
