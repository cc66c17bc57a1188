//! Ablation: rigid (the paper) vs affine registration under scanner
//! geometry error.
//!
//! The paper's MI alignment is rigid — correct when both scans come from
//! the same calibrated scanner. A gradient-scale miscalibration adds
//! anisotropic scale that rigid cannot absorb and that would otherwise be
//! (wrongly) handed to the biomechanical stage. This study measures both
//! models against a scan with 5% z-scale error plus a small rotation, and
//! asserts what it prints: the affine model aligns better than the rigid
//! one and recovers the volume factor to within 0.5 %. The search cost is
//! the metric evaluations, not a clock, so the output is the same bytes
//! on every run.

use brainshift_imaging::interp::resample_with;
use brainshift_imaging::phantom::{generate_preop, PhantomConfig};
use brainshift_imaging::similarity::ncc;
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::Vec3;
use brainshift_register::{register_affine, register_rigid, AffineTransform};

fn main() {
    println!("## Ablation — rigid vs affine registration under scale error\n");
    let scan = generate_preop(&PhantomConfig {
        dims: Dims::new(48, 48, 36),
        spacing: Spacing::iso(3.3),
        ..Default::default()
    });
    let d = scan.intensity.dims();
    let c = Vec3::new(d.nx as f64 / 2.0, d.ny as f64 / 2.0, d.nz as f64 / 2.0);
    // True distortion: 5% z-scale + 2° rotation + 1.5-voxel shift.
    let truth = AffineTransform::from_params(
        &[0.0, 0.0, 0.035, 0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 1.5, -1.0, 0.5],
        c,
    );
    let moving = resample_with(&scan.intensity, &scan.intensity, 0.0, |p| truth.apply(p));
    let before = ncc(&scan.intensity, &moving);
    println!("misalignment: 5% z-scale, 2 deg rotation, subvoxel shift (ncc {before:.3})\n");
    println!("{:<8} {:>8} {:>12}", "model", "ncc", "evaluations");

    let rigid = register_rigid(&scan.intensity, &moving);
    let aligned_r = resample_with(&moving, &scan.intensity, 0.0, |p| rigid.transform.apply(p));
    let ncc_rigid = ncc(&scan.intensity, &aligned_r);
    println!("{:<8} {:>8.3} {:>12}", "rigid", ncc_rigid, rigid.evaluations);

    let affine = register_affine(&scan.intensity, &moving);
    let aligned_a = resample_with(&moving, &scan.intensity, 0.0, |p| affine.transform.apply(p));
    let ncc_affine = ncc(&scan.intensity, &aligned_a);
    println!("{:<8} {:>8.3} {:>12}", "affine", ncc_affine, affine.evaluations);
    let (found, truth) = (affine.transform.volume_factor(), 1.0 / truth.volume_factor());
    println!("\nrecovered volume factor {found:.4} (truth {truth:.4})");
    let ratio = affine.evaluations as f64 / rigid.evaluations as f64;
    println!("\n(the rigid model leaves the scale error as residual mismatch that the");
    println!(" nonrigid stage would wrongly attribute to brain deformation; the");
    println!(" 12-DOF model absorbs it, at {ratio:.1}x the metric evaluations of the");
    println!(" rigid search — run once per surgery, that cost is immaterial.)");
    assert!(ncc_affine > ncc_rigid, "affine ncc {ncc_affine} does not beat rigid ncc {ncc_rigid}");
    assert!(
        (found / truth - 1.0).abs() < 0.005,
        "recovered volume factor {found} is not within 0.5 % of the truth {truth}"
    );
}
