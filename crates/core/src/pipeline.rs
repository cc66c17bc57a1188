//! The intraoperative nonrigid registration pipeline — the paper's
//! primary contribution (its Figure 1 schema):
//!
//! preop MRI + segmentation ──(MI rigid registration)──▶ intraop frame
//!     └▶ spatial localization model ──▶ k-NN tissue classification
//!             └▶ brain surface target ──▶ active surface displacements
//!                     └▶ biomechanical FEM ──▶ volumetric deformation
//!                             └▶ resampled ("warped") preoperative data
//!
//! The stages themselves are composed in exactly one place,
//! [`PreparedSurgery::register_scan`]. This module holds the
//! configuration they share and [`run_pipeline`], the one-shot form:
//! align the inputs, prepare a surgery, build its solver context,
//! register the one scan, warp the reference.

use crate::error::Error;
use crate::surgery::PreparedSurgery;
use crate::timeline::StageTimings;
use brainshift_fem::{FemSolveConfig, FemSolution, MaterialTable};
use brainshift_imaging::field::{invert_field, warp_volume_backward};
use brainshift_imaging::{labels, DisplacementField, Volume};
use brainshift_mesh::{MesherConfig, TetMesh, TriSurface};
use brainshift_obs::Stopwatch;
use brainshift_register::{register_rigid, RigidRegResult};
use brainshift_segment::SegmentConfig;
use brainshift_surface::ActiveSurfaceConfig;

/// Which external force drives the active surface toward the intraop
/// brain boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceForceKind {
    /// Potential from the signed distance transform of the segmented
    /// target mask — robust, the default.
    DistancePotential,
    /// The paper's formulation: forces derived from the image gradients
    /// ("a decreasing function of the data gradients") with a gray-level
    /// prior for the brain/CSF boundary.
    ImageGradient,
}

/// Saturation of the active-surface pull per iteration (mm).
pub const SURFACE_FORCE_STEP: f64 = 2.0;

/// Pipeline configuration: one knob per stage.
///
/// `skip_rigid` and `normalize_intensity` are input alignment:
/// [`run_pipeline`] consumes them *before* the per-surgery split, because
/// a [`PreparedSurgery`] expects every scan already in the reference
/// frame and intensity range (it never sees the reference intensity) and
/// ignores both. The other six fields are what [`PreparedSurgery`] reads,
/// once per surgery and per scan.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Skip rigid registration when scans are known to share a frame
    /// (saves time in tests; the OR always runs it).
    pub skip_rigid: bool,
    /// Intraoperative k-NN segmentation settings.
    pub segment: SegmentConfig,
    /// Tetrahedral mesher settings.
    pub mesher: MesherConfig,
    /// Active-surface evolution settings.
    pub active_surface: ActiveSurfaceConfig,
    /// External force formulation for the active surface.
    pub surface_force: SurfaceForceKind,
    /// Histogram-match the intraoperative scan to the reference before
    /// classification (corrects the paper's "intrinsic MR scanner
    /// intensity variability" when scanner drift between acquisitions is
    /// large; off by default).
    pub normalize_intensity: bool,
    /// Tissue material table for the FEM.
    pub materials: MaterialTable,
    /// Krylov solver / preconditioner settings.
    pub fem: FemSolveConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            skip_rigid: false,
            segment: SegmentConfig::default(),
            mesher: MesherConfig { step: 2, include: labels::is_brain_tissue },
            active_surface: ActiveSurfaceConfig::default(),
            surface_force: SurfaceForceKind::DistancePotential,
            normalize_intensity: false,
            materials: MaterialTable::homogeneous(),
            fem: FemSolveConfig::default(),
        }
    }
}

/// Everything the pipeline produces for one intraoperative scan.
pub struct PipelineResult {
    /// Recovered rigid transform (`None` when `skip_rigid`).
    pub rigid: Option<RigidRegResult>,
    /// Intraoperative segmentation (k-NN over the multichannel stack, on
    /// every voxel whatever `SegmentConfig::band_mm` says).
    pub intraop_seg: Volume<u8>,
    /// Volumetric mesh of the (registered) reference brain.
    pub mesh: TetMesh,
    /// Brain boundary surface of the mesh.
    pub brain_surface: TriSurface,
    /// Mean residual distance of the active surface to the target (mm).
    pub surface_residual: f64,
    /// FEM solve outcome.
    pub fem: FemSolution,
    /// Forward volumetric deformation on the reference grid: reference
    /// point `p` maps to `p + forward(p)`.
    pub forward_field: DisplacementField,
    /// Backward field on the intraop grid for resampling.
    pub backward_field: DisplacementField,
    /// The reference (preop / first-scan) intensity warped onto the
    /// intraoperative configuration — the paper's Figure 4(c).
    pub warped_reference: Volume<f32>,
    /// Paper-style per-stage breakdown (Figure 6): the input alignment,
    /// the scan's classifier, surface, solve and resample (plus field
    /// inversion and the warp), and the once-per-surgery preparation,
    /// assembly, reduction and factorization this one-shot call also paid.
    pub stage_timings: StageTimings,
}

/// Run the full intraoperative pipeline for one scan: the one-shot form
/// of [`PreparedSurgery`]. The reference is aligned to the scan (MI rigid
/// registration unless `cfg.skip_rigid`), the scan optionally
/// histogram-matched to it, then a surgery is prepared from the aligned
/// segmentation, its solver context built, the scan registered, and the
/// aligned reference warped through the inverted field. Callers with
/// more than one scan keep the [`PreparedSurgery`] and the context.
///
/// * `reference_intensity` / `reference_seg` — the first scan (or preop
///   data registered to it) with its trusted segmentation; this is the
///   "patient-specific atlas".
/// * `intraop_intensity` — the later scan exhibiting brain shift. With
///   `skip_rigid` it must be on the reference's grid.
///
/// Hard failures — an empty mesh, a scan on a foreign grid, a singular
/// preconditioner block — are returned as [`Error`]. A solver that
/// merely fails to converge is *not* an error; the scan degrades as every
/// scan does (see [`crate::ScanStatus::Degraded`]):
/// `result.fem.stats.converged()` is false, `result.fem.displacements`
/// is the unconverged iterate, and `forward_field` — there being no
/// earlier scan to carry forward — is zero.
pub fn run_pipeline(
    reference_intensity: &Volume<f32>,
    reference_seg: &Volume<u8>,
    intraop_intensity: &Volume<f32>,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, Error> {
    let mut sw = Stopwatch::wall();

    // ── Rigid registration: bring the reference into the intraop frame. ──
    let (rigid, ref_intensity_aligned, ref_seg_aligned) = if cfg.skip_rigid {
        (None, reference_intensity.clone(), reference_seg.clone())
    } else {
        let res = register_rigid(intraop_intensity, reference_intensity);
        let t = res.transform;
        let aligned_int = brainshift_imaging::interp::resample_with(
            reference_intensity,
            intraop_intensity,
            0.0,
            |p| t.apply(p),
        );
        let aligned_seg = brainshift_imaging::interp::resample_labels_with(
            reference_seg,
            intraop_intensity.dims(),
            intraop_intensity.spacing(),
            labels::BACKGROUND,
            |p| t.apply(p),
        );
        (Some(res), aligned_int, aligned_seg)
    };

    // ── Optional intensity normalization against the reference. ──
    let normalized;
    let intraop_intensity = if cfg.normalize_intensity {
        normalized =
            brainshift_imaging::normalize::match_histogram(intraop_intensity, &ref_intensity_aligned);
        &normalized
    } else {
        intraop_intensity
    };
    let alignment_s = sw.lap_s();

    // ── Once per surgery, then the one scan (Fig 6's two halves). ──
    // The segmentation is a product here (composited display, Dice), not
    // only the surface's target, so the one-shot classifies every voxel.
    let whole_volume = PipelineConfig {
        segment: SegmentConfig { band_mm: f32::INFINITY, ..cfg.segment.clone() },
        ..cfg.clone()
    };
    let prepared = PreparedSurgery::new(&ref_seg_aligned, whole_volume)?;
    let prepare_s = sw.lap_s();
    let mut ctx = prepared.build_solver_context()?;
    let reg = prepared.register_scan(&mut ctx, intraop_intensity, None, None, None)?;

    // ── Resample the reference through the field (the visualization step). ──
    sw.lap_s();
    let backward_field = invert_field(&reg.field, 10);
    let warped_reference = warp_volume_backward(&ref_intensity_aligned, &backward_field, 0.0);
    let warp_s = sw.lap_s();

    // The one stiffness assembly runs inside `new` but is biomechanical
    // simulation in the paper's stage vocabulary.
    let assembly_s = prepared.assembly_s();
    let mut stage_timings = reg.timings;
    stage_timings.add_per_surgery(prepare_s, assembly_s, &ctx.timings());
    stage_timings.resample_s += warp_s;
    stage_timings.alignment_s = alignment_s;

    let PreparedSurgery { mesh, surface: brain_surface, .. } = prepared;
    Ok(PipelineResult {
        rigid,
        intraop_seg: reg.segmentation,
        mesh,
        brain_surface,
        surface_residual: reg.surface_residual,
        fem: reg.fem,
        forward_field: reg.field,
        backward_field,
        warped_reference,
        stage_timings,
    })
}

/// Composite the warped brain into the intraop scan background for
/// difference images: outside the deformable region the intraop scan is
/// used (skin/skull don't move), inside the warped reference is shown.
pub fn composite_warped(
    warped_reference: &Volume<f32>,
    intraop_intensity: &Volume<f32>,
    intraop_seg: &Volume<u8>,
) -> Volume<f32> {
    assert_eq!(warped_reference.dims(), intraop_intensity.dims());
    let mut out = intraop_intensity.clone();
    for (i, &l) in intraop_seg.data().iter().enumerate() {
        if labels::is_brain_tissue(l) {
            out.data_mut()[i] = warped_reference.data()[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::{generate_elastic_case, ElasticCase, ElasticCaseOptions};
    use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
    use brainshift_imaging::volume::{Dims, Spacing};

    fn small_case() -> ElasticCase {
        generate_elastic_case(
            &PhantomConfig {
                dims: Dims::new(48, 48, 36),
                spacing: Spacing::iso(3.0),
                ..Default::default()
            },
            &BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() },
            &ElasticCaseOptions::default(),
        )
    }

    fn fast_cfg() -> PipelineConfig {
        PipelineConfig {
            skip_rigid: true,
            mesher: MesherConfig { step: 2, include: labels::is_brain_tissue },
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_runs_end_to_end_and_recovers_shift() {
        let case = small_case();
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &fast_cfg(),
        ).expect("pipeline failed");
        assert!(res.fem.stats.converged(), "FEM did not converge");
        assert!(res.mesh.num_tets() > 100);
        // Recovered forward field should capture the deformation where it
        // is significant (well above the voxel-discretization floor).
        let d = case.preop.labels.dims();
        let mut err_sum = 0.0;
        let mut gt_sum = 0.0;
        let mut n = 0usize;
        for z in 0..d.nz {
            for y in 0..d.ny {
                for x in 0..d.nx {
                    let gt = case.gt_forward.get(x, y, z);
                    if gt.norm() > 3.0 {
                        let rec = res.forward_field.get(x, y, z);
                        err_sum += (rec - gt).norm();
                        gt_sum += gt.norm();
                        n += 1;
                    }
                }
            }
        }
        assert!(n > 0);
        let mean_err = err_sum / n as f64;
        let mean_gt = gt_sum / n as f64;
        // At 3 mm voxels the k-NN surface sits ~1 voxel high (partial
        // volume), so pointwise recovery in the strongly-deformed region
        // plateaus around 30%; the *peak* deformation must be captured
        // nearly fully (see EXPERIMENTS.md for the resolution study).
        assert!(
            mean_err < 0.8 * mean_gt,
            "mean error {mean_err:.2} mm vs mean shift {mean_gt:.2} mm"
        );
        let max_rec = res.forward_field.max_magnitude();
        let max_gt = case.gt_forward.max_magnitude();
        assert!(
            (max_rec - max_gt).abs() < 0.35 * max_gt,
            "peak deformation {max_rec:.2} vs {max_gt:.2}"
        );
    }

    #[test]
    fn warped_reference_matches_intraop_better_than_unwarped() {
        let case = small_case();
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &fast_cfg(),
        ).expect("pipeline failed");
        // Compare intensity difference in the brain region.
        let brain = case.intraop.labels.map(|&l| labels::is_brain_tissue(l));
        let diff = |a: &Volume<f32>| -> f64 {
            let mut s = 0.0;
            let mut n = 0usize;
            for (i, &m) in brain.data().iter().enumerate() {
                if m {
                    s += (a.data()[i] - case.intraop.intensity.data()[i]).abs() as f64;
                    n += 1;
                }
            }
            s / n as f64
        };
        let before = diff(&case.preop.intensity);
        let after = diff(&res.warped_reference);
        assert!(after < before, "warp made things worse: {before:.2} → {after:.2}");
    }

    #[test]
    fn stage_timings_record_all_intraop_stages() {
        let case = small_case();
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &fast_cfg(),
        ).expect("pipeline failed");
        let t = res.stage_timings;
        for (stage, seconds) in [
            ("per-surgery preparation", t.mesh_s),
            ("tissue classification", t.classification_s),
            ("surface displacement", t.surface_s),
            ("biomechanical simulation", t.assembly_s + t.reduction_s + t.factorization_s + t.solve_s),
            ("visualization resample", t.resample_s),
        ] {
            assert!(seconds > 0.0, "missing stage {stage}");
        }
    }

    #[test]
    fn image_gradient_force_also_recovers_shift() {
        // The paper's gradient-derived force formulation: noisier than
        // the distance potential but must still capture the deformation.
        let case = small_case();
        let mut cfg = fast_cfg();
        cfg.surface_force = SurfaceForceKind::ImageGradient;
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &cfg,
        ).expect("pipeline failed");
        assert!(res.fem.stats.converged());
        let peak = res.forward_field.max_magnitude();
        assert!(
            peak > 0.3 * case.gt_forward.max_magnitude(),
            "gradient force recovered only {peak:.2} mm of {:.2} mm",
            case.gt_forward.max_magnitude()
        );
    }

    #[test]
    fn composite_preserves_background() {
        let case = small_case();
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &fast_cfg(),
        ).expect("pipeline failed");
        let comp = composite_warped(&res.warped_reference, &case.intraop.intensity, &res.intraop_seg);
        // Where the segmentation says background/skin, the composite must
        // equal the intraop scan exactly.
        let d = comp.dims();
        for idx in 0..d.len() {
            if !labels::is_brain_tissue(res.intraop_seg.data()[idx]) {
                assert_eq!(comp.data()[idx], case.intraop.intensity.data()[idx]);
            }
        }
    }
}
