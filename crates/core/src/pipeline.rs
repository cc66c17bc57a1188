//! The intraoperative nonrigid registration pipeline — the paper's
//! primary contribution (its Figure 1 schema):
//!
//! preop MRI + segmentation ──(MI rigid registration)──▶ intraop frame
//!     └▶ spatial localization model ──▶ k-NN tissue classification
//!             └▶ brain surface target ──▶ active surface displacements
//!                     └▶ biomechanical FEM ──▶ volumetric deformation
//!                             └▶ resampled ("warped") preoperative data

use crate::error::Error;
use crate::timeline::{StageTimings, Timeline};
use brainshift_fem::{
    displacement_field_from_mesh, ContextStats, ContextTimings, DirichletBcs, FemSolveConfig,
    FemSolution, MaterialTable, SolverContext,
};
use brainshift_imaging::field::{invert_field, warp_volume_backward};
use brainshift_imaging::{labels, DisplacementField, Vec3, Volume};
use brainshift_mesh::{extract_boundary, mesh_labeled_volume, MesherConfig, TetMesh, TriSurface};
use brainshift_register::{register_rigid, RigidRegConfig, RigidRegResult};
use brainshift_obs::Stopwatch;
use brainshift_segment::classify::build_feature_stack;
use brainshift_segment::{classify_volume, largest_component, KdTree, PrototypeModel, SegmentConfig};
use brainshift_surface::{evolve_surface, ActiveSurfaceConfig, DistanceForce, EdgeForce, ExternalForce};

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

/// Pipeline configuration: one knob per stage.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// MI rigid-registration settings.
    pub rigid: RigidRegConfig,
    /// Skip rigid registration when scans are known to share a frame
    /// (saves time in tests; the OR always runs it).
    pub skip_rigid: bool,
    /// Intraoperative k-NN segmentation settings.
    pub segment: SegmentConfig,
    /// Tetrahedral mesher settings.
    pub mesher: MesherConfig,
    /// Active-surface evolution settings.
    pub active_surface: ActiveSurfaceConfig,
    /// Saturation of the active-surface pull per iteration (mm).
    pub surface_force_step: f64,
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
            rigid: RigidRegConfig::default(),
            skip_rigid: false,
            segment: SegmentConfig::default(),
            mesher: MesherConfig { step: 2, include: labels::is_brain_tissue },
            active_surface: ActiveSurfaceConfig::default(),
            surface_force_step: 2.0,
            surface_force: SurfaceForceKind::DistancePotential,
            normalize_intensity: false,
            materials: MaterialTable::homogeneous(),
            fem: FemSolveConfig::default(),
        }
    }
}

/// Everything the pipeline produces for one intraoperative scan.
pub struct PipelineResult {
    /// Recovered rigid transform (identity when `skip_rigid`).
    pub rigid: Option<RigidRegResult>,
    /// Intraoperative segmentation (k-NN over the multichannel stack).
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
    /// Stage timings (Figure 6).
    pub timeline: Timeline,
    /// Cumulative FEM solver-context counters (over every scan served by
    /// the context passed to [`run_pipeline_with_solver`]).
    pub solver_stats: ContextStats,
    /// Paper-style per-stage breakdown of *this scan*: classifier, mesh,
    /// surface, assembly/reduction/factorization (0.0 when served from a
    /// warm context), solve, resample.
    pub stage_timings: StageTimings,
}

/// Run the full intraoperative pipeline.
///
/// * `reference_intensity` / `reference_seg` — the first scan (or preop
///   data registered to it) with its trusted segmentation; this is the
///   "patient-specific atlas".
/// * `intraop_intensity` — the later scan exhibiting brain shift.
///
/// Hard failures — an empty mesh, a singular preconditioner block, a
/// malformed boundary-condition set — are returned as [`Error`]. A solver
/// that merely fails to converge is *not* an error: inspect
/// `result.fem.stats.converged()` and degrade at the call site (see
/// [`crate::sequence::run_scan_sequence`]).
pub fn run_pipeline(
    reference_intensity: &Volume<f32>,
    reference_seg: &Volume<u8>,
    intraop_intensity: &Volume<f32>,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, Error> {
    run_pipeline_with_solver(reference_intensity, reference_seg, intraop_intensity, cfg, &mut None)
}

/// [`run_pipeline`] with a persistent FEM solver context threaded across
/// calls.
///
/// On the first scan of a surgery pass `&mut None`: the context (global
/// stiffness assembly, Dirichlet reduction, preconditioner factorization)
/// is built and left behind in `solver`. Later scans of the *same*
/// surgery reuse it — their biomechanical stage is a single warm-started
/// Krylov solve. The context is rebuilt automatically if the mesh or the
/// constrained surface changes (e.g. rigid registration realigned the
/// reference); changing `cfg.materials` or `cfg.fem` mid-surgery requires
/// resetting `solver` to `None` yourself.
pub fn run_pipeline_with_solver(
    reference_intensity: &Volume<f32>,
    reference_seg: &Volume<u8>,
    intraop_intensity: &Volume<f32>,
    cfg: &PipelineConfig,
    solver: &mut Option<SolverContext>,
) -> Result<PipelineResult, Error> {
    let mut timeline = Timeline::new();

    // ── Rigid registration: bring the reference into the intraop frame. ──
    let (rigid, ref_intensity_aligned, ref_seg_aligned) = if cfg.skip_rigid {
        (None, reference_intensity.clone(), reference_seg.clone())
    } else {
        let res = timeline.stage("rigid registration", true, || {
            register_rigid(intraop_intensity, reference_intensity, &cfg.rigid)
        });
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
        normalized = timeline.stage("intensity normalization", true, || {
            brainshift_imaging::normalize::match_histogram(intraop_intensity, &ref_intensity_aligned)
        });
        &normalized
    } else {
        intraop_intensity
    };

    // ── Intraoperative tissue classification (k-NN, Fig 1). ──
    // `segment_intraop` inlined so the sub-stages land in the timings.
    let mut class_sub = [0.0f64; 3]; // feature stack, kd-tree build, k-NN query
    let intraop_seg = timeline.stage("tissue classification", true, || {
        let mut sw = Stopwatch::wall();
        let mut classes = ref_seg_aligned.labels();
        classes.retain(|&c| c != labels::RESECTION);
        let model =
            PrototypeModel::sample(&ref_seg_aligned, &classes, cfg.segment.per_class, cfg.segment.seed);
        let fs = build_feature_stack(intraop_intensity, &ref_seg_aligned, &classes, &cfg.segment);
        class_sub[0] = sw.lap_s();
        let tree = KdTree::build(model.extract(&fs))?;
        class_sub[1] = sw.lap_s();
        let seg = classify_volume(&fs, &tree, cfg.segment.k);
        class_sub[2] = sw.lap_s();
        Ok::<_, crate::error::Error>(seg)
    })?;

    // ── Mesh the reference brain (initialization; overlappable). ──
    let mesh = timeline.stage("mesh generation", true, || {
        mesh_labeled_volume(&ref_seg_aligned, &cfg.mesher)
    });
    if mesh.num_tets() == 0 {
        return Err(Error::Pipeline("reference segmentation produced an empty mesh".into()));
    }
    let brain_surface = extract_boundary(&mesh);

    // ── Active surface: match reference brain surface to the intraop
    //    brain (surface displacement stage of Fig 6). Two passes: the
    //    mesh boundary is voxel-blocky, so first snap it onto the
    //    *reference* brain boundary (cancels discretization bias), then
    //    evolve that onto the intraop boundary; the per-vertex
    //    displacement is the difference.
    let (surface_displacements, surface_residual) = timeline.stage("surface displacement", true, || {
        let ref_mask = largest_component(&ref_seg_aligned.map(|&l| labels::is_brain_tissue(l)));
        let force_ref = DistanceForce::from_mask(&ref_mask, cfg.surface_force_step);
        let snap = evolve_surface(&brain_surface, &force_ref, &cfg.active_surface);

        let target_mask = largest_component(&intraop_seg.map(|&l| labels::is_brain_tissue(l)));
        let force: Box<dyn ExternalForce> = match cfg.surface_force {
            SurfaceForceKind::DistancePotential => {
                Box::new(DistanceForce::from_mask(&target_mask, cfg.surface_force_step))
            }
            SurfaceForceKind::ImageGradient => {
                // Gray-level prior: the brain/CSF boundary sits between
                // the brain and CSF nominal intensities.
                let expected = (brainshift_imaging::phantom::tissue_intensity(labels::BRAIN)
                    + brainshift_imaging::phantom::tissue_intensity(labels::CSF))
                    / 2.0;
                Box::new(EdgeForce::from_image(
                    intraop_intensity,
                    1.0,
                    expected,
                    60.0,
                    cfg.surface_force_step,
                ))
            }
        };
        let force = force.as_ref();
        let mut snapped_surface = brain_surface.clone();
        snapped_surface.vertices = snap.positions.clone();
        let res = evolve_surface(&snapped_surface, force, &cfg.active_surface);
        let resid = res.final_distance;
        let displacements: Vec<Vec3> = res
            .positions
            .iter()
            .zip(&snap.positions)
            .map(|(a, b)| *a - *b)
            .collect();
        (displacements, resid)
    });

    // ── Biomechanical simulation: surface displacements as Dirichlet
    //    data, FEM for the volume (Fig 1's last box). The solver context
    //    (assembly + reduction + preconditioner) persists across scans of
    //    a surgery; a scan whose mesh matches pays only the solve. ──
    // Context timings before this scan, to delta out what *this* scan
    // paid (a rebuilt context starts its phase clocks from zero).
    let prior_timings = solver.as_ref().map(|c| c.timings()).unwrap_or_default();
    let (fem, solver_stats, ctx_timings, rebuilt) = timeline.stage(
        "biomechanical simulation",
        true,
        || -> Result<(FemSolution, ContextStats, ContextTimings, bool), Error> {
            let mut bcs = DirichletBcs::new();
            for (v, &node) in brain_surface.mesh_node.iter().enumerate() {
                bcs.set(node, surface_displacements[v]);
            }
            let reusable = solver
                .as_ref()
                .is_some_and(|c| c.matches(&mesh, &brain_surface.mesh_node));
            if !reusable {
                *solver = Some(SolverContext::new(
                    &mesh,
                    &cfg.materials,
                    &brain_surface.mesh_node,
                    cfg.fem.clone(),
                )?);
            }
            // Typed error, not a panic: the install above makes this
            // unreachable, but the errors-vs-panics policy forbids
            // `expect` on it in intraoperative code.
            let ctx = solver
                .as_mut()
                .ok_or_else(|| Error::Pipeline("FEM solver context missing after installation".into()))?;
            let solution = ctx.solve(&bcs)?;
            Ok((solution, ctx.stats(), ctx.timings(), !reusable))
        },
    )?;

    // ── Dense deformation + resample (the ~0.5 s visualization step). ──
    let (forward_field, backward_field, warped_reference) = timeline.stage(
        "visualization resample",
        true,
        || -> Result<_, Error> {
            let fwd = displacement_field_from_mesh(
                &mesh,
                &fem.displacements,
                intraop_intensity.dims(),
                intraop_intensity.spacing(),
            )?;
            let bwd = invert_field(&fwd, 10);
            let warped = warp_volume_backward(&ref_intensity_aligned, &bwd, 0.0);
            Ok((fwd, bwd, warped))
        },
    )?;

    // What this scan paid inside the FEM context: setup phases only when
    // the context was (re)built, plus the delta of cumulative solve time.
    let base = if rebuilt { ContextTimings::default() } else { prior_timings };
    let stage_timings = StageTimings {
        classification_s: timeline.seconds_of("tissue classification"),
        mesh_s: timeline.seconds_of("mesh generation"),
        surface_s: timeline.seconds_of("surface displacement"),
        assembly_s: ctx_timings.assembly_s - base.assembly_s,
        reduction_s: ctx_timings.reduction_s - base.reduction_s,
        factorization_s: ctx_timings.factorization_s - base.factorization_s,
        solve_s: ctx_timings.solve_s - base.solve_s,
        resample_s: timeline.seconds_of("visualization resample"),
        feature_s: class_sub[0],
        knn_build_s: class_sub[1],
        knn_query_s: class_sub[2],
        // Morphology runs inside the surface stage on this monolithic
        // path; `PreparedSurgery::register_scan` measures it separately.
        ..Default::default()
    };

    Ok(PipelineResult {
        rigid,
        intraop_seg,
        mesh,
        brain_surface,
        surface_residual,
        fem,
        forward_field,
        backward_field,
        warped_reference,
        timeline,
        solver_stats,
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
    fn timeline_records_all_intraop_stages() {
        let case = small_case();
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &fast_cfg(),
        ).expect("pipeline failed");
        for stage in [
            "tissue classification",
            "mesh generation",
            "surface displacement",
            "biomechanical simulation",
            "visualization resample",
        ] {
            assert!(res.timeline.seconds_of(stage) > 0.0, "missing stage {stage}");
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
    fn solver_context_persists_across_pipeline_calls() {
        // Two scans of the same surgery (fixed reference, skip_rigid):
        // the second run must reuse the first run's assembly and
        // factorization and warm-start its solve.
        let case = small_case();
        let cfg = fast_cfg();
        let mut solver = None;
        let r1 = run_pipeline_with_solver(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &cfg,
            &mut solver,
        ).expect("pipeline failed");
        assert_eq!(r1.solver_stats.assemblies, 1);
        assert_eq!(r1.solver_stats.factorizations, 1);
        assert_eq!(r1.solver_stats.warm_started_solves, 0);
        let r2 = run_pipeline_with_solver(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &cfg,
            &mut solver,
        ).expect("pipeline failed");
        assert!(r2.fem.stats.converged());
        assert_eq!(r2.solver_stats.assemblies, 1, "second scan reassembled");
        assert_eq!(r2.solver_stats.factorizations, 1, "second scan refactored");
        assert_eq!(r2.solver_stats.solves, 2);
        assert_eq!(r2.solver_stats.warm_started_solves, 1);
        // Identical inputs → identical displacement output either way.
        for (a, b) in r1.fem.displacements.iter().zip(&r2.fem.displacements) {
            assert!((*a - *b).norm() < 1e-7);
        }
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
