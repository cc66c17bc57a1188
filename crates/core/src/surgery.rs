//! The intraoperative chain, split the way the paper's Figure 6 splits
//! it: what is done once per surgery and what is done per scan. This is
//! the only place in the workspace that composes the stages (classify →
//! active surface → FEM solve → resample); the service, the scenario
//! suite, the benchmark and the one-shot
//! [`run_pipeline`](crate::pipeline::run_pipeline) all call it.
//!
//! * [`PreparedSurgery`] — everything built **once per surgery** from the
//!   reference scan: the tetrahedral mesh, the assembled stiffness matrix
//!   `K` (a function of the mesh and the material table alone), the
//!   mesh's boundary surface snapped onto the reference brain boundary,
//!   the [`Classifier`] (prototype sites and distance channels of the
//!   statistical model), the [`Band`] of voxels around the reference
//!   brain boundary that a scan classifies and computes its distance
//!   force on, the surface's neighbour table, and
//!   the mesh → grid resample plan. Immutable and shareable across scans
//!   (and across worker threads).
//! * [`PreparedSurgery::register_scan`] — the **per-scan job**: classify
//!   the new scan on the band, evolve the active surface onto it (again
//!   over the whole volume if the surface read a value the band could
//!   have changed), and run one warm-started FEM solve against a
//!   caller-owned [`SolverContext`].
//!   The context is deliberately *not* stored inside `PreparedSurgery`:
//!   it is the mutable, memory-heavy half (reduced blocks, factored
//!   preconditioner, warm-start seed) that a service keeps in a budgeted
//!   cache and may evict between scans. Every context shares the
//!   surgery's `K`, so rebuilding one after an eviction is Dirichlet
//!   reduction plus factorization, never a second assembly.
//!
//! Scans must arrive in the reference frame and intensity range; rigid
//! registration and histogram matching are input alignment, done by the
//! caller (`run_pipeline` does both) before the split.
//!
//! A scan whose solver fails to converge within its (possibly
//! deadline-derived) budget is *not* an error: it degrades to the
//! caller-provided carry-forward field — see [`ScanStatus::Degraded`].

use crate::error::Error;
use crate::pipeline::{PipelineConfig, SurfaceForceKind, SURFACE_FORCE_STEP};
use crate::timeline::StageTimings;
use brainshift_obs::Stopwatch;
use brainshift_fem::{
    assemble_stiffness, DirichletBcs, FemError, FemSolution, ResamplePlan, SolverContext,
};
use brainshift_imaging::phantom::tissue_intensity;
use brainshift_imaging::{labels, Dims, DisplacementField, Spacing, Vec3, Volume};
use brainshift_mesh::{extract_boundary, mesh_labeled_volume, TetMesh, TriSurface};
use brainshift_segment::{largest_component, Classification, Classifier};
use brainshift_sparse::{CsrMatrix, SolverOptions};
use brainshift_surface::{
    evolve_surface_with, ActiveSurfaceResult, Band, DistanceForce, EdgeForce, ExternalForce, NeighborTable,
};
use std::sync::Arc;
use std::time::Duration;

/// The once-per-surgery state: everything derived from the reference
/// (first intraoperative) scan that later scans reuse unchanged.
pub struct PreparedSurgery {
    cfg: PipelineConfig,
    /// Grid of the reference segmentation; every scan of the surgery
    /// must arrive on it.
    dims: Dims,
    pub(crate) mesh: TetMesh,
    /// The global stiffness matrix of `mesh` under `cfg.materials`,
    /// assembled once; every solver context of the surgery shares it.
    stiffness: Arc<CsrMatrix>,
    /// Seconds `new` spent assembling `stiffness`.
    assembly_s: f64,
    pub(crate) surface: TriSurface,
    /// Mesh boundary snapped onto the reference brain boundary (cancels
    /// voxel-discretization bias; per-scan displacements are measured
    /// from these positions).
    snap_positions: Vec<Vec3>,
    /// The per-surgery half of the k-NN classifier.
    classifier: Classifier,
    /// The reference segmentation: the label of every voxel a scan does
    /// not classify.
    reference_labels: Volume<u8>,
    /// The voxels within `SegmentConfig::band_mm` plus the reach of the
    /// surface's sampling (see [`band_reach_mm`]) of the reference brain
    /// boundary: what a scan classifies and its distance force computes.
    /// Every voxel when `band_mm` is infinite.
    band: Band,
    /// Vertex adjacency of the boundary surface, built once; every scan's
    /// active-surface evolution reuses it.
    neighbor_table: NeighborTable,
    /// Voxel → (tet, barycentric weights) map of the mesh on the
    /// reference grid; every scan's resampling is one weighted sum per
    /// covered voxel.
    resample_plan: ResamplePlan,
}

/// How the biomechanical solve of one scan concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStatus {
    /// The Krylov solve converged.
    Converged,
    /// The solver did not converge within its iteration or time budget:
    /// the scan's displacement field is the caller's carry-forward field
    /// (zero when none was given), not a solution for this scan's
    /// boundary conditions.
    Degraded,
}

/// Outcome of registering one intraoperative scan via
/// [`PreparedSurgery::register_scan`].
pub struct ScanRegistration {
    /// How the biomechanical solve concluded.
    pub status: ScanStatus,
    /// Recovered forward deformation field on the surgery's grid. For a
    /// [`ScanStatus::Degraded`] scan this is the carry-forward field
    /// (zero when none was provided), not a solution for this scan.
    pub field: DisplacementField,
    /// This scan's k-NN tissue classification.
    pub segmentation: Volume<u8>,
    /// The biomechanical solve as the context returned it: nodal
    /// displacements (the unconverged iterate for a degraded scan) and
    /// the convergence statistics whose stop reason a serving layer's
    /// event log keeps per degraded scan.
    pub fem: FemSolution,
    /// Krylov iterations of the biomechanical solve.
    pub fem_iterations: usize,
    /// Solver attempts: always 1, one Krylov call per scan. Kept only
    /// because the benchmark reads it; goes when the benchmark is next
    /// re-cut.
    pub attempts: usize,
    /// Mean active-surface residual distance to the target (mm).
    pub surface_residual: f64,
    /// Voxels pushed through k-NN this scan: the band, plus the whole
    /// volume when the scan fell back.
    pub reclassified_voxels: usize,
    /// Total voxels in the scan grid.
    pub total_voxels: usize,
    /// True when the active surface read a value the band could have
    /// changed, so the scan was classified and evolved again over the
    /// whole volume (its outputs are then those of that second pass).
    pub band_fallback: bool,
    /// kd-tree leaf blocks scanned by this scan's k-NN queries, over
    /// both passes of a fallback scan.
    pub knn_leaf_visits: u64,
    /// Per-stage wall-clock breakdown for this scan. Assembly, reduction
    /// and factorization are `0.0` on the warm path (assembly belongs to
    /// [`PreparedSurgery::new`], reduction and factorization to
    /// [`PreparedSurgery::build_solver_context`]); the solve entry is the
    /// Krylov time of this scan only, not the context's cumulative total.
    /// The classification sub-stages (fill copy, kd-tree build, k-NN
    /// pass, largest component) are filled in and sum to
    /// `classification_s`; on a fallback scan they and `surface_s`
    /// include the discarded band pass.
    pub timings: StageTimings,
}

/// One classification pass over the band (or every voxel) and the
/// active-surface evolution it drives.
struct Pass {
    segmentation: Volume<u8>,
    evolved: ActiveSurfaceResult,
    /// The guarded distance force was read outside its exact region.
    left_band: bool,
    reclassified_voxels: usize,
    leaf_visits: u64,
    /// The classification sub-stages and `surface_s`.
    timings: StageTimings,
}

/// How far (mm) the active surface's reads reach beyond the voxel
/// nearest a sample, counted once for each term of the band guard
/// |φ| + |φ_ref|: a trilinear cell spans one voxel-cell diagonal and the
/// central-difference gradient one more voxel along an axis.
fn band_reach_mm(spacing: Spacing) -> f32 {
    let (dx, dy, dz) = (spacing.dx, spacing.dy, spacing.dz);
    let diagonal = (dx * dx + dy * dy + dz * dz).sqrt();
    (2.0 * (diagonal + dx.max(dy).max(dz))) as f32
}

impl PreparedSurgery {
    /// Build the per-surgery state from the reference segmentation: mesh
    /// the brain, assemble its stiffness matrix, extract and snap its
    /// boundary surface, build the classifier, and mark the band of
    /// voxels around the reference brain boundary a scan classifies (from
    /// the distance transform the snap already computes). Fails with a typed
    /// [`Error`] when the segmentation produces an empty mesh, and with
    /// `Error::Fem(FemError::Mesh(..))` when the mesh fails validation.
    pub fn new(reference_labels: &Volume<u8>, cfg: PipelineConfig) -> Result<Self, Error> {
        let mesh = mesh_labeled_volume(reference_labels, &cfg.mesher);
        if mesh.num_tets() == 0 {
            return Err(Error::Pipeline("reference segmentation produced an empty mesh".into()));
        }
        // Assembled first, while the mesh is the only other large thing
        // alive, so the assembly's block scratch never coexists with the
        // classifier's distance channels or the snap temporaries.
        mesh.validate().map_err(FemError::from)?;
        let sw = Stopwatch::wall();
        let stiffness = Arc::new(assemble_stiffness(&mesh, &cfg.materials));
        let assembly_s = sw.elapsed_s();
        let surface = extract_boundary(&mesh);
        let classifier = Classifier::new(reference_labels, &cfg.segment);
        let ref_mask = largest_component(&reference_labels.map(|&l| labels::is_brain_tissue(l)));
        let force_ref = DistanceForce::from_mask(&ref_mask, None, SURFACE_FORCE_STEP)?;
        let neighbor_table = NeighborTable::build(&surface);
        let snap = evolve_surface_with(&surface, &neighbor_table, &force_ref, &cfg.active_surface);
        // The band reuses the snap's distance transform of the reference.
        let band_mm = cfg.segment.band_mm + band_reach_mm(reference_labels.spacing());
        let band = Band::new(force_ref.phi(), band_mm);
        drop(force_ref);
        let resample_plan =
            ResamplePlan::new(&mesh, reference_labels.dims(), reference_labels.spacing());
        Ok(PreparedSurgery {
            cfg,
            dims: reference_labels.dims(),
            mesh,
            stiffness,
            assembly_s,
            surface,
            snap_positions: snap.positions,
            classifier,
            reference_labels: reference_labels.clone(),
            band,
            neighbor_table,
            resample_plan,
        })
    }

    /// Build a fresh solver context for this surgery around the shared
    /// stiffness matrix: Dirichlet reduction along the brain surface and
    /// preconditioner factorization. This is the expensive, cacheable
    /// object a service owns per session — dropping it and calling this
    /// again is the "cold rebuild" path after a cache eviction
    /// (reduction + factorization; `K` is never assembled again).
    pub fn build_solver_context(&self) -> Result<SolverContext, Error> {
        Ok(SolverContext::with_matrix(
            Arc::clone(&self.stiffness),
            &self.mesh,
            &self.surface.mesh_node,
            self.cfg.fem.clone(),
        )?)
    }

    /// The per-surgery tetrahedral mesh.
    pub fn mesh(&self) -> &TetMesh {
        &self.mesh
    }

    /// The surgery's stiffness matrix, shared by every context
    /// [`Self::build_solver_context`] builds.
    pub fn stiffness(&self) -> &Arc<CsrMatrix> {
        &self.stiffness
    }

    /// Seconds [`Self::new`] spent assembling [`Self::stiffness`] (part
    /// of its wall time).
    pub fn assembly_s(&self) -> f64 {
        self.assembly_s
    }

    /// The pipeline configuration this surgery was prepared with.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The band around the reference brain boundary: the voxels a scan
    /// classifies unless it falls back, and its distance force is
    /// computed on.
    pub fn band(&self) -> &Band {
        &self.band
    }

    /// Classify the voxels of `band` of `intensity` (reference labels
    /// elsewhere; every voxel when `None`), take the brain target's
    /// largest component and evolve the snapped surface onto it under the
    /// configured force. A pass over fewer than every voxel builds its
    /// distance force on the band, which guards it.
    fn classify_and_evolve(&self, intensity: &Volume<f32>, band: Option<&Band>) -> Result<Pass, Error> {
        let every: Vec<usize>;
        let voxels = match band {
            Some(band) => band.voxels(),
            None => {
                every = (0..self.dims.len()).collect();
                &every
            }
        };
        let Classification { labels: segmentation, leaf_visits, feature_s, knn_build_s, knn_query_s } =
            self.classifier.classify(intensity, voxels, &self.reference_labels)?;
        let mut sw = Stopwatch::wall();
        let target = largest_component(&segmentation.map(|&l| labels::is_brain_tissue(l)));
        let morphology_s = sw.lap_s();
        let mut distance = None;
        let edge;
        let force: &dyn ExternalForce = match self.cfg.surface_force {
            SurfaceForceKind::DistancePotential => {
                let band = band.filter(|band| !band.is_whole());
                distance.insert(DistanceForce::from_mask(&target, band, SURFACE_FORCE_STEP)?)
            }
            SurfaceForceKind::ImageGradient => {
                // Gray-level prior: the brain/CSF boundary sits between
                // the brain and CSF nominal intensities. This force does
                // not read the labels, so it needs no guard.
                let expected = (tissue_intensity(labels::BRAIN) + tissue_intensity(labels::CSF)) / 2.0;
                edge = EdgeForce::from_image(intensity, 1.0, expected, 60.0, SURFACE_FORCE_STEP);
                &edge
            }
        };
        let mut snapped = self.surface.clone();
        snapped.vertices = self.snap_positions.clone();
        let evolved =
            evolve_surface_with(&snapped, &self.neighbor_table, force, &self.cfg.active_surface);
        let left_band = distance.as_ref().is_some_and(DistanceForce::left_exact_region);
        let timings = StageTimings {
            classification_s: feature_s + knn_build_s + knn_query_s + morphology_s,
            feature_s,
            knn_build_s,
            knn_query_s,
            morphology_s,
            surface_s: sw.lap_s(),
            ..Default::default()
        };
        Ok(Pass {
            segmentation,
            evolved,
            left_band,
            reclassified_voxels: voxels.len(),
            leaf_visits,
            timings,
        })
    }

    /// Register one intraoperative scan: classification with the
    /// per-surgery statistical model on the band around the reference
    /// brain boundary, active-surface correspondence under the configured
    /// [`SurfaceForceKind`], and one warm-started FEM solve on `ctx`
    /// (which must have been built by [`Self::build_solver_context`]).
    /// When the distance force's guard finds that the surface read a
    /// value the band could have changed, the scan is classified and
    /// evolved again over the whole volume, so the band never changes
    /// the field, the nodal displacements or the surface residual.
    ///
    /// `solver_override` replaces the configured solver options for this
    /// scan only, and `time_budget` tightens their wall-clock budget (the
    /// tighter of the two wins) — a deadline-aware service passes the
    /// job's remaining deadline. When the solve fails to converge within
    /// them the scan degrades to `carry_forward` (cloned; zero field when
    /// `None`) and the context's warm-start seed rolls back, so one bad
    /// scan cannot poison the next.
    pub fn register_scan(
        &self,
        ctx: &mut SolverContext,
        intensity: &Volume<f32>,
        carry_forward: Option<&DisplacementField>,
        solver_override: Option<&SolverOptions>,
        time_budget: Option<Duration>,
    ) -> Result<ScanRegistration, Error> {
        // The classifier, the boundary surface and the resample plan all
        // live on the reference grid; a scan on any other grid is a
        // caller error.
        if intensity.dims() != self.dims {
            return Err(Error::Pipeline(format!(
                "scan grid {:?} does not match the prepared surgery's {:?}",
                intensity.dims(),
                self.dims
            )));
        }
        let mut pass = self.classify_and_evolve(intensity, Some(&self.band))?;
        let band_fallback = pass.left_band;
        if band_fallback {
            let discarded = pass;
            pass = self.classify_and_evolve(intensity, None)?;
            pass.timings.accumulate(&discarded.timings);
            pass.reclassified_voxels += discarded.reclassified_voxels;
            pass.leaf_visits += discarded.leaf_visits;
        }
        let Pass { segmentation, evolved, reclassified_voxels, leaf_visits, mut timings, .. } = pass;
        let mut sw = Stopwatch::wall();
        let mut bcs = DirichletBcs::new();
        for (v, &node) in self.surface.mesh_node.iter().enumerate() {
            bcs.set(node, evolved.positions[v] - self.snap_positions[v]);
        }
        timings.surface_s += sw.lap_s();
        let budgeted = time_budget.map(|limit| {
            let opts = solver_override.unwrap_or(&ctx.config().options);
            let time_budget = Some(opts.time_budget.map_or(limit, |t| t.min(limit)));
            SolverOptions { time_budget, ..opts.clone() }
        });
        let sol = ctx.solve_with(&bcs, budgeted.as_ref().or(solver_override))?;
        sw.lap_s();
        let (status, field) = if sol.stats.converged() {
            (ScanStatus::Converged, self.resample_plan.apply(&sol.displacements)?)
        } else {
            // Graceful degradation: the navigation display keeps showing
            // the last trusted state rather than an unconverged iterate.
            let field = carry_forward.cloned().unwrap_or_else(|| {
                DisplacementField::zeros(intensity.dims(), intensity.spacing())
            });
            (ScanStatus::Degraded, field)
        };
        timings.solve_s = ctx.timings().last_solve_s;
        timings.resample_s = sw.lap_s();
        Ok(ScanRegistration {
            status,
            field,
            segmentation,
            fem_iterations: sol.stats.iterations,
            attempts: 1,
            fem: sol,
            surface_residual: evolved.final_distance,
            reclassified_voxels,
            total_voxels: self.dims.len(),
            band_fallback,
            knn_leaf_visits: leaf_visits,
            timings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::generate_scan_sequence;
    use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
    use brainshift_imaging::volume::{Dims, Spacing};

    fn small_seq(n: usize) -> crate::sequence::ScanSequence {
        generate_scan_sequence(
            &PhantomConfig {
                dims: Dims::new(32, 32, 24),
                spacing: Spacing::iso(4.5),
                ..Default::default()
            },
            &BrainShiftConfig { peak_shift_mm: 8.0, ..Default::default() },
            n,
            n,
        )
    }

    #[test]
    fn scans_are_served_warm_on_one_assembly() {
        // The acceptance contract of the persistent context: a whole
        // multi-scan surgery performs exactly one stiffness assembly and
        // one preconditioner factorization, every scan after the first
        // warm-started, and the recovered field tracks the growing shift.
        let seq = small_seq(3);
        let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
        let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
        let mut ctx = prepared.build_solver_context().expect("context build failed");
        let mut last: Option<DisplacementField> = None;
        let mut peaks = Vec::new();
        for (i, scan) in seq.scans.iter().enumerate() {
            let reg = prepared
                .register_scan(&mut ctx, &scan.intensity, last.as_ref(), None, None)
                .expect("register failed");
            assert_ne!(reg.status, ScanStatus::Degraded);
            assert!(reg.fem_iterations > 0);
            // Warm path: per-scan work is timed, once-per-surgery work is 0.
            assert!(reg.timings.classification_s > 0.0);
            assert!(reg.timings.solve_s > 0.0);
            assert_eq!(reg.timings.assembly_s, 0.0);
            assert_eq!(reg.timings.factorization_s, 0.0);
            // Sub-stage laps cover the whole classification stage.
            let t = reg.timings;
            let sub = t.feature_s + t.knn_build_s + t.knn_query_s + t.morphology_s;
            assert!((sub - t.classification_s).abs() < 1e-9);
            // Served scans classify the band around the reference brain
            // boundary only; an 8 mm shift stays inside it.
            assert!(!reg.band_fallback);
            assert_eq!(reg.reclassified_voxels, prepared.band().voxels().len());
            assert!(reg.reclassified_voxels < reg.total_voxels);
            assert_eq!(reg.total_voxels, scan.intensity.dims().len());
            assert!(reg.knn_leaf_visits > 0);
            // Later scans (shift ≫ voxel size at this coarse 4.5 mm grid)
            // must recover more signal than they miss; the earliest scan's
            // shift is at the discretization floor, so only a loose bound
            // applies there.
            let fe = crate::metrics::field_error(&reg.field, &seq.gt_forward[i], 1.5);
            let bound = if seq.stages[i] >= 0.5 { 1.0 } else { 2.0 };
            assert!(
                fe.mean_error_mm < bound * fe.mean_truth_mm,
                "scan {i}: {} vs {}",
                fe.mean_error_mm,
                fe.mean_truth_mm
            );
            peaks.push(reg.field.max_magnitude());
            last = Some(reg.field);
        }
        assert!(peaks[2] > peaks[0], "recovered peak does not grow: {peaks:?}");
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.solves, 3);
        assert_eq!(s.warm_started_solves, 2);
        // The one assembly is the surgery's, timed in `new`; the context
        // shares its matrix and spent nothing assembling.
        assert!(std::ptr::eq(ctx.matrix(), &**prepared.stiffness()));
        assert!(prepared.assembly_s() > 0.0);
        assert_eq!(ctx.timings().assembly_s, 0.0);
    }

    #[test]
    fn starved_scan_degrades_to_carry_forward() {
        let seq = small_seq(2);
        let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
        let prepared = PreparedSurgery::new(&seq.reference.labels, cfg.clone()).expect("prepare failed");
        let mut ctx = prepared.build_solver_context().expect("context build failed");
        let good = prepared
            .register_scan(&mut ctx, &seq.scans[0].intensity, None, None, None)
            .expect("register failed");
        assert_ne!(good.status, ScanStatus::Degraded);
        let starved = SolverOptions { max_iterations: 0, ..cfg.fem.options.clone() };
        let reg = prepared
            .register_scan(
                &mut ctx,
                &seq.scans[1].intensity,
                Some(&good.field),
                Some(&starved),
                None,
            )
            .expect("register failed");
        assert_eq!(reg.status, ScanStatus::Degraded);
        // Carry-forward: the degraded scan's field IS the previous field.
        for (a, b) in reg.field.data().iter().zip(good.field.data()) {
            assert_eq!(a, b);
        }
        assert_eq!(reg.attempts, 1);
        assert!(!reg.fem.stats.converged());
    }

    #[test]
    fn surface_force_kind_is_honoured() {
        // One scan under each external force: both must converge, and the
        // active surface must land somewhere else (a `surface_force` that
        // is never read gives identical residual bits).
        let seq = small_seq(1);
        let register = |surface_force| {
            let cfg = PipelineConfig { skip_rigid: true, surface_force, ..Default::default() };
            let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
            let mut ctx = prepared.build_solver_context().expect("context build failed");
            prepared
                .register_scan(&mut ctx, &seq.scans[0].intensity, None, None, None)
                .expect("register failed")
        };
        let potential = register(SurfaceForceKind::DistancePotential);
        let gradient = register(SurfaceForceKind::ImageGradient);
        assert!(potential.fem.stats.converged() && gradient.fem.stats.converged());
        assert_ne!(potential.surface_residual.to_bits(), gradient.surface_residual.to_bits());
        // The classification does not depend on the force.
        assert_eq!(potential.segmentation.data(), gradient.segmentation.data());
    }
}
