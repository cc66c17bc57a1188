//! The intraoperative chain, split the way the paper's Figure 6 splits
//! it: what is done once per surgery and what is done per scan. This is
//! the only place in the workspace that composes the stages (classify →
//! active surface → FEM solve → resample); the service, the sequence
//! runner, the scenario suite, the benchmark and the one-shot
//! [`run_pipeline`](crate::pipeline::run_pipeline) all call it.
//!
//! * [`PreparedSurgery`] — everything built **once per surgery** from the
//!   reference scan: the tetrahedral mesh, the assembled stiffness matrix
//!   `K` (a function of the mesh and the material table alone), the
//!   mesh's boundary surface snapped onto the reference brain boundary,
//!   the [`Classifier`] (prototype sites and distance channels of the
//!   statistical model), the surface's neighbour table, and the mesh →
//!   grid resample plan. Immutable and shareable across scans (and
//!   across worker threads).
//! * [`PreparedSurgery::register_scan`] — the **per-scan job**: classify
//!   the new scan, evolve the active surface onto it, and run one
//!   warm-started FEM solve against a caller-owned [`SolverContext`].
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
use crate::pipeline::{PipelineConfig, SurfaceForceKind};
use crate::sequence::ScanStatus;
use crate::timeline::StageTimings;
use brainshift_obs::Stopwatch;
use brainshift_fem::{
    assemble_stiffness, DirichletBcs, FemError, FemSolution, ResamplePlan, SolverContext,
};
use brainshift_imaging::phantom::tissue_intensity;
use brainshift_imaging::{labels, Dims, DisplacementField, Vec3, Volume};
use brainshift_mesh::{extract_boundary, mesh_labeled_volume, TetMesh, TriSurface};
use brainshift_segment::{largest_component, Classification, Classifier};
use brainshift_sparse::{CsrMatrix, SolverOptions};
use brainshift_surface::{evolve_surface_with, DistanceForce, EdgeForce, ExternalForce, NeighborTable};
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
    /// Vertex adjacency of the boundary surface, built once; every scan's
    /// active-surface evolution reuses it.
    neighbor_table: NeighborTable,
    /// Voxel → (tet, barycentric weights) map of the mesh on the
    /// reference grid; every scan's resampling is one weighted sum per
    /// covered voxel.
    resample_plan: ResamplePlan,
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
    /// Voxels pushed through k-NN this scan: always `total_voxels`. Kept
    /// only because the benchmark reads it; goes when the benchmark is
    /// next re-cut.
    pub reclassified_voxels: usize,
    /// Total voxels in the scan grid. Goes with `reclassified_voxels`.
    pub total_voxels: usize,
    /// kd-tree leaf blocks scanned by this scan's k-NN queries.
    pub knn_leaf_visits: u64,
    /// Per-stage wall-clock breakdown for this scan. Assembly, reduction
    /// and factorization are `0.0` on the warm path (assembly belongs to
    /// [`PreparedSurgery::new`], reduction and factorization to
    /// [`PreparedSurgery::build_solver_context`]); the solve entry is the
    /// Krylov time of this scan only, not the context's cumulative total.
    /// The classification sub-stages (feature matrix, kd-tree build, k-NN
    /// query, largest component) are filled in and sum to
    /// `classification_s`.
    pub timings: StageTimings,
}

impl PreparedSurgery {
    /// Build the per-surgery state from the reference segmentation: mesh
    /// the brain, assemble its stiffness matrix, extract and snap its
    /// boundary surface, and build the classifier. Fails with a typed
    /// [`Error`] when the segmentation produces an empty mesh, and with
    /// `Error::Fem(FemError::Mesh(..))` when the mesh fails validation.
    pub fn new(reference_labels: &Volume<u8>, cfg: PipelineConfig) -> Result<Self, Error> {
        let mesh = mesh_labeled_volume(reference_labels, &cfg.mesher);
        if mesh.num_tets() == 0 {
            return Err(Error::Pipeline("reference segmentation produced an empty mesh".into()));
        }
        // Assembled first, while the mesh is the only other large thing
        // alive, so the assembly's triplet buffers never coexist with the
        // classifier's distance channels or the snap temporaries.
        mesh.validate().map_err(FemError::from)?;
        let sw = Stopwatch::wall();
        let stiffness = Arc::new(assemble_stiffness(&mesh, &cfg.materials));
        let assembly_s = sw.elapsed_s();
        let surface = extract_boundary(&mesh);
        let classifier = Classifier::new(reference_labels, &cfg.segment);
        let ref_mask = largest_component(&reference_labels.map(|&l| labels::is_brain_tissue(l)));
        let force_ref = DistanceForce::from_mask(&ref_mask, cfg.surface_force_step);
        let neighbor_table = NeighborTable::build(&surface);
        let snap = evolve_surface_with(&surface, &neighbor_table, &force_ref, &cfg.active_surface);
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

    /// Register one intraoperative scan: classification with the
    /// per-surgery statistical model, active-surface correspondence under
    /// the configured [`SurfaceForceKind`], and one warm-started FEM solve
    /// on `ctx` (which must have been built by
    /// [`Self::build_solver_context`]).
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
        let Classification {
            labels: seg,
            leaf_visits: knn_leaf_visits,
            feature_s,
            knn_build_s,
            knn_query_s,
        } = self.classifier.classify(intensity)?;
        let mut sw = Stopwatch::wall();
        let target = largest_component(&seg.map(|&l| labels::is_brain_tissue(l)));
        let morphology_s = sw.lap_s();
        let classification_s = feature_s + knn_build_s + knn_query_s + morphology_s;
        let step = self.cfg.surface_force_step;
        let force: Box<dyn ExternalForce> = match self.cfg.surface_force {
            SurfaceForceKind::DistancePotential => Box::new(DistanceForce::from_mask(&target, step)),
            SurfaceForceKind::ImageGradient => {
                // Gray-level prior: the brain/CSF boundary sits between
                // the brain and CSF nominal intensities.
                let expected = (tissue_intensity(labels::BRAIN) + tissue_intensity(labels::CSF)) / 2.0;
                Box::new(EdgeForce::from_image(intensity, 1.0, expected, 60.0, step))
            }
        };
        let mut snapped = self.surface.clone();
        snapped.vertices = self.snap_positions.clone();
        let evolved = evolve_surface_with(
            &snapped,
            &self.neighbor_table,
            force.as_ref(),
            &self.cfg.active_surface,
        );
        let mut bcs = DirichletBcs::new();
        for (v, &node) in self.surface.mesh_node.iter().enumerate() {
            bcs.set(node, evolved.positions[v] - self.snap_positions[v]);
        }
        let surface_s = sw.lap_s();
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
        let timings = StageTimings {
            classification_s,
            feature_s,
            knn_build_s,
            knn_query_s,
            morphology_s,
            surface_s,
            solve_s: ctx.timings().last_solve_s,
            resample_s: sw.lap_s(),
            ..Default::default()
        };
        Ok(ScanRegistration {
            status,
            field,
            segmentation: seg,
            fem_iterations: sol.stats.iterations,
            attempts: 1,
            fem: sol,
            surface_residual: evolved.final_distance,
            reclassified_voxels: self.dims.len(),
            total_voxels: self.dims.len(),
            knn_leaf_visits,
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
        let seq = small_seq(2);
        let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
        let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare failed");
        let mut ctx = prepared.build_solver_context().expect("context build failed");
        let mut last: Option<DisplacementField> = None;
        for scan in &seq.scans {
            let reg = prepared
                .register_scan(&mut ctx, &scan.intensity, last.as_ref(), None, None)
                .expect("register failed");
            assert_ne!(reg.status, ScanStatus::Degraded);
            // Warm path: per-scan work is timed, once-per-surgery work is 0.
            assert!(reg.timings.classification_s > 0.0);
            assert!(reg.timings.solve_s > 0.0);
            assert_eq!(reg.timings.assembly_s, 0.0);
            assert_eq!(reg.timings.factorization_s, 0.0);
            // Sub-stage laps cover the whole classification stage.
            let t = reg.timings;
            let sub = t.feature_s + t.knn_build_s + t.knn_query_s + t.morphology_s;
            assert!((sub - t.classification_s).abs() < 1e-9);
            assert_eq!(reg.reclassified_voxels, reg.total_voxels);
            assert_eq!(reg.total_voxels, scan.intensity.dims().len());
            assert!(reg.knn_leaf_visits > 0);
            last = Some(reg.field);
        }
        let s = ctx.stats();
        assert_eq!(s.assemblies, 1);
        assert_eq!(s.factorizations, 1);
        assert_eq!(s.solves, 2);
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
