//! Elastic-consistent synthetic neurosurgery cases.
//!
//! The `imaging` phantom's analytic brain-shift profile is convenient but
//! not mechanically consistent: no elastic body with those boundary
//! conditions would deform that way at depth, so a biomechanical pipeline
//! can never fully "recover" it. For quantitative evaluation we instead
//! generate the ground truth with an *independent, finer* FEM solve:
//! surface displacements are prescribed analytically (the craniotomy cap
//! profile), the interior follows from elasticity, and the intraoperative
//! scan is synthesized by forward-splatting the labels through that field
//! and re-rendering intensities with fresh noise. The pipeline under test
//! sees only the images — its mesh is coarser, its segmentation is k-NN,
//! its surface correspondences come from the active surface — so recovery
//! error measures the registration machinery, exactly what the paper's
//! Figure 4 assesses visually.

use brainshift_fem::{
    assemble_directed_gravity, displacement_field_from_mesh, solve_deformation, solve_with_loads,
    DirichletBcs, FemSolveConfig, MaterialTable,
};
use brainshift_imaging::field::invert_field;
use brainshift_imaging::phantom::{
    forward_warp_labels, generate_from_model, BrainShiftConfig, HeadModel,
    PhantomConfig, PhantomScan,
};
use brainshift_imaging::{labels, DisplacementField, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
use brainshift_sparse::SolverOptions;

/// A synthetic case whose ground-truth deformation is elastic-consistent.
pub struct ElasticCase {
    /// The preoperative (reference) scan.
    pub preop: PhantomScan,
    /// The later intraoperative scan after the ground-truth shift.
    pub intraop: PhantomScan,
    /// Ground-truth forward field on the preop grid (zero outside the
    /// ground-truth mesh).
    pub gt_forward: DisplacementField,
    /// Approximate inverse for resampling consumers.
    pub gt_backward: DisplacementField,
    /// The anatomical model underlying both scans.
    pub model: HeadModel,
    /// Equations in the ground-truth FEM (for reporting).
    pub gt_equations: usize,
}

/// How the ground-truth deformation is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroundTruthDrive {
    /// Prescribed craniotomy-cap surface displacements (default).
    PrescribedCap,
    /// Gravity loading with the brain surface freed inside an opening of
    /// the given radius (mm) and supported by the skull elsewhere — the
    /// actual physics of brain shift. `peak_shift_mm` is ignored; the sag
    /// magnitude follows from tissue weight and stiffness.
    GravityCraniotomy {
        /// Radius of the unsupported (freed) surface patch, mm.
        opening_radius_mm: f64,
    },
}

/// Options for ground-truth generation.
#[derive(Debug, Clone)]
pub struct ElasticCaseOptions {
    /// Mesh step (voxels) of the ground-truth FEM — keep finer than the
    /// pipeline's mesh.
    pub gt_mesh_step: usize,
    /// Materials used by the ground-truth solve (heterogeneous makes the
    /// homogeneous pipeline's model error measurable, reproducing the
    /// paper's ventricle discussion).
    pub materials: MaterialTable,
    /// What loads the ground-truth model.
    pub drive: GroundTruthDrive,
}

impl Default for ElasticCaseOptions {
    fn default() -> Self {
        ElasticCaseOptions {
            gt_mesh_step: 1,
            materials: MaterialTable::homogeneous(),
            drive: GroundTruthDrive::PrescribedCap,
        }
    }
}

/// Analytic surface-displacement profile of the craniotomy cap: full
/// `peak_shift_mm` at the point under the opening, Gaussian falloff along
/// the surface, zero far away (brain held by the skull). The displacement
/// is directed along the *inward surface normal* — the surface sinking
/// into the opening. (A gravity-directed field would be largely tangential
/// at mid-latitudes; tangential surface motion is invisible to any
/// shape-correspondence method — the aperture problem — and the paper's
/// active surface shares that limitation, see DESIGN.md.)
pub fn cap_surface_displacement(p: Vec3, model: &HeadModel, shift: &BrainShiftConfig) -> Vec3 {
    let dir = shift.craniotomy_dir.normalized();
    let brain = &model.brain;
    let surf_pt = brain.center
        + Vec3::new(dir.x * brain.radii.x, dir.y * brain.radii.y, dir.z * brain.radii.z);
    let dist = p.distance(surf_pt);
    let w = (-dist * dist / (2.0 * shift.surface_sigma_mm * shift.surface_sigma_mm)).exp();
    let inward = -brain.normal_at(p);
    inward * (shift.peak_shift_mm * w)
}

/// Generate an elastic-consistent case.
pub fn generate_elastic_case(
    cfg: &PhantomConfig,
    shift: &BrainShiftConfig,
    opts: &ElasticCaseOptions,
) -> ElasticCase {
    let model = HeadModel::fit(cfg.dims, cfg.spacing, cfg);
    let preop = generate_from_model(cfg, &model);

    // Ground-truth FEM on a fine mesh of the true labels.
    let gt_mesh = mesh_labeled_volume(
        &preop.labels,
        &MesherConfig { step: opts.gt_mesh_step, include: labels::is_brain_tissue },
    );
    let fem_cfg = FemSolveConfig {
        options: SolverOptions { tolerance: 1e-6, max_iterations: 10_000, ..Default::default() },
        ..Default::default()
    };
    let displacements = match opts.drive {
        GroundTruthDrive::PrescribedCap => {
            let mut bcs = DirichletBcs::new();
            for &n in boundary_nodes(&gt_mesh).iter() {
                bcs.set(n, cap_surface_displacement(gt_mesh.nodes[n], &model, shift));
            }
            let sol = solve_deformation(&gt_mesh, &opts.materials, &bcs, &fem_cfg)
                .expect("ground-truth FEM solve rejected its inputs");
            assert!(sol.stats.converged(), "ground-truth FEM failed to converge: {:?}", sol.stats.reason);
            sol.displacements
        }
        GroundTruthDrive::GravityCraniotomy { opening_radius_mm } => {
            // Fix the brain surface where the skull supports it; free it
            // under the opening; load everything with gravity directed
            // into the head along the craniotomy axis (patient oriented
            // opening-up).
            let dir = shift.craniotomy_dir.normalized();
            let brain = &model.brain;
            let surf_pt = brain.center
                + Vec3::new(dir.x * brain.radii.x, dir.y * brain.radii.y, dir.z * brain.radii.z);
            let mut bcs = DirichletBcs::new();
            for &n in boundary_nodes(&gt_mesh).iter() {
                if gt_mesh.nodes[n].distance(surf_pt) > opening_radius_mm {
                    bcs.set(n, Vec3::ZERO);
                }
            }
            let f = assemble_directed_gravity(&gt_mesh, -dir);
            let sol = solve_with_loads(&gt_mesh, &opts.materials, &bcs, &f, &fem_cfg)
                .expect("ground-truth gravity solve rejected its inputs");
            assert!(sol.stats.converged(), "gravity ground truth failed: {:?}", sol.stats.reason);
            sol.displacements
        }
    };
    let gt_forward =
        displacement_field_from_mesh(&gt_mesh, &displacements, cfg.dims, cfg.spacing)
            .expect("ground truth has one displacement per node");
    let gt_backward = invert_field(&gt_forward, 12);

    // Synthesize the intraoperative scan.
    let mut intraop_labels = forward_warp_labels(&preop.labels, &gt_forward, labels::CSF);
    if shift.resect_tumor {
        for v in intraop_labels.data_mut() {
            if *v == labels::TUMOR {
                *v = labels::RESECTION;
            }
        }
    }
    let intra_cfg = PhantomConfig { seed: cfg.seed.wrapping_add(1), ..cfg.clone() };
    // Texture travels with the tissue (material coordinates via the
    // approximate inverse — smooth inside the brain where texture lives).
    let intensity = brainshift_imaging::phantom::render_intensity_with_texture_map(
        &intraop_labels,
        &intra_cfg,
        Some(&gt_backward),
    );
    let intraop = PhantomScan { intensity, labels: intraop_labels };

    ElasticCase {
        preop,
        intraop,
        gt_forward,
        gt_backward,
        model,
        gt_equations: gt_mesh.num_equations(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brainshift_imaging::volume::{Dims, Spacing};

    fn small() -> (PhantomConfig, BrainShiftConfig) {
        (
            PhantomConfig {
                dims: Dims::new(32, 32, 24),
                spacing: Spacing::iso(4.5),
                ..Default::default()
            },
            BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() },
        )
    }

    #[test]
    fn elastic_case_has_consistent_sinking() {
        let (cfg, shift) = small();
        let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
        // Field max ≈ the prescribed peak.
        let max = case.gt_forward.max_magnitude();
        assert!(max > 0.6 * shift.peak_shift_mm && max <= shift.peak_shift_mm * 1.05, "max {max}");
        // The brain top actually sank in the generated labels.
        let d = cfg.dims;
        let top_of = |seg: &brainshift_imaging::Volume<u8>, x: usize| -> i64 {
            for z in (0..d.nz).rev() {
                if labels::is_brain_tissue(*seg.get(x, d.ny / 2, z)) {
                    return z as i64;
                }
            }
            -1
        };
        let x_off = d.nx / 2 + 3; // off the midline falx
        assert!(
            top_of(&case.intraop.labels, x_off) < top_of(&case.preop.labels, x_off),
            "brain did not sink in the generated intraop scan"
        );
    }

    #[test]
    fn gt_interior_decays_toward_fixed_side() {
        let (cfg, shift) = small();
        let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
        let d = cfg.dims;
        let c = (d.nx / 2, d.ny / 2, d.nz / 2);
        let near_top = case.gt_forward.get(c.0, c.1, d.nz * 3 / 4);
        let near_bottom = case.gt_forward.get(c.0, c.1, d.nz / 4);
        assert!(near_top.norm() > near_bottom.norm(), "{near_top:?} vs {near_bottom:?}");
    }

    #[test]
    fn gravity_drive_produces_physical_sag() {
        let (cfg, shift) = small();
        let case = generate_elastic_case(
            &cfg,
            &shift,
            &ElasticCaseOptions {
                drive: GroundTruthDrive::GravityCraniotomy { opening_radius_mm: 40.0 },
                ..Default::default()
            },
        );
        let peak = case.gt_forward.max_magnitude();
        // Physics decides the magnitude: millimetre-scale sag, clinically
        // plausible, no runaway.
        assert!(peak > 0.5 && peak < 20.0, "peak sag {peak}");
        // Sag must concentrate near the opening (top of the head).
        let d = cfg.dims;
        let top = case.gt_forward.get(d.nx / 2 + 2, d.ny / 2, d.nz * 3 / 4).norm();
        let bottom = case.gt_forward.get(d.nx / 2 + 2, d.ny / 2, d.nz / 4).norm();
        assert!(top > bottom, "{top} vs {bottom}");
    }

    #[test]
    fn resection_honored() {
        let (cfg, mut shift) = small();
        shift.resect_tumor = true;
        let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
        assert!(!case.intraop.labels.data().contains(&labels::TUMOR));
        assert!(case.gt_equations > 1000);
    }
}
