//! Shared case-assembly machinery for the four generators.

use crate::rng::{draw_range, draw_u64};
use crate::{ScenarioCase, ScenarioError, ScenarioKind, ScenarioStats, SCENARIO_MESH_STEP};
use brainshift_fem::{displacement_field_from_mesh, FemSolveConfig};
use brainshift_imaging::phantom::{
    forward_warp_labels, render_intensity, HeadModel, PhantomConfig, PhantomScan,
};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{mesh_labeled_volume, MesherConfig, TetMesh};
use brainshift_sparse::SolverOptions;

/// Stream tags for the per-stage SplitMix64 sub-sequences.
pub(crate) const STREAM_PHANTOM: u64 = 1;
pub(crate) const STREAM_DIRECTION: u64 = 2;
pub(crate) const STREAM_MAGNITUDE: u64 = 3;
pub(crate) const STREAM_CAVITY: u64 = 4;
pub(crate) const STREAM_KEYPOINTS: u64 = 5;

/// The seeded phantom underlying a scenario case: fixed scan geometry
/// (see [`crate::scenario_dims`]), jittered tumor placement so distinct
/// seeds produce distinct anatomy.
pub(crate) fn phantom_config(seed: u64) -> PhantomConfig {
    let (dims, spacing) = crate::scenario_dims();
    PhantomConfig {
        dims,
        spacing,
        seed: draw_u64(seed, STREAM_PHANTOM, 0),
        tumor_center_frac: Vec3::new(
            draw_range(seed, STREAM_PHANTOM, 1, -0.45, 0.45),
            draw_range(seed, STREAM_PHANTOM, 2, -0.35, 0.35),
            draw_range(seed, STREAM_PHANTOM, 3, -0.35, 0.35),
        ),
        tumor_radius: draw_range(seed, STREAM_PHANTOM, 4, 7.0, 11.0),
        ..Default::default()
    }
}

/// Ground-truth solver settings: tight tolerance so golden hashes are
/// insensitive to run-to-run Krylov noise, generous iteration cap.
pub(crate) fn gt_solve_cfg() -> FemSolveConfig {
    FemSolveConfig {
        options: SolverOptions { tolerance: 1e-10, max_iterations: 20_000, ..Default::default() },
        ..Default::default()
    }
}

/// Mesh the brain tissue of a label volume at the scenario step.
pub(crate) fn scenario_mesh(seg: &brainshift_imaging::Volume<u8>) -> TetMesh {
    mesh_labeled_volume(
        seg,
        &MesherConfig { step: SCENARIO_MESH_STEP, include: labels::is_brain_tissue },
    )
}

/// Assemble the final [`ScenarioCase`] from a solved ground truth:
/// rasterize the node field onto the scan grid, forward-warp the
/// reference labels through it, and render the intraoperative intensity
/// with fresh (seeded) noise — the same synthesis chain as
/// `core::case::generate_elastic_case`, minus the texture map (scenario
/// volumes are small; classification only needs per-tissue appearance).
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_case(
    kind: ScenarioKind,
    seed: u64,
    pcfg: &PhantomConfig,
    preop: PhantomScan,
    mesh: TetMesh,
    gt_displacements: Vec<Vec3>,
    keypoint_order: Vec<usize>,
    mut stats: ScenarioStats,
) -> Result<ScenarioCase, ScenarioError> {
    let gt_forward =
        displacement_field_from_mesh(&mesh, &gt_displacements, pcfg.dims, pcfg.spacing)?;
    let warped = forward_warp_labels(&preop.labels, &gt_forward, labels::CSF);
    let intra_cfg = PhantomConfig { seed: pcfg.seed.wrapping_add(1), ..pcfg.clone() };
    let intraop_intensity = render_intensity(&warped, &intra_cfg);
    stats.peak_displacement_mm = gt_displacements.iter().fold(0.0f64, |m, u| m.max(u.norm()));
    Ok(ScenarioCase {
        kind,
        seed,
        name: format!("{}-{seed:08x}", kind.name()),
        preop,
        intraop_intensity,
        mesh,
        gt_displacements,
        gt_forward,
        keypoint_order,
        stats,
    })
}

/// World point where the brain surface crosses the axis `dir` from its
/// centre — the craniotomy site for a direction draw.
pub(crate) fn brain_pole(model: &HeadModel, dir: Vec3) -> Vec3 {
    let b = &model.brain;
    b.center + Vec3::new(dir.x * b.radii.x, dir.y * b.radii.y, dir.z * b.radii.z)
}
