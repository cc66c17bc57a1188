//! Tumor-resection cavity collapse: carve, re-mesh, snap, release.
//!
//! A seeded ellipsoidal cavity is carved out of the phantom label volume
//! ([`brainshift_imaging::phantom::carve_cavity`]); the carved anatomy is
//! re-meshed (the cavity becomes a hole — `RESECTION` is not brain
//! tissue), and mesh nodes left inside the cavity by straddling elements
//! are snapped radially onto the cavity surface. Snapping can flatten
//! elements into slivers or invert them outright — exactly the degeneracy
//! `TetMesh::validate_quality` must catch — so the generator validates
//! after every carve and retries with a jittered cavity seed instead of
//! ever emitting an invalid mesh (Bucki et al., arXiv 0709.0686 models
//! the same cavity-collapse mechanics).

use crate::common::{finish_case, gt_solve_cfg, phantom_config, STREAM_CAVITY, STREAM_MAGNITUDE};
use crate::rng::draw_range;
use crate::{ScenarioCase, ScenarioError, ScenarioKind, ScenarioStats, SCENARIO_MIN_RADIUS_RATIO};
use brainshift_fem::{assemble_directed_gravity, solve_with_loads, DirichletBcs, MaterialTable};
use brainshift_imaging::phantom::{
    carve_cavity, generate_from_model, render_intensity, Ellipsoid, HeadModel, PhantomScan,
};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};

/// Jittered cavities attempted before giving up.
pub const MAX_CARVE_ATTEMPTS: usize = 8;

/// Boundary nodes within this distance of the cavity surface (after
/// snapping) count as the cavity wall — the release surface that
/// receives the collapse displacement. Sized well below the ~10 mm
/// element edge so the wall stays a thin shell around the hole.
const WALL_INCLUDE_MM: f64 = 4.0;

/// The seeded cavity of attempt `attempt`: centred near the tumor with a
/// per-attempt jitter that grows with each retry. The semi-axis floor of
/// 9 mm guarantees the cavity swallows at least one element centroid on
/// the 10 mm node grid (covering radius ≈ 8.7 mm), so carving always
/// opens a hole.
fn cavity_for_attempt(seed: u64, model: &HeadModel, attempt: usize) -> Ellipsoid {
    let base = (attempt as u64) * 8;
    let jitter_mm = 1.5 + attempt as f64;
    let center = model.tumor.center
        + Vec3::new(
            draw_range(seed, STREAM_CAVITY, base, -jitter_mm, jitter_mm),
            draw_range(seed, STREAM_CAVITY, base + 1, -jitter_mm, jitter_mm),
            draw_range(seed, STREAM_CAVITY, base + 2, -jitter_mm, jitter_mm),
        );
    let radii = Vec3::new(
        draw_range(seed, STREAM_CAVITY, base + 3, 9.0, 14.0),
        draw_range(seed, STREAM_CAVITY, base + 4, 9.0, 14.0),
        draw_range(seed, STREAM_CAVITY, base + 5, 9.0, 14.0),
    );
    Ellipsoid::axis_aligned(center, radii)
}

/// Approximate signed distance (mm) from `p` to the cavity surface along
/// the radial ray: negative inside, positive outside. `(level - 1)`
/// rescaled by the local radius `|p - center| / level`.
fn signed_wall_distance(cavity: &Ellipsoid, p: Vec3) -> f64 {
    let lvl = cavity.level(p).max(1e-9);
    (lvl - 1.0) * (p - cavity.center).norm() / lvl
}

/// Carve the cavity, re-mesh, and snap the hole's rim onto the cavity
/// surface. Returns the carved labels, the conformed mesh, and the wall
/// node set (the snapped boundary nodes — the release surface), or a
/// description of why this attempt is unusable.
fn carve_and_mesh(
    reference: &brainshift_imaging::Volume<u8>,
    cavity: &Ellipsoid,
) -> Result<(brainshift_imaging::Volume<u8>, TetMesh, Vec<usize>), String> {
    let carved = carve_cavity(reference, cavity, labels::RESECTION);
    // Resection meshes at step 1 (5 mm cells, finer than the other
    // scenario classes): the mesher keeps any cell with a surviving
    // corner voxel, so a cell only drops out when the cavity swallows it
    // whole — on the coarse 10 mm grid a clinically-sized cavity never
    // does, and no hole would open.
    let mut mesh = mesh_labeled_volume(
        &carved,
        &MesherConfig { step: 1, include: labels::is_brain_tissue },
    );
    if mesh.num_tets() == 0 {
        return Err("carved anatomy meshed to zero tetrahedra".to_string());
    }
    // Removing the elements whose centroid fell inside the cavity leaves
    // a stair-stepped hole with some straddling-element nodes still
    // strictly inside it. Snap those outward onto the implicit surface,
    // but guard each move: a node whose projection would invert an
    // incident element stays put (an unconditional snap flattens every
    // tet whose other three nodes already sit near the wall). The guard
    // rules out inversions; near-flat slivers can still slip through —
    // the exact degeneracy the quality gate below exists to catch.
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); mesh.nodes.len()];
    for (t, tet) in mesh.tets.iter().enumerate() {
        for &n in tet {
            incident[n].push(t);
        }
    }
    for n in 0..mesh.nodes.len() {
        let p = mesh.nodes[n];
        if signed_wall_distance(cavity, p) < 0.0 {
            mesh.nodes[n] = cavity.project_surface(p);
            if incident[n].iter().any(|&t| mesh.tet_volume(t) <= 1e-9) {
                mesh.nodes[n] = p;
            }
        }
    }
    mesh.validate_quality(SCENARIO_MIN_RADIUS_RATIO).map_err(|e| e.to_string())?;
    // The wall: boundary nodes on or near the (now conformed) surface.
    let mut wall = Vec::new();
    for &n in boundary_nodes(&mesh).iter() {
        if signed_wall_distance(cavity, mesh.nodes[n]) <= WALL_INCLUDE_MM {
            wall.push(n);
        }
    }
    if wall.len() < 4 {
        return Err(format!(
            "cavity intersects too little meshed tissue ({} wall nodes)",
            wall.len()
        ));
    }
    Ok((carved, mesh, wall))
}

/// Generate a resection-collapse case. Pure function of `seed`.
pub fn generate(seed: u64) -> Result<ScenarioCase, ScenarioError> {
    let pcfg = phantom_config(seed);
    let model = HeadModel::fit(pcfg.dims, pcfg.spacing, &pcfg);
    let preop = generate_from_model(&pcfg, &model);

    let mut last_err = String::new();
    let mut found = None;
    for attempt in 0..MAX_CARVE_ATTEMPTS {
        let cavity = cavity_for_attempt(seed, &model, attempt);
        match carve_and_mesh(&preop.labels, &cavity) {
            Ok((carved, mesh, wall)) => {
                found = Some((cavity, carved, mesh, wall, attempt));
                break;
            }
            Err(e) => last_err = e,
        }
    }
    let Some((cavity, carved, mesh, wall, retries)) = found else {
        return Err(ScenarioError::CavityRetriesExhausted {
            seed,
            attempts: MAX_CARVE_ATTEMPTS,
            last: last_err,
        });
    };

    // Reference scan of the carved anatomy (the surgery is prepared from
    // the post-resection state; the collapse then deforms it).
    let preop = PhantomScan { intensity: render_intensity(&carved, &pcfg), labels: carved };

    // Cavity-surface release: wall nodes collapse radially inward by a
    // seeded fraction of the local cavity radius; the outer boundary
    // stays skull-supported; gravity loads the remaining tissue.
    let collapse_frac = draw_range(seed, STREAM_MAGNITUDE, 0, 0.15, 0.35);
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(&mesh).iter() {
        bcs.set(n, Vec3::ZERO);
    }
    for &n in &wall {
        let p = mesh.nodes[n];
        let inward = (cavity.center - p).normalized();
        let local_radius = (p - cavity.center).norm();
        bcs.set(n, inward * (collapse_frac * local_radius));
    }
    let f = assemble_directed_gravity(&mesh, Vec3::new(0.0, 0.0, -1.0));
    let sol = solve_with_loads(&mesh, &MaterialTable::homogeneous(), &bcs, &f, &gt_solve_cfg())?;
    if !sol.stats.converged() {
        return Err(ScenarioError::GroundTruthDiverged {
            relative_residual: sol.stats.relative_residual,
        });
    }
    let stats = ScenarioStats {
        carve_retries: retries,
        fem_iterations: sol.stats.iterations,
        ..Default::default()
    };
    finish_case(
        ScenarioKind::ResectionCollapse,
        seed,
        &pcfg,
        preop,
        mesh,
        sol.displacements,
        Vec::new(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carved_mesh_always_passes_the_quality_gate() {
        // The satellite regression: carve-then-validate across seeds. The
        // generator must never emit a mesh the sliver gate rejects — it
        // retries with a jittered cavity instead.
        for seed in 0..6u64 {
            let case = generate(seed).expect("generation failed");
            assert!(case.mesh.validate_quality(SCENARIO_MIN_RADIUS_RATIO).is_ok());
            assert!(case.preop.labels.data().contains(&labels::RESECTION));
            assert!(case.stats.peak_displacement_mm > 0.1, "no collapse happened");
        }
    }

    #[test]
    fn snapping_conforms_nodes_to_the_cavity_surface() {
        let case = generate(0).expect("generation failed");
        // Re-derive the accepted cavity: with stats.carve_retries known,
        // the cavity is a pure function of (seed, attempt).
        let model = {
            let pcfg = crate::common::phantom_config(0);
            HeadModel::fit(pcfg.dims, pcfg.spacing, &pcfg)
        };
        let cavity = cavity_for_attempt(0, &model, case.stats.carve_retries);
        // Snapping conformed part of the rim exactly onto the implicit
        // surface (level 1 to projection precision)...
        let on_wall = case
            .mesh
            .nodes
            .iter()
            .filter(|p| (cavity.level(**p) - 1.0).abs() <= 1e-9)
            .count();
        assert!(on_wall >= 4, "only {on_wall} nodes conformed to the cavity surface");
        // ...and the inversion guard means every element stays positively
        // oriented even where deep nodes had to stay put.
        for t in 0..case.mesh.num_tets() {
            assert!(case.mesh.tet_volume(t) > 0.0, "tet {t} inverted by snapping");
        }
    }
}
