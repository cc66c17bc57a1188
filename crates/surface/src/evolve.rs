//! Elastic-membrane evolution of the active surface.
//!
//! "The active surface algorithm iteratively deforms the surface of the
//! first brain volume to match that of the second volume" — each vertex
//! feels the external image force plus internal membrane (tension +
//! rigidity-lite) forces; explicit iteration runs until the surface sits
//! on the target boundary. The resulting per-vertex displacements are the
//! correspondences handed to the FEM as Dirichlet data.
//!
//! The iteration is the per-scan hot loop, so it is written around reuse:
//! vertex adjacency is a flat CSR-style [`NeighborTable`] built once per
//! surgery, positions double-buffer between two preallocated arrays, and
//! the convergence residual is reduced deterministically (parallel fill
//! of a distance buffer, serial sum) so the result is independent of the
//! worker thread count.

use crate::forces::ExternalForce;
use brainshift_imaging::Vec3;
use brainshift_mesh::TriSurface;
use rayon::prelude::*;

/// Vertices per parallel chunk of the update loop. Fixed (rather than
/// derived from the thread count) so the work decomposition is stable.
const VERTEX_CHUNK: usize = 512;

/// Flat vertex→vertex adjacency (CSR layout): `indices[offsets[i]..
/// offsets[i+1]]` are the neighbours of vertex `i`, sorted. One build per
/// surgery replaces the per-call `Vec<Vec<usize>>` of
/// `TriSurface::vertex_neighbors`, and the evolution loop walks a single
/// contiguous array instead of chasing per-vertex heap allocations.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    offsets: Vec<u32>,
    indices: Vec<u32>,
}

impl NeighborTable {
    /// Build the adjacency of `surface`'s triangle edges.
    pub fn build(surface: &TriSurface) -> NeighborTable {
        let nested = surface.vertex_neighbors();
        let mut offsets = Vec::with_capacity(nested.len() + 1);
        let mut indices = Vec::with_capacity(nested.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for adj in &nested {
            for &j in adj {
                indices.push(j as u32);
            }
            offsets.push(indices.len() as u32);
        }
        NeighborTable { offsets, indices }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of vertex `i`, sorted ascending.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The evolution checks convergence every `CHECK_EVERY` iterations.
const CHECK_EVERY: usize = 10;

/// Evolution parameters.
#[derive(Debug, Clone)]
pub struct ActiveSurfaceConfig {
    /// Step size multiplying the total force (mm per unit force).
    pub step: f64,
    /// Membrane tension weight (pull toward neighbor centroid).
    pub tension: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Converged when the mean absolute boundary distance falls below
    /// this (mm). Discrete distance maps put the zero level ~half a voxel
    /// off the true surface, so sub-voxel tolerances cannot be reached.
    pub tolerance: f64,
}

impl Default for ActiveSurfaceConfig {
    fn default() -> Self {
        ActiveSurfaceConfig {
            step: 0.8,
            tension: 0.1,
            max_iterations: 400,
            tolerance: 1.0,
        }
    }
}

/// Result of an active-surface run.
#[derive(Debug, Clone)]
pub struct ActiveSurfaceResult {
    /// Final vertex positions.
    pub positions: Vec<Vec3>,
    /// Displacement of each vertex from its initial position (mm) — the
    /// surface correspondences for the biomechanical simulation.
    pub displacements: Vec<Vec3>,
    /// Iterations executed.
    pub iterations: usize,
    /// Mean |boundary distance| at the end (mm).
    pub final_distance: f64,
    /// Whether the convergence criterion was met.
    pub converged: bool,
}

/// Evolve `surface` under `force` until its vertices sit on the target
/// boundary. `neighbors` is the surface's adjacency table (it must belong
/// to `surface`'s triangulation), built once per surgery.
pub fn evolve_surface_with(
    surface: &TriSurface,
    neighbors: &NeighborTable,
    force: &dyn ExternalForce,
    cfg: &ActiveSurfaceConfig,
) -> ActiveSurfaceResult {
    assert_eq!(neighbors.num_vertices(), surface.vertices.len(), "adjacency table mismatch");
    let initial = &surface.vertices;
    let n = initial.len();
    let mut pos = initial.clone();
    let mut next = vec![Vec3::ZERO; n];
    let mut dist = vec![0.0f64; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut final_distance = f64::INFINITY;

    // Deterministic mean residual: parallel per-vertex fill, serial sum
    // (a parallel float `.sum()` would depend on chunk boundaries).
    let mean_distance = |pos: &[Vec3], dist: &mut [f64]| -> f64 {
        dist.par_chunks_mut(VERTEX_CHUNK).enumerate().for_each(|(c, chunk)| {
            let base = c * VERTEX_CHUNK;
            for (i, d) in chunk.iter_mut().enumerate() {
                *d = force.boundary_distance(pos[base + i]);
            }
        });
        dist.iter().sum::<f64>() / dist.len().max(1) as f64
    };

    let mut prev_dist = f64::INFINITY;
    let mut stalled_checks = 0u32;
    while iterations < cfg.max_iterations {
        iterations += 1;
        next.par_chunks_mut(VERTEX_CHUNK).enumerate().for_each(|(c, chunk)| {
            let base = c * VERTEX_CHUNK;
            for (k, out) in chunk.iter_mut().enumerate() {
                let i = base + k;
                let p = pos[i];
                let f_ext = force.force(p);
                // Membrane tension: pull toward the neighbor centroid
                // (umbrella-operator Laplacian).
                let adj = neighbors.neighbors(i);
                let f_int = if adj.is_empty() {
                    Vec3::ZERO
                } else {
                    let mut c = Vec3::ZERO;
                    for &j in adj {
                        c += pos[j as usize];
                    }
                    c = c / adj.len() as f64;
                    (c - p) * cfg.tension
                };
                *out = p + (f_ext + f_int) * cfg.step;
            }
        });
        std::mem::swap(&mut pos, &mut next);
        if iterations % CHECK_EVERY == 0 {
            let mean_dist = mean_distance(&pos, &mut dist);
            final_distance = mean_dist;
            let improvement = prev_dist - mean_dist;
            // Converged only when the residual is small AND has stopped
            // improving — a lagging minority of vertices (e.g. the sunken
            // cap under a craniotomy) must not be cut off by an early
            // mean-level pass.
            let still_improving = improvement > 0.02 * cfg.tolerance;
            if mean_dist < cfg.tolerance && !still_improving {
                converged = true;
                break;
            }
            // Early exit on a stalled residual above tolerance: two
            // consecutive checks without meaningful improvement mean the
            // surface is stuck (force balance reached away from the
            // target) and further iterations only burn the scan budget.
            if mean_dist >= cfg.tolerance && improvement <= 0.02 * cfg.tolerance.abs() {
                stalled_checks += 1;
                if stalled_checks >= 2 {
                    break;
                }
            } else {
                stalled_checks = 0;
            }
            prev_dist = mean_dist;
        }
    }
    if final_distance.is_infinite() {
        final_distance = mean_distance(&pos, &mut dist);
        converged = final_distance < cfg.tolerance;
    }
    let displacements = pos.iter().zip(initial).map(|(a, b)| *a - *b).collect();
    ActiveSurfaceResult {
        positions: pos,
        displacements,
        iterations,
        final_distance,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::DistanceForce;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};

    /// [`evolve_surface_with`] on a freshly built adjacency table.
    fn evolve_surface(
        surface: &TriSurface,
        force: &dyn ExternalForce,
        cfg: &ActiveSurfaceConfig,
    ) -> ActiveSurfaceResult {
        evolve_surface_with(surface, &NeighborTable::build(surface), force, cfg)
    }

    fn sphere_mask(center: Vec3, r: f64, n: usize) -> Volume<bool> {
        Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), move |x, y, z| {
            (Vec3::new(x as f64, y as f64, z as f64) - center).norm() < r
        })
    }

    #[test]
    fn sphere_shrinks_onto_smaller_target() {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let target = DistanceForce::from_mask(&sphere_mask(c, 6.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 11.0, 3);
        let res = evolve_surface(&start, &target, &ActiveSurfaceConfig::default());
        assert!(res.converged, "not converged: dist {}", res.final_distance);
        // All vertices near radius 6.
        for p in &res.positions {
            let r = (*p - c).norm();
            assert!((r - 6.0).abs() < 1.5, "vertex at radius {r}");
        }
        // Displacements point inward with magnitude ≈ 5.
        let mean_mag: f64 =
            res.displacements.iter().map(|d| d.norm()).sum::<f64>() / res.displacements.len() as f64;
        assert!((mean_mag - 5.0).abs() < 1.5, "mean displacement {mean_mag}");
    }

    #[test]
    fn sphere_grows_onto_larger_target() {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let target = DistanceForce::from_mask(&sphere_mask(c, 10.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 5.0, 3);
        let res = evolve_surface(&start, &target, &ActiveSurfaceConfig::default());
        assert!(res.converged);
        for p in &res.positions {
            let r = (*p - c).norm();
            assert!((r - 10.0).abs() < 1.5, "vertex at radius {r}");
        }
    }

    #[test]
    fn tracks_translated_target() {
        // Target sphere shifted by 3 mm: recovered displacements should
        // average ≈ the shift on the near side; total correspondence error
        // small.
        let c = Vec3::new(16.0, 16.0, 16.0);
        let shift = Vec3::new(0.0, 0.0, -3.0);
        let target = DistanceForce::from_mask(&sphere_mask(c + shift, 8.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 8.0, 3);
        let res = evolve_surface(&start, &target, &ActiveSurfaceConfig::default());
        assert!(res.converged, "dist {}", res.final_distance);
        for p in &res.positions {
            let r = (*p - (c + shift)).norm();
            assert!((r - 8.0).abs() < 1.6, "vertex at radius {r}");
        }
    }

    #[test]
    fn already_on_target_barely_moves() {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let target = DistanceForce::from_mask(&sphere_mask(c, 8.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 8.0, 3);
        let res = evolve_surface(&start, &target, &ActiveSurfaceConfig::default());
        assert!(res.converged);
        let max_disp = res.displacements.iter().map(|d| d.norm()).fold(0.0, f64::max);
        assert!(max_disp < 2.0, "moved {max_disp} despite starting on target");
    }

    #[test]
    fn iteration_budget_respected() {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let target = DistanceForce::from_mask(&sphere_mask(c, 6.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 12.0, 2);
        let cfg = ActiveSurfaceConfig { max_iterations: 3, ..Default::default() };
        let res = evolve_surface(&start, &target, &cfg);
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }

    #[test]
    fn neighbor_table_matches_nested_adjacency() {
        let s = TriSurface::sphere(Vec3::new(0.0, 0.0, 0.0), 5.0, 3);
        let nested = s.vertex_neighbors();
        let table = NeighborTable::build(&s);
        assert_eq!(table.num_vertices(), nested.len());
        for (i, adj) in nested.iter().enumerate() {
            let flat: Vec<usize> = table.neighbors(i).iter().map(|&j| j as usize).collect();
            assert_eq!(&flat, adj);
        }
    }

    #[test]
    fn reused_table_matches_internal_build() {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let target = DistanceForce::from_mask(&sphere_mask(c, 6.0, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, 10.0, 3);
        let table = NeighborTable::build(&start);
        let a = evolve_surface(&start, &target, &ActiveSurfaceConfig::default());
        let b = evolve_surface_with(&start, &table, &target, &ActiveSurfaceConfig::default());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.positions, b.positions);
    }

    #[test]
    fn stalled_evolution_exits_early() {
        // A force balance the surface cannot escape: zero external force
        // with a residual held far above tolerance. Without the stall
        // exit this would burn all 400 iterations.
        struct StuckForce;
        impl crate::forces::ExternalForce for StuckForce {
            fn force(&self, _p: Vec3) -> Vec3 {
                Vec3::ZERO
            }
            fn boundary_distance(&self, _p: Vec3) -> f64 {
                10.0
            }
        }
        let start = TriSurface::sphere(Vec3::new(0.0, 0.0, 0.0), 8.0, 2);
        let cfg = ActiveSurfaceConfig::default();
        let res = evolve_surface(&start, &StuckForce, &cfg);
        assert!(!res.converged);
        // First check just seeds prev_dist; the next two stall and break.
        assert_eq!(res.iterations, 3 * CHECK_EVERY, "should stop after two stalled checks");
        assert!((res.final_distance - 10.0).abs() < 1e-12);
    }

    #[test]
    fn membrane_tension_smooths_noise() {
        // Give one vertex a spike by starting from a perturbed sphere; the
        // membrane term should pull it back toward its neighbors even with
        // zero external force.
        struct NullForce;
        impl crate::forces::ExternalForce for NullForce {
            fn force(&self, _p: Vec3) -> Vec3 {
                Vec3::ZERO
            }
            fn boundary_distance(&self, _p: Vec3) -> f64 {
                0.0
            }
        }
        let c = Vec3::new(16.0, 16.0, 16.0);
        let mut start = TriSurface::sphere(c, 8.0, 2);
        let spike_idx = 0;
        let before_spike = start.vertices[spike_idx];
        start.vertices[spike_idx] = c + (before_spike - c) * 1.5;
        let cfg = ActiveSurfaceConfig { max_iterations: 20, tolerance: -1.0, ..Default::default() };
        let res = evolve_surface(&start, &NullForce, &cfg);
        let r_after = (res.positions[spike_idx] - c).norm();
        let r_spiked = (start.vertices[spike_idx] - c).norm();
        assert!(r_after < r_spiked - 0.5, "spike not smoothed: {r_after} vs {r_spiked}");
    }
}
