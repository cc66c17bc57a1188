//! Property tests of active-surface determinism: evolution is a pure
//! function of (surface, adjacency, force, config) — bit-identical across
//! repeated runs and across reuse of one adjacency table.
//! The per-vertex update is chunked for the thread pool, so running this
//! suite under different `RAYON_NUM_THREADS` (the verify script does)
//! extends the equality across worker counts.

use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::Vec3;
use brainshift_mesh::TriSurface;
use brainshift_surface::{evolve_surface_with, ActiveSurfaceConfig, DistanceForce, NeighborTable};
use proptest::prelude::*;

fn sphere_mask(center: Vec3, r: f64, n: usize) -> Volume<bool> {
    Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), move |x, y, z| {
        (Vec3::new(x as f64, y as f64, z as f64) - center).norm() < r
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two runs from the same inputs produce bit-identical vertex
    /// positions and displacements, whatever target the surface chases.
    #[test]
    fn evolution_is_deterministic(
        target_r in 4.0f64..9.0,
        start_r in 4.0f64..9.0,
        dx in -2.0f64..2.0,
        dz in -2.0f64..2.0,
        step in 0.4f64..1.0,
    ) {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let force =
            DistanceForce::from_mask(&sphere_mask(c + Vec3::new(dx, 0.0, dz), target_r, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, start_r, 3);
        let cfg = ActiveSurfaceConfig { step, max_iterations: 60, ..Default::default() };
        let a = evolve_surface_with(&start, &NeighborTable::build(&start), &force, &cfg);
        let b = evolve_surface_with(&start, &NeighborTable::build(&start), &force, &cfg);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(&a.positions, &b.positions);
        prop_assert_eq!(&a.displacements, &b.displacements);
        prop_assert!(a.final_distance.to_bits() == b.final_distance.to_bits());
    }

    /// A per-surgery adjacency table reused for a second evolution gives
    /// the bits of a freshly built one — reusing the table across scans
    /// cannot change the result.
    #[test]
    fn cached_adjacency_matches_internal_build(
        target_r in 4.0f64..9.0,
        start_r in 4.0f64..9.0,
        subdivisions in 2usize..4,
    ) {
        let c = Vec3::new(16.0, 16.0, 16.0);
        let force = DistanceForce::from_mask(&sphere_mask(c, target_r, 32), None, 1.0).unwrap();
        let start = TriSurface::sphere(c, start_r, subdivisions);
        let cfg = ActiveSurfaceConfig { max_iterations: 40, ..Default::default() };
        let table = NeighborTable::build(&start);
        evolve_surface_with(&start, &table, &force, &cfg);
        let a = evolve_surface_with(&start, &NeighborTable::build(&start), &force, &cfg);
        let b = evolve_surface_with(&start, &table, &force, &cfg);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(&a.positions, &b.positions);
    }
}
