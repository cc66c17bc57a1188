//! Triangulated surfaces.
//!
//! "Boundary surfaces of objects represented in the mesh can be extracted
//! from the mesh as triangulated surfaces, which is convenient for running
//! an active surface algorithm." This module is that surface
//! representation: vertices, oriented triangles, normals and neighbor
//! topology for the elastic-membrane evolution.

use brainshift_imaging::Vec3;

/// A triangulated surface. When extracted from a [`crate::TetMesh`],
/// `mesh_node` maps each surface vertex back to its volumetric node, which
/// is how active-surface displacements become FEM boundary conditions.
#[derive(Debug, Clone)]
pub struct TriSurface {
    /// Vertex positions, mm.
    pub vertices: Vec<Vec3>,
    /// Counter-clockwise (outward) oriented triangles.
    pub triangles: Vec<[usize; 3]>,
    /// Volumetric mesh node index of each vertex (`usize::MAX` when the
    /// surface did not come from a tet mesh).
    pub mesh_node: Vec<usize>,
}

impl TriSurface {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Vertex→vertex adjacency along triangle edges, sorted, deduplicated.
    pub fn vertex_neighbors(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_vertices()];
        for tri in &self.triangles {
            for i in 0..3 {
                adj[tri[i]].push(tri[(i + 1) % 3]);
                adj[tri[i]].push(tri[(i + 2) % 3]);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// Structural validation: triangle indices in range, no degenerate
    /// (repeated-vertex) triangles.
    pub fn validate(&self) -> Result<(), String> {
        if self.mesh_node.len() != self.vertices.len() {
            return Err("mesh_node length mismatch".into());
        }
        for (t, tri) in self.triangles.iter().enumerate() {
            for &v in tri {
                if v >= self.vertices.len() {
                    return Err(format!("triangle {t} references vertex {v} out of range"));
                }
            }
            if tri[0] == tri[1] || tri[1] == tri[2] || tri[0] == tri[2] {
                return Err(format!("triangle {t} is degenerate: {tri:?}"));
            }
        }
        Ok(())
    }

    /// A closed icosphere-like approximation of a sphere: recursively
    /// subdivided octahedron. A test fixture:
    /// `crates/surface/tests/evolve_props.rs` reads it.
    pub fn sphere(center: Vec3, radius: f64, subdivisions: usize) -> TriSurface {
        // Octahedron.
        let mut vertices = vec![
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, -1.0),
        ];
        let mut triangles: Vec<[usize; 3]> = vec![
            [0, 2, 4],
            [2, 1, 4],
            [1, 3, 4],
            [3, 0, 4],
            [2, 0, 5],
            [1, 2, 5],
            [3, 1, 5],
            [0, 3, 5],
        ];
        use std::collections::HashMap;
        for _ in 0..subdivisions {
            let mut midpoint: HashMap<(usize, usize), usize> = HashMap::new();
            let mut new_tris = Vec::with_capacity(triangles.len() * 4);
            for tri in &triangles {
                let mut mid = [0usize; 3];
                for i in 0..3 {
                    let a = tri[i];
                    let b = tri[(i + 1) % 3];
                    let key = (a.min(b), a.max(b));
                    mid[i] = *midpoint.entry(key).or_insert_with(|| {
                        let m = ((vertices[a] + vertices[b]) * 0.5).normalized();
                        vertices.push(m);
                        vertices.len() - 1
                    });
                }
                new_tris.push([tri[0], mid[0], mid[2]]);
                new_tris.push([tri[1], mid[1], mid[0]]);
                new_tris.push([tri[2], mid[2], mid[1]]);
                new_tris.push([mid[0], mid[1], mid[2]]);
            }
            triangles = new_tris;
        }
        let n = vertices.len();
        TriSurface {
            vertices: vertices.into_iter().map(|v| center + v * radius).collect(),
            triangles,
            mesh_node: vec![usize::MAX; n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TriSurface {
        /// Area-weighted (unnormalized) normal of triangle `t`.
        pub(crate) fn triangle_normal(&self, t: usize) -> Vec3 {
            let [a, b, c] = self.triangles[t];
            (self.vertices[b] - self.vertices[a]).cross(self.vertices[c] - self.vertices[a]) * 0.5
        }

        /// Total surface area (mm²).
        pub(crate) fn area(&self) -> f64 {
            (0..self.triangles.len()).map(|t| self.triangle_normal(t).norm()).sum()
        }
    }

    #[test]
    fn sphere_area_approaches_analytic() {
        let s = TriSurface::sphere(Vec3::ZERO, 2.0, 3);
        assert!(s.validate().is_ok());
        let analytic = 4.0 * std::f64::consts::PI * 4.0;
        let rel = (s.area() - analytic).abs() / analytic;
        assert!(rel < 0.05, "area {} vs {analytic}", s.area());
    }

    #[test]
    fn closed_surface_edges_shared_twice() {
        let s = TriSurface::sphere(Vec3::ZERO, 1.0, 2);
        use std::collections::HashMap;
        let mut edges: HashMap<(usize, usize), usize> = HashMap::new();
        for tri in &s.triangles {
            for i in 0..3 {
                let a = tri[i];
                let b = tri[(i + 1) % 3];
                *edges.entry((a.min(b), a.max(b))).or_insert(0) += 1;
            }
        }
        assert!(edges.values().all(|&c| c == 2), "open edges found");
    }

    #[test]
    fn neighbors_symmetric() {
        let s = TriSurface::sphere(Vec3::ZERO, 1.0, 1);
        let adj = s.vertex_neighbors();
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                assert!(adj[j].contains(&i));
            }
        }
    }

    #[test]
    fn degenerate_triangle_rejected() {
        let mut s = TriSurface::sphere(Vec3::ZERO, 1.0, 0);
        s.triangles.push([0, 0, 1]);
        assert!(s.validate().is_err());
    }
}
