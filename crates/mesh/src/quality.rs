//! Tetrahedron quality metrics.
//!
//! Per-element measures: [`TetMesh::validate`](crate::TetMesh::validate)
//! refuses an element whose radius ratio marks it a sliver.

use brainshift_imaging::Vec3;

/// Quality measures of one tetrahedron.
#[derive(Debug, Clone, Copy)]
pub struct TetQuality {
    /// Volume, mm³ (positive for valid orientation).
    pub volume: f64,
    /// Longest edge / shortest edge.
    pub edge_ratio: f64,
    /// Radius ratio 3 r_in / r_circ in (0, 1]; 1 for the regular tet.
    pub radius_ratio: f64,
    /// Minimum dihedral angle, radians.
    pub min_dihedral: f64,
}

/// Compute quality of the tet with vertices (a, b, c, d).
pub fn tet_quality(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> TetQuality {
    let volume = crate::tetmesh::signed_volume(a, b, c, d);
    let edges = [
        (a, b),
        (a, c),
        (a, d),
        (b, c),
        (b, d),
        (c, d),
    ];
    let mut emin = f64::INFINITY;
    let mut emax: f64 = 0.0;
    for &(p, q) in &edges {
        let l = p.distance(q);
        emin = emin.min(l);
        emax = emax.max(l);
    }
    // Faces and their areas.
    let faces = [(a, b, c), (a, b, d), (a, c, d), (b, c, d)];
    let total_area: f64 = faces
        .iter()
        .map(|&(p, q, r)| (q - p).cross(r - p).norm() * 0.5)
        .sum();
    // Inradius r = 3V / total area.
    let r_in = if total_area > 0.0 { 3.0 * volume.abs() / total_area } else { 0.0 };
    // Circumradius via the standard determinant-free formula.
    let r_circ = circumradius(a, b, c, d).unwrap_or(f64::INFINITY);
    let radius_ratio = if r_circ.is_finite() && r_circ > 0.0 { 3.0 * r_in / r_circ } else { 0.0 };

    // Dihedral angles along the 6 edges: angle between the two faces
    // adjacent to each edge.
    let min_dihedral = min_dihedral_angle(a, b, c, d);

    TetQuality {
        volume,
        edge_ratio: if emin > 0.0 { emax / emin } else { f64::INFINITY },
        radius_ratio,
        min_dihedral,
    }
}

/// Circumradius of the tetrahedron, or `None` if degenerate.
pub fn circumradius(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Option<f64> {
    // Solve for the circumcenter: |x - a| = |x - b| = |x - c| = |x - d|.
    let ab = b - a;
    let ac = c - a;
    let ad = d - a;
    let m = brainshift_imaging::Mat3::from_rows(
        [ab.x, ab.y, ab.z],
        [ac.x, ac.y, ac.z],
        [ad.x, ad.y, ad.z],
    );
    let rhs = Vec3::new(ab.norm_sq() * 0.5, ac.norm_sq() * 0.5, ad.norm_sq() * 0.5);
    let inv = m.inverse()?;
    let offset = inv * rhs;
    Some(offset.norm())
}

fn face_normal(p: Vec3, q: Vec3, r: Vec3) -> Vec3 {
    (q - p).cross(r - p).normalized()
}

/// Minimum dihedral angle of the tet (radians).
pub fn min_dihedral_angle(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    // For each of the 6 edges, the dihedral is the angle between the two
    // incident faces. Orient face normals consistently outward using the
    // opposite vertex.
    let vertices = [a, b, c, d];
    let mut min_angle = f64::INFINITY;
    // Edge (i, j); faces are (i, j, k) and (i, j, l) with {k, l} the others.
    for i in 0..4 {
        for j in (i + 1)..4 {
            let others: Vec<usize> = (0..4).filter(|&x| x != i && x != j).collect();
            let (k, l) = (others[0], others[1]);
            let mut n1 = face_normal(vertices[i], vertices[j], vertices[k]);
            // Point n1 away from l.
            if n1.dot(vertices[l] - vertices[i]) > 0.0 {
                n1 = -n1;
            }
            let mut n2 = face_normal(vertices[i], vertices[j], vertices[l]);
            if n2.dot(vertices[k] - vertices[i]) > 0.0 {
                n2 = -n2;
            }
            // Dihedral angle = π − angle between outward normals.
            let cosang = (-(n1.dot(n2))).clamp(-1.0, 1.0);
            let ang = cosang.acos();
            min_angle = min_angle.min(ang);
        }
    }
    min_angle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regular_tet() -> (Vec3, Vec3, Vec3, Vec3) {
        // Regular tetrahedron inscribed in a cube.
        (
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(1.0, -1.0, -1.0),
            Vec3::new(-1.0, 1.0, -1.0),
            Vec3::new(-1.0, -1.0, 1.0),
        )
    }

    #[test]
    fn regular_tet_quality_is_ideal() {
        let (a, b, c, d) = regular_tet();
        let q = tet_quality(a, b, c, d);
        assert!((q.edge_ratio - 1.0).abs() < 1e-12);
        assert!((q.radius_ratio - 1.0).abs() < 1e-9, "radius ratio {}", q.radius_ratio);
        // Regular tet dihedral = arccos(1/3) ≈ 70.53°.
        let expected = (1.0f64 / 3.0).acos();
        assert!((q.min_dihedral - expected).abs() < 1e-9);
    }

    #[test]
    fn circumradius_of_regular_tet() {
        let (a, b, c, d) = regular_tet();
        // Vertices at distance sqrt(3) from origin.
        let r = circumradius(a, b, c, d).unwrap();
        assert!((r - 3.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_tet_has_zero_ratio() {
        let a = Vec3::ZERO;
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(2.0, 0.0, 0.0);
        let d = Vec3::new(3.0, 0.0, 0.0);
        let q = tet_quality(a, b, c, d);
        assert_eq!(q.volume, 0.0);
        assert!(q.radius_ratio == 0.0 || q.radius_ratio.is_nan());
    }

    #[test]
    fn sliver_quality_worse_than_regular() {
        let (a, b, c, d) = regular_tet();
        let sliver = tet_quality(a, b, c, Vec3::new(-1.0, -1.0, -0.9) * -1.0);
        let good = tet_quality(a, b, c, d);
        assert!(sliver.radius_ratio < good.radius_ratio);
    }

    #[test]
    fn generated_mesh_elements_are_well_shaped() {
        use crate::generator::{mesh_labeled_volume, MesherConfig};
        use brainshift_imaging::labels;
        use brainshift_imaging::volume::{Dims, Spacing, Volume};
        let seg = Volume::from_fn(Dims::new(5, 5, 5), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        let mesh = mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable });
        for t in &mesh.tets {
            let q = tet_quality(mesh.nodes[t[0]], mesh.nodes[t[1]], mesh.nodes[t[2]], mesh.nodes[t[3]]);
            assert!(q.volume > 0.0);
            let deg = q.min_dihedral.to_degrees();
            assert!(deg > 20.0, "5-tet split should have decent dihedrals: {deg}");
        }
    }
}
