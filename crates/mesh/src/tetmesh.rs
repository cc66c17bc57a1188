//! Unstructured tetrahedral meshes.
//!
//! "...the use of a finite element model with an unstructured grid can
//! allow a representation that faithfully models key characteristics in
//! important regions while reducing the number of equations to solve" —
//! the mesh is the FEM's discretization of the intracranial volume, with a
//! tissue label per element so "different biomechanical properties and
//! parameters can easily be assigned to the different cells".

use brainshift_imaging::Vec3;

/// A tetrahedral mesh with a tissue label per element.
#[derive(Debug, Clone)]
pub struct TetMesh {
    /// Node positions in world coordinates (mm).
    pub nodes: Vec<Vec3>,
    /// Tetrahedra as 4 node indices, positively oriented (signed volume
    /// > 0).
    pub tets: Vec<[usize; 4]>,
    /// Tissue label of each tetrahedron.
    pub tet_labels: Vec<u8>,
}

impl TetMesh {
    /// An empty mesh.
    pub fn empty() -> Self {
        TetMesh { nodes: Vec::new(), tets: Vec::new(), tet_labels: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tetrahedra.
    pub fn num_tets(&self) -> usize {
        self.tets.len()
    }

    /// Number of FEM equations: 3 displacement components per node.
    pub fn num_equations(&self) -> usize {
        3 * self.nodes.len()
    }

    /// Signed volume of tetrahedron `t` (positive for correct
    /// orientation).
    pub fn tet_volume(&self, t: usize) -> f64 {
        let [a, b, c, d] = self.tets[t];
        signed_volume(self.nodes[a], self.nodes[b], self.nodes[c], self.nodes[d])
    }

    /// Validate structural invariants; returns the first violation, if
    /// any (label/tet count, node indices, repeated nodes, inverted
    /// elements).
    pub fn validate(&self) -> Result<(), crate::error::MeshError> {
        use crate::error::MeshError;
        if self.tets.len() != self.tet_labels.len() {
            return Err(MeshError::LabelCountMismatch {
                labels: self.tet_labels.len(),
                tets: self.tets.len(),
            });
        }
        for (t, tet) in self.tets.iter().enumerate() {
            for &n in tet {
                if n >= self.nodes.len() {
                    return Err(MeshError::NodeOutOfRange {
                        tet: t,
                        node: n,
                        num_nodes: self.nodes.len(),
                    });
                }
            }
            let mut s = *tet;
            s.sort_unstable();
            if s.windows(2).any(|w| w[0] == w[1]) {
                return Err(MeshError::RepeatedNode { tet: t });
            }
            let v = self.tet_volume(t);
            // `!(v > 0.0)` rather than `v <= 0.0`: NaN volumes (from
            // non-finite node coordinates) must fail this gate too, and
            // every comparison against NaN is false.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(v > 0.0) {
                return Err(MeshError::InvertedTet { tet: t, volume: v });
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus an element-quality gate: reject
    /// slivers whose radius ratio (3 · inradius / circumradius, 1 for a
    /// regular tet) falls below `min_radius_ratio`. A sliver has positive
    /// volume — so plain validation passes — but its near-singular shape
    /// matrix poisons the assembled stiffness matrix.
    pub fn validate_quality(&self, min_radius_ratio: f64) -> Result<(), crate::error::MeshError> {
        self.validate()?;
        for (t, tet) in self.tets.iter().enumerate() {
            let [a, b, c, d] = *tet;
            let q = crate::quality::tet_quality(
                self.nodes[a],
                self.nodes[b],
                self.nodes[c],
                self.nodes[d],
            );
            // `!(ratio >= min)` so a NaN radius ratio — degenerate
            // geometry whose circumsphere solve broke down — is rejected
            // instead of slipping past a `<` comparison that is false for
            // NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(q.radius_ratio >= min_radius_ratio) {
                return Err(crate::error::MeshError::SliverTet {
                    tet: t,
                    radius_ratio: q.radius_ratio,
                    min_radius_ratio,
                });
            }
        }
        Ok(())
    }

    /// Drop nodes not referenced by any tet, remapping indices. Returns
    /// the old→new index map (`usize::MAX` for dropped nodes).
    pub fn compact(&mut self) -> Vec<usize> {
        let mut used = vec![false; self.nodes.len()];
        for tet in &self.tets {
            for &n in tet {
                used[n] = true;
            }
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut new_nodes = Vec::new();
        for (i, &u) in used.iter().enumerate() {
            if u {
                remap[i] = new_nodes.len();
                new_nodes.push(self.nodes[i]);
            }
        }
        for tet in &mut self.tets {
            for n in tet.iter_mut() {
                *n = remap[*n];
            }
        }
        self.nodes = new_nodes;
        remap
    }

    /// FNV-1a content fingerprint over node coordinates (IEEE-754 bit
    /// patterns), tetrahedron indices, and tissue labels. Two meshes
    /// collide only if they are bit-identical in geometry, connectivity,
    /// and labeling — unlike count-based comparison, which cannot tell
    /// apart distinct meshes of the same size. Used to validate that a
    /// cached context or a restored session belongs to this exact mesh.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.nodes.len() as u64);
        for n in &self.nodes {
            mix(n.x.to_bits());
            mix(n.y.to_bits());
            mix(n.z.to_bits());
        }
        mix(self.tets.len() as u64);
        for tet in &self.tets {
            for &i in tet {
                mix(i as u64);
            }
        }
        for &l in &self.tet_labels {
            mix(u64::from(l));
        }
        h
    }
}

/// Signed volume of the tetrahedron (a, b, c, d).
pub fn signed_volume(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    (b - a).cross(c - a).dot(d - a) / 6.0
}

/// Barycentric coordinates of `p` with respect to tet (a,b,c,d).
pub fn barycentric_in(a: Vec3, b: Vec3, c: Vec3, d: Vec3, p: Vec3) -> Option<[f64; 4]> {
    let v = signed_volume(a, b, c, d);
    if v.abs() < 1e-30 {
        return None;
    }
    let wa = signed_volume(p, b, c, d) / v;
    let wb = signed_volume(a, p, c, d) / v;
    let wc = signed_volume(a, b, p, d) / v;
    let wd = signed_volume(a, b, c, p) / v;
    Some([wa, wb, wc, wd])
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TetMesh {
        /// Node adjacency (nodes sharing a tet edge), sorted and
        /// deduplicated: a node's degree is its entry's length.
        pub(crate) fn node_adjacency(&self) -> Vec<Vec<usize>> {
            let mut adj = vec![Vec::new(); self.num_nodes()];
            for tet in &self.tets {
                for i in 0..4 {
                    for j in 0..4 {
                        if i != j {
                            adj[tet[i]].push(tet[j]);
                        }
                    }
                }
            }
            for a in &mut adj {
                a.sort_unstable();
                a.dedup();
            }
            adj
        }
    }

    /// A unit tetrahedron with positive orientation.
    pub(crate) fn unit_tet() -> TetMesh {
        TetMesh {
            nodes: vec![
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ],
            tets: vec![[0, 1, 2, 3]],
            tet_labels: vec![4],
        }
    }

    #[test]
    fn unit_tet_volume() {
        let m = unit_tet();
        assert!((m.tet_volume(0) - 1.0 / 6.0).abs() < 1e-15);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn negative_volume_detected() {
        let mut m = unit_tet();
        m.tets[0] = [1, 0, 2, 3]; // swapped → negative
        assert!(matches!(m.validate(), Err(crate::error::MeshError::InvertedTet { tet: 0, .. })));
    }

    #[test]
    fn repeated_node_detected() {
        let mut m = unit_tet();
        m.tets[0] = [0, 0, 2, 3];
        assert!(matches!(m.validate(), Err(crate::error::MeshError::RepeatedNode { tet: 0 })));
    }

    #[test]
    fn out_of_range_node_detected() {
        let mut m = unit_tet();
        m.tets[0] = [0, 1, 2, 9];
        assert!(matches!(
            m.validate(),
            Err(crate::error::MeshError::NodeOutOfRange { tet: 0, node: 9, num_nodes: 4 })
        ));
    }

    #[test]
    fn sliver_detected_by_quality_gate() {
        // Flatten the apex nearly into the base plane: positive volume
        // (plain validate passes) but a terrible radius ratio.
        let mut m = unit_tet();
        m.nodes[3] = Vec3::new(0.33, 0.33, 1e-7);
        assert!(m.validate().is_ok());
        match m.validate_quality(1e-2) {
            Err(crate::error::MeshError::SliverTet { tet: 0, radius_ratio, .. }) => {
                assert!(radius_ratio < 1e-2);
            }
            other => panic!("expected SliverTet, got {other:?}"),
        }
        // A healthy tet passes the same gate.
        assert!(unit_tet().validate_quality(1e-2).is_ok());
    }

    #[test]
    fn nan_volume_rejected_by_validate() {
        // A NaN coordinate makes the signed volume NaN; `v <= 0.0` is
        // false for NaN, so the old gate silently passed poisoned meshes.
        let mut m = unit_tet();
        m.nodes[3] = Vec3::new(f64::NAN, 0.0, 1.0);
        assert!(matches!(m.validate(), Err(crate::error::MeshError::InvertedTet { tet: 0, .. })));
    }

    #[test]
    fn nan_radius_ratio_rejected_by_quality_gate() {
        // Four exactly-coplanar points can drive the circumsphere solve
        // to a NaN radius ratio while the (degenerate) volume check is
        // bypassed; the quality gate must still reject. Build a tet whose
        // quality is NaN but whose volume check we exercise through
        // validate_quality's full path by giving it a tiny positive
        // volume and a NaN-producing quality via infinite coordinates.
        let mut m = unit_tet();
        m.nodes[3] = Vec3::new(0.0, 0.0, f64::INFINITY);
        // volume is +inf > 0 (passes validate), quality arithmetic on
        // infinities yields NaN — the gate must reject, not pass.
        let q = crate::quality::tet_quality(m.nodes[0], m.nodes[1], m.nodes[2], m.nodes[3]);
        assert!(q.radius_ratio.is_nan() || q.radius_ratio == 0.0);
        assert!(m.validate_quality(1e-2).is_err());
    }

    #[test]
    fn adjacency_of_single_tet_is_complete() {
        let m = unit_tet();
        let adj = m.node_adjacency();
        for (i, a) in adj.iter().enumerate() {
            assert_eq!(a.len(), 3, "node {i}");
        }
    }

    #[test]
    fn barycentric_at_vertices_and_centroid() {
        let m = unit_tet();
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| m.nodes[m.tets[0][i]]);
        let w = barycentric_in(a, b, c, d, Vec3::new(0.0, 0.0, 0.0)).unwrap();
        assert!((w[0] - 1.0).abs() < 1e-12);
        let wc = barycentric_in(a, b, c, d, (a + b + c + d) * 0.25).unwrap();
        for &wi in &wc {
            assert!((wi - 0.25).abs() < 1e-12);
        }
        // Sum to 1 anywhere.
        let wp = barycentric_in(a, b, c, d, Vec3::new(0.3, 0.3, 0.2)).unwrap();
        assert!((wp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compact_drops_unused_nodes() {
        let mut m = unit_tet();
        m.nodes.push(Vec3::new(9.0, 9.0, 9.0)); // orphan
        let remap = m.compact();
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(remap[4], usize::MAX);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn equations_are_three_per_node() {
        assert_eq!(unit_tet().num_equations(), 12);
    }

    #[test]
    fn fingerprint_separates_equal_sized_meshes() {
        let m = unit_tet();
        assert_eq!(m.fingerprint(), unit_tet().fingerprint(), "deterministic");
        // Same counts, different geometry.
        let mut moved = unit_tet();
        moved.nodes[3].z += 1e-9;
        assert_ne!(m.fingerprint(), moved.fingerprint());
        // Same counts and geometry, different connectivity order.
        let mut rewired = unit_tet();
        rewired.tets[0] = [0, 2, 3, 1];
        assert_ne!(m.fingerprint(), rewired.fingerprint());
        // Same everything but the tissue label.
        let mut relabeled = unit_tet();
        relabeled.tet_labels[0] = 5;
        assert_ne!(m.fingerprint(), relabeled.fingerprint());
    }
}
