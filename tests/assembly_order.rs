//! Integration: the stiffness assembly sums each entry in element order.
//!
//! `assemble_stiffness` scatters each tet's 3×3 node-pair blocks into the
//! rows of the node range that owns them, walking the tets in ascending
//! order. So its pattern is the triplet rule's — an entry is stored if and
//! only if some tet gave it a nonzero contribution, columns ascending —
//! and each value is the left-to-right sum of its nonzero contributions in
//! ascending tet order, whatever the thread count. The references here are
//! built from the same element matrices as triplets: `TripletBuilder` for
//! the pattern and the values up to rounding, and a stable sort of the
//! triplets in tet order for the exact bits. Run at two `RAYON_NUM_THREADS`
//! counts, the bitwise check pins equal bits at any count.

use brainshift_bench::phantom_labels;
use brainshift_fem::{assemble_stiffness, stiffness_isotropic, MaterialTable, TetShape};
use brainshift_imaging::labels;
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_mesh::{mesh_labeled_volume, MesherConfig, TetMesh};
use brainshift_sparse::{CsrMatrix, TripletBuilder};

/// Every nonzero element-matrix entry as `(row, col, value)`, tet by tet
/// in ascending order; degenerate tets give none.
fn element_triplets(mesh: &TetMesh, materials: &MaterialTable) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    for (tet, &label) in mesh.tets.iter().zip(&mesh.tet_labels) {
        let Ok(shape) = TetShape::new(tet.map(|n| mesh.nodes[n])) else {
            continue;
        };
        let ke = stiffness_isotropic(&shape, &materials.of(label));
        for (i, &ni) in tet.iter().enumerate() {
            for (j, &nj) in tet.iter().enumerate() {
                for a in 0..3 {
                    for c in 0..3 {
                        let v = ke[3 * i + a][3 * j + c];
                        if v != 0.0 {
                            out.push((3 * ni + a, 3 * nj + c, v));
                        }
                    }
                }
            }
        }
    }
    out
}

/// The element-order reference: a stable sort by `(row, col)` keeps each
/// entry's contributions in tet order, summed left to right. Also returns
/// each entry's contribution count and sum of magnitudes, which bound the
/// rounding difference of any other summation order.
fn element_order_reference(
    mesh: &TetMesh,
    materials: &MaterialTable,
) -> (CsrMatrix, Vec<(usize, f64)>) {
    let n = mesh.num_equations();
    let mut t = element_triplets(mesh, materials);
    t.sort_by_key(|&(r, c, _)| (r, c));
    let mut indptr = vec![0usize; n + 1];
    let (mut indices, mut values, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0;
    while i < t.len() {
        let (r, c, mut acc) = t[i];
        let (mut count, mut abs_sum) = (1, acc.abs());
        i += 1;
        while i < t.len() && (t[i].0, t[i].1) == (r, c) {
            acc += t[i].2;
            count += 1;
            abs_sum += t[i].2.abs();
            i += 1;
        }
        indices.push(c);
        values.push(acc);
        bounds.push((count, abs_sum));
        indptr[r + 1] = indices.len();
    }
    for r in 0..n {
        indptr[r + 1] = indptr[r + 1].max(indptr[r]);
    }
    let k = CsrMatrix::from_raw(n, n, indptr, indices, values).expect("reference is valid CSR");
    (k, bounds)
}

fn triplet_reference(mesh: &TetMesh, materials: &MaterialTable) -> CsrMatrix {
    let n = mesh.num_equations();
    let mut b = TripletBuilder::new(n, n);
    for (r, c, v) in element_triplets(mesh, materials) {
        b.add(r, c, v);
    }
    b.build()
}

fn check(name: &str, mesh: &TetMesh, materials: &MaterialTable) {
    let k = assemble_stiffness(mesh, materials);
    let (ordered, bounds) = element_order_reference(mesh, materials);
    let triplets = triplet_reference(mesh, materials);
    assert!(k.nnz() > 0, "{name}: empty matrix");
    // (a) The pattern is the triplet rule's.
    assert_eq!(k.indptr(), triplets.indptr(), "{name}: indptr");
    assert_eq!(k.indices(), triplets.indices(), "{name}: indices");
    // (b) Every value is the element-order sum, bit for bit.
    for (e, (&got, &want)) in k.values().iter().zip(ordered.values()).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name}: entry {e}: {got:e} vs {want:e}"
        );
    }
    // (c) Any other summation order differs by rounding only.
    for (e, ((&got, &other), &(count, abs_sum))) in k
        .values()
        .iter()
        .zip(triplets.values())
        .zip(&bounds)
        .enumerate()
    {
        let bound = 2.0 * count as f64 * f64::EPSILON * abs_sum;
        assert!(
            (got - other).abs() <= bound,
            "{name}: entry {e}: {got:e} vs {other:e}"
        );
    }
}

/// A lattice of `dims` voxels, split into brain and falx along x so a
/// heterogeneous table gives two materials.
fn lattice(dims: Dims, spacing: Spacing) -> TetMesh {
    let seg = Volume::from_fn(dims, spacing, |x, _, _| {
        if 2 * x < dims.nx {
            labels::BRAIN
        } else {
            labels::FALX
        }
    });
    mesh_labeled_volume(
        &seg,
        &MesherConfig {
            step: 1,
            include: labels::is_deformable,
        },
    )
}

#[test]
fn lattices_sum_in_element_order() {
    let cases = [
        (Dims::new(2, 2, 2), Spacing::iso(1.0)),
        (Dims::new(5, 5, 5), Spacing::iso(2.0)),
        (Dims::new(7, 4, 6), Spacing::new(1.5, 2.0, 3.0)),
    ];
    for (dims, spacing) in cases {
        let mesh = lattice(dims, spacing);
        for (m, materials) in [MaterialTable::homogeneous(), MaterialTable::heterogeneous()]
            .iter()
            .enumerate()
        {
            check(&format!("lattice {dims:?} table {m}"), &mesh, materials);
        }
    }
}

#[test]
fn phantom_mesh_sums_in_element_order() {
    let (seg, _) = phantom_labels(Dims::new(32, 32, 24), Spacing::new(7.5, 7.5, 6.25));
    let mesh = mesh_labeled_volume(
        &seg,
        &MesherConfig {
            step: 1,
            include: labels::is_deformable,
        },
    );
    assert!(
        mesh.tet_labels.iter().any(|&l| l != mesh.tet_labels[0]),
        "phantom mesh has one label"
    );
    for (m, materials) in [MaterialTable::homogeneous(), MaterialTable::heterogeneous()]
        .iter()
        .enumerate()
    {
        check(&format!("phantom table {m}"), &mesh, materials);
    }
}

#[test]
fn a_degenerate_tet_is_skipped() {
    let mesh = lattice(Dims::new(4, 4, 4), Spacing::iso(1.0));
    // Four corners of one lattice face (coplanar, zero volume) and a tet
    // with a repeated node. The corners share no tet of the lattice, so
    // the degenerate tet adds pairs to the block pattern that no
    // contribution touches, and compaction must drop them.
    let corner = |x: f64, y: f64| {
        mesh.nodes
            .iter()
            .position(|p| p.x == x && p.y == y && p.z == 0.0)
            .expect("lattice has a node at each corner")
    };
    let face = [
        corner(0.0, 0.0),
        corner(3.0, 0.0),
        corner(0.0, 3.0),
        corner(3.0, 3.0),
    ];
    let mut bad = mesh.clone();
    bad.tets.push(face);
    bad.tet_labels.push(labels::BRAIN);
    bad.tets.push([face[0], face[0], face[1], face[2]]);
    bad.tet_labels.push(labels::FALX);
    for materials in [MaterialTable::homogeneous(), MaterialTable::heterogeneous()] {
        let want = assemble_stiffness(&mesh, &materials);
        let got = assemble_stiffness(&bad, &materials);
        assert_eq!(got.indptr(), want.indptr());
        assert_eq!(got.indices(), want.indices());
        let bits = |k: &CsrMatrix| k.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        check("lattice with degenerate tets", &bad, &materials);
    }
}
