//! Mesh export.
//!
//! Legacy VTK unstructured grids for tetrahedral meshes (with tissue
//! labels and optional nodal displacement vectors), which load directly
//! into ParaView / 3D Slicer, the lineage of the paper's visualization
//! system.

use crate::tetmesh::TetMesh;
use brainshift_imaging::Vec3;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Write a tetrahedral mesh as a legacy-format VTK unstructured grid,
/// with tissue labels as cell data and (optionally) nodal displacements
/// as point vectors.
pub fn write_vtk(mesh: &TetMesh, displacements: Option<&[Vec3]>, path: &Path) -> io::Result<()> {
    if let Some(d) = displacements {
        assert_eq!(d.len(), mesh.num_nodes(), "one displacement per node");
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# vtk DataFile Version 3.0")?;
    writeln!(w, "brainshift tetrahedral mesh")?;
    writeln!(w, "ASCII")?;
    writeln!(w, "DATASET UNSTRUCTURED_GRID")?;
    writeln!(w, "POINTS {} float", mesh.num_nodes())?;
    for p in &mesh.nodes {
        writeln!(w, "{} {} {}", p.x, p.y, p.z)?;
    }
    writeln!(w, "CELLS {} {}", mesh.num_tets(), mesh.num_tets() * 5)?;
    for t in &mesh.tets {
        writeln!(w, "4 {} {} {} {}", t[0], t[1], t[2], t[3])?;
    }
    writeln!(w, "CELL_TYPES {}", mesh.num_tets())?;
    for _ in 0..mesh.num_tets() {
        writeln!(w, "10")?; // VTK_TETRA
    }
    writeln!(w, "CELL_DATA {}", mesh.num_tets())?;
    writeln!(w, "SCALARS tissue_label int 1")?;
    writeln!(w, "LOOKUP_TABLE default")?;
    for &l in &mesh.tet_labels {
        writeln!(w, "{l}")?;
    }
    if let Some(disp) = displacements {
        writeln!(w, "POINT_DATA {}", mesh.num_nodes())?;
        writeln!(w, "VECTORS displacement float")?;
        for u in disp {
            writeln!(w, "{} {} {}", u.x, u.y, u.z)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{mesh_labeled_volume, MesherConfig};
    use brainshift_imaging::labels;
    use brainshift_imaging::volume::{Dims, Spacing, Volume};

    fn small_mesh() -> TetMesh {
        let seg = Volume::from_fn(Dims::new(3, 3, 3), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
        mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
    }

    #[test]
    fn vtk_structure_and_labels() {
        let mesh = small_mesh();
        let disp: Vec<Vec3> = mesh.nodes.iter().map(|p| *p * 0.01).collect();
        let path = std::env::temp_dir().join("brainshift_test.vtk");
        write_vtk(&mesh, Some(&disp), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&format!("POINTS {} float", mesh.num_nodes())));
        assert!(text.contains(&format!("CELLS {} {}", mesh.num_tets(), mesh.num_tets() * 5)));
        assert!(text.contains("SCALARS tissue_label int 1"));
        assert!(text.contains("VECTORS displacement float"));
        // All cell types are tetrahedra.
        let types: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("CELL_TYPES"))
            .skip(1)
            .take(mesh.num_tets())
            .collect();
        assert!(types.iter().all(|&t| t == "10"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vtk_without_displacements_omits_point_data() {
        let mesh = small_mesh();
        let path = std::env::temp_dir().join("brainshift_test_nodisp.vtk");
        write_vtk(&mesh, None, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("POINT_DATA"));
        std::fs::remove_file(&path).ok();
    }
}
