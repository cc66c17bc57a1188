//! Ablation: homogeneous vs heterogeneous material model.
//!
//! The paper: "Improved registration could result from a more
//! sophisticated model of the material properties of the brain (such as
//! more accurate modelling of the cerebral falx and the lateral
//! ventricles)." With a heterogeneous ground truth we can quantify how
//! much a heterogeneous *pipeline* model recovers of what the homogeneous
//! one misses.

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::{field_error, label_dice};
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_fem::MaterialTable;
use brainshift_imaging::field::warp_labels_backward;
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

fn main() {
    println!("## Ablation — homogeneous vs heterogeneous pipeline materials\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    // Truth: heterogeneous tissue.
    let case = generate_elastic_case(
        &cfg,
        &shift,
        &ElasticCaseOptions { materials: MaterialTable::heterogeneous(), ..Default::default() },
    );
    println!("ground truth: heterogeneous materials, {} equations\n", case.gt_equations);

    println!("— full pipeline (boundary data from images) —");
    println!(
        "{:<15} {:>12} {:>12} {:>14} {:>14}",
        "pipeline model", "field err", "rel err", "ventricle dice", "brain dice"
    );
    for materials in [MaterialTable::homogeneous(), MaterialTable::heterogeneous()] {
        let name = materials.name;
        let res = run_pipeline(
            &case.preop.intensity,
            &case.preop.labels,
            &case.intraop.intensity,
            &PipelineConfig { skip_rigid: true, materials, ..Default::default() },
        ).expect("pipeline failed");
        let fe = field_error(&res.forward_field, &case.gt_forward, 2.0);
        let warped_seg = warp_labels_backward(&case.preop.labels, &res.backward_field, labels::BACKGROUND);
        let vd = label_dice(&warped_seg, &case.intraop.labels, labels::VENTRICLE);
        let bd = label_dice(&warped_seg, &case.intraop.labels, labels::BRAIN);
        println!(
            "{:<15} {:>9.2} mm {:>12.2} {:>14.3} {:>14.3}",
            name, fe.mean_error_mm, fe.relative_error, vd, bd
        );
    }

    // Isolate the material model: give both solvers the exact analytic
    // surface displacements (no segmentation / active-surface error).
    println!("\n— oracle boundary conditions (material effect isolated) —");
    println!("{:<15} {:>12} {:>12}", "interior model", "field err", "rel err");
    use brainshift_core::case::cap_surface_displacement;
    use brainshift_fem::{displacement_field_from_mesh, solve_deformation, DirichletBcs, FemSolveConfig};
    use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
    let mesh = mesh_labeled_volume(
        &case.preop.labels,
        &MesherConfig { step: 2, include: labels::is_brain_tissue },
    );
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(&mesh).iter() {
        bcs.set(n, cap_surface_displacement(mesh.nodes[n], &case.model, &shift));
    }
    for materials in [MaterialTable::homogeneous(), MaterialTable::heterogeneous()] {
        let name = materials.name;
        let sol = solve_deformation(&mesh, &materials, &bcs, &FemSolveConfig::default()).expect("FEM solve rejected its inputs");
        let field = displacement_field_from_mesh(&mesh, &sol.displacements, cfg.dims, cfg.spacing)
            .expect("one displacement per node");
        let fe = field_error(&field, &case.gt_forward, 2.0);
        println!("{:<15} {:>9.2} mm {:>12.2}", name, fe.mean_error_mm, fe.relative_error);
    }
    println!("\n(with oracle boundary data the heterogeneous interior matches the");
    println!(" heterogeneous truth better — the improvement the paper anticipated;");
    println!(" inside the full pipeline, surface-matching error dominates, which is");
    println!(" why the paper says an intraoperative segmentation of falx/ventricles");
    println!(" would be needed before the richer model pays off.)");
}
