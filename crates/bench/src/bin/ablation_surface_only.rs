//! Ablation: volumetric FEM vs surface-only deformation.
//!
//! The paper contrasts itself with Bro-Nielsen's fast surface-condensed
//! FEM: "This work had the goal of achieving interactive graphics speeds
//! at the cost of accuracy of the simulation." We compare the volumetric
//! biomechanical interior against the cheap alternative — extrapolating
//! the surface displacements into the volume with inverse-distance
//! weighting — using the elastic ground truth as the referee.

use brainshift_core::case::{cap_surface_displacement, generate_elastic_case, ElasticCaseOptions};
use brainshift_core::metrics::field_error;
use brainshift_fem::{displacement_field_from_mesh, solve_deformation, DirichletBcs, FemSolveConfig, MaterialTable};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
use brainshift_obs::Stopwatch;

fn main() {
    println!("## Ablation — volumetric FEM vs surface-only extrapolation\n");
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());

    // Both methods get the SAME exact surface displacements (isolating the
    // interior model from surface-matching error).
    let mesh = mesh_labeled_volume(
        &case.preop.labels,
        &MesherConfig { step: 2, include: labels::is_brain_tissue },
    );
    let bnodes = boundary_nodes(&mesh);
    let mut bcs = DirichletBcs::new();
    for &n in &bnodes {
        bcs.set(n, cap_surface_displacement(mesh.nodes[n], &case.model, &shift));
    }

    // --- Volumetric FEM (the paper's method). ---
    let t0 = Stopwatch::wall();
    let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &FemSolveConfig::default()).expect("FEM solve rejected its inputs");
    let fem_time = t0.elapsed_s();
    let fem_field = displacement_field_from_mesh(&mesh, &sol.displacements, cfg.dims, cfg.spacing)
        .expect("one displacement per node");

    // --- Surface-only: inverse-distance extrapolation from the boundary
    //     (the accuracy level of graphics-oriented surface models). ---
    let t0 = Stopwatch::wall();
    let surface_pts: Vec<(Vec3, Vec3)> = bnodes
        .iter()
        .map(|&n| (mesh.nodes[n], bcs.get(n).unwrap()))
        .collect();
    let mut interp_disp: Vec<Vec3> = Vec::with_capacity(mesh.num_nodes());
    for (i, &p) in mesh.nodes.iter().enumerate() {
        if let Some(u) = bcs.get(i) {
            interp_disp.push(u);
            continue;
        }
        // Shepard weights over the k nearest surface samples.
        let mut best: Vec<(f64, Vec3)> = surface_pts
            .iter()
            .map(|&(q, u)| ((p - q).norm_sq(), u))
            .collect();
        best.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut wsum = 0.0;
        let mut acc = Vec3::ZERO;
        for &(d2, u) in best.iter().take(12) {
            let w = 1.0 / (d2 + 1e-9);
            wsum += w;
            acc += u * w;
        }
        interp_disp.push(acc / wsum);
    }
    let surf_time = t0.elapsed_s();
    let surf_field = displacement_field_from_mesh(&mesh, &interp_disp, cfg.dims, cfg.spacing)
        .expect("one displacement per node");

    for (name, field, t) in [("volumetric FEM", &fem_field, fem_time), ("surface-only", &surf_field, surf_time)] {
        let fe = field_error(field, &case.gt_forward, 2.0);
        println!(
            "{:<16} mean err {:>5.2} mm  rms {:>5.2} mm  max {:>5.2} mm  rel {:>5.2}   host time {:>6.2}s",
            name, fe.mean_error_mm, fe.rms_error_mm, fe.max_error_mm, fe.relative_error, t
        );
    }
    println!("\n(the volumetric model propagates boundary data through elasticity;");
    println!(" inverse-distance extrapolation ignores mechanics and pays for it in");
    println!(" interior accuracy — the trade-off the paper's introduction describes.)");
}
