//! Gravity-driven brain shift: simulate the *physics* of the sag instead
//! of prescribing surface displacements.
//!
//! The paper drives its model with measured surface correspondences; the
//! underlying cause is gravity acting on the brain once the skull is
//! opened and CSF drains. Here we load the phantom brain with its own
//! weight, fix the surface where it still rests against the skull, free it
//! under the craniotomy, and let elasticity produce the sag — then compare
//! the pattern against the kind of field the pipeline recovers from images.
//!
//! ```bash
//! cargo run --release --example gravity_sag
//! ```

use brainshift_bench::phantom_labels;
use brainshift_fem::{
    assemble_gravity, evaluate_stress, solve_with_loads, summarize, DirichletBcs, FemSolveConfig,
    KrylovKind, MaterialTable,
};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::BrainShiftConfig;
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::Vec3;
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
use brainshift_sparse::SolverOptions;

fn main() {
    println!("gravity-driven brain sag");
    println!("========================\n");
    let (vol, model) = phantom_labels(Dims::new(48, 48, 36), Spacing::iso(3.0));
    let mesh = mesh_labeled_volume(&vol, &MesherConfig { step: 1, include: labels::is_brain_tissue });
    println!("mesh: {} nodes, {} tets ({} equations)", mesh.num_nodes(), mesh.num_tets(), mesh.num_equations());

    // Craniotomy at the top of the head (the default shift direction):
    // boundary nodes within the opening are FREE; everywhere else the
    // brain surface stays supported by the skull (fixed).
    let shift = BrainShiftConfig::default();
    let dir = shift.craniotomy_dir.normalized();
    let surf_pt = model.brain.center
        + Vec3::new(
            dir.x * model.brain.radii.x,
            dir.y * model.brain.radii.y,
            dir.z * model.brain.radii.z,
        );
    let opening_radius = 40.0; // mm
    let mut bcs = DirichletBcs::new();
    let mut free_boundary = 0usize;
    for &n in boundary_nodes(&mesh).iter() {
        if mesh.nodes[n].distance(surf_pt) > opening_radius {
            bcs.set(n, Vec3::ZERO);
        } else {
            free_boundary += 1;
        }
    }
    println!("craniotomy: {free_boundary} boundary nodes freed (radius {opening_radius} mm)\n");

    // Gravity points out of the opening → the brain sags into it reversed:
    // patient supine with the opening up means gravity pulls tissue DOWN
    // away from the opening; clinically the sag is inward. Use inward
    // gravity (the patient's head orientation puts -g along the axis).
    let mats = MaterialTable::homogeneous();
    let mut f = assemble_gravity(&mesh);
    // Rotate gravity so it points along −craniotomy axis (tissue sinks
    // into the head away from the opening).
    let g_mag = brainshift_fem::gravity_load_density(brainshift_fem::loads::BRAIN_DENSITY, Vec3::new(0.0, 0.0, -9.81)).norm();
    let mut shares = vec![0.0f64; mesh.num_nodes()];
    for t in 0..mesh.num_tets() {
        let share = mesh.tet_volume(t) / 4.0;
        for &n in &mesh.tets[t] {
            shares[n] += share;
        }
    }
    for n in 0..mesh.num_nodes() {
        let w = -dir * g_mag;
        f[3 * n] = w.x * shares[n];
        f[3 * n + 1] = w.y * shares[n];
        f[3 * n + 2] = w.z * shares[n];
    }

    // The paper's GMRES, on the solve's block-Jacobi IC(0) preconditioner.
    let cfg = FemSolveConfig {
        krylov: KrylovKind::Gmres,
        options: SolverOptions { tolerance: 1e-8, max_iterations: 5000, ..Default::default() },
    };
    let sol = solve_with_loads(&mesh, &mats, &bcs, &f, &cfg).expect("valid BC set");
    println!("solve: {} iterations, converged: {}", sol.stats.iterations, sol.stats.converged());
    let disp = sol.displacements;

    let max_sag = disp.iter().map(|u| u.norm()).fold(0.0, f64::max);
    println!("\npeak gravity sag: {max_sag:.2} mm (clinical reports: ~3–10 mm)");
    // Sag by angle from the opening.
    let center = model.brain.center;
    println!("\nmean |u| by angle from the craniotomy axis:");
    for band in 0..6 {
        let (lo, hi) = (band * 30, band * 30 + 30);
        let mut sum = 0.0;
        let mut n = 0usize;
        for (i, p) in mesh.nodes.iter().enumerate() {
            let ang = ((*p - center).normalized().dot(dir)).clamp(-1.0, 1.0).acos().to_degrees();
            if ang >= lo as f64 && ang < hi as f64 {
                sum += disp[i].norm();
                n += 1;
            }
        }
        if n > 0 {
            println!("  {lo:>3}-{hi:>3} deg: {:>5.2} mm ({n} nodes)", sum / n as f64);
        }
    }
    let states = evaluate_stress(&mesh, &mats, &disp).expect("one displacement per node");
    let s = summarize(&states);
    println!("\ntissue loading: max von Mises {:.1} Pa, mean {:.1} Pa", s.max_von_mises_pa, s.mean_von_mises_pa);
    println!("dilatation range: [{:.4}, {:.4}]", s.min_dilatation, s.max_dilatation);
    println!("\n(the sag concentrates under the opening and decays with angle —");
    println!(" gravity produces from physics the same pattern the paper's pipeline");
    println!(" recovers from images; see fig5_deformation for the image-driven map.)");
}
