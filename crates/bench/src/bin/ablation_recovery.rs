//! Ablation: what sets the accuracy of the recovered deformation — the
//! interior model, the surface force and the voxel size — on one case.
//!
//! All three studies referee against the same elastic ground truth: a
//! 64×64×48 phantom at 2.5 mm with an 8 mm peak shift and no resection,
//! generated once (its ground-truth solve is the costliest step here).
//!
//! 1. Volumetric FEM vs surface-only deformation. The paper contrasts
//!    itself with Bro-Nielsen's fast surface-condensed FEM: "This work
//!    had the goal of achieving interactive graphics speeds at the cost
//!    of accuracy of the simulation." Both interiors get the same exact
//!    surface displacements; the cheap one extrapolates them into the
//!    volume with inverse-distance weighting. Asserts that the volumetric
//!    interior's mean error is the lower one.
//! 2. Active-surface force formulation. The paper derives its forces from
//!    image gradients with gray-level priors; a distance potential over
//!    the segmented target is the more robust modern choice. The study
//!    compares them head-to-head, and sweeps the membrane tension (the
//!    internal-force weight the paper's formulation leaves implicit)
//!    either side of the default, which the distance-potential row runs.
//!    Asserts that the distance potential's relative error is below the
//!    image gradient's.
//! 3. Image resolution. The paper's intraoperative scans are 256×256×60
//!    (~1 mm in-plane); our tests run coarser for speed. The sweep keeps
//!    the physical head and refines the voxels, separating the method's
//!    intrinsic accuracy from discretization effects (k-NN boundary bleed
//!    is ~1 voxel, so the error floor should track the voxel size). Its
//!    2.5 mm row is the case above under the default pipeline, the
//!    distance-potential row of study 2. Asserts that the relative error
//!    at 2 mm is below the one at 5 mm.
//!
//! It prints no host times, so its stdout is the same on any machine.

use brainshift_core::case::{
    cap_surface_displacement, generate_elastic_case, ElasticCase, ElasticCaseOptions,
};
use brainshift_core::metrics::{field_error, FieldErrorReport};
use brainshift_core::pipeline::{run_pipeline, PipelineConfig, SurfaceForceKind};
use brainshift_fem::{
    displacement_field_from_mesh, solve_deformation, DirichletBcs, FemSolveConfig, MaterialTable,
};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig};
use brainshift_surface::ActiveSurfaceConfig;

/// The resolution sweep over a constant physical head (~160×160×120 mm):
/// `(nx = ny, nz, voxel mm)`.
const GRIDS: [(usize, usize, f64); 5] =
    [(32, 24, 5.0), (40, 30, 4.0), (54, 40, 3.0), (64, 48, 2.5), (80, 60, 2.0)];

/// The grid of the shared case: the sweep's 2.5 mm row.
const CASE_GRID: usize = 3;

/// One pipeline run's accuracy against the ground truth.
struct Recovery {
    error: FieldErrorReport,
    peak_mm: f64,
    surface_residual: f64,
}

fn phantom((nx, nz, mm): (usize, usize, f64)) -> PhantomConfig {
    PhantomConfig { dims: Dims::new(nx, nx, nz), spacing: Spacing::iso(mm), ..Default::default() }
}

fn recover(case: &ElasticCase, cfg: &PipelineConfig) -> Recovery {
    let res = run_pipeline(&case.preop.intensity, &case.preop.labels, &case.intraop.intensity, cfg)
        .expect("pipeline failed");
    Recovery {
        error: field_error(&res.forward_field, &case.gt_forward, 2.0),
        peak_mm: res.forward_field.max_magnitude(),
        surface_residual: res.surface_residual,
    }
}

fn main() {
    let shift = BrainShiftConfig { peak_shift_mm: 8.0, resect_tumor: false, ..Default::default() };
    let cfg = phantom(GRIDS[CASE_GRID]);
    let case = generate_elastic_case(&cfg, &shift, &ElasticCaseOptions::default());
    surface_only(&case, &cfg, &shift);
    let default_run = surface_force(&case);
    resolution(&shift, default_run);
}

/// Study 1: the volumetric FEM interior against inverse-distance
/// extrapolation of the same surface displacements.
fn surface_only(case: &ElasticCase, cfg: &PhantomConfig, shift: &BrainShiftConfig) {
    println!("## Ablation — volumetric FEM vs surface-only extrapolation\n");
    // Both methods get the SAME exact surface displacements (isolating the
    // interior model from surface-matching error).
    let mesh =
        mesh_labeled_volume(&case.preop.labels, &MesherConfig { step: 2, include: labels::is_brain_tissue });
    let bnodes = boundary_nodes(&mesh);
    let mut bcs = DirichletBcs::new();
    for &n in &bnodes {
        bcs.set(n, cap_surface_displacement(mesh.nodes[n], &case.model, shift));
    }

    // --- Volumetric FEM (the paper's method). ---
    let sol = solve_deformation(&mesh, &MaterialTable::homogeneous(), &bcs, &FemSolveConfig::default())
        .expect("FEM solve rejected its inputs");
    let fem_field = displacement_field_from_mesh(&mesh, &sol.displacements, cfg.dims, cfg.spacing)
        .expect("one displacement per node");

    // --- Surface-only: inverse-distance extrapolation from the boundary
    //     (the accuracy level of graphics-oriented surface models). ---
    let surface_pts: Vec<(Vec3, Vec3)> =
        bnodes.iter().map(|&n| (mesh.nodes[n], bcs.get(n).unwrap())).collect();
    let mut interp_disp: Vec<Vec3> = Vec::with_capacity(mesh.num_nodes());
    for (i, &p) in mesh.nodes.iter().enumerate() {
        if let Some(u) = bcs.get(i) {
            interp_disp.push(u);
            continue;
        }
        // Shepard weights over the k nearest surface samples.
        let mut best: Vec<(f64, Vec3)> = surface_pts.iter().map(|&(q, u)| ((p - q).norm_sq(), u)).collect();
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
    let surf_field = displacement_field_from_mesh(&mesh, &interp_disp, cfg.dims, cfg.spacing)
        .expect("one displacement per node");

    let [fem_err, surf_err] =
        [("volumetric FEM", &fem_field), ("surface-only", &surf_field)].map(|(name, field)| {
            let fe = field_error(field, &case.gt_forward, 2.0);
            println!(
                "{:<16} mean err {:>5.2} mm  rms {:>5.2} mm  max {:>5.2} mm  rel {:>5.2}",
                name, fe.mean_error_mm, fe.rms_error_mm, fe.max_error_mm, fe.relative_error
            );
            fe.mean_error_mm
        });
    println!("\n(the volumetric model propagates boundary data through elasticity;");
    println!(" inverse-distance extrapolation ignores mechanics and pays for it in");
    println!(" interior accuracy — the trade-off the paper's introduction describes.)");
    assert!(fem_err < surf_err, "volumetric FEM mean error {fem_err} mm, surface-only {surf_err} mm");
}

/// Study 2: the two force formulations and a tension sweep; returns the
/// default pipeline's run (the distance-potential row).
fn surface_force(case: &ElasticCase) -> Recovery {
    println!("## Ablation — active-surface force formulation and tension\n");
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "configuration", "mean err", "rel err", "peak rec", "surf res"
    );
    let print = |name: &str, run: &Recovery| {
        println!(
            "{:<22} {:>7.2} mm {:>10.2} {:>7.2} mm {:>7.2} mm",
            name, run.error.mean_error_mm, run.error.relative_error, run.peak_mm, run.surface_residual
        );
    };

    // The default pipeline's force is the distance potential.
    let distance = recover(case, &PipelineConfig { skip_rigid: true, ..Default::default() });
    print("distance potential", &distance);
    let gradient = recover(
        case,
        &PipelineConfig {
            skip_rigid: true,
            surface_force: SurfaceForceKind::ImageGradient,
            ..Default::default()
        },
    );
    print("image gradient (paper)", &gradient);
    for tension in [0.02f64, 0.4] {
        let cfg = PipelineConfig {
            skip_rigid: true,
            active_surface: ActiveSurfaceConfig { tension, ..Default::default() },
            ..Default::default()
        };
        print(&format!("distance, tension {tension}"), &recover(case, &cfg));
    }
    println!("\n(the gradient formulation needs no segmentation of the target scan");
    println!(" but is noisier; higher tension smooths the surface at the cost of");
    println!(" undershooting the sunken cap — the trade-off behind our defaults.)");
    let (d, g) = (distance.error.relative_error, gradient.error.relative_error);
    assert!(d < g, "distance-potential relative error {d}, image-gradient {g}");
    distance
}

/// Study 3: the default pipeline at each voxel size of [`GRIDS`], the
/// shared case's row being `case_run`.
fn resolution(shift: &BrainShiftConfig, case_run: Recovery) {
    println!("## Ablation — voxel size vs deformation recovery\n");
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "voxel(mm)", "grid", "mean err", "rel err", "peak rec", "surf res"
    );
    let mut case_run = Some(case_run);
    let errors = GRIDS.map(|grid| {
        let (nx, nz, mm) = grid;
        let run = match case_run.take_if(|_| nx == GRIDS[CASE_GRID].0) {
            Some(run) => run,
            None => {
                let case = generate_elastic_case(&phantom(grid), shift, &ElasticCaseOptions::default());
                recover(&case, &PipelineConfig { skip_rigid: true, ..Default::default() })
            }
        };
        println!(
            "{:>10.1} {:>12} {:>7.2} mm {:>10.2} {:>7.2} mm {:>7.2} mm",
            mm,
            format!("{nx}x{nx}x{nz}"),
            run.error.mean_error_mm,
            run.error.relative_error,
            run.peak_mm,
            run.surface_residual
        );
        run.error.relative_error
    });
    println!("\n(error tracks voxel size: the pipeline's accuracy floor is set by");
    println!(" the discrete segmentation boundary, not by the mechanics — at the");
    println!(" paper's ~1 mm scans the same machinery lands proportionally closer.)");
    let [coarse, .., fine] = errors;
    assert!(fine < coarse, "relative error {fine} at 2 mm, {coarse} at 5 mm");
}
