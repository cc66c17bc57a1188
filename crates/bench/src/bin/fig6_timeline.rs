//! Figure 6: the timeline of image processing for image-guided
//! neurosurgery — which actions run before surgery and which during, and
//! how long the intraoperative chain takes.
//!
//! Two views are printed: the preoperative actions and the host-measured
//! stage times for the full pipeline on the phantom case, and the modeled
//! operating-room timings at the paper's scale (77 511 equations on 16
//! Deep Flow CPUs).

use brainshift_core::case::{generate_elastic_case, ElasticCaseOptions};
use brainshift_core::pipeline::{run_pipeline, PipelineConfig};
use brainshift_bench::problem_with_equations;
use brainshift_cluster::MachineModel;
use brainshift_fem::simulate_assemble_solve;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};

fn main() {
    println!("## Figure 6 — intraoperative processing timeline\n");

    // ---- Host-measured pipeline stages on the phantom case. ----
    let cfg = PhantomConfig {
        dims: Dims::new(64, 64, 48),
        spacing: Spacing::iso(2.5),
        ..Default::default()
    };
    let case = generate_elastic_case(
        &cfg,
        &BrainShiftConfig::default(),
        &ElasticCaseOptions::default(),
    );
    let res = run_pipeline(
        &case.preop.intensity,
        &case.preop.labels,
        &case.intraop.intensity,
        &PipelineConfig { skip_rigid: true, ..Default::default() },
    ).expect("pipeline failed");
    // Preoperative actions happen before the OR (long-running is fine);
    // their times are modeled, not measured.
    println!("preoperative (modeled):");
    println!("  {:<32} {:>10.3}", "preoperative MRI", 1200.0);
    println!("  {:<32} {:>10.3}\n", "preoperative segmentation", 3600.0);
    // The intraoperative chain in the paper's per-stage vocabulary
    // (classifier / mesher / assembly / reduction / preconditioner /
    // Krylov solve / resample) — the host-measured counterpart of the
    // "< 10 s" budget table.
    println!("host-measured pipeline on the phantom case ({}x{}x{} voxels):\n", cfg.dims.nx, cfg.dims.ny, cfg.dims.nz);
    println!("{}", res.stage_timings.render());

    // ---- Modeled OR timings at the paper's scale. ----
    println!("modeled intraoperative biomechanical simulation at paper scale:");
    let p = problem_with_equations(77_511);
    let (t, _) = simulate_assemble_solve(&p.mesh, &p.structure(), &p.bcs, MachineModel::deep_flow(), 16)
        .expect("simulated problem is consistent");
    println!("  {} equations on 16 CPUs ({}):", t.total_equations, t.machine);
    println!("    init      {:>7.2} s  (overlappable with earlier image processing)", t.init_s);
    println!("    assemble  {:>7.2} s", t.assemble_s);
    println!("    solve     {:>7.2} s  ({} GMRES iterations)", t.solve_s, t.iterations);
    println!("    resample  {:>7.2} s  (paper: ~0.5 s)", t.resample_s);
    println!("    TOTAL     {:>7.2} s  (paper: \"in less than ten seconds\")", t.total_s());
}
