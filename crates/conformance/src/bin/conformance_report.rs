//! Run the full conformance oracle hierarchy and write
//! `bench_out/conformance.json` next to the perf trajectories.
//!
//! ```bash
//! cargo run --release --bin conformance_report            # check + report
//! cargo run --release --bin conformance_report -- --update-goldens
//! ```
//!
//! `--update-goldens` prints the regenerated goldens file to stdout *and*
//! rewrites `crates/conformance/goldens/golden_fields.tsv` (when run from
//! the workspace root), so intentional numerical changes are a one-command
//! acknowledgement followed by a rebuild.

use brainshift_conformance::{
    default_golden_cases, evaluate_goldens, evaluate_scenario_goldens, golden_field,
    pure_shear_gradient, quantized_field_hash, run_differential, run_keypoint_recovery, run_mms,
    run_patch_test, scenario_golden_cases, scenario_golden_field, uniaxial_stretch_gradient,
    write_json_report, ConformanceReport, CHECKED_IN_GOLDENS, GOLDEN_QUANTUM_MM,
};
use brainshift_conformance::analytic::unit_cube_mesh;
use brainshift_conformance::mms::manufactured_field;
use brainshift_fem::{DirichletBcs, MaterialTable};
use brainshift_imaging::Mat3;
use brainshift_mesh::boundary_nodes;
use std::path::Path;

fn update_goldens() {
    let mut out = String::from(
        "# Golden displacement-field hashes (FNV-1a over components quantized to\n\
         # GOLDEN_QUANTUM_MM). Regenerate with:\n\
         #   cargo run --release --bin conformance_report -- --update-goldens\n",
    );
    for case in default_golden_cases() {
        let (mesh, field) = golden_field(&case);
        let hash = quantized_field_hash(&field, GOLDEN_QUANTUM_MM);
        eprintln!("{}: {} nodes, hash {hash:016x}", case.name, mesh.num_nodes());
        out.push_str(&format!("{}\t{hash:016x}\n", case.name));
    }
    for (name, kind, seed) in scenario_golden_cases() {
        let field = scenario_golden_field(kind, seed);
        let hash = quantized_field_hash(&field, GOLDEN_QUANTUM_MM);
        eprintln!("{name}: {} nodes, hash {hash:016x}", field.len());
        out.push_str(&format!("{name}\t{hash:016x}\n"));
    }
    print!("{out}");
    let path = Path::new("crates/conformance/goldens/golden_fields.tsv");
    if path.parent().is_some_and(Path::exists) {
        std::fs::write(path, &out).expect("write goldens file");
        eprintln!("wrote {}", path.display());
        eprintln!("rebuild to bake the new goldens into the crate (include_str!)");
    } else {
        eprintln!("not at the workspace root; goldens printed to stdout only");
    }
}

fn main() {
    if std::env::args().any(|a| a == "--update-goldens") {
        update_goldens();
        return;
    }

    let materials = MaterialTable::homogeneous();

    eprintln!("level 1: patch tests");
    let mesh = unit_cube_mesh(4);
    let general = Mat3::from_rows(
        [0.011, 0.004, -0.002],
        [-0.003, -0.006, 0.005],
        [0.002, -0.001, 0.009],
    );
    let patch = vec![
        run_patch_test("uniaxial", &mesh, &materials, uniaxial_stretch_gradient(0.02, 0.45), 1e-12),
        run_patch_test("pure-shear", &mesh, &materials, pure_shear_gradient(0.03), 1e-12),
        run_patch_test("general-linear", &mesh, &materials, general, 1e-12),
    ];
    for p in &patch {
        eprintln!("  {:<16} max_rel_err {:.3e} ({} eqs)", p.name, p.max_rel_err, p.equations);
    }

    eprintln!("level 2: manufactured-solution convergence");
    let mms = run_mms(&[4, 8, 16], 1e-12);
    for l in &mms.levels {
        eprintln!("  n={:<3} h={:.4} l2_rel_err {:.4e}", l.n, l.h, l.l2_rel_err);
    }
    eprintln!("  observed orders {:?}", mms.orders);

    eprintln!("level 3: differential solver harness");
    let dmesh = unit_cube_mesh(4);
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(&dmesh).iter() {
        bcs.set(n, manufactured_field(dmesh.nodes[n]));
    }
    let differential = run_differential(&dmesh, &materials, &bcs);
    for p in &differential.paths {
        eprintln!(
            "  {:<16} converged={} iters={:<5} rel_res {:.3e}",
            p.name, p.converged, p.iterations, p.relative_residual
        );
    }
    eprintln!("  max pairwise deviation {:.3e}", differential.max_pairwise_rel);

    eprintln!("level 4: golden fields");
    let mut goldens = evaluate_goldens(&default_golden_cases(), CHECKED_IN_GOLDENS);
    goldens.extend(evaluate_scenario_goldens(CHECKED_IN_GOLDENS));
    for g in &goldens {
        eprintln!(
            "  {:<28} {:016x} {} ({} nodes, peak {:.2} mm)",
            g.name,
            g.hash,
            if g.matches { "ok" } else { "MISMATCH" },
            g.nodes,
            g.max_shift_mm
        );
    }

    eprintln!("level 5: sparse-keypoint recovery");
    let keypoints = run_keypoint_recovery(2, &[0.1, 0.25, 0.5]);
    for p in &keypoints.curve {
        eprintln!("  k={:<4} rms {:.4} mm  max {:.4} mm  rel {:.3e}", p.k, p.rms_mm, p.max_mm, p.rel_max);
    }
    eprintln!(
        "  monotone: {}, full-coverage rel {:.3e}",
        keypoints.monotone, keypoints.full_coverage_rel
    );

    let report = ConformanceReport { patch, mms, differential, goldens, keypoints };
    let path = Path::new("bench_out/conformance.json");
    write_json_report(&report, path).expect("write conformance.json");
    eprintln!("wrote {} (all_pass: {})", path.display(), report.all_pass());
    if !report.all_pass() {
        std::process::exit(1);
    }
}
