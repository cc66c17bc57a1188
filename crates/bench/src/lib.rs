//! # brainshift-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). The binaries in
//! `src/bin/` print the same rows/series the paper reports; the criterion
//! benches in `benches/` cover kernel-level performance.

#![warn(missing_docs)]

use brainshift_core::case::cap_surface_displacement;
use brainshift_fem::{assemble_stiffness, DirichletBcs, DirichletStructure, MaterialTable, SimTimings};
use brainshift_imaging::phantom::{BrainShiftConfig, HeadModel, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};

/// A benchmark problem: mesh + model + the surface displacements the
/// paper's timing runs solved for.
pub struct BenchProblem {
    /// The labeled phantom volume the mesh was generated from.
    pub labels: Volume<u8>,
    /// The tetrahedral FEM mesh.
    pub mesh: TetMesh,
    /// The anatomical model (for boundary-condition geometry).
    pub model: HeadModel,
    /// Craniotomy-cap surface displacements (Dirichlet data).
    pub bcs: DirichletBcs,
}

impl BenchProblem {
    /// The mesh's homogeneous stiffness matrix reduced along the nodes of
    /// `bcs`: the one system the timing figures price and the solver
    /// studies solve.
    pub fn structure(&self) -> DirichletStructure {
        let k = assemble_stiffness(&self.mesh, &MaterialTable::homogeneous());
        DirichletStructure::new(&k, &self.bcs.nodes_sorted()).expect("boundary nodes are mesh nodes")
    }

    /// The prescribed values `u_c` and the reduced right-hand side of
    /// `structure` under an explicit zero load (see
    /// [`DirichletStructure::rhs_into`]).
    pub fn zero_load_rhs(&self, structure: &DirichletStructure) -> (Vec<f64>, Vec<f64>) {
        let mut u_c = vec![0.0; structure.num_constrained()];
        let mut rhs = vec![0.0; structure.num_free()];
        let zeros = vec![0.0; self.mesh.num_equations()];
        structure
            .rhs_into(&self.bcs, Some(&zeros), &mut u_c, &mut rhs)
            .expect("the structure was reduced along these BCs");
        (u_c, rhs)
    }
}

/// Generate a labels-only phantom (no intensity rendering — the timing
/// figures only need the mesh).
pub fn phantom_labels(dims: Dims, spacing: Spacing) -> (Volume<u8>, HeadModel) {
    let cfg = PhantomConfig { dims, spacing, ..Default::default() };
    let model = HeadModel::fit(dims, spacing, &cfg);
    let vol = Volume::from_fn(dims, spacing, |x, y, z| {
        model.label_at(Vec3::new(
            x as f64 * spacing.dx,
            y as f64 * spacing.dy,
            z as f64 * spacing.dz,
        ))
    });
    (vol, model)
}

/// Build a benchmark problem whose FEM system has approximately
/// `target_equations` equations (3 per node), by scaling the phantom grid.
/// The paper's two systems are 77 511 and 253 308 equations.
pub fn problem_with_equations(target_equations: usize) -> BenchProblem {
    let target_nodes = target_equations / 3;
    // Node count scales with meshed volume; search the grid scale.
    // Base: 128×128×80 at step 2 gives ~26k nodes (~78k equations).
    let mut scale = (target_nodes as f64 / 26000.0).cbrt();
    let build = |scale: f64| -> (Volume<u8>, HeadModel, TetMesh) {
        let nx = (((128.0 * scale) / 2.0).round() as usize * 2).max(16);
        let nz = (((80.0 * scale) / 2.0).round() as usize * 2).max(12);
        // Keep the physical head size constant (~240×240×150 mm)
        // regardless of grid size.
        let spacing = Spacing::new(240.0 / nx as f64, 240.0 / nx as f64, 150.0 / nz as f64);
        let (vol, model) = phantom_labels(Dims::new(nx, nx, nz), spacing);
        let mesh = mesh_labeled_volume(
            &vol,
            &MesherConfig { step: 2, include: labels::is_brain_tissue },
        );
        (vol, model, mesh)
    };
    for _attempt in 0..6 {
        let (vol, model, mesh) = build(scale);
        let err = mesh.num_nodes() as f64 / target_nodes as f64;
        if (0.97..=1.03).contains(&err) {
            let bcs = cap_bcs(&mesh, &model, &BrainShiftConfig::default());
            return BenchProblem { labels: vol, mesh, model, bcs };
        }
        scale /= err.cbrt();
    }
    let (vol, model, mesh) = build(scale);
    let bcs = cap_bcs(&mesh, &model, &BrainShiftConfig::default());
    BenchProblem { labels: vol, mesh, model, bcs }
}

/// Surface displacements of the craniotomy-cap profile, applied to every
/// boundary node (the same Dirichlet data the pipeline's active surface
/// produces, here prescribed analytically so the timing benches don't
/// depend on image processing).
pub fn cap_bcs(mesh: &TetMesh, model: &HeadModel, shift: &BrainShiftConfig) -> DirichletBcs {
    let mut bcs = DirichletBcs::new();
    for &n in boundary_nodes(mesh).iter() {
        bcs.set(n, cap_surface_displacement(mesh.nodes[n], model, shift));
    }
    bcs
}

/// Print the standard header for a timing-figure table.
pub fn print_timing_header(title: &str, equations: usize, machine: &str) {
    println!("## {title}");
    println!("# system: {equations} equations (paper: see DESIGN.md §4)");
    println!("# machine model: {machine}");
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>7} {:>9} {:>9}",
        "cpus", "init(s)", "assemble", "solve(s)", "total(s)", "iters", "asm-imb", "slv-imb"
    );
}

/// Print one row of a timing-figure table.
pub fn print_timing_row(t: &SimTimings) {
    println!(
        "{:>5} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>7} {:>9.3} {:>9.3}",
        t.cpus,
        t.init_s,
        t.assemble_s,
        t.solve_s,
        t.total_s(),
        t.iterations,
        t.assembly_imbalance,
        t.solve_imbalance
    );
}

/// Render an ASCII log-scale plot of one or more (label, series) where
/// each series is (cpus, seconds) — the textual analogue of the paper's
/// log-axis timing figures.
pub fn plot_log_series(series: &[(&str, Vec<(usize, f64)>)], width: usize) {
    let all: Vec<f64> = series.iter().flat_map(|(_, s)| s.iter().map(|&(_, t)| t)).collect();
    let lo = all.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-6);
    let hi = all.iter().cloned().fold(0.0f64, f64::max).max(lo * 1.0001);
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    println!("\nlog-scale time (left = {lo:.2} s, right = {hi:.2} s):");
    for (label, s) in series {
        println!("  {label}:");
        for &(cpus, t) in s {
            let frac = ((t.max(lo).ln() - log_lo) / (log_hi - log_lo)).clamp(0.0, 1.0);
            let pos = (frac * (width - 1) as f64) as usize;
            let mut line: Vec<char> = vec![' '; width];
            line[pos] = '*';
            println!("  {:>4} |{}|", cpus, line.iter().collect::<String>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phantom_labels_match_model() {
        let (vol, model) = phantom_labels(Dims::new(32, 32, 24), Spacing::iso(4.0));
        let c = model.brain.center;
        let vx = (c.x / 4.0) as usize;
        let vy = (c.y / 4.0) as usize;
        let vz = (c.z / 4.0) as usize;
        assert_eq!(*vol.get(vx, vy, vz), model.label_at(c));
        assert!(vol.count_label(labels::BRAIN) > 0);
    }

    #[test]
    fn target_equation_search_converges() {
        // A miniature version of the paper-size search (fast target).
        let p = problem_with_equations(9_000);
        let eq = p.mesh.num_equations();
        assert!(
            (eq as f64 - 9_000.0).abs() < 0.15 * 9_000.0,
            "got {eq} equations"
        );
        assert!(p.mesh.validate().is_ok());
        assert!(!p.bcs.is_empty());
    }

    #[test]
    fn cap_bcs_cover_all_boundary_nodes() {
        let (vol, model) = phantom_labels(Dims::new(24, 24, 20), Spacing::iso(5.0));
        let mesh = mesh_labeled_volume(&vol, &MesherConfig { step: 2, include: labels::is_brain_tissue });
        let bcs = cap_bcs(&mesh, &model, &BrainShiftConfig::default());
        assert_eq!(bcs.len(), boundary_nodes(&mesh).len());
        // The node nearest the craniotomy must get (close to) the peak.
        let max_bc = bcs.iter().map(|(_, u)| u.norm()).fold(0.0, f64::max);
        assert!(max_bc > 0.5 * BrainShiftConfig::default().peak_shift_mm);
    }
}
