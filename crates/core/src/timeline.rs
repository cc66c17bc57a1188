//! Stage timing for the intraoperative timeline (the paper's Figure 6).
//!
//! [`StageTimings`] is the one record of where a registration's time
//! went: input alignment, per-surgery preparation, tissue classification,
//! surface displacement, the biomechanical simulation's phases and the
//! visualization resample.

use brainshift_fem::ContextTimings;

/// Per-stage timing breakdown of one intraoperative registration, in the
/// paper's vocabulary (its Table-style breakdown of the < 10 s budget):
/// input alignment → classifier → per-surgery preparation → FEM assembly
/// → Dirichlet reduction → preconditioner build → Krylov solve →
/// visualization resample.
///
/// Preparation/assembly/reduction/factorization are once-per-surgery
/// costs; scans served from a
/// [`PreparedSurgery`](crate::surgery::PreparedSurgery) on a warm
/// [`SolverContext`](brainshift_fem::SolverContext) report `0.0` for
/// them, which is the assemble-once contract made visible. Whole-surgery
/// and one-shot tables add them with [`StageTimings::add_per_surgery`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Input alignment: MI rigid registration of the reference into the
    /// scan's frame plus histogram matching of the scan. Only
    /// [`run_pipeline`](crate::pipeline::run_pipeline) aligns; a
    /// [`PreparedSurgery`](crate::surgery::PreparedSurgery) expects its
    /// scans aligned and reports 0.
    pub alignment_s: f64,
    /// Intraoperative tissue classification (k-NN relabel). This is the
    /// stage *total*; the four `*_s` fields below it are its informational
    /// sub-stages and are excluded from [`StageTimings::total_s`] so the
    /// time is not double-counted.
    pub classification_s: f64,
    /// Sub-stage of classification: checking the scan's grid and copying
    /// the reference labels the unclassified voxels keep.
    pub feature_s: f64,
    /// Sub-stage of classification: prototype extraction + kd-tree build.
    pub knn_build_s: f64,
    /// Sub-stage of classification: the k-NN pass over the band (and
    /// the whole volume on a fallback scan): each voxel's feature row
    /// read from the channels, its query, the label scatter.
    pub knn_query_s: f64,
    /// Sub-stage of classification: cleanup of the brain mask, which is
    /// `segment::largest_component` (6-connected) and nothing else.
    pub morphology_s: f64,
    /// Once-per-surgery preparation (`PreparedSurgery::new`) other than
    /// the stiffness assembly: mesh generation, boundary surface snapped
    /// onto the reference brain, prototype model, distance channels,
    /// resample plan (0 per scan).
    pub mesh_s: f64,
    /// Surface extraction + active-surface displacement.
    pub surface_s: f64,
    /// Global stiffness assembly: the one `PreparedSurgery::new` does,
    /// plus any a context did itself (0 per scan). `mesh_s + assembly_s`
    /// covers the whole of `new`.
    pub assembly_s: f64,
    /// Dirichlet reduction to `K_ff`/`K_fc` (0 when served warm).
    pub reduction_s: f64,
    /// Preconditioner factorization (0 when served warm).
    pub factorization_s: f64,
    /// Krylov solve (one CG call by default).
    pub solve_s: f64,
    /// Resampling the mesh solution onto the voxel grid.
    pub resample_s: f64,
}

impl StageTimings {
    /// Sum of all stages. The classification sub-stages (`feature_s`,
    /// `knn_build_s`, `knn_query_s`, `morphology_s`) are already counted
    /// inside `classification_s` and do not enter the sum.
    pub fn total_s(&self) -> f64 {
        self.alignment_s
            + self.classification_s
            + self.mesh_s
            + self.surface_s
            + self.assembly_s
            + self.reduction_s
            + self.factorization_s
            + self.solve_s
            + self.resample_s
    }

    /// Accumulate another scan's breakdown into this one (for
    /// whole-sequence totals).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.alignment_s += other.alignment_s;
        self.classification_s += other.classification_s;
        self.feature_s += other.feature_s;
        self.knn_build_s += other.knn_build_s;
        self.knn_query_s += other.knn_query_s;
        self.morphology_s += other.morphology_s;
        self.mesh_s += other.mesh_s;
        self.surface_s += other.surface_s;
        self.assembly_s += other.assembly_s;
        self.reduction_s += other.reduction_s;
        self.factorization_s += other.factorization_s;
        self.solve_s += other.solve_s;
        self.resample_s += other.resample_s;
    }

    /// Add the once-per-surgery costs to a per-scan (or accumulated)
    /// breakdown: `prepare_s`, the wall time of `PreparedSurgery::new`,
    /// split into its `assembly_s` (what
    /// [`PreparedSurgery::assembly_s`](crate::surgery::PreparedSurgery::assembly_s)
    /// reports) and the rest, plus the setup phases measured on the solver
    /// context it built.
    pub fn add_per_surgery(&mut self, prepare_s: f64, assembly_s: f64, context: &ContextTimings) {
        self.mesh_s += prepare_s - assembly_s;
        self.assembly_s += assembly_s + context.assembly_s;
        self.reduction_s += context.reduction_s;
        self.factorization_s += context.factorization_s;
    }

    /// Render the paper-style stage table.
    pub fn render(&self) -> String {
        let mut out = String::from("Per-stage breakdown of the intraoperative solve\n");
        out.push_str(&format!("{:<34} {:>10}\n", "Stage", "Time (s)"));
        let rows: [(&str, f64); 13] = [
            ("input alignment", self.alignment_s),
            ("tissue classification", self.classification_s),
            ("  feature stack", self.feature_s),
            ("  kd-tree build", self.knn_build_s),
            ("  k-NN query", self.knn_query_s),
            ("  morphology", self.morphology_s),
            ("per-surgery preparation", self.mesh_s),
            ("surface displacement", self.surface_s),
            ("FEM assembly", self.assembly_s),
            ("Dirichlet reduction", self.reduction_s),
            ("preconditioner build", self.factorization_s),
            ("Krylov solve", self.solve_s),
            ("visualization resample", self.resample_s),
        ];
        for (name, seconds) in rows {
            // Indented rows are classification sub-stages; a path that
            // didn't measure one (exactly 0.0) omits the row rather than
            // print a misleading zero.
            if name.starts_with(' ') && seconds == 0.0 {
                continue;
            }
            out.push_str(&format!("{name:<34} {seconds:>10.3}\n"));
        }
        out.push_str(&format!("{:<34} {:>10.3}\n", "TOTAL", self.total_s()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timings_total_accumulate_render() {
        let mut a = StageTimings { solve_s: 3.0, mesh_s: 1.0, ..Default::default() };
        let b = StageTimings { solve_s: 0.5, resample_s: 0.25, alignment_s: 0.5, ..Default::default() };
        a.accumulate(&b);
        assert!((a.solve_s - 3.5).abs() < 1e-12);
        assert!((a.total_s() - 5.25).abs() < 1e-12);
        let table = a.render();
        for row in ["input alignment", "tissue classification", "per-surgery preparation", "FEM assembly", "Dirichlet reduction", "Krylov solve", "visualization resample", "TOTAL"] {
            assert!(table.contains(row), "missing row {row}:\n{table}");
        }
    }

    #[test]
    fn per_surgery_assembly_is_split_out_of_preparation_not_added_to_it() {
        let mut t = StageTimings { solve_s: 0.5, ..Default::default() };
        let shared = ContextTimings { reduction_s: 0.25, factorization_s: 0.125, ..Default::default() };
        t.add_per_surgery(2.0, 0.75, &shared);
        assert_eq!((t.mesh_s, t.assembly_s), (1.25, 0.75));
        assert_eq!(t.mesh_s + t.assembly_s, 2.0, "the wall time of `new`, counted once");
        assert_eq!(t.total_s(), 2.0 + 0.25 + 0.125 + 0.5);
    }

    #[test]
    fn classification_substages_render_but_do_not_double_count() {
        let mut a = StageTimings {
            classification_s: 1.0,
            feature_s: 0.2,
            knn_build_s: 0.3,
            knn_query_s: 0.4,
            morphology_s: 0.1,
            solve_s: 2.0,
            ..Default::default()
        };
        // Sub-stages are part of classification_s, not extra time.
        assert!((a.total_s() - 3.0).abs() < 1e-12);
        let b = a;
        a.accumulate(&b);
        assert!((a.knn_query_s - 0.8).abs() < 1e-12);
        assert!((a.total_s() - 6.0).abs() < 1e-12);
        let table = a.render();
        for row in ["feature stack", "kd-tree build", "k-NN query", "morphology"] {
            assert!(table.contains(row), "missing sub-row {row}:\n{table}");
        }
    }
}
