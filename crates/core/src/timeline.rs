//! Stage timing for the intraoperative timeline (the paper's Figure 6).
//!
//! Each pipeline stage — rigid registration, per-surgery preparation,
//! tissue classification, surface displacement, biomechanical simulation,
//! visualization resample — is timed so the Fig 6 reproduction can print
//! when each action runs relative to "surgical progress".

use brainshift_fem::ContextTimings;
use brainshift_obs::{Clock, Stopwatch};

/// One completed stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage name as shown in the rendered timeline.
    pub name: &'static str,
    /// Seconds measured against the timeline's clock (wall-clock on the
    /// default clock).
    pub seconds: f64,
    /// Whether the stage happens before surgery (preoperative) or during.
    pub intraoperative: bool,
}

/// Ordered record of pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    stages: Vec<StageRecord>,
    clock: Clock,
}

impl Timeline {
    /// An empty timeline on the wall clock.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// An empty timeline measuring against `clock` — inject a logical
    /// clock to make stage durations deterministic under test.
    pub fn with_clock(clock: Clock) -> Self {
        Timeline { stages: Vec::new(), clock }
    }

    /// Time a closure as a named stage.
    pub fn stage<T>(&mut self, name: &'static str, intraoperative: bool, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start(&self.clock);
        let out = f();
        self.stages.push(StageRecord { name, seconds: sw.elapsed_s(), intraoperative });
        out
    }

    /// Manually record a stage duration (e.g. modeled rather than
    /// measured).
    pub fn record(&mut self, name: &'static str, seconds: f64, intraoperative: bool) {
        self.stages.push(StageRecord { name, seconds, intraoperative });
    }

    /// All recorded stages, in order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Total seconds spent in intraoperative stages.
    pub fn total_intraoperative(&self) -> f64 {
        self.stages.iter().filter(|s| s.intraoperative).map(|s| s.seconds).sum()
    }

    /// Total seconds spent in preoperative stages.
    pub fn total_preoperative(&self) -> f64 {
        self.stages.iter().filter(|s| !s.intraoperative).map(|s| s.seconds).sum()
    }

    /// Seconds of a named stage (sum over repeats), or 0.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.stages.iter().filter(|s| s.name == name).map(|s| s.seconds).sum()
    }

    /// Render the Figure 6-style timeline table.
    pub fn render(&self) -> String {
        let mut out = String::from("Timeline of image processing for image guided neurosurgery\n");
        out.push_str(&format!("{:<28} {:>10} {:>8}\n", "Action", "Time (s)", "Phase"));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<28} {:>10.3} {:>8}\n",
                s.name,
                s.seconds,
                if s.intraoperative { "intraop" } else { "preop" }
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>10.3}\n",
            "TOTAL intraoperative",
            self.total_intraoperative()
        ));
        out
    }
}

/// Per-stage timing breakdown of one intraoperative registration, in the
/// paper's vocabulary (its Table-style breakdown of the < 10 s budget):
/// classifier → per-surgery preparation → FEM assembly → Dirichlet
/// reduction → preconditioner build → Krylov solve → visualization
/// resample.
///
/// Preparation/assembly/reduction/factorization are once-per-surgery
/// costs; scans served from a
/// [`PreparedSurgery`](crate::surgery::PreparedSurgery) on a warm
/// [`SolverContext`](brainshift_fem::SolverContext) report `0.0` for
/// them, which is the assemble-once contract made visible. Whole-surgery
/// and one-shot tables add them with [`StageTimings::add_per_surgery`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Intraoperative tissue classification (k-NN relabel). This is the
    /// stage *total*; the four `*_s` fields below it are its informational
    /// sub-stages and are excluded from [`StageTimings::total_s`] so the
    /// time is not double-counted.
    pub classification_s: f64,
    /// Sub-stage of classification: stacking the channels (intensity +
    /// shared distance maps) and flattening them into the feature matrix.
    pub feature_s: f64,
    /// Sub-stage of classification: prototype extraction + kd-tree build.
    pub knn_build_s: f64,
    /// Sub-stage of classification: the whole-volume k-NN query pass,
    /// queries only.
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
        self.classification_s
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
        let rows: [(&str, f64); 12] = [
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
    fn stage_measures_and_returns() {
        let mut t = Timeline::new();
        let v = t.stage("work", true, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert_eq!(t.stages().len(), 1);
        assert!(t.seconds_of("work") >= 0.009);
    }

    #[test]
    fn totals_split_by_phase() {
        let mut t = Timeline::new();
        t.record("preop seg", 100.0, false);
        t.record("rigid reg", 2.0, true);
        t.record("biomech", 8.0, true);
        assert_eq!(t.total_preoperative(), 100.0);
        assert_eq!(t.total_intraoperative(), 10.0);
    }

    #[test]
    fn render_contains_stages() {
        let mut t = Timeline::new();
        t.record("rigid reg", 1.5, true);
        let s = t.render();
        assert!(s.contains("rigid reg"));
        assert!(s.contains("TOTAL intraoperative"));
    }

    #[test]
    fn repeated_stage_sums() {
        let mut t = Timeline::new();
        t.record("solve", 1.0, true);
        t.record("solve", 2.0, true);
        assert_eq!(t.seconds_of("solve"), 3.0);
    }

    #[test]
    fn logical_clock_makes_stage_durations_deterministic() {
        let clock = Clock::logical();
        let mut t = Timeline::with_clock(clock.clone());
        t.stage("solve", true, || clock.advance_to_us(2_000_000));
        t.stage("idle", true, || ());
        assert_eq!(t.seconds_of("solve"), 2.0);
        assert_eq!(t.seconds_of("idle"), 0.0);
    }

    #[test]
    fn stage_timings_total_accumulate_render() {
        let mut a = StageTimings { solve_s: 3.0, mesh_s: 1.0, ..Default::default() };
        let b = StageTimings { solve_s: 0.5, resample_s: 0.25, ..Default::default() };
        a.accumulate(&b);
        assert!((a.solve_s - 3.5).abs() < 1e-12);
        assert!((a.total_s() - 4.75).abs() < 1e-12);
        let table = a.render();
        for row in ["tissue classification", "per-surgery preparation", "FEM assembly", "Dirichlet reduction", "Krylov solve", "visualization resample", "TOTAL"] {
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
