//! The three fixed workloads and the seeded input generator.
//!
//! The program under test receives only what this module generates: one
//! reference segmentation per surgery and the intensity volume of each
//! scan. The ground-truth field stays on the benchmark's side, for the
//! accuracy gate.

use brainshift_core::{generate_elastic_case, ElasticCaseOptions};
use brainshift_imaging::phantom::{
    forward_warp_labels, render_intensity, BrainShiftConfig, PhantomConfig,
};
use brainshift_imaging::{labels, Dims, DisplacementField, Spacing, Volume};
use std::time::Duration;

/// Shift stages per surgery; stage `s` carries `s / STAGES` of the full shift.
pub const STAGES: usize = 8;

/// The paper's system size (Figs 7–9), which `paper77k-warm` must match
/// within 1%.
pub const PAPER_EQUATIONS: usize = 77_511;

/// How scans arrive.
#[derive(Clone, Copy)]
pub enum Arrival {
    /// Each session's client submits its next scan when the previous
    /// field has come back.
    Closed,
    /// One generator submits on a fixed schedule whatever the fleet is
    /// doing: every session once per `period`, sessions staggered by
    /// `stagger`. No scan arrives in the last `pause` of every
    /// `pause_every`: the generator takes the yardstick there.
    Open {
        period: Duration,
        stagger: Duration,
        pause_every: Duration,
        pause: Duration,
    },
}

/// One workload. Everything the run depends on is here, so that no code
/// elsewhere branches on a workload's name.
pub struct Spec {
    pub name: &'static str,
    /// One line for the reader of the output; the full rationale is in
    /// `README.md` and `BENCHMARK.json`.
    pub why: &'static str,
    pub dims: (usize, usize, usize),
    pub sessions: usize,
    pub shards: usize,
    /// `ServiceConfig::memory_budget_bytes` of every shard. Below the size
    /// of one context, the fleet evicts after every scan and each scan
    /// rebuilds cold.
    pub memory_budget_bytes: usize,
    pub arrival: Arrival,
    pub deadline: Duration,
    /// Percentile reported as `service.scan_ms_tail`: the highest of 50/75/90
    /// that keeps about ten samples beyond it at the scan count a run of
    /// the default length reaches (see README.md, "Sample counts").
    pub tail_pct: f64,
    /// Ceiling on `field_err_mean_mm`, about 25% above the largest value
    /// seen over seeds 1–10 when the benchmark was written (0.911 mm at
    /// paper scale, 1.106 mm on 64x64x48, 1.569 mm on 32x32x24).
    pub err_ceiling_mm: f64,
    /// Snapshot and restore shard 0 after the timed phase (traced run).
    pub persist_probe: bool,
    /// Assert the mesh is within 1% of [`PAPER_EQUATIONS`].
    pub paper_scale: bool,
}

const DEFAULT_BUDGET: usize = 256 << 20;

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "paper77k-warm",
        why: "the paper's 77k-equation mesh, one scan at a time on a warm context: compute layers do all the work",
        dims: (116, 116, 72),
        sessions: 1,
        shards: 1,
        memory_budget_bytes: DEFAULT_BUDGET,
        arrival: Arrival::Closed,
        deadline: Duration::from_secs(10),
        tail_pct: 75.0,
        err_ceiling_mm: 1.15,
        persist_probe: false,
        paper_scale: true,
    },
    Spec {
        name: "small-fleet-open",
        why: "8 small surgeries at 20 scans/s open loop over 2 shards: queueing, affinity and hand-off matter",
        dims: (32, 32, 24),
        sessions: 8,
        shards: 2,
        memory_budget_bytes: DEFAULT_BUDGET,
        arrival: Arrival::Open {
            period: Duration::from_millis(400),
            stagger: Duration::from_millis(50),
            pause_every: Duration::from_secs(1),
            pause: Duration::from_millis(150),
        },
        // Not the issue's 400 ms: a whole-VM stall of half a second, which
        // this host has about once in 50 runs, would put the scans it
        // delayed past their deadline, and the fleet answers those with a
        // `Degraded` carry-forward, which counts as failed. 2 s still
        // fails every scan of a fleet that falls behind the offered rate.
        deadline: Duration::from_secs(2),
        tail_pct: 90.0,
        err_ceiling_mm: 2.0,
        persist_probe: true,
        paper_scale: false,
    },
    Spec {
        name: "mid-cold-churn",
        why: "cache budget below one context, so every scan assembles, reduces, factors and solves from zero",
        dims: (64, 64, 48),
        sessions: 1,
        shards: 1,
        memory_budget_bytes: 1 << 20,
        arrival: Arrival::Closed,
        deadline: Duration::from_secs(10),
        tail_pct: 75.0,
        err_ceiling_mm: 1.4,
        persist_probe: false,
        paper_scale: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The inputs of one surgery.
pub struct Surgery {
    pub reference_labels: Volume<u8>,
    /// Intensity volume of each stage, `scans[s - 1]` for stage `s`.
    pub scans: Vec<Volume<f32>>,
    /// Ground-truth forward field of the full shift (stage [`STAGES`]).
    gt_full: DisplacementField,
}

impl Surgery {
    /// Stage (1-based) of the `i`-th scan of a session, warm-up included
    /// as scan 0. Ping-pong 1..8,7..2,1.. so that consecutive scans are
    /// adjacent stages, as in a real surgery.
    pub fn stage_of(i: usize) -> usize {
        let period = 2 * (STAGES - 1);
        let k = i % period;
        1 + if k < STAGES { k } else { period - k }
    }

    pub fn scan(&self, i: usize) -> &Volume<f32> {
        &self.scans[Self::stage_of(i) - 1]
    }

    /// Ground truth of the `i`-th scan. Linear elasticity: scaling the
    /// surface displacements scales the interior solution exactly.
    pub fn truth(&self, i: usize) -> DisplacementField {
        scaled(&self.gt_full, Self::stage_of(i))
    }
}

fn scaled(full: &DisplacementField, stage: usize) -> DisplacementField {
    let f = stage as f64 / STAGES as f64;
    let mut field = full.clone();
    for u in field.data_mut() {
        *u = *u * f;
    }
    field
}

/// Generate surgery `session` of a workload. Same steps as
/// `core::sequence::generate_scan_sequence`, which is not called because
/// its step-1 ground-truth mesh costs 41–44 s at paper scale against
/// 3.6 s at step 2.
pub fn generate(spec: &Spec, seed: u64, session: usize) -> Surgery {
    let (nx, ny, nz) = spec.dims;
    let cfg = PhantomConfig {
        dims: Dims::new(nx, ny, nz),
        // A physical head of 240 x 240 x 150 mm at every resolution.
        spacing: Spacing::new(240.0 / nx as f64, 240.0 / nx as f64, 150.0 / nz as f64),
        seed: seed.wrapping_add(session as u64),
        ..Default::default()
    };
    let shift = BrainShiftConfig {
        peak_shift_mm: 8.0,
        resect_tumor: false,
        ..Default::default()
    };
    let case = generate_elastic_case(
        &cfg,
        &shift,
        &ElasticCaseOptions {
            gt_mesh_step: 2,
            ..Default::default()
        },
    );
    let scans = (1..=STAGES)
        .map(|stage| {
            let field = scaled(&case.gt_forward, stage);
            let lab = forward_warp_labels(&case.preop.labels, &field, labels::CSF);
            let scan_cfg = PhantomConfig {
                seed: cfg.seed.wrapping_add(stage as u64),
                ..cfg.clone()
            };
            render_intensity(&lab, &scan_cfg)
        })
        .collect();
    Surgery {
        reference_labels: case.preop.labels,
        scans,
        gt_full: case.gt_forward,
    }
}
