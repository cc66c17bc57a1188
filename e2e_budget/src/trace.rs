//! The traced half: the same inputs through the layers' public entry
//! points on the bench thread, one span per call, and the isolated SpMV
//! roofline probe. Spans are recorded here, around the calls; nothing
//! inside the crates under test is instrumented.

use crate::fleet_run::{Session, CHECKED_SCANS};
use crate::stats::{field_hash, llc_size, median};
use crate::workloads::Spec;
use brainshift_core::{ScanRegistration, ScanStatus};
use brainshift_fem::SolverContext;
use brainshift_obs::JsonValue;
use brainshift_sparse::CsrMatrix;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one scan share `session * 1000 + scan`.
    pub scan: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, scan: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent: None,
            scan,
        });
        out
    }

    /// Milliseconds of the most recent span.
    pub fn last_ms(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end_us - s.start_us) as f64 / 1e3)
    }

    /// Median duration over the spans of a name, in ms.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
                .collect(),
        )
    }

    /// The stage children of a `register_scan` span, laid end to end from
    /// the parent's start in the order the stages run, from the timings
    /// the call returned.
    fn push_stages(&mut self, parent: usize, scan: usize, reg: &ScanRegistration) {
        let t = &reg.timings;
        let mut at = self.spans[parent].start_us;
        for (name, seconds) in [
            ("segment::feature", t.feature_s),
            ("segment::knn_build", t.knn_build_s),
            ("segment::knn_query", t.knn_query_s),
            ("segment::morphology", t.morphology_s),
            ("surface::evolve", t.surface_s),
            ("fem::solve", t.solve_s),
            ("fem::resample", t.resample_s),
        ] {
            let end = at + (seconds * 1e6) as u64;
            self.spans.push(Span {
                name: name.to_string(),
                start_us: at,
                end_us: end,
                parent: Some(parent),
                scan: Some(scan),
            });
            at = end;
        }
    }

    pub fn to_json(&self) -> JsonValue {
        self.spans
            .iter()
            .map(|s| {
                let opt = |v: Option<usize>| v.map_or(JsonValue::Null, JsonValue::from);
                JsonValue::obj()
                    .with("name", s.name.as_str().into())
                    .with("start_us", s.start_us.into())
                    .with("end_us", s.end_us.into())
                    .with("parent", opt(s.parent))
                    .with("scan", opt(s.scan))
            })
            .collect()
    }
}

/// Per-scan records of the direct pass, pooled over sessions.
#[derive(Default)]
pub struct Layers {
    pub register_scan_ms: Vec<f64>,
    pub closure: Vec<f64>,
    pub feature_ms: Vec<f64>,
    pub knn_build_ms: Vec<f64>,
    pub knn_query_ms: Vec<f64>,
    pub morphology_ms: Vec<f64>,
    pub classify_ms: Vec<f64>,
    pub surface_ms: Vec<f64>,
    pub solve_ms: Vec<f64>,
    pub resample_ms: Vec<f64>,
    pub knn_leaf_visits: Vec<f64>,
    pub reclassified_frac: Vec<f64>,
    pub surface_residual_mm: Vec<f64>,
    pub krylov_iters: Vec<f64>,
    pub solve_attempts: Vec<f64>,
    /// Context builds: wall, and the three phases the context reports.
    pub context_build_ms: Vec<f64>,
    pub assembly_ms: Vec<f64>,
    pub reduction_ms: Vec<f64>,
    pub factorization_ms: Vec<f64>,
    pub context_bytes: usize,
    pub solves: usize,
    pub warm_started_solves: usize,
    /// `(session, scan)` -> what a fleet job executes for that scan: the
    /// `register_scan` span, and on the cold workload the context build
    /// before it.
    pub exec_ms: HashMap<(usize, usize), f64>,
    /// `(session, scan, field hash)`, comparable with the fleet run's.
    pub hashes: Vec<(usize, usize, u64)>,
    pub incorrect: Vec<String>,
}

impl Layers {
    pub fn ms_per_iter(&self) -> f64 {
        let iters: f64 = self.krylov_iters.iter().sum();
        if iters > 0.0 {
            self.solve_ms.iter().sum::<f64>() / iters
        } else {
            0.0
        }
    }

    pub fn warm_start_frac(&self) -> f64 {
        self.warm_started_solves as f64 / self.solves.max(1) as f64
    }
}

fn build_context(
    tracer: &mut Tracer,
    sess: &Session,
    layers: &mut Layers,
) -> Result<SolverContext, String> {
    let ctx = tracer
        .span("core::PreparedSurgery::build_solver_context", None, || {
            sess.prepared.build_solver_context()
        })
        .map_err(|e| format!("build_solver_context failed: {e}"))?;
    let t = ctx.timings();
    layers.context_build_ms.push(tracer.last_ms());
    layers.assembly_ms.push(t.assembly_s * 1e3);
    layers.reduction_ms.push(t.reduction_s * 1e3);
    layers.factorization_ms.push(t.factorization_s * 1e3);
    layers.context_bytes = ctx.memory_bytes();
    Ok(ctx)
}

fn retire(ctx: &SolverContext, layers: &mut Layers) {
    layers.solves += ctx.stats().solves;
    layers.warm_started_solves += ctx.stats().warm_started_solves;
}

/// Serve the warm-up and the first [`CHECKED_SCANS`] scans of every
/// session straight through `PreparedSurgery`, in the order and with the
/// warm or cold contexts the fleet run had. Returns the layers' records
/// and the last context, for the SpMV probe.
pub fn direct_pass(
    tracer: &mut Tracer,
    spec: &Spec,
    sessions: &[Session],
) -> Result<(Layers, SolverContext), String> {
    let mut layers = Layers::default();
    let mut last_ctx = None;
    for (k, sess) in sessions.iter().enumerate() {
        let mut ctx = build_context(tracer, sess, &mut layers)?;
        // What the fleet's cache does with a context over its budget:
        // evict it after every scan, so each scan rebuilds cold.
        let cold = ctx.memory_bytes() > spec.memory_budget_bytes;
        for scan in 0..=CHECKED_SCANS {
            let mut build_ms = 0.0;
            if cold && scan > 0 {
                retire(&ctx, &mut layers);
                ctx = build_context(tracer, sess, &mut layers)?;
                build_ms = tracer.last_ms();
            }
            let id = k * 1000 + scan;
            let reg = tracer
                .span("core::PreparedSurgery::register_scan", Some(id), || {
                    sess.prepared
                        .register_scan(&mut ctx, sess.surgery.scan(scan), None, None, None)
                })
                .map_err(|e| format!("register_scan failed: {e}"))?;
            let parent = tracer.spans.len() - 1;
            let span_ms = tracer.last_ms();
            tracer.push_stages(parent, id, &reg);
            if reg.status == ScanStatus::Degraded {
                layers
                    .incorrect
                    .push(format!("direct pass: session {k} scan {scan} degraded"));
            }
            if scan == 0 {
                continue; // the warm-up is traced but not measured
            }
            layers.hashes.push((k, scan, field_hash(&reg.field)));
            let t = &reg.timings;
            layers.register_scan_ms.push(span_ms);
            layers.exec_ms.insert((k, scan), span_ms + build_ms);
            layers.closure.push(t.total_s() * 1e3 / span_ms);
            layers.feature_ms.push(t.feature_s * 1e3);
            layers.knn_build_ms.push(t.knn_build_s * 1e3);
            layers.knn_query_ms.push(t.knn_query_s * 1e3);
            layers.morphology_ms.push(t.morphology_s * 1e3);
            layers.classify_ms.push(t.classification_s * 1e3);
            layers.surface_ms.push(t.surface_s * 1e3);
            layers.solve_ms.push(t.solve_s * 1e3);
            layers.resample_ms.push(t.resample_s * 1e3);
            layers.knn_leaf_visits.push(reg.knn_leaf_visits as f64);
            layers
                .reclassified_frac
                .push(reg.reclassified_voxels as f64 / reg.total_voxels.max(1) as f64);
            layers.surface_residual_mm.push(reg.surface_residual);
            layers.krylov_iters.push(reg.fem_iterations as f64);
            layers.solve_attempts.push(reg.attempts as f64);
        }
        retire(&ctx, &mut layers);
        last_ctx = Some(ctx);
    }
    let closure = median(layers.closure.clone());
    if !(0.95..=1.05).contains(&closure) {
        layers.incorrect.push(format!(
            "core.closure_frac {closure:.4}: the stages register_scan reports do not sum to its span"
        ));
    }
    let ctx = last_ctx.ok_or("workload has no session")?;
    Ok((layers, ctx))
}

/// Serial CSR SpMV against a copy of the same size, both measured here.
pub struct Roofline {
    pub spmv_gbs: f64,
    pub stream_copy_gbs: f64,
    pub flop_per_byte: f64,
}

/// 50 `CsrMatrix::spmv` on the context's stiffness matrix, then as many
/// copies between two arrays of the matrix's own size. Bytes per SpMV are
/// *computed* from array sizes (matrix arrays once, x and y once), not
/// measured, so cache misses on x are not in them. The copy is a
/// size-matched bound that may sit in cache on a host with a large LLC;
/// it is not a DRAM stream figure, and both sizes are printed.
pub fn spmv_probe(tracer: &mut Tracer, a: &CsrMatrix) -> Roofline {
    const REPS: usize = 50;
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| 1.0 + (i % 7) as f64 * 0.125)
        .collect();
    let mut y = vec![0.0; a.nrows()];
    a.spmv(&x, &mut y); // touch everything once
    tracer.span("sparse::CsrMatrix::spmv x50", None, || {
        for _ in 0..REPS {
            a.spmv(black_box(&x), black_box(&mut y));
        }
    });
    let spmv_s = tracer.last_ms() / 1e3;
    let spmv_bytes = a.memory_bytes() + 8 * (a.ncols() + a.nrows());

    let words = a.memory_bytes() / 8;
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    dst.copy_from_slice(&src);
    tracer.span("copy x50", None, || {
        for _ in 0..REPS {
            black_box(&mut dst).copy_from_slice(black_box(&src));
        }
    });
    let copy_s = tracer.last_ms() / 1e3;

    let gbs = |bytes: usize, s: f64| (REPS * bytes) as f64 / s / 1e9;
    let r = Roofline {
        spmv_gbs: gbs(spmv_bytes, spmv_s),
        // A copy reads and writes every byte.
        stream_copy_gbs: gbs(2 * words * 8, copy_s),
        flop_per_byte: 2.0 * a.nnz() as f64 / spmv_bytes as f64,
    };
    println!(
        "roofline: spmv {:.2} GB/s over {} computed bytes ({} rows, {} nnz) | copy {:.2} GB/s between two arrays of {} bytes | LLC {}",
        r.spmv_gbs,
        spmv_bytes,
        a.nrows(),
        a.nnz(),
        r.stream_copy_gbs,
        words * 8,
        llc_size()
    );
    r
}
