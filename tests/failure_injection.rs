//! Failure-injection tests: the typed-error layer and the degradation
//! contract, exercised end to end.
//!
//! Six families, matching the failure policy in DESIGN.md:
//!
//! 1. A block-Jacobi IC(0) block with a zero row is a
//!    [`SparseError::SingularBlock`] naming that block, never a silently
//!    wrong answer (the historical identity fallback).
//! 2. A malformed mesh (inverted element, sliver) is rejected when the
//!    FEM solver context is built, before any cycles are spent on it.
//! 3. A served job whose solve does not converge degrades exactly that
//!    scan: the session's previous field is carried forward (zero for
//!    its first scan) and its next job converges.
//! 4. The service turns a job's remaining deadline into its solve's time
//!    budget: a job whose deadline has passed degrades on that budget
//!    without poisoning other sessions, and a deadline past the service
//!    clock saturates instead of wrapping.
//! 5. A memory budget below two contexts makes two sessions evict each
//!    other: every scan runs cold, and every scan still completes.
//! 6. The service's boundary and sessions: an unknown session or an
//!    infeasible deadline is a typed rejection at admission, a scan on a
//!    grid other than its surgery's fails typed while the worker lives
//!    on, a session closed mid-flight leaves no cache entry behind, and
//!    stats probes never deadlock against a degrading job.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence, ScanStatus};
use brainshift_fem::{FemError, FemSolveConfig, MaterialTable, SolverContext};
use brainshift_imaging::labels;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_imaging::Vec3;
use brainshift_mesh::error::MeshError;
use brainshift_mesh::TetMesh;
use brainshift_service::{EventKind, JobOutcome, Rejected, ScanJob, Service, ServiceConfig, ServiceError};
use brainshift_sparse::{BlockJacobiPrecond, BsrMatrix, SparseError, StopReason, TripletBuilder};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

// ───────────────────────── singular blocks ─────────────────────────

/// Random sparse diagonally-dominant SPD matrix of `n` rows, three per
/// node, from an arbitrary edge list (symmetrized), with one row/column
/// pair structurally zeroed so that the diagonal block owning it is
/// singular beyond repair.
fn spd_with_dead_row(n: usize, edges: &[(usize, usize, f64)], dead: usize) -> BsrMatrix {
    let mut b = TripletBuilder::new(n, n);
    let mut diag = vec![1.0f64; n];
    for &(i, j, w) in edges {
        let (i, j) = (i % n, j % n);
        if i == j || i == dead || j == dead {
            continue;
        }
        let w = w.abs().max(0.01);
        b.add(i, j, -w);
        b.add(j, i, -w);
        diag[i] += w;
        diag[j] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        if i != dead {
            b.add(i, i, d);
        }
    }
    BsrMatrix::from_csr(&b.build()).expect("whole nodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the sparsity pattern and however the rows are split into
    /// IC(0) blocks, a structurally zero row must surface as the
    /// `SingularBlock` that holds it — not as a factorization that
    /// quietly acts like the identity on that block.
    #[test]
    fn singular_block_is_an_error_not_a_wrong_answer(
        nodes in 2usize..14,
        edges in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..120),
        dead in 0usize..64,
        nblocks in 1usize..8,
    ) {
        let n = 3 * nodes;
        let dead = dead % n;
        let a = spd_with_dead_row(n, &edges, dead);
        let r = BlockJacobiPrecond::new(&a, nblocks);
        match r {
            Err(SparseError::SingularBlock { rows: (lo, hi), .. }) => {
                prop_assert!(lo <= dead && dead < hi,
                    "reported block rows {lo}..{hi} do not contain the dead row {dead}");
            }
            other => prop_assert!(false, "expected SingularBlock, got {other:?}"),
        }
    }
}

// ───────────────────────── malformed meshes ─────────────────────────

fn unit_tet_nodes() -> Vec<Vec3> {
    vec![
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ]
}

#[test]
fn inverted_tet_rejected_at_context_build() {
    // Swapping two vertices flips the element's orientation: negative
    // volume, caught by validation — and therefore by the FEM context
    // build, before assembly or factorization spend any time on it.
    let mesh = TetMesh {
        nodes: unit_tet_nodes(),
        tets: vec![[0, 2, 1, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(matches!(mesh.validate(), Err(MeshError::InvertedTet { tet: 0, .. })));
    let r = SolverContext::new(&mesh, &MaterialTable::homogeneous(), &[0], FemSolveConfig::default());
    assert!(
        matches!(r, Err(FemError::Mesh(MeshError::InvertedTet { tet: 0, .. }))),
        "context built on an inverted element"
    );
}

#[test]
fn sliver_tet_fails_the_quality_gate() {
    // Nearly coplanar fourth vertex: positive volume (plain validation
    // passes) but a radius ratio far below any reasonable floor.
    let mesh = TetMesh {
        nodes: vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.3, 0.3, 1e-6),
        ],
        tets: vec![[0, 1, 2, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(mesh.validate().is_ok());
    assert!(matches!(
        mesh.validate_quality(0.1),
        Err(MeshError::SliverTet { tet: 0, .. })
    ));
}

#[test]
fn repeated_node_rejected() {
    let mesh = TetMesh {
        nodes: unit_tet_nodes(),
        tets: vec![[0, 1, 1, 3]],
        tet_labels: vec![labels::BRAIN],
    };
    assert!(matches!(mesh.validate(), Err(MeshError::RepeatedNode { tet: 0 })));
}

// ───────────────────── degradation in the service ─────────────────────

fn small_seq(n: usize, peak_shift_mm: f64) -> ScanSequence {
    generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(32, 32, 24),
            spacing: Spacing::iso(4.5),
            ..Default::default()
        },
        &BrainShiftConfig { peak_shift_mm, ..Default::default() },
        n,
        n,
    )
}

fn prepared(seq: &ScanSequence) -> Arc<PreparedSurgery> {
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare surgery"))
}

/// A one-worker service with one open session on `seq`'s surgery.
fn serve(seq: &ScanSequence) -> (Service, u64) {
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let session = service.open_session(prepared(seq));
    (service, session)
}

fn run_job(service: &Service, session: u64, seq: &ScanSequence, scan: usize, deadline: Duration) -> JobOutcome {
    let job = ScanJob { session, intensity: seq.scans[scan].intensity.clone(), priority: 0, deadline };
    service.submit(job).expect("admit").wait().expect("execute")
}

/// A 1 µs deadline has passed by the time the solve starts: the solve's
/// budget is the token 1 µs, it stops on it, and the job degrades.
const STARVED: Duration = Duration::from_micros(1);
const AMPLE: Duration = Duration::from_secs(300);

fn field_bits(o: &JobOutcome) -> Vec<u64> {
    o.field.data().iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

#[test]
fn forced_nonconvergence_degrades_scan_and_reuses_previous_field() {
    let seq = small_seq(3, 8.0);
    let (service, session) = serve(&seq);
    let first = run_job(&service, session, &seq, 0, AMPLE);
    let starved = run_job(&service, session, &seq, 1, STARVED);
    let last = run_job(&service, session, &seq, 2, AMPLE);

    assert_eq!(first.status, ScanStatus::Converged);
    assert_eq!(starved.status, ScanStatus::Degraded, "a non-converged scan must degrade, not error");
    assert_eq!(last.status, ScanStatus::Converged, "the session recovers after a degraded job");
    // The degraded scan's field is scan 0's field carried forward.
    assert_eq!(field_bits(&starved), field_bits(&first), "degraded scan did not reuse the previous field");
    // Scan 2 solves its own BCs again and recovers a larger shift.
    assert!(last.field.max_magnitude() > starved.field.max_magnitude());
    // Every job completed, exactly one degraded, and the session's one
    // context (one factorization on the surgery's one assembly) served
    // all three: one cold build, then warm.
    let st = service.session_stats(session).expect("session is open");
    assert_eq!((st.completed, st.degraded, st.warm_starts), (3, 1, 2));
    let cache = service.cache_stats();
    assert_eq!((cache.misses, cache.hits), (1, 2));
    service.shutdown();
}

#[test]
fn degraded_first_scan_falls_back_to_zero_field() {
    let seq = small_seq(2, 8.0);
    let (service, session) = serve(&seq);
    let starved = run_job(&service, session, &seq, 0, STARVED);
    assert_eq!(starved.status, ScanStatus::Degraded);
    assert_eq!(starved.field.max_magnitude(), 0.0, "no previous scan exists: the fallback is the zero field");
    // The next job recovers normally: the failed solve must not have
    // poisoned the warm-start state.
    let next = run_job(&service, session, &seq, 1, AMPLE);
    assert_eq!(next.status, ScanStatus::Converged);
    assert!(next.field.max_magnitude() > 0.0);
    service.shutdown();
}

// ───────────────────── the service's deadline budget ─────────────────────

/// A degrading session keeps its slot and does not poison the others:
/// session A's starved job degrades on the time budget (one `Degrade`
/// event naming it), A's next job converges, and session B's jobs stay
/// converged and warm throughout.
#[test]
fn a_job_past_its_deadline_degrades_on_the_time_budget() {
    let seq_a = small_seq(3, 8.0);
    let seq_b = small_seq(3, 5.0);
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let a = service.open_session(prepared(&seq_a));
    let b = service.open_session(prepared(&seq_b));

    let a0 = run_job(&service, a, &seq_a, 0, AMPLE);
    let b0 = run_job(&service, b, &seq_b, 0, AMPLE);
    assert_eq!((a0.status, b0.status), (ScanStatus::Converged, ScanStatus::Converged));

    let a1 = run_job(&service, a, &seq_a, 1, STARVED);
    assert_eq!(a1.status, ScanStatus::Degraded, "a starved job must degrade, not error");
    assert!(a1.missed_deadline);
    assert_eq!(field_bits(&a1), field_bits(&a0), "the degraded field is not scan 0's, bit for bit");

    let a2 = run_job(&service, a, &seq_a, 2, AMPLE);
    assert_eq!(a2.status, ScanStatus::Converged, "the session recovers after a degraded job");
    for scan in 1..3 {
        let out = run_job(&service, b, &seq_b, scan, AMPLE);
        assert_eq!(out.status, ScanStatus::Converged);
        assert!(out.warm, "B's context stayed cached throughout");
    }
    let st_a = service.session_stats(a).expect("session a");
    assert_eq!((st_a.completed, st_a.degraded), (3, 1));
    assert_eq!(service.session_stats(b).expect("session b").degraded, 0);

    let degrades: Vec<(u64, u64, StopReason)> = service
        .shutdown()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Degrade { session, job, reason } => Some((session, job, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(degrades, [(a, a1.job, StopReason::TimeBudget)]);
}

#[test]
fn a_deadline_past_the_service_clock_saturates() {
    let seq = small_seq(1, 8.0);
    let (service, session) = serve(&seq);
    // 18 446 744 073 710 s is just over u64::MAX µs: a truncating cast
    // would wrap it to a deadline of about 0.45 s.
    let out = run_job(&service, session, &seq, 0, Duration::from_secs(18_446_744_073_710));
    assert_eq!(out.status, ScanStatus::Converged);
    let deadline = service.shutdown().into_iter().find_map(|e| match e.kind {
        EventKind::Enqueue { job, deadline_us, .. } if job == out.job => Some(deadline_us),
        _ => None,
    });
    assert_eq!(deadline, Some(u64::MAX));
}

// ───────────────────── the service's memory budget ─────────────────────

#[test]
fn half_budget_runs_cold_but_completes_everything() {
    // A budget that fits only one of two contexts: sessions evict each
    // other (ping-pong), every scan still completes without error.
    let seq_a = small_seq(2, 8.0);
    let seq_b = small_seq(2, 5.0);
    let probe = prepared(&seq_a);
    let ctx_bytes = probe.build_solver_context().expect("probe context").memory_bytes();

    let service = Service::start(ServiceConfig {
        workers: 1,
        memory_budget_bytes: ctx_bytes + ctx_bytes / 2,
        ..Default::default()
    });
    let a = service.open_session(probe);
    let b = service.open_session(prepared(&seq_b));

    for i in 0..2 {
        for (session, seq) in [(a, &seq_a), (b, &seq_b)] {
            let out = run_job(&service, session, seq, i, Duration::from_secs(300));
            assert_ne!(out.status, ScanStatus::Degraded);
            assert!(!out.warm, "interleaved sessions under half budget always run cold");
        }
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 0);
    assert!(stats.evictions >= 2, "sessions evicted each other");
    // The metrics registry mirrors the cache/event counters and carries
    // the per-stage solve spans, under the same names the simulator uses.
    let m = service.metrics_snapshot();
    assert_eq!(m.counter("service.jobs.submitted"), Some(4));
    assert_eq!(m.counter("service.jobs.completed"), Some(4));
    assert_eq!(m.counter("service.cache.miss"), Some(4));
    assert_eq!(m.counter("service.cache.evictions").unwrap_or(0), stats.evictions);
    assert_eq!(m.span("scan/solve").map(|s| s.count), Some(4));
    let slack = m.histograms.iter().find(|(n, _)| n == "service.deadline.slack_at_start_us");
    assert_eq!(slack.map(|(_, h)| h.count), Some(4));
    let events = service.shutdown();
    assert!(events.iter().any(|e| matches!(e.kind, EventKind::Evict { .. })));
}

// ───────────────────── the service's boundary ─────────────────────

#[test]
fn admission_rejections_are_typed() {
    let seq = small_seq(1, 8.0);
    let service = Service::start(ServiceConfig {
        workers: 1,
        min_service_us: 1_000_000,
        ..Default::default()
    });
    let s = service.open_session(prepared(&seq));

    // Unknown session.
    let r = service.submit(ScanJob {
        session: s + 999,
        intensity: seq.scans[0].intensity.clone(),
        priority: 0,
        deadline: Duration::from_secs(300),
    });
    assert!(matches!(r.err(), Some(Rejected::UnknownSession { .. })));

    // Deadline inside the admission floor.
    let r = service.submit(ScanJob {
        session: s,
        intensity: seq.scans[0].intensity.clone(),
        priority: 0,
        deadline: Duration::from_micros(10),
    });
    assert!(matches!(r.err(), Some(Rejected::DeadlineInfeasible)));

    service.shutdown();
}

#[test]
fn scan_on_the_wrong_grid_fails_typed_and_the_worker_survives() {
    // Regression: `register_scan` handed a volume of foreign `Dims` to
    // the feature stack, whose grid assert panicked the worker thread —
    // the ticket saw `JobLost`, the session stayed busy forever, and
    // `snapshot_shard`'s quiesce never returned.
    let seq = small_seq(1, 8.0);
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let s = service.open_session(prepared(&seq));
    let wrong = brainshift_imaging::Volume::<f32>::zeros(Dims::new(16, 16, 12), Spacing::iso(9.0));
    let bad = service
        .submit(ScanJob {
            session: s,
            intensity: wrong,
            priority: 0,
            deadline: Duration::from_secs(300),
        })
        .expect("admission does not inspect the volume")
        .wait();
    match bad {
        Err(ServiceError::Pipeline(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("16") && msg.contains("32"), "error names both grids: {msg}");
        }
        other => panic!("mismatched grid must resolve Pipeline, got {other:?}"),
    }

    // Same session, same (only) worker: the next well-formed scan runs.
    let good = service
        .submit(ScanJob {
            session: s,
            intensity: seq.scans[0].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(300),
        })
        .expect("admit")
        .wait()
        .expect("the worker survived the bad scan");
    assert_ne!(good.status, ScanStatus::Degraded);
    let st = service.session_stats(s).expect("session exists");
    assert_eq!(st.completed, 2, "the failed scan counts as completed, like any pipeline error");

    // And the shard still quiesces.
    let bytes = service.snapshot_shard().expect("snapshot returns");
    assert!(!bytes.is_empty());
    service.shutdown();
}

// ───────────────────── the service's sessions ─────────────────────

#[test]
fn two_sessions_complete_their_scan_sequences() {
    let seq_a = small_seq(2, 8.0);
    let seq_b = small_seq(2, 5.0);
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let a = service.open_session(prepared(&seq_a));
    let b = service.open_session(prepared(&seq_b));

    let mut tickets = Vec::new();
    for (session, seq) in [(a, &seq_a), (b, &seq_b)] {
        for scan in &seq.scans {
            tickets.push(
                service
                    .submit(ScanJob { session, intensity: scan.intensity.clone(), priority: 0, deadline: AMPLE })
                    .expect("admit"),
            );
        }
    }
    for t in tickets {
        let out = t.wait().expect("job executes");
        assert_ne!(out.status, ScanStatus::Degraded);
        assert!(!out.missed_deadline, "5-minute deadline missed on a 32³ phantom");
        assert!(out.field.max_magnitude() > 0.0, "recovered a non-trivial field");
    }
    // Each session: first scan cold, second warm (budget fits both).
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.evictions, 0);
    for s in [a, b] {
        let st = service.session_stats(s).expect("session exists");
        assert_eq!(st.completed, 2);
        assert_eq!(st.warm_starts, 1);
        assert_eq!(st.degraded, 0);
    }
    let events = service.shutdown();
    assert!(matches!(events.last().map(|e| &e.kind), Some(EventKind::Shutdown)));
    let starts = events.iter().filter(|e| matches!(e.kind, EventKind::Start { .. })).count();
    let completes = events.iter().filter(|e| matches!(e.kind, EventKind::Complete { .. })).count();
    assert_eq!((starts, completes), (4, 4), "every admitted job started and completed");
}

#[test]
fn closing_session_mid_flight_does_not_orphan_cache_entry() {
    // Regression: finish() used to re-insert the solver context into the
    // cache even when close_session() had removed the session while its
    // job was executing. Session ids are never reused, so the entry could
    // never be taken again — it silently pinned the memory budget.
    let seq = small_seq(1, 8.0);
    let (service, s) = serve(&seq);
    let ticket = service
        .submit(ScanJob { session: s, intensity: seq.scans[0].intensity.clone(), priority: 0, deadline: AMPLE })
        .expect("admit");

    // Wait until the one worker has claimed the job on its preferred
    // queue (its context is checked out), then close the session
    // underneath it.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while service.metrics_snapshot().counter("service.jobs.preferred").unwrap_or(0) == 0 {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::yield_now();
    }
    service.close_session(s);

    // The in-flight job still completes (it holds the session Arc) ...
    let out = ticket.wait().expect("in-flight job completes");
    assert_ne!(out.status, ScanStatus::Degraded);
    // ... but its context must be dropped, not cached for a dead id.
    assert_eq!(service.cache_resident_bytes(), 0, "closed session's context must not be re-cached");
    service.shutdown();
}

#[test]
fn stats_probes_never_deadlock_against_degrade_logging() {
    // Regression: execute() held the session state lock while acquiring
    // the service mutex to log Degrade, while session_stats()
    // took the same locks in the opposite order — an AB-BA deadlock
    // whenever a probe raced a degrading job. Hammer the probes while
    // jobs degrade; the test passing at all is the assertion.
    let seq = small_seq(5, 8.0);
    let service = Arc::new(Service::start(ServiceConfig { workers: 2, ..Default::default() }));
    let s = service.open_session(prepared(&seq));

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let prober = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = service.session_stats(s);
                let _ = service.metrics_snapshot();
                let _ = service.cache_stats();
            }
        })
    };

    // One healthy scan to seed a carry-forward field, then starved scans
    // that exercise the Degrade logging path concurrently with probes.
    let healthy = run_job(&service, s, &seq, 0, AMPLE);
    assert_ne!(healthy.status, ScanStatus::Degraded);
    let mut degraded = 0;
    for scan in 1..seq.scans.len() {
        if run_job(&service, s, &seq, scan, STARVED).status == ScanStatus::Degraded {
            degraded += 1;
        }
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    prober.join().expect("prober thread");
    let st = service.session_stats(s).expect("session exists");
    assert_eq!(st.completed, 5);
    assert_eq!(st.degraded, degraded);
    assert!(degraded >= 1, "at least one starved job exercised the Degrade logging path");
}
