//! Threaded end-to-end tests of the affinity dispatch, the narrow-lock
//! claim path, shutdown cancellation, and the sharded fleet — on real
//! (small) phantom surgeries.

use brainshift_core::generate_scan_sequence;
use brainshift_core::{PipelineConfig, PreparedSurgery, ScanStatus};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_service::{
    preferred_worker, Event, EventKind, Fleet, FleetConfig, ScanJob, Service, ServiceConfig,
    ServiceError,
};
use std::sync::Arc;
use std::time::Duration;

fn small_seq(n: usize, peak_shift_mm: f64) -> brainshift_core::ScanSequence {
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

fn prepared(seq: &brainshift_core::ScanSequence) -> Arc<PreparedSurgery> {
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare surgery"))
}

fn job(session: u64, intensity: &brainshift_imaging::Volume<f32>) -> ScanJob {
    ScanJob {
        session,
        intensity: intensity.clone(),
        priority: 0,
        deadline: Duration::from_secs(300),
    }
}

/// Sequential scans of pinned sessions run on their preferred worker,
/// and nothing is stolen when no queue ever builds a backlog.
#[test]
fn sequential_scans_stick_to_the_preferred_worker() {
    let seq_a = small_seq(3, 8.0);
    let seq_b = small_seq(3, 5.0);
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let a = service.open_session(prepared(&seq_a)); // id 1 → worker 1
    let b = service.open_session(prepared(&seq_b)); // id 2 → worker 0
    let (pref_a, pref_b) = (preferred_worker(a, 2), preferred_worker(b, 2));
    assert_ne!(pref_a, pref_b, "round-robin placement spreads two sessions over two workers");

    for i in 0..3 {
        for (session, seq, pref) in [(a, &seq_a, pref_a), (b, &seq_b, pref_b)] {
            let out = service
                .submit(job(session, &seq.scans[i].intensity))
                .expect("admit")
                .wait()
                .expect("execute");
            assert_eq!(out.worker, pref, "job of session {session} ran off its preferred worker");
            assert!(!out.stolen, "nothing to steal at backlog 0");
        }
    }
    let m = service.metrics_snapshot();
    assert_eq!(m.counter("service.jobs.preferred"), Some(6));
    assert_eq!(m.counter("service.jobs.stolen").unwrap_or(0), 0);
    // The event log agrees: every Start names the preferred worker.
    for e in service.shutdown() {
        if let EventKind::Start { session, worker, stolen, .. } = e.kind {
            assert!(!stolen);
            assert_eq!(worker, if session == a { pref_a } else { pref_b });
        }
    }
}

/// The lock-scope regression this PR fixes: while worker A grinds
/// through a backlog of solves, admission, completion, and stats probes
/// on the rest of the service must proceed — no lock is held across a
/// solve, a queue scan, or a cache touch. A session pinned to the other
/// worker submits *after* the backlog forms and completes *before* it
/// drains.
#[test]
fn backlogged_worker_never_blocks_admission_probes_or_the_other_worker() {
    let seq_a = small_seq(4, 8.0);
    let seq_b = small_seq(2, 5.0);
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let a = service.open_session(prepared(&seq_a)); // id 1 → worker 1
    let b = service.open_session(prepared(&seq_b)); // id 2 → worker 0

    // Warm both sessions so the measured window is all solve, no build.
    for (session, seq) in [(a, &seq_a), (b, &seq_b)] {
        service.submit(job(session, &seq.scans[0].intensity)).expect("admit").wait().expect("warm-up");
    }

    // Build a backlog on worker 1: one in-flight plus two queued (≤ the
    // steal threshold, so they stay put).
    let a1 = service.submit(job(a, &seq_a.scans[1].intensity)).expect("admit a1");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while service.metrics_snapshot().gauge("service.queue.depth") != Some(0.0) {
        assert!(std::time::Instant::now() < deadline, "worker never claimed the first job");
        std::thread::yield_now();
    }
    let a2 = service.submit(job(a, &seq_a.scans[2].intensity)).expect("admit a2");
    let a3 = service.submit(job(a, &seq_a.scans[3].intensity)).expect("admit a3");

    // Probes respond while the backlog exists (a hang here IS the
    // regression: the old service held one mutex across claim + solve
    // bookkeeping).
    let st = service.session_stats(a).expect("stats probe under load");
    assert!(st.completed >= 1);
    let _ = service.cache_stats();
    let _ = service.metrics_snapshot();

    // Admission on the idle worker proceeds and completes while worker 1
    // still owns queued work.
    let b1 = service
        .submit(job(b, &seq_b.scans[1].intensity))
        .expect("admission must not block on the backlogged worker")
        .wait()
        .expect("execute");
    assert!(!b1.stolen);

    let a1 = a1.wait().expect("a1");
    let a2 = a2.wait().expect("a2");
    let a3 = a3.wait().expect("a3");
    for out in [&a1, &a2, &a3] {
        assert!(!out.stolen, "backlog of 2 stays under the steal threshold");
        assert_ne!(out.status, ScanStatus::Degraded);
    }

    // Event-log proof of concurrency: B's completion landed before the
    // backlogged worker drained its last job.
    let events = service.shutdown();
    let complete_seq = |session, job| {
        events
            .iter()
            .find(|e| {
                matches!(e.kind, EventKind::Complete { session: s, job: j, .. } if s == session && j == job)
            })
            .map(|e| e.seq)
            .expect("completion logged")
    };
    assert!(
        complete_seq(b, b1.job) < complete_seq(a, a3.job),
        "the idle worker's job must finish while the other worker is still draining its backlog"
    );
}

/// A ticket never hangs across shutdown: still-queued jobs resolve with
/// the typed [`ServiceError::Cancelled`], in-flight jobs complete.
#[test]
fn shutdown_cancels_queued_jobs_with_typed_error() {
    let seq = small_seq(3, 8.0);
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let s = service.open_session(prepared(&seq));

    let tickets: Vec<_> = seq
        .scans
        .iter()
        .map(|scan| service.submit(job(s, &scan.intensity)).expect("admit"))
        .collect();
    let ids: Vec<u64> = tickets.iter().map(|t| t.id()).collect();

    // Shut down immediately: the first job is (at most) in flight, the
    // rest still queued behind it on the single worker.
    let events = service.shutdown();

    let mut completed = 0;
    let mut cancelled = Vec::new();
    for (ticket, id) in tickets.into_iter().zip(ids) {
        match ticket.wait() {
            Ok(out) => {
                completed += 1;
                assert_eq!(out.job, id);
            }
            Err(ServiceError::Cancelled { job }) => {
                assert_eq!(job, id, "cancellation names the right job");
                cancelled.push(job);
            }
            Err(e) => panic!("queued job must resolve Cancelled, not {e}"),
        }
    }
    assert_eq!(completed + cancelled.len(), 3, "every ticket resolved — none hung");
    assert!(!cancelled.is_empty(), "jobs queued behind the in-flight one were cancelled");

    // The log agrees: one Cancel event per cancelled ticket, and the
    // final event is Shutdown.
    let logged: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Cancel { job, .. } => Some(job),
            _ => None,
        })
        .collect();
    assert_eq!(logged, cancelled);
    assert!(matches!(events.last().map(|e| &e.kind), Some(EventKind::Shutdown)));
}

/// Fleet end-to-end: least-loaded placement spreads sessions, ids are
/// self-routing, per-shard metrics merge under `shard{i}.` prefixes,
/// and each shard's script only ever names its own sessions.
#[test]
fn fleet_routes_sessions_and_merges_shard_metrics() {
    let seq = small_seq(2, 8.0);
    let prep = prepared(&seq);
    let fleet = Fleet::start(FleetConfig {
        shards: 2,
        shard: ServiceConfig { workers: 1, ..Default::default() },
    });
    // Least-loaded placement alternates empty shards: one session each.
    let a = fleet.open_session(Arc::clone(&prep));
    let b = fleet.open_session(Arc::clone(&prep));
    assert_ne!(a % 2, b % 2, "two sessions spread over two shards");

    for i in 0..2 {
        for s in [a, b] {
            let out = fleet
                .submit(ScanJob {
                    session: s,
                    intensity: seq.scans[i].intensity.clone(),
                    priority: 0,
                    deadline: Duration::from_secs(300),
                })
                .expect("admit")
                .wait()
                .expect("execute");
            assert_eq!(out.session, s, "outcome carries the fleet-wide id");
            assert_ne!(out.status, ScanStatus::Degraded);
            assert_eq!(out.warm, i > 0, "second scan per session is warm on its shard");
        }
    }

    let st = fleet.session_stats(a).expect("fleet stats route to the right shard");
    assert_eq!(st.completed, 2);
    assert_eq!(st.warm_starts, 1);

    // Per-shard metrics under prefixes; each shard served one session's
    // two scans.
    let m = fleet.metrics_snapshot();
    for shard in 0..2 {
        assert_eq!(m.counter(&format!("shard{shard}.service.jobs.completed")), Some(2));
        assert_eq!(m.counter(&format!("shard{shard}.service.cache.hit")), Some(1));
    }

    // Shard scripts are isolated: shard i's script only names shard-local
    // session ids of sessions this fleet opened on it (ids 1..).
    let logs = fleet.shutdown();
    assert_eq!(logs.len(), 2);
    for log in &logs {
        let script: Vec<String> = log.iter().map(Event::script_line).collect();
        assert!(script.iter().any(|l| l.starts_with("complete s1 ")), "each shard ran its own session 1");
    }
}
