//! The affinity-dispatch contracts. Property tests drive them through the
//! deterministic simulator (which drives the production `ShardCore` —
//! queues, cache, steal policy, placement — on a logical clock; see
//! `sim.rs`); threaded end-to-end tests hold the served `Service` and
//! `Fleet` to them on real (small) phantom surgeries: the affinity
//! dispatch, the narrow-lock claim path, shutdown cancellation, and the
//! fleet's placement and metric merge.

use brainshift_core::{
    generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence, ScanStatus,
};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_service::{
    preferred_worker, simulate, Event, EventKind, Fleet, FleetConfig, ScanJob, Service,
    ServiceConfig, ServiceError, SimJob,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn cfg(workers: usize, capacity: usize, threshold: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: capacity,
        memory_budget_bytes: usize::MAX / 2,
        aging_weight: 1.0,
        min_service_us: 0,
        priority_boost_us: 0,
        max_session_backlog: usize::MAX,
        steal_backlog_threshold: threshold,
    }
}

/// A steady multi-session load: `sessions` sessions, `per` scans each at
/// a fixed cadence, every scan costing `cost_us`.
fn steady_load(sessions: u64, per: usize, cadence_us: u64, cost_us: u64) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for k in 0..per {
        for s in 1..=sessions {
            jobs.push(SimJob {
                session: s,
                submit_us: k as u64 * cadence_us,
                deadline_us: k as u64 * cadence_us + cadence_us * 2,
                priority: 0,
                cost_us,
                ctx_bytes: 1 << 10,
            });
        }
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under nominal load — each session submits its next scan only
    /// after the previous one would have drained, so no queue ever
    /// exceeds the steal threshold — every job runs on its session's
    /// preferred worker and nothing is ever stolen.
    #[test]
    fn nominal_load_keeps_every_job_on_its_preferred_worker(
        sessions in 1u64..6,
        per in 1usize..12,
        workers in 1usize..5,
        cost in 10u64..200,
    ) {
        // Cadence long enough that all of an instant's submissions (at
        // most `sessions`, spread round-robin over workers) drain before
        // the next wave: no backlog, no steal pressure.
        let cadence = cost * (sessions + 1);
        let jobs = steady_load(sessions, per, cadence, cost);
        let r = simulate(&cfg(workers, jobs.len(), 2), &jobs);
        prop_assert!(r.steals.is_empty(), "steals under nominal load: {:?}", r.steals);
        for o in &r.outcomes {
            prop_assert!(o.completed_us.is_some(), "job {} never completed", o.script_index);
            prop_assert!(!o.stolen);
            prop_assert_eq!(o.worker, Some(preferred_worker(o.session, workers)));
        }
        prop_assert_eq!(
            r.metrics.counter("service.jobs.preferred"),
            Some(jobs.len() as u64)
        );
        prop_assert_eq!(r.metrics.counter("service.jobs.stolen").unwrap_or(0), 0);
    }

    /// Work stealing is strictly threshold-gated: whatever the load,
    /// every recorded steal found the owner's queue deeper than the
    /// policy threshold, and every stolen job's Start carries the thief
    /// worker. (Bursty scripts with clumped sessions create real steal
    /// pressure.)
    #[test]
    fn steals_only_happen_above_the_backlog_threshold(
        raw in prop::collection::vec(
            // (session, submit gap µs, cost µs)
            (1u64..4, 0u64..120, 50u64..400),
            4..48,
        ),
        workers in 2usize..5,
        threshold in 0usize..4,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, cost)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + 50_000,
                    priority: 0,
                    cost_us: cost,
                    ctx_bytes: 1 << 10,
                }
            })
            .collect();
        let r = simulate(&cfg(workers, jobs.len(), threshold), &jobs);
        for st in &r.steals {
            prop_assert!(
                st.owner_backlog > threshold,
                "steal of job {} from worker {} at backlog {} ≤ threshold {}",
                st.script_index, st.owner, st.owner_backlog, threshold
            );
            prop_assert_eq!(st.owner, preferred_worker(st.session, workers));
            prop_assert!(st.thief != st.owner);
            prop_assert!(r.outcomes[st.script_index].stolen);
            prop_assert_eq!(r.outcomes[st.script_index].worker, Some(st.thief));
        }
        // Cross-check the counters against the records.
        prop_assert_eq!(
            r.metrics.counter("service.jobs.stolen").unwrap_or(0),
            r.steals.len() as u64
        );
        // And all completions are accounted: preferred + stolen.
        let done = r.outcomes.iter().filter(|o| o.completed_us.is_some()).count() as u64;
        prop_assert_eq!(
            r.metrics.counter("service.jobs.preferred").unwrap_or(0)
                + r.metrics.counter("service.jobs.stolen").unwrap_or(0),
            done
        );
    }

    /// The affinity simulator is bit-deterministic: same script, same
    /// config → byte-identical event script, steal records, and metric
    /// snapshot.
    #[test]
    fn affinity_sim_is_deterministic(
        raw in prop::collection::vec(
            (1u64..6, 0u64..300, 30u64..500, 1usize..64),
            1..40,
        ),
        workers in 1usize..5,
        threshold in 0usize..3,
    ) {
        let mut t = 0;
        let jobs: Vec<SimJob> = raw
            .iter()
            .map(|&(session, gap, cost, kib)| {
                t += gap;
                SimJob {
                    session,
                    submit_us: t,
                    deadline_us: t + 20_000,
                    priority: (session % 2) as u8,
                    cost_us: cost,
                    ctx_bytes: kib << 10,
                }
            })
            .collect();
        let c = cfg(workers, jobs.len().max(4), threshold);
        let a = simulate(&c, &jobs);
        let b = simulate(&c, &jobs);
        prop_assert_eq!(a.log.script(), b.log.script());
        prop_assert_eq!(a.steals, b.steals);
        prop_assert_eq!(a.completion_order, b.completion_order);
        prop_assert_eq!(a.metrics, b.metrics);
    }
}

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

fn job(session: u64, intensity: &Volume<f32>) -> ScanJob {
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

/// The lock-scope regression: while worker A grinds
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
