//! End-to-end tests of the threaded service on real (small) phantom
//! surgeries, including fault injection: a session forced to degrade
//! mid-sequence keeps its slot, carries its previous field forward, and
//! does not poison the other sessions' solver contexts.

use brainshift_core::{PipelineConfig, PreparedSurgery, ScanStatus};
use brainshift_core::generate_scan_sequence;
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_service::{EventKind, ScanJob, Service, ServiceConfig};
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
                    .submit(ScanJob {
                        session,
                        intensity: scan.intensity.clone(),
                        priority: 0,
                        deadline: Duration::from_secs(300),
                    })
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
fn degrading_session_keeps_slot_and_does_not_poison_others() {
    let seq_a = small_seq(3, 8.0);
    let seq_b = small_seq(3, 5.0);
    let service = Service::start(ServiceConfig { workers: 2, ..Default::default() });
    let a = service.open_session(prepared(&seq_a));
    let b = service.open_session(prepared(&seq_b));

    let submit = |session, intensity: &brainshift_imaging::Volume<f32>, deadline| {
        service
            .submit(ScanJob { session, intensity: intensity.clone(), priority: 0, deadline })
            .expect("admit")
            .wait()
            .expect("execute")
    };

    // Scan 0 on both sessions: healthy.
    let a0 = submit(a, &seq_a.scans[0].intensity, Duration::from_secs(300));
    let b0 = submit(b, &seq_b.scans[0].intensity, Duration::from_secs(300));
    assert_ne!(a0.status, ScanStatus::Degraded);
    assert_ne!(b0.status, ScanStatus::Degraded);

    // Fault: session A's scan 1 gets a deadline so tight the solve's
    // derived time budget cannot converge — the service-level
    // analogue of core's FaultInjection starved-solver scans.
    let a1 = submit(a, &seq_a.scans[1].intensity, Duration::from_micros(1));
    assert_eq!(a1.status, ScanStatus::Degraded, "starved job must degrade, not error");
    assert!(a1.missed_deadline);
    // Carry-forward: the degraded result IS scan 0's field, bit for bit.
    assert_eq!(a1.field.data().len(), a0.field.data().len());
    for (x, y) in a1.field.data().iter().zip(a0.field.data()) {
        assert_eq!(x, y);
    }

    // The session kept its slot: scan 2 with a sane deadline recovers.
    let a2 = submit(a, &seq_a.scans[2].intensity, Duration::from_secs(300));
    assert_ne!(a2.status, ScanStatus::Degraded, "session recovers after a degraded scan");

    // And session B was never poisoned: its remaining scans stay healthy
    // and warm.
    let b1 = submit(b, &seq_b.scans[1].intensity, Duration::from_secs(300));
    let b2 = submit(b, &seq_b.scans[2].intensity, Duration::from_secs(300));
    assert_ne!(b1.status, ScanStatus::Degraded);
    assert_ne!(b2.status, ScanStatus::Degraded);
    assert!(b1.warm && b2.warm, "B's context stayed cached throughout");

    let st_a = service.session_stats(a).expect("session a");
    assert_eq!(st_a.completed, 3);
    assert_eq!(st_a.degraded, 1);
    let st_b = service.session_stats(b).expect("session b");
    assert_eq!(st_b.degraded, 0);

    let events = service.shutdown();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::Degrade { session, .. } if session == a
        )),
        "the degradation is visible in the event log"
    );
}

#[test]
fn closing_session_mid_flight_does_not_orphan_cache_entry() {
    // Regression: finish() used to re-insert the solver context into the
    // cache even when close_session() had removed the session while its
    // job was executing. Session ids are never reused, so the entry could
    // never be taken again — it silently pinned the memory budget.
    let seq = small_seq(1, 8.0);
    let service = Service::start(ServiceConfig { workers: 1, ..Default::default() });
    let s = service.open_session(prepared(&seq));
    let ticket = service
        .submit(ScanJob {
            session: s,
            intensity: seq.scans[0].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(300),
        })
        .expect("admit");

    // Wait until the worker has claimed the job (its context is checked
    // out), then close the session underneath it.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !service.events().iter().any(|e| matches!(e.kind, EventKind::Start { .. })) {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::yield_now();
    }
    service.close_session(s);

    // The in-flight job still completes (it holds the session Arc) ...
    let out = ticket.wait().expect("in-flight job completes");
    assert_ne!(out.status, ScanStatus::Degraded);
    // ... but its context must be dropped, not cached for a dead id.
    assert_eq!(
        service.cache_resident_bytes(),
        0,
        "closed session's context must not be re-cached"
    );
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
                let _ = service.queue_depth();
                let _ = service.cache_stats();
            }
        })
    };

    // One healthy scan to seed a carry-forward field, then starved scans
    // that exercise the Degrade logging path concurrently with probes.
    let healthy = service
        .submit(ScanJob {
            session: s,
            intensity: seq.scans[0].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(300),
        })
        .expect("admit")
        .wait()
        .expect("execute");
    assert_ne!(healthy.status, ScanStatus::Degraded);
    let mut degraded = 0;
    for scan in &seq.scans[1..] {
        let out = service
            .submit(ScanJob {
                session: s,
                intensity: scan.intensity.clone(),
                priority: 0,
                deadline: Duration::from_micros(1),
            })
            .expect("admit")
            .wait()
            .expect("execute");
        if out.status == ScanStatus::Degraded {
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
