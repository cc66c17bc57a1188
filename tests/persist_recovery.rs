//! Crash-recovery integration gate: kill a shard mid-sequence, restore
//! it from its snapshot, finish the sequence — the displacement fields
//! and the event-log script must be byte-identical to an uninterrupted
//! run's. Plus the service-level corruption suite: a damaged snapshot is
//! refused with a typed error and no half-restored shard ever starts;
//! and a fleet slot keeps the history of the shard a restore replaced.

use brainshift_conformance::{quantized_field_hash, GOLDEN_QUANTUM_MM};
use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_persist::{PersistError, SnapshotReader, SnapshotWriter};
use brainshift_service::{
    Event, EventKind, Fleet, FleetConfig, ScanJob, Service, ServiceConfig, SessionSnapshot,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn phantom_sequence(scans: usize) -> (Arc<PreparedSurgery>, ScanSequence) {
    let seq = generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(24, 24, 18),
            spacing: Spacing::iso(6.0),
            ..Default::default()
        },
        &BrainShiftConfig::default(),
        scans,
        scans,
    );
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare"));
    (prepared, seq)
}

fn one_worker() -> ServiceConfig {
    ServiceConfig { workers: 1, queue_capacity: 16, ..Default::default() }
}

/// Serve scans `[from, to)` sequentially, returning each field's
/// quantized hash and whether it ran warm.
fn serve(
    service: &Service,
    session: u64,
    seq: &ScanSequence,
    from: usize,
    to: usize,
) -> Vec<(u64, bool)> {
    (from..to)
        .map(|i| {
            let out = service
                .submit(ScanJob {
                    session,
                    intensity: seq.scans[i].intensity.clone(),
                    priority: 0,
                    deadline: Duration::from_secs(120),
                })
                .expect("submit")
                .wait()
                .expect("outcome");
            (quantized_field_hash(out.field.data(), GOLDEN_QUANTUM_MM), out.warm)
        })
        .collect()
}

#[test]
fn shard_killed_mid_sequence_recovers_byte_exactly() {
    let (prepared, seq) = phantom_sequence(4);
    let n = seq.scans.len();
    let cut = n / 2;

    // Uninterrupted reference run.
    let baseline = Service::start(one_worker());
    let sid = baseline.open_session(Arc::clone(&prepared));
    let base_results = serve(&baseline, sid, &seq, 0, n);
    let base_script = baseline.script();
    baseline.shutdown();

    // Interrupted run: snapshot after `cut` scans, kill the shard,
    // restore on a fresh one, finish the sequence.
    let shard_a = Service::start(one_worker());
    let sid_a = shard_a.open_session(Arc::clone(&prepared));
    assert_eq!(sid_a, sid);
    let mut rec = serve(&shard_a, sid_a, &seq, 0, cut);
    let script_a = shard_a.script();
    let snapshot = shard_a.snapshot_shard().expect("snapshot");
    shard_a.shutdown();

    let mut prep_map = HashMap::new();
    prep_map.insert(sid_a, Arc::clone(&prepared));
    let shard_b = Service::restore_shard(one_worker(), &snapshot, &prep_map).expect("restore");
    assert_eq!(shard_b.session_count(), 1);
    let stats = shard_b.session_stats(sid_a).expect("restored session");
    assert_eq!(stats.completed, cut as u64, "session counters lost across restore");
    rec.extend(serve(&shard_b, sid_a, &seq, cut, n));
    let script_b = shard_b.script();
    shard_b.shutdown();

    // Byte-exact recovery: fields, warm/cold pattern, script tail.
    assert_eq!(
        rec.iter().map(|r| r.0).collect::<Vec<_>>(),
        base_results.iter().map(|r| r.0).collect::<Vec<_>>(),
        "displacement fields diverged across the crash boundary"
    );
    assert_eq!(
        rec.iter().map(|r| r.1).collect::<Vec<_>>(),
        base_results.iter().map(|r| r.1).collect::<Vec<_>>(),
        "warm/cold pattern diverged (context not migrated warm)"
    );
    assert!(rec[cut].1, "first post-restore scan ran cold");
    assert_eq!(
        format!("{script_a}{script_b}"),
        base_script,
        "event-log script tail diverged from the uninterrupted run"
    );
}

#[test]
fn corrupted_shard_snapshot_is_refused_with_typed_errors() {
    let (prepared, seq) = phantom_sequence(1);
    let service = Service::start(one_worker());
    let sid = service.open_session(Arc::clone(&prepared));
    serve(&service, sid, &seq, 0, 1);
    let snapshot = service.snapshot_shard().expect("snapshot");
    service.shutdown();
    let mut prep_map = HashMap::new();
    prep_map.insert(sid, Arc::clone(&prepared));

    // Clean bytes restore fine (control).
    Service::restore_shard(one_worker(), &snapshot, &prep_map)
        .expect("clean snapshot restores")
        .shutdown();

    // Damage at representative offsets: magic, version, table, payload
    // head/middle/tail. Every one must be a typed PersistError — never a
    // panic, never a partially restored service.
    let probes =
        [0usize, 9, 20, snapshot.len() / 2, snapshot.len() - 1, snapshot.len() * 3 / 4];
    for &at in &probes {
        let mut bad = snapshot.clone();
        bad[at] ^= 0x5A;
        let err = Service::restore_shard(one_worker(), &bad, &prep_map)
            .err()
            .unwrap_or_else(|| panic!("flipped byte {at} went undetected"));
        match err {
            PersistError::BadMagic { .. }
            | PersistError::UnsupportedVersion { .. }
            | PersistError::ChecksumMismatch { .. }
            | PersistError::Truncated { .. }
            | PersistError::InvalidData { .. } => {}
            other => panic!("byte {at}: unexpected error class {other:?}"),
        }
    }

    // A truncated snapshot (torn write) is refused too.
    let err = Service::restore_shard(one_worker(), &snapshot[..snapshot.len() / 3], &prep_map)
        .err()
        .expect("truncated snapshot must be refused");
    assert!(
        matches!(err, PersistError::Truncated { .. } | PersistError::ChecksumMismatch { .. }),
        "torn snapshot gave {err:?}"
    );

    // The wrong preparation for a persisted session is refused by the
    // mesh content fingerprint — a restored warm context can never be
    // paired with a mesh it was not assembled for.
    let (other_prepared, _) = {
        let seq = generate_scan_sequence(
            &PhantomConfig {
                dims: Dims::new(20, 20, 16),
                spacing: Spacing::iso(6.0),
                ..Default::default()
            },
            &BrainShiftConfig::default(),
            1,
            1,
        );
        let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
        (Arc::new(PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare")), seq)
    };
    let mut wrong = HashMap::new();
    wrong.insert(sid, other_prepared);
    let err = Service::restore_shard(one_worker(), &snapshot, &wrong)
        .err()
        .expect("mismatched preparation must be refused");
    assert!(matches!(err, PersistError::InvalidData { .. }), "got {err:?}");
}

#[test]
fn fleet_drains_and_rehomes_a_shard_with_sessions_warm() {
    let (prepared, seq) = phantom_sequence(2);
    let mut fleet = Fleet::start(FleetConfig {
        shards: 2,
        shard: ServiceConfig { workers: 1, ..Default::default() },
    });
    // Derive the session's shard from the returned fleet id.
    let fid = fleet.open_session(Arc::clone(&prepared));
    let shard = (fid % 2) as usize;

    let out = fleet
        .submit(ScanJob {
            session: fid,
            intensity: seq.scans[0].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(120),
        })
        .expect("submit")
        .wait()
        .expect("outcome");
    assert!(!out.warm, "first scan is necessarily cold");

    let bytes = fleet.snapshot_shard(shard).expect("fleet snapshot");
    let mut prep_map = HashMap::new();
    prep_map.insert(fid, Arc::clone(&prepared));
    let restored = fleet.restore_shard(shard, &bytes, &prep_map).expect("fleet restore");
    assert_eq!(restored, 1);

    // The old fleet id keeps routing; the migrated session resumes warm.
    let out2 = fleet
        .submit(ScanJob {
            session: fid,
            intensity: seq.scans[1].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(120),
        })
        .expect("submit after migration")
        .wait()
        .expect("outcome after migration");
    assert!(out2.warm, "migrated session lost its warm context");
    let stats = fleet.session_stats(fid).expect("stats after migration");
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.warm_starts, 1);

    // Wrong-shard preparations are refused before anything is replaced.
    let other_shard = 1 - shard;
    assert!(fleet.restore_shard(other_shard, &bytes, &prep_map).is_err());
    fleet.shutdown();
}

/// §15's session table is sorted by session id, each id once. A table
/// that repeats an id — checksum recomputed, so the container is intact
/// — is refused before any context is built or worker started, instead
/// of building two contexts and letting the second win.
#[test]
fn a_session_table_with_a_duplicate_id_is_refused() {
    let (prepared, _) = phantom_sequence(1);
    let service = Service::start(one_worker());
    let sid = service.open_session(Arc::clone(&prepared));
    let snapshot = service.snapshot_shard().expect("snapshot");
    service.shutdown();

    let reader = SnapshotReader::parse(&snapshot).expect("parses");
    let mut sessions: Vec<SessionSnapshot> = reader.section_value("shard.sessions").expect("sessions");
    let again: Vec<SessionSnapshot> = reader.section_value("shard.sessions").expect("sessions");
    sessions.extend(again);
    let mut meta = reader.section("shard.meta").expect("meta");
    let mut w = SnapshotWriter::new();
    w.section("shard.meta", meta.take(meta.remaining()).expect("meta bytes").to_vec());
    w.section_value("shard.sessions", &sessions).expect("encode sessions");
    let doctored = w.finish();

    let prep_map = HashMap::from([(sid, Arc::clone(&prepared))]);
    match Service::restore_shard(one_worker(), &doctored, &prep_map) {
        Err(PersistError::InvalidData { reason }) => {
            assert!(reason.contains(&format!("session {sid}")), "{reason}")
        }
        Err(other) => panic!("a duplicate session id gave {other:?}"),
        Ok(service) => {
            service.shutdown();
            panic!("a session table with a duplicate id restored");
        }
    }
}

/// Serve scans `[from, to)` of every session of `fleet`, one at a time.
fn serve_fleet(fleet: &Fleet, sessions: &[u64], seq: &ScanSequence, from: usize, to: usize) {
    for i in from..to {
        for &session in sessions {
            fleet
                .submit(ScanJob {
                    session,
                    intensity: seq.scans[i].intensity.clone(),
                    priority: 0,
                    deadline: Duration::from_secs(120),
                })
                .expect("submit")
                .wait()
                .expect("outcome");
        }
    }
}

/// A restored slot keeps the history of the shard it replaced: its
/// metrics and its shutdown log (rendered as its script) cover both
/// sides of the restore, exactly as for a fleet that was never
/// interrupted.
#[test]
fn a_fleet_restore_keeps_the_replaced_shards_history() {
    let (prepared, seq) = phantom_sequence(2);
    let cfg = FleetConfig { shards: 2, shard: ServiceConfig { workers: 1, ..Default::default() } };

    let uninterrupted = Fleet::start(cfg.clone());
    let sessions: Vec<u64> =
        (0..2).map(|_| uninterrupted.open_session(Arc::clone(&prepared))).collect();
    serve_fleet(&uninterrupted, &sessions, &seq, 0, 2);
    let want_metrics = uninterrupted.metrics_snapshot();
    let want_logs = uninterrupted.shutdown();

    let mut fleet = Fleet::start(cfg);
    let ids: Vec<u64> = (0..2).map(|_| fleet.open_session(Arc::clone(&prepared))).collect();
    assert_eq!(ids, sessions);
    serve_fleet(&fleet, &ids, &seq, 0, 1);
    let bytes = fleet.snapshot_shard(0).expect("snapshot");
    let on_shard_0: HashMap<u64, Arc<PreparedSurgery>> =
        ids.iter().filter(|&&id| id % 2 == 0).map(|&id| (id, Arc::clone(&prepared))).collect();
    assert_eq!(fleet.restore_shard(0, &bytes, &on_shard_0).expect("restore"), on_shard_0.len());
    serve_fleet(&fleet, &ids, &seq, 1, 2);

    let metrics = fleet.metrics_snapshot();
    for shard in 0..2 {
        let completed = format!("shard{shard}.service.jobs.completed");
        assert_eq!(metrics.counter(&completed), want_metrics.counter(&completed), "{completed}");
    }
    assert_eq!(metrics.counter("shard0.service.jobs.completed"), Some(2));

    let logs = fleet.shutdown();
    for (shard, (log, want)) in logs.iter().zip(&want_logs).enumerate() {
        let script = |events: &[Event]| events.iter().map(Event::script_line).collect::<Vec<_>>();
        assert_eq!(script(log), script(want), "shard {shard}'s shutdown log lost its history");
        // Every admitted job ends exactly once.
        for e in log {
            if let EventKind::Enqueue { job, .. } = e.kind {
                let ends = log
                    .iter()
                    .filter(|f| {
                        matches!(f.kind, EventKind::Complete { job: j, .. }
                            | EventKind::Cancel { job: j, .. } if j == job)
                    })
                    .count();
                assert_eq!(ends, 1, "shard {shard} job {job} ends {ends} times");
            }
        }
    }
}
