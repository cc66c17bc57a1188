//! Property tests of the persistence layer across the workspace: event
//! logs round-trip bitwise and re-encode canonically (decode-then-encode
//! reproduces the original bytes), a restored shard resumes its sessions
//! bit-identically from their warm-start seeds, and a shard snapshot
//! holds a seed where it used to hold a whole solver context.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_persist::{from_bytes, to_bytes, PersistError, SnapshotReader, FORMAT_VERSION};
use brainshift_service::{
    Event, EventKind, EventLog, JobOutcome, Rejected, ScanJob, Service, ServiceConfig,
    SessionSnapshot,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Event logs round-trip with byte-identical deterministic scripts
    /// across random event sequences.
    #[test]
    fn event_log_round_trips_bitwise(
        raw in prop::collection::vec(
            (0u8..9, 0u64..1000, 0u64..1000, 0u64..1_000_000, 0usize..64),
            0..40,
        ),
    ) {
        let log = EventLog::new();
        for (tag, session, job, t_us, depth) in raw {
            let kind = match tag {
                0 => EventKind::Enqueue {
                    session,
                    job,
                    deadline_us: t_us + 500,
                    priority: (job % 4) as u8,
                },
                1 => EventKind::Reject {
                    session,
                    reason: match job % 5 {
                        0 => Rejected::QueueFull { capacity: depth },
                        1 => Rejected::DeadlineInfeasible,
                        2 => Rejected::ShuttingDown,
                        3 => Rejected::UnknownSession { session },
                        _ => Rejected::SessionBacklogFull { session },
                    },
                },
                2 => EventKind::Start {
                    session,
                    job,
                    warm: job % 2 == 0,
                    worker: depth % 4,
                    stolen: job % 3 == 0,
                },
                3 => EventKind::Escalate {
                    session,
                    job,
                    attempts: 1 + depth % 3,
                    reasons: vec![
                        brainshift_sparse::StopReason::MaxIterations,
                        brainshift_sparse::StopReason::Converged,
                    ],
                },
                4 => EventKind::Degrade {
                    session,
                    job,
                    reasons: vec![brainshift_sparse::StopReason::TimeBudget],
                },
                5 => EventKind::Evict { session, freed_bytes: depth * 1024 },
                6 => EventKind::Cancel { session, job },
                7 => EventKind::Complete { session, job, missed_deadline: job % 2 == 1 },
                _ => EventKind::Shutdown,
            };
            log.record(t_us, depth, kind);
        }
        let bytes = to_bytes(&log).expect("encode log");
        let back: EventLog = from_bytes(&bytes).expect("decode log");
        prop_assert_eq!(back.script(), log.script());
        let (a, b): (Vec<Event>, Vec<Event>) = (back.snapshot(), log.snapshot());
        prop_assert_eq!(a, b);
        prop_assert_eq!(to_bytes(&back).expect("re-encode log"), bytes);
    }
}

/// A 24×24×18 phantom surgery (6 mm voxels) and its scan sequence.
fn phantom(scans: usize) -> (Arc<PreparedSurgery>, ScanSequence) {
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

fn scan(service: &Service, session: u64, seq: &ScanSequence, i: usize) -> JobOutcome {
    service
        .submit(ScanJob {
            session,
            intensity: seq.scans[i].intensity.clone(),
            priority: 0,
            deadline: Duration::from_secs(120),
        })
        .expect("submit")
        .wait()
        .expect("outcome")
}

fn field_bits(out: &JobOutcome) -> Vec<u64> {
    out.field.data().iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

/// Snapshot a one-session shard after scan 0 under `cfg`.
fn snapshot_after_one_scan(
    cfg: &ServiceConfig,
    prepared: &Arc<PreparedSurgery>,
    seq: &ScanSequence,
) -> (u64, Vec<u8>) {
    let service = Service::start(cfg.clone());
    let sid = service.open_session(Arc::clone(prepared));
    scan(&service, sid, seq, 0);
    let bytes = service.snapshot_shard().expect("snapshot");
    service.shutdown();
    (sid, bytes)
}

/// The canonical re-encoding of a shard snapshot's session table.
fn sessions_bytes(snapshot: &[u8]) -> Vec<u8> {
    let reader = SnapshotReader::parse(snapshot).expect("parses");
    let sessions: Vec<SessionSnapshot> = reader.section_value("shard.sessions").expect("sessions");
    to_bytes(&sessions).expect("re-encode sessions")
}

/// A solver context survives a shard snapshot: the restored shard
/// rebuilds the session's context and seeds it, a second snapshot holds
/// the same session table, and the next scan is bit-identical to an
/// uninterrupted run's.
#[test]
fn solver_context_round_trips_and_solves_identically() {
    let (prepared, seq) = phantom(2);
    let cfg = ServiceConfig { workers: 1, queue_capacity: 4, ..Default::default() };

    let uninterrupted = Service::start(cfg.clone());
    let sid = uninterrupted.open_session(Arc::clone(&prepared));
    scan(&uninterrupted, sid, &seq, 0);
    let want = field_bits(&scan(&uninterrupted, sid, &seq, 1));
    uninterrupted.shutdown();

    let (sid_a, bytes) = snapshot_after_one_scan(&cfg, &prepared, &seq);
    assert_eq!(sid_a, sid);
    let preps = HashMap::from([(sid, Arc::clone(&prepared))]);
    // The session table (carry-forward, counters, context seed) survives
    // restore-then-snapshot byte for byte; the event log restarts.
    let again = Service::restore_shard(cfg.clone(), &bytes, &preps).expect("restore");
    let resnap = again.snapshot_shard().expect("re-snapshot");
    again.shutdown();
    assert_eq!(sessions_bytes(&resnap), sessions_bytes(&bytes), "the session table did not round-trip");

    let restored = Service::restore_shard(cfg.clone(), &bytes, &preps).expect("restore");
    let next = scan(&restored, sid, &seq, 1);
    restored.shutdown();
    assert!(next.warm, "the restored session ran cold");
    assert!(field_bits(&next) == want, "the next scan after a restore differs from the uninterrupted run's");
}

/// A restored context resumes warm: a repeat of the last scan before the
/// snapshot solves in zero Krylov iterations. Snapshots stamped with an
/// older format — v4 carried whole contexts, v1–v3 their ILU(0) factors
/// or a solver tail nothing reads — are refused as a whole.
#[test]
fn v4_context_resumes_warm_and_older_versions_are_refused() {
    let (prepared, seq) = phantom(1);
    let cfg = ServiceConfig { workers: 1, queue_capacity: 4, ..Default::default() };
    let (sid, mut bytes) = snapshot_after_one_scan(&cfg, &prepared, &seq);
    let preps = HashMap::from([(sid, Arc::clone(&prepared))]);

    let restored = Service::restore_shard(cfg.clone(), &bytes, &preps).expect("restore");
    let repeat = scan(&restored, sid, &seq, 0);
    restored.shutdown();
    assert!(repeat.warm, "the restored session ran cold");
    assert_eq!(repeat.fem_iterations, 0, "the restored seed does not solve the scan it came from");

    assert_eq!(SnapshotReader::parse(&bytes).expect("parses").version(), FORMAT_VERSION);
    for old in [1u32, 2, 3, 4] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        let refused = Service::restore_shard(cfg.clone(), &bytes, &preps).err();
        assert!(
            matches!(refused, Some(PersistError::UnsupportedVersion { found, .. }) if found == old),
            "v{old}: {refused:?}"
        );
    }
}

/// Size audit: a resident context adds its warm-start seed (8 bytes per
/// reduced unknown) and a few bytes of framing to a shard snapshot, and
/// nothing else — no stiffness matrix, reduced blocks or factors.
#[test]
fn a_resident_context_adds_only_its_seed_to_a_shard_snapshot() {
    let (prepared, seq) = phantom(1);
    let cfg = ServiceConfig { workers: 1, queue_capacity: 4, ..Default::default() };
    let evicting = ServiceConfig { memory_budget_bytes: 1, ..cfg.clone() };
    let (_, resident) = snapshot_after_one_scan(&cfg, &prepared, &seq);
    let (_, evicted) = snapshot_after_one_scan(&evicting, &prepared, &seq);
    let seed = 8 * prepared.build_solver_context().expect("context").reduced_equations();
    const FRAMING: usize = 64;
    assert!(
        resident.len() <= evicted.len() + seed + FRAMING,
        "a resident context adds {} B to the snapshot, its seed is {seed} B",
        resident.len() as i64 - evicted.len() as i64
    );
    assert!(resident.len() + FRAMING >= evicted.len() + seed, "the seed is missing from the snapshot");
}
