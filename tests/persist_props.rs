//! Properties of shard snapshots across the workspace: a restored shard
//! resumes its sessions bit-identically from their warm-start seeds and
//! snapshots back to the bytes it was restored from, a snapshot that
//! still carries the retired event-log section restores unchanged, and a
//! shard snapshot holds a seed where it used to hold a whole solver
//! context.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery, ScanSequence};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing};
use brainshift_persist::{Encoder, PersistError, SnapshotReader, SnapshotWriter, FORMAT_VERSION};
use brainshift_service::{JobOutcome, ScanJob, Service, ServiceConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

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

/// A solver context survives a shard snapshot: the restored shard
/// rebuilds the session's context and seeds it, a second snapshot is
/// the first one byte for byte, and the next scan is bit-identical to an
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
    // The snapshot holds only what a restore reads (id counters,
    // carry-forward, counters, context seed), so restore-then-snapshot
    // reproduces it byte for byte.
    let again = Service::restore_shard(cfg.clone(), &bytes, &preps).expect("restore");
    let resnap = again.snapshot_shard().expect("re-snapshot");
    again.shutdown();
    assert!(resnap == bytes, "restore-then-snapshot changed the snapshot");

    let restored = Service::restore_shard(cfg.clone(), &bytes, &preps).expect("restore");
    let next = scan(&restored, sid, &seq, 1);
    restored.shutdown();
    assert!(next.warm, "the restored session ran cold");
    assert!(field_bits(&next) == want, "the next scan after a restore differs from the uninterrupted run's");
}

/// A restored context resumes warm: a repeat of the last scan before the
/// snapshot solves in zero Krylov iterations. Snapshots stamped with an
/// older format — v5 kept an escalation counter and escalation events,
/// v4 carried whole contexts, v1–v3 their ILU(0) factors or a solver
/// tail nothing reads — are refused as a whole.
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

    // The version field sits right after the 8-byte magic.
    assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
    for old in [1u32, 2, 3, 4, 5] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        let refused = Service::restore_shard(cfg.clone(), &bytes, &preps).err();
        assert!(
            matches!(refused, Some(PersistError::UnsupportedVersion { found, .. }) if found == old),
            "v{old}: {refused:?}"
        );
    }
}

/// The same snapshot with the `shard.log` section that snapshots carried
/// before the event log left them, here one enqueue and a shutdown in
/// that section's layout.
fn with_a_parent_log_section(bytes: &[u8]) -> Vec<u8> {
    let reader = SnapshotReader::parse(bytes).expect("parses");
    let mut w = SnapshotWriter::new();
    for name in ["shard.meta", "shard.sessions"] {
        let mut section = reader.section(name).expect("section");
        let payload = section.take(section.remaining()).expect("payload").to_vec();
        w.section(name, payload);
    }
    let mut log = Encoder::new();
    log.put_bool(true); // wall-clock stamps
    log.put_usize(2); // events
    for (seq, tag) in [(0u64, 0u8), (1, 8)] {
        log.put_u64(seq);
        log.put_u64(100 * seq); // t_us
        log.put_u8(1);
        log.put_u64(1_700_000_000_000_000 + seq); // wall_unix_us
        log.put_usize(0); // queue depth
        log.put_u8(tag);
        if tag == 0 {
            // Enqueue: session, job, deadline, priority.
            [1u64, 0, 5_000].into_iter().for_each(|v| log.put_u64(v));
            log.put_u8(0);
        }
    }
    w.section("shard.log", log.into_bytes());
    w.finish()
}

/// A snapshot written while the event log was still in it restores like
/// one without: the reader never asks for `shard.log`, the session
/// resumes warm, and the next snapshot holds only what a restore reads.
#[test]
fn a_snapshot_with_a_parent_log_section_restores_warm() {
    let (prepared, seq) = phantom(1);
    let cfg = ServiceConfig { workers: 1, queue_capacity: 4, ..Default::default() };
    let (sid, bytes) = snapshot_after_one_scan(&cfg, &prepared, &seq);
    let preps = HashMap::from([(sid, Arc::clone(&prepared))]);
    let parent = with_a_parent_log_section(&bytes);
    assert!(SnapshotReader::parse(&parent).expect("parses").section("shard.log").is_ok());

    let restored = Service::restore_shard(cfg.clone(), &parent, &preps).expect("restore");
    let resnap = restored.snapshot_shard().expect("re-snapshot");
    restored.shutdown();
    assert!(resnap == bytes, "the restored shard's snapshot is not the log-free original");

    let restored = Service::restore_shard(cfg, &parent, &preps).expect("restore");
    let repeat = scan(&restored, sid, &seq, 0);
    restored.shutdown();
    assert!(repeat.warm, "the restored session ran cold");
    assert_eq!(repeat.fem_iterations, 0, "the restored seed does not solve the scan it came from");
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
    let seed = 8 * prepared.build_solver_context().expect("context").structure().num_free();
    const FRAMING: usize = 64;
    assert!(
        resident.len() <= evicted.len() + seed + FRAMING,
        "a resident context adds {} B to the snapshot, its seed is {seed} B",
        resident.len() as i64 - evicted.len() as i64
    );
    assert!(resident.len() + FRAMING >= evicted.len() + seed, "the seed is missing from the snapshot");
}
