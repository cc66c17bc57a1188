//! Property tests of the persistence layer across the workspace: every
//! `Persist` codec must round-trip bitwise and re-encode canonically
//! (decode-then-encode reproduces the original bytes), and the
//! `memory_bytes()` accounting of a `SolverContext` must agree with what
//! its snapshot actually serializes.

use brainshift_core::{generate_scan_sequence, PipelineConfig, PreparedSurgery};
use brainshift_fem::{DirichletBcs, FemSolveConfig, MaterialTable, SolverContext};
use brainshift_imaging::phantom::{BrainShiftConfig, PhantomConfig};
use brainshift_imaging::volume::{Dims, Spacing, Volume};
use brainshift_imaging::{labels, Vec3};
use brainshift_mesh::{boundary_nodes, mesh_labeled_volume, MesherConfig, TetMesh};
use brainshift_persist::{from_bytes, to_bytes, PersistError, SnapshotReader, SnapshotWriter};
use brainshift_service::{Event, EventKind, EventLog, Rejected};
use brainshift_sparse::{CsrMatrix, SolverOptions, TripletBuilder};
use proptest::prelude::*;

fn block_mesh(n: usize) -> TetMesh {
    let seg = Volume::from_fn(Dims::new(n, n, n), Spacing::iso(1.0), |_, _, _| labels::BRAIN);
    mesh_labeled_volume(&seg, &MesherConfig { step: 1, include: labels::is_deformable })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR matrices round-trip bitwise and canonically across random
    /// sparsity patterns and values (including duplicate accumulation
    /// inside the builder).
    #[test]
    fn csr_round_trips_bitwise(
        n in 1usize..12,
        entries in prop::collection::vec(
            (0usize..12, 0usize..12, -1.0e6f64..1.0e6),
            0..64,
        ),
    ) {
        let mut b = TripletBuilder::new(n, n);
        for (r, c, v) in entries {
            b.add(r % n, c % n, v);
        }
        let m = b.build();
        let bytes = to_bytes(&m).expect("encode CSR");
        let back: CsrMatrix = from_bytes(&bytes).expect("decode CSR");
        prop_assert_eq!(back.nrows(), m.nrows());
        prop_assert_eq!(back.indptr(), m.indptr());
        prop_assert_eq!(back.indices(), m.indices());
        // Bitwise, not approximate: the codec stores f64 bit patterns.
        let vals: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        let back_vals: Vec<u64> = back.values().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_vals, vals);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        prop_assert_eq!(to_bytes(&back).expect("re-encode CSR"), bytes);
    }

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

/// A solved (warm-started, preconditioner-factored) `SolverContext`
/// round-trips bitwise: the restored context re-encodes to the same
/// bytes, and its next solve is bit-identical to the original's.
#[test]
fn solver_context_round_trips_and_solves_identically() {
    let mesh = block_mesh(4);
    let materials = MaterialTable::homogeneous();
    let surface = boundary_nodes(&mesh);
    let cfg = FemSolveConfig {
        options: SolverOptions { tolerance: 1e-9, max_iterations: 4000, ..Default::default() },
        ..Default::default()
    };
    let mut ctx =
        SolverContext::new(&mesh, &materials, &surface, cfg).expect("build solver context");
    let bcs_of = |ampl: f64| {
        let mut bcs = DirichletBcs::new();
        for &n in &surface {
            let p = mesh.nodes[n];
            bcs.set(n, Vec3::new(ampl * (0.7 * p.y).sin(), ampl * (0.9 * p.z).cos(), 0.05));
        }
        bcs
    };
    // Warm the context so prev_x / stats / timings are all non-trivial.
    ctx.solve(&bcs_of(0.2)).expect("warm-up solve");

    let bytes = to_bytes(&ctx).expect("encode context");
    let mut back: SolverContext = from_bytes(&bytes).expect("decode context");
    assert_eq!(to_bytes(&back).expect("re-encode context"), bytes, "codec is not canonical");
    assert_eq!(back.mesh_fingerprint(), ctx.mesh_fingerprint());
    assert_eq!(back.reduced_equations(), ctx.reduced_equations());

    // Same next solve, bit for bit — the restored warm-start state is
    // the original's.
    let a = ctx.solve(&bcs_of(0.35)).expect("original solve");
    let b = back.solve(&bcs_of(0.35)).expect("restored solve");
    assert_eq!(a.stats.iterations, b.stats.iterations);
    let ua: Vec<u64> =
        a.displacements.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect();
    let ub: Vec<u64> =
        b.displacements.iter().flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect();
    assert_eq!(ua, ub, "restored context solved differently");
}

/// Format v4 carries the default context's block-Jacobi IC(0) factors: a
/// snapshot of it decodes and resumes warm without re-factoring, and the
/// older stamps — v1 and v3 with ILU(0) factors, v2 with a solver tail
/// nothing reads — are refused as a whole rather than mis-parsed.
#[test]
fn v4_context_resumes_warm_and_older_versions_are_refused() {
    let mesh = block_mesh(4);
    let surface = boundary_nodes(&mesh);
    let mut ctx = SolverContext::new(
        &mesh,
        &MaterialTable::homogeneous(),
        &surface,
        FemSolveConfig::default(),
    )
    .expect("build solver context");
    let mut bcs = DirichletBcs::new();
    for &n in &surface {
        let p = mesh.nodes[n];
        bcs.set(n, Vec3::new(0.2 * (0.7 * p.y).sin(), 0.1 * (0.9 * p.z).cos(), 0.05));
    }
    assert!(ctx.solve(&bcs).expect("first scan").stats.converged());

    let mut w = SnapshotWriter::new();
    w.section_value("context", &ctx).expect("encode context");
    let mut bytes = w.finish();
    let reader = SnapshotReader::parse(&bytes).expect("v4 container parses");
    assert_eq!(reader.version(), 4);
    let mut back: SolverContext = reader.section_value("context").expect("v4 context decodes");
    let again = back.solve(&bcs).expect("repeated scan");
    assert!(again.stats.converged());
    assert_eq!(again.stats.iterations, 0, "restored warm start should satisfy the system");
    assert_eq!(back.stats().factorizations, 1, "restore must not re-factor");

    for old in [1u32, 2, 3] {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        let refused = SnapshotReader::parse(&bytes);
        assert!(
            matches!(refused, Err(PersistError::UnsupportedVersion { found, .. }) if found == old),
            "v{old}: {refused:?}"
        );
    }
}

/// `memory_bytes()` accounting audit: the serialized payload of a
/// context must match the accounted persistent footprint
/// (`memory_bytes − scratch_bytes`) within a small envelope — every
/// field the snapshot writes is a field the accounting counts.
#[test]
fn context_accounting_matches_encoded_size() {
    let seq = generate_scan_sequence(
        &PhantomConfig {
            dims: Dims::new(24, 24, 18),
            spacing: Spacing::iso(6.0),
            ..Default::default()
        },
        &BrainShiftConfig::default(),
        1,
        1,
    );
    let cfg = PipelineConfig { skip_rigid: true, ..Default::default() };
    let prepared = PreparedSurgery::new(&seq.reference.labels, cfg).expect("prepare");
    let ctx = prepared.build_solver_context().expect("build context");
    let encoded = to_bytes(&ctx).expect("encode").len();
    let accounted = ctx.memory_bytes() - ctx.scratch_bytes();
    let diff = encoded.abs_diff(accounted);
    // Envelope: codec framing (length prefixes, tags, config scalars)
    // on top of the accounted arrays — generous 5% + 4 KiB, far below
    // the size of any single forgotten array.
    assert!(
        diff <= accounted / 20 + 4096,
        "accounting drift: encoded {encoded} B vs accounted {accounted} B (diff {diff} B) — \
         a serialized field is missing from memory_bytes() or vice versa"
    );
}
