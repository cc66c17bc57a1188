//! Shard snapshot format: what one quiesced [`Service`](crate::Service)
//! writes so a replacement shard can resume its sessions *warm*.
//!
//! A shard snapshot is a [`brainshift_persist::SnapshotWriter`] container
//! with three sections:
//!
//! | section          | payload                                        |
//! |------------------|------------------------------------------------|
//! | `shard.meta`     | id counters (`next_session`, `next_job`)       |
//! | `shard.sessions` | `Vec<SessionSnapshot>`, sorted by session id   |
//! | `shard.log`      | the full [`EventLog`](crate::EventLog)         |
//!
//! The id counters are what make recovery *observably seamless*: a
//! restored shard hands out the same job ids the dead shard would have,
//! so the event-log script of (pre-crash tail + post-restore run) is
//! byte-identical to an uninterrupted run's.
//!
//! The snapshot deliberately does **not** carry the
//! [`PreparedSurgery`] itself — that is the immutable once-per-surgery
//! preparation, rebuilt (or shared) by the caller and handed to
//! [`Service::restore_shard`](crate::Service::restore_shard) — nor any
//! solver context. A context is a pure function of the surgery's one `K`
//! plus its warm-start seed, so a session keeps only the seed and a
//! fingerprint of the `K` it was taken under; a restore checks the
//! preparation against both fingerprints (mesh and stiffness) and builds
//! the context the way a cache miss does, then seeds it. This module is
//! the only place that knows what a session looks like on disk.

use crate::session::SessionStats;
use brainshift_core::PreparedSurgery;
use brainshift_fem::SolverContext;
use brainshift_imaging::DisplacementField;
use brainshift_persist::{Decoder, Encoder, Persist, PersistError};
use brainshift_sparse::CsrMatrix;

/// Section name of the shard id counters.
pub(crate) const SEC_META: &str = "shard.meta";
/// Section name of the serialized sessions.
pub(crate) const SEC_SESSIONS: &str = "shard.sessions";
/// Section name of the serialized event log.
pub(crate) const SEC_LOG: &str = "shard.log";

/// Everything one session needs to resume on a fresh shard.
pub struct SessionSnapshot {
    /// Shard-local session id (preserved across restore).
    pub id: u64,
    /// Node count of the session's mesh (structural fingerprint half).
    pub mesh_nodes: usize,
    /// Tet count of the session's mesh (structural fingerprint half).
    pub mesh_tets: usize,
    /// Content fingerprint ([`brainshift_mesh::TetMesh::fingerprint`]) of
    /// the mesh at snapshot time; restore refuses a prepared surgery
    /// whose mesh hashes differently.
    pub mesh_content_fingerprint: u64,
    /// FNV-1a fingerprint of the surgery's stiffness matrix `K` (shape,
    /// sparsity pattern and value bits) at snapshot time; restore refuses
    /// a prepared surgery whose `K` hashes differently — same mesh under
    /// another material table — whether or not a context was resident.
    pub stiffness_fingerprint: u64,
    /// The carry-forward field a degraded scan falls back to.
    pub carry_forward: Option<DisplacementField>,
    /// Lifetime counters.
    pub stats: SessionStats,
    /// Whether the session's solver context was resident in the cache at
    /// snapshot time. A restore rebuilds it; `false` resumes the session
    /// cold, exactly as after an eviction.
    pub context_resident: bool,
    /// The resident context's warm-start seed
    /// ([`SolverContext::warm_seed`]); `None` when it had not converged
    /// yet (or no context was resident).
    pub warm_seed: Option<Vec<f64>>,
}

impl SessionSnapshot {
    /// The snapshot of session `id` of `prepared`, whose resident context
    /// (if any) is `context`.
    pub(crate) fn capture(
        id: u64,
        prepared: &PreparedSurgery,
        carry_forward: Option<DisplacementField>,
        stats: SessionStats,
        context: Option<&SolverContext>,
    ) -> Self {
        let mesh = prepared.mesh();
        SessionSnapshot {
            id,
            mesh_nodes: mesh.nodes.len(),
            mesh_tets: mesh.tets.len(),
            mesh_content_fingerprint: mesh.fingerprint(),
            stiffness_fingerprint: stiffness_fingerprint(prepared.stiffness()),
            carry_forward,
            stats,
            context_resident: context.is_some(),
            warm_seed: context.and_then(|c| c.warm_seed()).map(<[f64]>::to_vec),
        }
    }

    /// Check `prepared` against this snapshot — mesh shape, mesh content
    /// and stiffness matrix — and, when a context was resident, build one
    /// on the surgery's `K` as a cache miss would and seed it. Every
    /// mismatch or failed build is [`PersistError::InvalidData`] naming
    /// the session.
    pub(crate) fn restore_context(
        &self,
        prepared: &PreparedSurgery,
    ) -> Result<Option<SolverContext>, PersistError> {
        let id = self.id;
        let invalid = |reason: String| PersistError::InvalidData {
            reason: format!("session {id}: {reason}"),
        };
        let mesh = prepared.mesh();
        if mesh.nodes.len() != self.mesh_nodes || mesh.tets.len() != self.mesh_tets {
            return Err(invalid(format!(
                "prepared mesh is {}n/{}t, snapshot expects {}n/{}t",
                mesh.nodes.len(),
                mesh.tets.len(),
                self.mesh_nodes,
                self.mesh_tets
            )));
        }
        let fp = mesh.fingerprint();
        if fp != self.mesh_content_fingerprint {
            return Err(invalid(format!(
                "prepared mesh fingerprint {fp:#x} does not match snapshot's {:#x}",
                self.mesh_content_fingerprint
            )));
        }
        // Same mesh is not enough: a surgery prepared under another
        // material table has another `K`, and the carry-forward field and
        // the seed are solutions of the old one.
        let fp = stiffness_fingerprint(prepared.stiffness());
        if fp != self.stiffness_fingerprint {
            return Err(invalid(format!(
                "prepared stiffness matrix fingerprint {fp:#x} does not match snapshot's {:#x}",
                self.stiffness_fingerprint
            )));
        }
        if !self.context_resident {
            return Ok(None);
        }
        let mut ctx = prepared
            .build_solver_context()
            .map_err(|e| invalid(format!("rebuilding the solver context failed: {e}")))?;
        if let Some(seed) = &self.warm_seed {
            ctx.set_warm_seed(seed)
                .map_err(|e| invalid(e.to_string()))?;
        }
        Ok(Some(ctx))
    }
}

/// FNV-1a over `K`'s shape, row pointers, column indices and value bits
/// (the [`brainshift_mesh::TetMesh::fingerprint`] idiom): two matrices
/// that differ in any of them hash apart, barring a 64-bit collision.
fn stiffness_fingerprint(k: &CsrMatrix) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    mix(k.nrows() as u64);
    mix(k.ncols() as u64);
    k.indptr()
        .iter()
        .chain(k.indices())
        .for_each(|&i| mix(i as u64));
    k.values().iter().for_each(|v| mix(v.to_bits()));
    h
}

impl Persist for SessionSnapshot {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u64(self.id);
        enc.put_usize(self.mesh_nodes);
        enc.put_usize(self.mesh_tets);
        enc.put_u64(self.mesh_content_fingerprint);
        enc.put_u64(self.stiffness_fingerprint);
        self.carry_forward.encode(enc)?;
        self.stats.encode(enc)?;
        enc.put_bool(self.context_resident);
        self.warm_seed.encode(enc)
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let snap = SessionSnapshot {
            id: dec.get_u64()?,
            mesh_nodes: dec.get_usize()?,
            mesh_tets: dec.get_usize()?,
            mesh_content_fingerprint: dec.get_u64()?,
            stiffness_fingerprint: dec.get_u64()?,
            carry_forward: Option::<DisplacementField>::decode(dec)?,
            stats: SessionStats::decode(dec)?,
            context_resident: dec.get_bool()?,
            warm_seed: Option::<Vec<f64>>::decode(dec)?,
        };
        if snap.warm_seed.is_some() && !snap.context_resident {
            return Err(PersistError::InvalidData {
                reason: format!(
                    "SessionSnapshot {}: a warm-start seed without a resident context",
                    snap.id
                ),
            });
        }
        Ok(snap)
    }
}
