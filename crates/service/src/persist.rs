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
//! [`PreparedSurgery`](brainshift_core::PreparedSurgery) itself — that is
//! the immutable once-per-surgery preparation, rebuilt (or shared) by the
//! caller and handed to
//! [`Service::restore_shard`](crate::Service::restore_shard), which
//! verifies it against the persisted mesh content fingerprint and each
//! restored solver context's stiffness matrix before trusting the context
//! with it; an accepted context then shares the preparation's matrix.

use crate::session::SessionStats;
use brainshift_fem::SolverContext;
use brainshift_imaging::DisplacementField;
use brainshift_persist::{Decoder, Encoder, Persist, PersistError};

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
    /// The carry-forward field a degraded scan falls back to.
    pub carry_forward: Option<DisplacementField>,
    /// Lifetime counters.
    pub stats: SessionStats,
    /// The warm solver context, if it was resident in the cache at
    /// snapshot time (`None` = the session resumes cold, exactly as
    /// after an eviction).
    pub context: Option<SolverContext>,
}

impl Persist for SessionSnapshot {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u64(self.id);
        enc.put_usize(self.mesh_nodes);
        enc.put_usize(self.mesh_tets);
        enc.put_u64(self.mesh_content_fingerprint);
        self.carry_forward.encode(enc)?;
        self.stats.encode(enc)?;
        self.context.encode(enc)
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let id = dec.get_u64()?;
        let mesh_nodes = dec.get_usize()?;
        let mesh_tets = dec.get_usize()?;
        let mesh_content_fingerprint = dec.get_u64()?;
        let carry_forward = Option::<DisplacementField>::decode(dec)?;
        let stats = SessionStats::decode(dec)?;
        let context = Option::<SolverContext>::decode(dec)?;
        if let Some(ctx) = &context {
            if ctx.mesh_fingerprint() != mesh_content_fingerprint {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "SessionSnapshot {id}: context mesh fingerprint {:#x} does not match \
                         the session's {mesh_content_fingerprint:#x}",
                        ctx.mesh_fingerprint()
                    ),
                });
            }
        }
        Ok(SessionSnapshot {
            id,
            mesh_nodes,
            mesh_tets,
            mesh_content_fingerprint,
            carry_forward,
            stats,
            context,
        })
    }
}
