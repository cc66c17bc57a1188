//! Per-surgery session state held by the service.
//!
//! A [`SurgerySession`] pairs the immutable once-per-surgery preparation
//! ([`PreparedSurgery`]: mesh, snapped boundary surface, tissue model)
//! with the small mutable state that survives between scans: the
//! carry-forward deformation field a degraded scan falls back to, and the
//! session's counters. The *heavy* mutable state — the warm
//! [`SolverContext`](brainshift_fem::SolverContext) — deliberately lives
//! outside the session, in the service's memory-budgeted cache, so that
//! evicting a context under memory pressure never loses session state:
//! the fingerprint, the carry-forward field, and the counters all stay.
//!
//! Jobs of one session are serialized by the scheduler (a session's
//! context is a single mutable resource), so the interior mutex is
//! uncontended in practice; it exists to make the type shareable across
//! the worker pool. Whether a session is open, mid-solve or backlogged is
//! scheduler state and lives in [`ShardCore`](crate::core::ShardCore),
//! not here.

use brainshift_core::PreparedSurgery;
use brainshift_imaging::DisplacementField;
use parking_lot::Mutex;
use std::sync::Arc;

/// Lifetime counters for one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Jobs that completed (any status).
    pub completed: u64,
    /// Jobs that needed at least one escalation rung.
    pub escalated: u64,
    /// Jobs that degraded to the carry-forward field.
    pub degraded: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Jobs whose solver context was served warm from the cache.
    pub warm_starts: u64,
}

impl brainshift_persist::Persist for SessionStats {
    fn encode(
        &self,
        enc: &mut brainshift_persist::Encoder,
    ) -> Result<(), brainshift_persist::PersistError> {
        enc.put_u64(self.completed);
        enc.put_u64(self.escalated);
        enc.put_u64(self.degraded);
        enc.put_u64(self.deadline_misses);
        enc.put_u64(self.warm_starts);
        Ok(())
    }

    fn decode(
        dec: &mut brainshift_persist::Decoder<'_>,
    ) -> Result<Self, brainshift_persist::PersistError> {
        Ok(SessionStats {
            completed: dec.get_u64()?,
            escalated: dec.get_u64()?,
            degraded: dec.get_u64()?,
            deadline_misses: dec.get_u64()?,
            warm_starts: dec.get_u64()?,
        })
    }
}

/// Mutable between-scan state.
pub(crate) struct SessionState {
    /// Field of the last successfully registered scan; a degraded scan
    /// returns this instead of a fresh solution. Shared, so a worker
    /// borrows it for a scan without copying it under the lock.
    pub carry_forward: Option<Arc<DisplacementField>>,
    pub stats: SessionStats,
}

/// One surgery the service is tracking.
pub struct SurgerySession {
    id: u64,
    /// Fingerprint of the session's mesh (node/element counts); a cached
    /// context is only trusted for a session with a matching fingerprint.
    fingerprint: MeshFingerprint,
    prepared: Arc<PreparedSurgery>,
    /// The sticky worker this session's jobs are enqueued on (see
    /// [`crate::dispatch::preferred_worker`]). Immutable for the life of
    /// the session — affinity is an open-time decision.
    preferred_worker: usize,
    pub(crate) state: Mutex<SessionState>,
}

/// Cheap structural identity of a session's mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshFingerprint {
    /// Mesh nodes.
    pub nodes: usize,
    /// Tetrahedral elements.
    pub tets: usize,
}

impl SurgerySession {
    pub(crate) fn new(id: u64, prepared: Arc<PreparedSurgery>, preferred_worker: usize) -> Self {
        Self::restore(id, prepared, preferred_worker, None, SessionStats::default())
    }

    /// Rebuild a session from persisted state: same id as at snapshot
    /// time (so the shard's id sequence — and therefore the event-log
    /// script tail — continues unbroken), with the carry-forward field
    /// and lifetime counters restored.
    pub(crate) fn restore(
        id: u64,
        prepared: Arc<PreparedSurgery>,
        preferred_worker: usize,
        carry_forward: Option<DisplacementField>,
        stats: SessionStats,
    ) -> Self {
        let fingerprint = MeshFingerprint {
            nodes: prepared.mesh().nodes.len(),
            tets: prepared.mesh().tets.len(),
        };
        SurgerySession {
            id,
            fingerprint,
            prepared,
            preferred_worker,
            state: Mutex::new(SessionState { carry_forward: carry_forward.map(Arc::new), stats }),
        }
    }

    /// The service-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The sticky worker this session's jobs are enqueued on.
    pub fn preferred_worker(&self) -> usize {
        self.preferred_worker
    }

    /// Structural identity of this session's mesh.
    pub fn fingerprint(&self) -> MeshFingerprint {
        self.fingerprint
    }

    /// The shared once-per-surgery preparation.
    pub fn prepared(&self) -> &Arc<PreparedSurgery> {
        &self.prepared
    }

    /// Counters so far.
    pub fn stats(&self) -> SessionStats {
        self.state.lock().stats
    }
}
