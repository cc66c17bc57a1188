//! Shard snapshot format: what one quiesced [`Service`](crate::Service)
//! writes so a replacement shard can resume its sessions *warm*.
//!
//! A shard snapshot is a [`brainshift_persist::SnapshotWriter`] container
//! with two sections:
//!
//! | section          | payload                                        |
//! |------------------|------------------------------------------------|
//! | `shard.meta`     | id counters (`next_session`, `next_job`)       |
//! | `shard.sessions` | `Vec<SessionSnapshot>`, sorted by session id   |
//!
//! The id counters are what make recovery *observably seamless*: a
//! restored shard hands out the same job ids the dead shard would have,
//! so the event-log script of (pre-crash tail + post-restore run) is
//! byte-identical to an uninterrupted run's. The event log itself is not
//! in the snapshot: the caller already holds it (a
//! [`Fleet`](crate::Fleet) keeps a replaced shard's history in its slot),
//! and a restore reads nothing else. Snapshots written before the log
//! was dropped still carry a `shard.log` section; readers look sections
//! up by name, so it is ignored.
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
//! the only place outside the persist crate that knows how anything
//! looks on disk.

use crate::session::SessionStats;
use brainshift_core::PreparedSurgery;
use brainshift_fem::SolverContext;
use brainshift_imaging::{Dims, DisplacementField, Spacing, Vec3};
use brainshift_persist::{Decoder, Encoder, Persist, PersistError};
use brainshift_sparse::CsrMatrix;

/// Section name of the shard id counters.
pub(crate) const SEC_META: &str = "shard.meta";
/// Section name of the serialized sessions.
pub(crate) const SEC_SESSIONS: &str = "shard.sessions";

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
        match &self.carry_forward {
            None => enc.put_u8(0),
            Some(field) => {
                enc.put_u8(1);
                put_field(enc, field);
            }
        }
        let s = &self.stats;
        for v in [s.completed, s.degraded, s.deadline_misses, s.warm_starts] {
            enc.put_u64(v);
        }
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
            carry_forward: match dec.get_u8()? {
                0 => None,
                1 => Some(get_field(dec)?),
                t => {
                    return Err(PersistError::InvalidData {
                        reason: format!("invalid Option tag {t}"),
                    })
                }
            },
            stats: SessionStats {
                completed: dec.get_u64()?,
                degraded: dec.get_u64()?,
                deadline_misses: dec.get_u64()?,
                warm_starts: dec.get_u64()?,
            },
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

/// A displacement field: dims (three `usize`), spacing (three `f64`),
/// then the samples as a length-prefixed run of `(x, y, z)` triples.
fn put_field(enc: &mut Encoder, field: &DisplacementField) {
    let (d, s) = (field.dims(), field.spacing());
    for n in [d.nx, d.ny, d.nz] {
        enc.put_usize(n);
    }
    for h in [s.dx, s.dy, s.dz] {
        enc.put_f64(h);
    }
    enc.put_usize(field.data().len());
    for c in field.data().iter().flat_map(|v| [v.x, v.y, v.z]) {
        enc.put_f64(c);
    }
}

/// The inverse of [`put_field`]. A sample count beyond the remaining
/// input is refused before anything is allocated for it, and one that
/// does not match the dims is [`PersistError::InvalidData`].
fn get_field(dec: &mut Decoder<'_>) -> Result<DisplacementField, PersistError> {
    let dims = Dims::new(dec.get_usize()?, dec.get_usize()?, dec.get_usize()?);
    let spacing = Spacing::new(dec.get_f64()?, dec.get_f64()?, dec.get_f64()?);
    let len = dec.get_usize()?;
    if len > dec.remaining() {
        return Err(PersistError::Truncated { needed: len, remaining: dec.remaining() });
    }
    if dims.nx.checked_mul(dims.ny).and_then(|n| n.checked_mul(dims.nz)) != Some(len) {
        return Err(PersistError::InvalidData {
            reason: format!("field has {len} samples for dims {dims:?}"),
        });
    }
    let mut field = DisplacementField::zeros(dims, spacing);
    for v in field.data_mut() {
        *v = Vec3::new(dec.get_f64()?, dec.get_f64()?, dec.get_f64()?);
    }
    Ok(field)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode one value from a standalone buffer, which it must consume
    /// fully: the inverse of `to_bytes`.
    fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, PersistError> {
        let mut dec = Decoder::new(bytes);
        let v = T::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }

    /// A session with a 2×2×2 carry-forward field and a 3-entry seed.
    fn hand_built() -> SessionSnapshot {
        SessionSnapshot {
            id: 3,
            mesh_nodes: 10,
            mesh_tets: 24,
            mesh_content_fingerprint: 0x0123_4567_89ab_cdef,
            stiffness_fingerprint: 0xfedc_ba98_7654_3210,
            carry_forward: Some(DisplacementField::from_fn(
                Dims::new(2, 2, 2),
                Spacing::new(1.0, 1.5, 2.0),
                |x, y, z| Vec3::new(x as f64, -0.5 * y as f64, 0.25 * (x + y + z) as f64),
            )),
            stats: SessionStats { completed: 4, degraded: 1, deadline_misses: 2, warm_starts: 3 },
            context_resident: true,
            warm_seed: Some(vec![1.0, -2.5, 1e-300]),
        }
    }

    /// Format v6 fixes a session's byte layout: a hand-built session
    /// encodes to pinned bytes, which decode back to themselves.
    #[test]
    fn the_session_layout_is_pinned() {
        let bytes = brainshift_persist::to_bytes(&hand_built()).expect("encode");
        assert_eq!(bytes.len(), 355);
        assert_eq!(brainshift_persist::fnv1a(&bytes), 0x734f_feaa_29e0_42b5);
        let back: SessionSnapshot = from_bytes(&bytes).expect("decode");
        assert_eq!(brainshift_persist::to_bytes(&back).expect("re-encode"), bytes);
    }

    /// A field whose sample count disagrees with its dims, or exceeds
    /// the input, is refused with a typed error.
    #[test]
    fn a_field_of_the_wrong_length_is_refused() {
        let bytes = brainshift_persist::to_bytes(&hand_built()).expect("encode");
        // The field's dims start after five 8-byte header fields and the
        // Option tag; its sample count follows dims and spacing.
        let (dims_at, len_at) = (41, 41 + 48);
        let mut wrong_dims = bytes.clone();
        wrong_dims[dims_at] = 3;
        let r = from_bytes::<SessionSnapshot>(&wrong_dims);
        assert!(matches!(r, Err(PersistError::InvalidData { .. })), "{:?}", r.err());
        let mut lying = bytes;
        lying[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = from_bytes::<SessionSnapshot>(&lying);
        assert!(matches!(r, Err(PersistError::Truncated { .. })), "{:?}", r.err());
    }
}
