//! A sharded fleet of [`Service`]s, each session placed on one shard.
//!
//! One [`Service`] scales to the cores of one worker pool, but its
//! scheduler lock, event log, and context cache are still single
//! instances — and a deployment serving many operating rooms wants
//! blast-radius isolation as much as throughput. The [`Fleet`] runs N
//! independent shards (separate worker pools, queues, caches, logs) and
//! routes every session to exactly one shard for its whole life:
//!
//! * [`Fleet::open_session`] picks the **least-loaded** shard (fewest
//!   sessions opened on it, ties to the lowest index), never migrating a
//!   live session (its warm context must stay put). The fleet closes no
//!   session: its sessions end at [`Fleet::shutdown`].
//!
//! Fleet-wide ids encode the shard so every handle is self-routing:
//! `fleet_id = local_id * shards + shard`. Metrics merge each shard's
//! registry under a `shard{i}.` prefix ([`Snapshot::prefixed`]), so one
//! `brainshift.obs.v1` document carries per-shard cache hit rates next
//! to fleet totals.
//!
//! A slot outlives the shards in it: when [`Fleet::restore_shard`]
//! replaces one, the slot keeps the displaced shard's events and final
//! metrics, so its metrics and the logs [`Fleet::shutdown`] returns
//! cover both sides of the restore.

use crate::error::{Rejected, ServiceError};
use crate::events::{Event, EventKind};
use crate::service::{JobOutcome, JobTicket, ScanJob, Service, ServiceConfig};
use crate::session::SessionStats;
use crate::CacheStats;
use brainshift_core::PreparedSurgery;
use brainshift_obs::Snapshot;
use brainshift_persist::PersistError;
use parking_lot::Mutex;
use std::sync::Arc;

/// Fleet-level knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of independent service shards.
    pub shards: usize,
    /// Configuration applied to every shard (worker pool, queue, cache
    /// budget — each shard gets its own full allotment).
    pub shard: ServiceConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { shards: 2, shard: ServiceConfig::default() }
    }
}

/// Encode a shard-local id as a fleet-wide self-routing id.
fn encode(local: u64, shard: usize, shards: usize) -> u64 {
    local * shards as u64 + shard as u64
}

/// Decode a fleet-wide id back to `(local, shard)`.
fn decode(fleet_id: u64, shards: usize) -> (u64, usize) {
    (fleet_id / shards as u64, (fleet_id % shards as u64) as usize)
}

/// The least-loaded shard: fewest live sessions, ties to the lowest
/// index (deterministic).
fn least_loaded(live: &[usize]) -> usize {
    let mut best = 0usize;
    for (i, &n) in live.iter().enumerate().skip(1) {
        if n < live[best] {
            best = i;
        }
    }
    best
}

/// Handle to one job admitted through the fleet; resolves with
/// fleet-wide session/job ids (the shard-local ids are remapped).
pub struct FleetTicket {
    inner: JobTicket,
    shard: usize,
    shards: usize,
}

impl FleetTicket {
    /// The fleet-wide job id.
    pub fn id(&self) -> u64 {
        encode(self.inner.id(), self.shard, self.shards)
    }

    /// The shard executing the job.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Block until the job resolves (see [`JobTicket::wait`]).
    pub fn wait(self) -> Result<JobOutcome, ServiceError> {
        let FleetTicket { inner, shard, shards } = self;
        remap(inner.wait(), shard, shards)
    }
}

/// Rewrite a shard-local result's ids as fleet-wide ids.
fn remap(
    r: Result<JobOutcome, ServiceError>,
    shard: usize,
    shards: usize,
) -> Result<JobOutcome, ServiceError> {
    match r {
        Ok(mut o) => {
            o.session = encode(o.session, shard, shards);
            o.job = encode(o.job, shard, shards);
            Ok(o)
        }
        Err(ServiceError::Cancelled { job }) => {
            Err(ServiceError::Cancelled { job: encode(job, shard, shards) })
        }
        Err(e) => Err(e),
    }
}

/// What a slot kept of the shards [`Fleet::restore_shard`] replaced in
/// it: their events, oldest first, and their final metrics, merged.
#[derive(Default)]
struct History {
    events: Vec<Event>,
    metrics: Snapshot,
}

/// N independent [`Service`] shards, each session placed on the
/// least-loaded one at open.
pub struct Fleet {
    shards: Vec<Service>,
    /// Per slot, what came before its current shard.
    history: Vec<History>,
    /// Sessions per shard — the least-loaded placement signal (a
    /// restored shard starts at the sessions its snapshot holds).
    live: Mutex<Vec<usize>>,
    /// Per-shard configuration, kept so a drained shard can be rebuilt
    /// identically by [`Fleet::restore_shard`].
    shard_cfg: ServiceConfig,
}

impl Fleet {
    /// Start every shard's worker pool.
    pub fn start(cfg: FleetConfig) -> Self {
        let n = cfg.shards.max(1);
        Fleet {
            shards: (0..n).map(|_| Service::start(cfg.shard.clone())).collect(),
            history: (0..n).map(|_| History::default()).collect(),
            live: Mutex::new(vec![0; n]),
            shard_cfg: cfg.shard,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Open a session on the least-loaded shard; returns a fleet-wide
    /// session id that routes all subsequent calls.
    pub fn open_session(&self, prepared: Arc<PreparedSurgery>) -> u64 {
        let shard = {
            let mut live = self.live.lock();
            let s = least_loaded(&live);
            live[s] += 1;
            s
        };
        encode(self.shards[shard].open_session(prepared), shard, self.shards.len())
    }

    /// Submit a scan job; `job.session` must be a fleet-wide session id.
    /// Rejections carry fleet-wide ids too.
    pub fn submit(&self, mut job: ScanJob) -> Result<FleetTicket, Rejected> {
        let shards = self.shards.len();
        let (local, shard) = decode(job.session, shards);
        job.session = local;
        match self.shards[shard].submit(job) {
            Ok(inner) => Ok(FleetTicket { inner, shard, shards }),
            Err(Rejected::UnknownSession { session }) => {
                Err(Rejected::UnknownSession { session: encode(session, shard, shards) })
            }
            Err(Rejected::SessionBacklogFull { session }) => {
                Err(Rejected::SessionBacklogFull { session: encode(session, shard, shards) })
            }
            Err(e) => Err(e),
        }
    }

    /// Counters of one fleet session, if it exists.
    pub fn session_stats(&self, fleet_session: u64) -> Option<SessionStats> {
        let (local, shard) = decode(fleet_session, self.shards.len());
        self.shards[shard].session_stats(local)
    }

    /// Cache counters per shard, indexed by shard id.
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Service::cache_stats).collect()
    }

    /// All shard registries merged into one snapshot, each under a
    /// `shard{i}.` prefix — one `brainshift.obs.v1` document for the
    /// whole fleet. A slot's metrics include the shards it replaced:
    /// counters and histograms add, gauges keep their maximum.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let parts: Vec<Snapshot> = self
            .shards
            .iter()
            .zip(&self.history)
            .enumerate()
            .map(|(i, (s, h))| {
                Snapshot::merged([&h.metrics, &s.metrics_snapshot()]).prefixed(&format!("shard{i}"))
            })
            .collect();
        Snapshot::merged(parts.iter())
    }

    /// Quiesce one shard (stop its admission, finish its in-flight jobs)
    /// and serialize its sessions, warm-start seeds and id counters (see
    /// [`Service::snapshot_shard`]). Terminal for the shard:
    /// follow with [`Fleet::restore_shard`] to bring a replacement up in
    /// its slot. Sessions of other shards are untouched — the blast
    /// radius of one shard.
    pub fn snapshot_shard(&self, shard: usize) -> Result<Vec<u8>, PersistError> {
        let Some(s) = self.shards.get(shard) else {
            return Err(PersistError::InvalidData {
                reason: format!("fleet has {} shards, no shard {shard}", self.shards.len()),
            });
        };
        s.snapshot_shard()
    }

    /// Replace a drained shard with one restored from snapshot bytes.
    /// `prepared` is keyed by **fleet-wide** session ids (what
    /// [`Fleet::open_session`] handed out); each id must route to
    /// `shard`, and each preparation is verified against the snapshot's
    /// mesh fingerprints. The fresh shard takes the old one's slot, so
    /// every pre-snapshot fleet id keeps routing correctly — the
    /// migrated sessions come back warm under their old handles. The
    /// displaced shard is shut down (its queues were already drained by
    /// the snapshot's quiesce) and the slot keeps its events, all but
    /// the final `Shutdown`, and its metrics. Returns the number of
    /// restored sessions.
    pub fn restore_shard(
        &mut self,
        shard: usize,
        bytes: &[u8],
        prepared: &std::collections::HashMap<u64, Arc<PreparedSurgery>>,
    ) -> Result<usize, PersistError> {
        let shards = self.shards.len();
        if shard >= shards {
            return Err(PersistError::InvalidData {
                reason: format!("fleet has {shards} shards, no shard {shard}"),
            });
        }
        let mut local = std::collections::HashMap::with_capacity(prepared.len());
        for (&fleet_id, prep) in prepared {
            let (id, s) = decode(fleet_id, shards);
            if s != shard {
                return Err(PersistError::InvalidData {
                    reason: format!("fleet session {fleet_id} routes to shard {s}, not {shard}"),
                });
            }
            local.insert(id, Arc::clone(prep));
        }
        let fresh = Service::restore_shard(self.shard_cfg.clone(), bytes, &local)?;
        let count = fresh.session_count();
        let old = std::mem::replace(&mut self.shards[shard], fresh);
        let (mut events, metrics) = old.retire();
        // The slot lives on in the fresh shard: its history does not end.
        if events.last().is_some_and(|e| e.kind == EventKind::Shutdown) {
            events.pop();
        }
        let history = &mut self.history[shard];
        history.events.extend(events);
        history.metrics = Snapshot::merged([&history.metrics, &metrics]);
        self.live.lock()[shard] = count;
        Ok(count)
    }

    /// Shut every shard down (in shard order); queued jobs resolve as
    /// [`ServiceError::Cancelled`] exactly as on a single service.
    /// Returns each slot's event log: the replaced shards' events, then
    /// the final shard's.
    pub fn shutdown(self) -> Vec<Vec<Event>> {
        self.shards
            .into_iter()
            .zip(self.history)
            .map(|(s, h)| {
                let mut events = h.events;
                events.extend(s.shutdown());
                events
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_ids_round_trip_and_are_disjoint_across_shards() {
        let shards = 4;
        let mut seen = std::collections::HashSet::new();
        for shard in 0..shards {
            for local in 1u64..50 {
                let id = encode(local, shard, shards);
                assert_eq!(decode(id, shards), (local, shard));
                assert!(seen.insert(id), "fleet id {id} collided");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_fewest_sessions_then_lowest_index() {
        assert_eq!(least_loaded(&[0, 0, 0]), 0);
        assert_eq!(least_loaded(&[2, 1, 1]), 1);
        assert_eq!(least_loaded(&[3, 2, 0, 2]), 2);
        assert_eq!(least_loaded(&[5]), 0);
    }
}
