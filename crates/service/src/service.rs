//! The threaded intraoperative service: a fixed worker pool executing
//! deadline-queued scan jobs against cached warm solver contexts, with
//! **session-affinity dispatch**.
//!
//! Lifecycle: [`Service::start`] spawns the workers; [`Service::open_session`]
//! registers a prepared surgery and pins it to a preferred worker;
//! [`Service::submit`] admits a [`ScanJob`] onto that worker's run queue
//! (explicit [`Rejected`] backpressure) and returns a [`JobTicket`] the
//! caller blocks on with [`JobTicket::wait`]; [`Service::shutdown`] stops
//! admissions, cancels still-queued jobs with a typed
//! [`ServiceError::Cancelled`], and joins the workers.
//!
//! ## One lock per shard
//!
//! Every scheduling decision — admit, claim, steal, re-cache, evict,
//! complete, cancel — is made by the shard's [`ShardCore`], which sits
//! with the job payloads behind a single mutex. The lock is taken for
//! one decision at a time (a map lookup, an O(queue) scan) and never
//! held across a context build, a solve or a reply send, so a worker
//! grinding through solves blocks neither admission nor probes nor the
//! other workers. The service itself only adds what the core leaves
//! out: threads, wake channels, the wall clock, the scan volumes and
//! the solve. Why one lock and not a lock map: DESIGN.md §11.
//!
//! Wake rule: a submission wakes its session's preferred worker; once
//! that worker's backlog crosses the steal threshold the job is
//! claimable by anyone, so the whole pool is woken. A worker re-checks
//! for claimable work after every completion.

use crate::cache::CacheStats;
use crate::core::{Claimed, ShardCore};
use crate::dispatch::{preferred_worker, StealPolicy};
use crate::error::{Rejected, ServiceError};
use crate::events::{Event, EventLog};
use crate::session::{SessionStats, SurgerySession};
use brainshift_core::{Error as CoreError, PreparedSurgery, ScanStatus};
use brainshift_fem::SolverContext;
use brainshift_imaging::{DisplacementField, Volume};
use brainshift_obs::{Registry, Snapshot};
use brainshift_persist::PersistError;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded ready-queue capacity across all workers (admission
    /// backpressure).
    pub queue_capacity: usize,
    /// Byte budget for resident warm solver contexts; exceeding it evicts
    /// least-recently-used sessions to cold.
    pub memory_budget_bytes: usize,
    /// Aging weight of the deadline queue (see
    /// [`SchedulerPolicy::aging_weight`](crate::SchedulerPolicy::aging_weight)).
    pub aging_weight: f64,
    /// Admission floor: deadlines closer than this are
    /// [`Rejected::DeadlineInfeasible`].
    pub min_service_us: u64,
    /// Effective-deadline boost per priority level, µs.
    pub priority_boost_us: u64,
    /// Max jobs one session may have queued at once.
    pub max_session_backlog: usize,
    /// Work-stealing reluctance: a worker may steal from another worker's
    /// run queue only when that queue holds more than this many jobs.
    pub steal_backlog_threshold: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            memory_budget_bytes: 256 << 20,
            aging_weight: 1.0,
            min_service_us: 0,
            priority_boost_us: 1_000_000,
            max_session_backlog: 8,
            steal_backlog_threshold: StealPolicy::default().backlog_threshold,
        }
    }
}

/// One intraoperative scan to register.
pub struct ScanJob {
    /// Session (from [`Service::open_session`]) the scan belongs to.
    pub session: u64,
    /// The intraoperative intensity volume.
    pub intensity: Volume<f32>,
    /// Priority (higher = more urgent; boosts the effective deadline).
    pub priority: u8,
    /// Deadline relative to submission — typically the scanner cadence:
    /// the result is useless once the next scan has arrived.
    pub deadline: Duration,
}

/// Result of one completed scan job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-wide job id.
    pub job: u64,
    /// Session the job belonged to.
    pub session: u64,
    /// How the solve concluded (a `Degraded` job carries the previous
    /// field forward; it is not an error).
    pub status: ScanStatus,
    /// The volumetric deformation field for this scan.
    pub field: DisplacementField,
    /// Krylov iterations of the biomechanical solve.
    pub fem_iterations: usize,
    /// Mean active-surface residual to the scan's boundary (mm).
    pub surface_residual: f64,
    /// True when the job finished after its deadline.
    pub missed_deadline: bool,
    /// True when the solver context came warm from the cache.
    pub warm: bool,
    /// Index of the worker that executed the job.
    pub worker: usize,
    /// True when the job ran on a worker other than the session's
    /// preferred one (stolen under backlog pressure).
    pub stolen: bool,
    /// Submission-to-completion latency.
    pub latency: Duration,
}

/// Handle to one admitted job.
pub struct JobTicket {
    job: u64,
    rx: Receiver<Result<JobOutcome, ServiceError>>,
}

impl JobTicket {
    /// The service-wide job id.
    pub fn id(&self) -> u64 {
        self.job
    }

    /// Block until the job completes (or fails). A job still queued when
    /// the service shuts down resolves with
    /// [`ServiceError::Cancelled`] — a ticket never hangs.
    pub fn wait(self) -> Result<JobOutcome, ServiceError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServiceError::JobLost),
        }
    }

    /// Non-blocking poll; `None` while the job is still in flight. A
    /// disconnected reply channel (worker died, service torn down)
    /// surfaces as [`ServiceError::JobLost`], same as [`JobTicket::wait`].
    pub fn try_wait(&self) -> Option<Result<JobOutcome, ServiceError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServiceError::JobLost)),
        }
    }
}

/// Payload + reply channel of an admitted job, keyed by job id until a
/// worker claims it.
struct Pending {
    intensity: Volume<f32>,
    tx: Sender<Result<JobOutcome, ServiceError>>,
}

/// Everything behind the shard's one mutex: the decisions, and the
/// payloads they are about. `sessions` mirrors the core's open-session
/// table (both change in one lock hold), so "closed" is "in neither".
struct Shard {
    core: ShardCore<SolverContext>,
    sessions: HashMap<u64, Arc<SurgerySession>>,
    pending: HashMap<u64, Pending>,
}

struct Shared {
    /// Monotonic origin of the service's µs timestamps. Deliberately a
    /// raw `Instant` (not the obs clock): `t_us` must be monotonic wall
    /// time here — the deterministic logical-time variant of these
    /// timestamps lives in the simulator, not in the threaded service.
    epoch: Instant,
    shard: Mutex<Shard>,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Take the shard lock for one decision. The clock is read under the
    /// lock, so event timestamps are monotone in log order.
    fn decide<R>(&self, f: impl FnOnce(&mut Shard, u64) -> R) -> R {
        let mut shard = self.shard.lock();
        let now = self.now_us();
        f(&mut shard, now)
    }
}

/// The running service. Dropping it without [`Service::shutdown`] detaches
/// the workers, which cancel their queues and exit.
pub struct Service {
    shared: Arc<Shared>,
    /// One wake channel per worker: submissions wake the preferred
    /// worker; crossing the steal threshold wakes everyone.
    wake: Vec<Sender<()>>,
    handles: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawn the worker pool and start serving.
    pub fn start(cfg: ServiceConfig) -> Self {
        let core = ShardCore::new(&cfg, EventLog::with_wall_clock(), Registry::with_wall_clock());
        let n_workers = core.workers();
        let shared = Arc::new(Shared {
            epoch: Instant::now(),
            shard: Mutex::new(Shard { core, sessions: HashMap::new(), pending: HashMap::new() }),
        });
        let mut wake = Vec::new();
        let mut handles = Vec::new();
        for w in 0..n_workers {
            let (tx, rx) = unbounded();
            wake.push(tx);
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("brainshift-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, &rx))
                    // Spawn failure at startup is resource exhaustion;
                    // there is no service to run without its workers.
                    .expect("spawn service worker"),
            );
        }
        Service { shared, wake, handles }
    }

    /// Register a prepared surgery; returns its session id. The session
    /// is pinned to a preferred worker (round-robin by id), which all of
    /// its jobs are dispatched to unless stolen under backlog pressure.
    /// The preparation is shared (`Arc`) — one build can back sessions on
    /// several services, e.g. a failover pair. The first scan of the
    /// session is necessarily a cold build (cache miss).
    pub fn open_session(&self, prepared: Arc<PreparedSurgery>) -> u64 {
        self.shared.decide(|shard, _| {
            let id = shard.core.open_session();
            let pref = preferred_worker(id, shard.core.workers());
            shard.sessions.insert(id, Arc::new(SurgerySession::new(id, prepared, pref)));
            id
        })
    }

    /// Forget a session: drops its warm context (if resident) and its
    /// carry-forward state. Queued jobs of the session fail with typed
    /// pipeline errors when claimed; an in-flight job completes but its
    /// context is not re-cached.
    pub fn close_session(&self, session: u64) -> bool {
        self.shared.decide(|shard, now| {
            shard.sessions.remove(&session);
            shard.core.close_session(now, session)
        })
    }

    /// Admit one scan job onto the session's preferred worker queue.
    /// Rejections are immediate and typed; an `Ok` ticket is a promise
    /// the job will resolve — with an outcome, a typed execution error,
    /// or [`ServiceError::Cancelled`] at shutdown — never hang.
    pub fn submit(&self, job: ScanJob) -> Result<JobTicket, Rejected> {
        let ScanJob { session, intensity, priority, deadline } = job;
        // Queue push and payload insert share one lock hold. This is
        // what makes shutdown race-free: any job admitted before the
        // shard is stopped is fully enqueued before the workers begin
        // their cancel drain.
        let (admitted, rx) = self.shared.decide(|shard, now| -> Result<_, Rejected> {
            let deadline_us = now.saturating_add(u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX));
            let admitted = shard.core.submit(now, session, deadline_us, priority)?;
            let (tx, rx) = unbounded();
            shard.pending.insert(admitted.job, Pending { intensity, tx });
            Ok((admitted, rx))
        })?;
        if admitted.stealable {
            for tx in &self.wake {
                let _ = tx.send(());
            }
        } else if let Some(tx) = self.wake.get(admitted.preferred) {
            let _ = tx.send(());
        }
        Ok(JobTicket { job: admitted.job, rx })
    }

    /// Jobs currently queued (not yet claimed by a worker), across all
    /// worker queues.
    pub fn queue_depth(&self) -> usize {
        self.shared.decide(|shard, _| shard.core.depth())
    }

    /// Cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.decide(|shard, _| shard.core.cache_stats())
    }

    /// Bytes currently charged by resident warm contexts (checked-out
    /// contexts are excluded until their job completes).
    pub fn cache_resident_bytes(&self) -> usize {
        self.shared.decide(|shard, _| shard.core.cache_resident_bytes())
    }

    fn session(&self, session: u64) -> Option<Arc<SurgerySession>> {
        self.shared.decide(|shard, _| shard.sessions.get(&session).cloned())
    }

    /// Counters of one session, if it exists. Holds the shard lock for
    /// a map lookup only — the counters sit behind the session's own
    /// state lock, and neither is ever held across a solve.
    pub fn session_stats(&self, session: u64) -> Option<SessionStats> {
        self.session(session).map(|s| s.stats())
    }

    /// The preferred worker a session's jobs are dispatched to.
    pub fn session_preferred_worker(&self, session: u64) -> Option<usize> {
        self.session(session).map(|s| s.preferred_worker())
    }

    /// Snapshot of the event log so far.
    pub fn events(&self) -> Vec<Event> {
        self.shared.decide(|shard, _| shard.core.log().snapshot())
    }

    /// Point-in-time copy of the service metrics: the `service.*`
    /// catalogue of [`crate::core::metric`] (emitted by the same code in
    /// the simulator, so dashboards and tests read one schema) plus the
    /// per-stage `scan/*` solve spans.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.decide(|shard, _| shard.core.metrics().snapshot())
    }

    /// The timestamp-free event script (determinism/debug surface).
    pub fn script(&self) -> String {
        self.shared.decide(|shard, _| shard.core.log().script())
    }

    /// Open sessions currently registered on this service.
    pub fn session_count(&self) -> usize {
        self.shared.decide(|shard, _| shard.sessions.len())
    }

    /// Stop admitting new work and wait until every already-admitted job
    /// has been *served* (not cancelled): the queues drain to empty and
    /// no session is mid-solve. Terminal — admission stays closed; the
    /// only useful follow-ups are [`Service::snapshot_shard`] and
    /// [`Service::shutdown`].
    fn quiesce(&self) {
        // The workers keep serving (claims continue, the wake channels
        // are untouched), so the drain is the normal execution path.
        self.shared.decide(|shard, _| shard.core.close_admission());
        while !self.shared.decide(|shard, _| shard.core.is_idle()) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Quiesce this shard (stop admission, finish every in-flight job)
    /// and serialize its durable state: session table with carry-forward
    /// fields and counters, which sessions had a resident solver context
    /// and its warm-start seed, id counters, and the full event log. Terminal — the caller is expected to
    /// [`Service::shutdown`] the drained shard and hand the bytes to
    /// [`Service::restore_shard`] on a replacement.
    pub fn snapshot_shard(&self) -> Result<Vec<u8>, PersistError> {
        self.quiesce();
        let (sessions, next_session, next_job) = self.shared.decide(|shard, _| {
            let mut sessions: Vec<Arc<SurgerySession>> = shard.sessions.values().cloned().collect();
            sessions.sort_by_key(|s| s.id());
            // Destructive checkout: the snapshot is the new home of the
            // context's warm state. This shard is being retired; a
            // restored shard must never race it for the same warm state.
            let sessions: Vec<_> = sessions
                .into_iter()
                .map(|s| {
                    let context = shard.core.take_context(s.id());
                    (s, context)
                })
                .collect();
            (sessions, shard.core.next_session, shard.core.next_job)
        });
        let mut snaps = Vec::with_capacity(sessions.len());
        for (sess, context) in sessions {
            let (carry_forward, stats) = {
                let state = sess.state.lock();
                (state.carry_forward.as_deref().cloned(), state.stats)
            };
            snaps.push(crate::persist::SessionSnapshot::capture(
                sess.id(),
                sess.prepared(),
                carry_forward,
                stats,
                context.as_ref(),
            ));
        }
        let mut meta = brainshift_persist::Encoder::new();
        meta.put_u64(next_session);
        meta.put_u64(next_job);
        let mut w = brainshift_persist::SnapshotWriter::new();
        w.section(crate::persist::SEC_META, meta.into_bytes());
        w.section_value(crate::persist::SEC_SESSIONS, &snaps)?;
        // The sessions were encoded outside the lock; only the event log
        // is encoded under it.
        self.shared.decide(|shard, _| {
            w.section_value(crate::persist::SEC_LOG, shard.core.log())?;
            let bytes = w.finish();
            shard.core.note_snapshot(bytes.len());
            Ok(bytes)
        })
    }

    /// Bring a snapshotted shard back up on a fresh worker pool. The
    /// caller supplies the once-per-surgery preparations keyed by the
    /// *persisted* (shard-local) session ids; each is verified against
    /// the snapshot's mesh and stiffness-matrix fingerprints, for every
    /// session. A context that was resident at snapshot time is rebuilt
    /// exactly as a cache miss builds one
    /// ([`PreparedSurgery::build_solver_context`], on the surgery's one
    /// `K`) and seeded with its persisted warm-start vector. Everything is
    /// decoded, validated and built **before** the worker pool starts — a
    /// corrupt snapshot, one taken under another material table, or a
    /// failed build yields a typed [`PersistError`] and no half-restored
    /// service.
    ///
    /// Restored sessions keep their ids, counters, carry-forward fields,
    /// and (when resident at snapshot time) their warm contexts; the id
    /// counters continue where the old shard stopped, so the event-log
    /// script tail is byte-identical to an uninterrupted run's.
    pub fn restore_shard(
        cfg: ServiceConfig,
        bytes: &[u8],
        prepared: &HashMap<u64, Arc<PreparedSurgery>>,
    ) -> Result<Service, PersistError> {
        let t0 = Instant::now();
        let reader = brainshift_persist::SnapshotReader::parse(bytes)?;
        let mut meta = reader.section(crate::persist::SEC_META)?;
        let next_session = meta.get_u64()?;
        let next_job = meta.get_u64()?;
        meta.finish()?;
        let snaps: Vec<crate::persist::SessionSnapshot> =
            reader.section_value(crate::persist::SEC_SESSIONS)?;
        // Decoded for integrity (the section checksum alone cannot catch
        // an encoder/decoder skew); the old shard's log is the caller's
        // record, not the new shard's — seq numbers restart at 0.
        let _log: EventLog = reader.section_value(crate::persist::SEC_LOG)?;
        let n_workers = cfg.workers.max(1);
        let mut restored = Vec::with_capacity(snaps.len());
        for snap in snaps {
            if snap.id >= next_session {
                return Err(PersistError::InvalidData {
                    reason: format!(
                        "snapshot session {} not below next_session {next_session}",
                        snap.id
                    ),
                });
            }
            let Some(prep) = prepared.get(&snap.id) else {
                return Err(PersistError::InvalidData {
                    reason: format!("no prepared surgery supplied for session {}", snap.id),
                });
            };
            let context = snap.restore_context(prep)?;
            let sess = Arc::new(SurgerySession::restore(
                snap.id,
                Arc::clone(prep),
                preferred_worker(snap.id, n_workers),
                snap.carry_forward,
                snap.stats,
            ));
            restored.push((sess, context));
        }
        // All-or-nothing boundary: everything after this point is
        // installation of fully validated state.
        let service = Service::start(cfg);
        service.shared.decide(|shard, now| {
            shard.core.next_session = next_session;
            shard.core.next_job = next_job;
            let mut contexts = 0u64;
            for (sess, ctx) in restored {
                shard.core.adopt_session(sess.id());
                if let Some(ctx) = ctx {
                    // A smaller budget on the replacement shard sheds
                    // the LRU contexts exactly as live memory pressure
                    // would — logged, never an error.
                    let ctx_bytes = ctx.memory_bytes();
                    shard.core.install_context(now, sess.id(), ctx, ctx_bytes);
                    contexts += 1;
                }
                shard.sessions.insert(sess.id(), sess);
            }
            shard.core.note_restored(contexts, t0.elapsed().as_micros() as u64, bytes.len());
        });
        Ok(service)
    }

    /// Stop admitting work, let in-flight jobs complete, cancel every
    /// still-queued job with [`ServiceError::Cancelled`], join the
    /// workers, and return the final event log. No ticket is left
    /// hanging.
    pub fn shutdown(self) -> Vec<Event> {
        self.shared.decide(|shard, _| shard.core.stop());
        // Dropping the wake senders is the shutdown signal: each worker's
        // recv fails, switching it into cancel-drain mode.
        drop(self.wake);
        let n_workers = self.handles.len();
        for h in self.handles {
            let _ = h.join();
        }
        // Belt and braces: every queue was drained by its owner before
        // exiting, but sweep once more so a ticket can never outlive the
        // pool un-resolved.
        for w in 0..n_workers {
            cancel_drain(&self.shared, w);
        }
        self.shared.decide(|shard, now| {
            shard.core.record_shutdown(now);
            shard.core.log().snapshot()
        })
    }
}

/// What a worker pulled out of the shard for one job.
struct Claim {
    claimed: Claimed<SolverContext>,
    pending: Pending,
    /// `None` when the session was closed while the job was queued.
    session: Option<Arc<SurgerySession>>,
}

fn claim(shared: &Shared, w: usize) -> Option<Claim> {
    shared.decide(|shard, now| {
        let claimed = shard.core.claim(w, now)?;
        // `submit` inserts the payload in the same lock hold as the
        // queue push, so a claimed job always has one.
        let pending = shard.pending.remove(&claimed.job.job)?;
        let session = shard.sessions.get(&claimed.job.session).cloned();
        Some(Claim { claimed, pending, session })
    })
}

fn execute(shared: &Shared, worker: usize, claim: Claim) {
    let Claim { claimed: Claimed { job: q, ctx, stolen }, pending, session } = claim;
    let warm = ctx.is_some();
    // A typed failure completes the job without a context to re-cache:
    // the session keeps its slot, the next scan rebuilds cold.
    let fail = |e: CoreError| {
        shared.decide(|shard, now| shard.core.complete(worker, now, None));
        let _ = pending.tx.send(Err(ServiceError::Pipeline(e)));
    };
    let Some(session) = session else {
        return fail(CoreError::Pipeline(format!(
            "session {} closed before job {} ran",
            q.session, q.job
        )));
    };
    let prepared = Arc::clone(session.prepared());

    // Cold path: rebuild the context evicted (or never built) for this
    // session. This is the designed degradation mode of the memory
    // budget — slower, never wrong. No lock is held across the rebuild.
    let mut ctx = match ctx.map_or_else(|| prepared.build_solver_context(), Ok) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };

    // The solve's wall-clock budget is whatever deadline headroom
    // remains *now*, after queueing and any cold rebuild (or the
    // configured budget, if that is tighter). A job already past its
    // deadline gets a token budget and degrades fast.
    let remaining = Duration::from_micros(q.deadline_us.saturating_sub(shared.now_us()).max(1));

    // Lock discipline: the session state lock is never held across the
    // solve, and nests inside the shard lock, never around it. The core
    // already serializes jobs of one session, so state only needs a
    // short lock around each read/write.
    let carry = session.state.lock().carry_forward.clone();
    let reg = match prepared.register_scan(&mut ctx, &pending.intensity, carry.as_deref(), None, Some(remaining)) {
        Ok(reg) => reg,
        Err(e) => {
            // A typed pipeline failure poisons neither the session (its
            // carry-forward state is untouched) nor the context cache
            // (the context is dropped; next scan rebuilds cold).
            session.state.lock().stats.completed += 1;
            return fail(e);
        }
    };
    // Everything slow happens before the lock: the next carry-forward
    // field is cloned and the context sized out here.
    let carry_next =
        (reg.status != ScanStatus::Degraded).then(|| Arc::new(reg.field.clone()));
    let ctx_bytes = ctx.memory_bytes();
    let done = shared.decide(|shard, now| {
        // Per-stage spans: the paper's intraoperative breakdown, as
        // seen by the service (mean/min/max over jobs per path).
        let m = shard.core.metrics();
        m.record_span_s("scan/classification", reg.timings.classification_s);
        m.record_span_s("scan/surface", reg.timings.surface_s);
        m.record_span_s("scan/solve", reg.timings.solve_s);
        m.record_span_s("scan/resample", reg.timings.resample_s);
        // The session's counters move in the same lock hold as the
        // completion they describe, so a quiesce that finds the worker
        // idle also finds them up to date.
        let mut state = session.state.lock();
        if reg.status == ScanStatus::Degraded {
            state.stats.degraded += 1;
            shard.core.note_degraded(worker, now, reg.fem.stats.reason);
        }
        let done = shard.core.complete(worker, now, Some((ctx, ctx_bytes)))?;
        if carry_next.is_some() {
            state.carry_forward = carry_next;
        }
        state.stats.completed += 1;
        if done.missed_deadline {
            state.stats.deadline_misses += 1;
        }
        if warm {
            state.stats.warm_starts += 1;
        }
        Some(done)
    });
    let Some(done) = done else { return };
    let _ = pending.tx.send(Ok(JobOutcome {
        job: q.job,
        session: q.session,
        status: reg.status,
        field: reg.field,
        fem_iterations: reg.fem_iterations,
        surface_residual: reg.surface_residual,
        missed_deadline: done.missed_deadline,
        warm,
        worker,
        stolen,
        latency: Duration::from_micros(done.latency_us),
    }));
}

/// Cancel every job still queued on worker `w`: each ticket resolves
/// with [`ServiceError::Cancelled`] — typed, never a hang.
fn cancel_drain(shared: &Shared, w: usize) {
    while let Some((job, pending)) = shared.decide(|shard, now| {
        let q = shard.core.cancel_next(w, now)?;
        Some((q.job, shard.pending.remove(&q.job)))
    }) {
        if let Some(p) = pending {
            let _ = p.tx.send(Err(ServiceError::Cancelled { job }));
        }
    }
}

fn worker_loop(shared: &Shared, w: usize, wake: &Receiver<()>) {
    while wake.recv().is_ok() {
        // Serve everything claimable right now. Re-checking after each
        // job matters: completing a session's job makes its next queued
        // job eligible, and no new wake token announces that. Once the
        // shard is stopped `claim` yields nothing — remaining queued
        // jobs are cancelled, not served.
        while let Some(job) = claim(shared, w) {
            execute(shared, w, job);
        }
    }
    cancel_drain(shared, w);
}
