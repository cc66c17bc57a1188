//! The shard's dispatch decisions as one plain `&mut self` state machine.
//!
//! [`ShardCore`] decides *admit / reject / start warm-or-cold / steal /
//! evict / complete late / cancel* for one shard, and is the only code in
//! the crate that records an [`Event`](crate::events::Event) or a
//! `service.*` metric. It has no threads, no clock and no job payloads:
//! every operation takes `now_us` from its driver.
//!
//! Two drivers run it. The threaded [`Service`](crate::service::Service)
//! keeps a `ShardCore<SolverContext>` behind the shard's one mutex, takes
//! the lock for one decision at a time on the wall clock, and does
//! everything slow (context build, solve, reply) outside it. The
//! simulator ([`simulate`](crate::sim::simulate)) drives a
//! `ShardCore<u64>` — the "context" is a token, its byte size scripted —
//! on a logical clock. What a property test proves about the
//! simulator's decisions therefore holds for production: it is the same
//! code, not a model of it.
//!
//! ## Dispatch rules
//!
//! Each session's jobs are enqueued on its preferred worker's run queue
//! ([`preferred_worker`]), so a session's warm context is repeatedly
//! solved on one core. A worker whose own queue has nothing eligible
//! scans the other queues in ring order and may steal **only** from a
//! queue whose backlog exceeds [`StealPolicy::backlog_threshold`] — below
//! it, stickiness wins over instantaneous latency. Jobs of one session
//! never run concurrently: a job is eligible only while no worker is
//! running its session.

use crate::cache::{CacheStats, ContextCache};
use crate::dispatch::{preferred_worker, StealPolicy};
use crate::error::Rejected;
use crate::events::{EventKind, EventLog};
use crate::scheduler::{DeadlineQueue, QueuedJob, SchedulerPolicy};
use crate::service::ServiceConfig;
use brainshift_obs::Registry;
use brainshift_sparse::StopReason;
use std::collections::HashMap;

/// The `service.*` metric catalogue: every name the core can emit, each
/// defined once. DESIGN.md §12 tabulates kind and recording point.
pub mod metric {
    /// Counter — submissions that passed admission.
    pub const JOBS_SUBMITTED: &str = "service.jobs.submitted";
    /// Counter — submissions refused at admission.
    pub const JOBS_REJECTED: &str = "service.jobs.rejected";
    /// Counter — jobs started on their session's preferred worker.
    pub const JOBS_PREFERRED: &str = "service.jobs.preferred";
    /// Counter — jobs started on another worker under backlog pressure.
    pub const JOBS_STOLEN: &str = "service.jobs.stolen";
    /// Counter — jobs that degraded to the carry-forward field.
    pub const JOBS_DEGRADED: &str = "service.jobs.degraded";
    /// Counter — scans whose band classification failed its guard and
    /// were classified again over the whole volume. Registered on the
    /// first such scan.
    pub const SCANS_BAND_FALLBACKS: &str = "service.scans.band_fallbacks";
    /// Counter — jobs that reached `Complete` (any result).
    pub const JOBS_COMPLETED: &str = "service.jobs.completed";
    /// Counter — completions past their deadline.
    pub const JOBS_MISSED_DEADLINE: &str = "service.jobs.missed_deadline";
    /// Counter — queued jobs cancelled at shutdown.
    pub const JOBS_CANCELLED: &str = "service.jobs.cancelled";
    /// Histogram — submit → `Complete`, µs, observed on every completion.
    pub const JOB_LATENCY_US: &str = "service.job.latency_us";
    /// Histogram — deadline headroom left as a job starts, µs.
    pub const SLACK_AT_START_US: &str = "service.deadline.slack_at_start_us";
    /// Gauge — jobs queued across all workers after the last queue change.
    pub const QUEUE_DEPTH: &str = "service.queue.depth";
    /// Gauge — largest queue depth any admission produced.
    pub const QUEUE_PEAK_DEPTH: &str = "service.queue.peak_depth";
    /// Counter — starts that found the session's context resident.
    pub const CACHE_HIT: &str = "service.cache.hit";
    /// Counter — starts that must build the context cold.
    pub const CACHE_MISS: &str = "service.cache.miss";
    /// Counter — contexts dropped (budget pressure or session close).
    pub const CACHE_EVICTIONS: &str = "service.cache.evictions";
    /// Gauge — size of the last shard snapshot written or restored.
    pub const PERSIST_SNAPSHOT_BYTES: &str = "service.persist.snapshot_bytes";
    /// Counter — warm contexts installed by a restore.
    pub const PERSIST_CONTEXTS_RESTORED: &str = "service.persist.contexts_restored";
    /// Histogram — decode + validate + install time of a restore, µs.
    pub const PERSIST_RESTORE_US: &str = "service.persist.restore_us";

    /// The whole catalogue.
    pub const ALL: [&str; 19] = [
        JOBS_SUBMITTED,
        JOBS_REJECTED,
        JOBS_PREFERRED,
        JOBS_STOLEN,
        JOBS_DEGRADED,
        SCANS_BAND_FALLBACKS,
        JOBS_COMPLETED,
        JOBS_MISSED_DEADLINE,
        JOBS_CANCELLED,
        JOB_LATENCY_US,
        SLACK_AT_START_US,
        QUEUE_DEPTH,
        QUEUE_PEAK_DEPTH,
        CACHE_HIT,
        CACHE_MISS,
        CACHE_EVICTIONS,
        PERSIST_SNAPSHOT_BYTES,
        PERSIST_CONTEXTS_RESTORED,
        PERSIST_RESTORE_US,
    ];
}

/// Where the shard is in its life. Admission closes first (a quiesce
/// drains by *serving*); claims stop only at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Serving,
    Draining,
    Stopped,
}

/// A submission that passed admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The job id the core assigned.
    pub job: u64,
    /// The worker whose run queue holds the job.
    pub preferred: usize,
    /// True when that queue's backlog now exceeds the steal threshold:
    /// the job is claimable by any worker, so the driver wakes the whole
    /// pool instead of just `preferred`.
    pub stealable: bool,
}

/// A job a worker has claimed, with its context checked out.
#[derive(Debug)]
pub struct Claimed<C> {
    /// The job, as queued.
    pub job: QueuedJob,
    /// The session's warm context, or `None` for a cold start.
    pub ctx: Option<C>,
    /// True when the job came off another worker's queue.
    pub stolen: bool,
}

/// How a claimed job ended, as the core saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completed {
    /// True when `now_us` at completion was past the deadline.
    pub missed_deadline: bool,
    /// Submission-to-completion time, µs.
    pub latency_us: u64,
}

/// One shard's scheduler state. `C` is the cached context type.
pub struct ShardCore<C> {
    /// One run queue per worker.
    queues: Vec<DeadlineQueue>,
    /// What each worker is executing. A session with a running job is
    /// ineligible on every queue — open or closed, so a job queued behind
    /// a close still waits its turn.
    running: Vec<Option<QueuedJob>>,
    cache: ContextCache<C>,
    /// Open sessions → jobs each has queued. "Closed" is "not in here".
    sessions: HashMap<u64, usize>,
    /// Next session id [`ShardCore::open_session`] hands out. Open to the
    /// crate so a restore can continue the old shard's sequence.
    pub(crate) next_session: u64,
    /// Next job id. Consumed only by a successful admission. Open to the
    /// crate for restore, and for the simulator, whose job ids are script
    /// indices (a rejected submission still uses one up).
    pub(crate) next_job: u64,
    phase: Phase,
    steal: StealPolicy,
    queue_capacity: usize,
    max_session_backlog: usize,
    log: EventLog,
    metrics: Registry,
}

impl<C> ShardCore<C> {
    /// An idle shard configured by `cfg`, recording into `log` and
    /// `metrics` (wall-clock instances in the service, logical in the
    /// simulator). This is the one place the queue and steal policies
    /// are derived from a [`ServiceConfig`].
    pub fn new(cfg: &ServiceConfig, log: EventLog, metrics: Registry) -> Self {
        let workers = cfg.workers.max(1);
        let policy = SchedulerPolicy {
            // The bound is global: `submit` checks the total depth first,
            // so a queue's own capacity can never bind before it.
            queue_capacity: cfg.queue_capacity,
            aging_weight: cfg.aging_weight,
            min_service_us: cfg.min_service_us,
            priority_boost_us: cfg.priority_boost_us,
        };
        ShardCore {
            queues: (0..workers).map(|_| DeadlineQueue::new(policy.clone())).collect(),
            running: vec![None; workers],
            cache: ContextCache::new(cfg.memory_budget_bytes),
            sessions: HashMap::new(),
            next_session: 1,
            next_job: 0,
            phase: Phase::Serving,
            steal: StealPolicy { backlog_threshold: cfg.steal_backlog_threshold },
            queue_capacity: cfg.queue_capacity,
            max_session_backlog: cfg.max_session_backlog,
            log,
            metrics,
        }
    }

    /// Worker slots (each with its own run queue).
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Jobs queued across all workers (admitted, not yet claimed).
    pub fn depth(&self) -> usize {
        self.queues.iter().map(DeadlineQueue::len).sum()
    }

    /// Jobs queued on one worker's run queue.
    pub fn backlog(&self, worker: usize) -> usize {
        self.queues[worker].len()
    }

    /// True when nothing is queued and no worker is mid-job.
    pub fn is_idle(&self) -> bool {
        self.depth() == 0 && self.running.iter().all(Option::is_none)
    }

    /// The event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Retire the shard, keeping its event log.
    pub fn into_log(self) -> EventLog {
        self.log
    }

    /// The metrics registry (drivers add their own non-`service.*` spans).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Cache counters (hits / misses / evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Bytes charged by resident contexts (checked-out ones excluded).
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn record(&self, now_us: u64, kind: EventKind) {
        self.log.record(now_us, self.depth(), kind);
    }

    fn evicted(&self, now_us: u64, session: u64, freed_bytes: usize) {
        self.metrics.counter_add(metric::CACHE_EVICTIONS, 1);
        self.record(now_us, EventKind::Evict { session, freed_bytes });
    }

    /// Register a new session under the next id.
    pub fn open_session(&mut self) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(id, 0);
        id
    }

    /// Register a session under an id chosen by the driver: a restore
    /// re-installing persisted sessions, the simulator adopting the ids
    /// its script names. Idempotent.
    pub fn adopt_session(&mut self, session: u64) {
        self.sessions.entry(session).or_insert(0);
    }

    /// Forget a session and drop its resident context. Its queued jobs
    /// stay queued and start cold-and-contextless (the driver fails them
    /// typed); an in-flight job completes but is not re-cached.
    pub fn close_session(&mut self, now_us: u64, session: u64) -> bool {
        if self.sessions.remove(&session).is_none() {
            return false;
        }
        if let Some(freed) = self.cache.discard(session) {
            self.evicted(now_us, session, freed);
        }
        true
    }

    /// Admit one job onto its session's preferred run queue, or reject
    /// it. Checks run in a fixed order — shutdown, unknown session,
    /// session backlog, global capacity, deadline feasibility — which is
    /// therefore the rejection a caller sees when several apply.
    pub fn submit(
        &mut self,
        now_us: u64,
        session: u64,
        deadline_us: u64,
        priority: u8,
    ) -> Result<Admitted, Rejected> {
        let verdict = self.admit(now_us, session, deadline_us, priority);
        match &verdict {
            Ok(a) => {
                let depth = self.depth() as f64;
                self.metrics.counter_add(metric::JOBS_SUBMITTED, 1);
                self.metrics.gauge_set(metric::QUEUE_DEPTH, depth);
                self.metrics.gauge_max(metric::QUEUE_PEAK_DEPTH, depth);
                self.record(now_us, EventKind::Enqueue { session, job: a.job, deadline_us, priority });
            }
            Err(reason) => {
                self.metrics.counter_add(metric::JOBS_REJECTED, 1);
                self.record(now_us, EventKind::Reject { session, reason: reason.clone() });
            }
        }
        verdict
    }

    fn admit(
        &mut self,
        now_us: u64,
        session: u64,
        deadline_us: u64,
        priority: u8,
    ) -> Result<Admitted, Rejected> {
        if self.phase != Phase::Serving {
            return Err(Rejected::ShuttingDown);
        }
        let depth = self.depth();
        let Some(queued) = self.sessions.get_mut(&session) else {
            return Err(Rejected::UnknownSession { session });
        };
        if *queued >= self.max_session_backlog {
            return Err(Rejected::SessionBacklogFull { session });
        }
        if depth >= self.queue_capacity {
            return Err(Rejected::QueueFull { capacity: self.queue_capacity });
        }
        let preferred = preferred_worker(session, self.queues.len());
        let job = self.next_job;
        self.queues[preferred].push(job, session, deadline_us, priority, now_us)?;
        // Only reached on a successful push: the id is consumed and the
        // backlog committed.
        self.next_job += 1;
        *queued += 1;
        let stealable = self.steal.may_steal(self.queues[preferred].len());
        Ok(Admitted { job, preferred, stealable })
    }

    /// Claim the next job for `worker`: its own queue first, then a steal
    /// scan over the other queues in ring order, each gated on the
    /// owner's backlog exceeding the steal threshold. Checks the session's
    /// context out of the cache (a closed session has none and touches no
    /// cache counter). `None` when nothing is claimable, or after
    /// [`ShardCore::stop`].
    pub fn claim(&mut self, worker: usize, now_us: u64) -> Option<Claimed<C>> {
        if self.phase == Phase::Stopped {
            return None;
        }
        let n = self.queues.len();
        let running = &self.running;
        let eligible = |j: &QueuedJob| !running.iter().flatten().any(|r| r.session == j.session);
        let job = (0..n).find_map(|d| {
            let owner = (worker + d) % n;
            if d > 0 && !self.steal.may_steal(self.queues[owner].len()) {
                return None;
            }
            self.queues[owner].pop_next(eligible)
        })?;
        let stolen = preferred_worker(job.session, n) != worker;
        self.running[worker] = Some(job.clone());
        let ctx = match self.sessions.get_mut(&job.session) {
            Some(queued) => {
                *queued -= 1;
                let ctx = self.cache.take(job.session);
                let hit = if ctx.is_some() { metric::CACHE_HIT } else { metric::CACHE_MISS };
                self.metrics.counter_add(hit, 1);
                ctx
            }
            None => None,
        };
        // How much of the deadline is left as the job *starts* — the
        // number an operator reads to see whether misses come from
        // queueing or from the solve itself.
        let slack = job.deadline_us.saturating_sub(now_us);
        self.metrics.observe(metric::SLACK_AT_START_US, slack as f64);
        self.metrics.gauge_set(metric::QUEUE_DEPTH, self.depth() as f64);
        let placed = if stolen { metric::JOBS_STOLEN } else { metric::JOBS_PREFERRED };
        self.metrics.counter_add(placed, 1);
        self.record(
            now_us,
            EventKind::Start {
                session: job.session,
                job: job.job,
                warm: ctx.is_some(),
                worker,
                stolen,
            },
        );
        Some(Claimed { job, ctx, stolen })
    }

    /// Record that `worker`'s running job fell back to the carry-forward
    /// field because its solve stopped for `reason`.
    pub fn note_degraded(&mut self, worker: usize, now_us: u64, reason: StopReason) {
        let Some(r) = &self.running[worker] else { return };
        self.metrics.counter_add(metric::JOBS_DEGRADED, 1);
        self.record(now_us, EventKind::Degrade { session: r.session, job: r.job, reason });
    }

    /// Record that a scan fell back from its band
    /// classification to the whole volume.
    pub fn note_band_fallback(&mut self) {
        self.metrics.counter_add(metric::SCANS_BAND_FALLBACKS, 1);
    }

    /// Finish `worker`'s running job: check `ctx` (with its byte size)
    /// back in unless the session was closed meanwhile — session ids are
    /// never reused, so an entry for a dead id would pin the budget
    /// forever — log what that evicted, then the completion, and release
    /// the session. `None` when the worker was running nothing.
    pub fn complete(&mut self, worker: usize, now_us: u64, ctx: Option<(C, usize)>) -> Option<Completed> {
        let r = self.running[worker].take()?;
        if let Some((ctx, bytes)) = ctx {
            if self.sessions.contains_key(&r.session) {
                self.install_context(now_us, r.session, ctx, bytes);
            }
        }
        let done = Completed {
            missed_deadline: now_us > r.deadline_us,
            latency_us: now_us.saturating_sub(r.enqueued_us),
        };
        self.metrics.counter_add(metric::JOBS_COMPLETED, 1);
        if done.missed_deadline {
            self.metrics.counter_add(metric::JOBS_MISSED_DEADLINE, 1);
        }
        self.metrics.gauge_set(metric::QUEUE_DEPTH, self.depth() as f64);
        self.metrics.observe(metric::JOB_LATENCY_US, done.latency_us as f64);
        self.record(
            now_us,
            EventKind::Complete {
                session: r.session,
                job: r.job,
                missed_deadline: done.missed_deadline,
            },
        );
        Some(done)
    }

    /// Make `ctx` resident for `session`, charging `bytes` against the
    /// budget; whatever that pushes out is logged, never an error.
    pub fn install_context(&mut self, now_us: u64, session: u64, ctx: C, bytes: usize) {
        self.cache.insert(session, ctx, bytes);
        for (evicted, freed) in self.cache.drain_evicted() {
            self.evicted(now_us, evicted, freed);
        }
    }

    /// Destructive checkout of a session's resident context for a
    /// snapshot: the snapshot becomes the context's new home.
    pub fn take_context(&mut self, session: u64) -> Option<C> {
        self.cache.take(session)
    }

    /// Stop admitting; claims continue, so the backlog drains by being
    /// served.
    pub fn close_admission(&mut self) {
        if self.phase == Phase::Serving {
            self.phase = Phase::Draining;
        }
    }

    /// Stop admitting and stop handing out claims; what is still queued
    /// is for [`ShardCore::cancel_next`].
    pub fn stop(&mut self) {
        self.phase = Phase::Stopped;
    }

    /// Cancel one job still queued on `worker`'s run queue.
    pub fn cancel_next(&mut self, worker: usize, now_us: u64) -> Option<QueuedJob> {
        let q = self.queues[worker].pop_any()?;
        if let Some(queued) = self.sessions.get_mut(&q.session) {
            *queued -= 1;
        }
        self.metrics.counter_add(metric::JOBS_CANCELLED, 1);
        self.metrics.gauge_set(metric::QUEUE_DEPTH, self.depth() as f64);
        self.record(now_us, EventKind::Cancel { session: q.session, job: q.job });
        Some(q)
    }

    /// Record the end of the shard's life.
    pub fn record_shutdown(&mut self, now_us: u64) {
        self.record(now_us, EventKind::Shutdown);
    }

    /// Record the size of a shard snapshot just written.
    pub fn note_snapshot(&mut self, bytes: usize) {
        self.metrics.gauge_set(metric::PERSIST_SNAPSHOT_BYTES, bytes as f64);
    }

    /// Record a finished restore: contexts installed, time taken, and
    /// the size of the snapshot it read.
    pub fn note_restored(&mut self, contexts: u64, elapsed_us: u64, bytes: usize) {
        self.metrics.counter_add(metric::PERSIST_CONTEXTS_RESTORED, contexts);
        self.metrics.observe(metric::PERSIST_RESTORE_US, elapsed_us as f64);
        self.note_snapshot(bytes);
    }
}
