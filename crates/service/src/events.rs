//! The service's deterministic event log.
//!
//! Every scheduling decision — admission, start, degradation,
//! eviction, completion — is recorded as one [`Event`] with a monotonic
//! timestamp and the queue depth at that instant. The log is both the
//! observability surface (a service operator replays it to understand a
//! missed deadline) and the test oracle: for a fixed submission script the
//! *sequence* of events (everything except wall-clock timestamps) is
//! deterministic, which [`EventLog::script`] exposes by rendering the log
//! without times.

use crate::error::Rejected;
use brainshift_sparse::StopReason;
use parking_lot::Mutex;
use std::fmt::Write as _;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A job passed admission and entered the queue.
    Enqueue {
        /// Session the job belongs to.
        session: u64,
        /// Service-wide job id.
        job: u64,
        /// Absolute deadline (µs on the service clock).
        deadline_us: u64,
        /// Submission priority (higher = more urgent).
        priority: u8,
    },
    /// A submission was refused at the admission gate.
    Reject {
        /// Session of the refused submission.
        session: u64,
        /// Why it was refused.
        reason: Rejected,
    },
    /// A worker picked the job and began executing it.
    Start {
        /// Session the job belongs to.
        session: u64,
        /// Job id.
        job: u64,
        /// True when the session's solver context was served warm from
        /// the cache (false = cold build / rebuild after eviction).
        warm: bool,
        /// Index of the worker executing the job.
        worker: usize,
        /// True when `worker` is not the session's preferred worker (the
        /// job was stolen because the preferred worker's backlog exceeded
        /// the steal threshold).
        stolen: bool,
    },
    /// The job's solve did not converge within its budget; the result is
    /// the carry-forward field.
    Degrade {
        /// Session the job belongs to.
        session: u64,
        /// Job id.
        job: u64,
        /// Why the solve stopped.
        reason: StopReason,
    },
    /// A session's solver context was evicted from the warm cache to
    /// stay inside the memory budget.
    Evict {
        /// Session whose context was dropped.
        session: u64,
        /// Bytes returned to the budget.
        freed_bytes: usize,
    },
    /// A job still queued when the service shut down was cancelled; its
    /// ticket resolves with a typed
    /// [`ServiceError::Cancelled`](crate::error::ServiceError) instead of
    /// hanging.
    Cancel {
        /// Session the job belonged to.
        session: u64,
        /// Job id.
        job: u64,
    },
    /// The job finished and its result was delivered.
    Complete {
        /// Session the job belongs to.
        session: u64,
        /// Job id.
        job: u64,
        /// True when it finished after its deadline.
        missed_deadline: bool,
    },
    /// The service stopped admitting work and drained.
    Shutdown,
}

/// One log entry: what happened, when, and how deep the queue was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Strictly increasing sequence number (the log's total order).
    pub seq: u64,
    /// Monotonic time of the event, µs since service start (logical time
    /// in the deterministic simulator).
    pub t_us: u64,
    /// Wall-clock time of the event, µs since the UNIX epoch — only on
    /// logs built with [`EventLog::with_wall_clock`] (the threaded
    /// service); `None` in the simulator and in plain [`EventLog::new`]
    /// logs. Deliberately excluded from [`Event::script_line`] so the
    /// determinism oracle stays timestamp-free.
    pub wall_unix_us: Option<u64>,
    /// Queue depth immediately after the event.
    pub queue_depth: usize,
    /// The event itself.
    pub kind: EventKind,
}

impl Event {
    /// The deterministic rendering: everything except the timestamp.
    /// The enqueue deadline is rendered as *slack* (`deadline_us - t_us`,
    /// the relative deadline the submitter asked for) rather than the
    /// absolute clock value — an absolute deadline is arrival time in
    /// disguise, and leaking it would make the script wall-clock
    /// dependent in the threaded service.
    pub fn script_line(&self) -> String {
        let mut s = String::new();
        match &self.kind {
            EventKind::Enqueue { session, job, deadline_us, priority } => {
                let slack = deadline_us.saturating_sub(self.t_us);
                let _ = write!(s, "enqueue s{session} j{job} d{slack} p{priority}");
            }
            EventKind::Reject { session, reason } => {
                let tag = match reason {
                    Rejected::QueueFull { .. } => "queue-full",
                    Rejected::DeadlineInfeasible => "deadline-infeasible",
                    Rejected::ShuttingDown => "shutting-down",
                    Rejected::UnknownSession { .. } => "unknown-session",
                    Rejected::SessionBacklogFull { .. } => "session-backlog",
                };
                let _ = write!(s, "reject s{session} {tag}");
            }
            EventKind::Start { session, job, warm, worker, stolen } => {
                let _ = write!(
                    s,
                    "start s{session} j{job} {} w{worker}{}",
                    if *warm { "warm" } else { "cold" },
                    if *stolen { " stolen" } else { "" }
                );
            }
            EventKind::Cancel { session, job } => {
                let _ = write!(s, "cancel s{session} j{job}");
            }
            EventKind::Degrade { session, job, reason } => {
                let _ = write!(s, "degrade s{session} j{job} {reason:?}");
            }
            EventKind::Evict { session, .. } => {
                let _ = write!(s, "evict s{session}");
            }
            EventKind::Complete { session, job, missed_deadline } => {
                let _ = write!(s, "complete s{session} j{job}{}", if *missed_deadline { " late" } else { "" });
            }
            EventKind::Shutdown => s.push_str("shutdown"),
        }
        let _ = write!(s, " q={}", self.queue_depth);
        s
    }
}

/// Append-only, thread-safe event log.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<Event>>,
    /// Stamp each event with the wall clock (µs since UNIX epoch).
    wall: bool,
}

impl EventLog {
    /// An empty log without wall-clock stamps (the simulator's choice:
    /// its events carry logical time only).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log that additionally stamps every event with the
    /// wall-clock time (µs since the UNIX epoch) — what an operator
    /// correlates against scanner logs and OR records. The stamps live
    /// in [`Event::wall_unix_us`] only; [`EventLog::script`] is
    /// byte-identical with or without them.
    pub fn with_wall_clock() -> Self {
        EventLog { events: Mutex::new(Vec::new()), wall: true }
    }

    /// Append one event; the sequence number is assigned under the lock,
    /// so the log's order is the service's observed total order.
    pub fn record(&self, t_us: u64, queue_depth: usize, kind: EventKind) {
        let wall_unix_us = if self.wall {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .ok()
                .map(|d| d.as_micros() as u64)
        } else {
            None
        };
        let mut ev = self.events.lock();
        let seq = ev.len() as u64;
        ev.push(Event { seq, t_us, queue_depth, wall_unix_us, kind });
    }

    /// Copy of the full log.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// The timestamp-free rendering used as the determinism oracle: two
    /// runs of the same submission script must produce identical scripts.
    pub fn script(&self) -> String {
        let ev = self.events.lock();
        let mut s = String::with_capacity(ev.len() * 24);
        for e in ev.iter() {
            s.push_str(&e.script_line());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let log = EventLog::new();
        log.record(5, 1, EventKind::Enqueue { session: 1, job: 0, deadline_us: 100, priority: 0 });
        log.record(9, 0, EventKind::Start { session: 1, job: 0, warm: false, worker: 0, stolen: false });
        log.record(20, 0, EventKind::Complete { session: 1, job: 0, missed_deadline: false });
        let ev = log.snapshot();
        assert_eq!(ev.len(), 3);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn script_omits_time_but_keeps_order_and_depths() {
        let log = EventLog::new();
        log.record(123, 2, EventKind::Enqueue { session: 7, job: 3, deadline_us: 1023, priority: 1 });
        log.record(456, 1, EventKind::Start { session: 7, job: 3, warm: true, worker: 1, stolen: false });
        let s = log.script();
        assert_eq!(s, "enqueue s7 j3 d900 p1 q=2\nstart s7 j3 warm w1 q=1\n");
        // Same relative deadline submitted at a different wall-clock time
        // (absolute deadline shifts with it) → identical script.
        let log2 = EventLog::new();
        log2.record(999, 2, EventKind::Enqueue { session: 7, job: 3, deadline_us: 1899, priority: 1 });
        log2.record(1999, 1, EventKind::Start { session: 7, job: 3, warm: true, worker: 1, stolen: false });
        assert_eq!(log2.script(), s);
    }

    #[test]
    fn wall_clock_stamps_do_not_leak_into_the_script() {
        let plain = EventLog::new();
        let stamped = EventLog::with_wall_clock();
        for log in [&plain, &stamped] {
            log.record(123, 2, EventKind::Enqueue { session: 7, job: 3, deadline_us: 1023, priority: 1 });
            log.record(456, 1, EventKind::Start { session: 7, job: 3, warm: true, worker: 1, stolen: false });
        }
        // The determinism oracle is byte-identical either way.
        assert_eq!(plain.script(), stamped.script());
        assert_eq!(stamped.script(), "enqueue s7 j3 d900 p1 q=2\nstart s7 j3 warm w1 q=1\n");
        assert!(plain.snapshot().iter().all(|e| e.wall_unix_us.is_none()));
        let stamps: Vec<u64> = stamped.snapshot().iter().map(|e| e.wall_unix_us.expect("stamped")).collect();
        // Sanity: epoch-µs in the 21st century, non-decreasing.
        assert!(stamps.iter().all(|&t| t > 1_000_000_000_000_000));
        assert!(stamps[0] <= stamps[1]);
    }
}
