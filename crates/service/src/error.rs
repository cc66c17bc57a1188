//! Typed failures of the serving layer.
//!
//! Admission control is explicit: a job the service cannot serve within
//! its contract is *rejected at submission* ([`Rejected`]) rather than
//! accepted and silently dropped or served arbitrarily late. Execution
//! failures of an admitted job surface as [`ServiceError`].

use brainshift_core::Error as CoreError;
use std::fmt;

/// Why a submission was refused at the admission gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded queue is at capacity — explicit backpressure; the
    /// caller decides whether to retry, shed, or escalate.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The deadline cannot be met even if the job started immediately
    /// (it lies within the configured minimum service estimate, or has
    /// already passed). Admitting it would only waste a worker slot.
    DeadlineInfeasible,
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// The job names a session this service does not hold.
    UnknownSession {
        /// The offending session id.
        session: u64,
    },
    /// The session already has `ServiceConfig::max_session_backlog` jobs
    /// queued (default 8).
    SessionBacklogFull {
        /// The offending session id.
        session: u64,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}); resubmit later or shed")
            }
            Rejected::DeadlineInfeasible => {
                write!(f, "deadline infeasible: cannot complete before it even if started now")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
            Rejected::UnknownSession { session } => {
                write!(f, "unknown session {session}")
            }
            Rejected::SessionBacklogFull { session } => {
                write!(f, "session {session} backlog full")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// A hard failure while executing an admitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The pipeline layer returned a typed error (malformed mesh,
    /// singular preconditioner, …). The session's slot survives; only
    /// this job failed.
    Pipeline(CoreError),
    /// The job's result channel was dropped before a result arrived —
    /// the worker executing it panicked or the service was torn down.
    JobLost,
    /// The job was still queued (admitted, never claimed by a worker)
    /// when the service shut down and drained its queues. The ticket
    /// resolves with this instead of hanging; the caller may resubmit the
    /// scan to another service.
    Cancelled {
        /// The cancelled job's id.
        job: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Pipeline(e) => write!(f, "job execution failed: {e}"),
            ServiceError::JobLost => write!(f, "job result lost (worker died or service torn down)"),
            ServiceError::Cancelled { job } => {
                write!(f, "job {job} cancelled: still queued when the service shut down")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Pipeline(e) => Some(e),
            ServiceError::JobLost | ServiceError::Cancelled { .. } => None,
        }
    }
}

impl From<CoreError> for ServiceError {
    fn from(e: CoreError) -> Self {
        ServiceError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_actionable() {
        assert!(Rejected::QueueFull { capacity: 8 }.to_string().contains("capacity 8"));
        assert!(Rejected::UnknownSession { session: 3 }.to_string().contains('3'));
        let e = ServiceError::from(CoreError::Pipeline("empty mesh".into()));
        assert!(e.to_string().contains("empty mesh"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
