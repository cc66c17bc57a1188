//! Deterministic replay-from-log: persist a submission script, re-execute
//! it later (on another machine, after a code change), and prove the
//! scheduler made the same decisions.
//!
//! The logical-clock simulator ([`simulate`]) is bit-deterministic for a
//! fixed submission script, which makes the script itself a complete
//! record of a scheduling run: persisting the config + jobs + the
//! rendered [`EventLog::script`](crate::EventLog::script) is enough to
//! re-execute the run and byte-compare the scripts. The simulator drives
//! the production [`ShardCore`](crate::core::ShardCore) under the
//! production [`ServiceConfig`], so a replay re-executes the decisions a
//! threaded shard makes — stealing and the per-session cap included. A
//! mismatch means the scheduling policy changed behaviour — the
//! regression oracle the service's durability story rests on.

use crate::service::ServiceConfig;
use crate::sim::{simulate, SimJob};
use brainshift_persist::{
    Decoder, Encoder, Persist, PersistError, SnapshotReader, SnapshotWriter,
};

/// Section name of the shard configuration.
const SEC_CONFIG: &str = "replay.config";
/// Section name of the submission script.
const SEC_JOBS: &str = "replay.jobs";
/// Section name of the recorded event script.
const SEC_SCRIPT: &str = "replay.script";

impl Persist for SimJob {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_u64(self.session);
        enc.put_u64(self.submit_us);
        enc.put_u64(self.deadline_us);
        enc.put_u8(self.priority);
        enc.put_u64(self.cost_us);
        enc.put_usize(self.ctx_bytes);
        Ok(())
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(SimJob {
            session: dec.get_u64()?,
            submit_us: dec.get_u64()?,
            deadline_us: dec.get_u64()?,
            priority: dec.get_u8()?,
            cost_us: dec.get_u64()?,
            ctx_bytes: dec.get_usize()?,
        })
    }
}

impl Persist for ServiceConfig {
    fn encode(&self, enc: &mut Encoder) -> Result<(), PersistError> {
        enc.put_usize(self.workers);
        enc.put_usize(self.queue_capacity);
        enc.put_usize(self.memory_budget_bytes);
        enc.put_f64(self.aging_weight);
        enc.put_u64(self.min_service_us);
        enc.put_u64(self.priority_boost_us);
        enc.put_usize(self.max_session_backlog);
        enc.put_usize(self.steal_backlog_threshold);
        Ok(())
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(ServiceConfig {
            workers: dec.get_usize()?,
            queue_capacity: dec.get_usize()?,
            memory_budget_bytes: dec.get_usize()?,
            aging_weight: dec.get_f64()?,
            min_service_us: dec.get_u64()?,
            priority_boost_us: dec.get_u64()?,
            max_session_backlog: dec.get_usize()?,
            steal_backlog_threshold: dec.get_usize()?,
        })
    }
}

/// A persisted scheduling run: the submission script, the configuration
/// it ran under, and the event script it produced.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    /// Shard configuration of the original run.
    pub config: ServiceConfig,
    /// The submission script, in order.
    pub jobs: Vec<SimJob>,
    /// The timestamp-free event script the original run produced.
    pub script: String,
}

/// Result of re-executing a [`RecordedRun`].
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The event script the re-execution produced.
    pub script: String,
    /// True when the re-executed script is byte-identical to the
    /// recorded one — the determinism contract held.
    pub matches: bool,
}

impl RecordedRun {
    /// Execute the submission script through [`simulate`] and capture
    /// the run as a replayable record.
    pub fn record(cfg: &ServiceConfig, jobs: &[SimJob]) -> Self {
        let report = simulate(cfg, jobs);
        RecordedRun { config: cfg.clone(), jobs: jobs.to_vec(), script: report.log.script() }
    }

    /// Serialize to a versioned, checksummed snapshot container.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PersistError> {
        let mut w = SnapshotWriter::new();
        w.section_value(SEC_CONFIG, &self.config)?;
        w.section_value(SEC_JOBS, &self.jobs)?;
        let mut script = Encoder::new();
        script.put_str(&self.script);
        w.section(SEC_SCRIPT, script.into_bytes());
        Ok(w.finish())
    }

    /// Decode a persisted run; every section checksum is verified before
    /// any payload is trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let reader = SnapshotReader::parse(bytes)?;
        let config: ServiceConfig = reader.section_value(SEC_CONFIG)?;
        let jobs: Vec<SimJob> = reader.section_value(SEC_JOBS)?;
        let mut dec = reader.section(SEC_SCRIPT)?;
        let script = dec.get_str()?;
        dec.finish()?;
        Ok(RecordedRun { config, jobs, script })
    }

    /// Re-execute the submission script and byte-compare the produced
    /// event script against the recorded one.
    pub fn replay(&self) -> ReplayOutcome {
        let report = simulate(&self.config, &self.jobs);
        let script = report.log.script();
        let matches = script == self.script;
        ReplayOutcome { script, matches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_jobs() -> Vec<SimJob> {
        (0..12)
            .map(|i| SimJob {
                session: 1 + (i % 3),
                submit_us: i * 500,
                deadline_us: i * 500 + 20_000,
                priority: (i % 2) as u8,
                cost_us: 3_000 + 700 * (i % 4),
                ctx_bytes: 1 << 16,
            })
            .collect()
    }

    fn demo_cfg() -> ServiceConfig {
        ServiceConfig { workers: 2, memory_budget_bytes: 3 << 16, ..Default::default() }
    }

    #[test]
    fn recorded_run_round_trips_and_replays_identically() {
        let run = RecordedRun::record(&demo_cfg(), &demo_jobs());
        assert!(!run.script.is_empty());
        let bytes = run.to_bytes().expect("serialize");
        let back = RecordedRun::from_bytes(&bytes).expect("deserialize");
        assert_eq!(back.jobs, run.jobs);
        assert_eq!(back.script, run.script);
        let outcome = back.replay();
        assert!(outcome.matches, "replayed script diverged:\n{}", outcome.script);
        assert_eq!(outcome.script, run.script);
    }

    #[test]
    fn tampered_record_is_refused_not_misreplayed() {
        let run = RecordedRun::record(&demo_cfg(), &demo_jobs());
        let mut bytes = run.to_bytes().expect("serialize");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = RecordedRun::from_bytes(&bytes).expect_err("corruption must be caught");
        assert!(matches!(err, PersistError::ChecksumMismatch { .. }), "got {err:?}");
    }

    #[test]
    fn a_doctored_script_fails_replay() {
        let mut run = RecordedRun::record(&demo_cfg(), &demo_jobs());
        run.script.push_str("complete s9 j99 q=0\n");
        let bytes = run.to_bytes().expect("serialize");
        let back = RecordedRun::from_bytes(&bytes).expect("deserialize");
        assert!(!back.replay().matches);
    }
}
