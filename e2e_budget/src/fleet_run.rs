//! The untraced half: set a fleet up, serve a workload through it for a
//! fixed time, and read the service layer's own records afterwards.

use crate::stats::{field_hash, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{generate, Arrival, Spec, Surgery, PAPER_EQUATIONS};
use crate::yardstick::Yardstick;
use brainshift_core::{field_error, PipelineConfig, PreparedSurgery, ScanStatus};
use brainshift_mesh::mesh_labeled_volume;
use brainshift_service::fleet::FleetTicket;
use brainshift_service::{Event, EventKind, Fleet, FleetConfig, ScanJob, ServiceConfig};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One reading of the yardstick: when it began, in seconds from the
/// start of the timed phase, and the milliseconds it took.
pub type Reading = (f64, f64);

/// Open loop: how long after the last arrival before a pause the
/// generator takes the yardstick (about two median scans).
const SETTLE: Duration = Duration::from_millis(60);

/// Timed scans per session whose field is hashed and compared with the
/// ground truth. The rest are only checked for their status, so that the
/// checking stays a small share of the run.
pub const CHECKED_SCANS: usize = 8;

fn pipeline_config() -> PipelineConfig {
    // The served path never runs MI registration.
    PipelineConfig {
        skip_rigid: true,
        ..Default::default()
    }
}

pub struct Session {
    pub surgery: Surgery,
    pub prepared: Arc<PreparedSurgery>,
    /// Fleet-wide session id.
    pub id: u64,
    pub shard: usize,
}

/// A fleet with every session open and warmed up by one untimed scan.
pub struct Ready {
    pub fleet: Fleet,
    pub sessions: Vec<Session>,
}

/// Everything between process start and the first timed submit. With a
/// tracer, each public call gets a span.
pub fn set_up(spec: &Spec, seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Ready, String> {
    let mut prepared = Vec::new();
    for k in 0..spec.sessions {
        let surgery = span(&mut tracer, "workloads::generate", || {
            generate(spec, seed, k)
        });
        let cfg = pipeline_config();
        if let Some(t) = tracer.as_deref_mut() {
            // `PreparedSurgery::new` meshes too; this extra call is only
            // there to time the mesher on its own.
            t.span("mesh::mesh_labeled_volume", None, || {
                mesh_labeled_volume(&surgery.reference_labels, &cfg.mesher)
            });
        }
        let p = span(&mut tracer, "core::PreparedSurgery::new", || {
            PreparedSurgery::new(&surgery.reference_labels, cfg)
        })
        .map_err(|e| format!("PreparedSurgery::new failed: {e}"))?;
        if spec.paper_scale && k == 0 {
            let eq = p.mesh().num_equations();
            println!(
                "mesh: {} nodes, {eq} equations (paper: {PAPER_EQUATIONS})",
                p.mesh().num_nodes()
            );
            if eq.abs_diff(PAPER_EQUATIONS) * 100 > PAPER_EQUATIONS {
                return Err(format!(
                    "{eq} equations is not within 1% of the paper's {PAPER_EQUATIONS}"
                ));
            }
        }
        prepared.push((surgery, Arc::new(p)));
    }
    let fleet = Fleet::start(FleetConfig {
        shards: spec.shards,
        // One worker a shard: fleet workers in total stay within the
        // host's two cores, and each scan's own parallelism is rayon's.
        shard: ServiceConfig {
            workers: 1,
            memory_budget_bytes: spec.memory_budget_bytes,
            ..Default::default()
        },
    });
    let mut sessions = Vec::new();
    for (surgery, prepared) in prepared {
        let id = fleet.open_session(Arc::clone(&prepared));
        let ticket = fleet
            .submit(job(spec, id, &surgery, 0))
            .map_err(|e| format!("warm-up scan rejected: {e}"))?;
        let shard = ticket.shard();
        let out = span(&mut tracer, "service::warm-up scan", || ticket.wait())
            .map_err(|e| format!("warm-up scan failed: {e}"))?;
        if out.status == ScanStatus::Degraded {
            return Err("warm-up scan degraded".into());
        }
        sessions.push(Session {
            surgery,
            prepared,
            id,
            shard,
        });
    }
    Ok(Ready { fleet, sessions })
}

fn span<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer.as_deref_mut() {
        Some(t) => t.span(name, None, f),
        None => f(),
    }
}

fn job(spec: &Spec, session: u64, surgery: &Surgery, scan: usize) -> ScanJob {
    ScanJob {
        session,
        intensity: surgery.scan(scan).clone(),
        priority: 0,
        deadline: spec.deadline,
    }
}

/// One timed scan as its client saw it.
pub struct Sample {
    pub session: usize,
    /// Index in the session's scan order (the warm-up was scan 0).
    pub scan: usize,
    pub latency_ms: f64,
    /// When the latency clock started, in seconds from the start of the
    /// timed phase.
    pub from_s: f64,
    pub shard: usize,
    /// Fleet-wide job id, to find the scan in the shard's event log.
    pub job: u64,
    pub warm: bool,
    pub stolen: bool,
}

/// One session's client: what it attempted and what came back.
struct Client<'a> {
    spec: &'a Spec,
    sess: &'a Session,
    k: usize,
    samples: Vec<Sample>,
    /// `(session, scan, field hash)` and the error against the ground
    /// truth, for the first [`CHECKED_SCANS`] scans.
    hashes: Vec<(usize, usize, u64)>,
    errors_mm: Vec<f64>,
    attempted: usize,
    failed: usize,
    /// Reasons the outputs are wrong (not merely late).
    incorrect: Vec<String>,
    /// Time spent with a scan in flight.
    busy_s: f64,
    /// Closed loop: the yardstick, taken after every scan of the first
    /// client while the fleet is idle, and what it read.
    yardstick: Option<Yardstick>,
    readings: Vec<Reading>,
    /// Start of the timed phase.
    start: Instant,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    /// `(session, scan, field hash)` of the checked scans.
    pub hashes: Vec<(usize, usize, u64)>,
    /// Their mean errors against the ground truth, mm.
    pub errors_mm: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub incorrect: Vec<String>,
    pub scans_per_s: f64,
    /// Open loop: the latest the generator submitted after a due time.
    pub late_ms_max: f64,
    /// Every reading of the yardstick, in the order of time. The first
    /// was taken just before the phase began.
    pub readings: Vec<Reading>,
}

impl<'a> Client<'a> {
    fn new(spec: &'a Spec, sess: &'a Session, k: usize, start: Instant) -> Self {
        Client {
            spec,
            sess,
            k,
            samples: Vec::new(),
            hashes: Vec::new(),
            errors_mm: Vec::new(),
            attempted: 0,
            failed: 0,
            incorrect: Vec::new(),
            busy_s: 0.0,
            yardstick: None,
            readings: Vec::new(),
            start,
        }
    }

    /// Wait for one admitted scan and record it. Latency runs from `from`
    /// (submit time, or due time on the open loop) to the moment `wait`
    /// returns the field; what follows is the benchmark's own checking.
    fn collect(&mut self, ticket: FleetTicket, from: Instant, scan: usize) -> Duration {
        let (job, shard, k) = (ticket.id(), ticket.shard(), self.k);
        let out = ticket.wait();
        let latency = from.elapsed();
        self.attempted += 1;
        let out = match out {
            Ok(o) if o.status != ScanStatus::Degraded => o,
            Ok(_) => {
                self.fail(format!("session {k} scan {scan}: degraded"));
                return latency;
            }
            Err(e) => {
                self.fail(format!("session {k} scan {scan}: {e}"));
                return latency;
            }
        };
        self.samples.push(Sample {
            session: k,
            scan,
            latency_ms: latency.as_secs_f64() * 1e3,
            from_s: from.saturating_duration_since(self.start).as_secs_f64(),
            job,
            shard,
            warm: out.warm,
            stolen: out.stolen,
        });
        if self.hashes.len() < CHECKED_SCANS {
            self.hashes.push((k, scan, field_hash(&out.field)));
            let e = field_error(&out.field, &self.sess.surgery.truth(scan), 0.5);
            if e.voxels == 0 {
                self.incorrect
                    .push(format!("session {k} scan {scan}: no voxel to compare"));
            }
            self.errors_mm.push(e.mean_error_mm);
        }
        latency
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.incorrect.push(why);
    }

    /// Closed loop: submit, wait, check, take the yardstick, repeat until
    /// `end`.
    fn closed_loop(mut self, fleet: &Fleet, end: Instant) -> Self {
        let mut scan = 1;
        while Instant::now() < end {
            let j = job(self.spec, self.sess.id, &self.sess.surgery, scan);
            let t0 = Instant::now();
            match fleet.submit(j) {
                Ok(ticket) => self.busy_s += self.collect(ticket, t0, scan).as_secs_f64(),
                Err(e) => {
                    self.attempted += 1;
                    self.fail(format!("session {} scan {scan}: rejected: {e}", self.k));
                }
            }
            if let Some(y) = self.yardstick.as_mut() {
                self.readings
                    .push((self.start.elapsed().as_secs_f64(), y.run()));
            }
            scan += 1;
        }
        self
    }
}

/// Serve the workload for `seconds` and collect what the clients saw.
pub fn timed_phase(ready: &Ready, spec: &Spec, seconds: f64) -> Phase {
    let fleet = &ready.fleet;
    let mut yardstick = Yardstick::new();
    yardstick.run(); // touch its arrays once
    let mut readings = vec![(0.0, yardstick.run())];
    let start = Instant::now();
    let length = Duration::from_secs_f64(seconds);
    let clients = ready
        .sessions
        .iter()
        .enumerate()
        .map(|(k, sess)| Client::new(spec, sess, k, start));
    let mut late_ms_max = 0.0f64;
    let mut rejected = Vec::new();
    let clients: Vec<Client> = match spec.arrival {
        Arrival::Closed => std::thread::scope(|s| {
            let mut yardstick = Some(yardstick);
            let threads: Vec<_> = clients
                .map(|mut c| {
                    c.yardstick = yardstick.take();
                    s.spawn(move || c.closed_loop(fleet, start + length))
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        }),
        Arrival::Open {
            period,
            stagger,
            pause_every,
            pause,
        } => std::thread::scope(|s| {
            // One collector a session waits on that session's tickets in
            // order, so a slow scan of one session never delays the
            // moment another session's field is seen to arrive.
            let (senders, collectors): (Vec<_>, Vec<_>) = clients
                .map(|mut c| {
                    let (tx, rx) = mpsc::channel::<(FleetTicket, Instant, usize)>();
                    let collector = s.spawn(move || {
                        for (ticket, due, scan) in rx {
                            c.collect(ticket, due, scan);
                        }
                        c
                    });
                    (tx, collector)
                })
                .unzip();
            // `None` is a yardstick reading, `Some((session, scan))` a
            // submission. Arrivals due in the last `pause` of every
            // `pause_every` are left out, and the generator takes the
            // yardstick there instead, `SETTLE` after the last arrival so
            // that the scans in flight have finished.
            let in_pause = |due: Duration| {
                due.as_nanos() % pause_every.as_nanos() >= (pause_every - pause).as_nanos()
            };
            let mut schedule = Vec::new();
            for k in 0..ready.sessions.len() {
                let mut due = stagger * k as u32;
                let mut scan = 1;
                while due < length {
                    if !in_pause(due) {
                        schedule.push((due, Some((k, scan))));
                        scan += 1;
                    }
                    due += period;
                }
            }
            let mut reading = pause_every - pause + SETTLE;
            while reading < length {
                schedule.push((reading, None));
                reading += pause_every;
            }
            schedule.sort();
            for (due, step) in schedule {
                let due = start + due;
                let j = step.map(|(k, scan)| {
                    let sess = &ready.sessions[k];
                    (k, scan, job(spec, sess.id, &sess.surgery, scan))
                });
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let Some((k, scan, j)) = j else {
                    readings.push((start.elapsed().as_secs_f64(), yardstick.run()));
                    continue;
                };
                late_ms_max = late_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
                match fleet.submit(j) {
                    Ok(ticket) => senders[k]
                        .send((ticket, due, scan))
                        .expect("collector ended early"),
                    Err(e) => rejected.push(format!("session {k} scan {scan}: rejected: {e}")),
                }
            }
            drop(senders);
            collectors
                .into_iter()
                .map(|c| c.join().expect("collector thread panicked"))
                .collect()
        }),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut phase = Phase {
        samples: Vec::new(),
        hashes: Vec::new(),
        errors_mm: Vec::new(),
        attempted: rejected.len(),
        failed: rejected.len(),
        incorrect: rejected,
        scans_per_s: 0.0,
        late_ms_max,
        readings,
    };
    for c in clients {
        phase.readings.extend(c.readings);
        phase.scans_per_s += match spec.arrival {
            // Per client, over the time it had a scan in flight: the
            // benchmark's own checking between scans is off the clock.
            Arrival::Closed if c.busy_s > 0.0 => c.samples.len() as f64 / c.busy_s,
            Arrival::Closed => 0.0,
            Arrival::Open { .. } => c.samples.len() as f64 / wall_s,
        };
        phase.attempted += c.attempted;
        phase.failed += c.failed;
        phase.incorrect.extend(c.incorrect);
        phase.samples.extend(c.samples);
        phase.hashes.extend(c.hashes);
        phase.errors_mm.extend(c.errors_mm);
    }
    phase
}

/// Every timed scan in yardsticks, ascending: its latency divided by the
/// mean of the last reading that began before the scan's clock started
/// and the first that began after the field came back (one of them at
/// the ends of the phase). Pairing scan by scan cancels a change of the
/// host's state inside a run, which a ratio of two medians does not.
pub fn scans_in_yardsticks(phase: &Phase) -> Vec<f64> {
    let r = &phase.readings;
    let ratios = phase.samples.iter().filter_map(|s| {
        let to_s = s.from_s + s.latency_ms / 1e3;
        let before = r.iter().rev().find(|(t, _)| *t <= s.from_s);
        let after = r.iter().find(|(t, _)| *t >= to_s);
        let around: Vec<f64> = before.into_iter().chain(after).map(|(_, ms)| *ms).collect();
        (!around.is_empty()).then(|| s.latency_ms / crate::stats::mean(&around))
    });
    sorted(ratios.collect())
}

/// What the persist probe measured (all 0 on a workload without one).
#[derive(Default)]
pub struct PersistProbe {
    pub snapshot_ms: f64,
    pub restore_ms: f64,
    pub snapshot_bytes: usize,
}

/// Snapshot shard 0, restore it in place, and serve one more scan per
/// session; every one must find its context warm.
pub fn persist_probe(
    ready: &mut Ready,
    spec: &Spec,
    tracer: &mut Tracer,
    next_scan: &[usize],
) -> Result<PersistProbe, String> {
    let bytes = tracer
        .span("service::Fleet::snapshot_shard", None, || {
            ready.fleet.snapshot_shard(0)
        })
        .map_err(|e| format!("snapshot_shard failed: {e}"))?;
    let snapshot_ms = tracer.last_ms();
    let on_shard: HashMap<u64, Arc<PreparedSurgery>> = ready
        .sessions
        .iter()
        .filter(|s| s.shard == 0)
        .map(|s| (s.id, Arc::clone(&s.prepared)))
        .collect();
    let restored = tracer
        .span("service::Fleet::restore_shard", None, || {
            ready.fleet.restore_shard(0, &bytes, &on_shard)
        })
        .map_err(|e| format!("restore_shard failed: {e}"))?;
    let restore_ms = tracer.last_ms();
    if restored != on_shard.len() {
        return Err(format!(
            "restored {restored} sessions, expected {}",
            on_shard.len()
        ));
    }
    for (k, sess) in ready.sessions.iter().enumerate() {
        let out = ready
            .fleet
            .submit(job(spec, sess.id, &sess.surgery, next_scan[k]))
            .map_err(|e| format!("scan after restore rejected: {e}"))?
            .wait()
            .map_err(|e| format!("scan after restore failed: {e}"))?;
        if !out.warm || out.status == ScanStatus::Degraded {
            return Err(format!(
                "session {k} after restore: warm={} status={:?}",
                out.warm, out.status
            ));
        }
    }
    Ok(PersistProbe {
        snapshot_ms,
        restore_ms,
        snapshot_bytes: bytes.len(),
    })
}

/// The service layer's view of the timed scans, from records the fleet
/// keeps itself.
pub struct ServiceLayer {
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p90: f64,
    pub exec_ms_p50: f64,
    /// `(session, scan, execution ms)` of every timed scan.
    pub exec_ms: Vec<(usize, usize, f64)>,
    pub scan_ms_p99: f64,
    pub scan_ms_max: f64,
    pub warm_hit_frac: f64,
    pub stolen_frac: f64,
    pub evictions: u64,
    pub peak_queue_depth: f64,
    pub rejected: u64,
    pub deadline_missed: u64,
}

/// Shut the fleet down and read its event logs, cache counters and
/// metric registry. `Start − Enqueue` is the queue wait of a job and
/// `Complete − Start` its execution, both on the shard's own clock.
pub fn service_layer(fleet: Fleet, samples: &[Sample]) -> (ServiceLayer, brainshift_obs::Snapshot) {
    let shards = fleet.shards() as u64;
    let evictions = fleet.cache_stats().iter().map(|c| c.evictions).sum();
    let snapshot = fleet.metrics_snapshot();
    let logs: Vec<Vec<Event>> = fleet.shutdown();
    // (shard, shard-local job) -> [enqueue, start, complete] in µs.
    let mut times: HashMap<(usize, u64), [Option<u64>; 3]> = HashMap::new();
    let mut deadline_missed = 0;
    for (shard, log) in logs.iter().enumerate() {
        for e in log {
            let (job, slot) = match &e.kind {
                EventKind::Enqueue { job, .. } => (*job, 0),
                EventKind::Start { job, .. } => (*job, 1),
                EventKind::Complete {
                    job,
                    missed_deadline,
                    ..
                } => {
                    deadline_missed += u64::from(*missed_deadline);
                    (*job, 2)
                }
                _ => continue,
            };
            times.entry((shard, job)).or_default()[slot] = Some(e.t_us);
        }
    }
    let mut wait_ms = Vec::new();
    let mut exec_ms = Vec::new();
    for s in samples {
        // Fleet ids are `local * shards + shard` (service::fleet docs).
        if let Some([Some(enq), Some(start), Some(done)]) = times.get(&(s.shard, s.job / shards)) {
            wait_ms.push(start.saturating_sub(*enq) as f64 / 1e3);
            exec_ms.push((s.session, s.scan, done.saturating_sub(*start) as f64 / 1e3));
        }
    }
    let wait_ms = sorted(wait_ms);
    let exec_sorted = sorted(exec_ms.iter().map(|e| e.2).collect());
    let latency = sorted(samples.iter().map(|s| s.latency_ms).collect());
    let n = samples.len().max(1) as f64;
    let per_shard = |name: &str| {
        (0..shards)
            .map(move |i| format!("shard{i}.{name}"))
            .collect::<Vec<_>>()
    };
    let layer = ServiceLayer {
        queue_wait_ms_p50: percentile(&wait_ms, 50.0),
        queue_wait_ms_p90: percentile(&wait_ms, 90.0),
        exec_ms_p50: percentile(&exec_sorted, 50.0),
        exec_ms,
        scan_ms_p99: percentile(&latency, 99.0),
        scan_ms_max: latency.last().copied().unwrap_or(0.0),
        warm_hit_frac: samples.iter().filter(|s| s.warm).count() as f64 / n,
        stolen_frac: samples.iter().filter(|s| s.stolen).count() as f64 / n,
        evictions,
        peak_queue_depth: per_shard("service.queue.peak_depth")
            .iter()
            .filter_map(|g| snapshot.gauge(g))
            .fold(0.0, f64::max),
        rejected: per_shard("service.jobs.rejected")
            .iter()
            .filter_map(|c| snapshot.counter(c))
            .sum(),
        deadline_missed,
    };
    (layer, snapshot)
}
