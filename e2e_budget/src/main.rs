//! `e2e_budget`: scan in -> deformation field out through the production
//! `service::Fleet`, with a separate traced run that splits the same work
//! by layer. See `README.md` beside `Cargo.toml` for the workloads, the
//! metrics and how they interact.
//!
//! ```bash
//! cargo run --release --manifest-path e2e_budget/Cargo.toml -- \
//!     --workload <name> [--seed S] [--seconds T] [--trace 0|1] [--repeat N] [--smoke]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics. Exit code 1 when an output is wrong.

mod fleet_run;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use brainshift_obs::{parse_json, BenchReport, JsonValue, Snapshot};
use fleet_run::{
    persist_probe, scans_in_yardsticks, service_layer, set_up, timed_phase, PersistProbe, Phase,
    Ready,
};
use stats::{mean, median, percentile, sorted};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{direct_pass, spmv_probe, Tracer};
use workloads::{Spec, SPECS};

/// Set-up is repeated, and its median reported, while the repeats are
/// predicted to fit in this many seconds (three at most).
const SETUP_BUDGET_S: f64 = 10.0;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: e2e-budget --workload <{}> [--seed S] [--seconds T] [--trace 0|1] [--repeat N] [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat, mut smoke) =
        (11u64, 35.0f64, false, 1usize, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => trace = value("0 or 1")? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let spec = workloads::spec(&workload)
        .ok_or_else(|| format!("unknown workload {workload}\n{}", usage()))?;
    if smoke {
        seconds /= 10.0;
    }
    if !(seconds > 0.0 && seconds <= 600.0) || repeat == 0 {
        return Err("--seconds must be in (0, 600] and --repeat at least 1".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        repeat,
    })
}

/// `(name, unit, value)`, in the order of `BENCHMARK.json`.
type Metrics = Vec<(&'static str, &'static str, f64)>;

struct RunResult {
    metrics: Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
}

fn out_dir() -> PathBuf {
    PathBuf::from("bench_out/e2e_budget")
}

/// Compare this run's field hashes with those an earlier run of the same
/// workload and seed left behind, then record the union. The file is what
/// lets two processes (the fleet run and the traced run, or two runs of
/// one seed) be checked against each other.
fn check_hashes(
    spec: &Spec,
    seed: u64,
    found: &[(usize, usize, u64)],
    incorrect: &mut Vec<String>,
) {
    let path = out_dir().join(format!("{}.seed{seed}.hashes", spec.name));
    let mut known: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for line in std::fs::read_to_string(&path).unwrap_or_default().lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if let [k, scan, h] = f[..] {
            if let (Ok(k), Ok(scan), Ok(h)) = (k.parse(), scan.parse(), u64::from_str_radix(h, 16))
            {
                known.insert((k, scan), h);
            }
        }
    }
    for &(k, scan, h) in found {
        match known.get(&(k, scan)) {
            Some(&old) if old != h => incorrect.push(format!(
                "session {k} scan {scan}: field hash {h:016x}, but {old:016x} in {} (delete the file if the numerics were changed on purpose)",
                path.display()
            )),
            _ => {
                known.insert((k, scan), h);
            }
        }
    }
    let text: String = known
        .iter()
        .map(|((k, scan), h)| format!("{k} {scan} {h:016x}\n"))
        .collect();
    if std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .is_err()
    {
        eprintln!("warning: could not write {}", path.display());
    }
}

/// One number for the output lines: FNV-1a over a run's field hashes.
fn digest(hashes: &[(usize, usize, u64)]) -> u64 {
    stats::fnv1a_words(hashes.iter().map(|&(_, _, h)| h))
}

/// One untraced run: the end-to-end metrics.
fn run_end_to_end(args: &Args, process_start: Instant) -> Result<(RunResult, BenchReport), String> {
    let spec = args.spec;
    let mut setups: Vec<f64> = Vec::new();
    let mut t = process_start;
    let ready = loop {
        let ready = set_up(spec, args.seed, None)?;
        let took = t.elapsed().as_secs_f64();
        setups.push(took);
        if setups.len() == 3 || setups.iter().sum::<f64>() + took > SETUP_BUDGET_S {
            break ready;
        }
        ready.fleet.shutdown();
        t = Instant::now();
    };
    let n_setups = setups.len();
    let setup_s = median(setups);

    let phase = timed_phase(&ready, spec, args.seconds);
    let Ready { fleet, .. } = ready;
    let (svc, snapshot) = service_layer(fleet, &phase.samples);

    let latency = sorted(phase.samples.iter().map(|s| s.latency_ms).collect());
    let err_mm = mean(&phase.errors_mm);
    let mut incorrect = phase.incorrect.clone();
    if err_mm > spec.err_ceiling_mm {
        incorrect.push(format!(
            "field_err_mean_mm {err_mm:.4} above the ceiling {}",
            spec.err_ceiling_mm
        ));
    }
    if latency.is_empty() {
        incorrect.push("no scan completed".into());
    }
    check_hashes(spec, args.seed, &phase.hashes, &mut incorrect);

    // A scan in yardsticks: the host's state of the minute is in both the
    // scan and the yardsticks taken around it, and cancels (yardstick.rs).
    let rel = scans_in_yardsticks(&phase);
    let yardstick_ms = median(phase.readings.iter().map(|r| r.1).collect());
    let (p50_ms, tail_ms) = (
        percentile(&latency, 50.0),
        percentile(&latency, spec.tail_pct),
    );
    let metrics: Metrics = vec![
        ("setup_s", "s", setup_s),
        ("scan_rel_p50", "yardstick", percentile(&rel, 50.0)),
        ("field_err_mean_mm", "mm", err_mm),
        ("peak_rss_mb", "MiB", stats::peak_rss_mb()),
    ];
    println!(
        "{}: {} scans timed in {} s, set-up measured {} time(s)",
        spec.name,
        latency.len(),
        args.seconds,
        n_setups
    );
    println!(
        "informational, in this host's milliseconds: scan p50 {p50_ms:.2} ms, p{} {tail_ms:.2} ms, {:.3} scans/s, yardstick {yardstick_ms:.3} ms (median of {})",
        spec.tail_pct,
        phase.scans_per_s,
        phase.readings.len()
    );
    println!(
        "informational: p99 {:.2} ms, max {:.2} ms, queue wait p50 {:.3} ms, exec p50 {:.2} ms, warm {:.3}, evictions {}, deadlines missed {}, generator late by at most {:.3} ms",
        svc.scan_ms_p99,
        svc.scan_ms_max,
        svc.queue_wait_ms_p50,
        svc.exec_ms_p50,
        svc.warm_hit_frac,
        svc.evictions,
        svc.deadline_missed,
        phase.late_ms_max
    );
    println!(
        "field hash digest {:016x} over {} checked scans",
        digest(&phase.hashes),
        phase.hashes.len()
    );

    Ok(finish(args, metrics, incorrect, &phase, snapshot))
}

/// One traced run: the per-layer metrics.
fn run_traced(args: &Args) -> Result<(RunResult, BenchReport), String> {
    let spec = args.spec;
    let mut tracer = Tracer::new();
    let mut ready = set_up(spec, args.seed, Some(&mut tracer))?;
    // Half the time for the fleet; the direct pass takes about the rest.
    let phase = timed_phase(&ready, spec, args.seconds / 2.0);
    let probe = if spec.persist_probe {
        let mut next = vec![1usize; ready.sessions.len()];
        for s in &phase.samples {
            next[s.session] = next[s.session].max(s.scan + 1);
        }
        persist_probe(&mut ready, spec, &mut tracer, &next)?
    } else {
        PersistProbe::default()
    };
    let Ready { fleet, sessions } = ready;
    let (svc, snapshot) = service_layer(fleet, &phase.samples);

    let (layers, ctx) = direct_pass(&mut tracer, spec, &sessions)?;
    let roof = spmv_probe(&mut tracer, ctx.matrix());
    let mesh = sessions[0].prepared.mesh();

    let mut incorrect = phase.incorrect.clone();
    incorrect.extend(layers.incorrect.iter().cloned());
    // The direct pass goes second: a field it computes differently from
    // the fleet shows as a mismatch within this one run.
    let hashes = [phase.hashes.as_slice(), layers.hashes.as_slice()].concat();
    check_hashes(spec, args.seed, &hashes, &mut incorrect);

    let med = |v: &[f64]| median(v.to_vec());
    let latency = sorted(phase.samples.iter().map(|s| s.latency_ms).collect());
    let register_scan_ms = med(&layers.register_scan_ms);
    let context_build_ms = med(&layers.context_build_ms);
    // Scan by scan, what the job took on its fleet worker beyond what the
    // same scan took alone on the bench thread: the service's own work
    // (volume hand-off, cache take and insert, carry-forward clone) plus
    // whatever the other tenants cost it.
    let overhead_ms = median(
        svc.exec_ms
            .iter()
            .filter_map(|(k, scan, fleet_ms)| Some(fleet_ms - layers.exec_ms.get(&(*k, *scan))?))
            .collect(),
    );
    let metrics: Metrics = vec![
        (
            "core.prepare_ms",
            "ms",
            tracer.median_ms("core::PreparedSurgery::new"),
        ),
        ("core.register_scan_ms", "ms", register_scan_ms),
        ("core.closure_frac", "ratio", med(&layers.closure)),
        ("segment.classify_ms", "ms", med(&layers.classify_ms)),
        ("segment.feature_ms", "ms", med(&layers.feature_ms)),
        ("segment.knn_build_ms", "ms", med(&layers.knn_build_ms)),
        ("segment.knn_query_ms", "ms", med(&layers.knn_query_ms)),
        ("segment.morphology_ms", "ms", med(&layers.morphology_ms)),
        (
            "segment.knn_leaf_visits",
            "count",
            mean(&layers.knn_leaf_visits),
        ),
        (
            "segment.reclassified_frac",
            "ratio",
            mean(&layers.reclassified_frac),
        ),
        ("surface.evolve_ms", "ms", med(&layers.surface_ms)),
        (
            "surface.residual_mm",
            "mm",
            mean(&layers.surface_residual_mm),
        ),
        ("fem.solve_ms", "ms", med(&layers.solve_ms)),
        ("fem.resample_ms", "ms", med(&layers.resample_ms)),
        ("fem.warm_start_frac", "ratio", layers.warm_start_frac()),
        ("fem.context_build_ms", "ms", context_build_ms),
        ("fem.assembly_ms", "ms", med(&layers.assembly_ms)),
        ("fem.reduction_ms", "ms", med(&layers.reduction_ms)),
        ("fem.factorization_ms", "ms", med(&layers.factorization_ms)),
        ("fem.context_bytes", "bytes", layers.context_bytes as f64),
        ("sparse.krylov_iters", "count", mean(&layers.krylov_iters)),
        (
            "sparse.solve_attempts",
            "count",
            mean(&layers.solve_attempts),
        ),
        ("sparse.ms_per_iter", "ms", layers.ms_per_iter()),
        ("sparse.spmv_gbs", "GB/s", roof.spmv_gbs),
        ("sparse.stream_copy_gbs", "GB/s", roof.stream_copy_gbs),
        (
            "sparse.spmv_bw_frac",
            "ratio",
            roof.spmv_gbs / roof.stream_copy_gbs,
        ),
        ("sparse.spmv_flop_per_byte", "flop/byte", roof.flop_per_byte),
        (
            "mesh.generate_ms",
            "ms",
            tracer.median_ms("mesh::mesh_labeled_volume"),
        ),
        ("mesh.nodes", "count", mesh.num_nodes() as f64),
        ("mesh.tets", "count", mesh.num_tets() as f64),
        ("service.queue_wait_ms_p50", "ms", svc.queue_wait_ms_p50),
        ("service.queue_wait_ms_p90", "ms", svc.queue_wait_ms_p90),
        ("service.exec_ms_p50", "ms", svc.exec_ms_p50),
        ("service.overhead_ms", "ms", overhead_ms),
        ("service.scan_ms_p50", "ms", percentile(&latency, 50.0)),
        (
            "service.scan_ms_tail",
            "ms",
            percentile(&latency, spec.tail_pct),
        ),
        ("service.scan_ms_p99", "ms", svc.scan_ms_p99),
        ("service.scans_per_s", "1/s", phase.scans_per_s),
        ("service.warm_hit_frac", "ratio", svc.warm_hit_frac),
        ("service.stolen_frac", "ratio", svc.stolen_frac),
        ("service.evictions", "count", svc.evictions as f64),
        ("service.peak_queue_depth", "count", svc.peak_queue_depth),
        ("service.rejected", "count", svc.rejected as f64),
        (
            "service.deadline_missed",
            "count",
            svc.deadline_missed as f64,
        ),
        ("persist.snapshot_ms", "ms", probe.snapshot_ms),
        ("persist.restore_ms", "ms", probe.restore_ms),
        (
            "persist.snapshot_bytes",
            "bytes",
            probe.snapshot_bytes as f64,
        ),
        ("loadgen.late_ms_max", "ms", phase.late_ms_max),
        (
            "host.yardstick_ms",
            "ms",
            median(phase.readings.iter().map(|r| r.1).collect()),
        ),
        (
            "host.nproc",
            "count",
            std::thread::available_parallelism().map_or(0, usize::from) as f64,
        ),
        (
            "host.rayon_threads",
            "count",
            rayon::current_num_threads() as f64,
        ),
    ];
    println!(
        "{}: {} fleet scans in {} s, {} scans traced directly",
        spec.name,
        phase.samples.len(),
        args.seconds / 2.0,
        layers.register_scan_ms.len()
    );
    println!(
        "field hash digest {:016x} over {} checked scans",
        digest(&hashes),
        hashes.len()
    );

    let trace_path = out_dir().join(format!("{}.trace.json", spec.name));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&trace_path, tracer.to_json().render()))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!("{} spans -> {}", tracer.spans.len(), trace_path.display());

    Ok(finish(args, metrics, incorrect, &phase, snapshot))
}

/// Print the metrics by name and fill the `brainshift.obs.v1` report in:
/// the fleet's own registry as its metrics, this run's values beside it.
fn finish(
    args: &Args,
    metrics: Metrics,
    incorrect: Vec<String>,
    phase: &Phase,
    fleet_registry: Snapshot,
) -> (RunResult, BenchReport) {
    for (name, unit, value) in &metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    for why in &incorrect {
        println!("INCORRECT: {why}");
    }
    let mut report = BenchReport::new("e2e_budget");
    report.metrics = fleet_registry;
    report.params = JsonValue::obj()
        .with("workload", args.spec.name.into())
        .with("why", args.spec.why.into())
        .with("seed", args.seed.into())
        .with("seconds", args.seconds.into())
        .with("trace", args.trace.into());
    let mut values = JsonValue::obj();
    for (name, unit, value) in &metrics {
        values.set(
            name,
            JsonValue::obj()
                .with("value", (*value).into())
                .with("unit", (*unit).into()),
        );
    }
    report.extra = JsonValue::obj()
        .with("values", values)
        .with("attempted", phase.attempted.into())
        .with("failed", phase.failed.into())
        .with(
            "incorrect",
            incorrect
                .iter()
                .map(|s| JsonValue::from(s.as_str()))
                .collect(),
        )
        // Per client, in the order the fields came back.
        .with(
            "scan_ms",
            phase
                .samples
                .iter()
                .map(|s| JsonValue::from(s.latency_ms))
                .collect(),
        )
        .with(
            "yardstick_ms",
            phase
                .readings
                .iter()
                .map(|&(_, ms)| JsonValue::from(ms))
                .collect(),
        );
    let result = RunResult {
        metrics,
        correct: incorrect.is_empty(),
        attempted: phase.attempted,
        failed: phase.failed,
    };
    (result, report)
}

/// The contract's result line: one JSON object on one line.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory, so that `--repeat` judges by the file the driver
/// judges by.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {}", e.msg))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `--repeat N`: spread (max - min) / median of every end-to-end metric
/// over N runs in fresh fleets, beside its bound.
fn spread_check(runs: &[RunResult]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!("spread over {} runs:", runs.len());
    for (i, (name, unit, _)) in runs[0].metrics.iter().enumerate() {
        let values = sorted(runs.iter().map(|r| r.metrics[i].2).collect());
        let med = median(values.clone());
        // A metric that reads 0 on this workload has no spread to speak of.
        let spread = if med == 0.0 {
            0.0
        } else {
            (values[values.len() - 1] - values[0]) / med.abs()
        };
        let Some(bound) = bounds.get(*name) else {
            println!(
                "{name:<28} median {med:>12.4} {unit:<9} spread {:>6.2}%",
                spread * 100.0
            );
            continue;
        };
        let verdict = if spread <= *bound { "ok" } else { "EXCEEDS" };
        ok &= spread <= *bound;
        println!(
            "{name:<28} median {med:>12.4} {unit:<9} spread {:>6.2}%  bound {:>5.1}%  {verdict}",
            spread * 100.0,
            bound * 100.0
        );
    }
    Ok(ok)
}

fn run(process_start: Instant) -> Result<bool, String> {
    let args = parse_args()?;
    println!("workload {}: {}", args.spec.name, args.spec.why);
    let mut runs = Vec::new();
    let mut start = process_start;
    for i in 0..args.repeat {
        if i > 0 {
            stats::reset_peak_rss();
            start = Instant::now();
        }
        let (result, report) = if args.trace {
            run_traced(&args)?
        } else {
            run_end_to_end(&args, start)?
        };
        let path = out_dir().join(format!(
            "{}{}.json",
            args.spec.name,
            if args.trace { ".layers" } else { "" }
        ));
        report
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        runs.push(result);
    }
    let mut ok = runs.iter().all(|r| r.correct);
    if args.repeat > 1 {
        ok &= spread_check(&runs)?;
    }
    // Last line: the result of the (last) run.
    println!("{}", result_line(&runs[runs.len() - 1]));
    Ok(ok)
}

fn main() -> ExitCode {
    match run(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e-budget: {e}");
            ExitCode::from(2)
        }
    }
}
