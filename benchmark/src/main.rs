//! The repo benchmark: a submit-to-durable-commit ledger with a
//! per-layer budget. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! It generates the workload's inputs from the seed, drives the stack
//! from payload strings to durable commit through the public API of
//! `scdb-server`, checks every verdict and digest against a sequential
//! oracle, and prints one JSON result line last. `README.md` next to
//! this package documents every metric and workload.

mod cluster_run;
mod inputs;
mod node_run;
mod probes;
mod rep;
mod report;
mod spans;
mod stats;
mod yardstick;

use inputs::{Inputs, Scale, Workload};
use probes::Metrics;
use rep::{Rep, TempRoot};
use scdb_core::Telemetry;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Repetitions an end-to-end run makes at least, whatever `--seconds`.
const MIN_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes every `SCDB_*` variable so the program runs with whatever
/// its defaults ship, then pins the two knobs the benchmark fixes.
/// `TMPDIR` moves the cluster's self-cleaning replica stores inside the
/// checkout. Called before any thread exists.
fn fix_environment(tmp: &Path) {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SCDB_") {
            std::env::remove_var(name);
        }
    }
    std::env::set_var("SCDB_ADMISSION_WORKERS", rep::ADMISSION_WORKERS.to_string());
    std::env::set_var("TMPDIR", tmp);
}

/// One repetition on a fresh node or cluster. A traced repetition
/// turns the program's telemetry on and records the harness's spans.
fn run_rep(inputs: &Inputs, tmp: &TempRoot, traced: bool) -> Rep {
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    match inputs.workload {
        Workload::Cluster4 => cluster_run::run_rep(inputs, telemetry),
        _ => node_run::run_rep(inputs, tmp, telemetry),
    }
}

/// Generates the inputs and builds a fresh node or cluster, `times`
/// over, with a yardstick reading before, between and after; returns
/// the last inputs, every set-up's duration and the readings.
fn set_up(args: &Args, tmp: &TempRoot, times: usize) -> (Inputs, Vec<f64>, Vec<f64>) {
    let mut durations = Vec::with_capacity(times);
    let mut yardstick_s = vec![yardstick::run()];
    let mut last = None;
    for _ in 0..times {
        let start = Instant::now();
        let inputs = inputs::generate(args.workload, args.seed, Scale::full());
        match args.workload {
            Workload::Cluster4 => cluster_run::construct(),
            _ => node_run::construct(&inputs, tmp),
        }
        durations.push(start.elapsed().as_secs_f64());
        yardstick_s.push(yardstick::run());
        last = Some(inputs);
    }
    (last.expect("at least one set-up"), durations, yardstick_s)
}

struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Per-repetition values behind the end-to-end medians.
    samples: report::Samples,
    notes: Vec<String>,
}

fn tally(reps: &[&Rep], outcome: &mut Outcome) {
    for rep in reps {
        outcome.attempted += rep.attempted;
        outcome.failed += rep.failed;
        outcome.correct &= rep.failed == 0 && rep.digests_match;
        if !rep.digests_match {
            outcome
                .notes
                .push("a state digest comparison failed".into());
        }
        if !rep.valid {
            outcome
                .notes
                .push("open-loop repetition invalid: generator late or backlog left".into());
        }
    }
}

/// `--trace 0`: repetitions on fresh nodes until `--seconds` is used,
/// a yardstick reading between every two; every end-to-end metric is
/// the median over them, at the reference host speed.
fn end_to_end_run(args: &Args, tmp: &TempRoot) -> Outcome {
    let (inputs, setups_s, setup_yardstick_s) = set_up(args, tmp, SETUPS);
    let measuring = Instant::now();
    let mut reps = Vec::new();
    let mut yardstick_s = vec![yardstick::run()];
    while reps.len() < MIN_REPS || measuring.elapsed().as_secs_f64() < args.seconds {
        reps.push(run_rep(&inputs, tmp, false));
        yardstick_s.push(yardstick::run());
    }
    let mut samples = report::end_to_end_samples(&inputs, &reps, &setups_s);
    samples.insert(report::YARDSTICK, yardstick_s);
    samples.insert(report::SETUP_YARDSTICK, setup_yardstick_s);
    let mut outcome = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: report::end_to_end(args.workload, &samples),
        samples,
        notes: vec![format!("{} repetitions", reps.len())],
    };
    tally(&reps.iter().collect::<Vec<_>>(), &mut outcome);
    outcome
}

/// `--trace 1`: pairs of an untraced and a traced repetition for half
/// of `--seconds`, then the layer probes over the same inputs.
fn traced_run(args: &Args, tmp: &TempRoot, out_dir: &Path) -> Outcome {
    let (inputs, _, _) = set_up(args, tmp, 1);
    let measuring = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut yardstick_s = vec![yardstick::run()];
    while traced.is_empty() || measuring.elapsed().as_secs_f64() < args.seconds / 2.0 {
        plain.push(run_rep(&inputs, tmp, false));
        traced.push(run_rep(&inputs, tmp, true));
        yardstick_s.push(yardstick::run());
    }
    let walls = |reps: &[Rep]| reps.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    let overhead = report::overhead_fraction(&walls(&traced), &walls(&plain));
    let mut metrics = Metrics::new();
    probes::run(&inputs, &mut metrics);
    let last = traced.last().expect("at least one traced repetition");
    let host_slowdown = yardstick::slowdown(&yardstick_s);
    report::add_traced(&inputs, last, overhead, host_slowdown, &mut metrics);

    let trace_path = out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
    if let Err(e) = std::fs::write(&trace_path, spans::to_jsonl(&last.spans)) {
        eprintln!("warning: could not write {}: {e}", trace_path.display());
    }
    let mut outcome = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics,
        samples: report::Samples::new(),
        notes: vec![format!("{} traced repetitions", traced.len())],
    };
    tally(
        &plain.iter().chain(&traced).collect::<Vec<_>>(),
        &mut outcome,
    );
    let coverage = outcome.metrics["server.span_coverage"];
    if coverage < report::MIN_SPAN_COVERAGE {
        outcome.correct = false;
        outcome.notes.push(format!(
            "span coverage {coverage:.3} is below {}",
            report::MIN_SPAN_COVERAGE
        ));
    }
    outcome
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Everything a reader needs to interpret the numbers, next to them.
fn results_json(args: &Args, names: &[(&str, &str)], outcome: &Outcome) -> String {
    use scdb_json::{obj, Value};
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = obj! {
        "workload" => args.workload.name(),
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "host_cores" => cores,
        "cpu_model" => cpu_model(),
        "rustc" => env!("SCDB_BENCHMARK_RUSTC"),
        "wave_workers" => rep::WORKERS,
        "admission_workers" => scdb_mempool::MempoolConfig::default().admission_workers,
        "fsync" => scdb_store::FsyncLevel::Group(rep::FSYNC_GROUP).label(),
        "slo_ms" => rep::SLO_MS,
        "open_loop_rate_tps" => rep::OPEN_LOOP_RATE,
        "simulated_clock_metrics" => "consensus.sim_*",
    };
    let samples = |name: &str| {
        let values = outcome.samples.get(name).map_or(&[][..], Vec::as_slice);
        Value::Array(values.iter().copied().map(Value::from).collect())
    };
    let metrics: Vec<Value> = names
        .iter()
        .map(|(name, unit)| {
            obj! {
                "name" => *name,
                "unit" => *unit,
                "value" => outcome.metrics.get(name).copied().unwrap_or(0.0),
                "per_repetition" => samples(name),
            }
        })
        .collect();
    let notes: Vec<Value> = outcome
        .notes
        .iter()
        .map(|n| Value::from(n.as_str()))
        .collect();
    obj! {
        "config" => config,
        "correct" => outcome.correct,
        "attempted" => outcome.attempted,
        "failed" => outcome.failed,
        "notes" => Value::Array(notes),
        "yardstick_reference_s" => yardstick::REFERENCE_S,
        "yardstick_s" => samples(report::YARDSTICK),
        "setup_yardstick_s" => samples(report::SETUP_YARDSTICK),
        "metrics" => Value::Array(metrics),
    }
    .to_pretty_string()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // Dropped on every way out of this function, unwinding included.
    let tmp = TempRoot::create(&out_dir).map_err(|e| format!("scratch directory: {e}"))?;
    fix_environment(tmp.path());

    let (outcome, names): (Outcome, &[(&str, &str)]) = if args.trace {
        (traced_run(&args, &tmp, &out_dir), &report::PER_LAYER)
    } else {
        (end_to_end_run(&args, &tmp), &report::END_TO_END)
    };
    drop(tmp);

    let suffix = if args.trace { "-trace" } else { "" };
    let results_path = out_dir.join(format!("results-{}{suffix}.json", args.workload.name()));
    if let Err(e) = std::fs::write(&results_path, results_json(&args, names, &outcome)) {
        eprintln!("warning: could not write {}: {e}", results_path.display());
    }
    for note in &outcome.notes {
        eprintln!("{}: {note}", args.workload.name());
    }
    for (name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        report::metrics_json(names, &outcome.metrics)
    );
    Ok(outcome.correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("error: {message}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload end to end at a tiny size: all verdicts and
    /// digests hold, every traced layer is covered.
    #[test]
    fn tiny_smoke_of_all_four_workloads() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let tmp = TempRoot::create(&out).unwrap();
        fix_environment(tmp.path());
        for workload in Workload::ALL {
            let inputs = inputs::generate(workload, 42, Scale::tiny());
            for traced in [false, true] {
                let rep = run_rep(&inputs, &tmp, traced);
                assert_eq!(rep.failed, 0, "{} traced={traced}", workload.name());
                assert!(rep.digests_match, "{}", workload.name());
                assert_eq!(rep.committed, inputs.expected_commits());
                assert!(rep.recovery_s > 0.0 && rep.dir_bytes > 0);
                assert_eq!(rep.commit_latency_ms.len(), rep.committed);
                if traced {
                    let mut metrics = Metrics::new();
                    probes::run(&inputs, &mut metrics);
                    report::add_traced(&inputs, &rep, 0.0, 1.0, &mut metrics);
                    for (name, _) in report::PER_LAYER {
                        assert!(metrics.contains_key(name), "{name} missing");
                    }
                    assert!(metrics["server.span_coverage"] > 0.5);
                }
            }
        }
    }
}
