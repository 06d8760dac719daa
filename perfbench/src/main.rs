//! Whole-run benchmark of the gplus-san workspace.
//!
//! ```text
//! perfbench --workload <repro|pipeline|serve_point|serve_scan>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload in this process (so `peak_rss_mib` is that
//! workload's own peak), checks its outputs, and prints as the last line
//! of standard output one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a separate traced run (see [`catalog`]).
//! The line before it stamps the run's context: CPU count, source
//! revision, seed and fixture sizes. `--tiny` shrinks every fixture so
//! the output self-check test runs in seconds. Any failed check exits 1.
//!
//! Scratch files (vaults) live under `.bench_work/` in the working
//! directory and are removed at exit; traced runs leave their spans in
//! `.bench_work/spans/`.

mod catalog;
mod pipeline;
mod repro;
mod serve;
mod spans;
mod stats;
mod sys;

use catalog::{Metrics, Mode};
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["repro", "pipeline", "serve_point", "serve_scan"];

/// Scratch root, relative to the working directory.
const WORK_ROOT: &str = ".bench_work";

/// Settings and shared state of one run.
pub struct Run {
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: Duration,
    pub trace: bool,
    pub tiny: bool,
    /// This process's scratch directory (removed at exit).
    pub work_dir: PathBuf,
    pub spans: Spans,
}

/// Fixture sizes stamped into the result: how many generated datasets
/// the run used, and their nodes, events and persisted (or simulated)
/// days summed over those datasets.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fixture {
    pub datasets: u64,
    pub nodes: u64,
    pub events: u64,
    pub days: u64,
}

impl Fixture {
    pub fn add(&mut self, nodes: usize, events: u64, days: u64) {
        self.datasets += 1;
        self.nodes += nodes as u64;
        self.events += events;
        self.days += days;
    }
}

/// Seed of the `j`-th dataset a run generates from `--seed`. Whole-run
/// costs depend on the dataset (degree tails, fit convergence), so
/// workloads time several datasets per run and report the median.
pub fn dataset_seed(seed: u64, j: u64) -> u64 {
    (seed % (1 << 40)) * 1000 + j
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub fixture: Fixture,
    /// Failed correctness checks, one message each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run_id = format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let mut run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        tiny: args.tiny,
        work_dir: PathBuf::from(WORK_ROOT).join(&run_id),
        spans: Spans::new(run_id.clone()),
    };
    if let Err(e) = std::fs::create_dir_all(&run.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.work_dir.display());
        return ExitCode::FAILURE;
    }
    let mut outcome = match args.workload.as_str() {
        "repro" => repro::run(&mut run),
        "pipeline" => pipeline::run(&mut run),
        "serve_point" => serve::run(&mut run, serve::Mix::Point),
        "serve_scan" => serve::run(&mut run, serve::Mix::Scan),
        _ => unreachable!("validated in parse_args"),
    };
    outcome.metrics.set("peak_rss_mib", sys::peak_rss_mib());
    let attempted = outcome.attempted;
    outcome.check(attempted > 0, || "the timed phase attempted nothing".into());
    let _ = std::fs::remove_dir_all(&run.work_dir);
    if run.trace {
        let path = PathBuf::from(WORK_ROOT)
            .join("spans")
            .join(format!("{run_id}.jsonl"));
        if let Err(e) = run.spans.write_jsonl(&path) {
            outcome
                .errors
                .push(format!("writing spans to {}: {e}", path.display()));
        }
    }

    let mode = if run.trace {
        Mode::PerLayer
    } else {
        Mode::EndToEnd
    };
    let metrics = outcome.metrics.to_json(mode).unwrap_or_else(|e| {
        outcome.errors.push(e);
        "{}".to_string()
    });
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = outcome.errors.is_empty();
    let f = outcome.fixture;
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rev\": \"{}\", \"datasets\": {}, \"nodes\": {}, \"events\": {}, \"days\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(run.trace),
        sys::nproc(),
        sys::source_rev(),
        f.datasets,
        f.nodes,
        f.events,
        f.days
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
