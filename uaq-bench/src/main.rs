//! `uaq-bench`: the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! uaq-bench run --seed <u64> [--workload <name>]... [--seconds <n>] [--trace <0|1>] [--quick]
//! uaq-bench compare <base.json> <head.json>
//! uaq-bench list [--json]
//! ```
//!
//! `run` builds its inputs from the seed, drives the real
//! `PredictionService` / `Predictor` / `execute_full` through their public
//! APIs, checks every output against an in-thread reference, and prints
//! every metric by name with its unit. See the README next to this file.

mod inputs;
mod inventory;
mod paper_cells;
mod report;
mod service_load;
mod service_workload;
mod setup;
mod summary;
mod trace;
mod trace_run;

use report::{Env, Report};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use uaq_telemetry::Json;

/// Where reports and span dumps go, relative to the working directory.
const OUT_DIR: &str = "target/uaq-bench";

pub struct RunOptions {
    pub seed: u64,
    /// Length of the timed phases of one workload, in seconds; request
    /// counts are derived from it, so they repeat exactly.
    pub seconds: f64,
    /// Also run the traced pass and the per-layer timings.
    pub trace: bool,
    pub workers: usize,
}

/// The attribution is only trusted while it closes.
pub fn check_closure(workload: &str, ratio: f64, problems: &mut Vec<String>) {
    if !(0.9..=1.1).contains(&ratio) {
        problems.push(format!(
            "{workload}: trace.closure_ratio {ratio:.3} is outside [0.9, 1.1]: a stage is missing"
        ));
    }
}

pub fn write_spans(opts: &RunOptions, workload: &str, spans: &[trace::Span]) {
    let path = PathBuf::from(OUT_DIR).join(format!("{workload}-{}-spans.jsonl", opts.seed));
    write_file(&path, &trace::spans_to_jsonl(spans));
}

fn write_file(path: &PathBuf, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// First line of a command's output, or `unknown` (the driver's checkout
/// is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    // Keeps `git` from walking out of the working directory in search of a
    // repository that is not this checkout's.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: uaq-bench run --seed <u64> [--workload <name>]... [--seconds <n>] \
         [--trace <0|1>] [--quick]\n       uaq-bench compare <base.json> <head.json>\n       \
         uaq-bench list [--json]"
    );
    ExitCode::from(2)
}

fn run(args: &[String]) -> ExitCode {
    let mut seed = None;
    let mut workloads: Vec<String> = Vec::new();
    let mut seconds = inventory::RUN_SECONDS as f64;
    let mut trace_flag: Option<bool> = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--seed" => seed = value().and_then(|v| v.parse::<u64>().ok()),
            "--workload" => match value() {
                Some(w) if inventory::WORKLOADS.iter().any(|k| k.name == w) => {
                    workloads.push(w.to_string())
                }
                other => {
                    eprintln!("unknown workload {other:?}");
                    return usage();
                }
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if (1.0..=60.0).contains(&s) => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => trace_flag = Some(false),
                Some("1") => trace_flag = Some(true),
                _ => return usage(),
            },
            "--quick" => quick = true,
            _ => return usage(),
        }
    }
    let Some(seed) = seed else {
        return usage();
    };
    if workloads.is_empty() {
        workloads = inventory::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let opts = RunOptions {
        seed,
        seconds: if quick { seconds / 20.0 } else { seconds },
        // Without `--trace` the run is the full one: both passes.
        trace: trace_flag.unwrap_or(true),
        workers: service_workload::workers_for(cores),
    };
    let mut report = Report {
        env: Env {
            cores: cores as u64,
            workers: opts.workers as u64,
            rustc: first_line_of("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
            commit: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            seed,
        },
        quick,
        workloads: Default::default(),
    };
    let mut problems = Vec::new();
    for name in &workloads {
        eprintln!(
            "running {name} (seed {seed}, {} s, trace {})",
            opts.seconds, opts.trace
        );
        let result = match inputs::service_shape(name) {
            Some(shape) => service_workload::run(&shape, &opts, &mut problems),
            None => paper_cells::run(&opts, &mut problems),
        };
        for (phase, c) in &result.counts {
            if c.failed > 0 {
                problems.push(format!(
                    "{name}: {} of {} operations failed in phase `{phase}` \
                     (lost, degraded tier, or prediction bits differ from the reference)",
                    c.failed, c.attempted
                ));
            }
        }
        report.workloads.insert(name.clone(), result);
    }

    print!("{}", report.echo());
    let path = PathBuf::from(OUT_DIR).join(format!("{}-{seed}.json", report.env.commit));
    write_file(&path, &report.to_json().to_text());
    for problem in &problems {
        println!("FAILED {problem}");
    }
    // With `--trace` given, the last line is the one the driver reads.
    if let (Some(layers), [name]) = (trace_flag, workloads.as_slice()) {
        println!(
            "{}",
            report::driver_line(&report.workloads[name], layers, problems.is_empty())
        );
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Report::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn compare(base: &str, head: &str) -> ExitCode {
    let outcome = load_report(base)
        .and_then(|b| load_report(head).map(|h| (b, h)))
        .and_then(|(b, h)| report::compare(&b, &h));
    match outcome {
        Ok(c) => {
            print!("{}", c.table);
            if c.regressions == 0 {
                ExitCode::SUCCESS
            } else {
                println!("{} regression(s)", c.regressions);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [base, head])) if cmd == "compare" => compare(base, head),
        Some((cmd, [])) if cmd == "list" => {
            print!("{}", inventory::render_list());
            ExitCode::SUCCESS
        }
        Some((cmd, [flag])) if cmd == "list" && flag == "--json" => {
            print!("{}", inventory::render_benchmark_json());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
