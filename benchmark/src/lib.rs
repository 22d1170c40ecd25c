//! The repository's benchmark: six Pavlo/service workloads behind one
//! command, an end-to-end run and a per-layer traced run. README.md in
//! this directory is the specification; `BENCHMARK.json` at the
//! repository root is the contract the driver checks.
//!
//! One process runs one workload (`--workload NAME`); without a name
//! the binary re-executes itself once per workload, so every workload
//! gets a fresh process and its own `VmHWM`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod compare;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod service;
pub mod stats;
pub mod trace;

use std::process::{Command, ExitCode, Stdio};

pub use harness::AllocHooks;
use harness::{out_dir, peak_rss_mb, Ctx, Opts, Result};
use metrics::{RUN_SECONDS, WORKLOADS};

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--check]
       run.sh --print-benchmark-json
       run.sh --compare-sets DIR";

struct Args {
    workload: Option<String>,
    opts: Opts,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            traced: false,
            check: false,
        },
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                parsed.opts.seconds = s;
                seconds_given = true;
            }
            "--trace" => {
                parsed.opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => parsed.opts.traced = true,
            "--check" => parsed.opts.check = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if parsed.opts.check && !seconds_given {
        parsed.opts.seconds = 0.5;
    }
    Ok(parsed)
}

/// Run one workload in this process and return its rendered result:
/// `(human-readable text, the driver's JSON line, correct)`.
pub fn run_workload(
    name: &str,
    opts: Opts,
    alloc: Option<AllocHooks>,
) -> Result<(String, String, bool)> {
    let name: &'static str = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    // Spill directories and the process backend's control socket go
    // under the system temp dir; keep them inside the output directory
    // (and its path short: a Unix socket path holds ~100 bytes).
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);

    let mut ctx = Ctx::new(name, opts, alloc)?;
    let wall = std::time::Instant::now();
    let root = ctx.tracer.enter(name, "harness");
    let result = if let Some(spec) = batch::specs().iter().find(|s| s.name == name) {
        batch::run(spec, &mut ctx)
    } else {
        let specs = service::specs();
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("a batch or service workload");
        service::run(spec, &mut ctx)
    };
    ctx.tracer.exit(root, Vec::new());
    if let Err(e) = result {
        ctx.op(false, || format!("workload aborted: {e}"));
    }
    if ctx.opts.traced {
        for (layer, secs) in ctx.tracer.self_seconds() {
            ctx.set(format!("trace.self_s.{layer}"), secs);
        }
        let path = out_dir().join(format!("trace-{name}.json"));
        ctx.tracer.write(&path)?;
        ctx.note(format!(
            "{} spans written to {}",
            ctx.tracer.len(),
            path.display()
        ));
    }
    if ctx.opts.traced {
        // The issue's definition: `VmHWM` of the workload's process,
        // read once, when everything the workload does has been done.
        ctx.set("peak_rss_mb", peak_rss_mb()?);
    }
    ctx.note(format!(
        "whole run: {:.1} s wall",
        wall.elapsed().as_secs_f64()
    ));
    Ok(ctx.finish())
}

/// Re-execute this binary once per workload and relay each result.
fn run_all(args: &[String]) -> Result<bool> {
    let exe = std::env::current_exe()?;
    let mut all_correct = true;
    let mut lines = Vec::new();
    for (name, _) in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(args)
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let (body, last) = match stdout.trim_end().rsplit_once('\n') {
            Some((body, last)) => (body, last),
            None => ("", stdout.trim_end()),
        };
        println!("{body}");
        let correct = output.status.success()
            && mr_json::parse(last)
                .ok()
                .and_then(|j| j.get("correct").and_then(mr_json::Json::as_bool))
                .unwrap_or(false);
        if !correct {
            println!(
                "  FAILED: {name} exited with {} and last line {last}",
                output.status
            );
        }
        all_correct &= correct;
        lines.push(format!("{{\"workload\":\"{name}\",\"result\":{last}}}"));
    }
    println!("== results, one JSON object per workload ==");
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// The program behind both binaries; `alloc` is the traced binary's
/// counting allocator.
pub fn main_with(alloc: Option<AllocHooks>) -> ExitCode {
    // A process-backend worker is this same binary re-executed.
    mr_engine::maybe_worker_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-benchmark-json") {
        println!("{}", metrics::benchmark_json().to_string_pretty());
        return ExitCode::SUCCESS;
    }
    if let [flag, dir] = args.as_slice() {
        if flag == "--compare-sets" {
            return match compare::report(std::path::Path::new(dir)) {
                Ok((text, within)) => {
                    print!("{text}");
                    if within {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("compare-sets: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &parsed.workload {
        Some(name) => run_workload(name, parsed.opts, alloc).map(|(text, json, correct)| {
            print!("{text}");
            println!("{json}");
            correct
        }),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
