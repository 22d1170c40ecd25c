//! Execution backends, and the job bracket they share.
//!
//! A [`JobConfig`] says *what* a job is (inputs, mappers, reducers,
//! knobs); its [`backend`](JobConfig::backend) says *where* the task
//! attempts run:
//!
//! * [`BackendSpec::Local`] — scoped threads in the calling process
//!   (`runner::run_job_local`), the reference semantics every other
//!   backend must match byte for byte.
//! * [`BackendSpec::Process`] — a coordinator (`process`) that forks
//!   worker processes and drives them over a length-prefixed
//!   Unix-socket task protocol ([`protocol`], `wire`); shuffle data
//!   travels through a shared job spill directory and attempts commit
//!   by rename.
//!
//! Both run every task attempt through the one attempt module
//! (`attempt.rs`). [`run_job`] dispatches here, and the bracket
//! around a backend is shared too: the job is validated, its task
//! counts clamped, its output assembled and its allocations counted
//! the same way whichever backend ran it. Binaries that want to double
//! as workers (so tests and the CLI need no separate worker executable)
//! call [`maybe_worker_entry`] first thing in `main`.
//!
//! [`run_job`]: crate::runner::run_job

mod process;
pub mod protocol;
pub(crate) mod wire;
pub mod worker;

pub use worker::worker_main;

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mr_ir::value::Value;
use mr_storage::fault::IoFaults;

use crate::allocstats;
use crate::attempt::sort_pairs;
use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::input::SplitReader;
use crate::job::{BackendSpec, JobConfig, OutputSpec};
use crate::runner::{run_job_local, JobResult};

/// The hidden `argv[1]` sentinel that flips a coordinator binary into
/// worker mode (see [`maybe_worker_entry`]). Deliberately not a valid
/// CLI flag or subcommand name.
pub const WORKER_ARG: &str = "__mr-worker";

/// A job as [`dispatch`] hands it to a backend.
pub(crate) struct JobRun<'a> {
    pub job: &'a JobConfig,
    /// `job.num_reducers`, at least 1.
    pub num_reducers: usize,
    /// `job.max_task_attempts`, at least 1.
    pub max_attempts: usize,
    /// The job counters; backends absorb committed attempts only.
    pub counters: Arc<Counters>,
}

/// A backend's committed reduce output: each partition's pairs, in
/// partition order.
pub(crate) type Partitions = Vec<Vec<(Value, Value)>>;

/// A job's map tasks in id order: bindings in order, each binding's
/// splits in order at the job's parallelism hint. Splits depend only on
/// the files and the hint, so a retry or a worker re-opening the input
/// finds the same `(binding, split)`.
pub(crate) fn plan_map_tasks(
    job: &JobConfig,
    io: Option<&Arc<IoFaults>>,
) -> Result<Vec<(usize, usize, SplitReader)>> {
    let hint = job.map_parallelism.max(1);
    let mut tasks = Vec::new();
    for (binding, b) in job.inputs.iter().enumerate() {
        for (split, reader) in b.input.open_with_faults(hint, io)?.into_iter().enumerate() {
            tasks.push((binding, split, reader));
        }
    }
    Ok(tasks)
}

/// Run a job on the backend its config names. Before any task runs,
/// the job must pass the join-stage validity check
/// ([`crate::join::validate_job`] — e.g. a combiner on a join stage is
/// rejected here, on every backend) and name at least one input.
pub(crate) fn dispatch(job: &JobConfig) -> Result<JobResult> {
    crate::join::validate_job(job)?;
    let start = Instant::now();
    if job.inputs.is_empty() {
        return Err(EngineError::Config("job has no inputs".into()));
    }
    let run = JobRun {
        job,
        num_reducers: job.num_reducers.max(1),
        max_attempts: job.max_task_attempts.max(1),
        counters: Counters::new(),
    };
    // Steady-state allocation accounting: snapshot the (feature-gated)
    // global-allocator counters around the job and report the delta.
    // Process-wide, so it attributes cleanly only when one job runs at
    // a time — exactly how the hot-path bench uses it.
    let (alloc_count0, alloc_bytes0) = allocstats::totals();
    let (partitions, mut phases) = match &job.backend {
        BackendSpec::Local => run_job_local(&run)?,
        BackendSpec::Process(cfg) => process::run(&run, cfg)?,
    };
    let output_start = Instant::now();
    let (output, output_files) = assemble_output(job, partitions)?;
    phases.output = output_start.elapsed();
    let (alloc_count1, alloc_bytes1) = allocstats::totals();
    let counters = &run.counters;
    Counters::add(
        &counters.alloc_count,
        alloc_count1.saturating_sub(alloc_count0),
    );
    Counters::add(
        &counters.alloc_bytes,
        alloc_bytes1.saturating_sub(alloc_bytes0),
    );
    Ok(JobResult {
        counters: counters.snapshot(),
        output,
        output_files,
        elapsed: start.elapsed(),
        phases,
    })
}

/// A job's output: the pairs (in-memory output) and the files (text
/// output).
type Output = (Vec<(Value, Value)>, Vec<PathBuf>);

/// Turn committed partitions into the job's output: in memory, the
/// partitions concatenated in order (then sorted by key and value if
/// the job asks); in a text directory, one `part-NNNNN` file of
/// `key\tvalue` lines per partition. Under `sort_output` the reduce loop
/// already sorted every key group's pairs, so the stable sort here
/// merges presorted runs (see [`crate::join`] for why that cannot
/// change a byte).
fn assemble_output(job: &JobConfig, parts: Partitions) -> Result<Output> {
    match &job.output {
        OutputSpec::InMemory => {
            let mut output = Vec::with_capacity(parts.iter().map(Vec::len).sum());
            for mut part in parts {
                output.append(&mut part);
            }
            if job.sort_output {
                sort_pairs(&mut output);
            }
            Ok((output, Vec::new()))
        }
        OutputSpec::TextDir(dir) => {
            std::fs::create_dir_all(dir)?;
            let mut files = Vec::with_capacity(parts.len());
            for (p, mut pairs) in parts.into_iter().enumerate() {
                if job.sort_output {
                    sort_pairs(&mut pairs);
                }
                let path = dir.join(format!("part-{p:05}"));
                let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
                for (k, v) in pairs {
                    writeln!(f, "{k}\t{v}")?;
                }
                f.flush()?;
                files.push(path);
            }
            Ok((Vec::new(), files))
        }
    }
}

/// Turn the current process into a task-protocol worker if it was
/// invoked as one, never returning in that case.
///
/// The process backend re-execs its own coordinator binary with
/// `argv = [exe, "__mr-worker", socket, worker_id]` when no explicit
/// `worker_cmd` is configured. Call this as the first line of `main`
/// in any binary that may coordinate a process-backend job; it is a
/// no-op (returns immediately) under any other argv.
pub fn maybe_worker_entry() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some(WORKER_ARG) {
        return;
    }
    let (socket, id) = match (args.next(), args.next().and_then(|s| s.parse().ok())) {
        (Some(socket), Some(id)) => (socket, id),
        _ => {
            eprintln!("usage: <exe> {WORKER_ARG} <socket> <worker-id>");
            std::process::exit(2);
        }
    };
    match worker_main(&socket, id) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("mr-worker {id}: {e}");
            std::process::exit(1);
        }
    }
}
