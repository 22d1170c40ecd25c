//! The worker process half of the process backend.
//!
//! A worker is a single-threaded task executor: connect to the
//! coordinator's control socket, say hello, receive the serialized job,
//! then loop running whatever task attempts the coordinator sends.
//! Every attempt's side effects stay inside an [`AttemptDir`] under the
//! shared job directory until the coordinator answers the result frame:
//! `COMMIT_ACK` means the run files were already renamed out (drop the
//! now-empty directory), `DISCARD` means the attempt lost a speculative
//! race (drop the directory with everything in it). A worker that is
//! SIGKILLed mid-attempt cannot run this cleanup — the coordinator
//! removes the dead attempt's directory itself.
//!
//! Attempts run through the same attempt module as the in-process
//! runner (`attempt.rs`: one record loop, one staging and spill path,
//! one merge-and-reduce). Its deviations are the policy values it
//! passes, chosen so output stays byte-identical while the plumbing is
//! simpler:
//!
//! * **Spill everything at the end of the split.** There is no
//!   cross-process resident tail, so whatever is staged when the split
//!   ends is written as sorted runs too (the spill counters therefore
//!   report total shuffle disk traffic, which is higher than the local
//!   backend's for the same job).
//! * **No io faults.** `io:` fault sites are operation-counted per
//!   process and would fire nondeterministically across workers;
//!   record-level `map:`/`reduce:` faults keep their exact semantics.
//! * **No reduce compaction.** Committed runs are shared by speculative
//!   attempts, so the destructive merge compaction does not run; every
//!   reduce attempt streams the runs as-is.

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;

use mr_storage::{RunFileReader, RunFileWriter};

use crate::attempt::{merge_reduce, run_map, MapAttempt, SplitEnd};
use crate::counters::CounterSnapshot;
use crate::error::{EngineError, Result};
use crate::merge::RunStream;
use crate::pool::BufferPool;
use crate::spill::{AttemptDir, ShuffleEnv};

use super::protocol::*;
use super::wire::{
    decode_job, encode_hello, MapAssign, MapDone, ReduceAssign, ReduceDone, TaskErr, WireJob,
};

/// Run the worker loop: connect to `socket`, identify as `worker_id`,
/// and execute task attempts until the coordinator says shutdown (or
/// hangs up). This is what the hidden `__mr-worker` entrypoint and the
/// `mr_worker` test binary call; it never returns into normal program
/// flow on success — callers exit the process with its status.
pub fn worker_main(socket: &str, worker_id: usize) -> Result<()> {
    let stream = UnixStream::connect(socket)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, TAG_HELLO, &encode_hello(worker_id))?;

    let mut job = match read_frame(&mut reader)? {
        Some((TAG_JOB, payload)) => decode_job(&payload)?,
        Some((tag, _)) => {
            return Err(EngineError::Config(format!(
                "worker expected job frame, got tag {tag}"
            )))
        }
        None => return Ok(()), // coordinator gave up before sending the job
    };
    // Join roles wrap each binding's decoded mapper here, once per
    // worker process: broadcast build tables load a single time and are
    // shared by every task attempt this worker runs.
    let effective = crate::join::effective_factories(&job.inputs)?;
    for (binding, mapper) in job.inputs.iter_mut().zip(effective) {
        binding.mapper = mapper;
    }
    // The worker's shuffle-write settings, for every attempt it runs:
    // no io faults (see the module docs).
    let env = ShuffleEnv::new(
        job.combiner.clone(),
        job.compression,
        None,
        BufferPool::new(),
    );

    loop {
        let (tag, payload) = match read_frame(&mut reader)? {
            Some(frame) => frame,
            None => return Ok(()), // coordinator hung up: nothing left to do
        };
        if tag == TAG_SHUTDOWN {
            return Ok(());
        }
        // Injected straggling: sleep before every task when the fault
        // plan marked this worker slow (the coordinator folds the
        // per-worker delay into the job frame, so the worker need not
        // know its own id here).
        if job.slow_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(job.slow_ms));
        }
        let (kind, task, attempt, result) = match tag {
            TAG_MAP_TASK => {
                let a = MapAssign::decode(&payload)?;
                ("map", a.task, a.attempt, run_map_attempt(&job, &env, &a))
            }
            TAG_REDUCE_TASK => {
                let a = ReduceAssign::decode(&payload)?;
                let (p, n) = (a.partition, a.attempt);
                ("reduce", p, n, run_reduce_attempt(&job, &env, &a))
            }
            other => {
                return Err(EngineError::Config(format!(
                    "worker got unexpected frame tag {other}"
                )))
            }
        };
        match result {
            Ok((tag, done, dir)) => {
                write_frame(&mut writer, tag, &done)?;
                await_verdict(&mut reader, dir)?;
            }
            // The failed attempt's directory (if any) is already gone.
            Err(e) => {
                let err = TaskErr {
                    kind: kind.into(),
                    task,
                    attempt,
                    injected: matches!(e, EngineError::Injected(_)),
                    msg: e.to_string(),
                };
                write_frame(&mut writer, TAG_TASK_ERR, &err.encode())?;
            }
        }
    }
}

/// Wait for the coordinator's verdict on a submitted attempt. On
/// `COMMIT_ACK` the run files were renamed out already; on `DISCARD`
/// (or a shutdown/hangup racing the verdict) they are still inside the
/// attempt dir. Either way dropping the [`AttemptDir`] removes exactly
/// what is left — this RAII drop is the loser-cleanup half of the
/// speculative-execution protocol. A map attempt that never spilled
/// has no directory.
fn await_verdict(reader: &mut impl std::io::Read, dir: Option<AttemptDir>) -> Result<()> {
    let verdict = read_frame(reader)?;
    drop(dir);
    match verdict {
        Some((TAG_COMMIT_ACK, _)) | Some((TAG_DISCARD, _)) | Some((TAG_SHUTDOWN, _)) | None => {
            Ok(())
        }
        Some((tag, _)) => Err(EngineError::Config(format!(
            "worker expected commit verdict, got tag {tag}"
        ))),
    }
}

/// A finished attempt: its result frame (tag and payload) and the
/// directory holding its side effects until the coordinator's verdict.
type Finished = (u8, Vec<u8>, Option<AttemptDir>);

/// One map attempt with the worker's policy: re-open the assigned
/// split, map and stage it through the shared attempt loop, and spill
/// everything as sorted runs into a lazily created attempt directory.
/// Side effects stay in the returned [`AttemptDir`]; counters stay in
/// the result frame until the coordinator commits them.
fn run_map_attempt(job: &WireJob, env: &ShuffleEnv, assign: &MapAssign) -> Result<Finished> {
    let binding = job
        .inputs
        .get(assign.binding)
        .ok_or_else(|| EngineError::Config(format!("no input binding {}", assign.binding)))?;
    let reader = binding
        .input
        .open_split(job.map_parallelism, None, assign.split)?;
    let spec = MapAttempt {
        task: assign.task,
        attempt: assign.attempt,
        num_reducers: job.num_reducers,
        // Same budget split as the local runner: half the budget to
        // map-side staging, divided across the map slots.
        cap: job
            .shuffle_buffer_bytes
            .map(|b| ((b / 2 / job.map_parallelism).max(1), job.job_dir.as_path())),
        end: SplitEnd::SpillAll(&job.job_dir),
        fault: job.fault.as_ref(),
    };
    // One attempt at a time per worker: the shuffle clock is this
    // attempt's alone.
    env.shuffle_nanos.store(0, Ordering::Relaxed);
    let out = run_map(env, &spec, reader, binding.mapper.as_ref())?;
    let done = MapDone {
        task: assign.task,
        attempt: assign.attempt,
        runs: out.runs,
        counters: out.counters.snapshot(),
        shuffle_nanos: env.shuffle_nanos.load(Ordering::Relaxed),
    };
    Ok((TAG_MAP_DONE, done.encode()?, out.dir))
}

/// One reduce attempt: stream the committed runs (read-only — they are
/// shared with any speculative sibling) through the shared merge and
/// grouping loop, writing the output pairs to a run file inside the
/// attempt directory for the coordinator to commit by rename.
fn run_reduce_attempt(job: &WireJob, env: &ShuffleEnv, assign: &ReduceAssign) -> Result<Finished> {
    let (p, attempt) = (assign.partition, assign.attempt);
    let dir = AttemptDir::create(&job.job_dir, "reduce", p, attempt)?;
    let fire_at = job.fault.as_ref().and_then(|f| f.reduce_fault(p, attempt));
    let mut streams = Vec::with_capacity(assign.runs.len());
    for path in &assign.runs {
        streams.push(RunStream::File(RunFileReader::open(path)?));
    }
    let mut reducer = env.combine.make_reducer(&job.reducer);
    let mut out = Vec::new();
    let groups = merge_reduce(
        streams,
        fire_at,
        p,
        attempt,
        reducer.as_mut(),
        job.sort_output,
        &mut out,
    )?;

    let out_path = dir.path().join("out");
    let mut w = RunFileWriter::create(&out_path)?;
    for (k, v) in &out {
        w.append(k, v)?;
    }
    w.finish()?;

    let done = ReduceDone {
        partition: p,
        attempt,
        out: out_path,
        counters: CounterSnapshot {
            reduce_input_groups: groups,
            reduce_output_records: out.len() as u64,
            ..Default::default()
        },
    };
    Ok((TAG_REDUCE_DONE, done.encode()?, Some(dir)))
}
