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
//! Deliberate deviations from the in-process runner, chosen so output
//! stays byte-identical while the plumbing is simpler:
//!
//! * **All map output spills.** There is no cross-process resident
//!   tail, so at the end of the split every staged partition is written
//!   as a sorted run (the spill counters therefore report total shuffle
//!   disk traffic, which is higher than the local backend's for the
//!   same job).
//! * **No io-site faults.** `io:` fault sites are operation-counted
//!   per process and would fire nondeterministically across workers;
//!   record-level `map:`/`reduce:` faults keep their exact semantics.
//! * **Synchronous spill writes.** `spill_writer_threads` shapes the
//!   local backend's background writer only; workers write runs inline.
//! * **Reduce reads runs read-only.** Committed runs are shared by
//!   speculative attempts, so the destructive merge compaction does not
//!   run; every reduce attempt streams the runs as-is.

use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use mr_ir::value::Value;

use mr_storage::blockcodec::ShuffleCompression;

use crate::combine::CombineStrategy;
use crate::counters::Counters;
use crate::dictctx::DictContext;
use crate::error::{EngineError, Result};
use crate::merge::{LoserTree, RunStream};
use crate::pool::BufferPool;
use crate::runner::{reduce_groups, FaultGate, StreamPairs};
use crate::spill::{write_sorted_run, AttemptDir, SpillRun};
use crate::staging::Staging;

use super::protocol::*;
use super::wire::{
    decode_job, encode_hello, MapAssign, MapDone, ReduceAssign, ReduceDone, TaskErr, WireJob,
    WireRun,
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
    let combine = CombineStrategy::new(job.combiner.clone());
    let pool = BufferPool::new();
    // The dict-trained codec's dictionary authority. Committing into
    // the *shared* job directory (hard-link, first trainer wins) keeps
    // concurrent workers and speculative attempts on one dictionary.
    let dict = (job.compression == ShuffleCompression::DictTrained)
        .then(|| DictContext::new(&job.job_dir, job.dict_store.clone()));

    loop {
        let (tag, payload) = match read_frame(&mut reader)? {
            Some(frame) => frame,
            None => return Ok(()), // coordinator hung up: nothing left to do
        };
        match tag {
            TAG_SHUTDOWN => return Ok(()),
            TAG_MAP_TASK => {
                let assign = MapAssign::decode(&payload)?;
                straggle(&job);
                match run_map_attempt(&job, &combine, &pool, dict.as_ref(), &assign) {
                    Ok((done, dir)) => {
                        write_frame(&mut writer, TAG_MAP_DONE, &done.encode()?)?;
                        await_verdict(&mut reader, dir)?;
                    }
                    Err(e) => report_failure(&mut writer, "map", assign.task, assign.attempt, e)?,
                }
            }
            TAG_REDUCE_TASK => {
                let assign = ReduceAssign::decode(&payload)?;
                straggle(&job);
                match run_reduce_attempt(&job, &combine, &assign) {
                    Ok((done, dir)) => {
                        write_frame(&mut writer, TAG_REDUCE_DONE, &done.encode()?)?;
                        await_verdict(&mut reader, dir)?;
                    }
                    Err(e) => {
                        report_failure(&mut writer, "reduce", assign.partition, assign.attempt, e)?
                    }
                }
            }
            other => {
                return Err(EngineError::Config(format!(
                    "worker got unexpected frame tag {other}"
                )))
            }
        }
    }
}

/// Injected straggling: sleep before every task when the fault plan
/// marked this worker slow (the coordinator folds the per-worker delay
/// into the job frame, so the worker need not know its own id here).
fn straggle(job: &WireJob) {
    if job.slow_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(job.slow_ms));
    }
}

/// Wait for the coordinator's verdict on a submitted attempt. On
/// `COMMIT_ACK` the run files were renamed out already; on `DISCARD`
/// (or a shutdown/hangup racing the verdict) they are still inside the
/// attempt dir. Either way dropping the [`AttemptDir`] removes exactly
/// what is left — this RAII drop is the loser-cleanup half of the
/// speculative-execution protocol.
fn await_verdict(reader: &mut impl std::io::Read, dir: AttemptDir) -> Result<()> {
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

/// Send a task failure upstream; the attempt dir (if any) has already
/// been dropped by the failing attempt's scope.
fn report_failure(
    writer: &mut impl std::io::Write,
    kind: &str,
    task: usize,
    attempt: usize,
    e: EngineError,
) -> Result<()> {
    let err = TaskErr {
        kind: kind.into(),
        task,
        attempt,
        injected: matches!(e, EngineError::Injected(_)),
        msg: e.to_string(),
    };
    write_frame(writer, TAG_TASK_ERR, &err.encode())
}

/// One map attempt: read the split, map, stage (through the same
/// [`Staging`] as the local runner, so combine site 1 and its bail-out
/// behave identically), and spill *everything* as sorted runs into a
/// fresh attempt directory. Side effects stay in the returned
/// [`AttemptDir`]; counters stay in the returned snapshot until the
/// coordinator commits them.
fn run_map_attempt(
    job: &WireJob,
    combine: &CombineStrategy,
    pool: &Arc<BufferPool>,
    dict: Option<&DictContext>,
    assign: &MapAssign,
) -> Result<(MapDone, AttemptDir)> {
    let acc = Counters::new();
    let dir = AttemptDir::create(&job.job_dir, "map", assign.task, assign.attempt)?;
    let mut staging = Staging::new(job.num_reducers, combine, pool);
    let mut seqs = vec![0usize; job.num_reducers];
    let mut runs: Vec<(usize, SpillRun)> = Vec::new();
    let mut shuffle_nanos = 0u64;

    let body = map_attempt_loop(
        job,
        combine,
        pool,
        dict,
        assign,
        &acc,
        &dir,
        &mut staging,
        &mut seqs,
        &mut runs,
        &mut shuffle_nanos,
    );
    staging.recycle(pool);
    body?;

    let wire_runs = runs
        .into_iter()
        .map(|(p, r)| WireRun {
            partition: p,
            path: r.path,
            pairs: r.pairs,
            raw_bytes: r.raw_bytes,
            bytes: r.bytes,
        })
        .collect();
    Ok((
        MapDone {
            task: assign.task,
            attempt: assign.attempt,
            runs: wire_runs,
            counters: acc.snapshot(),
            shuffle_nanos,
        },
        dir,
    ))
}

/// The fallible body of a map attempt, separated so the caller's
/// buffer recycling cannot be skipped by a `?`.
#[allow(clippy::too_many_arguments)]
fn map_attempt_loop(
    job: &WireJob,
    combine: &CombineStrategy,
    pool: &Arc<BufferPool>,
    dict: Option<&DictContext>,
    assign: &MapAssign,
    acc: &Arc<Counters>,
    dir: &AttemptDir,
    staging: &mut Staging,
    seqs: &mut [usize],
    runs: &mut Vec<(usize, SpillRun)>,
    shuffle_nanos: &mut u64,
) -> Result<()> {
    let binding = job
        .inputs
        .get(assign.binding)
        .ok_or_else(|| EngineError::Config(format!("no input binding {}", assign.binding)))?;
    let mut reader = binding
        .input
        .open(job.map_parallelism)?
        .into_iter()
        .nth(assign.split)
        .ok_or_else(|| EngineError::Config(format!("no split {} in binding", assign.split)))?;
    let mut mapper = binding.mapper.create();
    let fire_at = job
        .fault
        .as_ref()
        .and_then(|f| f.map_fault(assign.task, assign.attempt));
    // Same budget split as the local runner: half the budget to map-side
    // staging, divided across the map slots.
    let local_cap = job
        .shuffle_buffer_bytes
        .map(|b| (b / 2 / job.map_parallelism).max(1));

    let mut emit_buf: Vec<(Value, Value)> = Vec::new();
    let mut records = 0u64;
    let mut outputs = 0u64;
    let mut instructions = 0u64;
    let mut effects = 0u64;
    let mut shuffle_bytes = 0u64;

    loop {
        if fire_at == Some(records) {
            return Err(EngineError::Injected(format!(
                "map task {} attempt {} at record {records}",
                assign.task, assign.attempt
            )));
        }
        let Some(item) = reader.next() else { break };
        let (k, v) = item?;
        records += 1;
        emit_buf.clear();
        let stats = mapper.map(&k, &v, &mut emit_buf)?;
        instructions += stats.instructions;
        effects += stats.side_effects;
        outputs += emit_buf.len() as u64;
        for (ok, ov) in emit_buf.drain(..) {
            shuffle_bytes += staging.emit(ok, ov)? as u64;
        }
        if local_cap.is_some_and(|cap| staging.total_bytes >= cap) {
            staging.check_reduction();
            spill_all(
                job,
                combine,
                pool,
                dict,
                acc,
                dir,
                staging,
                seqs,
                runs,
                shuffle_nanos,
            )?;
        }
    }
    // Spill-everything: with no resident tail to hand back, whatever is
    // staged becomes the attempt's last runs.
    spill_all(
        job,
        combine,
        pool,
        dict,
        acc,
        dir,
        staging,
        seqs,
        runs,
        shuffle_nanos,
    )?;
    staging.finish(acc);

    Counters::add(&acc.map_input_records, records);
    Counters::add(&acc.map_invocations, records);
    Counters::add(&acc.map_output_records, outputs);
    Counters::add(&acc.instructions_executed, instructions);
    Counters::add(&acc.side_effects, effects);
    Counters::add(&acc.shuffle_bytes, shuffle_bytes);
    Counters::add(&acc.input_bytes, reader.bytes_read());
    Ok(())
}

/// Spill every nonempty staged partition as one sorted run in the
/// attempt directory, with attempt-local sequence numbers (the
/// coordinator renumbers on commit).
#[allow(clippy::too_many_arguments)]
fn spill_all(
    job: &WireJob,
    combine: &CombineStrategy,
    pool: &Arc<BufferPool>,
    dict: Option<&DictContext>,
    acc: &Arc<Counters>,
    dir: &AttemptDir,
    staging: &mut Staging,
    seqs: &mut [usize],
    runs: &mut Vec<(usize, SpillRun)>,
    shuffle_nanos: &mut u64,
) -> Result<()> {
    for (p, seq) in seqs.iter_mut().enumerate().take(job.num_reducers) {
        if staging.is_empty(p) {
            continue;
        }
        let mut pairs = staging.take(p, pool);
        let t = Instant::now();
        let run = write_sorted_run(
            dir.path(),
            p,
            *seq,
            &mut pairs,
            combine,
            job.compression,
            dict,
            acc,
            None,
            pool,
        )?;
        *shuffle_nanos += t.elapsed().as_nanos() as u64;
        *seq += 1;
        Counters::add(&acc.spill_count, 1);
        Counters::add(&acc.spilled_records, run.pairs);
        Counters::add(&acc.spill_bytes_raw, run.raw_bytes);
        Counters::add(&acc.spill_bytes_written, run.bytes);
        runs.push((p, run));
        pool.put_pairs(pairs);
    }
    Ok(())
}

/// One reduce attempt: stream the committed runs (read-only — they are
/// shared with any speculative sibling) through the merge and grouping
/// loop, writing the output pairs to a run file inside the attempt
/// directory for the coordinator to commit by rename.
fn run_reduce_attempt(
    job: &WireJob,
    combine: &CombineStrategy,
    assign: &ReduceAssign,
) -> Result<(ReduceDone, AttemptDir)> {
    let acc = Counters::new();
    let dir = AttemptDir::create(&job.job_dir, "reduce", assign.partition, assign.attempt)?;
    let fire_at = job
        .fault
        .as_ref()
        .and_then(|f| f.reduce_fault(assign.partition, assign.attempt));

    let mut streams: Vec<RunStream> = Vec::new();
    for path in &assign.runs {
        streams.push(RunStream::File(mr_storage::RunFileReader::open(path)?));
    }
    let mut reducer = combine.make_reducer(&job.reducer);
    let mut out: Vec<(Value, Value)> = Vec::new();
    let groups = if streams.len() <= 1 {
        let gate = FaultGate::new(
            StreamPairs(streams.pop()),
            fire_at,
            assign.partition,
            assign.attempt,
        );
        reduce_groups(gate, reducer.as_mut(), &mut out)?
    } else {
        let gate = FaultGate::new(
            LoserTree::new(streams)?,
            fire_at,
            assign.partition,
            assign.attempt,
        );
        reduce_groups(gate, reducer.as_mut(), &mut out)?
    };

    let out_path = dir.path().join("out");
    let mut w = mr_storage::RunFileWriter::create(&out_path)?;
    for (k, v) in &out {
        w.append(k, v)?;
    }
    w.finish()?;

    Counters::add(&acc.reduce_input_groups, groups);
    Counters::add(&acc.reduce_output_records, out.len() as u64);
    Ok((
        ReduceDone {
            partition: assign.partition,
            attempt: assign.attempt,
            out: out_path,
            groups,
            written: out.len() as u64,
            counters: acc.snapshot(),
            shuffle_nanos: 0,
        },
        dir,
    ))
}
