//! The process backend coordinator: fork worker processes and drive
//! the job over the Unix-socket task protocol.
//!
//! * **Scheduling** — the local runner's scheduler (`scheduler.rs`):
//!   one handler thread per worker slot asks it for an attempt, builds
//!   the assignment from state the coordinator keeps — `(binding,
//!   split)` per map task, committed runs per partition — ships it, and
//!   blocks on the result. Speculation ([`ProcessCfg::speculate`]) is
//!   this backend's alone.
//! * **Commit** — workers stage side effects in attempt directories
//!   under the shared job dir. The first finished attempt of a task
//!   wins and its counters are absorbed; the coordinator publishes it
//!   by renaming its files to their job-level names
//!   (`run-{p:05}-{seq:06}`, `out-{p:05}`). A later finisher gets
//!   `DISCARD` and its attempt dir cleans up by RAII — Hadoop's output
//!   committer, and the whole speculative-execution story.
//! * **Fault hooks** — `kill:W:N` sites SIGKILL worker `W`'s process
//!   right after its `N`-th task frame is sent (the attempt is failed
//!   and the slot respawns a fresh worker with a new id); `slow:W:MS`
//!   sites are folded into the worker's job frame as a per-task delay,
//!   which is what makes a deterministic straggler for speculation
//!   drills. Record-level `map:`/`reduce:` faults travel to workers
//!   and keep their exact local semantics.
//!
//! Killing a worker races its own progress: the SIGKILL may land
//! before, during, or after the worker finishes the task. All three
//! interleavings converge — the handler never reads the worker's
//! result frame, so the attempt is failed and requeued either way, and
//! the dead attempt's directory (which SIGKILL prevented the worker
//! from dropping) is removed coordinator-side. Respawned workers get
//! fresh monotonically-increasing ids, so each `kill:`/`slow:` site is
//! naturally one-shot.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::fault::FaultPlan;
use crate::job::{JobConfig, ProcessCfg};
use crate::runner::PhaseTimings;
use crate::scheduler::{Kind, PanicGuard, Scheduler, Shared};
use crate::spill::SpillDir;

use super::protocol::*;
use super::wire::{self, MapAssign, MapDone, ReduceAssign, ReduceDone, TaskErr};
use super::{plan_map_tasks, JobRun, Partitions};

/// How long a handler waits for its freshly-forked worker to connect
/// and say hello before declaring the spawn failed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// Routes incoming worker connections to the handler that spawned the
/// worker, keyed by the id in the hello frame.
struct Broker {
    conns: Mutex<HashMap<usize, UnixStream>>,
    cv: Condvar,
}

impl Broker {
    fn new() -> Broker {
        Broker {
            conns: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    fn accept_loop(&self, listener: &UnixListener, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // The hello is tiny and workers send it immediately
                    // after connecting; a short read timeout keeps a
                    // wedged connection from blocking the broker.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let hello = {
                        let mut r = &stream;
                        read_frame(&mut r)
                    };
                    if let Ok(Some((TAG_HELLO, payload))) = hello {
                        if let Ok(id) = wire::decode_hello(&payload) {
                            let _ = stream.set_read_timeout(None);
                            self.conns
                                .lock()
                                .expect("broker lock poisoned")
                                .insert(id, stream);
                            self.cv.notify_all();
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Wait for worker `id`'s routed connection.
    fn wait_for(&self, id: usize, timeout: Duration) -> Result<UnixStream> {
        let deadline = Instant::now() + timeout;
        let mut conns = self.conns.lock().expect("broker lock poisoned");
        loop {
            if let Some(s) = conns.remove(&id) {
                return Ok(s);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(EngineError::Remote(format!(
                    "worker {id} did not connect within {timeout:?}"
                )));
            }
            let (guard, _) = self
                .cv
                .wait_timeout(conns, deadline - now)
                .expect("broker lock poisoned");
            conns = guard;
        }
    }
}

/// Everything one worker-slot handler thread needs.
struct HandlerCtx<'a> {
    job: &'a JobConfig,
    cfg: &'a ProcessCfg,
    sched: &'a Shared,
    /// `(binding, split)` per map task.
    map_meta: &'a [(usize, usize)],
    /// Committed runs per partition, in sequence order.
    runs: &'a Mutex<Vec<Vec<PathBuf>>>,
    counters: &'a Counters,
    broker: &'a Broker,
    job_dir: &'a Path,
    socket: &'a Path,
    fault: Option<&'a FaultPlan>,
    next_id: &'a AtomicUsize,
    shuffle_nanos: &'a AtomicU64,
}

fn spawn_worker(ctx: &HandlerCtx<'_>, id: usize) -> Result<Child> {
    let (program, mut args) = match &ctx.cfg.worker_cmd {
        Some(cmd) if !cmd.is_empty() => (PathBuf::from(&cmd[0]), cmd[1..].to_vec()),
        _ => (
            std::env::current_exe()?,
            vec![super::WORKER_ARG.to_string()],
        ),
    };
    args.push(ctx.socket.to_string_lossy().into_owned());
    args.push(id.to_string());
    Command::new(&program)
        .args(&args)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| EngineError::Remote(format!("spawning worker {program:?}: {e}")))
}

/// Drive one worker slot: spawn a worker, ship it the job, and
/// [`serve`] it; on worker death (fault-plan kill or otherwise),
/// respawn under a fresh id until the job finishes.
fn worker_slot(ctx: &HandlerCtx<'_>) {
    let _guard = PanicGuard(ctx.sched);
    loop {
        if ctx.sched.is_finished() {
            return;
        }
        let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
        let mut child = match spawn_worker(ctx, id) {
            Ok(c) => c,
            Err(e) => {
                ctx.sched.abort(e);
                return;
            }
        };
        let connected = ctx.broker.wait_for(id, CONNECT_TIMEOUT).and_then(|stream| {
            let reader = BufReader::new(stream.try_clone()?);
            let slow_ms = ctx.fault.and_then(|f| f.worker_slow(id)).unwrap_or(0);
            Ok((
                reader,
                stream,
                wire::encode_job(ctx.job, ctx.job_dir, slow_ms)?,
            ))
        });
        let (reader, stream, payload) = match connected {
            Ok(c) => c,
            Err(e) => {
                reap(&mut child);
                ctx.sched.abort(e);
                return;
            }
        };
        let mut writer = BufWriter::new(stream);
        if write_frame(&mut writer, TAG_JOB, &payload).is_err() {
            let _ = child.wait();
            continue; // worker died before the job frame; try again
        }
        if !serve(ctx, id, &mut child, reader, writer) {
            return;
        }
    }
}

/// SIGKILL a worker and wait for it.
fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Feed worker `id` tasks over its connection, committing or failing
/// each result, until the job is done (`false`, worker shut down) or
/// the worker is lost (`true`: reaped, respawn). A result frame that
/// does not answer the assignment just sent — another task or attempt —
/// is a protocol violation: committing it would index, decrement or
/// publish some other task, so the job aborts and the worker is
/// reaped.
fn serve(
    ctx: &HandlerCtx<'_>,
    id: usize,
    child: &mut Child,
    mut reader: BufReader<UnixStream>,
    mut writer: BufWriter<UnixStream>,
) -> bool {
    let mut ordinal = 0u64;
    loop {
        let Some((kind, task, attempt)) = ctx.sched.next() else {
            let _ = write_frame(&mut writer, TAG_SHUTDOWN, b"");
            let _ = child.wait();
            return false;
        };
        let frame = match kind {
            Kind::Map => {
                let (binding, split) = ctx.map_meta[task];
                let a = MapAssign {
                    task,
                    binding,
                    split,
                    attempt,
                };
                (TAG_MAP_TASK, a.encode())
            }
            Kind::Reduce => {
                let runs = ctx.runs.lock().expect("runs lock")[task].clone();
                let a = ReduceAssign {
                    partition: task,
                    attempt,
                    runs,
                };
                match a.encode() {
                    Ok(p) => (TAG_REDUCE_TASK, p),
                    Err(e) => {
                        ctx.sched.fail(kind, task, e);
                        continue;
                    }
                }
            }
        };
        let attempt_dir = ctx
            .job_dir
            .join(format!("attempt-{}-{task:05}-{attempt:03}", kind.label()));
        let lost = |child: &mut Child, why: String| {
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&attempt_dir);
            ctx.sched.fail(kind, task, EngineError::Remote(why));
            true
        };
        if write_frame(&mut writer, frame.0, &frame.1).is_err() {
            return lost(child, "worker connection lost".into());
        }
        let this_ordinal = ordinal;
        ordinal += 1;
        if ctx.fault.is_some_and(|f| f.worker_kill(id, this_ordinal)) {
            // Whole-worker fault injection: SIGKILL, no cleanup on
            // the worker side — `lost` removes its dead attempt dir,
            // fails the attempt, and the slot respawns a fresh id.
            reap(child);
            Counters::add(&ctx.counters.workers_killed, 1);
            return lost(child, format!("worker {id} killed by fault plan"));
        }
        let done = match read_frame(&mut reader) {
            Ok(Some((TAG_MAP_DONE, p))) => MapDone::decode(&p).map(Done::Map),
            Ok(Some((TAG_REDUCE_DONE, p))) => ReduceDone::decode(&p).map(Done::Reduce),
            Ok(Some((TAG_TASK_ERR, p))) => {
                let cause = match TaskErr::decode(&p) {
                    Ok(err) if err.injected => EngineError::Injected(err.msg),
                    Ok(err) => EngineError::Remote(err.msg),
                    Err(e) => e,
                };
                ctx.sched.fail(kind, task, cause);
                continue;
            }
            Ok(Some((tag, _))) => {
                ctx.sched.abort(EngineError::Remote(format!(
                    "unexpected frame tag {tag} from worker {id}"
                )));
                reap(child);
                return false;
            }
            Ok(None) | Err(_) => {
                // The worker died mid-task (crash, or a kill racing
                // a previous slot's shutdown); its attempt dir may
                // survive it.
                return lost(child, format!("worker {id} died mid-task"));
            }
        };
        let done = match done {
            Ok(done) => done,
            Err(e) => {
                ctx.sched.fail(kind, task, e);
                continue;
            }
        };
        if !done.answers(kind, task, attempt, ctx.job.num_reducers.max(1)) {
            ctx.sched.abort(EngineError::Remote(format!(
                "worker {id} sent a result that does not answer {} task {task} \
                 attempt {attempt}",
                kind.label()
            )));
            reap(child);
            return false;
        }
        let won = match &done {
            Done::Map(d) => {
                ctx.shuffle_nanos
                    .fetch_add(d.shuffle_nanos, Ordering::Relaxed);
                ctx.sched.commit(kind, task, &d.counters, || {
                    let mut runs = ctx.runs.lock().expect("runs lock");
                    for (p, r) in &d.runs {
                        let seq = runs[*p].len();
                        let dest = ctx.job_dir.join(format!("run-{p:05}-{seq:06}"));
                        std::fs::rename(&r.path, &dest)?;
                        runs[*p].push(dest);
                    }
                    Ok(())
                })
            }
            Done::Reduce(d) => ctx.sched.commit(kind, task, &d.counters, || {
                Ok(std::fs::rename(&d.out, out_path(ctx.job_dir, task))?)
            }),
        };
        let verdict = if won { TAG_COMMIT_ACK } else { TAG_DISCARD };
        if write_frame(&mut writer, verdict, b"").is_err() && won {
            // Committed but the worker is gone; its attempt dir
            // (already drained of runs) will not self-clean.
            let _ = std::fs::remove_dir_all(&attempt_dir);
            let _ = child.wait();
            return true;
        }
    }
}

/// Where partition `p`'s committed reduce output lives.
fn out_path(job_dir: &Path, p: usize) -> PathBuf {
    job_dir.join(format!("out-{p:05}"))
}

/// A decoded result frame.
enum Done {
    Map(MapDone),
    Reduce(ReduceDone),
}

impl Done {
    /// Whether the frame answers the assignment a handler sent: the
    /// same kind, task and attempt, and (for a map) runs only for
    /// partitions the job has.
    fn answers(&self, kind: Kind, task: usize, attempt: usize, partitions: usize) -> bool {
        match self {
            Done::Map(d) => {
                kind == Kind::Map
                    && (d.task, d.attempt) == (task, attempt)
                    && d.runs.iter().all(|(p, _)| *p < partitions)
            }
            Done::Reduce(d) => kind == Kind::Reduce && (d.partition, d.attempt) == (task, attempt),
        }
    }
}

/// Run `run.job` on `cfg.workers` forked worker processes; every child
/// is reaped before this returns. Returns the committed reduce output
/// of every partition, read back from the job directory before it is
/// removed.
pub(super) fn run(run: &JobRun<'_>, cfg: &ProcessCfg) -> Result<(Partitions, PhaseTimings)> {
    let start = Instant::now();
    let job = run.job;
    let num_reducers = run.num_reducers;
    let workers = cfg.workers.max(1);

    // The job directory is the shared commit space: attempt dirs,
    // committed runs, reduce outputs, and the control socket all live
    // here and vanish together when the SpillDir drops.
    let spill_dir = SpillDir::create(job.spill_dir.as_deref(), &job.name)?;
    let job_dir = spill_dir.path().to_path_buf();
    // Reject non-serializable jobs before any fork.
    wire::encode_job(job, &job_dir, 0)?;

    // Workers re-open their splits at the same hint, so boundaries agree.
    let plan = plan_map_tasks(job, None)?.into_iter();
    let map_meta: Vec<(usize, usize)> = plan.map(|(binding, split, _)| (binding, split)).collect();
    let runs = Mutex::new(vec![Vec::new(); num_reducers]);

    let socket = job_dir.join("ctl.sock");
    let listener = UnixListener::bind(&socket)?;
    listener.set_nonblocking(true)?;

    let shuffle_nanos = AtomicU64::new(0);
    let sched = Shared::new(Scheduler::new(
        map_meta.len(),
        num_reducers,
        run.max_attempts,
        cfg.speculate,
        Arc::clone(&run.counters),
    ));

    let broker = Broker::new();
    let stop_broker = AtomicBool::new(false);
    let next_id = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        scope.spawn(|| broker.accept_loop(&listener, &stop_broker));
        let mut handlers = Vec::new();
        for _ in 0..workers {
            let ctx = HandlerCtx {
                job,
                cfg,
                sched: &sched,
                map_meta: &map_meta,
                runs: &runs,
                counters: &run.counters,
                broker: &broker,
                job_dir: &job_dir,
                socket: &socket,
                fault: job.fault_plan.as_deref(),
                next_id: &next_id,
                shuffle_nanos: &shuffle_nanos,
            };
            handlers.push(scope.spawn(move || worker_slot(&ctx)));
        }
        for h in handlers {
            let _ = h.join();
        }
        stop_broker.store(true, Ordering::Relaxed);
    });

    let shuffle = Duration::from_nanos(shuffle_nanos.load(Ordering::Relaxed));
    let phases = sched.into_inner().finish(start, shuffle)?;
    let mut partitions = Vec::with_capacity(num_reducers);
    for p in 0..num_reducers {
        let reader = mr_storage::RunFileReader::open(out_path(&job_dir, p))?;
        partitions.push(reader.collect::<std::result::Result<Vec<_>, _>>()?);
    }
    drop(spill_dir); // runs, outs, attempt dirs, socket — all gone
    Ok((partitions, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterSnapshot;
    use crate::input::InputSpec;
    use crate::reducer::Builtin;
    use mr_ir::asm::parse_function;

    /// What [`serve`] made of one reply: whether the slot respawns, the
    /// job error, the scheduler's commit count, the worker process's
    /// exit status, and the verdict frame the fake worker received.
    struct Served {
        respawn: bool,
        error: Option<EngineError>,
        committed: usize,
        status: std::process::ExitStatus,
        verdict: Option<u8>,
    }

    /// Hand map task 0, attempt 0 (of `tasks`) to a fake worker that
    /// answers with `reply`, standing in for the worker process with
    /// `process` (`program, args…`).
    fn serve_one_reply(tasks: usize, reply: MapDone, process: &[&str]) -> Served {
        let map = parse_function("func map(key, value) {\n  ret\n}\n").unwrap();
        let input = InputSpec::SeqFile {
            path: "/nonexistent".into(),
        };
        let job = JobConfig::ir_job("answers", input, map, Builtin::Count);
        let counters = Counters::new();
        let sched = Shared::new(Scheduler::new(tasks, 1, 2, false, Arc::clone(&counters)));
        let job_dir = SpillDir::create(None, "answers").unwrap();
        let ctx = HandlerCtx {
            job: &job,
            cfg: &ProcessCfg::default(),
            sched: &sched,
            map_meta: &vec![(0, 0); tasks],
            runs: &Mutex::new(vec![Vec::new()]),
            counters: &counters,
            broker: &Broker::new(),
            job_dir: job_dir.path(),
            socket: &job_dir.path().join("ctl.sock"),
            fault: None,
            next_id: &AtomicUsize::new(1),
            shuffle_nanos: &AtomicU64::new(0),
        };
        let mut child = Command::new(process[0])
            .args(&process[1..])
            .spawn()
            .unwrap();
        let (coordinator, worker) = UnixStream::pair().unwrap();
        let fake = std::thread::spawn(move || {
            let (tag, _) = read_frame(&mut &worker).unwrap().unwrap();
            assert_eq!(tag, TAG_MAP_TASK);
            write_frame(&mut &worker, TAG_MAP_DONE, &reply.encode().unwrap()).unwrap();
            read_frame(&mut &worker).ok().flatten().map(|(tag, _)| tag)
        });
        let reader = BufReader::new(coordinator.try_clone().unwrap());
        let respawn = serve(&ctx, 0, &mut child, reader, BufWriter::new(coordinator));
        let verdict = fake.join().unwrap();
        let status = child.try_wait().unwrap().expect("the worker was reaped");
        let core = sched.into_inner();
        Served {
            respawn,
            error: core.finish(Instant::now(), Duration::ZERO).err(),
            // Each reply counts one record, absorbed only on commit.
            committed: counters.snapshot().map_input_records as usize,
            status,
            verdict,
        }
    }

    fn map_done(task: usize, attempt: usize) -> MapDone {
        MapDone {
            task,
            attempt,
            runs: Vec::new(),
            counters: CounterSnapshot {
                map_input_records: 1,
                ..Default::default()
            },
            shuffle_nanos: 0,
        }
    }

    /// A done frame for another task (in range or not), another
    /// attempt, or a partition the job does not have aborts the job
    /// typed and reaps the worker — it never indexes, decrements or
    /// commits what it names.
    #[test]
    fn result_frames_must_answer_their_assignment() {
        let mut stray_run = map_done(0, 0);
        let run = crate::spill::SpillRun {
            seq: 0,
            path: "/nonexistent/run".into(),
            pairs: 1,
            raw_bytes: 1,
            bytes: 1,
        };
        stray_run.runs.push((9, run));
        let replies = [map_done(1, 0), map_done(0, 3), map_done(7, 0), stray_run];
        for (i, reply) in replies.into_iter().enumerate() {
            // A live worker: only a kill ends it before the test does.
            let served = serve_one_reply(2, reply, &["sleep", "30"]);
            assert!(!served.respawn, "reply {i}: the slot stops");
            match served.error {
                Some(EngineError::Remote(msg)) => assert!(
                    msg.contains("does not answer map task 0 attempt 0"),
                    "reply {i}: {msg}"
                ),
                other => panic!("reply {i}: expected Remote, got {other:?}"),
            }
            assert_eq!(served.committed, 0, "reply {i}: nothing committed");
            assert_eq!(served.verdict, None, "reply {i}: no verdict sent");
            assert!(!served.status.success(), "reply {i}: worker killed");
        }
    }

    /// The matching answer commits and is acknowledged (the fake worker
    /// then hangs up, so the slot asks for a respawn).
    #[test]
    fn the_matching_result_frame_commits() {
        let served = serve_one_reply(1, map_done(0, 0), &["true"]);
        assert!(served.error.is_none(), "{:?}", served.error);
        assert_eq!(served.committed, 1);
        assert_eq!(served.verdict, Some(TAG_COMMIT_ACK));
        assert!(served.respawn);
    }
}
