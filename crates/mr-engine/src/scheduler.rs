//! The task scheduler of both backends: a state machine with no I/O
//! and no threads, plus the mutex + condvar wrapper (`Shared`) their
//! worker threads call. Its policy is Dean & Ghemawat's:
//!
//! * A failed task is requeued at the **front** once no sibling attempt
//!   is in flight, so at one worker its retry commits before the tasks
//!   after it and commit order stays the fault-free one. `task_retries`
//!   counts requeues, `map_task_failures`/`reduce_task_failures` failed
//!   attempts; the `max_task_attempts`-th failure of a task fails the
//!   job with [`EngineError::TaskFailed`].
//! * With speculation on (the process backend's `ProcessCfg::speculate`;
//!   the local runner passes `false`), an idle worker facing an empty
//!   queue duplicates the lowest uncommitted task with exactly one
//!   attempt in flight — so no task ever has more than two.
//! * The first finisher of a task wins the commit and its counters are
//!   absorbed; later finishers contribute nothing. The winner publishes
//!   outside the lock, and a phase ends only once every publish has
//!   returned. `tests/scheduler_sim.rs` checks all of this over seeded
//!   random schedules.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::counters::{CounterSnapshot, Counters};
use crate::error::{EngineError, Result};
use crate::runner::PhaseTimings;

/// The phase a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A map task: one input split.
    Map,
    /// A reduce task: one partition.
    Reduce,
}

impl Kind {
    /// `"map"` or `"reduce"`, as task names spell it.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Map => "map",
            Kind::Reduce => "reduce",
        }
    }
}

/// What an idle worker does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run attempt `attempt` (numbered per task across every launch)
    /// of `kind` task `task`.
    #[allow(missing_docs)]
    Task {
        kind: Kind,
        task: usize,
        attempt: usize,
    },
    /// Nothing to run until an in-flight attempt finishes.
    Wait,
    /// The job is done or failed.
    Shutdown,
}

#[derive(Debug, Default)]
struct TaskState {
    launches: usize,
    failures: usize,
    running: usize,
    /// An attempt won the commit; its publish may still be running.
    won: bool,
}

/// The scheduling state machine (see the module docs).
#[derive(Debug)]
pub struct Scheduler {
    max_attempts: usize,
    speculate: bool,
    counters: Arc<Counters>,
    /// The phase the queue's tasks belong to; `None` once done.
    phase: Option<Kind>,
    queue: VecDeque<usize>,
    /// Map tasks, then reduce tasks (indexed by `Kind as usize`).
    tasks: [Vec<TaskState>; 2],
    /// Tasks of the current phase whose publish has not returned.
    unpublished: usize,
    error: Option<EngineError>,
    started: Instant,
    map_done: Option<Instant>,
    reduce_done: Option<Instant>,
}

impl Scheduler {
    /// A job of `maps` map tasks then `reduces` reduce tasks, counting
    /// into `counters` (with no map task it starts in the reduce phase).
    pub fn new(
        maps: usize,
        reduces: usize,
        max_attempts: usize,
        speculate: bool,
        counters: Arc<Counters>,
    ) -> Scheduler {
        let tasks = |n| (0..n).map(|_| TaskState::default()).collect();
        let mut s = Scheduler {
            max_attempts: max_attempts.max(1),
            speculate,
            counters,
            phase: Some(Kind::Map),
            queue: (0..maps).collect(),
            tasks: [tasks(maps), tasks(reduces)],
            unpublished: maps,
            error: None,
            started: Instant::now(),
            map_done: None,
            reduce_done: None,
        };
        s.advance();
        s
    }

    /// The queue's front task, else (speculating) a straggler's
    /// duplicate.
    #[allow(clippy::should_implement_trait)] // `Wait` is no iterator's end
    pub fn next(&mut self) -> Next {
        let Some(kind) = self.phase.filter(|_| self.error.is_none()) else {
            return Next::Shutdown;
        };
        let task = match self.queue.pop_front() {
            Some(task) => task,
            None if self.speculate => {
                let mut tasks = self.tasks[kind as usize].iter();
                let Some(task) = tasks.position(|t| t.running == 1 && !t.won) else {
                    return Next::Wait;
                };
                Counters::add(&self.counters.speculative_tasks, 1);
                task
            }
            None => return Next::Wait,
        };
        let t = &mut self.tasks[kind as usize][task];
        t.launches += 1;
        t.running += 1;
        let attempt = t.launches - 1;
        Next::Task {
            kind,
            task,
            attempt,
        }
    }

    /// A finished attempt asks to commit. The first finisher of the
    /// task wins — its `counters` are absorbed, and it must publish,
    /// then call [`published`](Self::published); a later one gets
    /// `false`.
    pub fn commit(&mut self, kind: Kind, task: usize, counters: &CounterSnapshot) -> bool {
        let t = &mut self.tasks[kind as usize][task];
        t.running -= 1;
        if t.won {
            return false;
        }
        t.won = true;
        self.counters.absorb(counters);
        true
    }

    /// The winner of `kind` task `task` has published its output.
    pub fn published(&mut self, kind: Kind, task: usize) {
        debug_assert!(self.phase == Some(kind) && self.tasks[kind as usize][task].won);
        self.unpublished -= 1;
        self.advance();
    }

    /// Move past every phase with nothing left to publish.
    fn advance(&mut self) {
        while self.unpublished == 0 {
            match self.phase {
                Some(Kind::Map) => {
                    self.map_done = Some(Instant::now());
                    self.phase = Some(Kind::Reduce);
                    self.queue = (0..self.tasks[Kind::Reduce as usize].len()).collect();
                    self.unpublished = self.tasks[Kind::Reduce as usize].len();
                }
                Some(Kind::Reduce) => {
                    self.reduce_done = Some(Instant::now());
                    self.phase = None;
                }
                None => return,
            }
        }
    }

    /// An attempt failed with `cause`. A failure of an attempt whose
    /// task already committed (a speculative loser) is ignored.
    pub fn fail(&mut self, kind: Kind, task: usize, cause: EngineError) {
        let max = self.max_attempts;
        let t = &mut self.tasks[kind as usize][task];
        t.running -= 1;
        if t.won {
            return;
        }
        t.failures += 1;
        let (exhausted, idle) = (t.failures >= max, t.running == 0);
        let failures = match kind {
            Kind::Map => &self.counters.map_task_failures,
            Kind::Reduce => &self.counters.reduce_task_failures,
        };
        Counters::add(failures, 1);
        if exhausted {
            self.abort(EngineError::TaskFailed {
                task: format!("{} task {task}", kind.label()),
                attempts: max,
                cause: Box::new(cause),
            });
        } else if idle {
            self.queue.push_front(task);
            Counters::add(&self.counters.task_retries, 1);
        }
    }

    /// Fail the job with `e`, unless it already failed.
    pub fn abort(&mut self, e: EngineError) {
        self.error.get_or_insert(e);
    }

    /// Whether the job is done or failed.
    pub fn is_finished(&self) -> bool {
        self.error.is_some() || self.phase.is_none()
    }

    /// The error that failed the job, or its phase spans: `setup` from
    /// `setup_start` to this scheduler's creation, then `map` and
    /// `reduce` up to each phase's last publish.
    pub fn finish(self, setup_start: Instant, shuffle: Duration) -> Result<PhaseTimings> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let map_done = self.map_done.unwrap_or_else(Instant::now);
        let reduce_done = self.reduce_done.unwrap_or_else(Instant::now);
        Ok(PhaseTimings {
            setup: self.started.duration_since(setup_start),
            map: map_done.duration_since(self.started),
            shuffle,
            reduce: reduce_done.duration_since(map_done),
            output: Duration::ZERO,
        })
    }
}

/// A [`Scheduler`] behind a mutex and a condvar.
pub(crate) struct Shared {
    core: Mutex<Scheduler>,
    cv: Condvar,
}

impl Shared {
    pub(crate) fn new(core: Scheduler) -> Shared {
        Shared {
            core: Mutex::new(core),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Scheduler> {
        self.core.lock().expect("scheduler lock poisoned")
    }

    /// Block until there is an attempt to run, `(kind, task, attempt)`;
    /// `None` once the job is done or failed.
    pub(crate) fn next(&self) -> Option<(Kind, usize, usize)> {
        let mut core = self.lock();
        loop {
            match core.next() {
                Next::Task {
                    kind,
                    task,
                    attempt,
                } => return Some((kind, task, attempt)),
                Next::Shutdown => return None,
                Next::Wait => core = self.cv.wait(core).expect("scheduler lock poisoned"),
            }
        }
    }

    /// Commit a finished attempt: decide the winner under the lock, run
    /// its `publish` outside it, then let the phase advance. A publish
    /// error fails the job, naming the commit: part of the attempt may
    /// be published, so it is not retried. Returns whether it won.
    pub(crate) fn commit(
        &self,
        kind: Kind,
        task: usize,
        counters: &CounterSnapshot,
        publish: impl FnOnce() -> Result<()>,
    ) -> bool {
        let won = self.lock().commit(kind, task, counters);
        if won {
            let published = publish();
            let mut core = self.lock();
            match published {
                Ok(()) => core.published(kind, task),
                Err(e) => core.abort(EngineError::TaskFailed {
                    task: format!("{} task {task} commit", kind.label()),
                    attempts: 1,
                    cause: Box::new(e),
                }),
            }
        }
        self.cv.notify_all();
        won
    }

    pub(crate) fn fail(&self, kind: Kind, task: usize, cause: EngineError) {
        self.lock().fail(kind, task, cause);
        self.cv.notify_all();
    }

    pub(crate) fn abort(&self, e: EngineError) {
        self.lock().abort(e);
        self.cv.notify_all();
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.lock().is_finished()
    }

    pub(crate) fn into_inner(self) -> Scheduler {
        self.core.into_inner().expect("scheduler lock poisoned")
    }
}

/// Held by each worker thread: if the thread unwinds, the job fails,
/// so the other workers stop instead of waiting for an attempt that
/// will never report.
pub(crate) struct PanicGuard<'a>(pub(crate) &'a Shared);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut core = self.0.core.lock().unwrap_or_else(|e| e.into_inner());
            core.abort(EngineError::Config("a worker thread panicked".into()));
            self.0.cv.notify_all();
        }
    }
}
