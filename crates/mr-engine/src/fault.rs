//! Deterministic, seedable fault injection for task-level retry tests.
//!
//! Production MapReduce earns its keep by surviving task failures: "the
//! final program output should be the same as what would have been
//! generated by a conventional MapReduce system" has to hold *under
//! stress*, not just on the happy path. A [`FaultPlan`] describes a
//! failure schedule precisely enough that any run of it is
//! reproducible:
//!
//! * **task faults** — fail map task *t* (or reduce partition *p*) on
//!   attempt *a* when it is about to process record *n*. Task and
//!   attempt numbering are deterministic (tasks in planning order,
//!   attempts from 0), and record counting is per-attempt, so a task
//!   fault fires at exactly the same point every run;
//! * **IO faults** — fail the *k*-th read/write at one of the
//!   [`mr_storage::fault::IoSite`] sites (run-file and sequence-file
//!   readers and writers). These are one-shot: the retried attempt
//!   proceeds past them, modelling a transient disk hiccup;
//! * **process faults** — kill whole worker *processes* (SIGKILL, no
//!   cleanup) or slow them down to provoke speculative execution.
//!   These sites only exist under the process backend
//!   ([`BackendSpec::Process`](crate::job::BackendSpec::Process)); the
//!   in-process [`BackendSpec::Local`](crate::job::BackendSpec::Local)
//!   has no workers to kill and ignores them.
//!
//! Plans are built programmatically ([`fail_map`](FaultPlan::fail_map)
//! and friends), from a seed ([`FaultPlan::scattered`]), or parsed from
//! the compact spec the CLI and bench bins accept
//! ([`FaultPlan::from_spec`]):
//!
//! ```text
//! map:T:A:N      fail map task T, attempt A, at record N
//! reduce:P:A:N   fail reduce partition P, attempt A, at record N
//! io:SITE:K      fail the K-th op at SITE (run-read | run-write |
//!                seq-read | seq-write | block-read | block-write —
//!                the block sites fire per compressed frame, so they
//!                only trigger with a shuffle codec active)
//! kill:W:N       SIGKILL worker W at its N-th task assignment
//!                (process backend only; one-shot per plan)
//! slow:W:MS      pause worker W for MS milliseconds before every task
//!                (process backend only; triggers speculation)
//! ```
//!
//! joined with commas: `map:0:0:5,reduce:1:0:0,io:run-read:3`.

use std::sync::Arc;

use mr_storage::fault::{IoFaults, IoSite};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled task failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskFault {
    /// Map task id or reduce partition, in planning order.
    pub task: usize,
    /// Which attempt fails (0-based).
    pub attempt: usize,
    /// The attempt fails when it has processed this many records and
    /// is about to look for the next (0-based): `0` fires before
    /// anything, even on empty inputs; a value equal to the task's
    /// record count fires at end-of-input, *after* all records but
    /// before the attempt completes — the commit-adjacent window;
    /// anything larger never fires.
    pub at_record: u64,
}

/// A complete, reproducible failure schedule for one job.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    map: Vec<TaskFault>,
    reduce: Vec<TaskFault>,
    io: Vec<(IoSite, u64)>,
    /// `(worker, assignment ordinal)` — SIGKILL worker `w` when the
    /// coordinator hands it its `n`-th task (0-based). Process backend
    /// only.
    kill: Vec<(usize, u64)>,
    /// `(worker, millis)` — delay every task on worker `w` by `ms`.
    /// Process backend only.
    slow: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a map-task failure.
    pub fn fail_map(mut self, task: usize, attempt: usize, at_record: u64) -> FaultPlan {
        self.map.push(TaskFault {
            task,
            attempt,
            at_record,
        });
        self
    }

    /// Schedule a reduce-task failure.
    pub fn fail_reduce(mut self, task: usize, attempt: usize, at_record: u64) -> FaultPlan {
        self.reduce.push(TaskFault {
            task,
            attempt,
            at_record,
        });
        self
    }

    /// Fail map task `task`'s first `attempts` attempts immediately
    /// (at record 0) — the shape whose retry count is exactly
    /// predictable.
    pub fn fail_map_attempts(mut self, task: usize, attempts: usize) -> FaultPlan {
        for a in 0..attempts {
            self = self.fail_map(task, a, 0);
        }
        self
    }

    /// Fail reduce partition `task`'s first `attempts` attempts
    /// immediately.
    pub fn fail_reduce_attempts(mut self, task: usize, attempts: usize) -> FaultPlan {
        for a in 0..attempts {
            self = self.fail_reduce(task, a, 0);
        }
        self
    }

    /// Schedule a one-shot IO failure at `site`, operation `op`.
    pub fn fail_io(mut self, site: IoSite, op: u64) -> FaultPlan {
        self.io.push((site, op));
        self
    }

    /// SIGKILL worker `worker` when the coordinator assigns it its
    /// `assignment`-th task (0-based). Only the process backend has
    /// worker processes; the local backend ignores kill sites. The
    /// killed worker's in-flight attempt counts as a task failure and
    /// is retried like any other, so `max_task_attempts` must leave
    /// headroom.
    pub fn kill_worker(mut self, worker: usize, assignment: u64) -> FaultPlan {
        self.kill.push((worker, assignment));
        self
    }

    /// Delay every task on worker `worker` by `millis` ms — a
    /// deterministic straggler that provokes speculative execution
    /// under the process backend. The local backend ignores slow
    /// sites.
    pub fn slow_worker(mut self, worker: usize, millis: u64) -> FaultPlan {
        self.slow.push((worker, millis));
        self
    }

    /// A seeded random schedule: every map task in `0..map_tasks` and
    /// partition in `0..reduce_tasks` independently gets a prefix of
    /// 0 to `max_failures` immediately-failing attempts. The same seed
    /// always yields the same plan, and because every fault fires at
    /// record 0, [`expected_retries`](Self::expected_retries) is exact.
    pub fn scattered(
        seed: u64,
        map_tasks: usize,
        reduce_tasks: usize,
        max_failures: usize,
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for t in 0..map_tasks {
            let k = rng.gen_range(0..max_failures + 1);
            plan = plan.fail_map_attempts(t, k);
        }
        for p in 0..reduce_tasks {
            let k = rng.gen_range(0..max_failures + 1);
            plan = plan.fail_reduce_attempts(p, k);
        }
        plan
    }

    /// Parse the CLI/bench spec format (see the module docs).
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let parts: Vec<&str> = clause.split(':').collect();
            let num = |s: &str, what: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("`{clause}`: {what} `{s}` is not a number"))
            };
            match parts.as_slice() {
                ["map", t, a, n] => {
                    plan = plan.fail_map(
                        num(t, "task")? as usize,
                        num(a, "attempt")? as usize,
                        num(n, "record")?,
                    );
                }
                ["reduce", p, a, n] => {
                    plan = plan.fail_reduce(
                        num(p, "partition")? as usize,
                        num(a, "attempt")? as usize,
                        num(n, "record")?,
                    );
                }
                ["io", site, op] => {
                    let site = IoSite::parse(site).ok_or_else(|| {
                        format!(
                            "`{clause}`: unknown IO site `{site}` \
                             (run-read|run-write|seq-read|seq-write)"
                        )
                    })?;
                    plan = plan.fail_io(site, num(op, "op")?);
                }
                ["kill", w, n] => {
                    plan = plan.kill_worker(num(w, "worker")? as usize, num(n, "assignment")?);
                }
                ["slow", w, ms] => {
                    plan = plan.slow_worker(num(w, "worker")? as usize, num(ms, "millis")?);
                }
                _ => {
                    return Err(format!(
                        "`{clause}`: expected map:T:A:N, reduce:P:A:N, io:SITE:K, \
                         kill:W:N or slow:W:MS"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
            && self.reduce.is_empty()
            && self.io.is_empty()
            && self.kill.is_empty()
            && self.slow.is_empty()
    }

    /// Whether the plan schedules process-level sites (worker kills or
    /// slowdowns) that only the process backend can deliver.
    pub fn has_process_faults(&self) -> bool {
        !self.kill.is_empty() || !self.slow.is_empty()
    }

    /// Whether worker `worker` must be killed at its `assignment`-th
    /// task assignment.
    pub fn worker_kill(&self, worker: usize, assignment: u64) -> bool {
        self.kill
            .iter()
            .any(|&(w, n)| w == worker && n == assignment)
    }

    /// The per-task delay scheduled for worker `worker`, if any (the
    /// largest, if several are scheduled).
    pub fn worker_slow(&self, worker: usize) -> Option<u64> {
        self.slow
            .iter()
            .filter(|&&(w, _)| w == worker)
            .map(|&(_, ms)| ms)
            .max()
    }

    /// The IO sites named by the plan's `io:` clauses (repeats kept) —
    /// the CLI validates these against the knobs that make each site
    /// reachable (spill budget, shuffle codec).
    pub fn io_sites(&self) -> Vec<IoSite> {
        self.io.iter().map(|&(site, _)| site).collect()
    }

    /// The largest worker id named by any kill/slow clause, if any —
    /// the CLI validates this against the configured worker count.
    pub fn max_process_worker(&self) -> Option<usize> {
        self.kill
            .iter()
            .chain(self.slow.iter())
            .map(|&(w, _)| w)
            .max()
    }

    /// How many worker kills the plan schedules.
    pub fn kill_count(&self) -> u64 {
        self.kill.len() as u64
    }

    /// The record at which map task `task`, attempt `attempt` must fail
    /// (the earliest, if several are scheduled).
    pub fn map_fault(&self, task: usize, attempt: usize) -> Option<u64> {
        fault_at(&self.map, task, attempt)
    }

    /// The record at which reduce partition `task`, attempt `attempt`
    /// must fail.
    pub fn reduce_fault(&self, task: usize, attempt: usize) -> Option<u64> {
        fault_at(&self.reduce, task, attempt)
    }

    /// A fresh per-run IO injector (operation counters at zero), or
    /// `None` when no IO faults are scheduled. Built once per
    /// `run_job` so the same plan means the same failure every run.
    pub fn io_faults(&self) -> Option<Arc<IoFaults>> {
        if self.io.is_empty() {
            return None;
        }
        Some(Arc::new(IoFaults::from_triggers(&self.io)))
    }

    /// The retries an immediate-failure plan (every fault at record 0,
    /// as [`scattered`](Self::scattered) and
    /// [`fail_map_attempts`](Self::fail_map_attempts) build) causes for
    /// tasks that exist: per task, the contiguous prefix of failing
    /// attempts, capped at `max_attempts - 1` (beyond the cap the job
    /// fails instead of retrying). `map_tasks`/`reduce_tasks` bound the
    /// ids that actually run.
    pub fn expected_retries(
        &self,
        map_tasks: usize,
        reduce_tasks: usize,
        max_attempts: usize,
    ) -> u64 {
        let prefix = |faults: &[TaskFault], task: usize| -> u64 {
            let mut k = 0usize;
            while faults
                .iter()
                .any(|f| f.task == task && f.attempt == k && f.at_record == 0)
            {
                k += 1;
            }
            k.min(max_attempts.saturating_sub(1)) as u64
        };
        (0..map_tasks).map(|t| prefix(&self.map, t)).sum::<u64>()
            + (0..reduce_tasks)
                .map(|p| prefix(&self.reduce, p))
                .sum::<u64>()
    }

    /// Whether the immediate-failure prefix of any task in range
    /// exhausts `max_attempts` (the job would fail rather than retry
    /// through).
    pub fn exhausts(&self, map_tasks: usize, reduce_tasks: usize, max_attempts: usize) -> bool {
        let deep = |faults: &[TaskFault], tasks: usize| {
            (0..tasks).any(|t| {
                (0..max_attempts).all(|a| {
                    faults
                        .iter()
                        .any(|f| f.task == t && f.attempt == a && f.at_record == 0)
                })
            })
        };
        deep(&self.map, map_tasks) || deep(&self.reduce, reduce_tasks)
    }
}

fn fault_at(faults: &[TaskFault], task: usize, attempt: usize) -> Option<u64> {
    faults
        .iter()
        .filter(|f| f.task == task && f.attempt == attempt)
        .map(|f| f.at_record)
        .min()
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for t in &self.map {
            parts.push(format!("map:{}:{}:{}", t.task, t.attempt, t.at_record));
        }
        for t in &self.reduce {
            parts.push(format!("reduce:{}:{}:{}", t.task, t.attempt, t.at_record));
        }
        for (site, op) in &self.io {
            parts.push(format!("io:{}:{op}", site.name()));
        }
        for (w, n) in &self.kill {
            parts.push(format!("kill:{w}:{n}"));
        }
        for (w, ms) in &self.slow {
            parts.push(format!("slow:{w}:{ms}"));
        }
        if parts.is_empty() {
            write!(f, "(no faults)")
        } else {
            write!(f, "{}", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = "map:0:0:5,reduce:1:0:0,io:run-read:3";
        let plan = FaultPlan::from_spec(spec).unwrap();
        assert_eq!(plan.map_fault(0, 0), Some(5));
        assert_eq!(plan.map_fault(0, 1), None);
        assert_eq!(plan.reduce_fault(1, 0), Some(0));
        assert!(plan.io_faults().is_some());
        assert_eq!(plan.to_string(), spec);
    }

    #[test]
    fn bad_specs_rejected() {
        for bad in ["map:0:0", "map:x:0:0", "io:floppy:0", "frobnicate", "io:3"] {
            assert!(FaultPlan::from_spec(bad).is_err(), "{bad}");
        }
        assert!(FaultPlan::from_spec("").unwrap().is_empty());
        assert!(FaultPlan::from_spec(" , ").unwrap().is_empty());
    }

    #[test]
    fn process_fault_spec_round_trips() {
        let spec = "map:0:0:5,kill:0:1,kill:1:0,slow:2:40";
        let plan = FaultPlan::from_spec(spec).unwrap();
        assert!(plan.has_process_faults());
        assert!(plan.worker_kill(0, 1));
        assert!(plan.worker_kill(1, 0));
        assert!(!plan.worker_kill(0, 0));
        assert_eq!(plan.worker_slow(2), Some(40));
        assert_eq!(plan.worker_slow(0), None);
        assert_eq!(plan.max_process_worker(), Some(2));
        assert_eq!(plan.kill_count(), 2);
        assert_eq!(plan.to_string(), spec);
        // A kill-only plan is not empty.
        let plan = FaultPlan::new().kill_worker(0, 0);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().slow_worker(1, 5).worker_slow(1) == Some(5));
        for bad in ["kill:0", "kill:x:0", "slow:0:y"] {
            assert!(FaultPlan::from_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn earliest_fault_wins() {
        let plan = FaultPlan::new().fail_map(2, 1, 10).fail_map(2, 1, 4);
        assert_eq!(plan.map_fault(2, 1), Some(4));
    }

    #[test]
    fn expected_retries_counts_contiguous_prefixes() {
        let plan = FaultPlan::new()
            .fail_map_attempts(0, 2) // attempts 0, 1 fail → 2 retries
            .fail_map(1, 1, 0) // attempt 0 succeeds → never reached
            .fail_reduce_attempts(0, 1); // 1 retry
        assert_eq!(plan.expected_retries(2, 2, 3), 3);
        // Task 5 doesn't exist in a 2-task job.
        let plan = plan.fail_map_attempts(5, 2);
        assert_eq!(plan.expected_retries(2, 2, 3), 3);
        assert!(!plan.exhausts(2, 2, 3));
        assert!(plan.exhausts(6, 2, 2));
    }

    #[test]
    fn scattered_is_deterministic_and_bounded() {
        let a = FaultPlan::scattered(7, 4, 3, 2);
        let b = FaultPlan::scattered(7, 4, 3, 2);
        assert_eq!(a.to_string(), b.to_string());
        assert!(!a.exhausts(4, 3, 3), "max_failures 2 < 3 attempts");
        assert_ne!(
            FaultPlan::scattered(8, 4, 3, 2).to_string(),
            a.to_string(),
            "different seed, different schedule (overwhelmingly likely)"
        );
    }

    #[test]
    fn io_faults_are_fresh_per_call() {
        let plan = FaultPlan::new().fail_io(IoSite::SeqRead, 0);
        let first = plan.io_faults().unwrap();
        assert!(first.check(IoSite::SeqRead).is_err());
        // A second run gets its own counters: the fault fires again.
        let second = plan.io_faults().unwrap();
        assert!(second.check(IoSite::SeqRead).is_err());
    }
}
