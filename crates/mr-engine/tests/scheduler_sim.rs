//! A seeded, deterministic simulation of the task scheduler both
//! backends run on (`mr_engine::scheduler`), in the style of
//! FoundationDB's simulation testing: synthetic workers ask for
//! attempts, finish, fail, hang, publish and deliver late duplicates in
//! an order a seeded RNG chooses, with speculation on and off, and
//! every schedule is checked against the scheduler's invariants:
//!
//! * every task commits exactly once, and no attempt is launched for a
//!   task that already committed;
//! * the job counters equal the sum over committed attempts, and the
//!   failure, retry and speculation counters match the schedule;
//! * no task ever has more than two attempts in flight (one without
//!   speculation), and no reduce attempt starts before every map
//!   publish has returned;
//! * the job fails iff some task exhausts `max_task_attempts`, and
//!   `TaskFailed` names the first task that did;
//! * every schedule terminates, without a worker waiting on nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mr_engine::scheduler::{Kind, Next, Scheduler};
use mr_engine::{CounterSnapshot, Counters, EngineError};

/// SplitMix64: small, seedable, and good enough to pick schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn percent(&mut self, p: usize) -> bool {
        self.below(100) < p
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Finish,
    Fail,
    /// Resolves (finishing or failing) only once nothing else can
    /// happen — a straggler, or a worker that timed out.
    Hang,
}

#[derive(Debug)]
struct Running {
    kind: Kind,
    task: usize,
    fate: Fate,
    /// What the attempt counted; absorbed only if it commits.
    records: u64,
}

/// The simulator's own view of one task.
#[derive(Debug, Default, Clone)]
struct Task {
    launches: usize,
    in_flight: usize,
    commits: usize,
    failures: usize,
    published: bool,
}

/// What one seed's schedule did, for the caller's cross-seed checks.
#[derive(Debug, Default)]
struct Outcome {
    failed: bool,
    speculated: u64,
    late_duplicates: u64,
    steps: usize,
}

fn idx(kind: Kind) -> usize {
    match kind {
        Kind::Map => 0,
        Kind::Reduce => 1,
    }
}

/// Run one seeded schedule to completion, asserting every invariant.
fn simulate(seed: u64) -> Outcome {
    let mut rng = Rng(seed);
    let maps = rng.below(6);
    let reduces = rng.below(5);
    let max_attempts = 1 + rng.below(4);
    let workers = 1 + rng.below(4);
    let speculate = rng.percent(50);
    let fail_pct = rng.below(45);
    let hang_pct = rng.below(25);
    let cell = format!(
        "seed {seed}: {maps} maps, {reduces} reduces, {max_attempts} attempts, \
         {workers} workers, speculate {speculate}, fail {fail_pct}%, hang {hang_pct}%"
    );

    let counters = Counters::new();
    let mut sched = Scheduler::new(
        maps,
        reduces,
        max_attempts,
        speculate,
        Arc::clone(&counters),
    );
    let mut tasks = [vec![Task::default(); maps], vec![Task::default(); reduces]];
    let mut running: Vec<Running> = Vec::new();
    let mut publishing: Vec<(Kind, usize)> = Vec::new();
    // Workers asking for work (`idle`), of which `parked` got `Wait`
    // and sleep until the next commit, failure or publish.
    let (mut idle, mut parked, mut retired) = (workers, 0usize, 0usize);
    let mut expected = CounterSnapshot::default();
    let mut first_exhausted: Option<(Kind, usize)> = None;
    let mut commit_order: Vec<(Kind, usize)> = Vec::new();
    let mut out = Outcome::default();

    while retired < workers {
        out.steps += 1;
        assert!(
            out.steps < 100_000,
            "{cell}: the schedule does not terminate"
        );
        let can_ask = idle > parked;
        let live: Vec<usize> = (0..running.len())
            .filter(|&i| running[i].fate != Fate::Hang)
            .collect();
        let choices = usize::from(can_ask) + live.len() + publishing.len();
        if choices == 0 {
            // Only hung attempts are left: one of them times out or
            // finishes late.
            assert!(
                !running.is_empty(),
                "{cell}: {idle} workers wait on nothing"
            );
            let i = rng.below(running.len());
            running[i].fate = if rng.percent(50) {
                Fate::Fail
            } else {
                Fate::Finish
            };
            continue;
        }
        let mut pick = rng.below(choices);
        if can_ask {
            if pick == 0 {
                match sched.next() {
                    Next::Task {
                        kind,
                        task,
                        attempt,
                    } => {
                        if kind == Kind::Reduce {
                            assert!(
                                tasks[0].iter().all(|m| m.published),
                                "{cell}: reduce {task} started before the map phase published"
                            );
                        }
                        let t = &mut tasks[idx(kind)][task];
                        assert_eq!(t.commits, 0, "{cell}: launched committed {kind:?} {task}");
                        assert_eq!(
                            attempt, t.launches,
                            "{cell}: attempt numbers are per launch"
                        );
                        if t.in_flight > 0 {
                            out.speculated += 1;
                        }
                        t.launches += 1;
                        t.in_flight += 1;
                        let cap = if speculate { 2 } else { 1 };
                        assert!(t.in_flight <= cap, "{cell}: {kind:?} {task} over-launched");
                        let fate = match rng.below(100) {
                            r if r < fail_pct => Fate::Fail,
                            r if r < fail_pct + hang_pct => Fate::Hang,
                            _ => Fate::Finish,
                        };
                        let records = 1 + rng.below(1000) as u64;
                        running.push(Running {
                            kind,
                            task,
                            fate,
                            records,
                        });
                        idle -= 1;
                    }
                    Next::Wait => parked += 1,
                    Next::Shutdown => {
                        idle -= 1;
                        retired += 1;
                    }
                }
                continue;
            }
            pick -= 1;
        }
        // Anything below changes the scheduler's state: parked workers
        // wake, as the condvar's `notify_all` wakes them.
        parked = 0;
        if pick < live.len() {
            let r = running.swap_remove(live[pick]);
            let t = &mut tasks[idx(r.kind)][r.task];
            t.in_flight -= 1;
            idle += 1;
            if r.fate == Fate::Fail {
                let was_committed = t.commits > 0;
                sched.fail(r.kind, r.task, EngineError::Injected("simulated".into()));
                if was_committed {
                    out.late_duplicates += 1;
                    continue;
                }
                t.failures += 1;
                match r.kind {
                    Kind::Map => expected.map_task_failures += 1,
                    Kind::Reduce => expected.reduce_task_failures += 1,
                }
                if t.failures == max_attempts {
                    first_exhausted.get_or_insert((r.kind, r.task));
                } else if t.failures < max_attempts && t.in_flight == 0 {
                    expected.task_retries += 1;
                }
                continue;
            }
            let attempt = CounterSnapshot {
                map_input_records: if r.kind == Kind::Map { r.records } else { 0 },
                reduce_input_groups: if r.kind == Kind::Reduce { r.records } else { 0 },
                ..Default::default()
            };
            if sched.commit(r.kind, r.task, &attempt) {
                t.commits += 1;
                assert_eq!(
                    t.commits, 1,
                    "{cell}: {:?} {} committed twice",
                    r.kind, r.task
                );
                expected.map_input_records += attempt.map_input_records;
                expected.reduce_input_groups += attempt.reduce_input_groups;
                commit_order.push((r.kind, r.task));
                // The winner publishes on its own thread: its worker is
                // busy until the publish returns.
                idle -= 1;
                publishing.push((r.kind, r.task));
            } else {
                assert_eq!(t.commits, 1, "{cell}: a first finisher lost");
                out.late_duplicates += 1;
            }
            continue;
        }
        let (kind, task) = publishing.swap_remove(pick - live.len());
        tasks[idx(kind)][task].published = true;
        sched.published(kind, task);
        idle += 1;
    }
    assert!(running.is_empty() && publishing.is_empty(), "{cell}");

    let got = counters.snapshot();
    expected.speculative_tasks = out.speculated;
    for (name, (g, e)) in [
        (
            "map_input_records",
            (got.map_input_records, expected.map_input_records),
        ),
        (
            "reduce_input_groups",
            (got.reduce_input_groups, expected.reduce_input_groups),
        ),
        (
            "map_task_failures",
            (got.map_task_failures, expected.map_task_failures),
        ),
        (
            "reduce_task_failures",
            (got.reduce_task_failures, expected.reduce_task_failures),
        ),
        ("task_retries", (got.task_retries, expected.task_retries)),
        (
            "speculative_tasks",
            (got.speculative_tasks, expected.speculative_tasks),
        ),
    ] {
        assert_eq!(g, e, "{cell}: {name}");
    }

    let result = sched.finish(Instant::now(), Duration::ZERO);
    match (first_exhausted, result) {
        (None, Ok(_)) => {
            for (k, kind_tasks) in tasks.iter().enumerate() {
                for (i, t) in kind_tasks.iter().enumerate() {
                    assert!(t.commits == 1 && t.published, "{cell}: task {k}/{i}");
                }
            }
            // Front requeue: one worker without speculation commits
            // every phase in task order, retries included.
            if workers == 1 && !speculate {
                let in_order = (0..maps)
                    .map(|t| (Kind::Map, t))
                    .chain((0..reduces).map(|p| (Kind::Reduce, p)));
                assert!(commit_order.iter().copied().eq(in_order), "{cell}");
            }
        }
        (
            Some((kind, task)),
            Err(EngineError::TaskFailed {
                task: name,
                attempts,
                ..
            }),
        ) => {
            assert_eq!(name, format!("{} task {task}", kind.label()), "{cell}");
            assert_eq!(attempts, max_attempts, "{cell}");
            out.failed = true;
        }
        (exhausted, result) => {
            panic!("{cell}: exhausted {exhausted:?}, but the job returned {result:?}")
        }
    }
    out
}

/// Ten thousand seeded schedules, every one checked; the seeds also
/// have to reach the interesting corners, or the check proves little.
#[test]
fn seeded_schedules_keep_the_scheduler_invariants() {
    let (mut failed, mut speculated, mut late, mut steps) = (0, 0, 0, 0);
    for seed in 0..10_000 {
        let out = simulate(seed);
        failed += usize::from(out.failed);
        speculated += out.speculated;
        late += out.late_duplicates;
        steps += out.steps;
    }
    eprintln!("{failed} failed jobs, {speculated} speculative launches, {late} late duplicates, {steps} steps");
    assert!(
        failed > 500 && failed < 9_500,
        "{failed} of 10 000 jobs failed"
    );
    assert!(speculated > 1_000, "{speculated} speculative launches");
    assert!(late > 1_000, "{late} late duplicates");
    assert!(steps > 100_000, "{steps} steps");
}

/// A schedule is a pure function of its seed.
#[test]
fn a_seed_replays_its_schedule() {
    for seed in [3, 77, 4_096] {
        let (a, b) = (simulate(seed), simulate(seed));
        assert_eq!(
            (a.failed, a.speculated, a.late_duplicates, a.steps),
            (b.failed, b.speculated, b.late_duplicates, b.steps)
        );
    }
}
