//! The four batch workloads and the protocol that times them.
//!
//! A workload is data: how to generate its inputs, which jobs one pass
//! runs, and what must be true of a run for it to be the workload it
//! claims to be. [`run`] is the one timing protocol for all of them.
//! The end-to-end run calls only the façade — `Manimal::{new, submit,
//! build_indexes, execute, execute_baseline, execute_join}` — and sets
//! no tuning knob: default codec, default spill-writer threads, default
//! buffer pool, and the combiner wherever the optimizer engages it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use manimal::{
    choose_join_plan, Builtin, CatalogEntry, Execution, IndexKind, JoinJob, JoinPlan, Manimal,
    Submission, DEFAULT_BROADCAST_BUDGET,
};
use mr_engine::{BackendSpec, CounterSnapshot, InputSpec, PhaseTimings, ProcessCfg};
use mr_ir::function::Program;
use mr_workloads::data::{generate_rankings, generate_uservisits, UserVisitsConfig};
use mr_workloads::pavlo;

use crate::harness::{digest_pairs, input_digest, timed, Ctx, Digest, Reps, Result};
use crate::metrics::slug;
use crate::probes;
use crate::stats::{median, summarize};

/// Which plan a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// The unoptimized plan: `execute_baseline`, or the repartition join.
    Baseline,
    /// The plan `execute` (or `choose_join_plan`) picks.
    Optimized,
}

impl Plan {
    fn suffix(self) -> &'static str {
        match self {
            Plan::Baseline => "base",
            Plan::Optimized => "opt",
        }
    }
}

/// Input sizes of one batch workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows of the main input (Rankings for `select-sweep`, UserVisits otherwise).
    pub rows: usize,
    /// Rows of the join's build side (Rankings), 0 elsewhere.
    pub build_rows: usize,
}

/// One job of a cell: a program over the main input and its reducer.
pub struct MapJob {
    /// The submitted program.
    pub program: Program,
    /// Its reducer.
    pub reducer: Builtin,
}

/// The two-input join a cell of the `join` workload runs.
pub struct JoinSpec {
    /// Build-side mapper (Rankings).
    pub build: Program,
    /// Probe-side mapper (UserVisits, with the date window).
    pub probe: Program,
}

/// A batch workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Full and `--check` sizes. Where the index is a B+Tree view, the
    /// full size sits in the middle of a 64 KiB growth step of the
    /// index file, so the seed's luck with how many rows fall inside the
    /// view does not move `index_bytes_ratio` by a page (a page is 1.1 %
    /// of the index; of 100 seeds at 304 000 Rankings rows, 95 gave one
    /// index size, 3 the size below and 2 the size above; at 300 000 it
    /// was 37, 3 and 0 of 40, at 303 000 76, 24 and 0). The issue's
    /// sizes (1 M rows) were starting points; these make a baseline pass
    /// a third to a half of a second, so that a cell of 1 s holds two
    /// or three of them and a run of 5 repetitions fits the driver's cap.
    pub sizes: (Sizes, Sizes),
    /// Shuffle memory budget (`Manimal::with_shuffle_buffer`), full and
    /// `--check`: part of the workload's definition, not a knob under test.
    pub shuffle_buffer: Option<(usize, usize)>,
    /// Write the inputs into `dir` from `seed`.
    pub generate: fn(&Sizes, &Path, u64) -> Result<()>,
    /// The map jobs of one cell, over `main.seq`.
    pub jobs: fn() -> Vec<MapJob>,
    /// Whether the optimized plan reads an index the administrator
    /// builds (`index_build_s`, `index_bytes_ratio`); the join reads none.
    pub indexed: bool,
    /// Which job's submission the administrator builds indexes for
    /// (its index must serve every job of the cell).
    pub index_job: usize,
    /// Whether the optimized jobs run again on the process backend
    /// (`process_backend_s`).
    pub process_backend: bool,
    /// Set for the join workload: the cell is one `execute_join`.
    pub join: Option<fn(&Sizes, u64) -> JoinSpec>,
    /// A violated claim about one finished job, if any. The flag says
    /// whether the job ran on the in-process backend (the process
    /// backend hands map output over as run files, so it always spills).
    pub claim: fn(Plan, &Execution, bool) -> Option<String>,
    /// The paper's figures for this workload: `(label, speedup, space overhead)`.
    pub paper: (&'static str, f64, f64),
}

fn main_input(dir: &Path) -> PathBuf {
    dir.join("main.seq")
}

fn build_input(dir: &Path) -> PathBuf {
    dir.join("build.seq")
}

/// Rank thresholds of the B1 sweep: `pageRank` is uniform in
/// 0..10 000, so these keep 0.1 %, 5 % and 30 % of Rankings.
pub const SWEEP_THRESHOLDS: [i64; 3] = [9989, 9499, 6999];

fn uservisits(sizes: &Sizes, seed: u64, source_ips: usize) -> UserVisitsConfig {
    UserVisitsConfig {
        visits: sizes.rows,
        pages: (sizes.rows / 10).max(100),
        source_ips,
        seed,
        ..UserVisitsConfig::default()
    }
}

/// The join's probe side: visits over the build side's pages.
fn join_visits(sizes: &Sizes, seed: u64) -> UserVisitsConfig {
    UserVisitsConfig {
        pages: sizes.build_rows,
        ..uservisits(sizes, seed.wrapping_add(1), 0)
    }
}

fn b2_jobs() -> Vec<MapJob> {
    vec![MapJob {
        program: pavlo::benchmark2(),
        reducer: Builtin::Sum,
    }]
}

fn applied_has(exec: &Execution, what: &str) -> bool {
    exec.applied.iter().any(|a| a.contains(what))
}

fn claim_plan(plan: Plan, exec: &Execution, optimization: &str) -> Option<String> {
    match plan {
        Plan::Baseline if !exec.applied.is_empty() => {
            Some(format!("baseline applied {:?}", exec.applied))
        }
        Plan::Optimized if !applied_has(exec, optimization) => Some(format!(
            "optimized plan applied {:?}, expected {optimization}",
            exec.applied
        )),
        _ => None,
    }
}

/// The batch workloads.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "select-sweep",
            sizes: (
                Sizes {
                    rows: 304_000,
                    build_rows: 0,
                },
                Sizes {
                    rows: 6_000,
                    build_rows: 0,
                },
            ),
            shuffle_buffer: None,
            generate: |sizes, dir, seed| {
                generate_rankings(main_input(dir), sizes.rows, true, seed)?;
                Ok(())
            },
            jobs: || {
                SWEEP_THRESHOLDS
                    .iter()
                    .map(|&t| MapJob {
                        program: pavlo::benchmark1(t),
                        reducer: Builtin::First,
                    })
                    .collect()
            },
            // The 30 % program's index is a view that covers the
            // other two selectivities' ranges.
            indexed: true,
            index_job: 2,
            process_backend: false,
            join: None,
            claim: |plan, exec, _| claim_plan(plan, exec, "selection"),
            paper: ("Table 2 B1 (and Table 3's 1.59-7.10x sweep)", 11.21, 0.001),
        },
        Spec {
            name: "agg-project",
            sizes: (
                Sizes {
                    rows: 500_000,
                    build_rows: 0,
                },
                Sizes {
                    rows: 6_000,
                    build_rows: 0,
                },
            ),
            shuffle_buffer: None,
            generate: |sizes, dir, seed| {
                let ips = if sizes.rows >= 100_000 { 10_000 } else { 500 };
                generate_uservisits(main_input(dir), &uservisits(sizes, seed, ips))?;
                Ok(())
            },
            jobs: b2_jobs,
            indexed: true,
            index_job: 0,
            process_backend: false,
            join: None,
            claim: |plan, exec, local| {
                claim_plan(plan, exec, "projection").or_else(|| {
                    (local && exec.result.counters.spill_count != 0).then(|| {
                        format!(
                            "{} spills in a resident shuffle",
                            exec.result.counters.spill_count
                        )
                    })
                })
            },
            paper: ("Table 2 B2", 2.96, 0.20),
        },
        Spec {
            name: "agg-spill",
            sizes: (
                Sizes {
                    rows: 400_000,
                    build_rows: 0,
                },
                Sizes {
                    rows: 6_000,
                    build_rows: 0,
                },
            ),
            shuffle_buffer: Some((1 << 20, 48 << 10)),
            generate: |sizes, dir, seed| {
                generate_uservisits(main_input(dir), &uservisits(sizes, seed, 0))?;
                Ok(())
            },
            jobs: b2_jobs,
            indexed: true,
            index_job: 0,
            process_backend: true,
            join: None,
            claim: |plan, exec, _| {
                claim_plan(plan, exec, "projection").or_else(|| {
                    (exec.result.counters.spill_count == 0)
                        .then(|| "no spill under the shuffle budget".to_string())
                })
            },
            paper: ("Table 2 B2", 2.96, 0.20),
        },
        Spec {
            name: "join",
            sizes: (
                Sizes {
                    rows: 200_000,
                    build_rows: 70_000,
                },
                Sizes {
                    rows: 4_000,
                    build_rows: 1_000,
                },
            ),
            shuffle_buffer: None,
            generate: |sizes, dir, seed| {
                generate_rankings(build_input(dir), sizes.build_rows, false, seed)?;
                generate_uservisits(main_input(dir), &join_visits(sizes, seed))?;
                Ok(())
            },
            jobs: Vec::new,
            indexed: false,
            index_job: 0,
            process_backend: false,
            join: Some(|sizes, seed| {
                // Half the date range, like `table_join`: wide enough
                // that the join output is worth timing.
                let (lo, hi) = pavlo::benchmark3_date_window(&join_visits(sizes, seed), 0.5);
                JoinSpec {
                    build: pavlo::benchmark3_rankings_mapper(),
                    probe: pavlo::benchmark3_visits_mapper(lo, hi),
                }
            }),
            claim: |plan, exec, _| {
                let want = match plan {
                    Plan::Baseline => "join-plan:repartition",
                    Plan::Optimized => "join-plan:broadcast",
                };
                (!applied_has(exec, want))
                    .then(|| format!("join ran {:?}, expected {want}", exec.applied))
            },
            paper: ("Table 2 B3", 6.73, 0.117),
        },
    ]
}

/// Everything a cell needs that is not timed.
pub struct Prepared {
    /// One submission per map job (for the join: the probe-side
    /// submission the date index is built from).
    pub subs: Vec<Submission>,
    /// Reducer per map job.
    pub reducers: Vec<Builtin>,
    /// The join's mappers and the plan `choose_join_plan` picked.
    pub join: Option<(JoinSpec, JoinPlan)>,
    /// Input directory.
    pub dir: PathBuf,
}

impl Prepared {
    /// Jobs per cell.
    pub fn jobs(&self) -> usize {
        if self.join.is_some() {
            1
        } else {
            self.subs.len()
        }
    }
}

/// A fresh instance rooted at `workdir`, configured as the workload defines.
pub fn instance(spec: &Spec, check: bool, workdir: &Path) -> Result<Manimal> {
    let m = Manimal::new(workdir)?;
    Ok(match spec.shuffle_buffer {
        Some((full, small)) => m.with_shuffle_buffer(if check { small } else { full }),
        None => m,
    })
}

/// Submit the workload's programs to `m`.
pub fn prepare(spec: &Spec, sizes: &Sizes, seed: u64, m: &Manimal, dir: &Path) -> Result<Prepared> {
    let main = main_input(dir);
    match spec.join {
        None => {
            let jobs = (spec.jobs)();
            Ok(Prepared {
                subs: jobs.iter().map(|j| m.submit(&j.program, &main)).collect(),
                reducers: jobs.iter().map(|j| j.reducer).collect(),
                join: None,
                dir: dir.to_path_buf(),
            })
        }
        Some(make) => {
            let join = make(sizes, seed);
            let decision = choose_join_plan(&build_input(dir), DEFAULT_BROADCAST_BUDGET, None)?;
            Ok(Prepared {
                subs: vec![m.submit(&join.probe, &main)],
                reducers: vec![],
                join: Some((join, decision.plan)),
                dir: dir.to_path_buf(),
            })
        }
    }
}

/// Run job `job` of a cell under `plan`.
pub fn run_job(m: &Manimal, prep: &Prepared, plan: Plan, job: usize) -> manimal::Result<Execution> {
    match &prep.join {
        None => {
            let reducer = Arc::new(prep.reducers[job]);
            match plan {
                Plan::Baseline => m.execute_baseline(&prep.subs[job], reducer),
                Plan::Optimized => m.execute(&prep.subs[job], reducer),
            }
        }
        Some((join, chosen)) => m.execute_join(&JoinJob {
            name: "benchmark-join".into(),
            build: InputSpec::SeqFile {
                path: build_input(&prep.dir),
            },
            build_mapper: join.build.mapper.clone(),
            probe: InputSpec::SeqFile {
                path: main_input(&prep.dir),
            },
            probe_mapper: join.probe.mapper.clone(),
            plan: match plan {
                Plan::Baseline => JoinPlan::Repartition,
                Plan::Optimized => *chosen,
            },
        }),
    }
}

/// Counts and phase times of one pass over the workload's jobs.
#[derive(Default, Clone, Copy)]
struct PassCounts {
    counters: CounterSnapshot,
    phases: PhaseTimings,
    allocs: (u64, u64),
}

/// What a timed cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// `build_indexes` for the workload's submission, on a fresh instance.
    IndexBuild,
    /// The workload's jobs under a plan, on the in-process backend.
    Jobs(Plan),
    /// The optimized jobs on the process backend.
    Process,
}

impl CellKind {
    /// The end-to-end metric the cell's samples feed.
    fn metric(self) -> &'static str {
        match self {
            CellKind::IndexBuild => "index_build_s",
            CellKind::Jobs(Plan::Baseline) => "baseline_s",
            CellKind::Jobs(Plan::Optimized) => "optimized_s",
            CellKind::Process => "process_backend_s",
        }
    }
}

/// One timed cell: passes back to back until it holds the run's
/// `cell_seconds` of timed work.
struct Cell {
    /// Timed seconds per pass: the cell's timed work over its passes.
    secs_per_pass: f64,
    /// Timed seconds in the cell.
    timed_secs: f64,
    /// Counts of the cell's first pass.
    counts: PassCounts,
}

/// State of one workload run.
struct Bench<'a> {
    spec: &'a Spec,
    sizes: Sizes,
    seed: u64,
    /// Input directory of the run.
    dir: PathBuf,
    /// Reference digests, one per job: the warm-up baseline's outputs.
    reference: Vec<Digest>,
    /// Index-build scratch directories used so far.
    scratch_dirs: usize,
}

impl Bench<'_> {
    /// One pass over the workload's jobs under `plan`: every job one
    /// façade call, timed alone; its output is digested and compared
    /// with the reference between the calls, outside the timing.
    /// Returns the summed time of the calls.
    fn pass(
        &mut self,
        ctx: &mut Ctx,
        m: &Manimal,
        prep: &Prepared,
        plan: Plan,
        label: &str,
        counts: &mut PassCounts,
    ) -> Result<f64> {
        let mut pass_secs = 0.0;
        for job in 0..prep.jobs() {
            let before = ctx.alloc_totals();
            let (outcome, secs) = ctx.tracer.span_with(label, "core", |_| {
                let (outcome, secs) = timed(|| run_job(m, prep, plan, job));
                let counts = match &outcome {
                    Ok(e) => vec![
                        ("map_input_records", e.result.counters.map_input_records),
                        ("input_bytes", e.result.counters.input_bytes),
                        ("shuffle_bytes", e.result.counters.shuffle_bytes),
                        ("spill_count", e.result.counters.spill_count),
                        (
                            "reduce_output_records",
                            e.result.counters.reduce_output_records,
                        ),
                    ],
                    Err(_) => vec![],
                };
                ((outcome, secs), counts)
            });
            let after = ctx.alloc_totals();
            let exec = match outcome {
                Ok(exec) => exec,
                Err(e) => {
                    ctx.op(false, || format!("{label} job {job}: {e}"));
                    return Err(format!("{label} job {job} failed").into());
                }
            };
            pass_secs += secs;
            add_counters(&mut counts.counters, &exec.result.counters);
            counts.phases.map += exec.result.phases.map;
            counts.phases.shuffle += exec.result.phases.shuffle;
            counts.phases.reduce += exec.result.phases.reduce;
            counts.allocs.0 += after.0 - before.0;
            counts.allocs.1 += after.1 - before.1;
            if let Some(violated) = (self.spec.claim)(plan, &exec, m.backend == BackendSpec::Local)
            {
                ctx.problem(format!("{label} job {job}: {violated}"));
            }
            let digest = digest_pairs(&exec.result.output)?;
            if self.reference.len() <= job {
                // The warm-up baseline pass defines the reference.
                assert_eq!(plan, Plan::Baseline, "reference comes from the baseline");
                ctx.op(digest.pairs > 0, || {
                    format!("{label} job {job}: empty output")
                });
                self.reference.push(digest);
            } else {
                ctx.op(digest == self.reference[job], || {
                    format!(
                        "{label} job {job}: output {digest:?} differs from the baseline's {:?}",
                        self.reference[job]
                    )
                });
            }
        }
        Ok(pass_secs)
    }

    /// One index build on a fresh instance (the directory is made
    /// before and removed after the timed call); returns the build's time.
    fn index_build(&mut self, ctx: &mut Ctx) -> Result<f64> {
        let scratch = self.dir.join(format!("build-{}", self.scratch_dirs));
        self.scratch_dirs += 1;
        let m = instance(self.spec, ctx.opts.check, &scratch)?;
        let prep = prepare(self.spec, &self.sizes, self.seed, &m, &self.dir)?;
        let built = build_indexes_by_program(ctx, &m, &prep.subs[self.spec.index_job]);
        ctx.op(built.is_ok(), || {
            format!("index build: {:?}", built.as_ref().err())
        });
        drop(m);
        std::fs::remove_dir_all(&scratch)?;
        Ok(built?.iter().map(|(_, secs)| secs).sum())
    }

    /// One timed cell of `kind`: passes until the cell holds the run's
    /// `cell_seconds` of timed work (one pass in the traced run).
    fn cell(
        &mut self,
        ctx: &mut Ctx,
        kind: CellKind,
        local: (&Manimal, &Prepared),
        process: Option<&(Manimal, Prepared)>,
    ) -> Result<Cell> {
        let target = ctx.opts.cell_seconds();
        let mut cell = Cell {
            secs_per_pass: 0.0,
            timed_secs: 0.0,
            counts: PassCounts::default(),
        };
        let mut passes = 0usize;
        loop {
            let mut counts = PassCounts::default();
            cell.timed_secs += match kind {
                CellKind::IndexBuild => self.index_build(ctx)?,
                CellKind::Jobs(plan) => {
                    let label = match (plan, local.1.join.is_some()) {
                        (Plan::Baseline, true) => "Manimal::execute_join(repartition)",
                        (Plan::Optimized, true) => "Manimal::execute_join(chosen)",
                        (Plan::Baseline, false) => "Manimal::execute_baseline",
                        (Plan::Optimized, false) => "Manimal::execute",
                    };
                    self.pass(ctx, local.0, local.1, plan, label, &mut counts)?
                }
                CellKind::Process => {
                    let (mp, prep_p) = process.expect("a process-backend twin");
                    let label = "Manimal::execute(process backend)";
                    self.pass(ctx, mp, prep_p, Plan::Optimized, label, &mut counts)?
                }
            };
            if passes == 0 {
                cell.counts = counts;
            }
            passes += 1;
            if cell.timed_secs >= target {
                break;
            }
        }
        cell.secs_per_pass = cell.timed_secs / passes as f64;
        Ok(cell)
    }
}

fn add_counters(acc: &mut CounterSnapshot, c: &CounterSnapshot) {
    acc.map_input_records += c.map_input_records;
    acc.map_invocations += c.map_invocations;
    acc.map_output_records += c.map_output_records;
    acc.input_bytes += c.input_bytes;
    acc.shuffle_bytes += c.shuffle_bytes;
    acc.spill_count += c.spill_count;
    acc.spilled_records += c.spilled_records;
    acc.spill_bytes_raw += c.spill_bytes_raw;
    acc.spill_bytes_written += c.spill_bytes_written;
    acc.combine_in += c.combine_in;
    acc.combine_out += c.combine_out;
    acc.reduce_input_groups += c.reduce_input_groups;
    acc.reduce_output_records += c.reduce_output_records;
    acc.task_retries += c.task_retries;
}

/// Build the recommended indexes of the workload's index submission on
/// `m`, one program at a time; returns the entries with each build's time.
fn build_indexes_by_program(
    ctx: &mut Ctx,
    m: &Manimal,
    sub: &Submission,
) -> Result<Vec<(CatalogEntry, f64)>> {
    let mut built = Vec::new();
    for prog in &sub.index_programs {
        let (entry, secs) = ctx.tracer.span("Manimal::build_index", "core", |_| {
            timed(|| m.build_index(prog))
        });
        built.push((entry?, secs));
    }
    Ok(built)
}

fn kind_name(kind: &IndexKind) -> &'static str {
    match kind {
        IndexKind::Selection { .. } => "selection",
        IndexKind::Projection { .. } => "projection",
        IndexKind::Delta { .. } => "delta",
        IndexKind::Dict { .. } => "dict",
    }
}

/// Run one batch workload and fill `ctx` with its metrics.
pub fn run(spec: &Spec, ctx: &mut Ctx) -> Result<()> {
    let check = ctx.opts.check;
    let sizes = if check { spec.sizes.1 } else { spec.sizes.0 };
    let seed = ctx.opts.seed;
    let traced = ctx.opts.traced;
    let root = ctx.data_dir();
    ctx.note(format!(
        "inputs: {} rows{}; engine defaults ({} map threads, 4 reducers); files are written \
         then read through the OS page cache, so times are this sandbox's CPU cost, not a disk's",
        sizes.rows,
        if sizes.build_rows > 0 {
            format!(" probe side, {} rows build side", sizes.build_rows)
        } else {
            String::new()
        },
        mr_engine::job::available_parallelism(),
    ));

    // ---- set-up: input generation + Manimal::new, several times ------
    let mut setup = Vec::new();
    let mut kept = None;
    let setups = ctx.opts.setups();
    ctx.tracer.span("setup", "harness", |_| -> Result<()> {
        for i in 0..setups {
            if let Some((stale, _)) = kept.take() {
                std::fs::remove_dir_all(stale)?;
            }
            let dir = root.join(format!("setup-{i}"));
            std::fs::create_dir_all(&dir)?;
            let (m, secs) = timed(|| -> Result<Manimal> {
                (spec.generate)(&sizes, &dir, seed)?;
                instance(spec, check, &dir.join("work"))
            });
            kept = Some((dir, m?));
            setup.push(secs);
        }
        Ok(())
    })?;
    let (dir, m) = kept.expect("at least one set-up");
    ctx.set_end_to_end("setup_s", median(&setup));
    ctx.note(format!("setup_s: {}", summarize(&setup)));
    let mut inputs = vec![main_input(&dir)];
    if spec.join.is_some() {
        inputs.push(build_input(&dir));
    }
    ctx.note(format!("input digest: {:016x}", input_digest(&inputs)?));

    let prep = prepare(spec, &sizes, seed, &m, &dir)?;
    if let Some((_, chosen)) = &prep.join {
        ctx.note(format!("choose_join_plan picked: {}", chosen.name()));
    }

    // ---- the administrator's index build on the main instance --------
    let mut index_bytes_ratio = None;
    if spec.indexed {
        let index_sub = &prep.subs[spec.index_job];
        ctx.op(!index_sub.index_programs.is_empty(), || {
            "the analyzer recommended no index for this workload".to_string()
        });
        let built = build_indexes_by_program(ctx, &m, index_sub);
        ctx.op(built.is_ok(), || {
            format!("index build: {:?}", built.as_ref().err())
        });
        let built = built?;
        let input_bytes = built.first().map_or(0, |(e, _)| e.input_bytes);
        let index_bytes: u64 = built.iter().map(|(e, _)| e.index_bytes).sum();
        let ratio = index_bytes as f64 / input_bytes.max(1) as f64;
        index_bytes_ratio = Some(ratio);
        ctx.set_end_to_end("index_bytes_ratio", ratio);
        for (entry, secs) in &built {
            let kind = kind_name(&entry.kind);
            ctx.note(format!(
                "index built: {} ({} bytes, {secs:.3} s)",
                entry.kind, entry.index_bytes
            ));
            if traced {
                ctx.set(format!("core.indexgen.{kind}.build_s"), *secs);
                ctx.set(
                    format!("core.indexgen.{kind}.bytes"),
                    entry.index_bytes as f64,
                );
            }
        }
    }

    // The process-backend twin shares the work directory, so it opens
    // the catalog the build above just wrote.
    let process = match spec.process_backend {
        true => {
            let mut mp = instance(spec, check, &dir.join("work"))?;
            mp.backend = BackendSpec::Process(ProcessCfg {
                workers: 2,
                ..ProcessCfg::default()
            });
            let prep_p = prepare(spec, &sizes, seed, &mp, &dir)?;
            Some((mp, prep_p))
        }
        false => None,
    };

    let mut bench = Bench {
        spec,
        sizes,
        seed,
        dir: dir.clone(),
        reference: Vec::new(),
        scratch_dirs: 0,
    };
    let mut kinds = vec![
        CellKind::Jobs(Plan::Baseline),
        CellKind::Jobs(Plan::Optimized),
    ];
    if spec.indexed {
        kinds.push(CellKind::IndexBuild);
    }
    if process.is_some() {
        kinds.push(CellKind::Process);
    }

    // ---- warm-up: one pass of each cell, untimed; the baseline's
    // outputs become the reference ------------------------------------
    ctx.set_tracing(false);
    for &kind in &kinds {
        let mut counts = PassCounts::default();
        match kind {
            CellKind::IndexBuild => {
                bench.index_build(ctx)?;
            }
            CellKind::Jobs(plan) => {
                bench.pass(ctx, &m, &prep, plan, "warm-up", &mut counts)?;
            }
            CellKind::Process => {
                let (mp, prep_p) = process.as_ref().expect("a process-backend twin");
                bench.pass(ctx, mp, prep_p, Plan::Optimized, "warm-up", &mut counts)?;
            }
        }
    }

    // ---- timed repetitions -------------------------------------------
    // A repetition runs every cell of the workload once: forwards on
    // even repetitions, backwards on odd ones, so baseline and
    // optimized interleave A B B A and no cell always follows the same
    // neighbour. The traced run alternates repetitions with tracing on
    // and off, so the same protocol prices the tracing.
    // 7 at most: the issue's "1 warm-up + 7 timed repetitions".
    let mut reps = Reps::new(ctx, 7);
    let mut samples: Vec<(CellKind, Vec<f64>)> = kinds.iter().map(|&k| (k, Vec::new())).collect();
    let mut shortest_cell = f64::INFINITY;
    let mut counts: [Option<PassCounts>; 2] = [None, None];
    // Timed seconds of each repetition's cells, tracing on and off.
    let (mut traced_reps, mut untraced_reps) = (vec![], vec![]);
    loop {
        let tracing_on = reps.begin(ctx);
        let mut order = kinds.clone();
        if reps.done() % 2 == 1 {
            order.reverse();
        }
        let mut rep_secs = 0.0;
        for kind in order {
            let cell = bench.cell(ctx, kind, (&m, &prep), process.as_ref())?;
            rep_secs += cell.secs_per_pass;
            shortest_cell = shortest_cell.min(cell.timed_secs);
            let slot = samples.iter_mut().find(|(k, _)| *k == kind);
            slot.expect("a sample list per kind")
                .1
                .push(cell.secs_per_pass);
            if let (true, CellKind::Jobs(plan)) = (tracing_on, kind) {
                counts[plan as usize].get_or_insert(cell.counts);
            }
        }
        if tracing_on {
            traced_reps.push(rep_secs);
        } else {
            untraced_reps.push(rep_secs);
        }
        if !reps.another() {
            break;
        }
    }
    ctx.set_tracing(traced);

    // Ratios between cells (speed-up, process overhead) come from the
    // repetitions timed with tracing off: all of them in an end-to-end
    // run, the even ones in a traced run.
    let sample_median = |kind: CellKind| {
        let found = samples.iter().find(|(k, _)| *k == kind);
        found.map(|(_, s)| {
            let untraced: Vec<f64> = s
                .iter()
                .copied()
                .step_by(if traced { 2 } else { 1 })
                .collect();
            median(&untraced)
        })
    };
    for (kind, cells) in &samples {
        ctx.note(format!("{}: {}", kind.metric(), summarize(cells)));
        ctx.set_end_to_end(kind.metric(), median(cells));
    }
    ctx.note(format!(
        "{} repetitions; a cell is passes over the workload's job(s) back to back until it \
         holds {} s of timed calls, reported per pass; the shortest cell held {shortest_cell:.3} s",
        reps.done(),
        ctx.opts.cell_seconds(),
    ));
    if !check && !traced && shortest_cell < 1.0 {
        ctx.problem(format!("a timed cell held only {shortest_cell:.3} s"));
    }
    let base = sample_median(CellKind::Jobs(Plan::Baseline)).expect("baseline cells");
    let opt = sample_median(CellKind::Jobs(Plan::Optimized)).expect("optimized cells");
    let speedup = base / opt;
    let (label, paper_speedup, paper_overhead) = spec.paper;
    ctx.note(format!(
        "speedup baseline/optimized: {speedup:.2}x (paper {label}: {paper_speedup}x); \
         index bytes / input bytes: {} (paper: {paper_overhead})",
        index_bytes_ratio.map_or("no index".to_string(), |r| format!("{r:.4}")),
    ));

    if traced {
        ctx.set("core.optimizer.speedup", speedup);
        for (plan, pass) in [Plan::Baseline, Plan::Optimized].into_iter().zip(counts) {
            if let Some(c) = pass {
                report_counts(ctx, plan.suffix(), &c);
            }
        }
        if let [Some(b), Some(o)] = counts {
            ctx.set(
                "mr-storage.input.bytes_ratio",
                o.counters.input_bytes as f64 / b.counters.input_bytes.max(1) as f64,
            );
        }
        if let Some(process) = sample_median(CellKind::Process) {
            ctx.set("mr-engine.backend.process_overhead", process / opt);
        }
        if !traced_reps.is_empty() && !untraced_reps.is_empty() {
            let (on, off) = (median(&traced_reps), median(&untraced_reps));
            ctx.set("trace.overhead_share", (on - off) / off);
        }
        plan_ablation(ctx, &m, &prep)?;
        probes::run_all(ctx, &m, &prep)?;
    }

    drop((m, process));
    std::fs::remove_dir_all(&root)?;
    Ok(())
}

fn report_counts(ctx: &mut Ctx, suffix: &str, c: &PassCounts) {
    let k = &c.counters;
    let records = k.map_input_records.max(1) as f64;
    let spill_ratio = if k.spill_bytes_raw == 0 {
        0.0
    } else {
        k.spill_bytes_written as f64 / k.spill_bytes_raw as f64
    };
    for (name, value) in [
        ("mr-engine.map.records_in", k.map_input_records as f64),
        ("mr-engine.map.invocations", k.map_invocations as f64),
        ("mr-engine.map.records_out", k.map_output_records as f64),
        ("mr-engine.input.bytes", k.input_bytes as f64),
        ("mr-engine.shuffle.bytes", k.shuffle_bytes as f64),
        ("mr-engine.spill.count", k.spill_count as f64),
        ("mr-engine.spill.records", k.spilled_records as f64),
        ("mr-engine.spill.bytes_raw", k.spill_bytes_raw as f64),
        (
            "mr-engine.spill.bytes_written",
            k.spill_bytes_written as f64,
        ),
        ("mr-engine.spill.ratio", spill_ratio),
        ("mr-engine.combine.in", k.combine_in as f64),
        ("mr-engine.combine.out", k.combine_out as f64),
        ("mr-engine.reduce.groups", k.reduce_input_groups as f64),
        (
            "mr-engine.reduce.records_out",
            k.reduce_output_records as f64,
        ),
        ("mr-engine.task.retries", k.task_retries as f64),
        ("mr-engine.phase.map_s", c.phases.map.as_secs_f64()),
        ("mr-engine.phase.shuffle_s", c.phases.shuffle.as_secs_f64()),
        ("mr-engine.phase.reduce_s", c.phases.reduce.as_secs_f64()),
        ("mr-engine.alloc.per_record", c.allocs.0 as f64 / records),
        (
            "mr-engine.alloc.bytes_per_record",
            c.allocs.1 as f64 / records,
        ),
    ] {
        ctx.set(format!("{name}.{suffix}"), value);
    }
}

/// The metric name of a plan: the optimization names before their
/// arguments, joined — `selection`, `projection-delta-compression`,
/// `full-scan`.
fn plan_name(applied: &[String]) -> String {
    if applied.is_empty() {
        return "full-scan".into();
    }
    let names: Vec<&str> = applied
        .iter()
        .map(|a| a.split('(').next().unwrap_or(a))
        .collect();
    slug(&names.join("-"))
}

/// The per-optimization ablation: every descriptor `Manimal::plans`
/// enumerates for the workload's middle job, run three times each, as
/// a speed-up over that job's baseline (median of three each).
fn plan_ablation(ctx: &mut Ctx, m: &Manimal, prep: &Prepared) -> Result<()> {
    if prep.join.is_some() {
        return Ok(());
    }
    let job = prep.subs.len() / 2;
    let sub = &prep.subs[job];
    // The baseline of this one job: time it the same way.
    let mut base = Vec::new();
    for _ in 0..3 {
        let (r, secs) = ctx.tracer.span("Manimal::execute_baseline", "core", |_| {
            timed(|| m.execute_baseline(sub, Arc::new(prep.reducers[job])))
        });
        r?;
        base.push(secs);
    }
    let base = median(&base);
    let n = m.plans(sub)?.len();
    for i in 0..n {
        let mut samples = Vec::new();
        let mut name = String::new();
        for _ in 0..3 {
            let descriptor = m.plans(sub)?.swap_remove(i);
            name = plan_name(&descriptor.applied);
            let (r, secs) = ctx.tracer.span("Manimal::execute_plan", "core", |_| {
                timed(|| m.execute_plan(sub, descriptor, Arc::new(prep.reducers[job])))
            });
            r?;
            samples.push(secs);
        }
        let speedup = base / median(&samples);
        let metric = format!("core.plan.{name}.speedup");
        if crate::metrics::per_layer()
            .iter()
            .any(|(n, _, _)| *n == metric)
        {
            ctx.set(metric, speedup);
        }
        let paper = if name == "direct-operation" {
            " (paper Table 6: 2.34x)"
        } else {
            ""
        };
        ctx.note(format!(
            "plan {name}: {speedup:.2}x over the baseline of job {job}{paper}"
        ));
    }
    Ok(())
}
