//! The end-to-end Manimal pipeline (paper §2.2 walkthrough).
//!
//! A user submits a compiled program plus an input file. Manimal
//! analyzes it (Step 1), hands back the recommended index-generation
//! programs (whose execution "is left to the system administrator, much
//! like the decision to create an index in an RDBMS"), and — at
//! execution time — has the optimizer pick the best plan the catalog
//! currently supports (Step 2) and runs it on the fabric (Step 3).
//!
//! "The submitted program does not need to be modified by the programmer
//! in any way, and the final program output should be the same as what
//! would have been generated by a conventional MapReduce system."

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_analysis::{analyze, AnalysisReport};
use mr_engine::{
    run_job, BackendSpec, BroadcastSpec, BufferPool, Builtin, FaultPlan, InputBinding, InputSpec,
    IrMapperFactory, JobConfig, JobResult, JoinSide, OutputSpec, ReducerFactory,
    ShuffleCompression,
};
use mr_ir::function::Program;

use crate::catalog::{Catalog, CatalogEntry};
use crate::error::{ManimalError, Result};
use crate::indexgen::{plan_index_programs, IndexGenProgram};
use crate::optimizer::{
    choose_join_plan, choose_plan, enumerate_plans, ExecutionDescriptor, JoinPlan, OptimizerConfig,
};

/// A running Manimal instance: a catalog plus a working directory for
/// index artifacts.
pub struct Manimal {
    workdir: PathBuf,
    catalog: Catalog,
    /// Optimizer configuration.
    pub optimizer: OptimizerConfig,
    /// Shuffle memory budget handed to every job this instance runs —
    /// executed plans and index builds alike
    /// ([`mr_engine::JobConfig::shuffle_buffer_bytes`]): `None` keeps
    /// the whole shuffle resident, a budget makes the fabric spill
    /// sorted runs and k-way merge them at reduce time. Output is
    /// identical either way, so plan-equivalence checks are unaffected.
    pub shuffle_buffer_bytes: Option<usize>,
    /// Block codec for spill-run I/O in every job this instance runs —
    /// executed plans and index builds alike
    /// ([`mr_engine::JobConfig::shuffle_compression`]). Output is
    /// byte-identical under every variant; the codec only changes how
    /// many bytes the spill detour writes. `manimal run
    /// --shuffle-codec` sets it from the CLI.
    pub shuffle_compression: ShuffleCompression,
    /// Task attempts allowed per map/reduce task in executed plans
    /// ([`mr_engine::JobConfig::max_task_attempts`]): `1` fails fast
    /// (the seed behaviour); more makes failed tasks transparently
    /// re-execute with identical output. `manimal run
    /// --max-task-attempts` sets it from the CLI.
    pub max_task_attempts: usize,
    /// Deterministic failure schedule injected into executed plans for
    /// fault drills and tests (`manimal run --fault-spec`). Index-build
    /// jobs are never fault-injected — a failed build must not leave a
    /// registered artifact behind.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// One buffer pool shared by every job this instance runs
    /// ([`mr_engine::JobConfig::buffer_pool`]), so staging buffers and
    /// run-writer scratch stay warm across a plan-comparison sequence.
    buffer_pool: Arc<BufferPool>,
    /// Execution backend for plans this instance runs
    /// ([`mr_engine::JobConfig::backend`]): the in-process reference
    /// runner by default, or forked worker processes driven over the
    /// task protocol (`manimal run --backend` sets it from the CLI).
    /// Index-build jobs always run on the local backend — their key
    /// mappers are native closures, which cannot travel across a
    /// process boundary.
    pub backend: BackendSpec,
}

/// What `submit` returns: the analysis plus the index programs the
/// administrator may choose to run.
pub struct Submission {
    /// The submitted program.
    pub program: Program,
    /// The input file.
    pub input: PathBuf,
    /// Analyzer output (Step 1).
    pub report: AnalysisReport,
    /// Recommended index-generation programs.
    pub index_programs: Vec<IndexGenProgram>,
}

/// The result of executing a submission.
pub struct Execution {
    /// The plan that actually ran.
    pub descriptor_summary: String,
    /// Applied optimizations (empty for the baseline full scan).
    pub applied: Vec<String>,
    /// The map-side combiner that engaged (its name), when the plan
    /// allowed combining and the reducer declared one.
    pub combiner: Option<&'static str>,
    /// The fabric's job result.
    pub result: JobResult,
}

impl Manimal {
    /// Create a Manimal instance rooted at `workdir` (created if
    /// missing); the catalog lives at `workdir/catalog.json`.
    pub fn new(workdir: impl Into<PathBuf>) -> Result<Manimal> {
        let workdir = workdir.into();
        std::fs::create_dir_all(&workdir)?;
        let catalog = Catalog::open(workdir.join("catalog.json"))?;
        Ok(Manimal {
            workdir,
            catalog,
            optimizer: OptimizerConfig::default(),
            shuffle_buffer_bytes: None,
            shuffle_compression: ShuffleCompression::None,
            max_task_attempts: 1,
            fault_plan: None,
            buffer_pool: BufferPool::new(),
            backend: BackendSpec::default(),
        })
    }

    /// Bound the shuffle memory of every job this instance executes.
    pub fn with_shuffle_buffer(mut self, bytes: usize) -> Manimal {
        self.shuffle_buffer_bytes = Some(bytes);
        self
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Step 1 — analyze a submitted program and produce the recommended
    /// index-generation programs.
    pub fn submit(&self, program: &Program, input: impl AsRef<Path>) -> Submission {
        let input = input.as_ref().to_path_buf();
        let report = analyze(program);
        let index_programs = plan_index_programs(&report, &input, &self.workdir);
        Submission {
            program: program.clone(),
            input,
            report,
            index_programs,
        }
    }

    /// The administrator's "yes": run every recommended index program
    /// and register the artifacts.
    pub fn build_indexes(&self, submission: &Submission) -> Result<Vec<CatalogEntry>> {
        let mut entries = Vec::new();
        for prog in &submission.index_programs {
            entries.push(self.build_index(prog)?);
        }
        Ok(entries)
    }

    /// Run a single index program and register its artifact — the
    /// administrator picking one recommendation out of several. The
    /// instance's shuffle budget and spill codec apply to the build job.
    pub fn build_index(&self, program: &IndexGenProgram) -> Result<CatalogEntry> {
        let entry = program.run(self.shuffle_buffer_bytes, self.shuffle_compression)?;
        self.catalog.register(entry.clone())?;
        Ok(entry)
    }

    /// Steps 2 + 3 — plan against the current catalog and execute.
    pub fn execute(
        &self,
        submission: &Submission,
        reducer: Arc<dyn ReducerFactory>,
    ) -> Result<Execution> {
        let descriptor = self.plan(submission)?;
        self.execute_plan(submission, descriptor, reducer)
    }

    /// Step 2 only — the execution descriptor the optimizer would pick
    /// right now.
    pub fn plan(&self, submission: &Submission) -> Result<ExecutionDescriptor> {
        choose_plan(
            &submission.program,
            &submission.report,
            &self.catalog,
            &submission.input,
            self.optimizer,
        )
    }

    /// Every candidate execution descriptor the optimizer can currently
    /// justify, best first, ending with the full scan — the enumeration
    /// the plan-equivalence harness runs differentially
    /// ([`crate::optimizer::enumerate_plans`]).
    pub fn plans(&self, submission: &Submission) -> Result<Vec<ExecutionDescriptor>> {
        enumerate_plans(
            &submission.program,
            &submission.report,
            &self.catalog,
            &submission.input,
            self.optimizer,
        )
    }

    /// Step 3 — run a specific descriptor.
    pub fn execute_plan(
        &self,
        submission: &Submission,
        descriptor: ExecutionDescriptor,
        reducer: Arc<dyn ReducerFactory>,
    ) -> Result<Execution> {
        let summary = descriptor.to_string();
        let applied = descriptor.applied.clone();
        // The optimizer's combiner decision: when the plan allows it,
        // engage whatever combiner the reducer declares for itself
        // (none for non-algebraic reducers — the pipeline stays plain).
        let combiner = if descriptor.combine {
            reducer.combiner()
        } else {
            None
        };
        let combiner_name = combiner.as_deref().map(mr_engine::Combiner::name);
        let job = JobConfig {
            name: submission.program.name.clone(),
            inputs: vec![InputBinding {
                input: descriptor.input,
                mapper: IrMapperFactory::new(descriptor.mapper),
                join: None,
            }],
            num_reducers: 4,
            reducer,
            output: OutputSpec::InMemory,
            map_parallelism: mr_engine::job::available_parallelism(),
            sort_output: true,
            shuffle_buffer_bytes: self.shuffle_buffer_bytes,
            shuffle_compression: self.shuffle_compression,
            spill_dir: None,
            combiner,
            max_task_attempts: self.max_task_attempts.max(1),
            fault_plan: self.fault_plan.clone(),
            buffer_pool: Some(Arc::clone(&self.buffer_pool)),
            backend: self.backend.clone(),
        };
        let result = run_job(&job)?;
        Ok(Execution {
            descriptor_summary: summary,
            applied,
            combiner: combiner_name,
            result,
        })
    }

    /// Run the unoptimized baseline ("standard Hadoop"): a full scan of
    /// the original file with the unmodified program and no map-side
    /// combining — the reference run every optimized plan (combiners
    /// included) must match byte for byte.
    pub fn execute_baseline(
        &self,
        submission: &Submission,
        reducer: Arc<dyn ReducerFactory>,
    ) -> Result<Execution> {
        let descriptor = ExecutionDescriptor {
            input: InputSpec::SeqFile {
                path: submission.input.clone(),
            },
            mapper: submission.program.mapper.clone(),
            applied: vec![],
            index: None,
            combine: false,
        };
        self.execute_plan(submission, descriptor, reducer)
    }

    /// Run a two-input equijoin under the given physical plan. Both
    /// plans emit `(join_key, [build_payload, probe_payload])` pairs
    /// and sort the final output, so their results are byte-identical —
    /// the plan only changes *where* the match happens:
    ///
    /// - [`JoinPlan::Repartition`]: both sides shuffle tagged-union
    ///   `[tag, payload]` values co-partitioned by key and the
    ///   [`Builtin::JoinTagged`] reducer emits the per-key cross
    ///   product. Join stages never combine — dispatch rejects a
    ///   configured combiner with a typed error.
    /// - [`JoinPlan::Broadcast`]: the whole build side is loaded once
    ///   per job (once per worker process) into a hash table, one split
    ///   per core, and every map task probes it with one lookup per
    ///   probe key, emitting joined pairs directly; the reduce phase is
    ///   a plain identity pass. The output sort that equalises the two
    ///   plans runs per key group in the reduce loop, then once over
    ///   the concatenated partitions — a stable sort whose first pass
    ///   only presorts contiguous segments, so it cannot move a byte.
    pub fn execute_join(&self, join: &JoinJob) -> Result<Execution> {
        let (inputs, reducer): (Vec<InputBinding>, Arc<dyn ReducerFactory>) = match join.plan {
            JoinPlan::Repartition => (
                vec![
                    InputBinding::ir_join(
                        join.build.clone(),
                        join.build_mapper.clone(),
                        JoinSide::Build,
                    ),
                    InputBinding::ir_join(
                        join.probe.clone(),
                        join.probe_mapper.clone(),
                        JoinSide::Probe,
                    ),
                ],
                Arc::new(Builtin::JoinTagged),
            ),
            JoinPlan::Broadcast => (
                vec![InputBinding::ir_join(
                    join.probe.clone(),
                    join.probe_mapper.clone(),
                    JoinSide::Broadcast(BroadcastSpec {
                        input: join.build.clone(),
                        mapper: Arc::new(join.build_mapper.clone()),
                    }),
                )],
                Arc::new(Builtin::Identity),
            ),
        };
        let job = JobConfig {
            name: join.name.clone(),
            inputs,
            num_reducers: 4,
            reducer,
            output: OutputSpec::InMemory,
            map_parallelism: mr_engine::job::available_parallelism(),
            sort_output: true,
            shuffle_buffer_bytes: self.shuffle_buffer_bytes,
            shuffle_compression: self.shuffle_compression,
            spill_dir: None,
            combiner: None,
            max_task_attempts: self.max_task_attempts.max(1),
            fault_plan: self.fault_plan.clone(),
            buffer_pool: Some(Arc::clone(&self.buffer_pool)),
            backend: self.backend.clone(),
        };
        let result = run_job(&job)?;
        Ok(Execution {
            descriptor_summary: format!("{} join", join.plan.name()),
            applied: vec![format!("join-plan:{}", join.plan.name())],
            combiner: None,
            result,
        })
    }

    /// Run a [`JobDag`]: topologically order the stages, execute each
    /// one, and feed every stage's committed output (or its
    /// catalog-registered index) to its consumers.
    ///
    /// - Map stages run through the normal submit → plan → execute
    ///   pipeline, so each stage gets its own optimizer plan against
    ///   the current catalog. With [`StageJob::Map::build_index`] the
    ///   stage first runs the analyzer's recommended index programs —
    ///   but an index already registered for the same input and kind
    ///   is *reused*, not rebuilt (the run report counts both).
    /// - Join stages pick their plan per stage via
    ///   [`choose_join_plan`] (unless forced) and can plan their probe
    ///   side against the catalog, which is how a downstream join
    ///   reuses an index built by an upstream stage.
    /// - Record-shaped stage outputs are committed (write-then-rename)
    ///   as sequence files under `<workdir>/dag/<dag>/`, keyed by a
    ///   fingerprint of the stage definition and its resolved inputs —
    ///   re-running an unchanged stage is a cache hit that skips the
    ///   job entirely.
    pub fn execute_dag(&self, dag: &JobDag) -> Result<DagRun> {
        let order = dag.topo_order()?;
        let stage_dir = self.workdir.join("dag").join(&dag.name);
        std::fs::create_dir_all(&stage_dir)?;
        let mut run = DagRun {
            stages: Vec::new(),
            index_builds: 0,
            index_builds_reused: 0,
        };
        // name → committed output path of finished stages.
        let mut outputs: HashMap<String, Option<PathBuf>> = HashMap::new();
        for idx in order {
            let stage = &dag.stages[idx];
            let sr = self.run_stage(dag, stage, &stage_dir, &outputs, &mut run)?;
            outputs.insert(stage.name.clone(), sr.output.clone());
            run.stages.push(sr);
        }
        Ok(run)
    }

    fn run_stage(
        &self,
        dag: &JobDag,
        stage: &DagStage,
        stage_dir: &Path,
        outputs: &HashMap<String, Option<PathBuf>>,
        run: &mut DagRun,
    ) -> Result<StageRun> {
        let resolve = |input: &DagInput| -> Result<PathBuf> {
            match input {
                DagInput::Path(p) => Ok(p.clone()),
                DagInput::Stage(name) => match outputs.get(name) {
                    Some(Some(path)) => Ok(path.clone()),
                    Some(None) => Err(ManimalError::Plan(format!(
                        "dag `{}`: stage `{}` consumes stage `{name}`, whose output is not \
                         record-shaped and was not committed",
                        dag.name, stage.name
                    ))),
                    None => Err(ManimalError::Plan(format!(
                        "dag `{}`: stage `{}` consumes unknown or unfinished stage `{name}`",
                        dag.name, stage.name
                    ))),
                },
            }
        };
        match &stage.job {
            StageJob::Map {
                input,
                program,
                reducer,
                build_index,
            } => {
                let path = resolve(input)?;
                let submission = self.submit(program, &path);
                if *build_index {
                    self.ensure_indexes(&submission.index_programs, run)?;
                }
                let fp = stage_fingerprint(&stage.name, &[&path], &[program], "map");
                let committed = stage_dir.join(format!("{}-{fp:016x}.seq", stage.name));
                if committed.exists() {
                    let rows = mr_storage::seqfile::SeqFileMeta::open(&committed)?.record_count;
                    return Ok(StageRun {
                        name: stage.name.clone(),
                        summary: "committed output reused".to_string(),
                        cached: true,
                        output: Some(committed),
                        rows,
                        result: None,
                    });
                }
                let descriptor = self.plan(&submission)?;
                let summary = descriptor.to_string();
                let exec = self.execute_plan(&submission, descriptor, Arc::clone(reducer))?;
                let rows = exec.result.output.len() as u64;
                let output = commit_stage_output(&committed, &exec.result.output)?;
                Ok(StageRun {
                    name: stage.name.clone(),
                    summary,
                    cached: false,
                    output,
                    rows,
                    result: Some(exec.result),
                })
            }
            StageJob::Join {
                build,
                build_mapper,
                probe,
                probe_mapper,
                plan,
                broadcast_budget,
                index_probe,
            } => {
                let build_path = resolve(build)?;
                let probe_path = resolve(probe)?;
                let decision = choose_join_plan(&build_path, *broadcast_budget, *plan)?;
                // Plan the probe side against the catalog: an index an
                // upstream stage registered for this input is picked
                // up here instead of scanning the raw file again.
                let (probe_input, probe_func, mut applied) = if *index_probe {
                    let submission = self.submit(probe_mapper, &probe_path);
                    self.ensure_indexes(&submission.index_programs, run)?;
                    let descriptor = self.plan(&submission)?;
                    (descriptor.input, descriptor.mapper, descriptor.applied)
                } else {
                    (
                        InputSpec::SeqFile {
                            path: probe_path.clone(),
                        },
                        probe_mapper.mapper.clone(),
                        vec![],
                    )
                };
                let join = JoinJob {
                    name: format!("{}/{}", dag.name, stage.name),
                    build: InputSpec::SeqFile { path: build_path },
                    build_mapper: build_mapper.mapper.clone(),
                    probe: probe_input,
                    probe_mapper: probe_func,
                    plan: decision.plan,
                };
                let exec = self.execute_join(&join)?;
                applied.insert(0, decision.to_string());
                let rows = exec.result.output.len() as u64;
                Ok(StageRun {
                    name: stage.name.clone(),
                    summary: applied.join("; "),
                    cached: false,
                    // Joined values are two-element lists, not records;
                    // they stay in memory rather than committing.
                    output: None,
                    rows,
                    result: Some(exec.result),
                })
            }
        }
    }

    /// Build each recommended index unless the catalog already has a
    /// live entry of the same kind for the same input — the dedup that
    /// makes a downstream stage *reuse* an upstream stage's index.
    fn ensure_indexes(&self, programs: &[IndexGenProgram], run: &mut DagRun) -> Result<()> {
        for prog in programs {
            let reusable = self
                .catalog
                .indexes_for(&prog.input)
                .iter()
                .any(|e| e.kind == prog.kind && e.index_path.exists());
            if reusable {
                run.index_builds_reused += 1;
            } else {
                self.build_index(prog)?;
                run.index_builds += 1;
            }
        }
        Ok(())
    }
}

/// A two-input equijoin for [`Manimal::execute_join`]: each side maps
/// its records to `(join_key, payload)` pairs, and the output is the
/// per-key cross product `(join_key, [build_payload, probe_payload])`.
pub struct JoinJob {
    /// Job name (reported in logs and counters).
    pub name: String,
    /// The build side — the smaller input under a broadcast plan.
    pub build: InputSpec,
    /// Mapper extracting `(join_key, payload)` from the build side.
    pub build_mapper: mr_ir::Function,
    /// The probe side.
    pub probe: InputSpec,
    /// Mapper extracting `(join_key, payload)` from the probe side.
    pub probe_mapper: mr_ir::Function,
    /// The physical plan to run ([`choose_join_plan`] picks one from
    /// the build side's size when the caller has no preference).
    pub plan: JoinPlan,
}

/// Where a DAG stage reads from.
#[derive(Debug, Clone)]
pub enum DagInput {
    /// A file on disk.
    Path(PathBuf),
    /// The committed output of the named upstream stage.
    Stage(String),
}

/// What one DAG stage runs.
pub enum StageJob {
    /// A single-input map/reduce job planned by the optimizer.
    Map {
        /// Stage input.
        input: DagInput,
        /// The submitted program.
        program: Program,
        /// Reduce function.
        reducer: Arc<dyn ReducerFactory>,
        /// Build (or reuse) the analyzer's recommended indexes before
        /// planning, registering them in the instance catalog.
        build_index: bool,
    },
    /// A two-input equijoin.
    Join {
        /// Build side (broadcast candidate).
        build: DagInput,
        /// `(join_key, payload)` mapper for the build side.
        build_mapper: Program,
        /// Probe side.
        probe: DagInput,
        /// `(join_key, payload)` mapper for the probe side.
        probe_mapper: Program,
        /// Force a plan, or `None` to let [`choose_join_plan`] decide
        /// from the build side's size.
        plan: Option<JoinPlan>,
        /// Broadcast size budget for the auto decision
        /// ([`crate::optimizer::DEFAULT_BROADCAST_BUDGET`] unless
        /// overridden).
        broadcast_budget: u64,
        /// Plan the probe side against the catalog, reusing (or
        /// building) its recommended indexes.
        index_probe: bool,
    },
}

/// One stage of a [`JobDag`].
pub struct DagStage {
    /// Unique stage name; downstream stages reference it via
    /// [`DagInput::Stage`].
    pub name: String,
    /// The work this stage runs.
    pub job: StageJob,
}

/// A named DAG of stages for [`Manimal::execute_dag`]. Declaration
/// order does not matter: stages run in topological order of their
/// [`DagInput::Stage`] references.
pub struct JobDag {
    /// DAG name; stage outputs commit under `<workdir>/dag/<name>/`.
    pub name: String,
    /// The stages.
    pub stages: Vec<DagStage>,
}

impl JobDag {
    /// Kahn's algorithm over stage references: the execution order, or
    /// a typed error for duplicate names, unknown references, and
    /// cycles.
    fn topo_order(&self) -> Result<Vec<usize>> {
        let mut by_name: HashMap<&str, usize> = HashMap::new();
        for (i, s) in self.stages.iter().enumerate() {
            if by_name.insert(s.name.as_str(), i).is_some() {
                return Err(ManimalError::Plan(format!(
                    "dag `{}`: duplicate stage name `{}`",
                    self.name, s.name
                )));
            }
        }
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            for input in s.job.inputs() {
                if let DagInput::Stage(name) = input {
                    let j = *by_name.get(name.as_str()).ok_or_else(|| {
                        ManimalError::Plan(format!(
                            "dag `{}`: stage `{}` references unknown stage `{name}`",
                            self.name, s.name
                        ))
                    })?;
                    deps[i].push(j);
                }
            }
        }
        let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.stages.len()];
        for (i, ds) in deps.iter().enumerate() {
            for &j in ds {
                consumers[j].push(i);
            }
        }
        let mut ready: VecDeque<usize> = (0..self.stages.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.stages.len());
        while let Some(i) = ready.pop_front() {
            order.push(i);
            for &c in &consumers[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push_back(c);
                }
            }
        }
        if order.len() != self.stages.len() {
            let stuck: Vec<&str> = (0..self.stages.len())
                .filter(|&i| indegree[i] > 0)
                .map(|i| self.stages[i].name.as_str())
                .collect();
            return Err(ManimalError::Plan(format!(
                "dag `{}`: cycle among stages [{}]",
                self.name,
                stuck.join(", ")
            )));
        }
        Ok(order)
    }
}

impl StageJob {
    fn inputs(&self) -> Vec<&DagInput> {
        match self {
            StageJob::Map { input, .. } => vec![input],
            StageJob::Join { build, probe, .. } => vec![build, probe],
        }
    }
}

/// What one stage of a [`DagRun`] did.
pub struct StageRun {
    /// Stage name.
    pub name: String,
    /// Human-readable plan summary (optimizer descriptor, join
    /// decision, or `cached`).
    pub summary: String,
    /// Whether the committed output already existed and the job was
    /// skipped.
    pub cached: bool,
    /// The committed output file, when the stage's output was
    /// record-shaped.
    pub output: Option<PathBuf>,
    /// Output rows.
    pub rows: u64,
    /// The fabric's job result (`None` on a cache hit).
    pub result: Option<JobResult>,
}

/// The result of [`Manimal::execute_dag`].
pub struct DagRun {
    /// Per-stage results, in execution order.
    pub stages: Vec<StageRun>,
    /// Indexes built (and registered) during this run.
    pub index_builds: u64,
    /// Index builds skipped because the catalog already held a live
    /// entry of the same kind for the same input.
    pub index_builds_reused: u64,
}

/// FNV-1a over the parts of a stage definition that determine its
/// output: the stage name, each resolved input path with its current
/// size, and the IR of every program involved. Inputs are not
/// content-hashed: a rewrite at another length changes the
/// fingerprint, the same rule by which [`Catalog::indexes_for`] stops
/// serving an artifact whose `input_bytes` no longer match its input.
/// A same-length rewrite is seen by neither, nor by the daemon's result
/// cache; both remain open (ROADMAP item 14).
fn stage_fingerprint(name: &str, inputs: &[&Path], programs: &[&Program], kind: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(kind.as_bytes());
    eat(name.as_bytes());
    for p in inputs {
        eat(p.to_string_lossy().as_bytes());
        let len = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        eat(&len.to_le_bytes());
    }
    for prog in programs {
        eat(mr_ir::printer::to_asm(&prog.mapper).as_bytes());
    }
    h
}

/// Commit `pairs` as a sequence file at `path` (write-then-rename)
/// when every value is record-shaped with one schema; returns `None`
/// (committing nothing) otherwise.
fn commit_stage_output(
    path: &Path,
    pairs: &[(mr_ir::Value, mr_ir::Value)],
) -> Result<Option<PathBuf>> {
    let mut records = Vec::with_capacity(pairs.len());
    let mut schema: Option<Arc<mr_ir::Schema>> = None;
    for (_, v) in pairs {
        let Some(r) = v.as_record() else {
            return Ok(None);
        };
        match &schema {
            None => schema = Some(Arc::clone(r.schema())),
            Some(s) if Arc::ptr_eq(s, r.schema()) || **s == **r.schema() => {}
            Some(_) => return Ok(None),
        }
        records.push(r.clone());
    }
    let Some(schema) = schema else {
        // An empty output has no schema to commit under.
        return Ok(None);
    };
    let tmp = path.with_extension("seq.tmp");
    mr_storage::seqfile::write_seqfile(&tmp, schema, records)?;
    std::fs::rename(&tmp, path)?;
    Ok(Some(path.to_path_buf()))
}
