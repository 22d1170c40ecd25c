//! Job configuration.

use std::path::PathBuf;
use std::sync::Arc;

use mr_ir::function::Function;
use mr_storage::blockcodec::ShuffleCompression;

use crate::combine::Combiner;
use crate::fault::FaultPlan;
use crate::input::InputSpec;
use crate::join::JoinSide;
use crate::mapper::{IrMapperFactory, MapperFactory};
use crate::pool::BufferPool;
use crate::reducer::{Builtin, ReducerFactory};

/// One input plus the mapper that processes it. A job may carry several
/// bindings — Hadoop's `MultipleInputs`, which the Pavlo join benchmark
/// needs (each joined table comes from a different source file with its
/// own mapper).
pub struct InputBinding {
    /// Where the records come from.
    pub input: InputSpec,
    /// The mapper applied to this input.
    pub mapper: Arc<dyn MapperFactory>,
    /// The binding's join role, when the job is a join stage
    /// ([`crate::join`]): `Build`/`Probe` shuffle the mapper's output
    /// as tagged unions for a repartition join, `Broadcast` probes a
    /// shared build table inline. `None` (the default) shuffles mapper
    /// output unchanged.
    pub join: Option<JoinSide>,
}

impl InputBinding {
    /// Bind a compiled IR map function to an input.
    pub fn ir(input: InputSpec, func: Function) -> InputBinding {
        InputBinding {
            input,
            mapper: IrMapperFactory::new(func),
            join: None,
        }
    }

    /// Bind a compiled IR map function to an input with a join role.
    pub fn ir_join(input: InputSpec, func: Function, join: JoinSide) -> InputBinding {
        InputBinding {
            input,
            mapper: IrMapperFactory::new(func),
            join: Some(join),
        }
    }
}

/// How many worker processes the process backend forks, and how they
/// are launched ([`BackendSpec::Process`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessCfg {
    /// Worker processes to fork. The coordinator respawns workers the
    /// fault plan kills, so this is the *concurrent* worker count, not
    /// a lifetime total.
    pub workers: usize,
    /// Command line that starts a worker (program + leading args); the
    /// coordinator appends the control-socket path and the worker id.
    /// `None` re-executes [`std::env::current_exe`] with the hidden
    /// `__mr-worker` argument — right for binaries that install the
    /// worker entrypoint (the `manimal` CLI, the bench bins); tests
    /// spawning a *different* binary set this explicitly.
    pub worker_cmd: Option<Vec<String>>,
    /// Launch speculative duplicate attempts for straggling tasks: when
    /// the task queue is empty and a worker sits idle, the
    /// longest-running in-flight task is duplicated onto it and the two
    /// attempts race — the first to finish commits by rename, the loser
    /// is discarded (its attempt dir cleans up by RAII). Byte-identical
    /// output either way.
    pub speculate: bool,
}

impl Default for ProcessCfg {
    fn default() -> ProcessCfg {
        ProcessCfg {
            workers: 2,
            worker_cmd: None,
            speculate: false,
        }
    }
}

/// Which execution backend runs the job (see [`crate::backend`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackendSpec {
    /// In-process scoped-thread runner — the reference implementation.
    #[default]
    Local,
    /// Coordinator + forked worker processes over a Unix-socket task
    /// protocol. Requires a wire-serializable job: IR mappers/reducers
    /// and builtin reducers travel; native `Fn` factories do not and
    /// are rejected with a config error.
    Process(ProcessCfg),
}

impl BackendSpec {
    /// Parse a CLI/env spec: `local`, `process`, or `process:N` for N
    /// workers.
    pub fn parse(spec: &str) -> Result<BackendSpec, String> {
        match spec {
            "local" => Ok(BackendSpec::Local),
            "process" => Ok(BackendSpec::Process(ProcessCfg::default())),
            _ => match spec.strip_prefix("process:") {
                Some(n) => {
                    let workers: usize = n
                        .parse()
                        .map_err(|_| format!("`{spec}`: worker count `{n}` is not a number"))?;
                    if workers == 0 {
                        return Err(format!("`{spec}`: worker count must be at least 1"));
                    }
                    Ok(BackendSpec::Process(ProcessCfg {
                        workers,
                        ..ProcessCfg::default()
                    }))
                }
                None => Err(format!("`{spec}`: expected local, process or process:N")),
            },
        }
    }

    /// The spec name (`local` or `process`/`process:N`), parseable by
    /// [`parse`](Self::parse) — worker_cmd/speculate are runtime
    /// wiring, not part of the spec.
    pub fn name(&self) -> String {
        match self {
            BackendSpec::Local => "local".into(),
            BackendSpec::Process(cfg) => format!("process:{}", cfg.workers),
        }
    }
}

/// Where reduce output goes.
#[derive(Debug, Clone)]
pub enum OutputSpec {
    /// Collect `(key, value)` pairs in memory (returned in
    /// [`JobResult::output`](crate::runner::JobResult)).
    InMemory,
    /// Write one `key\tvalue` text file per reduce partition:
    /// `part-00000`, `part-00001`, … in the given directory.
    TextDir(PathBuf),
}

/// A complete MapReduce job description.
pub struct JobConfig {
    /// Job name (diagnostics only).
    pub name: String,
    /// Inputs with their mappers.
    pub inputs: Vec<InputBinding>,
    /// Number of reduce partitions.
    pub num_reducers: usize,
    /// The reduce function.
    pub reducer: Arc<dyn ReducerFactory>,
    /// Output destination.
    pub output: OutputSpec,
    /// Map-side worker threads (also the input-split hint).
    pub map_parallelism: usize,
    /// Sort the final output by key, then value (stable across plans,
    /// for equivalence checks). The reduce loop sorts each key group's
    /// emitted pairs as it goes, on both backends, and the output
    /// assembly stably sorts the concatenated partitions (per part file
    /// for text output) — by then a merge of presorted runs. Presorting
    /// contiguous segments stably cannot change a stable sort's result,
    /// so the bytes are those of the one final sort.
    pub sort_output: bool,
    /// Shuffle memory budget in bytes. `None` (the default) keeps every
    /// emitted pair resident — the seed behaviour, fine for
    /// laptop-scale jobs. With a budget set, half is split evenly
    /// across the reducer buckets and half across the map workers'
    /// staging buffers; a bucket that outgrows its share sorts its
    /// buffer and spills it as a run file, and reduce k-way merges the
    /// runs with the resident tail. Accounting uses each pair's
    /// *serialized payload size* (the same estimate as the
    /// `shuffle_bytes` counter), not its heap footprint — actual
    /// resident memory runs a small constant factor above the budget
    /// (enum + allocator overhead per `Value`), so size the knob with
    /// headroom. Output is identical either way.
    pub shuffle_buffer_bytes: Option<usize>,
    /// Block codec for spill-run I/O
    /// ([`mr_storage::blockcodec::ShuffleCompression`]). The default
    /// [`ShuffleCompression::None`] streams raw pairs — the seed
    /// behaviour; `Auto` compresses each spilled run (and every
    /// compaction rewrite) below the record layer, cutting spill-disk
    /// traffic when the shuffle is redundant, and `Raw` frames without
    /// compressing (CRC detection only). Output is byte-identical
    /// under every variant, retries included: frames live inside run
    /// files, and run files commit/retry by whole-file rename. Only
    /// meaningful when [`shuffle_buffer_bytes`](Self::shuffle_buffer_bytes)
    /// makes spilling possible.
    pub shuffle_compression: ShuffleCompression,
    /// Parent directory for spill runs. Each job spills into a private
    /// subdirectory that is removed when the job finishes; `None` uses
    /// [`std::env::temp_dir`].
    pub spill_dir: Option<PathBuf>,
    /// Map-side combiner. `None` (the default) runs the plain
    /// emit→spill→merge pipeline; with a combiner, emitted pairs are
    /// folded as they are staged, at spill time, and in the merge
    /// grouping loop — output stays identical to the combiner-free run
    /// (see [`crate::combine`]). The builtin reducers declare safe
    /// combiners via [`Builtin::combiner`];
    /// [`with_declared_combiner`](Self::with_declared_combiner) engages
    /// whatever the job's reducer declares.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// How many times each map/reduce task may run before the job
    /// fails — Hadoop's `mapreduce.map.maxattempts`. `1` (the default)
    /// is the seed behaviour: the first task failure aborts the job.
    /// With more attempts a failed task is transparently re-executed
    /// from its input split: a task attempt's side effects (staged
    /// pairs, attempt-scoped spill runs) are only *committed* into
    /// shared shuffle state on success, so retries never duplicate or
    /// lose pairs and the output is byte-identical to a fault-free
    /// run. A task that fails `max_task_attempts` times surfaces
    /// [`EngineError::TaskFailed`](crate::error::EngineError::TaskFailed).
    ///
    /// Retry insurance has a cost on the reduce side: every attempt
    /// before the last streams the partition's resident tail by
    /// *cloning* pairs (the tail must survive for a potential retry);
    /// only the final allowed attempt — and therefore every attempt
    /// when this is 1 — takes the zero-copy move path. With a shuffle
    /// budget the tail is small and the cost negligible; for large
    /// fully-resident partitions, weigh retries against the extra
    /// allocation traffic.
    pub max_task_attempts: usize,
    /// A deterministic failure schedule for tests and fault drills
    /// ([`FaultPlan`]); `None` injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// The [`BufferPool`] staging buffers and run-writer scratch
    /// recycle through. `None` (the default) gives the job a private
    /// pool; pass a shared pool to keep buffers warm across a sequence
    /// of jobs (the tuned-vs-baseline bench pairs do). A
    /// [`BufferPool::disabled`] pool re-allocates on every loan — the
    /// A/B control the hot-path bench measures the allocation tax
    /// with.
    pub buffer_pool: Option<Arc<BufferPool>>,
    /// Which execution backend runs the job
    /// ([`BackendSpec::Local`] by default — the in-process reference;
    /// [`BackendSpec::Process`] shards tasks across forked worker
    /// processes). Output is byte-identical across backends.
    pub backend: BackendSpec,
}

impl JobConfig {
    /// A job with a single IR-mapped input and a builtin reducer —
    /// the common case.
    pub fn ir_job(
        name: impl Into<String>,
        input: InputSpec,
        mapper: Function,
        reducer: Builtin,
    ) -> JobConfig {
        JobConfig {
            name: name.into(),
            inputs: vec![InputBinding::ir(input, mapper)],
            num_reducers: 4,
            reducer: Arc::new(reducer),
            output: OutputSpec::InMemory,
            map_parallelism: available_parallelism(),
            sort_output: true,
            shuffle_buffer_bytes: None,
            shuffle_compression: ShuffleCompression::None,
            spill_dir: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            buffer_pool: None,
            backend: BackendSpec::Local,
        }
    }

    /// Override the reducer count.
    pub fn with_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n.max(1);
        self
    }

    /// Override map parallelism.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.map_parallelism = n.max(1);
        self
    }

    /// Send output to a text directory.
    pub fn with_text_output(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output = OutputSpec::TextDir(dir.into());
        self
    }

    /// Bound the shuffle's memory footprint: emitted pairs beyond
    /// `bytes` (accounted across all reducer buckets) spill to sorted
    /// run files and are merged back at reduce time.
    pub fn with_shuffle_buffer(mut self, bytes: usize) -> Self {
        self.shuffle_buffer_bytes = Some(bytes);
        self
    }

    /// Compress spill-run I/O with `codec`
    /// ([`JobConfig::shuffle_compression`]).
    pub fn with_shuffle_codec(mut self, codec: ShuffleCompression) -> Self {
        self.shuffle_compression = codec;
        self
    }

    /// Put spill runs under `dir` instead of the system temp dir.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Plug in an explicit map-side combiner.
    pub fn with_combiner(mut self, combiner: Arc<dyn Combiner>) -> Self {
        self.combiner = Some(combiner);
        self
    }

    /// Engage the combiner the job's reducer declares for itself, if
    /// any ([`ReducerFactory::combiner`]) — the way analysis-approved
    /// plans switch combining on without naming a combiner themselves.
    pub fn with_declared_combiner(mut self) -> Self {
        self.combiner = self.reducer.combiner();
        self
    }

    /// Allow each task up to `n` attempts before the job fails.
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        self.max_task_attempts = n.max(1);
        self
    }

    /// Inject the given failure schedule.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Recycle buffers through `pool` instead of a job-private one.
    pub fn with_buffer_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.buffer_pool = Some(pool);
        self
    }

    /// Run the job on the given execution backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }
}

/// Threads to use by default.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}
