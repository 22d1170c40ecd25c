//! # mr-engine — the execution fabric
//!
//! A deterministic, multi-threaded, single-process MapReduce runtime:
//! input splits → map worker pool → hash partition → per-partition sort
//! → reduce workers → output. "The execution fabric retains the standard
//! map-shuffle-reduce sequence and is almost identical to standard
//! MapReduce" (paper §2); the Manimal-specific parts are the pluggable
//! [`input`] formats (B+Tree ranges, projected, delta- and
//! dictionary-compressed files).
//!
//! Map functions are compiled MR-IR run through the interpreter (one
//! [`mapper::IrMapper`] per task, so member variables have the real Java
//! `Mapper`-object lifetime); reducers are native Rust shared by every
//! plan, baseline and optimized alike.
//!
//! The shuffle runs in one of two modes. By default every emitted pair
//! stays resident and each partition is sorted in memory. With
//! [`JobConfig::shuffle_buffer_bytes`](job::JobConfig::shuffle_buffer_bytes)
//! set, the shuffle is *external*: overfull buckets spill sorted runs
//! to disk ([`spill`]) and reduce streams a k-way merge over them
//! ([`merge`]) — same output, memory bounded by the budget. Spill-run
//! I/O can additionally be block-compressed
//! ([`JobConfig::shuffle_compression`](job::JobConfig::shuffle_compression),
//! re-exported [`ShuffleCompression`]) — same output again, with
//! spill-disk traffic cut whenever the shuffle is redundant.
//!
//! Orthogonally, [`JobConfig::combiner`](job::JobConfig::combiner)
//! plugs a map-side combiner into every stage of that pipeline
//! ([`combine`]): emitted pairs fold as they are staged, at spill
//! time, and in the merge grouping loop — same output again, with the
//! shuffle traffic of an algebraic aggregate collapsed near the key
//! cardinality.
//!
//! Tasks are retryable units
//! ([`JobConfig::max_task_attempts`](job::JobConfig::max_task_attempts)):
//! a failed map/reduce task is transparently re-executed with
//! idempotent side effects (attempt-scoped spill paths, commit on
//! success — see [`runner`]), and the whole machinery is driven
//! deterministically in tests by a seedable [`fault::FaultPlan`].
//!
//! Two execution [`backend`]s run the same task attempts (one attempt
//! module serves both): the scoped-thread runner above, which is the
//! reference, and a coordinator that drives the same job over forked
//! worker processes and a Unix-socket task protocol — surviving
//! whole-worker `SIGKILL` and racing speculative attempts, with
//! byte-identical output (selected per job via [`job::BackendSpec`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocstats;
mod attempt;
pub mod backend;
pub mod combine;
pub mod counters;
pub mod error;
pub mod fault;
pub mod input;
pub mod job;
pub mod join;
pub mod mapper;
pub mod merge;
pub mod partition;
pub mod pool;
pub mod reducer;
pub mod runner;
// Public only so the seeded simulator (`tests/scheduler_sim.rs`) can
// drive the state machine; not part of the engine's API.
#[doc(hidden)]
pub mod scheduler;
pub mod spill;
pub(crate) mod staging;

pub use backend::{maybe_worker_entry, worker_main};
pub use combine::{CombineStrategy, Combiner};
pub use counters::{CounterSnapshot, Counters};
pub use error::{EngineError, Result};
pub use fault::{FaultPlan, TaskFault};
pub use input::{InputSpec, SplitReader};
pub use job::{BackendSpec, InputBinding, JobConfig, OutputSpec, ProcessCfg};
pub use join::{BroadcastSpec, JoinSide};
pub use mapper::{FnMapperFactory, IrMapperFactory, Mapper, MapperFactory};
pub use merge::{LoserTree, RunStream};
pub use mr_storage::blockcodec::ShuffleCompression;
pub use pool::{BufferPool, PoolStats};
pub use reducer::{
    Builtin, FnReducerFactory, IrReducer, IrReducerFactory, Reducer, ReducerFactory,
};
pub use runner::{run_job, JobResult, PhaseTimings};
pub use spill::{AttemptDir, ShuffleBucket, SpillDir, SpillRun};
