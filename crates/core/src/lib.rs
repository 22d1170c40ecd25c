//! # Manimal — automatic optimization for MapReduce programs
//!
//! A Rust reproduction of "Automatic Optimization for MapReduce
//! Programs" (Jahani, Cafarella, Ré — PVLDB 4(6), 2011). Manimal
//! statically analyzes compiled, *unmodified* MapReduce programs,
//! detects relational-style operations hidden in free-form `map()` code,
//! and executes the job against classic database physical optimizations:
//! B+Tree selection indexes, field projection, delta-compression and
//! direct operation on dictionary-compressed data.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use manimal::{Manimal, Builtin};
//! use mr_ir::asm::parse_function;
//! use mr_ir::{Program, Schema, FieldType};
//!
//! // The paper's §2 example: if (v.rank > 1) emit(k, 1);
//! let mapper = parse_function(r#"
//!     func map(key, value) {
//!       r0 = param value
//!       r1 = field r0.rank
//!       r2 = const 1
//!       r3 = cmp gt r1, r2
//!       br r3, then, exit
//!     then:
//!       r4 = param key
//!       emit r4, r2
//!     exit:
//!       ret
//!     }
//! "#).unwrap();
//! let schema = Schema::new("WebPage", vec![
//!     ("url", FieldType::Str),
//!     ("rank", FieldType::Int),
//!     ("content", FieldType::Str),
//! ]).into_arc();
//! let program = Program::new("select-demo", mapper, schema);
//!
//! let manimal = Manimal::new("/tmp/manimal-work").unwrap();
//! let submission = manimal.submit(&program, "/data/webpages.seq");
//! println!("{}", submission.report);           // what the analyzer found
//! manimal.build_indexes(&submission).unwrap(); // the admin says yes
//! let run = manimal
//!     .execute(&submission, Arc::new(Builtin::Count))
//!     .unwrap();                               // runs via the B+Tree
//! println!("applied: {:?}", run.applied);
//! ```
//!
//! The pipeline (paper Fig. 1): [`submit`](Manimal::submit) runs the
//! **analyzer** (re-exported from `mr-analysis`), producing optimization
//! descriptors and [`indexgen`] programs; [`plan`](Manimal::plan) runs
//! the **optimizer** against the [`catalog`]; execution happens on the
//! `mr-engine` **fabric** with the physical layouts of `mr-storage`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod error;
pub mod indexgen;
pub mod optimizer;
pub mod service;
pub mod submit;

pub use catalog::{Catalog, CatalogEntry, IndexKind};
pub use error::{ManimalError, Result};
pub use indexgen::{plan_index_programs, IndexGenProgram};
pub use mr_analysis::{analyze, find_combine, AnalysisReport, CombineOutcome};
pub use mr_engine::{Builtin, FaultPlan, JobResult, ShuffleCompression};
pub use optimizer::{
    choose_join_plan, choose_plan, combiner_for, enumerate_plans, ir_reducer, ExecutionDescriptor,
    JoinDecision, JoinPlan, OptimizerConfig, DEFAULT_BROADCAST_BUDGET,
};
pub use service::{
    serve_blocking, ServiceClient, ServiceConfig, ServiceHandle, ServiceStats, StatsSnapshot,
    SubmitOutcome,
};
pub use submit::{
    DagInput, DagRun, DagStage, Execution, JobDag, JoinJob, Manimal, StageJob, StageRun, Submission,
};

/// Parse MR-IR assembly and verify it. The error names `what` (a file,
/// or the payload field it came from) and puts each verifier finding
/// on its own line.
pub fn parse_verified(src: &str, what: &str) -> std::result::Result<mr_ir::Function, String> {
    let func = mr_ir::asm::parse_function(src).map_err(|e| format!("{what}: {e}"))?;
    mr_ir::verify::verify(&func).map_err(|errs| {
        let lines: Vec<String> = errs.iter().map(|e| format!("  {e}")).collect();
        format!("{what} failed verification:\n{}", lines.join("\n"))
    })?;
    Ok(func)
}
