//! The Manimal optimizer (paper §2.2 Step 2).
//!
//! "The optimizer examines the descriptors, the user's input file, and
//! the catalog to choose the most efficient execution plan currently
//! possible. The resulting execution descriptor indicates to the final
//! execution fabric which index file to use, and which optimizations
//! should be applied. … It currently decides using a simple hard-coded
//! ranking of applicable optimizations."
//!
//! Ranking implemented here (most to least preferred):
//! selection+projection B+Tree → selection B+Tree → projection+delta →
//! projection → dictionary/direct-operation → delta → full scan.
//! The one conflict the paper names — selection vs. delta-compression —
//! resolves in selection's favour by that ordering.
//!
//! The optimizer may also produce "a potentially-modified copy of the
//! user's original program" (§2): for direct-operation plans, string
//! constants compared against a dictionary-compressed field are
//! rewritten into their dictionary codes; for projected plans, reads of
//! fields the artifact does not store are bound to their type defaults,
//! so map tasks run on the stored records as they are.

use std::path::Path;
use std::sync::Arc;

use mr_analysis::cfg::Cfg;
use mr_analysis::dataflow::ReachingDefs;
use mr_analysis::ranges::{Endpoint, KeyRange};
use mr_analysis::{AnalysisReport, SelectOutcome};
use mr_engine::InputSpec;
use mr_ir::asm::parse_function;
use mr_ir::function::{Function, Program};
use mr_ir::instr::{CmpOp, Instr, ParamId, Reg};
use mr_ir::value::Value;
use mr_storage::btree::ScanBound;
use mr_storage::seqfile::SeqFileMeta;

use crate::catalog::{Catalog, CatalogEntry, IndexKind};
use crate::error::Result;

/// Optimizer knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerConfig {
    /// The "safe mode" of paper §2 footnote 2: refuse plans that would
    /// change how often side-effecting code runs (i.e. selection indexes
    /// over programs with detected side effects).
    pub safe_mode: bool,
    /// Escape hatch: never engage map-side combining, even for reducers
    /// with a declared or proven combiner (`manimal run --no-combine`).
    pub no_combine: bool,
}

/// The plan handed to the execution fabric (paper Fig. 1's "execution
/// descriptor": optimization label, index file, predicate ranges).
pub struct ExecutionDescriptor {
    /// The physical input to read.
    pub input: InputSpec,
    /// The (possibly rewritten) map function to run.
    pub mapper: Function,
    /// Human-readable list of applied optimizations.
    pub applied: Vec<String>,
    /// The catalog entry backing the plan, if any.
    pub index: Option<CatalogEntry>,
    /// The optimizer's combiner decision: whether the fabric may engage
    /// the map-side combiner the job's reducer declares (or the
    /// `mr_analysis::combine` pass proved). `false` under
    /// [`OptimizerConfig::no_combine`]; for reducers without a
    /// combiner, `true` simply engages nothing.
    pub combine: bool,
}

impl std::fmt::Display for ExecutionDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.applied.is_empty() {
            write!(f, "full scan (no optimization applied)")
        } else {
            write!(f, "applied: {}", self.applied.join(" + "))
        }
    }
}

/// Choose the best plan for `program` over `input` given the catalog:
/// the head of [`enumerate_plans`]'s ranking.
pub fn choose_plan(
    program: &Program,
    report: &AnalysisReport,
    catalog: &Catalog,
    input: &Path,
    config: OptimizerConfig,
) -> Result<ExecutionDescriptor> {
    let mut plans = enumerate_plans(program, report, catalog, input, config)?;
    Ok(plans.remove(0))
}

/// Every candidate plan for `program` over `input`, in ranking order
/// (most preferred first). The last element is always the unoptimized
/// full scan, so the list is never empty and
/// [`choose_plan`] is exactly its head. The full candidate set is what
/// the plan-equivalence harness executes: *each* of these descriptors
/// must produce output byte-identical to the full scan.
pub fn enumerate_plans(
    program: &Program,
    report: &AnalysisReport,
    catalog: &Catalog,
    input: &Path,
    config: OptimizerConfig,
) -> Result<Vec<ExecutionDescriptor>> {
    // Stale catalog entries (artifact deleted from disk) are skipped
    // rather than crashing the job.
    let indexes: Vec<CatalogEntry> = catalog
        .indexes_for(input)
        .into_iter()
        .filter(|e| e.index_path.exists())
        .collect();
    let mut plans: Vec<ExecutionDescriptor> = Vec::new();

    // 1. Selection B+Tree (optionally combined with projection).
    if let SelectOutcome::Selection(sel) = &report.selection {
        let selection_safe = !config.safe_mode || report.side_effects.is_empty();
        if let (Some(plan), true) = (&sel.plan, selection_safe) {
            if !plan.is_full_scan() {
                let key_str = plan.key.to_string();
                // Prefer the combined selection+projection entry.
                let mut candidates: Vec<&CatalogEntry> = indexes
                    .iter()
                    .filter(
                        |e| matches!(&e.kind, IndexKind::Selection { key, .. } if *key == key_str),
                    )
                    .collect();
                candidates.sort_by_key(|e| {
                    // projected first
                    match &e.kind {
                        IndexKind::Selection {
                            projected_fields: Some(_),
                            ..
                        } => 0,
                        _ => 1,
                    }
                });
                let required: Vec<(ScanBound, ScanBound)> =
                    plan.ranges.iter().map(range_to_bounds).collect();
                for entry in candidates {
                    let IndexKind::Selection {
                        projected_fields,
                        covered,
                        ..
                    } = &entry.kind
                    else {
                        continue;
                    };
                    // The index materializes a view; it is usable only
                    // when every range this program needs is contained
                    // in a range the view covers.
                    let covered_bounds: Vec<(ScanBound, ScanBound)> =
                        covered.iter().filter_map(|r| r.to_bounds().ok()).collect();
                    let all_covered = required
                        .iter()
                        .all(|req| covered_bounds.iter().any(|cov| range_covers(cov, req)));
                    if !all_covered {
                        continue;
                    }
                    // A projected index is usable only if it stores every
                    // field this program can observe.
                    if let Some(stored) = projected_fields {
                        let needed = match report.projection.descriptor() {
                            Some(p) => p.used_fields.clone(),
                            // Program may observe anything: projected
                            // index unusable.
                            None => continue,
                        };
                        if !needed.iter().all(|f| stored.contains(f)) {
                            continue;
                        }
                    }
                    let mapper = match projected_fields {
                        Some(stored) => bind_dropped_fields(program, stored),
                        None => Some(program.mapper.clone()),
                    };
                    let Some(mapper) = mapper else { continue };
                    let ranges = plan.ranges.iter().map(range_to_bounds).collect();
                    let mut applied = vec![format!("selection(index on {key_str})")];
                    if projected_fields.is_some() {
                        applied.push("projection(clustered)".to_string());
                    }
                    plans.push(ExecutionDescriptor {
                        input: InputSpec::BTreeRanges {
                            path: entry.index_path.clone(),
                            ranges,
                        },
                        mapper,
                        applied,
                        index: Some(entry.clone()),
                        combine: !config.no_combine,
                    });
                }
            }
        }
    }

    // 2. Projection(+delta) artifacts.
    if let Some(proj) = report.projection.descriptor() {
        // Combined projection+delta first.
        for entry in &indexes {
            if let IndexKind::Delta {
                projected: Some(kept),
                fields,
            } = &entry.kind
            {
                if !proj.used_fields.iter().all(|f| kept.contains(f)) {
                    continue;
                }
                let Some(mapper) = bind_dropped_fields(program, kept) else {
                    continue;
                };
                plans.push(ExecutionDescriptor {
                    input: InputSpec::Delta {
                        path: entry.index_path.clone(),
                    },
                    mapper,
                    applied: vec![
                        format!("projection(keep [{}])", kept.join(", ")),
                        format!("delta-compression([{}])", fields.join(", ")),
                    ],
                    index: Some(entry.clone()),
                    combine: !config.no_combine,
                });
            }
        }
        for entry in &indexes {
            if let IndexKind::Projection { fields } = &entry.kind {
                if !proj.used_fields.iter().all(|f| fields.contains(f)) {
                    continue;
                }
                let Some(mapper) = bind_dropped_fields(program, fields) else {
                    continue;
                };
                plans.push(ExecutionDescriptor {
                    input: InputSpec::Projected {
                        path: entry.index_path.clone(),
                        source_schema: Arc::clone(&program.value_schema),
                    },
                    mapper,
                    applied: vec![format!("projection(keep [{}])", fields.join(", "))],
                    index: Some(entry.clone()),
                    combine: !config.no_combine,
                });
            }
        }
    }

    // 3. Direct-operation on dictionary-compressed data.
    if let Some(direct) = report.direct.descriptor() {
        for entry in &indexes {
            if let IndexKind::Dict { fields } = &entry.kind {
                if direct.fields.iter().all(|f| fields.contains(f))
                    && fields.iter().all(|f| direct.fields.contains(f))
                {
                    // An unreadable/corrupt dictionary artifact makes
                    // this candidate unusable, not the whole planning
                    // pass — skip it like a stale entry (the
                    // early-return choose_plan never even opened it
                    // when a better plan existed).
                    let Ok(mapper) =
                        rewrite_dict_constants(&program.mapper, fields, &entry.index_path)
                    else {
                        continue;
                    };
                    plans.push(ExecutionDescriptor {
                        input: InputSpec::Dict {
                            path: entry.index_path.clone(),
                        },
                        mapper,
                        applied: vec![format!(
                            "direct-operation(dictionary on [{}])",
                            fields.join(", ")
                        )],
                        index: Some(entry.clone()),
                        combine: !config.no_combine,
                    });
                }
            }
        }
    }

    // 4. Plain delta compression.
    if report.delta.descriptor().is_some() {
        for entry in &indexes {
            if let IndexKind::Delta {
                projected: None,
                fields,
            } = &entry.kind
            {
                plans.push(ExecutionDescriptor {
                    input: InputSpec::Delta {
                        path: entry.index_path.clone(),
                    },
                    mapper: program.mapper.clone(),
                    applied: vec![format!("delta-compression([{}])", fields.join(", "))],
                    index: Some(entry.clone()),
                    combine: !config.no_combine,
                });
            }
        }
    }

    // The unoptimized full scan is always a candidate — and the
    // reference every other candidate must match byte for byte.
    plans.push(ExecutionDescriptor {
        input: InputSpec::SeqFile {
            path: input.to_path_buf(),
        },
        mapper: program.mapper.clone(),
        applied: vec![],
        index: None,
        combine: !config.no_combine,
    });
    Ok(plans)
}

/// The physical plan for a two-table equi-join stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlan {
    /// Load the whole build side into a shared in-memory hash table and
    /// probe it inline inside every map task — no build rows cross the
    /// shuffle at all. Only sound for build sides that fit in memory,
    /// which is what the size budget gates.
    Broadcast,
    /// Co-partition both sides by join key as tagged-union values and
    /// join each key group in the reducer (build/probe buffering, cross
    /// product). Works at any build-side size.
    Repartition,
}

impl JoinPlan {
    /// Stable CLI/wire name (`broadcast` / `repartition`), round-trips
    /// through [`JoinPlan::parse`].
    pub fn name(self) -> &'static str {
        match self {
            JoinPlan::Broadcast => "broadcast",
            JoinPlan::Repartition => "repartition",
        }
    }

    /// Look a plan up by name.
    pub fn parse(s: &str) -> Option<JoinPlan> {
        match s {
            "broadcast" => Some(JoinPlan::Broadcast),
            "repartition" => Some(JoinPlan::Repartition),
            _ => None,
        }
    }
}

/// Default build-side size budget for [`choose_join_plan`]: build
/// inputs up to this many bytes broadcast, larger ones repartition.
pub const DEFAULT_BROADCAST_BUDGET: u64 = 64 * 1024 * 1024;

/// The optimizer's join-plan decision together with its witness: what
/// was measured, against what budget, and why the plan won — the same
/// explain-your-work posture as [`ExecutionDescriptor::applied`].
#[derive(Debug, Clone)]
pub struct JoinDecision {
    /// The chosen physical plan.
    pub plan: JoinPlan,
    /// On-disk size of the build input, the quantity the rule tests.
    pub build_bytes: u64,
    /// The budget it was tested against.
    pub budget: u64,
    /// `true` when the caller forced the plan (`--join-plan`), making
    /// the size rule advisory only.
    pub forced: bool,
}

impl std::fmt::Display for JoinDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rel = if self.build_bytes <= self.budget {
            "≤"
        } else {
            ">"
        };
        write!(
            f,
            "{} join ({}build side {} B {rel} budget {} B)",
            self.plan.name(),
            if self.forced { "forced; " } else { "" },
            self.build_bytes,
            self.budget
        )
    }
}

/// Pick the physical plan for a two-table equi-join: **broadcast** when
/// the build input fits the size budget, **repartition** otherwise.
/// `force` (the `--join-plan` escape hatch) overrides the rule but the
/// decision still records the measured size, so a forced choice is
/// auditable.
pub fn choose_join_plan(
    build_input: &Path,
    budget: u64,
    force: Option<JoinPlan>,
) -> Result<JoinDecision> {
    let build_bytes = std::fs::metadata(build_input)
        .map_err(crate::error::ManimalError::Io)?
        .len();
    let plan = force.unwrap_or(if build_bytes <= budget {
        JoinPlan::Broadcast
    } else {
        JoinPlan::Repartition
    });
    Ok(JoinDecision {
        plan,
        build_bytes,
        budget,
        forced: force.is_some(),
    })
}

/// Map a proven combiner descriptor (`mr_analysis::combine`) onto the
/// engine combiner that implements it. `Product` folds are proven
/// combinable but have no builtin implementation yet, so they fall back
/// to the plain pipeline — the optimizer's "decline cleanly" posture.
pub fn combiner_for(
    descriptor: &mr_analysis::CombinerDescriptor,
) -> Option<Arc<dyn mr_engine::Combiner>> {
    use mr_analysis::CombineKind;
    match descriptor.kind {
        CombineKind::Sum => mr_engine::Builtin::Sum.combiner(),
        CombineKind::Count => mr_engine::Builtin::Count.combiner(),
        CombineKind::Product => None,
    }
}

/// Turn a user-submitted IR `reduce(key, values)` into an executable
/// reducer factory, running the `mr-analysis` combine pass on the way:
/// when the function is proven to be an algebraic fold, the factory
/// declares the matching engine combiner, so
/// [`Manimal::execute_plan`](crate::Manimal::execute_plan) engages
/// map-side combining exactly as it does for builtin reducers — the
/// analysis-selected plan property, end to end. Returns the pass
/// outcome alongside so callers can report what was proven (or why
/// combining was declined).
///
/// `program` is the submitted *map* program: Sum/Product folds combine
/// only when the map's emitted values are proven integer-only
/// ([`mr_analysis::int_only_emit_values`]) — IR `add` promotes
/// `Int + Double` to `Double`, so a sequential fold over a mixed
/// numeric domain is not associative and combining it could change
/// output. Count folds ignore the values entirely and are exempt.
pub fn ir_reducer(
    reduce: Function,
    program: &Program,
) -> (
    Arc<dyn mr_engine::ReducerFactory>,
    mr_analysis::CombineOutcome,
) {
    use mr_analysis::{CombineKind, CombineMiss, CombineOutcome};
    let mut outcome = mr_analysis::find_combine(&reduce);
    let needs_int_domain = matches!(
        outcome.descriptor().map(|d| d.kind),
        Some(CombineKind::Sum | CombineKind::Product)
    );
    if needs_int_domain && !mr_analysis::int_only_emit_values(program) {
        outcome = CombineOutcome::NotCombinable(CombineMiss::UnprovenValueDomain(
            "map emit values are not proven integer-only".into(),
        ));
    }
    let combiner = outcome.descriptor().and_then(combiner_for);
    let factory: Arc<dyn mr_engine::ReducerFactory> =
        mr_engine::IrReducerFactory::with_combiner(reduce, combiner);
    (factory, outcome)
}

/// `cov` admits every key that `req` admits.
fn range_covers(cov: &(ScanBound, ScanBound), req: &(ScanBound, ScanBound)) -> bool {
    low_covers(&cov.0, &req.0) && high_covers(&cov.1, &req.1)
}

/// The covering low bound admits everything the required low bound does.
fn low_covers(cov: &ScanBound, req: &ScanBound) -> bool {
    match (cov, req) {
        (ScanBound::Unbounded, _) => true,
        (_, ScanBound::Unbounded) => false,
        (ScanBound::Incl(c), ScanBound::Incl(r)) => c <= r,
        (ScanBound::Incl(c), ScanBound::Excl(r)) => c <= r,
        (ScanBound::Excl(c), ScanBound::Incl(r)) => c < r,
        (ScanBound::Excl(c), ScanBound::Excl(r)) => c <= r,
    }
}

/// The covering high bound admits everything the required high bound
/// does.
fn high_covers(cov: &ScanBound, req: &ScanBound) -> bool {
    match (cov, req) {
        (ScanBound::Unbounded, _) => true,
        (_, ScanBound::Unbounded) => false,
        (ScanBound::Incl(c), ScanBound::Incl(r)) => c >= r,
        (ScanBound::Incl(c), ScanBound::Excl(r)) => c >= r,
        (ScanBound::Excl(c), ScanBound::Incl(r)) => c > r,
        (ScanBound::Excl(c), ScanBound::Excl(r)) => c >= r,
    }
}

/// Convert an analyzer key range into B+Tree scan bounds.
pub fn range_to_bounds(range: &KeyRange) -> (ScanBound, ScanBound) {
    let low = match &range.low {
        Endpoint::Open => ScanBound::Unbounded,
        Endpoint::Incl(v) => ScanBound::Incl(v.clone()),
        Endpoint::Excl(v) => ScanBound::Excl(v.clone()),
    };
    let high = match &range.high {
        Endpoint::Open => ScanBound::Unbounded,
        Endpoint::Incl(v) => ScanBound::Incl(v.clone()),
        Endpoint::Excl(v) => ScanBound::Excl(v.clone()),
    };
    (low, high)
}

/// Bind a projected plan's mapper to the fields its artifact stores, so
/// map tasks read the stored records as they are. Each `GetField` of a
/// declared field the artifact drops becomes a `Const` of the field
/// type's default (`""`, `0`, `0.0`, `false`): the value a record
/// widened back to the declared schema held there. The analyzer proved
/// such reads never reach an emit or an emit-reaching branch, so the
/// output bytes do not change.
///
/// `None` — the plan is not enumerated — when a dropped-field read's
/// object is not provably the value parameter; when the value record is
/// copied (a move or a member store) or passed to a library call
/// (`tuple.get_*` reads fields by name at run time), where its field
/// reads are not followed; or when the default has no assembler
/// spelling (the process backend ships mappers as text).
fn bind_dropped_fields(program: &Program, stored: &[String]) -> Option<Function> {
    let func = &program.mapper;
    let value_regs: Vec<Reg> = func
        .instrs
        .iter()
        .filter_map(|instr| match instr {
            Instr::LoadParam {
                dst,
                param: ParamId::Value,
            } => Some(*dst),
            _ => None,
        })
        .collect();
    let cfg = Cfg::build(func);
    let rd = ReachingDefs::compute(func, &cfg);
    let mut out = func.clone();
    for (pc, instr) in func.instrs.iter().enumerate() {
        match instr {
            Instr::Move { src, .. } | Instr::SetMember { src, .. } if value_regs.contains(src) => {
                return None
            }
            Instr::Call { args, .. } if args.iter().any(|a| value_regs.contains(a)) => return None,
            Instr::GetField { dst, obj, field }
                if value_regs.contains(obj) && !stored.contains(field) =>
            {
                // A field the declared schema lacks fails on every plan
                // alike; leave it.
                let Some(fd) = program.value_schema.field(field) else {
                    continue;
                };
                let val = fd.ty.default_value();
                if !reads_value_param(func, &cfg, &rd, pc, *obj) || !spellable(&val) {
                    return None;
                }
                out.instrs[pc] = Instr::Const { dst: *dst, val };
            }
            _ => {}
        }
    }
    Some(out)
}

/// `reg` is defined at `pc`, and only by the value-parameter load.
fn reads_value_param(func: &Function, cfg: &Cfg, rd: &ReachingDefs, pc: usize, reg: Reg) -> bool {
    let defs = rd.reaching(func, cfg, pc, reg);
    !defs.is_empty()
        && defs.into_iter().all(|d| {
            matches!(
                func.instrs[d],
                Instr::LoadParam {
                    param: ParamId::Value,
                    ..
                }
            )
        })
}

/// Whether `val` survives the `to_asm` → `parse_function` round trip
/// (`Bytes` has no literal).
fn spellable(val: &Value) -> bool {
    let src = format!("func f(key, value) {{\n  r0 = const {val}\n  ret\n}}\n");
    matches!(parse_function(&src), Ok(f) if matches!(&f.instrs[0], Instr::Const { val: v, .. } if v == val))
}

/// Produce the "potentially-modified copy of the user's original
/// program": rewrite string constants that are equality-compared against
/// a dictionary-compressed field into their integer codes. Constants
/// absent from the dictionary become a sentinel code that matches no
/// record.
fn rewrite_dict_constants(
    func: &Function,
    dict_fields: &[String],
    dict_path: &Path,
) -> Result<Function> {
    let meta = SeqFileMeta::open(dict_path)?;
    let cfg = Cfg::build(func);
    let rd = ReachingDefs::compute(func, &cfg);

    // Find Cmp(Eq/Ne) instructions where one operand reaches only loads
    // of a dict field and the other only string constants; collect the
    // constant-instruction pcs with the field they compare against.
    let mut rewrites: Vec<(usize, String)> = Vec::new();
    for (pc, instr) in func.instrs.iter().enumerate() {
        let Instr::Cmp { op, lhs, rhs, .. } = instr else {
            continue;
        };
        if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
            continue;
        }
        for (a, b) in [(lhs, rhs), (rhs, lhs)] {
            let a_defs = rd.reaching(func, &cfg, pc, *a);
            let field = a_defs
                .iter()
                .try_fold(None::<String>, |acc, &d| match &func.instrs[d] {
                    Instr::GetField { obj, field, .. } if dict_fields.contains(field) => {
                        if !reads_value_param(func, &cfg, &rd, d, *obj) {
                            return Err(());
                        }
                        match &acc {
                            Some(f) if f != field => Err(()),
                            _ => Ok(Some(field.clone())),
                        }
                    }
                    _ => Err(()),
                });
            let Ok(Some(field)) = field else { continue };
            for d in rd.reaching(func, &cfg, pc, *b) {
                if matches!(&func.instrs[d], Instr::Const { val, .. } if val.as_str().is_some()) {
                    rewrites.push((d, field.clone()));
                }
            }
        }
    }

    let mut out = func.clone();
    for (pc, field) in rewrites {
        let Instr::Const { val, .. } = &mut out.instrs[pc] else {
            continue;
        };
        let Some(s) = val.as_str() else { continue };
        let code = meta
            .dictionary(&field)
            .and_then(|d| d.code_of(s))
            .unwrap_or(-1); // matches no dictionary code
        *val = Value::Int(code);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::asm::parse_function;
    use mr_ir::record::record;
    use mr_ir::schema::{FieldType, Schema};
    use mr_storage::{SeqFileWriter, ShuffleCompression};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("manimal-optimizer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn coverage_logic() {
        let cov = (ScanBound::Excl(Value::Int(10)), ScanBound::Unbounded);
        // Narrower required range: covered.
        assert!(range_covers(
            &cov,
            &(ScanBound::Incl(Value::Int(50)), ScanBound::Unbounded)
        ));
        // Wider: not covered.
        assert!(!range_covers(
            &cov,
            &(ScanBound::Incl(Value::Int(5)), ScanBound::Unbounded)
        ));
        // Excl(10) does not admit 10, Incl(10) requires it.
        assert!(!range_covers(
            &cov,
            &(ScanBound::Incl(Value::Int(10)), ScanBound::Unbounded)
        ));
        assert!(range_covers(
            &cov,
            &(
                ScanBound::Excl(Value::Int(10)),
                ScanBound::Incl(Value::Int(99))
            )
        ));
    }

    #[test]
    fn range_conversion() {
        let r = KeyRange {
            low: Endpoint::Excl(Value::Int(1)),
            high: Endpoint::Open,
        };
        let (lo, hi) = range_to_bounds(&r);
        assert_eq!(lo, ScanBound::Excl(Value::Int(1)));
        assert_eq!(hi, ScanBound::Unbounded);
    }

    /// `k` kept, `x` of type `ty` dropped; the mapper logs `x` and
    /// emits `k`.
    fn logs_dropped(ty: FieldType, read_x: &str) -> Program {
        let schema = Schema::new("V", vec![("k", FieldType::Str), ("x", ty)]).into_arc();
        let src = format!(
            "func map(key, value) {{\n  member prev = 0\n  r0 = param value\n{read_x}\n  \
             effect log(r2)\n  r3 = field r0.k\n  emit r3, r3\n  ret\n}}\n"
        );
        let program = Program::new("p", parse_function(&src).unwrap(), schema);
        let proj = mr_analysis::project::find_project(&program);
        assert_eq!(
            proj.descriptor().map(|d| d.dropped_fields.clone()),
            Some(vec!["x".to_string()]),
            "the analyzer drops `x`, so a projected plan is considered"
        );
        program
    }

    const READ_X: &str = "  r2 = field r0.x";

    #[test]
    fn bound_defaults_round_trip_for_every_accepted_type() {
        for ty in [
            FieldType::Bool,
            FieldType::Int,
            FieldType::Long,
            FieldType::Double,
            FieldType::Str,
        ] {
            let program = logs_dropped(ty, READ_X);
            let bound = bind_dropped_fields(&program, &["k".to_string()])
                .unwrap_or_else(|| panic!("{ty}: dropped read not bound"));
            assert_eq!(
                bound.instrs[1],
                Instr::Const {
                    dst: Reg(2),
                    val: ty.default_value()
                },
                "{ty}"
            );
            let shipped = parse_function(&mr_ir::printer::to_asm(&bound)).unwrap();
            assert_eq!(
                shipped, bound,
                "{ty}: the bound mapper survives the text wire"
            );
        }
    }

    #[test]
    fn dropped_bytes_read_declines() {
        let program = logs_dropped(FieldType::Bytes, READ_X);
        assert!(bind_dropped_fields(&program, &["k".to_string()]).is_none());
    }

    #[test]
    fn dropped_read_off_a_member_declines() {
        // The dropped field is read off the record loaded back from a
        // member, or off a copy of it.
        for read_x in [
            "  member prev = r0\n  r1 = member prev\n  r2 = field r1.x",
            "  r1 = r0\n  r2 = field r1.x",
        ] {
            let program = logs_dropped(FieldType::Str, read_x);
            assert!(bind_dropped_fields(&program, &["k".to_string()]).is_none());
        }
        // The read's register is the parameter's on one path only: the
        // full scan fails on the other, so no constant may stand in.
        let program = logs_dropped(
            FieldType::Str,
            "  r9 = field r0.k\n  br r9, keep, swap\nswap:\n  r0 = const 1\nkeep:\n  r2 = field r0.x",
        );
        assert!(bind_dropped_fields(&program, &["k".to_string()]).is_none());
    }

    #[test]
    fn record_reaching_a_call_declines() {
        // `tuple.get_str` reads the field by name at run time, where a
        // stored record lacks it.
        let program = logs_dropped(
            FieldType::Str,
            "  r1 = const \"x\"\n  r2 = call tuple.get_str(r0, r1)",
        );
        assert!(bind_dropped_fields(&program, &["k".to_string()]).is_none());
        assert!(bind_dropped_fields(&program, &["k".to_string(), "x".to_string()]).is_none());
    }

    #[test]
    fn dict_constant_rewrite() {
        // Build a dict file with a known dictionary.
        let schema = Schema::new(
            "V",
            vec![("destURL", FieldType::Str), ("n", FieldType::Int)],
        )
        .into_arc();
        let path = tmp("dict");
        let none = ShuffleCompression::None;
        let mut w = SeqFileWriter::create_encoded(
            &path,
            Arc::clone(&schema),
            none,
            &[],
            &["destURL".into()],
        )
        .unwrap();
        for u in ["http://a", "http://b"] {
            w.append(&record(&schema, vec![u.into(), 1.into()]))
                .unwrap();
        }
        w.finish().unwrap();

        let func = parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.destURL
              r2 = const "http://b"
              r3 = cmp eq r1, r2
              br r3, t, e
            t:
              r4 = field r0.n
              r5 = const "unrelated"
              emit r5, r4
            e:
              ret
            }
            "#,
        )
        .unwrap();
        let rewritten = rewrite_dict_constants(&func, &["destURL".to_string()], &path).unwrap();
        // The compared constant becomes its code (http://b inserted
        // second → code 1)…
        assert_eq!(
            rewritten.instrs[2],
            Instr::Const {
                dst: mr_ir::instr::Reg(2),
                val: Value::Int(1)
            }
        );
        // …and the unrelated constant is untouched.
        assert!(matches!(
            &rewritten.instrs[6],
            Instr::Const { val, .. } if val.as_str() == Some("unrelated")
        ));
    }

    #[test]
    fn dict_rewrite_absent_constant_gets_sentinel() {
        let schema = Schema::new("V", vec![("u", FieldType::Str)]).into_arc();
        let path = tmp("dict-absent");
        let none = ShuffleCompression::None;
        let mut w =
            SeqFileWriter::create_encoded(&path, Arc::clone(&schema), none, &[], &["u".into()])
                .unwrap();
        w.append(&record(&schema, vec!["present".into()])).unwrap();
        w.finish().unwrap();
        let func = parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.u
              r2 = const "absent"
              r3 = cmp eq r1, r2
              br r3, t, e
            t:
              emit r1, r3
            e:
              ret
            }
            "#,
        )
        .unwrap();
        let rewritten = rewrite_dict_constants(&func, &["u".to_string()], &path).unwrap();
        assert!(matches!(
            &rewritten.instrs[2],
            Instr::Const { val, .. } if *val == Value::Int(-1)
        ));
    }
}
