//! Reduce tasks and the builtin reducer library.
//!
//! The paper analyzes only `map()` ("we plan to examine reduce() in
//! future work", §3.2), so the builtin reducers are native Rust — the
//! same reducers run under the baseline plan and every optimized plan,
//! which is what makes output-equivalence checks between plans
//! meaningful. [`IrReducer`] goes one step further: a user-submitted IR
//! `reduce(key, values)` run through the interpreter, which is what
//! gives the `mr-analysis` combine pass something to prove things
//! about (see [`crate::combine`]).

use std::sync::Arc;

use mr_ir::function::Function;
use mr_ir::interp::Interpreter;
use mr_ir::value::Value;

use crate::error::{EngineError, Result};

/// A reduce task instance: called once per key group.
pub trait Reducer: Send {
    /// Reduce one `(key, values)` group into zero or more output pairs.
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()>;
}

/// Creates per-task reducer instances.
pub trait ReducerFactory: Send + Sync {
    /// New reducer.
    fn create(&self) -> Box<dyn Reducer>;

    /// The map-side combiner this reducer declares for itself, when it
    /// is an associative, commutative aggregate (see
    /// [`crate::combine`]). The default is `None` — combining never
    /// engages for a reducer that has not declared (or been proven) an
    /// algebraic decomposition.
    fn combiner(&self) -> Option<std::sync::Arc<dyn crate::combine::Combiner>> {
        None
    }

    /// The builtin reducer behind this factory, when there is one. The
    /// process backend ships builtin reducers to worker processes by
    /// name; the default is `None`.
    fn as_builtin(&self) -> Option<Builtin> {
        None
    }

    /// The compiled IR reduce function behind this factory, when there
    /// is one. The process backend ships IR reducers to worker
    /// processes as IR assembly; factories that return `None` here and
    /// from [`ReducerFactory::as_builtin`] (native closures) are not
    /// wire-serializable and are rejected with a config error.
    fn ir_function(&self) -> Option<&Function> {
        None
    }
}

/// The builtin reducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// Sum numeric values per key.
    Sum,
    /// Count values per key.
    Count,
    /// Maximum value per key.
    Max,
    /// Minimum value per key.
    Min,
    /// Pass every value through unchanged.
    Identity,
    /// Emit only the first value of each group.
    First,
    /// Sum numeric values per key but drop the key from the output
    /// (the paper's Table 6 program: "groups these sums by destURL, but
    /// does not in the end emit the URL").
    SumDropKey,
    /// Repartition-join reducer: each value is a tagged union
    /// `[tag, payload]` (tag `0` = build side, `1` = probe side — see
    /// [`crate::join`]); the group is partitioned by tag with arrival
    /// order preserved and the build×probe cross product is emitted as
    /// `(key, [build_payload, probe_payload])`. Declares no combiner —
    /// folding tagged values would corrupt them, and dispatch rejects
    /// any combiner configured alongside it
    /// ([`EngineError::CombinerRejected`]).
    JoinTagged,
}

impl Builtin {
    /// Every builtin reducer, in declaration order.
    pub const ALL: [Builtin; 8] = [
        Builtin::Sum,
        Builtin::Count,
        Builtin::Max,
        Builtin::Min,
        Builtin::Identity,
        Builtin::First,
        Builtin::SumDropKey,
        Builtin::JoinTagged,
    ];

    /// Stable wire name of this builtin (round-trips through
    /// [`Builtin::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Sum => "sum",
            Builtin::Count => "count",
            Builtin::Max => "max",
            Builtin::Min => "min",
            Builtin::Identity => "identity",
            Builtin::First => "first",
            Builtin::SumDropKey => "sum-drop-key",
            Builtin::JoinTagged => "join-tagged",
        }
    }

    /// Look a builtin up by its wire name.
    pub fn parse(name: &str) -> Option<Builtin> {
        Builtin::ALL.into_iter().find(|b| b.name() == name)
    }
}

impl Reducer for Builtin {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        match self {
            Builtin::Sum => {
                let mut int_sum: i64 = 0;
                let mut float_sum: f64 = 0.0;
                let mut any_float = false;
                for v in values {
                    match v {
                        Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                        Value::Double(d) => {
                            any_float = true;
                            float_sum += d;
                        }
                        other => {
                            return Err(EngineError::Reduce(format!(
                                "Sum: non-numeric value {other} for key {key}"
                            )))
                        }
                    }
                }
                let total = if any_float {
                    Value::Double(float_sum + int_sum as f64)
                } else {
                    Value::Int(int_sum)
                };
                out.push((key.clone(), total));
            }
            Builtin::Count => {
                out.push((key.clone(), Value::Int(values.len() as i64)));
            }
            Builtin::Max => {
                if let Some(m) = values.iter().max() {
                    out.push((key.clone(), m.clone()));
                }
            }
            Builtin::Min => {
                if let Some(m) = values.iter().min() {
                    out.push((key.clone(), m.clone()));
                }
            }
            Builtin::Identity => {
                for v in values {
                    out.push((key.clone(), v.clone()));
                }
            }
            Builtin::First => {
                if let Some(v) = values.first() {
                    out.push((key.clone(), v.clone()));
                }
            }
            Builtin::SumDropKey => {
                let mut sum: i64 = 0;
                for v in values {
                    match v.as_int() {
                        Some(i) => sum = sum.wrapping_add(i),
                        None => {
                            return Err(EngineError::Reduce(format!(
                                "SumDropKey: non-integer value {v}"
                            )))
                        }
                    }
                }
                out.push((Value::Null, Value::Int(sum)));
            }
            Builtin::JoinTagged => {
                crate::join::reduce_tagged_group(key, values, out)?;
            }
        }
        Ok(())
    }
}

impl ReducerFactory for Builtin {
    fn create(&self) -> Box<dyn Reducer> {
        Box::new(*self)
    }

    fn combiner(&self) -> Option<std::sync::Arc<dyn crate::combine::Combiner>> {
        Builtin::combiner(self)
    }

    fn as_builtin(&self) -> Option<Builtin> {
        Some(*self)
    }
}

/// Runs a compiled MR-IR `reduce(key, values)` through the interpreter:
/// the group's values are passed as the `values` list parameter and the
/// function's emits become the group's output pairs. Per-task member
/// state gets the same Java `Reducer`-object lifetime as [`IrMapper`].
///
/// [`IrMapper`]: crate::mapper::IrMapper
pub struct IrReducer {
    func: Arc<Function>,
    interp: Interpreter,
}

impl IrReducer {
    /// Build a reducer instance for one task.
    pub fn new(func: Arc<Function>) -> IrReducer {
        let interp = Interpreter::new(&func);
        IrReducer { func, interp }
    }
}

impl Reducer for IrReducer {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        let list = Value::list(values.to_vec());
        let before = out.len();
        self.interp
            .invoke_map_into(&self.func, key, &list, out)
            .inspect_err(|_| out.truncate(before))
            .map_err(|e| EngineError::Reduce(e.to_string()))?;
        Ok(())
    }
}

/// Factory for [`IrReducer`]s, optionally carrying a map-side combiner
/// a caller has *proven* safe for the function (the engine trusts the
/// proof — `manimal`'s `ir_reducer` runs the `mr-analysis` combine pass
/// to produce it).
pub struct IrReducerFactory {
    /// The compiled reduce function.
    pub func: Arc<Function>,
    combiner: Option<Arc<dyn crate::combine::Combiner>>,
}

impl IrReducerFactory {
    /// Wrap a compiled reduce function with no combiner.
    pub fn new(func: Function) -> Arc<IrReducerFactory> {
        IrReducerFactory::with_combiner(func, None)
    }

    /// Wrap a compiled reduce function together with the combiner
    /// proven equivalent to it.
    pub fn with_combiner(
        func: Function,
        combiner: Option<Arc<dyn crate::combine::Combiner>>,
    ) -> Arc<IrReducerFactory> {
        Arc::new(IrReducerFactory {
            func: Arc::new(func),
            combiner,
        })
    }
}

impl ReducerFactory for IrReducerFactory {
    fn create(&self) -> Box<dyn Reducer> {
        Box::new(IrReducer::new(Arc::clone(&self.func)))
    }

    fn combiner(&self) -> Option<Arc<dyn crate::combine::Combiner>> {
        self.combiner.clone()
    }

    fn ir_function(&self) -> Option<&Function> {
        Some(&self.func)
    }
}

/// A native closure reducer.
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: FnMut(&Value, &[Value], &mut Vec<(Value, Value)>) -> Result<()> + Send,
{
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        (self.0)(key, values, out)
    }
}

/// Factory wrapping a cloneable closure reducer.
pub struct FnReducerFactory<F>(pub F);

impl<F> ReducerFactory for FnReducerFactory<F>
where
    F: Fn(&Value, &[Value], &mut Vec<(Value, Value)>) -> Result<()> + Send + Sync + Clone + 'static,
{
    fn create(&self) -> Box<dyn Reducer> {
        Box::new(FnReducer(self.0.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(b: Builtin, key: Value, values: Vec<Value>) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        b.create().reduce(&key, &values, &mut out).unwrap();
        out
    }

    #[test]
    fn sum_ints_and_floats() {
        let out = run(
            Builtin::Sum,
            Value::str("k"),
            vec![1.into(), 2.into(), 3.into()],
        );
        assert_eq!(out, vec![(Value::str("k"), Value::Int(6))]);
        let out = run(
            Builtin::Sum,
            Value::str("k"),
            vec![Value::Int(1), Value::Double(0.5)],
        );
        assert_eq!(out, vec![(Value::str("k"), Value::Double(1.5))]);
    }

    #[test]
    fn sum_rejects_strings() {
        let mut out = Vec::new();
        let err = Builtin::Sum
            .create()
            .reduce(&Value::str("k"), &[Value::str("x")], &mut out)
            .unwrap_err();
        assert!(matches!(err, EngineError::Reduce(_)));
    }

    #[test]
    fn count_max_min_first_identity() {
        let vals: Vec<Value> = vec![5.into(), 1.into(), 3.into()];
        assert_eq!(
            run(Builtin::Count, Value::Int(0), vals.clone())[0].1,
            Value::Int(3)
        );
        assert_eq!(
            run(Builtin::Max, Value::Int(0), vals.clone())[0].1,
            Value::Int(5)
        );
        assert_eq!(
            run(Builtin::Min, Value::Int(0), vals.clone())[0].1,
            Value::Int(1)
        );
        assert_eq!(
            run(Builtin::First, Value::Int(0), vals.clone())[0].1,
            Value::Int(5)
        );
        assert_eq!(run(Builtin::Identity, Value::Int(0), vals).len(), 3);
    }

    #[test]
    fn sum_drop_key_hides_key() {
        let out = run(
            Builtin::SumDropKey,
            Value::str("http://compressed-or-not"),
            vec![3.into(), 4.into()],
        );
        assert_eq!(out, vec![(Value::Null, Value::Int(7))]);
    }

    #[test]
    fn ir_reducer_runs_reduce_function_per_group() {
        let f = mr_ir::asm::parse_function(
            r#"
            func reduce(key, values) {
              r0 = param value
              r1 = call list.len(r0)
              r2 = param key
              emit r2, r1
              ret
            }
            "#,
        )
        .unwrap();
        let factory = IrReducerFactory::new(f);
        assert!(factory.combiner().is_none(), "no combiner unless proven");
        let mut r = factory.create();
        let mut out = Vec::new();
        r.reduce(
            &Value::str("k"),
            &[Value::Int(9), Value::Int(9), Value::Int(9)],
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![(Value::str("k"), Value::Int(3))]);
    }

    #[test]
    fn ir_reducer_factory_carries_proven_combiner() {
        let f = mr_ir::asm::parse_function("func reduce(key, values) {\n  ret\n}\n").unwrap();
        let factory = IrReducerFactory::with_combiner(f, Builtin::Sum.combiner());
        assert_eq!(factory.combiner().unwrap().name(), "sum");
    }

    #[test]
    fn empty_groups_are_quiet() {
        assert!(run(Builtin::Max, Value::Int(0), vec![]).is_empty());
        assert!(run(Builtin::First, Value::Int(0), vec![]).is_empty());
        assert_eq!(
            run(Builtin::Count, Value::Int(0), vec![])[0].1,
            Value::Int(0)
        );
    }
}
