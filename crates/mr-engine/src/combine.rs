//! Map-side combining: the pluggable aggregation pipeline.
//!
//! The paper's fabric shuffles every emitted pair to reduce; for
//! algebraic aggregates (sum, count, max …) that is wasted traffic —
//! duplicates of a key can be folded *at the map side* without changing
//! the final output, which is exactly Hadoop's combiner. Here the
//! combiner is not programmer-supplied but **declared or proven**: the
//! builtin reducers declare their combiners directly
//! ([`Builtin::combiner`]) and `mr-analysis::combine` proves IR reduce
//! programs combiner-safe, in the Manimal spirit of analysis-selected
//! optimizations.
//!
//! A [`Combiner`] splits a reducer into the classic algebraic triple:
//! *inject* lifts one raw map-output value into a partial-aggregate
//! domain, *merge* folds two partials (and must be associative and
//! commutative), and *finish* turns a key's total into the final output
//! pairs — chosen so that `finish(key, merge-fold(inject(vs)))` equals
//! the original `reduce(key, vs)` byte for byte.
//!
//! [`CombineStrategy`] is the pipeline object the runner threads through
//! every shuffle stage; with no combiner it is a pass-through and the
//! engine behaves exactly like the seed. With a combiner, folding fires
//! at three sites:
//!
//! 1. **Staging** (`staging.rs`): each emit is injected and
//!    hash-aggregated into its partition's table as it is staged, one
//!    partial per key per drain — until the attempt sees the table is
//!    not reducing and bails out to pass-through. After this point
//!    every pair in the shuffle is a partial.
//! 2. **Spill time** ([`CombineStrategy::combine_sorted`]): a detached
//!    buffer is folded after its stable sort, adjacent equal keys
//!    merged in place, so runs shrink before they hit disk. Compaction
//!    folds the same way while it rewrites runs.
//! 3. **The merge grouping loop** ([`CombineStrategy::make_reducer`]):
//!    reduce streams each key's surviving partials through the same
//!    grouping loop as always, but the "reducer" folds them with
//!    *merge* and emits via *finish*.
//!
//! The counters count each pair once per site it passes. Site 1:
//! `combine_in` is the emits that entered a table, `combine_out` the
//! entries the tables handed downstream, and `combine_bypassed` the
//! emits staged after the bail-out (in neither of the other two), so
//! `combine_in + combine_bypassed = map_output_records` whenever a
//! combiner is active. Site 2 and compaction: the pairs before and
//! after the merge. `combine_in - combine_out` is exactly the shuffle
//! traffic the combiner removed; the reduce-side fold of site 3 removes
//! none and is deliberately not counted.

use std::sync::Arc;

use mr_ir::value::Value;

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::reducer::{Builtin, Reducer, ReducerFactory};

/// An algebraic map-side combiner for one reducer.
///
/// Correctness contract: `merge` must be associative and commutative
/// over the partial domain, and for every group
/// `finish(key, fold(merge, inject(values)))` must equal what the
/// original reducer produces on the raw `values`. (For floating-point
/// sums "equal" holds only up to addition reassociation — the same
/// caveat Hadoop combiners carry; integer aggregates are exact.)
pub trait Combiner: Send + Sync {
    /// Lift one raw map-output value into the partial-aggregate domain.
    fn inject(&self, key: &Value, value: &Value) -> Result<Value>;

    /// Fold another partial into the accumulator. Associative and
    /// commutative.
    fn merge(&self, key: &Value, acc: Value, other: &Value) -> Result<Value>;

    /// Turn a key's total partial into the final output pairs — must
    /// match the original reducer's output on the raw values.
    fn finish(&self, key: &Value, total: Value, out: &mut Vec<(Value, Value)>) -> Result<()>;

    /// Short name for plan summaries and counters displays.
    fn name(&self) -> &'static str {
        "combiner"
    }
}

/// Approximate serialized size of one pair — the same estimate the
/// `shuffle_bytes` counter and the shuffle budget accounting use.
pub(crate) fn pair_bytes(k: &Value, v: &Value) -> usize {
    k.payload_size() + v.payload_size() + 2
}

/// The pluggable aggregation pipeline handed to every shuffle stage.
///
/// Wraps `Option<Arc<dyn Combiner>>`: with `None` every method is a
/// pass-through and the emit→spill→merge pipeline behaves exactly like
/// the combiner-free seed path.
#[derive(Clone, Default)]
pub struct CombineStrategy {
    combiner: Option<Arc<dyn Combiner>>,
}

impl CombineStrategy {
    /// A strategy around an optional combiner.
    pub fn new(combiner: Option<Arc<dyn Combiner>>) -> CombineStrategy {
        CombineStrategy { combiner }
    }

    /// The pass-through strategy (no combining).
    pub fn passthrough() -> CombineStrategy {
        CombineStrategy::default()
    }

    /// Whether a combiner is plugged in.
    pub fn is_active(&self) -> bool {
        self.combiner.is_some()
    }

    /// The plugged-in combiner, for stages that fold streamingly.
    pub fn active(&self) -> Option<&dyn Combiner> {
        self.combiner.as_deref()
    }

    /// The combiner's display name, when active.
    pub fn name(&self) -> Option<&'static str> {
        self.combiner.as_deref().map(Combiner::name)
    }

    /// Site 2 — fold a key-sorted buffer of *partials* in place: each
    /// run of adjacent equal keys merges, in order, into its first pair.
    pub fn combine_sorted(
        &self,
        pairs: &mut Vec<(Value, Value)>,
        counters: &Counters,
    ) -> Result<()> {
        let Some(combiner) = &self.combiner else {
            return Ok(());
        };
        if pairs.is_empty() {
            return Ok(());
        }
        Counters::add(&counters.combine_in, pairs.len() as u64);
        let mut last = 0;
        for next in 1..pairs.len() {
            let (kept, rest) = pairs.split_at_mut(next);
            let (key, acc) = &mut kept[last];
            if *key == rest[0].0 {
                *acc = combiner.merge(key, std::mem::take(acc), &rest[0].1)?;
            } else {
                last += 1;
                pairs.swap(last, next);
            }
        }
        pairs.truncate(last + 1);
        Counters::add(&counters.combine_out, pairs.len() as u64);
        Ok(())
    }

    /// Site 3 — the reducer the merge grouping loop should run. Without
    /// a combiner this is the job's own reducer; with one, it is a
    /// [`Reducer`] that merges each group's partials and emits via
    /// `finish`, so the grouping loop itself is reused unchanged. This
    /// site does not touch the combine counters: the reduce-side fold
    /// removes no shuffle traffic, and keeping it out preserves the
    /// `combine_in - combine_out = pairs the shuffle never carried`
    /// reading.
    pub fn make_reducer(&self, fallback: &Arc<dyn ReducerFactory>) -> Box<dyn Reducer> {
        match &self.combiner {
            None => fallback.create(),
            Some(c) => Box::new(CombiningReducer {
                combiner: Arc::clone(c),
            }),
        }
    }
}

impl std::fmt::Debug for CombineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.name() {
            Some(n) => write!(f, "CombineStrategy({n})"),
            None => write!(f, "CombineStrategy(passthrough)"),
        }
    }
}

/// The reduce-side half of an active combiner: each key group arriving
/// from the merge holds that key's surviving partials (one per staging
/// drain, pass-through emit or spill that saw the key); fold them and
/// finish.
struct CombiningReducer {
    combiner: Arc<dyn Combiner>,
}

impl Reducer for CombiningReducer {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        let (first, rest) = values
            .split_first()
            .ok_or_else(|| EngineError::Combine("empty group".into()))?;
        let mut acc = first.clone();
        for v in rest {
            acc = self.combiner.merge(key, acc, v)?;
        }
        self.combiner.finish(key, acc, out)
    }
}

/// The combiner a builtin reducer declares for itself (its algebraic
/// decomposition), or `None` when the reducer is not an associative,
/// commutative aggregate (`Identity` passes everything through; `First`
/// is order-dependent — associative but not commutative).
impl Builtin {
    /// The declared combiner, if this reducer has one.
    pub fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        match self {
            Builtin::Sum | Builtin::Count | Builtin::Max | Builtin::Min | Builtin::SumDropKey => {
                Some(Arc::new(BuiltinCombiner { kind: *self }))
            }
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => None,
        }
    }
}

/// Look a builtin combiner up by its [`Combiner::name`]. The process
/// backend ships combiners to worker processes by name; only the
/// builtin library is addressable this way.
pub fn combiner_by_name(name: &str) -> Option<Arc<dyn Combiner>> {
    Builtin::ALL
        .into_iter()
        .filter_map(|b| b.combiner())
        .find(|c| c.name() == name)
}

/// The declared combiners of the builtin reducer library.
struct BuiltinCombiner {
    kind: Builtin,
}

/// The `Sum` partial domain mirrors the raw reducer's *split*
/// accumulator exactly: `Builtin::Sum` keeps an `i64` wrapping int sum
/// and an `f64` float sum separately, converting once at the end — so
/// a partial is either `Int(int_sum)` (no float seen) or
/// `List([Int(int_sum), Double(float_sum)])` (a float was seen).
/// Folding in `i64` until `finish` keeps int overflow wrapping exactly
/// like the raw path; eagerly promoting to `f64` would not (a wrapped
/// `i64::MAX + 1` flips sign, an `f64` just loses precision).
fn sum_merge(key: &Value, acc: Value, other: &Value) -> Result<Value> {
    // Decompose a partial into (int_sum, Option<float_sum>).
    let parts = |v: &Value| -> Result<(i64, Option<f64>)> {
        match v {
            Value::Int(i) => Ok((*i, None)),
            Value::Double(d) => Ok((0, Some(*d))),
            Value::List(kv) => match &kv[..] {
                [Value::Int(i), Value::Double(f)] => Ok((*i, Some(*f))),
                _ => Err(EngineError::Combine(format!(
                    "sum: malformed partial {v} for key {key}"
                ))),
            },
            other => Err(EngineError::Combine(format!(
                "sum: non-numeric value {other} for key {key}"
            ))),
        }
    };
    let (ai, af) = parts(&acc)?;
    let (bi, bf) = parts(other)?;
    let int_sum = ai.wrapping_add(bi);
    Ok(match (af, bf) {
        (None, None) => Value::Int(int_sum),
        (af, bf) => Value::list(vec![
            Value::Int(int_sum),
            Value::Double(af.unwrap_or(0.0) + bf.unwrap_or(0.0)),
        ]),
    })
}

impl Combiner for BuiltinCombiner {
    fn inject(&self, key: &Value, value: &Value) -> Result<Value> {
        match self.kind {
            Builtin::Sum => match value {
                Value::Int(_) | Value::Double(_) => Ok(value.clone()),
                other => Err(EngineError::Combine(format!(
                    "Sum: non-numeric value {other} for key {key}"
                ))),
            },
            Builtin::Count => Ok(Value::Int(1)),
            Builtin::Max | Builtin::Min => Ok(value.clone()),
            Builtin::SumDropKey => match value.as_int() {
                Some(i) => Ok(Value::Int(i)),
                None => Err(EngineError::Combine(format!(
                    "SumDropKey: non-integer value {value}"
                ))),
            },
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => {
                Err(EngineError::Combine("reducer declares no combiner".into()))
            }
        }
    }

    fn merge(&self, key: &Value, acc: Value, other: &Value) -> Result<Value> {
        match self.kind {
            Builtin::Sum => sum_merge(key, acc, other),
            Builtin::Count | Builtin::SumDropKey => match (&acc, other) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                _ => Err(EngineError::Combine(format!(
                    "count: non-integer partial for key {key}"
                ))),
            },
            // `>=` / `<` mirror `Iterator::max` (last of equals) and
            // `Iterator::min` (first of equals) over the stable merged
            // order, keeping byte-identity when equal values differ in
            // representation (e.g. Int(2) vs Double(2.0)).
            Builtin::Max => Ok(if *other >= acc { other.clone() } else { acc }),
            Builtin::Min => Ok(if *other < acc { other.clone() } else { acc }),
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => {
                Err(EngineError::Combine("reducer declares no combiner".into()))
            }
        }
    }

    fn finish(&self, key: &Value, total: Value, out: &mut Vec<(Value, Value)>) -> Result<()> {
        match self.kind {
            Builtin::SumDropKey => out.push((Value::Null, total)),
            Builtin::Sum => {
                // Convert the split partial the way the raw reducer
                // converts its accumulators: int sum stays Int, a seen
                // float makes the total Double(float_sum + int_sum).
                let total = match total {
                    Value::List(kv) => match &kv[..] {
                        [Value::Int(i), Value::Double(f)] => Value::Double(f + *i as f64),
                        _ => {
                            return Err(EngineError::Combine(format!(
                                "sum: malformed partial for key {key}"
                            )))
                        }
                    },
                    Value::Double(d) => Value::Double(d),
                    other => other,
                };
                out.push((key.clone(), total));
            }
            _ => out.push((key.clone(), total)),
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        match self.kind {
            Builtin::Sum => "sum",
            Builtin::Count => "count",
            Builtin::Max => "max",
            Builtin::Min => "min",
            Builtin::SumDropKey => "sum-drop-key",
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => "none",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strategy(b: Builtin) -> CombineStrategy {
        CombineStrategy::new(b.combiner())
    }

    #[test]
    fn builtins_declare_expected_combiners() {
        for b in [
            Builtin::Sum,
            Builtin::Count,
            Builtin::Max,
            Builtin::Min,
            Builtin::SumDropKey,
        ] {
            assert!(b.combiner().is_some(), "{b:?} should declare a combiner");
        }
        assert!(Builtin::Identity.combiner().is_none());
        assert!(Builtin::First.combiner().is_none());
        assert!(
            Builtin::JoinTagged.combiner().is_none(),
            "folding tagged-union join values would corrupt them"
        );
    }

    /// The reference the in-place merge is compared against: clone each
    /// pair into a fresh `Vec`, merging adjacent equal keys on the way.
    fn fold_sorted(pairs: &[(Value, Value)], combiner: &dyn Combiner) -> Vec<(Value, Value)> {
        let mut folded: Vec<(Value, Value)> = Vec::new();
        for (k, v) in pairs {
            match folded.last_mut() {
                Some((fk, acc)) if fk == k => {
                    *acc = combiner.merge(k, std::mem::take(acc), v).unwrap();
                }
                _ => folded.push((k.clone(), v.clone())),
            }
        }
        folded
    }

    #[test]
    fn in_place_merge_matches_the_reference_fold() {
        // Key runs of every length at the front, middle and end, with
        // Int/Double keys and values that compare equal but print
        // differently.
        let keys = [0i64, 0, 0, 1, 2, 2, 3, 4, 4, 4, 4, 5, 6, 6];
        for b in [Builtin::Sum, Builtin::Max, Builtin::Min] {
            for len in 0..=keys.len() {
                let mut pairs: Vec<(Value, Value)> = keys[..len]
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| match i % 2 {
                        0 => (Value::Int(k), Value::Int(7)),
                        _ => (Value::Double(k as f64), Value::Double(7.0)),
                    })
                    .collect();
                let combiner = b.combiner().unwrap();
                let expect = fold_sorted(&pairs, combiner.as_ref());
                let counters = Counters::new();
                strategy(b).combine_sorted(&mut pairs, &counters).unwrap();
                assert_eq!(format!("{pairs:?}"), format!("{expect:?}"), "{b:?} {len}");
                let snap = counters.snapshot();
                assert_eq!(snap.combine_in, len as u64);
                assert_eq!(snap.combine_out, expect.len() as u64);
            }
        }
    }

    #[test]
    fn passthrough_changes_nothing() {
        let counters = Counters::new();
        let mut pairs = vec![
            (Value::str("b"), Value::Int(1)),
            (Value::str("b"), Value::Int(3)),
        ];
        let orig = pairs.clone();
        let s = CombineStrategy::passthrough();
        assert!(!s.is_active());
        s.combine_sorted(&mut pairs, &counters).unwrap();
        assert_eq!(pairs, orig);
        assert_eq!(counters.snapshot().combine_in, 0);
    }

    #[test]
    fn combining_reducer_finishes_like_the_raw_reducer() {
        for (b, raw_values, key) in [
            (
                Builtin::Sum,
                vec![Value::Int(5), Value::Int(-2), Value::Int(10)],
                Value::str("k"),
            ),
            (
                Builtin::Max,
                vec![Value::Int(5), Value::Int(99), Value::Int(10)],
                Value::str("k"),
            ),
            (
                Builtin::Min,
                vec![Value::Int(5), Value::Int(-2)],
                Value::str("k"),
            ),
            (
                Builtin::SumDropKey,
                vec![Value::Int(3), Value::Int(4)],
                Value::str("url"),
            ),
        ] {
            let mut raw_out = Vec::new();
            b.create().reduce(&key, &raw_values, &mut raw_out).unwrap();

            let combiner = b.combiner().unwrap();
            let partials: Vec<Value> = raw_values
                .iter()
                .map(|v| combiner.inject(&key, v).unwrap())
                .collect();
            let s = CombineStrategy::new(Some(combiner));
            let factory: Arc<dyn ReducerFactory> = Arc::new(b);
            let mut reducer = s.make_reducer(&factory);
            let mut out = Vec::new();
            reducer.reduce(&key, &partials, &mut out).unwrap();
            assert_eq!(out, raw_out, "{b:?}");
        }
    }

    #[test]
    fn sum_partial_keeps_int_overflow_wrapping_like_the_raw_reducer() {
        // Mixed group where eager f64 promotion would flip the sign of
        // the wrapped int sum: the partial must keep ints in i64.
        let key = Value::str("k");
        let values = vec![Value::Int(i64::MAX), Value::Double(0.0), Value::Int(1)];
        let mut raw_out = Vec::new();
        Builtin::Sum
            .create()
            .reduce(&key, &values, &mut raw_out)
            .unwrap();

        let c = Builtin::Sum.combiner().unwrap();
        // Fold in every grouping order; all must match the raw output.
        for order in [[0usize, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]] {
            let mut acc = c.inject(&key, &values[order[0]]).unwrap();
            for &i in &order[1..] {
                let p = c.inject(&key, &values[i]).unwrap();
                acc = c.merge(&key, acc, &p).unwrap();
            }
            let mut out = Vec::new();
            c.finish(&key, acc, &mut out).unwrap();
            assert_eq!(out, raw_out, "order {order:?}");
        }
    }

    #[test]
    fn sum_mixed_int_float_matches_raw_reducer() {
        let key = Value::str("k");
        let values = vec![Value::Int(3), Value::Double(0.25), Value::Int(4)];
        let mut raw_out = Vec::new();
        Builtin::Sum
            .create()
            .reduce(&key, &values, &mut raw_out)
            .unwrap();
        let c = Builtin::Sum.combiner().unwrap();
        let mut acc = c.inject(&key, &values[0]).unwrap();
        for v in &values[1..] {
            let p = c.inject(&key, v).unwrap();
            acc = c.merge(&key, acc, &p).unwrap();
        }
        let mut out = Vec::new();
        c.finish(&key, acc, &mut out).unwrap();
        assert_eq!(out, raw_out);
    }

    #[test]
    fn sum_rejects_non_numeric_on_inject() {
        let c = Builtin::Sum.combiner().unwrap();
        assert!(c.inject(&Value::str("k"), &Value::str("oops")).is_err());
    }

    #[test]
    fn max_keeps_last_of_equal_values_like_iter_max() {
        // Int(2) and Double(2.0) compare equal; Iterator::max keeps the
        // last one seen, so merge must too.
        let c = Builtin::Max.combiner().unwrap();
        let k = Value::Null;
        let merged = c.merge(&k, Value::Int(2), &Value::Double(2.0)).unwrap();
        assert_eq!(format!("{merged:?}"), format!("{:?}", Value::Double(2.0)));
        let c = Builtin::Min.combiner().unwrap();
        let merged = c.merge(&k, Value::Int(2), &Value::Double(2.0)).unwrap();
        assert_eq!(format!("{merged:?}"), format!("{:?}", Value::Int(2)));
    }
}
