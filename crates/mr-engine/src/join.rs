//! Two-table equi-join support: tagged-union repartition joins and
//! broadcast hash joins.
//!
//! The Pavlo Benchmark 3 (Rankings⋈UserVisits) joins two tables whose
//! mappers each emit `(join_key, payload)`. The engine runs that join
//! under one of two physical plans, both producing the *same* output
//! pairs `(join_key, [build_payload, probe_payload])`:
//!
//! * **Repartition join** — each [`InputBinding`] carries a
//!   [`JoinSide::Build`] or [`JoinSide::Probe`] role; the engine wraps
//!   the binding's mapper so every emitted value is shuffled as the
//!   tagged union `[tag, payload]` (tag [`BUILD_TAG`] or
//!   [`PROBE_TAG`]), and the [`Builtin::JoinTagged`] reducer buffers
//!   each key group into build/probe sides (arrival order preserved)
//!   and emits the cross product.
//! * **Broadcast hash join** — a single probe-side binding carries
//!   [`JoinSide::Broadcast`] naming the build input and its mapper; the
//!   whole build side is loaded once per job into a shared hash table
//!   ([`BroadcastTable`], one pass per split on every core) and every
//!   map task probes it inline — one hash lookup per emitted probe key
//!   — emitting already-joined pairs. The reducer is plain
//!   [`Builtin::Identity`]; no build rows cross the shuffle at all.
//!
//! Both plans' jobs set [`JobConfig::sort_output`], and that sort is
//! what makes their outputs byte-identical: the plans emit the same
//! pairs in different orders. The sort happens in two places that are
//! one stable sort by `(key, value)`. The reduce grouping loop sorts
//! each key group's emitted pairs as the group is reduced (a Zipf-hot
//! key's ties are sorted where they are already contiguous, on the
//! reduce threads), and the final assembly stably sorts the
//! concatenated partitions — by then a merge of presorted runs. The
//! pre-sort cannot move a byte: a stable sort orders pairs by the
//! comparator and breaks exact ties by position, and stably sorting a
//! contiguous segment first changes neither the comparator's verdicts
//! nor the relative position of two tied pairs, even when a reducer
//! emits keys other than its group key.
//!
//! The wrapping happens at task-planning time on *both* backends
//! ([`effective_factories`]): the job's bindings keep the raw mapper
//! (which is what the process backend ships over the wire as IR
//! assembly, together with the join role), and the worker re-wraps
//! locally after decoding — so broadcast tables are built exactly once
//! per worker process and shared across its map tasks, retries
//! included.
//!
//! Join stages must not combine: a map-side combiner would fold tagged
//! unions across tags and corrupt them. [`Builtin::JoinTagged`]
//! declares no combiner, and dispatch rejects any explicitly configured
//! one with the typed
//! [`EngineError::CombinerRejected`] before any task runs
//! ([`validate_job`]).
//!
//! [`Builtin::JoinTagged`]: crate::reducer::Builtin::JoinTagged
//! [`Builtin::Identity`]: crate::reducer::Builtin::Identity

use std::collections::hash_map::DefaultHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use mr_ir::function::Function;
use mr_ir::value::Value;

use crate::error::{EngineError, Result};
use crate::input::{InputSpec, SplitReader};
use crate::job::{available_parallelism, InputBinding, JobConfig};
use crate::mapper::{IrMapper, MapStats, Mapper, MapperFactory};
use crate::reducer::Builtin;

/// Tag marking a build-side payload in a tagged-union shuffle value.
pub const BUILD_TAG: i64 = 0;

/// Tag marking a probe-side payload in a tagged-union shuffle value.
pub const PROBE_TAG: i64 = 1;

/// The build side of a broadcast hash join: where the build rows come
/// from and the IR map function that extracts `(join_key, payload)`
/// pairs from them — the same function the repartition plan would bind
/// with [`JoinSide::Build`], which is what keeps the two plans'
/// outputs identical.
#[derive(Clone)]
pub struct BroadcastSpec {
    /// The build-side input (a plain seqfile, or a catalog-registered
    /// index input for index-fed broadcasts).
    pub input: InputSpec,
    /// Compiled IR map function emitting `(join_key, payload)`.
    pub mapper: Arc<Function>,
}

impl fmt::Debug for BroadcastSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BroadcastSpec")
            .field("input", &self.input)
            .field("mapper", &self.mapper.name)
            .finish()
    }
}

/// The join role of one [`InputBinding`] (see the module docs).
#[derive(Debug, Clone)]
pub enum JoinSide {
    /// Repartition build side: emitted values shuffle as `[0, v]`.
    Build,
    /// Repartition probe side: emitted values shuffle as `[1, v]`.
    Probe,
    /// Broadcast join probe side: the named build input is loaded into
    /// a shared in-memory table and probed inline by every map task.
    Broadcast(BroadcastSpec),
}

/// Wrap a payload as the tagged-union shuffle value `[tag, payload]`.
pub fn tag_value(tag: i64, payload: Value) -> Value {
    Value::list(vec![Value::Int(tag), payload])
}

/// Split a tagged-union shuffle value back into `(tag, payload)`.
pub fn untag_value(v: &Value) -> Result<(i64, &Value)> {
    if let Value::List(items) = v {
        if items.len() == 2 {
            if let Value::Int(tag) = items[0] {
                if tag == BUILD_TAG || tag == PROBE_TAG {
                    return Ok((tag, &items[1]));
                }
            }
        }
    }
    Err(EngineError::Reduce(format!(
        "join-tagged: value {v} is not a tagged union [0|1, payload] — \
         was a binding without a join role fed into a join stage?"
    )))
}

/// The joined output value both physical plans emit:
/// `[build_payload, probe_payload]`.
pub fn joined_value(build: Value, probe: Value) -> Value {
    Value::list(vec![build, probe])
}

/// Reduce one key group of tagged-union values: partition by tag with
/// arrival order preserved, then emit the build×probe cross product as
/// `(key, [build_payload, probe_payload])` in build-major order. This
/// is [`Builtin::JoinTagged`]'s implementation and the reference
/// semantics the property tests pin down.
pub fn reduce_tagged_group(
    key: &Value,
    values: &[Value],
    out: &mut Vec<(Value, Value)>,
) -> Result<()> {
    let mut build = Vec::new();
    let mut probe = Vec::new();
    for v in values {
        let (tag, payload) = untag_value(v)?;
        if tag == BUILD_TAG {
            build.push(payload);
        } else {
            probe.push(payload);
        }
    }
    for b in &build {
        for p in &probe {
            out.push((key.clone(), joined_value((*b).clone(), (*p).clone())));
        }
    }
    Ok(())
}

/// A broadcast build side loaded into memory: join key → build
/// payloads in build-input order. Hashed under the shuffle's fixed-key
/// SipHash (the hasher behind [`partition`](crate::partition::partition)),
/// so equal keys — `Int(2)` and `Double(2.0)` included — find the same
/// entry. The table is only ever looked up, never iterated, so its
/// order cannot reach the output. A key with one payload (the common
/// case: a build side keyed by its primary key) stores it inline, so
/// loading allocates no per-key list.
#[derive(Default)]
pub struct BroadcastTable {
    map: HashMap<Value, Payloads, BuildHasherDefault<DefaultHasher>>,
}

/// One key's build payloads, in build-input order.
enum Payloads {
    One(Value),
    Many(Vec<Value>),
}

impl BroadcastTable {
    /// The build payloads joined to `key`, in build-input order (empty
    /// when no build row has that key).
    pub fn get(&self, key: &Value) -> &[Value] {
        match self.map.get(key) {
            None => &[],
            Some(Payloads::One(v)) => std::slice::from_ref(v),
            Some(Payloads::Many(vs)) => vs,
        }
    }

    /// Append `payload` after `key`'s earlier payloads.
    fn push(&mut self, key: Value, payload: Value) {
        match self.map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Payloads::One(payload));
            }
            Entry::Occupied(mut e) => e.get_mut().push(payload),
        }
    }
}

impl Payloads {
    fn push(&mut self, payload: Value) {
        match self {
            Payloads::Many(vs) => vs.push(payload),
            Payloads::One(first) => *self = Payloads::Many(vec![std::mem::take(first), payload]),
        }
    }
}

/// Load a broadcast build side by running its mapper over the whole
/// build input, one split per core. Called once per job (local
/// backend) or once per worker process, never per task or per retry.
pub fn load_broadcast_table(spec: &BroadcastSpec) -> Result<Arc<BroadcastTable>> {
    load_table(spec, available_parallelism()).map(Arc::new)
}

/// [`load_broadcast_table`] over `splits` splits: each split's
/// `(join_key, payload)` pairs are collected in input order on a thread
/// of their own, then the table is sized once for all of them and
/// filled split by split — so each key's payloads keep build-input
/// order whatever the split count.
fn load_table(spec: &BroadcastSpec, splits: usize) -> Result<BroadcastTable> {
    let readers = spec.input.open(splits)?;
    let parts: Vec<Result<Vec<(Value, Value)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .map(|reader| scope.spawn(|| map_split(spec, reader)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("broadcast load thread panicked"))
            .collect()
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>>>()?;
    let pairs = parts.iter().map(Vec::len).sum();
    let mut table = BroadcastTable {
        map: HashMap::with_capacity_and_hasher(pairs, Default::default()),
    };
    for (key, payload) in parts.into_iter().flatten() {
        table.push(key, payload);
    }
    Ok(table)
}

/// Run the build mapper over one split, in input order.
fn map_split(spec: &BroadcastSpec, reader: SplitReader) -> Result<Vec<(Value, Value)>> {
    let mut mapper = IrMapper::new(Arc::clone(&spec.mapper));
    let mut pairs = Vec::new();
    for pair in reader {
        let (k, v) = pair?;
        mapper.map(&k, &v, &mut pairs)?;
    }
    Ok(pairs)
}

/// Tags every value the inner mapper emits ([`JoinSide::Build`] /
/// [`JoinSide::Probe`]).
struct TaggingMapper {
    inner: Box<dyn Mapper>,
    tag: i64,
    buf: Vec<(Value, Value)>,
}

impl Mapper for TaggingMapper {
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<MapStats> {
        self.buf.clear();
        let stats = self.inner.map(key, value, &mut self.buf)?;
        out.extend(self.buf.drain(..).map(|(k, v)| (k, tag_value(self.tag, v))));
        Ok(stats)
    }
}

struct TaggingMapperFactory {
    inner: Arc<dyn MapperFactory>,
    tag: i64,
}

impl MapperFactory for TaggingMapperFactory {
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(TaggingMapper {
            inner: self.inner.create(),
            tag: self.tag,
            buf: Vec::new(),
        })
    }
}

/// Probes the shared broadcast table with every key the inner (probe)
/// mapper emits, emitting already-joined pairs.
struct BroadcastMapper {
    inner: Box<dyn Mapper>,
    table: Arc<BroadcastTable>,
    buf: Vec<(Value, Value)>,
}

impl Mapper for BroadcastMapper {
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<MapStats> {
        self.buf.clear();
        let stats = self.inner.map(key, value, &mut self.buf)?;
        for (k, pv) in self.buf.drain(..) {
            for bv in self.table.get(&k) {
                out.push((k.clone(), joined_value(bv.clone(), pv.clone())));
            }
        }
        Ok(stats)
    }
}

struct BroadcastMapperFactory {
    inner: Arc<dyn MapperFactory>,
    table: Arc<BroadcastTable>,
}

impl MapperFactory for BroadcastMapperFactory {
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(BroadcastMapper {
            inner: self.inner.create(),
            table: Arc::clone(&self.table),
            buf: Vec::new(),
        })
    }
}

/// Compute the effective mapper factory for every binding of a job:
/// bindings with a join role get their mapper wrapped (tagging for the
/// repartition sides, table-probing for broadcast), plain bindings
/// pass through untouched. Broadcast build tables are loaded exactly
/// once here, so every task — retries and speculative duplicates
/// included — shares one table. Both backends call this before
/// planning tasks.
pub fn effective_factories(inputs: &[InputBinding]) -> Result<Vec<Arc<dyn MapperFactory>>> {
    inputs
        .iter()
        .map(|binding| -> Result<Arc<dyn MapperFactory>> {
            Ok(match &binding.join {
                None => Arc::clone(&binding.mapper),
                Some(JoinSide::Build) => Arc::new(TaggingMapperFactory {
                    inner: Arc::clone(&binding.mapper),
                    tag: BUILD_TAG,
                }),
                Some(JoinSide::Probe) => Arc::new(TaggingMapperFactory {
                    inner: Arc::clone(&binding.mapper),
                    tag: PROBE_TAG,
                }),
                Some(JoinSide::Broadcast(spec)) => Arc::new(BroadcastMapperFactory {
                    inner: Arc::clone(&binding.mapper),
                    table: load_broadcast_table(spec)?,
                }),
            })
        })
        .collect()
}

/// `true` when any binding of the job carries a join role.
pub fn is_join_stage(job: &JobConfig) -> bool {
    job.inputs.iter().any(|b| b.join.is_some())
        || job.reducer.as_builtin() == Some(Builtin::JoinTagged)
}

/// Reject invalid join configurations before any task runs — today
/// that is exactly one hazard: a combiner on a join stage, which would
/// silently fold `[tag, payload]` unions across tags. Called by
/// backend dispatch, so it covers the local and process backends
/// alike.
pub fn validate_job(job: &JobConfig) -> Result<()> {
    if !is_join_stage(job) {
        return Ok(());
    }
    if let Some(combiner) = &job.combiner {
        let reducer = match job.reducer.as_builtin() {
            Some(b) => b.name().to_string(),
            None => "user-defined".to_string(),
        };
        return Err(EngineError::CombinerRejected {
            reducer,
            reason: format!(
                "join stages shuffle tagged-union [tag, payload] values; \
                 combiner `{}` would fold across tags and corrupt them",
                combiner.name()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::asm::parse_function;
    use mr_ir::record::record;
    use mr_ir::schema::{FieldType, Schema};
    use mr_storage::seqfile::SeqFileWriter;

    #[test]
    fn tag_untag_round_trip() {
        let v = tag_value(BUILD_TAG, Value::str("payload"));
        let (tag, payload) = untag_value(&v).unwrap();
        assert_eq!(tag, BUILD_TAG);
        assert_eq!(payload, &Value::str("payload"));
    }

    #[test]
    fn untag_rejects_untagged_values() {
        for bad in [
            Value::Int(7),
            Value::str("plain"),
            Value::list(vec![Value::Int(2), Value::Null]),
            Value::list(vec![Value::Int(0)]),
        ] {
            let err = untag_value(&bad).unwrap_err();
            assert!(matches!(err, EngineError::Reduce(_)), "{bad}");
        }
    }

    #[test]
    fn tagged_group_emits_cross_product_in_order() {
        let key = Value::str("url");
        let values = vec![
            tag_value(PROBE_TAG, Value::str("p1")),
            tag_value(BUILD_TAG, Value::str("b1")),
            tag_value(PROBE_TAG, Value::str("p2")),
            tag_value(BUILD_TAG, Value::str("b2")),
        ];
        let mut out = Vec::new();
        reduce_tagged_group(&key, &values, &mut out).unwrap();
        let pairs: Vec<(Value, Value)> = out
            .iter()
            .map(|(_, v)| match v {
                Value::List(items) => (items[0].clone(), items[1].clone()),
                other => panic!("not a joined pair: {other}"),
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                (Value::str("b1"), Value::str("p1")),
                (Value::str("b1"), Value::str("p2")),
                (Value::str("b2"), Value::str("p1")),
                (Value::str("b2"), Value::str("p2")),
            ]
        );
    }

    #[test]
    fn unmatched_sides_emit_nothing() {
        let mut out = Vec::new();
        reduce_tagged_group(
            &Value::str("k"),
            &[tag_value(BUILD_TAG, Value::Int(1))],
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty(), "build row without probes must not emit");
    }

    fn key_value_mapper() -> Function {
        parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.k
              r2 = field r0.v
              emit r1, r2
              ret
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn broadcast_table_loads_in_input_order() {
        let schema =
            Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc();
        let dir = std::env::temp_dir().join("mr-engine-join-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bcast-{}", std::process::id()));
        // Four sequence-file blocks; keys `a` and `b` repeat in every
        // one, `c` only in the last.
        let rows = 3 * mr_storage::blockindex::BLOCK_RECORDS as i64 + 10;
        let key = |v: i64| match v {
            v if v == rows - 1 => "c",
            v if v % 3 == 0 => "a",
            _ => "b",
        };
        let mut w = SeqFileWriter::create(&path, Arc::clone(&schema)).unwrap();
        for v in 0..rows {
            w.append(&record(&schema, vec![key(v).into(), Value::Int(v)]))
                .unwrap();
        }
        w.finish().unwrap();

        let spec = BroadcastSpec {
            input: InputSpec::SeqFile { path: path.clone() },
            mapper: Arc::new(key_value_mapper()),
        };
        let in_order = |k: &str| -> Vec<Value> {
            (0..rows).filter(|&v| key(v) == k).map(Value::Int).collect()
        };
        for splits in [1, 2, 4] {
            let table = load_table(&spec, splits).unwrap();
            assert_eq!(spec.input.open(splits).unwrap().len(), splits);
            for k in ["a", "b", "c"] {
                assert_eq!(
                    table.get(&Value::str(k)),
                    in_order(k),
                    "payloads keep build-input order across {splits} splits"
                );
            }
            assert!(table.get(&Value::str("z")).is_empty());
        }
        std::fs::remove_file(&path).ok();
    }
}
