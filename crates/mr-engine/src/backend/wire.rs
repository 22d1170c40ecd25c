//! Payload codecs for the task protocol: how a [`JobConfig`] and the
//! task/result messages travel between the coordinator and its worker
//! processes.
//!
//! Payloads are compact JSON ([`mr_json`]) with two conventions on top:
//!
//! * `u64` quantities (counters, byte totals) are **decimal strings**,
//!   never JSON numbers — exactness must not depend on a reader's
//!   number representation.
//! * Binary leaves — [`Value`]s and [`Schema`]s — ride as lowercase hex
//!   of their rowcodec encoding (docs/FORMATS.md), so the wire reuses
//!   the storage layer's one canonical byte format instead of
//!   inventing a JSON mapping for typed values.
//!
//! Code travels as text: mappers and IR reducers are shipped as MR-IR
//! assembly and re-parsed in the worker; builtin reducers and combiners
//! go by name. A job built from native `Fn` factories has no such
//! representation and is rejected with a [`EngineError::Config`] before
//! any worker is forked.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::asm::parse_function;
use mr_ir::printer::to_asm;
use mr_ir::schema::Schema;
use mr_ir::value::Value;
use mr_json::{Json, JsonError};
use mr_storage::blockcodec::ShuffleCompression;
use mr_storage::{hex, rowcodec, ScanBound, StorageError};

use crate::combine::{combiner_by_name, Combiner};
use crate::counters::CounterSnapshot;
use crate::error::{EngineError, Result};
use crate::fault::FaultPlan;
use crate::input::InputSpec;
use crate::job::{InputBinding, JobConfig};
use crate::join::{BroadcastSpec, JoinSide};
use crate::mapper::IrMapperFactory;
use crate::reducer::{Builtin, IrReducerFactory, ReducerFactory};
use crate::spill::SpillRun;

fn bad(detail: impl Into<String>) -> EngineError {
    EngineError::Storage(StorageError::corrupt("task-protocol payload", detail))
}

/// A task-protocol payload is the only JSON this crate reads, so a
/// missing or mistyped field is always a corrupt payload.
impl From<JsonError> for EngineError {
    fn from(e: JsonError) -> EngineError {
        bad(e.to_string())
    }
}

// ---- scalar helpers ----------------------------------------------------

fn value_hex(v: &Value) -> Result<String> {
    let mut buf = Vec::new();
    rowcodec::encode_value(v, &mut buf).map_err(EngineError::Storage)?;
    Ok(hex::encode(&buf))
}

fn value_from_hex(s: &str) -> Result<Value> {
    let buf = hex::decode(s)?;
    let (v, _) = rowcodec::decode_value(&buf).map_err(EngineError::Storage)?;
    Ok(v)
}

fn schema_hex(schema: &Schema) -> String {
    let mut buf = Vec::new();
    rowcodec::encode_schema(schema, &mut buf);
    hex::encode(&buf)
}

fn schema_from_hex(s: &str) -> Result<Arc<Schema>> {
    let buf = hex::decode(s)?;
    let (schema, _) = rowcodec::decode_schema(&buf).map_err(EngineError::Storage)?;
    Ok(schema.into_arc())
}

fn u64_json(v: u64) -> Json {
    Json::str(v.to_string())
}

fn usize_json(v: usize) -> Json {
    Json::Int(v as i64)
}

fn path_json(p: &Path) -> Result<Json> {
    p.to_str()
        .map(Json::str)
        .ok_or_else(|| EngineError::Config(format!("non-UTF-8 path {p:?} cannot travel")))
}

fn parse_payload(payload: &[u8]) -> Result<Json> {
    let text = std::str::from_utf8(payload).map_err(|_| bad("payload is not UTF-8"))?;
    mr_json::parse(text).map_err(|e| bad(format!("payload is not JSON: {e}")))
}

// ---- counters ----------------------------------------------------------

fn snapshot_json(s: &CounterSnapshot) -> Json {
    let fields = s.fields().into_iter();
    Json::Obj(fields.map(|(name, v)| (name.into(), u64_json(v))).collect())
}

fn snapshot_from_json(j: &Json) -> Result<CounterSnapshot> {
    let mut s = CounterSnapshot::default();
    for (name, slot) in s.fields_mut() {
        *slot = j.decimal_u64_field(name)?;
    }
    Ok(s)
}

// ---- inputs ------------------------------------------------------------

fn bound_json(b: &ScanBound) -> Result<Json> {
    Ok(match b {
        ScanBound::Unbounded => Json::obj([("t", Json::str("u"))]),
        ScanBound::Incl(v) => Json::obj([("t", Json::str("i")), ("v", Json::str(value_hex(v)?))]),
        ScanBound::Excl(v) => Json::obj([("t", Json::str("e")), ("v", Json::str(value_hex(v)?))]),
    })
}

fn bound_from_json(j: &Json) -> Result<ScanBound> {
    match j.str_field("t")? {
        "u" => Ok(ScanBound::Unbounded),
        "i" => Ok(ScanBound::Incl(value_from_hex(j.str_field("v")?)?)),
        "e" => Ok(ScanBound::Excl(value_from_hex(j.str_field("v")?)?)),
        other => Err(bad(format!("unknown scan bound tag `{other}`"))),
    }
}

fn input_json(spec: &InputSpec) -> Result<Json> {
    Ok(match spec {
        InputSpec::SeqFile { path } => {
            Json::obj([("kind", Json::str("seq")), ("path", path_json(path)?)])
        }
        InputSpec::BTreeRanges { path, ranges } => {
            let mut arr = Vec::with_capacity(ranges.len());
            for (lo, hi) in ranges {
                arr.push(Json::Arr(vec![bound_json(lo)?, bound_json(hi)?]));
            }
            Json::obj([
                ("kind", Json::str("btree")),
                ("path", path_json(path)?),
                ("ranges", Json::Arr(arr)),
            ])
        }
        InputSpec::Projected {
            path,
            source_schema,
        } => Json::obj([
            ("kind", Json::str("proj")),
            ("path", path_json(path)?),
            ("schema", Json::str(schema_hex(source_schema))),
        ]),
        InputSpec::Delta { path } => {
            Json::obj([("kind", Json::str("delta")), ("path", path_json(path)?)])
        }
        InputSpec::Dict { path } => {
            Json::obj([("kind", Json::str("dict")), ("path", path_json(path)?)])
        }
    })
}

fn input_from_json(j: &Json) -> Result<InputSpec> {
    let path = PathBuf::from(j.str_field("path")?);
    match j.str_field("kind")? {
        "seq" => Ok(InputSpec::SeqFile { path }),
        "btree" => {
            let mut ranges = Vec::new();
            for r in j.arr_field("ranges")? {
                let pair = r
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or_else(|| bad("scan range is not a two-element array"))?;
                ranges.push((bound_from_json(&pair[0])?, bound_from_json(&pair[1])?));
            }
            Ok(InputSpec::BTreeRanges { path, ranges })
        }
        "proj" => Ok(InputSpec::Projected {
            path,
            source_schema: schema_from_hex(j.str_field("schema")?)?,
        }),
        "delta" => Ok(InputSpec::Delta { path }),
        "dict" => Ok(InputSpec::Dict { path }),
        other => Err(bad(format!("unknown input kind `{other}`"))),
    }
}

// ---- the job -----------------------------------------------------------

/// A [`JobConfig`] as a worker process sees it: the wire-travelling
/// subset (inputs, code, knobs that shape task execution) plus the
/// shared job directory everything commits into. Output routing,
/// backend choice, and pool wiring stay coordinator-side.
pub(crate) struct WireJob {
    /// Shared job spill directory (attempt dirs and committed runs).
    pub job_dir: PathBuf,
    /// Reduce partition count (pre-clamped, ≥ 1).
    pub num_reducers: usize,
    /// Split hint — must match the coordinator's task planning so both
    /// sides see identical split boundaries.
    pub map_parallelism: usize,
    /// Shuffle budget; workers derive their staging cap from it.
    pub shuffle_buffer_bytes: Option<usize>,
    /// Spill-run codec.
    pub compression: ShuffleCompression,
    /// [`JobConfig::sort_output`]: reduce attempts sort each key
    /// group's emitted pairs.
    pub sort_output: bool,
    /// Map-side combiner (by-name builtin), if any.
    pub combiner: Option<Arc<dyn Combiner>>,
    /// Record-level fault schedule (the worker consults map/reduce
    /// record faults only; process-level kill/slow sites are the
    /// coordinator's job, and io-site faults do not run in workers).
    pub fault: Option<FaultPlan>,
    /// The reduce function.
    pub reducer: Arc<dyn ReducerFactory>,
    /// Inputs with their (IR) mappers.
    pub inputs: Vec<InputBinding>,
    /// Straggler injection: sleep this long before every task this
    /// worker runs (0 = no delay).
    pub slow_ms: u64,
}

/// Serialize the wire-travelling subset of `job` for one worker.
/// Fails with [`EngineError::Config`] when the job contains native
/// closures (mapper or reducer without an IR/builtin representation)
/// or a combiner outside the builtin library.
pub(crate) fn encode_job(job: &JobConfig, job_dir: &Path, slow_ms: u64) -> Result<Vec<u8>> {
    let reducer = if let Some(b) = job.reducer.as_builtin() {
        Json::obj([("builtin", Json::str(b.name()))])
    } else if let Some(f) = job.reducer.ir_function() {
        Json::obj([("ir", Json::str(to_asm(f)))])
    } else {
        return Err(EngineError::Config(
            "process backend requires a wire-serializable reducer \
             (builtin or IR); a native closure factory cannot travel"
                .into(),
        ));
    };
    let combiner = match &job.combiner {
        None => Json::Null,
        Some(c) => {
            let name = c.name();
            if combiner_by_name(name).is_none() {
                return Err(EngineError::Config(format!(
                    "process backend cannot ship combiner `{name}`: \
                     not in the builtin combiner library"
                )));
            }
            Json::str(name)
        }
    };
    let mut inputs = Vec::with_capacity(job.inputs.len());
    for (i, binding) in job.inputs.iter().enumerate() {
        let Some(func) = binding.mapper.ir_function() else {
            return Err(EngineError::Config(format!(
                "process backend requires IR mappers; input {i} has a \
                 native closure mapper that cannot travel"
            )));
        };
        // Join roles travel as markers; a broadcast role ships its
        // build input plus build-mapper IR, and the worker re-loads the
        // table locally (build rows never cross the socket).
        let join = match &binding.join {
            None => Json::Null,
            Some(JoinSide::Build) => Json::str("build"),
            Some(JoinSide::Probe) => Json::str("probe"),
            Some(JoinSide::Broadcast(spec)) => Json::obj([
                ("input", input_json(&spec.input)?),
                ("mapper", Json::str(to_asm(&spec.mapper))),
            ]),
        };
        inputs.push(Json::obj([
            ("mapper", Json::str(to_asm(func))),
            ("input", input_json(&binding.input)?),
            ("join", join),
        ]));
    }
    let obj = Json::obj([
        ("job_dir", path_json(job_dir)?),
        ("num_reducers", usize_json(job.num_reducers.max(1))),
        ("map_parallelism", usize_json(job.map_parallelism.max(1))),
        (
            "shuffle_buffer_bytes",
            match job.shuffle_buffer_bytes {
                Some(b) => usize_json(b),
                None => Json::Null,
            },
        ),
        ("compression", Json::str(job.shuffle_compression.name())),
        ("sort_output", Json::Bool(job.sort_output)),
        ("combiner", combiner),
        (
            "fault",
            match &job.fault_plan {
                Some(p) => Json::str(p.to_string()),
                None => Json::Null,
            },
        ),
        ("reducer", reducer),
        ("inputs", Json::Arr(inputs)),
        ("slow_ms", u64_json(slow_ms)),
    ]);
    Ok(obj.to_string_compact().into_bytes())
}

/// Decode a job payload in a worker process.
pub(crate) fn decode_job(payload: &[u8]) -> Result<WireJob> {
    let j = parse_payload(payload)?;
    let reducer_json = j.field("reducer")?;
    let reducer: Arc<dyn ReducerFactory> = if let Some(name) =
        reducer_json.get("builtin").and_then(Json::as_str)
    {
        Arc::new(
            Builtin::parse(name).ok_or_else(|| bad(format!("unknown builtin reducer `{name}`")))?,
        )
    } else if let Some(asm) = reducer_json.get("ir").and_then(Json::as_str) {
        IrReducerFactory::new(
            parse_function(asm).map_err(|e| bad(format!("reduce IR does not parse: {e}")))?,
        )
    } else {
        return Err(bad("reducer is neither builtin nor IR"));
    };
    let combiner = j
        .opt_str_field("combiner")?
        .map(|name| combiner_by_name(name).ok_or_else(|| bad(format!("unknown combiner `{name}`"))))
        .transpose()?;
    let fault = j
        .opt_str_field("fault")?
        .map(|spec| FaultPlan::from_spec(spec).map_err(|e| bad(format!("bad fault spec: {e}"))))
        .transpose()?;
    let mut inputs = Vec::new();
    for b in j.arr_field("inputs")? {
        let asm = b.str_field("mapper")?;
        let func = parse_function(asm).map_err(|e| bad(format!("map IR does not parse: {e}")))?;
        let join = match b.get("join") {
            Some(Json::Null) | None => None,
            Some(role) => Some(match role.as_str() {
                Some("build") => JoinSide::Build,
                Some("probe") => JoinSide::Probe,
                Some(other) => return Err(bad(format!("unknown join role `{other}`"))),
                None => {
                    let asm = role.str_field("mapper")?;
                    let func = parse_function(asm)
                        .map_err(|e| bad(format!("broadcast build IR does not parse: {e}")))?;
                    JoinSide::Broadcast(BroadcastSpec {
                        input: input_from_json(role.field("input")?)?,
                        mapper: Arc::new(func),
                    })
                }
            }),
        };
        inputs.push(InputBinding {
            input: input_from_json(b.field("input")?)?,
            mapper: IrMapperFactory::new(func),
            join,
        });
    }
    Ok(WireJob {
        job_dir: PathBuf::from(j.str_field("job_dir")?),
        num_reducers: j.usize_field("num_reducers")?.max(1),
        map_parallelism: j.usize_field("map_parallelism")?.max(1),
        shuffle_buffer_bytes: match j.get("shuffle_buffer_bytes") {
            Some(Json::Null) | None => None,
            Some(_) => Some(j.usize_field("shuffle_buffer_bytes")?),
        },
        compression: {
            let name = j.str_field("compression")?;
            ShuffleCompression::parse(name)
                .ok_or_else(|| bad(format!("unknown shuffle codec `{name}`")))?
        },
        sort_output: j.bool_field("sort_output")?,
        combiner,
        fault,
        reducer,
        inputs,
        slow_ms: j.decimal_u64_field("slow_ms")?,
    })
}

// ---- task and result messages ------------------------------------------

/// Coordinator → worker: run one map attempt.
pub(crate) struct MapAssign {
    /// Global map task id (fault-plan coordinate).
    pub task: usize,
    /// Index into [`WireJob::inputs`].
    pub binding: usize,
    /// Split index within the binding.
    pub split: usize,
    /// Attempt number (monotonic per task across retries and
    /// speculative duplicates — attempt directories never collide).
    pub attempt: usize,
}

impl MapAssign {
    pub(crate) fn encode(&self) -> Vec<u8> {
        Json::obj([
            ("task", usize_json(self.task)),
            ("binding", usize_json(self.binding)),
            ("split", usize_json(self.split)),
            ("attempt", usize_json(self.attempt)),
        ])
        .to_string_compact()
        .into_bytes()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<MapAssign> {
        let j = parse_payload(payload)?;
        Ok(MapAssign {
            task: j.usize_field("task")?,
            binding: j.usize_field("binding")?,
            split: j.usize_field("split")?,
            attempt: j.usize_field("attempt")?,
        })
    }
}

/// Coordinator → worker: run one reduce attempt over the named
/// committed runs (paths inside the shared job directory).
pub(crate) struct ReduceAssign {
    /// Reduce partition.
    pub partition: usize,
    /// Attempt number.
    pub attempt: usize,
    /// Committed run files for this partition, in sequence order.
    pub runs: Vec<PathBuf>,
}

impl ReduceAssign {
    pub(crate) fn encode(&self) -> Result<Vec<u8>> {
        let mut runs = Vec::with_capacity(self.runs.len());
        for r in &self.runs {
            runs.push(path_json(r)?);
        }
        Ok(Json::obj([
            ("partition", usize_json(self.partition)),
            ("attempt", usize_json(self.attempt)),
            ("runs", Json::Arr(runs)),
        ])
        .to_string_compact()
        .into_bytes())
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<ReduceAssign> {
        let j = parse_payload(payload)?;
        Ok(ReduceAssign {
            partition: j.usize_field("partition")?,
            attempt: j.usize_field("attempt")?,
            runs: j
                .str_array_field("runs")?
                .into_iter()
                .map(PathBuf::from)
                .collect(),
        })
    }
}

/// Worker → coordinator: a map attempt finished.
pub(crate) struct MapDone {
    /// Task id (echoed).
    pub task: usize,
    /// Attempt number (echoed).
    pub attempt: usize,
    /// `(partition, run)` per spill, in drain order, still inside
    /// the attempt directory awaiting commit (the coordinator renames
    /// them; a run's `seq` does not travel — decoding numbers runs by
    /// position).
    pub runs: Vec<(usize, SpillRun)>,
    /// The attempt's counters, absorbed on commit only.
    pub counters: CounterSnapshot,
    /// Time this attempt spent sorting/writing shuffle runs.
    pub shuffle_nanos: u64,
}

impl MapDone {
    pub(crate) fn encode(&self) -> Result<Vec<u8>> {
        let mut runs = Vec::with_capacity(self.runs.len());
        for (partition, r) in &self.runs {
            runs.push(Json::obj([
                ("partition", usize_json(*partition)),
                ("path", path_json(&r.path)?),
                ("pairs", u64_json(r.pairs)),
                ("raw_bytes", u64_json(r.raw_bytes)),
                ("bytes", u64_json(r.bytes)),
            ]));
        }
        Ok(Json::obj([
            ("task", usize_json(self.task)),
            ("attempt", usize_json(self.attempt)),
            ("runs", Json::Arr(runs)),
            ("counters", snapshot_json(&self.counters)),
            ("shuffle_nanos", u64_json(self.shuffle_nanos)),
        ])
        .to_string_compact()
        .into_bytes())
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<MapDone> {
        let j = parse_payload(payload)?;
        let mut runs = Vec::new();
        for r in j.arr_field("runs")? {
            let run = SpillRun {
                seq: runs.len(),
                path: PathBuf::from(r.str_field("path")?),
                pairs: r.decimal_u64_field("pairs")?,
                raw_bytes: r.decimal_u64_field("raw_bytes")?,
                bytes: r.decimal_u64_field("bytes")?,
            };
            runs.push((r.usize_field("partition")?, run));
        }
        Ok(MapDone {
            task: j.usize_field("task")?,
            attempt: j.usize_field("attempt")?,
            runs,
            counters: snapshot_from_json(j.field("counters")?)?,
            shuffle_nanos: j.decimal_u64_field("shuffle_nanos")?,
        })
    }
}

/// Worker → coordinator: a reduce attempt finished; its output pairs
/// sit in a run file inside the attempt directory awaiting commit.
pub(crate) struct ReduceDone {
    /// Partition (echoed).
    pub partition: usize,
    /// Attempt number (echoed).
    pub attempt: usize,
    /// Output run file inside the attempt directory.
    pub out: PathBuf,
    /// The attempt's counters (its reduce groups and output pairs).
    pub counters: CounterSnapshot,
}

impl ReduceDone {
    pub(crate) fn encode(&self) -> Result<Vec<u8>> {
        Ok(Json::obj([
            ("partition", usize_json(self.partition)),
            ("attempt", usize_json(self.attempt)),
            ("out", path_json(&self.out)?),
            ("counters", snapshot_json(&self.counters)),
        ])
        .to_string_compact()
        .into_bytes())
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<ReduceDone> {
        let j = parse_payload(payload)?;
        Ok(ReduceDone {
            partition: j.usize_field("partition")?,
            attempt: j.usize_field("attempt")?,
            out: PathBuf::from(j.str_field("out")?),
            counters: snapshot_from_json(j.field("counters")?)?,
        })
    }
}

/// Worker → coordinator: a task attempt failed.
pub(crate) struct TaskErr {
    /// `"map"` or `"reduce"`.
    pub kind: String,
    /// Task id / partition.
    pub task: usize,
    /// Attempt number.
    pub attempt: usize,
    /// Whether the failure was an injected [`EngineError::Injected`]
    /// fault (drills assert on this).
    pub injected: bool,
    /// The error, stringified.
    pub msg: String,
}

impl TaskErr {
    pub(crate) fn encode(&self) -> Vec<u8> {
        Json::obj([
            ("kind", Json::str(&self.kind)),
            ("task", usize_json(self.task)),
            ("attempt", usize_json(self.attempt)),
            ("injected", Json::Bool(self.injected)),
            ("msg", Json::str(&self.msg)),
        ])
        .to_string_compact()
        .into_bytes()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<TaskErr> {
        let j = parse_payload(payload)?;
        Ok(TaskErr {
            kind: j.str_field("kind")?.to_string(),
            task: j.usize_field("task")?,
            attempt: j.usize_field("attempt")?,
            injected: j.bool_field("injected")?,
            msg: j.str_field("msg")?.to_string(),
        })
    }
}

/// Encode a worker hello (the worker id in decimal).
pub(crate) fn encode_hello(worker: usize) -> Vec<u8> {
    worker.to_string().into_bytes()
}

/// Decode a worker hello.
pub(crate) fn decode_hello(payload: &[u8]) -> Result<usize> {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("hello payload is not a worker id"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobConfig, OutputSpec};
    use crate::mapper::FnMapperFactory;

    fn ir_mapper() -> Arc<IrMapperFactory> {
        IrMapperFactory::new(
            parse_function(
                r#"
                func map(key, value) {
                  r0 = param value
                  emit r0, r0
                  ret
                }
                "#,
            )
            .unwrap(),
        )
    }

    fn wire_job() -> JobConfig {
        JobConfig {
            name: "wire-test".into(),
            inputs: vec![
                InputBinding {
                    input: InputSpec::SeqFile {
                        path: "/tmp/a.seq".into(),
                    },
                    mapper: ir_mapper(),
                    join: None,
                },
                InputBinding {
                    input: InputSpec::BTreeRanges {
                        path: "/tmp/a.idx".into(),
                        ranges: vec![(
                            ScanBound::Incl(Value::Int(3)),
                            ScanBound::Excl(Value::str("zz")),
                        )],
                    },
                    mapper: ir_mapper(),
                    join: None,
                },
            ],
            num_reducers: 3,
            reducer: Arc::new(Builtin::Sum),
            output: OutputSpec::InMemory,
            map_parallelism: 2,
            sort_output: true,
            shuffle_buffer_bytes: Some(4096),
            shuffle_compression: ShuffleCompression::Auto,
            spill_dir: None,
            combiner: Builtin::Sum.combiner(),
            max_task_attempts: 2,
            fault_plan: Some(Arc::new(
                FaultPlan::new().fail_map(0, 0, 5).slow_worker(1, 20),
            )),
            buffer_pool: None,
            backend: Default::default(),
        }
    }

    #[test]
    fn job_round_trips() {
        let job = wire_job();
        let payload = encode_job(&job, Path::new("/tmp/jobdir"), 7).unwrap();
        let wire = decode_job(&payload).unwrap();
        assert_eq!(wire.job_dir, PathBuf::from("/tmp/jobdir"));
        assert_eq!(wire.num_reducers, 3);
        assert_eq!(wire.map_parallelism, 2);
        assert_eq!(wire.shuffle_buffer_bytes, Some(4096));
        assert_eq!(wire.compression, ShuffleCompression::Auto);
        assert_eq!(wire.combiner.as_deref().map(Combiner::name), Some("sum"));
        assert_eq!(wire.slow_ms, 7);
        assert!(wire.sort_output);
        assert_eq!(wire.inputs.len(), 2);
        let fault = wire.fault.unwrap();
        assert_eq!(fault.map_fault(0, 0), Some(5));
        assert_eq!(fault.worker_slow(1), Some(20));
        assert!(wire.reducer.as_builtin() == Some(Builtin::Sum));
        match &wire.inputs[1].input {
            InputSpec::BTreeRanges { ranges, .. } => {
                assert_eq!(
                    ranges,
                    &[(
                        ScanBound::Incl(Value::Int(3)),
                        ScanBound::Excl(Value::str("zz")),
                    )]
                );
            }
            other => panic!("wrong input decoded: {other:?}"),
        }
    }

    #[test]
    fn delta_input_round_trips_as_a_path() {
        let mut job = wire_job();
        job.inputs[0].input = InputSpec::Delta {
            path: "/tmp/a.delta".into(),
        };
        let payload = encode_job(&job, Path::new("/tmp/d"), 0).unwrap();
        let wire = decode_job(&payload).unwrap();
        assert!(matches!(
            &wire.inputs[0].input,
            InputSpec::Delta { path } if path == Path::new("/tmp/a.delta")
        ));
    }

    #[test]
    fn sort_output_round_trips_and_must_be_a_bool() {
        let mut job = wire_job();
        for sort in [true, false] {
            job.sort_output = sort;
            let wire = decode_job(&encode_job(&job, Path::new("/tmp/d"), 0).unwrap()).unwrap();
            assert_eq!(wire.sort_output, sort);
        }
        let payload = encode_job(&job, Path::new("/tmp/d"), 0).unwrap();
        let Json::Obj(fields) = parse_payload(&payload).unwrap() else {
            panic!("job payload is not an object")
        };
        for bad_value in [Some(Json::str("true")), Some(Json::Int(1)), None] {
            let mut fields = fields.clone();
            fields.retain(|(k, _)| k != "sort_output");
            if let Some(v) = bad_value {
                fields.push(("sort_output".into(), v));
            }
            let payload = Json::Obj(fields).to_string_compact();
            let err = decode_job(payload.as_bytes())
                .err()
                .expect("must not decode");
            assert!(
                matches!(err, EngineError::Storage(_)) && err.to_string().contains("sort_output"),
                "{err}"
            );
        }
    }

    #[test]
    fn join_roles_round_trip() {
        let mut job = wire_job();
        job.combiner = None;
        job.reducer = Arc::new(Builtin::JoinTagged);
        job.inputs[0].join = Some(JoinSide::Build);
        job.inputs[1].join = Some(JoinSide::Probe);
        let wire = decode_job(&encode_job(&job, Path::new("/tmp/d"), 0).unwrap()).unwrap();
        assert!(matches!(wire.inputs[0].join, Some(JoinSide::Build)));
        assert!(matches!(wire.inputs[1].join, Some(JoinSide::Probe)));
        assert_eq!(wire.reducer.as_builtin(), Some(Builtin::JoinTagged));

        let mut job = wire_job();
        job.combiner = None;
        job.inputs.truncate(1);
        job.inputs[0].join = Some(JoinSide::Broadcast(BroadcastSpec {
            input: InputSpec::SeqFile {
                path: "/tmp/build.seq".into(),
            },
            mapper: Arc::new(
                parse_function(
                    "func map(key, value) {\n  r0 = param value\n  emit r0, r0\n  ret\n}\n",
                )
                .unwrap(),
            ),
        }));
        let wire = decode_job(&encode_job(&job, Path::new("/tmp/d"), 0).unwrap()).unwrap();
        match &wire.inputs[0].join {
            Some(JoinSide::Broadcast(spec)) => {
                assert!(matches!(
                    &spec.input,
                    InputSpec::SeqFile { path } if path == Path::new("/tmp/build.seq")
                ));
                assert_eq!(spec.mapper.name, "map");
            }
            other => panic!("broadcast role lost in transit: {other:?}"),
        }
    }

    #[test]
    fn native_closures_are_rejected_with_config_errors() {
        let mut job = wire_job();
        job.inputs[0].mapper = Arc::new(FnMapperFactory(
            |_: &Value, _: &Value, _: &mut Vec<(Value, Value)>| {},
        ));
        let err = encode_job(&job, Path::new("/tmp/d"), 0).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");

        let mut job = wire_job();
        job.reducer = Arc::new(crate::reducer::FnReducerFactory(
            |_: &Value, _: &[Value], _: &mut Vec<(Value, Value)>| Ok(()),
        ));
        let err = encode_job(&job, Path::new("/tmp/d"), 0).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }

    #[test]
    fn ir_reducer_travels_as_asm() {
        let mut job = wire_job();
        job.reducer = IrReducerFactory::new(
            parse_function(
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
            .unwrap(),
        );
        let payload = encode_job(&job, Path::new("/tmp/d"), 0).unwrap();
        let wire = decode_job(&payload).unwrap();
        assert!(wire.reducer.as_builtin().is_none());
        assert!(wire.reducer.ir_function().is_some());
    }

    #[test]
    fn messages_round_trip() {
        let done = MapDone {
            task: 4,
            attempt: 1,
            runs: vec![(
                2,
                SpillRun {
                    seq: 0,
                    path: "/tmp/j/attempt-map-00004-001/run-00002-000000".into(),
                    pairs: 100,
                    raw_bytes: 2048,
                    bytes: 512,
                },
            )],
            counters: CounterSnapshot {
                map_input_records: u64::MAX,
                spill_count: 1,
                combine_bypassed: 9,
                ..Default::default()
            },
            shuffle_nanos: 12345,
        };
        let d = MapDone::decode(&done.encode().unwrap()).unwrap();
        assert_eq!(d.task, 4);
        assert_eq!(d.runs[0].0, 2);
        assert_eq!(d.runs[0].1.bytes, 512);
        assert_eq!(d.counters.map_input_records, u64::MAX, "u64 exactness");
        assert_eq!(d.counters.spill_count, 1);
        assert_eq!(d.counters.combine_bypassed, 9);

        let assign = ReduceAssign {
            partition: 1,
            attempt: 0,
            runs: vec!["/tmp/j/run-00001-000000".into()],
        };
        let a = ReduceAssign::decode(&assign.encode().unwrap()).unwrap();
        assert_eq!(a.runs.len(), 1);

        let err = TaskErr {
            kind: "map".into(),
            task: 3,
            attempt: 2,
            injected: true,
            msg: "injected fault: map task 3".into(),
        };
        let e = TaskErr::decode(&err.encode()).unwrap();
        assert!(e.injected);
        assert_eq!(e.kind, "map");

        assert_eq!(decode_hello(&encode_hello(17)).unwrap(), 17);
    }
}
