//! Index-generation programs (paper §2.2 Step 1).
//!
//! "This component also creates an index generation program that runs on
//! the same input data as the user's program. … This program is itself a
//! MapReduce program, and when executed generates an indexed version of
//! the submitted job's input data."
//!
//! [`plan_index_programs`] applies the paper's combination policy — "the
//! current analyzer always chooses the index program that exploits as
//! many optimizations as possible", with the one stated conflict, "we
//! currently favor selection over delta-compression" (§2.2 fn. 3):
//!
//! * selection (+ projection if also present) → clustered B+Tree;
//! * else projection (+ delta if also present) → projected or
//!   projected-delta file;
//! * else delta → delta file;
//! * direct-operation → dictionary file (orthogonal artifact).
//!
//! [`IndexGenProgram::run`] executes one. The selection program is the
//! MapReduce job: its map drops records outside the view and its one
//! reducer streams the sorted groups into the B+Tree writer. Every other
//! artifact is a sequence file, projected or with encoded fields. The
//! projection and delta programs are one build that runs on every core:
//! the input's sparse-index blocks are encoded apart, block *i* of the
//! input becoming block *i* of the artifact, and one writer appends them
//! in order, so the artifact is byte-identical to a sequential build.
//! The dictionary program is one sequential scan, because dictionary
//! codes are assigned first-seen across the whole file. Every artifact
//! commits by rename.

use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, PoisonError};

use mr_analysis::expr::Expr;
use mr_analysis::{AnalysisReport, SelectOutcome};
use mr_engine::mapper::{MapStats, Mapper, MapperFactory};
use mr_engine::{
    run_job, InputBinding, InputSpec, JobConfig, OutputSpec, Reducer, ReducerFactory,
    ShuffleCompression,
};
use mr_ir::schema::Schema;
use mr_ir::value::Value;
use mr_ir::IrError;
use mr_storage::blockindex::{self, BlockEncoder, BLOCK_RECORDS};
use mr_storage::btree::{BTreeWriter, ScanBound};
use mr_storage::rowcodec::{encode_row, encode_value};
use mr_storage::seqfile::{SeqFileMeta, SeqFileWriter, Split};

use crate::catalog::{CatalogEntry, IndexKind, RangeRepr};
use crate::error::{ManimalError, Result};
use crate::optimizer::range_to_bounds;

/// An executable index-generation program.
pub struct IndexGenProgram {
    /// What artifact this builds.
    pub kind: IndexKind,
    /// The input file it reads.
    pub input: PathBuf,
    /// Where the artifact lands.
    pub output: PathBuf,
    /// The index-key expression (selection programs only).
    pub key_expr: Option<Expr>,
    /// Key ranges the selection view materializes (selection only).
    pub view_ranges: Vec<(ScanBound, ScanBound)>,
}

impl std::fmt::Display for IndexGenProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            IndexKind::Selection {
                key,
                projected_fields,
                ..
            } => {
                write!(f, "build B+Tree on {key}")?;
                if let Some(fields) = projected_fields {
                    write!(f, " storing only [{}]", fields.join(", "))?;
                }
            }
            IndexKind::Projection { fields } => {
                write!(f, "build projected file keeping [{}]", fields.join(", "))?
            }
            IndexKind::Delta { fields, projected } => {
                write!(f, "build delta file on [{}]", fields.join(", "))?;
                if let Some(kept) = projected {
                    write!(f, " keeping only [{}]", kept.join(", "))?;
                }
            }
            IndexKind::Dict { fields } => {
                write!(f, "build dictionary file on [{}]", fields.join(", "))?
            }
        }
        write!(f, ": {} -> {}", self.input.display(), self.output.display())
    }
}

/// Derive the index programs the analyzer recommends for this report.
pub fn plan_index_programs(
    report: &AnalysisReport,
    input: &Path,
    workdir: &Path,
) -> Vec<IndexGenProgram> {
    let mut programs = Vec::new();
    let stem = input
        .file_name()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "input".to_string());
    let out = |suffix: &str| workdir.join(format!("{stem}.{suffix}"));

    let selection = match &report.selection {
        SelectOutcome::Selection(d) if d.index_useful() => Some(d),
        _ => None,
    };
    let projection = report.projection.descriptor();
    let delta = report.delta.descriptor();
    let direct = report.direct.descriptor();

    if let Some(sel) = selection {
        let plan = sel.plan.as_ref().expect("index_useful implies plan");
        let view_ranges: Vec<(ScanBound, ScanBound)> =
            plan.ranges.iter().map(range_to_bounds).collect();
        let covered: Vec<RangeRepr> = view_ranges
            .iter()
            .filter_map(|(lo, hi)| RangeRepr::from_bounds(lo, hi).ok())
            .collect();
        programs.push(IndexGenProgram {
            kind: IndexKind::Selection {
                key: plan.key.to_string(),
                covered,
                projected_fields: projection.map(|p| p.used_fields.clone()),
            },
            input: input.to_path_buf(),
            output: out("select.idx"),
            key_expr: Some(plan.key.clone()),
            view_ranges,
        });
    } else if let Some(proj) = projection {
        if let Some(d) = delta {
            // Combined projection + delta: delta-encode the numeric
            // fields that survive the projection.
            let kept_numeric: Vec<String> = d
                .fields
                .iter()
                .filter(|f| proj.used_fields.contains(f))
                .cloned()
                .collect();
            if kept_numeric.is_empty() {
                programs.push(IndexGenProgram {
                    kind: IndexKind::Projection {
                        fields: proj.used_fields.clone(),
                    },
                    input: input.to_path_buf(),
                    output: out("proj.idx"),
                    key_expr: None,
                    view_ranges: vec![],
                });
            } else {
                programs.push(IndexGenProgram {
                    kind: IndexKind::Delta {
                        fields: kept_numeric,
                        projected: Some(proj.used_fields.clone()),
                    },
                    input: input.to_path_buf(),
                    output: out("projdelta.idx"),
                    key_expr: None,
                    view_ranges: vec![],
                });
            }
        } else {
            programs.push(IndexGenProgram {
                kind: IndexKind::Projection {
                    fields: proj.used_fields.clone(),
                },
                input: input.to_path_buf(),
                output: out("proj.idx"),
                key_expr: None,
                view_ranges: vec![],
            });
        }
    } else if let Some(d) = delta {
        programs.push(IndexGenProgram {
            kind: IndexKind::Delta {
                fields: d.fields.clone(),
                projected: None,
            },
            input: input.to_path_buf(),
            output: out("delta.idx"),
            key_expr: None,
            view_ranges: vec![],
        });
    }

    if let Some(dd) = direct {
        programs.push(IndexGenProgram {
            kind: IndexKind::Dict {
                fields: dd.fields.clone(),
            },
            input: input.to_path_buf(),
            output: out("dict.idx"),
            key_expr: None,
            view_ranges: vec![],
        });
    }
    programs
}

impl IndexGenProgram {
    /// Execute the program, producing the artifact and a catalog entry.
    /// `shuffle_buffer_bytes` bounds the shuffle memory of a selection
    /// build — a full-input MapReduce job into a single reducer, exactly
    /// the shape that outgrows RAM first — and `shuffle_compression` is
    /// its spill codec; the other kinds are single-pass scans.
    ///
    /// The artifact commits by rename: the build writes a sibling temp
    /// file that replaces `output` only once finished, so a failed or
    /// killed rebuild never tears an artifact the catalog registered.
    pub fn run(
        &self,
        shuffle_buffer_bytes: Option<usize>,
        shuffle_compression: ShuffleCompression,
    ) -> Result<CatalogEntry> {
        self.run_on(
            shuffle_buffer_bytes,
            shuffle_compression,
            mr_engine::job::available_parallelism(),
        )
    }

    /// [`run`](Self::run), encoding projection and delta blocks on
    /// `workers` threads.
    fn run_on(
        &self,
        shuffle_buffer_bytes: Option<usize>,
        shuffle_compression: ShuffleCompression,
        workers: usize,
    ) -> Result<CatalogEntry> {
        let workers = workers.max(1);
        let input_bytes = std::fs::metadata(&self.input)?.len();
        let mut tmp = self.output.clone().into_os_string();
        tmp.push(format!(".{}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let built = match &self.kind {
            IndexKind::Selection {
                projected_fields, ..
            } => self.build_selection(
                &tmp,
                projected_fields.as_deref(),
                shuffle_buffer_bytes,
                shuffle_compression,
            ),
            IndexKind::Projection { fields } => self.build_rows(&tmp, Some(fields), &[], workers),
            IndexKind::Delta { fields, projected } => {
                self.build_rows(&tmp, projected.as_deref(), fields, workers)
            }
            IndexKind::Dict { fields } => self.build_dict(&tmp, fields),
        };
        if let Err(e) = built.and_then(|()| Ok(std::fs::rename(&tmp, &self.output)?)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(CatalogEntry {
            input_path: self.input.clone(),
            index_path: self.output.clone(),
            kind: self.kind.clone(),
            index_bytes: std::fs::metadata(&self.output)?.len(),
            input_bytes,
        })
    }

    /// Selection indexes are built by an actual MapReduce job: map
    /// evaluates the index-key expression per record and emits only the
    /// records inside the view, the shuffle sorts them by that key, and
    /// the single reducer is a [`BTreeSink`] that appends each group to
    /// the B+Tree as the merge produces it — nothing holds the view in
    /// memory beyond what the shuffle budget allows.
    fn build_selection(
        &self,
        path: &Path,
        projected_fields: Option<&[String]>,
        shuffle_buffer_bytes: Option<usize>,
        shuffle_compression: ShuffleCompression,
    ) -> Result<()> {
        let expr = self
            .key_expr
            .clone()
            .ok_or_else(|| ManimalError::IndexGen("selection program without key".into()))?;
        let source_schema = Arc::clone(&SeqFileMeta::open(&self.input)?.schema);
        let projected = projected_fields.map(|fields| Arc::new(source_schema.project(fields)));
        let stored_schema = projected.clone().unwrap_or(source_schema);
        let writer = Arc::new(Mutex::new(BTreeWriter::create(path, stored_schema)?));
        run_job(&JobConfig {
            name: format!("index-gen {}", self.output.display()),
            inputs: vec![InputBinding {
                input: InputSpec::SeqFile {
                    path: self.input.clone(),
                },
                mapper: Arc::new(ExprKeyMapper {
                    expr,
                    view_ranges: self.view_ranges.clone(),
                    projected,
                    entry: Vec::new(),
                }),
                join: None,
            }],
            num_reducers: 1,
            reducer: Arc::new(BTreeSink(Arc::clone(&writer))),
            // The sink writes the tree and emits no output pairs.
            output: OutputSpec::InMemory,
            map_parallelism: mr_engine::job::available_parallelism(),
            sort_output: false,
            shuffle_buffer_bytes,
            shuffle_compression,
            spill_dir: None,
            combiner: None,
            // The sink appends as groups arrive: a retried reduce
            // attempt would append them twice.
            max_task_attempts: 1,
            fault_plan: None,
            buffer_pool: None,
            backend: Default::default(),
        })?;
        let writer = Arc::into_inner(writer).expect("the finished job dropped its reducers");
        writer
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish()?;
        Ok(())
    }

    /// The projection and delta artifacts: the input, projected to
    /// `kept` when given, with `delta_fields` delta-encoded, built block
    /// by block on `workers` threads.
    fn build_rows(
        &self,
        path: &Path,
        kept: Option<&[String]>,
        delta_fields: &[String],
        workers: usize,
    ) -> Result<()> {
        let meta = SeqFileMeta::open(&self.input)?;
        let schema = match kept {
            Some(kept) => Arc::new(meta.schema.project(kept)),
            None => Arc::clone(&meta.schema),
        };
        let mut writer = SeqFileWriter::create_encoded(
            path,
            schema,
            ShuffleCompression::None,
            delta_fields,
            &[],
        )?;
        let encoders = (0..workers)
            .map(|_| writer.block_encoder(&meta.schema))
            .collect::<mr_storage::Result<_>>()?;
        encode_blocks(&meta, encoders, |rows, records| {
            writer.append_block(rows, records)
        })?;
        writer.finish()?;
        Ok(())
    }

    /// One sequential scan: dictionary codes are assigned in first-seen
    /// order across the whole file, so its blocks cannot be encoded
    /// apart.
    fn build_dict(&self, path: &Path, fields: &[String]) -> Result<()> {
        let meta = SeqFileMeta::open(&self.input)?;
        let schema = Arc::clone(&meta.schema);
        let none = ShuffleCompression::None;
        let mut writer = SeqFileWriter::create_encoded(path, schema, none, &[], fields)?;
        for rec in meta.read_all()? {
            writer.append(&rec?)?;
        }
        writer.finish()?;
        Ok(())
    }
}

/// Encode `input`'s sparse-index blocks on one thread per encoder and
/// hand each block's rows to `append` on the calling thread, in block
/// order. Worker *w* encodes blocks *w*, *w + n*, … and sends each over
/// its own bounded channel, so at most three blocks per worker are in
/// flight. The input's blocks must lie on the shared grid, so input
/// block *i* becomes artifact block *i*.
///
/// A worker's error reaches the caller typed, in block order. Returning
/// early drops the receivers, which stops the other workers; a worker
/// that panics or stops without sending is an [`ManimalError::IndexGen`].
fn encode_blocks<E: BlockEncoder>(
    input: &SeqFileMeta,
    encoders: Vec<E>,
    mut append: impl FnMut(&[u8], u64) -> mr_storage::Result<()>,
) -> Result<()> {
    if !blockindex::on_grid(&input.blocks, input.record_count) {
        return Err(ManimalError::IndexGen(format!(
            "{}: sparse-index blocks are off the {BLOCK_RECORDS}-record grid",
            input.path.display()
        )));
    }
    // On the grid, one split per block is exactly the blocks.
    let splits = input.splits(input.blocks.len());
    let workers = encoders.len().min(splits.len());
    if workers == 0 {
        return Ok(());
    }
    std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (w, mut encoder) in encoders.into_iter().take(workers).enumerate() {
            let (tx, rx) = sync_channel(2);
            let splits = &splits;
            handles.push(scope.spawn(move || {
                for split in splits.iter().skip(w).step_by(workers) {
                    // Each split reader decodes into a schema copy of
                    // its own, so workers share no reference count.
                    let block = encode_block(input, split, &mut encoder);
                    let failed = block.is_err();
                    if tx.send(block).is_err() || failed {
                        return;
                    }
                }
            }));
            receivers.push(rx);
        }
        let appended = (0..splits.len()).try_for_each(|b| match receivers[b % workers].recv() {
            Ok(block) => {
                let (rows, records) = block?;
                Ok(append(&rows, records)?)
            }
            Err(_) => Err(ManimalError::IndexGen(format!(
                "the encoder of block {b} stopped without sending it"
            ))),
        });
        drop(receivers);
        // Join every worker (counting all, not stopping at the first
        // panic), so none outlives the scope unobserved.
        let panicked = (handles.into_iter())
            .map(|h| h.join())
            .filter(std::result::Result::is_err)
            .count();
        appended?;
        match panicked {
            0 => Ok(()),
            n => Err(ManimalError::IndexGen(format!(
                "{n} block encoder thread(s) panicked"
            ))),
        }
    })
}

/// Read one input block and encode it.
fn encode_block<E: BlockEncoder>(
    input: &SeqFileMeta,
    split: &Split,
    encoder: &mut E,
) -> mr_storage::Result<(Vec<u8>, u64)> {
    for record in input.read_split(split)? {
        encoder.push(&record?)?;
    }
    Ok(encoder.finish_block())
}

/// The map side of the selection index-generation job: for each record
/// whose key lies in the view (every record when `view_ranges` is empty
/// — a full clustered index), emit `(key_expr(record), [orig_key,
/// entry])`, where `entry` is the B+Tree entry value already encoded —
/// the original key, then the record (projected when the index is). The
/// index is a view on the records the predicate can ever select (paper
/// §2.2), which keeps its space overhead at the selectivity level rather
/// than 100 %; filtering here keeps the rest out of the shuffle too, and
/// encoding here leaves the single reducer only bytes to copy.
#[derive(Clone)]
struct ExprKeyMapper {
    expr: Expr,
    view_ranges: Vec<(ScanBound, ScanBound)>,
    projected: Option<Arc<Schema>>,
    entry: Vec<u8>,
}

impl Mapper for ExprKeyMapper {
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> mr_engine::Result<MapStats> {
        let index_key = self
            .expr
            .eval(key, value)
            .map_err(mr_engine::EngineError::Map)?;
        let in_view = self.view_ranges.is_empty()
            || (self.view_ranges.iter())
                .any(|(lo, hi)| ScanBound::range_admits(lo, hi, &index_key));
        if !in_view {
            return Ok(MapStats::default());
        }
        let record = value.as_record().ok_or_else(|| IrError::Type {
            context: "index-gen".into(),
            expected: "record",
            got: value.kind_name(),
        })?;
        self.entry.clear();
        encode_value(key, &mut self.entry)?;
        match &self.projected {
            Some(schema) => encode_row(&record.project_to(Arc::clone(schema)), &mut self.entry)?,
            None => encode_row(record, &mut self.entry)?,
        }
        let entry = Value::bytes(&self.entry);
        out.push((index_key, Value::list(vec![key.clone(), entry])));
        Ok(MapStats::default())
    }
}

impl MapperFactory for ExprKeyMapper {
    fn create(&self) -> Box<dyn Mapper> {
        // A private schema copy per task: every projected record holds a
        // handle on it, and tasks run on different threads.
        let projected = self.projected.as_deref().map(|s| Arc::new(s.clone()));
        Box::new(ExprKeyMapper {
            projected,
            ..self.clone()
        })
    }
}

/// The reduce side of the selection index-generation job: appends each
/// `(index_key, [[orig_key, entry], …])` group to the B+Tree. The
/// group's values are sorted first, so equal index keys land in
/// original-key order whatever order the shuffle delivered them in; the
/// original keys are record positions, unique, so that is also the
/// order of the whole `(index_key, [orig_key, record])` pairs.
#[derive(Clone)]
struct BTreeSink(Arc<Mutex<BTreeWriter>>);

impl Reducer for BTreeSink {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        _out: &mut Vec<(Value, Value)>,
    ) -> mr_engine::Result<()> {
        let mut sorted: Vec<&Value> = values.iter().collect();
        sorted.sort();
        let malformed = || mr_engine::EngineError::Reduce("malformed index-gen pair".into());
        let mut writer = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        for packed in sorted {
            let Value::List(kv) = packed else {
                return Err(malformed());
            };
            let [_, Value::Bytes(entry)] = &kv[..] else {
                return Err(malformed());
            };
            writer.append_encoded(key, entry)?;
        }
        Ok(())
    }
}

impl ReducerFactory for BTreeSink {
    fn create(&self) -> Box<dyn Reducer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_analysis::analyze;
    use mr_ir::asm::parse_function;
    use mr_ir::function::Program;
    use mr_ir::schema::{FieldType, Schema};

    fn webpages() -> Arc<Schema> {
        Schema::new(
            "WebPages",
            vec![
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
                ("content", FieldType::Str),
            ],
        )
        .into_arc()
    }

    fn plan_for(src: &str, schema: Arc<Schema>) -> Vec<IndexGenProgram> {
        let program = Program::new("t", parse_function(src).unwrap(), schema);
        let report = analyze(&program);
        plan_index_programs(&report, Path::new("/data/in.seq"), Path::new("/work"))
    }

    /// "The current analyzer always chooses the index program that
    /// exploits as many optimizations as possible": selection absorbs
    /// projection into one combined B+Tree.
    #[test]
    fn selection_absorbs_projection() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.rank
              r2 = const 10
              r3 = cmp gt r1, r2
              br r3, t, e
            t:
              r4 = field r0.url
              emit r4, r1
            e:
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Selection {
                key,
                projected_fields: Some(fields),
                covered,
            } => {
                assert_eq!(key, "value.rank");
                assert_eq!(fields, &vec!["url".to_string(), "rank".to_string()]);
                assert_eq!(covered.len(), 1);
            }
            other => panic!("expected combined selection, got {other:?}"),
        }
        assert!(programs[0].key_expr.is_some());
        assert_eq!(programs[0].view_ranges.len(), 1);
    }

    /// Without a selection, projection and delta merge into a projected
    /// delta file when a numeric field survives the projection.
    #[test]
    fn projection_and_delta_combine() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.url
              r2 = field r0.rank
              emit r1, r2
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Delta { fields, projected } => {
                assert_eq!(fields, &vec!["rank".to_string()]);
                assert_eq!(
                    projected.as_ref().unwrap(),
                    &vec!["url".to_string(), "rank".to_string()]
                );
            }
            other => panic!("expected projected delta, got {other:?}"),
        }
    }

    /// Projection whose kept fields have no numerics falls back to a
    /// plain projected file even though the schema has numeric fields.
    #[test]
    fn projection_without_surviving_numerics() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.url
              r2 = const 1
              emit r1, r2
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Projection { fields } => {
                assert_eq!(fields, &vec!["url".to_string()]);
            }
            other => panic!("expected plain projection, got {other:?}"),
        }
    }

    /// The dictionary artifact is orthogonal: recommended alongside
    /// whatever the main combination produced.
    #[test]
    fn dict_is_orthogonal() {
        let schema = Schema::new(
            "V",
            vec![("destURL", FieldType::Str), ("duration", FieldType::Int)],
        )
        .into_arc();
        let program = Program::new(
            "t",
            parse_function(
                r#"
                func map(key, value) {
                  r0 = param value
                  r1 = field r0.destURL
                  r2 = field r0.duration
                  emit r1, r2
                  ret
                }
                "#,
            )
            .unwrap(),
            schema,
        )
        .with_key_dropped_from_output();
        let report = analyze(&program);
        let programs = plan_index_programs(&report, Path::new("/data/in.seq"), Path::new("/work"));
        assert_eq!(programs.len(), 2, "main combo + dict");
        assert!(programs
            .iter()
            .any(|p| matches!(&p.kind, IndexKind::Delta { .. })));
        assert!(programs
            .iter()
            .any(|p| matches!(&p.kind, IndexKind::Dict { fields } if fields == &vec!["destURL".to_string()])));
    }

    /// Nothing detected → nothing recommended.
    #[test]
    fn nothing_to_recommend() {
        let schema = Schema::new("D", vec![("content", FieldType::Str)]).into_arc();
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = param key
              emit r1, r0
              ret
            }
            "#,
            schema,
        );
        assert!(programs.is_empty());
    }

    // ---- block-parallel projection and delta builds -------------------

    use mr_ir::record::{record, Record};
    use mr_storage::seqfile::write_seqfile;
    use mr_storage::StorageError;

    fn visits() -> Arc<Schema> {
        Schema::new(
            "UserVisits",
            vec![
                ("sourceIP", FieldType::Str),
                ("visitDate", FieldType::Long),
                ("adRevenue", FieldType::Int),
                ("userAgent", FieldType::Str),
            ],
        )
        .into_arc()
    }

    fn block_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("manimal-indexgen-blocks")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A seqfile of `n` visits rows.
    fn visits_file(path: &Path, n: u64) {
        let s = visits();
        let rows = (0..n as i64).map(|i| {
            record(
                &s,
                vec![
                    format!("10.0.{}.{}", i % 251, i % 7).into(),
                    (1_600_000_000 + i * 37 - (i % 5) * 1_000).into(),
                    ((i * 7_919) % 100_000).into(),
                    "agent".repeat((i % 4) as usize).into(),
                ],
            )
        });
        let rows: Vec<Record> = rows.collect();
        write_seqfile(path, s, rows).unwrap();
    }

    /// The three block-built kinds: delta, projected delta, projection.
    fn block_programs(input: &Path, dir: &Path) -> Vec<IndexGenProgram> {
        let kinds = [
            IndexKind::Delta {
                fields: vec!["visitDate".into(), "adRevenue".into()],
                projected: None,
            },
            IndexKind::Delta {
                fields: vec!["adRevenue".into()],
                projected: Some(vec!["sourceIP".into(), "adRevenue".into()]),
            },
            IndexKind::Projection {
                fields: vec!["visitDate".into(), "sourceIP".into()],
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| IndexGenProgram {
                kind,
                input: input.to_path_buf(),
                output: dir.join(format!("kind{i}.idx")),
                key_expr: None,
                view_ranges: vec![],
            })
            .collect()
    }

    /// The naive build: one thread, one record at a time, through the
    /// writers' own `append`.
    fn sequential_build(prog: &IndexGenProgram, path: &Path) {
        let meta = SeqFileMeta::open(&prog.input).unwrap();
        let rows = || meta.read_all().unwrap();
        match &prog.kind {
            IndexKind::Delta { fields, projected } => {
                let stored = match projected {
                    Some(kept) => Arc::new(meta.schema.project(kept)),
                    None => Arc::clone(&meta.schema),
                };
                let none = ShuffleCompression::None;
                let mut w =
                    SeqFileWriter::create_encoded(path, Arc::clone(&stored), none, fields, &[])
                        .unwrap();
                for rec in rows() {
                    w.append(&rec.unwrap().project_to(Arc::clone(&stored)))
                        .unwrap();
                }
                w.finish().unwrap();
            }
            IndexKind::Projection { fields } => {
                mr_storage::colfile::write_projected(path, &meta.schema, fields, rows()).unwrap();
            }
            other => panic!("not block-built: {other:?}"),
        }
    }

    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
            .collect()
    }

    /// Every block-built artifact equals the sequential writer's byte
    /// for byte, at every block-edge record count and worker count.
    #[test]
    fn block_builds_are_byte_equal_to_the_sequential_writer() {
        let b = BLOCK_RECORDS;
        let mut differ = Vec::new();
        for n in [0, 1, b - 1, b, b + 1, 3 * b + 17] {
            let dir = block_dir(&format!("equal-{n}"));
            let input = dir.join("visits.seq");
            visits_file(&input, n);
            for prog in block_programs(&input, &dir) {
                let expected = dir.join("reference.idx");
                sequential_build(&prog, &expected);
                let expected = std::fs::read(&expected).unwrap();
                for workers in [1, 2, 7] {
                    let entry = prog.run_on(None, Default::default(), workers).unwrap();
                    let got = std::fs::read(&prog.output).unwrap();
                    assert_eq!(entry.index_bytes, got.len() as u64);
                    if got != expected {
                        differ.push(format!("{} n={n} workers={workers}", prog.kind));
                    }
                }
            }
            assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        }
        assert!(
            differ.is_empty(),
            "differ from the sequential writer: {differ:?}"
        );
    }

    /// A corrupt row in a block a later worker owns fails the build
    /// with the typed storage error, leaves no temp file and leaves the
    /// artifact from the earlier build byte-identical.
    #[test]
    fn a_worker_failure_is_typed_and_keeps_the_registered_artifact() {
        let dir = block_dir("failure");
        let input = dir.join("visits.seq");
        visits_file(&input, 3 * BLOCK_RECORDS + 17);
        let programs = block_programs(&input, &dir);
        let before: Vec<Vec<u8>> = (programs.iter())
            .map(|prog| {
                prog.run_on(None, Default::default(), 2).unwrap();
                std::fs::read(&prog.output).unwrap()
            })
            .collect();
        // An implausible row length at the first row of block 3, which
        // worker 1 of 2 and worker 3 of 7 own: blocks 0–2 are appended
        // before the failure arrives.
        let meta = SeqFileMeta::open(&input).unwrap();
        let mut bytes = std::fs::read(&input).unwrap();
        let at = meta.blocks[3].0 as usize;
        bytes[at..at + 5].copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x7f]);
        std::fs::write(&input, &bytes).unwrap();
        for (prog, before) in programs.iter().zip(&before) {
            for workers in [2, 7] {
                let err = prog.run_on(None, Default::default(), workers).unwrap_err();
                assert!(
                    matches!(err, ManimalError::Storage(StorageError::Corrupt { .. })),
                    "{prog} workers={workers}: {err}"
                );
                assert!(std::fs::read(&prog.output).unwrap() == *before, "{prog}");
                assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
            }
        }
    }

    /// An input whose block index is valid but off the 4096-record grid
    /// (a block entry dropped) is refused, not built misaligned.
    #[test]
    fn an_off_grid_input_is_refused() {
        let dir = block_dir("off-grid");
        let input = dir.join("visits.seq");
        visits_file(&input, 3 * BLOCK_RECORDS);
        let meta = SeqFileMeta::open(&input).unwrap();
        let bytes = std::fs::read(&input).unwrap();
        let tail = bytes.len() - 13;
        let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
        let mut forged = bytes[..tail - footer_len as usize].to_vec();
        let mut footer = Vec::new();
        let kept = [meta.blocks[0], meta.blocks[2]];
        mr_storage::varint::encode_u64(kept.len() as u64, &mut footer);
        for (offset, before) in kept {
            mr_storage::varint::encode_u64(offset, &mut footer);
            mr_storage::varint::encode_u64(before, &mut footer);
        }
        mr_storage::varint::encode_u64(meta.record_count, &mut footer);
        forged.extend_from_slice(&footer);
        forged.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        forged.extend_from_slice(&bytes[tail + 8..]);
        std::fs::write(&input, forged).unwrap();
        assert_eq!(SeqFileMeta::open(&input).unwrap().blocks.len(), 2);
        for prog in block_programs(&input, &dir) {
            let err = prog.run_on(None, Default::default(), 2).unwrap_err();
            assert!(matches!(err, ManimalError::IndexGen(_)), "{prog}: {err}");
            assert!(!prog.output.exists());
        }
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
    }

    /// An encoder that panics on its first record.
    struct Panicking;

    impl BlockEncoder for Panicking {
        fn push(&mut self, _: &Record) -> mr_storage::Result<()> {
            panic!("encoder bug")
        }

        fn finish_block(&mut self) -> (Vec<u8>, u64) {
            (Vec::new(), 0)
        }
    }

    /// A panicking worker becomes a typed error, and the build neither
    /// hangs nor re-raises the panic.
    #[test]
    fn a_panicking_worker_is_a_typed_error() {
        let dir = block_dir("panic");
        let input = dir.join("visits.seq");
        visits_file(&input, 2 * BLOCK_RECORDS + 1);
        let meta = SeqFileMeta::open(&input).unwrap();
        for workers in [1, 2, 7] {
            let encoders = (0..workers).map(|_| Panicking).collect();
            let err = encode_blocks(&meta, encoders, |_, _| Ok(())).unwrap_err();
            assert!(matches!(err, ManimalError::IndexGen(_)), "{err}");
        }
    }
}
