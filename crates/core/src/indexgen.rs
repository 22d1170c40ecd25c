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
//! reducer streams the sorted groups into the B+Tree writer. The other
//! kinds are single scans. Every artifact commits by rename.

use std::path::{Path, PathBuf};
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
use mr_storage::btree::{BTreeWriter, ScanBound};
use mr_storage::delta::DeltaFileWriter;
use mr_storage::dict::DictFileWriter;
use mr_storage::rowcodec::{encode_row, encode_value};
use mr_storage::seqfile::SeqFileMeta;

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
            IndexKind::Projection { fields } => self.build_projection(&tmp, fields),
            IndexKind::Delta { fields, projected } => {
                self.build_delta(&tmp, fields, projected.as_deref())
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
            dict_store: None,
            combiner: None,
            // The sink appends as groups arrive: a retried reduce
            // attempt would append them twice.
            max_task_attempts: 1,
            fault_plan: None,
            spill_writer_threads: 1,
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

    fn build_projection(&self, path: &Path, fields: &[String]) -> Result<()> {
        let meta = SeqFileMeta::open(&self.input)?;
        mr_storage::colfile::write_projected(path, &meta.schema, fields, meta.read_all()?)?;
        Ok(())
    }

    fn build_delta(
        &self,
        path: &Path,
        fields: &[String],
        projected: Option<&[String]>,
    ) -> Result<()> {
        let meta = SeqFileMeta::open(&self.input)?;
        let schema = match projected {
            Some(kept) => Arc::new(meta.schema.project(kept)),
            None => Arc::clone(&meta.schema),
        };
        let mut writer = DeltaFileWriter::create(path, Arc::clone(&schema), fields)?;
        for rec in meta.read_all()? {
            let rec = rec?;
            let stored = if projected.is_some() {
                rec.project_to(Arc::clone(&schema))
            } else {
                rec
            };
            writer.append(&stored)?;
        }
        writer.finish()?;
        Ok(())
    }

    fn build_dict(&self, path: &Path, fields: &[String]) -> Result<()> {
        let meta = SeqFileMeta::open(&self.input)?;
        let mut writer = DictFileWriter::create(path, Arc::clone(&meta.schema), fields)?;
        for rec in meta.read_all()? {
            writer.append(&rec?)?;
        }
        writer.finish()?;
        Ok(())
    }
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
}
