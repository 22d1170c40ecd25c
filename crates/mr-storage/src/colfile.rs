//! Projected ("column-stripped") files.
//!
//! The projection optimization stores "an alternate serialized version
//! of the data that stores only the needed fields for a program, thereby
//! reducing the overall number of bytes that must be processed (similar
//! to a column-store or an on-disk binary association table)" — paper
//! §1.
//!
//! Physically a projected file *is* a sequence file whose schema is the
//! projection of the original schema onto the used fields; this module
//! provides the transform (the body of the projection index-generation
//! job) plus a typed handle that remembers the source schema and can pad
//! records back to it (dropped fields read as type defaults). Map tasks
//! do not use the padding: they read the stored records, with the
//! mapper's reads of dropped fields bound to those defaults at plan time.

use std::path::Path;
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::Schema;

use crate::error::Result;
use crate::seqfile::{SeqFileMeta, SeqFileWriter};

/// Write a projected copy of `records` keeping only `fields`. The
/// records stream through one at a time (a reader's `Result` items go in
/// as they are; the first error stops the write).
/// Returns (records written, projected schema).
pub fn write_projected(
    path: impl AsRef<Path>,
    source_schema: &Arc<Schema>,
    fields: &[String],
    records: impl IntoIterator<Item = Result<Record>>,
) -> Result<(u64, Arc<Schema>)> {
    let proj_schema = Arc::new(source_schema.project(fields));
    let mut w = SeqFileWriter::create(path, Arc::clone(&proj_schema))?;
    for r in records {
        w.append(&r?.project_to(Arc::clone(&proj_schema)))?;
    }
    let n = w.finish()?;
    Ok((n, proj_schema))
}

/// A projected file plus the original schema it was derived from.
pub struct ProjectedFile {
    /// The on-disk sequence file (projected schema).
    pub meta: SeqFileMeta,
    /// The original (wide) schema the map function declares.
    pub source_schema: Arc<Schema>,
}

impl ProjectedFile {
    /// Open a projected file, remembering the wide schema.
    pub fn open(path: impl AsRef<Path>, source_schema: Arc<Schema>) -> Result<ProjectedFile> {
        Ok(ProjectedFile {
            meta: SeqFileMeta::open(path)?,
            source_schema,
        })
    }

    /// Iterate records widened back to the source schema (dropped fields
    /// become type defaults).
    pub fn read_widened(&self) -> Result<impl Iterator<Item = Result<Record>> + '_> {
        let source = Arc::clone(&self.source_schema);
        Ok(self
            .meta
            .read_all()?
            .map(move |r| r.map(|rec| rec.project_to(Arc::clone(&source)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;
    use mr_ir::schema::FieldType;
    use mr_ir::value::Value;
    use std::path::PathBuf;

    fn webpage() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
                ("content", FieldType::Str),
            ],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-colfile-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn projection_shrinks_and_widens_back() {
        let s = webpage();
        let path = tmp("proj");
        let records: Vec<Record> = (0..200)
            .map(|i| {
                record(
                    &s,
                    vec![
                        format!("http://s/{i}").into(),
                        Value::Int(i),
                        "x".repeat(500).into(),
                    ],
                )
            })
            .collect();
        let keep = vec!["url".to_string(), "rank".to_string()];
        let (n, proj_schema) =
            write_projected(&path, &s, &keep, records.iter().cloned().map(Ok)).unwrap();
        assert_eq!(n, 200);
        assert_eq!(proj_schema.field_names(), vec!["url", "rank"]);

        // Size: dropping the 500-byte content must shrink dramatically.
        let full_path = tmp("full");
        crate::seqfile::write_seqfile(&full_path, Arc::clone(&s), records.clone()).unwrap();
        let full = std::fs::metadata(&full_path).unwrap().len();
        let proj = std::fs::metadata(&path).unwrap().len();
        assert!(proj * 5 < full, "projected {proj} vs full {full}");

        // Widened records: kept fields intact, dropped fields default.
        let pf = ProjectedFile::open(&path, Arc::clone(&s)).unwrap();
        let widened: Vec<Record> = pf.read_widened().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(widened.len(), 200);
        assert_eq!(widened[5].get("rank").unwrap(), &Value::Int(5));
        assert_eq!(widened[5].get("url").unwrap(), &Value::str("http://s/5"));
        assert_eq!(widened[5].get("content").unwrap(), &Value::str(""));
        assert_eq!(widened[5].schema().name(), "WebPage");
    }

    #[test]
    fn empty_projection_keeps_schema_order() {
        let s = webpage();
        let path = tmp("order");
        // Request fields out of order; schema order must win.
        let keep = vec!["content".to_string(), "url".to_string()];
        let (_, proj) = write_projected(&path, &s, &keep, []).unwrap();
        assert_eq!(proj.field_names(), vec!["url", "content"]);
    }
}
