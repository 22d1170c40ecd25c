//! Column-group files — the paper's §2.1 extension to projection.
//!
//! "In the future we could modify Manimal projection to use
//! 'column-groups' that break input data into different smaller files,
//! increasing the number of user programs that could use an index, at
//! the cost of possibly-increased program execution time."
//!
//! A column-group set stores one sequence file per field group
//! (`base.g0`, `base.g1`, …) plus a manifest (`base.cg`) naming the
//! groups. A reader asks for the fields its program uses; only the
//! group files covering those fields are opened and read — so one
//! physical layout serves *every* projection whose fields align with
//! group boundaries, unlike a single projected file that serves exactly
//! one field set.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::Schema;

use crate::error::{Result, StorageError};
use crate::rowcodec::{decode_schema, encode_schema};
use crate::seqfile::{SeqFileMeta, SeqFileReader, SeqFileWriter};
use crate::varint::{capacity_for, decode_len_prefixed, decode_u64, encode_u64};

const MANIFEST_MAGIC: &[u8; 5] = b"MRCG1";

/// Path of group `i` for a base path.
fn group_path(base: &Path, i: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".g{i}"));
    PathBuf::from(name)
}

/// Path of the manifest for a base path.
fn manifest_path(base: &Path) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(".cg");
    PathBuf::from(name)
}

/// Write `records` as a column-group set under `base`. `groups`
/// partitions (a subset of) the schema's fields; fields not mentioned
/// are dropped. Returns the record count.
pub fn write_column_groups(
    base: impl AsRef<Path>,
    schema: &Arc<Schema>,
    groups: &[Vec<String>],
    records: impl IntoIterator<Item = Record>,
) -> Result<u64> {
    let base = base.as_ref();
    if groups.is_empty() {
        return Err(StorageError::Schema("no column groups given".into()));
    }
    // Validate: fields exist and no field appears twice.
    let mut seen: Vec<&str> = Vec::new();
    for g in groups {
        if g.is_empty() {
            return Err(StorageError::Schema("empty column group".into()));
        }
        for f in g {
            if schema.field(f).is_none() {
                return Err(StorageError::Schema(format!("unknown field `{f}`")));
            }
            if seen.contains(&f.as_str()) {
                return Err(StorageError::Schema(format!(
                    "field `{f}` appears in two groups"
                )));
            }
            seen.push(f);
        }
    }

    let group_schemas: Vec<Arc<Schema>> =
        groups.iter().map(|g| Arc::new(schema.project(g))).collect();
    let mut writers: Vec<SeqFileWriter> = group_schemas
        .iter()
        .enumerate()
        .map(|(i, gs)| SeqFileWriter::create(group_path(base, i), Arc::clone(gs)))
        .collect::<Result<_>>()?;

    let mut count = 0u64;
    for rec in records {
        for (w, gs) in writers.iter_mut().zip(&group_schemas) {
            w.append(&rec.project_to(Arc::clone(gs)))?;
        }
        count += 1;
    }
    for w in writers {
        w.finish()?;
    }

    // Manifest: magic, full schema, group count, per group the field
    // list, record count.
    let mut buf = Vec::new();
    buf.extend_from_slice(MANIFEST_MAGIC);
    encode_schema(schema, &mut buf);
    encode_u64(groups.len() as u64, &mut buf);
    for g in groups {
        encode_u64(g.len() as u64, &mut buf);
        for f in g {
            encode_u64(f.len() as u64, &mut buf);
            buf.extend_from_slice(f.as_bytes());
        }
    }
    encode_u64(count, &mut buf);
    std::fs::write(manifest_path(base), buf)?;
    Ok(count)
}

/// An opened column-group set.
pub struct ColumnGroups {
    base: PathBuf,
    /// The original (full) schema.
    pub schema: Arc<Schema>,
    /// Field names per group.
    pub groups: Vec<Vec<String>>,
    /// Total records.
    pub record_count: u64,
}

impl ColumnGroups {
    /// Open a set by its base path.
    pub fn open(base: impl AsRef<Path>) -> Result<ColumnGroups> {
        let base = base.as_ref().to_path_buf();
        let buf = std::fs::read(manifest_path(&base))?;
        if buf.len() < 5 || &buf[..5] != MANIFEST_MAGIC {
            return Err(StorageError::corrupt("colgroups", "bad manifest magic"));
        }
        let mut pos = 5usize;
        let (schema, n) = decode_schema(&buf[pos..])?;
        pos += n;
        let (ngroups, n) = decode_u64(&buf[pos..])?;
        pos += n;
        let mut groups = Vec::with_capacity(capacity_for(ngroups, buf.len() - pos));
        for _ in 0..ngroups {
            let (nfields, n) = decode_u64(&buf[pos..])?;
            pos += n;
            let mut fields = Vec::with_capacity(capacity_for(nfields, buf.len() - pos));
            for _ in 0..nfields {
                let (bytes, n) = decode_len_prefixed(&buf[pos..], "colgroups", "field")?;
                fields.push(
                    std::str::from_utf8(bytes)
                        .map_err(|_| StorageError::corrupt("colgroups", "bad utf-8"))?
                        .to_string(),
                );
                pos += n;
            }
            groups.push(fields);
        }
        let (record_count, _) = decode_u64(&buf[pos..])?;
        Ok(ColumnGroups {
            base,
            schema: Arc::new(schema),
            groups,
            record_count,
        })
    }

    /// Indices of the groups needed to materialize `fields`; error when
    /// a field is not stored in any group.
    pub fn groups_for(&self, fields: &[String]) -> Result<Vec<usize>> {
        let mut needed = Vec::new();
        for f in fields {
            let g = self
                .groups
                .iter()
                .position(|g| g.contains(f))
                .ok_or_else(|| {
                    StorageError::Schema(format!("field `{f}` not stored in any group"))
                })?;
            if !needed.contains(&g) {
                needed.push(g);
            }
        }
        needed.sort_unstable();
        Ok(needed)
    }

    /// Read records materializing only `fields` (widened to the full
    /// schema with defaults elsewhere). Only the needed group files are
    /// touched; the second return value reports bytes read per group
    /// when iteration finishes.
    pub fn read_fields(&self, fields: &[String]) -> Result<ColumnGroupReader> {
        let needed = self.groups_for(fields)?;
        let mut readers = Vec::with_capacity(needed.len());
        for &g in &needed {
            let meta = SeqFileMeta::open(group_path(&self.base, g))?;
            if meta.record_count != self.record_count {
                return Err(StorageError::corrupt(
                    "colgroups",
                    format!(
                        "group {g} has {} records, manifest says {}",
                        meta.record_count, self.record_count
                    ),
                ));
            }
            readers.push(meta.read_all()?);
        }
        Ok(ColumnGroupReader {
            readers,
            full_schema: Arc::clone(&self.schema),
            remaining: self.record_count,
        })
    }
}

/// Zips the needed group files back into (widened) records.
pub struct ColumnGroupReader {
    readers: Vec<SeqFileReader>,
    full_schema: Arc<Schema>,
    remaining: u64,
}

impl ColumnGroupReader {
    /// Total bytes consumed across the opened group files.
    pub fn bytes_read(&self) -> u64 {
        self.readers.iter().map(SeqFileReader::bytes_read).sum()
    }

    fn read_one(&mut self) -> Result<Option<Record>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut acc: Option<Record> = None;
        for r in &mut self.readers {
            let part = r
                .next()
                .transpose()?
                .ok_or_else(|| StorageError::corrupt("colgroups", "group file short"))?;
            acc = Some(match acc {
                None => part.project_to(Arc::clone(&self.full_schema)),
                Some(base) => merge(base, &part),
            });
        }
        Ok(acc)
    }
}

/// Overlay `part`'s fields onto `base` (which has the full schema).
fn merge(base: Record, part: &Record) -> Record {
    let schema = Arc::clone(base.schema());
    let mut values: Vec<_> = base.values().to_vec();
    for (fd, v) in part.schema().fields().iter().zip(part.values()) {
        if let Some(i) = schema.index_of(&fd.name) {
            values[i] = v.clone();
        }
    }
    Record::new(schema, values).expect("same arity")
}

impl Iterator for ColumnGroupReader {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_one().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;
    use mr_ir::schema::FieldType;
    use mr_ir::value::Value;

    fn schema() -> Arc<Schema> {
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
        let dir = std::env::temp_dir().join("mr-colgroups-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn pages(s: &Arc<Schema>, n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                record(
                    s,
                    vec![
                        format!("http://s/{i}").into(),
                        Value::Int(i as i64),
                        "x".repeat(300).into(),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_through_groups() {
        let s = schema();
        let base = tmp("roundtrip");
        let groups = vec![
            vec!["url".to_string(), "rank".to_string()],
            vec!["content".to_string()],
        ];
        let n = write_column_groups(&base, &s, &groups, pages(&s, 100)).unwrap();
        assert_eq!(n, 100);

        let cg = ColumnGroups::open(&base).unwrap();
        assert_eq!(cg.record_count, 100);
        assert_eq!(cg.groups, groups);
        // Reading all fields reassembles the full records.
        let all: Vec<Record> = cg
            .read_fields(&["url".into(), "rank".into(), "content".into()])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(all.len(), 100);
        assert_eq!(all[7].get("rank").unwrap(), &Value::Int(7));
        assert_eq!(all[7].get("content").unwrap().as_str().unwrap().len(), 300);
    }

    #[test]
    fn partial_read_touches_fewer_bytes() {
        let s = schema();
        let base = tmp("partial");
        let groups = vec![
            vec!["url".to_string(), "rank".to_string()],
            vec!["content".to_string()],
        ];
        write_column_groups(&base, &s, &groups, pages(&s, 200)).unwrap();
        let cg = ColumnGroups::open(&base).unwrap();

        let mut narrow = cg.read_fields(&["rank".into()]).unwrap();
        let mut count = 0;
        for r in narrow.by_ref() {
            let r = r.unwrap();
            // Unread fields default.
            assert_eq!(r.get("content").unwrap(), &Value::str(""));
            count += 1;
        }
        assert_eq!(count, 200);

        let mut wide = cg.read_fields(&["rank".into(), "content".into()]).unwrap();
        while wide.next().is_some() {}
        assert!(
            narrow.bytes_read() * 3 < wide.bytes_read(),
            "narrow {} vs wide {}",
            narrow.bytes_read(),
            wide.bytes_read()
        );
    }

    #[test]
    fn group_selection_logic() {
        let s = schema();
        let base = tmp("select");
        let groups = vec![
            vec!["url".to_string()],
            vec!["rank".to_string()],
            vec!["content".to_string()],
        ];
        write_column_groups(&base, &s, &groups, pages(&s, 10)).unwrap();
        let cg = ColumnGroups::open(&base).unwrap();
        assert_eq!(cg.groups_for(&["rank".into()]).unwrap(), vec![1]);
        assert_eq!(
            cg.groups_for(&["content".into(), "url".into()]).unwrap(),
            vec![0, 2]
        );
        assert!(cg.groups_for(&["nope".into()]).is_err());
    }

    #[test]
    fn validation_errors() {
        let s = schema();
        assert!(write_column_groups(tmp("e1"), &s, &[], pages(&s, 1)).is_err());
        assert!(
            write_column_groups(tmp("e2"), &s, &[vec!["nope".to_string()]], pages(&s, 1)).is_err()
        );
        assert!(write_column_groups(
            tmp("e3"),
            &s,
            &[vec!["url".to_string()], vec!["url".to_string()]],
            pages(&s, 1)
        )
        .is_err());
    }

    #[test]
    fn dropped_fields_are_gone() {
        // A field in no group is simply not stored.
        let s = schema();
        let base = tmp("dropped");
        write_column_groups(&base, &s, &[vec!["rank".to_string()]], pages(&s, 5)).unwrap();
        let cg = ColumnGroups::open(&base).unwrap();
        assert!(cg.read_fields(&["content".into()]).is_err());
    }
}
