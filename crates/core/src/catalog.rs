//! The Manimal catalog (paper Fig. 1).
//!
//! "The optimizer uses this descriptor, plus a catalog of precomputed
//! indexes, to choose an optimized execution plan. … Each run of an
//! index generation program is tracked in the filesystem catalog."
//!
//! The catalog is a durable JSON file mapping input files to the index
//! artifacts built for them, with enough metadata (index kind, key
//! expression, fields) for the optimizer to match a new program's
//! optimization descriptors against existing indexes.
//!
//! Durability discipline: every write lands in a tmp file in the
//! catalog's own directory and renames over `catalog.json`, so a crash
//! (even `kill -9` mid-write) leaves the old or the new state on disk,
//! never a torn file. Every mutation runs under an advisory `flock` on
//! a sibling `catalog.json.lock` and re-reads the on-disk state before
//! applying itself, so concurrent writers — threads with their own
//! `Catalog` instances, or whole separate processes (`manimald` plus a
//! CLI run) — merge instead of clobbering each other's entries. The
//! kernel drops the flock when its holder dies, so a killed writer
//! cannot wedge the catalog.

use std::path::{Path, PathBuf};

use mr_json::{Json, JsonError};
use parking_lot::Mutex;

use mr_ir::value::Value;
use mr_storage::btree::ScanBound;
use mr_storage::hex;
use mr_storage::rowcodec::{decode_value, encode_value};

use crate::error::{ManimalError, Result};

/// A serializable scan bound: values are hex-encoded through the
/// self-describing value codec so the catalog stays a plain JSON file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundRepr {
    /// Unbounded.
    Open,
    /// Inclusive bound (hex-encoded value).
    Incl(String),
    /// Exclusive bound (hex-encoded value).
    Excl(String),
}

/// A serializable key range covered by a selection index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeRepr {
    /// Lower bound.
    pub low: BoundRepr,
    /// Upper bound.
    pub high: BoundRepr,
}

impl BoundRepr {
    /// Encode a scan bound.
    pub fn from_bound(b: &ScanBound) -> Result<BoundRepr> {
        let enc = |v: &Value| -> Result<String> {
            let mut buf = Vec::new();
            encode_value(v, &mut buf)?;
            Ok(hex::encode(&buf))
        };
        Ok(match b {
            ScanBound::Unbounded => BoundRepr::Open,
            ScanBound::Incl(v) => BoundRepr::Incl(enc(v)?),
            ScanBound::Excl(v) => BoundRepr::Excl(enc(v)?),
        })
    }

    /// Decode back to a scan bound.
    pub fn to_bound(&self) -> Result<ScanBound> {
        let dec = |s: &str| -> Result<Value> {
            let bytes = hex::decode(s)
                .map_err(|e| ManimalError::Catalog(format!("bad hex in catalog: {e}")))?;
            Ok(decode_value(&bytes)?.0)
        };
        Ok(match self {
            BoundRepr::Open => ScanBound::Unbounded,
            BoundRepr::Incl(s) => ScanBound::Incl(dec(s)?),
            BoundRepr::Excl(s) => ScanBound::Excl(dec(s)?),
        })
    }
}

impl RangeRepr {
    /// Encode a `(low, high)` scan range.
    pub fn from_bounds(low: &ScanBound, high: &ScanBound) -> Result<RangeRepr> {
        Ok(RangeRepr {
            low: BoundRepr::from_bound(low)?,
            high: BoundRepr::from_bound(high)?,
        })
    }

    /// Decode back to `(low, high)`.
    pub fn to_bounds(&self) -> Result<(ScanBound, ScanBound)> {
        Ok((self.low.to_bound()?, self.high.to_bound()?))
    }
}

/// What kind of physical artifact an index file is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexKind {
    /// A clustered B+Tree on `key` (the display form of the index-key
    /// expression), materializing only the records whose key falls in
    /// `covered` — "a description of a view on the data from the user's
    /// input file, which is materialized by the index generation
    /// program" (paper §2.2). `projected_fields` is `Some` for a
    /// combined selection+projection index that stores only the used
    /// fields.
    Selection {
        /// Display form of the indexed expression, e.g. `value.rank`.
        key: String,
        /// Key ranges the view materializes. A later program may use
        /// this index only if its own ranges are contained in these.
        covered: Vec<RangeRepr>,
        /// Stored fields for a combined selection+projection index.
        projected_fields: Option<Vec<String>>,
    },
    /// A projected sequence file keeping only `fields`.
    Projection {
        /// Kept fields, in schema order.
        fields: Vec<String>,
    },
    /// A delta-compressed file on the named integer fields;
    /// `projected` is `Some` when the file also drops unused fields
    /// (the combined projection+delta artifact of Pavlo Benchmark 2).
    Delta {
        /// Delta-encoded fields.
        fields: Vec<String>,
        /// Kept fields for a combined projection+delta artifact.
        projected: Option<Vec<String>>,
    },
    /// A dictionary-compressed file on the named string fields.
    Dict {
        /// Compressed fields.
        fields: Vec<String>,
    },
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKind::Selection {
                key,
                covered,
                projected_fields,
            } => {
                write!(f, "selection B+Tree on {key}")?;
                if let Some(fields) = projected_fields {
                    write!(f, " storing [{}]", fields.join(", "))?;
                }
                if !covered.is_empty() {
                    let ranges: Vec<String> = covered
                        .iter()
                        .filter_map(|r| r.to_bounds().ok())
                        .map(|(lo, hi)| {
                            let side = |b: &ScanBound, open: &str, incl: char, excl: char| match b {
                                ScanBound::Unbounded => open.to_string(),
                                ScanBound::Incl(v) => format!("{incl}{v}"),
                                ScanBound::Excl(v) => format!("{excl}{v}"),
                            };
                            format!(
                                "{}, {}",
                                side(&lo, "(-inf", '[', '('),
                                match &hi {
                                    ScanBound::Unbounded => "+inf)".to_string(),
                                    ScanBound::Incl(v) => format!("{v}]"),
                                    ScanBound::Excl(v) => format!("{v})"),
                                }
                            )
                        })
                        .collect();
                    write!(f, " covering {}", ranges.join(" ∪ "))?;
                }
                Ok(())
            }
            IndexKind::Projection { fields } => {
                write!(f, "projected file [{}]", fields.join(", "))
            }
            IndexKind::Delta { fields, projected } => {
                write!(f, "delta file on [{}]", fields.join(", "))?;
                if let Some(kept) = projected {
                    write!(f, " keeping [{}]", kept.join(", "))?;
                }
                Ok(())
            }
            IndexKind::Dict { fields } => {
                write!(f, "dictionary file on [{}]", fields.join(", "))
            }
        }
    }
}

/// One catalog entry: an index built over an input file.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// The original input file.
    pub input_path: PathBuf,
    /// The index artifact.
    pub index_path: PathBuf,
    /// What the artifact is.
    pub kind: IndexKind,
    /// Artifact size in bytes (the "space overhead" column of Table 2).
    pub index_bytes: u64,
    /// Original input size in bytes, for overhead reporting.
    pub input_bytes: u64,
}

impl CatalogEntry {
    /// Space overhead relative to the input, as a fraction.
    pub fn space_overhead(&self) -> f64 {
        if self.input_bytes == 0 {
            0.0
        } else {
            self.index_bytes as f64 / self.input_bytes as f64
        }
    }
}

/// The `catalog.json` layout this build writes and reads. Version 2 is
/// the one row file: a catalog without the key may register artifacts
/// in layouts no reader opens any more, so it fails to parse and
/// [`Catalog::open`] moves it aside.
const CATALOG_VERSION: u64 = 2;

#[derive(Debug, Default)]
struct CatalogFile {
    entries: Vec<CatalogEntry>,
}

// ---------------------------------------------------------------------
// JSON codecs. Hand-written against `mr_json` (the build environment
// has no registry access for serde), but byte-compatible with serde's
// externally-tagged representation of these types so existing catalog
// files keep working if the workspace later moves to real serde.

/// The decoders below read JSON only, so they fail with a
/// [`JsonError`]; [`CatalogFile::parse`] maps it to a catalog error
/// once.
type Decoded<T> = std::result::Result<T, JsonError>;

fn opt_string_array(j: &Json, key: &str) -> Decoded<Option<Vec<String>>> {
    match j.field(key)? {
        Json::Null => Ok(None),
        _ => j.str_array_field(key).map(Some),
    }
}

fn variant<'j>(j: &'j Json, what: &str) -> Decoded<(&'j str, &'j Json)> {
    match j.as_obj() {
        Some([(tag, payload)]) => Ok((tag.as_str(), payload)),
        _ => Err(JsonError::shape(format!(
            "{what} is not a single-variant object"
        ))),
    }
}

impl BoundRepr {
    fn to_json(&self) -> Json {
        match self {
            BoundRepr::Open => Json::str("Open"),
            BoundRepr::Incl(s) => Json::obj([("Incl", Json::str(s.clone()))]),
            BoundRepr::Excl(s) => Json::obj([("Excl", Json::str(s.clone()))]),
        }
    }

    fn from_json(j: &Json) -> Decoded<BoundRepr> {
        if j.as_str() == Some("Open") {
            return Ok(BoundRepr::Open);
        }
        let (tag, payload) = variant(j, "bound")?;
        let hex = payload
            .as_str()
            .ok_or_else(|| JsonError::shape("bound payload is not a string"))?
            .to_string();
        match tag {
            "Incl" => Ok(BoundRepr::Incl(hex)),
            "Excl" => Ok(BoundRepr::Excl(hex)),
            other => Err(JsonError::shape(format!("unknown bound variant `{other}`"))),
        }
    }
}

impl RangeRepr {
    /// Encode as a JSON value (used by the catalog file).
    pub fn to_json(&self) -> Json {
        Json::obj([("low", self.low.to_json()), ("high", self.high.to_json())])
    }

    /// Decode from a JSON value.
    pub fn from_json(j: &Json) -> std::result::Result<RangeRepr, JsonError> {
        Ok(RangeRepr {
            low: BoundRepr::from_json(j.field("low")?)?,
            high: BoundRepr::from_json(j.field("high")?)?,
        })
    }
}

fn fields_json(fields: &[String]) -> Json {
    Json::Arr(fields.iter().map(Json::str).collect())
}

fn opt_fields_json(fields: &Option<Vec<String>>) -> Json {
    match fields {
        None => Json::Null,
        Some(fs) => fields_json(fs),
    }
}

fn path_json(path: &Path, what: &str) -> Result<Json> {
    path.to_str()
        .map(Json::str)
        .ok_or_else(|| ManimalError::Catalog(format!("{what} contains invalid UTF-8: {path:?}")))
}

impl IndexKind {
    fn to_json(&self) -> Json {
        match self {
            IndexKind::Selection {
                key,
                covered,
                projected_fields,
            } => Json::obj([(
                "Selection",
                Json::obj([
                    ("key", Json::str(key.clone())),
                    (
                        "covered",
                        Json::Arr(covered.iter().map(RangeRepr::to_json).collect()),
                    ),
                    ("projected_fields", opt_fields_json(projected_fields)),
                ]),
            )]),
            IndexKind::Projection { fields } => {
                Json::obj([("Projection", Json::obj([("fields", fields_json(fields))]))])
            }
            IndexKind::Delta { fields, projected } => Json::obj([(
                "Delta",
                Json::obj([
                    ("fields", fields_json(fields)),
                    ("projected", opt_fields_json(projected)),
                ]),
            )]),
            IndexKind::Dict { fields } => {
                Json::obj([("Dict", Json::obj([("fields", fields_json(fields))]))])
            }
        }
    }

    fn from_json(j: &Json) -> Decoded<IndexKind> {
        let (tag, payload) = variant(j, "index kind")?;
        match tag {
            "Selection" => Ok(IndexKind::Selection {
                key: payload.str_field("key")?.to_string(),
                covered: payload
                    .arr_field("covered")?
                    .iter()
                    .map(RangeRepr::from_json)
                    .collect::<Decoded<Vec<_>>>()?,
                projected_fields: opt_string_array(payload, "projected_fields")?,
            }),
            "Projection" => Ok(IndexKind::Projection {
                fields: payload.str_array_field("fields")?,
            }),
            "Delta" => Ok(IndexKind::Delta {
                fields: payload.str_array_field("fields")?,
                projected: opt_string_array(payload, "projected")?,
            }),
            "Dict" => Ok(IndexKind::Dict {
                fields: payload.str_array_field("fields")?,
            }),
            other => Err(JsonError::shape(format!("unknown index kind `{other}`"))),
        }
    }
}

impl CatalogEntry {
    fn to_json(&self) -> Result<Json> {
        Ok(Json::obj([
            ("input_path", path_json(&self.input_path, "input path")?),
            ("index_path", path_json(&self.index_path, "index path")?),
            ("kind", self.kind.to_json()),
            ("index_bytes", Json::Int(self.index_bytes as i64)),
            ("input_bytes", Json::Int(self.input_bytes as i64)),
        ]))
    }

    fn from_json(j: &Json) -> Decoded<CatalogEntry> {
        Ok(CatalogEntry {
            input_path: PathBuf::from(j.str_field("input_path")?),
            index_path: PathBuf::from(j.str_field("index_path")?),
            kind: IndexKind::from_json(j.field("kind")?)?,
            index_bytes: j.u64_field("index_bytes")?,
            input_bytes: j.u64_field("input_bytes")?,
        })
    }
}

impl CatalogFile {
    fn to_json(&self) -> Result<Json> {
        let entries = self.entries.iter().map(CatalogEntry::to_json);
        Ok(Json::obj([
            ("version", Json::Int(CATALOG_VERSION as i64)),
            ("entries", Json::Arr(entries.collect::<Result<Vec<_>>>()?)),
        ]))
    }

    fn from_json(j: &Json) -> Decoded<CatalogFile> {
        let version = j.u64_field("version")?;
        if version != CATALOG_VERSION {
            return Err(JsonError::shape(format!(
                "catalog version {version}, this build reads {CATALOG_VERSION}"
            )));
        }
        Ok(CatalogFile {
            entries: j
                .arr_field("entries")?
                .iter()
                .map(CatalogEntry::from_json)
                .collect::<Decoded<Vec<_>>>()?,
        })
    }

    fn parse(text: &str) -> Result<CatalogFile> {
        let value = mr_json::parse(text)
            .map_err(|e| ManimalError::Catalog(format!("catalog parse: {e}")))?;
        CatalogFile::from_json(&value)
            .map_err(|e| ManimalError::Catalog(format!("catalog decode: {e}")))
    }
}

/// An exclusive advisory file lock (`flock(2)`) held for the duration
/// of one catalog mutation. Advisory locks are released by the kernel
/// when the holding process dies — including `kill -9` — so a crashed
/// writer can never wedge the catalog the way a lockfile would.
///
/// The workspace has no `libc` crate (externals are vendored shims), but
/// every Rust binary on Unix already links the platform libc, so the
/// one symbol needed is declared directly.
#[derive(Debug)]
struct FileLock {
    file: std::fs::File,
}

extern "C" {
    fn flock(fd: std::os::raw::c_int, operation: std::os::raw::c_int) -> std::os::raw::c_int;
}

const LOCK_EX: std::os::raw::c_int = 2;
const LOCK_UN: std::os::raw::c_int = 8;

impl FileLock {
    /// Block until the exclusive lock on `path` is held.
    fn acquire(path: &Path) -> std::io::Result<FileLock> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        loop {
            if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
                return Ok(FileLock { file });
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        use std::os::unix::io::AsRawFd;
        unsafe { flock(self.file.as_raw_fd(), LOCK_UN) };
    }
}

/// The filesystem catalog.
#[derive(Debug)]
pub struct Catalog {
    path: PathBuf,
    inner: Mutex<CatalogFile>,
}

impl Catalog {
    /// Open (or create) the catalog at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Catalog> {
        let path = path.as_ref().to_path_buf();
        let inner = if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            match CatalogFile::parse(&text) {
                Ok(parsed) => parsed,
                Err(e) => {
                    // A stale or corrupt catalog (e.g. written by an
                    // older format) must not brick the system: move it
                    // aside and start fresh, like Hadoop ignoring a bad
                    // metadata file. The rename itself must not fail
                    // silently — if the bad file cannot be moved aside,
                    // a fresh save would clobber the evidence and the
                    // next open would hit the same corruption.
                    let backup = path.with_extension("json.corrupt");
                    std::fs::rename(&path, &backup).map_err(|rename_err| {
                        ManimalError::Catalog(format!(
                            "unreadable catalog {} ({e}); backing it up to {} also failed: \
                             {rename_err}",
                            path.display(),
                            backup.display()
                        ))
                    })?;
                    eprintln!(
                        "warning: unreadable catalog {} ({e}); moved to {} and starting fresh",
                        path.display(),
                        backup.display()
                    );
                    CatalogFile::default()
                }
            }
        } else {
            CatalogFile::default()
        };
        Ok(Catalog {
            path,
            inner: Mutex::new(inner),
        })
    }

    /// The sibling lock-file path guarding mutations of this catalog.
    fn lock_path(&self) -> PathBuf {
        self.path.with_extension("json.lock")
    }

    /// Run one mutation under the advisory file lock: re-read the
    /// on-disk truth (another process or instance may have written
    /// since we loaded), apply `mutate`, and persist atomically. The
    /// refreshed, merged state also becomes this instance's in-memory
    /// view.
    fn mutate(&self, mutate: impl FnOnce(&mut Vec<CatalogEntry>)) -> Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let _flock = FileLock::acquire(&self.lock_path())?;
        let mut inner = self.inner.lock();
        if self.path.exists() {
            let text = std::fs::read_to_string(&self.path)?;
            *inner = CatalogFile::parse(&text)?;
        }
        mutate(&mut inner.entries);
        self.save_locked(&inner)
    }

    /// Register an index, replacing any previous entry with the same
    /// input path and kind, and persist.
    pub fn register(&self, entry: CatalogEntry) -> Result<()> {
        self.mutate(|entries| {
            entries.retain(|e| !(e.input_path == entry.input_path && e.kind == entry.kind));
            entries.push(entry);
        })
    }

    /// The indexes registered for an input file as it is now. An entry
    /// built over a file of another length was derived from other bytes
    /// and is never served: one `stat` per call. (A rewrite that keeps
    /// the length still reads as current.)
    pub fn indexes_for(&self, input: &Path) -> Vec<CatalogEntry> {
        let Ok(len) = std::fs::metadata(input).map(|m| m.len()) else {
            return Vec::new();
        };
        (self.inner.lock().entries.iter())
            .filter(|e| e.input_path == input && e.input_bytes == len)
            .cloned()
            .collect()
    }

    /// Every entry.
    pub fn entries(&self) -> Vec<CatalogEntry> {
        self.inner.lock().entries.clone()
    }

    /// Drop all entries for an input (e.g. after the file changed).
    pub fn invalidate(&self, input: &Path) -> Result<()> {
        self.mutate(|entries| entries.retain(|e| e.input_path != input))
    }

    /// Persist atomically: write a tmp file in the catalog's own
    /// directory (same filesystem, so the rename cannot cross devices)
    /// and rename it over `catalog.json` — the commit-by-rename
    /// discipline the rest of the repo uses for artifacts. A crash at
    /// any point leaves the old or the new state, never a torn file.
    /// Callers hold the advisory lock, so the fixed tmp name is safe.
    fn save_locked(&self, inner: &CatalogFile) -> Result<()> {
        let text = inner.to_json()?.to_string_pretty();
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("manimal-catalog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.json", std::process::id()))
    }

    /// A real input file of the 1000 bytes [`entry`] records.
    fn input(name: &str) -> String {
        let path = tmp(name).with_extension("seq");
        std::fs::write(&path, [0u8; 1000]).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn entry(input: &str, kind: IndexKind) -> CatalogEntry {
        CatalogEntry {
            input_path: PathBuf::from(input),
            index_path: PathBuf::from(format!("{input}.idx")),
            kind,
            index_bytes: 100,
            input_bytes: 1000,
        }
    }

    #[test]
    fn register_persist_reload() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let cat = Catalog::open(&path).unwrap();
        let logs = input("logs");
        cat.register(entry(
            &logs,
            IndexKind::Selection {
                key: "value.rank".into(),
                covered: vec![RangeRepr {
                    low: BoundRepr::Open,
                    high: BoundRepr::Open,
                }],
                projected_fields: None,
            },
        ))
        .unwrap();
        cat.register(entry(
            &logs,
            IndexKind::Projection {
                fields: vec!["url".into()],
            },
        ))
        .unwrap();

        let reopened = Catalog::open(&path).unwrap();
        let found = reopened.indexes_for(Path::new(&logs));
        assert_eq!(found.len(), 2);
        assert!(reopened.indexes_for(Path::new(&input("other"))).is_empty());
    }

    #[test]
    fn register_replaces_same_kind() {
        let path = tmp("replace");
        let _ = std::fs::remove_file(&path);
        let cat = Catalog::open(&path).unwrap();
        let kind = IndexKind::Delta {
            fields: vec!["ts".into()],
            projected: None,
        };
        let a = input("replace-a");
        cat.register(entry(&a, kind.clone())).unwrap();
        let mut second = entry(&a, kind);
        second.index_bytes = 999;
        cat.register(second).unwrap();
        let found = cat.indexes_for(Path::new(&a));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].index_bytes, 999);
    }

    #[test]
    fn invalidate_removes_everything_for_input() {
        let path = tmp("invalidate");
        let _ = std::fs::remove_file(&path);
        let cat = Catalog::open(&path).unwrap();
        let (a, b) = (input("invalidate-a"), input("invalidate-b"));
        cat.register(entry(
            &a,
            IndexKind::Dict {
                fields: vec!["u".into()],
            },
        ))
        .unwrap();
        cat.register(entry(
            &b,
            IndexKind::Dict {
                fields: vec!["u".into()],
            },
        ))
        .unwrap();
        cat.invalidate(Path::new(&a)).unwrap();
        assert!(cat.indexes_for(Path::new(&a)).is_empty());
        assert_eq!(cat.indexes_for(Path::new(&b)).len(), 1);
    }

    /// An entry is served only while its input has the length it was
    /// built from; a missing input has no entries.
    #[test]
    fn entries_of_a_resized_input_are_not_served() {
        let path = tmp("resized");
        let _ = std::fs::remove_file(&path);
        let cat = Catalog::open(&path).unwrap();
        let logs = input("resized-input");
        let kind = IndexKind::Projection {
            fields: vec!["url".into()],
        };
        cat.register(entry(&logs, kind)).unwrap();
        assert_eq!(cat.indexes_for(Path::new(&logs)).len(), 1);
        std::fs::write(&logs, [0u8; 1001]).unwrap();
        assert!(cat.indexes_for(Path::new(&logs)).is_empty());
        std::fs::remove_file(&logs).unwrap();
        assert!(cat.indexes_for(Path::new(&logs)).is_empty());
        assert_eq!(cat.entries().len(), 1, "kept, just not served");
    }

    /// A catalog written before the `version` key registers artifacts
    /// in retired layouts: it is moved aside and the catalog opens empty.
    #[test]
    fn versionless_catalog_is_moved_aside() {
        let path = tmp("versionless");
        let backup = path.with_extension("json.corrupt");
        let _ = std::fs::remove_file(&backup);
        let cat = Catalog::open(&path).unwrap();
        cat.register(entry(
            &input("versionless-input"),
            IndexKind::Dict {
                fields: vec!["u".into()],
            },
        ))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let old = text.replacen("\"version\": 2,", "", 1);
        assert_ne!(old, text, "{text}");
        std::fs::write(&path, &old).unwrap();
        let reopened = Catalog::open(&path).unwrap();
        assert!(reopened.entries().is_empty());
        assert_eq!(std::fs::read_to_string(&backup).unwrap(), old);
        assert!(!path.exists(), "original slot is clear until next save");
        let _ = std::fs::remove_file(&backup);
    }

    /// The lost-update fix: N threads, each with its *own* `Catalog`
    /// instance on the same path (the exact load-modify-save shape two
    /// processes would have), register disjoint entries concurrently.
    /// Every entry must survive.
    #[test]
    fn concurrent_writers_lose_no_entries() {
        let path = tmp("stress");
        let _ = std::fs::remove_file(&path);
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 6;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = path.clone();
                scope.spawn(move || {
                    let cat = Catalog::open(&path).unwrap();
                    for i in 0..PER_WRITER {
                        cat.register(entry(
                            &format!("/data/w{w}-{i}.seq"),
                            IndexKind::Projection {
                                fields: vec!["url".into()],
                            },
                        ))
                        .unwrap();
                    }
                });
            }
        });
        let reopened = Catalog::open(&path).unwrap();
        assert_eq!(
            reopened.entries().len(),
            WRITERS * PER_WRITER,
            "concurrent registrations must merge, not clobber"
        );
    }

    /// A writer's in-memory view picks up entries other instances
    /// persisted, because every mutation re-reads disk under the lock.
    #[test]
    fn mutation_refreshes_from_disk() {
        let path = tmp("refresh");
        let _ = std::fs::remove_file(&path);
        let a = Catalog::open(&path).unwrap();
        let b = Catalog::open(&path).unwrap();
        a.register(entry(
            "/data/a.seq",
            IndexKind::Projection {
                fields: vec!["x".into()],
            },
        ))
        .unwrap();
        b.register(entry(
            "/data/b.seq",
            IndexKind::Projection {
                fields: vec!["y".into()],
            },
        ))
        .unwrap();
        // b merged a's entry in before writing its own.
        assert_eq!(b.entries().len(), 2);
        assert_eq!(Catalog::open(&path).unwrap().entries().len(), 2);
    }

    /// Saves go through tmp + rename: after a register, no tmp file
    /// lingers and the catalog parses.
    #[test]
    fn save_commits_by_rename() {
        let path = tmp("atomic");
        let _ = std::fs::remove_file(&path);
        let cat = Catalog::open(&path).unwrap();
        cat.register(entry(
            "/data/x.seq",
            IndexKind::Dict {
                fields: vec!["u".into()],
            },
        ))
        .unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        assert!(CatalogFile::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
    }

    /// A corrupt catalog whose backup rename *fails* must surface a
    /// typed error instead of silently discarding it (the old
    /// `let _ = rename(...)` bug). Renaming a file over a non-empty
    /// directory fails on every Unix, which simulates the failure
    /// without permission games.
    #[test]
    fn failed_corrupt_backup_is_a_typed_error() {
        let path = tmp("badbackup");
        std::fs::write(&path, "this is not json").unwrap();
        let backup = path.with_extension("json.corrupt");
        let _ = std::fs::remove_file(&backup);
        let _ = std::fs::remove_dir_all(&backup);
        std::fs::create_dir_all(backup.join("occupied")).unwrap();
        let err = Catalog::open(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("backing it up") && msg.contains("also failed"),
            "{msg}"
        );
        std::fs::remove_dir_all(&backup).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// The recovery path itself still works when the rename can
    /// succeed: corrupt file moved aside, fresh catalog returned.
    #[test]
    fn corrupt_catalog_backed_up_and_opens_fresh() {
        let path = tmp("recover");
        let backup = path.with_extension("json.corrupt");
        let _ = std::fs::remove_file(&backup);
        std::fs::write(&path, "{ torn garbage").unwrap();
        let cat = Catalog::open(&path).unwrap();
        assert!(cat.entries().is_empty());
        assert!(backup.exists(), "bad file moved aside as evidence");
        assert!(!path.exists(), "original slot is clear until next save");
        let _ = std::fs::remove_file(&backup);
    }

    #[test]
    fn space_overhead_reported() {
        let e = entry(
            "/a",
            IndexKind::Projection {
                fields: vec!["x".into()],
            },
        );
        assert!((e.space_overhead() - 0.1).abs() < 1e-9);
    }
}

#[cfg(test)]
mod range_repr_tests {
    use super::*;

    #[test]
    fn bound_repr_roundtrip() {
        for b in [
            ScanBound::Unbounded,
            ScanBound::Incl(Value::Int(42)),
            ScanBound::Excl(Value::str("http://x")),
            ScanBound::Incl(Value::Double(2.5)),
        ] {
            let repr = BoundRepr::from_bound(&b).unwrap();
            assert_eq!(repr.to_bound().unwrap(), b);
        }
    }

    #[test]
    fn range_repr_json_roundtrip() {
        let r =
            RangeRepr::from_bounds(&ScanBound::Excl(Value::Int(1)), &ScanBound::Unbounded).unwrap();
        let json = r.to_json().to_string_compact();
        let back = RangeRepr::from_json(&mr_json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, r);
        let (lo, hi) = back.to_bounds().unwrap();
        assert_eq!(lo, ScanBound::Excl(Value::Int(1)));
        assert_eq!(hi, ScanBound::Unbounded);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_path_rejected_not_corrupted() {
        use std::os::unix::ffi::OsStrExt;
        let bad = PathBuf::from(std::ffi::OsStr::from_bytes(b"/data/lo\xffgs.seq"));
        let entry = CatalogEntry {
            input_path: bad,
            index_path: PathBuf::from("/data/logs.seq.idx"),
            kind: IndexKind::Dict {
                fields: vec!["u".into()],
            },
            index_bytes: 1,
            input_bytes: 2,
        };
        let err = entry.to_json().unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn bad_hex_rejected() {
        assert!(BoundRepr::Incl("zz".into()).to_bound().is_err());
        assert!(BoundRepr::Incl("abc".into()).to_bound().is_err());
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn index_kind_display_is_readable() {
        let kind = IndexKind::Selection {
            key: "value.rank".into(),
            covered: vec![RangeRepr::from_bounds(
                &ScanBound::Excl(Value::Int(90)),
                &ScanBound::Unbounded,
            )
            .unwrap()],
            projected_fields: Some(vec!["url".into(), "rank".into()]),
        };
        let text = kind.to_string();
        assert!(text.contains("selection B+Tree on value.rank"), "{text}");
        assert!(text.contains("storing [url, rank]"), "{text}");
        assert!(text.contains("(90, +inf)"), "{text}");

        assert_eq!(
            IndexKind::Dict {
                fields: vec!["u".into()]
            }
            .to_string(),
            "dictionary file on [u]"
        );
    }
}
