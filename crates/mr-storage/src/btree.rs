//! A paged, clustered B+Tree index file.
//!
//! This is the index the SELECT optimization scans: "we can optimize
//! such code at runtime by using a B+Tree to scan just the relevant
//! portion of the input data" (paper §2.1). The tree is *clustered*: leaf
//! entries carry the full serialized record (or the projected record,
//! for a combined selection+projection index), so an index scan replaces
//! the original file entirely — it is "an indexed version of the
//! submitted job's input data" (§2).
//!
//! The index-generation job feeds keys in sorted order (it is a
//! MapReduce job whose shuffle sorts by the index key and whose reducer
//! appends each group as the merge produces it), so the tree is
//! bulk-built bottom-up: leaves first, then each internal level, root
//! last.
//!
//! Layout:
//!
//! ```text
//! magic "MRBT1"
//! varint header_len, header = page_size varint + encode_schema(schema)
//! pages (fixed page_size each; page id = position)
//! footer: root u64, n_pages u64, entries u64, n_leaves u64, "MRBTF"
//! ```
//!
//! Page formats:
//! * leaf: `[0u8][next_leaf u64][varint n][varint klen, key, varint vlen, val]*`
//! * internal: `[1u8][varint n][varint child_id, varint klen, min_key]*`
//!
//! Because the build writes leaves first, the leaves are exactly the page
//! ids `0..n_leaves`, in key order, and every internal page id is
//! `>= n_leaves`. Readers rely on that instead of the `next_leaf` chain:
//! a range scan descends once for the first leaf its low bound may touch
//! and once for the last leaf its high bound may touch, and walks the ids
//! in between. That makes a range divisible — [`BTreeIndex::scan_spans`]
//! cuts it into disjoint, contiguous leaf spans that separate map tasks
//! read in parallel — and [`BTreeIndex::scan`] is the one-span case.

use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::Schema;
use mr_ir::value::Value;

use crate::error::{Result, StorageError};
use crate::rowcodec::{
    decode_row, decode_schema, decode_value, encode_row, encode_schema, encode_value,
};
use crate::varint::{decode_u64, encode_u64, encoded_len_u64};

const MAGIC: &[u8; 5] = b"MRBT1";
const FOOTER_MAGIC: &[u8; 5] = b"MRBTF";
const NO_LEAF: u64 = u64::MAX;

/// Default page size. Large enough that even records with multi-KB
/// content fields fit several to a page.
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// One scan bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanBound {
    /// No bound.
    Unbounded,
    /// Inclusive bound.
    Incl(Value),
    /// Exclusive bound.
    Excl(Value),
}

impl ScanBound {
    /// Whether `key` lies within the range `[lo, hi]`, each end
    /// inclusive, exclusive or open as its bound says — the one range
    /// predicate scans and selection-index views share.
    pub fn range_admits(lo: &ScanBound, hi: &ScanBound, key: &Value) -> bool {
        lo.admits_low(key) && hi.admits_high(key)
    }

    fn admits_low(&self, key: &Value) -> bool {
        match self {
            ScanBound::Unbounded => true,
            ScanBound::Incl(b) => key >= b,
            ScanBound::Excl(b) => key > b,
        }
    }

    fn admits_high(&self, key: &Value) -> bool {
        match self {
            ScanBound::Unbounded => true,
            ScanBound::Incl(b) => key <= b,
            ScanBound::Excl(b) => key < b,
        }
    }

    /// The descent to the first leaf that may hold a key this low bound
    /// admits. For `Incl(b)` that is the last leaf whose min key is
    /// strictly below `b`: duplicates of `b` may straddle a leaf
    /// boundary, so the leaf *before* the first one starting with `b` can
    /// end with copies of it.
    fn low_descent(&self) -> Descent<'_> {
        match self {
            ScanBound::Unbounded => Descent::First,
            ScanBound::Incl(b) => Descent::Below(b),
            ScanBound::Excl(b) => Descent::AtOrBelow(b),
        }
    }

    /// The descent to the last leaf that may hold a key this high bound
    /// admits.
    fn high_descent(&self) -> Descent<'_> {
        match self {
            ScanBound::Unbounded => Descent::Last,
            ScanBound::Incl(b) => Descent::AtOrBelow(b),
            ScanBound::Excl(b) => Descent::Below(b),
        }
    }
}

/// Which child a descent follows through each internal page.
#[derive(Debug, Clone, Copy)]
enum Descent<'a> {
    /// The leftmost leaf.
    First,
    /// The rightmost leaf.
    Last,
    /// The last child whose min key is `< key` (the first child if none).
    Below(&'a Value),
    /// The last child whose min key is `<= key` (the first child if none).
    AtOrBelow(&'a Value),
}

/// Far deeper than any tree a file can hold: a descent that goes deeper
/// is following a cycle in a corrupt file.
const MAX_DEPTH: u32 = 64;

/// Builds a B+Tree from key-sorted `(key, record)` pairs.
pub struct BTreeWriter {
    out: BufWriter<File>,
    page_size: usize,
    /// Current leaf buffer (entry area only).
    leaf_buf: Vec<u8>,
    leaf_entries: u64,
    leaf_first_key: Option<Vec<u8>>,
    /// (min_key, page_id) of completed pages at the current level.
    level0: Vec<(Vec<u8>, u64)>,
    next_page_id: u64,
    entry_count: u64,
    last_key: Option<Value>,
    scratch_key: Vec<u8>,
    scratch_row: Vec<u8>,
}

/// Statistics returned by [`BTreeWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeStats {
    /// Total entries stored.
    pub entries: u64,
    /// Total pages written.
    pub pages: u64,
    /// Tree height (1 = root is a leaf).
    pub height: u32,
    /// Total file size in bytes.
    pub file_size: u64,
}

impl BTreeWriter {
    /// Create the index file with the default page size.
    pub fn create(path: impl AsRef<Path>, schema: Arc<Schema>) -> Result<BTreeWriter> {
        Self::with_page_size(path, schema, DEFAULT_PAGE_SIZE)
    }

    /// Create with an explicit page size.
    pub fn with_page_size(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        page_size: usize,
    ) -> Result<BTreeWriter> {
        assert!(page_size >= 64, "page size too small");
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        let mut header = Vec::new();
        encode_u64(page_size as u64, &mut header);
        encode_schema(&schema, &mut header);
        let mut lenbuf = Vec::new();
        encode_u64(header.len() as u64, &mut lenbuf);
        out.write_all(&lenbuf)?;
        out.write_all(&header)?;
        Ok(BTreeWriter {
            out,
            page_size,
            leaf_buf: Vec::new(),
            leaf_entries: 0,
            leaf_first_key: None,
            level0: Vec::new(),
            next_page_id: 0,
            entry_count: 0,
            last_key: None,
            scratch_key: Vec::new(),
            scratch_row: Vec::new(),
        })
    }

    /// Leaf payload capacity: page minus type byte, next-leaf pointer
    /// and a generous entry-count varint.
    fn leaf_capacity(&self) -> usize {
        self.page_size - 1 - 8 - 10
    }

    /// Append one entry. Index keys must arrive in non-decreasing
    /// order. `orig_key` is the key the original input file would have
    /// produced for this record (a record position, a String key, …);
    /// it is stored alongside the record so the optimized plan feeds
    /// `map()` inputs identical to the baseline's.
    pub fn append(&mut self, key: &Value, orig_key: &Value, record: &Record) -> Result<()> {
        let mut value = std::mem::take(&mut self.scratch_row);
        value.clear();
        let appended = encode_value(orig_key, &mut value)
            .and_then(|()| encode_row(record, &mut value))
            .and_then(|()| self.append_encoded(key, &value));
        self.scratch_row = value;
        appended
    }

    /// [`append`](Self::append) with the entry's value already encoded:
    /// `value` is `encode_value(orig_key)` followed by `encode_row(record)`
    /// against the tree's schema. A caller with parallelism to spare
    /// encodes there and the writer only copies the bytes.
    pub fn append_encoded(&mut self, key: &Value, value: &[u8]) -> Result<()> {
        if let Some(prev) = &self.last_key {
            if key < prev {
                return Err(StorageError::Schema(format!(
                    "B+Tree keys out of order: {key} after {prev}"
                )));
            }
        }
        self.last_key = Some(key.clone());

        self.scratch_key.clear();
        encode_value(key, &mut self.scratch_key)?;

        let entry_len = encoded_len_u64(self.scratch_key.len() as u64)
            + self.scratch_key.len()
            + encoded_len_u64(value.len() as u64)
            + value.len();
        if entry_len > self.leaf_capacity() {
            return Err(StorageError::Schema(format!(
                "entry of {entry_len} bytes exceeds page capacity {}; use a larger page size",
                self.leaf_capacity()
            )));
        }
        if self.leaf_buf.len() + entry_len > self.leaf_capacity() {
            self.flush_leaf()?;
        }
        if self.leaf_first_key.is_none() {
            self.leaf_first_key = Some(self.scratch_key.clone());
        }
        encode_u64(self.scratch_key.len() as u64, &mut self.leaf_buf);
        self.leaf_buf.extend_from_slice(&self.scratch_key);
        encode_u64(value.len() as u64, &mut self.leaf_buf);
        self.leaf_buf.extend_from_slice(value);
        self.leaf_entries += 1;
        self.entry_count += 1;
        Ok(())
    }

    fn flush_leaf(&mut self) -> Result<()> {
        if self.leaf_entries == 0 {
            return Ok(());
        }
        let id = self.next_page_id;
        self.next_page_id += 1;
        let mut page = Vec::with_capacity(self.page_size);
        page.push(0u8);
        // Leaves are written consecutively during the build, so the next
        // leaf is simply id + 1. The final leaf's pointer is not patched
        // (we cannot seek back through BufWriter cheaply); readers walk
        // leaf ids below the footer's leaf count and never follow it.
        page.extend_from_slice(&(id + 1).to_le_bytes());
        encode_u64(self.leaf_entries, &mut page);
        page.extend_from_slice(&self.leaf_buf);
        page.resize(self.page_size, 0);
        self.out.write_all(&page)?;
        let first_key = self
            .leaf_first_key
            .take()
            .expect("non-empty leaf has a first key");
        self.level0.push((first_key, id));
        self.leaf_buf.clear();
        self.leaf_entries = 0;
        Ok(())
    }

    /// Build internal levels and the footer; returns stats.
    pub fn finish(mut self) -> Result<BTreeStats> {
        self.flush_leaf()?;
        if self.level0.is_empty() {
            // Empty tree: a single empty leaf as root.
            let mut page = Vec::with_capacity(self.page_size);
            page.push(0u8);
            page.extend_from_slice(&NO_LEAF.to_le_bytes());
            encode_u64(0, &mut page);
            page.resize(self.page_size, 0);
            self.out.write_all(&page)?;
            self.level0.push((Vec::new(), 0));
            self.next_page_id = 1;
        }
        let n_leaves = self.level0.len() as u64;

        let mut height = 1u32;
        let mut level = std::mem::take(&mut self.level0);
        while level.len() > 1 {
            height += 1;
            let mut next_level: Vec<(Vec<u8>, u64)> = Vec::new();
            let capacity = self.page_size - 1 - 10;
            let mut buf: Vec<u8> = Vec::new();
            let mut count = 0u64;
            let mut first_key: Option<Vec<u8>> = None;

            let flush = |buf: &mut Vec<u8>,
                         count: &mut u64,
                         first_key: &mut Option<Vec<u8>>,
                         next_page_id: &mut u64,
                         out: &mut BufWriter<File>,
                         next_level: &mut Vec<(Vec<u8>, u64)>|
             -> Result<()> {
                if *count == 0 {
                    return Ok(());
                }
                let id = *next_page_id;
                *next_page_id += 1;
                let mut page = Vec::with_capacity(self.page_size);
                page.push(1u8);
                encode_u64(*count, &mut page);
                page.extend_from_slice(buf);
                page.resize(self.page_size, 0);
                out.write_all(&page)?;
                next_level.push((first_key.take().expect("first key"), id));
                buf.clear();
                *count = 0;
                Ok(())
            };

            for (key, child) in level {
                let entry_len =
                    encoded_len_u64(child) + encoded_len_u64(key.len() as u64) + key.len();
                if buf.len() + entry_len > capacity {
                    flush(
                        &mut buf,
                        &mut count,
                        &mut first_key,
                        &mut self.next_page_id,
                        &mut self.out,
                        &mut next_level,
                    )?;
                }
                if first_key.is_none() {
                    first_key = Some(key.clone());
                }
                encode_u64(child, &mut buf);
                encode_u64(key.len() as u64, &mut buf);
                buf.extend_from_slice(&key);
                count += 1;
            }
            flush(
                &mut buf,
                &mut count,
                &mut first_key,
                &mut self.next_page_id,
                &mut self.out,
                &mut next_level,
            )?;
            level = next_level;
        }
        let root = level[0].1;
        let n_pages = self.next_page_id;

        self.out.write_all(&root.to_le_bytes())?;
        self.out.write_all(&n_pages.to_le_bytes())?;
        self.out.write_all(&self.entry_count.to_le_bytes())?;
        self.out.write_all(&n_leaves.to_le_bytes())?;
        self.out.write_all(FOOTER_MAGIC)?;
        self.out.flush()?;

        let header_len = header_size_estimate(&self.out)?;
        Ok(BTreeStats {
            entries: self.entry_count,
            pages: n_pages,
            height,
            file_size: header_len,
        })
    }
}

fn header_size_estimate(out: &BufWriter<File>) -> Result<u64> {
    Ok(out.get_ref().metadata()?.len())
}

/// An open B+Tree index.
pub struct BTreeIndex {
    path: PathBuf,
    page_size: usize,
    schema: Arc<Schema>,
    data_start: u64,
    root: u64,
    /// Total pages in the file.
    pub n_pages: u64,
    /// Number of leaf pages (leaves occupy ids `0..n_leaves`).
    n_leaves: u64,
    /// Total entries.
    pub entry_count: u64,
    /// Total file size.
    pub file_size: u64,
}

impl BTreeIndex {
    /// Open an index file, parsing header and footer.
    pub fn open(path: impl AsRef<Path>) -> Result<BTreeIndex> {
        let path = path.as_ref().to_path_buf();
        let mut f = File::open(&path)?;
        let file_size = f.metadata()?.len();
        let mut magic = [0u8; 5];
        f.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::corrupt("btree", "bad magic"));
        }
        let mut head = vec![0u8; 10.min((file_size - 5) as usize)];
        f.read_exact(&mut head)?;
        let (header_len, n) = decode_u64(&head)?;
        if header_len > (1 << 30) {
            return Err(StorageError::corrupt("btree", "header implausibly large"));
        }
        f.seek(SeekFrom::Start((5 + n) as u64))?;
        let mut header = vec![0u8; header_len as usize];
        f.read_exact(&mut header)?;
        let (page_size, m) = decode_u64(&header)?;
        if !(64..=(1u64 << 30)).contains(&page_size) {
            return Err(StorageError::corrupt("btree", "implausible page size"));
        }
        let (schema, _) = decode_schema(&header[m..])?;
        let data_start = (5 + n) as u64 + header_len;

        if file_size < 37 {
            return Err(StorageError::corrupt("btree", "missing footer"));
        }
        f.seek(SeekFrom::End(-37))?;
        let mut tail = [0u8; 37];
        f.read_exact(&mut tail)?;
        if &tail[32..] != FOOTER_MAGIC {
            return Err(StorageError::corrupt("btree", "bad footer magic"));
        }
        let root = u64::from_le_bytes(tail[0..8].try_into().expect("8"));
        let n_pages = u64::from_le_bytes(tail[8..16].try_into().expect("8"));
        let entry_count = u64::from_le_bytes(tail[16..24].try_into().expect("8"));
        let n_leaves = u64::from_le_bytes(tail[24..32].try_into().expect("8"));
        // Scans trust the page counts to bound leaf ids, so they must
        // describe exactly the pages between the header and the footer.
        let pages_end = n_pages
            .checked_mul(page_size)
            .and_then(|b| b.checked_add(data_start + 37));
        if pages_end != Some(file_size) || n_leaves == 0 || n_leaves > n_pages || root >= n_pages {
            return Err(StorageError::corrupt(
                "btree",
                "footer page counts disagree with the file",
            ));
        }
        Ok(BTreeIndex {
            path,
            page_size: page_size as usize,
            schema: Arc::new(schema),
            data_start,
            root,
            n_pages,
            n_leaves,
            entry_count,
            file_size,
        })
    }

    /// The record schema stored in the leaves.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Scan entries whose key lies within `[low, high]`: the one-span
    /// case of [`scan_spans`](Self::scan_spans).
    pub fn scan(&self, low: ScanBound, high: ScanBound) -> Result<BTreeScanner> {
        let mut spans = self.scan_spans(low, high, 1)?;
        Ok(spans.pop().expect("a scan has at least one span"))
    }

    /// Cut the scan of `[low, high]` into at most `max_spans` scanners
    /// over disjoint, contiguous runs of leaves, in key order: read one
    /// after another, they yield exactly what [`scan`](Self::scan)
    /// yields. The spans cover the leaves from the low bound's descent to
    /// the high bound's, split as evenly as whole leaves allow, so the cut
    /// is a pure function of the file, the bounds and `max_spans` — every
    /// process that opens the same range with the same count gets the
    /// same spans. The descents' pages are charged to the first span.
    pub fn scan_spans(
        &self,
        low: ScanBound,
        high: ScanBound,
        max_spans: usize,
    ) -> Result<Vec<BTreeScanner>> {
        let mut file = File::open(&self.path)?;
        let (first, low_pages) = self.descend(&mut file, low.low_descent())?;
        let (last, high_pages) = self.descend(&mut file, high.high_descent())?;
        // An empty range (high below low) still reads the low leaf once
        // and yields nothing.
        let leaves = last.max(first) - first + 1;
        let spans = (max_spans.max(1) as u64).min(leaves);
        let mut file = Some(file);
        let mut out = Vec::with_capacity(spans as usize);
        for i in 0..spans {
            let start = first + leaves * i / spans;
            out.push(BTreeScanner {
                file: match file.take() {
                    Some(f) => f,
                    None => File::open(&self.path)?,
                },
                // A private copy: every record holds a handle on its
                // schema, and spans run on different map threads.
                schema: Arc::new(Schema::clone(&self.schema)),
                data_start: self.data_start,
                page_size: self.page_size,
                low: low.clone(),
                high: high.clone(),
                page: Vec::new(),
                entry_pos: 0,
                entries_left: 0,
                first_leaf: start,
                next_leaf: start,
                end_leaf: first + leaves * (i + 1) / spans - 1,
                pages_read: if i == 0 { low_pages + high_pages } else { 0 },
                done: false,
                started: false,
            });
        }
        Ok(out)
    }

    /// Descend from the root to the leaf `to` names; returns the leaf
    /// id and the internal pages read on the way.
    fn descend(&self, file: &mut File, to: Descent<'_>) -> Result<(u64, u64)> {
        match to {
            Descent::First => return Ok((0, 0)),
            Descent::Last => return Ok((self.n_leaves.saturating_sub(1), 0)),
            Descent::Below(_) | Descent::AtOrBelow(_) => {}
        }
        let mut page = Vec::new();
        let mut pid = self.root;
        let mut pages = 0u64;
        while pid >= self.n_leaves {
            if pages == u64::from(MAX_DEPTH) {
                return Err(StorageError::corrupt(
                    "btree",
                    "descent never reaches a leaf",
                ));
            }
            page.resize(self.page_size, 0);
            read_page(file, self.data_start, self.page_size, pid, &mut page)?;
            pages += 1;
            if page[0] != 1 {
                return Err(StorageError::corrupt(
                    "btree",
                    format!(
                        "page {pid}: expected an internal page, found type {}",
                        page[0]
                    ),
                ));
            }
            pid = pick_child(&page, to)?;
        }
        Ok((pid, pages))
    }

    /// Scan everything.
    pub fn scan_all(&self) -> Result<BTreeScanner> {
        self.scan(ScanBound::Unbounded, ScanBound::Unbounded)
    }

    /// Point lookup: all records with exactly `key`.
    pub fn lookup(&self, key: &Value) -> Result<Vec<Record>> {
        let scan = self.scan(ScanBound::Incl(key.clone()), ScanBound::Incl(key.clone()))?;
        scan.map(|r| r.map(|(_, rec)| rec)).collect()
    }
}

fn read_page(
    f: &mut File,
    data_start: u64,
    page_size: usize,
    pid: u64,
    buf: &mut [u8],
) -> Result<()> {
    f.seek(SeekFrom::Start(data_start + pid * page_size as u64))?;
    f.read_exact(buf)?;
    Ok(())
}

/// In an internal page, pick the child descent `to` follows: the last child
/// whose min key passes its test (the first child when none does).
fn pick_child(page: &[u8], to: Descent<'_>) -> Result<u64> {
    let mut pos = 1usize;
    let (n, used) = decode_u64(&page[pos..])?;
    pos += used;
    let mut chosen: Option<u64> = None;
    for _ in 0..n {
        let (child, used) = decode_u64(&page[pos..])?;
        pos += used;
        let (klen, used) = decode_u64(&page[pos..])?;
        pos += used;
        let key_bytes = page
            .get(pos..pos + klen as usize)
            .ok_or_else(|| StorageError::corrupt("btree", "internal entry overruns page"))?;
        pos += klen as usize;
        let follow = chosen.is_none()
            || match to {
                Descent::First => false,
                Descent::Last => true,
                Descent::Below(b) | Descent::AtOrBelow(b) => {
                    !key_bytes.is_empty() && {
                        let (k, _) = decode_value(key_bytes)?;
                        if matches!(to, Descent::Below(_)) {
                            k < *b
                        } else {
                            k <= *b
                        }
                    }
                }
            };
        if !follow {
            break;
        }
        chosen = Some(child);
    }
    chosen.ok_or_else(|| StorageError::corrupt("btree", "empty internal page"))
}

/// Iterates `(original key, record)` pairs of one leaf span of a range
/// scan. The range filter applies to the *index* key; the yielded key is
/// the original input key stored with the entry.
pub struct BTreeScanner {
    file: File,
    schema: Arc<Schema>,
    data_start: u64,
    page_size: usize,
    low: ScanBound,
    high: ScanBound,
    page: Vec<u8>,
    entry_pos: usize,
    entries_left: u64,
    /// First leaf id of the span.
    first_leaf: u64,
    /// Next leaf id to load.
    next_leaf: u64,
    /// Last leaf id of the span (inclusive).
    end_leaf: u64,
    pages_read: u64,
    done: bool,
    started: bool,
}

impl BTreeScanner {
    /// The leaf ids this span reads.
    pub fn leaves(&self) -> std::ops::RangeInclusive<u64> {
        self.first_leaf..=self.end_leaf
    }

    /// Pages fetched so far; `pages_read * page_size` approximates bytes
    /// touched — the quantity index scans save.
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// Bytes touched so far.
    pub fn bytes_read(&self) -> u64 {
        self.pages_read * self.page_size as u64
    }

    /// Read leaf `id` into the page buffer and position at its first
    /// entry.
    fn load_leaf(&mut self, id: u64) -> Result<()> {
        self.page.resize(self.page_size, 0);
        read_page(
            &mut self.file,
            self.data_start,
            self.page_size,
            id,
            &mut self.page,
        )?;
        self.pages_read += 1;
        if self.page[0] != 0 {
            return Err(StorageError::corrupt(
                "btree",
                format!("page {id}: expected a leaf, found type {}", self.page[0]),
            ));
        }
        let pos = 1 + 8;
        let (n, used) = decode_u64(&self.page[pos..])?;
        self.entries_left = n;
        self.entry_pos = pos + used;
        Ok(())
    }

    fn next_entry(&mut self) -> Result<Option<(Value, Record)>> {
        if self.done {
            return Ok(None);
        }
        loop {
            while self.entries_left == 0 {
                if self.next_leaf > self.end_leaf {
                    self.done = true;
                    return Ok(None);
                }
                self.load_leaf(self.next_leaf)?;
                self.next_leaf += 1;
            }
            // Decode one entry (bounds-checked: a corrupted length
            // must surface as an error, not a slice panic).
            let overrun = || StorageError::corrupt("btree", "leaf entry overruns page");
            let (klen, used) = decode_u64(&self.page[self.entry_pos..])?;
            self.entry_pos += used;
            let key_bytes = self
                .page
                .get(self.entry_pos..self.entry_pos + klen as usize)
                .ok_or_else(overrun)?;
            let (key, _) = decode_value(key_bytes)?;
            self.entry_pos += klen as usize;
            let (vlen, used) = decode_u64(&self.page[self.entry_pos..])?;
            self.entry_pos += used;
            let row_start = self.entry_pos;
            self.entry_pos += vlen as usize;
            if self.entry_pos > self.page.len() {
                return Err(overrun());
            }
            self.entries_left -= 1;

            if !self.started {
                if !self.low.admits_low(&key) {
                    continue; // still before the range
                }
                self.started = true;
            }
            if !self.high.admits_high(&key) {
                self.done = true;
                return Ok(None);
            }
            let row_bytes = &self.page[row_start..row_start + vlen as usize];
            let (orig_key, used) = decode_value(row_bytes)?;
            let (record, _) = decode_row(&self.schema, &row_bytes[used..])?;
            return Ok(Some((orig_key, record)));
        }
    }
}

impl Iterator for BTreeScanner {
    type Item = Result<(Value, Record)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_entry().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;
    use mr_ir::schema::FieldType;

    fn schema() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![("url", FieldType::Str), ("rank", FieldType::Int)],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-btree-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// Build a tree over ranks 0..n (sorted), one record per rank.
    fn build(n: i64, page_size: usize, path: &Path) -> BTreeStats {
        let s = schema();
        let mut w = BTreeWriter::with_page_size(path, Arc::clone(&s), page_size).unwrap();
        for i in 0..n {
            let r = record(&s, vec![format!("http://site/{i}").into(), i.into()]);
            w.append(&Value::Int(i), &Value::Int(i), &r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn build_and_scan_all() {
        let path = tmp("all");
        let stats = build(1000, 4096, &path);
        assert_eq!(stats.entries, 1000);
        assert!(stats.height >= 2, "1000 entries on 4K pages needs depth");
        let idx = BTreeIndex::open(&path).unwrap();
        assert_eq!(idx.entry_count, 1000);
        let got: Vec<i64> = idx
            .scan_all()
            .unwrap()
            .map(|r| r.unwrap().0.as_int().unwrap())
            .collect();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_exact() {
        let path = tmp("range");
        build(1000, 4096, &path);
        let idx = BTreeIndex::open(&path).unwrap();
        let got: Vec<i64> = idx
            .scan(
                ScanBound::Excl(Value::Int(500)),
                ScanBound::Incl(Value::Int(510)),
            )
            .unwrap()
            .map(|r| r.unwrap().0.as_int().unwrap())
            .collect();
        assert_eq!(got, (501..=510).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_reads_few_pages() {
        let path = tmp("pages");
        build(10_000, 4096, &path);
        let idx = BTreeIndex::open(&path).unwrap();
        let mut scan = idx
            .scan(ScanBound::Incl(Value::Int(9_990)), ScanBound::Unbounded)
            .unwrap();
        let mut n = 0;
        for r in scan.by_ref() {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, 10);
        // Descent + at most a couple of leaves — nowhere near the ~300
        // pages a full scan would touch.
        assert!(scan.pages_read() < 10, "read {} pages", scan.pages_read());
    }

    #[test]
    fn duplicate_keys_preserved() {
        let s = schema();
        let path = tmp("dups");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 4096).unwrap();
        for i in 0..100 {
            let rank = i / 10; // ten records per rank
            let r = record(&s, vec![format!("u{i}").into(), Value::Int(rank)]);
            w.append(&Value::Int(rank), &Value::Int(i), &r).unwrap();
        }
        w.finish().unwrap();
        let idx = BTreeIndex::open(&path).unwrap();
        let hits = idx.lookup(&Value::Int(5)).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits
            .iter()
            .all(|r| r.get("rank").unwrap() == &Value::Int(5)));
    }

    /// Seven copies of each key on 256-byte pages put runs of duplicates
    /// across most leaf boundaries. An inclusive low bound must start in
    /// the leaf that holds the *first* copy, not the first leaf whose min
    /// key equals the bound.
    #[test]
    fn duplicates_straddling_a_leaf_boundary_are_all_found() {
        let s = schema();
        let path = tmp("dup-straddle");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 256).unwrap();
        for k in 0..40i64 {
            for d in 0..7 {
                let r = record(&s, vec![format!("u{k}-{d}").into(), Value::Int(k)]);
                w.append(&Value::Int(k), &Value::Int(k * 7 + d), &r)
                    .unwrap();
            }
        }
        assert!(w.finish().unwrap().height >= 2);
        let idx = BTreeIndex::open(&path).unwrap();
        for k in 0..40i64 {
            assert_eq!(idx.lookup(&Value::Int(k)).unwrap().len(), 7, "key {k}");
            let at_least: Vec<i64> = idx
                .scan(ScanBound::Incl(Value::Int(k)), ScanBound::Unbounded)
                .unwrap()
                .map(|r| r.unwrap().0.as_int().unwrap())
                .collect();
            assert_eq!(at_least, (k * 7..280).collect::<Vec<_>>(), ">= {k}");
        }
    }

    #[test]
    fn spans_partition_a_range_scan() {
        let path = tmp("spans");
        build(5_000, 1024, &path);
        let idx = BTreeIndex::open(&path).unwrap();
        let (lo, hi) = (
            ScanBound::Incl(Value::Int(100)),
            ScanBound::Excl(Value::Int(4900)),
        );
        let whole: Vec<i64> = idx
            .scan(lo.clone(), hi.clone())
            .unwrap()
            .map(|r| r.unwrap().0.as_int().unwrap())
            .collect();
        for hint in 1..=8 {
            let spans = idx.scan_spans(lo.clone(), hi.clone(), hint).unwrap();
            assert_eq!(spans.len(), hint, "a wide range fills the hint");
            for pair in spans.windows(2) {
                assert_eq!(*pair[0].leaves().end() + 1, *pair[1].leaves().start());
            }
            let joined: Vec<i64> = spans
                .into_iter()
                .flatten()
                .map(|r| r.unwrap().0.as_int().unwrap())
                .collect();
            assert_eq!(joined, whole, "hint {hint}");
        }
        // A one-leaf range cannot be cut.
        let one = idx
            .scan_spans(
                ScanBound::Incl(Value::Int(10)),
                ScanBound::Incl(Value::Int(11)),
                8,
            )
            .unwrap();
        assert_eq!(one.len(), 1);
    }

    /// Scans bound leaf ids by the footer's counts, so counts that do not
    /// describe the file are rejected at open.
    #[test]
    fn footer_counts_must_match_the_file() {
        let path = tmp("footer");
        build(1000, 1024, &path);
        let good = std::fs::read(&path).unwrap();
        let n = good.len();
        let corrupt = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            matches!(BTreeIndex::open(&path), Err(StorageError::Corrupt { .. }))
        };
        for n_leaves in [0u64, u64::MAX / 2] {
            let mut bad = good.clone();
            bad[n - 13..n - 5].copy_from_slice(&n_leaves.to_le_bytes());
            assert!(corrupt(&bad), "n_leaves {n_leaves}");
        }
        let mut one_page_short = good[..n - 37 - 1024].to_vec();
        one_page_short.extend_from_slice(&good[n - 37..]);
        assert!(corrupt(&one_page_short));
        assert!(!corrupt(&good));
    }

    #[test]
    fn out_of_order_append_rejected() {
        let s = schema();
        let path = tmp("order");
        let mut w = BTreeWriter::create(&path, Arc::clone(&s)).unwrap();
        let r = record(&s, vec!["u".into(), 5.into()]);
        w.append(&Value::Int(5), &Value::Int(0), &r).unwrap();
        assert!(w.append(&Value::Int(4), &Value::Int(1), &r).is_err());
    }

    #[test]
    fn empty_tree() {
        let s = schema();
        let path = tmp("empty");
        let w = BTreeWriter::create(&path, s).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.entries, 0);
        let idx = BTreeIndex::open(&path).unwrap();
        assert_eq!(idx.scan_all().unwrap().count(), 0);
        assert!(idx.lookup(&Value::Int(1)).unwrap().is_empty());
    }

    #[test]
    fn string_keys() {
        let s = schema();
        let path = tmp("strings");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 4096).unwrap();
        let mut urls: Vec<String> = (0..500).map(|i| format!("http://site/{i:04}")).collect();
        urls.sort();
        for (i, u) in urls.iter().enumerate() {
            let r = record(&s, vec![u.as_str().into(), (i as i64).into()]);
            w.append(&Value::str(u), &Value::Int(i as i64), &r).unwrap();
        }
        w.finish().unwrap();
        let idx = BTreeIndex::open(&path).unwrap();
        let got: Vec<String> = idx
            .scan(
                ScanBound::Incl(Value::str("http://site/0100")),
                ScanBound::Excl(Value::str("http://site/0105")),
            )
            .unwrap()
            .map(|r| {
                r.unwrap()
                    .1
                    .get("url")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            got,
            (100..105)
                .map(|i| format!("http://site/{i:04}"))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn oversized_entry_rejected() {
        let s = Schema::new("Big", vec![("blob", FieldType::Str)]).into_arc();
        let path = tmp("oversized");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 256).unwrap();
        let r = record(&s, vec!["x".repeat(1000).into()]);
        assert!(w.append(&Value::Int(1), &Value::Int(0), &r).is_err());
    }

    #[test]
    fn range_admits_honours_each_end() {
        let (lo, hi) = (
            ScanBound::Incl(Value::Int(10)),
            ScanBound::Excl(Value::Int(20)),
        );
        let admitted: Vec<i64> = (0..30)
            .filter(|&k| ScanBound::range_admits(&lo, &hi, &Value::Int(k)))
            .collect();
        assert_eq!(admitted, (10..20).collect::<Vec<_>>());
        let (lo, hi) = (
            ScanBound::Excl(Value::Int(10)),
            ScanBound::Incl(Value::Int(20)),
        );
        let admitted: Vec<i64> = (0..30)
            .filter(|&k| ScanBound::range_admits(&lo, &hi, &Value::Int(k)))
            .collect();
        assert_eq!(admitted, (11..=20).collect::<Vec<_>>());
        let open = ScanBound::Unbounded;
        assert!(ScanBound::range_admits(&open, &open, &Value::str("x")));
    }

    #[test]
    fn range_before_everything_and_after_everything() {
        let path = tmp("outside");
        build(100, 4096, &path);
        let idx = BTreeIndex::open(&path).unwrap();
        assert_eq!(
            idx.scan(ScanBound::Incl(Value::Int(1000)), ScanBound::Unbounded)
                .unwrap()
                .count(),
            0
        );
        assert_eq!(
            idx.scan(ScanBound::Unbounded, ScanBound::Excl(Value::Int(0)))
                .unwrap()
                .count(),
            0
        );
    }

    #[test]
    fn scan_crossing_many_leaves() {
        let path = tmp("crossing");
        build(5_000, 1024, &path);
        let idx = BTreeIndex::open(&path).unwrap();
        let got: Vec<i64> = idx
            .scan(
                ScanBound::Incl(Value::Int(100)),
                ScanBound::Excl(Value::Int(4900)),
            )
            .unwrap()
            .map(|r| r.unwrap().0.as_int().unwrap())
            .collect();
        assert_eq!(got.len(), 4800);
        assert_eq!(got[0], 100);
        assert_eq!(*got.last().unwrap(), 4899);
    }
}
