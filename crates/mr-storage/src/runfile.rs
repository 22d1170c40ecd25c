//! Sorted-run files for the external shuffle.
//!
//! When a shuffle bucket outgrows its memory budget, the engine sorts
//! the buffered pairs and spills them here; at reduce time the runs are
//! k-way merged back into one sorted stream. The format is the
//! shuffle-side sibling of [`seqfile`](crate::seqfile): self-describing
//! [`Value`] pairs (via
//! [`rowcodec::encode_value`](crate::rowcodec::encode_value)) behind a
//! varint length frame, so a reader can stream pairs without loading
//! the run — Hadoop's `IFile`, with its block compression provided by
//! the [`blockcodec`](crate::blockcodec) layer:
//!
//! ```text
//! magic "MRRN1"
//! codec u8                                ← 0 = raw stream, else the
//!                                           block-frame stream tag
//! pair stream:
//!   [varint pair_len, encode_value(key) ++ encode_value(value)]*
//! ```
//!
//! With codec 0 the pair stream follows the header directly; otherwise
//! it is cut into CRC'd block frames (see `docs/FORMATS.md`), each
//! naming its own codec, so a reader discovers everything from the
//! header and the frames. Compression happens strictly below the
//! record layer.
//!
//! Runs are process-local temp files with the lifetime of one job, so
//! there is no footer: end-of-file at a frame boundary is end-of-run,
//! end-of-file inside a frame is corruption.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::value::Value;

use crate::blockcodec::{BlockReader, BlockWriter, ShuffleCompression};
use crate::error::{Result, StorageError};
use crate::fault::{IoFaults, IoSite};
use crate::rowcodec::{decode_value, encode_value};
use crate::varint::{encode_u64, read_u64_from};

const MAGIC: &[u8; 5] = b"MRRN1";

/// Header bytes before the pair stream: magic + codec tag.
const HEADER_LEN: u64 = 6;

/// Upper bound on one framed pair; larger lengths are treated as
/// corruption rather than allocated.
const MAX_PAIR_LEN: u64 = 1 << 30;

/// Buffer capacity for run-file readers. Merges hold up to one open
/// reader per surviving run; a generous buffer keeps the k-way merge
/// from paying one syscall per small pair.
const READ_BUF: usize = 64 * 1024;

/// The reusable scratch a [`RunFileWriter`] stages pairs and block
/// frames in. Writing a run allocates nothing in steady state when the
/// scratch is recycled: create the writer with
/// [`RunFileWriter::create_pooled`], reclaim the scratch from
/// [`RunFileWriter::finish_reclaim`], and hand it to the next run.
#[derive(Debug, Default)]
pub struct RunScratch {
    /// Encoded pair staging ([`RunFileWriter::append`]).
    frame: Vec<u8>,
    /// Varint length staging.
    lenbuf: Vec<u8>,
    /// The block writer's open-block buffer.
    block: Vec<u8>,
    /// The block writer's compressed-frame buffer.
    comp: Vec<u8>,
}

impl RunScratch {
    /// Fresh (empty) scratch; capacity grows with first use.
    pub fn new() -> RunScratch {
        RunScratch::default()
    }

    /// Total heap capacity currently held, for pool sizing diagnostics.
    pub fn capacity_bytes(&self) -> usize {
        self.frame.capacity()
            + self.lenbuf.capacity()
            + self.block.capacity()
            + self.comp.capacity()
    }
}

/// What [`RunFileWriter::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFileStats {
    /// Pairs written.
    pub pairs: u64,
    /// Logical bytes the record layer produced (header + varint pair
    /// frames) — the file size a codec-free run would have.
    pub raw_bytes: u64,
    /// Physical bytes on disk. Equal to `raw_bytes` without a codec;
    /// smaller when compression worked.
    pub file_bytes: u64,
}

/// Writes one sorted run of `(key, value)` pairs.
pub struct RunFileWriter {
    out: BlockWriter<BufWriter<File>>,
    pairs: u64,
    frame: Vec<u8>,
    lenbuf: Vec<u8>,
    faults: Option<Arc<IoFaults>>,
}

impl RunFileWriter {
    /// Create (truncate) `path` and write the header (uncompressed
    /// stream).
    pub fn create(path: impl AsRef<Path>) -> Result<RunFileWriter> {
        RunFileWriter::create_with(path, ShuffleCompression::None, None)
    }

    /// [`create`](Self::create), with each appended pair counted
    /// against `faults` ([`IoSite::RunWrite`]).
    pub fn create_with_faults(
        path: impl AsRef<Path>,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<RunFileWriter> {
        RunFileWriter::create_with(path, ShuffleCompression::None, faults)
    }

    /// Create `path` with the pair stream framed through `compression`
    /// (and fault counting at [`IoSite::RunWrite`] per pair plus
    /// [`IoSite::BlockWrite`] per emitted frame).
    pub fn create_with(
        path: impl AsRef<Path>,
        compression: ShuffleCompression,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<RunFileWriter> {
        RunFileWriter::create_pooled(path, compression, faults, RunScratch::new())
    }

    /// [`create_with`](Self::create_with), staging everything in a
    /// recycled [`RunScratch`] so writing the run allocates no fresh
    /// buffers. Pair with [`finish_reclaim`](Self::finish_reclaim) to
    /// get the scratch back.
    pub fn create_pooled(
        path: impl AsRef<Path>,
        compression: ShuffleCompression,
        faults: Option<Arc<IoFaults>>,
        mut scratch: RunScratch,
    ) -> Result<RunFileWriter> {
        let mut file = BufWriter::new(File::create(path)?);
        file.write_all(MAGIC)?;
        file.write_all(&[compression.stream_tag()])?;
        scratch.frame.clear();
        scratch.lenbuf.clear();
        let out = BlockWriter::with_buffers(
            file,
            compression,
            faults.clone(),
            scratch.block,
            scratch.comp,
        );
        Ok(RunFileWriter {
            out,
            pairs: 0,
            frame: scratch.frame,
            lenbuf: scratch.lenbuf,
            faults,
        })
    }

    /// Append one pair. Callers are responsible for feeding pairs in
    /// sorted order — the file records whatever order it is given.
    pub fn append(&mut self, key: &Value, value: &Value) -> Result<()> {
        if let Some(f) = &self.faults {
            f.check(IoSite::RunWrite)?;
        }
        self.frame.clear();
        encode_value(key, &mut self.frame)?;
        encode_value(value, &mut self.frame)?;
        self.lenbuf.clear();
        encode_u64(self.frame.len() as u64, &mut self.lenbuf);
        self.out.write_all(&self.lenbuf)?;
        self.out.write_all(&self.frame)?;
        self.pairs += 1;
        Ok(())
    }

    /// Flush and return the pair/byte accounting.
    pub fn finish(self) -> Result<RunFileStats> {
        Ok(self.finish_reclaim()?.0)
    }

    /// [`finish`](Self::finish), additionally handing back the scratch
    /// buffers (capacity intact) for the next run.
    pub fn finish_reclaim(mut self) -> Result<(RunFileStats, RunScratch)> {
        self.out.flush_block()?;
        let stats = RunFileStats {
            pairs: self.pairs,
            raw_bytes: HEADER_LEN + self.out.raw_bytes(),
            file_bytes: HEADER_LEN + self.out.written_bytes(),
        };
        self.out.get_mut().flush()?;
        let (block, comp) = self.out.take_buffers();
        Ok((
            stats,
            RunScratch {
                frame: self.frame,
                lenbuf: self.lenbuf,
                block,
                comp,
            },
        ))
    }
}

/// Streams the pairs of one run back in file order. Whether the stream
/// is framed comes from the header and each frame names its codec, so
/// readers never need the writing job's configuration.
pub struct RunFileReader {
    input: BlockReader<BufReader<File>>,
    buf: Vec<u8>,
    path: PathBuf,
    pairs_read: u64,
    faults: Option<Arc<IoFaults>>,
}

impl RunFileReader {
    /// Open `path` and check the magic; the codec comes from the
    /// header, so compressed and raw runs open the same way.
    pub fn open(path: impl AsRef<Path>) -> Result<RunFileReader> {
        RunFileReader::open_with_faults(path, None)
    }

    /// [`open`](Self::open), with each pair read counted against
    /// `faults` ([`IoSite::RunRead`]; compressed runs also count
    /// [`IoSite::BlockRead`] per frame).
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<RunFileReader> {
        let path = path.as_ref().to_path_buf();
        let mut file = BufReader::with_capacity(READ_BUF, File::open(&path)?);
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact(&mut header)?;
        if &header[..5] != MAGIC {
            return Err(StorageError::corrupt("runfile", "bad magic"));
        }
        Ok(RunFileReader {
            input: BlockReader::new(file, header[5] != 0, faults.clone()),
            buf: Vec::new(),
            path,
            pairs_read: 0,
            faults,
        })
    }

    /// The file being read.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Pairs decoded so far.
    pub fn pairs_read(&self) -> u64 {
        self.pairs_read
    }

    fn read_one(&mut self) -> Result<Option<(Value, Value)>> {
        if let Some(f) = &self.faults {
            f.check(IoSite::RunRead)?;
        }
        // Frame length varint; EOF before its first byte is a clean
        // end-of-run.
        let Some((len, _)) = read_u64_from(&mut self.input)? else {
            return Ok(None);
        };
        if len > MAX_PAIR_LEN {
            return Err(StorageError::corrupt(
                "runfile",
                "frame length implausibly large",
            ));
        }
        self.buf.resize(len as usize, 0);
        self.input.read_exact(&mut self.buf)?;
        let (key, n) = decode_value(&self.buf)?;
        let (value, m) = decode_value(&self.buf[n..])?;
        if n + m != self.buf.len() {
            return Err(StorageError::corrupt("runfile", "frame length mismatch"));
        }
        self.pairs_read += 1;
        Ok(Some((key, value)))
    }
}

impl Iterator for RunFileReader {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_one().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-runfile-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn mixed_pairs() -> Vec<(Value, Value)> {
        vec![
            (Value::Int(-3), Value::str("neg")),
            (Value::Int(0), Value::Null),
            (Value::str("k"), Value::Double(2.5)),
            (Value::bytes([1, 2, 3]), Value::list(vec![Value::Int(9)])),
        ]
    }

    fn write_run(path: &Path, codec: ShuffleCompression, pairs: &[(Value, Value)]) -> RunFileStats {
        let mut w = RunFileWriter::create_with(path, codec, None).unwrap();
        for (k, v) in pairs {
            w.append(k, v).unwrap();
        }
        w.finish().unwrap()
    }

    fn read_run(path: &Path) -> Vec<(Value, Value)> {
        RunFileReader::open(path)
            .unwrap()
            .map(|p| p.unwrap())
            .collect()
    }

    #[test]
    fn roundtrip_mixed_values() {
        let path = tmp("roundtrip");
        let pairs = mixed_pairs();
        let stats = write_run(&path, ShuffleCompression::None, &pairs);
        assert_eq!(stats.pairs, 4);
        assert_eq!(stats.file_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(stats.raw_bytes, stats.file_bytes, "no codec, no shrink");
        assert_eq!(read_run(&path), pairs);
    }

    #[test]
    fn roundtrip_every_codec() {
        for codec in ShuffleCompression::ALL {
            let path = tmp(&format!("codec-{codec}"));
            let pairs = mixed_pairs();
            let stats = write_run(&path, codec, &pairs);
            assert_eq!(stats.pairs, 4, "{codec}");
            assert_eq!(
                stats.file_bytes,
                std::fs::metadata(&path).unwrap().len(),
                "{codec}"
            );
            assert_eq!(read_run(&path), pairs, "{codec}");
        }
    }

    #[test]
    fn compression_shrinks_repeated_keys() {
        // A sorted low-cardinality run: the shape spills actually have.
        let pairs: Vec<(Value, Value)> = (0..4000)
            .map(|i| {
                (
                    Value::str(format!("http://site/{:02}", i / 500)),
                    Value::Int(i % 7),
                )
            })
            .collect();
        let mut sizes = std::collections::HashMap::new();
        for codec in ShuffleCompression::ALL {
            let path = tmp(&format!("shrink-{codec}"));
            let stats = write_run(&path, codec, &pairs);
            assert_eq!(read_run(&path), pairs, "{codec}");
            sizes.insert(codec, (stats.raw_bytes, stats.file_bytes));
        }
        let (raw, none_file) = sizes[&ShuffleCompression::None];
        assert_eq!(raw, none_file);
        let (_, auto_file) = sizes[&ShuffleCompression::Auto];
        assert!(auto_file * 3 < raw, "auto {auto_file} vs raw {raw}");
    }

    #[test]
    fn empty_run() {
        for codec in ShuffleCompression::ALL {
            let path = tmp(&format!("empty-{codec}"));
            let stats = write_run(&path, codec, &[]);
            assert_eq!(stats.pairs, 0);
            assert_eq!(RunFileReader::open(&path).unwrap().count(), 0);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTARUNFILE").unwrap();
        assert!(RunFileReader::open(&path).is_err());
    }

    fn sweep_pairs() -> Vec<(Value, Value)> {
        (0..6i64)
            .map(|i| (Value::str("key"), Value::Int(i)))
            .collect()
    }

    /// The bytes of a small run per codec, compressible enough that
    /// `auto` frames it with a codec rather than storing it.
    fn sweep_runs(name: &str) -> Vec<(ShuffleCompression, Vec<u8>)> {
        ShuffleCompression::ALL
            .into_iter()
            .map(|codec| {
                let path = tmp(&format!("{name}-{codec}"));
                write_run(&path, codec, &sweep_pairs());
                let bytes = std::fs::read(&path).unwrap();
                if codec == ShuffleCompression::Auto {
                    assert_ne!(bytes[HEADER_LEN as usize], 5, "auto must compress");
                }
                (codec, bytes)
            })
            .collect()
    }

    /// Open and drain `bytes` as a run: the pairs read, or the first
    /// error. A panic fails the test; the reader consumes at least one
    /// byte per pair or frame, so it cannot hang.
    fn drain(name: &str, bytes: &[u8]) -> std::result::Result<Vec<(Value, Value)>, StorageError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        RunFileReader::open(&path)?.collect()
    }

    #[test]
    fn truncation_inside_frame_detected() {
        // Cut the run at every byte offset. Each cut yields a prefix of
        // the pairs or a typed error; under a framed codec every cut
        // inside the (single) frame is an error.
        let pairs = sweep_pairs();
        for (codec, bytes) in sweep_runs("trunc-src") {
            for cut in 0..bytes.len() {
                let got = drain(&format!("trunc-{codec}"), &bytes[..cut]);
                match got {
                    Ok(read) => {
                        assert!(pairs.starts_with(&read), "{codec} cut {cut}");
                        assert!(
                            !codec.is_framed() || cut <= HEADER_LEN as usize,
                            "{codec}: cut {cut} inside the frame read cleanly"
                        );
                    }
                    Err(e) if codec.is_framed() && cut > HEADER_LEN as usize => {
                        assert!(
                            matches!(e, StorageError::Corrupt { .. }),
                            "{codec} cut {cut}: {e}"
                        );
                    }
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn corrupt_compressed_frame_is_typed_not_garbage() {
        // Flip every bit of the run. Each flip yields pairs or a typed
        // error; under a framed codec every flip inside the frame is
        // `Corrupt`, never wrong pairs.
        for (codec, bytes) in sweep_runs("flip-src") {
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let got = drain(&format!("flip-{codec}"), &flipped);
                if codec.is_framed() && bit / 8 >= HEADER_LEN as usize {
                    match got {
                        Err(StorageError::Corrupt { .. }) => {}
                        other => panic!("{codec}: flip of bit {bit} gave {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn large_run_streams() {
        for codec in [ShuffleCompression::None, ShuffleCompression::Auto] {
            let path = tmp(&format!("large-{codec}"));
            let mut w = RunFileWriter::create_with(&path, codec, None).unwrap();
            for i in 0..10_000i64 {
                w.append(&Value::Int(i), &Value::str(format!("v{i}")))
                    .unwrap();
            }
            w.finish().unwrap();
            let mut rd = RunFileReader::open(&path).unwrap();
            let mut count = 0i64;
            for item in &mut rd {
                let (k, _) = item.unwrap();
                assert_eq!(k, Value::Int(count));
                count += 1;
            }
            assert_eq!(count, 10_000);
            assert_eq!(rd.pairs_read(), 10_000);
        }
    }
}
