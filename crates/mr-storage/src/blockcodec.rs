//! Pluggable block compression for streamed record files (paper
//! App. C).
//!
//! The paper treats compression as a first-class physical optimization:
//! delta and dictionary encodings back the *index* layouts (the encoded
//! fields of a [`seqfile`](crate::seqfile)), but until this
//! layer the streaming formats — shuffle spill runs
//! ([`runfile`](crate::runfile)) and baseline sequence files
//! ([`seqfile`](crate::seqfile)) — paid full I/O for every byte. A
//! [`BlockCodec`] compresses those streams *below* the record layer:
//! the varint-framed record encoding is unchanged, it just flows
//! through [`BlockWriter`]/[`BlockReader`] adapters that cut it into
//! independently-decodable frames, the same structure as Hadoop's
//! block-compressed `SequenceFile`.
//!
//! Frame layout (one frame per block):
//!
//! ```text
//! compressed: [codec tag u8][varint raw_len][varint comp_len]
//!             [comp_len compressed bytes][crc32(comp bytes) u32 LE]
//! stored:     [tag 5][varint raw_len]
//!             [raw_len stored bytes][crc32(stored bytes) u32 LE]
//! ```
//!
//! Invariants the rest of the system leans on:
//!
//! * **Self-describing frames.** Every frame names its codec, so
//!   readers never need the writer's configuration — a compacted run
//!   can even mix frames from different codecs. A codec that fails to
//!   shrink a block falls back to a *stored* frame (which omits the
//!   redundant compressed-length field), so a framed file costs at
//!   most [`MAX_FRAME_OVERHEAD`] bytes per block over the raw stream —
//!   it never meaningfully inflates.
//! * **Typed corruption.** A bad CRC, a truncated frame, or an
//!   impossible code surfaces as [`StorageError::Corrupt`] — never a
//!   panic, never silently-truncated data ([`StorageError::into_io`]
//!   carries the type through the `std::io` traits).
//! * **Deterministic output.** Same bytes + same codec ⇒ same frames,
//!   which is what lets the differential harness compare compressed
//!   and uncompressed runs byte-for-byte at the output layer.
//!
//! # Example
//!
//! A record stream round-trips through any codec unchanged:
//!
//! ```
//! use std::io::{Read, Write};
//! use mr_storage::blockcodec::{BlockReader, BlockWriter, ShuffleCompression};
//!
//! let payload: Vec<u8> = (0..10_000u32).flat_map(|i| (i / 8).to_le_bytes()).collect();
//! let codec = ShuffleCompression::Auto;
//!
//! let mut w = BlockWriter::new(Vec::new(), codec, None);
//! w.write_all(&payload)?;
//! w.flush()?;
//! assert!(w.written_bytes() < w.raw_bytes(), "repetitive data shrinks");
//! let framed = w.into_inner()?;
//!
//! let mut back = Vec::new();
//! BlockReader::new(framed.as_slice(), codec.is_framed(), None).read_to_end(&mut back)?;
//! assert_eq!(back, payload);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::fault::{IoFaults, IoSite};
use crate::varint::{decode_u64, encode_u64, read_u64_from};

/// Block size the writers cut frames at. Large enough to amortize the
/// frame header and give the dictionary codec a useful window, small
/// enough that a reader buffers one block, not a file.
pub const DEFAULT_BLOCK_SIZE: usize = 32 * 1024;

/// Upper bound on a single frame's raw or compressed length; beyond
/// this is corruption, not an allocation request.
const MAX_FRAME_LEN: u64 = 1 << 26;

/// Codec tag of raw frames (legacy layout: carries a redundant
/// compressed-length field). Still read; no longer written — the
/// stored fallback emits [`TAG_STORED`] frames instead. Also the
/// stream-header tag of [`ShuffleCompression::Raw`].
const TAG_RAW: u8 = 1;
/// Codec tag of LZW dictionary frames.
pub(crate) const TAG_DICT: u8 = 2;
/// Codec tag of stride-delta + zero-run frames.
pub(crate) const TAG_DELTA: u8 = 3;
/// Codec tag of stored frames: `[tag][varint raw_len][payload][crc]`,
/// with no compressed-length field (it equals `raw_len`). This is
/// what the can't-shrink fallback emits, so a framed stream never
/// costs more than [`MAX_FRAME_OVERHEAD`] bytes per block over raw.
pub(crate) const TAG_STORED: u8 = 5;
/// Stream-header tag of [`ShuffleCompression::Auto`]. Never a frame
/// tag: each `auto` frame carries the tag of the candidate that won it.
const TAG_AUTO: u8 = 6;

/// Worst-case frame bytes beyond the payload for a stored frame cut
/// at [`DEFAULT_BLOCK_SIZE`]: 1 tag byte, ≤3 varint length bytes, 4
/// CRC bytes. The invariant the spill accounting leans on:
/// `written <= raw + frames * MAX_FRAME_OVERHEAD`.
pub const MAX_FRAME_OVERHEAD: usize = 8;

/// One block compression algorithm: a pure, deterministic transform of
/// a block of bytes. Implementations are stateless across blocks —
/// every frame decodes independently, which is what keeps compressed
/// spill runs safely re-readable by retried task attempts.
///
/// # Example
///
/// ```
/// use mr_storage::blockcodec::{BlockCodec, DictBlock};
///
/// let codec = DictBlock;
/// let raw = b"abababababababab".repeat(64);
/// let mut comp = Vec::new();
/// codec.compress(&raw, &mut comp);
/// assert!(comp.len() < raw.len());
///
/// let mut back = Vec::new();
/// codec.decompress(&comp, raw.len(), &mut back)?;
/// assert_eq!(back, raw);
/// # Ok::<(), mr_storage::StorageError>(())
/// ```
pub trait BlockCodec: Send + Sync {
    /// Compress `raw` into `out` (append; `out` is not cleared).
    fn compress(&self, raw: &[u8], out: &mut Vec<u8>);

    /// Decompress `comp` (a whole frame payload) into `out`, which must
    /// end up holding exactly `raw_len` more bytes; anything else is
    /// [`StorageError::Corrupt`].
    fn decompress(&self, comp: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()>;
}

/// The identity codec behind legacy raw frames (tag 1), which are still
/// read. Writers emit stored frames instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Raw;

impl BlockCodec for Raw {
    fn compress(&self, raw: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(raw);
    }

    fn decompress(&self, comp: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
        if comp.len() != raw_len {
            return Err(StorageError::corrupt(
                "block frame",
                "raw frame length mismatch",
            ));
        }
        out.extend_from_slice(comp);
        Ok(())
    }
}

/// Codes the dictionary codec may assign; 0..=255 are the byte
/// literals, the rest are learned sequences. Capped so a block's
/// decode table stays small and corrupt streams cannot demand
/// unbounded memory.
const DICT_MAX_CODES: u32 = 1 << 16;

/// Byte-sequence dictionary compression (LZW): repeated byte strings —
/// above all the repeated keys of a sorted, low-cardinality spill run —
/// collapse to varint-coded dictionary references. The block-codec
/// sibling of a [`seqfile`](crate::seqfile)'s dict-encoded fields: same
/// paper idea ("a compressed version … that preserves equality
/// testing", App. D), applied to opaque stream bytes instead of a
/// schema field, with the dictionary rebuilt from the data itself so
/// nothing needs persisting.
#[derive(Debug, Clone, Copy, Default)]
pub struct DictBlock;

impl BlockCodec for DictBlock {
    fn compress(&self, raw: &[u8], out: &mut Vec<u8>) {
        // Classic LZW over (prefix code, next byte) pairs; emitted
        // codes are varints, so early (frequent) codes stay short.
        let mut table: HashMap<(u32, u8), u32> = HashMap::new();
        let mut next = 256u32;
        let mut bytes = raw.iter();
        let Some(&first) = bytes.next() else { return };
        let mut cur = first as u32;
        for &b in bytes {
            match table.get(&(cur, b)) {
                Some(&code) => cur = code,
                None => {
                    encode_u64(cur as u64, out);
                    if next < DICT_MAX_CODES {
                        table.insert((cur, b), next);
                        next += 1;
                    }
                    cur = b as u32;
                }
            }
        }
        encode_u64(cur as u64, out);
    }

    fn decompress(&self, comp: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
        // Entry `256 + i` expands to expand(prefix) ++ [byte].
        let mut entries: Vec<(u32, u8)> = Vec::new();
        let mut scratch: Vec<u8> = Vec::new();
        let mut prev: Option<u32> = None;
        let mut pos = 0usize;
        let target = out.len() + raw_len;
        while pos < comp.len() {
            let (code64, n) = decode_u64(&comp[pos..])?;
            pos += n;
            let code = u32::try_from(code64)
                .map_err(|_| StorageError::corrupt("block frame", "dict code exceeds u32"))?;
            let limit = 256 + entries.len() as u32;
            scratch.clear();
            if code < limit {
                expand(code, &entries, &mut scratch);
            } else if code == limit && limit < DICT_MAX_CODES {
                // The KwKwK case: the code being defined by this very
                // step — expand(prev) plus its own first byte. Once
                // the table is at capacity no new code is ever
                // defined, so a full-table "novel" code is corruption,
                // not KwKwK (accepting it would leave a dangling code
                // that a later expand() indexes out of bounds).
                let p = prev.ok_or_else(|| {
                    StorageError::corrupt("block frame", "dict stream starts with a novel code")
                })?;
                expand(p, &entries, &mut scratch);
                let head = scratch[0];
                scratch.push(head);
            } else {
                return Err(StorageError::corrupt(
                    "block frame",
                    "dict code out of range",
                ));
            }
            if let Some(p) = prev {
                if limit < DICT_MAX_CODES {
                    entries.push((p, scratch[0]));
                }
            }
            if out.len() + scratch.len() > target {
                return Err(StorageError::corrupt(
                    "block frame",
                    "dict block inflates past its declared size",
                ));
            }
            out.extend_from_slice(&scratch);
            prev = Some(code);
        }
        if out.len() != target {
            return Err(StorageError::corrupt(
                "block frame",
                "dict block size mismatch",
            ));
        }
        Ok(())
    }
}

/// Expand `code` by walking the prefix chain. Prefixes always point at
/// strictly smaller codes, so the walk terminates even on adversarial
/// tables.
fn expand(mut code: u32, entries: &[(u32, u8)], out: &mut Vec<u8>) {
    let start = out.len();
    loop {
        if code < 256 {
            out.push(code as u8);
            break;
        }
        let (prefix, byte) = entries[(code - 256) as usize];
        out.push(byte);
        code = prefix;
    }
    out[start..].reverse();
}

/// Largest stride the delta codec probes. 64 covers every fixed-width
/// record the row codec produces plus typical framed-pair periods.
const DELTA_MAX_STRIDE: usize = 64;

/// How many leading bytes the stride probe samples.
const DELTA_PROBE: usize = 4096;

/// Stride-delta compression with varint-coded zero runs: the paper's
/// delta idea ("storing just small deltas … combined with a
/// size-sensitive representation", §2.1 — the record-level version is
/// a [`seqfile`](crate::seqfile)'s delta-encoded fields) applied to
/// opaque stream bytes. The encoder probes strides 1..=64 for the one
/// under which the block is most self-similar, subtracts each byte
/// from the byte one stride back, and run-length-codes the zero bytes
/// that numeric runs and repeated frames leave behind ([`varint`](crate::varint) lengths).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaVarint;

/// Zero runs shorter than this stay literal: a (zero-run, literal-run)
/// token pair costs at least two bytes, so brief gaps are cheaper
/// in-line.
const DELTA_MIN_ZRUN: usize = 4;

impl BlockCodec for DeltaVarint {
    fn compress(&self, raw: &[u8], out: &mut Vec<u8>) {
        if raw.is_empty() {
            return;
        }
        let stride = best_stride(raw);
        encode_u64(stride as u64, out);
        let delta: Vec<u8> = (0..raw.len())
            .map(|i| {
                if i >= stride {
                    raw[i].wrapping_sub(raw[i - stride])
                } else {
                    raw[i]
                }
            })
            .collect();
        // Token stream: [varint zero_run][varint lit_len][lit bytes]*.
        let mut i = 0usize;
        while i < delta.len() {
            let zero_start = i;
            while i < delta.len() && delta[i] == 0 {
                i += 1;
            }
            encode_u64((i - zero_start) as u64, out);
            let lit_start = i;
            while i < delta.len() {
                if delta[i] == 0
                    && delta[i..].iter().take(DELTA_MIN_ZRUN).all(|&d| d == 0)
                    && delta.len() - i >= DELTA_MIN_ZRUN
                {
                    break;
                }
                i += 1;
            }
            encode_u64((i - lit_start) as u64, out);
            out.extend_from_slice(&delta[lit_start..i]);
        }
    }

    fn decompress(&self, comp: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
        if raw_len == 0 {
            return if comp.is_empty() {
                Ok(())
            } else {
                Err(StorageError::corrupt(
                    "block frame",
                    "delta payload for an empty block",
                ))
            };
        }
        let (stride64, n) = decode_u64(comp)?;
        let mut pos = n;
        let stride = stride64 as usize;
        if stride == 0 || stride > DELTA_MAX_STRIDE {
            return Err(StorageError::corrupt(
                "block frame",
                "delta stride out of range",
            ));
        }
        let start = out.len();
        let target = start + raw_len;
        while out.len() < target {
            let (zrun, n) = decode_u64(&comp[pos..])?;
            pos += n;
            let (lit, n) = decode_u64(&comp[pos..])?;
            pos += n;
            if zrun == 0 && lit == 0 {
                return Err(StorageError::corrupt("block frame", "empty delta token"));
            }
            // Checked: crafted u64-max run lengths must not wrap past
            // the bound check into a giant allocation.
            let token_len = zrun.checked_add(lit).ok_or_else(|| {
                StorageError::corrupt("block frame", "delta token length overflows")
            })?;
            if token_len > (target - out.len()) as u64 {
                return Err(StorageError::corrupt(
                    "block frame",
                    "delta block overruns its declared size",
                ));
            }
            out.resize(out.len() + zrun as usize, 0);
            let bytes = comp
                .get(pos..pos + lit as usize)
                .ok_or_else(|| StorageError::corrupt("block frame", "delta literals truncated"))?;
            out.extend_from_slice(bytes);
            pos += lit as usize;
        }
        if pos != comp.len() {
            return Err(StorageError::corrupt(
                "block frame",
                "trailing bytes after delta stream",
            ));
        }
        for i in start + stride..target {
            out[i] = out[i].wrapping_add(out[i - stride]);
        }
        Ok(())
    }
}

/// The stride under which a sample of `raw` has the most bytes equal
/// to the byte one stride earlier (ties to the smallest stride).
fn best_stride(raw: &[u8]) -> usize {
    let sample = &raw[..raw.len().min(DELTA_PROBE)];
    let mut best = (1usize, 0usize);
    for stride in 1..=DELTA_MAX_STRIDE.min(sample.len().saturating_sub(1)).max(1) {
        let zeros = (stride..sample.len())
            .filter(|&i| sample[i] == sample[i - stride])
            .count();
        if zeros > best.1 {
            best = (stride, zeros);
        }
    }
    best.0
}

/// The shuffle-compression knob jobs carry
/// (`JobConfig::shuffle_compression` in `mr-engine`, `manimal run
/// --shuffle-codec`, `manimal generate --codec`).
///
/// [`ShuffleCompression::None`] — the default — bypasses the block
/// layer entirely: the stream is byte-identical to what the formats
/// wrote before this layer existed. [`Raw`](Self::Raw) frames the
/// stream in stored frames; [`Auto`](Self::Auto) frames each block as
/// the smallest of a [`DictBlock`] frame, a [`DeltaVarint`] frame and a
/// stored frame.
///
/// # Example
///
/// ```
/// use mr_storage::blockcodec::ShuffleCompression;
///
/// assert_eq!(ShuffleCompression::parse("auto"), Some(ShuffleCompression::Auto));
/// assert_eq!(ShuffleCompression::parse("dict"), None);
/// assert!(!ShuffleCompression::None.is_framed());
/// assert!(ShuffleCompression::Auto.is_framed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShuffleCompression {
    /// No block layer: the raw record stream, exactly as before.
    #[default]
    None,
    /// Stored frames: CRC detection, no size change.
    Raw,
    /// Per block, the smallest of an LZW ([`DictBlock`]), a
    /// stride-delta ([`DeltaVarint`]) and a stored frame.
    Auto,
}

impl ShuffleCompression {
    /// Every variant, in the order tests and the differential harness
    /// sweep them.
    pub const ALL: [ShuffleCompression; 3] = [
        ShuffleCompression::None,
        ShuffleCompression::Raw,
        ShuffleCompression::Auto,
    ];

    /// The spec name (`none`, `raw`, `auto`).
    pub fn name(self) -> &'static str {
        match self {
            ShuffleCompression::None => "none",
            ShuffleCompression::Raw => "raw",
            ShuffleCompression::Auto => "auto",
        }
    }

    /// Parse a spec name back into a variant.
    pub fn parse(name: &str) -> Option<ShuffleCompression> {
        ShuffleCompression::ALL
            .into_iter()
            .find(|c| c.name() == name)
    }

    /// Whether streams written under this setting are cut into frames.
    pub fn is_framed(self) -> bool {
        self != ShuffleCompression::None
    }

    /// The stream-header tag the file formats record: 0 = no block
    /// layer. Readers only test it against 0 — every frame names its
    /// own codec — so streams whose headers carry the retired `dict`
    /// (2) and `delta` (3) tags still decode.
    pub fn stream_tag(self) -> u8 {
        match self {
            ShuffleCompression::None => 0,
            ShuffleCompression::Raw => TAG_RAW,
            ShuffleCompression::Auto => TAG_AUTO,
        }
    }

    /// Frame one block: the frame tag and its payload, either `raw`
    /// itself (a stored frame) or a compressed candidate staged in
    /// `comp`. Under [`Auto`](Self::Auto) both candidates are built
    /// into `comp` back to back and the shorter one wins; a candidate
    /// that does not shrink the block loses to the stored frame.
    fn frame<'a>(self, raw: &'a [u8], comp: &'a mut Vec<u8>) -> (u8, &'a [u8]) {
        comp.clear();
        if self == ShuffleCompression::Auto {
            DictBlock.compress(raw, comp);
            let dict_len = comp.len();
            DeltaVarint.compress(raw, comp);
            let delta_len = comp.len() - dict_len;
            if delta_len < dict_len.min(raw.len()) {
                return (TAG_DELTA, &comp[dict_len..]);
            }
            if dict_len < raw.len() {
                return (TAG_DICT, &comp[..dict_len]);
            }
        }
        (TAG_STORED, raw)
    }
}

impl std::fmt::Display for ShuffleCompression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The codec a compressed frame tag names ([`TAG_STORED`] is handled
/// before this dispatch: it has no codec).
fn codec_for_tag(tag: u8) -> Result<&'static dyn BlockCodec> {
    match tag {
        TAG_RAW => Ok(&Raw),
        TAG_DICT => Ok(&DictBlock),
        TAG_DELTA => Ok(&DeltaVarint),
        other => Err(StorageError::corrupt(
            "block frame",
            format!("unknown codec tag {other}"),
        )),
    }
}

/// Emit one frame: header, payload, CRC. Stored frames ([`TAG_STORED`])
/// omit the compressed-length field — it equals `raw_len`. Returns the
/// bytes written.
fn write_frame<W: Write>(
    inner: &mut W,
    tag: u8,
    raw_len: usize,
    payload: &[u8],
) -> io::Result<u64> {
    let mut header = Vec::with_capacity(11);
    header.push(tag);
    encode_u64(raw_len as u64, &mut header);
    if tag != TAG_STORED {
        encode_u64(payload.len() as u64, &mut header);
    }
    inner.write_all(&header)?;
    inner.write_all(payload)?;
    inner.write_all(&crc32(payload).to_le_bytes())?;
    Ok((header.len() + payload.len() + 4) as u64)
}

/// Read one frame: `Ok(None)` on a clean end-of-stream before the tag
/// byte; otherwise the (still compressed) payload replaces `comp`'s
/// contents, the CRC is verified, and `(tag, raw_len)` comes back.
/// Truncation inside the frame and CRC mismatches surface as typed
/// corruption.
pub(crate) fn read_frame_into<R: Read>(
    inner: &mut R,
    comp: &mut Vec<u8>,
) -> io::Result<Option<(u8, u64)>> {
    let mut tag = [0u8; 1];
    loop {
        match inner.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if ![TAG_RAW, TAG_DICT, TAG_DELTA, TAG_STORED].contains(&tag[0]) {
        return Err(
            StorageError::corrupt("block frame", format!("unknown codec tag {}", tag[0])).into_io(),
        );
    }
    let header = |inner: &mut R, what: &str| -> io::Result<u64> {
        let len = read_u64_from(inner)
            .map_err(StorageError::into_io)?
            .ok_or_else(|| {
                StorageError::corrupt("block frame", format!("truncated {what}")).into_io()
            })?
            .0;
        if len > MAX_FRAME_LEN {
            return Err(
                StorageError::corrupt("block frame", format!("{what} implausibly large")).into_io(),
            );
        }
        Ok(len)
    };
    let raw_len = header(inner, "raw length")?;
    let comp_len = if tag[0] == TAG_STORED {
        raw_len
    } else {
        header(inner, "compressed length")?
    };
    // Past the tag, EOF is *inside* a frame: that must surface as
    // corruption, not as the clean end-of-stream the record layer's
    // varint reader would silently accept.
    let truncated = |e: io::Error| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StorageError::corrupt("block frame", "truncated frame").into_io()
        } else {
            e
        }
    };
    // Grown by the bytes that arrive, not reserved at the length the
    // header claims: a corrupt length cannot allocate past the input.
    comp.clear();
    let read = (&mut *inner).take(comp_len).read_to_end(comp)?;
    if read as u64 != comp_len {
        return Err(truncated(io::ErrorKind::UnexpectedEof.into()));
    }
    let mut crc_bytes = [0u8; 4];
    inner.read_exact(&mut crc_bytes).map_err(truncated)?;
    if crc32(comp) != u32::from_le_bytes(crc_bytes) {
        return Err(StorageError::corrupt("block frame", "crc mismatch").into_io());
    }
    Ok(Some((tag[0], raw_len)))
}

/// CRC32 (IEEE, reflected — the zlib/Hadoop polynomial) over `bytes`,
/// slice-by-8: eight table lookups fold eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = T[7][(lo & 0xff) as usize]
            ^ T[6][((lo >> 8) & 0xff) as usize]
            ^ T[5][((lo >> 16) & 0xff) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][c[4] as usize]
            ^ T[2][c[5] as usize]
            ^ T[1][c[6] as usize]
            ^ T[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// `T[0]` is the bytewise table; `T[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// A [`Write`] adapter that cuts the byte stream into codec frames.
/// Under [`ShuffleCompression::None`] it is a pure passthrough (zero
/// framing, zero overhead), so the record writers use it
/// unconditionally.
///
/// The writer buffers up to [`DEFAULT_BLOCK_SIZE`] bytes and emits one
/// frame per full block; [`flush_block`](Self::flush_block) forces a
/// frame boundary early (how the seqfile writer aligns frames with its
/// split index). A block no candidate shrinks goes out as a stored
/// frame.
pub struct BlockWriter<W: Write> {
    inner: W,
    compression: ShuffleCompression,
    block_size: usize,
    buf: Vec<u8>,
    comp: Vec<u8>,
    raw_bytes: u64,
    written_bytes: u64,
    faults: Option<Arc<IoFaults>>,
}

impl<W: Write> BlockWriter<W> {
    /// Wrap `inner`, framing under `compression`
    /// ([`ShuffleCompression::None`] passes bytes straight through).
    /// Each emitted frame is counted against `faults`
    /// ([`IoSite::BlockWrite`]).
    pub fn new(
        inner: W,
        compression: ShuffleCompression,
        faults: Option<Arc<IoFaults>>,
    ) -> BlockWriter<W> {
        BlockWriter::with_buffers(inner, compression, faults, Vec::new(), Vec::new())
    }

    /// [`new`](Self::new), staging blocks in caller-provided scratch
    /// buffers (`buf` for the open block, `comp` for the compressed
    /// frame) instead of allocating fresh ones — the hot-path spill
    /// writers recycle these across run files via a buffer pool.
    /// Reclaim them with [`take_buffers`](Self::take_buffers) after the
    /// final flush.
    pub fn with_buffers(
        inner: W,
        compression: ShuffleCompression,
        faults: Option<Arc<IoFaults>>,
        mut buf: Vec<u8>,
        mut comp: Vec<u8>,
    ) -> BlockWriter<W> {
        buf.clear();
        comp.clear();
        BlockWriter {
            inner,
            compression,
            block_size: DEFAULT_BLOCK_SIZE,
            buf,
            comp,
            raw_bytes: 0,
            written_bytes: 0,
            faults,
        }
    }

    /// Detach the scratch buffers for reuse (capacity preserved). Only
    /// meaningful after [`flush_block`](Self::flush_block) — an open
    /// block's bytes go with the buffer.
    pub fn take_buffers(&mut self) -> (Vec<u8>, Vec<u8>) {
        (
            std::mem::take(&mut self.buf),
            std::mem::take(&mut self.comp),
        )
    }

    /// Logical bytes accepted so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Physical bytes emitted to the inner writer so far (buffered
    /// bytes of an open block are not yet counted).
    pub fn written_bytes(&self) -> u64 {
        self.written_bytes
    }

    /// Force the open block out as a (possibly short) frame, so the
    /// next byte written starts a frame — a seekable stream position.
    pub fn flush_block(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.emit_block(self.buf.len())?;
        }
        Ok(())
    }

    /// The inner writer. Bytes written through it bypass framing *and*
    /// accounting — only for trailers that follow the framed region
    /// (call [`flush_block`](Self::flush_block) first).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Flush any open block and return the inner writer.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush_block()?;
        Ok(self.inner)
    }

    fn emit_block(&mut self, n: usize) -> io::Result<()> {
        if let Some(f) = &self.faults {
            f.check(IoSite::BlockWrite)?;
        }
        let raw = &self.buf[..n];
        let (tag, payload) = self.compression.frame(raw, &mut self.comp);
        self.written_bytes += write_frame(&mut self.inner, tag, raw.len(), payload)?;
        self.buf.drain(..n);
        Ok(())
    }
}

impl<W: Write> Write for BlockWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.raw_bytes += data.len() as u64;
        if !self.compression.is_framed() {
            self.inner.write_all(data)?;
            self.written_bytes += data.len() as u64;
            return Ok(data.len());
        }
        self.buf.extend_from_slice(data);
        while self.buf.len() >= self.block_size {
            self.emit_block(self.block_size)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_block()?;
        self.inner.flush()
    }
}

/// A [`Read`] adapter that reassembles the byte stream from codec
/// frames (or passes through when the stream was written unframed).
/// Frames verify their CRC before decoding; any mismatch, truncation,
/// or malformed payload surfaces as [`StorageError::Corrupt`] through
/// the error conversion in [`crate::error`].
pub struct BlockReader<R: Read> {
    inner: R,
    framed: bool,
    buf: Vec<u8>,
    pos: usize,
    comp: Vec<u8>,
    faults: Option<Arc<IoFaults>>,
}

impl<R: Read> BlockReader<R> {
    /// Wrap `inner`. `framed = false` passes reads straight through.
    /// Each frame decoded is counted against `faults`
    /// ([`IoSite::BlockRead`]).
    pub fn new(inner: R, framed: bool, faults: Option<Arc<IoFaults>>) -> BlockReader<R> {
        BlockReader {
            inner,
            framed,
            buf: Vec::new(),
            pos: 0,
            comp: Vec::new(),
            faults,
        }
    }

    /// Decode the next frame into `buf`; `false` on a clean
    /// end-of-stream at a frame boundary.
    fn fill_frame(&mut self) -> io::Result<bool> {
        if let Some(f) = &self.faults {
            f.check(IoSite::BlockRead)?;
        }
        let Some((tag, raw_len)) = read_frame_into(&mut self.inner, &mut self.comp)? else {
            return Ok(false);
        };
        self.buf.clear();
        if tag == TAG_STORED {
            self.buf.extend_from_slice(&self.comp);
        } else {
            let codec = codec_for_tag(tag).map_err(StorageError::into_io)?;
            codec
                .decompress(&self.comp, raw_len as usize, &mut self.buf)
                .map_err(StorageError::into_io)?;
        }
        self.pos = 0;
        Ok(true)
    }
}

impl<R: Read> Read for BlockReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if !self.framed {
            return self.inner.read(out);
        }
        while self.pos == self.buf.len() {
            if !self.fill_frame()? {
                return Ok(0);
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    /// Unframed, the inner reader's own `read_exact`: a buffered file
    /// serves a row-length byte or a row from its buffer in one copy.
    fn read_exact(&mut self, mut out: &mut [u8]) -> io::Result<()> {
        if !self.framed {
            return self.inner.read_exact(out);
        }
        while !out.is_empty() {
            match self.read(out)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => out = &mut out[n..],
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_through(codec: ShuffleCompression, payload: &[u8]) -> (u64, u64) {
        let mut w = BlockWriter::new(Vec::new(), codec, None);
        w.write_all(payload).unwrap();
        w.flush().unwrap();
        let (raw, written) = (w.raw_bytes(), w.written_bytes());
        let framed = w.into_inner().unwrap();
        assert_eq!(written, framed.len() as u64);
        let mut back = Vec::new();
        BlockReader::new(framed.as_slice(), codec.is_framed(), None)
            .read_to_end(&mut back)
            .unwrap();
        assert_eq!(back, payload, "codec {codec}");
        (raw, written)
    }

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            vec![],
            b"x".to_vec(),
            b"hello world".to_vec(),
            vec![0u8; 100_000],
            (0..100_000u32).map(|i| (i % 251) as u8).collect(),
            b"key-00042\tvalue".repeat(5000),
            (0..20_000u64)
                .flat_map(|i| (1_600_000_000 + i).to_le_bytes())
                .collect(),
        ]
    }

    #[test]
    fn every_codec_roundtrips_every_payload() {
        for codec in ShuffleCompression::ALL {
            for p in payloads() {
                roundtrip_through(codec, &p);
            }
        }
    }

    #[test]
    fn none_is_a_pure_passthrough() {
        let payload = b"untouched bytes".to_vec();
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::None, None);
        w.write_all(&payload).unwrap();
        w.flush().unwrap();
        assert_eq!(w.raw_bytes(), w.written_bytes());
        assert_eq!(w.into_inner().unwrap(), payload);
    }

    #[test]
    fn repetitive_payloads_shrink() {
        let repeated = b"http://popular.example.com/path\t1\n".repeat(4000);
        let (raw, written) = roundtrip_through(ShuffleCompression::Auto, &repeated);
        assert!(written * 2 < raw, "{written} vs {raw} raw bytes");
        // Monotone numeric runs are the delta candidate's home turf:
        // ~3 token bytes per 8-byte record (zero-run + lit-len + the
        // one carrying byte), better than 2x, reliably.
        let numeric: Vec<u8> = (0..50_000u64)
            .flat_map(|i| (3_000_000_000 + i * 17).to_le_bytes())
            .collect();
        let (raw, written) = roundtrip_through(ShuffleCompression::Auto, &numeric);
        assert!(written * 2 < raw, "{written} vs {raw} raw bytes");
    }

    #[test]
    fn incompressible_data_costs_only_frame_headers() {
        // A pseudo-random block the codecs cannot shrink falls back to
        // stored frames: bounded overhead, still CRC-protected.
        let mut x = 0x9E3779B97F4A7C15u64;
        let noise: Vec<u8> = (0..DEFAULT_BLOCK_SIZE * 3)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let (raw, written) = roundtrip_through(ShuffleCompression::Auto, &noise);
        assert!(written < raw + 64, "fallback overhead bounded");
    }

    #[test]
    fn framed_streams_never_inflate_past_per_frame_overhead() {
        // The stored-frame guarantee behind the spill accounting:
        // written <= raw + frames * MAX_FRAME_OVERHEAD, for every
        // codec, even on incompressible input. (The raw codec used to
        // violate this by a redundant compressed-length varint per
        // frame — a 1.006× inflation on random keys.)
        let mut x = 0x243F6A8885A308D3u64;
        let noise: Vec<u8> = (0..DEFAULT_BLOCK_SIZE * 4 + 123)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        for codec in [ShuffleCompression::Raw, ShuffleCompression::Auto] {
            let (raw, written) = roundtrip_through(codec, &noise);
            let frames = (noise.len() as u64).div_ceil(DEFAULT_BLOCK_SIZE as u64);
            assert!(
                written <= raw + frames * MAX_FRAME_OVERHEAD as u64,
                "{codec}: {written} written vs {raw} raw over {frames} frames"
            );
        }
    }

    #[test]
    fn stored_frames_replace_legacy_raw_frames() {
        // The raw codec can never shrink a block, so every frame it
        // emits is a stored frame; legacy TAG_RAW frames still decode.
        let payload = vec![0xA5u8; 100];
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Raw, None);
        w.write_all(&payload).unwrap();
        w.flush().unwrap();
        let framed = w.into_inner().unwrap();
        assert_eq!(framed[0], TAG_STORED);
        // [tag][varint 100][payload][crc]
        assert_eq!(framed.len(), 1 + 1 + payload.len() + 4);

        // Hand-build the legacy TAG_RAW equivalent and read it back.
        let mut legacy = vec![TAG_RAW];
        encode_u64(payload.len() as u64, &mut legacy);
        encode_u64(payload.len() as u64, &mut legacy);
        legacy.extend_from_slice(&payload);
        legacy.extend_from_slice(&crc32(&payload).to_le_bytes());
        let mut back = Vec::new();
        BlockReader::new(legacy.as_slice(), true, None)
            .read_to_end(&mut back)
            .unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn trained_tag_in_v1_stream_is_typed_corruption() {
        // Tag 4 named the retired trained-dictionary frames; no reader
        // can decode one, so it must be a typed error.
        let mut bogus = vec![4u8];
        encode_u64(4, &mut bogus); // raw_len
        encode_u64(1, &mut bogus); // comp_len
        bogus.push(0x61);
        bogus.extend_from_slice(&crc32(&[0x61]).to_le_bytes());
        let mut r = BlockReader::new(bogus.as_slice(), true, None);
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        let storage: StorageError = err.into();
        assert!(matches!(storage, StorageError::Corrupt { .. }), "{storage}");
    }

    #[test]
    fn crc_mismatch_is_typed_corruption() {
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Auto, None);
        w.write_all(&b"abcabcabc".repeat(100)).unwrap();
        w.flush().unwrap();
        let mut framed = w.into_inner().unwrap();
        let mid = framed.len() / 2;
        framed[mid] ^= 0x40;
        let mut r = BlockReader::new(framed.as_slice(), true, None);
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        let storage: StorageError = err.into();
        assert!(matches!(storage, StorageError::Corrupt { .. }), "{storage}");
    }

    #[test]
    fn truncated_frame_is_typed_corruption_or_io() {
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Auto, None);
        w.write_all(&[7u8; 4096]).unwrap();
        w.flush().unwrap();
        let framed = w.into_inner().unwrap();
        for cut in [1usize, 3, framed.len() / 2, framed.len() - 1] {
            let mut r = BlockReader::new(&framed[..cut], true, None);
            assert!(
                r.read_to_end(&mut Vec::new()).is_err(),
                "cut at {cut} must not decode cleanly"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let bogus = [0x7Fu8, 0x01, 0x01, 0xAA, 0, 0, 0, 0];
        let mut r = BlockReader::new(&bogus[..], true, None);
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        let storage: StorageError = err.into();
        assert!(matches!(storage, StorageError::Corrupt { .. }));
    }

    #[test]
    fn flush_block_creates_seekable_boundaries() {
        // Two flushed segments decode independently from their own
        // physical offsets — the property seqfile splits rely on.
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Auto, None);
        w.write_all(b"first segment, repeated: aaaaaaaaaa").unwrap();
        w.flush_block().unwrap();
        let boundary = w.written_bytes() as usize;
        w.write_all(b"second segment: bbbbbbbbbb").unwrap();
        w.flush_block().unwrap();
        let framed = w.into_inner().unwrap();

        let mut tail = Vec::new();
        BlockReader::new(&framed[boundary..], true, None)
            .read_to_end(&mut tail)
            .unwrap();
        assert_eq!(tail, b"second segment: bbbbbbbbbb");
    }

    #[test]
    fn block_io_faults_fire_per_frame() {
        let faults = Arc::new(IoFaults::new().with_fault(IoSite::BlockWrite, 1));
        let mut w = BlockWriter::new(
            Vec::new(),
            ShuffleCompression::Raw,
            Some(Arc::clone(&faults)),
        );
        // First frame passes, second injects.
        w.write_all(&vec![1u8; DEFAULT_BLOCK_SIZE]).unwrap();
        let err = w.write_all(&vec![2u8; DEFAULT_BLOCK_SIZE]).unwrap_err();
        assert!(err.to_string().contains("block-write"));

        let mut ok = BlockWriter::new(Vec::new(), ShuffleCompression::Raw, None);
        ok.write_all(&vec![3u8; DEFAULT_BLOCK_SIZE]).unwrap();
        ok.flush().unwrap();
        let framed = ok.into_inner().unwrap();
        let rf = Arc::new(IoFaults::new().with_fault(IoSite::BlockRead, 0));
        let mut r = BlockReader::new(framed.as_slice(), true, Some(rf));
        let err = r.read_to_end(&mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("block-read"));
    }

    #[test]
    fn delta_huge_run_lengths_are_corruption_not_overflow() {
        // A token whose zero-run + literal lengths wrap u64 must be a
        // typed error, not a wrapped bound check feeding resize().
        let mut comp = Vec::new();
        encode_u64(1, &mut comp); // stride
        encode_u64(u64::MAX, &mut comp); // zero run
        encode_u64(1, &mut comp); // literal run
        comp.push(0xAB);
        let err = DeltaVarint
            .decompress(&comp, 10, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn dict_novel_code_at_full_table_is_corruption_not_oob() {
        // Fill the decode table to DICT_MAX_CODES (every code after
        // the first pushes one entry), then claim a "novel" KwKwK code
        // the encoder could never emit: the decoder must reject it
        // rather than record a dangling code a later expand() would
        // index out of bounds.
        let mut comp = Vec::new();
        let fills = (DICT_MAX_CODES - 256) as usize + 1;
        for i in 0..fills {
            encode_u64((i % 2) as u64, &mut comp);
        }
        encode_u64(DICT_MAX_CODES as u64, &mut comp);
        encode_u64(DICT_MAX_CODES as u64, &mut comp);
        let err = DictBlock
            .decompress(&comp, 1 << 20, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn crc32_known_vectors() {
        // The IEEE polynomial's canonical check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..1032u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=1024 {
                let s = &data[off..off + len];
                assert_eq!(crc32(s), bytewise(s), "offset {off} length {len}");
            }
        }
    }

    #[test]
    fn shuffle_compression_names_round_trip() {
        for c in ShuffleCompression::ALL {
            assert_eq!(ShuffleCompression::parse(c.name()), Some(c));
        }
        assert_eq!(ShuffleCompression::parse("gzip"), None);
        assert_eq!(ShuffleCompression::default(), ShuffleCompression::None);
    }

    /// One frame of `raw` under `tag`, compressed by `codec`.
    fn frame_with(tag: u8, codec: &dyn BlockCodec, raw: &[u8]) -> Vec<u8> {
        let mut comp = Vec::new();
        codec.compress(raw, &mut comp);
        let mut out = Vec::new();
        write_frame(&mut out, tag, raw.len(), &comp).unwrap();
        out
    }

    #[test]
    fn auto_frame_is_never_longer_than_either_candidate() {
        let mut x = 0x2545F4914F6CDD1Du64;
        let noise: Vec<u8> = (0..DEFAULT_BLOCK_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let mut blocks = payloads();
        blocks.push(noise);
        for p in blocks {
            // One block per stream, so the writer emits one frame.
            let block = &p[..p.len().min(DEFAULT_BLOCK_SIZE)];
            let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Auto, None);
            w.write_all(block).unwrap();
            let auto = w.into_inner().unwrap();
            let dict = frame_with(TAG_DICT, &DictBlock, block);
            let delta = frame_with(TAG_DELTA, &DeltaVarint, block);
            if block.is_empty() {
                assert!(auto.is_empty(), "an empty block emits no frame");
                continue;
            }
            assert!(
                auto.len() <= dict.len().min(delta.len()),
                "{} bytes: auto {} vs dict {} / delta {}",
                block.len(),
                auto.len(),
                dict.len(),
                delta.len()
            );
        }
    }

    #[test]
    fn single_codec_streams_still_decode() {
        // Streams written before `auto` framed every block with one
        // codec (`--codec dict` or `--codec delta`); frames name their
        // codec, so they decode unchanged.
        let payload = b"key-00042\tvalue ".repeat(5000);
        for (tag, codec) in [
            (TAG_DICT, &DictBlock as &dyn BlockCodec),
            (TAG_DELTA, &DeltaVarint),
        ] {
            let framed: Vec<u8> = payload
                .chunks(DEFAULT_BLOCK_SIZE)
                .flat_map(|block| frame_with(tag, codec, block))
                .collect();
            assert!(framed.len() < payload.len(), "tag {tag} frames compress");
            let mut back = Vec::new();
            BlockReader::new(framed.as_slice(), true, None)
                .read_to_end(&mut back)
                .unwrap();
            assert_eq!(back, payload, "tag {tag}");
        }
    }
}
