//! # mr-storage — physical layouts for Manimal
//!
//! Every on-disk format the optimizer can choose between:
//!
//! * [`seqfile`] — the baseline format "standard Hadoop" reads: a
//!   schema-carrying header plus length-prefixed binary rows and a
//!   sparse block index for input splits. It is also every row
//!   artifact: a projected copy is a sequence file of the projected
//!   schema, and the delta (App. C/D, Table 5) and dictionary (App. D
//!   Table 6, direct operation on codes) layouts are per-field
//!   encodings recorded in its header;
//! * [`btree`] — clustered B+Tree indexes for the selection
//!   optimization (paper §2.1): leaf entries hold full (or projected)
//!   records, so a range scan replaces the original file;
//! * [`colfile`] — the projection transform and a projected file's
//!   handle on its source schema (§1, App. D Table 4);
//! * [`runfile`] — sorted-run files the execution fabric spills shuffle
//!   buckets into and k-way merges at reduce time (the external-shuffle
//!   path; Hadoop's `IFile` analog);
//! * [`blockcodec`] — the pluggable block-compression layer under the
//!   streaming formats (runfile, seqfile): CRC'd, length-prefixed
//!   frames, each the smallest of a dictionary, a delta and a stored
//!   encoding of its block;
//! * [`blockindex`] — the 4096-record block grid the row files share:
//!   footer block-index validation, split planning, and the per-block
//!   encoder the parallel index builds drive;
//! * [`rowcodec`] / [`varint`] / [`hex`] — the shared codecs;
//! * [`fault`] — deterministic IO fault injection for the run/seq
//!   readers and writers (and the block-frame layer), driving the
//!   engine's task-retry tests.
//!
//! Every layout is specified byte-by-byte in `docs/FORMATS.md` at the
//! repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blockcodec;
pub mod blockindex;
pub mod btree;
pub mod colfile;
pub mod error;
pub mod fault;
pub mod hex;
pub mod rowcodec;
pub mod runfile;
pub mod seqfile;
pub mod varint;

pub use blockcodec::{BlockCodec, BlockReader, BlockWriter, ShuffleCompression};
pub use btree::{BTreeIndex, BTreeScanner, BTreeStats, BTreeWriter, ScanBound};
pub use colfile::{write_projected, ProjectedFile};
pub use error::{Result, StorageError};
pub use fault::{IoFaults, IoSite};
pub use runfile::{RunFileReader, RunFileStats, RunFileWriter, RunScratch};
pub use seqfile::{write_seqfile, Dictionary, SeqFileMeta, SeqFileReader, SeqFileWriter, Split};

/// A reader of a file with delta-encoded fields: a [`SeqFileReader`].
pub type DeltaFileReader = SeqFileReader;
/// A reader of a file with dict-encoded fields: a [`SeqFileReader`].
pub type DictFileReader = SeqFileReader;
