//! Layer probes: the workload's own data replayed through one layer's
//! narrowest public constructor, timed from outside.
//!
//! Each probe is one small function, so that a later PR which changes a
//! probed signature has exactly one place to fix (and, by the rule in
//! README.md, a benchmark issue to file first). Probes run only in the
//! traced run; nothing here feeds an end-to-end metric.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use manimal::service::proto::JobReply;
use manimal::{Builtin, Manimal, Submission};
use mr_engine::{InputSpec, LoserTree, ReducerFactory, RunStream};
use mr_ir::function::Program;
use mr_ir::interp::Interpreter;
use mr_ir::record::Record;
use mr_ir::value::Value;
use mr_storage::btree::{BTreeIndex, ScanBound};
use mr_storage::{
    DeltaFileReader, DictFileReader, ProjectedFile, RunFileReader, RunFileWriter, SeqFileMeta,
};

use crate::batch::Prepared;
use crate::harness::{timed, Ctx, Result};
use crate::stats::median;

/// Map output or run contents: `(key, value)` pairs.
pub type Pairs = Vec<(Value, Value)>;

/// Records kept from the seqfile probe for the probes that follow.
const SAMPLE_RECORDS: usize = 50_000;

/// `mr-storage.seqfile.*`: open the file and decode every record.
/// Returns `(seconds, records, file bytes, the first SAMPLE_RECORDS records)`.
pub fn seqfile_decode(path: &Path) -> Result<(f64, u64, u64, Vec<Record>)> {
    let bytes = std::fs::metadata(path)?.len();
    let mut sample = Vec::new();
    let (n, secs) = timed(|| -> Result<u64> {
        let mut n = 0u64;
        for record in SeqFileMeta::open(path)?.read_all()? {
            let record = record?;
            if sample.len() < SAMPLE_RECORDS {
                sample.push(record);
            }
            n += 1;
        }
        Ok(n)
    });
    Ok((secs, n?, bytes, sample))
}

/// `mr-storage.btree.*`: scan the plan's ranges. Returns `(seconds, entries)`.
pub fn btree_scan(path: &Path, ranges: &[(ScanBound, ScanBound)]) -> Result<(f64, u64)> {
    let (n, secs) = timed(|| -> Result<u64> {
        let index = BTreeIndex::open(path)?;
        let mut n = 0u64;
        for (lo, hi) in ranges {
            for entry in index.scan(lo.clone(), hi.clone())? {
                entry?;
                n += 1;
            }
        }
        Ok(n)
    });
    Ok((secs, n?))
}

/// `mr-storage.colfile.read_s`: read a projected file widened back to the source schema.
pub fn colfile_read(path: &Path, source_schema: &Arc<mr_ir::Schema>) -> Result<f64> {
    let (r, secs) = timed(|| -> Result<()> {
        for record in ProjectedFile::open(path, Arc::clone(source_schema))?.read_widened()? {
            record?;
        }
        Ok(())
    });
    r.map(|()| secs)
}

/// `mr-storage.delta.read_s`: decode a delta-compressed file.
pub fn delta_read(path: &Path) -> Result<f64> {
    let (r, secs) = timed(|| -> Result<()> {
        for record in DeltaFileReader::open(path)? {
            record?;
        }
        Ok(())
    });
    r.map(|()| secs)
}

/// `mr-storage.dict.read_s`: decode a dictionary-compressed file.
pub fn dict_read(path: &Path) -> Result<f64> {
    let (r, secs) = timed(|| -> Result<()> {
        for record in DictFileReader::open(path)? {
            record?;
        }
        Ok(())
    });
    r.map(|()| secs)
}

/// `mr-storage.rowcodec.*`: `(encode ns, decode ns)` per record, and the encoded bytes.
pub fn rowcodec(records: &[Record]) -> Result<(f64, f64, Vec<u8>)> {
    let schema = Arc::clone(records[0].schema());
    let mut buf = Vec::new();
    let (r, enc) = timed(|| -> Result<()> {
        for record in records {
            mr_storage::rowcodec::encode_row(record, &mut buf)?;
        }
        Ok(())
    });
    r?;
    let (r, dec) = timed(|| -> Result<()> {
        let mut at = 0;
        while at < buf.len() {
            let (record, used) = mr_storage::rowcodec::decode_row(&schema, &buf[at..])?;
            std::hint::black_box(record);
            at += used;
        }
        Ok(())
    });
    r?;
    let n = records.len() as f64;
    Ok((enc * 1e9 / n, dec * 1e9 / n, buf))
}

/// `mr-storage.crc32.mb_per_s` over `bytes` (several passes, median).
pub fn crc32_mb_per_s(bytes: &[u8]) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                std::hint::black_box(mr_storage::blockcodec::crc32(std::hint::black_box(bytes)))
            })
            .1
        })
        .collect();
    bytes.len() as f64 / 1e6 / median(&samples)
}

/// `mr-ir.interp.*`: one reused interpreter over pre-decoded records.
/// Returns `(seconds, instructions, emitted pairs)`.
pub fn interp(program: &Program, records: &[Record]) -> Result<(f64, u64, Pairs)> {
    let values: Vec<Value> = records.iter().cloned().map(Value::from).collect();
    let mut interp = Interpreter::new(&program.mapper);
    let mut emits = Vec::new();
    let mut instructions = 0u64;
    let (r, secs) = timed(|| -> Result<()> {
        for (i, value) in values.iter().enumerate() {
            let out = interp.invoke_map(&program.mapper, &Value::Int(i as i64), value)?;
            instructions += out.instructions_executed;
            emits.extend(out.emits);
        }
        Ok(())
    });
    r?;
    Ok((secs, instructions, emits))
}

/// `mr-engine.partition.keys_per_s` over the emitted keys.
pub fn partition_keys_per_s(pairs: &[(Value, Value)]) -> f64 {
    let (sum, secs) = timed(|| {
        pairs
            .iter()
            .map(|(k, _)| mr_engine::partition::partition(k, 4))
            .sum::<usize>()
    });
    std::hint::black_box(sum);
    pairs.len() as f64 / secs
}

/// `mr-storage.runfile.*`: write `sorted` as `runs` run files under
/// `dir`, then read them back. Returns `(write MB/s, read MB/s, paths)`;
/// MB are the record-layer bytes the writer reports.
pub fn runfiles(
    dir: &Path,
    sorted: &[(Value, Value)],
    runs: usize,
) -> Result<(f64, f64, Vec<PathBuf>)> {
    std::fs::create_dir_all(dir)?;
    // Deal the sorted pairs round-robin, so every run is sorted and
    // the runs interleave when merged.
    let mut paths = Vec::new();
    let mut raw_bytes = 0u64;
    let (r, write_secs) = timed(|| -> Result<()> {
        for run in 0..runs {
            let path = dir.join(format!("run-{run}.mrrn"));
            let mut w = RunFileWriter::create(&path)?;
            for (k, v) in sorted.iter().skip(run).step_by(runs) {
                w.append(k, v)?;
            }
            raw_bytes += w.finish()?.raw_bytes;
            paths.push(path);
        }
        Ok(())
    });
    r?;
    let (r, read_secs) = timed(|| -> Result<()> {
        for path in &paths {
            for pair in RunFileReader::open(path)? {
                pair?;
            }
        }
        Ok(())
    });
    r?;
    let mb = raw_bytes as f64 / 1e6;
    Ok((mb / write_secs, mb / read_secs, paths))
}

/// `mr-engine.merge.pairs_per_s`: a loser tree over the probe's run files.
pub fn merge_pairs_per_s(paths: &[PathBuf]) -> Result<f64> {
    let (n, secs) = timed(|| -> Result<u64> {
        let streams = paths
            .iter()
            .map(|p| Ok(RunStream::File(RunFileReader::open(p)?)))
            .collect::<Result<Vec<_>>>()?;
        let mut n = 0u64;
        for pair in LoserTree::new(streams)? {
            pair?;
            n += 1;
        }
        Ok(n)
    });
    Ok(n? as f64 / secs)
}

/// `mr-engine.reducer.groups_per_s`: the workload's reducer over the
/// sorted pairs, one call per key group.
pub fn reducer_groups_per_s(reducer: Builtin, sorted: &[(Value, Value)]) -> Result<f64> {
    let mut groups: Vec<(&Value, Vec<Value>)> = Vec::new();
    for (k, v) in sorted {
        match groups.last_mut() {
            Some((key, values)) if *key == k => values.push(v.clone()),
            _ => groups.push((k, vec![v.clone()])),
        }
    }
    let mut task = reducer.create();
    let mut out = Vec::new();
    let (r, secs) = timed(|| -> Result<()> {
        for (key, values) in &groups {
            task.reduce(key, values, &mut out)?;
        }
        Ok(())
    });
    r?;
    Ok(groups.len() as f64 / secs)
}

/// `mr-analysis.analyze_us`: median of 1 000 calls.
pub fn analyze_us(program: &Program) -> f64 {
    let samples: Vec<f64> = (0..1000)
        .map(|_| timed(|| std::hint::black_box(mr_analysis::analyze(program))).1)
        .collect();
    median(&samples) * 1e6
}

/// `core.optimizer.plan_us`: median of 200 calls of `Manimal::plan`.
pub fn plan_us(m: &Manimal, sub: &Submission) -> Result<f64> {
    let mut samples = Vec::new();
    for _ in 0..200 {
        let (plan, secs) = timed(|| m.plan(sub));
        plan?;
        samples.push(secs);
    }
    Ok(median(&samples) * 1e6)
}

/// `core.service.proto.*` on a captured reply: `(payload bytes, encode µs, decode µs)`.
pub fn reply_codec(reply: &JobReply) -> Result<(f64, f64, f64)> {
    let payload = reply.to_payload();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..50 {
        enc.push(timed(|| std::hint::black_box(reply.to_payload())).1);
        let (back, secs) = timed(|| JobReply::from_payload(&payload));
        back?;
        dec.push(secs);
    }
    Ok((payload.len() as f64, median(&enc) * 1e6, median(&dec) * 1e6))
}

/// What the layer probes replay.
pub struct ProbeInput<'a> {
    /// The workload's main input file.
    pub input: &'a Path,
    /// The workload's mapper over it.
    pub program: &'a Program,
    /// The workload's reducer.
    pub reducer: Builtin,
    /// The optimized plan's physical input, when the workload has one.
    pub optimized_input: Option<InputSpec>,
    /// Scratch directory for the run-file probes.
    pub scratch: PathBuf,
}

/// Run every layer probe that applies and record its metrics; each
/// probe is one span charged to its layer.
pub fn run_layers(ctx: &mut Ctx, p: &ProbeInput<'_>) -> Result<()> {
    let (secs, n, bytes, records) =
        ctx.tracer
            .span("SeqFileMeta::open + read_all", "mr-storage", |_| {
                seqfile_decode(p.input)
            })?;
    ctx.set("mr-storage.seqfile.decode_s", secs);
    ctx.set("mr-storage.seqfile.records_per_s", n as f64 / secs);
    ctx.set("mr-storage.seqfile.mb_per_s", bytes as f64 / 1e6 / secs);

    match &p.optimized_input {
        Some(InputSpec::BTreeRanges { path, ranges }) => {
            let (secs, entries) = ctx.tracer.span("BTreeIndex::scan", "mr-storage", |_| {
                btree_scan(path, ranges)
            })?;
            ctx.set("mr-storage.btree.scan_s", secs);
            ctx.set("mr-storage.btree.entries_per_s", entries as f64 / secs);
        }
        Some(InputSpec::Projected {
            path,
            source_schema,
        }) => {
            let secs = ctx
                .tracer
                .span("ProjectedFile::read_widened", "mr-storage", |_| {
                    colfile_read(path, source_schema)
                })?;
            ctx.set("mr-storage.colfile.read_s", secs);
        }
        Some(InputSpec::Delta { path, .. }) => {
            let secs = ctx
                .tracer
                .span("DeltaFileReader", "mr-storage", |_| delta_read(path))?;
            ctx.set("mr-storage.delta.read_s", secs);
        }
        Some(InputSpec::Dict { path }) => {
            let secs = ctx
                .tracer
                .span("DictFileReader", "mr-storage", |_| dict_read(path))?;
            ctx.set("mr-storage.dict.read_s", secs);
        }
        Some(InputSpec::SeqFile { .. }) | None => {}
    }
    if records.is_empty() {
        return Ok(());
    }

    let (enc_ns, dec_ns, encoded) =
        ctx.tracer
            .span("rowcodec::encode_row + decode_row", "mr-storage", |_| {
                rowcodec(&records)
            })?;
    ctx.set("mr-storage.rowcodec.encode_ns", enc_ns);
    ctx.set("mr-storage.rowcodec.decode_ns", dec_ns);
    let crc = ctx.tracer.span("blockcodec::crc32", "mr-storage", |_| {
        crc32_mb_per_s(&encoded)
    });
    ctx.set("mr-storage.crc32.mb_per_s", crc);

    let (secs, instructions, mut pairs) =
        ctx.tracer.span("Interpreter::invoke_map", "mr-ir", |_| {
            interp(p.program, &records)
        })?;
    ctx.set("mr-ir.interp.invoke_s", secs);
    ctx.set("mr-ir.interp.records_per_s", records.len() as f64 / secs);
    ctx.set(
        "mr-ir.interp.instructions_per_record",
        instructions as f64 / records.len() as f64,
    );
    let analyze = ctx.tracer.span("mr_analysis::analyze", "mr-analysis", |_| {
        analyze_us(p.program)
    });
    ctx.set("mr-analysis.analyze_us", analyze);
    if pairs.is_empty() {
        return Ok(());
    }

    let keys_per_s = ctx
        .tracer
        .span("partition", "mr-engine", |_| partition_keys_per_s(&pairs));
    ctx.set("mr-engine.partition.keys_per_s", keys_per_s);
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let (write, read, paths) =
        ctx.tracer
            .span("RunFileWriter + RunFileReader", "mr-storage", |_| {
                runfiles(&p.scratch, &pairs, 8)
            })?;
    ctx.set("mr-storage.runfile.write_mb_per_s", write);
    ctx.set("mr-storage.runfile.read_mb_per_s", read);
    let merged = ctx
        .tracer
        .span("LoserTree over RunStream::File", "mr-engine", |_| {
            merge_pairs_per_s(&paths)
        })?;
    ctx.set("mr-engine.merge.pairs_per_s", merged);
    let groups = ctx.tracer.span("Reducer::reduce", "mr-engine", |_| {
        reducer_groups_per_s(p.reducer, &pairs)
    })?;
    ctx.set("mr-engine.reducer.groups_per_s", groups);
    std::fs::remove_dir_all(&p.scratch)?;
    Ok(())
}

/// The probes of a batch workload: its main input and middle job (the
/// join probes its probe side with the identity reducer of the
/// broadcast plan).
pub fn run_all(ctx: &mut Ctx, m: &Manimal, prep: &Prepared) -> Result<()> {
    let job = if prep.join.is_some() {
        0
    } else {
        prep.subs.len() / 2
    };
    let sub = &prep.subs[job];
    let (program, reducer, optimized_input) = match &prep.join {
        Some((join, _)) => (&join.probe, Builtin::Identity, None),
        None => (&sub.program, prep.reducers[job], Some(m.plan(sub)?.input)),
    };
    let plan = ctx
        .tracer
        .span("Manimal::plan", "core", |_| plan_us(m, sub))?;
    ctx.set("core.optimizer.plan_us", plan);
    run_layers(
        ctx,
        &ProbeInput {
            input: &sub.input,
            program,
            reducer,
            optimized_input,
            scratch: prep.dir.join("probe-runs"),
        },
    )?;
    Ok(())
}
