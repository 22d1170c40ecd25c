//! What every workload shares: options, the result being built up,
//! output digests and process measurements.

use std::path::PathBuf;
use std::time::Instant;

use mr_ir::value::Value;
use mr_json::Json;

use crate::metrics::{per_layer, stand_in, END_TO_END};
use crate::stats::median;
use crate::trace::Tracer;

/// Boxed error: the benchmark reports failures, it does not match on them.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
/// Result with [`BoxError`].
pub type Result<T> = std::result::Result<T, BoxError>;

/// The counting allocator of the traced binary, seen from the library.
#[derive(Clone, Copy)]
pub struct AllocHooks {
    /// `(allocations, bytes)` counted so far.
    pub totals: fn() -> (u64, u64),
    /// Switch counting on or off.
    pub set_counting: fn(bool),
}

/// One workload run's options (the driver's arguments).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Per-layer run (spans, probes, counts) instead of the end-to-end run.
    pub traced: bool,
    /// Tiny inputs and budgets: the same code in a few seconds.
    pub check: bool,
}

/// Where inputs, work directories and traces go, relative to the
/// directory the benchmark is run from (the repository root).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

impl Opts {
    /// Seconds of timed work a cell must hold before it is reported:
    /// the issue's "no timed cell under 1 s". The traced run times
    /// single jobs (it reports no end-to-end metric), `--check` next to
    /// nothing.
    pub fn cell_seconds(&self) -> f64 {
        match (self.check, self.traced) {
            (true, _) => 0.01,
            (false, true) => 0.0,
            (false, false) => 1.0,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.check {
            2
        } else {
            3
        }
    }
}

/// A workload run in progress: options, tracer, and the result so far.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Options.
    pub opts: Opts,
    /// Span recorder (disabled in the end-to-end run).
    pub tracer: Tracer,
    /// The traced binary's allocator, when there is one.
    pub alloc: Option<AllocHooks>,
    /// Operations attempted: every job, request, index build and output check.
    pub attempted: u64,
    /// Operations that failed: an error, a rejection, or an output that
    /// is not byte-identical to its reference.
    pub failed: u64,
    /// What went wrong (failed operations and violated claims).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: Vec<(String, f64)>,
    /// Human-readable detail lines printed above the metrics.
    pub notes: Vec<String>,
}

impl Ctx {
    /// A fresh context; the workload's data directory is emptied.
    pub fn new(workload: &'static str, opts: Opts, alloc: Option<AllocHooks>) -> Result<Ctx> {
        let tracer = Tracer::new(workload, opts.traced);
        let ctx = Ctx {
            workload,
            opts,
            tracer,
            alloc,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: Vec::new(),
            notes: Vec::new(),
        };
        let dir = ctx.data_dir();
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ctx)
    }

    /// This run's private directory under the output directory (two
    /// runs of one workload may share the output directory).
    pub fn data_dir(&self) -> PathBuf {
        out_dir()
            .join("data")
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// Record a metric value (the last write to a name wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Record an end-to-end metric; the traced run measures the same
    /// quantities on the way but reports only per-layer metrics.
    pub fn set_end_to_end(&mut self, name: &str, value: f64) {
        if !self.opts.traced {
            self.set(name, value);
        }
    }

    /// A metric's recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Add a detail line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one operation; a failed one is described by `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(what());
        }
    }

    /// Record something that makes the run incorrect (kept to the
    /// first few, the count is what matters).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        } else if self.problems.len() == 20 {
            self.problems.push("… further problems not listed".into());
        }
    }

    /// Whether every operation succeeded and every claim held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Switch the traced measurements (spans, allocation counting) on
    /// or off together.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
        if let Some(hooks) = self.alloc {
            (hooks.set_counting)(on);
        }
    }

    /// Allocator totals, `(0, 0)` without a counting allocator.
    pub fn alloc_totals(&self) -> (u64, u64) {
        self.alloc.map_or((0, 0), |h| (h.totals)())
    }

    /// The end-to-end metrics of this run: what the workload measured,
    /// and for a metric it does not measure the stand-in the metric
    /// tables define. A measured metric that is missing or not a
    /// positive finite number makes the run incorrect.
    fn end_to_end(&mut self) -> Vec<(String, &'static str, f64, String)> {
        let calibration = calibration_s();
        self.note(format!(
            "calibration loop (the stand-in of the metrics this workload does not measure): \
             {calibration:.6} s"
        ));
        let mut rows = Vec::new();
        for m in END_TO_END {
            let (value, remark) = if m.measured(self.workload) {
                let value = self.get(m.name).unwrap_or_else(|| {
                    self.problem(format!("metric {} was not measured", m.name));
                    0.0
                });
                (value, format!("bound {:.2}", m.bound))
            } else {
                if self.get(m.name).is_some() {
                    self.problem(format!("{} is not a metric of {}", m.name, self.workload));
                }
                let remark = if m.unit == "ratio" {
                    "n/a on this workload: reads 1"
                } else {
                    "n/a on this workload: reads the calibration loop"
                };
                (stand_in(m.unit, calibration), remark.to_string())
            };
            if !(value.is_finite() && value > 0.0) {
                self.problem(format!(
                    "end-to-end metric {} must be a positive number, got {value}",
                    m.name
                ));
            }
            rows.push((m.name.to_string(), m.unit, value, remark));
        }
        rows
    }

    /// The per-layer metrics of this run; one that does not apply to
    /// the workload reads 0.
    fn per_layer(&mut self) -> Vec<(String, &'static str, f64, String)> {
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_share", failed_share);
        let mut rows = Vec::new();
        for (name, unit, _) in per_layer() {
            let value = match self.get(&name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.problem(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => 0.0,
            };
            rows.push((name, unit, value, String::new()));
        }
        rows
    }

    /// Check the result against the metric tables and render it: the
    /// human-readable block, then the one-line JSON the driver reads.
    pub fn finish(mut self) -> (String, String, bool) {
        let rows = if self.opts.traced {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut metrics = Vec::new();
        let mut table = String::new();
        for (name, unit, value, remark) in &rows {
            table.push_str(&format!("  {name:<52} {value:>18.6} {unit:<6} {remark}\n"));
            metrics.push((
                name.clone(),
                Json::obj([("value", Json::Float(*value)), ("unit", Json::str(*unit))]),
            ));
        }
        let unknown: Vec<String> = self
            .values
            .iter()
            .map(|(name, _)| name.clone())
            .filter(|name| !rows.iter().any(|(n, ..)| n == name))
            .collect();
        for name in unknown {
            self.problem(format!("metric {name} is not in the metric tables"));
        }
        let correct = self.correct();
        let mut text = format!(
            "== {} (seed {}, {} run, budget {:.1} s{}) ==\n",
            self.workload,
            self.opts.seed,
            if self.opts.traced {
                "per-layer traced"
            } else {
                "end-to-end"
            },
            self.opts.seconds,
            if self.opts.check {
                ", --check sizes"
            } else {
                ""
            },
        );
        for line in &self.notes {
            text.push_str(&format!("  {line}\n"));
        }
        text.push_str(&table);
        text.push_str(&format!(
            "  operations: {} attempted, {} failed (failed_share {:.6}); correct: {correct}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        ));
        for p in &self.problems {
            text.push_str(&format!("  PROBLEM: {p}\n"));
        }
        let json = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ]);
        (text, json.to_string_compact(), correct)
    }
}

/// Run `f`, returning its value and how long it took in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Length and hash of an output's byte encoding — two outputs with
/// equal digests are byte-identical for the benchmark's purposes. The
/// hash is std's SipHash with its fixed default keys: digests are only
/// ever compared inside one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Output pairs.
    pub pairs: u64,
    /// Encoded bytes.
    pub bytes: u64,
    /// Hash of the encoding.
    pub hash: u64,
}

/// Digests byte strings in the order they are fed.
#[derive(Default)]
pub struct Digester {
    hasher: std::collections::hash_map::DefaultHasher,
    pairs: u64,
    bytes: u64,
}

impl Digester {
    /// Feed one output pair's encoding (possibly in several pieces).
    pub fn pair(&mut self, pieces: &[&[u8]]) {
        use std::hash::Hasher;
        for piece in pieces {
            self.hasher.write(piece);
            self.bytes += piece.len() as u64;
        }
        self.pairs += 1;
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> Digest {
        use std::hash::Hasher;
        Digest {
            pairs: self.pairs,
            bytes: self.bytes,
            hash: self.hasher.finish(),
        }
    }
}

/// Digest of job output through the self-describing rowcodec value
/// encoding, pair by pair in output order.
pub fn digest_pairs(pairs: &[(Value, Value)]) -> Result<Digest> {
    let mut buf = Vec::with_capacity(256);
    let mut digester = Digester::default();
    for (k, v) in pairs {
        buf.clear();
        mr_storage::rowcodec::encode_value(k, &mut buf)?;
        mr_storage::rowcodec::encode_value(v, &mut buf)?;
        digester.pair(&[&buf]);
    }
    Ok(digester.finish())
}

/// The harness's calibration loop: a fixed count of shifts, xors and
/// adds on registers — no memory, no call into the crates — on two
/// threads at once, timed five times, the median in seconds. It is what
/// a run reports under an end-to-end metric its workload does not
/// measure ([`crate::metrics::stand_in`]), and it says whether two runs
/// had the same machine under them. Two threads, because one thread
/// alone on this 2-vCPU sandbox sometimes ran a fifth faster (40 runs:
/// 30.5 to 39.9 ms, against 97.7 to 103.4 ms for this loop).
pub fn calibration_s() -> f64 {
    fn rounds() -> u64 {
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
        let mut acc = 0u64;
        for i in 0..50_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x ^ i);
        }
        acc
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                std::thread::scope(|scope| {
                    let other = scope.spawn(|| std::hint::black_box(rounds()));
                    std::hint::black_box(rounds());
                    other.join().expect("the calibration thread");
                })
            })
            .1
        })
        .collect();
    median(&samples)
}

/// Hash of the bytes of `files`, in order — printed by every run, so
/// that "one seed, one input" can be checked from a run's output.
pub fn input_digest(files: &[PathBuf]) -> Result<u64> {
    let mut digester = Digester::default();
    for file in files {
        digester.pair(&[&std::fs::read(file)?]);
    }
    Ok(digester.finish().hash)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The repetitions every workload times with: at least 5 (the issue's
/// floor), then more while the `--seconds` budget lasts, `max` at most;
/// 2 under `--check`. The traced run does exactly 6, alternating
/// tracing off and on, so the same protocol prices the tracing.
pub struct Reps {
    started: Instant,
    rep_started: Instant,
    budget: f64,
    min: usize,
    max: usize,
    traced: bool,
    done: usize,
}

impl Reps {
    /// Repetitions for `ctx`'s run, at most `max` of them in an
    /// end-to-end run; the budget clock starts now.
    pub fn new(ctx: &Ctx, max: usize) -> Reps {
        let (min, max) = match (ctx.opts.check, ctx.opts.traced) {
            (true, _) => (2, 2),
            (false, true) => (6, 6),
            (false, false) => (5, max.max(5)),
        };
        Reps {
            started: Instant::now(),
            rep_started: Instant::now(),
            budget: ctx.opts.seconds,
            min,
            max,
            traced: ctx.opts.traced,
            done: 0,
        }
    }

    /// Repetitions finished so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Start a repetition: sets tracing for it (returned).
    pub fn begin(&mut self, ctx: &mut Ctx) -> bool {
        self.rep_started = Instant::now();
        let tracing_on = self.traced && self.done % 2 == 1;
        ctx.set_tracing(tracing_on);
        tracing_on
    }

    /// End a repetition; true when another one fits the budget (judging
    /// by how long this one took) or the minimum is not reached yet.
    pub fn another(&mut self) -> bool {
        self.done += 1;
        let spent = self.started.elapsed().as_secs_f64();
        let next = self.rep_started.elapsed().as_secs_f64();
        self.done < self.max && (self.done < self.min || spent + next <= self.budget)
    }
}
