//! `manimald` — a long-running job service over a Unix socket.
//!
//! A single daemon owns one [`Manimal`] instance — one catalog, one
//! shared buffer pool — and serves many
//! clients concurrently. Three policies turn the one-shot CLI pipeline
//! into a service:
//!
//! * **Admission** ([`admission`]): a bounded FIFO queue in front of a
//!   fixed number of job slots. Overload is a *typed* rejection frame,
//!   not an error string.
//! * **In-flight index-build dedup**: two clients planning the same
//!   [`IndexGenProgram`] produce one build — the second blocks on the
//!   first's build cell and both get the registered entry. Builds
//!   already in the catalog with a live artifact are skipped entirely.
//! * **Result caching** ([`cache`]): a size-bounded LRU keyed by the
//!   full request, invalidated when a client reports an input file
//!   regenerated ([`proto::TAG_INVALIDATE`]).
//!
//! Wire format: [`proto`]. Client: [`client::ServiceClient`]. Every
//! decision is counted ([`ServiceStats`]) and snapshottable over the
//! protocol, so the bench harness can assert dedup and cache behaviour
//! from outside the process.

pub mod admission;
pub mod cache;
pub mod client;
pub mod proto;

use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mr_engine::backend::protocol::{read_frame, write_frame};
use mr_ir::function::Program;
use mr_json::Json;
use mr_storage::seqfile::SeqFileMeta;

use crate::catalog::CatalogEntry;
use crate::error::{ManimalError, Result};
use crate::indexgen::IndexGenProgram;
use crate::submit::Manimal;

use admission::{Admission, Admit};
use cache::{CachedResult, InputStamp, Lookup, ResultCache};
use proto::{
    decode_payload, encode_hex_value, parse_invalidate, JobReply, JobRequest, TAG_ERROR,
    TAG_INVALIDATE, TAG_INVALIDATE_OK, TAG_REJECTED, TAG_RESULT, TAG_SHUTDOWN, TAG_SHUTDOWN_OK,
    TAG_STATS, TAG_STATS_OK, TAG_SUBMIT,
};

pub use client::{ServiceClient, SubmitOutcome};
pub use proto::Rejection;

/// A monotonically increasing service counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every decision the daemon makes, counted.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Submissions that entered the admission queue.
    pub queued: Counter,
    /// Submissions granted a job slot.
    pub admitted: Counter,
    /// Submissions turned away by the full queue.
    pub rejected: Counter,
    /// Jobs that ran to completion.
    pub completed: Counter,
    /// Jobs that were admitted but failed.
    pub failed: Counter,
    /// Index builds actually executed by this daemon.
    pub index_builds: Counter,
    /// Index builds a submission waited out instead of duplicating —
    /// the in-flight dedup at work.
    pub index_builds_deduped: Counter,
    /// Submissions answered from the result cache.
    pub cache_hits: Counter,
    /// Submissions that had to run (and then populated the cache).
    pub cache_misses: Counter,
    /// Invalidation requests served, plus cached results dropped on
    /// lookup because their input changed without one.
    pub invalidations: Counter,
}

impl ServiceStats {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queued: self.queued.get(),
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            index_builds: self.index_builds.get(),
            index_builds_deduped: self.index_builds_deduped.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            invalidations: self.invalidations.get(),
        }
    }
}

/// A point-in-time copy of [`ServiceStats`], as carried by
/// [`proto::TAG_STATS_OK`] frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions that entered the admission queue.
    pub queued: u64,
    /// Submissions granted a job slot.
    pub admitted: u64,
    /// Submissions turned away by the full queue.
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that were admitted but failed.
    pub failed: u64,
    /// Index builds actually executed.
    pub index_builds: u64,
    /// Index builds deduplicated in-flight.
    pub index_builds_deduped: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Invalidation requests served, plus stale cached results dropped.
    pub invalidations: u64,
}

impl StatsSnapshot {
    const FIELDS: [&'static str; 10] = [
        "queued",
        "admitted",
        "rejected",
        "completed",
        "failed",
        "index_builds",
        "index_builds_deduped",
        "cache_hits",
        "cache_misses",
        "invalidations",
    ];

    fn values(&self) -> [u64; 10] {
        [
            self.queued,
            self.admitted,
            self.rejected,
            self.completed,
            self.failed,
            self.index_builds,
            self.index_builds_deduped,
            self.cache_hits,
            self.cache_misses,
            self.invalidations,
        ]
    }

    /// Encode as a compact JSON payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let vals = self.values();
        Json::obj(
            Self::FIELDS
                .iter()
                .zip(vals)
                .map(|(name, v)| (*name, Json::Int(v as i64))),
        )
        .to_string_compact()
        .into_bytes()
    }

    /// Decode from a payload.
    pub fn from_payload(payload: &[u8]) -> Result<StatsSnapshot> {
        let mut vals = [0u64; 10];
        decode_payload(payload, "stats", |j| {
            for (slot, name) in vals.iter_mut().zip(Self::FIELDS) {
                *slot = j.u64_field(name)?;
            }
            Ok(())
        })?;
        let [queued, admitted, rejected, completed, failed, index_builds, index_builds_deduped, cache_hits, cache_misses, invalidations] =
            vals;
        Ok(StatsSnapshot {
            queued,
            admitted,
            rejected,
            completed,
            failed,
            index_builds,
            index_builds_deduped,
            cache_hits,
            cache_misses,
            invalidations,
        })
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, v) in Self::FIELDS.iter().zip(self.values()) {
            writeln!(f, "{name:>22}  {v}")?;
        }
        Ok(())
    }
}

/// How to run a daemon: where to listen, where the shared catalog and
/// index artifacts live, and the admission/cache bounds.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// The shared [`Manimal`] working directory (catalog, index
    /// artifacts).
    pub workdir: PathBuf,
    /// Concurrent job slots.
    pub max_running: usize,
    /// Waiting submissions beyond the running ones; one more is a
    /// typed rejection.
    pub queue_cap: usize,
    /// Result-cache budget in bytes of encoded output.
    pub cache_bytes: usize,
}

impl ServiceConfig {
    /// A config with default bounds: 4 slots, a 16-deep queue, a 64 MiB
    /// result cache.
    pub fn new(socket: impl Into<PathBuf>, workdir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            socket: socket.into(),
            workdir: workdir.into(),
            max_running: 4,
            queue_cap: 16,
            cache_bytes: 64 << 20,
        }
    }
}

/// One in-flight index build; later requesters for the same descriptor
/// block here instead of building again.
#[derive(Debug, Default)]
struct BuildCell {
    /// `None` while building; the build outcome once done (errors as
    /// rendered text so waiters get a typed service error).
    done: Mutex<Option<std::result::Result<CatalogEntry, String>>>,
    cv: Condvar,
}

/// The daemon state shared by every connection handler.
pub struct JobService {
    manimal: Manimal,
    admission: Admission,
    cache: Mutex<ResultCache>,
    /// In-flight index builds keyed by their `kind|input|output`
    /// descriptor.
    builds: Mutex<HashMap<String, Arc<BuildCell>>>,
    stats: ServiceStats,
    stop: AtomicBool,
}

/// The builtin reducer registry shared by the CLI and the daemon: every
/// builtin by its wire name, except the join reducer, which only a
/// planned join runs.
pub fn builtin_reducer(name: &str) -> Result<mr_engine::Builtin> {
    mr_engine::Builtin::parse(name)
        .filter(|b| *b != mr_engine::Builtin::JoinTagged)
        .ok_or_else(|| ManimalError::Service(format!("unknown reducer `{name}`")))
}

impl JobService {
    fn new(cfg: &ServiceConfig) -> Result<JobService> {
        Ok(JobService {
            manimal: Manimal::new(&cfg.workdir)?,
            admission: Admission::new(cfg.max_running, cfg.queue_cap),
            cache: Mutex::new(ResultCache::new(cfg.cache_bytes)),
            builds: Mutex::new(HashMap::new()),
            stats: ServiceStats::default(),
            stop: AtomicBool::new(false),
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Build one index program, deduplicating in-flight: the first
    /// requester builds, everyone else blocks on its [`BuildCell`].
    /// Returns 1 when this call waited out someone else's build.
    fn build_index_deduped(&self, prog: &IndexGenProgram) -> Result<u64> {
        // Already registered with a live artifact: nothing to build.
        let registered = self
            .manimal
            .catalog()
            .indexes_for(&prog.input)
            .into_iter()
            .any(|e| e.kind == prog.kind && e.index_path.exists());
        if registered {
            return Ok(0);
        }
        let key = format!(
            "{}|{}|{}",
            prog.kind,
            prog.input.display(),
            prog.output.display()
        );
        let (cell, leader) = {
            let mut builds = self.builds.lock().unwrap_or_else(|e| e.into_inner());
            match builds.get(&key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell = Arc::new(BuildCell::default());
                    builds.insert(key.clone(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if !leader {
            // Someone else is building this exact descriptor: wait for
            // their outcome instead of duplicating the job.
            self.stats.index_builds_deduped.bump();
            let mut done = cell.done.lock().unwrap_or_else(|e| e.into_inner());
            while done.is_none() {
                done = cell.cv.wait(done).unwrap_or_else(|e| e.into_inner());
            }
            return match done.as_ref().expect("loop ensures Some") {
                Ok(_) => Ok(0),
                Err(msg) => Err(ManimalError::Service(format!(
                    "deduplicated index build failed: {msg}"
                ))),
            };
        }
        self.stats.index_builds.bump();
        let outcome = self.manimal.build_index(prog);
        let text_outcome = match &outcome {
            Ok(entry) => Ok(entry.clone()),
            Err(e) => Err(e.to_string()),
        };
        {
            let mut done = cell.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = Some(text_outcome);
        }
        cell.cv.notify_all();
        self.builds
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
        outcome.map(|_| 0)
    }

    /// Run one submission end to end; the reply frame (tag + payload).
    fn handle_submit(&self, req: &JobRequest) -> Result<(u8, Vec<u8>)> {
        let _slot = match self.admission.admit(&self.stats) {
            Admit::Granted(slot) => slot,
            Admit::Rejected(r) => return Ok((TAG_REJECTED, r.to_payload())),
        };
        let key = req.to_payload()?;
        // Stat the input before anything reads it: a result computed
        // from this read is only ever served to the same file.
        let stamp = InputStamp::of(&req.input)?;
        let lookup = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key, &stamp);
        if let Lookup::Stale = lookup {
            self.stats.invalidations.bump();
        }
        if let Lookup::Hit(hit) = lookup {
            self.stats.cache_hits.bump();
            let reply = JobReply {
                plan: hit.plan,
                applied: hit.applied,
                combiner: hit.combiner,
                cache_hit: true,
                deduped_builds: 0,
                output_hex: hit.output_hex,
            };
            return Ok((TAG_RESULT, reply.to_payload()));
        }
        self.stats.cache_misses.bump();

        let func =
            crate::parse_verified(&req.program_asm, "program").map_err(ManimalError::Service)?;
        let meta = SeqFileMeta::open(&req.input)?;
        let program = Program::new(req.name.clone(), func, Arc::clone(&meta.schema));
        let submission = self.manimal.submit(&program, &req.input);

        let mut deduped = 0;
        if req.build_indexes {
            for prog in &submission.index_programs {
                deduped += self.build_index_deduped(prog)?;
            }
        }

        let reducer: Arc<dyn mr_engine::ReducerFactory> = match &req.reduce_ir {
            Some(src) => {
                let func =
                    crate::parse_verified(src, "reduce ir").map_err(ManimalError::Service)?;
                crate::optimizer::ir_reducer(func, &program).0
            }
            None => Arc::new(builtin_reducer(&req.reducer)?),
        };

        let exec = if req.baseline {
            self.manimal.execute_baseline(&submission, reducer)?
        } else {
            self.manimal.execute(&submission, reducer)?
        };
        self.stats.completed.bump();

        let output_hex = exec
            .result
            .output
            .iter()
            .map(|(k, v)| Ok((encode_hex_value(k)?, encode_hex_value(v)?)))
            .collect::<Result<Vec<_>>>()?;
        let cached = CachedResult {
            plan: exec.descriptor_summary.clone(),
            applied: exec.applied.clone(),
            combiner: exec.combiner.map(str::to_string),
            output_hex: output_hex.clone(),
        };
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, &req.input, stamp, cached);
        let reply = JobReply {
            plan: exec.descriptor_summary,
            applied: exec.applied,
            combiner: exec.combiner.map(str::to_string),
            cache_hit: false,
            deduped_builds: deduped,
            output_hex,
        };
        Ok((TAG_RESULT, reply.to_payload()))
    }

    /// Drop catalog entries and cached results for a regenerated input.
    fn handle_invalidate(&self, input: &Path) -> Result<u64> {
        self.manimal.catalog().invalidate(input)?;
        let dropped = self
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .invalidate_input(input) as u64;
        self.stats.invalidations.bump();
        Ok(dropped)
    }

    /// Serve one client connection until it hangs up, the daemon stops,
    /// or the stream errors.
    fn serve_connection(self: &Arc<Self>, stream: UnixStream) {
        // Short read timeouts let idle connections notice a shutdown
        // instead of pinning their handler thread forever.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut stream = stream;
        loop {
            let frame = match read_frame(&mut stream) {
                Ok(Some(frame)) => frame,
                Ok(None) => break, // clean hangup
                Err(mr_engine::EngineError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stopping() {
                        break;
                    }
                    continue;
                }
                Err(_) => break, // torn frame or dead peer: drop the connection
            };
            let outcome = match frame {
                (TAG_SUBMIT, payload) => {
                    if self.stopping() {
                        Ok((TAG_ERROR, b"daemon is shutting down".to_vec()))
                    } else {
                        JobRequest::from_payload(&payload).and_then(|req| {
                            self.handle_submit(&req)
                                .inspect_err(|_| self.stats.failed.bump())
                        })
                    }
                }
                (TAG_STATS, _) => Ok((TAG_STATS_OK, self.stats.snapshot().to_payload())),
                (TAG_INVALIDATE, payload) => parse_invalidate(&payload)
                    .and_then(|input| self.handle_invalidate(&input))
                    .map(|dropped| {
                        let body = Json::obj([("dropped", Json::Int(dropped as i64))]);
                        (TAG_INVALIDATE_OK, body.to_string_compact().into_bytes())
                    }),
                (TAG_SHUTDOWN, _) => {
                    self.stop.store(true, Ordering::SeqCst);
                    let _ = write_frame(&mut stream, TAG_SHUTDOWN_OK, b"");
                    break;
                }
                (tag, _) => Ok((TAG_ERROR, format!("unknown request tag {tag}").into_bytes())),
            };
            let (tag, payload) = match outcome {
                Ok(reply) => reply,
                Err(e) => (TAG_ERROR, e.to_string().into_bytes()),
            };
            if write_frame(&mut stream, tag, &payload).is_err() {
                break; // client went away mid-reply
            }
        }
    }
}

/// A running daemon: join it, read its counters, shut it down.
pub struct ServiceHandle {
    svc: Arc<JobService>,
    socket: PathBuf,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl ServiceHandle {
    /// The daemon's live counter snapshot (in-process view; remote
    /// clients use [`ServiceClient::stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.svc.stats.snapshot()
    }

    /// True once a client (or [`Self::shutdown`]) asked the daemon to
    /// stop.
    pub fn stop_requested(&self) -> bool {
        self.svc.stopping()
    }

    /// Stop accepting connections, let in-flight jobs finish, join
    /// every thread, remove the socket. Idempotent with a client-sent
    /// shutdown.
    pub fn shutdown(mut self) -> Result<StatsSnapshot> {
        self.svc.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| ManimalError::Service("accept thread panicked".into()))?;
        }
        let handlers =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handlers {
            h.join()
                .map_err(|_| ManimalError::Service("connection handler panicked".into()))?;
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(self.svc.stats.snapshot())
    }
}

/// Start a daemon for `cfg`: bind the socket (replacing a stale file),
/// spawn the accept loop, return a handle.
pub fn start(cfg: ServiceConfig) -> Result<ServiceHandle> {
    if cfg.socket.exists() {
        std::fs::remove_file(&cfg.socket)?;
    }
    if let Some(parent) = cfg.socket.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let listener = UnixListener::bind(&cfg.socket)
        .map_err(|e| ManimalError::Service(format!("bind {}: {e}", cfg.socket.display())))?;
    listener.set_nonblocking(true)?;
    let svc = Arc::new(JobService::new(&cfg)?);
    let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let svc = Arc::clone(&svc);
        let handlers = Arc::clone(&handlers);
        std::thread::spawn(move || loop {
            if svc.stopping() {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let svc = Arc::clone(&svc);
                    let handler = std::thread::spawn(move || svc.serve_connection(stream));
                    handlers
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(handler);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    eprintln!("manimald: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        })
    };
    Ok(ServiceHandle {
        svc,
        socket: cfg.socket,
        accept: Some(accept),
        handlers,
    })
}

/// Run a daemon in the foreground until a client sends shutdown; the
/// `manimald` binary's whole main loop.
pub fn serve_blocking(cfg: ServiceConfig) -> Result<StatsSnapshot> {
    let handle = start(cfg)?;
    while !handle.stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_snapshot_round_trips() {
        let stats = ServiceStats::default();
        stats.queued.bump();
        stats.queued.bump();
        stats.cache_hits.add(3);
        let snap = stats.snapshot();
        assert_eq!(snap.queued, 2);
        assert_eq!(snap.cache_hits, 3);
        let back = StatsSnapshot::from_payload(&snap.to_payload()).unwrap();
        assert_eq!(back, snap);
        assert!(snap.to_string().contains("cache_hits"));
    }

    #[test]
    fn builtin_reducer_registry_matches_cli_names() {
        for name in [
            "sum",
            "count",
            "max",
            "min",
            "identity",
            "first",
            "sum-drop-key",
        ] {
            assert!(builtin_reducer(name).is_ok(), "{name}");
        }
        assert!(builtin_reducer("no-such-reducer").is_err());
        assert!(builtin_reducer("join-tagged").is_err(), "joins only");
    }
}
