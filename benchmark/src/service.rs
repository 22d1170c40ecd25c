//! The two service workloads: an in-process `manimald` driven by two
//! closed-loop client connections from this one process.
//!
//! `service-hot` cycles 16 distinct Pavlo-B1 requests that are all in
//! the result cache after one warm-up pass; `service-miss` cycles 100
//! whose results overflow a 1 MiB cache, so none ever hits. Same daemon,
//! same clients, the cache layer used both ways round. The loop is
//! closed: a client sends its next request when the previous reply has
//! arrived, so a slower daemon is offered less load.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use manimal::service::proto::{encode_hex_value, JobReply, JobRequest};
use manimal::service::{start, ServiceClient, ServiceConfig, ServiceHandle, SubmitOutcome};
use manimal::{Builtin, Manimal, Submission};
use mr_ir::printer::to_asm;
use mr_workloads::data::generate_rankings;
use mr_workloads::pavlo;

use crate::harness::{digest_pairs, input_digest, timed, Ctx, Digest, Digester, Reps, Result};
use crate::probes;
use crate::stats::{median, summarize, tail};

/// Rank threshold of the view the index materializes.
const INDEX_THRESHOLD: i64 = 6_999;

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// A service workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Rankings rows, full and `--check`.
    pub rows: (usize, usize),
    /// The daemon's result-cache budget, full and `--check`; `None`
    /// keeps the 64 MiB default.
    pub cache_bytes: Option<(usize, usize)>,
    /// Rank threshold of each distinct request (`pageRank > t`).
    pub thresholds: fn() -> Vec<i64>,
    /// Whether every timed request must hit the cache (else: none may).
    pub all_hits: bool,
    /// Least length of a segment of the loop (the service's timed
    /// cell) in seconds: 1 s or more, and long enough that the segment
    /// holds the 200 requests a p95 needs.
    pub segment_seconds: f64,
}

/// The service workloads.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "service-hot",
            rows: (200_000, 5_000),
            cache_bytes: None,
            // 0.50 % down to 0.05 % of Rankings per request.
            thresholds: || (0..16).map(|i| 9_949 + 3 * i).collect(),
            all_hits: true,
            segment_seconds: 1.0,
        },
        Spec {
            name: "service-miss",
            rows: (200_000, 5_000),
            cache_bytes: Some((1 << 20, 16 << 10)),
            // 1.5 % down to 0.5 % of Rankings per request, 1 % on average.
            thresholds: || (0..100).map(|i| 9_849 + i).collect(),
            all_hits: false,
            segment_seconds: 1.5,
        },
    ]
}

fn request(input: &Path, threshold: i64, build_indexes: bool) -> JobRequest {
    JobRequest {
        name: format!("b1-rank-gt-{threshold}"),
        program_asm: to_asm(&pavlo::benchmark1(threshold).mapper),
        input: input.to_path_buf(),
        reducer: "first".into(),
        reduce_ir: None,
        build_indexes,
        baseline: false,
    }
}

/// Digest of a reply's hex-encoded output, pair by pair.
fn digest_hex(pairs: &[(String, String)]) -> Digest {
    let mut digester = Digester::default();
    for (k, v) in pairs {
        digester.pair(&[k.as_bytes(), v.as_bytes()]);
    }
    digester.finish()
}

/// What one client thread brings back from one segment of the loop.
#[derive(Default)]
struct ClientLog {
    /// Per-request latency in seconds.
    latencies: Vec<f64>,
    /// `(start, end)` of the first requests, for the trace.
    spans: Vec<(Instant, Instant)>,
    /// When the client's last request ended.
    ended: Option<Instant>,
    attempted: u64,
    problems: Vec<String>,
}

/// One client: pass over `mine` (indices into `requests`) until
/// `deadline`, whole passes only, at least one. Nothing but the request
/// sits inside the loop: the replies of the pass in progress are kept,
/// and those of the last pass are compared with the reference when the
/// loop is over.
fn client_loop(
    socket: &Path,
    requests: &[JobRequest],
    reference: &[Digest],
    mine: &[usize],
    deadline: Instant,
    keep_spans: usize,
) -> Result<ClientLog> {
    let mut client = ServiceClient::connect(socket)?;
    let mut log = ClientLog::default();
    let mut last_pass: Vec<(usize, JobReply)> = Vec::with_capacity(mine.len());
    loop {
        last_pass.clear();
        for &i in mine {
            let start = Instant::now();
            let outcome = client.submit(&requests[i]);
            let end = Instant::now();
            log.attempted += 1;
            match outcome {
                Ok(SubmitOutcome::Completed(reply)) => {
                    log.latencies.push((end - start).as_secs_f64());
                    last_pass.push((i, reply));
                }
                Ok(SubmitOutcome::Rejected(r)) => {
                    log.problems.push(format!("request {i} rejected: {r}"))
                }
                Err(e) => log.problems.push(format!("request {i}: {e}")),
            }
            if log.spans.len() < keep_spans {
                log.spans.push((start, end));
            }
        }
        let now = Instant::now();
        if now >= deadline {
            log.ended = Some(now);
            break;
        }
    }
    for (i, reply) in &last_pass {
        log.attempted += 1;
        if digest_hex(&reply.output_hex) != reference[*i] {
            log.problems
                .push(format!("request {i}: reply differs from the local execute"));
        }
    }
    Ok(log)
}

/// One segment of the closed loop: both clients pass over their halves
/// of the request set until `seconds` are up. Returns the clients' logs
/// and the segment's wall time, from the start to the end of the last
/// request (the reply checks come after it).
fn closed_loop(
    socket: &Path,
    requests: &[JobRequest],
    reference: &[Digest],
    seconds: f64,
    keep_spans: usize,
) -> Result<(Vec<ClientLog>, f64)> {
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mine: Vec<usize> = (c..requests.len()).step_by(CLIENTS).collect();
                scope.spawn(move || {
                    client_loop(socket, requests, reference, &mine, deadline, keep_spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked")?)
            .collect::<Result<Vec<_>>>()
    })?;
    let ended = logs.iter().filter_map(|log| log.ended).max();
    let wall = ended.map_or(0.0, |at| (at - started).as_secs_f64());
    Ok((logs, wall))
}

/// What the clients saw in one segment of the loop.
struct Slice {
    /// Requests completed.
    requests: usize,
    /// Requests over the segment's wall time.
    jobs_per_s: f64,
    /// Median request latency in seconds.
    p50: f64,
    /// Tail request latency in seconds, at quantile `tail_q`.
    tail: f64,
    tail_q: f64,
    /// Mean request latency in seconds.
    mean: f64,
    /// The segment's wall time.
    wall: f64,
}

fn slice_of(logs: &[ClientLog], wall: f64) -> Option<Slice> {
    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies.iter().copied())
        .collect();
    if latencies.is_empty() || wall <= 0.0 {
        return None;
    }
    let (tail, tail_q) = tail(&latencies);
    Some(Slice {
        requests: latencies.len(),
        jobs_per_s: latencies.len() as f64 / wall,
        p50: median(&latencies),
        tail,
        tail_q,
        mean: latencies.iter().sum::<f64>() / latencies.len() as f64,
        wall,
    })
}

fn start_daemon(cache_bytes: Option<usize>, dir: &Path) -> Result<ServiceHandle> {
    let mut cfg = ServiceConfig::new(dir.join("d.sock"), dir.join("daemon-work"));
    if let Some(bytes) = cache_bytes {
        cfg.cache_bytes = bytes;
    }
    Ok(start(cfg)?)
}

/// The local reference: the workload's requests through
/// `Manimal::execute`, no daemon.
struct Reference {
    subs: Vec<Submission>,
    /// Per request: digest of the hex pairs a reply must carry.
    hex: Vec<Digest>,
}

impl Reference {
    /// Execute every request on `m`, once; the outputs become what
    /// every reply must equal.
    fn define(&mut self, ctx: &mut Ctx, m: &Manimal) -> Result<()> {
        for (i, sub) in self.subs.iter().enumerate() {
            let exec = ctx.tracer.span("Manimal::execute", "core", |_| {
                m.execute(sub, Arc::new(Builtin::First))
            });
            let exec = match exec {
                Ok(exec) => exec,
                Err(e) => {
                    ctx.op(false, || format!("local execute of request {i}: {e}"));
                    return Err(format!("no reference for request {i}").into());
                }
            };
            let pairs = digest_pairs(&exec.result.output)?.pairs;
            let hex = exec
                .result
                .output
                .iter()
                .map(|(k, v)| Ok((encode_hex_value(k)?, encode_hex_value(v)?)))
                .collect::<Result<Vec<_>>>()?;
            ctx.op(
                pairs > 0 && exec.applied.iter().any(|a| a.contains("selection")),
                || format!("reference {i}: {pairs} pairs, applied {:?}", exec.applied),
            );
            self.hex.push(digest_hex(&hex));
        }
        Ok(())
    }
}

/// Run one service workload and fill `ctx` with its metrics.
pub fn run(spec: &Spec, ctx: &mut Ctx) -> Result<()> {
    let check = ctx.opts.check;
    let rows = if check { spec.rows.1 } else { spec.rows.0 };
    let seed = ctx.opts.seed;
    let traced = ctx.opts.traced;
    let root = ctx.data_dir();
    let thresholds = (spec.thresholds)();
    let cache_bytes = spec
        .cache_bytes
        .map(|(full, small)| if check { small } else { full });
    ctx.note(format!(
        "{rows} Rankings rows, {} distinct requests, {CLIENTS} closed-loop clients in this \
         process, in-process daemon (4 slots, queue 16, cache {}); files are written then read \
         through the OS page cache, so times are this sandbox's CPU cost, not a disk's",
        thresholds.len(),
        cache_bytes.map_or("64 MiB".to_string(), |b| format!("{} KiB", b >> 10)),
    ));

    // ---- set-up: input generation + daemon start, several times ------
    let mut setup = Vec::new();
    let mut kept: Option<(PathBuf, ServiceHandle)> = None;
    let setups = ctx.opts.setups();
    ctx.tracer.span("setup", "harness", |_| -> Result<()> {
        for i in 0..setups {
            if let Some((stale, handle)) = kept.take() {
                handle.shutdown()?;
                std::fs::remove_dir_all(stale)?;
            }
            let dir = root.join(format!("setup-{i}"));
            std::fs::create_dir_all(&dir)?;
            let (handle, secs) = timed(|| -> Result<ServiceHandle> {
                generate_rankings(dir.join("main.seq"), rows, true, seed)?;
                start_daemon(cache_bytes, &dir)
            });
            kept = Some((dir, handle?));
            setup.push(secs);
        }
        Ok(())
    })?;
    let (dir, daemon) = kept.expect("at least one set-up");
    ctx.set_end_to_end("setup_s", median(&setup));
    ctx.note(format!("setup_s: {}", summarize(&setup)));
    let input = dir.join("main.seq");
    ctx.note(format!(
        "input digest: {:016x}",
        input_digest(std::slice::from_ref(&input))?
    ));
    let socket = dir.join("d.sock");
    let requests: Vec<JobRequest> = thresholds
        .iter()
        .map(|&t| request(&input, t, false))
        .collect();

    // ---- prepare the daemon: both clients ask for the index at once --
    // The administrator indexes `pageRank > 6999`, the 30 % view of the
    // B1 sweep: it covers every request's range.
    let build_request = request(&input, INDEX_THRESHOLD, true);
    let built = ctx
        .tracer
        .span("daemon index build (2 clients)", "core", |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        scope.spawn(|| ServiceClient::connect(&socket)?.submit(&build_request))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("build client"))
                    .collect::<Vec<_>>()
            })
        });
    for outcome in built {
        match outcome {
            Ok(SubmitOutcome::Completed(reply)) => {
                ctx.op(
                    reply.applied.iter().any(|a| a.contains("selection")),
                    || format!("daemon build request applied {:?}", reply.applied),
                );
            }
            Ok(SubmitOutcome::Rejected(r)) => {
                ctx.op(false, || format!("build request rejected: {r}"))
            }
            Err(e) => ctx.op(false, || format!("build request: {e}")),
        }
    }

    // ---- the local reference: every request through `execute` --------
    let local = Manimal::new(dir.join("local-work"))?;
    let index_program = pavlo::benchmark1(INDEX_THRESHOLD);
    ctx.tracer.span("Manimal::build_indexes", "core", |_| {
        local.build_indexes(&local.submit(&index_program, &input))
    })?;
    let programs: Vec<_> = thresholds.iter().map(|&t| pavlo::benchmark1(t)).collect();
    let mut reference = Reference {
        subs: programs.iter().map(|p| local.submit(p, &input)).collect(),
        hex: Vec::new(),
    };
    reference.define(ctx, &local)?;

    // ---- warm-up pass through the daemon ------------------------------
    ctx.set_tracing(false);
    let (warm, _) = closed_loop(&socket, &requests, &reference.hex, 0.0, 0)?;
    // One reply of the loop's kind, kept for the reply-codec probe.
    let captured: Option<JobReply> = match traced {
        true => match ServiceClient::connect(&socket)?.submit(&requests[requests.len() / 2])? {
            SubmitOutcome::Completed(reply) => Some(reply),
            SubmitOutcome::Rejected(_) => None,
        },
        false => None,
    };
    let stats_warm = daemon.stats();
    let mut logs: Vec<ClientLog> = warm;
    let warm_requests: u64 = logs.iter().map(|l| l.latencies.len() as u64).sum();

    // ---- timed segments ------------------------------------------------
    // A segment is the cell: both clients pass over their halves of the
    // request set until it has lasted `segment_seconds`, whole passes
    // only. Segments repeat until the `--seconds` budget is spent. The
    // traced run alternates segments with tracing off and on, so the
    // same protocol prices the tracing.
    // (The traced run keeps full-length segments: its cache and
    // admission counts and its tracing overhead come from this loop.)
    let segment_seconds = if check { 0.05 } else { spec.segment_seconds };
    let mut reps = Reps::new(ctx, usize::MAX);
    let (mut slices, mut traced_slices): (Vec<Slice>, Vec<Slice>) = (vec![], vec![]);
    loop {
        let tracing_on = reps.begin(ctx);
        let keep_spans = if tracing_on { 200 } else { 0 };
        let (segment, wall) = ctx.tracer.span("closed loop (2 clients)", "harness", |t| {
            let out = closed_loop(
                &socket,
                &requests,
                &reference.hex,
                segment_seconds,
                keep_spans,
            );
            if let Ok((logs, _)) = &out {
                for &(start, end) in logs.iter().flat_map(|l| &l.spans) {
                    t.record("ServiceClient::submit", "core", start, end);
                }
            }
            out
        })?;
        if let Some(slice) = slice_of(&segment, wall) {
            if tracing_on {
                &mut traced_slices
            } else {
                &mut slices
            }
            .push(slice);
        }
        logs.extend(segment);
        if !reps.another() {
            break;
        }
    }
    ctx.set_tracing(traced);

    // ---- what the daemon did -------------------------------------------
    let stats_end = daemon.stats();
    for log in &logs {
        ctx.attempted += log.attempted;
        ctx.failed += log.problems.len() as u64;
        for p in &log.problems {
            ctx.problem(p.clone());
        }
    }
    let loop_requests: u64 =
        logs.iter().map(|l| l.latencies.len() as u64).sum::<u64>() - warm_requests;
    let hits = stats_end.cache_hits - stats_warm.cache_hits;
    let misses = stats_end.cache_misses - stats_warm.cache_misses;
    if spec.all_hits && hits != loop_requests {
        ctx.problem(format!(
            "{hits} cache hits for {loop_requests} requests after the warm-up pass"
        ));
    }
    if !spec.all_hits && hits != 0 {
        ctx.problem(format!("{hits} cache hits where the cache must never hit"));
    }
    ctx.note(format!(
        "closed loop: {loop_requests} requests after the warm-up pass, {hits} cache hits, \
         {misses} misses; every reply of the warm-up pass and of each segment's last pass was \
         compared with the local execute"
    ));
    let final_stats = daemon.shutdown()?;
    if final_stats.rejected != 0 || final_stats.failed != 0 {
        ctx.problem(format!(
            "daemon rejected {} and failed {} submissions",
            final_stats.rejected, final_stats.failed
        ));
    }
    if slices.is_empty() {
        ctx.problem("no segment of the closed loop finished".into());
        return Ok(());
    }

    // ---- metrics ---------------------------------------------------------
    let column =
        |slices: &[Slice], f: fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
    let rates = column(&slices, |s| s.jobs_per_s);
    let p50s = column(&slices, |s| s.p50);
    let tails = column(&slices, |s| s.tail);
    let fewest = slices.iter().map(|s| s.requests).min().unwrap_or(0);
    let shortest = slices.iter().map(|s| s.wall).fold(f64::INFINITY, f64::min);
    ctx.note(format!(
        "closed loop in {} segments of at least {segment_seconds:.2} s (shortest {shortest:.3} s); \
         n = {fewest} requests in the smallest segment; the tail is the p{:.0}; every metric is \
         the median over the segments",
        slices.len(),
        slices.iter().map(|s| s.tail_q).fold(1.0, f64::min) * 100.0,
    ));
    if !check && !traced && (fewest < 200 || shortest < 1.0) {
        ctx.problem(format!(
            "a segment held {fewest} requests in {shortest:.3} s: a p95 needs 200, a cell 1 s"
        ));
    }
    ctx.note(format!("jobs_per_s by segment: {}", summarize(&rates)));
    ctx.note(format!("latency p50 by segment (s): {}", summarize(&p50s)));
    ctx.note(format!(
        "latency tail by segment (s): {}",
        summarize(&tails)
    ));
    ctx.set_end_to_end("jobs_per_s", median(&rates));
    ctx.set_end_to_end("latency_p50_ms", median(&p50s) * 1e3);
    ctx.set_end_to_end("latency_p95_ms", median(&tails) * 1e3);

    if traced {
        ctx.set(
            "core.service.cache.hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        ctx.set("core.service.admission.queued", final_stats.queued as f64);
        ctx.set(
            "core.service.admission.rejected",
            final_stats.rejected as f64,
        );
        ctx.set("core.service.index_builds", final_stats.index_builds as f64);
        ctx.set(
            "core.service.index_builds_deduped",
            final_stats.index_builds_deduped as f64,
        );
        if let Some(reply) = &captured {
            let (bytes, enc, dec) =
                ctx.tracer
                    .span("JobReply::to_payload + from_payload", "core", |_| {
                        probes::reply_codec(reply)
                    })?;
            ctx.set("core.service.proto.reply_bytes", bytes);
            ctx.set("core.service.proto.encode_us", enc);
            ctx.set("core.service.proto.decode_us", dec);
        }
        if !traced_slices.is_empty() {
            let on = median(&column(&traced_slices, |s| s.mean));
            let off = median(&column(&slices, |s| s.mean));
            ctx.set("trace.overhead_share", (on - off) / off);
        }
        let middle = reference.subs.len() / 2;
        let plan = ctx.tracer.span("Manimal::plan", "core", |_| {
            probes::plan_us(&local, &reference.subs[middle])
        })?;
        ctx.set("core.optimizer.plan_us", plan);
        probes::run_layers(
            ctx,
            &probes::ProbeInput {
                input: &input,
                program: &programs[middle],
                reducer: Builtin::First,
                optimized_input: Some(local.plan(&reference.subs[middle])?.input),
                scratch: dir.join("probe-runs"),
            },
        )?;
    }

    drop(local);
    std::fs::remove_dir_all(&root)?;
    Ok(())
}
