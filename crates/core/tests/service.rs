//! Integration tests for the `manimald` job service: admission
//! boundaries, in-flight index-build dedup, result-cache reuse and
//! invalidation, and clean shutdown — all driven through real Unix
//! sockets with the real client.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use manimal::service::proto::JobRequest;
use manimal::service::{start, ServiceClient, ServiceConfig, SubmitOutcome};
use manimal::{Builtin, Manimal};
use mr_ir::printer::to_asm;
use mr_workloads::data::{generate_webpages, WebPagesConfig};
use mr_workloads::queries::{selection_query, threshold_for_selectivity};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-service-test")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn webpages(dir: &Path, name: &str, pages: usize) -> PathBuf {
    let path = dir.join(name);
    generate_webpages(
        &path,
        &WebPagesConfig {
            pages,
            content_size: 200,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    path
}

/// The standard request the tests submit: the paper's selection query
/// with a count reducer.
fn selection_request(input: &Path, build_indexes: bool) -> JobRequest {
    let program = selection_query(threshold_for_selectivity(10));
    JobRequest {
        name: "service-test".into(),
        program_asm: to_asm(&program.mapper),
        input: input.to_path_buf(),
        reducer: "count".into(),
        reduce_ir: None,
        build_indexes,
        baseline: false,
    }
}

fn cfg(dir: &Path, name: &str) -> ServiceConfig {
    ServiceConfig::new(dir.join(format!("{name}.sock")), dir.join("daemon-work"))
}

#[test]
fn busy_daemon_with_a_full_queue_rejects_typed() {
    let dir = tmpdir("admission");
    let input = webpages(&dir, "webpages.seq", 48_000);
    let mut c = cfg(&dir, "admission");
    c.max_running = 1;
    c.queue_cap = 0;
    let handle = start(c.clone()).unwrap();

    // Client A occupies the only slot with a real job (index build
    // included, over an input large enough that it holds the slot for
    // a while even when the parallel test runner starves this thread).
    let socket = c.socket.clone();
    let req = selection_request(&input, true);
    let slow = {
        let (socket, req) = (socket.clone(), req.clone());
        std::thread::spawn(move || {
            ServiceClient::connect(&socket)
                .unwrap()
                .submit(&req)
                .unwrap()
        })
    };
    // Wait until A holds the slot (admitted but not completed)…
    let mut stats_client = ServiceClient::connect(&socket).unwrap();
    loop {
        let s = stats_client.stats().unwrap();
        if s.admitted >= 1 && s.completed == 0 {
            break;
        }
        assert_eq!(s.completed, 0, "job finished before the drill started");
        std::thread::yield_now();
    }
    // …then client B must bounce with a typed rejection carrying live
    // occupancy, not an error string.
    let outcome = ServiceClient::connect(&socket)
        .unwrap()
        .submit(&selection_request(&input, false))
        .unwrap();
    match outcome {
        SubmitOutcome::Rejected(r) => {
            assert_eq!(r.queue_cap, 0);
            assert_eq!(r.running, 1);
        }
        SubmitOutcome::Completed(_) => panic!("full queue must reject"),
    }
    match slow.join().unwrap() {
        SubmitOutcome::Completed(reply) => assert!(!reply.output_hex.is_empty()),
        SubmitOutcome::Rejected(r) => panic!("idle daemon rejected the first job: {r}"),
    }
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn concurrent_identical_submissions_share_one_index_build() {
    let dir = tmpdir("dedup");
    let c = cfg(&dir, "dedup");
    let handle = start(c.clone()).unwrap();

    // The overlap is probabilistic (the loser must arrive while the
    // winner's build is in flight), so retry on fresh inputs until the
    // dedup counter moves; each attempt is correct either way.
    let mut deduped = 0;
    let mut replies = Vec::new();
    for attempt in 0..3 {
        let input = webpages(&dir, &format!("webpages-{attempt}.seq"), 3_000);
        let req = selection_request(&input, true);
        let before = ServiceClient::connect(&c.socket).unwrap().stats().unwrap();
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let (socket, req) = (c.socket.clone(), req.clone());
                std::thread::spawn(move || {
                    ServiceClient::connect(&socket)
                        .unwrap()
                        .submit(&req)
                        .unwrap()
                })
            })
            .collect();
        replies = clients
            .into_iter()
            .map(|t| match t.join().unwrap() {
                SubmitOutcome::Completed(reply) => reply,
                SubmitOutcome::Rejected(r) => panic!("default queue rejected: {r}"),
            })
            .collect();
        let after = ServiceClient::connect(&c.socket).unwrap().stats().unwrap();
        // Never two builds for one descriptor, overlap or not.
        assert!(
            after.index_builds - before.index_builds <= 1,
            "duplicate build: {} -> {}",
            before.index_builds,
            after.index_builds
        );
        deduped = after.index_builds_deduped - before.index_builds_deduped;
        if deduped > 0 {
            break;
        }
    }
    assert!(deduped >= 1, "no attempt overlapped an in-flight build");

    // Both clients got the full result, identical to a cold local run.
    let input = replies[0].clone();
    assert_eq!(input.output_hex, replies[1].output_hex);
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.failed, 0);
}

#[test]
fn cache_serves_repeats_and_invalidation_drops_regenerated_inputs() {
    let dir = tmpdir("cache");
    let input = webpages(&dir, "webpages.seq", 2_000);
    let c = cfg(&dir, "cache");
    let handle = start(c.clone()).unwrap();
    let mut client = ServiceClient::connect(&c.socket).unwrap();
    let req = selection_request(&input, false);

    let cold = match client.submit(&req).unwrap() {
        SubmitOutcome::Completed(r) => r,
        SubmitOutcome::Rejected(r) => panic!("{r}"),
    };
    assert!(!cold.cache_hit);
    let warm = match client.submit(&req).unwrap() {
        SubmitOutcome::Completed(r) => r,
        SubmitOutcome::Rejected(r) => panic!("{r}"),
    };
    assert!(warm.cache_hit, "identical resubmission must hit the cache");
    assert_eq!(warm.output_hex, cold.output_hex);
    assert_eq!(client.stats().unwrap().cache_hits, 1);

    // The warm result matches a cold local run byte for byte.
    let local = Manimal::new(dir.join("local-work")).unwrap();
    let program = selection_query(threshold_for_selectivity(10));
    let submission = local.submit(&program, &input);
    let exec = local
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(warm.decode_output().unwrap(), exec.result.output);

    // Regenerate the input (different size → different answer) and
    // tell the daemon: the stale cached result must not survive.
    webpages(&dir, "webpages.seq", 4_000);
    let dropped = client.invalidate(&input).unwrap();
    assert_eq!(dropped, 1, "exactly the one cached result is dropped");
    let fresh = match client.submit(&req).unwrap() {
        SubmitOutcome::Completed(r) => r,
        SubmitOutcome::Rejected(r) => panic!("{r}"),
    };
    assert!(!fresh.cache_hit, "invalidation must force a re-run");
    assert_ne!(
        fresh.output_hex, cold.output_hex,
        "the re-run must see the regenerated data"
    );
    let stats = handle.shutdown().unwrap();
    assert_eq!(stats.invalidations, 1);
    assert_eq!(stats.cache_misses, 2);
}

/// A rewrite of the input that nobody announces (no `invalidate`) still
/// retires the cached reply: the resubmission runs afresh over the new
/// rows and returns the baseline's bytes.
#[test]
fn cache_drops_a_reply_whose_input_was_rewritten_unannounced() {
    let dir = tmpdir("cache-stale");
    let input = webpages(&dir, "webpages.seq", 2_000);
    let c = cfg(&dir, "cache-stale");
    let handle = start(c.clone()).unwrap();
    let mut client = ServiceClient::connect(&c.socket).unwrap();
    let req = selection_request(&input, false);
    let submit = |client: &mut ServiceClient| match client.submit(&req).unwrap() {
        SubmitOutcome::Completed(r) => r,
        SubmitOutcome::Rejected(r) => panic!("{r}"),
    };
    let cold = submit(&mut client);
    assert!(submit(&mut client).cache_hit, "unchanged input: a hit");

    webpages(&dir, "webpages.seq", 3_000);
    let fresh = submit(&mut client);
    assert!(
        !fresh.cache_hit,
        "the rewritten input must not be served stale"
    );
    assert_ne!(fresh.output_hex, cold.output_hex);
    let local = Manimal::new(dir.join("local-work")).unwrap();
    let program = selection_query(threshold_for_selectivity(10));
    let baseline = local
        .execute_baseline(&local.submit(&program, &input), Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(fresh.decode_output().unwrap(), baseline.result.output);
    let stats = handle.shutdown().unwrap();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses, stats.invalidations),
        (1, 2, 1)
    );
}

#[test]
fn client_shutdown_drains_cleanly_with_no_orphaned_jobs() {
    let dir = tmpdir("shutdown");
    let input = webpages(&dir, "webpages.seq", 2_000);
    let c = cfg(&dir, "shutdown");
    let handle = start(c.clone()).unwrap();

    let req = selection_request(&input, false);
    match ServiceClient::connect(&c.socket)
        .unwrap()
        .submit(&req)
        .unwrap()
    {
        SubmitOutcome::Completed(_) => {}
        SubmitOutcome::Rejected(r) => panic!("{r}"),
    }
    ServiceClient::connect(&c.socket)
        .unwrap()
        .shutdown()
        .unwrap();
    assert!(handle.stop_requested());
    let stats = handle.shutdown().unwrap();
    // Every admitted job ran to an outcome: nothing orphaned.
    assert_eq!(stats.admitted, stats.completed + stats.failed);
    assert_eq!(stats.completed, 1);
    assert!(!c.socket.exists(), "socket file removed on shutdown");
    // The daemon is gone: a new connection has nobody to talk to.
    assert!(ServiceClient::connect(&c.socket).is_err());
}
