//! `manimal` — the command-line interface to the whole pipeline.
//!
//! ```text
//! manimal generate webpages  OUT.seq [--pages N] [--content BYTES]
//! manimal generate uservisits OUT.seq [--visits N] [--pages N]
//! manimal cat     DATA.seq  [--limit N]           # dump records
//! manimal analyze PROG.mrasm DATA.seq             # Step 1: the analyzer
//! manimal build   PROG.mrasm DATA.seq [--work DIR]# run index-gen programs
//! manimal run     PROG.mrasm DATA.seq [--work DIR] [--reducer sum|count|…]
//!                 [--reduce-ir REDUCE.mrasm]      # IR reduce (combine pass runs)
//!                 [--baseline] [--safe-mode]      # Steps 2+3
//!                 [--shuffle-buffer BYTES]        # external shuffle budget
//!                 [--shuffle-codec CODEC]         # compress spill runs
//!                 [--no-combine]                  # disable map-side combining
//!                 [--max-task-attempts N]         # task-level retries
//!                 [--fault-spec SPEC]             # deterministic fault drill
//! manimal serve   SOCKET [--work DIR]             # run the job daemon
//! manimal submit  PROG.mrasm DATA.seq --remote SOCKET  # run via a daemon
//! ```
//!
//! The program file is MR-IR assembly (see `mr_ir::asm`); the input's
//! schema travels in the sequence-file header, so nothing else needs to
//! be declared — exactly the paper's submission interface.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use manimal::{choose_join_plan, Builtin, FaultPlan, Manimal, ShuffleCompression};
use mr_engine::BackendSpec;
use mr_ir::Program;
use mr_storage::fault::IoSite;
use mr_storage::seqfile::SeqFileMeta;
use mr_workloads::data::{
    generate_rankings, generate_uservisits, generate_webpages, UserVisitsConfig, WebPagesConfig,
};
use mr_workloads::pavlo;

fn main() -> ExitCode {
    // The process backend re-execs this binary as a task-protocol
    // worker (`manimal __mr-worker <socket> <id>`); never returns in
    // that role.
    mr_engine::maybe_worker_entry();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&String> = it.collect();
    if matches!(cmd, "help" | "--help" | "-h") {
        print!("{}", HELP);
        return Ok(());
    }
    let (handler, flags) =
        command(cmd).ok_or_else(|| format!("unknown command `{cmd}`; try `manimal help`"))?;
    let pos = positionals(&rest, flags).map_err(|e| e.to_string())?;
    handler(&pos, &rest)
}

/// A subcommand body: its positional arguments, then every argument
/// (for flag lookups).
type Handler = fn(&[&str], &[&String]) -> Result<(), String>;

/// Every subcommand's handler and flag table: the flags it accepts,
/// with a trailing `=` on those that take a value.
fn command(name: &str) -> Option<(Handler, &'static str)> {
    Some(match name {
        "generate" => (
            generate,
            "--pages= --content= --visits= --seed= --codec= --notify=",
        ),
        "cat" => (cat, "--limit="),
        "analyze" => (analyze_cmd, "--work="),
        "build" => (build, "--work="),
        "run" => (
            run_cmd,
            "--work= --reducer= --reduce-ir= --baseline --safe-mode --no-combine \
             --shuffle-buffer= --shuffle-codec= --max-task-attempts= --fault-spec= --backend=",
        ),
        "join" => (
            join_cmd,
            "--work= --join-plan= --broadcast-budget= --date-lo= --date-hi= --dag \
             --shuffle-buffer= --shuffle-codec= --max-task-attempts= --fault-spec= --backend=",
        ),
        "serve" => (
            serve_cmd,
            "--work= --max-running= --queue-cap= --cache-bytes=",
        ),
        "submit" => (
            submit_cmd,
            "--remote= --reducer= --reduce-ir= --baseline --build",
        ),
        "stats" => (stats_cmd, ""),
        "shutdown" => (shutdown_cmd, ""),
        _ => return None,
    })
}

/// Whether `flag` takes a value under the flag table `flags`, or
/// `None` when the table does not list it.
fn takes_value(flags: &str, flag: &str) -> Option<bool> {
    flags
        .split_whitespace()
        .find_map(|f| match f.strip_suffix('=') {
            Some(name) => (name == flag).then_some(true),
            None => (f == flag).then_some(false),
        })
}

/// The arguments that are neither a flag nor a flag's value, in order.
/// A `--flag` missing from `flags`, or a value flag with nothing after
/// it, is a usage error naming it.
fn positionals<'a>(rest: &[&'a String], flags: &str) -> Result<Vec<&'a str>, CliError> {
    let mut pos = Vec::new();
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            pos.push(arg.as_str());
            continue;
        }
        match takes_value(flags, arg) {
            None => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{arg}`; try `manimal help`"
                )))
            }
            Some(true) if args.next().is_none() => {
                return Err(CliError::Usage(format!("{arg} expects a value")))
            }
            Some(_) => {}
        }
    }
    Ok(pos)
}

const HELP: &str = "\
manimal — automatic optimization for MapReduce programs

  manimal generate webpages   OUT.seq [--pages N] [--content BYTES] [--codec C]
                              [--notify SOCKET]
  manimal generate uservisits OUT.seq [--visits N] [--pages N] [--codec C]
                              [--notify SOCKET]
  manimal generate rankings   OUT.seq [--pages N] [--seed N]
  manimal cat     DATA.seq  [--limit N]
  manimal analyze PROG.mrasm DATA.seq
  manimal build   PROG.mrasm DATA.seq [--work DIR]
  manimal run     PROG.mrasm DATA.seq [--work DIR] [--reducer R]
                  [--reduce-ir REDUCE.mrasm]
                  [--baseline] [--safe-mode] [--shuffle-buffer BYTES]
                  [--shuffle-codec none|raw|auto]
                  [--no-combine] [--max-task-attempts N]
                  [--fault-spec SPEC]
                  [--backend local|process|process:N]
  manimal join    RANKINGS.seq USERVISITS.seq [--work DIR]
                  [--join-plan auto|broadcast|repartition]
                  [--broadcast-budget BYTES]
                  [--date-lo EPOCH] [--date-hi EPOCH]
                  [--dag]                 # 2-stage pipeline: filter+index, then join
                  [--shuffle-buffer BYTES] [--shuffle-codec CODEC]
                  [--max-task-attempts N] [--fault-spec SPEC]
                  [--backend local|process|process:N]
  manimal serve   SOCKET [--work DIR] [--max-running N] [--queue-cap N]
                  [--cache-bytes BYTES]
  manimal submit  PROG.mrasm DATA.seq --remote SOCKET [--reducer R]
                  [--reduce-ir REDUCE.mrasm] [--baseline] [--build]
  manimal stats   SOCKET                  # daemon counter snapshot
  manimal shutdown SOCKET                 # drain in-flight jobs and exit

codecs: --shuffle-codec block-compresses spill runs (none = no
framing, raw = CRC'd frames only, auto = each frame the smallest of
an LZW dictionary, a stride-delta and a stored encoding); --codec on
generate takes the same values and writes the block-compressed
seqfile variant. Output is byte-identical under every codec.

shuffle: --shuffle-buffer caps the resident shuffle and spills the
excess to sorted runs, each written on the map thread that filled it.

reducers: sum, count, max, min, identity, first, sum-drop-key
(sum/count/max/min/sum-drop-key declare map-side combiners, engaged
automatically; --reduce-ir runs a compiled IR reduce(key, values)
instead, with the analyzer proving — or declining — its combiner;
--no-combine keeps the shuffle pipeline plain)

fault drills: --max-task-attempts N lets each map/reduce task run up
to N times before the job fails; --fault-spec injects a deterministic
failure schedule, e.g. `map:0:0:5,reduce:1:0:0,io:run-read:3`
(fail map task 0 attempt 0 at record 5, reduce partition 1 attempt 0
immediately, and the 3rd run-file read; IO sites: run-read, run-write,
seq-read, seq-write, block-read, block-write; process sites: kill:W:N
SIGKILLs worker W at its N-th assignment, slow:W:MS makes worker W a
deterministic straggler — both need --backend process)

backends: --backend local (default) runs the job in-process on scoped
threads; --backend process[:N] forks N worker processes (default 2)
driven over a Unix-socket task protocol, with byte-identical output.
Contradictory knob combinations (a fault site the other knobs make
unreachable, process faults on the local backend, a worker id past the
worker count) are rejected before anything runs.

joins: `manimal join` runs the Pavlo Benchmark-3 equijoin
(Rankings ⋈ UserVisits on URL, with --date-lo/--date-hi filtering the
visits side). --join-plan auto (default) broadcasts the rankings side
when its file fits --broadcast-budget (64 MiB default) and falls back
to a repartition join of tagged-union values otherwise; both plans
produce byte-identical output. --dag runs it as a two-stage JobDag:
stage 1 filters the visits and builds its recommended indexes, stage 2
plans the probe side against the catalog and *reuses* those indexes
instead of rebuilding them (the run report counts builds vs. reuses).

daemon: `manimal serve` (or the standalone `manimald` binary) runs a
long-lived job service on a Unix socket — one shared catalog and
buffer pool, FIFO admission with typed overload rejections, in-flight
index-build dedup, and a size-bounded LRU result cache. `manimal
submit --remote SOCKET` runs a program through it (--build asks the
daemon to build recommended indexes first); `manimal generate
--notify SOCKET` tells a running daemon the file was regenerated, so
its stale catalog entries and cached results are dropped.
";

/// A knob combination `manimal run` rejects before running anything —
/// typed so the rejection table is testable, rendered for the user via
/// `Display`.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// Two flags contradict each other: honoring both is impossible,
    /// and silently ignoring one would make a drill pass vacuously.
    Conflict {
        /// The flag (with its value) being rejected.
        flag: String,
        /// The flag it collides with.
        against: String,
        /// Why the combination cannot work.
        why: String,
    },
    /// A malformed flag value.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Conflict { flag, against, why } => {
                write!(f, "`{flag}` contradicts `{against}`: {why}")
            }
            CliError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

fn conflict(flag: &str, against: &str, why: &str) -> CliError {
    CliError::Conflict {
        flag: flag.into(),
        against: against.into(),
        why: why.into(),
    }
}

/// The `manimal run` knobs that can contradict each other.
struct RunKnobs<'a> {
    shuffle_buffer: Option<usize>,
    codec: ShuffleCompression,
    backend: &'a BackendSpec,
    fault: Option<&'a FaultPlan>,
}

/// The rejection table: every fault site named by `--fault-spec` must
/// be reachable under the other knobs, or the drill would "pass" while
/// injecting nothing. Checked before any work runs.
fn validate_run_knobs(knobs: &RunKnobs<'_>) -> Result<(), CliError> {
    let Some(fault) = knobs.fault else {
        return Ok(());
    };
    for site in fault.io_sites() {
        let spilling = matches!(
            site,
            IoSite::RunRead | IoSite::RunWrite | IoSite::BlockRead | IoSite::BlockWrite
        );
        if spilling && knobs.shuffle_buffer.is_none() {
            return Err(conflict(
                &format!("--fault-spec io:{}:…", site.name()),
                "(no --shuffle-buffer)",
                "run and block sites only exist on the spill path; set a shuffle budget",
            ));
        }
        if matches!(site, IoSite::BlockRead | IoSite::BlockWrite)
            && knobs.codec == ShuffleCompression::None
        {
            return Err(conflict(
                &format!("--fault-spec io:{}:…", site.name()),
                "--shuffle-codec none",
                "block sites fire per compressed frame; pick a codec",
            ));
        }
    }
    match knobs.backend {
        BackendSpec::Local => {
            if fault.has_process_faults() {
                return Err(conflict(
                    "--fault-spec kill:/slow:",
                    "--backend local",
                    "process faults kill or slow worker processes; the local backend has none",
                ));
            }
        }
        BackendSpec::Process(cfg) => {
            // Worker ids are 0-based and monotonic: the initial fleet is
            // 0..workers, and each kill respawns at most one replacement
            // with the next fresh id — anything past that bound can
            // never exist.
            let reachable = cfg.workers as u64 + fault.kill_count();
            if let Some(max) = fault.max_process_worker() {
                if (max as u64) >= reachable {
                    return Err(conflict(
                        &format!("--fault-spec naming worker {max}"),
                        &format!("--backend process:{}", cfg.workers),
                        &format!(
                            "only worker ids below {reachable} (workers + kills) can ever exist"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Set the shuffle, retry, backend and fault flags `run` and `join`
/// share, refusing contradictory combinations before anything runs.
fn set_job_knobs(manimal: &mut Manimal, rest: &[&String]) -> Result<(), String> {
    if let Some(bytes) = flag_value(rest, "--shuffle-buffer") {
        manimal.shuffle_buffer_bytes = Some(
            bytes
                .parse::<usize>()
                .map_err(|_| format!("--shuffle-buffer: `{bytes}` is not a byte count"))?,
        );
    }
    manimal.shuffle_compression = parse_codec(rest, "--shuffle-codec")?;
    manimal.max_task_attempts = parse_num(rest, "--max-task-attempts", 1)?.max(1);
    manimal.backend = parse_backend(rest).map_err(|e| e.to_string())?;
    if let Some(spec) = flag_value(rest, "--fault-spec") {
        let plan = FaultPlan::from_spec(spec).map_err(|e| format!("--fault-spec: {e}"))?;
        eprintln!(
            "fault plan: {plan} (tasks may run up to {} attempts)",
            manimal.max_task_attempts
        );
        manimal.fault_plan = Some(Arc::new(plan));
    }
    validate_run_knobs(&RunKnobs {
        shuffle_buffer: manimal.shuffle_buffer_bytes,
        codec: manimal.shuffle_compression,
        backend: &manimal.backend,
        fault: manimal.fault_plan.as_deref(),
    })
    .map_err(|e| e.to_string())
}

fn parse_backend(rest: &[&String]) -> Result<BackendSpec, CliError> {
    match flag_value(rest, "--backend") {
        None => Ok(BackendSpec::Local),
        Some(v) => BackendSpec::parse(v).map_err(|e| CliError::Usage(format!("--backend: {e}"))),
    }
}

fn flag_value<'a>(rest: &'a [&String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| *a == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn flag_present(rest: &[&String], name: &str) -> bool {
    rest.iter().any(|a| *a == name)
}

fn positional<'a>(pos: &[&'a str], idx: usize) -> Result<&'a str, String> {
    pos.get(idx)
        .copied()
        .ok_or_else(|| format!("missing positional argument #{}", idx + 1))
}

fn parse_num(rest: &[&String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(rest, name) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("{name} expects a number, got `{v}`")),
    }
}

fn parse_codec(rest: &[&String], name: &str) -> Result<ShuffleCompression, String> {
    match flag_value(rest, name) {
        None => Ok(ShuffleCompression::None),
        Some(v) => ShuffleCompression::parse(v)
            .ok_or_else(|| format!("{name}: unknown codec `{v}` (none|raw|auto)")),
    }
}

fn generate(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let kind = positional(pos, 0)?;
    let out = positional(pos, 1)?;
    let codec = parse_codec(rest, "--codec")?;
    match kind {
        "webpages" => {
            let cfg = WebPagesConfig {
                pages: parse_num(rest, "--pages", 10_000)?,
                content_size: parse_num(rest, "--content", 510)?,
                codec,
                ..WebPagesConfig::default()
            };
            let n = generate_webpages(out, &cfg).map_err(|e| e.to_string())?;
            println!("wrote {n} WebPages records to {out}");
        }
        "uservisits" => {
            let cfg = UserVisitsConfig {
                visits: parse_num(rest, "--visits", 50_000)?,
                pages: parse_num(rest, "--pages", 10_000)?,
                codec,
                ..UserVisitsConfig::default()
            };
            let n = generate_uservisits(out, &cfg).map_err(|e| e.to_string())?;
            println!("wrote {n} UserVisits records to {out}");
        }
        "rankings" => {
            let pages = parse_num(rest, "--pages", 10_000)?;
            let n = generate_rankings(out, pages, false, parse_num(rest, "--seed", 13)? as u64)
                .map_err(|e| e.to_string())?;
            println!("wrote {n} Rankings records to {out}");
        }
        other => {
            return Err(format!(
                "unknown dataset `{other}` (webpages|uservisits|rankings)"
            ))
        }
    }
    // A regenerated file invalidates every index and cached result a
    // running daemon holds for it; --notify keeps the daemon honest.
    if let Some(socket) = flag_value(rest, "--notify") {
        let input = absolute(out);
        let mut client = manimal::ServiceClient::connect(socket).map_err(|e| e.to_string())?;
        let dropped = client.invalidate(&input).map_err(|e| e.to_string())?;
        eprintln!(
            "notified daemon at {socket}: {dropped} cached result(s) dropped for {}",
            input.display()
        );
    }
    Ok(())
}

/// Resolve a client-side path for the daemon's namespace: canonical
/// when the file exists (so every client names it identically), made
/// absolute against the cwd otherwise.
fn absolute(path: &str) -> PathBuf {
    std::fs::canonicalize(path).unwrap_or_else(|_| {
        let p = Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            std::env::current_dir()
                .unwrap_or_else(|_| PathBuf::from("."))
                .join(p)
        }
    })
}

fn cat(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let path = positional(pos, 0)?;
    let limit = parse_num(rest, "--limit", 10)?;
    let meta = SeqFileMeta::open(path).map_err(|e| e.to_string())?;
    println!(
        "# {} — {} records, {} bytes, schema {}",
        path, meta.record_count, meta.file_size, meta.schema
    );
    for (i, rec) in meta
        .read_all()
        .map_err(|e| e.to_string())?
        .take(limit)
        .enumerate()
    {
        println!("{i}: {}", rec.map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn load_program(prog_path: &str, input: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(prog_path).map_err(|e| format!("read {prog_path}: {e}"))?;
    let func = manimal::parse_verified(&src, prog_path)?;
    let meta = SeqFileMeta::open(input).map_err(|e| e.to_string())?;
    let name = Path::new(prog_path)
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "program".to_string());
    Ok(Program::new(name, func, Arc::clone(&meta.schema)))
}

fn workdir(rest: &[&String], input: &str) -> PathBuf {
    flag_value(rest, "--work")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(input)
                .parent()
                .unwrap_or_else(|| Path::new("."))
                .join("manimal-work")
        })
}

fn analyze_cmd(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let prog_path = positional(pos, 0)?;
    let input = positional(pos, 1)?;
    let program = load_program(prog_path, input)?;
    let manimal = Manimal::new(workdir(rest, input)).map_err(|e| e.to_string())?;
    let submission = manimal.submit(&program, input);
    print!("{}", submission.report);
    if submission.index_programs.is_empty() {
        println!("no index programs recommended");
    } else {
        println!("recommended index-generation programs:");
        for p in &submission.index_programs {
            println!("  {p}");
        }
    }
    Ok(())
}

fn build(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let prog_path = positional(pos, 0)?;
    let input = positional(pos, 1)?;
    let program = load_program(prog_path, input)?;
    let manimal = Manimal::new(workdir(rest, input)).map_err(|e| e.to_string())?;
    let submission = manimal.submit(&program, input);
    let entries = manimal
        .build_indexes(&submission)
        .map_err(|e| e.to_string())?;
    if entries.is_empty() {
        println!("nothing to build");
    }
    for e in &entries {
        println!(
            "built {}: {} ({} bytes, {:.1}% of input)",
            e.kind,
            e.index_path.display(),
            e.index_bytes,
            e.space_overhead() * 100.0
        );
    }
    Ok(())
}

fn run_cmd(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let prog_path = positional(pos, 0)?;
    let input = positional(pos, 1)?;
    let program = load_program(prog_path, input)?;
    // The reduce side: a builtin by name, or a compiled IR reduce whose
    // combiner-safety the analyzer proves (Step 1 for reduce()).
    let reducer: Arc<dyn mr_engine::ReducerFactory> =
        if let Some(reduce_path) = flag_value(rest, "--reduce-ir") {
            let src = std::fs::read_to_string(reduce_path)
                .map_err(|e| format!("read {reduce_path}: {e}"))?;
            let func = manimal::parse_verified(&src, reduce_path)?;
            let (factory, outcome) = manimal::ir_reducer(func, &program);
            eprintln!("reduce analysis: {outcome}");
            factory
        } else {
            let name = flag_value(rest, "--reducer").unwrap_or("count");
            let builtin = manimal::service::builtin_reducer(name)
                .map_err(|_| format!("unknown reducer `{name}`"))?;
            Arc::new(builtin)
        };
    let mut manimal = Manimal::new(workdir(rest, input)).map_err(|e| e.to_string())?;
    manimal.optimizer.safe_mode = flag_present(rest, "--safe-mode");
    manimal.optimizer.no_combine = flag_present(rest, "--no-combine");
    set_job_knobs(&mut manimal, rest)?;
    let submission = manimal.submit(&program, input);

    let execution = if flag_present(rest, "--baseline") {
        manimal
            .execute_baseline(&submission, reducer)
            .map_err(|e| e.to_string())?
    } else {
        manimal
            .execute(&submission, reducer)
            .map_err(|e| e.to_string())?
    };
    eprintln!("plan: {}", execution.descriptor_summary);
    if let Some(name) = execution.combiner {
        eprintln!("combiner: {name} (map-side)");
    }
    eprintln!(
        "elapsed: {:?}; {}",
        execution.result.elapsed, execution.result.counters
    );
    print_phases(&execution.result.phases);
    if let Some(ratio) = execution.result.compression_ratio() {
        eprintln!(
            "spill compression: {ratio:.4}x ({} of {} raw bytes written)",
            execution.result.counters.spill_bytes_written,
            execution.result.counters.spill_bytes_raw,
        );
    }
    for (k, v) in execution.result.output.iter().take(50) {
        println!("{k}\t{v}");
    }
    let extra = execution.result.output.len().saturating_sub(50);
    if extra > 0 {
        println!("… {extra} more rows");
    }
    Ok(())
}

/// `manimal join RANKINGS USERVISITS` — the Pavlo Benchmark-3 equijoin
/// on the tagged-union join fabric, either as a single job or (with
/// `--dag`) as a two-stage [`manimal::JobDag`] whose join stage reuses
/// the indexes stage 1 registered.
fn join_cmd(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let rankings = positional(pos, 0)?;
    let visits = positional(pos, 1)?;
    let force = match flag_value(rest, "--join-plan") {
        None | Some("auto") => None,
        Some(v) => Some(manimal::JoinPlan::parse(v).ok_or_else(|| {
            format!("--join-plan: unknown plan `{v}` (auto|broadcast|repartition)")
        })?),
    };
    let budget = parse_num(
        rest,
        "--broadcast-budget",
        manimal::DEFAULT_BROADCAST_BUDGET as usize,
    )? as u64;
    // Default window: the full uniform date range of the generators, so
    // freshly generated smoke data joins every visit; narrow it with
    // --date-lo/--date-hi (the paper's 0.095% selectivity needs a real
    // dataset to leave anything behind).
    let defaults = UserVisitsConfig::default();
    let date_lo = parse_num(rest, "--date-lo", defaults.date_start as usize)? as i64;
    let date_hi = parse_num(rest, "--date-hi", defaults.date_end as usize)? as i64;

    let mut manimal = Manimal::new(workdir(rest, rankings)).map_err(|e| e.to_string())?;
    set_job_knobs(&mut manimal, rest)?;

    let rankings_prog = pavlo::benchmark3_rankings_mapper();
    let visits_prog = pavlo::benchmark3_visits_mapper(date_lo, date_hi);

    if flag_present(rest, "--dag") {
        let dag = manimal::JobDag {
            name: "bench3".into(),
            stages: vec![
                manimal::DagStage {
                    name: "filter-visits".into(),
                    job: manimal::StageJob::Map {
                        input: manimal::DagInput::Path(PathBuf::from(visits)),
                        program: visits_prog.clone(),
                        reducer: Arc::new(Builtin::Identity),
                        build_index: true,
                    },
                },
                manimal::DagStage {
                    name: "join".into(),
                    job: manimal::StageJob::Join {
                        build: manimal::DagInput::Path(PathBuf::from(rankings)),
                        build_mapper: rankings_prog,
                        probe: manimal::DagInput::Path(PathBuf::from(visits)),
                        probe_mapper: visits_prog,
                        plan: force,
                        broadcast_budget: budget,
                        index_probe: true,
                    },
                },
            ],
        };
        let run = manimal.execute_dag(&dag).map_err(|e| e.to_string())?;
        for stage in &run.stages {
            eprintln!(
                "stage {}: {}{} ({} rows)",
                stage.name,
                stage.summary,
                if stage.cached { " [cached]" } else { "" },
                stage.rows
            );
        }
        eprintln!(
            "index builds: {} new, {} reused from the catalog",
            run.index_builds, run.index_builds_reused
        );
        let rows = run
            .stages
            .last()
            .and_then(|s| s.result.as_ref())
            .map(|r| r.output.as_slice())
            .unwrap_or(&[]);
        print_rows(rows);
        return Ok(());
    }

    let decision =
        choose_join_plan(Path::new(rankings), budget, force).map_err(|e| e.to_string())?;
    eprintln!("join plan: {decision}");
    let join = manimal::JoinJob {
        name: "bench3-join".into(),
        build: mr_engine::InputSpec::SeqFile {
            path: PathBuf::from(rankings),
        },
        build_mapper: rankings_prog.mapper,
        probe: mr_engine::InputSpec::SeqFile {
            path: PathBuf::from(visits),
        },
        probe_mapper: visits_prog.mapper,
        plan: decision.plan,
    };
    let execution = manimal.execute_join(&join).map_err(|e| e.to_string())?;
    eprintln!(
        "elapsed: {:?}; {}",
        execution.result.elapsed, execution.result.counters
    );
    print_phases(&execution.result.phases);
    print_rows(&execution.result.output);
    Ok(())
}

/// The job's phase spans on one stderr line; `shuffle` is attributed
/// time that overlaps `map` and `reduce`.
fn print_phases(p: &mr_engine::PhaseTimings) {
    eprintln!(
        "phases: setup {:?}, map {:?}, reduce {:?}, output {:?} (shuffle {:?} attributed)",
        p.setup, p.map, p.reduce, p.output, p.shuffle
    );
}

fn print_rows(rows: &[(mr_ir::Value, mr_ir::Value)]) {
    for (k, v) in rows.iter().take(50) {
        println!("{k}\t{v}");
    }
    let extra = rows.len().saturating_sub(50);
    if extra > 0 {
        println!("… {extra} more rows");
    }
}

fn serve_cmd(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let socket = positional(pos, 0)?;
    let mut cfg = manimal::ServiceConfig::new(
        socket,
        flag_value(rest, "--work").unwrap_or("manimald-work"),
    );
    cfg.max_running = parse_num(rest, "--max-running", cfg.max_running)?.max(1);
    cfg.queue_cap = parse_num(rest, "--queue-cap", cfg.queue_cap)?;
    cfg.cache_bytes = parse_num(rest, "--cache-bytes", cfg.cache_bytes)?;
    eprintln!(
        "manimal serve: listening on {} (work {}, {} slots, queue {}, cache {} bytes)",
        cfg.socket.display(),
        cfg.workdir.display(),
        cfg.max_running,
        cfg.queue_cap,
        cfg.cache_bytes
    );
    let stats = manimal::serve_blocking(cfg).map_err(|e| e.to_string())?;
    eprintln!("manimal serve: shut down cleanly; final counters:\n{stats}");
    Ok(())
}

fn submit_cmd(pos: &[&str], rest: &[&String]) -> Result<(), String> {
    let prog_path = positional(pos, 0)?;
    let input = positional(pos, 1)?;
    let socket = flag_value(rest, "--remote")
        .ok_or("submit needs --remote SOCKET (for local execution use `manimal run`)")?;
    let program_asm =
        std::fs::read_to_string(prog_path).map_err(|e| format!("read {prog_path}: {e}"))?;
    let reduce_ir = match flag_value(rest, "--reduce-ir") {
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?),
        None => None,
    };
    let name = Path::new(prog_path)
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "program".to_string());
    let req = manimal::service::proto::JobRequest {
        name,
        program_asm,
        input: absolute(input),
        reducer: flag_value(rest, "--reducer").unwrap_or("count").to_string(),
        reduce_ir,
        build_indexes: flag_present(rest, "--build"),
        baseline: flag_present(rest, "--baseline"),
    };
    let mut client = manimal::ServiceClient::connect(socket).map_err(|e| e.to_string())?;
    let reply = match client.submit(&req).map_err(|e| e.to_string())? {
        manimal::SubmitOutcome::Completed(reply) => reply,
        manimal::SubmitOutcome::Rejected(r) => return Err(r.to_string()),
    };
    eprintln!("plan: {}", reply.plan);
    if let Some(name) = &reply.combiner {
        eprintln!("combiner: {name} (map-side)");
    }
    if reply.cache_hit {
        eprintln!("served from the daemon's result cache");
    }
    if reply.deduped_builds > 0 {
        eprintln!(
            "waited out {} in-flight index build(s) instead of duplicating them",
            reply.deduped_builds
        );
    }
    let output = reply.decode_output().map_err(|e| e.to_string())?;
    for (k, v) in output.iter().take(50) {
        println!("{k}\t{v}");
    }
    let extra = output.len().saturating_sub(50);
    if extra > 0 {
        println!("… {extra} more rows");
    }
    Ok(())
}

fn stats_cmd(pos: &[&str], _rest: &[&String]) -> Result<(), String> {
    let socket = positional(pos, 0)?;
    let mut client = manimal::ServiceClient::connect(socket).map_err(|e| e.to_string())?;
    print!("{}", client.stats().map_err(|e| e.to_string())?);
    Ok(())
}

fn shutdown_cmd(pos: &[&str], _rest: &[&String]) -> Result<(), String> {
    let socket = positional(pos, 0)?;
    let mut client = manimal::ServiceClient::connect(socket).map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    eprintln!("daemon at {socket} acknowledged shutdown; draining in-flight jobs");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_engine::ProcessCfg;

    fn knobs<'a>(fault: Option<&'a FaultPlan>, backend: &'a BackendSpec) -> RunKnobs<'a> {
        RunKnobs {
            shuffle_buffer: Some(1024),
            codec: ShuffleCompression::None,
            backend,
            fault,
        }
    }

    fn process(workers: usize) -> BackendSpec {
        BackendSpec::Process(ProcessCfg {
            workers,
            worker_cmd: None,
            speculate: false,
        })
    }

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::from_spec(spec).unwrap()
    }

    #[test]
    fn fault_free_knobs_always_validate() {
        let backend = BackendSpec::Local;
        let mut k = knobs(None, &backend);
        k.shuffle_buffer = None;
        assert_eq!(validate_run_knobs(&k), Ok(()));
    }

    #[test]
    fn spill_path_sites_require_a_shuffle_budget() {
        let backend = BackendSpec::Local;
        for spec in [
            "io:run-read:0",
            "io:run-write:0",
            "io:block-read:0",
            "io:block-write:0",
        ] {
            let fault = plan(spec);
            let mut k = knobs(Some(&fault), &backend);
            k.shuffle_buffer = None;
            k.codec = ShuffleCompression::Raw;
            let err = validate_run_knobs(&k).unwrap_err();
            assert!(
                matches!(&err, CliError::Conflict { against, .. }
                    if against == "(no --shuffle-buffer)"),
                "{spec}: {err}"
            );
        }
        // Seq sites live on the map-input path; no budget needed.
        let fault = plan("io:seq-read:5");
        let mut k = knobs(Some(&fault), &backend);
        k.shuffle_buffer = None;
        assert_eq!(validate_run_knobs(&k), Ok(()));
    }

    #[test]
    fn block_sites_require_a_codec() {
        let backend = BackendSpec::Local;
        for spec in ["io:block-read:0", "io:block-write:0"] {
            let fault = plan(spec);
            let k = knobs(Some(&fault), &backend);
            let err = validate_run_knobs(&k).unwrap_err();
            assert!(
                matches!(&err, CliError::Conflict { against, .. }
                    if against == "--shuffle-codec none"),
                "{spec}: {err}"
            );
        }
        let fault = plan("io:block-read:0");
        let mut k = knobs(Some(&fault), &backend);
        k.codec = ShuffleCompression::Auto;
        assert_eq!(validate_run_knobs(&k), Ok(()));
    }

    #[test]
    fn process_faults_reject_the_local_backend() {
        let backend = BackendSpec::Local;
        for spec in ["kill:0:0", "slow:1:50", "map:0:0:5,kill:0:1"] {
            let fault = plan(spec);
            let err = validate_run_knobs(&knobs(Some(&fault), &backend)).unwrap_err();
            assert!(
                matches!(&err, CliError::Conflict { against, .. }
                    if against == "--backend local"),
                "{spec}: {err}"
            );
        }
    }

    #[test]
    fn unreachable_worker_ids_are_rejected() {
        // process:2 with no kills: ids 0 and 1 exist, 2 never will.
        let backend = process(2);
        let fault = plan("slow:2:50");
        let err = validate_run_knobs(&knobs(Some(&fault), &backend)).unwrap_err();
        assert!(matches!(&err, CliError::Conflict { .. }), "{err}");
        // One kill makes the respawned id 2 reachable.
        let fault = plan("kill:0:0,slow:2:50");
        assert_eq!(validate_run_knobs(&knobs(Some(&fault), &backend)), Ok(()));
        // …but id 3 still is not.
        let fault = plan("kill:0:0,slow:3:50");
        let err = validate_run_knobs(&knobs(Some(&fault), &backend)).unwrap_err();
        assert!(matches!(&err, CliError::Conflict { .. }), "{err}");
    }

    #[test]
    fn record_level_faults_validate_on_both_backends() {
        let fault = plan("map:0:0:5,reduce:1:0:0");
        for backend in [BackendSpec::Local, process(2)] {
            assert_eq!(validate_run_knobs(&knobs(Some(&fault), &backend)), Ok(()));
        }
    }

    #[test]
    fn backend_flag_parses_and_rejects() {
        fn args(v: &[String]) -> Vec<&String> {
            v.iter().collect()
        }
        let none: Vec<String> = vec![];
        assert_eq!(parse_backend(&args(&none)).unwrap(), BackendSpec::Local);
        let flag = vec!["--backend".to_string(), "process:3".to_string()];
        match parse_backend(&args(&flag)).unwrap() {
            BackendSpec::Process(cfg) => assert_eq!(cfg.workers, 3),
            other => panic!("expected process backend, got {other:?}"),
        }
        let bad = vec!["--backend".to_string(), "cluster".to_string()];
        let err = parse_backend(&args(&bad)).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn parse(cmd: &str, args: &[&str]) -> Result<Vec<String>, CliError> {
        let args = strings(args);
        let rest: Vec<&String> = args.iter().collect();
        let pos = positionals(&rest, command(cmd).unwrap().1)?;
        Ok(strings(&pos))
    }

    #[test]
    fn unknown_flags_are_refused_by_name() {
        for (cmd, bad) in [
            ("run", "--shufle-buffer"),
            ("run", "--spill-writer-threads"),
            ("join", "--spill-writer-threads"),
            ("cat", "--bogus-flag"),
        ] {
            let err = parse(cmd, &["b2.mrasm", "v.seq", bad, "1"]).unwrap_err();
            assert_eq!(
                err,
                CliError::Usage(format!("unknown flag `{bad}`; try `manimal help`"))
            );
        }
        let err = parse("run", &["b2.mrasm", "v.seq", "--shuffle-buffer"]).unwrap_err();
        assert_eq!(
            err,
            CliError::Usage("--shuffle-buffer expects a value".into())
        );
        // A flag's value is never a positional, even when it repeats one.
        let args = [
            "--work",
            "w",
            "b2.mrasm",
            "--baseline",
            "v.seq",
            "--reducer",
            "v.seq",
        ];
        assert_eq!(parse("run", &args).unwrap(), ["b2.mrasm", "v.seq"]);
    }

    #[test]
    fn every_flag_in_the_usage_text_parses() {
        // The usage block is the help text's second paragraph; a line
        // naming `manimal CMD` opens a subcommand, continuation lines
        // add flags to it, and `#` starts a comment.
        let (mut cmd, mut checked) = ("", 0);
        for line in HELP.split("\n\n").nth(1).unwrap().lines() {
            if let Some(rest) = line.trim_start().strip_prefix("manimal ") {
                cmd = rest.split_whitespace().next().unwrap();
            }
            let line = line.split('#').next().unwrap();
            for flag in line.split([' ', '[', ']']).filter(|w| w.starts_with("--")) {
                let takes = takes_value(command(cmd).unwrap().1, flag);
                let mut args = vec!["a", flag];
                match takes {
                    Some(true) => args.push("1"),
                    Some(false) => {}
                    None => panic!("`manimal {cmd}` refuses {flag}"),
                }
                args.push("b");
                assert_eq!(parse(cmd, &args).unwrap(), ["a", "b"], "{cmd} {flag}");
                checked += 1;
            }
        }
        assert!(checked > 30, "only {checked} flags found in the usage text");
    }
}
