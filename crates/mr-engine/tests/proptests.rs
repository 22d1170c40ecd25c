//! Property-based tests for the execution fabric: determinism across
//! parallelism levels and reducer counts, for arbitrary inputs — and
//! under arbitrary deterministic fault schedules — and the output
//! order `sort_output` promises on both backends.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mr_engine::partition::partition;
use mr_engine::{
    run_job, BackendSpec, Builtin, FaultPlan, InputSpec, IrReducerFactory, JobConfig, ProcessCfg,
    ReducerFactory,
};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

fn schema() -> Arc<Schema> {
    Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc()
}

fn group_sum_mapper() -> mr_ir::function::Function {
    parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.k
          r2 = field r0.v
          emit r1, r2
          ret
        }
        "#,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Group-by sums are identical for every (parallelism, reducers)
    /// combination and match a sequential reference computation.
    #[test]
    fn job_output_independent_of_parallelism(
        pairs in proptest::collection::vec(("[a-e]", -100i64..100), 0..200),
    ) {
        let s = schema();
        let records: Vec<Record> = pairs
            .iter()
            .map(|(k, v)| record(&s, vec![k.as_str().into(), Value::Int(*v)]))
            .collect();
        let path = tmp("par");
        write_seqfile(&path, Arc::clone(&s), records).unwrap();

        // Sequential reference.
        let mut expected: std::collections::BTreeMap<String, i64> = Default::default();
        for (k, v) in &pairs {
            *expected.entry(k.clone()).or_default() += v;
        }

        for (par, reducers) in [(1usize, 1usize), (2, 3), (8, 1), (4, 7)] {
            let job = JobConfig::ir_job(
                "sum",
                InputSpec::SeqFile { path: path.clone() },
                group_sum_mapper(),
                Builtin::Sum,
            )
            .with_parallelism(par)
            .with_reducers(reducers);
            let result = run_job(&job).unwrap();
            let got: std::collections::BTreeMap<String, i64> = result
                .output
                .iter()
                .map(|(k, v)| {
                    (
                        k.as_str().unwrap().to_string(),
                        v.as_int().unwrap(),
                    )
                })
                .collect();
            prop_assert_eq!(&got, &expected, "par={} reducers={}", par, reducers);
            prop_assert_eq!(
                result.counters.map_input_records as usize,
                pairs.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Counters are conserved: map outputs equal the sum of reduce
    /// group sizes, and every record is read exactly once.
    #[test]
    fn counter_conservation(
        pairs in proptest::collection::vec(("[a-c]", 0i64..10), 1..100),
        reducers in 1usize..6,
    ) {
        let s = schema();
        let records: Vec<Record> = pairs
            .iter()
            .map(|(k, v)| record(&s, vec![k.as_str().into(), Value::Int(*v)]))
            .collect();
        let path = tmp("conserve");
        write_seqfile(&path, Arc::clone(&s), records).unwrap();
        let job = JobConfig::ir_job(
            "count",
            InputSpec::SeqFile { path: path.clone() },
            group_sum_mapper(),
            Builtin::Count,
        )
        .with_reducers(reducers);
        let result = run_job(&job).unwrap();
        let c = result.counters;
        prop_assert_eq!(c.map_input_records as usize, pairs.len());
        prop_assert_eq!(c.map_output_records as usize, pairs.len());
        // Count reducer: one output per group; group counts sum to the
        // map output count.
        let total: i64 = result.output.iter().map(|(_, v)| v.as_int().unwrap()).sum();
        prop_assert_eq!(total as usize, pairs.len());
        prop_assert_eq!(c.reduce_output_records, c.reduce_input_groups);
        std::fs::remove_file(&path).ok();
    }

    /// The fault-tolerance contract, property-tested: for random fault
    /// schedules × shuffle budgets × map parallelism × builtin
    /// reducers, output is byte-identical to the fault-free in-memory
    /// run and `task_retries` matches the schedule exactly.
    #[test]
    fn fault_schedules_preserve_output_and_retry_counts(
        pairs in proptest::collection::vec(("[a-e]", -100i64..100), 1..160),
        seed in 0u64..10_000,
        budget in prop_oneof![Just(None), (96usize..1024).prop_map(Some)],
        parallelism in 1usize..4,
        reducer_pick in 0usize..4,
    ) {
        let reducer = [Builtin::Sum, Builtin::Count, Builtin::Max, Builtin::Min][reducer_pick];
        let s = schema();
        let records: Vec<Record> = pairs
            .iter()
            .map(|(k, v)| record(&s, vec![k.as_str().into(), Value::Int(*v)]))
            .collect();
        let path = tmp("fault");
        write_seqfile(&path, Arc::clone(&s), records).unwrap();

        let num_reducers = 3usize;
        let base = || JobConfig::ir_job(
                "fault-prop",
                InputSpec::SeqFile { path: path.clone() },
                group_sum_mapper(),
                reducer,
            )
            .with_parallelism(parallelism)
            .with_reducers(num_reducers);

        // Fault-free, fully-resident reference.
        let reference = run_job(&base()).unwrap();

        // A seeded schedule: each task gets 0..=2 immediately-failing
        // attempts; 3 allowed attempts means every task eventually
        // commits and the retry count is exactly predictable.
        let map_tasks = InputSpec::SeqFile { path: path.clone() }
            .open(parallelism)
            .unwrap()
            .len();
        let max_attempts = 3;
        let plan = FaultPlan::scattered(seed, map_tasks, num_reducers, max_attempts - 1);
        prop_assert!(!plan.exhausts(map_tasks, num_reducers, max_attempts));
        let expected_retries = plan.expected_retries(map_tasks, num_reducers, max_attempts);

        let mut job = base().with_max_attempts(max_attempts).with_fault_plan(Arc::new(plan));
        job.shuffle_buffer_bytes = budget;
        let faulted = run_job(&job).unwrap();

        prop_assert_eq!(
            &faulted.output, &reference.output,
            "seed {} budget {:?} par {} {:?}", seed, budget, parallelism, reducer
        );
        prop_assert_eq!(faulted.counters.task_retries, expected_retries);
        prop_assert_eq!(
            faulted.counters.map_task_failures + faulted.counters.reduce_task_failures,
            expected_retries,
            "every scheduled failure was retried exactly once"
        );
        prop_assert_eq!(faulted.counters.map_input_records as usize, pairs.len());
        std::fs::remove_file(&path).ok();
    }
}

// ---- output order: the per-group sort never moves a byte -------------

fn mixed_key_schema() -> Arc<Schema> {
    Schema::new(
        "M",
        vec![
            ("k", FieldType::Int),
            ("dbl", FieldType::Bool),
            ("v", FieldType::Int),
        ],
    )
    .into_arc()
}

/// Emit `(k, v)`, with `k` as a double when `dbl` is set — so `Int(2)`
/// and `Double(2.0)` meet in one key group.
fn mixed_key_mapper() -> mr_ir::function::Function {
    parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.k
          r2 = field r0.v
          r3 = field r0.dbl
          br r3, as_double, as_int
        as_double:
          r4 = const 0.0
          r5 = add r1, r4
          emit r5, r2
          ret
        as_int:
          emit r1, r2
          ret
        }
        "#,
    )
    .unwrap()
}

/// For every value `v` of a group, in arrival order, emit `(v, key)` —
/// a key other than the group key — then `(key, v)`.
fn swap_reducer() -> mr_ir::function::Function {
    parse_function(
        r#"
        func reduce(key, values) {
          r0 = param value
          r1 = param key
          r2 = call list.len(r0)
          r3 = const 0
          r4 = const 1
        head:
          r5 = cmp lt r3, r2
          br r5, body, exit
        body:
          r6 = call list.get(r0, r3)
          emit r6, r1
          emit r1, r6
          r7 = add r3, r4
          r3 = r7
          jmp head
        exit:
          ret
        }
        "#,
    )
    .unwrap()
}

/// The unsorted output a one-split job produces, computed without the
/// engine's reduce loop: emits partitioned in input order, each
/// partition stably sorted by key and cut into groups of equal keys
/// (the first pair's key names the group), the reducer run per group,
/// partitions concatenated in order.
fn unsorted_reference(
    emits: &[(Value, Value)],
    reducers: usize,
    reducer: &dyn ReducerFactory,
) -> Vec<(Value, Value)> {
    let mut out = Vec::new();
    for p in 0..reducers {
        let mut part: Vec<&(Value, Value)> = emits
            .iter()
            .filter(|(k, _)| partition(k, reducers) == p)
            .collect();
        part.sort_by(|a, b| a.0.cmp(&b.0));
        let mut r = reducer.create();
        for group in part.chunk_by(|a, b| a.0 == b.0) {
            let values: Vec<Value> = group.iter().map(|(_, v)| v.clone()).collect();
            r.reduce(&group[0].0, &values, &mut out).unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With `sort_output`, a job's output equals "concatenate the
    /// partitions, then stable-sort by (key, value)" — though the
    /// reduce loop already sorted each group — even for `Int(2)` /
    /// `Double(2.0)` keys, duplicate values and a reducer that emits
    /// keys other than its group key; without it, the output keeps the
    /// reduce order exactly, so the group sort is gated on the flag.
    /// Both backends, resident and spilled.
    #[test]
    fn group_sort_never_moves_an_output_byte(
        rows in proptest::collection::vec((0i64..6, any::<bool>(), 0i64..4), 1..120),
        reducers in 1usize..4,
    ) {
        let s = mixed_key_schema();
        let records: Vec<Record> = rows
            .iter()
            .map(|(k, dbl, v)| record(&s, vec![Value::Int(*k), Value::Bool(*dbl), Value::Int(*v)]))
            .collect();
        let path = tmp("group-sort");
        write_seqfile(&path, Arc::clone(&s), records).unwrap();

        let emits: Vec<(Value, Value)> = rows
            .iter()
            .map(|(k, dbl, v)| {
                let key = if *dbl { Value::Double(*k as f64) } else { Value::Int(*k) };
                (key, Value::Int(*v))
            })
            .collect();
        let reducer = IrReducerFactory::new(swap_reducer());
        let unsorted = unsorted_reference(&emits, reducers, reducer.as_ref());
        let mut sorted = unsorted.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let worker = env!("CARGO_BIN_EXE_mr_worker").to_string();
        let process = BackendSpec::Process(ProcessCfg {
            workers: 2,
            worker_cmd: Some(vec![worker]),
            speculate: false,
        });
        for backend in [BackendSpec::Local, process] {
            for budget in [None, Some(256)] {
                for sort_output in [true, false] {
                    let mut job = JobConfig::ir_job(
                        "group-sort",
                        InputSpec::SeqFile { path: path.clone() },
                        mixed_key_mapper(),
                        Builtin::Identity,
                    )
                    .with_parallelism(1)
                    .with_reducers(reducers)
                    .with_spill_dir(tmp("group-sort-spills"))
                    .with_backend(backend.clone());
                    job.reducer = reducer.clone();
                    job.sort_output = sort_output;
                    job.shuffle_buffer_bytes = budget;
                    // `Debug` tells `Int(2)` from `Double(2.0)`; `==` would not.
                    let got = format!("{:?}", run_job(&job).unwrap().output);
                    let want = format!("{:?}", if sort_output { &sorted } else { &unsorted });
                    prop_assert!(
                        got == want,
                        "{:?} budget {:?} sort_output {}: {} != {}",
                        backend, budget, sort_output, got, want
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
