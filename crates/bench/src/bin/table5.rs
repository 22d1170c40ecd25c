//! Table 5 — delta-compression on numeric fields.
//!
//! The job sums `duration` grouped by `destURL` (without emitting the
//! URL). Following the paper, non-essential fields are first projected
//! away; the comparison is then projected-uncompressed ("Hadoop") vs.
//! projected+delta-compressed ("Manimal") input.
//!
//! Paper: 123.65 GB original → 20.99 GB post-projection → 11.05 GB
//! delta-compressed (47% space saving), runtime 935.6s → 892.6s (1.05x):
//! "delta compression gives a large space savings … but yields only a
//! moderate performance boost."

use std::sync::Arc;

use manimal::{Builtin, IndexKind, Manimal};
use mr_workloads::data::{generate_uservisits, UserVisitsConfig};
use mr_workloads::queries::duration_sum_query;

fn main() {
    bench::banner(
        "Table 5 — delta compression",
        "Sum durations grouped by destURL over UserVisits. Paper: 47% space\n\
         saving on the projected input, 1.05x speedup.",
    );
    let dir = bench::bench_dir("table5");
    let input = dir.join("uservisits.seq");
    generate_uservisits(
        &input,
        &UserVisitsConfig {
            visits: bench::scaled(300_000),
            pages: bench::scaled(10_000),
            ..UserVisitsConfig::default()
        },
    )
    .expect("generate uservisits");
    let original_size = std::fs::metadata(&input).expect("meta").len();

    let program = duration_sum_query();
    let manimal = Manimal::new(dir.join("work")).expect("manimal");
    let submission = manimal.submit(&program, &input);

    // Paper methodology: "we projected out all non-numeric fields; we
    // then delta-compressed visitDate, adRevenue, duration". The group
    // key destURL is kept so the query still runs.
    let delta_fields: Vec<String> = submission
        .report
        .delta
        .descriptor()
        .expect("delta detected")
        .fields
        .clone();
    let mut used = vec!["destURL".to_string()];
    used.extend(delta_fields.iter().cloned());

    // "Hadoop" side: projection only.
    let proj_prog = manimal::IndexGenProgram {
        kind: IndexKind::Projection {
            fields: used.clone(),
        },
        input: input.clone(),
        output: dir.join("uservisits.proj.idx"),
        key_expr: None,
        view_ranges: vec![],
    };
    let proj_entry = proj_prog
        .run(None, Default::default())
        .expect("projection build");

    // "Manimal" side: projection + delta.
    let delta_prog = manimal::IndexGenProgram {
        kind: IndexKind::Delta {
            fields: delta_fields.clone(),
            projected: Some(used.clone()),
        },
        input: input.clone(),
        output: dir.join("uservisits.projdelta.idx"),
        key_expr: None,
        view_ranges: vec![],
    };
    let delta_entry = manimal.build_index(&delta_prog).expect("delta build");

    // Run both physical plans through the fabric directly. The query
    // reads only stored fields, so its mapper runs on the projected
    // records as they are.
    use mr_engine::{run_job, InputBinding, InputSpec, IrMapperFactory, JobConfig, OutputSpec};
    let job_with = |input_spec: InputSpec| JobConfig {
        name: "duration-sum".into(),
        inputs: vec![InputBinding {
            input: input_spec,
            mapper: IrMapperFactory::new(program.mapper.clone()),
            join: None,
        }],
        num_reducers: 4,
        reducer: Arc::new(Builtin::SumDropKey),
        output: OutputSpec::InMemory,
        map_parallelism: mr_engine::job::available_parallelism(),
        sort_output: true,
        shuffle_buffer_bytes: None,
        shuffle_compression: Default::default(),
        spill_dir: None,
        combiner: None,
        max_task_attempts: 1,
        fault_plan: None,
        buffer_pool: None,
        backend: Default::default(),
    };

    let (proj_time, proj_result) = bench::time_runs(|| {
        run_job(&job_with(InputSpec::Projected {
            path: proj_entry.index_path.clone(),
            source_schema: Arc::clone(&program.value_schema),
        }))
        .expect("projected run")
    });
    let (delta_time, delta_result) = bench::time_runs(|| {
        run_job(&job_with(InputSpec::Delta {
            path: delta_entry.index_path.clone(),
        }))
        .expect("delta run")
    });
    assert_eq!(
        proj_result.output, delta_result.output,
        "outputs must match"
    );

    let saving = 1.0 - delta_entry.index_bytes as f64 / proj_entry.index_bytes as f64;
    // The paper's 47% is measured on a numerics-only file; isolate the
    // numeric columns here too: every byte the delta file saves comes
    // from them, and fixed-width they cost 8+4+4 = 16 bytes per record.
    let records = mr_storage::seqfile::SeqFileMeta::open(&proj_entry.index_path)
        .expect("projected meta")
        .record_count;
    let numeric_fixed = 16 * records;
    let numeric_saving = (proj_entry
        .index_bytes
        .saturating_sub(delta_entry.index_bytes)) as f64
        / numeric_fixed.max(1) as f64;
    bench::print_table(
        &["", "Hadoop (projected)", "Manimal (proj+delta)"],
        &[
            vec![
                "Original file size".into(),
                bench::fmt_bytes(original_size),
                bench::fmt_bytes(original_size),
            ],
            vec![
                "Post-projection size".into(),
                bench::fmt_bytes(proj_entry.index_bytes),
                bench::fmt_bytes(proj_entry.index_bytes),
            ],
            vec![
                "Input size (delta)".into(),
                "-".into(),
                bench::fmt_bytes(delta_entry.index_bytes),
            ],
            vec![
                "Running time".into(),
                bench::fmt_secs(proj_time),
                bench::fmt_secs(delta_time),
            ],
            vec![
                "Speedup".into(),
                "1.00".into(),
                format!("{:.2}", proj_time.as_secs_f64() / delta_time.as_secs_f64()),
            ],
        ],
    );
    println!(
        "\nwhole-file space saving: {:.0}%; numeric-column saving: {:.0}% (paper: ~47%\n\
         on its numerics-only file); paper speedup: 1.05x",
        saving * 100.0,
        numeric_saving * 100.0
    );
    println!("delta fields: [{}]", delta_fields.join(", "));
}
