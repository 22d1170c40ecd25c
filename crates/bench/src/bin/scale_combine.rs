//! Scale table — map-side combining across key cardinality × shuffle
//! budget.
//!
//! Not a paper table: this prices the PR's analysis-proven combiners on
//! the Pavlo aggregation task (`SELECT sourceIP, SUM(adRevenue) FROM
//! UserVisits GROUP BY sourceIP`), with the generator's `source_ips`
//! knob setting the group-by cardinality. On low-cardinality group-bys
//! the combiner folds nearly every emitted pair before it travels the
//! shuffle — spill bytes collapse — while near-distinct keys leave it
//! nothing to fold (the regime `scale_shuffle` measures) and the map
//! side bails out to pass-through; a last pair of rows groups by row id
//! instead, so every key is emitted exactly once. Every combined run's
//! output is asserted byte-identical to its combiner-free twin, and
//! every row holds the site-1 tripwire `combine_in ≤ map_output_records
//! + spilled_records`: no pair is folded twice on the map side.

use mr_engine::{run_job, Builtin, InputSpec, JobConfig, JobResult};
use mr_ir::builder::FunctionBuilder;
use mr_ir::ParamId;
use mr_json::Json;
use mr_workloads::data::{generate_uservisits, UserVisitsConfig};
use mr_workloads::pavlo::benchmark2;

/// `SELECT rowid, SUM(adRevenue) … GROUP BY rowid`: the map key is the
/// record's position in the file, so no two emits share a key.
fn group_by_row_id() -> mr_ir::Function {
    let mut b = FunctionBuilder::new("by_row_id_map");
    let row = b.load_param(ParamId::Key);
    let v = b.load_param(ParamId::Value);
    let revenue = b.get_field(v, "adRevenue");
    b.emit(row, revenue);
    b.ret();
    b.finish()
}

fn main() {
    bench::worker_guard();
    bench::banner(
        "Scale — map-side combining vs. key cardinality × shuffle budget",
        "SELECT sourceIP, SUM(adRevenue) FROM UserVisits GROUP BY sourceIP.\n\
         Rows sweep the number of distinct sourceIPs and the shuffle\n\
         budget; each row runs the spill pipeline with combining off,\n\
         then on. Outputs are asserted identical; `combine in→out` is\n\
         the folding the three combine sites did.",
    );
    let dir = bench::bench_dir("scale-combine");
    let visits = bench::scaled(60_000);
    let by_ip = benchmark2().mapper;
    let by_row = group_by_row_id();
    if let (Some(plan), attempts) = bench::fault_env() {
        println!("fault drill: {plan} (max {attempts} attempts per task)\n");
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();

    // 0 = the generator's fully-random IPs (near-distinct keys).
    for (card_label, cardinality, mapper) in [
        ("16", 16usize, &by_ip),
        ("1024", 1024, &by_ip),
        ("random", 0, &by_ip),
        ("distinct", 0, &by_row),
    ] {
        let input = dir.join(format!("uservisits-{cardinality}.seq"));
        generate_uservisits(
            &input,
            &UserVisitsConfig {
                visits,
                source_ips: cardinality,
                ..UserVisitsConfig::default()
            },
        )
        .expect("generate uservisits");

        let job = |budget: Option<usize>, combining: bool| {
            let mut j = JobConfig::ir_job(
                "revenue-by-ip",
                InputSpec::SeqFile {
                    path: input.clone(),
                },
                mapper.clone(),
                Builtin::Sum,
            )
            .with_reducers(4)
            .with_spill_dir(&dir);
            j.shuffle_buffer_bytes = budget;
            if combining {
                j = j.with_declared_combiner();
            }
            bench::apply_fault_env(&mut j);
            j
        };

        // Size budgets off the real shuffle volume, like scale_shuffle.
        let resident = run_job(&job(None, false)).expect("resident run");
        let shuffle_size = resident.counters.shuffle_bytes as usize;

        for (budget_label, divisor) in [("shuffle/4", 4usize), ("shuffle/16", 16)] {
            let budget = (shuffle_size / divisor).max(64);
            let (plain_time, plain) =
                bench::time_runs(|| run_job(&job(Some(budget), false)).expect("plain run"));
            let (combined_time, combined) =
                bench::time_runs(|| run_job(&job(Some(budget), true)).expect("combined run"));
            assert_eq!(
                combined.output, plain.output,
                "cardinality {card_label}, {budget_label}: combined output must be identical"
            );
            assert!(
                combined.counters.spilled_records <= plain.counters.spilled_records,
                "combining must not grow the spill"
            );
            let c = &combined.counters;
            assert!(
                c.combine_in <= c.map_output_records + c.spilled_records,
                "cardinality {card_label}, {budget_label}: a pair was re-folded on the map \
                 side ({} in > {} emitted + {} spilled)",
                c.combine_in,
                c.map_output_records,
                c.spilled_records
            );

            let ratio = |r: &JobResult| {
                if combined.counters.spill_bytes_written == 0 {
                    "∞".to_string()
                } else {
                    format!(
                        "{:.1}x",
                        r.counters.spill_bytes_written as f64
                            / combined.counters.spill_bytes_written as f64
                    )
                }
            };
            rows.push(vec![
                card_label.to_string(),
                format!("{budget_label} ({})", bench::fmt_bytes(budget as u64)),
                bench::fmt_bytes(plain.counters.spill_bytes_written),
                bench::fmt_bytes(combined.counters.spill_bytes_written),
                ratio(&plain),
                format!("{}→{}", c.combine_in, c.combine_out),
                c.combine_bypassed.to_string(),
                bench::fmt_secs(plain_time),
                bench::fmt_secs(combined_time),
            ]);
            json_rows.push(Json::obj([
                ("keys", Json::str(card_label)),
                (
                    "cardinality",
                    if cardinality == 0 {
                        Json::Null
                    } else {
                        Json::Int(cardinality as i64)
                    },
                ),
                ("budget", Json::str(budget_label)),
                ("budget_bytes", Json::Int(budget as i64)),
                ("shuffle_bytes", Json::Int(shuffle_size as i64)),
                (
                    "plain_spill_bytes",
                    Json::Int(plain.counters.spill_bytes_written as i64),
                ),
                (
                    "combined_spill_bytes",
                    Json::Int(combined.counters.spill_bytes_written as i64),
                ),
                (
                    "plain_spilled_records",
                    Json::Int(plain.counters.spilled_records as i64),
                ),
                (
                    "combined_spilled_records",
                    Json::Int(combined.counters.spilled_records as i64),
                ),
                ("map_output_records", Json::Int(c.map_output_records as i64)),
                ("combine_in", Json::Int(c.combine_in as i64)),
                ("combine_out", Json::Int(c.combine_out as i64)),
                ("combine_bypassed", Json::Int(c.combine_bypassed as i64)),
                ("plain_secs", bench::json_secs(plain_time)),
                ("combined_secs", bench::json_secs(combined_time)),
            ]));
        }
    }

    println!("input: {visits} visits per cardinality\n");
    bench::print_table(
        &[
            "Keys",
            "Budget",
            "Spill (plain)",
            "Spill (combined)",
            "Reduction",
            "Combine in→out",
            "Bypassed",
            "Plain",
            "Combined",
        ],
        &rows,
    );
    bench::write_bench_json(
        "combine",
        Json::obj([
            ("visits", Json::Int(visits as i64)),
            ("rows", Json::Arr(json_rows)),
        ]),
    );
}
