//! End-to-end integration: analyzer → index generation → optimizer →
//! execution fabric, asserting the paper's core safety contract: "the
//! final program output should be the same as what would have been
//! generated by a conventional MapReduce system" — while doing less
//! work.

use std::path::PathBuf;
use std::sync::Arc;

use manimal::{
    Builtin, DagInput, DagStage, JobDag, JoinJob, JoinPlan, Manimal, StageJob,
    DEFAULT_BROADCAST_BUDGET,
};
use mr_engine::InputSpec;
use mr_workloads::data::{
    generate_rankings, generate_uservisits, generate_webpages, UserVisitsConfig, WebPagesConfig,
};
use mr_workloads::pavlo;
use mr_workloads::queries::{
    duration_sum_query, projection_query, selection_query, threshold_for_selectivity,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-e2e")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_webpages(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("webpages.seq");
    generate_webpages(
        &path,
        &WebPagesConfig {
            pages: 3000,
            content_size: 300,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    path
}

fn small_uservisits(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("uservisits.seq");
    generate_uservisits(
        &path,
        &UserVisitsConfig {
            visits: 4000,
            pages: 500,
            ..UserVisitsConfig::default()
        },
    )
    .unwrap();
    path
}

#[test]
fn selection_plan_matches_baseline_and_skips_work() {
    let dir = tmpdir("selection");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // 10% selectivity: rank > 89.
    let program = selection_query(threshold_for_selectivity(10));
    let submission = manimal.submit(&program, &input);

    // The analyzer found the selection and recommends a B+Tree.
    assert!(submission
        .report
        .selection
        .descriptor()
        .is_some_and(|d| d.index_useful()));
    assert_eq!(submission.index_programs.len(), 1);

    // Before indexes exist, the plan is a full scan.
    let pre = manimal.plan(&submission).unwrap();
    assert!(pre.applied.is_empty());

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();

    manimal.build_indexes(&submission).unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert!(
        optimized.applied.iter().any(|a| a.contains("selection")),
        "applied: {:?}",
        optimized.applied
    );

    // Identical output…
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(!baseline.result.output.is_empty());

    // …with far less work: ~10% of map invocations and fewer bytes.
    let base_maps = baseline.result.counters.map_invocations;
    let opt_maps = optimized.result.counters.map_invocations;
    assert!(
        opt_maps * 5 < base_maps,
        "index should skip ~90% of invocations: {opt_maps} vs {base_maps}"
    );
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes);
}

#[test]
fn selection_with_projection_uses_combined_index() {
    let dir = tmpdir("sel-proj");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // projection_query never reads `content`, so the recommended index
    // is a combined selection+projection B+Tree.
    let program = projection_query(threshold_for_selectivity(20));
    let submission = manimal.submit(&program, &input);
    let combined = &submission.index_programs[0];
    match &combined.kind {
        manimal::IndexKind::Selection {
            projected_fields: Some(fields),
            ..
        } => {
            assert_eq!(fields, &vec!["url".to_string(), "rank".to_string()]);
        }
        other => panic!("expected combined selection+projection, got {other:?}"),
    }

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::First))
        .unwrap();
    let entries = manimal.build_indexes(&submission).unwrap();
    // The combined index is much smaller than the input: content gone.
    assert!(
        entries[0].space_overhead() < 0.5,
        "overhead {}",
        entries[0].space_overhead()
    );

    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::First))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
    assert_eq!(optimized.applied.len(), 2, "selection + projection");
}

#[test]
fn projection_delta_plan_for_aggregation() {
    let dir = tmpdir("proj-delta");
    let input = small_uservisits(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    let program = mr_workloads::pavlo::benchmark2();
    let submission = manimal.submit(&program, &input);

    // No selection (always emits); combined projection+delta artifact.
    assert!(matches!(
        submission.report.selection,
        mr_analysis::SelectOutcome::AlwaysEmits
    ));
    match &submission.index_programs[0].kind {
        manimal::IndexKind::Delta {
            projected: Some(kept),
            fields,
        } => {
            assert_eq!(kept, &vec!["sourceIP".to_string(), "adRevenue".to_string()]);
            assert_eq!(fields, &vec!["adRevenue".to_string()]);
        }
        other => panic!("expected projected delta, got {other:?}"),
    }

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Sum))
        .unwrap();
    let entries = manimal.build_indexes(&submission).unwrap();
    assert!(
        entries[0].space_overhead() < 0.5,
        "dropping 7 of 9 fields must shrink the file: {}",
        entries[0].space_overhead()
    );
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Sum))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes / 2);
}

#[test]
fn direct_operation_plan_preserves_group_sums() {
    let dir = tmpdir("direct");
    let input = small_uservisits(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    let program = duration_sum_query();
    let submission = manimal.submit(&program, &input);
    assert!(submission.report.direct.descriptor().is_some());

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::SumDropKey))
        .unwrap();
    // Build only the dictionary artifact: the optimizer would otherwise
    // prefer the (also applicable, higher-ranked) projection+delta
    // plan; Table 6 isolates direct-operation.
    let dict_prog = submission
        .index_programs
        .iter()
        .find(|p| matches!(p.kind, manimal::IndexKind::Dict { .. }))
        .expect("dict program recommended");
    manimal.build_index(dict_prog).unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::SumDropKey))
        .unwrap();
    assert!(
        optimized
            .applied
            .iter()
            .any(|a| a.contains("direct-operation")),
        "applied: {:?}",
        optimized.applied
    );
    // The URL never reaches the output, so the multiset of per-URL sums
    // must be identical even though the map saw integer codes.
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes);
}

#[test]
fn unoptimizable_program_runs_as_full_scan() {
    let dir = tmpdir("unopt");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // The Fig. 2 program: member-dependent emit decision.
    let mapper = mr_ir::asm::parse_function(
        r#"
        func map(key, value) {
          member numMapsRun = 0
          r0 = member numMapsRun
          r1 = const 1
          r2 = add r0, r1
          member numMapsRun = r2
          r3 = param value
          r4 = field r3.rank
          r5 = cmp gt r4, r1
          r6 = const 200
          r7 = cmp gt r2, r6
          r8 = or r5, r7
          br r8, t, e
        t:
          emit r4, r1
        e:
          ret
        }
        "#,
    )
    .unwrap();
    let program = mr_ir::Program::new("fig2", mapper, mr_workloads::data::webpages_schema());
    let submission = manimal.submit(&program, &input);
    assert!(matches!(
        submission.report.selection,
        mr_analysis::SelectOutcome::Unknown(_)
    ));
    // No selection index is recommended; projection may still apply
    // (safe: it does not change invocation counts).
    assert!(!submission
        .index_programs
        .iter()
        .any(|p| matches!(p.kind, manimal::IndexKind::Selection { .. })));
    // It still runs correctly as a full scan or projected plan.
    manimal.build_indexes(&submission).unwrap();
    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
}

#[test]
fn safe_mode_refuses_selection_over_side_effects() {
    let dir = tmpdir("safe-mode");
    let input = small_webpages(&dir);
    let mut manimal = Manimal::new(dir.join("work")).unwrap();

    let mapper = mr_ir::asm::parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.rank
          effect log(r1)
          r2 = const 89
          r3 = cmp gt r1, r2
          br r3, t, e
        t:
          emit r1, r2
        e:
          ret
        }
        "#,
    )
    .unwrap();
    let program = mr_ir::Program::new(
        "logging-select",
        mapper,
        mr_workloads::data::webpages_schema(),
    );
    let submission = manimal.submit(&program, &input);
    manimal.build_indexes(&submission).unwrap();

    // Default mode: selection applies (side effects are fair game, §2.2).
    let plan = manimal.plan(&submission).unwrap();
    assert!(plan.applied.iter().any(|a| a.contains("selection")));

    // Safe mode: the index would change how often the log statement
    // runs, so the optimizer declines.
    manimal.optimizer.safe_mode = true;
    let plan = manimal.plan(&submission).unwrap();
    assert!(
        !plan.applied.iter().any(|a| a.contains("selection")),
        "safe mode must refuse: {:?}",
        plan.applied
    );
}

#[test]
fn catalog_survives_reopen() {
    let dir = tmpdir("catalog-reopen");
    let input = small_webpages(&dir);
    let workdir = dir.join("work");
    let program = selection_query(threshold_for_selectivity(10));

    {
        let manimal = Manimal::new(&workdir).unwrap();
        let submission = manimal.submit(&program, &input);
        manimal.build_indexes(&submission).unwrap();
    }
    // A fresh instance sees the registered index and plans with it.
    let manimal = Manimal::new(&workdir).unwrap();
    let submission = manimal.submit(&program, &input);
    let plan = manimal.plan(&submission).unwrap();
    assert!(plan.applied.iter().any(|a| a.contains("selection")));
}

/// Rankings ⋈ UserVisits (Benchmark 3), as one join and as a two-stage
/// filter → join [`JobDag`]. Both physical join plans return the same
/// rows; the DAG's join stage plans its probe side against the catalog
/// and reuses the date index the filter stage registered instead of
/// building its own, returning the direct join's row count; and a warm
/// rerun serves the filter stage from its committed output and builds
/// nothing.
#[test]
fn filter_join_dag_reuses_the_index_and_its_committed_output() {
    let dir = tmpdir("dag");
    let rankings = dir.join("rankings.seq");
    let visits = dir.join("uservisits.seq");
    generate_rankings(&rankings, 2000, false, 13).unwrap();
    let uv_cfg = UserVisitsConfig {
        visits: 8000,
        pages: 2000,
        ..UserVisitsConfig::default()
    };
    generate_uservisits(&visits, &uv_cfg).unwrap();
    // Half the date range: a join output big enough to mean something.
    let (lo, hi) = pavlo::benchmark3_date_window(&uv_cfg, 0.5);
    let rankings_prog = pavlo::benchmark3_rankings_mapper();
    let visits_prog = pavlo::benchmark3_visits_mapper(lo, hi);

    let manimal = Manimal::new(dir.join("work")).unwrap();
    let outputs = [JoinPlan::Broadcast, JoinPlan::Repartition].map(|plan| {
        let job = JoinJob {
            name: format!("join-{}", plan.name()),
            build: InputSpec::SeqFile {
                path: rankings.clone(),
            },
            build_mapper: rankings_prog.mapper.clone(),
            probe: InputSpec::SeqFile {
                path: visits.clone(),
            },
            probe_mapper: visits_prog.mapper.clone(),
            plan,
        };
        manimal.execute_join(&job).unwrap().result.output
    });
    assert!(!outputs[0].is_empty(), "degenerate join: no output rows");
    assert_eq!(
        outputs[0], outputs[1],
        "broadcast and repartition outputs must be identical"
    );

    let dag = JobDag {
        name: "bench3".into(),
        stages: vec![
            DagStage {
                name: "filter-visits".into(),
                job: StageJob::Map {
                    input: DagInput::Path(visits.clone()),
                    program: visits_prog.clone(),
                    reducer: Arc::new(Builtin::Identity),
                    build_index: true,
                },
            },
            DagStage {
                name: "join".into(),
                job: StageJob::Join {
                    build: DagInput::Path(rankings.clone()),
                    build_mapper: rankings_prog.clone(),
                    probe: DagInput::Path(visits.clone()),
                    probe_mapper: visits_prog.clone(),
                    plan: None,
                    broadcast_budget: DEFAULT_BROADCAST_BUDGET,
                    index_probe: true,
                },
            },
        ],
    };
    let dag_manimal = Manimal::new(dir.join("dag-work")).unwrap();
    let cold = dag_manimal.execute_dag(&dag).unwrap();
    assert!(
        cold.index_builds_reused >= 1,
        "the join stage must reuse the filter stage's index, got {} reused",
        cold.index_builds_reused
    );
    assert_eq!(
        cold.stages.last().unwrap().rows,
        outputs[0].len() as u64,
        "the DAG's join stage must return the direct join's row count"
    );
    let warm = dag_manimal.execute_dag(&dag).unwrap();
    assert!(
        warm.stages[0].cached,
        "a rerun must hit the filter stage's committed output"
    );
    assert_eq!(warm.index_builds, 0, "a warm rerun builds nothing");
}
