//! Projected plans run the mapper on the stored records: a read of a
//! field the artifact drops is bound to its type default at plan time.
//! A program that reads a dropped field off the emit path (here: it logs
//! the page content) must run under every projected layout and produce
//! the baseline's bytes.

use std::path::PathBuf;
use std::sync::Arc;

use manimal::{Builtin, IndexGenProgram, IndexKind, Manimal};
use mr_engine::{BackendSpec, ProcessCfg};
use mr_ir::asm::parse_function;
use mr_ir::function::Program;
use mr_workloads::data::{generate_webpages, webpages_schema, WebPagesConfig};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-projected-binding")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Logs the dropped `content` field, emits `(rank, url)` for
/// `rank > 50`.
fn logs_content() -> Program {
    let mapper = parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.content
          effect log(r1)
          r2 = field r0.rank
          r3 = const 50
          r4 = cmp gt r2, r3
          br r4, then, exit
        then:
          r5 = field r0.url
          emit r2, r5
        exit:
          ret
        }
        "#,
    )
    .unwrap();
    Program::new("logs-content", mapper, webpages_schema())
}

#[test]
fn dropped_field_reads_run_under_every_projected_layout() {
    let dir = tmpdir("layouts");
    let input = dir.join("webpages.seq");
    generate_webpages(
        &input,
        &WebPagesConfig {
            pages: 1200,
            content_size: 80,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    let mut manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&logs_content(), &input);
    // The recommended selection+projection B+Tree, plus the two
    // projected sequential layouts.
    manimal.build_indexes(&submission).unwrap();
    let kept = vec!["url".to_string(), "rank".to_string()];
    for (kind, file) in [
        (
            IndexKind::Projection {
                fields: kept.clone(),
            },
            "proj.idx",
        ),
        (
            IndexKind::Delta {
                fields: vec!["rank".into()],
                projected: Some(kept.clone()),
            },
            "projdelta.idx",
        ),
    ] {
        manimal
            .build_index(&IndexGenProgram {
                kind,
                input: input.clone(),
                output: dir.join(file),
                key_expr: None,
                view_ranges: vec![],
            })
            .unwrap();
    }

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Identity))
        .unwrap();
    assert!(!baseline.result.output.is_empty());
    let layouts = [
        "selection(index on value.rank) + projection(clustered)",
        "projection(keep [url, rank])",
        "projection(keep [url, rank]) + delta-compression([rank])",
    ];
    let mut ran = Vec::new();
    for plan in manimal.plans(&submission).unwrap() {
        let applied = plan.applied.join(" + ");
        if !layouts.contains(&applied.as_str()) {
            continue;
        }
        let run = manimal
            .execute_plan(&submission, plan, Arc::new(Builtin::Identity))
            .unwrap_or_else(|e| panic!("[{applied}] failed: {e}"));
        assert_eq!(
            run.result.output, baseline.result.output,
            "[{applied}] diverged from the baseline"
        );
        ran.push(applied);
    }
    ran.sort();
    let mut want: Vec<String> = layouts.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(ran, want, "every projected layout is enumerated");

    // The rewritten mapper crosses the process backend's text wire.
    manimal.backend = BackendSpec::Process(ProcessCfg {
        workers: 2,
        worker_cmd: Some(vec![
            env!("CARGO_BIN_EXE_manimal").to_string(),
            "__mr-worker".to_string(),
        ]),
        speculate: false,
    });
    let plan = manimal
        .plans(&submission)
        .unwrap()
        .into_iter()
        .find(|p| p.applied.join(" + ") == layouts[2])
        .unwrap();
    let run = manimal
        .execute_plan(&submission, plan, Arc::new(Builtin::Identity))
        .unwrap();
    assert_eq!(run.result.output, baseline.result.output);
}
