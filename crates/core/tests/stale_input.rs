//! An artifact is derived from the bytes of its input: once the input
//! is rewritten at another length, the optimizer must stop reading the
//! artifact and the job must return the baseline's bytes. (A rewrite
//! that keeps the length is not detected yet.)

use std::path::PathBuf;
use std::sync::Arc;

use manimal::{Builtin, Manimal};
use mr_workloads::data::{generate_uservisits, UserVisitsConfig};
use mr_workloads::pavlo::benchmark2;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-stale-input")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build B2's projected-delta artifact over 20 000 visits, regenerate
/// the input with 30 000, and run again: the plan falls back to the
/// full scan and the output equals the baseline's.
#[test]
fn a_regenerated_input_is_not_read_through_its_old_artifact() {
    let dir = tmpdir("regenerated");
    let input = dir.join("visits.seq");
    let visits = |visits| UserVisitsConfig {
        visits,
        source_ips: 64,
        ..UserVisitsConfig::default()
    };
    generate_uservisits(&input, &visits(20_000)).unwrap();
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let sum = || Arc::new(Builtin::Sum);

    let submission = manimal.submit(&benchmark2(), &input);
    assert!(!manimal.build_indexes(&submission).unwrap().is_empty());
    let built = manimal.execute(&submission, sum()).unwrap();
    assert!(
        !built.applied.is_empty(),
        "the artifact serves the input it was built from"
    );
    let baseline = manimal.execute_baseline(&submission, sum()).unwrap();
    assert_eq!(built.result.output, baseline.result.output);

    generate_uservisits(&input, &visits(30_000)).unwrap();
    let submission = manimal.submit(&benchmark2(), &input);
    let rerun = manimal.execute(&submission, sum()).unwrap();
    let baseline = manimal.execute_baseline(&submission, sum()).unwrap();
    assert!(rerun.applied.is_empty(), "planned {:?}", rerun.applied);
    assert_eq!(rerun.result.output, baseline.result.output);
    assert_eq!(rerun.result.counters.map_input_records, 30_000);
}
