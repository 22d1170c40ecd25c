//! Shared harness for the table-regeneration binaries.
//!
//! Every `table*` binary reproduces one table of the paper's evaluation.
//! Sizes default to laptop-scale; set `MANIMAL_SCALE` (a float ≥ 0.1) to
//! grow or shrink every dataset, and `MANIMAL_RUNS` to change the
//! number of timed repetitions (the paper averages over 3).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// True when the binary was invoked with `--smoke`: shrink every
/// dataset to the minimum scale and run each measurement once, so CI
/// can prove the bench bins still work without paying for a real run.
pub fn smoke() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| std::env::args().any(|a| a == "--smoke"))
}

/// Parse environment variable `var` with `parse`, hard-erroring on any
/// unrecognized value: a typo'd scale silently falling back to its
/// default would time the wrong dataset — misconfiguration must be loud.
fn env_parsed<T>(var: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => panic!("{var}: unrecognized value `{raw}`"),
    }
}

/// Dataset scale factor from `MANIMAL_SCALE` (default 1.0, or the
/// 0.1 floor under `--smoke`). Anything but a positive finite number
/// is a hard error.
pub fn scale() -> f64 {
    env_parsed("MANIMAL_SCALE", |s| {
        s.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0)
    })
    .map(|s| s.max(0.1))
    .unwrap_or(if smoke() { 0.1 } else { 1.0 })
}

/// Scaled element count.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// Timed repetitions from `MANIMAL_RUNS` (default 3, like the paper).
/// Anything but a number ≥ 1 is a hard error.
pub fn runs() -> usize {
    env_parsed("MANIMAL_RUNS", |s| {
        s.parse::<usize>().ok().filter(|n| *n >= 1)
    })
    .unwrap_or(if smoke() { 1 } else { 3 })
}

/// Working directory for generated data and indexes.
pub fn bench_dir(table: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("manimal-bench").join(table);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Run `f` [`runs`] times; return the mean wall-clock time and the last
/// result.
pub fn time_runs<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let n = runs();
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let out = f();
        total += start.elapsed();
        last = Some(out);
    }
    (total / n as u32, last.expect("at least one run"))
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Format a duration in seconds with millisecond precision.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Print an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// A banner naming the table being reproduced.
pub fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    println!("{detail}");
    println!(
        "(scale={}, runs={}; set MANIMAL_SCALE / MANIMAL_RUNS to change)\n",
        scale(),
        runs()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
    }

    #[test]
    fn scaled_counts() {
        assert!(scaled(100) >= 1);
    }

    #[test]
    fn timing_runs_at_least_once() {
        let (d, v) = time_runs(|| 42);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn env_parsed_accepts_recognized_values() {
        std::env::set_var("MANIMAL_TEST_GOOD", "7");
        assert_eq!(
            env_parsed("MANIMAL_TEST_GOOD", |s| s.parse::<usize>().ok()),
            Some(7)
        );
        assert_eq!(
            env_parsed("MANIMAL_TEST_UNSET", |s| s.parse::<usize>().ok()),
            None
        );
    }

    #[test]
    #[should_panic(expected = "MANIMAL_TEST_BAD: unrecognized value `nope`")]
    fn env_parsed_hard_errors_on_unrecognized_values() {
        std::env::set_var("MANIMAL_TEST_BAD", "nope");
        env_parsed("MANIMAL_TEST_BAD", |s| s.parse::<usize>().ok());
    }
}
