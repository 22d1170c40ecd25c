//! The repeatability report: two sets of runs of one commit, compared
//! the way the driver compares them.
//!
//! `repeat.sh` leaves one file per run, `set<k>-<workload>-<seed>.json`,
//! holding the run's JSON line. For every workload and end-to-end
//! metric this prints both sets' medians, how much worse the second is
//! than the first, each set's spread (the distance between the first
//! and third quartile as a share of the median), and the bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::Result;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::median;

/// Quartiles the way Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — what the driver uses.
pub fn python_quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Spread of `values`: interquartile distance over the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, _, q3) = python_quartiles(values);
    (q3 - q1) / median(values)
}

type Runs = BTreeMap<(u32, String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Runs> {
    let mut runs: Runs = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some(rest) = stem.strip_prefix("set") else {
            continue;
        };
        let Some((set, rest)) = rest.split_once('-') else {
            continue;
        };
        let Some((workload, _seed)) = rest.rsplit_once('-') else {
            continue;
        };
        let set: u32 = set.parse()?;
        let text = std::fs::read_to_string(&path)?;
        let doc = mr_json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("correct").and_then(mr_json::Json::as_bool) != Some(true) {
            return Err(format!("{}: run is not correct", path.display()).into());
        }
        let metrics = doc
            .get("metrics")
            .and_then(mr_json::Json::as_obj)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(mr_json::Json::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", path.display()))?;
            runs.entry((set, workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// Render the report for the runs under `dir`; the flag says whether
/// every pair of medians and every spread is within its bound.
pub fn report(dir: &Path) -> Result<(String, bool)> {
    let runs = load(dir)?;
    let mut out = String::from(
        "| workload | metric | unit | set 1 median | set 2 median | set 2 worse by | spread 1 | spread 2 | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut all_within = true;
    let (mut worst_spread, mut worst_shift) = (0.0f64, 0.0f64);
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (metric, unit, better, bound) = (&m.name, &m.unit, &m.better, &m.bound);
            let key = |set| (set, workload.to_string(), metric.to_string());
            let (Some(a), Some(b)) = (runs.get(&key(1)), runs.get(&key(2))) else {
                return Err(format!("{workload} {metric}: missing from one of the sets").into());
            };
            let (ma, mb) = (median(a), median(b));
            let worse = if *better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(a), spread(b));
            // setup_s is held to its bound between the two medians only.
            let spread_ok = *metric == "setup_s" || (sa <= *bound && sb <= *bound);
            let within = worse <= *bound && spread_ok;
            all_within &= within;
            if *metric != "setup_s" {
                worst_spread = worst_spread.max(sa.max(sb) / bound);
            }
            worst_shift = worst_shift.max(worse / bound);
            out.push_str(&format!(
                "| {workload} | {metric}{} | {unit} | {ma:.5} | {mb:.5} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |\n",
                if m.measured(workload) { "" } else { " (n/a)" },
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if within { "within" } else { "OUTSIDE" },
            ));
        }
    }
    out.push_str(&format!(
        "\nRuns per set and workload: {}. Largest spread as a share of its bound: {:.2}; \
         largest median shift as a share of its bound: {:.2}. {}\n",
        runs.values().map(Vec::len).max().unwrap_or(0),
        worst_spread,
        worst_shift,
        if all_within {
            "Every workload x metric pair is within its bound."
        } else {
            "Some pairs are OUTSIDE their bound."
        },
    ));
    Ok((out, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(python_quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(python_quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
