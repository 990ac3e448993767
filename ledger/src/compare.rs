//! `ledger --compare <a> <b>`: apply the bounds in `BENCHMARK.json` to two
//! result sets — files of `--out` records — one row per (workload,
//! end-to-end metric). A pair whose noise band is wider than its bound is
//! *unresolved*: it is not called unchanged.

use crate::adapter::{parse_json, Json};
use crate::report::Catalog;
use crate::stats::{bound_check, median, spread_frac, worse_by, Verdict};
use std::collections::BTreeMap;

/// One side's runs of one workload.
#[derive(Default)]
struct Runs {
    /// Metric name → its value in each run.
    values: BTreeMap<String, Vec<f64>>,
    /// Each run's own pass-to-pass noise band.
    pass_spread: Vec<f64>,
}

type ResultSet = BTreeMap<String, Runs>;

fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec = parse_json(line)?;
        if rec.get("trace").and_then(Json::as_u64) != Some(0) {
            continue; // traced runs carry no end-to-end metrics
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without a workload")?;
        let runs = set.entry(workload.to_string()).or_default();
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or("record without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            runs.values.entry(name.clone()).or_default().push(v);
        }
        let spread = rec
            .get("notes")
            .and_then(|n| n.get("client.pass_spread_frac"))
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<f64>().ok());
        runs.pass_spread.extend(spread);
    }
    Ok(set)
}

/// A side's noise band for one metric: the quartile spread across its runs
/// when it has several, else what its single run saw between its passes.
fn noise(runs: &Runs, values: &[f64]) -> f64 {
    if values.len() >= 2 {
        spread_frac(values)
    } else {
        runs.pass_spread.iter().copied().fold(0.0, f64::max)
    }
}

/// The comparison table, and whether any pair is worse than its bound.
pub fn compare(catalog: &Catalog, a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse_set(a)?, parse_set(b)?);
    let mut table = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound", "noise"
    );
    let mut any_worse = false;
    for (workload, _) in &catalog.workloads {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for def in &catalog.end_to_end {
            let (Some(va), Some(vb)) = (ra.values.get(&def.name), rb.values.get(&def.name)) else {
                continue;
            };
            let bound = def.bound.ok_or("end-to-end metric without a bound")?;
            let (ma, mb) = (median(va), median(vb));
            let spread = noise(ra, va).max(noise(rb, vb));
            let verdict = bound_check(ma, mb, def.better, bound, spread);
            any_worse |= verdict == Verdict::Worse;
            table.push_str(&format!(
                "{workload:<14} {:<18} {ma:>14.4} {mb:>14.4} {:>8.1}% {:>6.1}% {:>6.1}%  {}\n",
                def.name,
                100.0 * worse_by(ma, mb, def.better),
                100.0 * bound,
                100.0 * spread,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, ops: f64, setup: f64, pass_spread: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \
             \"1/s\"}}, \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}}}}}, \"notes\": \
             {{\"client.pass_spread_frac\": \"{pass_spread}\"}}}}\n"
        )
    }

    fn verdict_of<'a>(table: &'a str, metric: &str) -> &'a str {
        let row = table
            .lines()
            .find(|l| l.contains(metric))
            .expect("row present");
        row.split_whitespace().last().unwrap()
    }

    #[test]
    fn rows_are_within_worse_or_unresolved() {
        let catalog = Catalog::load().unwrap();
        let a: String = [1000.0, 1010.0, 990.0]
            .iter()
            .map(|&v| record("query_small", v, 7.0, 0.01))
            .collect();
        // 30 % fewer ops/s: worse than the 10 % bound; set-up unchanged.
        let b: String = [700.0, 705.0, 695.0]
            .iter()
            .map(|&v| record("query_small", v, 7.1, 0.01))
            .collect();
        let (table, worse) = compare(&catalog, &a, &b).unwrap();
        assert!(worse);
        assert_eq!(verdict_of(&table, "ops_per_s"), "WORSE");
        assert_eq!(verdict_of(&table, "setup_s"), "within");
        // The same medians from runs that scatter by more than the bound.
        let noisy: String = [500.0, 700.0, 900.0]
            .iter()
            .map(|&v| record("query_small", v, 7.0, 0.01))
            .collect();
        let (table, worse) = compare(&catalog, &a, &noisy).unwrap();
        assert!(!worse);
        assert_eq!(verdict_of(&table, "ops_per_s"), "unresolved");
        // Single runs fall back on the run's own pass-to-pass band.
        let (table, _) = compare(
            &catalog,
            &record("query_small", 1000.0, 7.0, 0.3),
            &record("query_small", 1000.0, 7.0, 0.01),
        )
        .unwrap();
        assert_eq!(verdict_of(&table, "ops_per_s"), "unresolved");
    }
}
