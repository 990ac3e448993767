//! The metric catalogue and a run's result line.
//!
//! `BENCHMARK.json` is the one list of workload and metric names, units and
//! bounds; it is compiled in, so the binary and the file cannot disagree. A
//! workload that produces a name the catalogue lacks fails the run.

use crate::adapter::{json_string, parse_json, Json};
use crate::stats::Better;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Regression bound; end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Catalog {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

fn metric_defs(root: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    root.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: field(m, "name")?.to_string(),
                unit: field(m, "unit")?.to_string(),
                better: match field(m, "better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Catalog {
    pub fn load() -> Result<Catalog, String> {
        let root = parse_json(BENCHMARK_JSON)?;
        let workloads = root
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?.to_string(), field(w, "why")?.to_string())))
            .collect::<Result<_, String>>()?;
        Ok(Catalog {
            workloads,
            end_to_end: metric_defs(&root, "end_to_end")?,
            per_layer: metric_defs(&root, "per_layer")?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
        })
    }
}

/// Named measurements of one run.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations whose outcome was checked: timed ops and oracle queries.
    pub attempted: u64,
    /// Wrong answers, `Busy`, `Error` and transport errors among them.
    pub failed: u64,
    pub end_to_end: Metrics,
    /// Filled on a traced run only.
    pub per_layer: Metrics,
    /// Host facts, sample counts and the run's own noise band: printed and
    /// kept in `--out` records, never part of the result line.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn metrics_object(defs: &[MetricDef], values: &Metrics, strict: bool) -> Result<String, String> {
    if let Some(stray) = values
        .0
        .keys()
        .find(|k| !defs.iter().any(|d| &d.name == *k))
    {
        return Err(format!("metric {stray:?} is not in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        // A layer a workload does not exercise did no work: zero. An
        // end-to-end metric has no such excuse.
        let v = match values.get(&d.name) {
            Some(v) => v,
            None if strict => return Err(format!("end-to-end metric {:?} not measured", d.name)),
            None => 0.0,
        };
        if !v.is_finite() {
            return Err(format!("metric {:?} is not finite", d.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_string(&d.name),
            json_string(&d.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The run's result: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics` — every end-to-end metric on an
/// untraced run, every per-layer metric on a traced one.
pub fn result_json(catalog: &Catalog, outcome: &Outcome, traced: bool) -> Result<String, String> {
    let metrics = if traced {
        metrics_object(&catalog.per_layer, &outcome.per_layer, false)?
    } else {
        metrics_object(&catalog.end_to_end, &outcome.end_to_end, true)?
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    ))
}

/// Every metric by name with its unit, for people.
pub fn print_table(catalog: &Catalog, outcome: &Outcome, traced: bool) {
    for (k, v) in &outcome.notes {
        eprintln!("  {k:<34} {v}");
    }
    let (defs, values) = if traced {
        (&catalog.per_layer, &outcome.per_layer)
    } else {
        (&catalog.end_to_end, &outcome.end_to_end)
    };
    for d in defs {
        if let Some(v) = values.get(&d.name) {
            eprintln!("  {:<34} {v:>16.4} {}", d.name, d.unit);
        }
    }
    eprintln!(
        "  attempted {} failed {} failed_frac {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
}

/// One `--out` record: the result plus what identifies and qualifies it.
pub fn record_json(workload: &str, seed: u64, traced: bool, result: &str, o: &Outcome) -> String {
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {result}, \"notes\": {{{}}}}}",
        json_string(workload),
        u8::from(traced),
        notes.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_and_names_are_unique() {
        let c = Catalog::load().expect("BENCHMARK.json parses");
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .map(|w| w.0.as_str())
            .chain(c.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(c.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let c = Catalog::load().unwrap();
        let mut o = Outcome::default();
        for (i, m) in c.end_to_end.iter().enumerate() {
            o.end_to_end.set(&m.name, 1.5 + i as f64);
        }
        o.check(true);
        let line = result_json(&c, &o, false).unwrap();
        let v = parse_json(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), c.end_to_end.len());
        // A traced line lists every per-layer metric, zero where idle.
        let traced = parse_json(&result_json(&c, &o, true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            c.per_layer.len()
        );
    }

    #[test]
    fn a_failed_op_or_a_stray_or_missing_metric_fails_the_result() {
        let c = Catalog::load().unwrap();
        let mut o = Outcome::default();
        assert!(result_json(&c, &o, false).is_err(), "nothing measured");
        for m in &c.end_to_end {
            o.end_to_end.set(&m.name, 1.0);
        }
        // The oracle path: an answer with one id flipped is a failed op,
        // and one failed op makes the run incorrect.
        let scan = vec![1, 4, 9];
        o.check(vec![1, 4, 9] == scan);
        o.check(vec![1, 5, 9] == scan);
        assert_eq!((o.attempted, o.failed), (2, 1));
        let v = parse_json(&result_json(&c, &o, false).unwrap()).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        o.end_to_end.set("no_such_metric", 1.0);
        assert!(result_json(&c, &o, false).is_err());
    }
}
