//! `gsls-benchmark compare <a.json> <b.json>`: the tool every
//! parent-versus-change comparison (and the A/A acceptance) uses.
//! Both files are `suite` result files; `a` is the baseline.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// A calibration drift above this labels a side's numbers noisy.
pub const NOISY_DRIFT_PCT: f64 = 10.0;

/// One `(metric, workload)` comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub a: f64,
    /// Compared value.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative:
    /// better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `ok`, `worse`, or `noisy` (beyond the bound, but one side's
    /// calibration kernel drifted by more than [`NOISY_DRIFT_PCT`]).
    pub verdict: &'static str,
}

fn metric_value(workload: &Json, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

/// Compares two result files. Workloads or metrics present on one side
/// only are skipped.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Json::as_obj) else {
        return rows;
    };
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let noisy = [wa, wb].iter().any(|w| {
            metric_value(w, "per_layer", "host.calib_drift_pct")
                .is_some_and(|d| d > NOISY_DRIFT_PCT)
        });
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(wa, "end_to_end", m.name),
                metric_value(wb, "end_to_end", m.name),
            ) else {
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            rows.push(Row {
                workload: name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                worse_by,
                bound: m.bound,
                verdict: match (worse_by > m.bound, noisy) {
                    (false, _) => "ok",
                    (true, false) => "worse",
                    (true, true) => "noisy",
                },
            });
        }
    }
    rows
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<14} {:>12} {:>12} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse_by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:>12.4} {:>12.4} {:>+8.1}% {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(main_p50: f64, per_s: f64, drift: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"embed_commit": {{
                "end_to_end": {{"main_p50_ms": {{"value": {main_p50}, "unit": "ms"}},
                                "main_per_s": {{"value": {per_s}, "unit": "1/s"}}}},
                "per_layer": {{"host.calib_drift_pct": {{"value": {drift}, "unit": "%"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_inputs_pass() {
        let a = results(6.5, 60.0, 1.0);
        let rows = compare(&a, &a);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == "ok" && r.worse_by == 0.0));
    }

    #[test]
    fn a_twofold_regression_is_flagged_in_the_right_direction() {
        let a = results(6.5, 60.0, 1.0);
        let b = results(13.0, 30.0, 1.0);
        let rows = compare(&a, &b);
        assert!(rows.iter().all(|r| r.verdict == "worse"), "{rows:?}");
        assert_eq!(rows[0].worse_by, 1.0);
        assert_eq!(rows[1].worse_by, 0.5);
        // The same change read the other way is an improvement.
        assert!(compare(&b, &a).iter().all(|r| r.verdict == "ok"));
        // Within the bound: ok.
        let c = results(6.9, 57.0, 1.0);
        assert!(compare(&a, &c).iter().all(|r| r.verdict == "ok"));
        assert!(render(&rows).contains("worse"));
    }

    #[test]
    fn drift_on_either_side_downgrades_worse_to_noisy() {
        let a = results(6.5, 60.0, 1.0);
        let b = results(13.0, 30.0, 25.0);
        assert!(compare(&a, &b).iter().all(|r| r.verdict == "noisy"));
        assert!(compare(&b, &a).iter().all(|r| r.verdict == "ok"));
    }
}
