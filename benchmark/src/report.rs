//! One run's result: named metric values with their sample counts,
//! attempted / failed operation counts, and the two renderings the
//! contract asks for — `name unit value n` lines and a final JSON line.

use crate::fixture::RunConfig;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::{trace_json, Span};
use std::collections::BTreeMap;

/// The result of running one workload once.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether this was the traced pass (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    values: BTreeMap<&'static str, (f64, u64)>,
    /// Operations and oracle checks attempted.
    pub attempted: u64,
    /// Those that failed or disagreed with the oracle.
    pub failed: u64,
    /// Human-readable remarks (`# ...` lines in the output).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for one pass.
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn names(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Records `value` (from `n` samples) under `name`. Values for the
    /// other pass's metrics are dropped, so workloads can report
    /// everything they know in either pass.
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        if self.names().iter().any(|(known, _)| *known == name) {
            self.values.insert(name, (value, n));
        }
    }

    /// Counts one attempted check; `ok == false` counts it as failed
    /// and remarks why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Counts a full-model comparison's `(compared, wrong)` verdicts.
    pub fn check_verdicts(&mut self, what: &str, (compared, wrong): (u64, u64)) {
        self.attempted += compared;
        self.failed += wrong;
        if wrong > 0 {
            self.notes.push(format!(
                "FAILED: {what} disagrees with the oracle on {wrong} of {compared} verdicts"
            ));
        }
    }

    /// Writes the traced pass's spans to `<out>/trace-<workload>.json`
    /// and reports how many there were.
    pub fn write_trace(&mut self, cfg: &RunConfig, workload: &str, spans: &[Span]) {
        self.set("trace.spans", spans.len() as f64, spans.len() as u64);
        let path = cfg.out_dir.join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, trace_json(workload, cfg.seed, spans)) {
            self.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }

    /// The recorded value of `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Every metric of this pass as `(name, unit, value, n)`, in
    /// reporting order. A per-layer metric the workload did not set
    /// reads 0 with 0 samples: the workload bypasses that layer.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64, u64)> {
        self.names()
            .into_iter()
            .map(|(name, unit)| {
                let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
                (name, unit, v, n)
            })
            .collect()
    }

    /// Whether the run may be reported as correct: nothing failed,
    /// something was attempted, every value is finite and — in the
    /// untraced pass — every end-to-end metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self
                .rows()
                .iter()
                .all(|(_, _, v, n)| v.is_finite() && (self.traced || (*n > 0 && *v > 0.0)))
    }

    /// The `name unit value n` lines plus remarks.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, unit, v, n) in self.rows() {
            out.push_str(&format!("{name} {unit} {v} {n}\n"));
        }
        out.push_str(&format!(
            "failed_share ratio {} {}\n",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        ));
        for note in &self.notes {
            out.push_str(&format!("# {note}\n"));
        }
        out
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn render_json(&self) -> String {
        let metrics = self
            .rows()
            .into_iter()
            .map(|(name, unit, v, _)| {
                (
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_report_needs_every_end_to_end_metric() {
        let mut r = Report::new(false);
        r.check(true, String::new);
        assert!(!r.correct(), "nothing measured yet");
        for m in END_TO_END {
            r.set(m.name, 1.5, 10);
        }
        r.set("core.snapshot_ms", 9.0, 1); // other pass: dropped
        assert!(r.correct());
        assert_eq!(r.rows().len(), END_TO_END.len());
        let doc = Json::parse(&r.render_json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(END_TO_END.len())
        );
        r.check(false, || "oracle disagreed".into());
        assert!(!r.correct());
        assert!(r.render_lines().contains("# FAILED: oracle disagreed"));
    }

    #[test]
    fn traced_report_lists_every_layer_and_zeroes_the_bypassed() {
        let mut r = Report::new(true);
        r.check(true, String::new);
        r.set("core.snapshot_ms", 4.7, 100);
        r.set("main_p50_ms", 1.0, 1); // other pass: dropped
        assert!(r.correct());
        let rows = r.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("core.snapshot_ms", "ms", 4.7, 100)));
        assert!(rows.contains(&("wfs.grid200_ms", "ms", 0.0, 0)));
    }
}
