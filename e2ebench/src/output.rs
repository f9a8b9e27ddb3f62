//! The metric catalogue and the result line.

use std::fmt::Write as _;

/// One catalogued metric: name, unit, and which direction is better
/// (`"higher"` or `"lower"`), as `BENCHMARK.json` lists them.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [Metric; 6] = [
    ("jobs_per_s", "jobs/s", "higher"),
    ("submit_p50_us", "us", "lower"),
    ("submit_p99_us", "us", "lower"),
    ("fulfilled_pct", "%", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: [Metric; 41] = [
    ("rms.submit.calls", "count", "lower"),
    ("rms.submit.busy_s", "s", "lower"),
    ("rms.submit.p50_ns", "ns", "lower"),
    ("rms.submit.p99_ns", "ns", "lower"),
    ("rms.advance.calls", "count", "lower"),
    ("rms.advance.busy_s", "s", "lower"),
    ("rms.advance.p99_ns", "ns", "lower"),
    ("rms.advance.events_per_call", "events", "higher"),
    ("rms.drain.busy_s", "s", "lower"),
    ("report.record.busy_s", "s", "lower"),
    ("libra_risk.decide.busy_s", "s", "lower"),
    ("libra_risk.decide.p50_ns", "ns", "lower"),
    ("libra_risk.decide.p99_ns", "ns", "lower"),
    ("proportional.admit.busy_s", "s", "lower"),
    ("proportional.advance.calls", "count", "lower"),
    ("proportional.advance.busy_s", "s", "lower"),
    ("proportional.advance.p99_ns", "ns", "lower"),
    ("policy.nodes_per_decision", "nodes", "lower"),
    ("policy.kernel_runs_per_decision", "runs", "lower"),
    ("policy.screen_hit_ratio", "ratio", "higher"),
    ("policy.class_hit_ratio", "ratio", "higher"),
    ("policy.pairing_hit_ratio", "ratio", "higher"),
    ("policy.memo_hit_ratio", "ratio", "higher"),
    ("policy.accept_ratio", "ratio", "higher"),
    ("router.submit.p99_ns", "ns", "lower"),
    ("router.advance.calls", "count", "lower"),
    ("router.advance.busy_s", "s", "lower"),
    ("router.advance.p50_ns", "ns", "lower"),
    ("router.advance.p99_ns", "ns", "lower"),
    ("router.events_per_advance", "events", "higher"),
    ("ckpt.save.calls", "count", "lower"),
    ("ckpt.save.busy_s", "s", "lower"),
    ("ckpt.save.p99_us", "us", "lower"),
    ("ckpt.snapshot_bytes", "B", "lower"),
    ("ckpt.restore_us", "us", "lower"),
    ("fault.events", "count", "lower"),
    ("fault.requeues", "count", "lower"),
    ("fault.late_rejects", "count", "lower"),
    ("obs.ring_dropped_ratio", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
];

/// Measured metric values by name; a metric never set reads 0 (the
/// layer did no work on this workload).
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// One metric's value, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The names set.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }
}

/// The last line of standard output.
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (jobs submitted in measured drives).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Renders the result line: the outcome plus every metric of `catalogue`,
/// in catalogue order. Returns whether the line reports a correct run:
/// a value that is not finite makes it incorrect.
pub fn result_line(outcome: &Outcome, catalogue: &[Metric], values: &Values) -> (bool, String) {
    let mut correct = outcome.correct;
    let mut metrics = String::new();
    for (i, (name, unit, _)) in catalogue.iter().enumerate() {
        let mut v = values.get(name);
        if !v.is_finite() {
            correct = false;
            v = 0.0;
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Value};

    fn members(v: &Value) -> Vec<&str> {
        match v {
            Value::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    #[test]
    fn result_line_parses_back_with_every_metric() {
        for catalogue in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut values = Values::default();
            for (i, name) in catalogue.iter().enumerate() {
                values.set(name.0, 1.0 / (i as f64 + 3.0));
            }
            let outcome = Outcome {
                correct: true,
                attempted: 120_000,
                failed: 0,
            };
            let (correct, line) = result_line(&outcome, catalogue, &values);
            assert!(correct);
            assert!(!line.contains('\n'));
            let v = parse(&line).expect("valid JSON");
            assert_eq!(members(&v), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(120_000.0));
            assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = v.get("metrics").unwrap();
            let names: Vec<&str> = catalogue.iter().map(|m| m.0).collect();
            assert_eq!(members(metrics), names);
            for (i, (name, unit, _)) in catalogue.iter().enumerate() {
                let m = metrics.get(name).unwrap();
                assert_eq!(members(m), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                let value = m.get("value").and_then(Value::as_f64).unwrap();
                assert_eq!(value, 1.0 / (i as f64 + 3.0), "{name} keeps all its digits");
            }
        }
    }

    #[test]
    fn a_non_finite_value_marks_the_result_incorrect() {
        let mut values = Values::default();
        values.set("jobs_per_s", f64::NAN);
        let outcome = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
        };
        let (correct, line) = result_line(&outcome, &END_TO_END, &values);
        assert!(!correct);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = parse(&text).expect("BENCHMARK.json is JSON");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str, &str)> = spec
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap(),
                        m.get("unit").and_then(Value::as_str).unwrap(),
                        m.get("better").and_then(Value::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, catalogue, "{key}");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let known: Vec<&str> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, known);
    }
}
