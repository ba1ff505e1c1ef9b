//! The result ledger of one run: named metrics, correctness checks, and
//! the one-line JSON result the run ends with.
//!
//! Every workload reports every metric of the set it was asked for, so a
//! run's metric names never depend on the workload. A per-layer metric a
//! workload does not exercise reads 0.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured untraced.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("roadnet.build_ms", "ms"),
    ("disaster.conditions_ms", "ms"),
    ("mobility.population_ms", "ms"),
    ("svm.train_ms", "ms"),
    ("rl.train_ms", "ms"),
    ("core.mine_ms", "ms"),
    ("sim.ingest_us", "us"),
    ("sim.tick_us", "us"),
    ("sim.advance_us", "us"),
    ("sim.residual_pct", "%"),
    ("core.dispatch_us", "us"),
    ("core.decide_us", "us"),
    ("svm.predict_us", "us"),
    ("svm.positive_pct", "%"),
    ("roadnet.lookups", "count"),
    ("roadnet.hit_pct", "%"),
    ("sim.epoch_p90_ms", "ms"),
    ("sim.flood_epoch_p50_ms", "ms"),
    ("sim.delivered_pct", "%"),
    ("sim.pickup_p50_min", "min"),
    ("trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Ledger {
    values: Vec<(&'static str, f64)>,
    failures: Vec<String>,
    /// Operations the run attempted (epochs, requests, restores...).
    pub attempted: u64,
    /// Operations that failed (refused, lost, or wrong).
    pub failed: u64,
}

impl Ledger {
    /// Records metric `name`. Later records of the same name win.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records a correctness check; a failed one is printed, counted as a
    /// failed operation, and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let why = what();
            println!("mrbench: CHECK FAILED: {why}");
            self.failures.push(why);
            self.failed += 1;
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable metric lines and the final one-line JSON result
    /// over `set` (a metric table). Metrics missing from the ledger read
    /// 0; a non-finite value fails the run.
    pub fn render(&mut self, set: &[(&'static str, &'static str)]) -> String {
        let mut lines = String::new();
        let mut metrics = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                self.check(false, || format!("{name} is not a finite number ({value})"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(lines, "metric {name} = {value} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let _ = writeln!(
            lines,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        lines
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (always with a decimal point or exponent, never `NaN`).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_every_metric_and_a_json_last_line() {
        let mut l = Ledger::default();
        l.set("setup_s", 1.25);
        l.set("setup_s", 1.5);
        l.attempted = 10;
        let out = l.render(&END_TO_END[..2]);
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
        assert!(out.contains("metric setup_s = 1.5 s"));
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let mut l = Ledger::default();
        l.check(true, || unreachable!());
        l.check(false, || "checksums differ".to_owned());
        l.set("setup_s", f64::NAN);
        let out = l.render(&END_TO_END[..1]);
        assert!(!l.correct());
        assert_eq!((l.attempted, l.failed), (3, 2));
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let mut names = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(names.insert(*name), "{name} listed twice");
            let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        assert_eq!(
            json.matches("{\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }
}
