//! Frozen registry contents and the two wire formats.
//!
//! # `mrobs 1` — the stable machine-readable text format
//!
//! Versioned like the `mrworld 1`/`mrserve 1` snapshot formats:
//!
//! ```text
//! mrobs 1
//! c <name> <value>
//! g <name> <value>
//! h <name> <count> <sum> <max> [<bucket>:<count> ...]
//! end
//! ```
//!
//! Records are sorted by kind then name, one per line, whitespace
//! separated; histogram buckets are sparse (`index:count`, log2 buckets —
//! see [`crate::histogram`]). The format round-trips through
//! [`ObsSnapshot::parse`], and the golden test in `tests/golden.rs` pins
//! every byte — bump the version number for any incompatible change.
//!
//! # Prometheus exposition
//!
//! [`ObsSnapshot::to_prometheus`] renders the conventional
//! `# TYPE`-annotated exposition text: counters and gauges as single
//! samples, histograms as cumulative `_bucket{le="..."}` series plus
//! `_sum` and `_count`. Metric names are sanitized (`.` → `_`) and
//! prefixed `mobirescue_`.

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use crate::record::Reader;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A frozen, renderable copy of a [`crate::Registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl ObsSnapshot {
    /// Renders the versioned `mrobs 1` text form (see the module docs).
    pub fn to_text(&self) -> String {
        let mut out = String::from("mrobs 1\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "c {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "g {name} {value}");
        }
        for (name, hist) in &self.histograms {
            let _ = writeln!(out, "h {name} {}", hist.to_line());
        }
        out.push_str("end\n");
        out
    }

    /// Parses [`ObsSnapshot::to_text`] output through the
    /// [`crate::record`] codec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed record (missing
    /// header or `end`, bad value, duplicate name, unknown tag).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reader = Reader::open(text, "mrobs 1")?;
        let mut snap = Self::default();
        while let Some(mut r) = reader.next_record()? {
            let name = r.token("name")?;
            let duplicate = match r.tag {
                "c" => snap
                    .counters
                    .insert(name.to_owned(), r.field("value")?)
                    .is_some(),
                "g" => snap
                    .gauges
                    .insert(name.to_owned(), r.field("value")?)
                    .is_some(),
                "h" => {
                    let hist = HistogramSnapshot::from_record(&mut r)?;
                    snap.histograms.insert(name.to_owned(), hist).is_some()
                }
                other => return Err(format!("unknown record `{other}`")),
            };
            if duplicate {
                return Err(format!("duplicate metric `{name}`"));
            }
            r.finish()?;
        }
        Ok(snap)
    }

    /// Renders Prometheus-style exposition text (see the module docs).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, hist) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            let last = hist.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            for (i, &c) in hist.counts.iter().enumerate().take(last + 1) {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{n}_sum {}", hist.sum);
            let _ = writeln!(out, "{n}_count {}", hist.count());
        }
        out
    }

    /// A human-oriented table: one line per metric, histograms with
    /// count/mean/p50/p95/p99/p999/max. For operators, not machines.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:<40} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name:<40} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<40} n={} mean={:.1} p50={} p95={} p99={} p999={} max={}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.p999(),
                h.max
            );
        }
        out
    }
}

/// `mobirescue_` + the name with every non-alphanumeric byte replaced by
/// `_` — a valid Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 11);
    out.push_str("mobirescue_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> ObsSnapshot {
        let reg = Registry::new();
        reg.counter("serve.requests_accepted").add(12);
        reg.counter("serve.requests_shed").add(2);
        reg.gauge("serve.queue_depth").set(3);
        reg.gauge("serve.drain").set(-1);
        let h = reg.histogram("epoch.routing_ms");
        for v in [0, 1, 3, 9, 1_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn text_round_trips() {
        let snap = sample();
        let text = snap.to_text();
        assert!(text.starts_with("mrobs 1\n"));
        assert!(text.ends_with("end\n"));
        let back = ObsSnapshot::parse(&text).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(ObsSnapshot::parse("").is_err());
        assert!(ObsSnapshot::parse("mrobs 2\nend\n").is_err());
        assert!(ObsSnapshot::parse("mrobs 1\n").is_err(), "missing end");
        assert!(ObsSnapshot::parse("mrobs 1\nc lonely\nend\n").is_err());
        assert!(ObsSnapshot::parse("mrobs 1\nc x 1\nc x 2\nend\n").is_err());
        assert!(ObsSnapshot::parse("mrobs 1\nz what 1\nend\n").is_err());
        assert!(ObsSnapshot::parse("mrobs 1\ng x 1 2\nend\n").is_err());
        assert!(ObsSnapshot::parse("mrobs 1\nh x 1 2\nend\n").is_err());
    }

    #[test]
    fn prometheus_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE mobirescue_serve_requests_accepted counter"));
        assert!(text.contains("mobirescue_serve_requests_accepted 12"));
        assert!(text.contains("# TYPE mobirescue_serve_queue_depth gauge"));
        assert!(text.contains("mobirescue_serve_drain -1"));
        assert!(text.contains("# TYPE mobirescue_epoch_routing_ms histogram"));
        // Cumulative buckets: 0 → 1 observation, le=1 → 2, le=3 → 3 ...
        assert!(text.contains("mobirescue_epoch_routing_ms_bucket{le=\"0\"} 1"));
        assert!(text.contains("mobirescue_epoch_routing_ms_bucket{le=\"1\"} 2"));
        assert!(text.contains("mobirescue_epoch_routing_ms_bucket{le=\"3\"} 3"));
        assert!(text.contains("mobirescue_epoch_routing_ms_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("mobirescue_epoch_routing_ms_sum 1013"));
        assert!(text.contains("mobirescue_epoch_routing_ms_count 5"));
    }

    #[test]
    fn summary_mentions_quantiles() {
        let s = sample().render_summary();
        assert!(s.contains("p95="), "{s}");
        assert!(s.contains("p999="), "{s}");
        assert!(s.contains("serve.requests_accepted"), "{s}");
    }
}
