//! Load generation for the `mrnet 1` TCP front door.
//!
//! The `loadgen` binary replays a mobility-mined rescue-request stream
//! against a running `serve --listen` process and reports latency and
//! shed-rate figures (`BENCH_serve.json`). This module holds everything
//! the binary shares with the unit tests: the arrival-schedule profiles,
//! the mined request stream, and the report format.
//!
//! The generator is **open-loop**: send times come from the schedule, not
//! from the server's responses, so a slow server faces a growing backlog
//! instead of a politely backing-off client — that is what makes the shed
//! rate an honest overload signal rather than an artifact of coordinated
//! omission.

use mobirescue_core::predictor::mine_rescues;
use mobirescue_core::scenario::Scenario;
use mobirescue_core::training::{busiest_request_day, requests_on_day};
use mobirescue_mobility::map_match::MapMatcher;
use std::fmt::Write as _;

/// Send offsets in milliseconds from the start of the run, evenly spaced
/// and sorted ascending. `rate_rps` is the request rate; `duration_ms` the
/// run length. Deterministic — the same arguments always produce the same
/// schedule.
pub fn open_schedule(rate_rps: f64, duration_ms: u64) -> Vec<u64> {
    let duration = duration_ms as f64;
    let total = (rate_rps * duration / 1_000.0).floor().max(1.0) as u64;
    (0..total)
        .map(|i| (i as f64 * duration / total as f64) as u64)
        .collect()
}

/// One request of the replayed stream: `(appear_s, segment index)`.
pub type StreamRequest = (u32, u32);

/// The busiest day of the scenario's mined rescue requests, normalized to
/// start at second 0 and sorted by appearance time. The load generator
/// cycles through this stream to label the requests it sends, so the
/// segments offered over the wire are exactly the segments the paper's
/// ground-truth pipeline would produce. Falls back to a deterministic
/// synthetic stream when the scenario mines no rescues.
pub fn mined_stream(scenario: &Scenario) -> Vec<StreamRequest> {
    let rescues = mine_rescues(scenario);
    let mut stream: Vec<StreamRequest> = busiest_request_day(&rescues)
        .map(|day| {
            let matcher = MapMatcher::new(&scenario.city.network);
            requests_on_day(scenario, &matcher, &rescues, day)
                .into_iter()
                .map(|spec| (spec.appear_s, spec.segment.index() as u32))
                .collect()
        })
        .unwrap_or_default();
    if stream.is_empty() {
        let num_segments = scenario.city.network.num_segments() as u32;
        stream = (0..64u32)
            .map(|i| (i * 53, i.wrapping_mul(2_654_435_761) % num_segments))
            .collect();
    }
    stream.sort_unstable();
    let first = stream[0].0;
    for req in &mut stream {
        req.0 -= first;
    }
    stream
}

/// The figures a load run produces — serialized as the flat JSON of
/// `BENCH_serve.json` and gated by `scripts/check_bench.sh`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Arrival profile name.
    pub profile: String,
    /// World served (`small` / `medium` / `charlotte`).
    pub scenario: String,
    /// Nominal request rate asked of the schedule.
    pub target_rps: f64,
    /// Scheduled run length.
    pub duration_ms: u64,
    /// Requests sent.
    pub sent: u64,
    /// Requests ACKed by the server.
    pub acked: u64,
    /// Requests NACKed with reason Shed (queue full).
    pub nacked_shed: u64,
    /// Requests NACKed for any other reason.
    pub nacked_invalid: u64,
    /// Requests never answered before the drain deadline.
    pub lost: u64,
    /// Send rate actually achieved over the wire.
    pub achieved_rps: f64,
    /// `nacked_shed / sent`, percent.
    pub shed_rate_pct: f64,
    /// Client-observed request→ACK round trip, p50.
    pub rtt_p50_ms: u64,
    /// Client-observed request→ACK round trip, p99.
    pub rtt_p99_ms: u64,
    /// Client-observed request→ACK round trip, p99.9.
    pub rtt_p999_ms: u64,
    /// Server-side ingest-to-dispatch latency, p50.
    pub i2d_p50_ms: u64,
    /// Server-side ingest-to-dispatch latency, p99.
    pub i2d_p99_ms: u64,
    /// Server-side ingest-to-dispatch latency, p99.9.
    pub i2d_p999_ms: u64,
    /// The p99 RTT ceiling this run is expected to hold — committed in
    /// the baseline so the gate is self-describing.
    pub p99_slo_ms: u64,
    /// The p99.9 RTT ceiling committed alongside: the tail the p99 gate
    /// cannot see, where fsync stalls and drain hiccups hide.
    pub p999_slo_ms: u64,
    /// The shed-rate ceiling (percent) committed alongside.
    pub max_shed_pct: f64,
}

impl LoadReport {
    /// Flat JSON, one scalar per line, so `scripts/check_bench.sh`
    /// extracts each field with a one-line sed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"profile\": \"{}\",", self.profile);
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.scenario);
        let _ = writeln!(out, "  \"target_rps\": {:.1},", self.target_rps);
        let _ = writeln!(out, "  \"duration_ms\": {},", self.duration_ms);
        let _ = writeln!(out, "  \"sent\": {},", self.sent);
        let _ = writeln!(out, "  \"acked\": {},", self.acked);
        let _ = writeln!(out, "  \"nacked_shed\": {},", self.nacked_shed);
        let _ = writeln!(out, "  \"nacked_invalid\": {},", self.nacked_invalid);
        let _ = writeln!(out, "  \"lost\": {},", self.lost);
        let _ = writeln!(out, "  \"achieved_rps\": {:.1},", self.achieved_rps);
        let _ = writeln!(out, "  \"shed_rate_pct\": {:.2},", self.shed_rate_pct);
        let _ = writeln!(out, "  \"rtt_p50_ms\": {},", self.rtt_p50_ms);
        let _ = writeln!(out, "  \"rtt_p99_ms\": {},", self.rtt_p99_ms);
        let _ = writeln!(out, "  \"rtt_p999_ms\": {},", self.rtt_p999_ms);
        let _ = writeln!(out, "  \"i2d_p50_ms\": {},", self.i2d_p50_ms);
        let _ = writeln!(out, "  \"i2d_p99_ms\": {},", self.i2d_p99_ms);
        let _ = writeln!(out, "  \"i2d_p999_ms\": {},", self.i2d_p999_ms);
        let _ = writeln!(out, "  \"p99_slo_ms\": {},", self.p99_slo_ms);
        let _ = writeln!(out, "  \"p999_slo_ms\": {},", self.p999_slo_ms);
        let _ = writeln!(out, "  \"max_shed_pct\": {:.1}", self.max_shed_pct);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_core::scenario::ScenarioConfig;

    #[test]
    fn open_schedule_is_uniform_and_sized_by_rate() {
        let offsets = open_schedule(100.0, 2_000);
        assert_eq!(offsets.len(), 200);
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert!(*offsets.last().unwrap() < 2_000);
        // Uniform: consecutive gaps are all 10ms.
        assert!(offsets.windows(2).all(|w| w[1] - w[0] == 10));
    }

    #[test]
    fn schedules_are_deterministic() {
        assert_eq!(open_schedule(250.0, 1_500), open_schedule(250.0, 1_500));
    }

    #[test]
    fn mined_stream_is_normalized_sorted_and_in_range() {
        let scenario = ScenarioConfig::small().florence().build(20180914);
        let stream = mined_stream(&scenario);
        assert!(!stream.is_empty());
        assert_eq!(stream[0].0, 0, "appearance times start at zero");
        assert!(stream.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        let num_segments = scenario.city.network.num_segments() as u32;
        assert!(stream.iter().all(|&(_, seg)| seg < num_segments));
    }

    #[test]
    fn report_json_is_flat_and_self_describing() {
        let report = LoadReport {
            profile: "open".to_owned(),
            scenario: "small".to_owned(),
            target_rps: 200.0,
            duration_ms: 5_000,
            sent: 1_000,
            acked: 980,
            nacked_shed: 15,
            nacked_invalid: 5,
            lost: 0,
            achieved_rps: 199.6,
            shed_rate_pct: 1.5,
            rtt_p50_ms: 2,
            rtt_p99_ms: 11,
            rtt_p999_ms: 30,
            i2d_p50_ms: 40,
            i2d_p99_ms: 90,
            i2d_p999_ms: 120,
            p99_slo_ms: 250,
            p999_slo_ms: 1_000,
            max_shed_pct: 5.0,
        };
        let json = report.to_json();
        for key in [
            "profile",
            "achieved_rps",
            "shed_rate_pct",
            "rtt_p99_ms",
            "rtt_p999_ms",
            "i2d_p99_ms",
            "p99_slo_ms",
            "p999_slo_ms",
            "max_shed_pct",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        // One scalar per line, so check_bench.sh's sed extractor works.
        assert!(json.lines().any(|l| l.trim() == "\"rtt_p99_ms\": 11,"));
        assert!(json.lines().any(|l| l.trim() == "\"shed_rate_pct\": 1.50,"));
    }
}
