//! Metric extraction from simulation outcomes — one helper per evaluation
//! figure (Section V-B's metric list).

use crate::engine::SimOutcome;
use mobirescue_mobility::stats::Cdf;

impl SimOutcome {
    /// Total requests picked up.
    pub fn total_served(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.picked_up_s.is_some())
            .count()
    }

    /// Total requests picked up within the timeliness bound.
    pub fn total_timely_served(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.timely_served(self.config.timely_threshold_s))
            .count()
    }

    /// Figure 9: timely served requests per simulated hour (by pickup
    /// time).
    pub fn timely_served_per_hour(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.config.duration_hours as usize];
        for r in &self.requests {
            if r.timely_served(self.config.timely_threshold_s) {
                let h = (r.picked_up_s.expect("timely implies served") / 3_600) as usize;
                if h < out.len() {
                    out[h] += 1;
                }
            }
        }
        out
    }

    /// Figure 10: per-team *timely* served counts (the paper measures "the
    /// numbers of timely served rescue requests of all the rescue teams").
    pub fn timely_served_per_team(&self) -> Vec<f64> {
        let mut counts = vec![0u32; self.config.num_teams];
        for r in &self.requests {
            if r.timely_served(self.config.timely_threshold_s) {
                if let Some(team) = r.team {
                    counts[team.index()] += 1;
                }
            }
        }
        counts.into_iter().map(f64::from).collect()
    }

    /// Figure 10 as a CDF.
    pub fn served_per_team_cdf(&self) -> Cdf {
        Cdf::new(self.timely_served_per_team())
    }

    /// Figure 11: average driving delay (seconds) of requests served in
    /// each hour; `None` for hours without served requests.
    pub fn avg_driving_delay_per_hour(&self) -> Vec<Option<f64>> {
        let hours = self.config.duration_hours as usize;
        let mut sum = vec![0.0; hours];
        let mut count = vec![0usize; hours];
        for r in &self.requests {
            if let (Some(p), Some(d)) = (r.picked_up_s, r.driving_delay_s) {
                let h = (p / 3_600) as usize;
                if h < hours {
                    sum[h] += d;
                    count[h] += 1;
                }
            }
        }
        sum.into_iter()
            .zip(count)
            .map(|(s, c)| (c > 0).then(|| s / c as f64))
            .collect()
    }

    /// Figure 12: CDF of driving delays (seconds) over all served requests.
    pub fn driving_delay_cdf(&self) -> Cdf {
        Cdf::new(
            self.requests
                .iter()
                .filter_map(|r| r.driving_delay_s)
                .collect(),
        )
    }

    /// Figure 13: CDF of rescue timeliness (seconds) over all served
    /// requests (dispatch computation latency is already embedded, since
    /// orders apply only after it elapses).
    pub fn timeliness_cdf(&self) -> Cdf {
        Cdf::new(
            self.requests
                .iter()
                .filter_map(|r| r.timeliness_s())
                .map(|t| t as f64)
                .collect(),
        )
    }

    /// Figure 14: number of serving teams per dispatch slot.
    pub fn serving_teams_per_slot(&self) -> &[(u32, usize)] {
        &self.serving_per_tick
    }

    /// Figure 14 aggregated per hour (mean over the hour's slots).
    pub fn avg_serving_teams_per_hour(&self) -> Vec<f64> {
        let hours = self.config.duration_hours as usize;
        let mut sum = vec![0.0; hours];
        let mut count = vec![0usize; hours];
        for &(t, n) in &self.serving_per_tick {
            let h = (t / 3_600) as usize;
            if h < hours {
                sum[h] += n as f64;
                count[h] += 1;
            }
        }
        sum.into_iter()
            .zip(count)
            .map(|(s, c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestId, RequestOutcome, RequestSpec, SimConfig, TeamId};
    use mobirescue_roadnet::graph::SegmentId;

    fn outcome() -> SimOutcome {
        let mk = |id: u32, appear: u32, picked: Option<u32>, delay: Option<f64>| RequestOutcome {
            id: RequestId(id),
            spec: RequestSpec {
                appear_s: appear,
                segment: SegmentId(0),
            },
            picked_up_s: picked,
            delivered_s: picked.map(|p| p + 600),
            team: picked.map(|_| TeamId(0)),
            driving_delay_s: delay,
        };
        SimOutcome {
            dispatcher: "test".into(),
            config: SimConfig::small(0),
            requests: vec![
                mk(0, 0, Some(600), Some(500.0)),       // timely, hour 0
                mk(1, 0, Some(4_000), Some(3_800.0)),   // late, hour 1
                mk(2, 100, None, None),                 // unserved
                mk(3, 3_700, Some(3_900), Some(100.0)), // timely, hour 1
            ],
            serving_per_tick: vec![(0, 2), (300, 4), (3_600, 6)],
            team_served: vec![vec![1, 2, 0, 0], vec![0, 1, 0, 0]],
            dispatch_rounds: 3,
            unroutable_orders: 0,
            position_samples: Vec::new(),
        }
    }

    #[test]
    fn totals() {
        let o = outcome();
        assert_eq!(o.total_served(), 3);
        assert_eq!(o.total_timely_served(), 2);
    }

    #[test]
    fn per_hour_series() {
        let o = outcome();
        let hourly = o.timely_served_per_hour();
        assert_eq!(hourly[0], 1);
        assert_eq!(hourly[1], 1);
        assert_eq!(hourly[2], 0);
        let delays = o.avg_driving_delay_per_hour();
        assert_eq!(delays[0], Some(500.0));
        assert_eq!(delays[1], Some((3_800.0 + 100.0) / 2.0));
        assert_eq!(delays[2], None);
    }

    #[test]
    fn team_and_serving_series() {
        let o = outcome();
        // Timely counts come from request outcomes: requests 0 and 3 were
        // timely, both picked up by team 0; the config has 6 teams.
        let timely = o.timely_served_per_team();
        assert_eq!(timely.len(), o.config.num_teams);
        assert_eq!(timely[0], 2.0);
        assert!(timely[1..].iter().all(|&n| n == 0.0));
        assert_eq!(o.served_per_team_cdf().len(), o.config.num_teams);
        let per_hour = o.avg_serving_teams_per_hour();
        assert_eq!(per_hour[0], 3.0); // (2 + 4) / 2
        assert_eq!(per_hour[1], 6.0);
    }

    #[test]
    fn cdfs_cover_served_requests_only() {
        let o = outcome();
        assert_eq!(o.driving_delay_cdf().len(), 3);
        assert_eq!(o.timeliness_cdf().len(), 3);
        assert_eq!(o.timeliness_cdf().min(), Some(200.0));
    }
}
