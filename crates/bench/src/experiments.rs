//! One function per table/figure of the paper's evaluation.

use crate::report::{cdf_table, heading, series_table};
use mobirescue_core::analysis::DatasetAnalysis;
use mobirescue_core::experiment::{run_comparison, Comparison, ExperimentConfig, MethodResult};
use mobirescue_core::scenario::Scenario;
use mobirescue_mobility::stats::Cdf;
use mobirescue_roadnet::regions::RegionId;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Seconds: 12×12 city, 300 people, 8 teams.
    Small,
    /// Minutes: 24×24 city, 2,500 people, 60 teams.
    Medium,
    /// The paper's scale: 36×36 city, 8,590 people, 100 teams.
    Paper,
}

impl ExperimentScale {
    /// Parses `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(Self::Small),
            "medium" => Some(Self::Medium),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The experiment configuration at this scale.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Self::Small => ExperimentConfig::small(seed),
            Self::Medium => ExperimentConfig::medium(seed),
            Self::Paper => ExperimentConfig::paper(seed),
        }
    }
}

/// Everything needed to print the figures: the analysis pipeline output
/// and (for Figures 9–16) the full dispatch comparison.
#[derive(Debug)]
pub struct FigureContext {
    scale: ExperimentScale,
    seed: u64,
    florence_own: Option<Scenario>,
    analysis: DatasetAnalysis,
    comparison: Option<Comparison>,
}

impl FigureContext {
    /// Builds only the Section-III analysis (Table I, Figures 2–6).
    pub fn analysis_only(scale: ExperimentScale, seed: u64) -> Self {
        let florence = scale.config(seed).scenario.florence().build(seed);
        let analysis = DatasetAnalysis::run(&florence);
        Self {
            scale,
            seed,
            florence_own: Some(florence),
            analysis,
            comparison: None,
        }
    }

    /// Builds the full context including the dispatch comparison
    /// (Figures 9–16).
    pub fn build_full(scale: ExperimentScale, seed: u64) -> Self {
        let comparison = run_comparison(&scale.config(seed));
        let analysis = DatasetAnalysis::run(&comparison.florence);
        Self {
            scale,
            seed,
            florence_own: None,
            analysis,
            comparison: Some(comparison),
        }
    }

    /// The evaluation scenario.
    pub fn florence(&self) -> &Scenario {
        self.comparison
            .as_ref()
            .map(|c| &c.florence)
            .or(self.florence_own.as_ref())
            .expect("context always holds a scenario")
    }

    /// The dispatch comparison, if this context ran one.
    pub fn comparison(&self) -> Option<&Comparison> {
        self.comparison.as_ref()
    }

    /// The analysis-pipeline output.
    pub fn analysis(&self) -> &DatasetAnalysis {
        &self.analysis
    }

    /// The scale used.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The seed used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn timeline(&self) -> mobirescue_disaster::hurricane::Timeline {
        self.florence().hurricane().timeline
    }

    fn day_label(&self, day: u32) -> String {
        self.florence().hurricane().day_label(day)
    }

    /// The least-impacted (highest-altitude) region — the paper's "R1".
    fn r1(&self) -> RegionId {
        self.analysis
            .region_factors
            .iter()
            .max_by(|a, b| {
                a.altitude_m
                    .partial_cmp(&b.altitude_m)
                    .expect("altitudes are never NaN")
            })
            .expect("regions exist")
            .region
    }

    /// Table I.
    pub fn table1(&self) -> String {
        let mut out = heading(
            "Table I",
            "correlation between disaster-related factors and vehicle flow rate",
        );
        out.push('\n');
        match self.analysis.table1(self.florence()) {
            Some(t) => {
                out.push_str(&format!(
                    "paper:    precipitation -0.897   wind -0.781   altitude +0.739\n\
                     measured: precipitation {:+.3}   wind {:+.3}   altitude {:+.3}\n",
                    t.precipitation, t.wind, t.altitude
                ));
            }
            None => out.push_str("measured: undefined (degenerate data)\n"),
        }
        out
    }

    /// Figure 2: hourly flow of R1 vs R2 (downtown) before vs after the
    /// disaster.
    pub fn fig2(&self) -> String {
        let tl = self.timeline();
        let before_day = tl.disaster_start_day.saturating_sub(5);
        let after_day = (tl.disaster_end_day + 4).min(tl.total_days - 1);
        let r1 = self.r1();
        let r2 = self.florence().city.downtown_region();
        let f = self.florence();
        let fmt = |v: Vec<f64>| -> Vec<String> { v.iter().map(|x| format!("{x:.2}")).collect() };
        let xs: Vec<String> = (0..24).map(|h| h.to_string()).collect();
        let mut out = heading(
            "Fig 2",
            "hourly average vehicle flow rate of two regions before vs after disaster",
        );
        out.push_str(&format!(
            "\nR1 = {} (highest altitude), R2 = {} (downtown); before = {}, after = {}\n",
            r1,
            r2,
            self.day_label(before_day),
            self.day_label(after_day)
        ));
        out.push_str(&series_table(
            "hour",
            &xs,
            &[
                (
                    "R1-before",
                    fmt(self.analysis.hourly_region_flow(f, r1, before_day)),
                ),
                (
                    "R1-after",
                    fmt(self.analysis.hourly_region_flow(f, r1, after_day)),
                ),
                (
                    "R2-before",
                    fmt(self.analysis.hourly_region_flow(f, r2, before_day)),
                ),
                (
                    "R2-after",
                    fmt(self.analysis.hourly_region_flow(f, r2, after_day)),
                ),
            ],
        ));
        out
    }

    /// Figure 3: CDF of per-segment |before − after| average flow.
    pub fn fig3(&self) -> String {
        let tl = self.timeline();
        let before = tl.disaster_start_day.saturating_sub(5)..tl.disaster_start_day;
        let after = (tl.disaster_end_day + 1)..(tl.disaster_end_day + 6).min(tl.total_days);
        let cdf = self
            .analysis
            .flow_difference_cdf(self.florence(), before, after);
        let mut out = heading(
            "Fig 3",
            "CDF of per-segment difference of average vehicle flow rate before/after",
        );
        out.push('\n');
        out.push_str(&cdf_table("diff (veh/h)", &[("CDF", &cdf)], 12));
        out
    }

    /// Figure 4: regional distribution of rescued people.
    pub fn fig4(&self) -> String {
        let f = self.florence();
        let xs: Vec<String> = f.city.regions.region_ids().map(|r| r.to_string()).collect();
        let counts: Vec<String> = self
            .analysis
            .rescued_per_region
            .iter()
            .map(|n| n.to_string())
            .collect();
        let density: Vec<String> = f
            .city
            .regions
            .region_ids()
            .map(|r| {
                let n = self.analysis.rescued_per_region[r.index()] as f64;
                let lm = f.city.regions.landmarks_in(r).len().max(1) as f64;
                format!("{:.3}", n / lm)
            })
            .collect();
        let mut out = heading("Fig 4", "region distribution of rescued people");
        out.push('\n');
        out.push_str(&series_table(
            "region",
            &xs,
            &[("rescued", counts), ("per-landmark", density)],
        ));
        out.push_str(&format!("downtown region: {}\n", f.city.downtown_region()));
        out
    }

    /// Figure 5: per-region daily flow before/during/after the disaster.
    pub fn fig5(&self) -> String {
        let tl = self.timeline();
        let f = self.florence();
        let days: Vec<u32> = (tl.disaster_start_day.saturating_sub(3)
            ..(tl.disaster_end_day + 4).min(tl.total_days))
            .collect();
        let xs: Vec<String> = days
            .iter()
            .map(|&d| format!("{} ({})", self.day_label(d), tl.phase_of_day(d)))
            .collect();
        let series: Vec<(String, Vec<String>)> = f
            .city
            .regions
            .region_ids()
            .map(|r| {
                (
                    r.to_string(),
                    days.iter()
                        .map(|&d| {
                            format!(
                                "{:.2}",
                                self.analysis.flow.region_daily_avg(&f.city.regions, r, d)
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let series_ref: Vec<(&str, Vec<String>)> = series
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let mut out = heading(
            "Fig 5",
            "vehicle flow rate of each region before, during and after disaster",
        );
        out.push('\n');
        out.push_str(&series_table("day", &xs, &series_ref));
        out
    }

    /// Figure 6: people delivered to hospitals per day.
    pub fn fig6(&self) -> String {
        let tl = self.timeline();
        let xs: Vec<String> = (0..tl.total_days)
            .map(|d| format!("{} ({})", self.day_label(d), tl.phase_of_day(d)))
            .collect();
        let ys: Vec<String> = self
            .analysis
            .deliveries_per_day
            .iter()
            .map(|n| n.to_string())
            .collect();
        let mut out = heading("Fig 6", "# of people delivered to hospitals per day");
        out.push('\n');
        out.push_str(&series_table("day", &xs, &[("delivered", ys)]));
        out
    }

    fn need_comparison(&self) -> &Comparison {
        self.comparison
            .as_ref()
            .expect("this figure needs a full context (FigureContext::build_full)")
    }

    /// Figure 9: total timely served requests per hour, per method.
    pub fn fig9(&self) -> String {
        let cmp = self.need_comparison();
        let hours = cmp.results[0].outcome.config.duration_hours as usize;
        let xs: Vec<String> = (0..hours).map(|h| h.to_string()).collect();
        let series: Vec<(&str, Vec<String>)> = cmp
            .results
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    m.outcome
                        .timely_served_per_hour()
                        .iter()
                        .map(|n| n.to_string())
                        .collect(),
                )
            })
            .collect();
        let mut out = heading(
            "Fig 9",
            "total number of timely served rescue requests per hour",
        );
        out.push_str(&format!(
            "\nexperiment day {} ({}), {} requests, {} teams\n",
            cmp.experiment_day,
            self.day_label(cmp.experiment_day),
            cmp.num_requests,
            cmp.results[0].outcome.config.num_teams
        ));
        out.push_str(&series_table("hour", &xs, &series));
        let totals: Vec<String> = cmp
            .results
            .iter()
            .map(|m| format!("{} {}", m.name, m.outcome.total_timely_served()))
            .collect();
        out.push_str(&format!("totals: {}\n", totals.join(", ")));
        out
    }

    /// Figure 10: CDF of per-team served request counts.
    pub fn fig10(&self) -> String {
        let cmp = self.need_comparison();
        let cdfs: Vec<(String, Cdf)> = cmp
            .results
            .iter()
            .map(|m| (m.name.clone(), m.outcome.served_per_team_cdf()))
            .collect();
        let refs: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let mut out = heading(
            "Fig 10",
            "CDF of the numbers of served rescue requests of rescue teams",
        );
        out.push('\n');
        out.push_str(&cdf_table("served", &refs, 10));
        out
    }

    /// Figure 11: average driving delay per hour, per method (minutes).
    pub fn fig11(&self) -> String {
        let cmp = self.need_comparison();
        let hours = cmp.results[0].outcome.config.duration_hours as usize;
        let xs: Vec<String> = (0..hours).map(|h| h.to_string()).collect();
        let series: Vec<(&str, Vec<String>)> = cmp
            .results
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    m.outcome
                        .avg_driving_delay_per_hour()
                        .iter()
                        .map(|d| match d {
                            Some(s) => format!("{:.1}", s / 60.0),
                            None => "-".to_owned(),
                        })
                        .collect(),
                )
            })
            .collect();
        let mut out = heading("Fig 11", "average driving delay per hour (minutes)");
        out.push('\n');
        out.push_str(&series_table("hour", &xs, &series));
        out
    }

    /// Figure 12: CDF of driving delays (minutes).
    pub fn fig12(&self) -> String {
        let cmp = self.need_comparison();
        let cdfs: Vec<(String, Cdf)> = cmp
            .results
            .iter()
            .map(|m| {
                let minutes: Vec<f64> = m
                    .outcome
                    .requests
                    .iter()
                    .filter_map(|r| r.driving_delay_s)
                    .map(|s| s / 60.0)
                    .collect();
                (m.name.clone(), Cdf::new(minutes))
            })
            .collect();
        let refs: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let mut out = heading("Fig 12", "CDF of driving delays (minutes)");
        out.push('\n');
        out.push_str(&cdf_table("delay (min)", &refs, 10));
        out
    }

    /// Figure 13: CDF of rescue timeliness (minutes, includes dispatch
    /// computation delay).
    pub fn fig13(&self) -> String {
        let cmp = self.need_comparison();
        let cdfs: Vec<(String, Cdf)> = cmp
            .results
            .iter()
            .map(|m| {
                let minutes: Vec<f64> = m
                    .outcome
                    .requests
                    .iter()
                    .filter_map(|r| r.timeliness_s())
                    .map(|s| s as f64 / 60.0)
                    .collect();
                (m.name.clone(), Cdf::new(minutes))
            })
            .collect();
        let refs: Vec<(&str, &Cdf)> = cdfs.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let mut out = heading("Fig 13", "CDF of timeliness of rescuing (minutes)");
        out.push('\n');
        out.push_str(&cdf_table("timeliness (min)", &refs, 10));
        for (name, cdf) in &cdfs {
            if !cdf.is_empty() {
                out.push_str(&format!("{name}: median {:.1} min\n", cdf.quantile(0.5)));
            }
        }
        out
    }

    /// Figure 14: number of serving rescue teams per hour.
    pub fn fig14(&self) -> String {
        let cmp = self.need_comparison();
        let hours = cmp.results[0].outcome.config.duration_hours as usize;
        let xs: Vec<String> = (0..hours).map(|h| h.to_string()).collect();
        let series: Vec<(&str, Vec<String>)> = cmp
            .results
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    m.outcome
                        .avg_serving_teams_per_hour()
                        .iter()
                        .map(|n| format!("{n:.1}"))
                        .collect(),
                )
            })
            .collect();
        let mut out = heading("Fig 14", "number of serving rescue teams per hour");
        out.push('\n');
        out.push_str(&series_table("hour", &xs, &series));
        out
    }

    /// Figure 15: CDF of per-segment prediction accuracy.
    pub fn fig15(&self) -> String {
        let cmp = self.need_comparison();
        let mr = Cdf::new(cmp.prediction_mr.accuracies());
        let rescue = Cdf::new(cmp.prediction_rescue.accuracies());
        let mut out = heading(
            "Fig 15",
            "CDF of prediction accuracies of rescue requests on segments",
        );
        out.push('\n');
        out.push_str(&cdf_table(
            "accuracy",
            &[("MobiRescue", &mr), ("Rescue", &rescue)],
            10,
        ));
        out.push_str(&format!(
            "overall accuracy: MobiRescue {:.3}, Rescue {:.3}\n",
            cmp.prediction_mr.overall.accuracy().unwrap_or(0.0),
            cmp.prediction_rescue.overall.accuracy().unwrap_or(0.0)
        ));
        out
    }

    /// Figure 16: CDF of per-segment prediction precision.
    pub fn fig16(&self) -> String {
        let cmp = self.need_comparison();
        let mr = Cdf::new(cmp.prediction_mr.precisions());
        let rescue = Cdf::new(cmp.prediction_rescue.precisions());
        let mut out = heading(
            "Fig 16",
            "CDF of prediction precisions of rescue requests on segments",
        );
        out.push('\n');
        out.push_str(&cdf_table(
            "precision",
            &[("MobiRescue", &mr), ("Rescue", &rescue)],
            10,
        ));
        out.push_str(&format!(
            "overall precision: MobiRescue {:.3}, Rescue {:.3}\n",
            cmp.prediction_mr.overall.precision().unwrap_or(0.0),
            cmp.prediction_rescue.overall.precision().unwrap_or(0.0)
        ));
        out
    }

    /// Headline summary: the orderings the paper reports, with pass/fail
    /// marks.
    pub fn summary(&self) -> String {
        let cmp = self.need_comparison();
        let get = |name: &str| cmp.method(name);
        let mr = get("MobiRescue");
        let rescue = get("Rescue");
        let schedule = get("Schedule");
        let check = |ok: bool| if ok { "OK " } else { "MISS" };
        let mut out = heading("Summary", "paper orderings vs measured");
        out.push('\n');
        let served = (
            mr.outcome.total_timely_served(),
            rescue.outcome.total_timely_served(),
            schedule.outcome.total_timely_served(),
        );
        out.push_str(&format!(
            "[{}] timely served: MobiRescue > Rescue > Schedule   (measured {} / {} / {})\n",
            check(served.0 > served.1 && served.1 >= served.2),
            served.0,
            served.1,
            served.2
        ));
        let med = |m: &MethodResult| m.outcome.median_driving_delay_s().unwrap_or(f64::INFINITY);
        let delays = (med(mr), med(rescue), med(schedule));
        out.push_str(&format!(
            "[{}] median driving delay: MobiRescue < Rescue < Schedule   (measured {:.0}s / {:.0}s / {:.0}s)\n",
            check(delays.0 < delays.1 && delays.1 <= delays.2),
            delays.0,
            delays.1,
            delays.2
        ));
        let tmed = |m: &MethodResult| m.outcome.median_timeliness_s().unwrap_or(f64::INFINITY);
        let t = (tmed(mr), tmed(rescue), tmed(schedule));
        out.push_str(&format!(
            "[{}] median timeliness: MobiRescue << Schedule < Rescue   (measured {:.0}s / {:.0}s / {:.0}s)\n",
            check(t.0 < t.2 && t.2 <= t.1),
            t.0,
            t.2,
            t.1
        ));
        let s = (
            mr.outcome.mean_serving_teams(),
            rescue.outcome.mean_serving_teams(),
            schedule.outcome.mean_serving_teams(),
        );
        out.push_str(&format!(
            "[{}] serving teams: MobiRescue < Rescue ≈ Schedule   (measured {:.1} / {:.1} / {:.1})\n",
            check(s.0 < s.1 && s.0 < s.2),
            s.0,
            s.1,
            s.2
        ));
        let acc = (
            cmp.prediction_mr.mean_accuracy(),
            cmp.prediction_rescue.mean_accuracy(),
        );
        out.push_str(&format!(
            "[{}] prediction accuracy (per-segment mean): MobiRescue > Rescue   (measured {:.3} / {:.3})\n",
            check(acc.0 > acc.1),
            acc.0,
            acc.1
        ));
        let prec = (
            cmp.prediction_mr.mean_precision(),
            cmp.prediction_rescue.mean_precision(),
        );
        out.push_str(&format!(
            "[{}] prediction precision (per-segment mean): MobiRescue > Rescue   (measured {:.3} / {:.3})\n",
            check(prec.0 > prec.1),
            prec.0,
            prec.1
        ));
        out
    }

    /// Runs one experiment by id (`table1`, `fig2` … `fig16`, `summary`).
    pub fn run(&self, id: &str) -> Option<String> {
        Some(match id {
            "table1" => self.table1(),
            "fig2" => self.fig2(),
            "fig3" => self.fig3(),
            "fig4" => self.fig4(),
            "fig5" => self.fig5(),
            "fig6" => self.fig6(),
            "fig9" => self.fig9(),
            "fig10" => self.fig10(),
            "fig11" => self.fig11(),
            "fig12" => self.fig12(),
            "fig13" => self.fig13(),
            "fig14" => self.fig14(),
            "fig15" => self.fig15(),
            "fig16" => self.fig16(),
            "summary" => self.summary(),
            _ => return None,
        })
    }

    /// Experiment ids that need only the analysis pipeline.
    pub fn analysis_ids() -> &'static [&'static str] {
        &["table1", "fig2", "fig3", "fig4", "fig5", "fig6"]
    }

    /// Experiment ids that need the dispatch comparison.
    pub fn comparison_ids() -> &'static [&'static str] {
        &[
            "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "summary",
        ]
    }
}
