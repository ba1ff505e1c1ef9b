//! The SVM-based rescue-request predictor (Section IV-B).
//!
//! Trains Equation 1's classifier `f(p_q, h_q)` on the historical rescue
//! ground truth mined from a training scenario (Hurricane Michael in the
//! paper), then predicts the distribution of potential rescue requests
//! `ñ_e` per road segment (Equation 2) for the evaluation scenario.

use crate::scenario::Scenario;
use mobirescue_disaster::factors::FactorVector;
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_mobility::person::PersonId;
use mobirescue_mobility::rescue::{
    detect_deliveries, label_rescues, training_examples, LabeledExample, RescueRecord,
    DEFAULT_HOSPITAL_RADIUS_M, DEFAULT_MIN_STAY_MINUTES,
};
use mobirescue_roadnet::geo::GeoPoint;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_svm::{train, ConfusionMatrix, Kernel, SmoConfig, StandardScaler, SvmModel};

/// Predictor hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// SVM kernel (RBF by default, per the paper's non-linearity argument).
    pub kernel: Kernel,
    /// SMO trainer settings.
    pub smo: SmoConfig,
    /// Cap on training examples (SMO is O(n²) in memory); the set is
    /// class-balanced before capping.
    pub max_examples: usize,
    /// β² of the F-score the decision threshold is calibrated against
    /// (β² < 1 weighs precision over recall; dispatching to false
    /// positives wastes rescue teams).
    pub calibration_beta2: f64,
    /// Floor on training recall: the calibrated threshold may not push
    /// training-set recall below this (a predictor that predicts no demand
    /// is useless to the dispatcher).
    pub min_recall: f64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::Rbf { gamma: 0.5 },
            smo: SmoConfig {
                c: 2.0,
                ..SmoConfig::default()
            },
            max_examples: 1_200,
            calibration_beta2: 0.25,
            min_recall: 0.5,
        }
    }
}

/// Runs the Section III-B2 ground-truth pipeline on a scenario: detect
/// hospital deliveries in the GPS data, keep those whose previous position
/// was flooded.
pub fn mine_rescues(scenario: &Scenario) -> Vec<RescueRecord> {
    let hospitals: Vec<GeoPoint> = scenario
        .city
        .hospitals
        .iter()
        .map(|&h| scenario.city.network.landmark(h).position)
        .collect();
    let trajectories = scenario.generated.dataset.trajectories();
    let deliveries = detect_deliveries(
        &trajectories,
        &hospitals,
        DEFAULT_HOSPITAL_RADIUS_M,
        DEFAULT_MIN_STAY_MINUTES,
    );
    label_rescues(&deliveries, &scenario.disaster)
}

/// The trained rescue-request predictor.
#[derive(Debug, Clone)]
pub struct RequestPredictor {
    scaler: StandardScaler,
    model: SvmModel,
    /// Calibrated decision threshold: predict positive when the SVM
    /// decision value exceeds it (chosen to maximize F₀.₅ on the training
    /// set — rescue dispatch wants high precision, since false positives
    /// send teams into empty streets).
    threshold: f64,
    trained_on: String,
    num_training_examples: usize,
}

impl RequestPredictor {
    /// Trains on a scenario's mined ground truth (the paper trains on
    /// Hurricane Michael).
    ///
    /// # Panics
    ///
    /// Panics if the scenario yields no positive or no negative examples.
    pub fn train_on(scenario: &Scenario, config: &PredictorConfig) -> Self {
        let rescues = mine_rescues(scenario);
        let examples = training_examples(&scenario.generated.dataset, &scenario.disaster, &rescues);
        Self::train_on_examples(&examples, config, &scenario.hurricane().name)
    }

    /// Trains directly on labelled examples.
    ///
    /// # Panics
    ///
    /// Panics if either class is absent.
    pub fn train_on_examples(
        examples: &[LabeledExample],
        config: &PredictorConfig,
        source: &str,
    ) -> Self {
        let positives: Vec<&LabeledExample> = examples.iter().filter(|e| e.needs_rescue).collect();
        let negatives: Vec<&LabeledExample> = examples.iter().filter(|e| !e.needs_rescue).collect();
        assert!(!positives.is_empty(), "no positive training examples");
        assert!(!negatives.is_empty(), "no negative training examples");
        // Class-balance (at most 2 negatives per positive) and cap.
        let per_class = (config.max_examples / 2).max(1);
        let pos_take = positives.len().min(per_class);
        let neg_take = negatives
            .len()
            .min((pos_take * 2).min(config.max_examples - pos_take));
        let take_evenly = |v: &[&LabeledExample], n: usize| -> Vec<LabeledExample> {
            let step = (v.len() as f64 / n as f64).max(1.0);
            (0..n)
                .map(|i| *v[((i as f64 * step) as usize).min(v.len() - 1)])
                .collect()
        };
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for e in take_evenly(&positives, pos_take) {
            rows.push(e.factors.as_array().to_vec());
            labels.push(1.0);
        }
        for e in take_evenly(&negatives, neg_take) {
            rows.push(e.factors.as_array().to_vec());
            labels.push(-1.0);
        }
        let scaler = StandardScaler::fit(&rows);
        let scaled = scaler.transform_all(&rows);
        let model = train(&scaled, &labels, config.kernel, &config.smo);
        // Calibrate the decision threshold on the *full* example set (not
        // just the balanced subsample) for maximal F₀.₅.
        let all_rows: Vec<Vec<f64>> = examples
            .iter()
            .map(|e| scaler.transform(&e.factors.as_array()))
            .collect();
        let decisions: Vec<f64> = all_rows
            .iter()
            .map(|r| model.decision_function(r))
            .collect();
        let labels: Vec<bool> = examples.iter().map(|e| e.needs_rescue).collect();
        let mut threshold = calibrate_threshold(&decisions, &labels, config.calibration_beta2);
        // Never let precision-tuning push training recall below the
        // configured floor: a dispatcher that predicts no demand is
        // useless, and flood factors drift over the day (rain decays while
        // water lingers).
        let mut pos_decisions: Vec<f64> = decisions
            .iter()
            .zip(&labels)
            .filter(|(_, &y)| y)
            .map(|(&d, _)| d)
            .collect();
        pos_decisions.sort_by(|a, b| a.partial_cmp(b).expect("decisions are never NaN"));
        if !pos_decisions.is_empty() {
            let q = (1.0 - config.min_recall.clamp(0.0, 1.0)).min(0.999);
            let idx = ((pos_decisions.len() as f64 * q) as usize).min(pos_decisions.len() - 1);
            threshold = threshold.min(pos_decisions[idx] - 1e-9);
        }
        Self {
            scaler,
            model,
            threshold,
            trained_on: source.to_owned(),
            num_training_examples: rows.len(),
        }
    }

    /// Name of the disaster the predictor was trained on.
    pub fn trained_on(&self) -> &str {
        &self.trained_on
    }

    /// Number of examples used in training (after balancing/capping).
    pub fn num_training_examples(&self) -> usize {
        self.num_training_examples
    }

    /// Equation 1: should the person with factor vector `h` be rescued?
    pub fn predict(&self, factors: &FactorVector) -> bool {
        self.decision_value(factors) > self.threshold
    }

    /// The calibrated decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Raw SVM decision value for `h`.
    pub fn decision_value(&self, factors: &FactorVector) -> f64 {
        self.model
            .decision_function(&self.scaler.transform(&factors.as_array()))
    }

    /// Equation 2: the predicted number of potential rescue requests per
    /// road segment `ñ_e`, from everyone's latest known position at `hour`
    /// (falling back to home anchors per Section IV-C5's extension when a
    /// person has no recent ping).
    ///
    /// Inference is batched: all factor rows are standardized into one flat
    /// buffer and scored with a single [`SvmModel::decision_batch`] call,
    /// then only the positives pay for map matching. Per-row math matches
    /// the scalar [`RequestPredictor::predict`] path bit-for-bit.
    pub fn predict_distribution(
        &self,
        scenario: &Scenario,
        matcher: &MapMatcher,
        hour: u32,
    ) -> Vec<f64> {
        let net = &scenario.city.network;
        let mut out = vec![0.0; net.num_segments()];
        let positions = people_positions_at(scenario, hour);
        let dim = self.scaler.dim();
        let mut scaled = Vec::with_capacity(positions.len() * dim);
        for (_, position) in &positions {
            let factors = scenario.disaster.factors_at(*position, hour);
            self.scaler
                .transform_append(&factors.as_array(), &mut scaled);
        }
        let mut decisions = Vec::new();
        self.model.decision_batch(&scaled, dim, &mut decisions);
        for ((_, position), &d) in positions.iter().zip(&decisions) {
            if d > self.threshold {
                out[matcher.nearest_segment(net, *position).index()] += 1.0;
            }
        }
        out
    }
}

/// Picks the decision threshold maximizing the F_β score (with the given
/// β²) over labelled decision values; falls back to `0.0` for degenerate
/// inputs.
fn calibrate_threshold(decisions: &[f64], labels: &[bool], beta2: f64) -> f64 {
    debug_assert_eq!(decisions.len(), labels.len());
    let mut candidates: Vec<f64> = decisions.to_vec();
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("decisions are never NaN"));
    candidates.dedup();
    let mut best = (f64::NEG_INFINITY, 0.0);
    for window in candidates
        .windows(2)
        .map(|w| (w[0] + w[1]) / 2.0)
        .chain([0.0])
    {
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut fn_ = 0.0;
        for (&d, &y) in decisions.iter().zip(labels) {
            match (d > window, y) {
                (true, true) => tp += 1.0,
                (true, false) => fp += 1.0,
                (false, true) => fn_ += 1.0,
                (false, false) => {}
            }
        }
        let denom = (1.0 + beta2) * tp + fp + beta2 * fn_;
        let f = if denom > 0.0 {
            (1.0 + beta2) * tp / denom
        } else {
            0.0
        };
        if f > best.0 {
            best = (f, window);
        }
    }
    best.1
}

/// Everyone's latest known position at `hour`: the last ping in the
/// preceding 6 hours, else the person's home anchor (the Section IV-C5
/// fallback for unavailable real-time GPS).
pub fn people_positions_at(scenario: &Scenario, hour: u32) -> Vec<(PersonId, GeoPoint)> {
    let dataset = &scenario.generated.dataset;
    let cutoff = hour * 60 + 59;
    let floor = cutoff.saturating_sub(6 * 60);
    let mut latest: Vec<Option<GeoPoint>> = vec![None; dataset.num_people()];
    // Pings are sorted by (person, minute); a linear scan keeps the last
    // ping in the window per person.
    for ping in &dataset.pings {
        if ping.minute <= cutoff && ping.minute >= floor {
            latest[ping.person.index()] = Some(ping.position);
        }
    }
    dataset
        .people
        .iter()
        .map(|p| (p.id, latest[p.id.index()].unwrap_or(p.home)))
        .collect()
}

/// Per-segment prediction evaluation (Figures 15–16).
#[derive(Debug, Clone)]
pub struct SegmentEval {
    /// Confusion matrix per segment with at least one evaluated person.
    pub per_segment: Vec<(SegmentId, ConfusionMatrix)>,
    /// Pooled confusion matrix.
    pub overall: ConfusionMatrix,
}

impl SegmentEval {
    /// Per-segment accuracies (the Figure 15 CDF samples), over
    /// *informative* segments — those with at least one actual or one
    /// predicted rescue request. (Counting the vast majority of segments
    /// where nothing happens and nothing is predicted would pin every
    /// method's accuracy at 1.0; the paper's Figure 15 spreads well below
    /// that.)
    pub fn accuracies(&self) -> Vec<f64> {
        self.per_segment
            .iter()
            .filter(|(_, m)| m.tp + m.fn_ > 0 || m.tp + m.fp > 0)
            .filter_map(|(_, m)| m.accuracy())
            .collect()
    }

    /// Per-segment precisions (the Figure 16 CDF samples). Segments with
    /// actual requests but no predicted positives count as precision 0 —
    /// the predictor missed them entirely; segments without actual or
    /// predicted requests are skipped.
    pub fn precisions(&self) -> Vec<f64> {
        self.per_segment
            .iter()
            .filter(|(_, m)| m.tp + m.fn_ > 0 || m.tp + m.fp > 0)
            .map(|(_, m)| m.precision().unwrap_or(0.0))
            .collect()
    }

    /// Mean per-segment accuracy over informative segments.
    pub fn mean_accuracy(&self) -> f64 {
        mobirescue_mobility::stats::mean(&self.accuracies())
    }

    /// Mean per-segment precision over informative segments.
    pub fn mean_precision(&self) -> f64 {
        mobirescue_mobility::stats::mean(&self.precisions())
    }
}

/// Evaluates a person-level rescue prediction on one day of a scenario,
/// grouped per road segment: for every person, `predict(position, hour)` is
/// compared against whether the person actually issued a rescue request
/// that day (per the mined ground truth).
pub fn evaluate_per_segment(
    scenario: &Scenario,
    matcher: &MapMatcher,
    rescues: &[RescueRecord],
    day: u32,
    mut predict: impl FnMut(GeoPoint, u32) -> bool,
) -> SegmentEval {
    let net = &scenario.city.network;
    // Actually-rescued people on the target day, with their request info.
    // People rescued on *earlier* days are out of the population (already
    // in a hospital or shelter), so they are excluded.
    let mut actual: Vec<Option<(GeoPoint, u32)>> =
        vec![None; scenario.generated.dataset.num_people()];
    let mut already_rescued = vec![false; scenario.generated.dataset.num_people()];
    for r in rescues {
        if r.request_day() == day {
            actual[r.person.index()] = Some((r.request_position, r.request_minute / 60));
        } else if r.request_day() < day {
            already_rescued[r.person.index()] = true;
        }
    }
    let midday = day * 24 + 12;
    let positions = people_positions_at(scenario, midday);
    let mut per_segment: std::collections::HashMap<SegmentId, ConfusionMatrix> =
        std::collections::HashMap::new();
    let mut overall = ConfusionMatrix::default();
    for (person, default_pos) in positions {
        if already_rescued[person.index()] {
            continue;
        }
        // Rescued people are evaluated at their trapped position/time;
        // everyone else at their midday position.
        let (pos, hour, truth) = match actual[person.index()] {
            Some((p, h)) => (p, h, true),
            None => (default_pos, midday, false),
        };
        let pred = predict(pos, hour);
        let seg = matcher.nearest_segment(net, pos);
        per_segment.entry(seg).or_default().record(pred, truth);
        overall.record(pred, truth);
    }
    let mut per_segment: Vec<(SegmentId, ConfusionMatrix)> = per_segment.into_iter().collect();
    per_segment.sort_by_key(|(s, _)| *s);
    SegmentEval {
        per_segment,
        overall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn train_small() -> (Scenario, RequestPredictor) {
        let scenario = ScenarioConfig::small().michael().build(41);
        let predictor = RequestPredictor::train_on(&scenario, &PredictorConfig::default());
        (scenario, predictor)
    }

    #[test]
    fn trains_and_separates_obvious_cases() {
        let (scenario, predictor) = train_small();
        assert!(predictor.num_training_examples() > 20);
        // A trapped person's actual factors vs the same place on a calm day.
        let rescues = mine_rescues(&scenario);
        let r = rescues.first().expect("training scenario has rescues");
        let hour = (r.request_minute / 60).min(scenario.disaster.total_hours() - 1);
        let danger = scenario.disaster.factors_at(r.request_position, hour);
        let safe = scenario.disaster.factors_at(r.request_position, 24);
        assert!(
            predictor.predict(&danger),
            "trapped-person factors must trigger rescue"
        );
        assert!(
            !predictor.predict(&safe),
            "the same spot on a calm day must not"
        );
        assert!(predictor.decision_value(&danger) > predictor.decision_value(&safe));
        let _ = FactorVector::default();
    }

    #[test]
    fn generalizes_across_storms() {
        // Train on Michael, evaluate on Florence — the paper's transfer.
        let michael = ScenarioConfig::small().michael().build(42);
        let florence = ScenarioConfig::small().florence().build(42);
        let predictor = RequestPredictor::train_on(&michael, &PredictorConfig::default());
        let rescues = mine_rescues(&florence);
        assert!(!rescues.is_empty());
        // With only a handful of Michael positives at test scale the
        // calibrated threshold is noisy, so check the transfer at the
        // ranking level: Florence's trapped positions must score far above
        // the same city on a calm day.
        let mut trapped_scores = Vec::new();
        for r in &rescues {
            let hour = (r.request_minute / 60).min(florence.disaster.total_hours() - 1);
            trapped_scores.push(
                predictor.decision_value(&florence.disaster.factors_at(r.request_position, hour)),
            );
        }
        let mut calm_scores = Vec::new();
        for (_, pos) in people_positions_at(&florence, 24) {
            calm_scores.push(predictor.decision_value(&florence.disaster.factors_at(pos, 24)));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // Florence's stronger factors sit partly outside the Michael-trained
        // RBF's support, so scores shrink toward the bias — but the ranking
        // must survive the transfer.
        assert!(
            mean(&trapped_scores) > mean(&calm_scores) + 0.2,
            "trapped {:.3} vs calm {:.3}",
            mean(&trapped_scores),
            mean(&calm_scores)
        );
        let above = trapped_scores
            .iter()
            .filter(|&&s| s > mean(&calm_scores))
            .count();
        assert!(
            above * 10 >= trapped_scores.len() * 7,
            "{above}/{} rank above calm",
            trapped_scores.len()
        );
    }

    #[test]
    fn distribution_concentrates_during_disaster() {
        // Train and evaluate on the same (stronger) Florence storm — this
        // test is about the distribution, not cross-storm transfer.
        let scenario = ScenarioConfig::small().florence().build(41);
        let predictor = RequestPredictor::train_on(&scenario, &PredictorConfig::default());
        let matcher = MapMatcher::new(&scenario.city.network);
        let calm = predictor.predict_distribution(&scenario, &matcher, 24);
        // Evaluate at the rain peak — when factors scream danger and new
        // trappings actually happen (12 h later the rain has passed and
        // the remaining trapped population has already requested help).
        let peak_hour = scenario.hurricane().timeline.peak_hour();
        let peak = predictor.predict_distribution(&scenario, &matcher, peak_hour);
        let calm_total: f64 = calm.iter().sum();
        let peak_total: f64 = peak.iter().sum();
        assert!(
            peak_total > calm_total,
            "predicted demand should spike during the storm: calm {calm_total}, peak {peak_total}"
        );
    }

    #[test]
    fn batched_distribution_matches_scalar_predictions() {
        let (scenario, predictor) = train_small();
        let matcher = MapMatcher::new(&scenario.city.network);
        let hour = scenario.hurricane().timeline.peak_hour();
        let batched = predictor.predict_distribution(&scenario, &matcher, hour);
        let mut scalar = vec![0.0; scenario.city.network.num_segments()];
        for (_, pos) in people_positions_at(&scenario, hour) {
            let factors = scenario.disaster.factors_at(pos, hour);
            if predictor.predict(&factors) {
                scalar[matcher.nearest_segment(&scenario.city.network, pos).index()] += 1.0;
            }
        }
        assert_eq!(batched, scalar, "batched SVM path must be bit-identical");
    }

    #[test]
    fn positions_fall_back_to_home() {
        let (scenario, _) = train_small();
        let positions = people_positions_at(&scenario, 2);
        assert_eq!(positions.len(), scenario.generated.dataset.num_people());
    }

    #[test]
    fn segment_eval_produces_confusions() {
        let (scenario, predictor) = train_small();
        let matcher = MapMatcher::new(&scenario.city.network);
        let rescues = mine_rescues(&scenario);
        let day = scenario.hurricane().timeline.disaster_start_day + 1;
        let eval = evaluate_per_segment(&scenario, &matcher, &rescues, day, |pos, hour| {
            predictor.predict(&scenario.disaster.factors_at(pos, hour))
        });
        let population = scenario.generated.dataset.num_people();
        assert!(
            eval.overall.total() <= population && eval.overall.total() > population / 2,
            "evaluated {} of {population} (previously-rescued people are excluded)",
            eval.overall.total()
        );
        assert!(!eval.per_segment.is_empty());
        let acc = eval.accuracies();
        assert!(acc.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }
}
