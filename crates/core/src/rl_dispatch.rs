//! The MobiRescue dispatcher: SVM-predicted demand + RL dispatch
//! (Sections IV-B and IV-C).
//!
//! Every dispatch period the dispatcher (1) predicts the distribution of
//! potential rescue requests per segment with the SVM over live people
//! positions and disaster factors, (2) aggregates demand into zones (see
//! [`crate::zones`] for the action-space note), and (3) lets a learned
//! Q-network choose a destination zone — or stand-by — for every team
//! sequentially, decrementing remaining demand between teams. The Q-network
//! scores `(team, zone)` *feature* pairs (distance, live demand, predicted
//! demand, load, stand-by flag) with weights shared across zones, so one
//! simulated disaster day already provides hundreds of gradient steps per
//! zone-like situation. A team's candidates are fixed-size rows in one
//! reused buffer, scored in a single batched forward pass
//! ([`QScore::best`]), so the decide loop allocates nothing per candidate.
//!
//! The reward is Equation 5, `r = α·N^q − β·T^d − γ·N^m`, densified with a
//! demand-coverage shaping term, and is computed online from observed state
//! transitions so the model "keeps training while running"
//! (Section IV-C4).

use crate::predictor::RequestPredictor;
use crate::scenario::Scenario;
use crate::zones::{ZoneId, ZoneMap};
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_obs::PhaseTimer;
use mobirescue_rl::qscore::{PairTransition, QScore, QScoreConfig};
use mobirescue_roadnet::geo::HaversinePoint;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher};
use mobirescue_sim::types::{DispatchPlan, Order, RequestId};
use std::cell::Cell;
use std::collections::HashSet;

/// Dimension of one `(team, zone)` feature vector — the input width any
/// policy network handed to a dispatcher must match.
pub const FEATURE_DIM: usize = 6;

/// Reward weights and learning settings of the RL dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub struct RlDispatchConfig {
    /// Zone grid side length (zones = k²).
    pub zone_k: usize,
    /// Reward weight α on served requests.
    pub alpha: f64,
    /// Reward weight β on total driving delay (hours).
    pub beta: f64,
    /// Reward weight γ on the number of serving teams.
    pub gamma_weight: f64,
    /// Weight of SVM-predicted (vs. live) demand when targeting.
    pub predicted_weight: f64,
    /// Reward-shaping weight on demand coverage: each team choosing a zone
    /// immediately earns `min(remaining demand, capacity)/capacity` ×
    /// this, which gives the sparse Equation-5 reward a dense gradient
    /// toward "drive where requests are".
    pub shaping_coverage: f64,
    /// Hidden layers of the scoring network.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f64,
    /// TD discount.
    pub discount: f64,
    /// Learn on every n-th observed transition (cost control).
    pub learn_every: usize,
    /// Modeled computation latency per dispatch round, seconds (the paper
    /// reports <0.5 s once trained).
    pub latency_s: f64,
    /// Team capacity assumed when decrementing zone demand (match the
    /// simulator's).
    pub capacity: usize,
    /// Steps over which exploration anneals — size this to the offline
    /// training budget (≈ 0.5 × episodes × rounds × teams).
    pub eps_decay_steps: u64,
    /// Seed for the policy network.
    pub seed: u64,
}

impl Default for RlDispatchConfig {
    fn default() -> Self {
        Self {
            zone_k: 4,
            alpha: 10.0,
            beta: 0.5,
            gamma_weight: 0.02,
            predicted_weight: 0.6,
            shaping_coverage: 1.0,
            hidden: vec![32, 32],
            lr: 1e-3,
            discount: 0.9,
            learn_every: 2,
            latency_s: 0.4,
            capacity: 5,
            eps_decay_steps: 2_000,
            seed: 0,
        }
    }
}

/// One team's decision in a round, with the quantities its own reward
/// terms are computed from — Equation 5's global reward is decomposed per
/// decision so that each team's credit reflects *its* choice (a shared
/// scalar would make Q constant across actions).
#[derive(Debug, Clone)]
struct Decision {
    team_index: usize,
    /// Features of the chosen action.
    features: [f64; FEATURE_DIM],
    /// Demand coverage earned by this choice (`min(remaining, c)/c`).
    covered: f64,
    /// Estimated driving delay of this choice, seconds.
    delay_s: f64,
    /// Whether this choice deploys the team (counts toward N^m).
    serving: bool,
}

/// State/action bookkeeping of the previous dispatch round, used for the
/// online Equation-5 reward.
#[derive(Debug)]
struct PrevRound {
    decisions: Vec<Decision>,
    waiting_ids: HashSet<RequestId>,
}

/// The MobiRescue dispatcher (implements [`Dispatcher`]).
#[derive(Debug)]
pub struct MobiRescueDispatcher<'a> {
    config: RlDispatchConfig,
    scenario: &'a Scenario,
    zones: ZoneMap,
    matcher: MapMatcher,
    predictor: Option<RequestPredictor>,
    policy: QScore,
    training: bool,
    /// Zone anchors' positions (`None` for empty zones), held for the
    /// haversine distance from every team.
    anchor_pos: Vec<Option<HaversinePoint>>,
    /// Normalization scale for distances (city diameter, meters).
    diameter_m: f64,
    cached_pred_hour: Option<u32>,
    cached_pred: Vec<f64>,
    /// Per-round scratch (per-segment demand/live tallies and the candidate
    /// feature rows/actions), reused across every dispatch round so the
    /// epoch loop allocates nothing proportional to world size after the
    /// first tick.
    demand: Vec<f64>,
    live: Vec<f64>,
    cand_feats: Vec<[f64; FEATURE_DIM]>,
    cand_actions: Vec<Option<ZoneId>>,
    prev: Option<PrevRound>,
    observed: usize,
    phase_timer: PhaseTimer,
    predict_ms: Cell<u64>,
    /// Cumulative Equation-5 reward (diagnostics / training curves).
    pub episode_reward: f64,
}

impl<'a> MobiRescueDispatcher<'a> {
    /// Builds the dispatcher for an evaluation scenario. `predictor` is the
    /// SVM trained on the *training* scenario (pass `None` to ablate
    /// prediction and dispatch on live requests only).
    pub fn new(
        scenario: &'a Scenario,
        predictor: Option<RequestPredictor>,
        config: RlDispatchConfig,
    ) -> Self {
        let zones = ZoneMap::new(&scenario.city, config.zone_k);
        let matcher = MapMatcher::new(&scenario.city.network);
        let mut qcfg = QScoreConfig::new(FEATURE_DIM);
        qcfg.hidden = config.hidden.clone();
        qcfg.lr = config.lr;
        qcfg.gamma = config.discount;
        qcfg.seed = config.seed;
        qcfg.eps_decay_steps = config.eps_decay_steps;
        let policy = QScore::new(qcfg);
        let anchor_pos = (0..zones.num_zones())
            .map(|z| {
                zones
                    .anchor(ZoneId(z as u16))
                    .map(|lm| HaversinePoint::new(scenario.city.network.landmark(lm).position))
            })
            .collect();
        let bbox = scenario
            .city
            .network
            .bounding_box()
            .expect("city network is non-empty");
        let diameter_m = bbox.south_west.distance_m(bbox.north_east).max(1.0);
        Self {
            config,
            scenario,
            zones,
            matcher,
            predictor,
            policy,
            training: true,
            anchor_pos,
            diameter_m,
            cached_pred_hour: None,
            cached_pred: Vec::new(),
            demand: Vec::new(),
            live: Vec::new(),
            cand_feats: Vec::new(),
            cand_actions: Vec::new(),
            prev: None,
            observed: 0,
            phase_timer: PhaseTimer::disabled(),
            predict_ms: Cell::new(0),
            episode_reward: 0.0,
        }
    }

    /// Installs the clock SVM-prediction time is measured on; without one
    /// (the default) measurement is skipped entirely.
    pub fn set_time_source(&mut self, timer: PhaseTimer) {
        self.phase_timer = timer;
    }

    /// Milliseconds spent inside `predict_distribution` since the last
    /// call (reset on read). Cache hits cost ~0; the hourly cache miss is
    /// the SVM inference the serve runtime reports as the predict phase.
    pub fn take_predict_ms(&self) -> u64 {
        self.predict_ms.replace(0)
    }

    /// Switches between training (ε-greedy + online updates) and frozen
    /// greedy evaluation.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// The zone map in use.
    pub fn zones(&self) -> &ZoneMap {
        &self.zones
    }

    /// Direct access to the underlying policy (ablations, inspection).
    pub fn policy(&self) -> &QScore {
        &self.policy
    }

    /// Extracts the trained policy (to transplant it from the training
    /// scenario's dispatcher into the evaluation one, as the paper moves
    /// the Michael-trained model onto Florence).
    pub fn into_policy(self) -> QScore {
        self.policy
    }

    /// Builds a dispatcher around an already-trained policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy's feature dimension mismatches.
    pub fn with_policy(
        scenario: &'a Scenario,
        predictor: Option<RequestPredictor>,
        config: RlDispatchConfig,
        policy: QScore,
    ) -> Self {
        assert_eq!(
            policy.config().feature_dim,
            FEATURE_DIM,
            "policy feature dimension mismatch"
        );
        let mut d = Self::new(scenario, predictor, config);
        d.policy = policy;
        d
    }

    /// Clears cross-round state at an episode boundary (between simulated
    /// days during offline training).
    pub fn reset_episode(&mut self) {
        self.prev = None;
        self.cached_pred_hour = None;
        self.episode_reward = 0.0;
    }

    /// Refreshes the per-segment scratch tallies for this round:
    /// `self.demand` (live waiting requests plus weighted SVM prediction,
    /// the prediction cached per hour) and `self.live` (waiting requests
    /// only). Buffers are reused across rounds.
    fn refresh_demand(&mut self, state: &DispatchState<'_>) {
        let n = state.net.num_segments();
        if let Some(pred) = &self.predictor {
            if self.cached_pred_hour != Some(state.hour) {
                let t0 = self.phase_timer.now_ms();
                self.cached_pred =
                    pred.predict_distribution(self.scenario, &self.matcher, state.hour);
                self.predict_ms
                    .set(self.predict_ms.get() + self.phase_timer.elapsed_since(t0));
                self.cached_pred_hour = Some(state.hour);
            }
        } else if self.cached_pred.len() != n {
            self.cached_pred.clear();
            self.cached_pred.resize(n, 0.0);
        }
        self.demand.clear();
        self.demand.resize(n, 0.0);
        for (i, &p) in self.cached_pred.iter().enumerate() {
            self.demand[i] = p * self.config.predicted_weight;
        }
        self.live.clear();
        self.live.resize(n, 0.0);
        for r in state.waiting {
            self.demand[r.segment.index()] += 1.0;
            self.live[r.segment.index()] += 1.0;
        }
    }

    /// Candidate `(team, action)` features: one row per non-empty zone
    /// plus the final stand-by row. The decide loop uses
    /// [`fill_candidates`] with reused buffers instead; this owned variant
    /// serves the reward path, whose candidate sets outlive the round
    /// inside stored transitions.
    fn candidates(
        &self,
        team_pos: &HaversinePoint,
        onboard_frac: f64,
        remaining: &[f64],
        live_zone: &[f64],
    ) -> Vec<Vec<f64>> {
        let mut feats = Vec::with_capacity(self.zones.num_zones() + 1);
        let mut actions = Vec::with_capacity(self.zones.num_zones() + 1);
        fill_candidates(
            &self.anchor_pos,
            self.diameter_m,
            team_pos,
            onboard_frac,
            remaining,
            live_zone,
            &mut feats,
            &mut actions,
        );
        feats.iter().map(|row| row.to_vec()).collect()
    }

    /// The pickup segment for a team sent to `zone`: the *nearest* segment
    /// with a live (certain) request, else the most predicted-demand
    /// segment, else a segment at the zone anchor.
    fn target_segment_in(
        &self,
        zone: ZoneId,
        team_pos: &HaversinePoint,
        live: &[f64],
        demand: &[f64],
        state: &DispatchState<'_>,
    ) -> Option<SegmentId> {
        let segs = self.zones.segments_in(zone);
        let nearest_live = segs
            .iter()
            .filter(|s| live[s.index()] > 0.0)
            .map(|&s| {
                let mid = HaversinePoint::new(state.net.segment_midpoint(s));
                (s, mid.distance_m(team_pos))
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are never NaN"))
            .map(|(s, _)| s);
        nearest_live
            .or_else(|| {
                segs.iter()
                    .filter(|s| demand[s.index()] > 0.0 && state.condition.is_operable(**s))
                    .max_by(|a, b| {
                        demand[a.index()]
                            .partial_cmp(&demand[b.index()])
                            .expect("demand is never NaN")
                    })
                    .copied()
            })
            .or_else(|| {
                let anchor = self.zones.anchor(zone)?;
                state.net.out_segments(anchor).first().copied()
            })
    }
}

/// Writes one team's candidate `(team, action)` set into caller-owned
/// buffers: one fixed-size feature row per non-empty zone plus the final
/// stand-by row, with `actions[i] = Some(zone)` or `None` for stand-by.
/// Every dispatch round scores candidates for every free team, so the rows
/// live in one reused buffer the policy scores in a single batched pass —
/// the decide loop allocates nothing per candidate.
#[allow(clippy::too_many_arguments)]
fn fill_candidates(
    anchor_pos: &[Option<HaversinePoint>],
    diameter_m: f64,
    team_pos: &HaversinePoint,
    onboard_frac: f64,
    remaining: &[f64],
    live_zone: &[f64],
    feats: &mut Vec<[f64; FEATURE_DIM]>,
    actions: &mut Vec<Option<ZoneId>>,
) {
    let squash = |d: f64| d / (d + 3.0);
    let total: f64 = remaining.iter().sum();
    feats.clear();
    actions.clear();
    for (z, pos) in anchor_pos.iter().enumerate() {
        let Some(pos) = pos else { continue };
        feats.push([
            team_pos.distance_m(pos) / diameter_m,
            squash(remaining[z]),
            squash(live_zone[z]),
            squash(total),
            onboard_frac,
            0.0,
        ]);
        actions.push(Some(ZoneId(z as u16)));
    }
    feats.push([0.0, 0.0, 0.0, squash(total), onboard_frac, 1.0]);
    actions.push(None);
}

impl Dispatcher for MobiRescueDispatcher<'_> {
    fn name(&self) -> &str {
        if self.predictor.is_some() {
            "MobiRescue"
        } else {
            "MobiRescue-NoPredict"
        }
    }

    fn compute_latency_s(&self, _state: &DispatchState<'_>) -> f64 {
        self.config.latency_s
    }

    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        self.refresh_demand(state);
        let mut remaining = self.zones.aggregate_demand(&self.demand);
        let live_zone = self.zones.aggregate_demand(&self.live);
        // The waiting-id set only feeds the reward path; a frozen
        // dispatcher skips building it (HashSet::new is allocation-free).
        let now_waiting: HashSet<RequestId> = if self.training {
            state.waiting.iter().map(|r| r.id).collect()
        } else {
            HashSet::new()
        };

        // Online Equation-5 reward for the previous round.
        if self.training {
            if let Some(prev) = self.prev.take() {
                let served = prev
                    .waiting_ids
                    .iter()
                    .filter(|id| !now_waiting.contains(id))
                    .count();
                let n = prev.decisions.len().max(1) as f64;
                let total_delay: f64 = prev.decisions.iter().map(|d| d.delay_s).sum();
                let total_serving = prev.decisions.iter().filter(|d| d.serving).count() as f64;
                self.episode_reward += self.config.alpha * served as f64
                    - self.config.beta * (total_delay / 3_600.0)
                    - self.config.gamma_weight * total_serving;
                // The served term is shared (no per-team attribution is
                // observable); delay, deployment and coverage shaping are
                // each decision's own.
                let shared = self.config.alpha * served as f64 / n;
                for d in prev.decisions {
                    let reward = shared + self.config.shaping_coverage * d.covered
                        - self.config.beta * (d.delay_s / 3_600.0)
                        - self.config.gamma_weight * f64::from(d.serving);
                    let team = &state.teams[d.team_index];
                    let pos = HaversinePoint::new(state.net.landmark(team.location).position);
                    let mut next_candidates = self.candidates(
                        &pos,
                        team.onboard as f64 / self.config.capacity as f64,
                        &remaining,
                        &live_zone,
                    );
                    // Bound the stored candidate set: every replayed TD
                    // update evaluates all of them, which is quadratic pain
                    // at fine zone grids. Keep the highest-demand zones
                    // plus stand-by (the max rarely lives elsewhere).
                    const MAX_STORED_CANDIDATES: usize = 80;
                    if next_candidates.len() > MAX_STORED_CANDIDATES {
                        let standby = next_candidates.pop().expect("stand-by is always present");
                        next_candidates.sort_by(|a, b| {
                            (b[1], b[2])
                                .partial_cmp(&(a[1], a[2]))
                                .expect("features are never NaN")
                        });
                        next_candidates.truncate(MAX_STORED_CANDIDATES - 1);
                        next_candidates.push(standby);
                    }
                    let t = PairTransition {
                        features: d.features.to_vec(),
                        reward,
                        next_candidates,
                    };
                    self.observed += 1;
                    if self.observed.is_multiple_of(self.config.learn_every) {
                        let _ = self.policy.observe(t);
                    } else {
                        self.policy.store(t);
                    }
                }
            }
        }

        // Decide this round. Decisions are only recorded when the reward
        // path will consume them.
        let mut plan = DispatchPlan::none(state.teams.len());
        let mut decisions = Vec::new();
        for team in state.teams {
            if team.delivering || team.onboard >= self.config.capacity {
                continue;
            }
            let pos = HaversinePoint::new(state.net.landmark(team.location).position);
            let onboard_frac = team.onboard as f64 / self.config.capacity as f64;
            fill_candidates(
                &self.anchor_pos,
                self.diameter_m,
                &pos,
                onboard_frac,
                &remaining,
                &live_zone,
                &mut self.cand_feats,
                &mut self.cand_actions,
            );
            let idx = if self.training {
                self.policy.act(&self.cand_feats)
            } else {
                self.policy.best(&self.cand_feats)
            };
            let mut decision = Decision {
                team_index: team.id.index(),
                features: self.cand_feats[idx],
                covered: 0.0,
                delay_s: 0.0,
                serving: false,
            };
            match self.cand_actions[idx] {
                None => {
                    if !team.standby {
                        plan.orders[team.id.index()] = Some(Order::ReturnToBase);
                    }
                }
                Some(zone) => {
                    if let Some(seg) =
                        self.target_segment_in(zone, &pos, &self.live, &self.demand, state)
                    {
                        plan.orders[team.id.index()] = Some(Order::GoToSegment(seg));
                        let target = HaversinePoint::new(state.net.segment_midpoint(seg));
                        let cap = self.config.capacity as f64;
                        decision.serving = true;
                        decision.delay_s = pos.distance_m(&target) / 8.0;
                        decision.covered = remaining[zone.index()].min(cap) / cap;
                        remaining[zone.index()] = (remaining[zone.index()] - cap).max(0.0);
                    }
                }
            }
            if self.training {
                decisions.push(decision);
            }
        }

        if self.training {
            self.prev = Some(PrevRound {
                decisions,
                waiting_ids: now_waiting,
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{PredictorConfig, RequestPredictor};
    use crate::scenario::ScenarioConfig;
    use mobirescue_sim::dispatcher::NearestRequestDispatcher;
    use mobirescue_sim::types::{RequestSpec, SimConfig};

    fn florence() -> Scenario {
        ScenarioConfig::small().florence().build(47)
    }

    #[test]
    fn dispatches_without_crashing_and_orders_teams() {
        let scenario = florence();
        let michael = ScenarioConfig::small().michael().build(47);
        let predictor = RequestPredictor::train_on(&michael, &PredictorConfig::default());
        let mut d =
            MobiRescueDispatcher::new(&scenario, Some(predictor), RlDispatchConfig::default());
        let requests: Vec<RequestSpec> = (0..10)
            .map(|i| RequestSpec {
                appear_s: i * 200,
                segment: SegmentId((i * 31) % scenario.city.network.num_segments() as u32),
            })
            .collect();
        let cfg = SimConfig::small(24);
        let outcome = mobirescue_sim::run(
            &scenario.city,
            &scenario.conditions,
            &requests,
            &mut d,
            &cfg,
        );
        assert_eq!(outcome.dispatcher, "MobiRescue");
        assert!(outcome.dispatch_rounds > 0);
        assert!(outcome.total_served() > 0, "no requests served at all");
    }

    #[test]
    fn latency_is_sub_second() {
        let scenario = florence();
        let d = MobiRescueDispatcher::new(&scenario, None, RlDispatchConfig::default());
        assert!(d.config.latency_s < 0.5);
        assert_eq!(d.name(), "MobiRescue-NoPredict");
    }

    #[test]
    fn frozen_dispatcher_is_deterministic() {
        let scenario = florence();
        let requests: Vec<RequestSpec> = (0..8)
            .map(|i| RequestSpec {
                appear_s: i * 300,
                segment: SegmentId(i * 11),
            })
            .collect();
        let cfg = SimConfig::small(24);
        let run = |seed: u64| {
            let mut d = MobiRescueDispatcher::new(
                &scenario,
                None,
                RlDispatchConfig {
                    seed,
                    ..Default::default()
                },
            );
            d.set_training(false);
            mobirescue_sim::run(
                &scenario.city,
                &scenario.conditions,
                &requests,
                &mut d,
                &cfg,
            )
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn online_training_accumulates_reward_signal() {
        let scenario = florence();
        let mut d = MobiRescueDispatcher::new(&scenario, None, RlDispatchConfig::default());
        let requests: Vec<RequestSpec> = (0..20)
            .map(|i| RequestSpec {
                appear_s: i * 100,
                segment: SegmentId(i * 7),
            })
            .collect();
        let cfg = SimConfig::small(24);
        let _ = mobirescue_sim::run(
            &scenario.city,
            &scenario.conditions,
            &requests,
            &mut d,
            &cfg,
        );
        assert!(
            d.policy().learn_steps() > 0,
            "online training never learned"
        );
        d.reset_episode();
        assert_eq!(d.episode_reward, 0.0);
    }

    #[test]
    fn trained_policy_prefers_demand_zones() {
        // After offline training on its own scenario, the policy should
        // score "nearby zone full of requests" above "stand by" for an
        // empty team.
        let scenario = florence();
        let mut d = MobiRescueDispatcher::new(&scenario, None, RlDispatchConfig::default());
        let rescues = crate::predictor::mine_rescues(&scenario);
        let day = crate::training::busiest_request_day(&rescues).expect("rescues exist");
        let matcher = MapMatcher::new(&scenario.city.network);
        let requests = crate::training::requests_on_day(&scenario, &matcher, &rescues, day);
        let mut cfg = SimConfig::small(day * 24);
        cfg.duration_hours = 12;
        for _ in 0..4 {
            d.reset_episode();
            let _ = mobirescue_sim::run(
                &scenario.city,
                &scenario.conditions,
                &requests,
                &mut d,
                &cfg,
            );
        }
        // Near zone with live demand vs stand-by.
        let go = vec![0.05, 0.6, 0.6, 0.6, 0.0, 0.0];
        let stay = vec![0.0, 0.0, 0.0, 0.6, 0.0, 1.0];
        assert!(
            d.policy().q(&go) > d.policy().q(&stay),
            "go {} vs stay {}",
            d.policy().q(&go),
            d.policy().q(&stay)
        );
    }

    #[test]
    fn naive_baseline_still_works_side_by_side() {
        let scenario = florence();
        let requests: Vec<RequestSpec> = (0..10)
            .map(|i| RequestSpec {
                appear_s: i * 120,
                segment: SegmentId(i * 13),
            })
            .collect();
        let cfg = SimConfig::small(24);
        let naive = mobirescue_sim::run(
            &scenario.city,
            &scenario.conditions,
            &requests,
            &mut NearestRequestDispatcher::default(),
            &cfg,
        );
        assert!(naive.total_served() > 5);
    }
}
