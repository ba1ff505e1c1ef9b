//! Traced-run plumbing: a microsecond clock for the program's existing
//! phase timers, a dispatcher wrapper, and the span ledger written to
//! `target/mrbench/<workload>.trace.jsonl`.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer; the program itself only exposes its existing
//! `WorldPhases` and predict-time accumulators, which read in whatever
//! unit the installed [`TimeSource`] ticks in.

use mobirescue_core::rl_dispatch::MobiRescueDispatcher;
use mobirescue_obs::TimeSource;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher};
use mobirescue_sim::{DispatchPlan, WorldPhases};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A [`TimeSource`] that ticks once per microsecond. Installed through
/// `World::set_time_source` and `MobiRescueDispatcher::set_time_source`,
/// it makes `WorldPhases`' `*_ms` fields and `take_predict_ms` read
/// microseconds.
pub struct MicrosTime {
    origin: Instant,
}

impl MicrosTime {
    /// A clock reading zero now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl TimeSource for MicrosTime {
    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// A dispatcher whose SVM prediction time can be drained after a call.
pub trait Predicts: Dispatcher {
    /// Time spent predicting since the last call, in the installed time
    /// source's unit (reset on read).
    fn take_predict(&self) -> u64;
}

impl Predicts for MobiRescueDispatcher<'_> {
    fn take_predict(&self) -> u64 {
        self.take_predict_ms()
    }
}

/// One timed `Dispatcher::dispatch` call, in microseconds on the trace
/// clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCall {
    /// When the call started.
    pub start_us: u64,
    /// When it returned.
    pub end_us: u64,
    /// SVM prediction time inside it.
    pub predict_us: u64,
}

impl DispatchCall {
    /// Wall time of the call.
    pub fn dispatch_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Wraps the dispatcher under test and times every `dispatch` call on the
/// trace clock. Plans pass through untouched, so a traced run dispatches
/// exactly like an untraced one.
pub struct TimedDispatch<'d, D: Predicts> {
    inner: &'d mut D,
    clock: Arc<dyn TimeSource>,
    calls: Vec<DispatchCall>,
}

impl<'d, D: Predicts> TimedDispatch<'d, D> {
    /// Wraps `inner`, timing on `clock`.
    pub fn new(inner: &'d mut D, clock: Arc<dyn TimeSource>) -> Self {
        Self {
            inner,
            clock,
            calls: Vec::new(),
        }
    }

    /// Drains the calls recorded since the last drain.
    pub fn take_calls(&mut self) -> Vec<DispatchCall> {
        std::mem::take(&mut self.calls)
    }
}

impl<D: Predicts> Dispatcher for TimedDispatch<'_, D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compute_latency_s(&self, state: &DispatchState<'_>) -> f64 {
        self.inner.compute_latency_s(state)
    }

    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        let start_us = self.clock.now_ms();
        let plan = self.inner.dispatch(state);
        let end_us = self.clock.now_ms();
        self.calls.push(DispatchCall {
            start_us,
            end_us,
            predict_us: self.inner.take_predict(),
        });
        plan
    }
}

/// One epoch's time split over the layers of the dispatch path, in
/// microseconds. `ingest + tick + dispatch + advance` is everything the
/// engine attributes; the rest of the epoch's wall time is the residual.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochLayers {
    /// `sim`: injecting appearing requests.
    pub ingest_us: u64,
    /// `sim`: the dispatch tick minus the dispatcher call (team and
    /// request views, plan queueing).
    pub tick_us: u64,
    /// `core`: the dispatcher calls, SVM prediction included.
    pub dispatch_us: u64,
    /// `svm`: prediction inside the dispatcher calls.
    pub predict_us: u64,
    /// `sim` + `roadnet`: applying plans, route planning, moving teams.
    pub advance_us: u64,
}

impl EpochLayers {
    /// Splits one epoch's `phases` (read on a microsecond source) and its
    /// dispatcher `calls`.
    pub fn new(phases: WorldPhases, calls: &[DispatchCall]) -> Self {
        let dispatch_us: u64 = calls.iter().map(DispatchCall::dispatch_us).sum();
        Self {
            ingest_us: phases.ingest_ms,
            tick_us: phases.dispatch_ms.saturating_sub(dispatch_us),
            dispatch_us,
            predict_us: calls.iter().map(|c| c.predict_us).sum(),
            advance_us: phases.routing_ms,
        }
    }

    /// `core`: dispatch minus prediction (zone aggregation plus DQN
    /// candidate scoring).
    pub fn decide_us(&self) -> u64 {
        self.dispatch_us.saturating_sub(self.predict_us)
    }

    /// Everything the layers account for.
    pub fn attributed_us(&self) -> u64 {
        self.ingest_us + self.tick_us + self.dispatch_us + self.advance_us
    }
}

/// One span row: a layer's time within one epoch of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Pass index within the run.
    pub pass: usize,
    /// Epoch index within the pass.
    pub epoch: u32,
    /// Layer name, `module.operation`.
    pub layer: &'static str,
    /// When the layer first ran in this epoch, µs on the trace clock.
    pub start_us: u64,
    /// `start_us` plus the layer's total time in the epoch.
    pub end_us: u64,
    /// The enclosing layer, `None` for the epoch root.
    pub parent: Option<&'static str>,
}

impl Span {
    fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The in-memory span ledger of one run, written out when it ends.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records the span tree of one offline epoch: the epoch root, the
    /// engine phases, and the dispatcher call with its prediction.
    pub fn push_epoch(
        &mut self,
        pass: usize,
        epoch: u32,
        (start_us, end_us): (u64, u64),
        layers: &EpochLayers,
        call: Option<&DispatchCall>,
    ) {
        let mut span = |layer, start_us, dur_us, parent| {
            self.spans.push(Span {
                pass,
                epoch,
                layer,
                start_us,
                end_us: start_us + dur_us,
                parent,
            });
        };
        span("epoch", start_us, end_us.saturating_sub(start_us), None);
        span("sim.ingest", start_us, layers.ingest_us, Some("epoch"));
        // The tick runs at the epoch's first step, around the dispatcher
        // call; routing starts as the call returns.
        let (call_start, call_end) = call.map_or((start_us, start_us), |c| (c.start_us, c.end_us));
        span(
            "sim.tick",
            call_start,
            layers.tick_us + layers.dispatch_us,
            Some("epoch"),
        );
        if let Some(c) = call {
            span(
                "core.dispatch",
                c.start_us,
                c.dispatch_us(),
                Some("sim.tick"),
            );
            span(
                "svm.predict",
                c.start_us,
                c.predict_us,
                Some("core.dispatch"),
            );
        }
        span("sim.advance", call_end, layers.advance_us, Some("epoch"));
    }

    /// Total self time per layer (its spans' durations minus the parts
    /// their children cover), in first-seen layer order.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut children: BTreeMap<(usize, u32, &'static str), u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *children.entry((s.pass, s.epoch, parent)).or_default() += s.dur_us();
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get(&(s.pass, s.epoch, s.layer))
                .copied()
                .unwrap_or(0);
            if !totals.contains_key(s.layer) {
                order.push(s.layer);
            }
            *totals.entry(s.layer).or_default() += s.dur_us().saturating_sub(covered);
        }
        order.into_iter().map(|l| (l, totals[l])).collect()
    }

    /// A printable table of [`Trace::self_times`] with each layer's share
    /// of the whole.
    pub fn render_self_times(&self) -> String {
        let rows = self.self_times();
        let total: u64 = rows.iter().map(|(_, us)| us).sum();
        let mut out = String::from("layer self times (µs, share of the traced total):\n");
        for (layer, us) in rows {
            let share = 100.0 * us as f64 / total.max(1) as f64;
            let _ = writeln!(out, "  {layer:<16} {us:>14} {share:>6.2}%");
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"pass\":{},\"epoch\":{},\"layer\":\"{}\",\
                 \"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                s.pass, s.epoch, s.layer, s.start_us, s.end_us
            );
        }
        out
    }

    /// Writes [`Trace::to_jsonl`] to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl(workload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_core::scenario::ScenarioConfig;
    use mobirescue_obs::{ManualTime, PhaseTimer};
    use mobirescue_sim::{SimConfig, World};

    /// Stands in for the dispatcher under test: every call advances the
    /// manual clock by a fixed dispatch cost and reports a fixed
    /// prediction time.
    struct FakeDispatcher {
        clock: Arc<ManualTime>,
        cost_us: u64,
        predict_us: u64,
    }

    impl Dispatcher for FakeDispatcher {
        fn name(&self) -> &str {
            "fake"
        }
        fn compute_latency_s(&self, _state: &DispatchState<'_>) -> f64 {
            0.0
        }
        fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
            self.clock.advance_ms(self.cost_us);
            DispatchPlan::none(state.teams.len())
        }
    }

    impl Predicts for FakeDispatcher {
        fn take_predict(&self) -> u64 {
            self.predict_us
        }
    }

    #[test]
    fn micros_time_ticks_in_microseconds() {
        let t = MicrosTime::new();
        let a = t.now_ms();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let waited = t.now_ms() - a;
        assert!(
            waited >= 3_000,
            "3 ms must read at least 3000 µs, got {waited}"
        );
    }

    #[test]
    fn world_phases_read_the_installed_sources_microseconds() {
        let scenario = ScenarioConfig::small().build(3);
        let clock = Arc::new(ManualTime::new());
        let source: Arc<dyn TimeSource> = clock.clone();
        let mut world =
            World::new(&scenario.city, &scenario.conditions, &SimConfig::small(0)).unwrap();
        world.set_time_source(PhaseTimer::new(Arc::clone(&source)));
        let mut fake = FakeDispatcher {
            clock: Arc::clone(&clock),
            cost_us: 1_234,
            predict_us: 200,
        };
        let mut timed = TimedDispatch::new(&mut fake, source);
        world.run_epoch(&mut timed, 0.0);
        let phases = world.take_phases();
        // The clock only moves inside dispatch, by 1234 ticks of 1 µs.
        assert_eq!(
            (phases.ingest_ms, phases.dispatch_ms, phases.routing_ms),
            (0, 1_234, 0)
        );
        let calls = timed.take_calls();
        assert_eq!(
            calls,
            vec![DispatchCall {
                start_us: 0,
                end_us: 1_234,
                predict_us: 200
            }]
        );
        let layers = EpochLayers::new(phases, &calls);
        assert_eq!(layers.tick_us, 0, "tick = dispatch phase - dispatcher call");
        assert_eq!((layers.dispatch_us, layers.decide_us()), (1_234, 1_034));
        assert_eq!(layers.attributed_us(), 1_234);
    }

    #[test]
    fn self_time_subtracts_children() {
        let layers = EpochLayers {
            ingest_us: 10,
            tick_us: 5,
            dispatch_us: 100,
            predict_us: 40,
            advance_us: 300,
        };
        let call = DispatchCall {
            start_us: 1_010,
            end_us: 1_110,
            predict_us: 40,
        };
        let mut trace = Trace::default();
        trace.push_epoch(0, 0, (1_000, 1_420), &layers, Some(&call));
        let selfs: BTreeMap<_, _> = trace.self_times().into_iter().collect();
        assert_eq!(selfs["epoch"], 5, "residual: 420 - 10 - 105 - 300");
        assert_eq!(selfs["sim.ingest"], 10);
        assert_eq!(selfs["sim.tick"], 5);
        assert_eq!(selfs["core.dispatch"], 60);
        assert_eq!(selfs["svm.predict"], 40);
        assert_eq!(selfs["sim.advance"], 300);
        let text = trace.to_jsonl("paper_day");
        assert_eq!(text.lines().count(), 6);
        assert!(text.starts_with(
            "{\"workload\":\"paper_day\",\"pass\":0,\"epoch\":0,\"layer\":\"epoch\",\
             \"start_us\":1000,\"end_us\":1420,\"parent\":null}"
        ));
    }
}
