//! World-state snapshot/restore in the workspace's dependency-free text
//! style (`svm::persist`, `rl::persist`).
//!
//! A snapshot taken at an epoch boundary captures everything the engine
//! needs to resume mid-disaster: the clock, every request outcome so far,
//! the per-segment waiting queues (in pickup order), each team's mission,
//! route and load, the not-yet-applied dispatch plans, and the metric
//! accumulators. Restoring onto the *same* city and conditions yields a
//! [`World`](super::World) that continues the run step-for-step
//! identically — the recovery path of the `mobirescue-serve` runtime.
//!
//! The format is line-oriented, versioned (`mrworld 1` header), and emits
//! floats with `{:?}` (shortest round-tripping representation), so
//! snapshot → restore → snapshot is byte-stable. Restore reads through
//! [`crate::record`], which range-checks every request, landmark and
//! segment reference.

use super::{Mission, World, WorldError};
use crate::record::{open_snapshot, seal_snapshot, Reader, Record, RecordError};
use crate::types::{
    DispatchPlan, Order, RequestId, RequestOutcome, RequestSpec, SimConfig, TeamId,
};
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::graph::{LandmarkId, SegmentId};
use std::fmt::Write as _;

/// Upper bound on a restored team capacity (the per-team onboard stride
/// the team arena allocates).
const MAX_CAPACITY: usize = 1 << 16;

fn bad(why: impl Into<String>) -> WorldError {
    WorldError::BadSnapshot(why.into())
}

fn opt_u32(v: Option<u32>) -> String {
    v.map_or_else(|| "-".into(), |x| x.to_string())
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |x| format!("{x:?}"))
}

fn mission_token(m: Mission) -> String {
    match m {
        Mission::Standby => "s".into(),
        Mission::ToSegment(seg) => format!("g{}", seg.0),
        Mission::ToHospital => "h".into(),
        Mission::ToBase => "b".into(),
    }
}

/// The segment of a `g<segment>` goal token, range-checked like every
/// other segment field.
fn goal(r: &Record, tok: &str, num_segments: usize) -> Result<SegmentId, RecordError> {
    tok.strip_prefix('g')
        .and_then(|n| n.parse::<u32>().ok())
        .filter(|&n| (n as usize) < num_segments)
        .map(SegmentId)
        .ok_or_else(|| r.fail(format!("bad goal `{tok}`")))
}

fn parse_mission(r: &mut Record, num_segments: usize) -> Result<Mission, RecordError> {
    Ok(match r.token("mission")? {
        "s" => Mission::Standby,
        "h" => Mission::ToHospital,
        "b" => Mission::ToBase,
        tok => Mission::ToSegment(goal(r, tok, num_segments)?),
    })
}

fn order_token(o: Option<Order>) -> String {
    match o {
        None => "-".into(),
        Some(Order::GoToSegment(seg)) => format!("g{}", seg.0),
        Some(Order::ReturnToBase) => "b".into(),
    }
}

fn parse_order(r: &mut Record, num_segments: usize) -> Result<Option<Order>, RecordError> {
    Ok(match r.token("order")? {
        "-" => None,
        "b" => Some(Order::ReturnToBase),
        tok => Some(Order::GoToSegment(goal(r, tok, num_segments)?)),
    })
}

impl World<'_> {
    /// Serializes the full world state to the versioned text format.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::from("mrworld 1\n");
        let c = &self.config;
        let _ = writeln!(
            out,
            "config {} {} {} {} {} {} {} {}",
            c.num_teams,
            c.capacity,
            c.dispatch_period_s,
            c.pickup_service_s,
            c.start_hour,
            c.duration_hours,
            c.timely_threshold_s,
            c.sample_positions_every_s
                .map_or_else(|| "-".into(), |v| v.to_string()),
        );
        let _ = writeln!(
            out,
            "clock {} {} {} {} {}",
            self.now,
            self.next_spec,
            self.dispatch_rounds,
            self.unroutable_orders,
            self.waiting_at_last_tick
        );
        for (id, spec) in &self.specs {
            let _ = writeln!(out, "spec {} {} {}", id.0, spec.appear_s, spec.segment.0);
        }
        for i in 0..self.requests.len() {
            let o = self.requests.outcome(i);
            let _ = writeln!(
                out,
                "outcome {} {} {} {} {} {} {}",
                o.id.0,
                o.spec.appear_s,
                o.spec.segment.0,
                opt_u32(o.picked_up_s),
                opt_u32(o.delivered_s),
                o.team.map_or_else(|| "-".into(), |t| t.0.to_string()),
                opt_f64(o.driving_delay_s),
            );
        }
        // Sorted by segment for byte stability (queue order within a
        // segment is pickup order and is preserved as-is).
        for seg in self.waiting.present_sorted() {
            let _ = write!(out, "wait {}", seg.0);
            for id in self.waiting.ids(seg) {
                let _ = write!(out, " {}", id.0);
            }
            out.push('\n');
        }
        for ti in 0..self.teams.len() {
            let _ = write!(
                out,
                "team {} {:?} {:?} {} {} route",
                self.teams.location[ti].0,
                self.teams.seg_remaining_s[ti],
                self.teams.stall_s[ti],
                self.teams.order_start_s[ti],
                mission_token(self.teams.mission[ti]),
            );
            for seg in &self.teams.routes[ti] {
                let _ = write!(out, " {}", seg.0);
            }
            let _ = write!(out, " onboard");
            for id in self.teams.onboard(ti) {
                let _ = write!(out, " {}", id.0);
            }
            out.push('\n');
        }
        for (apply_at, plan) in &self.pending_plans {
            let _ = write!(out, "plan {}", apply_at);
            for &o in &plan.orders {
                let _ = write!(out, " {}", order_token(o));
            }
            out.push('\n');
        }
        for &(s, n) in &self.serving_per_tick {
            let _ = writeln!(out, "tick {s} {n}");
        }
        for (ti, row) in self.team_served.iter().enumerate() {
            let _ = write!(out, "served {ti}");
            for v in row {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        for (s, positions) in &self.position_samples {
            let _ = write!(out, "possample {s}");
            for p in positions {
                let _ = write!(out, " {}", p.0);
            }
            out.push('\n');
        }
        out.push_str("end\n");
        seal_snapshot(out)
    }

    /// Rebuilds a world from a snapshot over the *same* city and
    /// conditions it was taken from.
    ///
    /// # Errors
    ///
    /// Returns [`WorldError::BadSnapshot`] on any malformed or truncated
    /// input, and the usual construction errors when the embedded config
    /// does not fit `city`/`conditions`.
    pub fn restore_text<'a>(
        city: &'a City,
        conditions: &'a HourlyConditions,
        text: &str,
    ) -> Result<World<'a>, WorldError> {
        // Integrity first: a snapshot that fails its checksum is rejected
        // before a single record is interpreted.
        let body = open_snapshot(text).map_err(bad)?;
        let mut reader = Reader::open(body, "mrworld 1")?;
        // The config sizes the arenas `World::new` allocates, so it is
        // bounded before anything is built: every team has its own record,
        // the window lies inside the scenario's hours, and the onboard
        // stride stays below `MAX_CAPACITY`.
        let hours = conditions.hours() as usize;
        let mut r = reader.expect("config")?;
        let config = SimConfig {
            num_teams: r.below(body.lines().count(), "num_teams")?,
            capacity: r.below(MAX_CAPACITY, "capacity")?,
            dispatch_period_s: r.field("dispatch_period_s")?,
            pickup_service_s: r.field("pickup_service_s")?,
            start_hour: r.below(hours, "start_hour")?,
            duration_hours: r.below(hours + 1, "duration_hours")?,
            timely_threshold_s: r.field("timely_threshold_s")?,
            sample_positions_every_s: r.opt(|r| r.field("sample_positions_every_s"))?,
        };
        r.finish()?;
        let mut world = World::new(city, conditions, &config)?;
        let mut r = reader.expect("clock")?;
        world.now = r.field("now")?;
        world.next_spec = r.field("next_spec")?;
        world.dispatch_rounds = r.field("dispatch_rounds")?;
        world.unroutable_orders = r.field("unroutable_orders")?;
        world.waiting_at_last_tick = r.field("waiting_at_last_tick")?;
        r.finish()?;

        // Restored collections replace the fresh ones wholesale. Every
        // reference is range-checked against what it points into, so a
        // restored world never indexes past its arenas or the network.
        world.teams.clear();
        world.team_served.clear();
        let num_segments = city.network.num_segments();
        let num_landmarks = city.network.num_landmarks();
        while let Some(mut r) = reader.next_record()? {
            // Outcomes precede every record that references a request.
            let outcomes = world.requests.len();
            match r.tag {
                "spec" => {
                    let id = RequestId(r.field("id")?);
                    let appear_s = r.field("appear_s")?;
                    let segment = SegmentId(r.below(num_segments, "segment")?);
                    world.specs.push((id, RequestSpec { appear_s, segment }));
                }
                "outcome" => {
                    let id: usize = r.field("id")?;
                    if id != outcomes {
                        return Err(bad(format!("outcome id {id} out of order")));
                    }
                    world.requests.push_outcome(&RequestOutcome {
                        id: RequestId(id as u32),
                        spec: RequestSpec {
                            appear_s: r.field("appear_s")?,
                            segment: SegmentId(r.below(num_segments, "segment")?),
                        },
                        picked_up_s: r.opt(|r| r.field("picked_up_s"))?,
                        delivered_s: r.opt(|r| r.field("delivered_s"))?,
                        team: r.opt(|r| r.below(config.num_teams, "team").map(TeamId))?,
                        driving_delay_s: r.opt(|r| r.field("driving_delay_s"))?,
                    });
                }
                "wait" => {
                    let seg = SegmentId(r.below(num_segments, "segment")?);
                    let ids = r.all(|r| r.below(outcomes, "request id").map(RequestId))?;
                    world.waiting.set_entry(seg, ids);
                }
                "team" => {
                    let location = LandmarkId(r.below(num_landmarks, "location")?);
                    let seg_remaining_s = r.field("seg_remaining_s")?;
                    let stall_s = r.field("stall_s")?;
                    let order_start_s = r.field("order_start_s")?;
                    let mission = parse_mission(&mut r, num_segments)?;
                    r.until("route")?.finish()?;
                    let route = r
                        .until("onboard")?
                        .all(|r| r.below(num_segments, "route segment").map(SegmentId))?;
                    let onboard = r.all(|r| r.below(outcomes, "onboard id").map(RequestId))?;
                    if !world.teams.push(
                        location,
                        route.into(),
                        seg_remaining_s,
                        stall_s,
                        &onboard,
                        mission,
                        order_start_s,
                    ) {
                        return Err(bad("team onboard exceeds capacity"));
                    }
                }
                "plan" => {
                    let apply_at = r.field("apply_at")?;
                    let orders = r.all(|r| parse_order(r, num_segments))?;
                    world
                        .pending_plans
                        .push_back((apply_at, DispatchPlan { orders }));
                }
                "tick" => {
                    let tick = (r.field("second")?, r.field("count")?);
                    world.serving_per_tick.push(tick);
                }
                "served" => {
                    let ti: usize = r.field("team index")?;
                    if ti != world.team_served.len() {
                        return Err(bad(format!("served row {ti} out of order")));
                    }
                    let row = r.all(|r| r.field("served count"))?;
                    world.team_served.push(row);
                }
                "possample" => {
                    let s = r.field("second")?;
                    let positions =
                        r.all(|r| r.below(num_landmarks, "landmark").map(LandmarkId))?;
                    world.position_samples.push((s, positions));
                }
                other => return Err(bad(format!("unknown record `{other}`"))),
            }
            r.finish()?;
        }
        if world.teams.len() != config.num_teams || world.team_served.len() != config.num_teams {
            return Err(bad(format!(
                "snapshot has {} teams and {} served rows, config says {}",
                world.teams.len(),
                world.team_served.len(),
                config.num_teams
            )));
        }
        if world.next_spec > world.specs.len() {
            return Err(bad("next_spec beyond scheduled specs"));
        }
        let outcomes = world.requests.len();
        if let Some((id, _)) = world.specs.iter().find(|(id, _)| id.index() >= outcomes) {
            return Err(bad(format!("spec id {} has no outcome record", id.0)));
        }
        Ok(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::NearestRequestDispatcher;
    use crate::engine::World;
    use mobirescue_disaster::hurricane::Hurricane;
    use mobirescue_disaster::scenario::DisasterScenario;
    use mobirescue_roadnet::generator::CityConfig;

    fn fixture() -> (City, HourlyConditions) {
        let city = CityConfig::small().build(5);
        let disaster = DisasterScenario::new(&city, Hurricane::florence(), 5);
        let conditions = HourlyConditions::compute(&city.network, &disaster);
        (city, conditions)
    }

    fn sample_requests(city: &City) -> Vec<RequestSpec> {
        let n = city.network.num_segments() as u32;
        (0..14)
            .map(|i| RequestSpec {
                appear_s: i * 173,
                segment: SegmentId((i * 37) % n),
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips_byte_stable() {
        let (city, conditions) = fixture();
        let config = SimConfig::small(0);
        let mut world = World::new(&city, &conditions, &config).unwrap();
        world.schedule_requests(&sample_requests(&city)).unwrap();
        let mut d = NearestRequestDispatcher::default();
        for _ in 0..3 {
            world.run_epoch(&mut d, 0.0);
        }
        let snap = world.snapshot_text();
        let restored = World::restore_text(&city, &conditions, &snap).unwrap();
        assert_eq!(
            restored.snapshot_text(),
            snap,
            "snapshot → restore → snapshot"
        );
    }

    #[test]
    fn restored_world_continues_identically() {
        let (city, conditions) = fixture();
        let config = SimConfig::small(0);
        let mut world = World::new(&city, &conditions, &config).unwrap();
        world.schedule_requests(&sample_requests(&city)).unwrap();
        let mut d = NearestRequestDispatcher::default();
        for _ in 0..2 {
            world.run_epoch(&mut d, 0.0);
        }
        let snap = world.snapshot_text();
        let mut restored = World::restore_text(&city, &conditions, &snap).unwrap();

        // The dispatcher is stateless, so original and restored evolve in
        // lockstep from the boundary.
        let mut d2 = NearestRequestDispatcher::default();
        for _ in 0..4 {
            world.run_epoch(&mut d, 0.0);
            restored.run_epoch(&mut d2, 0.0);
        }
        assert_eq!(world.snapshot_text(), restored.snapshot_text());
    }

    #[test]
    fn rejects_malformed_snapshots() {
        let (city, conditions) = fixture();
        let reject = |text: &str| {
            assert!(
                World::restore_text(&city, &conditions, text).is_err(),
                "snapshot should be rejected: {text:?}"
            );
        };
        // No/damaged checksum trailer (including the empty and headerless
        // inputs, which cannot carry a valid trailer at all).
        reject("");
        reject("nope\n");
        reject("mrworld 1\n");
        reject("mrworld 1\nend\nsum zzzz\n");
        reject("mrworld 1\nend\nsum 0000000000000000\n"); // wrong sum

        // Semantically malformed but correctly sealed bodies: the
        // checksum passes, the record validation still rejects.
        let sealed = |body: &str| seal_snapshot(body.to_owned());
        reject(&sealed("mrworld 1\n"));
        reject(&sealed("mrworld 1\nconfig 1 1 300 60 0 4 1800 -\n")); // no clock
        reject(&sealed(
            "mrworld 1\nconfig 1 1 300 60 0 4 1800 -\nclock 0 0 0 0 0\n",
        )); // no end
        reject(&sealed(
            "mrworld 1\nconfig 1 1 300 60 0 4 1800 -\nclock 0 0 0 0 0\nbogus record\nend\n",
        ));
        // Wrong team count vs config.
        reject(&sealed(
            "mrworld 1\nconfig 2 5 300 60 0 4 1800 -\nclock 0 0 0 0 0\nend\n",
        ));
        // Unknown segment in a spec.
        reject(&sealed(
            "mrworld 1\nconfig 1 5 300 60 0 4 1800 -\nclock 0 0 0 0 0\nspec 0 0 999999\nteam 0 0.0 0.0 0 s route onboard\nend\n",
        ));
    }

    /// Replaces one field of the first body line `pick` selects (it
    /// returns the field index to overwrite) and re-seals the body, so
    /// the checksum passes and only record validation stands between the
    /// edit and the engine.
    fn edit_sealed(snap: &str, value: &str, pick: impl Fn(&[&str]) -> Option<usize>) -> String {
        let mut edited = false;
        let mut out = String::new();
        for line in open_snapshot(snap).expect("sealed").lines() {
            let mut fields: Vec<&str> = line.split(' ').collect();
            if !edited {
                if let Some(i) = pick(&fields) {
                    fields[i] = value;
                    edited = true;
                }
            }
            out.push_str(&fields.join(" "));
            out.push('\n');
        }
        assert!(edited, "no line matched the edit");
        seal_snapshot(out)
    }

    #[test]
    fn sealed_out_of_range_references_are_refused() {
        let (city, conditions) = fixture();
        let config = SimConfig::small(0);
        let mut world = World::new(&city, &conditions, &config).unwrap();
        world.schedule_requests(&sample_requests(&city)).unwrap();
        let mut d = NearestRequestDispatcher::default();
        world.run_epoch(&mut d, 0.0);
        let snap = world.snapshot_text();
        let tagged = |tag: &'static str, i: usize| {
            move |f: &[&str]| (f[0] == tag && f.len() > i).then_some(i)
        };
        let cases = [
            ("wait id", edit_sealed(&snap, "99999", tagged("wait", 2))),
            (
                "team location",
                edit_sealed(&snap, "99999999", tagged("team", 1)),
            ),
            (
                "route segment",
                edit_sealed(&snap, "99999999", |f| {
                    let at = f.iter().position(|&t| t == "route")? + 1;
                    (f[0] == "team" && f[at] != "onboard").then_some(at)
                }),
            ),
            (
                "outcome segment",
                edit_sealed(&snap, "99999999", tagged("outcome", 3)),
            ),
        ];
        for (what, text) in cases {
            match World::restore_text(&city, &conditions, &text) {
                Err(WorldError::BadSnapshot(why)) => {
                    assert!(why.contains("out of range"), "{what}: {why}");
                }
                Err(other) => panic!("{what}: wrong error {other}"),
                Ok(_) => panic!("{what}: out-of-range reference restored"),
            }
        }
        // The unedited snapshot still restores.
        assert!(World::restore_text(&city, &conditions, &snap).is_ok());
    }
}
