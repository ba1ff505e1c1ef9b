//! Renders the scenario map (streets, flood, hospitals, rescue requests) to
//! an SVG file.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin render_map -- \
//!     [--scale small|medium|paper] [--seed N] [--hour H|peak] [--out map.svg]
//! ```

use mobirescue_bench::svgmap::{render_map, MapStyle};
use mobirescue_bench::{cli, ExperimentScale};
use mobirescue_core::predictor::mine_rescues;
use mobirescue_disaster::hurricane::Hurricane;

fn main() {
    let mut scale = ExperimentScale::Small;
    let mut seed = 42u64;
    // `None` renders the peak hour.
    let mut hour: Option<u32> = None;
    let mut out = "map.svg".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = cli::scale(&mut args, "render_map"),
            "--seed" => seed = cli::count(&mut args, "render_map", "--seed"),
            // Every scale renders Florence, so the hour is checked against
            // its timeline here, before the scenario build.
            "--hour" => {
                let hours = Hurricane::florence().timeline.total_hours();
                hour = cli::value(
                    &mut args,
                    "render_map",
                    "--hour",
                    &format!("peak or an hour below {hours}"),
                    |v| match v {
                        "peak" => Some(None),
                        _ => v.parse().ok().filter(|&h| h < hours).map(Some),
                    },
                )
            }
            "--out" => {
                out = cli::value(&mut args, "render_map", "--out", "a file path", |v| {
                    Some(v.to_owned())
                })
            }
            other => {
                eprintln!("render_map: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    eprintln!("building scenario ...");
    let scenario = scale.config(seed).scenario.florence().build(seed);
    let hour = hour.unwrap_or(scenario.hurricane().timeline.peak_hour() + 18);
    // Mark the day's rescue requests.
    let rescues = mine_rescues(&scenario);
    let markers: Vec<_> = rescues
        .iter()
        .filter(|r| r.request_day() == hour / 24)
        .map(|r| r.request_position)
        .collect();
    let svg = render_map(&scenario, hour, &markers, &MapStyle::default());
    std::fs::write(&out, svg).expect("writing the SVG file");
    eprintln!(
        "wrote {out} (hour {hour}, {} request markers)",
        markers.len()
    );
}
