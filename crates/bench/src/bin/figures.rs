//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin figures -- [--scale small|medium|paper]
//!     [--seed N] [--exp all|analysis|comparison|table1|fig2..fig16|summary]
//! ```

use mobirescue_bench::{cli, ExperimentScale, FigureContext};

fn main() {
    let mut scale = ExperimentScale::Medium;
    let mut seed = 42u64;
    let mut exp = "all".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = cli::scale(&mut args, "figures"),
            "--seed" => seed = cli::count(&mut args, "figures", "--seed"),
            // Checked here, before the context build it would otherwise
            // wait for (over a minute at `medium`).
            "--exp" => {
                exp = cli::value(
                    &mut args,
                    "figures",
                    "--exp",
                    "all, analysis, comparison or an experiment id",
                    |v| {
                        let known = ["all", "analysis", "comparison"].contains(&v)
                            || FigureContext::analysis_ids().contains(&v)
                            || FigureContext::comparison_ids().contains(&v);
                        known.then(|| v.to_owned())
                    },
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale small|medium|paper] [--seed N] \
                     [--exp all|analysis|comparison|<id>]"
                );
                return;
            }
            other => {
                eprintln!("figures: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let ids: Vec<&str> = match exp.as_str() {
        "all" => FigureContext::analysis_ids()
            .iter()
            .chain(FigureContext::comparison_ids())
            .copied()
            .collect(),
        "analysis" => FigureContext::analysis_ids().to_vec(),
        "comparison" => FigureContext::comparison_ids().to_vec(),
        id => vec![id],
    };
    let needs_comparison = ids
        .iter()
        .any(|id| FigureContext::comparison_ids().contains(id));

    eprintln!("building context (scale {scale:?}, seed {seed}) ...");
    let start = std::time::Instant::now();
    let ctx = if needs_comparison {
        FigureContext::build_full(scale, seed)
    } else {
        FigureContext::analysis_only(scale, seed)
    };
    eprintln!("context ready in {:.1?}", start.elapsed());

    for id in ids {
        let text = ctx
            .run(id)
            .expect("--exp was checked against the known ids");
        println!("{text}");
    }
}
