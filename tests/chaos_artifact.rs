//! Pins `robustness_serve.txt` to the code that writes it.
//!
//! The committed sweep (`scripts/chaos.sh 20`, cited by the README) is
//! only evidence while `run_chaos` still prints it. A run is a pure
//! function of its seed on a `SimClock`, so the first seeds of the sweep
//! are re-run here and each summary line must appear in the file
//! verbatim. A change to the harness's fault paths or to its summary
//! fails this test until the sweep is regenerated.

use mobirescue_serve::chaos::{run_chaos, ChaosOptions};

const SWEEP: &str = include_str!("../robustness_serve.txt");

#[test]
fn committed_sweep_matches_the_harness() {
    for seed in 1..=3 {
        let outcome = run_chaos(&ChaosOptions::seeded(seed)).expect("chaos run completes");
        let line = outcome.summary();
        assert!(
            SWEEP.lines().any(|l| l == line),
            "robustness_serve.txt lacks seed {seed}'s line; regenerate it with \
             `scripts/chaos.sh 20`:\n{line}"
        );
    }
}
