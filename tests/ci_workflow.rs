//! Structural sanity checks for `.github/workflows/ci.yml`.
//!
//! The build environment has no YAML parser crate, so this validates the
//! subset of YAML that workflow files actually use: indentation-scoped
//! mappings with no tabs. It pins the structure CI depends on — exactly
//! three jobs exist, run the gate scripts, and cache `target/` keyed on
//! `Cargo.lock` with `restore-keys` fallbacks — so an edit that breaks
//! the pipeline fails locally, not on the runner. It also pins where the
//! gates live: the scale gate runs in `scripts/verify.sh`, the retired
//! routing gate's knobs stay out of CI, and verify's "crate tests" step
//! names every library crate under `crates/`, so a new crate cannot go
//! untested. DESIGN.md's dependency DAG is held to the crate manifests.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn repo_file(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn workflow() -> String {
    repo_file(".github/workflows/ci.yml")
}

/// Leading-space count of a line (YAML indentation).
fn indent(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

#[test]
fn workflow_is_plausible_yaml() {
    let text = workflow();
    assert!(!text.is_empty(), "ci.yml is empty");
    let mut in_block_scalar_deeper_than = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        assert!(!line.contains('\t'), "ci.yml:{n}: tab character in YAML");
        assert!(
            line.trim_end() == line,
            "ci.yml:{n}: trailing whitespace breaks some parsers"
        );
        // Skip the contents of `|`/`>` block scalars (multi-line run/path
        // values); they are free-form text, not mappings.
        if let Some(level) = in_block_scalar_deeper_than {
            if line.trim().is_empty() || indent(line) > level {
                continue;
            }
            in_block_scalar_deeper_than = None;
        }
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        // Mapping levels step by exactly two spaces, so every indent in a
        // workflow file is even (list items add "- " which is also two).
        assert_eq!(indent(line) % 2, 0, "ci.yml:{n}: odd indentation: {line:?}");
        let content = line.trim_start().trim_start_matches("- ");
        assert!(
            content.contains(':') || content.starts_with('-'),
            "ci.yml:{n}: expected a `key: value` mapping or list item: {line:?}"
        );
        let trimmed = line.trim_end();
        if trimmed.ends_with(": |") || trimmed.ends_with(": >") {
            in_block_scalar_deeper_than = Some(indent(line));
        }
    }
}

/// A top-level (given indent) `key:` line exists.
fn has_key_at(text: &str, indent_spaces: usize, key: &str) -> bool {
    let prefix = format!("{}{key}:", " ".repeat(indent_spaces));
    text.lines().any(|l| {
        l.starts_with(&prefix) && (l.len() == prefix.len() || l.as_bytes()[prefix.len()] == b' ')
    })
}

#[test]
fn workflow_triggers_on_push_and_pull_request() {
    let text = workflow();
    assert!(has_key_at(&text, 0, "name"), "missing top-level name:");
    assert!(has_key_at(&text, 0, "on"), "missing top-level on:");
    assert!(has_key_at(&text, 2, "push"), "missing push trigger");
    assert!(has_key_at(&text, 2, "pull_request"), "missing PR trigger");
    assert!(
        has_key_at(&text, 2, "workflow_dispatch"),
        "missing manual-dispatch trigger (re-run without an empty commit)"
    );
}

#[test]
fn superseded_runs_are_cancelled() {
    let text = workflow();
    assert!(
        has_key_at(&text, 0, "concurrency"),
        "missing top-level concurrency: block"
    );
    assert!(
        text.contains("group: ci-${{ github.ref }}"),
        "concurrency group must be per-ref so unrelated branches don't queue"
    );
    assert!(
        text.contains("cancel-in-progress: true"),
        "a newer push to the same ref must cancel the stale run"
    );
}

/// The CI jobs, in workflow order.
const JOBS: [&str; 3] = ["verify", "bench-smoke", "wal-smoke"];

/// The keys of the top-level `jobs:` mapping, in file order.
fn job_names(text: &str) -> Vec<&str> {
    text.lines()
        .skip_while(|l| *l != "jobs:")
        .skip(1)
        .take_while(|l| l.is_empty() || indent(l) >= 2)
        .filter(|l| indent(l) == 2)
        .filter_map(|l| l.trim().strip_suffix(':'))
        .collect()
}

#[test]
fn all_jobs_run_their_gate_scripts_on_a_runner() {
    let text = workflow();
    assert!(has_key_at(&text, 0, "jobs"), "missing top-level jobs:");
    assert_eq!(job_names(&text), JOBS, "CI runs exactly these jobs");
    assert_eq!(
        text.matches("runs-on:").count(),
        JOBS.len(),
        "every job needs a runs-on"
    );
    assert_eq!(
        text.matches("uses: actions/checkout@").count(),
        JOBS.len(),
        "every job checks out the repo"
    );
    assert!(
        text.contains("run: scripts/verify.sh"),
        "verify job must run scripts/verify.sh"
    );
    assert!(
        text.contains("scripts/check_bench.sh"),
        "bench-smoke job must run scripts/check_bench.sh"
    );
    assert!(
        text.contains("run: scripts/wal_smoke.sh"),
        "wal-smoke job must run scripts/wal_smoke.sh"
    );
    assert!(
        text.contains("SCALE_GATE=0 scripts/check_bench.sh"),
        "bench-smoke must skip the scale gate (the verify job runs it)"
    );
    // One shell command per line, continuation lines joined.
    let verify = repo_file("scripts/verify.sh").replace("\\\n", " ");
    assert!(
        verify
            .lines()
            .any(|l| l.contains("SCALE_PRESETS=\"medium metro\"")
                && l.contains("scripts/check_bench.sh")),
        "verify.sh must gate both the medium and the metro preset via check_bench.sh"
    );
}

/// The package name and manifest text of each crate under `crates/`,
/// sorted by name.
fn crate_manifests() -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut manifests: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .filter_map(|entry| {
            let manifest = entry.expect("readable entry").path().join("Cargo.toml");
            let text = std::fs::read_to_string(manifest).ok()?;
            let name = text.lines().find_map(|l| l.strip_prefix("name = "))?;
            Some((name.trim_matches('"').to_owned(), text))
        })
        .collect();
    manifests.sort();
    manifests
}

#[test]
fn verify_tests_every_library_crate_once() {
    let verify = repo_file("scripts/verify.sh").replace("\\\n", " ");
    let step = verify
        .lines()
        .find(|l| l.trim_start().starts_with("run_step \"crate tests\""))
        .expect("verify.sh has a \"crate tests\" step");
    let mut named: Vec<&str> = step
        .split_whitespace()
        .zip(step.split_whitespace().skip(1))
        .filter_map(|(flag, name)| (flag == "-p").then_some(name))
        .collect();
    named.sort_unstable();
    let expected: Vec<String> = crate_manifests()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name != "mobirescue-bench")
        .collect();
    assert_eq!(
        expected.len(),
        11,
        "crates/ holds the 11 library crates plus bench: {expected:?}"
    );
    assert_eq!(
        named, expected,
        "the crate tests step must name every crate under crates/ but bench, once each"
    );
    assert!(
        !verify.contains("--test "),
        "verify.sh re-runs a root-package suite that the tier-1 step already runs"
    );
}

#[test]
fn retired_routing_gate_stays_out_of_ci() {
    let text = workflow();
    for retired in ["ROUTING_GATE", "MAX_SLOWDOWN_PCT", "bench_routing"] {
        assert!(
            !text.contains(retired),
            "ci.yml names {retired}, which belongs to the retired routing gate"
        );
    }
}

#[test]
fn all_jobs_cache_target_keyed_on_the_lockfile() {
    let text = workflow();
    assert_eq!(
        text.matches("uses: actions/cache@").count(),
        JOBS.len(),
        "every job caches the build"
    );
    assert_eq!(
        text.matches("hashFiles('Cargo.lock')").count(),
        JOBS.len(),
        "cache keys must invalidate when Cargo.lock changes"
    );
    // `target` appears in each job's cached-path block.
    assert!(
        text.lines().filter(|l| l.trim() == "target").count() >= JOBS.len(),
        "every cache must include target/"
    );
    // A lockfile bump should warm-start from the previous cache rather
    // than rebuild the world from scratch, so every cache step needs a
    // restore-keys fallback prefix.
    assert_eq!(
        text.matches("restore-keys:").count(),
        JOBS.len(),
        "every cache step must declare restore-keys"
    );
}

/// Each crate's workspace dependencies, by short name (`mobirescue-sim` is
/// `sim`), read from the `mobirescue-*` entries of its manifest's
/// `[dependencies]` table. A crate with none is left out.
fn manifest_dependency_dag() -> BTreeMap<String, BTreeSet<String>> {
    let short = |name: &str| name.strip_prefix("mobirescue-").map(str::to_owned);
    crate_manifests()
        .into_iter()
        .filter_map(|(name, text)| {
            let mut table = "";
            let mut deps = BTreeSet::new();
            for line in text.lines().map(str::trim) {
                if line.starts_with('[') {
                    table = line;
                } else if table == "[dependencies]" {
                    let key = line.split(['.', ' ', '=']).next().unwrap_or("");
                    deps.extend(short(key));
                }
            }
            let name = short(&name)?;
            (!deps.is_empty()).then_some((name, deps))
        })
        .collect()
}

/// DESIGN.md's dependency DAG block: one `crate → {dep, ...}` line per
/// crate.
fn design_dependency_dag() -> BTreeMap<String, BTreeSet<String>> {
    let design = repo_file("DESIGN.md");
    let block = design
        .split_once("Dependency DAG (arrows = depends on):")
        .and_then(|(_, rest)| rest.split("```").nth(1))
        .expect("DESIGN.md has a fenced dependency DAG block");
    block
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|line| {
            let (from, to) = line
                .split_once('→')
                .unwrap_or_else(|| panic!("DAG line without an arrow: {line:?}"));
            let deps: BTreeSet<String> = to
                .trim()
                .trim_start_matches('{')
                .trim_end_matches('}')
                .split(',')
                .map(|d| d.trim().to_owned())
                .filter(|d| !d.is_empty())
                .collect();
            (!deps.is_empty()).then(|| (from.trim().to_owned(), deps))
        })
        .collect()
}

#[test]
fn design_dependency_dag_matches_the_manifests() {
    assert_eq!(
        design_dependency_dag(),
        manifest_dependency_dag(),
        "DESIGN.md's dependency DAG must list exactly the workspace edges \
         the crates' [dependencies] tables declare"
    );
}
