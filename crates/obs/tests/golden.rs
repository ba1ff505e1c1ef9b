//! Golden-file tests pinning the `mrobs 1` snapshot text and the
//! Prometheus exposition rendering.
//!
//! The fixtures are the byte-exact renderings of a small deterministic
//! registry. Any change to either format — a new line kind, reordered
//! fields, different bucket encoding — shows up as an explicit diff
//! instead of silently breaking operators parsing dumps from
//! `serve --metrics-out` / `--metrics-prom`.
//!
//! To bless an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mobirescue-obs --test golden
//! ```
//!
//! and commit the updated fixtures together with the format change and a
//! version-number bump rationale.

mod hand_parser;

use mobirescue_obs::{ObsSnapshot, Registry};

const TEXT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mrobs_v1.txt");
const PROM_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mrobs_v1.prom");

/// The fixed registry the fixtures pin: counters, gauges and histograms
/// covering the edge buckets (zero, one, a power of two, its neighbours,
/// and `u64::MAX`).
fn golden_registry() -> ObsSnapshot {
    let reg = Registry::new();
    reg.counter("serve.ingest_retries").add(7);
    reg.counter("serve.shard_restarts");
    reg.gauge("serve.shard0.queue_depth").set(3);
    reg.gauge("serve.shard1.queue_depth").set(-1);
    let h = reg.histogram("epoch.dispatch_ms");
    for v in [0, 1, 2, 1023, 1024, 1025, u64::MAX] {
        h.record(v);
    }
    reg.histogram("epoch.routing_ms").record(12);
    reg.snapshot()
}

fn check(path: &str, generated: &str, what: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, generated).expect("fixture written");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden fixture exists; run with UPDATE_GOLDEN=1 to create it");
    if generated != golden {
        let mismatch = generated
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (g, f))| g != f);
        let context = match mismatch {
            Some((i, (g, f))) => format!(
                "first difference at line {}:\n  generated: {g}\n  fixture:   {f}",
                i + 1
            ),
            None => format!(
                "one rendering is a prefix of the other ({} vs {} bytes)",
                generated.len(),
                golden.len()
            ),
        };
        panic!(
            "{what} drifted from the golden fixture.\n{context}\n\
             If the change is intentional, bless it with:\n  \
             UPDATE_GOLDEN=1 cargo test -p mobirescue-obs --test golden\n\
             and explain the format change in the commit."
        );
    }
}

#[test]
fn mrobs_v1_text_matches_golden_fixture() {
    check(
        TEXT_PATH,
        &golden_registry().to_text(),
        "`mrobs 1` snapshot text",
    );
}

#[test]
fn prometheus_exposition_matches_golden_fixture() {
    check(
        PROM_PATH,
        &golden_registry().to_prometheus(),
        "Prometheus exposition text",
    );
}

#[test]
fn golden_fixture_still_parses() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let golden = std::fs::read_to_string(TEXT_PATH)
        .expect("golden fixture exists; run with UPDATE_GOLDEN=1 to create it");
    let parsed = ObsSnapshot::parse(&golden).expect("the pinned format parses");
    assert_eq!(parsed, golden_registry());
    assert_eq!(parsed.to_text(), golden, "parse → render round-trips");
}

/// Values chosen to break a hand parser: a zero, a bucket count that
/// overflows the bucket sum, a negative, a non-number.
const HOSTILE: [&str; 4] = ["0", "18446744073709551615", "-1", "x"];

/// Every single-token edit of `tokens` joined by `sep`: each token is
/// replaced by each [`HOSTILE`] value, dropped, or duplicated.
fn token_edits(tokens: &[&str], sep: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, &token) in tokens.iter().enumerate() {
        for hostile in HOSTILE {
            let mut replaced = tokens.to_vec();
            replaced[i] = hostile;
            out.push(replaced.join(sep));
        }
        let mut dropped = tokens.to_vec();
        dropped.remove(i);
        out.push(dropped.join(sep));
        let mut duplicated = tokens.to_vec();
        duplicated.insert(i, token);
        out.push(duplicated.join(sep));
    }
    out
}

/// Every single-token edit of `line`: of one space-separated field, or of
/// one `:`-separated part of a field.
fn line_edits(line: &str) -> Vec<String> {
    let fields: Vec<&str> = line.split(' ').collect();
    let mut out = token_edits(&fields, " ");
    for (i, field) in fields.iter().enumerate() {
        let parts: Vec<&str> = field.split(':').collect();
        if parts.len() > 1 {
            for part in token_edits(&parts, ":") {
                let mut edited = fields.clone();
                edited[i] = &part;
                out.push(edited.join(" "));
            }
        }
    }
    out
}

/// `text` with one line replaced by each of its single-token edits.
fn text_edits(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        for edited_line in line_edits(line) {
            let mut edited = lines.clone();
            edited[ln] = &edited_line;
            out.push(edited.join("\n") + "\n");
        }
    }
    out
}

/// Every single-token edit of the fixture parses to a snapshot or fails
/// with an error; it never panics. A snapshot it does parse to renders
/// and re-parses to itself.
#[test]
fn hostile_edits_of_the_golden_fixture_never_panic() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let golden = std::fs::read_to_string(TEXT_PATH)
        .expect("golden fixture exists; run with UPDATE_GOLDEN=1 to create it");
    for text in text_edits(&golden) {
        if let Ok(snap) = ObsSnapshot::parse(&text) {
            assert_eq!(ObsSnapshot::parse(&snap.to_text()), Ok(snap), "{text}");
        }
    }
}

/// The codec reader accepts exactly the texts the hand parser it replaced
/// accepted, each to the same snapshot. The corpus: the fixture, every
/// single-token edit of it, the malformed dumps and histogram lines the
/// unit tests refuse, and layouts a line-oriented reader could treat
/// differently (blank lines, text after `end`, a repeated bucket, a `+`
/// sign, a two-colon bucket, CRLF line endings).
#[test]
fn codec_reader_agrees_with_the_hand_parser() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return;
    }
    let golden = std::fs::read_to_string(TEXT_PATH)
        .expect("golden fixture exists; run with UPDATE_GOLDEN=1 to create it");
    let mut corpus = vec![golden.clone(), golden.replace('\n', "\r\n")];
    corpus.extend(text_edits(&golden));
    corpus.extend(
        [
            "",
            "mrobs 2\nend\n",
            "mrobs 1\n",
            "mrobs 1\nc lonely\nend\n",
            "mrobs 1\nc x 1\nc x 2\nend\n",
            "mrobs 1\nz what 1\nend\n",
            "mrobs 1\ng x 1 2\nend\n",
            "mrobs 1\nh x 1 2\nend\n",
            "mrobs 1\n\n   \nc x 1\n\t\nend\n",
            "mrobs 1\nc x 1\nend\nc x 2\nnot a record\n",
            "mrobs 1\nc x 1\ng x 1\nh x 1 1 1 1:1\nend\n",
            "mrobs 1\nh x 1 3 3 4:1 4:1\nend\n",
            "mrobs 1\nh x 2 3 3 4:1 4:1\nend\n",
            "mrobs 1\nc x +5\ng y +5\nh z +1 +1 +1 +1:+1\nend\n",
            "mrobs 1\nh x 1 1 1 1:1:1\nend\n",
            "mrobs 1\r\nc x 1\r\nh y 1 12 12 4:1\r\nend\r\n",
            "mrobs 1\r\nc x 1\rend\n",
        ]
        .map(str::to_owned),
    );
    for line in [
        "",
        "1 2",
        "1 2 3 notapair",
        "1 2 3 99:1",
        "5 2 3 1:1",
        "1 0 1 1:1",
        "0 0 0 1:18446744073709551615 2:1",
    ] {
        corpus.push(format!("mrobs 1\nh x {line}\nend\n"));
    }
    let mut accepted = 0;
    for text in &corpus {
        match (hand_parser::parse(text), ObsSnapshot::parse(text)) {
            (Ok(want), Ok(got)) => {
                assert_eq!(got, want, "{text:?}");
                accepted += 1;
            }
            (Err(_), Err(_)) => {}
            (want, got) => panic!("{text:?}: hand parser {want:?}, codec {got:?}"),
        }
    }
    // Both readers accept 59 of the 302 texts and refuse the other 243.
    assert_eq!((corpus.len(), accepted), (302, 59), "corpus size, accepted");
}
