//! Pins the blocks EXPERIMENTS.md quotes to the runs they come from.
//!
//! Every `text` block of EXPERIMENTS.md quotes a summary or a seed sweep
//! from a committed run: `figures_medium_seed42.txt`,
//! `robustness_medium.txt` or `summary_paper_seed42.txt`, whichever the
//! prose names last before the block. Each block must appear in that file
//! line for line (indentation aside), so a regenerated artifact fails
//! here until the document quotes it again. Nothing is re-run: the
//! "medium summary" step of `scripts/verify.sh` holds the medium run to
//! the code.

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

const ARTIFACTS: [(&str, &str); 3] = [
    (
        "figures_medium_seed42.txt",
        include_str!("../figures_medium_seed42.txt"),
    ),
    (
        "robustness_medium.txt",
        include_str!("../robustness_medium.txt"),
    ),
    (
        "summary_paper_seed42.txt",
        include_str!("../summary_paper_seed42.txt"),
    ),
];

/// The fenced `text` blocks of `doc`, trimmed line by line, each with the
/// artifact named last before it (`None` when none is).
fn quoted_blocks(doc: &str) -> Vec<(Option<&'static str>, Vec<&str>)> {
    let mut blocks = Vec::new();
    let mut cited = None;
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        if line.trim() == "```text" {
            let block = lines
                .by_ref()
                .take_while(|l| l.trim() != "```")
                .map(str::trim)
                .collect();
            blocks.push((cited, block));
        } else if let Some((name, _)) = ARTIFACTS
            .iter()
            .filter_map(|&(name, _)| line.rfind(name).map(|at| (name, at)))
            .max_by_key(|&(_, at)| at)
        {
            cited = Some(name);
        }
    }
    blocks
}

#[test]
fn every_quoted_block_appears_in_the_artifact_it_cites() {
    let blocks = quoted_blocks(EXPERIMENTS);
    for (cited, block) in &blocks {
        assert!(
            cited.is_some() && !block.is_empty(),
            "EXPERIMENTS.md has an empty text block or one that names no artifact:\n{}",
            block.join("\n")
        );
    }
    for (name, text) in ARTIFACTS {
        let file: Vec<&str> = text.lines().map(str::trim).collect();
        let quoted: Vec<&Vec<&str>> = blocks
            .iter()
            .filter(|(cited, _)| *cited == Some(name))
            .map(|(_, block)| block)
            .collect();
        assert!(
            !quoted.is_empty(),
            "EXPERIMENTS.md quotes nothing from {name}"
        );
        for block in quoted {
            assert!(
                file.windows(block.len()).any(|w| w == block.as_slice()),
                "EXPERIMENTS.md quotes a block that {name} does not hold; quote the \
                 committed run again:\n{}",
                block.join("\n")
            );
        }
    }
}
