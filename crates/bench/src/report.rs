//! Plain-text reporting helpers for the figure harness.

use std::fmt::Write as _;

/// Renders a header line for one experiment.
pub fn heading(id: &str, title: &str) -> String {
    format!("\n== {id}: {title} ==")
}

/// Renders an `(x, y…)` multi-series table with a header row.
///
/// # Panics
///
/// Panics if a series length differs from `xs`.
pub fn series_table(x_label: &str, xs: &[String], series: &[(&str, Vec<String>)]) -> String {
    for (name, ys) in series {
        assert_eq!(ys.len(), xs.len(), "series {name} has wrong length");
    }
    let mut out = String::new();
    let widths: Vec<usize> = std::iter::once(
        xs.iter()
            .map(String::len)
            .chain([x_label.len()])
            .max()
            .unwrap_or(4),
    )
    .chain(series.iter().map(|(name, ys)| {
        ys.iter()
            .map(String::len)
            .chain([name.len()])
            .max()
            .unwrap_or(4)
    }))
    .collect();
    let _ = write!(out, "{:>w$}", x_label, w = widths[0]);
    for (i, (name, _)) in series.iter().enumerate() {
        let _ = write!(out, "  {:>w$}", name, w = widths[i + 1]);
    }
    let _ = writeln!(out);
    for (r, x) in xs.iter().enumerate() {
        let _ = write!(out, "{:>w$}", x, w = widths[0]);
        for (i, (_, ys)) in series.iter().enumerate() {
            let _ = write!(out, "  {:>w$}", ys[r], w = widths[i + 1]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats several CDFs over a shared x grid.
pub fn cdf_table(
    x_label: &str,
    cdfs: &[(&str, &mobirescue_mobility::stats::Cdf)],
    points: usize,
) -> String {
    // Shared grid over the union of ranges.
    let lo = cdfs
        .iter()
        .filter_map(|(_, c)| c.min())
        .fold(f64::INFINITY, f64::min);
    let hi = cdfs
        .iter()
        .filter_map(|(_, c)| c.max())
        .fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() {
        return format!("{x_label}: (no samples)\n");
    }
    let xs: Vec<f64> = (0..=points)
        .map(|i| lo + (hi - lo) * i as f64 / points as f64)
        .collect();
    let x_strs: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
    let series: Vec<(&str, Vec<String>)> = cdfs
        .iter()
        .map(|(name, c)| {
            (
                *name,
                xs.iter()
                    .map(|&x| format!("{:.3}", c.fraction_at_or_below(x)))
                    .collect(),
            )
        })
        .collect();
    series_table(x_label, &x_strs, &series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_mobility::stats::Cdf;

    #[test]
    fn series_table_aligns_columns() {
        let out = series_table(
            "hour",
            &["0".into(), "1".into()],
            &[
                ("MR", vec!["10".into(), "20".into()]),
                ("Schedule", vec!["1".into(), "2".into()]),
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("MR") && lines[0].contains("Schedule"));
    }

    #[test]
    fn cdf_table_handles_empty() {
        let empty = Cdf::new(vec![]);
        let out = cdf_table("x", &[("e", &empty)], 4);
        assert!(out.contains("no samples"));
    }

    #[test]
    fn cdf_table_spans_union_range() {
        let a = Cdf::new(vec![0.0, 1.0]);
        let b = Cdf::new(vec![5.0, 10.0]);
        let out = cdf_table("x", &[("a", &a), ("b", &b)], 2);
        assert!(out.contains("10.0"), "{out}");
        assert!(out.contains("0.0"));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn mismatched_series_rejected() {
        let _ = series_table("x", &["0".into()], &[("bad", vec![])]);
    }
}
