//! The hand-written `mrobs 1` reader that `ObsSnapshot::parse` used
//! before it went through the record codec, kept verbatim as the
//! reference the codec reader is held to: it must accept exactly the
//! texts this accepts, parsing each to the same snapshot.

use mobirescue_obs::{HistogramSnapshot, ObsSnapshot, NUM_BUCKETS};

/// The former `ObsSnapshot::parse`.
pub fn parse(text: &str) -> Result<ObsSnapshot, String> {
    let mut lines = text.lines();
    if lines.next() != Some("mrobs 1") {
        return Err("missing `mrobs 1` header".to_owned());
    }
    let mut snap = ObsSnapshot::default();
    let mut saw_end = false;
    for line in lines {
        let mut p = line.split_whitespace();
        let Some(tag) = p.next() else { continue };
        match tag {
            "c" | "g" => {
                let name = p.next().ok_or_else(|| format!("`{line}`: missing name"))?;
                let value = p.next().ok_or_else(|| format!("`{line}`: missing value"))?;
                if p.next().is_some() {
                    return Err(format!("`{line}`: trailing tokens"));
                }
                let fresh = if tag == "c" {
                    let value = value
                        .parse()
                        .map_err(|_| format!("`{line}`: bad counter value"))?;
                    snap.counters.insert(name.to_owned(), value).is_none()
                } else {
                    let value = value
                        .parse()
                        .map_err(|_| format!("`{line}`: bad gauge value"))?;
                    snap.gauges.insert(name.to_owned(), value).is_none()
                };
                if !fresh {
                    return Err(format!("duplicate metric `{name}`"));
                }
            }
            "h" => {
                let name = p.next().ok_or_else(|| format!("`{line}`: missing name"))?;
                let rest = line
                    .split_whitespace()
                    .skip(2)
                    .collect::<Vec<_>>()
                    .join(" ");
                let hist = from_line(&rest).ok_or_else(|| format!("`{line}`: bad histogram"))?;
                if snap.histograms.insert(name.to_owned(), hist).is_some() {
                    return Err(format!("duplicate metric `{name}`"));
                }
            }
            "end" => {
                saw_end = true;
                break;
            }
            other => return Err(format!("unknown record `{other}`")),
        }
    }
    if !saw_end {
        return Err("truncated dump (missing `end`)".to_owned());
    }
    Ok(snap)
}

/// The former `HistogramSnapshot::from_line`.
fn from_line(line: &str) -> Option<HistogramSnapshot> {
    let mut it = line.split_whitespace();
    let count: u64 = it.next()?.parse().ok()?;
    let sum = it.next()?.parse().ok()?;
    let max = it.next()?.parse().ok()?;
    let mut counts = vec![0u64; NUM_BUCKETS];
    for pair in it {
        let (idx, c) = pair.split_once(':')?;
        let idx: usize = idx.parse().ok()?;
        if idx >= NUM_BUCKETS {
            return None;
        }
        counts[idx] = c.parse().ok()?;
    }
    let total = counts.iter().try_fold(0u64, |acc, &c| acc.checked_add(c))?;
    (total == count).then_some(HistogramSnapshot { counts, sum, max })
}
