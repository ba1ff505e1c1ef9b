//! Plain-text persistence for trained networks.
//!
//! A production dispatcher trains offline (Section IV-C4's historical
//! phase) and ships the weights; this module provides a dependency-free
//! textual format (one header line, one line per layer) so trained policies
//! survive process restarts without pulling in a serialization framework
//! beyond the workspace's offered crates.

use crate::nn::Mlp;
use std::fmt::Write as _;
use std::str::FromStr;

/// Errors from parsing a persisted network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNetworkError {
    /// The header line is missing or malformed.
    BadHeader,
    /// A parameter value failed to parse.
    BadNumber,
    /// The parameter count does not match the architecture.
    WrongLength,
}

impl std::fmt::Display for ParseNetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseNetworkError::BadHeader => write!(f, "missing or malformed header line"),
            ParseNetworkError::BadNumber => write!(f, "unparseable parameter value"),
            ParseNetworkError::WrongLength => {
                write!(f, "parameter count does not match the architecture")
            }
        }
    }
}

impl std::error::Error for ParseNetworkError {}

/// Serializes an MLP to the text format:
///
/// ```text
/// mlp <in> <h1> ... <out>
/// <param_0> <param_1> ...
/// ```
///
/// Parameters are emitted in [`Mlp::visit_params_mut`] order with full
/// `f64` round-trip precision.
pub fn mlp_to_text(net: &Mlp) -> String {
    // Recover the layer sizes by probing: input/output dims are public;
    // intermediate sizes come from a serde-free walk over parameters is not
    // possible, so the Mlp exposes them via `layer_dims`.
    let mut out = String::from("mlp");
    for d in net.layer_dims() {
        let _ = write!(out, " {d}");
    }
    out.push('\n');
    let mut params = Vec::with_capacity(net.num_params());
    let mut probe = net.clone();
    probe.visit_params_mut(|_, w, _| params.push(*w));
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        // `{:?}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{p:?}");
    }
    out.push('\n');
    out
}

/// Parses a network produced by [`mlp_to_text`].
///
/// # Errors
///
/// Returns a [`ParseNetworkError`] when the header, numbers or parameter
/// count are malformed.
pub fn mlp_from_text(text: &str) -> Result<Mlp, ParseNetworkError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(ParseNetworkError::BadHeader)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("mlp") {
        return Err(ParseNetworkError::BadHeader);
    }
    let dims: Vec<usize> = parts
        .map(usize::from_str)
        .collect::<Result<_, _>>()
        .map_err(|_| ParseNetworkError::BadHeader)?;
    if dims.len() < 2 || dims.contains(&0) {
        return Err(ParseNetworkError::BadHeader);
    }
    let params_line = lines.next().ok_or(ParseNetworkError::WrongLength)?;
    let params: Vec<f64> = params_line
        .split_whitespace()
        .map(f64::from_str)
        .collect::<Result<_, _>>()
        .map_err(|_| ParseNetworkError::BadNumber)?;
    // Check the count before building: a hostile header could otherwise
    // allocate a network far larger than the text that describes it.
    let num_params = dims.windows(2).try_fold(0usize, |n, w| {
        w[0].checked_mul(w[1])?.checked_add(w[1])?.checked_add(n)
    });
    if num_params != Some(params.len()) {
        return Err(ParseNetworkError::WrongLength);
    }
    let mut net = Mlp::new(&dims, 0);
    net.visit_params_mut(|i, w, _| *w = params[i]);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let mut net = Mlp::new(&[3, 7, 2], 11);
        // Dirty the parameters so we are not round-tripping initialization.
        net.visit_params_mut(|i, w, _| *w += i as f64 * 0.001);
        let text = mlp_to_text(&net);
        let back = mlp_from_text(&text).expect("round trip parses");
        let x = [0.3, -0.8, 1.5];
        assert_eq!(net.predict(&x), back.predict(&x));
        assert_eq!(back.num_params(), net.num_params());
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert_eq!(mlp_from_text(""), Err(ParseNetworkError::BadHeader));
        assert_eq!(
            mlp_from_text("nope 3 2\n0 0"),
            Err(ParseNetworkError::BadHeader)
        );
        assert_eq!(mlp_from_text("mlp 3\n"), Err(ParseNetworkError::BadHeader));
        assert_eq!(
            mlp_from_text("mlp 2 2\n1 2 x"),
            Err(ParseNetworkError::BadNumber)
        );
        assert_eq!(
            mlp_from_text("mlp 2 2\n1 2 3"),
            Err(ParseNetworkError::WrongLength)
        );
        // A zero-sized layer is a malformed header, not a panic.
        assert_eq!(
            mlp_from_text("mlp 0 1\n\n"),
            Err(ParseNetworkError::BadHeader)
        );
        assert_eq!(
            mlp_from_text("mlp 1 0\n0\n"),
            Err(ParseNetworkError::BadHeader)
        );
        // Huge or overflowing layers are refused before anything is built.
        assert_eq!(
            mlp_from_text("mlp 100000 100000 100000\n1 2 3"),
            Err(ParseNetworkError::WrongLength)
        );
        assert_eq!(
            mlp_from_text("mlp 18446744073709551615 2\n1 2 3"),
            Err(ParseNetworkError::WrongLength)
        );
        let err = ParseNetworkError::WrongLength.to_string();
        assert!(err.contains("parameter count"));
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut net = Mlp::new(&[1, 1], 0);
        net.visit_params_mut(|i, w, _| *w = if i == 0 { 1e-300 } else { -12345.678901234567 });
        let back = mlp_from_text(&mlp_to_text(&net)).unwrap();
        assert_eq!(net.predict(&[2.0]), back.predict(&[2.0]));
    }
}
