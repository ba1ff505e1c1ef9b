//! Plain-text persistence for trained SVM models (libsvm-inspired format).
//!
//! ```text
//! svm rbf 0.5
//! bias <b>
//! sv <coef> <x_0> <x_1> ...
//! sv ...
//! ```

use crate::kernel::Kernel;
use crate::model::SvmModel;
use std::fmt::Write as _;
use std::str::FromStr;

/// Errors from parsing a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseModelError {
    /// Missing or malformed header line.
    BadHeader,
    /// Unknown kernel name or malformed kernel parameters.
    BadKernel,
    /// The bias line is missing or malformed.
    BadBias,
    /// A support-vector line failed to parse.
    BadSupportVector,
    /// Support vectors differ in dimension.
    InconsistentDimensions,
}

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseModelError::BadHeader => write!(f, "missing or malformed header"),
            ParseModelError::BadKernel => write!(f, "unknown kernel or bad parameters"),
            ParseModelError::BadBias => write!(f, "missing or malformed bias line"),
            ParseModelError::BadSupportVector => write!(f, "malformed support-vector line"),
            ParseModelError::InconsistentDimensions => {
                write!(f, "support vectors differ in dimension")
            }
        }
    }
}

impl std::error::Error for ParseModelError {}

/// Serializes a model to the text format.
pub fn model_to_text(model: &SvmModel) -> String {
    let mut out = String::new();
    match model.kernel() {
        Kernel::Linear => out.push_str("svm linear\n"),
        Kernel::Rbf { gamma } => {
            let _ = writeln!(out, "svm rbf {gamma:?}");
        }
        Kernel::Polynomial { degree, coef0 } => {
            let _ = writeln!(out, "svm poly {degree} {coef0:?}");
        }
    }
    let _ = writeln!(out, "bias {:?}", model.bias());
    for (sv, coef) in model.support_vectors().iter().zip(model.coefficients()) {
        let _ = write!(out, "sv {coef:?}");
        for x in sv {
            let _ = write!(out, " {x:?}");
        }
        out.push('\n');
    }
    out
}

/// Parses a model produced by [`model_to_text`].
///
/// # Errors
///
/// Returns a [`ParseModelError`] on any malformed section.
pub fn model_from_text(text: &str) -> Result<SvmModel, ParseModelError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(ParseModelError::BadHeader)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("svm") {
        return Err(ParseModelError::BadHeader);
    }
    let kernel = match parts.next() {
        Some("linear") => Kernel::Linear,
        Some("rbf") => {
            let gamma = parts
                .next()
                .and_then(|g| f64::from_str(g).ok())
                .ok_or(ParseModelError::BadKernel)?;
            Kernel::Rbf { gamma }
        }
        Some("poly") => {
            let degree = parts
                .next()
                .and_then(|d| u32::from_str(d).ok())
                .ok_or(ParseModelError::BadKernel)?;
            let coef0 = parts
                .next()
                .and_then(|c| f64::from_str(c).ok())
                .ok_or(ParseModelError::BadKernel)?;
            Kernel::Polynomial { degree, coef0 }
        }
        _ => return Err(ParseModelError::BadKernel),
    };
    let bias_line = lines.next().ok_or(ParseModelError::BadBias)?;
    let bias = bias_line
        .strip_prefix("bias ")
        .and_then(|b| f64::from_str(b).ok())
        .ok_or(ParseModelError::BadBias)?;
    let mut support_vectors = Vec::new();
    let mut coefficients = Vec::new();
    let mut dim: Option<usize> = None;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("sv ")
            .ok_or(ParseModelError::BadSupportVector)?;
        let values: Vec<f64> = rest
            .split_whitespace()
            .map(f64::from_str)
            .collect::<Result<_, _>>()
            .map_err(|_| ParseModelError::BadSupportVector)?;
        if values.is_empty() {
            return Err(ParseModelError::BadSupportVector);
        }
        let sv = values[1..].to_vec();
        match dim {
            None => dim = Some(sv.len()),
            Some(d) if d != sv.len() => return Err(ParseModelError::InconsistentDimensions),
            _ => {}
        }
        coefficients.push(values[0]);
        support_vectors.push(sv);
    }
    Ok(SvmModel::from_parts(
        kernel,
        support_vectors,
        coefficients,
        bias,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smo::{train, SmoConfig};

    fn trained() -> SvmModel {
        let xs = vec![
            vec![1.0, 1.5],
            vec![2.0, 2.5],
            vec![-1.0, -1.5],
            vec![-2.0, -2.5],
        ];
        let ys = vec![1.0, 1.0, -1.0, -1.0];
        train(&xs, &ys, Kernel::Rbf { gamma: 0.7 }, &SmoConfig::default())
    }

    #[test]
    fn round_trips_a_trained_model() {
        let model = trained();
        let back = model_from_text(&model_to_text(&model)).expect("parses");
        for x in [[1.5, 2.0], [-1.5, -2.0], [0.1, -0.1]] {
            assert_eq!(model.decision_function(&x), back.decision_function(&x));
        }
        assert_eq!(back.num_support_vectors(), model.num_support_vectors());
        assert_eq!(back.kernel(), model.kernel());
    }

    #[test]
    fn round_trips_all_kernels() {
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 1.25 },
            Kernel::Polynomial {
                degree: 3,
                coef0: 0.5,
            },
        ] {
            let model = SvmModel::from_parts(kernel, vec![vec![1.0, -2.0]], vec![0.8], -0.3);
            let back = model_from_text(&model_to_text(&model)).expect("parses");
            assert_eq!(back.kernel(), kernel);
            assert_eq!(
                model.decision_function(&[0.4, 0.6]),
                back.decision_function(&[0.4, 0.6])
            );
        }
    }

    #[test]
    fn rejects_malformed_text() {
        assert_eq!(model_from_text(""), Err(ParseModelError::BadHeader));
        assert_eq!(model_from_text("nope\n"), Err(ParseModelError::BadHeader));
        assert_eq!(
            model_from_text("svm warp 1\n"),
            Err(ParseModelError::BadKernel)
        );
        assert_eq!(
            model_from_text("svm rbf x\n"),
            Err(ParseModelError::BadKernel)
        );
        assert_eq!(
            model_from_text("svm linear\n"),
            Err(ParseModelError::BadBias)
        );
        assert_eq!(
            model_from_text("svm linear\nbias 0.0\nxx 1 2\n"),
            Err(ParseModelError::BadSupportVector)
        );
        assert_eq!(
            model_from_text("svm linear\nbias 0.0\nsv 1 2\nsv 1 2 3\n"),
            Err(ParseModelError::InconsistentDimensions)
        );
    }
}
