//! Flag values the experiment binaries share: a missing or bad value
//! exits 2 with a message naming its flag, never falls back to a default.

use crate::ExperimentScale;

/// The value after `flag`, read by `parse`. When the value is missing or
/// `parse` refuses it, prints `{bin}: {flag} needs {what}` to stderr and
/// exits with status 2.
pub fn value<T>(
    args: &mut dyn Iterator<Item = String>,
    bin: &str,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let raw = args.next();
    raw.as_deref().and_then(parse).unwrap_or_else(|| {
        match raw {
            Some(v) => eprintln!("{bin}: {flag} needs {what}, got {v:?}"),
            None => eprintln!("{bin}: {flag} needs a value"),
        }
        std::process::exit(2)
    })
}

/// The `--scale` value: `small`, `medium` or `paper`.
pub fn scale(args: &mut dyn Iterator<Item = String>, bin: &str) -> ExperimentScale {
    value(
        args,
        bin,
        "--scale",
        "small, medium or paper",
        ExperimentScale::parse,
    )
}

/// A non-negative integer value of `flag`.
pub fn count(args: &mut dyn Iterator<Item = String>, bin: &str, flag: &str) -> u64 {
    value(args, bin, flag, "a non-negative integer", |v| {
        v.parse().ok()
    })
}
