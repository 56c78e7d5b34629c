//! Shared command-line flag parsing for `effpi-cli`, the `fig8`/`fig9`
//! examples and the standalone `benchmark/` package.
//!
//! The policy across every surface: a flag that is *present* must have a
//! well-formed value — malformed input is an error, never a silent fallback
//! to the default (a typo'd `--max-states` must not quietly loosen a
//! verification).

/// Parses a numeric flag. `Ok(None)` when the flag is absent; a present flag
/// with a missing or non-numeric value is an error.
///
/// # Errors
///
/// Returns a usage message naming the flag.
pub fn parse_flag(args: &[String], flag: &str) -> Result<Option<usize>, String> {
    let Some(idx) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(idx + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} requires a non-negative integer value"))
}

/// Parses a string-valued flag (e.g. a path). `Ok(None)` when absent; a
/// present flag whose value is missing or looks like another flag is an
/// error.
///
/// # Errors
///
/// Returns a usage message naming the flag.
pub fn string_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(idx) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(idx + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(format!("{flag} requires a value")),
    }
}

/// Resolves a `--jobs` value: `0` means one worker per hardware thread,
/// absence means `1` (serial), anything else is taken as given.
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        Some(0) => std::thread::available_parallelism().map_or(1, usize::from),
        Some(n) => n,
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_are_none_present_flags_must_parse() {
        assert_eq!(parse_flag(&args(&[]), "--jobs"), Ok(None));
        assert_eq!(parse_flag(&args(&["--jobs", "4"]), "--jobs"), Ok(Some(4)));
        assert!(parse_flag(&args(&["--jobs"]), "--jobs").is_err());
        assert!(parse_flag(&args(&["--jobs", "four"]), "--jobs").is_err());
    }

    #[test]
    fn string_flags_reject_missing_or_flag_shaped_values() {
        assert_eq!(string_flag(&args(&[]), "--json"), Ok(None));
        assert_eq!(
            string_flag(&args(&["--json", "out.json"]), "--json"),
            Ok(Some("out.json".into()))
        );
        assert!(string_flag(&args(&["--json"]), "--json").is_err());
        assert!(string_flag(&args(&["--json", "--baseline"]), "--json").is_err());
    }

    #[test]
    fn jobs_zero_means_all_hardware_threads() {
        assert_eq!(resolve_jobs(None), 1);
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(Some(0)) >= 1);
    }
}
