//! # fecim-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` §3 in the repository root for
//! the experiment index).
//!
//! * Figure binaries (`cargo run -p fecim-bench --bin figN_...`): print
//!   the rows/series of each figure. All accept `--scale quick|paper`.
//! * Sweep binaries (`tiling_sweep`, `batch_sweep`, `queue_sweep`,
//!   `campaign_sweep`, `sb_sweep`): system-level experiments beyond the
//!   paper's figures.
//!
//! Simulator wall-clock timing lives in `perfbench/` (see its README),
//! whose ledger is the committed `BENCH_perfbench.json`.

#![warn(missing_docs)]

/// Harness CLI scale, shared by the figure binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessScale {
    /// Reduced instance sizes / run counts (default; minutes).
    Quick,
    /// The paper's full protocol (hours).
    Paper,
}

/// Print a usage message to stderr and exit with status 2 (the
/// conventional bad-arguments code) — CI logs get one readable line
/// instead of a panic backtrace.
pub fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Print a runtime error to stderr and exit with status 1. For harness
/// binaries whose inputs were fine but whose pipeline failed (e.g. an
/// instance that cannot encode).
pub fn fail_exit(message: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Look up `--flag V` or `--flag=V` in an argument list: `None` when the
/// flag is absent, `Some(None)` when it is the last argument with no
/// value. The first occurrence wins.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    args.iter().enumerate().find_map(|(i, a)| {
        if a == flag {
            Some(args.get(i + 1).map(String::as_str))
        } else {
            a.strip_prefix(flag)
                .and_then(|rest| rest.strip_prefix('='))
                .map(Some)
        }
    })
}

/// Parse a flag value as a positive integer.
fn positive_integer(flag: &str, value: Option<&str>) -> Result<usize, String> {
    match value.and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n > 0 => Ok(n),
        _ => Err(format!("usage: {flag} <positive integer> (got {value:?})")),
    }
}

/// Parse a flag value as a non-empty comma-separated list of positive
/// integers.
fn positive_integers(flag: &str, value: Option<&str>) -> Result<Vec<usize>, String> {
    let usage = || format!("usage: {flag} <comma-separated positive integers> (got {value:?})");
    let list: Vec<usize> = value
        .ok_or_else(usage)?
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n > 0))
        .collect::<Option<_>>()
        .ok_or_else(usage)?;
    if list.is_empty() {
        return Err(usage());
    }
    Ok(list)
}

/// Parse `--scale quick|paper` from an argument list (default quick).
///
/// # Errors
///
/// Returns a usage message on an unknown scale value.
fn scale_from_args(args: &[String]) -> Result<HarnessScale, String> {
    match flag_value(args, "--scale") {
        None => Ok(HarnessScale::Quick),
        Some(Some("quick")) => Ok(HarnessScale::Quick),
        Some(Some("paper")) => Ok(HarnessScale::Paper),
        Some(other) => Err(format!("usage: --scale quick|paper (got {other:?})")),
    }
}

/// Parse `--scale quick|paper` from `std::env::args` (default quick);
/// prints usage to stderr and exits with status 2 on a bad value.
pub fn parse_scale() -> HarnessScale {
    // audit:allow(env-read): bench binaries parse their own argv here; flags choose what to benchmark, never what any solver computes
    scale_from_args(&std::env::args().collect::<Vec<_>>())
        .unwrap_or_else(|usage| usage_exit(&usage))
}

/// `true` when the flag is present in `std::env::args`.
pub fn has_flag(flag: &str) -> bool {
    // audit:allow(env-read): bench binaries parse their own argv here; flags choose what to benchmark, never what any solver computes
    std::env::args().any(|a| a == flag)
}

/// Parse `--tile-rows N` (or `--tile-rows=N`) from an argument list:
/// the physical tile height for tiled-mapping runs (`None` = monolithic).
///
/// # Errors
///
/// Returns a usage message on a missing or non-positive value.
fn tile_rows_from_args(args: &[String]) -> Result<Option<usize>, String> {
    flag_value(args, "--tile-rows")
        .map(|v| positive_integer("--tile-rows", v))
        .transpose()
}

/// Parse `--tile-rows N` from `std::env::args`; prints usage to stderr
/// and exits with status 2 on a bad value.
pub fn parse_tile_rows() -> Option<usize> {
    // audit:allow(env-read): bench binaries parse their own argv here; flags choose what to benchmark, never what any solver computes
    tile_rows_from_args(&std::env::args().collect::<Vec<_>>())
        .unwrap_or_else(|usage| usage_exit(&usage))
}

/// Parse `--batch-sizes a,b,c` (or `--batch-sizes=a,b,c`) from an
/// argument list: the shared-grid batch sizes a batching sweep should
/// exercise. Defaults to `1,2,4,8`.
///
/// # Errors
///
/// Returns a usage message on an empty list or a non-positive entry.
fn batch_sizes_from_args(args: &[String]) -> Result<Vec<usize>, String> {
    flag_value(args, "--batch-sizes").map_or(Ok(vec![1, 2, 4, 8]), |v| {
        positive_integers("--batch-sizes", v)
    })
}

/// Parse `--batch-sizes` from `std::env::args`; prints usage to stderr
/// and exits with status 2 on a bad value.
pub fn parse_batch_sizes() -> Vec<usize> {
    // audit:allow(env-read): bench binaries parse their own argv here; flags choose what to benchmark, never what any solver computes
    batch_sizes_from_args(&std::env::args().collect::<Vec<_>>())
        .unwrap_or_else(|usage| usage_exit(&usage))
}

/// Parse `--workers 1,2,4` (scheduler worker counts to sweep) from an
/// argument list; defaults to `[1, 2]`.
///
/// # Errors
///
/// Returns a usage message on an empty or non-positive list.
pub fn workers_from_args(args: &[String]) -> Result<Vec<usize>, String> {
    flag_value(args, "--workers").map_or(Ok(vec![1, 2]), |v| positive_integers("--workers", v))
}

/// Parse `--repeat N` (or `--repeat=N`) from an argument list: how many
/// times a sweep's workload is offered (distinct seeds per copy).
/// Defaults to 1.
///
/// # Errors
///
/// Returns a usage message on a missing or non-positive value.
fn repeat_from_args(args: &[String]) -> Result<usize, String> {
    flag_value(args, "--repeat").map_or(Ok(1), |v| positive_integer("--repeat", v))
}

/// Parse `--repeat N` from `std::env::args`; prints usage to stderr and
/// exits with status 2 on a bad value.
pub fn parse_repeat() -> usize {
    // audit:allow(env-read): bench binaries parse their own argv here; flags choose what to benchmark, never what any solver computes
    repeat_from_args(&std::env::args().collect::<Vec<_>>())
        .unwrap_or_else(|usage| usage_exit(&usage))
}

/// `true` when `--noisy` is present: program every simulated grid in
/// `Fidelity::DeviceAccurate` with typical variation and read noise.
/// The shared spelling keeps the sweeps' usage strings consistent.
pub fn parse_noisy() -> bool {
    has_flag("--noisy")
}

/// Write a JSON artifact under `target/fecim-artifacts/` (the
/// machine-readable record of a harness run, next to its printed
/// table). Errors are reported, not fatal.
pub fn write_artifact(name: &str, json: &serde_json::Value) {
    let dir = std::path::Path::new("target/fecim-artifacts");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create artifact dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(json) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize artifact: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_detection_default() {
        assert!(!has_flag("--definitely-not-set"));
        // No --scale in the test harness args → quick.
        assert_eq!(parse_scale(), HarnessScale::Quick);
        // No --tile-rows in the test harness args → monolithic.
        assert_eq!(parse_tile_rows(), None);
        // No --batch-sizes → the default sweep.
        assert_eq!(parse_batch_sizes(), vec![1, 2, 4, 8]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing_returns_usage_errors_instead_of_panicking() {
        // Valid forms.
        assert_eq!(
            scale_from_args(&args(&["bin", "--scale", "paper"])),
            Ok(HarnessScale::Paper)
        );
        assert_eq!(
            scale_from_args(&args(&["bin", "--scale=quick"])),
            Ok(HarnessScale::Quick)
        );
        assert_eq!(
            tile_rows_from_args(&args(&["bin", "--tile-rows", "256"])),
            Ok(Some(256))
        );
        assert_eq!(
            batch_sizes_from_args(&args(&["bin", "--batch-sizes=1, 3,9"])),
            Ok(vec![1, 3, 9])
        );
        // Invalid forms come back as Err(usage), never a panic.
        for bad in [
            args(&["bin", "--scale", "fast"]),
            args(&["bin", "--scale"]),
            args(&["bin", "--scale=hour"]),
        ] {
            let err = scale_from_args(&bad).expect_err("usage error");
            assert!(err.contains("usage: --scale"), "{err}");
        }
        for bad in [
            args(&["bin", "--tile-rows"]),
            args(&["bin", "--tile-rows", "0"]),
            args(&["bin", "--tile-rows=many"]),
        ] {
            let err = tile_rows_from_args(&bad).expect_err("usage error");
            assert!(err.contains("usage: --tile-rows"), "{err}");
        }
        for bad in [
            args(&["bin", "--batch-sizes"]),
            args(&["bin", "--batch-sizes", "2,0"]),
            args(&["bin", "--batch-sizes="]),
        ] {
            let err = batch_sizes_from_args(&bad).expect_err("usage error");
            assert!(err.contains("usage: --batch-sizes"), "{err}");
        }
        for bad in [
            args(&["bin", "--repeat"]),
            args(&["bin", "--repeat", "0"]),
            args(&["bin", "--repeat=lots"]),
        ] {
            let err = repeat_from_args(&bad).expect_err("usage error");
            assert!(err.contains("usage: --repeat"), "{err}");
        }
    }

    #[test]
    fn repeat_parses_both_spellings_and_defaults_to_one() {
        assert_eq!(repeat_from_args(&args(&["bin"])), Ok(1));
        assert_eq!(repeat_from_args(&args(&["bin", "--repeat", "3"])), Ok(3));
        assert_eq!(repeat_from_args(&args(&["bin", "--repeat=7"])), Ok(7));
        // No --noisy in the test harness args → ideal fidelity.
        assert!(!parse_noisy());
    }
}
