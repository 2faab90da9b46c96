//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the common pieces: wall-clock timing, the epsilon
//! sweeps the paper uses, and plain-text table rendering.

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod emit;

use std::time::Instant;

/// The epsilon sweep used by the paper's Tables 2 and 3:
/// `inf, 1.5, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0`.
pub const TABLE_EPS: [f64; 9] = [f64::INFINITY, 1.5, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0];

/// The epsilon sweep used by the paper's Table 4 (random nets):
/// `0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0`.
pub const TABLE4_EPS: [f64; 7] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0];

/// The net sizes (sink counts) of the paper's random benchmark set (4).
pub const RANDOM_NET_SIZES: [usize; 5] = [5, 8, 10, 12, 15];

/// Number of random cases per net size (the paper uses 50).
pub const RANDOM_CASES: usize = 50;

/// Base seed for the random suite, offset per net size so suites don't
/// overlap.
pub fn suite_seed(num_sinks: usize) -> u64 {
    0x5EED_0000 + (num_sinks as u64) * 1_000
}

/// Runs `f`, returning its result and the elapsed wall-clock seconds.
///
/// The paper reports HP-PA/SUN CPU seconds; we report wall-clock on the
/// reproduction machine — only *relative* times are comparable.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats an epsilon the way the paper's tables print it (`inf` for the
/// unbounded row).
pub fn fmt_eps(eps: f64) -> String {
    if eps.is_infinite() {
        "inf".to_owned()
    } else {
        format!("{eps:.1}")
    }
}

/// Returns `true` when the process arguments contain `flag`
/// (e.g. `--full`).
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Least-squares slope of `ln(time)` against `ln(n)` — the empirical
/// scaling exponent of a `(n, time)` sweep (`~2.0` for quadratic, `~1.0`
/// for linear). Time units cancel out; only ratios matter.
///
/// Returns `None` when fewer than two *distinct* positive sizes remain
/// after dropping non-positive points (log of zero is undefined; a
/// zero-micros measurement means the clock under-resolved, not that the
/// algorithm is free).
pub fn fit_scaling_exponent(points: &[(f64, f64)]) -> Option<f64> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(n, t)| *n > 0.0 && *t > 0.0)
        .map(|(n, t)| (n.ln(), t.ln()))
        .collect();
    let k = logs.len() as f64;
    let distinct = {
        let mut xs: Vec<u64> = logs.iter().map(|(x, _)| x.to_bits()).collect();
        xs.sort_unstable();
        xs.dedup();
        xs.len()
    };
    if distinct < 2 {
        return None;
    }
    let mean_x = logs.iter().map(|(x, _)| x).sum::<f64>() / k;
    let mean_y = logs.iter().map(|(_, y)| y).sum::<f64>() / k;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// Simple aggregate of a sample: average, maximum, minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub ave: f64,
    /// Maximum.
    pub max: f64,
    /// Minimum.
    pub min: f64,
}

impl Aggregate {
    /// Computes the aggregate of a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Aggregate {
        assert!(!samples.is_empty(), "aggregate of an empty sample");
        let ave = samples.iter().sum::<f64>() / samples.len() as f64;
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        Aggregate { ave, max, min }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn aggregate_of_sample() {
        let a = Aggregate::of(&[1.0, 3.0, 2.0]);
        assert_eq!(a.ave, 2.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.min, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn aggregate_empty_panics() {
        Aggregate::of(&[]);
    }

    #[test]
    fn eps_formatting() {
        assert_eq!(fmt_eps(f64::INFINITY), "inf");
        assert_eq!(fmt_eps(0.5), "0.5");
        assert_eq!(fmt_eps(0.0), "0.0");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn exponent_fit_recovers_power_laws() {
        // Exact quadratic: t = 3 n^2.
        let quad: Vec<(f64, f64)> = [10.0, 100.0, 1000.0]
            .iter()
            .map(|&n: &f64| (n, 3.0 * n * n))
            .collect();
        assert!((fit_scaling_exponent(&quad).unwrap() - 2.0).abs() < 1e-9);
        // Exact linear.
        let lin: Vec<(f64, f64)> = [32.0, 64.0, 128.0].iter().map(|&n| (n, 5.0 * n)).collect();
        assert!((fit_scaling_exponent(&lin).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponent_fit_rejects_degenerate_sweeps() {
        assert!(fit_scaling_exponent(&[]).is_none());
        assert!(fit_scaling_exponent(&[(100.0, 5.0)]).is_none());
        // Same n twice is one distinct size.
        assert!(fit_scaling_exponent(&[(100.0, 5.0), (100.0, 6.0)]).is_none());
        // Zero-time points are dropped, leaving one usable point.
        assert!(fit_scaling_exponent(&[(100.0, 0.0), (200.0, 5.0)]).is_none());
    }

    #[test]
    fn suite_seeds_disjoint() {
        let seeds: Vec<u64> = RANDOM_NET_SIZES.iter().map(|&n| suite_seed(n)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }
}
