//! One module per paper table/figure. Each `run` prints the
//! regenerated rows to stdout; the `repro` binary dispatches here.
//!
//! Absolute times will not match a 2005 testbed; the *shapes* are the
//! reproduction target — who wins, by what factor, where candidate
//! counts collapse. EXPERIMENTS.md records paper-vs-measured for each.

pub mod bench_mining;
pub mod casestudy;
pub mod counts;
pub mod extensions;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod skew;
pub mod table2;
pub mod table3;

use std::time::{Duration, Instant};

/// The paper's standard experimental configuration (Section 6).
pub mod paper {
    /// Subject sequence length of most experiments.
    pub const SEQ_LEN: usize = 1_000;
    /// Minimum gap.
    pub const GAP_MIN: usize = 9;
    /// Maximum gap.
    pub const GAP_MAX: usize = 12;
    /// MPPm window parameter for Figures 4, 8 and Table 3.
    pub const M: usize = 10;
    /// Support threshold (0.003%).
    pub const RHO: f64 = 0.003e-2;
    /// The ρs sweep of Figure 4, in percent.
    pub const RHO_SWEEP_PERCENT: [f64; 8] =
        [0.0015, 0.002, 0.0025, 0.003, 0.0035, 0.004, 0.0045, 0.005];
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Time a closure `repeats` times and report the median duration with
/// the last result — the timing sweeps (Figures 5–8) measure effects
/// of 10–50%, which single-shot wall clocks would bury in noise.
pub fn timed_median<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(repeats >= 1, "need at least one repetition");
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed());
    }
    times.sort();
    (last.expect("at least one run"), times[times.len() / 2])
}

/// Render a percentage like the paper's axis labels.
pub fn pct(rho: f64) -> String {
    format!("{:.4}%", rho * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_paper_values() {
        assert_eq!(pct(0.00003), "0.0030%");
        assert_eq!(pct(0.000015), "0.0015%");
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
