//! Figure 4: execution time vs support threshold.
//!
//! (a) MPPm vs MPP worst case (`n = l1 = 77`);
//! (b) MPPm vs MPP best case (`n = no(ρs)`, the true longest frequent
//! pattern length).
//!
//! Paper configuration: L = 1000, gap `[9,12]`, m = 10. Expected shapes:
//! times fall as ρs rises; MPPm beats the worst case by an order of
//! magnitude or more (paper: 16–30×) and trails the best case by a
//! small factor (paper: 1.5–3.7×).

use super::{paper, pct, timed};
use crate::data::ax_fragment;
use perigap_analysis::report::{seconds, TextTable};
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::mppm::mppm;
use perigap_core::GapRequirement;

/// One ρs row of the Figure 4 sweep.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Support threshold (fraction).
    pub rho: f64,
    /// True longest frequent pattern length `no(ρs)`.
    pub no: usize,
    /// MPPm's automatic estimate of `n`.
    pub n_estimated: usize,
    /// MPPm time.
    pub t_mppm: std::time::Duration,
    /// MPP worst-case time (`n = l1`), if measured.
    pub t_worst: Option<std::time::Duration>,
    /// MPP best-case time (`n = no`).
    pub t_best: std::time::Duration,
    /// Number of frequent patterns mined.
    pub frequent: usize,
}

/// Run the sweep. `include_worst` toggles the expensive worst-case runs
/// (Figure 4(a) needs them; 4(b) does not).
pub fn sweep(seq_len: usize, include_worst: bool, rhos_percent: &[f64]) -> Vec<Fig4Row> {
    let seq = ax_fragment(seq_len);
    let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    let config = MppConfig::default();
    let mut rows = Vec::new();
    for &rho_pct in rhos_percent {
        let rho = rho_pct / 100.0;
        let (auto, t_mppm) =
            timed(|| mppm(&seq, gap, rho, paper::M, config.clone()).expect("mppm runs"));
        let no = auto.longest_len().max(3);
        let (best, t_best) =
            timed(|| mpp(&seq, gap, rho, no, config.clone()).expect("mpp best runs"));
        debug_assert_eq!(best.frequent.len(), auto.frequent.len());
        let t_worst = include_worst.then(|| {
            let l1 = gap.l1(seq.len());
            timed(|| mpp(&seq, gap, rho, l1, config.clone()).expect("mpp worst runs")).1
        });
        rows.push(Fig4Row {
            rho,
            no,
            n_estimated: auto.stats.n_used,
            t_mppm,
            t_worst,
            t_best,
            frequent: auto.frequent.len(),
        });
    }
    rows
}

/// Print Figure 4(a): MPPm vs MPP (worst case).
pub fn run_fig4a(seq_len: usize, rhos_percent: &[f64]) {
    println!("Figure 4(a) — MPPm vs MPP(worst, n = l1); L = {seq_len}, gap [9,12], m = 10\n");
    let rows = sweep(seq_len, true, rhos_percent);
    let mut table = TextTable::new(&[
        "rho",
        "no(rho)",
        "n(MPPm)",
        "MPPm (s)",
        "MPP worst (s)",
        "speedup",
        "patterns",
    ]);
    for r in &rows {
        let worst = r.t_worst.expect("fig4a measures the worst case");
        table.row(&[
            pct(r.rho),
            r.no.to_string(),
            r.n_estimated.to_string(),
            seconds(r.t_mppm),
            seconds(worst),
            format!(
                "{:.1}x",
                worst.as_secs_f64() / r.t_mppm.as_secs_f64().max(1e-9)
            ),
            r.frequent.to_string(),
        ]);
    }
    print!("{}", table.render());
}

/// Print Figure 4(b): MPPm vs MPP (best case).
pub fn run_fig4b(seq_len: usize, rhos_percent: &[f64]) {
    println!("Figure 4(b) — MPPm vs MPP(best, n = no(rho)); L = {seq_len}, gap [9,12], m = 10\n");
    let rows = sweep(seq_len, false, rhos_percent);
    let mut table = TextTable::new(&[
        "rho",
        "no(rho)",
        "n(MPPm)",
        "MPPm (s)",
        "MPP best (s)",
        "slowdown",
        "patterns",
    ]);
    for r in &rows {
        table.row(&[
            pct(r.rho),
            r.no.to_string(),
            r.n_estimated.to_string(),
            seconds(r.t_mppm),
            seconds(r.t_best),
            format!(
                "{:.1}x",
                r.t_mppm.as_secs_f64() / r.t_best.as_secs_f64().max(1e-9)
            ),
            r.frequent.to_string(),
        ]);
    }
    print!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_match_paper() {
        // One cheap point suffices for the structural assertions; the
        // full sweep runs from the harness.
        let rows = sweep(600, true, &[0.003, 0.005]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // MPPm must estimate at least the true longest length
            // (soundness of Theorem 2) and at most l1.
            assert!(r.n_estimated >= r.no);
            assert!(r.no >= 3);
        }
        // Larger rho → no more patterns.
        assert!(rows[1].frequent <= rows[0].frequent);
    }
}
