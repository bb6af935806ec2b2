//! Figure 5: MPP execution time as a function of the user input `n`.
//!
//! Paper configuration: L = 1000, gap `[9,12]`, ρs = 0.003%. Expected
//! shape: time grows with `n` (worse estimates prune less); an
//! under-estimate (`n` below `no(ρs)`) is fastest of all but forfeits
//! the completeness guarantee. The `--adaptive` variant additionally
//! reports the Section 6 adaptive-n strategy.

use super::{paper, timed_median};
use crate::data::ax_fragment;
use perigap_analysis::report::{seconds, TextTable};
use perigap_core::adaptive::adaptive_mpp;
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::GapRequirement;

/// Time MPP for each `n` in `ns`; returns `(n, seconds, patterns,
/// longest)` rows.
pub fn sweep(seq_len: usize, ns: &[usize]) -> Vec<(usize, std::time::Duration, usize, usize)> {
    let seq = ax_fragment(seq_len);
    let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    ns.iter()
        .map(|&n| {
            let (outcome, t) = timed_median(3, || {
                mpp(&seq, gap, paper::RHO, n, MppConfig::default()).expect("mpp runs")
            });
            (n, t, outcome.frequent.len(), outcome.longest_len())
        })
        .collect()
}

/// Print the Figure 5 table (optionally with the adaptive-n row).
pub fn run(seq_len: usize, ns: &[usize], adaptive: bool) {
    println!("Figure 5 — MPP time vs user input n; L = {seq_len}, gap [9,12], rho = 0.003%\n");
    let mut table = TextTable::new(&["n", "time (s)", "patterns", "longest"]);
    for (n, t, patterns, longest) in sweep(seq_len, ns) {
        table.row(&[
            n.to_string(),
            seconds(t),
            patterns.to_string(),
            longest.to_string(),
        ]);
    }
    print!("{}", table.render());

    if adaptive {
        let seq = ax_fragment(seq_len);
        let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
        let result =
            adaptive_mpp(&seq, gap, paper::RHO, 10, MppConfig::default()).expect("adaptive runs");
        println!(
            "\nAdaptive-n (Section 6): trajectory {:?}, total {} s, {} patterns, longest {}",
            result.n_trajectory,
            seconds(result.total_elapsed),
            result.outcome.frequent.len(),
            result.outcome.longest_len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_n_never_finds_fewer_guaranteed_patterns() {
        let rows = sweep(600, &[5, 10, 25]);
        assert_eq!(rows.len(), 3);
        // Pattern counts are monotone in n up to the complete set.
        assert!(rows[0].2 <= rows[2].2);
    }
}
