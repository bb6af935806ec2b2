//! Table 3: candidates counted per level by the four miners.
//!
//! Paper configuration: L = 1000, gap `[9,12]`, ρs = 0.003%, m = 10.
//! Columns: the enumeration baseline (4^i analytically — actually
//! running it is the point of the table: it cannot), MPP worst case
//! (n = l1), MPPm, and MPP best case (n = no(ρs)). Expected shape:
//! enumeration explodes; MPP(worst) peaks in the hundreds of thousands
//! around level 9–10; MPPm collapses earlier; MPP(best) is smallest.

use super::paper;
use crate::data::ax_fragment;
use perigap_analysis::report::TextTable;
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::mppm::mppm;
use perigap_core::result::MineStats;
use perigap_core::GapRequirement;
use perigap_math::combinatorics::strings_of_length;

/// The per-level candidate counts of one run, indexed by level.
fn counts_by_level(stats: &MineStats) -> std::collections::HashMap<usize, u128> {
    stats
        .levels
        .iter()
        .map(|l| (l.level, l.candidates))
        .collect()
}

/// Compute and print Table 3.
pub fn run(seq_len: usize) {
    println!("Table 3 — candidates per level; L = {seq_len}, gap [9,12], rho = 0.003%, m = 10\n");
    let seq = ax_fragment(seq_len);
    let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    let config = MppConfig::default();

    let auto = mppm(&seq, gap, paper::RHO, paper::M, config.clone()).expect("mppm runs");
    let no = auto.longest_len().max(3);
    let best = mpp(&seq, gap, paper::RHO, no, config.clone()).expect("mpp best runs");
    let worst =
        mpp(&seq, gap, paper::RHO, gap.l1(seq.len()), config.clone()).expect("mpp worst runs");

    let auto_counts = counts_by_level(&auto.stats);
    let best_counts = counts_by_level(&best.stats);
    let worst_counts = counts_by_level(&worst.stats);
    let max_level = worst
        .stats
        .levels
        .iter()
        .chain(&auto.stats.levels)
        .chain(&best.stats.levels)
        .map(|l| l.level)
        .max()
        .unwrap_or(3);

    let mut table = TextTable::new(&["level", "Enumeration", "MPP (worst)", "MPPm", "MPP (best)"]);
    let fmt = |v: Option<&u128>| v.map_or("-".to_string(), |c| c.to_string());
    for level in 3..=max_level {
        let enumeration = strings_of_length(4, level as u32);
        table.row(&[
            format!("C{level}"),
            enumeration.to_string(),
            fmt(worst_counts.get(&level)),
            fmt(auto_counts.get(&level)),
            fmt(best_counts.get(&level)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nno(rho) = {no}; MPPm estimated n = {}; MPP worst used n = {}",
        auto.stats.n_used, worst.stats.n_used
    );
    println!(
        "Totals: MPP(worst) {} / MPPm {} / MPP(best) {} candidates",
        worst.stats.total_candidates(),
        auto.stats.total_candidates(),
        best.stats.total_candidates()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_match_paper() {
        // Small instance: the orderings (best ≤ MPPm ≤ worst in total
        // candidates) must hold, as in Table 3.
        let seq = ax_fragment(500);
        let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).unwrap();
        let config = MppConfig::default();
        let auto = mppm(&seq, gap, paper::RHO, 6, config.clone()).unwrap();
        let no = auto.longest_len().max(3);
        let best = mpp(&seq, gap, paper::RHO, no, config.clone()).unwrap();
        let worst = mpp(&seq, gap, paper::RHO, gap.l1(500), config.clone()).unwrap();
        assert!(best.stats.total_candidates() <= auto.stats.total_candidates());
        assert!(auto.stats.total_candidates() <= worst.stats.total_candidates());
        // All three find the same frequent set.
        assert_eq!(best.frequent.len(), worst.frequent.len());
        assert_eq!(auto.frequent.len(), worst.frequent.len());
    }
}
