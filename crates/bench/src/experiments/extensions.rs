//! Extension demonstrations beyond the paper's evaluation:
//!
//! 1. the cross-window loss of the related-work windowed model
//!    (Section 2's "patterns that span multiple windows cannot be
//!    discovered", quantified);
//! 2. collection mining across the case-study bacteria panel;
//! 3. heterogeneous gap profiles (the introduction's general form).

use super::paper;
use crate::data::{ax_fragment, bacteria_panel};
use perigap_analysis::report::TextTable;
use perigap_core::mpp::MppConfig;
use perigap_core::mppm::mppm;
use perigap_core::multiseq::mine_collection;
use perigap_core::profile::{mine_with_profile, GapProfile};
use perigap_core::windowed::{cross_window_loss, windowed_mine};
use perigap_core::GapRequirement;
use perigap_seq::Alphabet;

/// Run all three demonstrations.
pub fn run(seq_len: usize) {
    let gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    let seq = ax_fragment(seq_len);

    // 1. Windowed-model loss. The windowed model's binary per-window
    // occurrence is so unselective that mining it deep explodes (its
    // Apriori property prunes almost nothing at genomic thresholds), so
    // the comparison is run at lengths ≤ 6; longer reference patterns
    // are counted as structurally lost whenever their minimum span
    // exceeds the window.
    println!("Extension 1 — cross-window loss (related-work model, Section 2)\n");
    const CMP_LEN: usize = 6;
    let reference = mppm(&seq, gap, paper::RHO, paper::M, MppConfig::default()).expect("runs");
    let short_ref: Vec<_> = reference
        .frequent
        .iter()
        .filter(|f| f.len() <= CMP_LEN)
        .collect();
    let mut table = TextTable::new(&[
        "window",
        "visible (len<=6)",
        "lost (len<=6)",
        "structurally lost (span > window)",
    ]);
    for window in [60usize, 120, 250] {
        let windowed = windowed_mine(
            &seq,
            gap,
            window,
            2,
            MppConfig {
                max_level: Some(CMP_LEN),
                ..MppConfig::default()
            },
        )
        .expect("runs");
        let lost_short = short_ref
            .iter()
            .filter(|f| windowed.get(&f.pattern).is_none())
            .count();
        let structural = reference
            .frequent
            .iter()
            .filter(|f| gap.min_span(f.len()) > window)
            .count();
        table.row(&[
            window.to_string(),
            windowed.patterns.len().to_string(),
            format!("{} / {}", lost_short, short_ref.len()),
            format!("{} / {}", structural, reference.frequent.len()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "(whole-sequence model: {} patterns, longest {}; minspan({}) = {})\n",
        reference.frequent.len(),
        reference.longest_len(),
        reference.longest_len(),
        gap.min_span(reference.longest_len())
    );
    let _ = cross_window_loss; // full-set variant available via the API

    // 2. Collection mining over the bacteria panel.
    println!("Extension 2 — collection mining (frequent in every genome)\n");
    let genomes: Vec<_> = bacteria_panel(seq_len.max(2_000))
        .into_iter()
        .map(|(_, g)| g)
        .collect();
    let study_gap = GapRequirement::new(10, 12).expect("static gap");
    let collection = mine_collection(
        &genomes,
        study_gap,
        0.00006,
        genomes.len(),
        12,
        MppConfig::default(),
    )
    .expect("runs");
    println!(
        "{} patterns frequent in all {} bacterial genomes (longest = {})",
        collection.patterns.len(),
        genomes.len(),
        collection.longest_len()
    );
    let at_only = collection
        .patterns
        .iter()
        .filter(|p| p.pattern.codes().iter().all(|&c| c == 0 || c == 3))
        .count();
    println!("{at_only} of them are A/T-only — the case-study signal, cross-genome\n");

    // 3. Heterogeneous gap profile.
    println!("Extension 3 — per-step gap profile (general form from Section 1)\n");
    let profile = GapProfile::new(vec![
        GapRequirement::new(9, 12).expect("static"),
        GapRequirement::new(9, 12).expect("static"),
        GapRequirement::new(20, 26).expect("static"), // a skipped period
        GapRequirement::new(9, 12).expect("static"),
    ])
    .expect("non-empty profile");
    let mined = mine_with_profile(&seq, &profile, paper::RHO, 5).expect("runs");
    println!(
        "profile [9,12] [9,12] [20,26] [9,12]: {} frequent patterns, longest = {}",
        mined.frequent.len(),
        mined.longest_len()
    );
    for f in mined.frequent.iter().rev().take(5) {
        println!(
            "  {:<6} sup = {:<7} ratio = {:.6}",
            f.pattern.display(&Alphabet::Dna),
            f.support,
            f.ratio
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_run_on_small_input() {
        // Smoke coverage: the full run prints; here just exercise the
        // pieces cheaply.
        let gap = GapRequirement::new(9, 12).unwrap();
        let seq = ax_fragment(400);
        let reference = mppm(&seq, gap, paper::RHO, 4, MppConfig::default()).unwrap();
        let windowed = windowed_mine(
            &seq,
            gap,
            60,
            2,
            MppConfig {
                max_level: Some(4),
                ..MppConfig::default()
            },
        )
        .unwrap();
        let lost = cross_window_loss(&reference, &windowed);
        assert!(lost.len() <= reference.frequent.len());
    }
}
