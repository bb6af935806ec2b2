//! The Section 7 case study on synthetic genome panels.
//!
//! Paper protocol: segment each genome into 100 kb fragments, mine each
//! with gap `[10,12]` and ρs = 0.006%, and tabulate the composition of
//! the frequent length-8 patterns. Expected findings:
//!
//! * bacteria: on average ≈ 250 of the 256 A/T-only length-8 patterns
//!   frequent per fragment; only ≈ 3.9 of the 63,232 C/G-heavy ones;
//! * eukaryotes: A/T patterns still frequent, *plus* G-run patterns
//!   (e.g. `GGGGGGGG`) frequent in some fragments;
//! * self-repeating patterns (`ATATATATATA`-style) appear;
//! * some A/T patterns are ubiquitous (frequent in every fragment).
//!
//! `scale` shrinks genome/fragment sizes so the study runs in seconds
//! (scale 1.0 = the paper's 100 kb fragments).

use perigap_analysis::casestudy::{run_case_study, CaseStudyConfig, GenomeReport};
use perigap_analysis::composition::{class_totals, self_repeating};
use perigap_analysis::report::TextTable;
use perigap_seq::Alphabet;

use crate::data::{bacteria_panel, eukaryote_panel};

/// Run the case study at the given scale and print per-genome tables.
pub fn run(scale: f64) {
    let config = CaseStudyConfig::paper_scaled(scale);
    let genome_len = config.fragment_width * 4; // four fragments per genome
    println!(
        "Case study (Section 7) — fragments of {} bases, gap {}, rho = {:.4}%, focal length {}\n",
        config.fragment_width,
        config.gap,
        config.rho * 100.0,
        config.focal_length
    );
    let (at_total, one_total, many_total) = class_totals(config.focal_length as u32);
    println!(
        "Class sizes at length {}: {} A/T-only, {} one-C/G, {} many-C/G\n",
        config.focal_length, at_total, one_total, many_total
    );

    let mut reports: Vec<(&str, GenomeReport)> = Vec::new();
    for (name, genome) in bacteria_panel(genome_len) {
        let report = run_case_study(&name, &genome, &config).expect("case study runs");
        reports.push(("bacteria", report));
    }
    for (name, genome) in eukaryote_panel(genome_len) {
        let report = run_case_study(&name, &genome, &config).expect("case study runs");
        reports.push(("eukaryote", report));
    }

    let mut table = TextTable::new(&[
        "genome",
        "kind",
        "fragments",
        "mean A/T-only",
        "mean many-C/G",
        "ubiquitous A/T",
        "longest",
    ]);
    for (kind, report) in &reports {
        table.row(&[
            report.name.clone(),
            kind.to_string(),
            report.fragments.len().to_string(),
            format!("{:.1}", report.mean_at_only()),
            format!("{:.1}", report.mean_many_cg()),
            report
                .ubiquitous()
                .iter()
                .filter(|p| {
                    use perigap_analysis::composition::{classify, CompositionClass};
                    classify(p) == CompositionClass::AtOnly
                })
                .count()
                .to_string(),
            report.longest().to_string(),
        ]);
    }
    print!("{}", table.render());

    // Cross-kind exclusives: patterns in eukaryotes never seen in
    // bacteria (the paper's G-runs).
    let bac_all: std::collections::HashSet<_> = reports
        .iter()
        .filter(|(k, _)| *k == "bacteria")
        .flat_map(|(_, r)| r.fragments.iter())
        .flat_map(|f| f.focal_patterns.iter().cloned())
        .collect();
    let mut euk_only: Vec<String> = reports
        .iter()
        .filter(|(k, _)| *k == "eukaryote")
        .flat_map(|(_, r)| r.fragments.iter())
        .flat_map(|f| f.focal_patterns.iter())
        .filter(|p| !bac_all.contains(*p))
        .map(|p| p.display(&Alphabet::Dna))
        .collect();
    euk_only.sort();
    euk_only.dedup();
    println!(
        "\nEukaryote-only focal patterns ({}): {}",
        euk_only.len(),
        preview(&euk_only, 12)
    );

    // Self-repeating patterns, pooled.
    for (kind, report) in &reports {
        // Collapse each genome's outcomes into a representative list.
        let _ = kind;
        let mut reps: Vec<String> = report
            .fragments
            .iter()
            .flat_map(|f| f.focal_patterns.iter())
            .filter(|p| p.is_self_repeating())
            .map(|p| p.display(&Alphabet::Dna))
            .collect();
        reps.sort();
        reps.dedup();
        if !reps.is_empty() {
            println!("Self-repeating in {}: {}", report.name, preview(&reps, 6));
        }
    }
    let _ = self_repeating; // re-exported entry point; full lists via the API
}

fn preview(items: &[String], max: usize) -> String {
    if items.len() <= max {
        items.join(" ")
    } else {
        format!("{} … (+{})", items[..max].join(" "), items.len() - max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_study_shows_at_dominance() {
        // Tiny scale for CI speed: one bacterial genome.
        let config = CaseStudyConfig::paper_scaled(0.01); // 1 kb fragments
        let (name, genome) = crate::data::bacteria_panel(config.fragment_width * 2)
            .into_iter()
            .next()
            .unwrap();
        let report = run_case_study(&name, &genome, &config).unwrap();
        assert_eq!(report.fragments.len(), 2);
        let (at_total, _, many_total) = class_totals(config.focal_length as u32);
        let at_frac = report.mean_at_only() / at_total as f64;
        let cg_frac = report.mean_many_cg() / many_total as f64;
        assert!(
            at_frac >= cg_frac,
            "A/T class should dominate: {at_frac:.4} vs {cg_frac:.4}"
        );
    }
}
