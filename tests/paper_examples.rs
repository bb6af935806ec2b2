//! Every worked example in the paper, verified end to end against the
//! public API. Each test cites the section it reproduces.

use perigap::core::em::kr_table;
use perigap::core::naive::{enumerate_matches, support_dp};
use perigap::core::pil::Pil;
use perigap::prelude::*;

fn pat(text: &str) -> Pattern {
    Pattern::parse(text, &Alphabet::Dna).unwrap()
}

#[test]
fn section3_support_of_ac_in_aagcc() {
    // "if S = AAGCC, P = AC, and gap requirement is [2,3] … sup(P) = 3"
    let s = Sequence::dna("AAGCC").unwrap();
    let gap = GapRequirement::new(2, 3).unwrap();
    assert_eq!(support_dp(&s, gap, &pat("AC")), 3);
    let offsets = enumerate_matches(&s, gap, &pat("AC"));
    assert_eq!(offsets, vec![vec![1, 4], vec![1, 5], vec![2, 5]]);
}

#[test]
fn section3_pattern_length_ignores_wildcards() {
    // "if P = A..T.C, then |P| = 3"
    assert_eq!(pat("ATC").len(), 3);
    let gap = GapRequirement::new(8, 10).unwrap();
    assert_eq!(
        pat("ATC").display_with_gaps(&Alphabet::Dna, gap),
        "Ag(8,10)Tg(8,10)C"
    );
}

#[test]
fn section4_table1_notation() {
    // minspan(l) = (l−1)N + l, maxspan(l) = (l−1)M + l,
    // l1 = ⌊(L+M)/(M+1)⌋, l2 = ⌊(L+N)/(N+1)⌋.
    let gap = GapRequirement::new(3, 4).unwrap();
    assert_eq!(gap.min_span(3), 9); // "a length-3 pattern spans at least 9"
    let gap = GapRequirement::new(9, 12).unwrap();
    assert_eq!(gap.l1(1000), 77);
    assert_eq!(gap.l2(1000), 100);
    assert_eq!(gap.flexibility(), 4);
}

#[test]
fn section41_n10_is_235_million() {
    // "The number of length-10 offset sequences N10 is about 235 million."
    let counts = OffsetCounts::new(1000, GapRequirement::new(9, 12).unwrap());
    let n10 = counts.n(10).to_u64().unwrap();
    assert_eq!(n10, 235_012_096);
    assert!((234_000_000..236_000_000).contains(&n10));
}

#[test]
fn section42_apriori_property_fails() {
    // "S = ACTTT … sup(P1 = AT) = 3 while sup(P2 = A) = 1"
    let s = Sequence::dna("ACTTT").unwrap();
    let gap = GapRequirement::new(1, 3).unwrap();
    assert_eq!(support_dp(&s, gap, &pat("AT")), 3);
    assert_eq!(support_dp(&s, gap, &pat("A")), 1);
}

#[test]
fn section42_table2_kr_values() {
    // "S = ACGTCCGT, the gap requirement is [1,2], and m = 2 …
    //  K = [2,1,2,1,0,0,0,0] … em = 2"
    let s = Sequence::dna("ACGTCCGT").unwrap();
    let gap = GapRequirement::new(1, 2).unwrap();
    let (krs, em) = kr_table(&s, gap, 2);
    assert_eq!(krs, vec![2, 1, 2, 1, 0, 0, 0, 0]);
    assert_eq!(em, 2);
}

#[test]
fn section51_pil_example() {
    // "if S = AACCGTT, P = ACT, [N,M] = [1,2], then PIL(P) = {(1,3),(2,2)}"
    let s = Sequence::dna("AACCGTT").unwrap();
    let gap = GapRequirement::new(1, 2).unwrap();
    let pils = Pil::build_all(&s, gap, 3);
    let pil = &pils[&pat("ACT")];
    assert_eq!(pil.entries().collect::<Vec<_>>(), [(1, 3), (2, 2)]);
    assert_eq!(pil.support(), 5);
}

#[test]
fn section51_candidate_join() {
    // "P1 = ACG and P2 = CGT generate ACGT"
    assert_eq!(pat("ACG").join(&pat("CGT")), Some(pat("ACGT")));
}

#[test]
fn section7_class_arithmetic() {
    // "there are 4^8 = 65,536 possible length-8 patterns, among which
    //  2^8 = 256 contain only 'A's and 'T's, and 8×2×2^7 = 2,048 contain
    //  exactly one 'C' or 'G' … 63,232 … more than one"
    let (at, one, many) = perigap::analysis::composition::class_totals(8);
    assert_eq!((at, one, many), (256, 2_048, 63_232));
}

#[test]
fn section7_self_repeating_patterns() {
    // "we found periodic patterns that repeat themselves, such as
    //  ATATATATATA, GTAGTAGTAGT"
    assert!(pat("ATATATATATA").is_self_repeating());
    assert!(pat("GTAGTAGTAGT").is_self_repeating());
    // And the 16/17-G H. sapiens patterns are runs:
    assert!(Pattern::from_codes(vec![2; 17]).is_self_repeating());
}
