//! Integration coverage of the extension modules through the facade
//! crate: every related-work comparator and engineering extension is
//! exercised against the reference miner on one shared input.

use perigap::core::asynchronous::{longest_valid_subsequence, mine_singletons, CycleTemplate};
use perigap::core::naive::support_dp;
use perigap::core::rigid::{rigid_mine, RigidConfig};
use perigap::prelude::*;
use perigap::seq::gen::iid::weighted;
use perigap::seq::gen::periodic::{plant_periodic, PeriodicMotif};
use perigap::seq::translate::{find_orfs, translate};
use perigap::store::{load_outcome, save_outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn shared_input() -> (Sequence, GapRequirement, f64) {
    let mut rng = StdRng::seed_from_u64(31415);
    let mut seq = weighted(&mut rng, Alphabet::Dna, 1_500, &[0.3, 0.2, 0.2, 0.3]);
    let spec = PeriodicMotif {
        motif: vec![2, 0, 3, 1],
        gap_min: 4,
        gap_max: 6,
        occurrences: 90,
    };
    plant_periodic(&mut rng, &mut seq, &spec);
    (seq, GapRequirement::new(4, 6).unwrap(), 0.0005)
}

#[test]
fn parallel_equals_serial_on_shared_input() {
    let (seq, gap, rho) = shared_input();
    let serial = mpp(&seq, gap, rho, 12, MppConfig::default()).unwrap();
    let pooled = MppConfig {
        threads: 4,
        ..MppConfig::default()
    };
    let parallel = mpp(&seq, gap, rho, 12, pooled).unwrap();
    assert_eq!(serial.frequent.len(), parallel.frequent.len());
    for (a, b) in serial.frequent.iter().zip(&parallel.frequent) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.support, b.support);
    }
}

#[test]
fn uniform_profile_equals_reference_on_shared_input() {
    let (seq, gap, rho) = shared_input();
    let reference = mpp(&seq, gap, rho, 10, MppConfig::default()).unwrap();
    let profile = GapProfile::uniform(gap, 14);
    let mined = mine_with_profile(&seq, &profile, rho, 10).unwrap();
    assert_eq!(reference.frequent.len(), mined.frequent.len());
    for f in &reference.frequent {
        assert_eq!(mined.get(&f.pattern).unwrap().support, f.support);
    }
}

#[test]
fn rigid_baseline_splits_flexible_support() {
    let (seq, gap, _) = shared_input();
    let motif = Pattern::parse("GATC", &Alphabet::Dna).unwrap();
    let flexible = support_dp(&seq, gap, &motif);
    let rigid = rigid_mine(
        &seq,
        RigidConfig {
            density_l: 2,
            density_w: 7,
            min_support: 3,
            min_solids: 4,
            max_solids: 4,
        },
    )
    .unwrap();
    let best_layout = rigid
        .iter()
        .filter(|r| {
            let solids: Vec<u8> = r.pattern.slots().iter().flatten().copied().collect();
            solids == [2, 0, 3, 1]
        })
        .map(|r| r.support as u128)
        .max()
        .unwrap_or(0);
    assert!(
        flexible > best_layout,
        "flexible gaps pool ({flexible}) what rigid layouts split (best {best_layout})"
    );
    // Sanity: the sum over all layouts is at least the flexible count
    // is NOT generally true (layout combinations multiply), but each
    // layout's support is a lower bound contributor.
    assert!(
        best_layout > 0,
        "the planted motif has at least one rigid layout"
    );
}

#[test]
fn asynchronous_model_needs_contiguity_flexible_model_does_not() {
    // Periodic A's at *varying* spacing 5–7: a fixed-period template
    // cannot chain them, the flexible-gap miner counts them all.
    let mut codes = vec![1u8; 600];
    let mut pos = 3usize;
    let mut step = 0usize;
    while pos < 590 {
        codes[pos] = 0;
        pos += 6 + (step % 3) - 1; // steps 5, 6, 7, 5, 6, 7 …
        step += 1;
    }
    let seq = Sequence::from_codes(Alphabet::Dna, codes).unwrap();
    // Flexible-gap support of AAA with gap [4,6] (steps 5..7).
    let gap = GapRequirement::new(4, 6).unwrap();
    let aaa = Pattern::parse("AAA", &Alphabet::Dna).unwrap();
    let flexible = support_dp(&seq, gap, &aaa);
    assert!(
        flexible > 50,
        "flexible model sees the varying-period chain: {flexible}"
    );
    // Fixed-period template (p = 6) only catches stretches where the
    // spacing happens to be exactly 6.
    let template = CycleTemplate::singleton(6, 0, 0);
    let best = longest_valid_subsequence(&seq, &template, 2, 3)
        .map(|v| v.repetitions)
        .unwrap_or(0);
    assert!(
        best < 20,
        "fixed-period model breaks on varying spacing (best {best})"
    );
    // But the singleton miner still works on truly fixed-period data.
    let fixed = Sequence::dna(&"ATTTTT".repeat(40)).unwrap();
    let mined = mine_singletons(&fixed, 6, 3, 2, 10).unwrap();
    assert!(mined
        .iter()
        .any(|(t, v)| t.solid_count() == 1 && v.repetitions >= 39));
}

#[test]
fn translation_bridges_to_protein_mining() {
    // Build a coding region whose protein has a 7-residue periodicity,
    // then mine the protein side — the paper's suggested workflow for
    // its α-helix explanation.
    let unit_protein = "LKDAQGE"; // 7 residues
                                  // Reverse-translate with arbitrary codons.
    let codon_for = |aa: char| match aa {
        'L' => "CTG",
        'K' => "AAA",
        'D' => "GAT",
        'A' => "GCT",
        'Q' => "CAA",
        'G' => "GGT",
        'E' => "GAA",
        _ => unreachable!(),
    };
    let mut dna = String::from("ATG");
    for _ in 0..12 {
        for aa in unit_protein.chars() {
            dna.push_str(codon_for(aa));
        }
    }
    dna.push_str("TAA");
    let gene = Sequence::dna(&dna).unwrap();
    let orfs = find_orfs(&gene, 10);
    assert_eq!(orfs.len(), 1);
    let protein = translate(&gene, 0, true);
    assert_eq!(protein.len(), 1 + 12 * 7); // M + repeats
                                           // Mine the protein at the repeat period: gap [6,6] (7 residues apart).
    let gap = GapRequirement::new(6, 6).unwrap();
    let outcome = mppm(&protein, gap, 0.05, 2, MppConfig::default()).unwrap();
    assert!(
        outcome.longest_len() >= 5,
        "periodic residues should chain across repeats: longest {}",
        outcome.longest_len()
    );
}

#[test]
fn store_roundtrip_through_facade() {
    let (seq, gap, rho) = shared_input();
    let outcome = mppm(&seq, gap, rho, 3, MppConfig::default()).unwrap();
    let buf = save_outcome(Vec::new(), &outcome, gap, rho).unwrap();
    let loaded = load_outcome(&buf[..]).unwrap();
    assert_eq!(loaded.outcome.frequent.len(), outcome.frequent.len());
    // The reloaded outcome passes the independent audit.
    let problems = perigap::core::verify::verify_outcome(&seq, gap, rho, &loaded.outcome);
    assert!(problems.is_empty(), "{problems:?}");
}
