//! The adaptive-n strategy sketched at the end of Section 6.
//!
//! "If a user has no idea of a good n value, we could run MPP using a
//! small n … note the longest pattern discovered, use its length to
//! refine n and re-execute MPP. This process could continue until we
//! cannot refine n further." Each round with a small `n` is cheap, so a
//! few rounds still beat one worst-case run.
//!
//! Correctness note: a fixed point of this iteration is *heuristic* —
//! MPP with input `n` only guarantees completeness for lengths ≤ `n`,
//! so a frequent pattern longer than the fixed point could in principle
//! be missed if none of its length-`n` fragments surfaced. The paper
//! proposes the scheme on exactly those terms ("we do not explore this
//! approach further"); MPPm remains the sound way to choose `n`.

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{clamp_n, mpp, MppConfig};
use crate::result::MineOutcome;
use perigap_seq::Sequence;
use std::time::Instant;

/// Outcome of an adaptive run, with the refinement trajectory.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// The final mining outcome.
    pub outcome: MineOutcome,
    /// The `n` used at each round (first entry is `initial_n`).
    pub n_trajectory: Vec<usize>,
    /// Total wall-clock across rounds.
    pub total_elapsed: std::time::Duration,
}

/// Run MPP repeatedly, growing `n` to the longest pattern found, until
/// the estimate stops changing (or reaches `l1`).
///
/// `initial_n` is the first guess; the paper suggests 10.
pub fn adaptive_mpp(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    initial_n: usize,
    config: MppConfig,
) -> Result<AdaptiveOutcome, MineError> {
    let started = Instant::now();
    let l1 = gap.l1(seq.len());
    let mut n = clamp_n(initial_n, l1);
    let mut trajectory = vec![n];
    let mut outcome = mpp(seq, gap, rho, n, config.clone())?;
    loop {
        // Refine: the next n must cover everything seen so far.
        let next_n = clamp_n(outcome.longest_len(), l1);
        if next_n <= n {
            break;
        }
        n = next_n;
        trajectory.push(n);
        outcome = mpp(seq, gap, rho, n, config.clone())?;
    }
    Ok(AdaptiveOutcome {
        outcome,
        n_trajectory: trajectory,
        total_elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn reaches_fixed_point() {
        let s = uniform(&mut StdRng::seed_from_u64(41), Alphabet::Dna, 250);
        let g = gap(1, 3);
        let adaptive = adaptive_mpp(&s, g, 0.0008, 4, MppConfig::default()).unwrap();
        // The final n covers the longest pattern found.
        let final_n = *adaptive.n_trajectory.last().unwrap();
        assert!(final_n >= adaptive.outcome.longest_len().min(g.l1(250)));
        // Trajectory grows strictly.
        assert!(adaptive.n_trajectory.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn agrees_with_worst_case_when_converged() {
        let s = uniform(&mut StdRng::seed_from_u64(42), Alphabet::Dna, 150);
        let g = gap(2, 4);
        let rho = 0.0015;
        let adaptive = adaptive_mpp(&s, g, rho, 10, MppConfig::default()).unwrap();
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        // On these inputs the heuristic converges to the complete set.
        assert_eq!(adaptive.outcome.frequent.len(), worst.frequent.len());
        for f in &worst.frequent {
            assert!(adaptive.outcome.get(&f.pattern).is_some());
        }
    }

    #[test]
    fn initial_n_above_l1_is_clamped() {
        let s = uniform(&mut StdRng::seed_from_u64(43), Alphabet::Dna, 60);
        let g = gap(9, 12);
        let adaptive = adaptive_mpp(&s, g, 0.01, 1_000, MppConfig::default()).unwrap();
        assert!(adaptive.n_trajectory[0] <= g.l1(60).max(3));
    }

    #[test]
    fn single_round_when_guess_is_good() {
        let s = uniform(&mut StdRng::seed_from_u64(44), Alphabet::Dna, 150);
        let g = gap(1, 2);
        // Worst-case first to learn the true longest.
        let no = mpp(&s, g, 0.001, g.l1(150), MppConfig::default())
            .unwrap()
            .longest_len();
        let adaptive = adaptive_mpp(&s, g, 0.001, no.max(3), MppConfig::default()).unwrap();
        assert_eq!(
            adaptive.n_trajectory.len(),
            1,
            "good guess needs no refinement"
        );
    }
}
