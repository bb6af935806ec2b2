//! The sequence statistic `e_m` of Theorem 2.
//!
//! For each start offset `r`, consider every length-(m+1) offset
//! sequence `[r, r+g1, …, r+g1+…+gm]` (each `g_j ∈ [N+1, M+1]`) and ask:
//! which character string occurs most often, and how many times? That
//! count is `K_r`; the statistic is `e_m = max_r K_r`. It replaces the
//! loose `W^m` perturbation bound in Theorem 1, tightening the pruning
//! factor to `λ′` and letting MPPm estimate the longest frequent
//! pattern length automatically.
//!
//! Enumerating all `W^m` offset sequences per start (the paper's
//! formulation) is exponential. The search here is a branch and bound
//! over character strings, exact for any visiting order, in two parts
//! (DESIGN.md §18):
//!
//! - **A bound table.** `U_0(q) = 1` and
//!   `U_k(q) = max_c Σ_{q' ∈ [q+N+1, q+M+1], q' ≤ L, S[q'] = c} U_{k−1}(q')`.
//!   By induction on `k`, no string is spelled by more than `U_k(q)` of
//!   the `k`-step offset sequences from `q`. Starts are visited right to
//!   left, so every `U_k(q)` a start `r` reads (`q ≤ r + m(M+1)`) is
//!   already known and each `U_k` lives in a ring of `m·(M+1)+1` slots.
//!   A start with `U_m(r) ≤ best` is skipped outright, and a string
//!   whose reachable positions `q'` carry `Σ mass(q')·U_left(q') ≤ best`
//!   is pruned.
//! - **A dense state.** After `j` steps from `r` every reachable
//!   position lies in `[r + j(N+1), r + j(M+1)]`, so the state of a
//!   string is an array of `j(W−1)+1` path counts. One sliding-window
//!   pass over it counts the paths reaching each next position, which
//!   gives every child string's mass and bound; a child's state is that
//!   window sum masked by its character. The buffers of each depth are
//!   allocated once per call.
//!
//! Counts saturate at `u64::MAX` (a larger `e_m` only loosens λ′).

use crate::gap::GapRequirement;
use perigap_seq::Sequence;

/// Exact `e_m = max_r K_r`. Returns 0 when no length-(m+1) offset
/// sequence fits in the sequence (in that case Theorem 2 is vacuous;
/// callers clamp to ≥ 1, which is always sound because a larger `e_m`
/// only loosens λ′).
///
/// # Panics
/// Panics if `m == 0`.
pub fn compute_em(seq: &Sequence, gap: GapRequirement, m: usize) -> u64 {
    assert!(m >= 1, "e_m requires m ≥ 1");
    let Some(mut search) = Search::new(seq, gap, m) else {
        return 0;
    };
    let mut best = 0;
    for r in (1..=seq.len()).rev() {
        search.table.push(r);
        best = search.kr_above(r, best);
    }
    best
}

/// Exact `K_r` for a single start offset, as used in the paper's
/// Table 2 walk-through.
///
/// # Panics
/// Panics if `m == 0` or `r` is not a valid 1-based offset.
pub fn kr(seq: &Sequence, gap: GapRequirement, m: usize, r: usize) -> u64 {
    assert!(m >= 1, "K_r requires m ≥ 1");
    assert!(r >= 1 && r <= seq.len(), "start offset {r} out of range");
    let Some(mut search) = Search::new(seq, gap, m) else {
        return 0;
    };
    for q in (r..=seq.len()).rev() {
        search.table.push(q);
    }
    search.kr_above(r, 0)
}

/// Every `K_r` for `r = 1..=L` plus `e_m` — the full Table 2 row.
///
/// # Panics
/// Panics if `m == 0`.
pub fn kr_table(seq: &Sequence, gap: GapRequirement, m: usize) -> (Vec<u64>, u64) {
    assert!(m >= 1, "K_r requires m ≥ 1");
    let mut krs = vec![0; seq.len()];
    let Some(mut search) = Search::new(seq, gap, m) else {
        return (krs, 0);
    };
    for r in (1..=seq.len()).rev() {
        search.table.push(r);
        krs[r - 1] = search.kr_above(r, 0);
    }
    let em = krs.iter().copied().max().unwrap_or(0);
    (krs, em)
}

/// The bound table `U_k(q)` for `k ∈ 0..=m`, over a ring of positions
/// filled right to left.
struct BoundTable<'a> {
    codes: &'a [u8],
    min_step: usize,
    max_step: usize,
    /// Ring length minus one. The ring holds at least `m·(M+1)+1`
    /// positions (or all `L`), rounded up to a power of two so that a
    /// slot is a mask.
    mask: usize,
    /// `U_k(q)` at `rows[k·(mask+1) + (q & mask)]`.
    rows: Vec<u64>,
    /// Per-character sums for one `U_k(q)`; all zero between uses.
    acc: Vec<u64>,
}

impl<'a> BoundTable<'a> {
    fn new(seq: &'a Sequence, gap: GapRequirement, m: usize) -> BoundTable<'a> {
        let ring = m
            .saturating_mul(gap.max_step())
            .saturating_add(1)
            .min(seq.len() + 1)
            .next_power_of_two();
        BoundTable {
            codes: seq.codes(),
            min_step: gap.min_step(),
            max_step: gap.max_step(),
            mask: ring - 1,
            rows: vec![0; (m + 1) * ring],
            acc: vec![0; seq.alphabet().size()],
        }
    }

    /// `U_k(q)`. Valid for `r ≤ q ≤ r + m(M+1)` once `r` is pushed.
    #[inline]
    fn get(&self, k: usize, q: usize) -> u64 {
        self.rows[k * (self.mask + 1) + (q & self.mask)]
    }

    /// Fill `U_k(r)` for every `k`. Positions are pushed in decreasing
    /// order, each one right after `r + 1` (or first, at `r = L`), so
    /// every `U_{k−1}(q')` with `q' ≤ r + M + 1` is already in the ring.
    fn push(&mut self, r: usize) {
        let stride = self.mask + 1;
        let slot = r & self.mask;
        let lo = r.saturating_add(self.min_step);
        let hi = r.saturating_add(self.max_step).min(self.codes.len());
        self.rows[slot] = 1;
        for k in 1..self.rows.len() / stride {
            let mut top = 0u64;
            for q in lo..=hi {
                let sum = &mut self.acc[self.codes[q - 1] as usize];
                *sum = sum.saturating_add(self.rows[(k - 1) * stride + (q & self.mask)]);
                top = top.max(*sum);
            }
            for q in lo..=hi {
                self.acc[self.codes[q - 1] as usize] = 0;
            }
            self.rows[k * stride + slot] = top;
        }
    }
}

/// The buffers of one search depth `j ∈ 0..m`, allocated once per call.
struct Level {
    /// Offset sequences from `r` that spell the current string and end
    /// at `base + i` (`base = r + j(N+1)`).
    state: Vec<u64>,
    /// Offset sequences that reach `base + N + 1 + i` in one more step,
    /// whatever the character there.
    reach: Vec<u64>,
    /// Per character `c`: `reach` summed over the positions holding `c`
    /// (the child's count), and that sum weighted by `U_left` (its
    /// bound). All zero between uses.
    mass: Vec<u64>,
    bound: Vec<u64>,
    /// The characters with non-zero mass, in the order first seen.
    children: Vec<u8>,
}

/// A bound table plus the per-depth buffers of the string search.
struct Search<'a> {
    table: BoundTable<'a>,
    levels: Vec<Level>,
}

impl<'a> Search<'a> {
    /// The search for `m` steps, or `None` when no `m`-step offset
    /// sequence fits in the sequence (every `K_r` is 0), so a large `m`
    /// allocates nothing.
    fn new(seq: &'a Sequence, gap: GapRequirement, m: usize) -> Option<Search<'a>> {
        if m.saturating_mul(gap.min_step()) >= seq.len() {
            return None;
        }
        let sigma = seq.alphabet().size();
        let width = |j: usize| {
            j.saturating_mul(gap.flexibility() - 1)
                .saturating_add(1)
                .min(seq.len() + 1)
        };
        let levels = (0..m)
            .map(|j| Level {
                state: Vec::with_capacity(width(j)),
                reach: Vec::with_capacity(width(j + 1)),
                mass: vec![0; sigma],
                bound: vec![0; sigma],
                children: Vec::with_capacity(sigma),
            })
            .collect();
        Some(Search {
            table: BoundTable::new(seq, gap, m),
            levels,
        })
    }

    /// `max(floor, K_r)`: exact `K_r` when it exceeds `floor`; strings
    /// that cannot beat `floor` are not searched. `r` must be the
    /// position pushed last.
    fn kr_above(&mut self, r: usize, floor: u64) -> u64 {
        let mut best = floor;
        if self.table.get(self.levels.len(), r) > best {
            let root = &mut self.levels[0].state;
            root.clear();
            root.push(1);
            descend(&self.table, &mut self.levels, r, &mut best);
        }
        best
    }
}

/// Expand the string whose state is `levels[0].state` (first entry at
/// position `base`): one window pass finds every child's mass and bound,
/// then children are visited best bound first while the bound beats
/// `best`. `levels[1..]` are the deeper depths' buffers.
fn descend(table: &BoundTable<'_>, levels: &mut [Level], base: usize, best: &mut u64) {
    let (node, deeper) = levels.split_first_mut().expect("one level per step");
    let left = deeper.len();
    let w = table.max_step - table.min_step + 1;
    let child_base = base.saturating_add(table.min_step);
    let width = (node.state.len().saturating_add(w - 1))
        .min((table.codes.len() + 1).saturating_sub(child_base));
    if width == 0 {
        return;
    }
    let codes = &table.codes[child_base - 1..][..width];

    // reach[i] = Σ state[i−W+1 ..= i]. The running sum is held in u128,
    // so it stays exact over saturated entries.
    node.reach.clear();
    let mut sum = 0u128;
    for (i, &c) in codes.iter().enumerate() {
        sum += node.state.get(i).copied().unwrap_or(0) as u128;
        if i >= w {
            sum -= node.state[i - w] as u128;
        }
        let reach = sum.min(u64::MAX as u128) as u64;
        node.reach.push(reach);
        if reach == 0 {
            continue;
        }
        let c = c as usize;
        if node.mass[c] == 0 {
            node.children.push(c as u8);
        }
        node.mass[c] = node.mass[c].saturating_add(reach);
        if left > 0 {
            let u = table.get(left, child_base + i);
            node.bound[c] = node.bound[c].saturating_add(reach.saturating_mul(u));
        }
    }

    if left == 0 {
        for &c in &node.children {
            *best = (*best).max(node.mass[c as usize]);
        }
    } else {
        let bound = &node.bound;
        node.children
            .sort_unstable_by_key(|&c| std::cmp::Reverse(bound[c as usize]));
        for &c in &node.children {
            if node.bound[c as usize] <= *best {
                break;
            }
            let child = &mut deeper[0].state;
            child.clear();
            child.extend(
                codes
                    .iter()
                    .zip(&node.reach)
                    .map(|(&at, &reach)| if at == c { reach } else { 0 }),
            );
            descend(table, deeper, child_base, best);
        }
    }
    for &c in &node.children {
        node.mass[c as usize] = 0;
        node.bound[c as usize] = 0;
    }
    node.children.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_seq::Alphabet;
    use proptest::prelude::*;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// For each `k ∈ 0..=m`, the largest number of `k`-step offset
    /// sequences from `q` that spell one string, by enumerating all
    /// `W^k` of them.
    fn brute_best(seq: &Sequence, g: GapRequirement, m: usize, q: usize) -> Vec<u64> {
        fn walk(codes: &[u8], g: GapRequirement, pos: usize, key: u64, keys: &mut [Vec<u64>]) {
            let (here, deeper) = keys.split_first_mut().unwrap();
            here.push(key);
            if deeper.is_empty() {
                return;
            }
            for step in g.steps() {
                let next = pos + step;
                if next > codes.len() {
                    break;
                }
                walk(codes, g, next, key * 32 + codes[next - 1] as u64, deeper);
            }
        }
        let mut keys = vec![Vec::new(); m + 1];
        walk(seq.codes(), g, q, 0, &mut keys);
        keys.into_iter()
            .map(|mut strings| {
                strings.sort_unstable();
                let mut best = 0;
                let mut i = 0;
                while i < strings.len() {
                    let run = strings[i..]
                        .iter()
                        .take_while(|&&s| s == strings[i])
                        .count();
                    best = best.max(run as u64);
                    i += run;
                }
                best
            })
            .collect()
    }

    /// Check `compute_em`, `kr_table`, every `kr(r)` and every `U_k(q)`
    /// against [`brute_best`].
    fn check_against_brute_force(
        seq: &Sequence,
        g: GapRequirement,
        m: usize,
    ) -> Result<u64, String> {
        let mut table = BoundTable::new(seq, g, m);
        let mut expected = vec![0; seq.len()];
        for q in (1..=seq.len()).rev() {
            table.push(q);
            let best = brute_best(seq, g, m, q);
            for (k, &count) in best.iter().enumerate() {
                if table.get(k, q) < count {
                    return Err(format!("U_{k}({q}) = {} < {count}", table.get(k, q)));
                }
            }
            expected[q - 1] = best[m];
        }
        let em = expected.iter().copied().max().unwrap_or(0);
        let (krs, table_em) = kr_table(seq, g, m);
        if (&krs, table_em) != (&expected, em) {
            return Err(format!(
                "kr_table {krs:?} (e_m {table_em}), brute force {expected:?} (e_m {em})"
            ));
        }
        for r in 1..=seq.len() {
            if kr(seq, g, m, r) != expected[r - 1] {
                return Err(format!(
                    "K_{r} = {}, brute force {}",
                    kr(seq, g, m, r),
                    expected[r - 1]
                ));
            }
        }
        if compute_em(seq, g, m) != em {
            return Err(format!(
                "compute_em {}, brute force {em}",
                compute_em(seq, g, m)
            ));
        }
        Ok(em)
    }

    #[test]
    fn paper_table2_example() {
        // Section 4.2: S = ACGTCCGT, gap [1,2], m = 2 →
        // K = [2, 1, 2, 1, 0, 0, 0, 0], e_m = 2.
        let s = Sequence::dna("ACGTCCGT").unwrap();
        let (krs, em) = kr_table(&s, gap(1, 2), 2);
        assert_eq!(krs, vec![2, 1, 2, 1, 0, 0, 0, 0]);
        assert_eq!(em, 2);
        assert_eq!(compute_em(&s, gap(1, 2), 2), 2);
    }

    #[test]
    fn k1_details_from_paper() {
        // K_1: offset sequences [1,3,5], [1,3,6], [1,4,6], [1,4,7] give
        // AGC, AGC, ATC, ATG → most frequent AGC with count 2.
        let s = Sequence::dna("ACGTCCGT").unwrap();
        assert_eq!(kr(&s, gap(1, 2), 2, 1), 2);
        // K_2: CTC, CTG, CCG, CCT all distinct → 1.
        assert_eq!(kr(&s, gap(1, 2), 2, 2), 1);
    }

    #[test]
    fn em_bounded_by_wm() {
        use perigap_seq::gen::iid::uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = uniform(&mut StdRng::seed_from_u64(5), Alphabet::Dna, 400);
        for (n, m_gap, m) in [(1, 3, 2), (2, 4, 3), (9, 12, 2)] {
            let g = gap(n, m_gap);
            let w = g.flexibility() as u64;
            let em = compute_em(&s, g, m);
            assert!(em >= 1, "a 400-char sequence admits some window");
            assert!(em <= w.pow(m as u32), "e_m must not exceed W^m");
        }
    }

    #[test]
    fn homogeneous_sequence_saturates_wm() {
        // All-A sequence: every offset sequence spells AAAA…, so
        // K_r = W^m wherever a full window fits.
        let s = Sequence::dna(&"A".repeat(50)).unwrap();
        let g = gap(1, 2);
        assert_eq!(compute_em(&s, g, 3), 8); // W = 2, m = 3
    }

    #[test]
    fn too_short_sequence_gives_zero() {
        let s = Sequence::dna("ACG").unwrap();
        // m = 2 needs span ≥ 1 + 2·2 = 5 > 3.
        assert_eq!(compute_em(&s, gap(1, 1), 2), 0);
    }

    #[test]
    fn exhaustive_reference_check() {
        use perigap_seq::gen::iid::uniform;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = uniform(&mut StdRng::seed_from_u64(6), Alphabet::Dna, 80);
        check_against_brute_force(&s, gap(1, 3), 3).unwrap();
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        // 200 × A under gap [0, 9] at m = 20: 10^20 offset sequences
        // spell A^20 from the first start, more than a u64 holds.
        let s = Sequence::dna(&"A".repeat(200)).unwrap();
        assert_eq!(compute_em(&s, gap(0, 9), 20), u64::MAX);
        assert_eq!(kr(&s, gap(0, 9), 19, 1), 10u64.pow(19));
    }

    /// A test text over `sigma` codes: uniform, skewed (code `c` with
    /// probability about `2^−(c+1)`), or a few single-symbol runs.
    fn text(sigma: u8) -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            collection::vec(0..sigma, 0..121),
            collection::vec(any::<u8>(), 0..121).prop_map(move |draws| {
                draws
                    .iter()
                    .map(|x| (x.trailing_zeros() as u8).min(sigma - 1))
                    .collect()
            }),
            collection::vec((0..sigma, 1usize..41), 1..5).prop_map(|runs| {
                runs.iter()
                    .flat_map(|&(c, n)| vec![c; n])
                    .take(120)
                    .collect()
            }),
        ]
    }

    /// A sequence, a gap `[N, N+W−1]` with `N ≤ 4`, `W ≤ 6`, and an
    /// `m ≤ 6` with `W^m ≤ 4,096`, so the brute force stays small.
    fn em_case() -> impl Strategy<Value = (Sequence, GapRequirement, usize)> {
        (any::<bool>(), 0usize..5, 1usize..7, 1usize..7).prop_flat_map(|(protein, n, w, m)| {
            let alphabet = if protein {
                Alphabet::Protein
            } else {
                Alphabet::Dna
            };
            let m = (1..=m).rev().find(|&m| w.pow(m as u32) <= 4096).unwrap();
            text(alphabet.size() as u8).prop_map(move |codes| {
                (
                    Sequence::from_codes(alphabet.clone(), codes).unwrap(),
                    gap(n, n + w - 1),
                    m,
                )
            })
        })
    }

    proptest! {
        #[test]
        fn em_and_its_bound_match_brute_force((seq, g, m) in em_case()) {
            let em = check_against_brute_force(&seq, g, m).map_err(TestCaseError::fail)?;
            // No window fits exactly when e_m is 0.
            prop_assert_eq!(em == 0, seq.len() < 1 + m * g.min_step());
            // A single-symbol run that fits the widest window spells one
            // string along all W^m offset sequences.
            let run = seq.codes().windows(2).all(|p| p[0] == p[1]);
            if run && seq.len() > m * g.max_step() {
                prop_assert_eq!(em, (g.flexibility() as u64).pow(m as u32));
            }
        }
    }

    #[test]
    #[should_panic(expected = "m ≥ 1")]
    fn m_zero_panics() {
        let s = Sequence::dna("ACGT").unwrap();
        let _ = compute_em(&s, gap(1, 2), 0);
    }
}
