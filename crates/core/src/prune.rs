//! Pruning front-ends over the mining engine: top-k by support and
//! targeted mining.
//!
//! Both modes promise output *bit-identical* to post-filtering a full
//! mine, so every prune below has to be airtight against the support
//! algebra this codebase actually implements. That algebra is **not**
//! the textbook anti-monotone one: support is the occurrence-*count*
//! sum over a pattern's PIL, and each extension step can multiply a
//! chain count by up to the gap flexibility `W = M − N + 1` (Theorem 1
//! is exactly the statement `sup(child) ≤ W · sup(parent)`). Two
//! regimes follow:
//!
//! * **Top-k by support.** A bounded min-heap of the best `k` supports
//!   seen so far defines a monotone-rising *support floor*, always ≤
//!   the true k-th largest support of the final frequent set. Gating
//!   *emission* on `sup ≥ floor` is sound at any gap — a pattern below
//!   the floor can never re-enter the top k — and a final rank sort +
//!   truncate makes the output exact regardless of the floor's
//!   (inherently schedule-dependent) raise history. Pruning the *search
//!   space* — join parents, the kept frontier, DFS components, spilled
//!   subtrees — additionally requires that no pruned pattern has a
//!   descendant above the floor. That holds exactly when `W == 1`
//!   (chains cannot branch, so counts collapse to distinct offsets and
//!   support is anti-monotone); for `W > 1` a descendant `Δ` levels
//!   down may reach `sup · W^Δ` with no a-priori depth bound, so no
//!   support floor can soundly cut a join. The pruner therefore
//!   branch-and-bounds the lattice only under rigid gaps and falls back
//!   to emission gating elsewhere.
//! * **Targeted mining.** A code prefix restricts the result set, and
//!   results are verified against it as they are admitted. That lets
//!   us skip nothing of the lattice: the Apriori self-join needs every
//!   contiguous *window* of a result alive at its level, not just the
//!   result's own prefix chain, and a prefix constrains windows only at
//!   shift 0. The window of a deep result starting past the prefix is
//!   arbitrary, so the suffix lattice must be materialized in full and
//!   a prefix target prunes emission alone.
//!
//! The engine threads a `Pruner` through its seed filter, the eager
//! candidate evaluation, and the component dispatch. A default
//! (inactive) pruner leaves every code path byte-identical to a full
//! mine, which is what keeps the existing differential suites honest.

use crate::arena::PilSet;
use crate::result::{FrequentPattern, MineOutcome};
use std::cmp::{Ordering as CmpOrdering, Reverse};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pruning configuration carried by `MppConfig`. The default (no top-k,
/// no prefix) is a full mine and leaves the engines byte-identical to
/// their unpruned behavior.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PruneMode {
    /// Keep only the `k` best-supported patterns (rank order:
    /// support desc, then length asc, then codes asc).
    pub top_k: Option<usize>,
    /// Mine only the patterns whose codes start with this prefix.
    pub prefix: Option<Vec<u8>>,
}

impl PruneMode {
    /// Top-k mode with no prefix.
    pub fn top_k(k: usize) -> PruneMode {
        PruneMode {
            top_k: Some(k),
            prefix: None,
        }
    }

    /// Targeted mode: the patterns that start with `codes`, with no
    /// support bound beyond ρs.
    pub fn prefix(codes: Vec<u8>) -> PruneMode {
        PruneMode {
            top_k: None,
            prefix: Some(codes),
        }
    }

    /// True when no pruning is configured (a plain full mine).
    pub fn is_default(&self) -> bool {
        self.top_k.is_none() && self.prefix.is_none()
    }
}

/// The shared rising support floor for a top-k run.
///
/// `floor` is a saturated-u64 image of the k-th best support seen so
/// far: reads on the hot path are relaxed loads, raises go through
/// `fetch_max` (a CAS loop on most targets). Saturation keeps the
/// floor conservative — a floor clamped *down* to `u64::MAX` can only
/// under-prune, never over-prune — so supports above `u64::MAX` stay
/// correct.
struct FloorState {
    k: usize,
    floor: AtomicU64,
    raises: AtomicU64,
    pruned: AtomicU64,
    heap: Mutex<BinaryHeap<Reverse<u128>>>,
}

impl FloorState {
    fn new(k: usize) -> FloorState {
        FloorState {
            k,
            floor: AtomicU64::new(0),
            raises: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            heap: Mutex::new(BinaryHeap::with_capacity(k.min(1 << 20))),
        }
    }

    /// Offer a freshly admitted frequent pattern's support; raises the
    /// floor once the heap holds k entries and `sup` beats the minimum.
    fn offer(&self, sup: u128) {
        if self.k == 0 {
            return;
        }
        // A non-zero floor means the heap already holds k entries and
        // the floor *is* the heap minimum, so a support below it could
        // never be pushed — skip the lock on this hot reject path
        // (under emission-only gating most offers end here).
        let floor = self.floor.load(Ordering::Relaxed);
        if floor > 0 && sup < floor as u128 {
            return;
        }
        let mut heap = self
            .heap
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if heap.len() < self.k {
            heap.push(Reverse(sup));
            if heap.len() == self.k {
                let min = heap.peek().expect("non-empty heap").0;
                drop(heap);
                self.raise(min);
            }
        } else if let Some(&Reverse(min)) = heap.peek() {
            if sup > min {
                heap.pop();
                heap.push(Reverse(sup));
                let min = heap.peek().expect("non-empty heap").0;
                drop(heap);
                self.raise(min);
            }
        }
    }

    fn raise(&self, to: u128) {
        let to = u64::try_from(to).unwrap_or(u64::MAX);
        let prev = self.floor.fetch_max(to, Ordering::Relaxed);
        if to > prev {
            self.raises.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    fn admits(&self, sup: u128) -> bool {
        sup >= self.floor.load(Ordering::Relaxed) as u128
    }
}

struct TargetState {
    prefix: Vec<u8>,
    pruned: AtomicU64,
}

/// Engine-side handle over the active pruning state. Cloning shares
/// the same floor/heap and counters, which is how the worker pools see
/// each other's raises.
#[derive(Clone, Default)]
pub(crate) struct Pruner {
    floor: Option<Arc<FloorState>>,
    target: Option<Arc<TargetState>>,
    /// True when the floor may cut the *search space* (parents, kept
    /// frontier, components, spill restores), not just emission. Only
    /// sound under a rigid gap (`W == 1`), where support is
    /// anti-monotone; see the module docs for why wider gaps admit no
    /// sound subtree bound.
    search_floor: bool,
}

impl Pruner {
    /// Build the pruning state for a run under a gap of the given
    /// `flexibility` (`W = M − N + 1`).
    pub(crate) fn new(mode: &PruneMode, flexibility: usize) -> Pruner {
        Pruner {
            floor: mode.top_k.map(|k| Arc::new(FloorState::new(k))),
            target: mode.prefix.clone().map(|prefix| {
                Arc::new(TargetState {
                    prefix,
                    pruned: AtomicU64::new(0),
                })
            }),
            search_floor: mode.top_k.is_some() && flexibility <= 1,
        }
    }

    /// Search-space floor test: may a pattern with this support stay in
    /// the lattice at all (result set *and* join frontier)? Admits
    /// everything unless the rigid-gap floor regime is on. Counts a
    /// floor prune on failure.
    #[inline]
    pub(crate) fn admits_search(&self, sup: u128) -> bool {
        if !self.search_floor {
            return true;
        }
        match &self.floor {
            None => true,
            Some(floor) => {
                if floor.admits(sup) {
                    true
                } else {
                    floor.pruned.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Emission check for an exact-frequent pattern: the prefix
    /// test, then the top-k offer, then the floor's emission
    /// gate (sound at any gap — a result below the floor can never be
    /// in the top k). The offer sits between the two so the floor only
    /// ever reflects target-admissible supports; raising it on
    /// out-of-target patterns would over-prune a combined run. Counts
    /// whichever prune fired.
    #[inline]
    pub(crate) fn admits_result(&self, codes: &[u8], sup: u128) -> bool {
        if let Some(target) = &self.target {
            if !codes.starts_with(&target.prefix) {
                target.pruned.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        if let Some(floor) = &self.floor {
            floor.offer(sup);
            if !floor.admits(sup) {
                floor.pruned.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// May the pattern act as a *left* join parent? Rechecks the
    /// rigid-gap floor, which may have risen since the level filter
    /// ran; `sup` is only evaluated when that regime is on. Counts a
    /// floor prune on failure.
    #[inline]
    pub(crate) fn admits_parent(&self, sup: impl FnOnce() -> u128) -> bool {
        !self.search_floor || self.admits_search(sup())
    }

    /// Can any member of a DFS component still seed an admissible
    /// candidate? Every descendant of the component keeps one of the
    /// members as its base-level prefix (the left-ancestor chain stays
    /// inside the component), so under the rigid-gap floor a component
    /// with no member above the floor is dead and its whole subtree —
    /// spilled or resident — can be dropped. Counts one prune per
    /// member when the component is dropped.
    pub(crate) fn component_viable(&self, set: &PilSet, members: &[usize]) -> bool {
        match &self.floor {
            Some(floor) if self.search_floor => {
                if members.iter().any(|&m| floor.admits(set.support(m))) {
                    return true;
                }
                floor
                    .pruned
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
                false
            }
            _ => true,
        }
    }

    /// Best support among a component's members — the value a spilled
    /// component's floor recheck keys on at restore time (only the
    /// floor moves while a record sits on disk). `u128::MAX` when the
    /// rigid-gap floor regime is off, so the recheck is a no-op on
    /// full, targeted, and wide-gap top-k runs.
    pub(crate) fn component_best(&self, set: &PilSet, members: &[usize]) -> u128 {
        if !self.search_floor || self.floor.is_none() {
            return u128::MAX;
        }
        members.iter().map(|&m| set.support(m)).max().unwrap_or(0)
    }

    /// Fold the pruning counters into the outcome's stats and put the
    /// result set into its final order: rank order + truncation for
    /// top-k runs, the canonical (length, codes) order otherwise.
    pub(crate) fn finish(&self, outcome: &mut MineOutcome) {
        if let Some(target) = &self.target {
            outcome.stats.pruned_by_target += target.pruned.load(Ordering::Relaxed);
        }
        match &self.floor {
            Some(floor) => {
                outcome.stats.floor_raises += floor.raises.load(Ordering::Relaxed);
                outcome.stats.pruned_by_floor += floor.pruned.load(Ordering::Relaxed);
                outcome.stats.top_k = Some(floor.k);
                rank_sort(&mut outcome.frequent);
                outcome.frequent.truncate(floor.k);
            }
            None => outcome.sort(),
        }
    }
}

/// The canonical top-k rank order: support descending, then length
/// ascending, then codes ascending — the same order `PatternIndex`
/// bakes into its rank array, which is what makes `--top-k` output
/// bit-stable across engines, thread counts, and the store.
pub fn rank_cmp(a: &FrequentPattern, b: &FrequentPattern) -> CmpOrdering {
    b.support
        .cmp(&a.support)
        .then(a.pattern.len().cmp(&b.pattern.len()))
        .then(a.pattern.codes().cmp(b.pattern.codes()))
}

/// Sort a frequent set into rank order (see [`rank_cmp`]).
pub fn rank_sort(frequent: &mut [FrequentPattern]) {
    frequent.sort_by(rank_cmp);
}

/// The post-filter oracle: the first `k` patterns of `frequent` in rank
/// order. A pruned top-k mine must return exactly this, order included.
pub fn select_top_k(frequent: &[FrequentPattern], k: usize) -> Vec<FrequentPattern> {
    let mut ranked = frequent.to_vec();
    rank_sort(&mut ranked);
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap::GapRequirement;
    use crate::mpp::{mpp, MppConfig};
    use perigap_seq::Sequence;

    fn on_three_threads(config: &MppConfig) -> MppConfig {
        MppConfig {
            threads: 3,
            ..config.clone()
        }
    }

    #[test]
    fn floor_rises_only_when_heap_is_full() {
        let floor = FloorState::new(3);
        floor.offer(10);
        floor.offer(5);
        assert_eq!(floor.floor.load(Ordering::Relaxed), 0);
        floor.offer(7);
        assert_eq!(floor.floor.load(Ordering::Relaxed), 5);
        floor.offer(4); // below the min: no change
        assert_eq!(floor.floor.load(Ordering::Relaxed), 5);
        floor.offer(20); // evicts 5, min becomes 7
        assert_eq!(floor.floor.load(Ordering::Relaxed), 7);
        assert_eq!(floor.raises.load(Ordering::Relaxed), 2);
        assert!(floor.admits(7));
        assert!(!floor.admits(6));
    }

    #[test]
    fn floor_saturates_past_u64() {
        let floor = FloorState::new(1);
        floor.offer(u128::from(u64::MAX) + 5);
        assert_eq!(floor.floor.load(Ordering::Relaxed), u64::MAX);
        // A saturated floor still admits anything at or above u64::MAX.
        assert!(floor.admits(u128::from(u64::MAX)));
        assert!(!floor.admits(42));
    }

    #[test]
    fn prefix_spec_admission_rules() {
        let pruner = Pruner::new(&PruneMode::prefix(vec![0, 2]), 3);
        assert!(pruner.admits_result(&[0, 2], 1));
        assert!(pruner.admits_result(&[0, 2, 3], 1));
        assert!(!pruner.admits_result(&[0], 1)); // too short
        assert!(!pruner.admits_result(&[0, 1, 2], 1));
        // A prefix cannot cut the search: any pattern may be a window
        // (at shift ≥ prefix length) of a deep result, so parents,
        // components and the search floor admit everything and only
        // emission filters.
        assert!(pruner.admits_parent(|| 0));
        assert!(pruner.admits_search(0));
        assert!(pruner.component_viable(&PilSet::new(3), &[]));
        assert_eq!(pruner.component_best(&PilSet::new(3), &[]), u128::MAX);
        let mut outcome = MineOutcome::default();
        pruner.finish(&mut outcome);
        assert_eq!(outcome.stats.pruned_by_target, 2);
    }

    #[test]
    fn select_top_k_breaks_ties_by_len_then_codes() {
        let seq = Sequence::dna("ACACAC".repeat(4).as_str()).unwrap();
        let gap = GapRequirement::new(0, 3).unwrap();
        let full = mpp(&seq, gap, 0.05, 6, MppConfig::default()).unwrap();
        let top = select_top_k(&full.frequent, 4);
        assert_eq!(top.len(), 4);
        for pair in top.windows(2) {
            assert_ne!(rank_cmp(&pair[0], &pair[1]), CmpOrdering::Greater);
        }
    }

    /// The tie-heavy regression for the deterministic tie-break: an
    /// AT-repeat where whole levels share one support, with k cutting
    /// through the middle of a tie group, on one and three threads.
    #[test]
    fn top_k_is_bit_stable_across_engines_at_ties() {
        let seq = Sequence::dna("AT".repeat(50).as_str()).unwrap();
        let gap = GapRequirement::new(1, 1).unwrap();
        let rho = 0.4;
        let n = 20;
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        assert!(full.frequent.len() > 8, "fixture too small to tie-test");
        for k in [1usize, 3, 7, full.frequent.len() + 10] {
            let expect = select_top_k(&full.frequent, k);
            let config = MppConfig {
                prune: PruneMode::top_k(k),
                ..MppConfig::default()
            };
            let serial = mpp(&seq, gap, rho, n, config.clone()).unwrap();
            assert_eq!(serial.frequent, expect, "serial k={k}");
            assert_eq!(serial.stats.top_k, Some(k));
            let par = mpp(&seq, gap, rho, n, on_three_threads(&config)).unwrap();
            assert_eq!(par.frequent, expect, "parallel k={k}");
        }
    }

    #[test]
    fn targeted_prefix_matches_post_filtered_full_mine() {
        let seq = Sequence::dna("ACGTT".repeat(40).as_str()).unwrap();
        let gap = GapRequirement::new(1, 3).unwrap();
        let rho = 0.005;
        let n = 8;
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        let prefix = vec![1, 0]; // "CA" under ACGT coding
        let mut expect: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| f.pattern.codes().starts_with(&prefix))
            .cloned()
            .collect();
        expect.sort_by(|a, b| {
            (a.pattern.len(), a.pattern.codes()).cmp(&(b.pattern.len(), b.pattern.codes()))
        });
        let config = MppConfig {
            prune: PruneMode::prefix(prefix),
            ..MppConfig::default()
        };
        let got = mpp(&seq, gap, rho, n, config.clone()).unwrap();
        assert_eq!(got.frequent, expect);
        assert!(got.stats.pruned_by_target > 0);
        assert_eq!(got.stats.top_k, None);
        let par = mpp(&seq, gap, rho, n, on_three_threads(&config)).unwrap();
        assert_eq!(par.frequent, expect, "parallel");
    }

    #[test]
    fn top_k_run_reports_floor_prunes() {
        let seq = Sequence::dna("ACGTT".repeat(60).as_str()).unwrap();
        let gap = GapRequirement::new(1, 3).unwrap();
        let config = MppConfig {
            prune: PruneMode::top_k(3),
            ..MppConfig::default()
        };
        let got = mpp(&seq, gap, 0.005, 8, config).unwrap();
        assert_eq!(got.frequent.len(), 3);
        assert!(got.stats.floor_raises > 0);
        assert!(got.stats.pruned_by_floor > 0);
    }

    /// Under a wide gap (`W > 1`) support can grow under extension, so
    /// the floor must not cut the search space: the top-k result has to
    /// keep matching the post-filter oracle even when deep descendants
    /// out-support every ancestor.
    #[test]
    fn top_k_stays_exact_when_support_grows_with_depth() {
        let seq = Sequence::dna("ACGTT".repeat(40).as_str()).unwrap();
        let gap = GapRequirement::new(1, 3).unwrap();
        let rho = 0.005;
        let n = 8;
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        let deepest_beats_shallowest = {
            let max_len = full.frequent.iter().map(|f| f.pattern.len()).max().unwrap();
            let min_len = full.frequent.iter().map(|f| f.pattern.len()).min().unwrap();
            let deep_max = full
                .frequent
                .iter()
                .filter(|f| f.pattern.len() == max_len)
                .map(|f| f.support)
                .max()
                .unwrap();
            let shallow_min = full
                .frequent
                .iter()
                .filter(|f| f.pattern.len() == min_len)
                .map(|f| f.support)
                .min()
                .unwrap();
            max_len > min_len && deep_max > shallow_min
        };
        assert!(
            deepest_beats_shallowest,
            "fixture no longer exercises growing support"
        );
        for k in [1usize, 5, 20] {
            let expect = select_top_k(&full.frequent, k);
            let config = MppConfig {
                prune: PruneMode::top_k(k),
                ..MppConfig::default()
            };
            let got = mpp(&seq, gap, rho, n, config.clone()).unwrap();
            assert_eq!(got.frequent, expect, "serial k={k}");
            let par = mpp(&seq, gap, rho, n, on_three_threads(&config)).unwrap();
            assert_eq!(par.frequent, expect, "parallel k={k}");
        }
    }

    /// A combined `--top-k --target` run ranks only among the patterns
    /// the prefix admits: the floor must rise on admitted patterns alone.
    #[test]
    fn top_k_of_a_targeted_mine_ranks_within_the_cone() {
        let seq = Sequence::dna("ACGTT".repeat(40).as_str()).unwrap();
        let gap = GapRequirement::new(1, 3).unwrap();
        let rho = 0.005;
        let n = 8;
        let prefix = vec![1]; // "C"
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        let cone: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| f.pattern.codes().starts_with(&prefix))
            .cloned()
            .collect();
        assert!(cone.len() > 5, "fixture must admit more than k patterns");
        let expect = select_top_k(&cone, 5);
        assert_ne!(
            expect,
            select_top_k(&full.frequent, 5),
            "the prefix must matter"
        );
        let config = MppConfig {
            prune: PruneMode {
                top_k: Some(5),
                prefix: Some(prefix),
            },
            ..MppConfig::default()
        };
        let got = mpp(&seq, gap, rho, n, config.clone()).unwrap();
        assert_eq!(got.frequent, expect);
        let par = mpp(&seq, gap, rho, n, on_three_threads(&config)).unwrap();
        assert_eq!(par.frequent, expect);
    }
}
