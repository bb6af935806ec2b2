//! Engine pins: the full JSONL trace of fixed mines, line for line.
//!
//! `prop_engine` holds each level's `(level, candidates, frequent,
//! extended)` to the reference miner. These pins hold everything else a
//! trace reports and a restructured engine could move: `joins`,
//! `probed`, `reallocs`, `bytes_moved` and `arena_bytes` per level, the
//! subtree, spill and restore events with their order and indices, the
//! pool events' chunk counts, and the peak arena bytes. Durations
//! (`*_ms`) are masked everywhere. At two threads the arena figures and
//! the per-worker breakdown depend on the schedule and are masked too.

use perigap_core::mpp::{mine, mine_top_k, Algorithm, MppConfig};
use perigap_core::spill::MemSpillIo;
use perigap_core::trace::JsonlObserver;
use perigap_core::GapRequirement;
use perigap_seq::gen::iid::{uniform, weighted};
use perigap_seq::{Alphabet, Sequence};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fixed input, mined as MPP at `n = 8`.
struct Fixture {
    seq: Sequence,
    gap: GapRequirement,
    rho: f64,
}

/// A/T-rich DNA: 35% A and T each.
fn at_rich(seed: u64, len: usize) -> Sequence {
    let weights = [0.35, 0.15, 0.15, 0.35];
    weighted(
        &mut StdRng::seed_from_u64(seed),
        Alphabet::Dna,
        len,
        &weights,
    )
}

/// Uniform DNA whose survivors split at level 6 into twelve components.
fn handoff() -> Fixture {
    Fixture {
        seq: uniform(&mut StdRng::seed_from_u64(43), Alphabet::Dna, 2_000),
        gap: GapRequirement::new(0, 3).unwrap(),
        rho: 0.0003,
    }
}

/// Survivors that split at level 6 into one component of 2,743
/// patterns and one of 1.
fn lopsided() -> Fixture {
    Fixture {
        seq: at_rich(0, 1_200),
        gap: GapRequirement::new(0, 5).unwrap(),
        rho: 1e-4,
    }
}

/// Replace the value of every `"key": value` pair whose key `hide`
/// selects with `_`. A value runs to the next `,` or `}`, or is one
/// bracketed array.
fn mask(line: &str, hide: &dyn Fn(&str) -> bool) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\": ") {
        let key = &rest[rest[..at].rfind('"').map_or(0, |q| q + 1)..at];
        let hidden = hide(key);
        out.push_str(&rest[..at + 3]);
        rest = &rest[at + 3..];
        if hidden {
            let end = if rest.starts_with('[') {
                let mut depth = 0usize;
                rest.char_indices()
                    .find(|&(_, c)| {
                        match c {
                            '[' => depth += 1,
                            ']' => depth -= 1,
                            _ => {}
                        }
                        depth == 0
                    })
                    .map_or(rest.len(), |(i, _)| i + 1)
            } else {
                rest.find([',', '}']).unwrap_or(rest.len())
            };
            out.push('_');
            rest = &rest[end..];
        }
    }
    out.push_str(rest);
    out
}

fn one_thread_mask(key: &str) -> bool {
    key.ends_with("_ms")
}

fn two_thread_mask(key: &str) -> bool {
    key.ends_with("_ms") || matches!(key, "arena_bytes" | "peak_arena_bytes" | "workers")
}

/// Mine `fixture` through a JSONL sink and return the masked trace:
/// a full mine, or one keeping the `top_k` best patterns.
fn trace_top_k(
    fixture: &Fixture,
    top_k: Option<usize>,
    config: &MppConfig,
    hide: &dyn Fn(&str) -> bool,
) -> String {
    let Fixture { seq, gap, rho } = fixture;
    let (gap, rho, mpp) = (*gap, *rho, Algorithm::Mpp { n: 8 });
    let mut sink = JsonlObserver::new(Vec::new());
    // An aborted mine still writes its trace; the abort line pins it.
    let _ = match top_k {
        None => mine(seq, gap, rho, mpp, config, &mut sink),
        Some(k) => mine_top_k(seq, gap, rho, mpp, k, config, &mut sink),
    };
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    text.lines().map(|l| mask(l, hide) + "\n").collect()
}

/// [`trace_top_k`] of a full mine.
fn trace(fixture: &Fixture, config: &MppConfig, hide: &dyn Fn(&str) -> bool) -> String {
    trace_top_k(fixture, None, config, hide)
}

fn assert_pinned(got: &str, want: &str, label: &str) {
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{label}: line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "{label}: line count");
}

#[test]
fn mask_hides_selected_values_only() {
    let line = r#"{"event": "pool", "level": 5, "chunks": 8, "workers": [{"worker": 0, "busy_ms": 7.1}], "elapsed_ms": 0.2}"#;
    assert_eq!(
        mask(line, &two_thread_mask),
        r#"{"event": "pool", "level": 5, "chunks": 8, "workers": _, "elapsed_ms": _}"#
    );
}

#[test]
fn prelude_hands_off_into_subtrees() {
    let got = trace(&handoff(), &MppConfig::default(), &one_thread_mask);
    assert_pinned(&got, HANDOFF_T1, "handoff, one thread");
}

#[test]
fn spilled_subtrees_restore() {
    let config = MppConfig {
        max_arena_bytes: Some(1 << 40),
        spill_watermark: 0.0,
        spill: Some(Arc::new(MemSpillIo::default())),
        ..MppConfig::default()
    };
    let got = trace(&lopsided(), &config, &one_thread_mask);
    assert_pinned(&got, SPILL_T1, "spill, one thread");
}

#[test]
fn top_k_drops_dead_components() {
    // Rigid gap: the floor rises while the seed level is filtered, and
    // three components whose every member fell below it are dropped.
    let fixture = Fixture {
        seq: at_rich(1, 300),
        gap: GapRequirement::new(2, 2).unwrap(),
        rho: 0.001,
    };
    let got = trace_top_k(&fixture, Some(30), &MppConfig::default(), &one_thread_mask);
    assert_pinned(&got, TOP_K_T1, "top-k, one thread");
}

#[test]
fn memory_ceiling_abort_keeps_its_levels() {
    let config = MppConfig {
        max_arena_bytes: Some(1_265_080),
        ..MppConfig::default()
    };
    let got = trace(&handoff(), &config, &one_thread_mask);
    assert_pinned(&got, ABORT_T1, "abort in the prelude, one thread");
    // Above the prelude's widest step, below the subtree chain's peak:
    // the failed subtree's counts are lost with it, and the subtrees
    // after it never run.
    let config = MppConfig {
        max_arena_bytes: Some(12_000_000),
        ..MppConfig::default()
    };
    let got = trace(&lopsided(), &config, &one_thread_mask);
    assert_pinned(&got, SUBTREE_ABORT_T1, "abort in a subtree, one thread");
}

#[test]
fn two_threads_chunk_the_lopsided_levels() {
    let config = MppConfig {
        threads: 2,
        ..MppConfig::default()
    };
    let got = trace(&lopsided(), &config, &two_thread_mask);
    assert_pinned(&got, LOPSIDED_T2, "lopsided, two threads");
    let got = trace(&handoff(), &config, &two_thread_mask);
    assert_pinned(&got, HANDOFF_T2, "handoff, two threads");
}

const HANDOFF_T1: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 15778, "arena_bytes": 190552, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 190552, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 569060, "joins": 256, "probed": 189046, "reallocs": 1, "bytes_moved": 1632, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1024, "kept": 1024, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 1724184, "joins": 1024, "probed": 562852, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 6, "candidates": 4096, "evaluated": 4096, "frequent": 554, "kept": 566, "pruned_bound": 3530, "pruned_support": 3542, "arena_bytes": 805976, "joins": 566, "probed": 735738, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 7, "candidates": 1056, "evaluated": 1056, "frequent": 0, "kept": 0, "pruned_bound": 1056, "pruned_support": 1056, "arena_bytes": 0, "joins": 0, "probed": 125259, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "subtree", "index": 0, "level": 6, "patterns": 547, "deepest": 7, "evaluated": 1048, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 1, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 2, "level": 6, "patterns": 3, "deepest": 7, "evaluated": 2, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 3, "level": 6, "patterns": 3, "deepest": 7, "evaluated": 1, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 4, "level": 6, "patterns": 2, "deepest": 7, "evaluated": 1, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 5, "level": 6, "patterns": 4, "deepest": 7, "evaluated": 4, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 6, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 7, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 8, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 9, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 10, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 11, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "summary", "frequent": 1898, "levels": 5, "total_candidates": 6496, "n_used": 8, "support_saturated": false, "peak_arena_bytes": 2530160, "total_ms": _}
"#;
const SPILL_T1: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 12135, "arena_bytes": 146836, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 146836, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 496460, "joins": 256, "probed": 145108, "reallocs": 1, "bytes_moved": 3912, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1012, "kept": 1013, "pruned_bound": 11, "pruned_support": 12, "arena_bytes": 1701093, "joins": 1013, "probed": 488445, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 6, "candidates": 4018, "evaluated": 4018, "frequent": 2734, "kept": 2744, "pruned_bound": 1274, "pruned_support": 1284, "arena_bytes": 4913756, "joins": 2744, "probed": 1466556, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 7, "candidates": 9593, "evaluated": 9593, "frequent": 3127, "kept": 3142, "pruned_bound": 6451, "pruned_support": 6466, "arena_bytes": 7217594, "joins": 3142, "probed": 2765070, "reallocs": 2, "bytes_moved": 6264, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 8, "candidates": 8664, "evaluated": 8664, "frequent": 632, "kept": 632, "pruned_bound": 8032, "pruned_support": 8032, "arena_bytes": 1885692, "joins": 632, "probed": 2071228, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 9, "candidates": 1173, "evaluated": 1173, "frequent": 30, "kept": 30, "pruned_bound": 1143, "pruned_support": 1143, "arena_bytes": 94662, "joins": 30, "probed": 320932, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 10, "candidates": 26, "evaluated": 26, "frequent": 0, "kept": 0, "pruned_bound": 26, "pruned_support": 26, "arena_bytes": 0, "joins": 0, "probed": 6756, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "spill", "level": 6, "records": 2, "bytes": 4880896, "live_bytes": 4913756, "watermark_bytes": 0, "elapsed_ms": _}
{"event": "subtree", "index": 0, "level": 6, "patterns": 2743, "deepest": 10, "evaluated": 19456, "frequent": 3789, "peak_arena_bytes": 14110878, "elapsed_ms": _}
{"event": "subtree", "index": 1, "level": 6, "patterns": 1, "deepest": 6, "evaluated": 0, "frequent": 0, "peak_arena_bytes": 826, "elapsed_ms": _}
{"event": "restore", "record": 0, "bytes": 4880048, "patterns": 2743, "elapsed_ms": _}
{"event": "restore", "record": 1, "bytes": 848, "patterns": 1, "elapsed_ms": _}
{"event": "summary", "frequent": 7855, "levels": 8, "total_candidates": 24818, "n_used": 8, "support_saturated": false, "peak_arena_bytes": 14110878, "total_ms": _}
"#;
const TOP_K_T1: &str = r#"{"event": "seed", "level": 3, "patterns": 58, "pil_entries": 294, "arena_bytes": 4630, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 58, "frequent": 47, "kept": 47, "pruned_bound": 11, "pruned_support": 11, "arena_bytes": 4630, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 113, "evaluated": 113, "frequent": 18, "kept": 18, "pruned_bound": 95, "pruned_support": 95, "arena_bytes": 1296, "joins": 18, "probed": 1033, "reallocs": 2, "bytes_moved": 108, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 7, "evaluated": 7, "frequent": 0, "kept": 0, "pruned_bound": 7, "pruned_support": 7, "arena_bytes": 0, "joins": 0, "probed": 31, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "subtree", "index": 0, "level": 4, "patterns": 15, "deepest": 5, "evaluated": 7, "frequent": 0, "peak_arena_bytes": 0, "elapsed_ms": _}
{"event": "summary", "frequent": 30, "levels": 3, "total_candidates": 184, "n_used": 8, "support_saturated": false, "peak_arena_bytes": 5926, "top_k": 30, "floor_raises": 4, "pruned_by_floor": 121, "total_ms": _}
"#;
const ABORT_T1: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 15778, "arena_bytes": 190552, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 190552, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 569060, "joins": 256, "probed": 189046, "reallocs": 1, "bytes_moved": 1632, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1024, "kept": 1024, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 1724184, "joins": 1024, "probed": 562852, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "abort", "message": "arena memory ceiling of 1265080 bytes exceeded: mining would need 2293244 bytes"}
"#;
const SUBTREE_ABORT_T1: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 12135, "arena_bytes": 146836, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 146836, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": 496460, "joins": 256, "probed": 145108, "reallocs": 1, "bytes_moved": 3912, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1012, "kept": 1013, "pruned_bound": 11, "pruned_support": 12, "arena_bytes": 1701093, "joins": 1013, "probed": 488445, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 6, "candidates": 4018, "evaluated": 4018, "frequent": 2734, "kept": 2744, "pruned_bound": 1274, "pruned_support": 1284, "arena_bytes": 4913756, "joins": 2744, "probed": 1466556, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "abort", "message": "arena memory ceiling of 12000000 bytes exceeded: mining would need 12131350 bytes"}
"#;
const LOPSIDED_T2: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 12135, "arena_bytes": _, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": _, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": _, "joins": 256, "probed": 145108, "reallocs": 1, "bytes_moved": 3912, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1012, "kept": 1013, "pruned_bound": 11, "pruned_support": 12, "arena_bytes": _, "joins": 1013, "probed": 488445, "reallocs": 13, "bytes_moved": 29712, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 6, "candidates": 4018, "evaluated": 4018, "frequent": 2734, "kept": 2744, "pruned_bound": 1274, "pruned_support": 1284, "arena_bytes": _, "joins": 2744, "probed": 1466556, "reallocs": 24, "bytes_moved": 49320, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 7, "candidates": 9593, "evaluated": 9593, "frequent": 3127, "kept": 3142, "pruned_bound": 6451, "pruned_support": 6466, "arena_bytes": _, "joins": 3142, "probed": 2765070, "reallocs": 31, "bytes_moved": 66036, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 8, "candidates": 8664, "evaluated": 8664, "frequent": 632, "kept": 632, "pruned_bound": 8032, "pruned_support": 8032, "arena_bytes": _, "joins": 632, "probed": 2071228, "reallocs": 29, "bytes_moved": 80988, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 9, "candidates": 1173, "evaluated": 1173, "frequent": 30, "kept": 30, "pruned_bound": 1143, "pruned_support": 1143, "arena_bytes": _, "joins": 30, "probed": 320932, "reallocs": 10, "bytes_moved": 32508, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 10, "candidates": 26, "evaluated": 26, "frequent": 0, "kept": 0, "pruned_bound": 26, "pruned_support": 26, "arena_bytes": _, "joins": 0, "probed": 6756, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "pool", "level": 5, "chunks": 8, "workers": _}
{"event": "pool", "level": 6, "chunks": 16, "workers": _}
{"event": "pool", "level": 7, "chunks": 16, "workers": _}
{"event": "pool", "level": 8, "chunks": 16, "workers": _}
{"event": "pool", "level": 9, "chunks": 16, "workers": _}
{"event": "pool", "level": 10, "chunks": 5, "workers": _}
{"event": "subtree", "index": 0, "level": 9, "patterns": 7, "deepest": 10, "evaluated": 6, "frequent": 0, "peak_arena_bytes": _, "elapsed_ms": _}
{"event": "subtree", "index": 1, "level": 9, "patterns": 12, "deepest": 10, "evaluated": 12, "frequent": 0, "peak_arena_bytes": _, "elapsed_ms": _}
{"event": "subtree", "index": 2, "level": 9, "patterns": 9, "deepest": 10, "evaluated": 8, "frequent": 0, "peak_arena_bytes": _, "elapsed_ms": _}
{"event": "subtree", "index": 3, "level": 9, "patterns": 1, "deepest": 9, "evaluated": 0, "frequent": 0, "peak_arena_bytes": _, "elapsed_ms": _}
{"event": "subtree", "index": 4, "level": 9, "patterns": 1, "deepest": 9, "evaluated": 0, "frequent": 0, "peak_arena_bytes": _, "elapsed_ms": _}
{"event": "summary", "frequent": 7855, "levels": 8, "total_candidates": 24818, "n_used": 8, "support_saturated": false, "peak_arena_bytes": _, "total_ms": _}
"#;
const HANDOFF_T2: &str = r#"{"event": "seed", "level": 3, "patterns": 64, "pil_entries": 15778, "arena_bytes": _, "elapsed_ms": _}
{"event": "level", "level": 3, "candidates": 64, "evaluated": 64, "frequent": 64, "kept": 64, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": _, "joins": 0, "probed": 0, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 4, "candidates": 256, "evaluated": 256, "frequent": 256, "kept": 256, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": _, "joins": 256, "probed": 189046, "reallocs": 1, "bytes_moved": 1632, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 5, "candidates": 1024, "evaluated": 1024, "frequent": 1024, "kept": 1024, "pruned_bound": 0, "pruned_support": 0, "arena_bytes": _, "joins": 1024, "probed": 562852, "reallocs": 15, "bytes_moved": 22200, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 6, "candidates": 4096, "evaluated": 4096, "frequent": 554, "kept": 566, "pruned_bound": 3530, "pruned_support": 3542, "arena_bytes": _, "joins": 566, "probed": 735738, "reallocs": 31, "bytes_moved": 45900, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "level", "level": 7, "candidates": 1056, "evaluated": 1056, "frequent": 0, "kept": 0, "pruned_bound": 1056, "pruned_support": 1056, "arena_bytes": _, "joins": 0, "probed": 125259, "reallocs": 0, "bytes_moved": 0, "join_ms": _, "elapsed_ms": _, "saturated": false}
{"event": "pool", "level": 5, "chunks": 8, "workers": _}
{"event": "pool", "level": 6, "chunks": 16, "workers": _}
{"event": "pool", "level": 7, "chunks": 16, "workers": _}
{"event": "summary", "frequent": 1898, "levels": 5, "total_candidates": 6496, "n_used": 8, "support_saturated": false, "peak_arena_bytes": _, "total_ms": _}
"#;
