//! # perigap-core
//!
//! Rust reproduction of **"Mining Periodic Patterns with Gap Requirement
//! from Sequences"** (Minghua Zhang, Ben Kao, David W. Cheung, Kevin Y.
//! Yip — SIGMOD 2005).
//!
//! Given a subject sequence `S`, a gap requirement `[N, M]` and a
//! support threshold `ρs`, the miner finds every pattern
//! `a1 g(N,M) a2 g(N,M) … al` whose *support ratio* — matching offset
//! sequences divided by all `N_l` length-`l` offset sequences — reaches
//! `ρs`.
//!
//! ```
//! use perigap_core::{GapRequirement, mpp::{mpp, MppConfig}};
//! use perigap_seq::Sequence;
//!
//! let seq = Sequence::dna(&"ACGTT".repeat(40)).unwrap();
//! let gap = GapRequirement::new(1, 3).unwrap();
//! let outcome = mpp(&seq, gap, 0.01, 10, MppConfig::default()).unwrap();
//! for f in &outcome.frequent {
//!     println!("{}  sup={} ratio={:.4}",
//!              f.pattern.display(seq.alphabet()), f.support, f.ratio);
//! }
//! ```
//!
//! Every MPP and MPPm mine is one call, [`mpp::mine`]: an
//! [`Algorithm`] says how `n` is chosen, [`mpp::MppConfig`] how the
//! engine runs (levels, memory, threads), and an observer ([`trace`])
//! what is recorded. `mpp` and `mppm` are its untraced forms, and
//! [`mpp::mine_top_k`] its top-k form.
//!
//! ## Map of the paper
//!
//! | Paper | Module |
//! |---|---|
//! | §3 problem definition | [`gap`], [`pattern`], [`naive`] |
//! | §4.1 + Appendix (`N_l`, Theorems 3–4) | [`counts`] |
//! | §4.2 Theorems 1–2, λ and λ′ | [`lambda`], [`em`] |
//! | §5.1 MPP + PIL | [`pil`], [`mpp`] |
//! | §5.2 MPPm | [`mppm`] |
//! | §6 enumeration baseline, adaptive-n | [`enumerate`], [`adaptive`] |
//! | §2 related-work models (extensions) | [`windowed`], [`multiseq`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub(crate) mod arena;
pub mod asynchronous;
pub mod corpus;
pub mod counts;
pub mod dfs;
pub mod em;
pub mod enumerate;
pub mod error;
pub mod gap;
pub mod incremental;
pub mod lambda;
pub mod mpp;
pub mod mppm;
pub mod multiseq;
pub mod naive;
pub mod parallel;
pub mod pattern;
pub mod pil;
pub mod profile;
pub mod prune;
pub mod reference;
pub mod result;
pub mod rigid;
pub mod spill;
pub mod trace;
pub mod verify;
pub mod windowed;
pub mod wire;

pub use corpus::{mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig, CorpusOutcome};
pub use counts::OffsetCounts;
pub use error::MineError;
pub use gap::GapRequirement;
pub use incremental::{
    load_result_cache, mine_incremental, write_result_cache, BaselineDiff, CacheKey, CachedLevel,
    CachedPattern, DiffEntry, DiffKind, DiffStats, IncrementalMode, IncrementalOutcome,
    ResultCache,
};
pub use mpp::{mine, mine_top_k, Algorithm};
pub use pattern::Pattern;
pub use pil::{JoinCounters, Pil};
pub use prune::select_top_k;
pub use result::{CorpusStats, FrequentPattern, MineOutcome, MineStats};
