//! # perigap
//!
//! Facade crate for the *perigap* workspace — a Rust reproduction of
//! **"Mining Periodic Patterns with Gap Requirement from Sequences"**
//! (Minghua Zhang, Ben Kao, David W. Cheung, Kevin Y. Yip;
//! SIGMOD 2005).
//!
//! Re-exports the member crates under stable paths:
//!
//! * [`math`] — big integers, exact rationals, combinatorics;
//! * [`seq`] — alphabets, sequences, FASTA, synthetic generators;
//! * [`core`] — the mining algorithms (MPP, MPPm, baselines);
//! * [`analysis`] — case-study composition analysis and null models;
//! * [`store`] — versioned binary persistence with checksums;
//! * [`serve`] — the `pgmine serve` pattern-store daemon.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench/src/bin/repro.rs` for the paper-reproduction harness.

#![warn(missing_docs)]

pub use perigap_analysis as analysis;
pub use perigap_core as core;
pub use perigap_math as math;
pub use perigap_seq as seq;
pub use perigap_serve as serve;
pub use perigap_store as store;

/// Convenience prelude with the types almost every user needs.
pub mod prelude {
    pub use perigap_analysis::{CaseStudyConfig, GenomeReport};
    pub use perigap_core::adaptive::adaptive_mpp;
    pub use perigap_core::mpp::{mine, mpp, Algorithm, MppConfig};
    pub use perigap_core::mppm::mppm;
    pub use perigap_core::multiseq::{mine_collection, CollectionOutcome};
    pub use perigap_core::profile::{mine_with_profile, GapProfile};
    pub use perigap_core::rigid::{rigid_mine, RigidConfig, RigidPattern};
    pub use perigap_core::windowed::windowed_mine;
    pub use perigap_core::{
        FrequentPattern, GapRequirement, MineError, MineOutcome, OffsetCounts, Pattern, Pil,
    };
    pub use perigap_seq::{Alphabet, Sequence};
}
