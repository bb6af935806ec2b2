//! # perigap-seq
//!
//! Sequence substrate for the *perigap* workspace — the Rust
//! reproduction of "Mining Periodic Patterns with Gap Requirement from
//! Sequences" (Zhang, Kao, Cheung, Yip; SIGMOD 2005).
//!
//! Everything the miner needs from the world of sequences lives here:
//!
//! * [`Alphabet`] / [`Sequence`] — code-mapped subject sequences over
//!   DNA, protein or custom alphabets, with the paper's 1-based `S[i]`
//!   accessor;
//! * [`PackedDna`] — 2-bit at-rest storage for genome-scale inputs;
//! * [`fasta`] / [`genbank`] — FASTA and GenBank-lite I/O;
//! * [`gen`] — deterministic synthetic generators (i.i.d., order-k
//!   Markov, periodic-motif planting, tandem repeats, mutation noise)
//!   that substitute for the paper's NCBI downloads;
//! * [`stats`] / [`oscillation`] — composition, entropy, k-mer and
//!   base-pair-oscillation statistics;
//! * [`fragment`] — the case study's 100 kb genome segmentation.

#![warn(missing_docs)]

pub mod alphabet;
pub mod error;
pub mod fasta;
pub mod fragment;
pub mod gen;
pub mod genbank;
pub mod oscillation;
pub mod packed;
pub mod sequence;
pub mod stats;
pub mod translate;

pub use alphabet::Alphabet;
pub use error::SeqError;
pub use packed::{bits_per_symbol, pack_codes, packed_len, unpack_codes, PackedDna};
pub use sequence::Sequence;
