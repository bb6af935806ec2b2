//! # perigap-cli
//!
//! The `pgmine` command-line tool: mine periodic patterns with gap
//! requirements from FASTA inputs, scan base-pair oscillation spectra
//! to pick a gap requirement, and report sequence statistics.
//!
//! The command logic lives in [`commands::run`] (arguments in, rendered
//! text out; only `mine --format tsv` writes its notes to stderr) so it
//! is testable without spawning processes; `src/main.rs` is a thin shim.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
