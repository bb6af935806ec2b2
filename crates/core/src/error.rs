//! Error type for the mining core.

use std::fmt;

/// Errors produced while configuring or running the miner.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// A gap requirement with `min > max`, or a `max` above
    /// [`crate::gap::MAX_GAP`].
    InvalidGap {
        /// Requested minimum gap.
        min: usize,
        /// Requested maximum gap.
        max: usize,
    },
    /// A support threshold outside `(0, 1]`.
    InvalidThreshold(f64),
    /// A pattern string could not be parsed.
    PatternParse(String),
    /// The subject sequence is too short for any pattern of the minimum
    /// mined length under the gap requirement.
    SequenceTooShort {
        /// Subject sequence length.
        len: usize,
        /// Minimum span required.
        needed: usize,
    },
    /// The `m` parameter of MPPm must be at least 1.
    InvalidM(usize),
    /// A mine's settings cannot be honoured (see
    /// [`crate::mpp::MppConfig::check`]): `setting` names the field,
    /// `reason` what it must be.
    InvalidConfig {
        /// The refused setting, by its field name (`max_level`, `top_k`, …).
        setting: &'static str,
        /// What the setting must be, and why.
        reason: String,
    },
    /// The enumeration baseline would exceed its candidate budget.
    EnumerationBudget {
        /// Candidates the next level would require.
        required: u128,
        /// Configured budget.
        budget: u128,
    },
    /// The next generation would push the live arena bytes past
    /// `MppConfig::max_arena_bytes`.
    MemoryCeiling {
        /// Configured ceiling in bytes.
        limit: usize,
        /// Bytes the mine would have needed to continue.
        required: usize,
    },
    /// A worker-pool thread died (panicked or exited) while it owned a
    /// join chunk, so the parallel mine cannot complete the level.
    WorkerFailed {
        /// The chunk index the failure was observed on (`usize::MAX`
        /// when the dead worker never reported which chunk it held).
        chunk: usize,
        /// The panic payload, when one could be recovered.
        message: String,
    },
    /// Writing, reading, or decoding a spill record failed — an I/O
    /// error from the [`crate::spill::SpillIo`] backend, or a record
    /// that came back torn, truncated, or with a bad checksum. The run
    /// aborts rather than mine from state it cannot trust.
    SpillIo {
        /// The spill record id involved.
        record: u64,
        /// What went wrong (I/O error text or corruption description).
        message: String,
    },
    /// A packed corpus file could not be written, opened, or decoded —
    /// I/O failure, bad magic/version, a directory entry pointing
    /// outside the file, or a trailing-hash mismatch. The corpus is
    /// refused whole rather than mined partially.
    CorpusIo {
        /// What went wrong.
        message: String,
    },
    /// A result-cache record (see [`crate::incremental`]; corpus
    /// checkpoints are the same records) could not be read, written, or
    /// decoded — I/O failure, truncation, bad magic/version, a count or
    /// ordering the bytes cannot back, or a trailing-checksum mismatch.
    /// Readers treat this as "no usable cache" and mine cold; writers
    /// surface it, since a mine that cannot persist its cache breaks
    /// the next run's contract.
    CacheIo {
        /// What went wrong.
        message: String,
    },
    /// A structurally valid result-cache record belongs to a different
    /// run — another sequence (hash/prefix mismatch) or other mining
    /// parameters. Merging deltas into it would produce a pattern set
    /// no cold mine could, so the cache is ignored and the mine falls
    /// back cold.
    CacheMismatch {
        /// Which recorded field disagrees.
        field: &'static str,
        /// The value the cache recorded.
        cached: String,
        /// The value this run was invoked with.
        requested: String,
    },
    /// A checkpointed corpus mine stopped early on purpose (the
    /// `stop_after_shards` knob — the deterministic stand-in for a
    /// mid-run kill). Completed shards are durable; rerun with the same
    /// checkpoint directory to finish.
    CorpusPaused {
        /// Shards that hold a valid checkpoint record after this run.
        completed: usize,
        /// Total shards in the corpus.
        total: usize,
    },
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::InvalidGap { min, max } if min > max => {
                write!(f, "invalid gap requirement [{min}, {max}]: min exceeds max")
            }
            MineError::InvalidGap { min, max } => write!(
                f,
                "invalid gap requirement [{min}, {max}]: max exceeds {}, the widest gap",
                crate::gap::MAX_GAP
            ),
            MineError::InvalidThreshold(t) => {
                write!(f, "support threshold must be in (0, 1], got {t}")
            }
            MineError::PatternParse(msg) => write!(f, "cannot parse pattern: {msg}"),
            MineError::SequenceTooShort { len, needed } => write!(
                f,
                "sequence of length {len} cannot contain any pattern (needs ≥ {needed})"
            ),
            MineError::InvalidM(m) => write!(f, "MPPm parameter m must be ≥ 1, got {m}"),
            MineError::InvalidConfig { setting, reason } => write!(f, "{setting} {reason}"),
            MineError::EnumerationBudget { required, budget } => write!(
                f,
                "enumeration would generate {required} candidates, over the budget of {budget}"
            ),
            MineError::MemoryCeiling { limit, required } => write!(
                f,
                "arena memory ceiling of {limit} bytes exceeded: mining would need {required} bytes"
            ),
            MineError::WorkerFailed { chunk, message } => {
                if *chunk == usize::MAX {
                    write!(f, "a mining worker thread died: {message}")
                } else {
                    write!(f, "a mining worker thread died on chunk {chunk}: {message}")
                }
            }
            MineError::SpillIo { record, message } => {
                write!(f, "spill record {record} failed: {message}")
            }
            MineError::CorpusIo { message } => {
                write!(f, "corpus file rejected: {message}")
            }
            MineError::CacheIo { message } => {
                write!(f, "result cache rejected: {message}")
            }
            MineError::CacheMismatch {
                field,
                cached,
                requested,
            } => write!(
                f,
                "result cache is from a different run: {field} was {cached}, this run has {requested}"
            ),
            MineError::CorpusPaused { completed, total } => write!(
                f,
                "corpus mine paused after {completed} of {total} shards (checkpoints are durable; rerun with the same checkpoint directory to finish)"
            ),
        }
    }
}

impl std::error::Error for MineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MineError::InvalidGap { min: 5, max: 3 }
            .to_string()
            .contains("[5, 3]: min exceeds max"));
        assert!(MineError::InvalidGap {
            min: 0,
            max: 1 << 32
        }
        .to_string()
        .ends_with("[0, 4294967296]: max exceeds 4294967295, the widest gap"));
        assert!(MineError::InvalidThreshold(1.5).to_string().contains("1.5"));
        assert!(MineError::SequenceTooShort { len: 3, needed: 9 }
            .to_string()
            .contains('9'));
        assert!(MineError::InvalidM(0).to_string().contains("m must be"));
        let config = MineError::InvalidConfig {
            setting: "top_k",
            reason: "must be at least 1".into(),
        };
        assert_eq!(config.to_string(), "top_k must be at least 1");
        let ceiling = MineError::MemoryCeiling {
            limit: 1024,
            required: 4096,
        }
        .to_string();
        assert!(
            ceiling.contains("1024") && ceiling.contains("4096"),
            "{ceiling}"
        );
        assert!(MineError::WorkerFailed {
            chunk: 7,
            message: "injected".into()
        }
        .to_string()
        .contains("chunk 7"));
        assert!(MineError::WorkerFailed {
            chunk: usize::MAX,
            message: "gone".into()
        }
        .to_string()
        .contains("died: gone"));
        let spill = MineError::SpillIo {
            record: 3,
            message: "checksum mismatch".into(),
        }
        .to_string();
        assert!(
            spill.contains("record 3") && spill.contains("checksum mismatch"),
            "{spill}"
        );
        assert!(MineError::CorpusIo {
            message: "bad magic".into()
        }
        .to_string()
        .contains("corpus file rejected: bad magic"));
        assert!(MineError::CacheIo {
            message: "trailing hash mismatch".into()
        }
        .to_string()
        .contains("result cache rejected: trailing hash mismatch"));
        let cache_mismatch = MineError::CacheMismatch {
            field: "gap requirement",
            cached: "0:0".into(),
            requested: "1:3".into(),
        }
        .to_string();
        assert!(
            cache_mismatch.contains("gap requirement") && cache_mismatch.contains("1:3"),
            "{cache_mismatch}"
        );
        let paused = MineError::CorpusPaused {
            completed: 2,
            total: 5,
        }
        .to_string();
        assert!(paused.contains("2 of 5"), "{paused}");
    }
}
