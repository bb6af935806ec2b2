//! One rule set for a mine's settings: the library and `pgmine` refuse
//! the same invalid values and name the same setting — the library by
//! its field, `pgmine` by the flag that sets it — and every boundary
//! value that stays legal mines.
//!
//! Top-k is `mine_top_k`'s argument, not a config field, so its rows
//! run through that call alone. `--target` is an output filter of
//! `pgmine mine`, so its row has no library side. Neither applies to
//! `mine --incremental`, whose result cache holds full mines.

use perigap_cli::commands::run;
use perigap_core::adaptive::adaptive_mpp;
use perigap_core::corpus::{mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig};
use perigap_core::enumerate::enumerate;
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::mppm::mppm;
use perigap_core::multiseq::mine_collection;
use perigap_core::reference::mpp_reference;
use perigap_core::spill::{MemSpillIo, SpillIo};
use perigap_core::trace::NoopObserver;
use perigap_core::windowed::windowed_mine;
use perigap_core::{mine, mine_incremental, mine_top_k, Algorithm, GapRequirement, MineError};
use perigap_seq::Sequence;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MPP: Algorithm = Algorithm::Mpp { n: 6 };
const MPPM: Algorithm = Algorithm::Mppm { m: 4 };

/// A library entry point that takes a config.
#[derive(Clone, Copy, Debug)]
enum Lib {
    Mine,
    MineMppm,
    Mpp,
    Mppm,
    Adaptive,
    Enumerate,
    Windowed,
    Reference,
    Incremental,
    Collection,
    Corpus,
}

/// A `pgmine` mode that mines.
#[derive(Clone, Copy, Debug)]
enum Cli {
    Mpp,
    Mppm,
    Incremental,
    Corpus,
    Unsharded,
}

const EVERY_LIB: &[Lib] = &[
    Lib::Mine,
    Lib::MineMppm,
    Lib::Mpp,
    Lib::Mppm,
    Lib::Adaptive,
    Lib::Enumerate,
    Lib::Windowed,
    Lib::Reference,
    Lib::Incremental,
    Lib::Collection,
    Lib::Corpus,
];
/// The entry points a top-k row reaches, through `mine_top_k`.
const TOP_K_LIB: &[Lib] = &[Lib::Mine, Lib::MineMppm];
const CORPUS_LIB: &[Lib] = &[Lib::Collection, Lib::Corpus];

/// The modes that read the engine's threads, memory and spill options.
const ENGINE_CLI: &[Cli] = &[Cli::Mpp, Cli::Mppm, Cli::Incremental, Cli::Corpus];
const LEVEL_CLI: &[Cli] = &[
    Cli::Mpp,
    Cli::Mppm,
    Cli::Incremental,
    Cli::Corpus,
    Cli::Unsharded,
];
/// The modes that read `--top-k` and `--target`.
const OUTPUT_CLI: &[Cli] = &[Cli::Mpp, Cli::Mppm];
const CORPUS_CLI: &[Cli] = &[Cli::Corpus, Cli::Unsharded];

/// What a row sets.
enum Set {
    /// A field of the mine's config.
    Engine(fn(&mut MppConfig)),
    /// A corpus mine's `min_sequences`.
    MinSequences(usize),
    /// A checkpointed corpus mine's `stop_after_shards`.
    StopAfterShards(usize),
    /// The `k` of a top-k mine.
    TopK(usize),
    /// Nothing the library reads: a `pgmine` output option.
    Output,
}
use Set::{Engine, MinSequences, Output, StopAfterShards, TopK};

/// One setting's value on every path that reads it.
struct Row {
    /// The field the library names; `None` for a legal value.
    refused: Option<&'static str>,
    set: Set,
    lib: &'static [Lib],
    /// The value on the command line, set by its last flag; `{dir}`
    /// stands for a fresh scratch directory.
    words: Vec<&'static str>,
    cli: &'static [Cli],
}

impl Row {
    fn new(
        refused: Option<&'static str>,
        set: Set,
        lib: &'static [Lib],
        words: &[&'static str],
        cli: &'static [Cli],
    ) -> Row {
        let words = words.to_vec();
        Row {
            refused,
            set,
            lib,
            words,
            cli,
        }
    }

    /// The `pgmine` flag that sets the row's value.
    fn flag(&self) -> &'static str {
        let word = self.words.iter().rev().find(|w| w.starts_with("--"));
        let word = word.expect("a row sets a flag").trim_start_matches("--");
        word.split('=').next().expect("split yields a first part")
    }
}

/// The arena ceiling and spill directory a watermark needs.
const SPILL: [&str; 4] = ["--max-arena-bytes", "1048576", "--spill-dir", "{dir}"];

fn spill_backend() -> Option<Arc<dyn SpillIo>> {
    Some(Arc::new(MemSpillIo::default()))
}

/// A spill backend under a ceiling, so the watermark is read.
fn spilling(c: &mut MppConfig) {
    c.max_arena_bytes = Some(1 << 30);
    c.spill = spill_backend();
}

fn watermark(value: &'static str) -> Vec<&'static str> {
    [&SPILL[..], &["--spill-watermark", value]].concat()
}

// One row a line: the tables read as tables.
#[rustfmt::skip]
fn refused_rows() -> Vec<Row> {
    let no = |setting, set, lib, words: &[&'static str], cli| {
        Row::new(Some(setting), set, lib, words, cli)
    };
    vec![
        no("threads", Engine(|c| c.threads = 0), EVERY_LIB, &["--threads", "0"], ENGINE_CLI),
        no("max_level", Engine(|c| c.max_level = Some(0)), EVERY_LIB, &["--max-level", "0"], LEVEL_CLI),
        no("max_level", Engine(|c| c.max_level = Some(2)), EVERY_LIB, &["--max-level", "2"], LEVEL_CLI),
        no("max_arena_bytes", Engine(|c| c.max_arena_bytes = Some(0)), EVERY_LIB, &["--max-arena-bytes", "0"], ENGINE_CLI),
        no("spill", Engine(|c| c.spill = spill_backend()), EVERY_LIB, &SPILL[2..], ENGINE_CLI),
        no("spill_watermark", Engine(|c| c.spill_watermark = -0.5), EVERY_LIB, &watermark("-0.5"), ENGINE_CLI),
        no("spill_watermark", Engine(|c| c.spill_watermark = 1.5), EVERY_LIB, &watermark("1.5"), ENGINE_CLI),
        no("spill_watermark", Engine(|c| c.spill_watermark = f64::NAN), EVERY_LIB, &watermark("NaN"), ENGINE_CLI),
        no("top_k", TopK(0), TOP_K_LIB, &["--top-k", "0"], OUTPUT_CLI),
        no("target", Output, &[], &["--target", ""], OUTPUT_CLI),
        no("min_sequences", MinSequences(0), CORPUS_LIB, &["--min-sequences", "0"], CORPUS_CLI),
        no("stop_after_shards", StopAfterShards(0), &[Lib::Corpus],
            &["--checkpoint-dir", "{dir}", "--stop-after-shards", "0"], &[Cli::Corpus]),
        // Legal values, but the result cache holds full mines.
        no("top_k", Output, &[], &["--top-k", "5"], &[Cli::Incremental]),
        no("target", Output, &[], &["--target", "A"], &[Cli::Incremental]),
    ]
}

#[rustfmt::skip]
fn legal_rows() -> Vec<Row> {
    let ok = |set, lib, words: &[&'static str], cli| Row::new(None, set, lib, words, cli);
    vec![
        ok(Engine(|c| c.max_level = Some(3)), EVERY_LIB, &["--max-level", "3"], LEVEL_CLI),
        ok(Engine(|c| { spilling(c); c.spill_watermark = 0.0 }), EVERY_LIB, &watermark("0"), ENGINE_CLI),
        ok(Engine(|c| { spilling(c); c.spill_watermark = 1.0 }), EVERY_LIB, &watermark("1.0"), ENGINE_CLI),
        ok(Engine(|c| c.threads = 1), EVERY_LIB, &["--threads", "1"], ENGINE_CLI),
        ok(TopK(1), TOP_K_LIB, &["--top-k", "1"], OUTPUT_CLI),
        ok(Output, &[], &["--target", "A"], OUTPUT_CLI),
        // The corpus below holds three sequences.
        ok(MinSequences(3), CORPUS_LIB, &["--min-sequences", "3"], CORPUS_CLI),
    ]
}

/// The inputs every path mines, and a scratch directory for the files
/// they read and write.
struct Fixture {
    seq: Sequence,
    members: Vec<Sequence>,
    corpus: Arc<Corpus>,
    gap: GapRequirement,
    rho: f64,
    dir: PathBuf,
    fasta: String,
    corpus_path: String,
    next: AtomicUsize,
}

impl Fixture {
    fn new(label: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("pgmine-settings-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let members: Vec<Sequence> = ["ACGTT", "ACGTA", "AGGTT"]
            .iter()
            .map(|unit| Sequence::dna(&unit.repeat(40)).unwrap())
            .collect();
        let fasta = dir.join("subject.fa");
        std::fs::write(&fasta, format!(">subject\n{}\n", members[0].to_text())).unwrap();
        let corpus_path = dir.join("corpus.pgco");
        let named: Vec<(String, Sequence)> = members
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("s{i}"), s.clone()))
            .collect();
        Corpus::write(&corpus_path, &named).unwrap();
        Fixture {
            seq: members[0].clone(),
            corpus: Arc::new(Corpus::open(&corpus_path).unwrap()),
            members,
            gap: GapRequirement::new(1, 3).unwrap(),
            rho: 0.005,
            fasta: fasta.to_str().unwrap().to_string(),
            corpus_path: corpus_path.to_str().unwrap().to_string(),
            dir,
            next: AtomicUsize::new(0),
        }
    }

    /// A path in the scratch directory that no earlier call returned.
    fn fresh(&self, name: &str) -> PathBuf {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{name}-{i}"))
    }

    fn library(&self, via: Lib, row: &Row) -> Result<(), MineError> {
        // A depth cap keeps the enumeration baseline small; the rows
        // that set `max_level` override it.
        let mut config = MppConfig {
            max_level: Some(5),
            ..MppConfig::default()
        };
        let (mut min_sequences, mut stop_after, mut top_k) = (1, None, None);
        match row.set {
            Set::Engine(set) => set(&mut config),
            Set::MinSequences(k) => min_sequences = k,
            Set::StopAfterShards(k) => stop_after = Some(k),
            Set::TopK(k) => top_k = Some(k),
            Set::Output => unreachable!("an output option has no library side"),
        }
        let (seq, gap, rho) = (&self.seq, self.gap, self.rho);
        let (c, observer) = (config.clone(), &mut NoopObserver);
        let engine = |algorithm| match top_k {
            Some(k) => mine_top_k(seq, gap, rho, algorithm, k, &config, &mut NoopObserver),
            None => mine(seq, gap, rho, algorithm, &config, &mut NoopObserver),
        };
        match via {
            Lib::Mine => engine(MPP).map(drop),
            Lib::MineMppm => engine(MPPM).map(drop),
            Lib::Mpp => mpp(seq, gap, rho, 6, c).map(drop),
            Lib::Mppm => mppm(seq, gap, rho, 4, c).map(drop),
            Lib::Adaptive => adaptive_mpp(seq, gap, rho, 4, c).map(drop),
            Lib::Enumerate => enumerate(seq, gap, rho, c, 1 << 40).map(drop),
            Lib::Windowed => windowed_mine(seq, gap, 50, 1, c).map(drop),
            Lib::Reference => mpp_reference(seq, gap, rho, 6, c).map(drop),
            Lib::Incremental => {
                let cache = self.fresh("cache.pgrc");
                mine_incremental(seq, gap, rho, MPP, &c, &cache, observer).map(drop)
            }
            Lib::Collection => {
                mine_collection(&self.members, gap, rho, min_sequences, 6, c).map(drop)
            }
            Lib::Corpus => {
                let checkpoint = stop_after.map(|k| CheckpointConfig {
                    dir: self.fresh("checkpoints"),
                    stop_after_shards: Some(k),
                });
                let corpus_config = CorpusMineConfig {
                    n: 6,
                    min_sequences,
                    mpp: c,
                    checkpoint,
                };
                mine_corpus(&self.corpus, gap, rho, &corpus_config).map(drop)
            }
        }
    }

    fn pgmine(&self, via: Cli, row: &Row) -> Result<String, String> {
        let mut words: Vec<String> = match via {
            Cli::Mpp | Cli::Mppm | Cli::Incremental => vec!["mine", "--input", &self.fasta],
            Cli::Corpus | Cli::Unsharded => vec!["mine", "--corpus", &self.corpus_path],
        }
        .into_iter()
        .map(String::from)
        .collect();
        words.extend(["--gap", "1:3", "--rho", "0.5%"].map(String::from));
        match via {
            Cli::Mpp => words.extend(["--algorithm", "mpp"].map(String::from)),
            Cli::Mppm => words.extend(["--algorithm", "mppm"].map(String::from)),
            Cli::Incremental => {
                let cache = self.fresh("cache.pgrc");
                words.extend(
                    ["--algorithm", "mpp", "--incremental", "--cache-path"].map(String::from),
                );
                words.push(cache.to_str().unwrap().to_string());
            }
            Cli::Corpus => {}
            Cli::Unsharded => words.push("--unsharded".into()),
        }
        for word in &row.words {
            words.push(match *word {
                "{dir}" => self.fresh("dir").to_str().unwrap().to_string(),
                w => w.to_string(),
            });
        }
        run(words).map_err(|e| e.0)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn every_path_refuses_an_invalid_setting_under_one_name() {
    let fx = Fixture::new("refused");
    for row in refused_rows() {
        let setting = row.refused.expect("a refused row");
        for &via in row.lib {
            match fx.library(via, &row) {
                Err(MineError::InvalidConfig { setting: named, .. }) => {
                    assert_eq!(named, setting, "{via:?} under {:?}", row.words);
                }
                other => panic!(
                    "{via:?} under {:?}: expected {setting}, got {other:?}",
                    row.words
                ),
            }
        }
        for &via in row.cli {
            let err = fx
                .pgmine(via, &row)
                .expect_err(&format!("pgmine {via:?} under {:?}", row.words));
            assert!(
                err.starts_with(&format!("--{} ", row.flag())),
                "pgmine {via:?} under {:?}: {err}",
                row.words
            );
        }
    }
}

#[test]
fn every_path_mines_a_boundary_value_that_stays_legal() {
    let fx = Fixture::new("legal");
    for row in legal_rows() {
        for &via in row.lib {
            let mined = fx.library(via, &row);
            assert!(mined.is_ok(), "{via:?} under --{}: {mined:?}", row.flag());
        }
        for &via in row.cli {
            let mined = fx.pgmine(via, &row);
            assert!(
                mined.is_ok(),
                "pgmine {via:?} under {:?}: {mined:?}",
                row.words
            );
        }
    }
}
