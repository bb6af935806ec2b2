//! The `pgmine` subcommands: `mine`, `pack`, `scan`, `stats`.

use crate::args::{parse_gap, parse_rho, ArgError, Args};
use perigap_analysis::report::TextTable;
use perigap_core::adaptive::adaptive_mpp;
use perigap_core::corpus::{mine_corpus, CheckpointConfig, Corpus, CorpusMineConfig};
use perigap_core::enumerate::enumerate;
use perigap_core::mpp::MppConfig;
use perigap_core::multiseq::{mine_collection, CollectionOutcome};
use perigap_core::spill::{FsSpillIo, SpillIo};
use perigap_core::trace::{validate_trace, JsonlObserver, MetricsObserver, NoopObserver};
use perigap_core::verify::verify_outcome;
use perigap_core::{
    mine, mine_incremental, Algorithm, BaselineDiff, GapRequirement, IncrementalMode, MineError,
    MineOutcome, Pattern, PruneMode,
};
use perigap_seq::fasta::read_fasta;
use perigap_seq::oscillation::correlation_spectrum;
use perigap_seq::stats::{gc_content, shannon_entropy};
use perigap_seq::{Alphabet, Sequence};
use std::io::BufRead;
use std::sync::Arc;

/// Usage text shown by `pgmine help`.
pub const USAGE: &str = "\
pgmine — mine periodic patterns with gap requirements from sequences

Each mode below reads only the options it lists; any other option is
refused with an error naming the option and the mode.

USAGE:
  pgmine mine  --input <fasta> --gap <N:M> --rho <frac|pct%>
               [--algorithm mppm|mpp|adaptive|enumerate]
               [--n <len>  mpp and adaptive] [--m <window>  mppm]
               [--record <id>] [--alphabet dna|protein]
               [--top <k>] [--max-level <l>]
               [--top-k <k>  keep only the k best-supported patterns;
                a rigid gap (N:N) also prunes the search itself]
               [--target <pattern>  mine only patterns starting with
                this prefix; join cones stay intact, emission filters]
               [--threads <k>  mpp/mppm worker threads]
               [--max-arena-bytes <bytes>  abort if live arenas exceed]
               [--spill-dir <dir>  spill cold subtrees to disk instead of
                aborting at the ceiling]
               [--spill-watermark <frac>  spill once live arenas reach
                frac * ceiling, 0.0 to 1.0 (default 0.5)]
               [--closed  keep only closed patterns: drop any pattern a
                one-longer frequent extension matches at equal support]
               [--incremental  mpp/mppm: consult and refresh a result
                cache; a rigid gap (N:N) re-mines only the appended
                suffix, anything else falls back to a cold mine]
               [--cache-path <path.pgrc>  the result-cache record
                (required with --incremental)]
               [--baseline <path.jsonl>  write the per-pattern diff
                against the cached baseline as JSONL]
               [--format table|tsv] [--save <path.pgst>] [--verify]
               [--trace <path.jsonl>] [--metrics]
               --top-k, --target, --threads, the arena and spill options,
               --incremental, --trace and --metrics are mpp/mppm only
  pgmine mine  --input <fasta> --rho <frac|pct%>
               --profile <N:M,N:M,...>  per-step gaps in place of --gap
               [--n <len>] [--top <k>] [--record <id>] [--alphabet dna|protein]
  pgmine pack  --input <fasta> --output <corpus.pgco>
               [--alphabet dna|protein]   pack every FASTA record into
               one packed corpus file (2-bit DNA / 5-bit protein)
  pgmine mine  --corpus <corpus.pgco> --gap <N:M> --rho <frac|pct%>
               mine the whole corpus, one shard per sequence
               [--n <len>] [--min-sequences <k>  frequent in ≥ k ≥ 1 shards]
               [--max-level <l>]
               [--threads <k>  shards fan out on a work-stealing pool]
               [--max-arena-bytes <bytes>] [--spill-dir <dir>]
               [--spill-watermark <frac>]
               [--checkpoint-dir <dir>  persist each finished shard; a
                rerun with the same dir restores them]
               [--stop-after-shards <n>  pause after n checkpoints]
               [--closed] [--format table|tsv] [--metrics] [--top <k>]
  pgmine mine  --corpus <corpus.pgco> --unsharded --gap <N:M> --rho <frac|pct%>
               reference path: decode all and run the collection miner
               in one process; rows are identical to the sharded mine
               [--n <len>] [--min-sequences <k>] [--max-level <l>]
               [--closed] [--format table|tsv] [--top <k>]
  pgmine scan  --input <fasta> --pair <XY> [--min <d>] [--max <d>]
               [--record <id>] [--alphabet dna|protein]
  pgmine stats --input <fasta> [--record <id>] [--alphabet dna|protein]
  pgmine show  --input <pgst> [--top <k>] [--alphabet dna|protein]
               inspect a persisted outcome, rendered under the alphabet
               it was mined under (default dna)
  pgmine serve --store <pgst> [--input <fasta>  enables overlap queries]
               [--record <id>] [--alphabet dna|protein  the store's and
                the input's alphabet (default dna)]
               [--addr <host:port>  default 127.0.0.1:0]
               [--port-file <path>  write the bound address on startup]
               [--trace <path.jsonl>] [--metrics]
  pgmine serve --input <fasta> --gap <N:M> --rho <frac|pct%>  mine, then
               serve (overlap queries available)
               [--algorithm mppm|mpp] [--n <len>  mpp] [--m <window>  mppm]
               [--record <id>] [--alphabet dna|protein]
               [--addr <host:port>] [--port-file <path>]
               [--trace <path.jsonl>] [--metrics]
  pgmine query --addr <host:port> --json <request>
               [--timeout-ms <ms>  default 10000]
               a JSON array batches requests; served daemons also answer
               mine_topk/mine_target query kinds on demand
  pgmine trace-check --input <trace.jsonl>   validate a --trace file
  pgmine help

EXAMPLES:
  pgmine mine --input genome.fa --gap 9:12 --rho 0.003% --algorithm mppm --m 10
  pgmine mine --input genome.fa --gap 1:3 --rho 0.5% --trace run.jsonl --metrics
  pgmine mine --input genome.fa --gap 7 --rho 0.5% --algorithm mpp --top-k 100
  pgmine mine --input genome.fa --gap 1:3 --rho 0.5% --target ACG
  pgmine mine --input genome.fa --gap 2 --rho 0.5% --algorithm mpp \\
              --incremental --cache-path genome.pgrc --baseline diff.jsonl
  pgmine pack --input genomes.fa --output genomes.pgco
  pgmine mine --corpus genomes.pgco --gap 1:3 --rho 0.5% --threads 8 \\
              --min-sequences 2 --checkpoint-dir ckpt
  pgmine scan --input genome.fa --pair AA --max 30
  pgmine serve --input genome.fa --gap 1:3 --rho 0.5% --addr 127.0.0.1:7071
  pgmine query --addr 127.0.0.1:7071 --json '{\"q\": \"topk\", \"k\": 10}'
";

/// Every value option `pgmine` knows; each mode reads some of them.
const VALUES: &str = "input gap rho algorithm n m record alphabet top pair min max max-level \
    format profile save threads trace max-arena-bytes spill-dir spill-watermark store addr \
    port-file json timeout-ms top-k target output corpus min-sequences checkpoint-dir \
    stop-after-shards cache-path baseline";
/// Every bare flag `pgmine` knows.
const FLAGS: &str = "verify metrics closed unsharded incremental";

/// Run a full command line (without the binary name). Returns the
/// rendered output.
pub fn run(raw: impl IntoIterator<Item = String>) -> Result<String, ArgError> {
    let values: Vec<&str> = VALUES.split_whitespace().collect();
    let flags: Vec<&str> = FLAGS.split_whitespace().collect();
    let args = Args::parse(raw, &values, &flags)?;
    let (mode, reads) = mode(&args)?;
    if let Some(key) = args
        .keys()
        .find(|key| !reads.split_whitespace().any(|r| r == *key))
    {
        return Err(ArgError(format!("--{key} does not apply to {mode}")));
    }
    match args.positional().first().map_or("help", String::as_str) {
        "mine" => mine_command(&args),
        "pack" => pack_command(&args),
        "scan" => scan_command(&args),
        "stats" => stats_command(&args),
        "show" => show_command(&args),
        "serve" => serve_command(&args),
        "query" => query_command(&args),
        "trace-check" => trace_check_command(&args),
        _ => Ok(USAGE.to_string()),
    }
}

/// What every mode that reads one FASTA record reads to load it.
const SEQUENCE: &str = "input record alphabet";
/// What `mine` reads under every algorithm, besides the input.
const MINE: &str = "gap rho algorithm max-level top format save verify closed";
/// What `mine` reads under MPP and MPPm only: the engine's threads and
/// memory, pruning, the result cache and the observers.
const ENGINE: &str = "threads max-arena-bytes spill-dir spill-watermark top-k target \
    incremental cache-path baseline trace metrics";
/// What both corpus paths read.
const CORPUS: &str = "corpus gap rho n min-sequences max-level closed format top";
/// What only the sharded corpus path reads: the fan-out, each shard's
/// memory, the checkpoints and their counts. `mine_collection` reads
/// none of these.
const SHARDED: &str = "threads max-arena-bytes spill-dir spill-watermark checkpoint-dir \
    stop-after-shards metrics";
/// What the daemon reads wherever its patterns come from.
const DAEMON: &str = "addr port-file trace metrics";

/// The mode an invocation selects, named the way its command line
/// selects it, and every option that mode reads.
fn mode(args: &Args) -> Result<(String, String), ArgError> {
    let command = args.positional().first().map_or("help", String::as_str);
    let algorithm = args.get("algorithm").unwrap_or("mppm");
    let parameter = match algorithm {
        "mpp" | "adaptive" => "n",
        "mppm" => "m",
        _ => "",
    };
    Ok(match command {
        "mine" if args.get("corpus").is_some() && args.flag("unsharded") => (
            "mine --corpus --unsharded".into(),
            format!("{CORPUS} unsharded"),
        ),
        "mine" if args.get("corpus").is_some() => {
            ("mine --corpus".into(), format!("{CORPUS} {SHARDED}"))
        }
        "mine" if args.get("profile").is_some() => (
            "mine --profile".into(),
            format!("{SEQUENCE} rho profile n top"),
        ),
        "mine" => {
            let engine = match algorithm {
                "mpp" | "mppm" => ENGINE,
                "adaptive" | "enumerate" => "",
                other => return Err(ArgError(format!("unknown algorithm {other:?}"))),
            };
            (
                format!("mine --algorithm {algorithm}"),
                format!("{SEQUENCE} {MINE} {parameter} {engine}"),
            )
        }
        "serve" if args.get("store").is_some() => {
            ("serve --store".into(), format!("{SEQUENCE} store {DAEMON}"))
        }
        "serve" if matches!(algorithm, "mpp" | "mppm") => (
            format!("serve --input --algorithm {algorithm}"),
            format!("{SEQUENCE} gap rho algorithm {parameter} {DAEMON}"),
        ),
        "serve" => {
            return Err(ArgError(format!(
                "serve mines with --algorithm mppm or mpp (got {algorithm:?})"
            )))
        }
        "pack" => (command.into(), "input output alphabet".into()),
        "scan" => (command.into(), format!("{SEQUENCE} pair min max")),
        "stats" => (command.into(), SEQUENCE.into()),
        "show" => (command.into(), "input top alphabet".into()),
        "query" => (command.into(), "addr json timeout-ms".into()),
        "trace-check" => (command.into(), "input".into()),
        "help" => (command.into(), String::new()),
        other => {
            return Err(ArgError(format!(
                "unknown command {other:?}; try `pgmine help`"
            )))
        }
    })
}

/// The `--alphabet` a mode reads, DNA by default.
fn alphabet(args: &Args) -> Result<Alphabet, ArgError> {
    match args.get("alphabet").unwrap_or("dna") {
        "dna" => Ok(Alphabet::Dna),
        "protein" => Ok(Alphabet::Protein),
        other => Err(ArgError(format!("unknown alphabet {other:?}"))),
    }
}

/// Load a PGST outcome file and check that `alphabet` has a letter for
/// every code it holds.
fn load_outcome_under(
    path: &str,
    alphabet: &Alphabet,
) -> Result<perigap_store::LoadedOutcome, ArgError> {
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot open {path:?}: {e}")))?;
    let loaded = perigap_store::load_outcome(file).map_err(|e| ArgError(e.to_string()))?;
    loaded.check_alphabet(alphabet).map_err(|e| {
        ArgError(format!(
            "{path:?}: {e}; name the alphabet it was mined under with --alphabet"
        ))
    })?;
    Ok(loaded)
}

fn load_sequence(args: &Args) -> Result<Sequence, ArgError> {
    let path = args.require("input")?;
    let alphabet = alphabet(args)?;
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot open {path:?}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    load_from_reader(reader, &alphabet, args.get("record"))
}

fn load_from_reader<R: BufRead>(
    reader: R,
    alphabet: &Alphabet,
    record_id: Option<&str>,
) -> Result<Sequence, ArgError> {
    let records = read_fasta(reader, alphabet).map_err(|e| ArgError(e.to_string()))?;
    match record_id {
        Some(id) => records
            .into_iter()
            .find(|r| r.id == id)
            .map(|r| r.sequence)
            .ok_or_else(|| ArgError(format!("no FASTA record with id {id:?}"))),
        None => records
            .into_iter()
            .next()
            .map(|r| r.sequence)
            .ok_or_else(|| ArgError("FASTA file has no records".into())),
    }
}

/// A mine error as `pgmine` reports it: a setting the mine refused
/// ([`MppConfig::check`] and the corpus and incremental rules) under
/// the flag that sets it.
fn mine_error(e: MineError) -> ArgError {
    match e {
        MineError::InvalidConfig { setting, reason } => {
            let flag = match setting {
                "spill" => "spill-dir".to_string(),
                "prefix" => "target".to_string(),
                field => field.replace('_', "-"),
            };
            ArgError(format!("--{flag} {reason}"))
        }
        e => ArgError(e.to_string()),
    }
}

/// The mine request of every mining front end — `mine`,
/// `mine --incremental`, `mine --corpus` and `serve --input` — in one
/// place: how `n` is chosen (`--m` for MPPm, default 4; otherwise MPP's
/// `--n`, default `default_n`) and the engine configuration. The mode
/// check has already refused every option the mode does not read, so
/// each option absent here keeps its [`MppConfig::default`] value; the
/// mine itself refuses values it cannot honour.
fn mine_request(
    args: &Args,
    alphabet: &Alphabet,
    algorithm: &str,
    default_n: usize,
) -> Result<(Algorithm, MppConfig), ArgError> {
    let request = match algorithm {
        "mppm" => Algorithm::Mppm {
            m: args.parse_or("m", 4)?,
        },
        _ => Algorithm::Mpp {
            n: args.parse_or("n", default_n)?,
        },
    };
    let spill_dir = args.get("spill-dir");
    if args.get("spill-watermark").is_some() && spill_dir.is_none() {
        return Err(ArgError(
            "--spill-watermark needs --spill-dir to have any effect".into(),
        ));
    }
    let prefix = match args.get("target") {
        Some(text) => Some(
            Pattern::parse(text, alphabet)
                .map_err(|e| ArgError(format!("bad --target {text:?}: {e}")))?
                .codes()
                .to_vec(),
        ),
        None => None,
    };
    let defaults = MppConfig::default();
    let config = MppConfig {
        max_level: args.parse_opt("max-level")?,
        max_arena_bytes: args.parse_opt("max-arena-bytes")?,
        spill: spill_dir.map(|dir| Arc::new(FsSpillIo::new(dir)) as Arc<dyn SpillIo>),
        spill_watermark: args.parse_or("spill-watermark", defaults.spill_watermark)?,
        prune: PruneMode {
            top_k: args.parse_opt("top-k")?,
            prefix,
        },
        threads: args.parse_or("threads", defaults.threads)?,
    };
    Ok((request, config))
}

fn mine_command(args: &Args) -> Result<String, ArgError> {
    let want_metrics = args.flag("metrics");
    if want_metrics && args.get("format") == Some("tsv") {
        return Err(ArgError(
            "--metrics would corrupt --format tsv output; drop one of them".into(),
        ));
    }
    if args.get("corpus").is_some() {
        return mine_corpus_command(args);
    }
    let seq = load_sequence(args)?;
    let rho = parse_rho(args.require("rho")?)?;

    // Per-step gap profile mode (the generalized pattern form).
    if let Some(spec) = args.get("profile") {
        return mine_with_profile_command(args, &seq, rho, spec);
    }

    let (lo, hi) = parse_gap(args.require("gap")?)?;
    let gap = GapRequirement::new(lo, hi).map_err(|e| ArgError(e.to_string()))?;
    let algorithm = args.get("algorithm").unwrap_or("mppm");
    let top: usize = args.parse_or("top", 25)?;
    // MPP's `n` defaults to l1; adaptive starts from 10.
    let default_n = if algorithm == "mpp" {
        gap.l1(seq.len())
    } else {
        10
    };
    let (request, mut config) = mine_request(args, seq.alphabet(), algorithm, default_n)?;
    if algorithm == "enumerate" {
        // The enumeration baseline explores sigma^l candidates per level
        // and must be depth-capped to terminate on repetitive inputs.
        config.max_level.get_or_insert(10);
    }
    let top_k = config.prune.top_k;
    let closed = args.flag("closed");
    if closed && !config.prune.is_default() {
        return Err(ArgError(
            "--closed needs the full frequent set to probe extensions; it does \
             not compose with --top-k or --target"
                .into(),
        ));
    }
    let incremental = args.flag("incremental");
    let cache_path = args.get("cache-path");
    let baseline_path = args.get("baseline");
    if incremental && cache_path.is_none() {
        return Err(ArgError(
            "--incremental needs --cache-path: the result cache is where \
             the previous run's answer lives"
                .into(),
        ));
    }
    if !incremental && (cache_path.is_some() || baseline_path.is_some()) {
        return Err(ArgError(
            "--cache-path/--baseline apply to --incremental mining only".into(),
        ));
    }

    let jsonl = match args.get("trace") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot create {path:?}: {e}")))?;
            Some(JsonlObserver::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    // Composed sink: either half may be absent; absent halves are
    // no-ops (see `perigap_core::trace`).
    let mut observer = (jsonl, want_metrics.then(MetricsObserver::new));

    // Incremental mining reports its mode, any recovered cache fault,
    // the suspect-scan count and the baseline diff alongside the outcome.
    let mut incremental_report: Option<(
        IncrementalMode,
        Option<MineError>,
        u64,
        Option<BaselineDiff>,
    )> = None;
    let mined: Result<MineOutcome, _> = match (algorithm, request) {
        ("adaptive", Algorithm::Mpp { n }) => {
            adaptive_mpp(&seq, gap, rho, n, config).map(|a| a.outcome)
        }
        ("enumerate", _) => enumerate(&seq, gap, rho, config, 100_000_000),
        (_, request) if incremental => {
            let cache = std::path::Path::new(cache_path.expect("validated above"));
            mine_incremental(&seq, gap, rho, request, &config, cache, &mut observer).map(|inc| {
                incremental_report = Some((inc.mode, inc.cache_fault, inc.suspect_scans, inc.diff));
                inc.outcome
            })
        }
        (_, request) => mine(&seq, gap, rho, request, &config, &mut observer),
    };
    // Flush the trace before surfacing a mining error: an aborted run's
    // trace (terminal `abort` line) is exactly what post-mortems need.
    let (jsonl, metrics) = observer;
    if let Some(sink) = jsonl {
        sink.finish()
            .map_err(|e| ArgError(format!("trace write failed: {e}")))?;
    }
    let outcome = mined.map_err(mine_error)?;
    // The closed filter is an output mode: everything downstream
    // (save, tsv, table, verify) sees only the closed subset.
    let (outcome, closed_dropped) = if closed {
        let kept = outcome.closed_frequent();
        let dropped = outcome.frequent.len() - kept.len();
        (
            MineOutcome {
                frequent: kept,
                stats: outcome.stats,
            },
            Some(dropped),
        )
    } else {
        (outcome, None)
    };

    if let Some(path) = baseline_path {
        use std::io::Write as _;
        let diff = incremental_report
            .as_ref()
            .and_then(|(_, _, _, diff)| diff.as_ref());
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot create {path:?}: {e}")))?;
        let mut sink = std::io::BufWriter::new(file);
        for entry in diff.map(|d| d.entries.as_slice()).unwrap_or(&[]) {
            let pattern = Pattern::from_codes(entry.codes.clone());
            let mut line = format!(
                "{{\"kind\": {:?}, \"pattern\": {:?}",
                entry.kind.label(),
                pattern.display(seq.alphabet())
            );
            if let Some(old) = entry.old_support {
                line.push_str(&format!(", \"old_support\": {old}"));
            }
            if let Some(new) = entry.new_support {
                line.push_str(&format!(", \"new_support\": {new}"));
            }
            line.push_str("}\n");
            sink.write_all(line.as_bytes())
                .map_err(|e| ArgError(format!("cannot write {path:?}: {e}")))?;
        }
        sink.flush()
            .map_err(|e| ArgError(format!("cannot write {path:?}: {e}")))?;
    }
    if let Some(path) = args.get("save") {
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot create {path:?}: {e}")))?;
        perigap_store::save_outcome(file, &outcome, gap, rho)
            .map_err(|e| ArgError(e.to_string()))?;
    }
    if args.get("format") == Some("tsv") {
        return Ok(perigap_analysis::export::outcome_to_tsv(
            &outcome,
            seq.alphabet(),
            gap,
        ));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "sequence: {} chars over {:?}; gap {}; rho {:.6}%\n",
        seq.len(),
        seq.alphabet(),
        gap,
        rho * 100.0
    ));
    out.push_str(&format!(
        "{} frequent patterns; longest = {}\n",
        outcome.frequent.len(),
        outcome.longest_len()
    ));
    if let Some((mode, fault, suspect_scans, diff)) = &incremental_report {
        let status = match mode {
            IncrementalMode::Cold => "cold (no usable cache; cache seeded)".to_string(),
            IncrementalMode::ColdFallback(reason) => format!("cold fall-back ({reason})"),
            IncrementalMode::Cached => "cached (sequence unchanged)".to_string(),
            IncrementalMode::Incremental(d) => {
                format!("incremental ({d} symbols appended; {suspect_scans} suspect scans)")
            }
        };
        out.push_str(&format!("incremental: {status}\n"));
        if let Some(fault) = fault {
            out.push_str(&format!("cache fault (recovered by cold mine): {fault}\n"));
        }
        if let Some(diff) = diff {
            out.push_str(&format!(
                "baseline diff: {} new | {} dropped | {} changed | {} unchanged\n",
                diff.stats.new, diff.stats.dropped, diff.stats.changed, diff.stats.unchanged
            ));
        }
    }
    if let Some(dropped) = closed_dropped {
        out.push_str(&format!(
            "closed: dropped {dropped} patterns absorbed by an equal-support extension\n"
        ));
    }
    if let Some(k) = top_k {
        out.push_str(&format!(
            "top-k {k}: floor raises {}, pruned by floor {}\n",
            outcome.stats.floor_raises, outcome.stats.pruned_by_floor
        ));
    }
    if let Some(target) = args.get("target") {
        out.push_str(&format!(
            "target {target}: pruned by target {}\n",
            outcome.stats.pruned_by_target
        ));
    }
    out.push('\n');
    let mut table = TextTable::new(&["pattern", "len", "support", "ratio"]);
    let mut rows: Vec<_> = outcome.frequent.iter().collect();
    // A top-k outcome is already in rank order (support desc, len,
    // codes) — print it that way; full mines keep the longest-first
    // digest view.
    if top_k.is_none() {
        rows.sort_by(|a, b| {
            b.len()
                .cmp(&a.len())
                .then(b.support.cmp(&a.support))
                .then(a.pattern.codes().cmp(b.pattern.codes()))
        });
    }
    for f in rows.iter().take(top) {
        table.row(&[
            f.pattern.display(seq.alphabet()),
            f.len().to_string(),
            f.support.to_string(),
            format!("{:.6}", f.ratio),
        ]);
    }
    out.push_str(&table.render());
    if outcome.frequent.len() > top {
        out.push_str(&format!(
            "… {} more (raise --top)\n",
            outcome.frequent.len() - top
        ));
    }

    if args.flag("verify") {
        let problems = verify_outcome(&seq, gap, rho, &outcome);
        if problems.is_empty() {
            out.push_str("\nverify: all supports, thresholds and ratios check out\n");
        } else {
            out.push_str(&format!(
                "\nverify: {} DISCREPANCIES: {problems:?}\n",
                problems.len()
            ));
        }
    }
    if let Some(metrics) = metrics {
        out.push('\n');
        out.push_str(&metrics.render());
    }
    if outcome.stats.support_saturated {
        out.push_str(
            "\nwarning: a support counter saturated at u64::MAX; reported supports are lower bounds\n",
        );
    }
    Ok(out)
}

/// Validate a `--trace` JSONL file against the schema (see
/// `perigap_core::trace`): every line parses, level events are strictly
/// increasing, and the summary totals match the level events. A
/// `pgmine serve --trace` file holds query and warning lines only.
fn trace_check_command(args: &Args) -> Result<String, ArgError> {
    let path = args.require("input")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path:?}: {e}")))?;
    let report =
        validate_trace(&text).map_err(|e| ArgError(format!("invalid trace {path:?}: {e}")))?;
    Ok(format!(
        "trace OK: {} lines, {} level events, {} frequent patterns, {} candidates, {} queries\n",
        report.lines, report.level_events, report.frequent, report.total_candidates, report.queries
    ))
}

fn mine_with_profile_command(
    args: &Args,
    seq: &Sequence,
    rho: f64,
    spec: &str,
) -> Result<String, ArgError> {
    use perigap_core::profile::{mine_with_profile, GapProfile};
    let steps = spec
        .split(',')
        .map(|part| {
            let (lo, hi) = parse_gap(part.trim())?;
            GapRequirement::new(lo, hi).map_err(|e| ArgError(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let profile = GapProfile::new(steps).map_err(|e| ArgError(e.to_string()))?;
    let n: usize = args.parse_or("n", profile.max_pattern_len())?;
    let top: usize = args.parse_or("top", 25)?;
    let outcome = mine_with_profile(seq, &profile, rho, n).map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "sequence: {} chars; profile {:?}; rho {:.6}%\n{} frequent patterns; longest = {}\n\n",
        seq.len(),
        spec,
        rho * 100.0,
        outcome.frequent.len(),
        outcome.longest_len()
    );
    let mut table = TextTable::new(&["pattern", "len", "support", "ratio"]);
    for f in outcome.frequent.iter().rev().take(top) {
        table.row(&[
            f.pattern.display(seq.alphabet()),
            f.len().to_string(),
            f.support.to_string(),
            format!("{:.6}", f.ratio),
        ]);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// `pgmine pack`: read every FASTA record and write one packed corpus
/// file.
fn pack_command(args: &Args) -> Result<String, ArgError> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let alphabet = alphabet(args)?;
    let file =
        std::fs::File::open(input).map_err(|e| ArgError(format!("cannot open {input:?}: {e}")))?;
    let records = read_fasta(std::io::BufReader::new(file), &alphabet)
        .map_err(|e| ArgError(e.to_string()))?;
    if records.is_empty() {
        return Err(ArgError(format!("{input:?} has no FASTA records")));
    }
    let seqs: Vec<(String, Sequence)> = records.into_iter().map(|r| (r.id, r.sequence)).collect();
    let hash =
        Corpus::write(std::path::Path::new(output), &seqs).map_err(|e| ArgError(e.to_string()))?;
    let symbols: usize = seqs.iter().map(|(_, s)| s.len()).sum();
    let bytes = std::fs::metadata(output)
        .map(|m| m.len())
        .unwrap_or_default();
    Ok(format!(
        "packed {} sequences ({} symbols) into {output}: {bytes} bytes, hash {hash:#018x}\n",
        seqs.len(),
        symbols
    ))
}

/// `pgmine mine --corpus`: sharded corpus mining with optional
/// per-shard checkpoints, or the `--unsharded` reference path through
/// the in-process collection miner. Both print identical rows.
fn mine_corpus_command(args: &Args) -> Result<String, ArgError> {
    let rho = parse_rho(args.require("rho")?)?;
    let (lo, hi) = parse_gap(args.require("gap")?)?;
    let gap = GapRequirement::new(lo, hi).map_err(|e| ArgError(e.to_string()))?;
    let min_sequences: usize = args.parse_or("min-sequences", 1)?;
    let checkpoint_dir = args.get("checkpoint-dir").map(std::path::PathBuf::from);
    let stop_after_shards = args.parse_opt("stop-after-shards")?;
    if stop_after_shards.is_some() && checkpoint_dir.is_none() {
        return Err(ArgError(
            "--stop-after-shards needs --checkpoint-dir: a pause without \
             checkpoints would just lose work"
                .into(),
        ));
    }

    let path = std::path::Path::new(args.get("corpus").expect("dispatch checked"));
    let corpus = Corpus::open(path).map_err(|e| ArgError(e.to_string()))?;
    let alphabet = corpus.alphabet().clone();
    let (Algorithm::Mpp { n }, mpp_config) = mine_request(args, &alphabet, "mpp", 10)? else {
        unreachable!("a corpus mine is an MPP mine");
    };

    let (outcome, stats) = if args.flag("unsharded") {
        let seqs = (0..corpus.len())
            .map(|j| corpus.sequence(j))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ArgError(e.to_string()))?;
        let outcome =
            mine_collection(&seqs, gap, rho, min_sequences, n, mpp_config).map_err(mine_error)?;
        (outcome, None)
    } else {
        let corpus = Arc::new(corpus);
        let config = CorpusMineConfig {
            n,
            min_sequences,
            mpp: mpp_config,
            checkpoint: checkpoint_dir.map(|dir| CheckpointConfig {
                dir,
                stop_after_shards,
            }),
        };
        match mine_corpus(&corpus, gap, rho, &config) {
            Ok(out) => (out.outcome, Some(out.stats)),
            // A requested pause is a successful exit, not a failure:
            // the checkpoints are durable and a rerun restores them.
            Err(MineError::CorpusPaused { completed, total }) => {
                return Ok(format!(
                    "corpus mine paused after {completed} of {total} shards; \
                     rerun with the same --checkpoint-dir to finish\n"
                ))
            }
            Err(e) => return Err(mine_error(e)),
        }
    };

    render_collection(
        &outcome,
        &alphabet,
        gap,
        rho,
        args.flag("closed"),
        args.parse_or("top", 25)?,
        args.get("format") == Some("tsv"),
        args.flag("metrics").then_some(stats).flatten(),
    )
}

/// Render a collection outcome — shared by the sharded and
/// `--unsharded` corpus paths so their rows are byte-identical.
#[allow(clippy::too_many_arguments)]
fn render_collection(
    outcome: &CollectionOutcome,
    alphabet: &Alphabet,
    gap: GapRequirement,
    rho: f64,
    closed: bool,
    top: usize,
    tsv: bool,
    stats: Option<perigap_core::CorpusStats>,
) -> Result<String, ArgError> {
    let total = outcome.patterns.len();
    let rows = if closed {
        outcome.closed_patterns()
    } else {
        outcome.patterns.clone()
    };
    if tsv {
        let mut out = String::from("pattern\tlength\tsequences\ttotal_support\n");
        for p in &rows {
            let support: u128 = p.supports.iter().sum();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                p.pattern.display(alphabet),
                p.pattern.len(),
                p.frequent_in.len(),
                support
            ));
        }
        return Ok(out);
    }
    let mut out = format!(
        "corpus mine: gap {gap}; rho {:.6}%; {total} collection-frequent patterns\n",
        rho * 100.0
    );
    if closed {
        out.push_str(&format!(
            "closed: dropped {} patterns absorbed by an equal-support extension\n",
            total - rows.len()
        ));
    }
    if let Some(stats) = &stats {
        out.push_str(&format!(
            "shards: {} total, {} mined, {} restored; longest {} symbols\n",
            stats.shards, stats.mined_shards, stats.restored_shards, stats.longest_shard
        ));
        if stats.checkpoint_records > 0 {
            out.push_str(&format!(
                "checkpoints: {} records, {} bytes; {} faults recovered\n",
                stats.checkpoint_records, stats.checkpoint_bytes, stats.checkpoint_faults
            ));
        }
        out.push_str(&format!("corpus hash: {:#018x}\n", stats.corpus_hash));
    }
    out.push('\n');
    let mut table = TextTable::new(&["pattern", "len", "seqs", "total support"]);
    let mut view: Vec<_> = rows.iter().collect();
    view.sort_by(|a, b| {
        b.pattern
            .len()
            .cmp(&a.pattern.len())
            .then(b.frequent_in.len().cmp(&a.frequent_in.len()))
            .then(a.pattern.codes().cmp(b.pattern.codes()))
    });
    for p in view.iter().take(top) {
        let support: u128 = p.supports.iter().sum();
        table.row(&[
            p.pattern.display(alphabet),
            p.pattern.len().to_string(),
            p.frequent_in.len().to_string(),
            support.to_string(),
        ]);
    }
    out.push_str(&table.render());
    if rows.len() > top {
        out.push_str(&format!("… {} more (raise --top)\n", rows.len() - top));
    }
    Ok(out)
}

fn scan_command(args: &Args) -> Result<String, ArgError> {
    let seq = load_sequence(args)?;
    let pair = args.require("pair")?;
    let bytes = pair.as_bytes();
    if bytes.len() != 2 {
        return Err(ArgError(format!(
            "--pair needs two characters, got {pair:?}"
        )));
    }
    let a = seq
        .alphabet()
        .code(bytes[0])
        .ok_or_else(|| ArgError(format!("{:?} not in alphabet", bytes[0] as char)))?;
    let b = seq
        .alphabet()
        .code(bytes[1])
        .ok_or_else(|| ArgError(format!("{:?} not in alphabet", bytes[1] as char)))?;
    let min: usize = args.parse_or("min", 2)?;
    let max: usize = args.parse_or("max", 30.min(seq.len().saturating_sub(1)))?;
    if min < 1 || min > max || max >= seq.len() {
        return Err(ArgError(format!("bad distance range [{min}, {max}]")));
    }
    let spectrum = correlation_spectrum(&seq, a, b, min, max);
    let mut out = format!("{pair} correlation spectrum over distances {min}..={max}\n\n");
    let mut table = TextTable::new(&["distance", "corr", ""]);
    for (i, v) in spectrum.values.iter().enumerate() {
        let bar = "#".repeat((v.max(0.0) * 2_000.0) as usize);
        table.row(&[
            (spectrum.min_distance + i).to_string(),
            format!("{v:+.5}"),
            bar,
        ]);
    }
    out.push_str(&table.render());
    if let Some((peak, value)) = spectrum.peak() {
        out.push_str(&format!(
            "\npeak at distance {peak} (corr {value:+.5}); suggested gap requirement [{}, {}]\n",
            peak.saturating_sub(2),
            peak
        ));
    }
    Ok(out)
}

fn show_command(args: &Args) -> Result<String, ArgError> {
    let path = args.require("input")?;
    let top: usize = args.parse_or("top", 25)?;
    let alphabet = alphabet(args)?;
    let loaded = load_outcome_under(path, &alphabet)?;
    let mut out = format!(
        "persisted outcome: gap {}, rho {:.6}%, n = {}, {} patterns (longest {})\n\n",
        loaded.gap,
        loaded.rho * 100.0,
        loaded.outcome.stats.n_used,
        loaded.outcome.frequent.len(),
        loaded.outcome.longest_len()
    );
    let mut table = TextTable::new(&["pattern", "len", "support", "ratio"]);
    for f in loaded.outcome.frequent.iter().rev().take(top) {
        table.row(&[
            f.pattern.display(&alphabet),
            f.len().to_string(),
            f.support.to_string(),
            format!("{:.6}", f.ratio),
        ]);
    }
    out.push_str(&table.render());
    Ok(out)
}

/// Stand up the pattern-store daemon: load a PGST file (or mine the
/// input in-process), index it, and serve queries until SIGINT or a
/// client `shutdown` request.
fn serve_command(args: &Args) -> Result<String, ArgError> {
    use perigap_store::{LoadedOutcome, PatternIndex};

    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let (index, backend_desc, source) = match args.get("store") {
        Some(path) => {
            let alphabet = alphabet(args)?;
            let loaded = load_outcome_under(path, &alphabet)?;
            // With the subject sequence alongside, occurrence summaries
            // are recomputed and overlap queries become available.
            let seq = match args.get("input") {
                Some(_) => Some(load_sequence(args)?),
                None => None,
            };
            let index = PatternIndex::build(&loaded, alphabet, seq.as_ref());
            (index, format!("pgst-file:{path}"), seq)
        }
        None => {
            let seq = load_sequence(args)?;
            let rho = parse_rho(args.require("rho")?)?;
            let (lo, hi) = parse_gap(args.require("gap")?)?;
            let gap = GapRequirement::new(lo, hi).map_err(|e| ArgError(e.to_string()))?;
            let algorithm = args.get("algorithm").unwrap_or("mppm");
            let (request, config) =
                mine_request(args, seq.alphabet(), algorithm, gap.l1(seq.len()))?;
            let outcome =
                mine(&seq, gap, rho, request, &config, &mut NoopObserver).map_err(mine_error)?;
            let backend = format!("memory:{} patterns", outcome.frequent.len());
            let loaded = LoadedOutcome { outcome, gap, rho };
            let index = PatternIndex::build(&loaded, seq.alphabet().clone(), Some(&seq));
            (index, backend, Some(seq))
        }
    };
    let patterns = index.len();

    let jsonl = match args.get("trace") {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot create {path:?}: {e}")))?;
            Some(JsonlObserver::new(std::io::BufWriter::new(file)))
        }
        None => None,
    };
    let observer = (jsonl, args.flag("metrics").then(MetricsObserver::new));

    // With the subject sequence in hand the daemon also answers the
    // on-demand mine_topk/mine_target query kinds.
    let handle = perigap_serve::serve_with(
        Arc::new(index),
        backend_desc.clone(),
        source,
        addr,
        observer,
    )
    .map_err(|e| ArgError(format!("cannot bind {addr:?}: {e}")))?;
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| ArgError(format!("cannot write port file {path:?}: {e}")))?;
    }
    // Block until SIGINT (ctrl-c) or a client shutdown request.
    let sigint = perigap_serve::install_sigint_flag();
    while !sigint.load(std::sync::atomic::Ordering::SeqCst) && !handle.stop_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let queries = handle.queries_served();
    let bound = handle.addr();
    let (jsonl, metrics) = handle.shutdown();
    if let Some(sink) = jsonl {
        sink.finish()
            .map_err(|e| ArgError(format!("trace write failed: {e}")))?;
    }
    let mut out = format!(
        "served {queries} queries over {patterns} patterns on {bound} (backend {backend_desc})\n"
    );
    if let Some(metrics) = metrics {
        out.push('\n');
        out.push_str(&metrics.render());
    }
    Ok(out)
}

/// One-shot client: send a single protocol request line to a running
/// daemon and print the response line.
fn query_command(args: &Args) -> Result<String, ArgError> {
    let addr = args.require("addr")?;
    let line = args.require("json")?;
    let timeout_ms: u64 = args.parse_or("timeout-ms", 10_000)?;
    if timeout_ms == 0 {
        return Err(ArgError("--timeout-ms must be at least 1".into()));
    }
    let mut client =
        perigap_serve::Client::connect(addr, std::time::Duration::from_millis(timeout_ms))
            .map_err(|e| ArgError(format!("cannot connect to {addr:?}: {e}")))?;
    let response = client
        .roundtrip(line)
        .map_err(|e| ArgError(format!("query failed: {e}")))?;
    Ok(format!("{response}\n"))
}

fn stats_command(args: &Args) -> Result<String, ArgError> {
    let seq = load_sequence(args)?;
    let mut out = format!("length: {}\n", seq.len());
    let freqs = seq.code_frequencies();
    for (code, f) in freqs.iter().enumerate() {
        out.push_str(&format!(
            "P({}) = {f:.4}\n",
            seq.alphabet().letter(code as u8) as char
        ));
    }
    if seq.alphabet().size() == 4 {
        out.push_str(&format!("GC content: {:.4}\n", gc_content(&seq)));
    }
    out.push_str(&format!(
        "Shannon entropy: {:.4} bits\n",
        shannon_entropy(&seq)
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fasta_file(content: &str) -> tempfile::TempPath {
        tempfile::write(content)
    }

    /// Minimal temp-file helper (std only).
    mod tempfile {
        pub struct TempPath(pub std::path::PathBuf);
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf-8 temp path")
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        pub fn write(content: &str) -> TempPath {
            let mut path = std::env::temp_dir();
            let unique = format!(
                "pgmine-test-{}-{:?}.fa",
                std::process::id(),
                std::time::Instant::now()
            )
            .replace(['{', '}', ' ', ':', '.'], "-");
            path.push(unique);
            std::fs::write(&path, content).expect("write temp fasta");
            TempPath(path)
        }
    }

    fn run_words(words: &[String]) -> Result<String, ArgError> {
        run(words.iter().cloned())
    }

    #[test]
    fn help_by_default() {
        let out = run_words(&[]).unwrap();
        assert!(out.contains("USAGE"));
        let out = run_words(&["help".into()]).unwrap();
        assert!(out.contains("pgmine mine"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run_words(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn mine_end_to_end() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag test\n{body}\n"));
        let out = run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "1:3".into(),
            "--rho".into(),
            "0.5%".into(),
            "--verify".into(),
        ])
        .unwrap();
        assert!(out.contains("frequent patterns"), "output: {out}");
        assert!(out.contains("check out"), "verification should pass: {out}");
    }

    /// Scratch path for a result-cache record; any stale file from a
    /// previous test run is removed so the first mine is genuinely cold.
    fn cache_file(name: &str) -> tempfile::TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!("pgmine-cli-{}-{name}.pgrc", std::process::id()));
        let _ = std::fs::remove_file(&path);
        tempfile::TempPath(path)
    }

    fn mine_incremental_words(input: &str, cache: &str, extra: &[&str]) -> Vec<String> {
        let mut words: Vec<String> = [
            "mine",
            "--input",
            input,
            "--gap",
            "2",
            "--rho",
            "0.5%",
            "--algorithm",
            "mpp",
            // Pin n: the mpp default derives from the sequence length, and
            // a drifting engine parameter would (correctly) miss the cache.
            "--n",
            "8",
            "--incremental",
            "--cache-path",
            cache,
        ]
        .iter()
        .map(|w| w.to_string())
        .collect();
        words.extend(extra.iter().map(|w| w.to_string()));
        words
    }

    #[test]
    fn incremental_cold_cached_then_suffix_delta() {
        let base = "ACGTT".repeat(60);
        let f1 = fasta_file(&format!(">frag\n{base}\n"));
        let cache = cache_file("roundtrip");
        let baseline = cache_file("roundtrip-diff");

        let out = run_words(&mine_incremental_words(f1.as_str(), cache.as_str(), &[])).unwrap();
        assert!(
            out.contains("incremental: cold (no usable cache; cache seeded)"),
            "first run must be cold: {out}"
        );

        // Same sequence again: the cached outcome is served verbatim.
        let out = run_words(&mine_incremental_words(f1.as_str(), cache.as_str(), &[])).unwrap();
        assert!(
            out.contains("incremental: cached (sequence unchanged)"),
            "unchanged rerun must hit the cache: {out}"
        );

        // Appended suffix: delta-mined, with a baseline diff emitted.
        let f2 = fasta_file(&format!(">frag\n{base}GGGGGGGGGG\n"));
        let out = run_words(&mine_incremental_words(
            f2.as_str(),
            cache.as_str(),
            &["--baseline", baseline.as_str()],
        ))
        .unwrap();
        assert!(
            out.contains("incremental: incremental (10 symbols appended"),
            "append must take the delta path: {out}"
        );
        assert!(out.contains("baseline diff: "), "diff line missing: {out}");
        let jsonl = std::fs::read_to_string(baseline.as_str()).unwrap();
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"kind\": ") && line.ends_with('}'),
                "malformed diff line: {line}"
            );
        }

        // The incremental outcome matches a cold mine of the same input.
        let cold = run_words(&[
            "mine".into(),
            "--input".into(),
            f2.as_str().into(),
            "--gap".into(),
            "2".into(),
            "--rho".into(),
            "0.5%".into(),
            "--algorithm".into(),
            "mpp".into(),
            "--n".into(),
            "8".into(),
        ])
        .unwrap();
        let table_of = |s: &str| s.split_once("\n\n").map(|(_, t)| t.to_string());
        assert_eq!(
            table_of(&out),
            table_of(&cold),
            "incremental table must be bit-identical to cold"
        );
    }

    #[test]
    fn incremental_corrupt_cache_recovers_cold() {
        let base = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{base}\n"));
        let cache = cache_file("corrupt");
        run_words(&mine_incremental_words(f.as_str(), cache.as_str(), &[])).unwrap();

        // Flip a byte in the middle of the record: the checksum trips,
        // the fault is reported, and a cold mine still answers.
        let mut bytes = std::fs::read(cache.as_str()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(cache.as_str(), &bytes).unwrap();
        let out = run_words(&mine_incremental_words(f.as_str(), cache.as_str(), &[])).unwrap();
        assert!(
            out.contains("cache fault (recovered by cold mine): result cache"),
            "fault must be surfaced: {out}"
        );
        assert!(
            out.contains("incremental: cold"),
            "corrupt cache must fall back cold: {out}"
        );
    }

    #[test]
    fn incremental_flag_validation() {
        let base = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{base}\n"));
        let cache = cache_file("validation");
        let mine = |extra: &[&str]| {
            let mut words: Vec<String> =
                ["mine", "--input", f.as_str(), "--gap", "2", "--rho", "0.5%"]
                    .iter()
                    .map(|w| w.to_string())
                    .collect();
            words.extend(extra.iter().map(|w| w.to_string()));
            run_words(&words)
        };
        let err = |extra: &[&str]| mine(extra).unwrap_err().to_string();

        assert!(err(&["--incremental"]).contains("--incremental needs --cache-path"));
        assert!(err(&["--cache-path", cache.as_str()])
            .contains("--cache-path/--baseline apply to --incremental mining only"));
        assert!(err(&[
            "--algorithm",
            "enumerate",
            "--incremental",
            "--cache-path",
            cache.as_str(),
        ])
        .contains("--incremental does not apply to mine --algorithm enumerate"));
        let pruned = err(&[
            "--incremental",
            "--cache-path",
            cache.as_str(),
            "--top-k",
            "5",
        ]);
        assert!(
            pruned.contains("--top-k") && pruned.contains("incremental mine"),
            "{pruned}"
        );
        let profile = [
            "mine",
            "--input",
            f.as_str(),
            "--rho",
            "0.5%",
            "--profile",
            "1:2,2:3",
            "--incremental",
            "--cache-path",
            cache.as_str(),
        ];
        assert!(run_words(&profile.map(String::from))
            .unwrap_err()
            .to_string()
            .contains("--incremental does not apply to mine --profile"));
        assert!(run_words(&[
            "mine".into(),
            "--corpus".into(),
            "nonexistent.pgpk".into(),
            "--gap".into(),
            "2".into(),
            "--rho".into(),
            "0.5%".into(),
            "--cache-path".into(),
            cache.as_str().into(),
        ])
        .unwrap_err()
        .to_string()
        .contains("--cache-path does not apply to mine --corpus"));
    }

    #[test]
    fn mine_with_each_algorithm() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        for algo in ["mppm", "mpp", "adaptive", "enumerate"] {
            let out = run_words(&[
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:2".into(),
                "--rho".into(),
                "1%".into(),
                "--algorithm".into(),
                algo.into(),
            ])
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(out.contains("frequent patterns"), "{algo}: {out}");
        }
    }

    #[test]
    fn mine_with_threads() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        let serial = run_words(&base(&["--algorithm", "mpp"])).unwrap();
        let parallel = run_words(&base(&["--algorithm", "mpp", "--threads", "4"])).unwrap();
        assert_eq!(serial, parallel, "threaded mining must match serial output");
        assert!(run_words(&base(&["--algorithm", "mpp", "--threads", "0"])).is_err());
        let serial = run_words(&base(&["--algorithm", "mppm"])).unwrap();
        let parallel = run_words(&base(&["--algorithm", "mppm", "--threads", "4"])).unwrap();
        assert_eq!(serial, parallel, "threaded mppm must match serial output");
        assert!(run_words(&base(&["--algorithm", "adaptive", "--threads", "4"])).is_err());
    }

    #[test]
    fn mine_with_dfs_engine() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        // Every mpp/mppm mine runs on the one engine; the thread count
        // moves only the schedule, never the table.
        for algorithm in ["mpp", "mppm"] {
            let serial = run_words(&base(&["--algorithm", algorithm])).unwrap();
            for threads in ["1", "4"] {
                let pooled =
                    run_words(&base(&["--algorithm", algorithm, "--threads", threads])).unwrap();
                assert_eq!(serial, pooled, "{algorithm} on {threads} threads");
            }
        }
        assert!(run_words(&base(&["--algorithm", "enumerate", "--threads", "2"])).is_err());
    }

    #[test]
    fn engine_flag_is_an_unknown_option() {
        let f = fasta_file(&format!(">frag\n{}\n", "ACGTT".repeat(60)));
        for value in ["bfs", "dfs"] {
            let words: Vec<String> = [
                "mine",
                "--input",
                f.as_str(),
                "--gap",
                "1:3",
                "--rho",
                "0.5%",
                "--engine",
                value,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let err = run_words(&words).unwrap_err();
            assert!(err.to_string().contains("unknown option --engine"), "{err}");
        }
    }

    #[test]
    fn removed_layout_and_kernel_flags_are_unknown_options() {
        let f = fasta_file(&format!(">frag\n{}\n", "ACGTT".repeat(60)));
        for (flag, value) in [("--pil-repr", "sparse"), ("--kernel", "scalar")] {
            let words: Vec<String> = [
                "mine",
                "--input",
                f.as_str(),
                "--gap",
                "1:3",
                "--rho",
                "0.5%",
                flag,
                value,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let err = run_words(&words).unwrap_err();
            assert!(
                err.to_string().contains(&format!("unknown option {flag}")),
                "{err}"
            );
        }
    }

    #[test]
    fn mine_arena_ceiling_aborts_but_writes_trace() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("pgmine-abort-{}.jsonl", std::process::id()));
        let trace_str = trace_path.to_str().unwrap().to_string();
        let err = run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "1:3".into(),
            "--rho".into(),
            "0.5%".into(),
            "--algorithm".into(),
            "mpp".into(),
            "--max-arena-bytes".into(),
            "16".into(),
            "--trace".into(),
            trace_str.clone(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("ceiling"), "{err}");
        // The abort-terminated trace must still land on disk and validate.
        let checked =
            run_words(&["trace-check".into(), "--input".into(), trace_str.clone()]).unwrap();
        assert!(checked.contains("trace OK"), "{checked}");
        std::fs::remove_file(&trace_path).ok();
        // Flags are rejected on engines that cannot honor them.
        assert!(run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "1:3".into(),
            "--rho".into(),
            "0.5%".into(),
            "--algorithm".into(),
            "adaptive".into(),
            "--max-arena-bytes".into(),
            "16".into(),
        ])
        .is_err());
    }

    #[test]
    fn aborted_mine_trace_keeps_its_completed_levels() {
        // A ceiling above the seed arena and below the run's peak: the
        // mine gets some levels deep before it aborts, and its trace
        // must say how far it got.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let body: String = (0..2_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 33) as usize % 4] as char
            })
            .collect();
        let seq = Sequence::dna(&body).unwrap();
        let gap = GapRequirement::new(0, 3).unwrap();
        let mut metrics = MetricsObserver::new();
        mine(
            &seq,
            gap,
            0.0003,
            Algorithm::Mpp { n: 8 },
            &MppConfig::default(),
            &mut metrics,
        )
        .unwrap();
        let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes;
        assert!(metrics.levels[0].arena_bytes < peak / 2, "fixture too flat");

        let f = fasta_file(&format!(">frag\n{body}\n"));
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("pgmine-abort-levels-{}.jsonl", std::process::id()));
        let trace_str = trace_path.to_str().unwrap().to_string();
        let cap = (peak / 2).to_string();
        let err = run_words(
            &[
                "mine",
                "--input",
                f.as_str(),
                "--gap",
                "0:3",
                "--rho",
                "0.03%",
                "--algorithm",
                "mpp",
                "--n",
                "8",
                "--max-arena-bytes",
                &cap,
                "--trace",
                &trace_str,
            ]
            .map(String::from),
        )
        .unwrap_err();
        assert!(err.to_string().contains("ceiling"), "{err}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let levels = trace.matches("\"event\": \"level\"").count();
        assert!(levels >= 1, "no level event before the abort:\n{trace}");
        assert!(trace.contains("\"event\": \"abort\""), "{trace}");
        let checked =
            run_words(&["trace-check".into(), "--input".into(), trace_str.clone()]).unwrap();
        assert!(checked.contains("trace OK"), "{checked}");
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn mine_spill_flags_mine_identically_and_trace_the_spill() {
        // AT-repeat with gap [1,1] splits into two components at the
        // seed level, so a zero watermark forces a spill + restores.
        let body = "AT".repeat(50);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:1".into(),
                "--rho".into(),
                "40%".into(),
                "--algorithm".into(),
                "mpp".into(),
                "--n".into(),
                "20".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        let unbounded = run_words(&base(&[])).unwrap();

        let mut spill_dir = std::env::temp_dir();
        spill_dir.push(format!("pgmine-spill-{}", std::process::id()));
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("pgmine-spill-{}.jsonl", std::process::id()));
        let trace_str = trace_path.to_str().unwrap().to_string();
        let spilled = run_words(&base(&[
            "--max-arena-bytes",
            "1048576",
            "--spill-dir",
            spill_dir.to_str().unwrap(),
            "--spill-watermark",
            "0.000001",
            "--trace",
            &trace_str,
        ]))
        .unwrap();
        assert_eq!(spilled, unbounded, "spilling must not change the output");

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"event\": \"spill\""), "{trace}");
        assert!(trace.contains("\"event\": \"restore\""), "{trace}");
        let checked =
            run_words(&["trace-check".into(), "--input".into(), trace_str.clone()]).unwrap();
        assert!(checked.contains("trace OK"), "{checked}");
        // Restored records are deleted from the spill dir on the way out.
        let leftovers = std::fs::read_dir(&spill_dir)
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "restored spill files must be removed");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_dir_all(&spill_dir).ok();

        // Gating: each spill flag demands the context it needs.
        let err = run_words(&base(&["--spill-dir", "/tmp/x"])).unwrap_err();
        assert!(
            err.to_string().contains("--spill-dir") && err.to_string().contains("arena ceiling"),
            "{err}"
        );
        let err = run_words(&base(&["--spill-watermark", "0.5"])).unwrap_err();
        assert!(err.to_string().contains("--spill-dir"), "{err}");
        let err = run_words(&base(&[
            "--max-arena-bytes",
            "1048576",
            "--spill-dir",
            "/tmp/x",
            "--spill-watermark",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("[0.0, 1.0]"), "{err}");
    }

    /// Each resource flag rejects its degenerate value with a message
    /// naming the flag, instead of silently misbehaving (`--threads 0`
    /// deadlocked-by-construction, `--max-arena-bytes 0` aborted before
    /// mining anything). A watermark of 0 spills at every handoff and
    /// stays legal.
    #[test]
    fn degenerate_resource_flags_are_rejected() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
                "--algorithm".into(),
                "mpp".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };

        let err = run_words(&base(&["--threads", "0"])).unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");

        let err = run_words(&base(&["--max-arena-bytes", "0"])).unwrap_err();
        assert!(err.to_string().contains("--max-arena-bytes"), "{err}");

        // Mining starts at the seed level: a cap below it mined nothing
        // and still exited 0. The seed level itself stays legal.
        for low in ["0", "2"] {
            let err = run_words(&base(&["--max-level", low])).unwrap_err();
            assert!(
                err.to_string().contains("--max-level") && err.to_string().contains("seed level"),
                "--max-level {low}: {err}"
            );
        }
        let capped = run_words(&base(&["--max-level", "3"])).unwrap();
        assert!(!capped.contains("\n0 frequent patterns"), "{capped}");

        for bad in ["-0.5", "1.5", "NaN"] {
            let err = run_words(&base(&[
                "--max-arena-bytes",
                "1048576",
                "--spill-dir",
                "/tmp/x",
                &format!("--spill-watermark={bad}"),
            ]))
            .unwrap_err();
            assert!(
                err.to_string().contains("--spill-watermark")
                    && err.to_string().contains("[0.0, 1.0]"),
                "watermark {bad}: {err}"
            );
        }
        // The boundaries that stay legal: spill at every handoff, or
        // exactly at the ceiling.
        for (i, edge) in ["0", "0.0", "1.0"].into_iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("pgmine-wm{i}-{}", std::process::id()));
            let valid = run_words(&base(&[
                "--max-arena-bytes",
                "1048576",
                "--spill-dir",
                dir.to_str().unwrap(),
                "--spill-watermark",
                edge,
            ]));
            assert!(valid.is_ok(), "watermark {edge}: {valid:?}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn mine_top_k_prints_rank_order_and_matches_post_filtering() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
                "--algorithm".into(),
                "mpp".into(),
                "--format".into(),
                "tsv".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        // Oracle: rank-sort the full mine's TSV rows and truncate.
        let full = run_words(&base(&[])).unwrap();
        let mut rows = perigap_analysis::export::parse_outcome_tsv(&full).unwrap();
        rows.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.0.len().cmp(&b.0.len()))
                .then(a.0.cmp(&b.0))
        });
        for k in [1usize, 5, rows.len() + 10] {
            for threads in ["1", "2"] {
                let k_arg = k.to_string();
                let got = run_words(&base(&["--top-k", &k_arg, "--threads", threads])).unwrap();
                let got_rows = perigap_analysis::export::parse_outcome_tsv(&got).unwrap();
                let want: Vec<_> = rows.iter().take(k).cloned().collect();
                assert_eq!(got_rows, want, "k={k} threads={threads}");
            }
        }
        // The table view prints top-k rows in rank order and reports
        // the floor counters; --metrics adds the pruning line.
        let mut words = base(&["--top-k", "3", "--metrics"]);
        let tsv_at = words.iter().position(|w| w == "tsv").unwrap();
        words.remove(tsv_at);
        words.remove(tsv_at - 1); // drop --format tsv: metrics forbids it
        let out = run_words(&words).unwrap();
        assert!(out.contains("top-k 3: floor raises"), "{out}");
        assert!(out.contains("pruning: top_k 3"), "{out}");
    }

    #[test]
    fn mine_target_filters_and_counts_prunes() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
                "--algorithm".into(),
                "mpp".into(),
                "--format".into(),
                "tsv".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        let full = run_words(&base(&[])).unwrap();
        let rows = perigap_analysis::export::parse_outcome_tsv(&full).unwrap();
        let got = run_words(&base(&["--target", "AG"])).unwrap();
        let got_rows = perigap_analysis::export::parse_outcome_tsv(&got).unwrap();
        let want: Vec<_> = rows
            .iter()
            .filter(|r| r.0.starts_with("AG"))
            .cloned()
            .collect();
        assert!(!want.is_empty(), "workload must mine AG-prefixed patterns");
        assert_eq!(got_rows, want, "targeted mine must equal post-filtering");
        // The table view names the target and its prune counter.
        let mut words = base(&["--target", "AG"]);
        let tsv_at = words.iter().position(|w| w == "tsv").unwrap();
        words.remove(tsv_at);
        words.remove(tsv_at - 1);
        let out = run_words(&words).unwrap();
        assert!(out.contains("target AG: pruned by target"), "{out}");
    }

    #[test]
    fn top_k_and_target_flags_validate_their_input() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        let err = run_words(&base(&["--top-k", "0"])).unwrap_err();
        assert!(err.to_string().contains("--top-k"), "{err}");
        let err = run_words(&base(&["--top-k", "x"])).unwrap_err();
        assert!(err.to_string().contains("--top-k"), "{err}");
        // Z is not a DNA symbol; the error names the flag and the text.
        let err = run_words(&base(&["--target", "AZ"])).unwrap_err();
        assert!(err.to_string().contains("--target"), "{err}");
        assert!(err.to_string().contains("AZ"), "{err}");
        let err = run_words(&base(&["--target", ""])).unwrap_err();
        assert!(err.to_string().contains("--target"), "{err}");
        // Pruning modes only thread through the mpp/mppm engines.
        let err = run_words(&base(&["--algorithm", "enumerate", "--top-k", "5"])).unwrap_err();
        assert!(
            err.to_string()
                .contains("--top-k does not apply to mine --algorithm enumerate"),
            "{err}"
        );
        let profile = [
            "mine",
            "--input",
            f.as_str(),
            "--rho",
            "0.5%",
            "--profile",
            "1:2,2:3",
            "--target",
            "AC",
        ];
        let err = run_words(&profile.map(String::from)).unwrap_err();
        assert!(
            err.to_string()
                .contains("--target does not apply to mine --profile"),
            "{err}"
        );
    }

    #[test]
    fn serve_daemon_end_to_end() {
        let body = "ACGT".repeat(50);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let mut port_file = std::env::temp_dir();
        port_file.push(format!("pgmine-serve-port-{}.txt", std::process::id()));
        let port_str = port_file.to_str().unwrap().to_string();
        let words: Vec<String> = vec![
            "serve".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "0:2".into(),
            "--rho".into(),
            "0.1%".into(),
            "--algorithm".into(),
            "mpp".into(),
            "--n".into(),
            "8".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--port-file".into(),
            port_str.clone(),
            "--metrics".into(),
        ];
        let daemon = std::thread::spawn(move || run_words(&words));

        // Wait for the daemon to publish its bound address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "daemon never wrote its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let query = |json: &str| {
            run_words(&[
                "query".into(),
                "--addr".into(),
                addr.clone(),
                "--json".into(),
                json.into(),
            ])
            .unwrap()
        };
        let support = query(r#"{"q": "support", "pattern": "ACG"}"#);
        assert!(support.contains("\"ok\": true"), "{support}");
        let topk = query(r#"{"q": "topk", "k": 3}"#);
        assert!(topk.contains("\"patterns\": ["), "{topk}");
        let prefix = query(r#"{"q": "prefix", "prefix": "AC"}"#);
        assert!(prefix.contains("\"total\":"), "{prefix}");
        // Mine-then-serve keeps the sequence, so overlap works.
        let overlap = query(r#"{"q": "overlap", "a": 1, "b": 30}"#);
        assert!(overlap.contains("\"ok\": true"), "{overlap}");
        let stopping = query(r#"{"q": "shutdown"}"#);
        assert!(stopping.contains("\"stopping\": true"), "{stopping}");

        let summary = daemon.join().unwrap().unwrap();
        assert!(summary.contains("served 5 queries"), "{summary}");
        assert!(summary.contains("query support:"), "{summary}");
        assert!(summary.contains("query overlap:"), "{summary}");
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn serve_flag_gating() {
        let err = run_words(&[
            "serve".into(),
            "--store".into(),
            "/tmp/whatever.pgst".into(),
            "--gap".into(),
            "1:2".into(),
        ])
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("--gap does not apply to serve --store"),
            "{err}"
        );
        let err = run_words(&[
            "serve".into(),
            "--store".into(),
            "/nonexistent/deeply/missing.pgst".into(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        let err = run_words(&["query".into(), "--addr".into(), "127.0.0.1:1".into()]).unwrap_err();
        assert!(err.to_string().contains("--json"), "{err}");
    }

    #[test]
    fn mine_with_trace_and_metrics() {
        let body = "ACGTT".repeat(60);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("pgmine-trace-{}.jsonl", std::process::id()));
        let trace_str = trace_path.to_str().unwrap().to_string();
        let base = |extra: &[&str]| {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            words
        };
        for algo_args in [
            &["--algorithm", "mppm"][..],
            &["--algorithm", "mpp"],
            &["--algorithm", "mpp", "--threads", "2"],
        ] {
            let mut extra = algo_args.to_vec();
            extra.extend(["--trace", &trace_str, "--metrics"]);
            let out = run_words(&base(&extra)).unwrap_or_else(|e| panic!("{algo_args:?}: {e}"));
            assert!(out.contains("mining metrics"), "{out}");
            assert!(out.contains("level | candidates"), "{out}");
            let checked =
                run_words(&["trace-check".into(), "--input".into(), trace_str.clone()]).unwrap();
            assert!(checked.contains("trace OK"), "{checked}");
        }
        std::fs::remove_file(&trace_path).ok();
        // Observers only attach to mpp/mppm.
        assert!(run_words(&base(&["--algorithm", "enumerate", "--metrics"])).is_err());
        assert!(run_words(&base(&["--algorithm", "adaptive", "--trace", &trace_str])).is_err());
        // Metrics would corrupt machine-readable TSV.
        assert!(run_words(&base(&["--metrics", "--format", "tsv"])).is_err());
        // A non-trace file fails validation loudly.
        assert!(run_words(&["trace-check".into(), "--input".into(), f.as_str().into()]).is_err());
    }

    #[test]
    fn record_selection() {
        let f = fasta_file(">a\nAAAA\n>b\nACGTACGTACGTACGT\n");
        let out = run_words(&[
            "stats".into(),
            "--input".into(),
            f.as_str().into(),
            "--record".into(),
            "b".into(),
        ])
        .unwrap();
        assert!(out.contains("length: 16"), "{out}");
        assert!(run_words(&[
            "stats".into(),
            "--input".into(),
            f.as_str().into(),
            "--record".into(),
            "zzz".into(),
        ])
        .is_err());
    }

    #[test]
    fn scan_reports_peak() {
        let body = "ACGT".repeat(200);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let out = run_words(&[
            "scan".into(),
            "--input".into(),
            f.as_str().into(),
            "--pair".into(),
            "AA".into(),
            "--max".into(),
            "12".into(),
        ])
        .unwrap();
        assert!(out.contains("peak at distance"), "{out}");
        assert!(out.contains("suggested gap requirement"), "{out}");
    }

    #[test]
    fn stats_reports_composition() {
        let f = fasta_file(">x\nGGCC\n");
        let out = run_words(&["stats".into(), "--input".into(), f.as_str().into()]).unwrap();
        assert!(out.contains("GC content: 1.0000"), "{out}");
    }

    #[test]
    fn mine_with_profile_flag() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let out = run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--rho".into(),
            "0.5%".into(),
            "--profile".into(),
            "1:2,2:3,1:1".into(),
        ])
        .unwrap();
        assert!(out.contains("frequent patterns"), "{out}");
        assert!(out.contains("profile"), "{out}");
        // Bad profile component fails loudly.
        assert!(run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--rho".into(),
            "0.5%".into(),
            "--profile".into(),
            "1:x".into(),
        ])
        .is_err());
    }

    #[test]
    fn mine_save_and_show_roundtrip() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let mut out_path = std::env::temp_dir();
        out_path.push(format!("pgmine-save-{}.pgst", std::process::id()));
        let out_str = out_path.to_str().unwrap().to_string();
        let mined = run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "1:2".into(),
            "--rho".into(),
            "1%".into(),
            "--save".into(),
            out_str.clone(),
        ])
        .unwrap();
        assert!(mined.contains("frequent patterns"));
        let shown = run_words(&["show".into(), "--input".into(), out_str.clone()]).unwrap();
        assert!(shown.contains("persisted outcome"), "{shown}");
        assert!(shown.contains("gap [1, 2]"), "{shown}");
        std::fs::remove_file(&out_path).ok();
        // Showing a non-store file fails loudly.
        assert!(run_words(&["show".into(), "--input".into(), f.as_str().into()]).is_err());
    }

    /// A protein FASTA and the PGST store mined from it, in `dir`. The
    /// store's largest code is 19 (`Y`).
    fn protein_store(dir: &TempDir) -> (String, String) {
        let (input, store) = (dir.join("p.fa"), dir.join("p.pgst"));
        std::fs::write(&input, format!(">p\n{}\n", "MKWVTFISLLLLFSSAYS".repeat(6))).unwrap();
        let mine = "--alphabet protein --gap 1:1 --rho 1% --max-level 4";
        run(format!("mine --input {input} {mine} --save {store}")
            .split(' ')
            .map(String::from))
        .unwrap();
        (input, store)
    }

    /// The refusal of a protein store read as DNA: exit 2, naming the
    /// code, the alphabet and the option that fixes it.
    fn assert_refused_as_dna(line: &str) {
        let err = run(line.split(' ').map(String::from)).expect_err(line).0;
        assert!(
            err.contains("holds code 19, but the DNA alphabet has 4 letters"),
            "{line}: {err}"
        );
        assert!(err.contains("--alphabet"), "{line}: {err}");
    }

    /// `show` renders a protein store under `--alphabet protein`, and
    /// refuses it under the default DNA alphabet instead of panicking.
    #[test]
    fn show_reads_the_store_alphabet() {
        let dir = TempDir::new("show-protein");
        let (_, store) = protein_store(&dir);
        let line = format!("show --input {store} --alphabet protein");
        let shown = run(line.split(' ').map(String::from)).unwrap();
        assert!(shown.contains("persisted outcome"), "{shown}");
        assert!(shown.contains('W'), "{shown}");
        assert_refused_as_dna(&format!("show --input {store}"));
    }

    /// `serve --store` reads `--alphabet` with or without `--input`. Under
    /// the default DNA alphabet it refuses a protein store before it
    /// binds; under `--alphabet protein`, without the sequence, its top
    /// rows render as rows of `show`.
    #[test]
    fn serve_store_reads_the_store_alphabet() {
        let dir = TempDir::new("serve-protein");
        let (input, store) = protein_store(&dir);
        assert_refused_as_dna(&format!("serve --store {store} --addr unbindable"));
        assert_refused_as_dna(&format!(
            "serve --store {store} --input {input} --addr unbindable"
        ));

        let line = format!("show --input {store} --alphabet protein --top 100000");
        let shown = run(line.split(' ').map(String::from)).unwrap();
        // Show's rows: pattern, length, support, ratio.
        let rows: Vec<(&str, &str)> = shown
            .lines()
            .skip(4)
            .filter_map(|row| {
                let cells: Vec<&str> = row.split_whitespace().collect();
                (cells.len() == 4).then(|| (cells[0], cells[2]))
            })
            .collect();
        let port_file = dir.join("port");
        let line = format!(
            "serve --store {store} --alphabet protein --addr 127.0.0.1:0 --port-file {port_file}"
        );
        let daemon = std::thread::spawn(move || run(line.split(' ').map(String::from)));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(&port_file) {
                Ok(text) if !text.is_empty() => break text,
                _ => assert!(std::time::Instant::now() < deadline, "no port file"),
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let query = |json: &str| {
            let words = ["query", "--addr", &addr, "--json", json];
            run(words.map(String::from)).unwrap()
        };
        let topk = query(r#"{"q": "topk", "k": 3}"#);
        let answer = perigap_core::trace::Json::parse(topk.trim()).unwrap();
        let served = answer.get("patterns").and_then(|p| p.as_arr()).unwrap();
        assert_eq!(served.len(), 3, "{topk}");
        for row in served {
            let pattern = row.get("pattern").and_then(|p| p.as_str()).unwrap();
            let support = row.get("support").and_then(|s| s.as_u128()).unwrap();
            let row = (pattern, support.to_string());
            assert!(rows.contains(&(row.0, &row.1)), "{topk} vs {shown}");
        }
        assert!(query(r#"{"q": "shutdown"}"#).contains("\"stopping\": true"));
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn mine_tsv_format() {
        let body = "ACGTT".repeat(40);
        let f = fasta_file(&format!(">frag\n{body}\n"));
        let out = run_words(&[
            "mine".into(),
            "--input".into(),
            f.as_str().into(),
            "--gap".into(),
            "1:2".into(),
            "--rho".into(),
            "1%".into(),
            "--format".into(),
            "tsv".into(),
        ])
        .unwrap();
        assert!(out.starts_with("pattern\tlength\tsupport\tratio"), "{out}");
        let rows = perigap_analysis::export::parse_outcome_tsv(&out).unwrap();
        assert!(!rows.is_empty());
    }

    #[test]
    fn bad_pair_and_range_fail() {
        let f = fasta_file(">x\nACGTACGTAC\n");
        let base = vec!["scan".to_string(), "--input".into(), f.as_str().to_string()];
        let mut a = base.clone();
        a.extend(["--pair".into(), "AXY".into()]);
        assert!(run_words(&a).is_err());
        let mut b = base.clone();
        b.extend(["--pair".into(), "AN".into()]);
        assert!(run_words(&b).is_err());
        let mut c = base;
        c.extend([
            "--pair".into(),
            "AA".into(),
            "--min".into(),
            "9".into(),
            "--max".into(),
            "5".into(),
        ]);
        assert!(run_words(&c).is_err());
    }

    /// Temp directory with recursive cleanup — checkpoint dirs hold
    /// several files, so the single-file TempPath is not enough.
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(label: &str) -> Self {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "pgmine-cli-{label}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
        fn join(&self, name: &str) -> String {
            self.0.join(name).to_str().expect("utf-8").to_string()
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn pack_demo_corpus(dir: &TempDir) -> String {
        let fasta = format!(
            ">s0\n{}\n>s1\n{}\n>s2\n{}\n",
            "ACGTT".repeat(30),
            "ACGTT".repeat(40),
            "ACGTT".repeat(50)
        );
        let f = fasta_file(&fasta);
        let corpus = dir.join("demo.pgco");
        let out = run_words(&[
            "pack".into(),
            "--input".into(),
            f.as_str().into(),
            "--output".into(),
            corpus.clone(),
        ])
        .unwrap();
        assert!(out.contains("packed 3 sequences"), "{out}");
        assert!(out.contains("hash 0x"), "{out}");
        corpus
    }

    fn corpus_mine_words(corpus: &str, extra: &[&str]) -> Vec<String> {
        let mut words: Vec<String> = vec![
            "mine".into(),
            "--corpus".into(),
            corpus.into(),
            "--gap".into(),
            "1:3".into(),
            "--rho".into(),
            "0.5%".into(),
            "--min-sequences".into(),
            "2".into(),
        ];
        words.extend(extra.iter().map(|s| s.to_string()));
        words
    }

    #[test]
    fn pack_rejects_bad_inputs() {
        let dir = TempDir::new("pack-bad");
        let empty = fasta_file("");
        assert!(run_words(&[
            "pack".into(),
            "--input".into(),
            empty.as_str().into(),
            "--output".into(),
            dir.join("x.pgco"),
        ])
        .is_err());
        let f = fasta_file(">s\nACGT\n");
        assert!(run_words(&[
            "pack".into(),
            "--input".into(),
            f.as_str().into(),
            "--output".into(),
            dir.join("x.pgco"),
            "--alphabet".into(),
            "klingon".into(),
        ])
        .is_err());
        assert!(run_words(&["pack".into(), "--input".into(), f.as_str().into()]).is_err());
    }

    #[test]
    fn corpus_mine_end_to_end_matches_unsharded() {
        let dir = TempDir::new("corpus-e2e");
        let corpus = pack_demo_corpus(&dir);
        let sharded = run_words(&corpus_mine_words(&corpus, &[])).unwrap();
        assert!(sharded.contains("collection-frequent"), "{sharded}");
        let threaded = run_words(&corpus_mine_words(&corpus, &["--threads", "3"])).unwrap();
        let unsharded = run_words(&corpus_mine_words(&corpus, &["--unsharded"])).unwrap();
        assert_eq!(sharded, threaded, "thread count must not change output");
        assert_eq!(
            sharded, unsharded,
            "sharded and reference paths must render identical rows"
        );
        let tsv = run_words(&corpus_mine_words(&corpus, &["--format", "tsv"])).unwrap();
        assert!(
            tsv.starts_with("pattern\tlength\tsequences\ttotal_support"),
            "{tsv}"
        );
    }

    /// A pack whose first shard length is forged to wrap its payload
    /// span, behind a recomputed trailer, is refused with a typed error
    /// on both corpus paths instead of panicking mid-mine.
    #[test]
    fn forged_corpus_length_is_rejected_not_a_panic() {
        let dir = TempDir::new("corpus-forged");
        let f = fasta_file(">a\nACGTACGTACGTAAGGCCTTACGT\n>b\nTTGACCAGTAGGCATACGATCAGT\n");
        let corpus = dir.join("two.pgco");
        run_words(&[
            "pack".into(),
            "--input".into(),
            f.as_str().into(),
            "--output".into(),
            corpus.clone(),
        ])
        .unwrap();
        let mut bytes = std::fs::read(&corpus).unwrap();
        bytes[19..27].copy_from_slice(&((1u64 << 63) + 24).to_le_bytes());
        let body = bytes.len() - 8;
        let digest = perigap_core::wire::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&corpus, &bytes).unwrap();
        for extra in [&[][..], &["--unsharded"]] {
            let err = run_words(&corpus_mine_words(&corpus, extra)).unwrap_err();
            assert!(err.to_string().contains("corpus file rejected"), "{err}");
        }
    }

    #[test]
    fn corpus_pause_and_resume_through_cli() {
        let dir = TempDir::new("corpus-resume");
        let corpus = pack_demo_corpus(&dir);
        let ckpt = dir.join("ckpt");
        let cold = run_words(&corpus_mine_words(&corpus, &[])).unwrap();
        let paused = run_words(&corpus_mine_words(
            &corpus,
            &["--checkpoint-dir", &ckpt, "--stop-after-shards", "1"],
        ))
        .unwrap();
        assert!(paused.contains("paused after 1 of 3 shards"), "{paused}");
        assert!(paused.contains("same --checkpoint-dir"), "{paused}");
        let resumed = run_words(&corpus_mine_words(&corpus, &["--checkpoint-dir", &ckpt])).unwrap();
        assert_eq!(cold, resumed, "resumed mine must render the cold rows");
        let metrics = run_words(&corpus_mine_words(
            &corpus,
            &["--checkpoint-dir", &ckpt, "--metrics"],
        ))
        .unwrap();
        assert!(metrics.contains("0 mined, 3 restored"), "{metrics}");
        assert!(metrics.contains("corpus hash: 0x"), "{metrics}");

        // A damaged record is mined again, and --metrics counts it.
        let record = std::path::Path::new(&ckpt).join("shard-00000001.pgrc");
        let mut bytes = std::fs::read(&record).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&record, &bytes).unwrap();
        let healed = run_words(&corpus_mine_words(
            &corpus,
            &["--checkpoint-dir", &ckpt, "--metrics"],
        ))
        .unwrap();
        assert!(healed.contains("1 mined, 2 restored"), "{healed}");
        assert!(healed.contains("1 faults recovered"), "{healed}");

        // Reuse is automatic; there is no --resume option.
        let err = run_words(&corpus_mine_words(&corpus, &["--resume"])).unwrap_err();
        assert!(err.0.contains("unknown option --resume"), "{err:?}");
    }

    #[test]
    fn corpus_closed_mode_reports_drops() {
        let dir = TempDir::new("corpus-closed");
        let corpus = pack_demo_corpus(&dir);
        let open = run_words(&corpus_mine_words(&corpus, &[])).unwrap();
        let closed = run_words(&corpus_mine_words(&corpus, &["--closed"])).unwrap();
        assert!(
            closed.contains("absorbed by an equal-support extension"),
            "{closed}"
        );
        let count = |s: &str| {
            s.lines()
                .find(|l| l.contains("collection-frequent"))
                .map(|l| l.to_string())
        };
        assert_eq!(
            count(&open),
            count(&closed),
            "closed filters rows, not the mined total"
        );
    }

    /// Every mode reads only the options it names: the corpus paths
    /// honour `--max-level` and `--spill-watermark`, and the one mode
    /// check refuses every other option with an error naming the option
    /// and the mode.
    #[test]
    fn every_mode_refuses_the_options_it_does_not_read() {
        let dir = TempDir::new("modes");
        let corpus = pack_demo_corpus(&dir);
        let spill = dir.join("spill");
        let f = fasta_file(&format!(">s\n{}\n", "ACGTT".repeat(30)));
        // A command line; `C` stands for the corpus, `F` for the FASTA
        // file and `S` for a spill directory.
        let words = |line: &str| -> Vec<String> {
            let word = |w| match w {
                "C" => corpus.clone(),
                "F" => f.as_str().to_string(),
                "S" => spill.clone(),
                w => w.to_string(),
            };
            line.split(' ').map(word).collect()
        };
        let length = |row: &str| row.split('\t').nth(1).unwrap().parse::<usize>().unwrap();

        // The capped rows are the uncapped rows up to length 4, on every
        // corpus path; a shard spill at the given watermark changes
        // nothing.
        let corpus_mine = "mine --corpus C --gap 1:3 --rho 0.5% --min-sequences 2 --format tsv";
        let full = run_words(&words(corpus_mine)).unwrap();
        assert!(full.lines().skip(1).any(|row| length(row) > 4), "{full}");
        let want: String = full
            .lines()
            .enumerate()
            .filter(|(i, row)| *i == 0 || length(row) <= 4)
            .map(|(_, row)| format!("{row}\n"))
            .collect();
        for extra in ["", " --unsharded", " --threads 3"] {
            let capped = words(&format!("{corpus_mine} --max-level 4{extra}"));
            assert_eq!(run_words(&capped).unwrap(), want, "{extra}");
        }
        let spilled = " --max-arena-bytes 1048576 --spill-dir S --spill-watermark 0.000001";
        let spilled = run_words(&words(&format!("{corpus_mine}{spilled}"))).unwrap();
        assert_eq!(spilled, full);

        // Each case is a base command line, the options it adds and the
        // mode it selects; the refused option is the last one added.
        // Serving binds an address that cannot bind, so a missed refusal
        // fails instead of serving.
        let base = |name| match name {
            "corpus" => corpus_mine.to_string(),
            "unsharded" => format!("{corpus_mine} --unsharded"),
            "mine" => "mine --input F --gap 1:3 --rho 0.5%".into(),
            "profile" => "mine --input F --rho 0.5% --profile 1:3,1:3,1:3,1:3".into(),
            "serve" => "serve --input F --gap 1:3 --rho 0.5% --addr unbindable".into(),
            "store" => "serve --store missing.pgst".into(),
            _ => "stats --input F".into(),
        };
        for case in [
            "corpus --verify => mine --corpus",
            "corpus --alphabet dna => mine --corpus",
            "corpus --record s0 => mine --corpus",
            "corpus --input F => mine --corpus",
            "unsharded --max-arena-bytes 64 => mine --corpus --unsharded",
            "unsharded --threads 4 => mine --corpus --unsharded",
            "unsharded --spill-watermark 0.5 => mine --corpus --unsharded",
            "unsharded --checkpoint-dir S => mine --corpus --unsharded",
            "mine --n 5 => mine --algorithm mppm",
            "mine --algorithm mpp --m 5 => mine --algorithm mpp",
            "mine --algorithm adaptive --m 5 => mine --algorithm adaptive",
            "mine --algorithm enumerate --n 5 => mine --algorithm enumerate",
            "mine --pair AA => mine --algorithm mppm",
            "mine --addr 127.0.0.1:0 => mine --algorithm mppm",
            "mine --min 2 => mine --algorithm mppm",
            "profile --max-level 3 => mine --profile",
            "profile --threads 4 => mine --profile",
            "profile --gap 1:3 => mine --profile",
            "serve --threads 2 => serve --input --algorithm mppm",
            "serve --max-level 3 => serve --input --algorithm mppm",
            "store --threads 2 => serve --store",
            "store --max-level 3 => serve --store",
            "stats --gap 1:3 => stats",
            "stats --threads 2 => stats",
        ] {
            let (line, mode) = case.split_once(" => ").unwrap();
            let (name, extra) = line.split_once(' ').unwrap();
            let words = words(&format!("{} {extra}", base(name)));
            let option = words.iter().rev().find(|w| w.starts_with("--")).unwrap();
            let err = run_words(&words).expect_err(&format!("{case} must be refused"));
            assert_eq!(err.0, format!("{option} does not apply to {mode}"));
        }
    }

    #[test]
    fn corpus_flag_gating() {
        let dir = TempDir::new("corpus-gate");
        let corpus = pack_demo_corpus(&dir);
        let cases: &[&[&str]] = &[
            &["--resume"],
            &["--stop-after-shards", "1"],
            &["--checkpoint-dir", "/tmp/x", "--unsharded"],
            &["--top-k", "3"],
            &["--algorithm", "mpp"],
            &["--engine", "zigzag"],
            &["--engine", "dfs"],
            &["--threads", "0"],
            &["--spill-dir", "/tmp/x"],
        ];
        for extra in cases {
            assert!(
                run_words(&corpus_mine_words(&corpus, extra)).is_err(),
                "expected rejection for {extra:?}"
            );
        }
        // A zero pause limit used to mine and checkpoint one shard
        // before pausing: it is refused before any shard runs.
        let ckpt = dir.join("ckpt-zero");
        let err = run_words(&corpus_mine_words(
            &corpus,
            &["--checkpoint-dir", &ckpt, "--stop-after-shards", "0"],
        ))
        .unwrap_err();
        assert!(
            err.0.contains("--stop-after-shards must be at least 1"),
            "{}",
            err.0
        );
        assert!(
            !std::path::Path::new(&ckpt).exists(),
            "no shard may be mined"
        );
        // A level cap below the seed level mined nothing and exited 0.
        let err = run_words(&corpus_mine_words(&corpus, &["--max-level", "2"])).unwrap_err();
        assert!(err.0.contains("seed level"), "{}", err.0);
        // Corpus-only options are rejected on the single-sequence path.
        let f = fasta_file(&format!(">s\n{}\n", "ACGTT".repeat(30)));
        for extra in [
            vec!["--min-sequences", "2"],
            vec!["--unsharded"],
            vec!["--resume"],
            vec!["--checkpoint-dir", "/tmp/x"],
        ] {
            let mut words: Vec<String> = vec![
                "mine".into(),
                "--input".into(),
                f.as_str().into(),
                "--gap".into(),
                "1:3".into(),
                "--rho".into(),
                "0.5%".into(),
            ];
            words.extend(extra.iter().map(|s| s.to_string()));
            assert!(
                run_words(&words).is_err(),
                "expected rejection for {extra:?}"
            );
        }
        // --corpus and --input are exclusive.
        let mut both = corpus_mine_words(&corpus, &[]);
        both.extend(["--input".into(), f.as_str().to_string()]);
        assert!(run_words(&both).is_err());
    }
}
