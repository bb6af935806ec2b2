//! `serve_zipf`: `pgmine serve` over a mined store, driven over TCP by
//! two closed-loop clients, one connection each: a client sends its next
//! query only once the previous answer has arrived. The timed phase runs
//! in segments, each against a freshly started daemon.
//!
//! The mix is support 60% / prefix 25% / topk 10% / overlap 5%. Support
//! and prefix keys follow a Zipf law (s = 1.1) over a seeded ranking of
//! the stored patterns, and a tenth of the support keys name patterns
//! the store does not hold, so the daemon's response cache sees both hot
//! keys and misses. Overlap ranges are uniform over the sequence.

use crate::gen::SplitMix64;
use crate::harness::{op_metrics, put, put1, Ctx, Metrics, OP_TIMEOUT};
use crate::layers::{self, LayerInputs};
use crate::proc::{self, Exit, Running};
use crate::stats::{percentile, Stat};
use crate::tracefile::LayerTrace;
use crate::workloads::{check_pinned, put_trace};
use perigap_core::trace::Json;
use perigap_core::Pattern;
use perigap_seq::fasta::read_fasta;
use perigap_seq::Alphabet;
use perigap_store::{load_outcome, IndexEntry, PatternIndex};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MINE: &[&str] = &[
    "mine", "--input", "store.fa", "--gap", "0:9", "--rho", "0.01%", "--format", "tsv",
];
/// The load phase runs in this many segments, each against a freshly
/// started daemon, so set-up is sampled across the whole run.
const SEGMENTS: u32 = 5;
const CLIENTS: u64 = 2;
const ZIPF_S: f64 = 1.1;
/// Every this many answers per client is checked against the index.
const SAMPLE_EVERY: usize = 64;
/// Row cap of prefix and overlap queries.
const LIMIT: usize = 10;
const KINDS: [&str; 4] = ["support", "prefix", "topk", "overlap"];

pub fn run(ctx: &mut Ctx, trace: bool) -> Metrics {
    let mut metrics = Metrics::new();
    let mut mine: Vec<&str> = MINE.to_vec();
    mine.extend(["--save", "store.pgst"]);
    if trace {
        mine.extend(["--trace", "store.jsonl"]);
    }
    let Some(store) = ctx
        .pgmine("store.mine", &mine, "store.tsv")
        .filter(Exit::ok)
    else {
        return metrics;
    };
    check_pinned(ctx, "serve_zipf", "store.tsv");
    let Some(keys) = Keys::load(ctx) else {
        return metrics;
    };
    if trace {
        trace_serve(ctx, &keys, store.wall.as_secs_f64(), &mut metrics);
        return metrics;
    }

    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let mut load = Load {
        queries: Vec::new(),
        phase: Duration::ZERO,
    };
    for _ in 0..SEGMENTS {
        let Some((server, secs)) = start(ctx, &[]) else {
            return metrics;
        };
        setup.push(secs);
        let segment = drive(ctx, &keys, server.addr, ctx.seconds / SEGMENTS);
        rss.extend(stop(ctx, server).map(|e| e.rss_mb()));
        load.queries.extend(segment.queries);
        load.phase += segment.phase;
    }
    if let Some(s) = Stat::of(&setup) {
        put(&mut metrics, "setup_s", s);
    }
    op_metrics(&mut metrics, &load.latencies(), &rss, load.phase);
    load.per_kind(&mut metrics, "serve");
    metrics
}

/// The per-layer pass: the traced store mine, the layers on the store,
/// and an untraced then a traced daemon under the same load.
fn trace_serve(ctx: &mut Ctx, keys: &Keys, mine_wall: f64, metrics: &mut Metrics) {
    let text = std::fs::read_to_string(ctx.path("store.jsonl")).unwrap_or_default();
    let t = match LayerTrace::parse(&text) {
        Ok(t) => t,
        Err(e) => return ctx.gate.record(false, || format!("store.jsonl: {e}")),
    };
    put_trace(metrics, &t);
    let mut layer: Vec<&str> = MINE.to_vec();
    layer.extend(["--incremental", "--cache-path", "layer.pgrc"]);
    ctx.pgmine("store.layer_files", &layer, "layer.tsv");
    let same = ctx.digest("layer.tsv") == ctx.digest("store.tsv");
    ctx.gate.record(same, || {
        "the cache run's output differs from the store's".into()
    });
    let inputs = LayerInputs {
        fasta: "store.fa",
        alphabet: Alphabet::Dna,
        outcome: "store.pgst",
        cache: "layer.pgrc",
        mppm: true,
    };
    if layers::measure(ctx, &inputs, metrics).is_some() {
        let outside = metrics["seq.read_fasta_s"].value + metrics["analysis.export_tsv_s"].value;
        put1(metrics, "cli.residual_s", mine_wall - t.total_s - outside);
    }

    let half = ctx.seconds / 2;
    let Some((plain, _)) = start(ctx, &[]) else {
        return;
    };
    let untraced = drive(ctx, keys, plain.addr, half);
    stop(ctx, plain);
    let Some((traced, _)) = start(ctx, &["--trace", "serve.jsonl"]) else {
        return;
    };
    let load = drive(ctx, keys, traced.addr, half);
    cache_ratio(ctx, traced.addr, metrics);
    stop(ctx, traced);
    load.per_kind(metrics, "serve");
    let p50 = |l: &Load| percentile(&l.latencies(), 50.0).map_or(0.0, |p| p.value);
    put1(metrics, "trace.overhead_ratio", p50(&load) / p50(&untraced));

    // Service time inside the daemon, from its own query events; what
    // the client waits beyond it is the wire and the client.
    let text = std::fs::read_to_string(ctx.path("serve.jsonl")).unwrap_or_default();
    if let Ok(daemon) = LayerTrace::parse(&text) {
        for kind in KINDS {
            let inside: Vec<f64> = daemon
                .queries
                .iter()
                .filter(|q| q.kind == kind)
                .map(|q| q.latency_s * 1e6)
                .collect();
            if let Some(p) = percentile(&inside, 50.0) {
                put1(metrics, &format!("serve.daemon.{kind}.p50_us"), p.value);
            }
        }
        let p50 = |name: &str| metrics.get(name).map(|s| s.value);
        if let (Some(client), Some(inside)) = (
            p50("serve.support.p50_us"),
            p50("serve.daemon.support.p50_us"),
        ) {
            put1(metrics, "serve.wire_overhead_us", client - inside);
        }
    }
    put1(metrics, "core.incremental.delta_ratio", 0.0);
    put1(metrics, "core.incremental.baseline_bytes", 0.0);
}

/// A running daemon.
struct Server {
    running: Running,
    addr: SocketAddr,
}

/// Start `pgmine serve` on the store; the seconds from spawn until its
/// port file names the bound address.
fn start(ctx: &mut Ctx, extra: &[&str]) -> Option<(Server, f64)> {
    let port = ctx.path("port");
    let _ = std::fs::remove_file(&port);
    let mut args = vec![
        "serve",
        "--store",
        "store.pgst",
        "--input",
        "store.fa",
        "--port-file",
        "port",
    ];
    args.extend(extra);
    let span = ctx.spans.open("serve.start");
    let started = Instant::now();
    let running = ctx
        .command(&args, "serve.out", "serve_exit.txt", daemon_timeout(ctx))
        .and_then(|mut c| proc::spawn(&mut c));
    let mut running = match running {
        Ok(r) => r,
        Err(e) => {
            ctx.spans.close(span);
            ctx.gate
                .record(false, || format!("cannot start pgmine serve: {e}"));
            return None;
        }
    };
    loop {
        let addr = std::fs::read_to_string(&port)
            .ok()
            .and_then(|text| text.trim().parse::<SocketAddr>().ok());
        if let Some(addr) = addr {
            let secs = started.elapsed().as_secs_f64();
            ctx.spans.close(span);
            ctx.gate.record(true, String::new);
            return Some((Server { running, addr }, secs));
        }
        if running.exited() || started.elapsed() > OP_TIMEOUT {
            if !running.exited() {
                let _ = running.wait(Duration::ZERO);
            }
            ctx.spans.close(span);
            ctx.gate
                .record(false, || "pgmine serve never wrote its port file".into());
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A daemon outliving this has hung; its shim kills it.
fn daemon_timeout(ctx: &Ctx) -> Duration {
    ctx.seconds + OP_TIMEOUT
}

/// Ask the daemon to shut down and wait for it; its exit carries its
/// peak RSS.
fn stop(ctx: &mut Ctx, server: Server) -> Option<Exit> {
    let answer = ask(server.addr, r#"{"q": "shutdown"}"#);
    ctx.gate.record(
        answer
            .as_deref()
            .is_ok_and(|a| a.starts_with(r#"{"ok": true"#)),
        || format!("shutdown: {answer:?}"),
    );
    let id = ctx.spans.open("serve.stop");
    let exit = server
        .running
        .wait_shim(&ctx.path("serve_exit.txt"), daemon_timeout(ctx));
    ctx.spans.close(id);
    let ok = exit.as_ref().is_ok_and(Exit::ok);
    ctx.gate
        .record(ok, || format!("pgmine serve exit: {exit:?}"));
    exit.ok()
}

/// One request on a fresh connection.
fn ask(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(format!("{request}\n").as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim().to_string())
}

/// The response cache's hit share, from the daemon's `stats` answer.
fn cache_ratio(ctx: &mut Ctx, addr: SocketAddr, metrics: &mut Metrics) {
    let answer = ask(addr, r#"{"q": "stats"}"#).ok();
    let stats = answer.as_deref().and_then(|a| Json::parse(a).ok());
    let count = |key| {
        stats
            .as_ref()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
    };
    match (count("cache_hits"), count("cache_misses")) {
        (Some(hits), Some(misses)) if hits + misses > 0.0 => {
            put1(metrics, "serve.cache_hit_ratio", hits / (hits + misses));
        }
        _ => ctx.gate.record(false, || {
            format!("stats answer without cache counters: {answer:?}")
        }),
    }
}

/// The store as the clients see it: the patterns they ask for, and the
/// in-process index whose answers the daemon's must equal.
struct Keys {
    index: PatternIndex,
    /// Pattern texts in Zipf rank order (a seeded shuffle of the store).
    ranked: Vec<String>,
    /// Cumulative Zipf weights of the ranks.
    cdf: Vec<f64>,
    len: u64,
}

impl Keys {
    fn load(ctx: &mut Ctx) -> Option<Keys> {
        let (store, fasta, seed) = (ctx.path("store.pgst"), ctx.path("store.fa"), ctx.seed);
        let read = || -> Result<Keys, String> {
            let file = std::fs::File::open(store).map_err(|e| e.to_string())?;
            let loaded = load_outcome(BufReader::new(file)).map_err(|e| e.to_string())?;
            let file = std::fs::File::open(fasta).map_err(|e| e.to_string())?;
            let seq = read_fasta(BufReader::new(file), &Alphabet::Dna)
                .map_err(|e| e.to_string())?
                .into_iter()
                .next()
                .ok_or("store.fa has no record")?
                .sequence;
            let index = PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq));
            let mut ranked: Vec<String> = loaded
                .outcome
                .frequent
                .iter()
                .map(|f| f.pattern.display(&Alphabet::Dna))
                .collect();
            let mut rng = SplitMix64::new(seed, 0x2a1f);
            for i in (1..ranked.len()).rev() {
                ranked.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut total = 0.0;
            let cdf = (1..=ranked.len())
                .map(|r| {
                    total += (r as f64).powf(-ZIPF_S);
                    total
                })
                .collect();
            if ranked.is_empty() || seq.len() < 40 {
                return Err("the store is too small to query".into());
            }
            Ok(Keys {
                index,
                ranked,
                cdf,
                len: seq.len() as u64,
            })
        };
        let (keys, _) = ctx.spans.time("serve.reference_index", read);
        keys.map_err(|e| ctx.gate.record(false, || format!("store: {e}")))
            .ok()
    }

    fn zipf(&self, rng: &mut SplitMix64) -> &str {
        let u = rng.unit() * self.cdf.last().copied().unwrap_or(0.0);
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranked.len() - 1);
        &self.ranked[rank]
    }

    /// The next query: its kind (an index into [`KINDS`]) and its line.
    fn request(&self, rng: &mut SplitMix64) -> (usize, String) {
        let draw = rng.unit();
        if draw < 0.60 {
            let pattern = if rng.unit() < 0.10 {
                // Longer than any stored pattern: certainly absent.
                (0..12)
                    .map(|_| "ACGT".as_bytes()[rng.below(4) as usize] as char)
                    .collect()
            } else {
                self.zipf(rng).to_string()
            };
            (0, format!(r#"{{"q": "support", "pattern": "{pattern}"}}"#))
        } else if draw < 0.85 {
            let p = self.zipf(rng);
            let prefix = &p[..p.len().min(3)];
            (
                1,
                format!(r#"{{"q": "prefix", "prefix": "{prefix}", "limit": {LIMIT}}}"#),
            )
        } else if draw < 0.95 {
            let k = [10, 20, 50][rng.below(3) as usize];
            (2, format!(r#"{{"q": "topk", "k": {k}}}"#))
        } else {
            let a = 1 + rng.below(self.len - 20);
            (
                3,
                format!(
                    r#"{{"q": "overlap", "a": {a}, "b": {}, "limit": {LIMIT}}}"#,
                    a + 10
                ),
            )
        }
    }

    /// Does `answer` to `request` (of kind `kind`) equal the index's?
    fn check(&self, kind: usize, request: &str, answer: &str) -> Result<(), String> {
        let q = Json::parse(request)?;
        let a = Json::parse(answer)?;
        let field = |key: &str| q.get(key).and_then(Json::as_usize).unwrap_or(0);
        let codes = |key: &str| {
            let text = q.get(key).and_then(Json::as_str).unwrap_or("");
            Pattern::parse(text, self.index.alphabet())
                .map(|p| p.codes().to_vec())
                .map_err(|e| e.to_string())
        };
        let (want_total, want_rows): (usize, Vec<&IndexEntry>) = match kind {
            0 => {
                let found = self.index.support(&codes("pattern")?);
                let got = a.get("found").and_then(Json::as_bool);
                let support = a.get("support").and_then(Json::as_u128);
                return if got == Some(found.is_some()) && support == found.map(|e| e.support) {
                    Ok(())
                } else {
                    Err(format!(
                        "support answer {answer} != index {:?}",
                        found.map(|e| e.support)
                    ))
                };
            }
            1 => {
                let (rows, total) = self.index.prefix(&codes("prefix")?, LIMIT);
                (total, rows)
            }
            2 => {
                let rows: Vec<&IndexEntry> = self.index.top_k(field("k")).collect();
                (rows.len(), rows)
            }
            _ => {
                let (a, b) = (field("a") as u32, field("b") as u32);
                let (rows, total) = self.index.overlap(a, b, LIMIT).ok_or("no occurrences")?;
                (total, rows)
            }
        };
        let got_rows: Vec<(String, u128)> = a
            .get("patterns")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|r| {
                let text = r.get("pattern").and_then(Json::as_str).unwrap_or("");
                (
                    text.to_string(),
                    r.get("support").and_then(Json::as_u128).unwrap_or(0),
                )
            })
            .collect();
        let want: Vec<(String, u128)> = want_rows
            .iter()
            .map(|e| (e.display(self.index.alphabet()), e.support))
            .collect();
        let total = a.get("total").and_then(Json::as_usize);
        if total == Some(want_total) && got_rows == want {
            Ok(())
        } else {
            Err(format!(
                "{} answer differs from the index: {answer}",
                KINDS[kind]
            ))
        }
    }
}

/// What the clients saw during one load phase.
struct Load {
    /// (kind, seconds) per query.
    queries: Vec<(usize, f64)>,
    phase: Duration,
}

impl Load {
    fn latencies(&self) -> Vec<f64> {
        self.queries.iter().map(|q| q.1).collect()
    }

    /// Client-side p50/p99 per query kind, as `<prefix>.<kind>.p50_us`.
    fn per_kind(&self, metrics: &mut Metrics, prefix: &str) {
        for (k, kind) in KINDS.iter().enumerate() {
            let us: Vec<f64> = self
                .queries
                .iter()
                .filter(|q| q.0 == k)
                .map(|q| q.1 * 1e6)
                .collect();
            for p in [50.0, 99.0] {
                if let Some(stat) = Stat::tail(&us, p) {
                    put(metrics, &format!("{prefix}.{kind}.p{p}_us"), stat);
                }
            }
        }
    }
}

/// One client's log.
#[derive(Default)]
struct ClientLog {
    queries: Vec<(usize, f64)>,
    failures: Vec<String>,
    /// (kind, request, answer) of every `SAMPLE_EVERY`-th query.
    samples: Vec<(usize, String, String)>,
}

/// Run the closed loop for `phase`, then check the sampled answers.
fn drive(ctx: &mut Ctx, keys: &Keys, addr: SocketAddr, phase: Duration) -> Load {
    let span = ctx.spans.open("serve.load");
    let started = Instant::now();
    let deadline = started + phase;
    let seed = ctx.seed;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || client(keys, addr, SplitMix64::new(seed, 0x5e00 + c), deadline))
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });
    let phase = started.elapsed();
    ctx.spans.close(span);
    let mut queries = Vec::new();
    for log in logs {
        for failure in &log.failures {
            ctx.gate.record(false, || failure.clone());
        }
        ctx.gate.attempted += log.queries.len().saturating_sub(log.failures.len()) as u64;
        for (kind, request, answer) in &log.samples {
            let checked = keys.check(*kind, request, answer);
            ctx.gate
                .record(checked.is_ok(), || format!("{request}: {checked:?}"));
        }
        queries.extend(log.queries);
    }
    Load { queries, phase }
}

fn client(keys: &Keys, addr: SocketAddr, mut rng: SplitMix64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let connect = || -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok((BufReader::new(stream.try_clone()?), stream))
    };
    let (mut reader, mut writer) = match connect() {
        Ok(pair) => pair,
        Err(e) => {
            log.failures.push(format!("cannot connect: {e}"));
            return log;
        }
    };
    let mut answer = String::new();
    while Instant::now() < deadline {
        let (kind, mut request) = keys.request(&mut rng);
        request.push('\n');
        answer.clear();
        let sent = Instant::now();
        let io = writer
            .write_all(request.as_bytes())
            .and_then(|()| reader.read_line(&mut answer));
        let secs = sent.elapsed().as_secs_f64();
        log.queries.push((kind, secs));
        match io {
            Ok(n) if n > 0 && answer.starts_with(r#"{"ok": true"#) => {}
            Ok(_) => log
                .failures
                .push(format!("{}: {}", request.trim(), answer.trim())),
            Err(e) => {
                log.failures.push(format!("{}: {e}", request.trim()));
                break;
            }
        }
        if log.queries.len() % SAMPLE_EVERY == 1 {
            log.samples
                .push((kind, request.trim().to_string(), answer.trim().to_string()));
        }
    }
    log
}
