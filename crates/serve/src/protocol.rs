//! The line-delimited JSON query protocol.
//!
//! One request per line, one response per line. Every request is a JSON
//! object with a `"q"` field naming the query kind; every response is a
//! JSON object whose first field is `"ok"`. An optional `"id"` (string
//! or integer) is echoed back verbatim so pipelining clients can match
//! responses to requests.
//!
//! A line whose first byte is `[` is a **batch**: a JSON array of
//! request objects, answered with a JSON array of response objects in
//! the same order, each carrying its own `id` echo. A malformed element
//! yields an error object in its slot without failing the rest.
//!
//! Request kinds:
//!
//! | `q` | fields | answer |
//! |---|---|---|
//! | `support`  | `pattern` (text) | exact support of one pattern |
//! | `topk`     | `k` | the `k` highest-support patterns |
//! | `prefix`   | `prefix` (text), `limit`? | patterns starting with a prefix |
//! | `overlap`  | `a`, `b` (1-based offsets), `limit`? | patterns with an occurrence overlapping `[a, b]` |
//! | `mine_topk` | `k` | mine the sequence on demand under a rising top-k support floor |
//! | `mine_target` | `target` (text), `limit`? | mine on demand restricted to a pattern prefix |
//! | `stats`    | — | index and daemon counters |
//! | `shutdown` | — | acknowledge, then stop the daemon |
//!
//! The `mine_*` kinds re-run the engine against the subject sequence
//! with the index's gap/threshold parameters, so they answer even when
//! the served store holds a differently-filtered set; they require the
//! daemon to have been started with the sequence (like `overlap`) and
//! refuse with a typed error otherwise.
//!
//! Malformed input never kills a connection: the daemon answers
//! `{"ok": false, "error": "..."}` and keeps reading.

use crate::cache::{CachedAnswer, ResponseCache};
use perigap_core::mpp::{mpp, MppConfig};
use perigap_core::trace::{escape_json, Json};
use perigap_core::{FrequentPattern, Pattern, PruneMode, TargetSpec};
use perigap_seq::Sequence;
use perigap_store::{IndexEntry, PatternIndex};

/// Row cap applied when a `prefix`/`overlap`/`mine_target` request
/// carries no `limit`. The `total` field always reports the uncapped
/// match count.
pub const DEFAULT_LIMIT: usize = 100;

/// Hard cap on one request line; longer input is a protocol error.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Exact support of one pattern.
    Support {
        /// Pattern text under the index alphabet.
        pattern: String,
    },
    /// The `k` highest-support patterns.
    TopK {
        /// How many rows.
        k: usize,
    },
    /// Patterns whose text starts with `prefix`.
    Prefix {
        /// Prefix text under the index alphabet.
        prefix: String,
        /// Row cap.
        limit: usize,
    },
    /// Patterns with an occurrence overlapping `[a, b]` (1-based).
    Overlap {
        /// Range start.
        a: u32,
        /// Range end.
        b: u32,
        /// Row cap.
        limit: usize,
    },
    /// Mine the subject sequence on demand under a top-k support floor.
    MineTopK {
        /// How many best-supported patterns to keep.
        k: usize,
    },
    /// Mine the subject sequence on demand, restricted to patterns
    /// starting with a prefix.
    MineTarget {
        /// Prefix text under the index alphabet.
        target: String,
        /// Row cap on the response (the mine itself is uncapped).
        limit: usize,
    },
    /// Index and daemon counters.
    Stats,
    /// Stop the daemon.
    Shutdown,
}

/// A request plus its optional `id` echo token (kept as the raw JSON
/// rendering, so strings and integers round-trip without a value type).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Pre-rendered JSON token to echo, when the request carried one.
    pub id: Option<String>,
    /// The query itself.
    pub request: Request,
}

/// What serving one request produced — the response to write back plus
/// what the observer should record about it.
#[derive(Clone, Debug)]
pub struct Served {
    /// The response line (no trailing newline).
    pub response: String,
    /// Query kind for metrics (`invalid` when the line didn't parse).
    pub kind: &'static str,
    /// Whether the response is an `"ok": true` one.
    pub ok: bool,
    /// Result rows carried by the response.
    pub results: usize,
    /// True when the request asked the daemon to stop.
    pub shutdown: bool,
    /// `Some(true)` when answered from the response cache, `Some(false)`
    /// when a cacheable request missed, `None` when the request kind is
    /// uncacheable or no cache was configured.
    pub cache: Option<bool>,
}

/// Everything `serve_request_line` answers from. The plain
/// [`serve_line`] entry point wraps an index alone; the daemon supplies
/// the subject sequence (enabling the `mine_*` kinds) and a response
/// cache on top.
pub struct ServeContext<'a> {
    /// The immutable pattern index.
    pub index: &'a PatternIndex,
    /// Backend label reported by `stats`.
    pub backend: &'a str,
    /// Requests served so far, reported by `stats`.
    pub queries: u64,
    /// The subject sequence, when the daemon holds it; `None` refuses
    /// the `mine_*` kinds with a typed error.
    pub source: Option<&'a Sequence>,
    /// Rendered-response cache, when the daemon keeps one.
    pub cache: Option<&'a ResponseCache>,
}

/// What one input line produced: a single answer, or a batch of
/// answers to be joined into one array response line.
pub enum LineOutcome {
    /// The line held one request object.
    Single(Served),
    /// The line held a JSON array of request objects; one [`Served`]
    /// per element, in order. Join with [`batch_response`].
    Batch(Vec<Served>),
}

fn field_usize(obj: &Json, key: &str) -> Result<Option<usize>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    }
    let obj = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    parse_envelope(&obj)
}

/// Parse one request object (already decoded from JSON). Batch elements
/// and single lines share this path.
pub fn parse_envelope(obj: &Json) -> Result<Envelope, String> {
    let id = match obj.get("id") {
        None => None,
        Some(Json::Int(v)) => Some(v.to_string()),
        Some(Json::Str(s)) => Some(format!("\"{}\"", escape_json(s))),
        Some(_) => return Err("field \"id\" must be a string or integer".to_string()),
    };
    let q = obj
        .get("q")
        .and_then(Json::as_str)
        .ok_or("missing field \"q\" naming the query kind")?;
    let text_field = |key: &str| -> Result<String, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("query {q:?} needs a string field {key:?}"))
    };
    let request = match q {
        "support" => Request::Support {
            pattern: text_field("pattern")?,
        },
        "topk" => Request::TopK {
            k: field_usize(obj, "k")?.ok_or("query \"topk\" needs an integer field \"k\"")?,
        },
        "prefix" => Request::Prefix {
            prefix: text_field("prefix")?,
            limit: field_usize(obj, "limit")?.unwrap_or(DEFAULT_LIMIT),
        },
        "overlap" => {
            let bound = |key: &str| -> Result<u32, String> {
                let v = field_usize(obj, key)?
                    .ok_or_else(|| format!("query \"overlap\" needs an integer field {key:?}"))?;
                u32::try_from(v).map_err(|_| format!("field {key:?} is out of range"))
            };
            let (a, b) = (bound("a")?, bound("b")?);
            if a == 0 || b < a {
                return Err("overlap range must satisfy 1 <= a <= b".to_string());
            }
            Request::Overlap {
                a,
                b,
                limit: field_usize(obj, "limit")?.unwrap_or(DEFAULT_LIMIT),
            }
        }
        "mine_topk" => {
            let k =
                field_usize(obj, "k")?.ok_or("query \"mine_topk\" needs an integer field \"k\"")?;
            if k == 0 {
                return Err("query \"mine_topk\" needs k >= 1".to_string());
            }
            Request::MineTopK { k }
        }
        "mine_target" => {
            let target = text_field("target")?;
            if target.is_empty() {
                return Err("query \"mine_target\" needs a non-empty \"target\"".to_string());
            }
            Request::MineTarget {
                target,
                limit: field_usize(obj, "limit")?.unwrap_or(DEFAULT_LIMIT),
            }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown query kind {other:?}")),
    };
    Ok(Envelope { id, request })
}

fn response_head(ok: bool, id: &Option<String>) -> String {
    match id {
        Some(token) => format!("{{\"ok\": {ok}, \"id\": {token}"),
        None => format!("{{\"ok\": {ok}"),
    }
}

fn error_response(id: &Option<String>, message: &str) -> String {
    format!(
        "{}, \"error\": \"{}\"}}",
        response_head(false, id),
        escape_json(message)
    )
}

/// A bare `{"ok": false, ...}` line for transport-level failures that
/// never reach a parsed request (oversized lines, closed pipes).
pub fn error_line(message: &str) -> String {
    error_response(&None, message)
}

fn entry_json(e: &IndexEntry, index: &PatternIndex) -> String {
    format!(
        "{{\"pattern\": \"{}\", \"support\": {}, \"ratio\": {}}}",
        escape_json(&e.display(index.alphabet())),
        e.support,
        json_f64(e.ratio)
    )
}

fn mined_json(f: &FrequentPattern, index: &PatternIndex) -> String {
    format!(
        "{{\"pattern\": \"{}\", \"support\": {}, \"ratio\": {}}}",
        escape_json(&f.pattern.display(index.alphabet())),
        f.support,
        json_f64(f.ratio)
    )
}

/// Render a finite float as a JSON number (`NaN`/`inf` cannot occur in
/// supports or thresholds, but clamp to `null` rather than emit invalid
/// JSON if they ever did).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn rows_tail(rows: &[&IndexEntry], total: usize, index: &PatternIndex) -> String {
    let rendered: Vec<String> = rows.iter().map(|e| entry_json(e, index)).collect();
    format!(
        ", \"total\": {total}, \"patterns\": [{}]}}",
        rendered.join(", ")
    )
}

/// The metrics kind label for a request.
fn kind_of(request: &Request) -> &'static str {
    match request {
        Request::Support { .. } => "support",
        Request::TopK { .. } => "topk",
        Request::Prefix { .. } => "prefix",
        Request::Overlap { .. } => "overlap",
        Request::MineTopK { .. } => "mine_topk",
        Request::MineTarget { .. } => "mine_target",
        Request::Stats => "stats",
        Request::Shutdown => "shutdown",
    }
}

/// The cache key for a request, `None` for uncacheable kinds. `stats`
/// answers from live daemon counters and `shutdown` has a side effect,
/// so only the pure index/mine lookups are keyed.
fn cache_key(request: &Request) -> Option<String> {
    match request {
        Request::Support { pattern } => Some(format!("support\u{0}{pattern}")),
        Request::TopK { k } => Some(format!("topk\u{0}{k}")),
        Request::Prefix { prefix, limit } => Some(format!("prefix\u{0}{prefix}\u{0}{limit}")),
        Request::Overlap { a, b, limit } => Some(format!("overlap\u{0}{a}\u{0}{b}\u{0}{limit}")),
        Request::MineTopK { k } => Some(format!("mine_topk\u{0}{k}")),
        Request::MineTarget { target, limit } => {
            Some(format!("mine_target\u{0}{target}\u{0}{limit}"))
        }
        Request::Stats | Request::Shutdown => None,
    }
}

/// Answer a request with the response tail (everything after the
/// `{"ok": true` head) and the row count, or a typed error message.
fn answer(ctx: &ServeContext<'_>, request: &Request) -> Result<(String, usize), String> {
    let index = ctx.index;
    match request {
        Request::Support { pattern } => match Pattern::parse(pattern, index.alphabet()) {
            Err(e) => Err(format!("bad pattern {pattern:?}: {e}")),
            Ok(p) => match index.support(p.codes()) {
                Some(e) => Ok((
                    format!(
                        ", \"found\": true, \"pattern\": \"{}\", \"support\": {}, \"ratio\": {}}}",
                        escape_json(pattern),
                        e.support,
                        json_f64(e.ratio)
                    ),
                    1,
                )),
                None => Ok((
                    format!(
                        ", \"found\": false, \"pattern\": \"{}\"}}",
                        escape_json(pattern)
                    ),
                    0,
                )),
            },
        },
        Request::TopK { k } => {
            let rows: Vec<&IndexEntry> = index.top_k(*k).collect();
            let n = rows.len();
            Ok((rows_tail(&rows, n, index), n))
        }
        Request::Prefix { prefix, limit } => {
            // An empty prefix matches everything; otherwise it must
            // parse under the index alphabet.
            let codes = if prefix.is_empty() {
                Vec::new()
            } else {
                Pattern::parse(prefix, index.alphabet())
                    .map(|p| p.codes().to_vec())
                    .map_err(|e| format!("bad prefix {prefix:?}: {e}"))?
            };
            let (rows, total) = index.prefix(&codes, *limit);
            let n = rows.len();
            Ok((rows_tail(&rows, total, index), n))
        }
        Request::Overlap { a, b, limit } => match index.overlap(*a, *b, *limit) {
            None => Err(
                "overlap queries unavailable: the index was loaded without the subject \
                 sequence (serve a mine, or pass the sequence alongside the store file)"
                    .to_string(),
            ),
            Some((rows, total)) => {
                let n = rows.len();
                Ok((rows_tail(&rows, total, index), n))
            }
        },
        Request::MineTopK { k } => {
            let seq = mine_source(ctx)?;
            let config = MppConfig {
                prune: PruneMode::top_k(*k),
                ..MppConfig::default()
            };
            let outcome = mpp(seq, index.gap(), index.rho(), index.n_used(), config)
                .map_err(|e| format!("mine failed: {e}"))?;
            let rendered: Vec<String> = outcome
                .frequent
                .iter()
                .map(|f| mined_json(f, index))
                .collect();
            let n = rendered.len();
            Ok((
                format!(
                    ", \"floor_raises\": {}, \"pruned_by_floor\": {}, \"total\": {n}, \
                     \"patterns\": [{}]}}",
                    outcome.stats.floor_raises,
                    outcome.stats.pruned_by_floor,
                    rendered.join(", ")
                ),
                n,
            ))
        }
        Request::MineTarget { target, limit } => {
            let seq = mine_source(ctx)?;
            let prefix = Pattern::parse(target, index.alphabet())
                .map_err(|e| format!("bad target {target:?}: {e}"))?;
            let config = MppConfig {
                prune: PruneMode::targeted(TargetSpec::Prefix(prefix.codes().to_vec())),
                ..MppConfig::default()
            };
            let outcome = mpp(seq, index.gap(), index.rho(), index.n_used(), config)
                .map_err(|e| format!("mine failed: {e}"))?;
            let total = outcome.frequent.len();
            let rendered: Vec<String> = outcome
                .frequent
                .iter()
                .take(*limit)
                .map(|f| mined_json(f, index))
                .collect();
            let n = rendered.len();
            Ok((
                format!(
                    ", \"pruned_by_target\": {}, \"total\": {total}, \"patterns\": [{}]}}",
                    outcome.stats.pruned_by_target,
                    rendered.join(", ")
                ),
                n,
            ))
        }
        Request::Stats => {
            let gap = index.gap();
            let cache = match ctx.cache {
                Some(cache) => format!(
                    ", \"cache_hits\": {}, \"cache_misses\": {}",
                    cache.hits(),
                    cache.misses()
                ),
                None => String::new(),
            };
            Ok((
                format!(
                    ", \"patterns\": {}, \"gap_min\": {}, \"gap_max\": {}, \"rho\": {}, \
                     \"n_used\": {}, \"occurrences\": {}, \"queries\": {}{cache}, \
                     \"backend\": \"{}\"}}",
                    index.len(),
                    gap.min(),
                    gap.max(),
                    json_f64(index.rho()),
                    index.n_used(),
                    index.has_occurrences(),
                    ctx.queries,
                    escape_json(ctx.backend)
                ),
                1,
            ))
        }
        Request::Shutdown => Ok((", \"stopping\": true}".to_string(), 0)),
    }
}

fn mine_source<'a>(ctx: &ServeContext<'a>) -> Result<&'a Sequence, String> {
    ctx.source.ok_or_else(|| {
        "mine queries unavailable: the daemon was started without the subject sequence \
         (serve a mine, or pass the sequence alongside the store file)"
            .to_string()
    })
}

/// Serve one parsed request, consulting the context's cache when the
/// kind is cacheable.
pub fn serve_envelope(ctx: &ServeContext<'_>, envelope: Envelope) -> Served {
    let kind = kind_of(&envelope.request);
    let id = &envelope.id;
    let key = match ctx.cache {
        Some(_) => cache_key(&envelope.request),
        None => None,
    };
    if let (Some(cache), Some(key)) = (ctx.cache, key.as_deref()) {
        if let Some(hit) = cache.lookup(key) {
            return Served {
                response: format!("{}{}", response_head(true, id), hit.tail),
                kind,
                ok: true,
                results: hit.results,
                shutdown: false,
                cache: Some(true),
            };
        }
    }
    let cacheable = key.is_some();
    match answer(ctx, &envelope.request) {
        Ok((tail, results)) => {
            if let (Some(cache), Some(key)) = (ctx.cache, key) {
                cache.insert(
                    key,
                    CachedAnswer {
                        tail: tail.clone(),
                        results,
                    },
                );
            }
            Served {
                response: format!("{}{}", response_head(true, id), tail),
                kind,
                ok: true,
                results,
                shutdown: matches!(envelope.request, Request::Shutdown),
                cache: cacheable.then_some(false),
            }
        }
        Err(message) => Served {
            response: error_response(id, &message),
            kind,
            ok: false,
            results: 0,
            shutdown: false,
            cache: cacheable.then_some(false),
        },
    }
}

fn invalid(message: &str) -> Served {
    Served {
        response: error_response(&None, message),
        kind: "invalid",
        ok: false,
        results: 0,
        shutdown: false,
        cache: None,
    }
}

fn serve_single(ctx: &ServeContext<'_>, line: &str) -> Served {
    match parse_request(line) {
        Ok(envelope) => serve_envelope(ctx, envelope),
        Err(message) => invalid(&message),
    }
}

/// Serve one input line against a full context: a `[`-prefixed line is
/// a batch (one [`Served`] per element), anything else a single
/// request.
pub fn serve_request_line(ctx: &ServeContext<'_>, line: &str) -> LineOutcome {
    if line.trim_start().starts_with('[') {
        LineOutcome::Batch(serve_batch(ctx, line))
    } else {
        LineOutcome::Single(serve_single(ctx, line))
    }
}

fn serve_batch(ctx: &ServeContext<'_>, line: &str) -> Vec<Served> {
    if line.len() > MAX_LINE_BYTES {
        return vec![invalid(&format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        ))];
    }
    let items = match Json::parse(line) {
        Err(e) => return vec![invalid(&format!("bad JSON: {e}"))],
        Ok(value) => match value {
            Json::Arr(items) => items,
            _ => return vec![invalid("batch line must be a JSON array")],
        },
    };
    if items.is_empty() {
        return vec![invalid("batch must contain at least one request")];
    }
    items
        .iter()
        .map(|item| match parse_envelope(item) {
            Ok(envelope) => serve_envelope(ctx, envelope),
            Err(message) => invalid(&message),
        })
        .collect()
}

/// Join per-element answers into the one-line array response a batch
/// request is answered with.
pub fn batch_response(served: &[Served]) -> String {
    let rows: Vec<&str> = served.iter().map(|s| s.response.as_str()).collect();
    format!("[{}]", rows.join(", "))
}

/// Serve one request line against the index alone. `backend` and
/// `queries` feed the `stats` response; `queries` should count requests
/// served so far on this daemon. This entry point has no mining source
/// and no cache — the daemon's connection handler uses
/// [`serve_request_line`] with a full [`ServeContext`] instead.
pub fn serve_line(index: &PatternIndex, backend: &str, queries: u64, line: &str) -> Served {
    let ctx = ServeContext {
        index,
        backend,
        queries,
        source: None,
        cache: None,
    };
    serve_single(&ctx, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_core::mpp::{mpp, MppConfig};
    use perigap_core::{select_top_k, GapRequirement};
    use perigap_seq::{Alphabet, Sequence};
    use perigap_store::LoadedOutcome;

    fn subject() -> (Sequence, GapRequirement, f64, usize) {
        let seq = Sequence::dna(&"ACGT".repeat(25)).unwrap();
        let gap = GapRequirement::new(0, 2).unwrap();
        (seq, gap, 0.001, 8)
    }

    fn index(with_seq: bool) -> PatternIndex {
        let (seq, gap, rho, n) = subject();
        let outcome = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        assert!(!outcome.frequent.is_empty());
        let loaded = LoadedOutcome { outcome, gap, rho };
        PatternIndex::build(&loaded, Alphabet::Dna, with_seq.then_some(&seq))
    }

    fn full_ctx<'a>(
        idx: &'a PatternIndex,
        seq: &'a Sequence,
        cache: &'a ResponseCache,
    ) -> ServeContext<'a> {
        ServeContext {
            index: idx,
            backend: "memory:test",
            queries: 0,
            source: Some(seq),
            cache: Some(cache),
        }
    }

    fn single(outcome: LineOutcome) -> Served {
        match outcome {
            LineOutcome::Single(served) => served,
            LineOutcome::Batch(_) => panic!("expected a single response"),
        }
    }

    #[test]
    fn requests_parse_and_ids_echo() {
        let env = parse_request(r#"{"q": "topk", "k": 3, "id": 7}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("7"));
        assert_eq!(env.request, Request::TopK { k: 3 });

        let env = parse_request(r#"{"q": "prefix", "prefix": "AC", "id": "x"}"#).unwrap();
        assert_eq!(env.id.as_deref(), Some("\"x\""));
        assert_eq!(
            env.request,
            Request::Prefix {
                prefix: "AC".to_string(),
                limit: DEFAULT_LIMIT
            }
        );

        let env = parse_request(r#"{"q": "mine_topk", "k": 5}"#).unwrap();
        assert_eq!(env.request, Request::MineTopK { k: 5 });
        let env = parse_request(r#"{"q": "mine_target", "target": "AC"}"#).unwrap();
        assert_eq!(
            env.request,
            Request::MineTarget {
                target: "AC".to_string(),
                limit: DEFAULT_LIMIT
            }
        );

        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"q": "overlap", "a": 0, "b": 4}"#).is_err());
        assert!(parse_request(r#"{"q": "overlap", "a": 9, "b": 4}"#).is_err());
        assert!(parse_request(r#"{"q": "nope"}"#).is_err());
        assert!(parse_request(r#"{"k": 3}"#).is_err());
        assert!(parse_request(r#"{"q": "mine_topk", "k": 0}"#).is_err());
        assert!(parse_request(r#"{"q": "mine_target", "target": ""}"#).is_err());
        // No kind takes a client-supplied file path.
        assert!(parse_request(r#"{"q": "mine_incremental", "cache": "x.pgrc"}"#).is_err());
    }

    #[test]
    fn responses_are_valid_json_and_carry_results() {
        let idx = index(true);
        for (line, want_ok) in [
            (r#"{"q": "support", "pattern": "A"}"#, true),
            (r#"{"q": "support", "pattern": "zz"}"#, false),
            (r#"{"q": "topk", "k": 4}"#, true),
            (r#"{"q": "prefix", "prefix": "AC"}"#, true),
            (r#"{"q": "prefix", "prefix": ""}"#, true),
            (r#"{"q": "overlap", "a": 1, "b": 20}"#, true),
            (r#"{"q": "stats"}"#, true),
            (r#"{"q": "shutdown"}"#, true),
            ("garbage", false),
        ] {
            let served = serve_line(&idx, "memory:test", 0, line);
            let parsed = Json::parse(&served.response)
                .unwrap_or_else(|e| panic!("invalid response for {line}: {e}"));
            assert_eq!(
                parsed.get("ok").and_then(Json::as_bool),
                Some(want_ok),
                "{line} -> {}",
                served.response
            );
            assert_eq!(served.ok, want_ok);
            assert_eq!(served.cache, None, "plain serve_line has no cache");
        }
        let stopping = serve_line(&idx, "memory:test", 0, r#"{"q": "shutdown"}"#);
        assert!(stopping.shutdown);
    }

    #[test]
    fn overlap_without_occurrences_is_a_typed_refusal() {
        let idx = index(false);
        let served = serve_line(&idx, "file:x", 0, r#"{"q": "overlap", "a": 1, "b": 5}"#);
        assert!(!served.ok);
        assert!(served.response.contains("unavailable"));
        assert_eq!(served.kind, "overlap");
    }

    #[test]
    fn oversized_line_is_rejected_before_parsing() {
        let line = format!(
            "{{\"q\": \"support\", \"pattern\": \"{}\"}}",
            "A".repeat(MAX_LINE_BYTES)
        );
        let served = serve_line(&index(false), "b", 0, &line);
        assert!(!served.ok);
        assert!(served.response.contains("exceeds"));
    }

    #[test]
    fn cache_hits_repeat_responses_byte_for_byte() {
        let (seq, _, _, _) = subject();
        let idx = index(true);
        let cache = ResponseCache::new(8);
        let ctx = full_ctx(&idx, &seq, &cache);
        let line = r#"{"q": "topk", "k": 3}"#;
        let first = single(serve_request_line(&ctx, line));
        assert_eq!(first.cache, Some(false));
        let second = single(serve_request_line(&ctx, line));
        assert_eq!(second.cache, Some(true));
        assert_eq!(second.response, first.response);
        assert_eq!(second.results, first.results);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        // The cached body matches the uncached rendering exactly.
        let plain = serve_line(&idx, "memory:test", 0, line);
        assert_eq!(second.response, plain.response);
        // A different id re-heads the same cached tail.
        let with_id = single(serve_request_line(
            &ctx,
            r#"{"q": "topk", "k": 3, "id": 9}"#,
        ));
        assert_eq!(with_id.cache, Some(true));
        assert!(with_id.response.starts_with("{\"ok\": true, \"id\": 9,"));
        // stats is never cached and reports the counters.
        let stats = single(serve_request_line(&ctx, r#"{"q": "stats"}"#));
        assert_eq!(stats.cache, None);
        assert!(stats.response.contains("\"cache_hits\": 2"));
        assert!(stats.response.contains("\"cache_misses\": 1"));
    }

    #[test]
    fn batch_lines_answer_in_order_with_ids() {
        let (seq, _, _, _) = subject();
        let idx = index(true);
        let cache = ResponseCache::new(8);
        let ctx = full_ctx(&idx, &seq, &cache);
        let line = r#"[{"q": "topk", "k": 2, "id": 1}, {"q": "nope", "id": 2}, {"q": "support", "pattern": "A", "id": "s"}]"#;
        let served = match serve_request_line(&ctx, line) {
            LineOutcome::Batch(served) => served,
            LineOutcome::Single(_) => panic!("expected a batch"),
        };
        assert_eq!(served.len(), 3);
        assert_eq!(
            served.iter().map(|s| s.ok).collect::<Vec<_>>(),
            [true, false, true]
        );
        assert_eq!(served[0].kind, "topk");
        assert_eq!(served[1].kind, "invalid");
        assert_eq!(served[2].kind, "support");
        assert!(served[0].response.contains("\"id\": 1"));
        assert!(served[2].response.contains("\"id\": \"s\""));
        let joined = batch_response(&served);
        let parsed = Json::parse(&joined).expect("batch response is valid JSON");
        let rows = parsed.as_arr().expect("array response");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(rows[1].get("ok").and_then(Json::as_bool), Some(false));
        // Degenerate batches answer a single error element.
        for bad in ["[]", "[1, 2]", "[{...broken"] {
            let served = match serve_request_line(&ctx, bad) {
                LineOutcome::Batch(served) => served,
                LineOutcome::Single(_) => panic!("expected a batch for {bad}"),
            };
            assert!(!served.is_empty());
            assert!(served.iter().all(|s| !s.ok), "{bad}");
        }
    }

    #[test]
    fn mine_topk_matches_the_indexed_ranking() {
        let (seq, gap, rho, n) = subject();
        let idx = index(true);
        let cache = ResponseCache::new(8);
        let ctx = full_ctx(&idx, &seq, &cache);
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        for k in [1usize, 3, full.frequent.len() + 5] {
            let line = format!("{{\"q\": \"mine_topk\", \"k\": {k}}}");
            let served = single(serve_request_line(&ctx, &line));
            assert!(served.ok, "{}", served.response);
            let parsed = Json::parse(&served.response).unwrap();
            let got: Vec<String> = parsed
                .get("patterns")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|p| p.get("pattern").and_then(Json::as_str).unwrap().to_string())
                .collect();
            let want: Vec<String> = select_top_k(&full.frequent, k)
                .iter()
                .map(|f| f.pattern.display(&Alphabet::Dna))
                .collect();
            assert_eq!(got, want, "mine_topk k={k}");
        }
    }

    #[test]
    fn mine_target_matches_post_filtering_and_refuses_without_source() {
        let (seq, gap, rho, n) = subject();
        let idx = index(true);
        let cache = ResponseCache::new(8);
        let ctx = full_ctx(&idx, &seq, &cache);
        let full = mpp(&seq, gap, rho, n, MppConfig::default()).unwrap();
        let line = r#"{"q": "mine_target", "target": "AC", "limit": 1000000}"#;
        let served = single(serve_request_line(&ctx, line));
        assert!(served.ok, "{}", served.response);
        let parsed = Json::parse(&served.response).unwrap();
        let got: Vec<String> = parsed
            .get("patterns")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| p.get("pattern").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let want_codes = Pattern::parse("AC", &Alphabet::Dna).unwrap();
        let mut want: Vec<_> = full
            .frequent
            .iter()
            .filter(|f| f.pattern.codes().starts_with(want_codes.codes()))
            .collect();
        want.sort_by(|a, b| (a.len(), a.pattern.codes()).cmp(&(b.len(), b.pattern.codes())));
        let want: Vec<String> = want
            .iter()
            .map(|f| f.pattern.display(&Alphabet::Dna))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            parsed.get("total").and_then(Json::as_usize),
            Some(want.len())
        );

        // Without the subject sequence the kinds refuse with a typed
        // error, both through the plain entry point and a bare context.
        let served = serve_line(&idx, "b", 0, r#"{"q": "mine_topk", "k": 2}"#);
        assert!(!served.ok);
        assert!(served.response.contains("unavailable"));
        assert_eq!(served.kind, "mine_topk");
    }
}
