//! The TCP daemon: accept loop, per-connection handlers, graceful
//! shutdown.
//!
//! The listener runs non-blocking and polls a shared stop flag, so a
//! SIGINT (or a `shutdown` request from any client) stops the accept
//! loop, lets in-flight connections finish their current line, and
//! joins every handler before [`ServerHandle::shutdown`] returns the
//! observer with its per-query counters.

use crate::cache::ResponseCache;
use crate::protocol::{self, LineOutcome, ServeContext, MAX_LINE_BYTES};
use perigap_core::trace::{Event, MineObserver, QueryEvent, WarningEvent};
use perigap_seq::Sequence;
use perigap_store::PatternIndex;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls when idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Per-connection read timeout; each timeout rechecks the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);

struct Shared<O: MineObserver> {
    index: Arc<PatternIndex>,
    backend: String,
    /// Subject sequence for the on-demand `mine_*` query kinds; absent
    /// when the daemon serves a store file without the sequence.
    source: Option<Sequence>,
    cache: ResponseCache,
    observer: Mutex<O>,
    stop: AtomicBool,
    queries: AtomicU64,
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] stops the server but discards the
/// observer.
pub struct ServerHandle<O: MineObserver + Send + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<O>>,
    thread: Option<JoinHandle<()>>,
}

impl<O: MineObserver + Send + 'static> ServerHandle<O> {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to stop without waiting for it. Safe to call from
    /// any thread; also flipped by a client `shutdown` request.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// True once the daemon has been asked to stop.
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Total requests served so far (including invalid ones).
    pub fn queries_served(&self) -> u64 {
        self.shared.queries.load(Ordering::Relaxed)
    }

    /// Stop the daemon, join every connection, and hand back the
    /// observer with its accumulated per-query counters.
    pub fn shutdown(mut self) -> O {
        self.request_stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let mut shared = Arc::clone(&self.shared);
        drop(self);
        // Every handler is joined by now, but a thread's Arc clone is
        // released a hair after `is_finished()` flips; spin out the gap.
        loop {
            match Arc::try_unwrap(shared) {
                Ok(inner) => {
                    return inner
                        .observer
                        .into_inner()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                }
                Err(again) => {
                    shared = again;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

impl<O: MineObserver + Send + 'static> Drop for ServerHandle<O> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `index` until shutdown.
/// Every served request flows through `observer` as a
/// [`QueryEvent`]; connection-level trouble (a client gone mid-line, a
/// socket error) is a [`WarningEvent`], never a crash.
pub fn serve<O, A>(
    index: Arc<PatternIndex>,
    backend: String,
    addr: A,
    observer: O,
) -> io::Result<ServerHandle<O>>
where
    O: MineObserver + Send + 'static,
    A: ToSocketAddrs,
{
    serve_with(index, backend, None, addr, observer)
}

/// [`serve`], plus the subject sequence. When `source` is given the
/// daemon answers the on-demand `mine_topk`/`mine_target` query kinds
/// by re-running the engine against it; without it those kinds refuse
/// with a typed error (like `overlap` on a sequence-less index).
pub fn serve_with<O, A>(
    index: Arc<PatternIndex>,
    backend: String,
    source: Option<Sequence>,
    addr: A,
    observer: O,
) -> io::Result<ServerHandle<O>>
where
    O: MineObserver + Send + 'static,
    A: ToSocketAddrs,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        index,
        backend,
        source,
        cache: ResponseCache::default(),
        observer: Mutex::new(observer),
        stop: AtomicBool::new(false),
        queries: AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name("pgmine-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        thread: Some(thread),
    })
}

fn accept_loop<O: MineObserver + Send + 'static>(listener: TcpListener, shared: Arc<Shared<O>>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("pgmine-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, conn_shared));
                match handle {
                    Ok(h) => handlers.push(h),
                    Err(e) => warn(
                        &shared,
                        "serve-spawn",
                        &format!("cannot spawn handler: {e}"),
                    ),
                }
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                warn(&shared, "serve-accept", &format!("accept failed: {e}"));
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

fn warn<O: MineObserver>(shared: &Shared<O>, kind: &str, message: &str) {
    let mut observer = shared
        .observer
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    observer.on(Event::Warning(&WarningEvent {
        kind: kind.to_string(),
        message: message.to_string(),
    }));
}

fn handle_connection<O: MineObserver>(stream: TcpStream, shared: Arc<Shared<O>>) {
    // One-line request/response traffic stalls ~40 ms per roundtrip
    // under Nagle + delayed ACK; flush responses immediately.
    let _ = stream.set_nodelay(true);
    if let Err(e) = stream.set_read_timeout(Some(READ_POLL)) {
        warn(
            &shared,
            "serve-conn",
            &format!("cannot set read timeout: {e}"),
        );
        return;
    }
    let mut stream = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(e) => {
                warn(&shared, "serve-conn", &format!("read failed: {e}"));
                return;
            }
        };
        pending.extend_from_slice(&chunk[..n]);
        // A line that grows past the protocol cap with no newline in
        // sight can only be garbage; answer once and drop the client.
        if pending.len() > MAX_LINE_BYTES && !pending.contains(&b'\n') {
            let response =
                protocol::error_line(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
            let _ = writeln!(stream, "{response}");
            warn(
                &shared,
                "serve-conn",
                "request line exceeded the protocol cap",
            );
            return;
        }
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes[..pos]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !serve_one(&mut stream, &shared, line) {
                return;
            }
        }
    }
}

/// Serve one request line (single or batch); false when the connection
/// should close.
fn serve_one<O: MineObserver>(stream: &mut TcpStream, shared: &Shared<O>, line: &str) -> bool {
    let started = Instant::now();
    let queries = shared.queries.fetch_add(1, Ordering::Relaxed);
    let ctx = ServeContext {
        index: &shared.index,
        backend: &shared.backend,
        queries,
        source: shared.source.as_ref(),
        cache: Some(&shared.cache),
    };
    let (response, served) = match protocol::serve_request_line(&ctx, line) {
        LineOutcome::Single(served) => (served.response.clone(), vec![served]),
        LineOutcome::Batch(served) => {
            // The line already counted once; count the extra elements
            // so `stats` and `queries_served` track requests answered.
            if served.len() > 1 {
                shared
                    .queries
                    .fetch_add(served.len() as u64 - 1, Ordering::Relaxed);
            }
            (protocol::batch_response(&served), served)
        }
    };
    let write_result = writeln!(stream, "{response}").and_then(|_| stream.flush());
    observe(shared, &served, started.elapsed());
    if let Err(e) = write_result {
        warn(shared, "serve-conn", &format!("write failed: {e}"));
        return false;
    }
    if served.iter().any(|s| s.shutdown) {
        shared.stop.store(true, Ordering::SeqCst);
        return false;
    }
    true
}

/// Record one [`QueryEvent`] per answered request. Batch elements share
/// the line's wall-clock latency — they are served sequentially and the
/// client sees one round-trip.
fn observe<O: MineObserver>(shared: &Shared<O>, served: &[protocol::Served], latency: Duration) {
    let mut observer = shared
        .observer
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for s in served {
        observer.on(Event::Query(&QueryEvent {
            kind: s.kind.to_string(),
            ok: s.ok,
            results: s.results,
            latency,
            cache: s.cache,
        }));
    }
}
