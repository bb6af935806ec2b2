//! The worker pool behind parallel mining (an engineering extension —
//! the paper is single-threaded). A mine runs on it when
//! [`crate::mpp::MppConfig::threads`] is above 1.
//!
//! The threads are spawned once per mine and live for the whole run.
//! The engine ([`crate::dfs`]) publishes one `PoolJob` at a time — the
//! chunks of left parents of one wide prelude level, or the subtrees of
//! a component split — and the main thread and every worker *steal*
//! items off its atomic cursor until the job is drained, so a skewed
//! item cannot stall the run the way statically partitioned spawns
//! could.
//!
//! Determinism is preserved: item results are merged in item order
//! (prelude chunks partition the sorted left parents, so their outputs
//! in chunk order are already globally sorted, and
//! `PilSet::concat` moves their entry buffers into the
//! next generation without copying them) and the final outcome is
//! sorted exactly like the serial run's. Output is byte-identical to
//! the same mine on one thread.
//!
//! ## Failure handling
//!
//! The cursor hands each item to exactly one thread, so the merge loop
//! knows exactly how many results are outstanding. Worker-side work
//! runs under `catch_unwind`: a panic becomes a `WorkerMsg::Failed`
//! report and the mine aborts with [`MineError::WorkerFailed`] instead
//! of blocking forever on an item that will never arrive (the deadlock
//! this module shipped with — the old merge loop did a bare `recv()`
//! while the pool's retained result sender kept the channel open). A
//! belt-and-braces liveness check (`JoinHandle::is_finished` during
//! receive timeouts) covers the pathological case of a worker dying
//! without managing to report.

use crate::error::MineError;
use crate::trace::{PoolLevelEvent, WorkerLevelStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this many join tasks a level runs serially — chunk handoff
/// overhead would dominate.
pub(crate) const PARALLEL_THRESHOLD: usize = 256;

/// Stealing granularity: aim for this many chunks per thread so a slow
/// chunk is absorbed by the others...
pub(crate) const CHUNKS_PER_THREAD: usize = 8;

/// ...but never bother stealing fewer than this many left parents.
pub(crate) const MIN_CHUNK: usize = 32;

/// How long the merge loop waits between liveness checks of the worker
/// threads while chunk results are outstanding.
const RECV_TICK: Duration = Duration::from_millis(50);

/// Once a worker thread is observed dead, how long the merge loop keeps
/// draining the channel for an in-flight failure report before giving
/// up with a generic [`MineError::WorkerFailed`].
const DEAD_WORKER_GRACE: Duration = Duration::from_secs(1);

/// Test-only fault injection, carried by every pool job. Outside
/// `cfg(test)` this is a zero-sized token whose accessors fold to
/// constants.
#[derive(Clone, Copy, Default)]
pub(crate) struct PoolHooks {
    /// Make every worker thread panic on the first item it claims.
    #[cfg(test)]
    pub(crate) panic_workers: bool,
    /// Keep the calling thread out of the stealing loop, guaranteeing a
    /// worker claims an item.
    #[cfg(test)]
    pub(crate) main_no_steal: bool,
}

impl PoolHooks {
    pub(crate) fn panic_workers(&self) -> bool {
        #[cfg(test)]
        {
            self.panic_workers
        }
        #[cfg(not(test))]
        {
            false
        }
    }

    pub(crate) fn main_no_steal(&self) -> bool {
        #[cfg(test)]
        {
            self.main_no_steal
        }
        #[cfg(not(test))]
        {
            false
        }
    }
}

/// A unit of pool work: a fixed roster of independent items claimed
/// off an atomic cursor. The engine's job (items = chunks of left
/// parents, or prefix-run components, see [`crate::dfs`]) and the
/// corpus shard fan-out both implement this, sharing one pool, one
/// merge loop, and one failure protocol.
pub(crate) trait PoolJob: Send + Sync + 'static {
    /// What one item produces.
    type Out: Send + 'static;

    /// Number of items to claim; the cursor drains at this count.
    fn n_items(&self) -> usize;

    /// The shared claim cursor.
    fn cursor(&self) -> &AtomicUsize;

    /// Fault-injection switches.
    fn hooks(&self) -> &PoolHooks;

    /// The level this job's [`PoolLevelEvent`] reports.
    fn progress_level(&self) -> usize;

    /// Process item `item`. Runs under `catch_unwind` on workers.
    fn process(&self, item: usize) -> Self::Out;

    /// How many candidates `out` contributes to the per-worker
    /// [`WorkerLevelStats`] tally.
    fn out_weight(out: &Self::Out) -> usize;
}

/// What a worker sends back for each item it claimed. Exactly one
/// message per claimed item, success or not — the invariant the merge
/// loop's outstanding count rests on.
enum WorkerMsg<T> {
    /// Item `chunk` completed with the given output.
    Chunk {
        chunk: usize,
        worker: usize,
        out: T,
        elapsed: Duration,
    },
    /// The worker panicked while processing `chunk` and is exiting.
    Failed { chunk: usize, message: String },
}

/// Render a panic payload for the failure report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// A worker thread: claim items of the current job until its cursor
/// drains. The work runs under `catch_unwind` so every claimed
/// item yields exactly one [`WorkerMsg`]; after reporting a failure
/// the worker exits.
fn worker_loop<J: PoolJob>(
    id: usize,
    job_rx: mpsc::Receiver<Arc<J>>,
    results: mpsc::Sender<WorkerMsg<J::Out>>,
) {
    while let Ok(job) = job_rx.recv() {
        loop {
            let c = job.cursor().fetch_add(1, Ordering::Relaxed);
            if c >= job.n_items() {
                break;
            }
            let chunk_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if job.hooks().panic_workers() {
                    panic!("injected worker panic");
                }
                job.process(c)
            }));
            match outcome {
                Ok(out) => {
                    let msg = WorkerMsg::Chunk {
                        chunk: c,
                        worker: id,
                        out,
                        elapsed: chunk_started.elapsed(),
                    };
                    if results.send(msg).is_err() {
                        return;
                    }
                }
                Err(payload) => {
                    // `&*payload` reborrows the payload itself; a bare
                    // `&payload` would coerce the Box into the `dyn Any`
                    // and every downcast would miss.
                    let _ = results.send(WorkerMsg::Failed {
                        chunk: c,
                        message: panic_message(&*payload),
                    });
                    return;
                }
            }
        }
    }
}

/// The persistent pool: `threads − 1` workers (the main thread is the
/// remaining worker) that live for the whole mine and steal items of
/// whatever job is current. Worker `0` is the calling thread; pool
/// threads are `1..threads` (named `pgmine-worker-<id>`).
pub(crate) struct WorkerPool<J: PoolJob> {
    job_txs: Vec<mpsc::Sender<Arc<J>>>,
    results_rx: mpsc::Receiver<WorkerMsg<J::Out>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: PoolJob> WorkerPool<J> {
    pub(crate) fn new(workers: usize) -> WorkerPool<J> {
        let (results_tx, results_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for id in 1..=workers {
            let (job_tx, job_rx) = mpsc::channel::<Arc<J>>();
            let results = results_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pgmine-worker-{id}"))
                .spawn(move || worker_loop(id, job_rx, results))
                .expect("spawn mining worker");
            handles.push(handle);
            job_txs.push(job_tx);
        }
        // `results_tx` is dropped here on purpose: only workers hold
        // senders, so if every worker dies the merge loop observes a
        // disconnect instead of blocking forever.
        WorkerPool {
            job_txs,
            results_rx,
            handles,
        }
    }

    /// Drain one job across the pool plus the calling thread; return
    /// the per-item outputs in item order. A worker failure aborts with
    /// [`MineError::WorkerFailed`] in bounded time.
    pub(crate) fn run(&self, job: Arc<J>) -> Result<(Vec<J::Out>, PoolLevelEvent), MineError> {
        let level_started = Instant::now();
        for tx in &self.job_txs {
            // A send only fails if a worker died; the stealing loop
            // below still completes the level without it (and the
            // liveness check reports the death if it claimed a chunk).
            let _ = tx.send(Arc::clone(&job));
        }
        let n_items = job.n_items();
        let workers = self.handles.len() + 1; // worker 0 = this thread
        let mut chunks = vec![0usize; workers];
        let mut candidates = vec![0usize; workers];
        let mut busy = vec![Duration::ZERO; workers];
        let mut parts: Vec<Option<J::Out>> = (0..n_items).map(|_| None).collect();
        let mut mined_here = 0usize;
        if !job.hooks().main_no_steal() {
            loop {
                let c = job.cursor().fetch_add(1, Ordering::Relaxed);
                if c >= n_items {
                    break;
                }
                let chunk_started = Instant::now();
                let out = job.process(c);
                busy[0] += chunk_started.elapsed();
                chunks[0] += 1;
                candidates[0] += J::out_weight(&out);
                parts[c] = Some(out);
                mined_here += 1;
            }
        }
        // Each item was claimed by exactly one thread, and every
        // worker-claimed item sends exactly one message (success or
        // failure — see `worker_loop`), so the merge waits on a count.
        let mut outstanding = n_items - mined_here;
        let mut dead_since: Option<Instant> = None;
        while outstanding > 0 {
            match self.results_rx.recv_timeout(RECV_TICK) {
                Ok(WorkerMsg::Chunk {
                    chunk,
                    worker,
                    out,
                    elapsed,
                }) => {
                    chunks[worker] += 1;
                    candidates[worker] += J::out_weight(&out);
                    busy[worker] += elapsed;
                    parts[chunk] = Some(out);
                    outstanding -= 1;
                }
                Ok(WorkerMsg::Failed { chunk, message }) => {
                    return Err(MineError::WorkerFailed { chunk, message });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker is gone and no failure report made
                    // it out.
                    return Err(MineError::WorkerFailed {
                        chunk: usize::MAX,
                        message: "all worker threads exited with chunks outstanding".into(),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // A worker never exits while the pool lives unless
                    // it failed, so a finished handle here means a
                    // death the channel may still be carrying a report
                    // for — drain a little longer, then give up.
                    if self.handles.iter().any(JoinHandle::is_finished) {
                        let since = *dead_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > DEAD_WORKER_GRACE {
                            return Err(MineError::WorkerFailed {
                                chunk: usize::MAX,
                                message: "a worker thread died without reporting a failure".into(),
                            });
                        }
                    }
                }
            }
        }
        let wall = level_started.elapsed();
        let event = PoolLevelEvent {
            level: job.progress_level(),
            chunks: n_items,
            workers: (0..workers)
                .map(|w| WorkerLevelStats {
                    worker: w,
                    chunks: chunks[w],
                    candidates: candidates[w],
                    busy: busy[w],
                    idle: wall.saturating_sub(busy[w]),
                })
                .collect(),
        };
        let outs = parts
            .into_iter()
            .map(|p| p.expect("all items accounted for"))
            .collect();
        Ok((outs, event))
    }
}

impl<J: PoolJob> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Closing the job channels lands every worker's `recv` on Err.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::build_seed;
    use crate::gap::GapRequirement;
    use crate::mpp::{mine, mpp, prepare, Algorithm, MppConfig, SEED_LEVEL};
    use crate::result::MineOutcome;
    use crate::trace::{MetricsObserver, NoopObserver};
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use perigap_seq::Sequence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// `mpp` on `threads` threads.
    fn mpp_threads(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        n: usize,
        config: MppConfig,
        threads: usize,
    ) -> Result<MineOutcome, MineError> {
        mpp(seq, g, rho, n, MppConfig { threads, ..config })
    }

    /// MPP on `config.threads` threads with fault injection, for the
    /// regression tests.
    fn mpp_with_hooks(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        n: usize,
        config: MppConfig,
        hooks: PoolHooks,
    ) -> Result<MineOutcome, MineError> {
        let (counts, rho_exact) = prepare(seq, g, rho, &config)?;
        let pils = build_seed(seq, g, SEED_LEVEL);
        crate::dfs::run_hybrid(
            seq,
            &counts,
            &rho_exact,
            n,
            &config,
            pils,
            hooks,
            None,
            &mut NoopObserver,
        )
        .map(|(outcome, _peak)| outcome)
    }

    fn assert_same_outcome(parallel: &MineOutcome, serial: &MineOutcome, label: &str) {
        assert_eq!(parallel.frequent.len(), serial.frequent.len(), "{label}");
        for (a, b) in parallel.frequent.iter().zip(&serial.frequent) {
            assert_eq!(a.pattern, b.pattern, "{label}");
            assert_eq!(a.support, b.support, "{label}");
        }
        assert_eq!(parallel.stats.n_used, serial.stats.n_used, "{label}");
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let seq = uniform(&mut StdRng::seed_from_u64(95), Alphabet::Dna, 400);
        let g = gap(1, 3);
        let rho = 0.0008;
        let serial = mpp(&seq, g, rho, 12, MppConfig::default()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let parallel = mpp_threads(&seq, g, rho, 12, MppConfig::default(), threads).unwrap();
            assert_same_outcome(&parallel, &serial, &format!("{threads} threads"));
        }
    }

    #[test]
    fn pool_engages_above_threshold_and_matches_serial() {
        // A protein alphabet seeds 20^3 = 8000 level-3 patterns, so the
        // kept set comfortably exceeds PARALLEL_THRESHOLD and the level
        // actually crosses the worker pool.
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let g = gap(0, 2);
        let rho = 1e-6;
        let serial = mpp(&seq, g, rho, 6, MppConfig::default()).unwrap();
        let kept_level3 = serial.stats.levels[0].extended;
        assert!(
            kept_level3 >= PARALLEL_THRESHOLD,
            "test must exercise the pool (kept = {kept_level3})"
        );
        for threads in [2usize, 4, 8] {
            let parallel = mpp_threads(&seq, g, rho, 6, MppConfig::default(), threads).unwrap();
            assert_same_outcome(&parallel, &serial, &format!("{threads} threads"));
        }
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        // Regression: a panicking worker used to leave the merge loop
        // blocked on `recv()` forever. The mine must now abort with
        // `WorkerFailed` in bounded time. `main_no_steal` keeps the
        // main thread out of the cursor race so a worker is guaranteed
        // to claim (and die on) a chunk.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
            let hooks = PoolHooks {
                panic_workers: true,
                main_no_steal: true,
            };
            let config = MppConfig {
                threads: 4,
                ..MppConfig::default()
            };
            let result = mpp_with_hooks(&seq, gap(0, 2), 1e-6, 6, config, hooks);
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("mine must error out in bounded time, not deadlock");
        match result {
            Err(MineError::WorkerFailed { message, .. }) => {
                assert!(message.contains("injected"), "unexpected message {message}");
            }
            Ok(_) => panic!("mine must fail when every worker panics"),
            Err(other) => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn pool_events_account_every_chunk() {
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let mut metrics = MetricsObserver::new();
        let config = MppConfig {
            threads: 4,
            ..MppConfig::default()
        };
        let outcome = mine(
            &seq,
            gap(0, 2),
            1e-6,
            Algorithm::Mpp { n: 6 },
            &config,
            &mut metrics,
        )
        .unwrap();
        assert!(
            !metrics.pool.is_empty(),
            "pool must engage above the threshold"
        );
        for p in &metrics.pool {
            assert_eq!(p.workers.len(), 4, "main + 3 pool workers");
            let claimed: usize = p.workers.iter().map(|w| w.chunks).sum();
            assert_eq!(claimed, p.chunks, "level {}", p.level);
        }
        // Observer totals agree with the engine's own stats.
        assert_eq!(metrics.levels.len(), outcome.stats.levels.len());
        for (e, s) in metrics.levels.iter().zip(&outcome.stats.levels) {
            assert_eq!(e.level, s.level);
            assert_eq!(e.candidates, s.candidates);
            assert_eq!(e.frequent, s.frequent);
            assert_eq!(e.kept, s.extended);
        }
        assert!(metrics.seed.is_some());
        assert_eq!(
            metrics.complete.as_ref().unwrap().frequent,
            outcome.frequent.len()
        );
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let seq = uniform(&mut StdRng::seed_from_u64(96), Alphabet::Dna, 300);
        let g = gap(2, 4);
        let a = mpp_threads(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
        let b = mpp_threads(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
        assert_eq!(a.frequent.len(), b.frequent.len());
        for (x, y) in a.frequent.iter().zip(&b.frequent) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.support, y.support);
        }
    }

    #[test]
    fn level_elapsed_covers_filter_and_join() {
        // Every level must report a non-degenerate duration, and the
        // sum of level times must not exceed the total.
        let seq = uniform(&mut StdRng::seed_from_u64(101), Alphabet::Dna, 500);
        let outcome = mpp_threads(&seq, gap(1, 3), 0.0008, 12, MppConfig::default(), 4).unwrap();
        let level_sum: std::time::Duration = outcome.stats.levels.iter().map(|l| l.elapsed).sum();
        assert!(level_sum <= outcome.stats.total_elapsed);
        assert!(!outcome.stats.levels.is_empty());
    }

    #[test]
    fn zero_threads_are_refused() {
        let seq = uniform(&mut StdRng::seed_from_u64(97), Alphabet::Dna, 100);
        match mpp_threads(&seq, gap(1, 2), 0.01, 5, MppConfig::default(), 0) {
            Err(MineError::InvalidConfig { setting, .. }) => assert_eq!(setting, "threads"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn error_paths_match_serial() {
        let seq = uniform(&mut StdRng::seed_from_u64(98), Alphabet::Dna, 100);
        assert!(matches!(
            mpp_threads(&seq, gap(1, 2), 0.0, 5, MppConfig::default(), 2),
            Err(MineError::InvalidThreshold(_))
        ));
    }
}
