//! Parallel candidate evaluation (an engineering extension — the paper
//! is single-threaded).
//!
//! The dominant cost of a level is independent per candidate: join two
//! parent PILs, sum the result. This module runs the level-wise engine
//! with the join fan-out spread over a **persistent worker pool**: the
//! threads are spawned once per mine and live for the whole run.
//! Each level publishes one [`LevelJob`] (the kept generation, its
//! prefix runs, and an atomic chunk cursor); the main thread and every
//! worker *steal* chunks of left-parent indices from the cursor until
//! the level is drained, so a skewed chunk cannot stall the level the
//! way statically partitioned spawns could.
//!
//! Determinism is preserved: chunk results are merged in chunk-index
//! order (chunks partition the sorted kept slice, so concatenation is
//! already globally sorted) and the final outcome is sorted exactly
//! like the serial engine's. Output is byte-identical to
//! [`crate::mpp::mpp`].
//!
//! ## Failure handling
//!
//! The cursor hands each chunk to exactly one thread, so the merge loop
//! knows exactly how many results are outstanding. Worker-side join
//! work runs under `catch_unwind`: a panic becomes a
//! [`WorkerMsg::Failed`] report and the mine aborts with
//! [`MineError::WorkerFailed`] instead of blocking forever on a chunk
//! that will never arrive (the deadlock this module shipped with — the
//! old merge loop did a bare `recv()` while the pool's retained result
//! sender kept the channel open). A belt-and-braces liveness check
//! (`JoinHandle::is_finished` during receive timeouts) covers the
//! pathological case of a worker dying without managing to report.

use crate::arena::{build_seed, generate_candidates, prefix_runs, PilSet};
use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::BoundTable;
use crate::mpp::{check_ceiling, prepare, MppConfig};
use crate::pattern::Pattern;
use crate::pil::JoinCounters;
use crate::prune::Pruner;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use crate::trace::{
    AbortEvent, CompleteEvent, LevelEvent, MineObserver, NoopObserver, PoolLevelEvent, SeedEvent,
    WorkerLevelStats,
};
use perigap_seq::Sequence;
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

/// MPP with the candidate-evaluation step parallelized over `threads`
/// OS threads. Produces byte-identical outcomes to [`crate::mpp::mpp`].
pub fn mpp_parallel(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
    threads: usize,
) -> Result<MineOutcome, MineError> {
    mpp_parallel_traced(seq, gap, rho, n, config, threads, &mut NoopObserver)
}

/// [`mpp_parallel`] with a [`MineObserver`] attached. Beyond the serial
/// events, every pool-engaged level also emits a
/// [`PoolLevelEvent`] with the per-worker chunk/candidate/busy-time
/// breakdown.
pub fn mpp_parallel_traced<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
    threads: usize,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    assert!(threads >= 1, "need at least one thread");
    let started = Instant::now();
    let (counts, rho_exact) = prepare(seq, gap, rho, &config)?;
    let seed_started = Instant::now();
    let pils = build_seed(seq, gap, config.start_level);
    observer.on_seed(&SeedEvent {
        level: config.start_level,
        patterns: pils.len(),
        pil_entries: pils.entry_count(),
        arena_bytes: pils.arena_bytes(),
        elapsed: seed_started.elapsed(),
    });
    let run = run_parallel(
        seq,
        &counts,
        &rho_exact,
        n,
        &config,
        pils,
        threads,
        PoolHooks::default(),
        observer,
    );
    let (mut outcome, peak) = match run {
        Ok(done) => done,
        Err(e) => {
            observer.on_abort(&AbortEvent {
                message: e.to_string(),
            });
            return Err(e);
        }
    };
    outcome.stats.total_elapsed = started.elapsed();
    observer.on_complete(&CompleteEvent::from_outcome(&outcome).with_peak_arena_bytes(peak));
    Ok(outcome)
}

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
/// off an atomic cursor. The breadth-first engine's [`LevelJob`] (items
/// = chunks of left parents) and the hybrid engine's subtree job
/// (items = prefix-run components, see [`crate::dfs`]) both implement
/// this, sharing one pool, one merge loop, and one failure protocol.
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

/// One level's join fan-out, shared with the pool. Workers claim chunk
/// indices from `cursor` until it passes `n_chunks`.
struct LevelJob {
    /// The current (kept-filtered inputs) generation.
    set: PilSet,
    /// Indices into `set` that survived the L̂ bound, ascending.
    kept: Vec<usize>,
    /// Equal-prefix runs over `kept` (see [`crate::arena::prefix_runs`]).
    runs: Vec<(usize, usize)>,
    gap: GapRequirement,
    next_level: usize,
    chunk: usize,
    n_chunks: usize,
    cursor: AtomicUsize,
    hooks: PoolHooks,
    /// Shared pruning state; floor reads inside a chunk see raises from
    /// every other thread's already-merged levels.
    pruner: Pruner,
}

impl PoolJob for LevelJob {
    type Out = (PilSet, JoinCounters);

    fn n_items(&self) -> usize {
        self.n_chunks
    }

    fn cursor(&self) -> &AtomicUsize {
        &self.cursor
    }

    fn hooks(&self) -> &PoolHooks {
        &self.hooks
    }

    fn progress_level(&self) -> usize {
        self.next_level
    }

    /// Generate the candidates whose left parent lies in chunk `c`,
    /// together with the chunk's join counters (merged level-wide by
    /// the caller).
    fn process(&self, c: usize) -> (PilSet, JoinCounters) {
        let lo = c * self.chunk;
        let hi = (lo + self.chunk).min(self.kept.len());
        let mut out = PilSet::new(self.next_level);
        let mut jc = JoinCounters::default();
        generate_candidates(
            &self.set,
            &self.kept,
            &self.runs,
            self.gap,
            lo,
            hi,
            &mut out,
            &mut jc,
            &self.pruner,
        );
        (out, jc)
    }

    fn out_weight(out: &(PilSet, JoinCounters)) -> usize {
        out.0.len()
    }
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

/// The parallel twin of `run_levelwise`. Kept separate so the serial
/// engine stays dependency-free and obviously faithful to Figure 3.
/// Returns the outcome plus the peak live arena bytes, like the serial
/// engine.
#[allow(clippy::too_many_arguments)]
fn run_parallel<O: MineObserver>(
    seq: &Sequence,
    counts: &OffsetCounts,
    rho: &perigap_math::BigRatio,
    n: usize,
    config: &MppConfig,
    seed: PilSet,
    threads: usize,
    hooks: PoolHooks,
    observer: &mut O,
) -> Result<(MineOutcome, usize), MineError> {
    let gap = counts.gap();
    let sigma = seq.alphabet().size() as u128;
    let start = config.start_level;
    let n = n.clamp(start, counts.l1().max(start));
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());

    // Spawned once; lives until the mine returns.
    let pool = (threads > 1).then(|| WorkerPool::<LevelJob>::new(threads - 1));

    let mut stats = MineStats {
        n_used: n,
        ..MineStats::default()
    };
    let pruner = Pruner::new(&config.prune, counts.gap().flexibility());
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut bounds = BoundTable::new(counts, rho, n);
    let mut current = seed;
    let mut kept: Vec<usize> = Vec::new();
    let mut level = start;
    let mut candidates_at_level: u128 = sigma.saturating_pow(start as u32);
    let mut peak = current.arena_bytes();
    check_ceiling(config.max_arena_bytes, peak)?;

    while level <= hard_cap {
        let level_started = Instant::now();
        if counts.n(level).is_zero() {
            break;
        }
        let row = bounds.row(level);

        kept.clear();
        let mut frequent_here = 0usize;
        for i in 0..current.len() {
            let sup = current.support(i);
            let admits_exact = row.exact.admits_u128(sup);
            let admits_lhat = row.lhat.admits_u128(sup);
            if (admits_exact || admits_lhat) && !pruner.admits_search(sup) {
                continue;
            }
            if admits_exact && pruner.admits_result(current.pattern_codes(i), sup) {
                frequent.push(FrequentPattern {
                    pattern: Pattern::from_codes(current.pattern_codes(i).to_vec()),
                    support: sup,
                    ratio: sup as f64 / row.n_f64,
                });
                frequent_here += 1;
            }
            if admits_lhat && pruner.admits_frontier(current.pattern_codes(i)) {
                kept.push(i);
            }
        }
        let evaluated = current.len();
        let extended = kept.len();
        let gen_saturated = current.saturated();
        stats.support_saturated |= gen_saturated;
        let finish_level = |stats: &mut MineStats,
                            observer: &mut O,
                            join_elapsed: Duration,
                            elapsed,
                            arena_bytes: usize,
                            jc: JoinCounters| {
            stats.levels.push(LevelStats {
                level,
                candidates: candidates_at_level,
                frequent: frequent_here,
                extended,
                elapsed,
            });
            observer.on_level(&LevelEvent {
                level,
                candidates: candidates_at_level,
                evaluated,
                frequent: frequent_here,
                kept: extended,
                pruned_bound: evaluated - extended,
                pruned_support: evaluated - frequent_here,
                arena_bytes,
                joins: jc.joins,
                probed: jc.probed,
                reallocs: jc.reallocs,
                bytes_moved: jc.bytes_moved,
                join_elapsed,
                elapsed,
                saturated: gen_saturated,
            });
        };

        if kept.is_empty() || level == hard_cap {
            finish_level(
                &mut stats,
                observer,
                Duration::ZERO,
                level_started.elapsed(),
                current.arena_bytes(),
                JoinCounters::default(),
            );
            break;
        }

        // Join fan-out: stolen in chunks when it is worth the handoff.
        let join_started = Instant::now();
        let runs = prefix_runs(&current, &kept);
        // The parents move into the job below; their size is part of
        // the live footprint either way.
        let parent_bytes = current.arena_bytes();
        let mut level_jc = JoinCounters::default();
        let next: PilSet = match &pool {
            Some(pool) if kept.len() >= PARALLEL_THRESHOLD => {
                let chunk = kept
                    .len()
                    .div_ceil(threads * CHUNKS_PER_THREAD)
                    .max(MIN_CHUNK);
                let n_chunks = kept.len().div_ceil(chunk);
                let job = Arc::new(LevelJob {
                    set: std::mem::take(&mut current),
                    kept: std::mem::take(&mut kept),
                    runs,
                    gap,
                    next_level: level + 1,
                    chunk,
                    n_chunks,
                    cursor: AtomicUsize::new(0),
                    hooks,
                    pruner: pruner.clone(),
                });
                let (parts, pool_event) = pool.run(job)?;
                observer.on_pool(&pool_event);
                let mut sets = Vec::with_capacity(parts.len());
                for (set, jc) in parts {
                    level_jc.absorb(&jc);
                    sets.push(set);
                }
                PilSet::concat(level + 1, sets)
            }
            _ => {
                let mut out = PilSet::new(level + 1);
                generate_candidates(
                    &current,
                    &kept,
                    &runs,
                    gap,
                    0,
                    kept.len(),
                    &mut out,
                    &mut level_jc,
                    &pruner,
                );
                out
            }
        };
        let live = parent_bytes + next.arena_bytes();
        peak = peak.max(live);
        check_ceiling(config.max_arena_bytes, live)?;
        finish_level(
            &mut stats,
            observer,
            join_started.elapsed(),
            level_started.elapsed(),
            live,
            level_jc,
        );

        candidates_at_level = next.len() as u128;
        if next.is_empty() {
            break;
        }
        current = next;
        level += 1;
    }

    let mut outcome = MineOutcome { frequent, stats };
    pruner.finish(&mut outcome);
    Ok((outcome, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::mpp;
    use crate::trace::MetricsObserver;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// `mpp_parallel` with fault injection, for the regression tests.
    fn mpp_parallel_with_hooks(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        n: usize,
        config: MppConfig,
        threads: usize,
        hooks: PoolHooks,
    ) -> Result<MineOutcome, MineError> {
        let (counts, rho_exact) = prepare(seq, g, rho, &config)?;
        let pils = build_seed(seq, g, config.start_level);
        run_parallel(
            seq,
            &counts,
            &rho_exact,
            n,
            &config,
            pils,
            threads,
            hooks,
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
            let parallel = mpp_parallel(&seq, g, rho, 12, MppConfig::default(), threads).unwrap();
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
            let parallel = mpp_parallel(&seq, g, rho, 6, MppConfig::default(), threads).unwrap();
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
            let result =
                mpp_parallel_with_hooks(&seq, gap(0, 2), 1e-6, 6, MppConfig::default(), 4, hooks);
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
        let outcome = mpp_parallel_traced(
            &seq,
            gap(0, 2),
            1e-6,
            6,
            MppConfig::default(),
            4,
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
        let a = mpp_parallel(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
        let b = mpp_parallel(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
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
        let outcome = mpp_parallel(&seq, gap(1, 3), 0.0008, 12, MppConfig::default(), 4).unwrap();
        let level_sum: std::time::Duration = outcome.stats.levels.iter().map(|l| l.elapsed).sum();
        assert!(level_sum <= outcome.stats.total_elapsed);
        assert!(!outcome.stats.levels.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let seq = uniform(&mut StdRng::seed_from_u64(97), Alphabet::Dna, 100);
        let _ = mpp_parallel(&seq, gap(1, 2), 0.01, 5, MppConfig::default(), 0);
    }

    #[test]
    fn error_paths_match_serial() {
        let seq = uniform(&mut StdRng::seed_from_u64(98), Alphabet::Dna, 100);
        assert!(matches!(
            mpp_parallel(&seq, gap(1, 2), 0.0, 5, MppConfig::default(), 2),
            Err(MineError::InvalidThreshold(_))
        ));
    }
}
