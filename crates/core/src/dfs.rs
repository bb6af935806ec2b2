//! The mining engine behind every MPP and MPPm mine ([`crate::mpp::mine`]).
//!
//! Figure 3 of the paper counts each candidate's support and tests it
//! against the level's bounds as the candidate is produced. This engine
//! does the same: a candidate is evaluated against the exact and
//! Theorem 1 bounds the moment its support is counted, and only
//! survivors are joined and written to the next generation's arena.
//! Nothing is built or stored for a candidate that fails both bounds.
//!
//! Figure 3's loop body is one function, `TaskCtx::step`: it produces
//! level `l + 1` from a generation's members, records the level's
//! counters, charges the child to the arena gauge and releases the
//! parent. The prelude and every subtree step through it; only the
//! `Producer` differs — one `eager_generate` call, or, for a wide
//! prelude level on a pool, chunk tasks whose parts `PilSet::concat`
//! merges. The seed filter and every generated candidate pass one
//! admission rule (`admit`).
//!
//! The run starts breadth-first (the *prelude*). When the survivors
//! split into two or more prefix-run components it may *hand off*: each
//! component goes to the worker pool as an independent **depth-first
//! subtree task**. A subtree is one *chain* (`descend`) that keeps two
//! generations, the parent and the child under construction: the child
//! is charged before the parent is released, so live arena bytes along
//! a chain are O(deepest chain), not O(widest level). Where a chain's
//! generation splits again, each component descends as a chain of its
//! own while the split generation stays live.
//!
//! Serial mining is [`MppConfig::threads`] `= 1`: no pool is spawned, the calling
//! thread runs every chunk and subtree itself, and the first split
//! always hands off. With more threads, a wide prelude level is split
//! into chunks of left parents on one shared `WorkerPool`, and a
//! split hands off only when no component holds more than half of the
//! survivors: a subtree runs on one worker, so a dominant component
//! would leave the others idle. A lopsided split stays in the chunked
//! prelude until a later level splits evenly. A run with a spill
//! backend hands off at the first split at every thread count, because
//! that is where spilling is decided.
//!
//! Each level finds every member's join partners with one forward merge
//! (`arena::partner_runs`). A candidate's support is counted before it
//! is joined, from its right parent's PIL and the run's
//! [`WindowTable`] (built once per mine, `σ·(L+1)` `u32` counts, shared
//! read-only by every task). Only a candidate the bounds keep is joined:
//! one call of the join kernel (`pil::join_into`) into one reused output
//! list.
//!
//! ## Why the component handoff is sound
//!
//! Let the survivors at level `h` be split into prefix runs (equal
//! `(h−1)`-prefix groups). Union, for every pattern `p` in run `r`, the
//! run keyed by `suffix(p)` into `r`'s component. Claim: every
//! generation partner at *every* deeper level stays inside one
//! component. A level-`h+1` candidate `d = p·x` lives where its left
//! parent `p` lives; its right parent `q` satisfies
//! `prefix(q) = suffix(p)`, so `q` is in the run keyed `suffix(p)` —
//! unioned with `p`'s component. Inductively, any deeper pattern's
//! parents both descend from level-`h` patterns of the same component.
//! Components are therefore independent mining problems, and the same
//! argument re-applies inside a subtree whenever its survivors split
//! again.
//!
//! ## Engine invariants
//!
//! Every counter in [`MineStats`] and every [`LevelEvent`] counter
//! (candidates, evaluated, frequent, kept, pruned, saturated) is the
//! paper's level-wise count, identical at every thread count and to
//! the breadth-first reference miner in [`crate::reference`]: the same
//! `BoundTable` rows are consulted for the same partner pairs.
//! Durations and `arena_bytes` are schedule-dependent: a level's
//! elapsed time is the summed generation+evaluation time that
//! *produced* it, and `arena_bytes` covers the surviving arenas only.

use crate::arena::{partner_runs, prefix_runs, PilSet, NO_PARTNER};
use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::{BoundRow, BoundTable};
use crate::mpp::{check_ceiling, clamp_n, MppConfig, SEED_LEVEL};
use crate::parallel::{
    PoolHooks, PoolJob, WorkerPool, CHUNKS_PER_THREAD, MIN_CHUNK, PARALLEL_THRESHOLD,
};
use crate::pattern::Pattern;
use crate::pil::{extension_support, join_into, JoinCounters, Pil, WindowTable};
use crate::prune::Pruner;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use crate::spill::{self, SpillState};
use crate::trace::{
    AbortEvent, CompleteEvent, Event, LevelEvent, MineObserver, PoolLevelEvent, RestoreEvent,
    SpillEvent, SubtreeEvent, WarningEvent,
};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stamp the total wall time and emit the terminal trace event —
/// [`CompleteEvent`] with the peak arena bytes, or [`AbortEvent`] on
/// error.
pub(crate) fn finish<O: MineObserver>(
    run: Result<(MineOutcome, usize), MineError>,
    started: Instant,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    let (mut outcome, peak) = match run {
        Ok(done) => done,
        Err(e) => {
            observer.on(Event::Abort(&AbortEvent {
                message: e.to_string(),
            }));
            return Err(e);
        }
    };
    outcome.stats.total_elapsed = started.elapsed();
    observer.on(Event::Complete(
        &CompleteEvent::from_outcome(&outcome).with_peak_arena_bytes(peak),
    ));
    Ok(outcome)
}

/// Per-level counter totals, merged across the prelude, chunk tasks,
/// and subtree tasks. Field-for-field the ingredients of one
/// [`LevelEvent`]/[`LevelStats`] pair. [`eager_generate`] and the seed
/// filter count into one; the arena bytes and durations are stamped by
/// whoever produced the whole level.
#[derive(Clone, Default)]
struct LevelAgg {
    candidates: u128,
    evaluated: usize,
    frequent: usize,
    kept: usize,
    saturated: bool,
    arena_bytes: usize,
    jc: JoinCounters,
    join_elapsed: Duration,
    elapsed: Duration,
}

impl LevelAgg {
    /// Merge another task's totals for the same level.
    fn absorb(&mut self, add: LevelAgg) {
        self.candidates += add.candidates;
        self.evaluated += add.evaluated;
        self.frequent += add.frequent;
        self.kept += add.kept;
        self.saturated |= add.saturated;
        self.arena_bytes += add.arena_bytes;
        self.jc.absorb(&add.jc);
        self.join_elapsed += add.join_elapsed;
        self.elapsed += add.elapsed;
    }
}

/// Shared live/peak arena accounting. `grow` charges bytes against the
/// engine-wide gauge (and the optional ceiling) *before* the allocation
/// is considered live; `shrink` releases them. Transient chunk output
/// buffers are deliberately unaccounted — they are bounded by a chunk's
/// share of one generation and keeping them out makes the reported peak
/// deterministic across thread schedules.
struct MemGauge<'a> {
    live: &'a AtomicUsize,
    peak: &'a AtomicUsize,
    limit: Option<usize>,
    /// Largest `held` this gauge saw (per-task peak for [`SubtreeEvent`]).
    task_peak: usize,
    /// Bytes currently charged through this gauge.
    held: usize,
}

impl MemGauge<'_> {
    fn new<'a>(live: &'a AtomicUsize, peak: &'a AtomicUsize, limit: Option<usize>) -> MemGauge<'a> {
        MemGauge {
            live,
            peak,
            limit,
            task_peak: 0,
            held: 0,
        }
    }

    fn grow(&mut self, bytes: usize) -> Result<(), MineError> {
        self.held += bytes;
        self.task_peak = self.task_peak.max(self.held);
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
        // One place pins the boundary semantics for the whole
        // workspace: `live == cap` passes, `live > cap` aborts.
        check_ceiling(self.limit, live)
    }

    fn shrink(&mut self, bytes: usize) {
        self.held -= bytes;
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A task that fails mid-chain returns without shrinking: its gauge
/// releases what it still holds here, so the engine-wide total never
/// keeps a dead task's charges.
impl Drop for MemGauge<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(self.held, Ordering::Relaxed);
    }
}

/// Reusable working buffers for [`eager_generate`], bundled so callers
/// amortise their allocations across generation steps: `out` takes
/// each kept candidate's join, `codes` its pattern.
#[derive(Default)]
struct EagerBufs {
    out: Pil,
    codes: Vec<u8>,
}

/// One generation's join index over a sorted member list: its prefix
/// runs and, per member position, its partner run. Built once per
/// level and shared by the component split and the joins.
struct JoinIndex {
    runs: Vec<(usize, usize)>,
    partners: Vec<u32>,
}

impl JoinIndex {
    fn new(set: &PilSet, members: &[usize]) -> JoinIndex {
        let runs = prefix_runs(set, members);
        let partners = partner_runs(set, members, &runs);
        JoinIndex { runs, partners }
    }

    /// The member range `s..e` holding the join partners of member
    /// position `k`, if it has any.
    fn partners_of(&self, k: usize) -> Option<(usize, usize)> {
        let r = self.partners[k];
        (r != NO_PARTNER).then(|| self.runs[r as usize])
    }
}

/// The admission rule every evaluated pattern passes, at the seed level
/// and for each generated candidate before it is joined. A pattern that
/// the exact bound of `row` admits is frequent if the pruner takes it
/// as a result, and one that the λ̂ bound admits is kept on the join
/// frontier. A support that neither bound admits, or that the search
/// floor cuts, settles both as false before `codes` builds the pattern.
/// A frequent pattern is pushed to `frequent`. Returns
/// `(frequent, kept)`.
#[inline]
fn admit<'c>(
    row: &BoundRow,
    pruner: &Pruner,
    sup: u128,
    codes: impl FnOnce() -> &'c [u8],
    frequent: &mut Vec<FrequentPattern>,
) -> (bool, bool) {
    let exact = row.exact.admits_u128(sup);
    let lhat = row.lhat.admits_u128(sup);
    if !(exact || lhat) || !pruner.admits_search(sup) {
        return (false, false);
    }
    let codes = codes();
    let is_frequent = exact && pruner.admits_result(codes, sup);
    if is_frequent {
        frequent.push(FrequentPattern {
            pattern: Pattern::from_codes(codes.to_vec()),
            support: sup,
            ratio: sup as f64 / row.n_f64,
        });
    }
    (is_frequent, lhat)
}

/// Generate the level `set.level() + 1` candidates whose left parent is
/// `members[parents]`, evaluating each against `row` the moment it is
/// produced. Frequent candidates are appended to `frequent`; candidates
/// passing the extension bound are appended to `next`. Every partner
/// pair is counted in `evaluated` and `candidates` (empty ones
/// included): the paper's per-level candidate count.
///
/// A candidate `a·K·x` (left parent `a·K`, partner `m = K·x`) is counted
/// before it is joined: its support is `m`'s entries dotted with row `a`
/// of the run's [`WindowTable`]. Only a candidate that `admit` keeps is
/// joined, by one [`join_into`] call into `bufs.out`, and copied into
/// `next`.
#[allow(clippy::too_many_arguments)]
fn eager_generate(
    set: &PilSet,
    members: &[usize],
    index: &JoinIndex,
    parents: Range<usize>,
    env: &RunEnv,
    row: &BoundRow,
    next: &mut PilSet,
    bufs: &mut EagerBufs,
    frequent: &mut Vec<FrequentPattern>,
) -> LevelAgg {
    let (level, pruner) = (set.level(), &env.pruner);
    let mut st = LevelAgg::default();
    for k in parents {
        let i = members[k];
        let p1 = set.pattern_codes(i);
        // Top-k: a left parent under the rigid-gap floor cannot
        // contribute an admissible candidate.
        if !pruner.admits_parent(|| set.support(i)) {
            continue;
        }
        let Some((s, e)) = index.partners_of(k) else {
            continue;
        };
        let (left, _) = set.entries(i);
        let occ = env.window.row(p1[0]);
        for &m in &members[s..e] {
            let (offsets, counts) = set.entries(m);
            st.evaluated += 1;
            st.jc.probed += offsets.len() as u64;
            let codes = &mut bufs.codes;
            let (is_frequent, is_kept) = admit(
                row,
                pruner,
                extension_support(occ, offsets, counts),
                move || {
                    codes.clear();
                    codes.extend_from_slice(p1);
                    codes.push(set.pattern_codes(m)[level - 1]);
                    codes
                },
                frequent,
            );
            st.frequent += usize::from(is_frequent);
            if is_kept {
                bufs.out.clear();
                st.saturated |=
                    join_into(left, offsets, counts, env.gap, &mut bufs.out, &mut st.jc);
                next.push_pattern(&bufs.codes, (bufs.out.offsets(), bufs.out.counts()));
                st.kept += 1;
            }
        }
    }
    st.candidates = st.evaluated as u128;
    st
}

/// Partition the survivor set into connected prefix-run components:
/// union-find over the runs, where each member's run is unioned with
/// its partner run (the component-closure rule from the module docs).
/// Returns ascending member lists, in first-seen run order, or `None`
/// when the set is one component and cannot be split yet.
fn split_components(members: &[usize], index: &JoinIndex) -> Option<Vec<Vec<usize>>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let runs = &index.runs;
    let mut parent: Vec<usize> = (0..runs.len()).collect();
    let mut roots = runs.len();
    for (r, &(s, e)) in runs.iter().enumerate() {
        for &p in &index.partners[s..e] {
            if p == NO_PARTNER {
                continue;
            }
            let (a, b) = (find(&mut parent, r), find(&mut parent, p as usize));
            if a != b {
                parent[a] = b;
                roots -= 1;
            }
        }
    }
    if roots <= 1 {
        return None;
    }
    let mut slot: Vec<Option<usize>> = vec![None; runs.len()];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for (r, &(s, e)) in runs.iter().enumerate() {
        let root = find(&mut parent, r);
        let idx = *slot[root].get_or_insert_with(|| {
            comps.push(Vec::new());
            comps.len() - 1
        });
        comps[idx].extend_from_slice(&members[s..e]);
    }
    Some(comps)
}

/// What every task of one run shares: the mining parameters, the
/// sequence's window table, the pruning state and the engine-wide arena
/// gauge.
struct RunEnv {
    gap: GapRequirement,
    seq_len: usize,
    /// Read-only by every task; not charged to the arena gauge.
    window: WindowTable,
    n: usize,
    rho: BigRatio,
    /// The deepest level mined.
    hard_cap: usize,
    /// The arena ceiling, and the live and peak arena bytes of every task.
    limit: Option<usize>,
    live: AtomicUsize,
    peak: AtomicUsize,
    hooks: PoolHooks,
    /// Shared pruning state (floor + target) across every task.
    pruner: Pruner,
}

impl RunEnv {
    /// The context of one task that mines over `counts`: the prelude, or
    /// a subtree.
    fn task_ctx<'a>(&'a self, counts: &'a OffsetCounts) -> TaskCtx<'a> {
        TaskCtx {
            env: self,
            counts,
            bounds: BoundTable::new(counts, &self.rho, self.n),
            gauge: MemGauge::new(&self.live, &self.peak, self.limit),
            bufs: EagerBufs::default(),
            aggs: BTreeMap::new(),
            frequent: Vec::new(),
        }
    }
}

/// Mutable state of one task: the prelude, or one subtree with its
/// recursion. Each task has its own buffers, bound rows and gauge view.
struct TaskCtx<'a> {
    env: &'a RunEnv,
    counts: &'a OffsetCounts,
    bounds: BoundTable<'a>,
    gauge: MemGauge<'a>,
    bufs: EagerBufs,
    aggs: BTreeMap<usize, LevelAgg>,
    frequent: Vec<FrequentPattern>,
}

/// How a [`TaskCtx::step`] produces the next generation.
enum Producer<'p> {
    /// `(set, members, index, next)`: one [`eager_generate`] call over
    /// every member of `set`, writing the survivors into `next`.
    Serial(&'p PilSet, &'p [usize], &'p JoinIndex, PilSet),
    /// A wide prelude level on the pool: the job's chunk tasks, whose
    /// parts [`PilSet::concat`] merges in order. The job holds the
    /// parent generation; the pool's event goes to `events`.
    Pooled {
        pool: &'p WorkerPool<DfsJob>,
        job: Arc<DfsJob>,
        events: &'p mut Vec<PoolLevelEvent>,
    },
}

impl TaskCtx<'_> {
    /// Can a generation at `level` be extended? Not at the level cap,
    /// and not when no level-`level + 1` offset sequence exists.
    fn extends(&self, level: usize) -> bool {
        level < self.env.hard_cap && !self.counts.n(level + 1).is_zero()
    }

    /// The one level step: produce level `level + 1`, record its
    /// counters, charge the child to the gauge and release the parent's
    /// `parent_bytes` (0 when the parent is on another frame's account).
    /// The child is charged before the parent is released. Returns the
    /// child and its bytes, or `None` when the chain ends here: no
    /// candidate was evaluated (and nothing is recorded), or none
    /// survived.
    fn step(
        &mut self,
        level: usize,
        parent_bytes: usize,
        producer: Producer<'_>,
    ) -> Result<Option<(PilSet, usize)>, MineError> {
        let started = Instant::now();
        let (next, mut agg) = match producer {
            Producer::Serial(set, members, index, mut next) => {
                let st = eager_generate(
                    set,
                    members,
                    index,
                    0..members.len(),
                    self.env,
                    self.bounds.row(level + 1),
                    &mut next,
                    &mut self.bufs,
                    &mut self.frequent,
                );
                (next, st)
            }
            Producer::Pooled { pool, job, events } => {
                let (outs, event) = pool.run(job)?;
                events.push(event);
                let mut agg = LevelAgg::default();
                let mut parts = Vec::with_capacity(outs.len());
                for out in outs {
                    let t = out?;
                    for (l, a) in t.aggs {
                        debug_assert_eq!(l, level + 1);
                        agg.absorb(a);
                    }
                    self.frequent.extend(t.frequent);
                    parts.extend(t.part);
                }
                (PilSet::concat(level + 1, parts), agg)
            }
        };
        if agg.evaluated == 0 {
            self.gauge.shrink(parent_bytes);
            return Ok(None);
        }
        let elapsed = started.elapsed();
        let bytes = next.arena_bytes();
        agg.arena_bytes = bytes;
        agg.join_elapsed = elapsed;
        agg.elapsed = elapsed;
        let survivors = agg.kept;
        self.aggs.entry(level + 1).or_default().absorb(agg);
        if survivors == 0 {
            self.gauge.shrink(parent_bytes);
            return Ok(None);
        }
        self.gauge.grow(bytes)?;
        self.gauge.shrink(parent_bytes);
        Ok(Some((next, bytes)))
    }
}

/// Mine the subtree under `members` of `set` (at `level`) as one chain.
/// `set` is owned by the caller and its bytes are on the caller's
/// account; each generation the chain steps to is this frame's, and is
/// released once its child is charged. A split hands each component to
/// a `descend` of its own while the split generation stays live.
fn descend(
    ctx: &mut TaskCtx<'_>,
    set: &PilSet,
    members: &[usize],
    level: usize,
) -> Result<(), MineError> {
    // Top-k: a component with no member above the rigid-gap floor
    // cannot contribute — its whole subtree dies here (this is also
    // where a restored spill component is dropped when the floor
    // climbed past it while it sat on disk).
    if members.is_empty() || !ctx.extends(level) || !ctx.env.pruner.component_viable(set, members) {
        return Ok(());
    }
    // The chain's own generation with all its members, and its bytes.
    let mut own: Option<(PilSet, Vec<usize>)> = None;
    let mut own_bytes = 0;
    let mut level = level;
    loop {
        let (cur, cur_members) = match &own {
            Some((child, all)) => (child, &all[..]),
            None => (set, members),
        };
        let index = JoinIndex::new(cur, cur_members);
        if let Some(comps) = split_components(cur_members, &index) {
            for comp in &comps {
                descend(ctx, cur, comp, level)?;
            }
            ctx.gauge.shrink(own_bytes);
            return Ok(());
        }
        let producer = Producer::Serial(cur, cur_members, &index, PilSet::new(level + 1));
        let Some((next, bytes)) = ctx.step(level, own_bytes, producer)? else {
            return Ok(());
        };
        level += 1;
        own_bytes = bytes;
        let all = (0..next.len()).collect();
        own = Some((next, all));
        if !ctx.extends(level) {
            ctx.gauge.shrink(own_bytes);
            return Ok(());
        }
    }
}

/// One pool item of the engine.
enum DfsTask {
    /// Prelude chunk: eager-generate for the left parents
    /// `members[parents]` of the shared base generation.
    Chunk(Range<usize>),
    /// Depth-first subtree over one component's base-level members.
    Subtree(Vec<usize>),
    /// A subtree whose base component was serialized to the spill
    /// backend at handoff; the processing worker restores it first.
    /// `best` is the component's best cone-admissible support at spill
    /// time — if the top-k floor passes it by restore time the record
    /// is dropped unread (see [`DfsJob::process_spilled`]).
    SpilledSubtree { record: u64, best: u128 },
}

/// What one [`DfsTask`] returns (inside `Ok`; a task that trips the
/// memory ceiling returns the error as its output value).
#[derive(Default)]
struct TaskOut {
    /// Chunk tasks: the surviving slice of the next generation.
    part: Option<PilSet>,
    /// Per-level counter totals this task contributed.
    aggs: Vec<(usize, LevelAgg)>,
    /// Frequent patterns this task found.
    frequent: Vec<FrequentPattern>,
    /// Subtree tasks: the progress event.
    subtree: Option<SubtreeEvent>,
    /// Spilled subtree tasks: the restore event.
    restore: Option<RestoreEvent>,
    /// Spilled subtree tasks: set when the mined record's backing file
    /// could not be removed (surfaced as a `spill-cleanup` warning, not
    /// an error — see [`crate::spill::SpillIo::remove`]).
    cleanup_failure: Option<String>,
}

/// A roster of [`DfsTask`]s over one shared base generation, claimed
/// off the common [`WorkerPool`] cursor.
struct DfsJob {
    env: Arc<RunEnv>,
    /// The base generation (empty once spilled; its level stays).
    base: PilSet,
    /// Survivor indices into `base`, ascending.
    members: Vec<usize>,
    /// The join index over `members`.
    index: JoinIndex,
    /// The `base.level() + 1` bound row, built once on the main thread
    /// so chunk tasks skip per-task bound construction.
    first_row: BoundRow,
    tasks: Vec<DfsTask>,
    /// Present when the base generation was spilled: the backend plus
    /// the once-only claim guard for each record.
    spill: Option<SpillState>,
    cursor: AtomicUsize,
    /// Set by the first task that fails; a hint that guards no data,
    /// so relaxed ordering suffices.
    failed: AtomicBool,
}

impl PoolJob for DfsJob {
    type Out = Result<TaskOut, MineError>;

    fn n_items(&self) -> usize {
        self.tasks.len()
    }

    fn cursor(&self) -> &AtomicUsize {
        &self.cursor
    }

    fn hooks(&self) -> &PoolHooks {
        &self.env.hooks
    }

    fn progress_level(&self) -> usize {
        self.base.level() + 1
    }

    fn process(&self, item: usize) -> Self::Out {
        // Once a task failed the run is over: a task that starts later
        // returns at once instead of mining a result nobody reads.
        if self.failed.load(Ordering::Relaxed) {
            return Ok(TaskOut::default());
        }
        let out = match &self.tasks[item] {
            DfsTask::Chunk(parents) => self.process_chunk(parents.clone()),
            DfsTask::Subtree(members) => {
                self.run_subtree(item, &self.base, members, None, Instant::now())
            }
            DfsTask::SpilledSubtree { record, best } => self.process_spilled(item, *record, *best),
        };
        if out.is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
        out
    }

    fn out_weight(out: &Self::Out) -> usize {
        match out {
            Ok(t) => t.aggs.iter().map(|(_, a)| a.evaluated).sum(),
            Err(_) => 0,
        }
    }
}

impl DfsJob {
    /// A job over `base`, whose `first_row` comes from `bounds`.
    fn new(
        env: &Arc<RunEnv>,
        bounds: &mut BoundTable<'_>,
        base: PilSet,
        members: Vec<usize>,
        index: JoinIndex,
        tasks: Vec<DfsTask>,
        spill: Option<SpillState>,
    ) -> Arc<DfsJob> {
        let first_row = bounds.row(base.level() + 1).clone();
        Arc::new(DfsJob {
            env: Arc::clone(env),
            base,
            members,
            index,
            first_row,
            tasks,
            spill,
            cursor: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
        })
    }

    fn process_chunk(&self, parents: Range<usize>) -> Result<TaskOut, MineError> {
        let level = self.base.level() + 1;
        let mut next = PilSet::new(level);
        let mut frequent: Vec<FrequentPattern> = Vec::new();
        let st = eager_generate(
            &self.base,
            &self.members,
            &self.index,
            parents,
            &self.env,
            &self.first_row,
            &mut next,
            &mut EagerBufs::default(),
            &mut frequent,
        );
        Ok(TaskOut {
            part: Some(next),
            aggs: vec![(level, st)],
            frequent,
            ..TaskOut::default()
        })
    }

    /// Mine `members` of `set` as subtree task `item`, timed from
    /// `started`. A restored component passes its arena bytes as
    /// `restored`: it is the hot working set, so it goes back on the
    /// gauge for the task's length, and if even that overflows the
    /// ceiling the run aborts with `MemoryCeiling` — spilling never
    /// hides a working set that genuinely does not fit.
    fn run_subtree(
        &self,
        item: usize,
        set: &PilSet,
        members: &[usize],
        restored: Option<usize>,
        started: Instant,
    ) -> Result<TaskOut, MineError> {
        // `OffsetCounts` caches are `!Sync`, so each task builds its own
        // (cheap: the tables are lazy and shallow at mining depths).
        let counts = OffsetCounts::new(self.env.seq_len, self.env.gap);
        let level = self.base.level();
        let mut ctx = self.env.task_ctx(&counts);
        // The gauge releases the restored bytes when `ctx` drops.
        if let Some(bytes) = restored {
            ctx.gauge.grow(bytes)?;
        }
        descend(&mut ctx, set, members, level)?;
        let event = SubtreeEvent {
            index: item,
            level,
            patterns: members.len(),
            // Every step that evaluated a candidate recorded its level.
            deepest: ctx.aggs.keys().next_back().map_or(level, |&l| l),
            evaluated: ctx.aggs.values().map(|a| a.evaluated).sum(),
            frequent: ctx.frequent.len(),
            peak_arena_bytes: ctx.gauge.task_peak,
            elapsed: started.elapsed(),
        };
        Ok(TaskOut {
            aggs: ctx.aggs.into_iter().collect(),
            frequent: ctx.frequent,
            subtree: Some(event),
            ..TaskOut::default()
        })
    }

    /// Restore one spilled component and mine it as a subtree. The
    /// record is claimed exactly once across the pool (a stealing
    /// worker that re-dispatches a task can never restore the same
    /// bytes twice), and the backing file is removed only after the
    /// subtree finished cleanly.
    fn process_spilled(&self, item: usize, record: u64, best: u128) -> Result<TaskOut, MineError> {
        let started = Instant::now();
        let state = self
            .spill
            .as_ref()
            .expect("spilled task scheduled without spill state");
        state.claim(record)?;
        // Top-k: if the floor climbed past the component's best support
        // while the record sat on disk, the whole subtree is dead —
        // drop the record without reading it back.
        let (mut out, done) = if self.env.pruner.admits_search(best) {
            let bytes = state
                .io
                .read(record)
                .map_err(|e| spill::spill_err(record, e.to_string()))?;
            let set = spill::decode_record(record, &bytes)?;
            let restore = RestoreEvent {
                record,
                bytes: bytes.len() as u64,
                patterns: set.len(),
                elapsed: started.elapsed(),
            };
            drop(bytes);
            let members: Vec<usize> = (0..set.len()).collect();
            let mut out =
                self.run_subtree(item, &set, &members, Some(set.arena_bytes()), started)?;
            out.restore = Some(restore);
            (out, "mined")
        } else {
            (TaskOut::default(), "pruned")
        };
        out.cleanup_failure = state.io.remove(record).err().map(|e| {
            format!("spill record {record} could not be removed after its subtree was {done}: {e}")
        });
        Ok(out)
    }
}

/// Count a spill record that could not be removed, and report it as a
/// `spill-cleanup` warning: it costs disk, not correctness.
fn cleanup_failed<O: MineObserver>(stats: &mut MineStats, observer: &mut O, message: String) {
    stats.spill_cleanup_failures += 1;
    observer.on(Event::Warning(&WarningEvent {
        kind: "spill-cleanup".into(),
        message,
    }));
}

/// Best-effort removal of every spill record a job may have left
/// behind, run on any error exit after the handoff wrote records. Most
/// records are already gone (mined subtrees remove their own; `remove`
/// treats missing files as success) — this catches the ones orphaned
/// by the task that failed and by tasks that never ran.
fn sweep_spill_records<O: MineObserver>(job: &DfsJob, stats: &mut MineStats, observer: &mut O) {
    let Some(state) = &job.spill else { return };
    for record in 0..job.tasks.len() as u64 {
        if let Err(e) = state.io.remove(record) {
            let message = format!(
                "orphan spill record {record} could not be removed in the abort sweep: {e}"
            );
            cleanup_failed(stats, observer, message);
        }
    }
}

/// The engine core of every MPP and MPPm mine: breadth-first prelude
/// with eager evaluation, component handoff to depth-first subtree
/// tasks, and engine-wide peak-arena accounting, on
/// `config.threads` threads. Returns the outcome plus peak live arena
/// bytes.
///
/// The level events are emitted on every exit. An aborted run (memory
/// ceiling, spill I/O, a failed worker) still reports each level it
/// aggregated before the failure, so its trace shows how far it got.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_hybrid<O: MineObserver>(
    seq: &Sequence,
    counts: &OffsetCounts,
    rho: &BigRatio,
    n: usize,
    config: &MppConfig,
    seed: PilSet,
    hooks: PoolHooks,
    mut stats_seed: Option<MineStats>,
    observer: &mut O,
) -> Result<(MineOutcome, usize), MineError> {
    let threads = config.threads;
    let gap = counts.gap();
    let sigma = seq.alphabet().size() as u128;
    let start = SEED_LEVEL;
    let n = clamp_n(n, counts.l1());
    let env = Arc::new(RunEnv {
        gap,
        seq_len: seq.len(),
        window: WindowTable::new(seq, gap),
        n,
        rho: rho.clone(),
        hard_cap: config.max_level.unwrap_or(usize::MAX).min(counts.l2()),
        limit: config.max_arena_bytes,
        live: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        hooks,
        pruner: Pruner::new(&config.prune, gap.flexibility()),
    });
    let pruner = &env.pruner;

    let mut stats = stats_seed.take().unwrap_or_default();
    stats.n_used = n;
    let mut pool_events: Vec<PoolLevelEvent> = Vec::new();
    let mut subtree_events: Vec<SubtreeEvent> = Vec::new();
    let mut restore_events: Vec<RestoreEvent> = Vec::new();
    let mut spill_event: Option<SpillEvent> = None;

    // `MppConfig::check` refuses a spill backend without a ceiling.
    let spill_io = config.spill.clone();
    let watermark_bytes = config
        .max_arena_bytes
        .map(|cap| (cap as f64 * config.spill_watermark) as usize);

    let pool = (threads > 1).then(|| WorkerPool::<DfsJob>::new(threads - 1));
    let mut ctx = env.task_ctx(counts);

    let mine = || -> Result<(), MineError> {
        if env.hard_cap < start || counts.n(start).is_zero() {
            return Ok(());
        }
        let mut current = seed;
        let mut cur_bytes = current.arena_bytes();
        ctx.gauge.grow(cur_bytes)?;

        // Seed filter — the only level whose members were not already
        // evaluated at generation time.
        let filter_started = Instant::now();
        let row = ctx.bounds.row(start).clone();
        let mut seed_level = LevelAgg {
            candidates: sigma.saturating_pow(start as u32),
            evaluated: current.len(),
            saturated: current.saturated(),
            arena_bytes: cur_bytes,
            ..LevelAgg::default()
        };
        let mut kept: Vec<usize> = Vec::new();
        for i in 0..current.len() {
            let codes = || current.pattern_codes(i);
            let (is_frequent, is_kept) =
                admit(&row, pruner, current.support(i), codes, &mut ctx.frequent);
            seed_level.frequent += usize::from(is_frequent);
            if is_kept {
                kept.push(i);
            }
        }
        seed_level.kept = kept.len();
        seed_level.elapsed = filter_started.elapsed();
        ctx.aggs.insert(start, seed_level);

        // The serial prelude writes each generation into the buffers
        // the generation before last left behind.
        let mut spare = PilSet::new(start);
        let mut level = start;
        loop {
            if kept.is_empty() || !ctx.extends(level) {
                return Ok(());
            }
            let index = JoinIndex::new(&current, &kept);
            // Hand off by work, not by connectivity: on a pool, a
            // component holding more than half of the survivors would
            // run as one subtree on one worker while the others idle,
            // so the prelude keeps chunking the level. One thread always
            // hands off (its depth-first chains keep memory low), and so
            // does a run that may spill, which decides at the first
            // split at every thread count.
            let hand_off = |comps: &Vec<Vec<usize>>| {
                threads == 1
                    || spill_io.is_some()
                    || comps.iter().all(|c| 2 * c.len() <= kept.len())
            };
            if let Some(mut comps) = split_components(&kept, &index).filter(hand_off) {
                // Subtree tasks allocate their own generations: free the
                // prelude's spare buffers before they run.
                drop(std::mem::take(&mut spare));
                // Pruned modes: drop dead components before they become
                // tasks (or spill records). The handoff proceeds even if
                // only one component stays viable.
                comps.retain(|comp| pruner.component_viable(&current, comp));
                if comps.is_empty() {
                    ctx.gauge.shrink(cur_bytes);
                    return Ok(());
                }
                // Handoff: every component is an independent subtree.
                // Only the main thread has grown the gauge so far, so
                // `live == cur_bytes` here and the spill decision is
                // deterministic across thread counts.
                let spilling = spill_io.is_some()
                    && watermark_bytes.is_some_and(|wm| env.live.load(Ordering::Relaxed) >= wm);
                let (tasks, state): (Vec<DfsTask>, Option<SpillState>) = if spilling {
                    let io = Arc::clone(spill_io.as_ref().expect("spill decision needs a backend"));
                    let spill_started = Instant::now();
                    let mut bytes_written = 0u64;
                    let mut tasks = Vec::with_capacity(comps.len());
                    for (r, comp) in comps.iter().enumerate() {
                        let record = r as u64;
                        let bytes = spill::encode_record(record, &current, comp);
                        if let Err(e) = io.write(record, &bytes) {
                            // Best-effort cleanup of records already on
                            // disk before surfacing the typed error.
                            for done in 0..record {
                                if let Err(re) = io.remove(done) {
                                    let message = format!("spill record {done} could not be removed after record {r} failed to write: {re}");
                                    cleanup_failed(&mut stats, observer, message);
                                }
                            }
                            return Err(spill::spill_err(record, e.to_string()));
                        }
                        bytes_written += bytes.len() as u64;
                        let best = pruner.component_best(&current, comp);
                        tasks.push(DfsTask::SpilledSubtree { record, best });
                    }
                    let records = comps.len() as u64;
                    stats.spilled_records = records;
                    stats.spilled_bytes = bytes_written;
                    spill_event = Some(SpillEvent {
                        level,
                        records,
                        bytes: bytes_written,
                        live_bytes: env.live.load(Ordering::Relaxed),
                        watermark_bytes: watermark_bytes.unwrap_or(0),
                        elapsed: spill_started.elapsed(),
                    });
                    // Release the cold base before any subtree runs:
                    // each worker re-charges only the component it is
                    // actively restoring.
                    ctx.gauge.shrink(cur_bytes);
                    current = PilSet::new(level);
                    kept = Vec::new();
                    (tasks, Some(SpillState::new(io, records as usize)))
                } else {
                    (comps.into_iter().map(DfsTask::Subtree).collect(), None)
                };
                let job = DfsJob::new(&env, &mut ctx.bounds, current, kept, index, tasks, state);
                let outs = match &pool {
                    Some(pool) => match pool.run(Arc::clone(&job)) {
                        Ok((outs, event)) => {
                            pool_events.push(event);
                            outs
                        }
                        Err(e) => {
                            sweep_spill_records(&job, &mut stats, observer);
                            return Err(e);
                        }
                    },
                    // One thread: run the tasks in order, up to the first
                    // that fails.
                    None => {
                        let mut outs = Vec::with_capacity(job.n_items());
                        for i in 0..job.n_items() {
                            outs.push(job.process(i));
                            if outs[i].is_err() {
                                break;
                            }
                        }
                        outs
                    }
                };
                // Consume every task result before surfacing a failure:
                // an early return here would skip the spill sweep and
                // strand the records of tasks that never ran.
                let mut first_err: Option<MineError> = None;
                for out in outs {
                    let t = match out {
                        Ok(t) => t,
                        Err(e) => {
                            first_err.get_or_insert(e);
                            continue;
                        }
                    };
                    for (l, a) in t.aggs {
                        ctx.aggs.entry(l).or_default().absorb(a);
                    }
                    ctx.frequent.extend(t.frequent);
                    if let Some(ev) = t.subtree {
                        subtree_events.push(ev);
                    }
                    if let Some(ev) = t.restore {
                        stats.restored_records += 1;
                        stats.restored_bytes += ev.bytes;
                        restore_events.push(ev);
                    }
                    if let Some(message) = t.cleanup_failure {
                        cleanup_failed(&mut stats, observer, message);
                    }
                }
                if let Some(e) = first_err {
                    sweep_spill_records(&job, &mut stats, observer);
                    return Err(e);
                }
                if !spilling {
                    ctx.gauge.shrink(cur_bytes);
                }
                return Ok(());
            }

            // One component, or a lopsided split on a pool: step to the
            // next level, on chunk tasks when the fan-out is wide enough
            // to pay for the handoff. The prelude never depended on
            // connectivity; components only make subtrees independent.
            let producer = match &pool {
                Some(pool) if kept.len() >= PARALLEL_THRESHOLD => {
                    let chunk = kept
                        .len()
                        .div_ceil(threads * CHUNKS_PER_THREAD)
                        .max(MIN_CHUNK);
                    let tasks = (0..kept.len())
                        .step_by(chunk)
                        .map(|lo| DfsTask::Chunk(lo..(lo + chunk).min(kept.len())))
                        .collect();
                    let base = std::mem::take(&mut current);
                    let members = std::mem::take(&mut kept);
                    Producer::Pooled {
                        pool,
                        job: DfsJob::new(&env, &mut ctx.bounds, base, members, index, tasks, None),
                        events: &mut pool_events,
                    }
                }
                _ => {
                    let mut next = std::mem::take(&mut spare);
                    next.reset(level + 1);
                    Producer::Serial(&current, &kept, &index, next)
                }
            };
            let Some((next, next_bytes)) = ctx.step(level, cur_bytes, producer)? else {
                return Ok(());
            };
            spare = std::mem::replace(&mut current, next);
            cur_bytes = next_bytes;
            kept.clear();
            kept.extend(0..current.len());
            level += 1;
        }
    };
    let run = mine();
    let TaskCtx { aggs, frequent, .. } = ctx;

    for (&level, agg) in &aggs {
        stats.support_saturated |= agg.saturated;
        stats.levels.push(LevelStats {
            level,
            candidates: agg.candidates,
            frequent: agg.frequent,
            extended: agg.kept,
            elapsed: agg.elapsed,
        });
        observer.on(Event::Level(&LevelEvent {
            level,
            candidates: agg.candidates,
            evaluated: agg.evaluated,
            frequent: agg.frequent,
            kept: agg.kept,
            pruned_bound: agg.evaluated - agg.kept,
            pruned_support: agg.evaluated - agg.frequent,
            arena_bytes: agg.arena_bytes,
            joins: agg.jc.joins,
            probed: agg.jc.probed,
            reallocs: agg.jc.reallocs,
            bytes_moved: agg.jc.bytes_moved,
            join_elapsed: agg.join_elapsed,
            elapsed: agg.elapsed,
            saturated: agg.saturated,
        }));
    }
    if let Some(ev) = &spill_event {
        observer.on(Event::Spill(ev));
    }
    for ev in &pool_events {
        observer.on(Event::Pool(ev));
    }
    subtree_events.sort_by_key(|e| e.index);
    for ev in &subtree_events {
        observer.on(Event::Subtree(ev));
    }
    restore_events.sort_by_key(|e| e.record);
    for ev in &restore_events {
        observer.on(Event::Restore(ev));
    }
    run?;

    let peak = env.peak.load(Ordering::Relaxed);
    let mut outcome = MineOutcome { frequent, stats };
    pruner.finish(&mut outcome);
    Ok((outcome, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::build_seed;
    use crate::mpp::{mine, prepare, Algorithm};
    use crate::naive::support_dp;
    use crate::reference::mpp_reference;
    use crate::trace::{MetricsObserver, NoopObserver};
    use perigap_seq::gen::iid::{uniform, weighted};
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// MPP at `n` on `threads` threads, with `observer` attached.
    fn run_mpp<O: MineObserver>(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        n: usize,
        config: MppConfig,
        threads: usize,
        observer: &mut O,
    ) -> Result<MineOutcome, MineError> {
        let config = MppConfig { threads, ..config };
        mine(seq, g, rho, Algorithm::Mpp { n }, &config, observer)
    }

    /// The frequent set, supports, ratios, `n_used`, saturation and
    /// every level's `(level, candidates, frequent, extended)` agree.
    fn assert_counters_match(got: &MineOutcome, want: &MineOutcome, label: &str) {
        assert_eq!(got.frequent.len(), want.frequent.len(), "{label}");
        for (a, b) in got.frequent.iter().zip(&want.frequent) {
            assert_eq!(a.pattern, b.pattern, "{label}");
            assert_eq!(a.support, b.support, "{label}");
            assert!((a.ratio - b.ratio).abs() < 1e-12, "{label}");
        }
        assert_eq!(got.stats.n_used, want.stats.n_used, "{label}");
        assert_eq!(
            got.stats.support_saturated, want.stats.support_saturated,
            "{label}"
        );
        assert_eq!(got.stats.levels.len(), want.stats.levels.len(), "{label}");
        for (a, b) in got.stats.levels.iter().zip(&want.stats.levels) {
            assert_eq!(a.level, b.level, "{label}");
            assert_eq!(a.candidates, b.candidates, "{label} level {}", a.level);
            assert_eq!(a.frequent, b.frequent, "{label} level {}", a.level);
            assert_eq!(a.extended, b.extended, "{label} level {}", a.level);
        }
    }

    #[test]
    fn dfs_matches_bfs_exactly() {
        // The breadth-first side is the reference miner, which
        // materialises every level whole.
        let seq = uniform(&mut StdRng::seed_from_u64(95), Alphabet::Dna, 400);
        let g = gap(1, 3);
        let rho = 0.0008;
        let bfs = mpp_reference(&seq, g, rho, 12, MppConfig::default()).unwrap();
        for threads in [1usize, 4] {
            let dfs = run_mpp(
                &seq,
                g,
                rho,
                12,
                MppConfig::default(),
                threads,
                &mut NoopObserver,
            )
            .unwrap();
            assert_counters_match(&dfs, &bfs, &format!("{threads} threads"));
        }
    }

    #[test]
    fn saturated_counts_are_flagged_and_bound_the_support() {
        // 80 × A under gap 0:3: the count of A^l's offset sequences from
        // one offset first passes 2⁶⁴ at level 34, where the kept
        // candidate's join clamps. Its support is still exact there,
        // counted from level 33's exact counts; deeper supports are
        // counted from clamped counts and fall short (here level 35
        // misses the threshold, although every A^l has ratio 1).
        let seq = Sequence::dna(&"A".repeat(80)).unwrap();
        let g = gap(0, 3);
        for threads in [1usize, 2] {
            let mut metrics = MetricsObserver::new();
            let config = MppConfig::default();
            let out = run_mpp(&seq, g, 0.5, 80, config, threads, &mut metrics).unwrap();
            assert!(out.stats.support_saturated, "{threads} threads");
            let first_clamp = metrics.levels.iter().find(|e| e.saturated).map(|e| e.level);
            assert_eq!(first_clamp, Some(34), "{threads} threads");
            assert!(out.longest_len() >= 34, "{threads} threads");
            for f in &out.frequent {
                let exact = support_dp(&seq, g, &f.pattern);
                assert!(f.support <= exact, "length {}", f.len());
                if f.len() <= 34 {
                    assert_eq!(f.support, exact, "length {}", f.len());
                }
            }
        }
    }

    #[test]
    fn pooled_prelude_matches_serial() {
        // 20^3 = 8000 seed patterns: the single-component prelude must
        // cross PARALLEL_THRESHOLD and exercise the chunked fan-out.
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let g = gap(0, 2);
        let rho = 1e-6;
        let serial = run_mpp(&seq, g, rho, 6, MppConfig::default(), 1, &mut NoopObserver).unwrap();
        assert!(serial.stats.levels[0].extended >= PARALLEL_THRESHOLD);
        for threads in [2usize, 4] {
            let pooled = run_mpp(
                &seq,
                g,
                rho,
                6,
                MppConfig::default(),
                threads,
                &mut NoopObserver,
            )
            .unwrap();
            assert_counters_match(&pooled, &serial, &format!("{threads} threads"));
        }
    }

    #[test]
    fn component_split_hands_off_subtrees() {
        // ATATAT… with gap [1,1]: the A-run and T-run never join each
        // other, so the survivor set splits immediately and each side
        // mines as its own depth-first subtree.
        let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
        let g = gap(1, 1);
        let bfs = mpp_reference(&seq, g, 0.4, 20, MppConfig::default()).unwrap();
        for threads in [1usize, 2] {
            let mut metrics = MetricsObserver::new();
            let dfs = run_mpp(
                &seq,
                g,
                0.4,
                20,
                MppConfig::default(),
                threads,
                &mut metrics,
            )
            .unwrap();
            assert_counters_match(&dfs, &bfs, &format!("{threads} threads"));
            assert!(
                metrics.subtrees.len() >= 2,
                "expected a component handoff, got {} subtree events",
                metrics.subtrees.len()
            );
            assert!(dfs.longest_len() >= 10);
            for ev in &metrics.subtrees {
                assert!(ev.deepest >= ev.level);
                assert!(ev.evaluated > 0);
            }
        }
    }

    /// A/T-rich DNA whose survivors first split at level 6, with 2,743
    /// of the 2,744 in one component (gap 0:5, ρ = 1e-4, `n = 8`).
    fn lopsided_split_fixture() -> Sequence {
        let weights = [0.35, 0.15, 0.15, 0.35];
        weighted(
            &mut StdRng::seed_from_u64(0),
            Alphabet::Dna,
            1_200,
            &weights,
        )
    }

    #[test]
    fn lopsided_split_stays_on_the_pool() {
        let seq = lopsided_split_fixture();
        let (g, rho) = (gap(0, 5), 1e-4);
        let reference = mpp_reference(&seq, g, rho, 8, MppConfig::default()).unwrap();
        let mut serial = MetricsObserver::new();
        let one = run_mpp(&seq, g, rho, 8, MppConfig::default(), 1, &mut serial).unwrap();
        assert_counters_match(&one, &reference, "1 thread");
        assert!(
            !serial.subtrees.is_empty(),
            "one thread still hands the split off"
        );

        let mut pooled = MetricsObserver::new();
        let two = run_mpp(&seq, g, rho, 8, MppConfig::default(), 2, &mut pooled).unwrap();
        assert_counters_match(&two, &one, "2 threads");
        assert_eq!(pooled.levels.len(), serial.levels.len());
        for (a, b) in pooled.levels.iter().zip(&serial.levels) {
            let counters = |e: &LevelEvent| {
                (
                    e.level,
                    e.candidates,
                    e.evaluated,
                    e.frequent,
                    e.kept,
                    e.joins,
                    e.probed,
                )
            };
            assert_eq!(counters(a), counters(b));
        }
        let kept: BTreeMap<usize, usize> =
            pooled.levels.iter().map(|e| (e.level, e.kept)).collect();
        for ev in &pooled.subtrees {
            assert!(
                2 * ev.patterns <= kept[&ev.level],
                "subtree {} holds {} of the {} patterns kept at level {}",
                ev.index,
                ev.patterns,
                kept[&ev.level],
                ev.level
            );
        }
        assert!(
            pooled.pool.iter().any(|p| p.level == 7),
            "the lopsided level-6 split must be chunked on the pool"
        );
    }

    #[test]
    fn spill_backend_keeps_the_handoff_at_two_threads() {
        use crate::spill::MemSpillIo;
        let seq = lopsided_split_fixture();
        let (g, rho) = (gap(0, 5), 1e-4);
        let free = run_mpp(&seq, g, rho, 8, MppConfig::default(), 2, &mut NoopObserver).unwrap();
        // A zero watermark spills at the first split; the ceiling is
        // far above anything the run holds. The spill must happen at
        // the same split, with the same records, at both thread counts.
        let mut spills = Vec::new();
        for threads in [1usize, 2] {
            let config = MppConfig {
                max_arena_bytes: Some(1 << 40),
                spill_watermark: 0.0,
                spill: Some(Arc::new(MemSpillIo::default())),
                ..MppConfig::default()
            };
            let mut metrics = MetricsObserver::new();
            let spilled = run_mpp(&seq, g, rho, 8, config, threads, &mut metrics).unwrap();
            let label = format!("spill on {threads} threads");
            assert_counters_match(&spilled, &free, &label);
            assert!(spilled.stats.spilled_records >= 1, "{label}: must spill");
            assert_eq!(
                spilled.stats.restored_records, spilled.stats.spilled_records,
                "{label}"
            );
            assert_eq!(
                spilled.stats.restored_bytes, spilled.stats.spilled_bytes,
                "{label}"
            );
            let [ev] = &metrics.spills[..] else {
                panic!("{label}: {} spill events", metrics.spills.len());
            };
            spills.push((ev.level, ev.records, ev.bytes));
        }
        assert_eq!(spills[0], spills[1], "the spill decision moved");
        assert_eq!(spills[0].0, 6, "spilled at the first split");
    }

    #[test]
    fn peak_arena_holds_survivors_only() {
        // One thread: at most one generation per level is live at any
        // time, and every generation holds survivors only. So the peak
        // is bounded by the survivor arenas summed over the levels, and
        // at least the widest arena the prelude charged.
        let seq = uniform(&mut StdRng::seed_from_u64(41), Alphabet::Dna, 2_000);
        let g = gap(0, 3);
        let rho = 0.0003;
        let mut metrics = MetricsObserver::new();
        run_mpp(&seq, g, rho, 8, MppConfig::default(), 1, &mut metrics).unwrap();
        let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes;
        let survivors: usize = metrics.levels.iter().map(|l| l.arena_bytes).sum();
        let seed = metrics.levels[0].arena_bytes;
        assert!(peak >= seed && seed > 0, "peak {peak} vs seed {seed}");
        assert!(
            peak <= survivors,
            "peak {peak} above the summed survivor arenas {survivors}"
        );
    }

    #[test]
    fn memory_ceiling_aborts_with_trace_event() {
        let seq = uniform(&mut StdRng::seed_from_u64(42), Alphabet::Dna, 400);
        let config = MppConfig {
            max_arena_bytes: Some(16),
            ..MppConfig::default()
        };
        let mut metrics = MetricsObserver::new();
        let result = run_mpp(&seq, gap(0, 3), 0.0008, 10, config, 2, &mut metrics);
        match result {
            Err(MineError::MemoryCeiling { limit, required }) => {
                assert_eq!(limit, 16);
                assert!(required > 16);
            }
            other => panic!("expected MemoryCeiling, got {other:?}"),
        }
        let abort = metrics.abort.expect("abort event must be emitted");
        assert!(abort.message.contains("ceiling"), "{}", abort.message);
        assert!(metrics.complete.is_none());
    }

    #[test]
    fn aborted_mine_reports_its_completed_levels() {
        // A ceiling between the seed and the widest level: the run gets
        // a few levels deep, then aborts. Every level it finished must
        // still reach the trace, ahead of the abort line.
        let seq = uniform(&mut StdRng::seed_from_u64(43), Alphabet::Dna, 2_000);
        let (g, rho) = (gap(0, 3), 0.0003);
        let mut free = MetricsObserver::new();
        run_mpp(&seq, g, rho, 8, MppConfig::default(), 1, &mut free).unwrap();
        let peak = free.complete.as_ref().unwrap().peak_arena_bytes;
        let seed = free.levels[0].arena_bytes;
        assert!(seed < peak / 2, "fixture needs a peak well above the seed");
        for threads in [1usize, 2] {
            let config = MppConfig {
                max_arena_bytes: Some(peak / 2),
                ..MppConfig::default()
            };
            let mut metrics = MetricsObserver::new();
            let result = run_mpp(&seq, g, rho, 8, config, threads, &mut metrics);
            assert!(matches!(result, Err(MineError::MemoryCeiling { .. })));
            assert!(metrics.abort.is_some());
            assert!(
                metrics.levels.len() >= 2,
                "{threads} threads: {} level events before the abort",
                metrics.levels.len()
            );
            // The levels run in order from the seed; the seed level is
            // whole. (A level mined across subtree tasks may be partial:
            // a failed task's counts are lost with it.)
            for (got, want) in metrics.levels.iter().zip(&free.levels) {
                assert_eq!(got.level, want.level);
            }
            assert_eq!(metrics.levels[0].candidates, free.levels[0].candidates);
            assert_eq!(metrics.levels[0].kept, free.levels[0].kept);
        }
    }

    #[test]
    fn worker_panic_in_subtree_surfaces_as_error_not_hang() {
        // The AT-repeat workload splits into 2 components at the seed
        // level, so the handoff happens immediately and a worker is
        // guaranteed to claim (and die on) a subtree task.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
            let g = gap(1, 1);
            let config = MppConfig {
                threads: 4,
                ..MppConfig::default()
            };
            let hooks = PoolHooks {
                panic_workers: true,
                main_no_steal: true,
            };
            let result = prepare(&seq, g, 0.4, &config).and_then(|(counts, rho_exact)| {
                let pils = build_seed(&seq, g, SEED_LEVEL);
                run_hybrid(
                    &seq,
                    &counts,
                    &rho_exact,
                    20,
                    &config,
                    pils,
                    hooks,
                    None,
                    &mut NoopObserver,
                )
                .map(|(outcome, _)| outcome)
            });
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
    fn mem_gauge_shares_check_ceiling_boundary() {
        // Same semantics as `check_ceiling`: exactly at the cap is
        // fine, one byte over aborts.
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut gauge = MemGauge::new(&live, &peak, Some(100));
        gauge.grow(100).expect("live == cap must pass");
        match gauge.grow(1) {
            Err(MineError::MemoryCeiling { limit, required }) => {
                assert_eq!((limit, required), (100, 101));
            }
            other => panic!("expected MemoryCeiling, got {other:?}"),
        }
        assert_eq!(
            peak.load(Ordering::Relaxed),
            101,
            "peak records the overshoot"
        );
        // A gauge dropped mid-chain (a failed task) releases what it
        // still holds; the peak stays.
        drop(gauge);
        assert_eq!(live.load(Ordering::Relaxed), 0);
        assert_eq!(peak.load(Ordering::Relaxed), 101);
    }

    #[test]
    fn spill_completes_under_ceiling_that_otherwise_aborts() {
        use crate::spill::MemSpillIo;
        let seq = Sequence::dna(&"AT".repeat(50)).unwrap();
        let g = gap(1, 1);

        // Unbounded baseline: record the true peak.
        let mut free_metrics = MetricsObserver::new();
        let free = run_mpp(&seq, g, 0.4, 20, MppConfig::default(), 1, &mut free_metrics).unwrap();
        let peak = free_metrics.complete.as_ref().unwrap().peak_arena_bytes;
        assert!(peak > 0);
        let cap = peak - 1;

        // Under that cap without spilling, the run must abort …
        let no_spill = MppConfig {
            max_arena_bytes: Some(cap),
            ..MppConfig::default()
        };
        assert!(matches!(
            run_mpp(&seq, g, 0.4, 20, no_spill, 1, &mut NoopObserver),
            Err(MineError::MemoryCeiling { .. })
        ));

        // … and with spilling it completes bit-identically, with the
        // counters and trace events firing. One thread gets the tight
        // cap; two threads mine both restored components concurrently
        // (their live sets stack), so they get headroom — the zero
        // watermark still forces the spill path either way.
        for (threads, cap) in [(1usize, cap), (2usize, peak * 2)] {
            let io = Arc::new(MemSpillIo::default());
            let config = MppConfig {
                max_arena_bytes: Some(cap),
                spill_watermark: 0.0,
                spill: Some(io),
                ..MppConfig::default()
            };
            let mut metrics = MetricsObserver::new();
            let spilled = run_mpp(&seq, g, 0.4, 20, config, threads, &mut metrics).unwrap();
            assert_counters_match(&spilled, &free, &format!("spill on {threads} threads"));
            assert!(spilled.stats.spilled_records >= 2, "handoff must spill");
            assert_eq!(
                spilled.stats.restored_records,
                spilled.stats.spilled_records
            );
            assert_eq!(spilled.stats.restored_bytes, spilled.stats.spilled_bytes);
            assert!(spilled.stats.spilled_bytes > 0);
            assert_eq!(metrics.spills.len(), 1);
            assert_eq!(
                metrics.restores.len() as u64,
                spilled.stats.restored_records
            );
            let spill_peak = metrics.complete.as_ref().unwrap().peak_arena_bytes;
            assert!(
                spill_peak <= cap,
                "spilling must hold the peak under the cap: {spill_peak} vs {cap}"
            );
        }
    }
}
