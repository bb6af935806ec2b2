//! The mining engine behind every MPP and MPPm mine ([`crate::mpp::mine`]).
//!
//! Figure 3 of the paper counts each candidate's support and tests it
//! against the level's bounds as the candidate is produced. This engine
//! does the same: a candidate is evaluated against the exact and
//! Theorem 1 bounds the moment its join finishes, and only survivors
//! are written to the next generation's arena. Nothing is stored for a
//! candidate that fails both bounds.
//!
//! The run starts breadth-first (the *prelude*). When the survivors
//! split into two or more prefix-run components it may *hand off*: each
//! component goes to the worker pool as an independent **depth-first
//! subtree task**. Inside a subtree the engine keeps a
//! *double-buffered* chain — the parent generation and the generation
//! under construction — so live arena bytes along a chain are
//! O(deepest chain), not O(widest level).
//!
//! Serial mining is [`MppConfig::threads`] `= 1`: no pool is spawned, the calling
//! thread runs every chunk and subtree itself, and the first split
//! always hands off. With more threads, a wide prelude level is split
//! into chunks of left parents on one shared [`WorkerPool`], and a
//! split hands off only when no component holds more than half of the
//! survivors: a subtree runs on one worker, so a dominant component
//! would leave the others idle. A lopsided split stays in the chunked
//! prelude until a later level splits evenly. A run with a spill
//! backend hands off at the first split at every thread count, because
//! that is where spilling is decided.
//!
//! Each candidate is one call of the join kernel
//! ([`crate::pil::join_into`]) into one reused output list, and each
//! level finds every member's join partners with one forward merge
//! ([`partner_runs`]).
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
//! [`BoundTable`] rows are consulted for the same partner pairs.
//! Durations and `arena_bytes` are schedule-dependent: a level's
//! elapsed time is the summed generation+evaluation time that
//! *produced* it, and `arena_bytes` covers the surviving arenas only.

use crate::arena::{partner_runs, prefix_runs, PilSet, NO_PARTNER};
use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::{BoundRow, BoundTable};
use crate::mpp::{check_ceiling, clamp_n, MppConfig};
use crate::parallel::{
    PoolHooks, PoolJob, WorkerPool, CHUNKS_PER_THREAD, MIN_CHUNK, PARALLEL_THRESHOLD,
};
use crate::pattern::Pattern;
use crate::pil::{join_into, JoinCounters, Pil};
use crate::prune::Pruner;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use crate::spill::{self, SpillState};
use crate::trace::{
    AbortEvent, CompleteEvent, LevelEvent, MineObserver, PoolLevelEvent, RestoreEvent, SpillEvent,
    SubtreeEvent, WarningEvent,
};
use perigap_math::BigRatio;
use perigap_seq::Sequence;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Per-level counter totals, merged across the prelude, chunk tasks,
/// and subtree tasks. Field-for-field the ingredients of one
/// [`LevelEvent`]/[`LevelStats`] pair.
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

/// Merge `add` into the slot for `level`.
fn absorb(aggs: &mut BTreeMap<usize, LevelAgg>, level: usize, add: LevelAgg) {
    let a = aggs.entry(level).or_default();
    a.candidates += add.candidates;
    a.evaluated += add.evaluated;
    a.frequent += add.frequent;
    a.kept += add.kept;
    a.saturated |= add.saturated;
    a.arena_bytes += add.arena_bytes;
    a.jc.absorb(&add.jc);
    a.join_elapsed += add.join_elapsed;
    a.elapsed += add.elapsed;
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

/// Counters from one [`eager_generate`] call.
#[derive(Default)]
struct EagerStats {
    evaluated: usize,
    frequent: usize,
    kept: usize,
    saturated: bool,
    jc: JoinCounters,
}

/// Reusable working buffers for [`eager_generate`], bundled so callers
/// amortise their allocations across generation steps: `out` takes
/// each candidate's join, `codes` its pattern.
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

/// Generate the level `set.level() + 1` candidates whose left parent is
/// `members[lo..hi]`, evaluating each against `row` the moment it is
/// produced. Frequent candidates are appended to `frequent`; candidates
/// passing the extension bound are appended to `next`. Every partner
/// pair is counted in `evaluated` (empty joins included): the paper's
/// per-level candidate count.
///
/// Each (left parent, partner) pair is one [`join_into`] call into
/// `bufs.out`; only survivors are copied into `next`.
#[allow(clippy::too_many_arguments)]
fn eager_generate(
    set: &PilSet,
    members: &[usize],
    index: &JoinIndex,
    lo: usize,
    hi: usize,
    gap: GapRequirement,
    row: &BoundRow,
    next: &mut PilSet,
    bufs: &mut EagerBufs,
    frequent: &mut Vec<FrequentPattern>,
    pruner: &Pruner,
) -> EagerStats {
    let level = set.level();
    let mut st = EagerStats::default();
    for (k, &i) in members.iter().enumerate().take(hi).skip(lo) {
        let p1 = set.pattern_codes(i);
        // Pruned modes: a left parent outside the target cone or under
        // the top-k floor cannot contribute an admissible candidate.
        if !pruner.admits_parent(p1, || set.support(i)) {
            continue;
        }
        let Some((s, e)) = index.partners_of(k) else {
            continue;
        };
        let (left, _) = set.entries(i);
        for &m in &members[s..e] {
            let (offsets, counts) = set.entries(m);
            bufs.out.clear();
            st.saturated |= join_into(left, offsets, counts, gap, &mut bufs.out, &mut st.jc);
            st.evaluated += 1;
            let sup = bufs.out.support();
            let mut admitted_exact = row.exact.admits_u128(sup);
            let mut admitted_lhat = row.lhat.admits_u128(sup);
            if (admitted_exact || admitted_lhat) && !pruner.admits_search(sup) {
                continue;
            }
            if admitted_exact || admitted_lhat {
                bufs.codes.clear();
                bufs.codes.extend_from_slice(p1);
                bufs.codes.push(set.pattern_codes(m)[level - 1]);
                admitted_exact = admitted_exact && pruner.admits_result(&bufs.codes, sup);
                admitted_lhat = admitted_lhat && pruner.admits_frontier(&bufs.codes);
            }
            if admitted_exact {
                frequent.push(FrequentPattern {
                    pattern: Pattern::from_codes(bufs.codes.clone()),
                    support: sup,
                    ratio: sup as f64 / row.n_f64,
                });
                st.frequent += 1;
            }
            if admitted_lhat {
                next.push_pattern(&bufs.codes, (bufs.out.offsets(), bufs.out.counts()));
                st.kept += 1;
            }
        }
    }
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

/// One pool item of the engine.
enum DfsTask {
    /// Prelude chunk: eager-generate for left parents
    /// `members[lo..hi]` of the shared base generation.
    Chunk { lo: usize, hi: usize },
    /// Depth-first subtree over one component's base-level members.
    Subtree { members: Vec<usize> },
    /// A subtree whose base component was serialized to the spill
    /// backend at handoff; the processing worker restores it first.
    /// `best` is the component's best cone-admissible support at spill
    /// time — if the top-k floor passes it by restore time the record
    /// is dropped unread (see [`DfsJob::process_spilled`]).
    SpilledSubtree { record: u64, best: u128 },
}

/// What one [`DfsTask`] returns (inside `Ok`; a task that trips the
/// memory ceiling returns the error as its output value).
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
    base: PilSet,
    /// Survivor indices into `base`, ascending.
    members: Vec<usize>,
    /// The join index over `members`.
    index: JoinIndex,
    tasks: Vec<DfsTask>,
    gap: GapRequirement,
    seq_len: usize,
    base_level: usize,
    n: usize,
    rho: BigRatio,
    hard_cap: usize,
    limit: Option<usize>,
    live: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
    /// The `base_level + 1` bound row, built once on the main thread so
    /// chunk tasks skip per-task bound construction.
    first_row: BoundRow,
    /// Present when the base generation was spilled: the backend plus
    /// the once-only claim guard for each record.
    spill: Option<SpillState>,
    cursor: AtomicUsize,
    hooks: PoolHooks,
    /// Shared pruning state (floor + target) across every task.
    pruner: Pruner,
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
        &self.hooks
    }

    fn progress_level(&self) -> usize {
        self.base_level + 1
    }

    fn process(&self, item: usize) -> Self::Out {
        match &self.tasks[item] {
            DfsTask::Chunk { lo, hi } => self.process_chunk(*lo, *hi),
            DfsTask::Subtree { members } => self.process_subtree(item, members),
            DfsTask::SpilledSubtree { record, best } => self.process_spilled(item, *record, *best),
        }
    }

    fn out_weight(out: &Self::Out) -> usize {
        match out {
            Ok(t) => t.aggs.iter().map(|(_, a)| a.evaluated).sum(),
            Err(_) => 0,
        }
    }
}

impl DfsJob {
    fn process_chunk(&self, lo: usize, hi: usize) -> Result<TaskOut, MineError> {
        let started = Instant::now();
        let mut next = PilSet::new(self.base_level + 1);
        let mut bufs = EagerBufs::default();
        let mut frequent: Vec<FrequentPattern> = Vec::new();
        let st = eager_generate(
            &self.base,
            &self.members,
            &self.index,
            lo,
            hi,
            self.gap,
            &self.first_row,
            &mut next,
            &mut bufs,
            &mut frequent,
            &self.pruner,
        );
        let elapsed = started.elapsed();
        let agg = LevelAgg {
            candidates: st.evaluated as u128,
            evaluated: st.evaluated,
            frequent: st.frequent,
            kept: st.kept,
            saturated: st.saturated,
            arena_bytes: next.arena_bytes(),
            jc: st.jc,
            join_elapsed: elapsed,
            elapsed,
        };
        Ok(TaskOut {
            part: Some(next),
            aggs: vec![(self.base_level + 1, agg)],
            frequent,
            subtree: None,
            restore: None,
            cleanup_failure: None,
        })
    }

    fn process_subtree(&self, item: usize, members: &[usize]) -> Result<TaskOut, MineError> {
        let started = Instant::now();
        // `OffsetCounts` caches are `!Sync`, so each task builds its own
        // (cheap: the tables are lazy and shallow at mining depths).
        let counts = OffsetCounts::new(self.seq_len, self.gap);
        let mut ctx = TaskCtx {
            gap: self.gap,
            hard_cap: self.hard_cap,
            counts: &counts,
            bounds: BoundTable::new(&counts, &self.rho, self.n),
            gauge: MemGauge::new(&self.live, &self.peak, self.limit),
            bufs: EagerBufs::default(),
            aggs: BTreeMap::new(),
            frequent: Vec::new(),
            deepest: self.base_level,
            pruner: self.pruner.clone(),
        };
        descend_split(&mut ctx, &self.base, members, self.base_level)?;
        let evaluated: usize = ctx.aggs.values().map(|a| a.evaluated).sum();
        let event = SubtreeEvent {
            index: item,
            level: self.base_level,
            patterns: members.len(),
            deepest: ctx.deepest,
            evaluated,
            frequent: ctx.frequent.len(),
            peak_arena_bytes: ctx.gauge.task_peak,
            elapsed: started.elapsed(),
        };
        Ok(TaskOut {
            part: None,
            aggs: ctx.aggs.into_iter().collect(),
            frequent: ctx.frequent,
            subtree: Some(event),
            restore: None,
            cleanup_failure: None,
        })
    }

    /// Restore one spilled component and mine it like
    /// [`process_subtree`]. The record is claimed exactly once across
    /// the pool (a stealing worker that re-dispatches a task can never
    /// restore the same bytes twice), its arena is re-charged to the
    /// shared gauge before any join runs, and the backing file is
    /// removed only after the subtree finished cleanly.
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
        if !self.pruner.admits_search(best) {
            let cleanup_failure = state.io.remove(record).err().map(|e| {
                format!(
                    "spill record {record} could not be removed after its subtree was pruned: {e}"
                )
            });
            return Ok(TaskOut {
                part: None,
                aggs: Vec::new(),
                frequent: Vec::new(),
                subtree: None,
                restore: None,
                cleanup_failure,
            });
        }
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
        let counts = OffsetCounts::new(self.seq_len, self.gap);
        let mut ctx = TaskCtx {
            gap: self.gap,
            hard_cap: self.hard_cap,
            counts: &counts,
            bounds: BoundTable::new(&counts, &self.rho, self.n),
            gauge: MemGauge::new(&self.live, &self.peak, self.limit),
            bufs: EagerBufs::default(),
            aggs: BTreeMap::new(),
            frequent: Vec::new(),
            deepest: self.base_level,
            pruner: self.pruner.clone(),
        };
        // The restored component is the hot working set: it goes back
        // on the gauge, and if even that overflows the ceiling the run
        // aborts with `MemoryCeiling` — spilling never hides a working
        // set that genuinely does not fit.
        let arena = set.arena_bytes();
        ctx.gauge.grow(arena)?;
        let members: Vec<usize> = (0..set.len()).collect();
        let res = descend_split(&mut ctx, &set, &members, self.base_level);
        ctx.gauge.shrink(arena);
        res?;
        let cleanup_failure = state.io.remove(record).err().map(|e| {
            format!("spill record {record} could not be removed after its subtree was mined: {e}")
        });
        let evaluated: usize = ctx.aggs.values().map(|a| a.evaluated).sum();
        let event = SubtreeEvent {
            index: item,
            level: self.base_level,
            patterns: set.len(),
            deepest: ctx.deepest,
            evaluated,
            frequent: ctx.frequent.len(),
            peak_arena_bytes: ctx.gauge.task_peak,
            elapsed: started.elapsed(),
        };
        Ok(TaskOut {
            part: None,
            aggs: ctx.aggs.into_iter().collect(),
            frequent: ctx.frequent,
            subtree: Some(event),
            restore: Some(restore),
            cleanup_failure,
        })
    }
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
            stats.spill_cleanup_failures += 1;
            observer.on_warning(&WarningEvent {
                kind: "spill-cleanup".into(),
                message: format!(
                    "orphan spill record {record} could not be removed in the abort sweep: {e}"
                ),
            });
        }
    }
}

/// Mutable state threaded through one subtree task's recursion.
struct TaskCtx<'a> {
    gap: GapRequirement,
    hard_cap: usize,
    counts: &'a OffsetCounts,
    bounds: BoundTable<'a>,
    gauge: MemGauge<'a>,
    bufs: EagerBufs,
    aggs: BTreeMap<usize, LevelAgg>,
    frequent: Vec<FrequentPattern>,
    deepest: usize,
    pruner: Pruner,
}

/// Split `members` of `set` (at `level`) into components and mine each;
/// a single component takes one generation step and continues as a
/// [`mine_chain`]. `set` is owned by the caller — its bytes are on the
/// caller's account, not this frame's.
fn descend_split(
    ctx: &mut TaskCtx<'_>,
    set: &PilSet,
    members: &[usize],
    level: usize,
) -> Result<(), MineError> {
    if members.is_empty() || level >= ctx.hard_cap || ctx.counts.n(level + 1).is_zero() {
        return Ok(());
    }
    // Pruned modes: a component with no member inside the target cone
    // and above the floor cannot contribute — its whole subtree dies
    // here (this is also where a restored spill component is dropped
    // when the floor climbed past it while it sat on disk).
    if !ctx.pruner.component_viable(set, members) {
        return Ok(());
    }
    let index = JoinIndex::new(set, members);
    if let Some(comps) = split_components(members, &index) {
        for comp in &comps {
            descend_split(ctx, set, comp, level)?;
        }
        return Ok(());
    }
    let gen_started = Instant::now();
    let mut next = PilSet::new(level + 1);
    let row = ctx.bounds.row(level + 1).clone();
    let st = eager_generate(
        set,
        members,
        &index,
        0,
        members.len(),
        ctx.gap,
        &row,
        &mut next,
        &mut ctx.bufs,
        &mut ctx.frequent,
        &ctx.pruner,
    );
    if st.evaluated == 0 {
        return Ok(());
    }
    let elapsed = gen_started.elapsed();
    let next_bytes = next.arena_bytes();
    absorb(
        &mut ctx.aggs,
        level + 1,
        LevelAgg {
            candidates: st.evaluated as u128,
            evaluated: st.evaluated,
            frequent: st.frequent,
            kept: st.kept,
            saturated: st.saturated,
            arena_bytes: next_bytes,
            jc: st.jc,
            join_elapsed: elapsed,
            elapsed,
        },
    );
    ctx.deepest = ctx.deepest.max(level + 1);
    if next.is_empty() {
        return Ok(());
    }
    ctx.gauge.grow(next_bytes)?;
    mine_chain(ctx, next, next_bytes, level + 1)
}

/// The double-buffered depth-first chain: `current` (charged to the
/// gauge by the caller) is extended one level at a time, freeing each
/// parent the moment its child generation survives — live bytes along
/// the chain are O(parent + child). A split hands the components back
/// to [`descend_split`] while `current` stays live underneath them.
fn mine_chain(
    ctx: &mut TaskCtx<'_>,
    mut current: PilSet,
    mut cur_bytes: usize,
    mut level: usize,
) -> Result<(), MineError> {
    loop {
        if level >= ctx.hard_cap || ctx.counts.n(level + 1).is_zero() {
            ctx.gauge.shrink(cur_bytes);
            return Ok(());
        }
        let members: Vec<usize> = (0..current.len()).collect();
        let index = JoinIndex::new(&current, &members);
        if let Some(comps) = split_components(&members, &index) {
            for comp in &comps {
                descend_split(ctx, &current, comp, level)?;
            }
            ctx.gauge.shrink(cur_bytes);
            return Ok(());
        }
        let gen_started = Instant::now();
        let mut next = PilSet::new(level + 1);
        let row = ctx.bounds.row(level + 1).clone();
        let st = eager_generate(
            &current,
            &members,
            &index,
            0,
            members.len(),
            ctx.gap,
            &row,
            &mut next,
            &mut ctx.bufs,
            &mut ctx.frequent,
            &ctx.pruner,
        );
        if st.evaluated == 0 {
            ctx.gauge.shrink(cur_bytes);
            return Ok(());
        }
        let elapsed = gen_started.elapsed();
        let next_bytes = next.arena_bytes();
        absorb(
            &mut ctx.aggs,
            level + 1,
            LevelAgg {
                candidates: st.evaluated as u128,
                evaluated: st.evaluated,
                frequent: st.frequent,
                kept: st.kept,
                saturated: st.saturated,
                arena_bytes: next_bytes,
                jc: st.jc,
                join_elapsed: elapsed,
                elapsed,
            },
        );
        ctx.deepest = ctx.deepest.max(level + 1);
        if next.is_empty() {
            ctx.gauge.shrink(cur_bytes);
            return Ok(());
        }
        // Double buffer: charge the child, release the parent, step.
        ctx.gauge.grow(next_bytes)?;
        ctx.gauge.shrink(cur_bytes);
        current = next;
        cur_bytes = next_bytes;
        level += 1;
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
    assert!(threads >= 1, "need at least one thread");
    let gap = counts.gap();
    let sigma = seq.alphabet().size() as u128;
    let start = config.start_level;
    let n = clamp_n(n, start, counts.l1());
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());

    let mut stats = stats_seed.take().unwrap_or_default();
    stats.n_used = n;
    let pruner = Pruner::new(&config.prune, gap.flexibility());
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut aggs: BTreeMap<usize, LevelAgg> = BTreeMap::new();
    let mut pool_events: Vec<PoolLevelEvent> = Vec::new();
    let mut subtree_events: Vec<SubtreeEvent> = Vec::new();
    let mut restore_events: Vec<RestoreEvent> = Vec::new();
    let mut spill_event: Option<SpillEvent> = None;

    // Spilling needs both a ceiling (otherwise there is nothing to
    // stay under) and a backend: an injected `spill_io` wins over
    // `spill_dir` so tests and callers can capture the raw records.
    let spill_io: Option<Arc<dyn spill::SpillIo>> = if config.max_arena_bytes.is_some() {
        config.spill_io.clone().or_else(|| {
            config
                .spill_dir
                .as_ref()
                .map(|dir| Arc::new(spill::FsSpillIo::new(dir)) as Arc<dyn spill::SpillIo>)
        })
    } else {
        None
    };
    let watermark_bytes = config
        .max_arena_bytes
        .map(|cap| (cap as f64 * config.spill_watermark) as usize);

    let live = Arc::new(AtomicUsize::new(0));
    let peak_shared = Arc::new(AtomicUsize::new(0));
    let mut gauge = MemGauge::new(&live, &peak_shared, config.max_arena_bytes);
    let pool = (threads > 1).then(|| WorkerPool::<DfsJob>::new(threads - 1));
    let mut bounds = BoundTable::new(counts, rho, n);

    let mine = || -> Result<(), MineError> {
        if hard_cap < start || counts.n(start).is_zero() {
            return Ok(());
        }
        let mut current = seed;
        let mut cur_bytes = current.arena_bytes();
        gauge.grow(cur_bytes)?;

        // Seed filter — the only level whose members were not already
        // evaluated at generation time.
        let filter_started = Instant::now();
        let row = bounds.row(start).clone();
        let mut kept: Vec<usize> = Vec::new();
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
        absorb(
            &mut aggs,
            start,
            LevelAgg {
                candidates: sigma.saturating_pow(start as u32),
                evaluated: current.len(),
                frequent: frequent_here,
                kept: kept.len(),
                saturated: current.saturated(),
                arena_bytes: cur_bytes,
                jc: JoinCounters::default(),
                join_elapsed: Duration::ZERO,
                elapsed: filter_started.elapsed(),
            },
        );

        let mut bufs = EagerBufs::default();
        // The serial prelude writes each generation into the buffers
        // the generation before last left behind.
        let mut spare = PilSet::new(start);
        let mut level = start;
        loop {
            if kept.is_empty() || level >= hard_cap || counts.n(level + 1).is_zero() {
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
                    || comps.iter().all(|comp| 2 * comp.len() <= kept.len())
            };
            if let Some(mut comps) = split_components(&kept, &index).filter(hand_off) {
                // Subtree tasks allocate their own generations: free the
                // prelude's spare buffers before they run.
                drop(std::mem::take(&mut spare));
                // Pruned modes: drop dead components before they become
                // tasks (or spill records). The handoff proceeds even if
                // only one — or zero — components stay viable.
                if pruner.is_active() {
                    comps.retain(|comp| pruner.component_viable(&current, comp));
                    if comps.is_empty() {
                        gauge.shrink(cur_bytes);
                        return Ok(());
                    }
                }
                // Handoff: every component is an independent subtree.
                // Only the main thread has grown the gauge so far, so
                // `live == cur_bytes` here and the spill decision is
                // deterministic across thread counts.
                let first_row = bounds.row(level + 1).clone();
                let spilling = spill_io.is_some()
                    && watermark_bytes.is_some_and(|wm| live.load(Ordering::Relaxed) >= wm);
                let (tasks, spill_state): (Vec<DfsTask>, Option<SpillState>) = if spilling {
                    let io = Arc::clone(spill_io.as_ref().expect("spill decision needs a backend"));
                    let spill_started = Instant::now();
                    let mut bytes_written = 0u64;
                    let mut bests: Vec<u128> = Vec::with_capacity(comps.len());
                    for (r, comp) in comps.iter().enumerate() {
                        bests.push(pruner.component_best(&current, comp));
                        let bytes = spill::encode_record(r as u64, &current, comp);
                        if let Err(e) = io.write(r as u64, &bytes) {
                            // Best-effort cleanup of records already on
                            // disk before surfacing the typed error.
                            for done in 0..r as u64 {
                                if let Err(re) = io.remove(done) {
                                    stats.spill_cleanup_failures += 1;
                                    observer.on_warning(&WarningEvent {
                                        kind: "spill-cleanup".into(),
                                        message: format!(
                                            "spill record {done} could not be removed after record {r} failed to write: {re}"
                                        ),
                                    });
                                }
                            }
                            return Err(spill::spill_err(r as u64, e.to_string()));
                        }
                        bytes_written += bytes.len() as u64;
                    }
                    let records = comps.len() as u64;
                    stats.spilled_records = records;
                    stats.spilled_bytes = bytes_written;
                    spill_event = Some(SpillEvent {
                        level,
                        records,
                        bytes: bytes_written,
                        live_bytes: live.load(Ordering::Relaxed),
                        watermark_bytes: watermark_bytes.unwrap_or(0),
                        elapsed: spill_started.elapsed(),
                    });
                    // Release the cold base before any subtree runs:
                    // each worker re-charges only the component it is
                    // actively restoring.
                    gauge.shrink(cur_bytes);
                    current = PilSet::new(level);
                    kept = Vec::new();
                    (
                        bests
                            .into_iter()
                            .enumerate()
                            .map(|(record, best)| DfsTask::SpilledSubtree {
                                record: record as u64,
                                best,
                            })
                            .collect(),
                        Some(SpillState::new(io, records as usize)),
                    )
                } else {
                    (
                        comps
                            .into_iter()
                            .map(|members| DfsTask::Subtree { members })
                            .collect(),
                        None,
                    )
                };
                let job = Arc::new(DfsJob {
                    base: current,
                    members: kept,
                    index,
                    tasks,
                    gap,
                    seq_len: seq.len(),
                    base_level: level,
                    n,
                    rho: rho.clone(),
                    hard_cap,
                    limit: config.max_arena_bytes,
                    live: Arc::clone(&live),
                    peak: Arc::clone(&peak_shared),
                    first_row,
                    spill: spill_state,
                    cursor: AtomicUsize::new(0),
                    hooks,
                    pruner: pruner.clone(),
                });
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
                    None => (0..job.n_items()).map(|i| job.process(i)).collect(),
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
                        absorb(&mut aggs, l, a);
                    }
                    frequent.extend(t.frequent);
                    if let Some(ev) = t.subtree {
                        subtree_events.push(ev);
                    }
                    if let Some(ev) = t.restore {
                        stats.restored_records += 1;
                        stats.restored_bytes += ev.bytes;
                        restore_events.push(ev);
                    }
                    if let Some(message) = t.cleanup_failure {
                        stats.spill_cleanup_failures += 1;
                        observer.on_warning(&WarningEvent {
                            kind: "spill-cleanup".into(),
                            message,
                        });
                    }
                }
                if let Some(e) = first_err {
                    sweep_spill_records(&job, &mut stats, observer);
                    return Err(e);
                }
                if !spilling {
                    gauge.shrink(cur_bytes);
                }
                return Ok(());
            }

            // One component, or a lopsided split on a pool:
            // eager-generate the next level, pooled when the fan-out is
            // wide enough to pay for chunk handoff. The prelude never
            // depended on connectivity; components only make subtrees
            // independent.
            let gen_started = Instant::now();
            let first_row = bounds.row(level + 1).clone();
            let (next, mut agg) = match &pool {
                Some(pool) if kept.len() >= PARALLEL_THRESHOLD => {
                    let chunk = kept
                        .len()
                        .div_ceil(threads * CHUNKS_PER_THREAD)
                        .max(MIN_CHUNK);
                    let n_chunks = kept.len().div_ceil(chunk);
                    let tasks: Vec<DfsTask> = (0..n_chunks)
                        .map(|c| {
                            let lo = c * chunk;
                            DfsTask::Chunk {
                                lo,
                                hi: (lo + chunk).min(kept.len()),
                            }
                        })
                        .collect();
                    let job = Arc::new(DfsJob {
                        base: std::mem::take(&mut current),
                        members: std::mem::take(&mut kept),
                        index,
                        tasks,
                        gap,
                        seq_len: seq.len(),
                        base_level: level,
                        n,
                        rho: rho.clone(),
                        hard_cap,
                        limit: config.max_arena_bytes,
                        live: Arc::clone(&live),
                        peak: Arc::clone(&peak_shared),
                        first_row,
                        spill: None,
                        cursor: AtomicUsize::new(0),
                        hooks,
                        pruner: pruner.clone(),
                    });
                    let (outs, event) = pool.run(Arc::clone(&job))?;
                    pool_events.push(event);
                    let mut parts = Vec::with_capacity(outs.len());
                    let mut merged = LevelAgg::default();
                    for out in outs {
                        let t = out?;
                        for (l, a) in t.aggs {
                            debug_assert_eq!(l, level + 1);
                            merged.candidates += a.candidates;
                            merged.evaluated += a.evaluated;
                            merged.frequent += a.frequent;
                            merged.kept += a.kept;
                            merged.saturated |= a.saturated;
                            merged.jc.absorb(&a.jc);
                        }
                        frequent.extend(t.frequent);
                        if let Some(p) = t.part {
                            parts.push(p);
                        }
                    }
                    (PilSet::concat(level + 1, parts), merged)
                }
                _ => {
                    let mut next = std::mem::take(&mut spare);
                    next.reset(level + 1);
                    let st = eager_generate(
                        &current,
                        &kept,
                        &index,
                        0,
                        kept.len(),
                        gap,
                        &first_row,
                        &mut next,
                        &mut bufs,
                        &mut frequent,
                        &pruner,
                    );
                    let agg = LevelAgg {
                        candidates: st.evaluated as u128,
                        evaluated: st.evaluated,
                        frequent: st.frequent,
                        kept: st.kept,
                        saturated: st.saturated,
                        jc: st.jc,
                        ..LevelAgg::default()
                    };
                    (next, agg)
                }
            };
            if agg.evaluated == 0 {
                gauge.shrink(cur_bytes);
                return Ok(());
            }
            let elapsed = gen_started.elapsed();
            let next_bytes = next.arena_bytes();
            agg.arena_bytes = next_bytes;
            agg.join_elapsed = elapsed;
            agg.elapsed = elapsed;
            let survivors = agg.kept;
            absorb(&mut aggs, level + 1, agg);
            if survivors == 0 {
                gauge.shrink(cur_bytes);
                return Ok(());
            }
            gauge.grow(next_bytes)?;
            gauge.shrink(cur_bytes);
            spare = std::mem::replace(&mut current, next);
            cur_bytes = next_bytes;
            kept.clear();
            kept.extend(0..current.len());
            level += 1;
        }
    };
    let run = mine();

    for (&level, agg) in &aggs {
        stats.support_saturated |= agg.saturated;
        stats.levels.push(LevelStats {
            level,
            candidates: agg.candidates,
            frequent: agg.frequent,
            extended: agg.kept,
            elapsed: agg.elapsed,
        });
        observer.on_level(&LevelEvent {
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
        });
    }
    if let Some(ev) = &spill_event {
        observer.on_spill(ev);
    }
    for ev in &pool_events {
        observer.on_pool(ev);
    }
    subtree_events.sort_by_key(|e| e.index);
    for ev in &subtree_events {
        observer.on_subtree(ev);
    }
    restore_events.sort_by_key(|e| e.record);
    for ev in &restore_events {
        observer.on_restore(ev);
    }
    run?;

    let peak = peak_shared.load(Ordering::Relaxed);
    let mut outcome = MineOutcome { frequent, stats };
    pruner.finish(&mut outcome);
    Ok((outcome, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::build_seed;
    use crate::mpp::{mine, prepare, Algorithm};
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
        let bfs = mpp_reference(&seq, g, rho, 12, MppConfig::default(), 1).unwrap();
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
        let bfs = mpp_reference(&seq, g, 0.4, 20, MppConfig::default(), 1).unwrap();
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
        let reference = mpp_reference(&seq, g, rho, 8, MppConfig::default(), 1).unwrap();
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
                spill_io: Some(Arc::new(MemSpillIo::default())),
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
                let pils = build_seed(&seq, g, config.start_level);
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
                spill_io: Some(io),
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
