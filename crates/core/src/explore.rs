//! The unified exploration kernel behind every bounded checker.
//!
//! All five bounded checkers — strategy simulation ([`crate::sim`]),
//! liveness, linearizability, race freedom and sequence refinement
//! (`ccal-verifier`) — explore the same shape: a finite grid of
//! `(environment context × sub-case)` cells, each a deterministic function
//! of the schedule prefix the run consumes, folded in index order down to
//! a verdict and an index-least first failure. Before this module each
//! checker carried its own copy of the machinery around that loop:
//! schedule-prefix memoization, query-point snapshot forking, sleep-set
//! partial-order pruning, work-stealing dispatch, forensics capture, and
//! the slot fold. [`Kernel`] owns all of it once:
//!
//! * **Prefix memoization** ([`crate::prefix::PrefixMemo`]): one executed
//!   lower run per distinct consumed schedule prefix
//!   ([`Kernel::run_shared`]).
//! * **Query-point snapshots** ([`crate::prefix::SnapshotTrie`]): forked
//!   mid-run machine states at every environment cut point, resumed for
//!   contexts that diverge later ([`Kernel::resume_deepest`],
//!   [`Kernel::snapshot`]).
//! * **POR pruning**: contexts marked trace-equivalent by the generator
//!   are skipped and counted without invoking the client
//!   ([`Kernel::explore`]).
//! * **Grid dispatch** ([`crate::par::run_cases`]): serial by default,
//!   work-stealing for an explicit `workers > 1`, with the in-order fold
//!   that makes parallel runs bit-identical to serial ones.
//! * **Forensics capture** ([`crate::forensics`]): failing cases are
//!   recorded with their grid index, context index, witness log and reason
//!   whenever the calling thread holds a capture scope.
//!
//! A checker plugs in by choosing a snapshot type `S` (implementing
//! [`crate::prefix::ForkSnapshot`] — [`RunSnap`] for single-machine
//! checkers, [`crate::conc::GameState`] for game-based ones, or a custom
//! enum like the simulation checker's phase-tagged snapshot), a memoized
//! outcome type `T`, and a per-case classification closure returning
//! [`Case`]. New engines (weak-memory exploration, new certified objects,
//! service-mode re-certification) get sharing, pruning, parallelism and
//! capture for free.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::conc::{ConcurrentMachine, ConcurrentOutcome, GameState, ThreadScript};
use crate::engine::{self, Counter};
use crate::env::EnvContext;
use crate::fxhash::FxHashMap;
use crate::id::PidSet;
use crate::layer::{LayerInterface, PrimRun};
use crate::log::Log;
use crate::machine::{LayerMachine, MachineError};
use crate::prefix::{ForkSnapshot, PrefixMemo, ScheduleKey, SnapshotTrie};

/// The exploration knobs every checker shares: the simulation checker
/// reads them from [`crate::sim::SimOptions::explore`], the verifier
/// checkers build them from their `_tuned` parameters. A plain value:
/// nothing read from the process environment changes how or what is
/// explored, and no field changes a result.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads exploring the case grid. Defaults to 1 (serial);
    /// any value yields bit-identical results.
    pub workers: usize,
    /// Skip contexts marked [`EnvContext::is_por_equivalent`] by the
    /// partial-order reduction — trace-equivalent to a lower-indexed
    /// context whose verdict subsumes theirs. On by default.
    pub por: bool,
    /// Share lower runs across contexts whose schedule scripts agree on
    /// the consumed prefix ([`crate::prefix::PrefixMemo`]): a lower run is
    /// a deterministic function of the schedule slots it actually reads,
    /// so a grid of `n^L` contexts executes only one run per *distinct
    /// consumed prefix*. Never changes the verdict or the evidence; on by
    /// default.
    pub prefix_share: bool,
    /// Additionally fork mid-run snapshots of the lower machine at every
    /// environment query point ([`crate::prefix::SnapshotTrie`]): a long
    /// multi-query primitive (e.g. a spinning `acq`) executes once along
    /// each distinct schedule path, and every context that diverges later
    /// forks the deepest snapshot and replays only its suffix. Effective
    /// only when `prefix_share` is on; never changes the verdict or the
    /// evidence; on by default.
    pub deep_share: bool,
    /// Restrict exploration to the half-open flat-index range
    /// `[lo, hi)` of the `ci·ninner+ii` grid. `None` explores the whole
    /// grid. Per-case classification is a deterministic function of the
    /// case index alone, so folding disjoint windows in ascending order
    /// (discarding everything after the first failing window) yields the
    /// same verdict, case accounting and index-least first failure as one
    /// whole-grid exploration — this is what lets the certification
    /// service lease grid chunks to shard processes.
    pub window: Option<(usize, usize)>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self::tuned(1, true, true, true)
    }
}

impl ExploreOptions {
    /// The options the verifier checkers' `_tuned` variants expose:
    /// explicit workers/POR/sharing, whole grid.
    pub fn tuned(workers: usize, por: bool, prefix_share: bool, deep_share: bool) -> Self {
        Self {
            workers,
            por,
            prefix_share,
            deep_share,
            window: None,
        }
    }
}

/// A failing case, carrying both the checker's error and the forensics
/// payload ([`crate::forensics::FailingCase`] minus the indices, which the
/// kernel fills in from the grid position).
#[derive(Debug)]
pub struct Failed<E> {
    /// The checker-specific error returned to the caller.
    pub error: E,
    /// The concrete lower/implementation log at the failure (the witness).
    pub log: Log,
    /// Why the case failed.
    pub reason: String,
    /// Human-readable case detail (context/args/script indices).
    pub detail: String,
}

/// One explored case's classification, folded in index order by
/// [`Kernel::explore`].
#[derive(Debug)]
pub enum Case<D, E> {
    /// The case passed; `D` is whatever the checker folds over (probe
    /// logs, step counts, `()`).
    Checked(D),
    /// The context was invalid (rely violation / unfair schedule).
    Skipped,
    /// The context was pruned by the partial-order reduction.
    Reduced,
    /// The case failed; exploration short-circuits at the index-least
    /// failure.
    Failed(Box<Failed<E>>),
}

impl<D, E> Case<D, E> {
    /// Builds a failing case with its forensics payload.
    pub fn failed(error: E, log: Log, reason: String, detail: String) -> Self {
        Case::Failed(Box::new(Failed {
            error,
            log,
            reason,
            detail,
        }))
    }
}

/// The fold of an explored grid: the case accounting every checker's
/// verdict carries, the per-case data of the checked cases in index
/// order, and the index-least failure (with everything after it
/// discarded, exactly as the per-checker folds did).
#[derive(Debug)]
pub struct Explored<D, E> {
    /// Cases executed and passed.
    pub cases_checked: usize,
    /// Cases skipped (invalid contexts).
    pub cases_skipped: usize,
    /// Cases pruned by the partial-order reduction.
    pub cases_reduced: usize,
    /// The checked cases' data, in case-index order.
    pub checked: Vec<D>,
    /// The index-least failure, if any.
    pub failure: Option<E>,
}

/// The unified exploration kernel: one [`PrefixMemo`] + [`SnapshotTrie`]
/// pair plus the grid-dispatch loop, parameterized over a fork-able
/// snapshot type `S` and a memoized outcome type `T`. See the module docs
/// for the division of labor between the kernel and its clients.
pub struct Kernel<S, T> {
    memo: std::sync::Arc<PrefixMemo<T>>,
    snapshots: std::sync::Arc<SnapshotTrie<S>>,
    workers: usize,
    por: bool,
    share: bool,
    deep: bool,
    window: Option<(usize, usize)>,
}

impl<S: ForkSnapshot, T: Clone + Send> Kernel<S, T> {
    /// Creates a kernel for one checker invocation, with fresh (cold)
    /// memo and snapshot state. The snapshot trie holds at most
    /// [`crate::prefix::SNAPSHOT_CAP`] snapshots (deepest-first eviction):
    /// snapshots only save work, so eviction costs re-execution, never
    /// correctness.
    pub fn new(opts: &ExploreOptions) -> Self {
        Self::with_state(
            opts,
            std::sync::Arc::new(PrefixMemo::new()),
            std::sync::Arc::new(SnapshotTrie::new(crate::prefix::SNAPSHOT_CAP)),
        )
    }

    /// Creates a kernel over *caller-owned* memo and snapshot state, so a
    /// long-running service can keep them warm across checker invocations.
    /// Soundness requires that every invocation sharing the state checks
    /// the same computation over the same schedule-key family: memo
    /// entries are keyed by `(family, script prefix, inner index)` only,
    /// so two different checks pinned to one family would read each
    /// other's outcomes. The certification service keys families by the
    /// unit's content fingerprint, which makes key collisions imply input
    /// equality.
    pub fn with_state(
        opts: &ExploreOptions,
        memo: std::sync::Arc<PrefixMemo<T>>,
        snapshots: std::sync::Arc<SnapshotTrie<S>>,
    ) -> Self {
        let share = opts.prefix_share;
        Self {
            memo,
            snapshots,
            workers: opts.workers,
            por: opts.por,
            share,
            deep: share && opts.deep_share,
            window: opts.window,
        }
    }

    /// Whether whole-outcome prefix sharing is on.
    pub fn share(&self) -> bool {
        self.share
    }

    /// Whether query-point snapshot sharing is on (implies [`share`]).
    ///
    /// [`share`]: Kernel::share
    pub fn deep(&self) -> bool {
        self.deep
    }

    /// The context's schedule key, gated on prefix sharing: `None` when
    /// sharing is off or the context is hand-built (keyless).
    pub fn share_key<'e>(&self, env: &'e EnvContext) -> Option<&'e ScheduleKey> {
        if self.share {
            env.schedule_key()
        } else {
            None
        }
    }

    /// The context's schedule key, gated on deep (snapshot) sharing.
    pub fn deep_key<'e>(&self, env: &'e EnvContext) -> Option<&'e ScheduleKey> {
        if self.deep {
            env.schedule_key()
        } else {
            None
        }
    }

    /// Looks up the memoized outcome for any consumed prefix of `key`'s
    /// script, recording a shared (memo-answered) run on a hit.
    pub fn cached(&self, key: &ScheduleKey, inner: usize) -> Option<T> {
        let hit = self.memo.lookup(key, inner);
        if hit.is_some() {
            engine::record(Counter::Shared, 1);
        }
        hit
    }

    /// Memoizes an executed run's outcome at its consumed prefix depth.
    pub fn memoize(&self, key: &ScheduleKey, inner: usize, consumed: usize, outcome: T) {
        self.memo.insert(key, inner, consumed, outcome);
    }

    /// The standard lower-run composition every checker uses: answer from
    /// the memo when the context's consumed prefix is cached (recording a
    /// shared run), otherwise execute via `exec` — which returns the
    /// outcome plus the consumed schedule-prefix length — and memoize.
    /// With sharing off (or a keyless context) this is just `exec`.
    pub fn run_shared(&self, env: &EnvContext, inner: usize, exec: impl FnOnce() -> (T, usize)) -> T {
        match self.share_key(env) {
            Some(k) => {
                if let Some(hit) = self.cached(k, inner) {
                    return hit;
                }
                let (outcome, consumed) = exec();
                self.memoize(k, inner, consumed, outcome.clone());
                outcome
            }
            None => exec().0,
        }
    }

    /// Forks the deepest stored snapshot applying to `key`, recording a
    /// deep (snapshot-resumed) run on a hit. Checkers whose snapshot type
    /// distinguishes phases with different accounting (the simulation
    /// checker) should use [`Kernel::lookup_snapshot`] and record
    /// themselves.
    pub fn resume_deepest(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let hit = self.snapshots.lookup_deepest(key, inner);
        if hit.is_some() {
            engine::record(Counter::Deep, 1);
        }
        hit
    }

    /// [`Kernel::resume_deepest`] without the accounting.
    pub fn lookup_snapshot(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        self.snapshots.lookup_deepest(key, inner)
    }

    /// Stores a query-point snapshot at the consumed prefix depth (first
    /// insert wins; `make` only runs when the cut point is vacant).
    pub fn snapshot(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        make: impl FnOnce() -> Option<S>,
    ) {
        self.snapshots.insert_with(key, inner, consumed, make);
    }

    /// The exploration loop: dispatches the `(context × sub-case)` grid
    /// ([`crate::par::run_cases`]), prunes POR-equivalent contexts,
    /// records failing cases into the forensics capture scope the calling
    /// thread's engine carries (if any), and folds the slots in index
    /// order — so the verdict, the accounting and the index-least first
    /// failure are bit-identical to a serial, unshared exploration.
    ///
    /// `run` is called with `(context index, sub-case index)`; the flat
    /// grid index is `ci * ninner + inner`. `checker` names the client in
    /// forensics captures.
    pub fn explore<D, E>(
        &self,
        checker: &'static str,
        contexts: &[EnvContext],
        ninner: usize,
        run: impl Fn(usize, usize) -> Case<D, E> + Sync,
    ) -> Explored<D, E>
    where
        D: Send,
        E: Send,
    {
        let total = contexts.len() * ninner;
        // The window restricts dispatch to `[lo, hi)` of the flat index
        // space; indices keep their whole-grid values so case details,
        // forensics indices and POR classification are identical to a
        // whole-grid run.
        let (lo, hi) = match self.window {
            Some((a, b)) => (a.min(total), b.min(total).max(a.min(total))),
            None => (0, total),
        };
        let span = hi - lo;
        let run_case = |widx: usize| -> Case<D, E> {
            let idx = lo + widx;
            let (ci, inner) = (idx / ninner, idx % ninner);
            let env = &contexts[ci];
            if self.por && env.is_por_equivalent() {
                // A lower-indexed trace-equivalent context covers this case.
                return Case::Reduced;
            }
            let outcome = run(ci, inner);
            if let Case::Failed(f) = &outcome {
                if crate::forensics::capturing() {
                    crate::forensics::record(crate::forensics::FailingCase {
                        checker,
                        case_index: idx,
                        ctx_index: ci,
                        detail: f.detail.clone(),
                        log: f.log.clone(),
                        reason: f.reason.clone(),
                    });
                }
            }
            outcome
        };
        let slots = crate::par::run_cases(span, self.workers, run_case, |c| {
            matches!(c, Case::Failed(_))
        });
        let mut out = Explored {
            cases_checked: 0,
            cases_skipped: 0,
            cases_reduced: 0,
            checked: Vec::new(),
            failure: None,
        };
        for slot in slots {
            match slot {
                None => break,
                Some(Case::Skipped) => out.cases_skipped += 1,
                Some(Case::Reduced) => out.cases_reduced += 1,
                Some(Case::Checked(d)) => {
                    out.checked.push(d);
                    out.cases_checked += 1;
                }
                Some(Case::Failed(f)) => {
                    out.failure = Some(f.error);
                    break;
                }
            }
        }
        out
    }
}

/// The memoized outcome of a traced concurrent (game) run — what the
/// linearizability and race-freedom checkers fold over.
pub type GameRun = (Result<ConcurrentOutcome, MachineError>, Log);

impl Kernel<GameState, GameRun> {
    /// The shared lower half of the game-based checkers: one traced
    /// concurrent run per distinct consumed schedule prefix, snapshotting
    /// the whole [`GameState`] before every scheduler decision and forking
    /// the deepest prefix-agreeing ancestor for contexts that diverge
    /// later. Work accounting counts only the executed suffix.
    pub fn run_game(
        &self,
        iface: &LayerInterface,
        focused: &PidSet,
        programs: &BTreeMap<crate::id::Pid, ThreadScript>,
        env: &EnvContext,
        fuel: u64,
    ) -> GameRun {
        self.run_shared(env, 0, || {
            let key = self.deep_key(env);
            let machine = ConcurrentMachine::new(iface.clone(), focused.clone(), env.clone())
                .with_fuel(fuel);
            let (res, log, pre) = match key {
                Some(k) => {
                    let mut hook = |st: &GameState| {
                        self.snapshot(k, 0, st.sched_consumed(), || st.fork());
                    };
                    match self.resume_deepest(k, 0) {
                        Some((_, st)) => {
                            // Fork the deepest snapshotted ancestor and
                            // replay only the remaining turns, counting
                            // only them.
                            let pre = st.log_len() as u64;
                            let (res, log) = machine.run_traced_from(st, &mut hook);
                            (res, log, pre)
                        }
                        None => {
                            let (res, log) = machine.run_traced_with_snapshots(programs, &mut hook);
                            (res, log, 0)
                        }
                    }
                }
                None => {
                    let (res, log) = machine.run_traced(programs);
                    (res, log, 0)
                }
            };
            engine::record(Counter::Steps, log.len() as u64 - pre);
            let consumed = log.sched_count();
            ((res, log), consumed)
        })
    }
}

/// A mid-call machine snapshot: the machine plus a fork of the in-flight
/// primitive run, with checker-specific `extra` state (the liveness
/// checker needs none; the sequence-refinement checker carries the script
/// position and the completed return values). Forking forks the machine
/// (Arc/COW-backed) and the run ([`PrimRun::fork_run`], `None` when the
/// run does not support forking — the lookup then falls back shallower).
pub struct RunSnap<X> {
    /// The machine at the query point.
    pub machine: LayerMachine,
    /// The in-flight primitive run, paused at an environment query.
    pub run: Box<dyn PrimRun>,
    /// Checker-specific resumption state.
    pub extra: X,
}

impl<X: Clone + Send> ForkSnapshot for RunSnap<X> {
    fn fork(&self) -> Option<Self> {
        Some(RunSnap {
            machine: self.machine.fork(),
            run: self.run.fork_run()?,
            extra: self.extra.clone(),
        })
    }
}

/// A bounded memo table with **deepest-first eviction**: entries carry a
/// depth (for the simulation checker's upper-run cache, the length of the
/// replayed abstract event sequence), and when an insert would exceed the
/// cap the deepest entries — the most specific, least reusable ones — are
/// dropped first, *including the incoming entry itself* when it is the
/// deepest. Shallow entries, which many later cases re-derive, survive
/// squeezes instead of being thrown away by a whole-table clear. Eviction
/// never changes verdicts: a miss re-runs a deterministic computation.
///
/// Ties on depth evict the newest entry first (first insert wins), so a
/// serial run's hit/evict sequence is deterministic. Evictions are batched
/// (about an eighth of the cap per scan, at least one) to amortize the
/// victim scan on saturated tables.
pub struct BoundedCache<K, V> {
    map: Mutex<CacheStore<K, V>>,
    cap: usize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

struct CacheStore<K, V> {
    entries: FxHashMap<K, (usize, u64, V)>,
    next_seq: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedCache<K, V> {
    /// Creates an empty cache holding at most `cap` entries (clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            map: Mutex::new(CacheStore {
                entries: FxHashMap::default(),
                next_seq: 0,
            }),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a cached value, counting a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let hit = store.entries.get(key).map(|(_, _, v)| v.clone());
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Inserts `value` at `depth` (first insert wins). When the table is
    /// full, the deepest entries are evicted first; an incoming entry at
    /// least as deep as every resident is rejected instead (counted as an
    /// eviction).
    pub fn insert(&self, key: K, depth: usize, value: V) {
        let mut store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if store.entries.contains_key(&key) {
            return;
        }
        if store.entries.len() >= self.cap {
            // The sequence number the incoming entry would be stored
            // under — strictly newer than every resident's.
            let incoming_seq = store.next_seq + 1;
            let mut cand: Vec<(usize, u64, Option<K>)> = store
                .entries
                .iter()
                .map(|(k, (d, s, _))| (*d, *s, Some(k.clone())))
                .collect();
            cand.push((depth, incoming_seq, None));
            // Deepest first; newest first among equal depths.
            cand.sort_by_key(|c| std::cmp::Reverse((c.0, c.1)));
            let batch = (self.cap / 8).max(1);
            for (_, _, victim) in cand.into_iter().take(batch) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                match victim {
                    Some(k) => {
                        store.entries.remove(&k);
                    }
                    // The incoming entry is the victim: drop it and stop
                    // evicting residents — the table no longer overflows.
                    None => return,
                }
            }
        }
        store.next_seq += 1;
        let seq = store.next_seq;
        store.entries.insert(key, (depth, seq, value));
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries dropped (or incoming inserts rejected) by the deepest-first
    /// eviction since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

impl<K, V> std::fmt::Debug for BoundedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedCache")
            .field("cap", &self.cap)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contexts::ContextGen;
    use crate::id::Pid;

    #[test]
    fn bounded_cache_hits_and_caps() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(2);
        cache.insert("a", 1, 10);
        cache.insert("b", 2, 20);
        assert_eq!(cache.get(&"a"), Some(10));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.get(&"missing"), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounded_cache_evicts_deepest_first_and_rejects_deeper_incoming() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(1);
        cache.insert("shallow", 1, 10);
        // Deeper incoming entry is rejected; the shallow resident survives
        // the squeeze (a full clear would have dropped it).
        cache.insert("deep", 5, 50);
        assert_eq!(cache.get(&"shallow"), Some(10));
        assert_eq!(cache.get(&"deep"), None);
        assert_eq!(cache.evictions(), 1);
        // A *shallower* incoming entry displaces the deeper resident.
        let cache2: BoundedCache<&'static str, i32> = BoundedCache::new(1);
        cache2.insert("deep", 5, 50);
        cache2.insert("shallow", 1, 10);
        assert_eq!(cache2.get(&"shallow"), Some(10));
        assert_eq!(cache2.get(&"deep"), None);
        assert_eq!(cache2.evictions(), 1);
    }

    #[test]
    fn bounded_cache_first_insert_wins() {
        let cache: BoundedCache<&'static str, i32> = BoundedCache::new(4);
        cache.insert("k", 1, 1);
        cache.insert("k", 1, 2);
        assert_eq!(cache.get(&"k"), Some(1));
    }

    #[test]
    fn bounded_cache_counters_under_concurrent_insert() {
        // 8 threads × 64 ops against an uncapped table: every distinct key
        // lands exactly once (first insert wins), re-inserts are no-ops,
        // and the hit counter equals the number of successful lookups —
        // the counters must stay exact under contention, not merely
        // monotone.
        let cache: std::sync::Arc<BoundedCache<(usize, usize), usize>> =
            std::sync::Arc::new(BoundedCache::new(10_000));
        let nthreads = 8;
        let per = 64;
        std::thread::scope(|s| {
            for t in 0..nthreads {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..per {
                        // Half the keys are shared across threads (racing
                        // first-insert), half are thread-private.
                        let key = if i % 2 == 0 { (0, i) } else { (t, i) };
                        cache.insert(key, i, i);
                        assert_eq!(cache.get(&key), Some(i));
                    }
                });
            }
        });
        // Shared keys: one entry per even i. Private keys: one per (t, odd i).
        let expected_len = per / 2 + nthreads * (per / 2);
        assert_eq!(cache.len(), expected_len);
        assert_eq!(cache.hits(), (nthreads * per) as u64);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn bounded_cache_eviction_batch_is_deepest_first_newest_breaking_ties() {
        // Cap 16 → batch = 16/8 = 2 victims per squeeze. Fill with depths
        // 0..16, then insert at depth 3: the two deepest residents (15, 14)
        // are evicted, the incoming shallow entry lands, and everything
        // shallower survives.
        let cache: BoundedCache<usize, usize> = BoundedCache::new(16);
        for d in 0..16 {
            cache.insert(d, d, d);
        }
        cache.insert(100, 3, 100);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.get(&15), None);
        assert_eq!(cache.get(&14), None);
        assert_eq!(cache.get(&13), Some(13));
        assert_eq!(cache.get(&100), Some(100));
        assert_eq!(cache.len(), 15);
        // Ties on depth evict the newest entry first: two residents at the
        // same depth, the older one survives the squeeze.
        let cache2: BoundedCache<&'static str, i32> = BoundedCache::new(8);
        cache2.insert("old", 7, 1);
        cache2.insert("new", 7, 2);
        for d in 0..6 {
            cache2.insert(["a", "b", "c", "d", "e", "f"][d], d, 0);
        }
        cache2.insert("incoming", 0, 9);
        assert_eq!(cache2.evictions(), 1);
        assert_eq!(cache2.get(&"new"), None);
        assert_eq!(cache2.get(&"old"), Some(1));
        assert_eq!(cache2.get(&"incoming"), Some(9));
    }

    #[test]
    fn bounded_cache_never_serves_across_share_families() {
        // Under semantic sharing keys two computations may interleave
        // their entries in one cache, keyed apart only by the family (and
        // inner) components of the key. A lookup keyed to one family must
        // never be answered by the other's entry, even when every other
        // key component — digest, inner index, schedule suffix — collides
        // exactly.
        let cache: BoundedCache<(u128, u64, usize, Vec<Pid>), &'static str> =
            BoundedCache::new(64);
        let fam_a = 11_u64;
        let fam_b = 22_u64;
        let suffix = vec![crate::id::Pid(0), crate::id::Pid(1)];
        cache.insert((0xfeed, fam_a, 7, suffix.clone()), 1, "a");
        assert_eq!(cache.get(&(0xfeed, fam_b, 7, suffix.clone())), None);
        assert_eq!(cache.get(&(0xfeed, fam_a, 8, suffix.clone())), None);
        assert_eq!(cache.get(&(0xfeed, fam_a, 7, suffix.clone())), Some("a"));
        cache.insert((0xfeed, fam_b, 7, suffix.clone()), 1, "b");
        assert_eq!(cache.get(&(0xfeed, fam_a, 7, suffix.clone())), Some("a"));
        assert_eq!(cache.get(&(0xfeed, fam_b, 7, suffix)), Some("b"));
    }

    #[test]
    fn bounded_cache_concurrent_two_family_inserts_stay_isolated() {
        // Two "share families" hammer one uncapped cache concurrently with
        // deliberately colliding fingerprint/inner/suffix components: every
        // entry must land under its own family, every lookup must be
        // answered only by its own family's value, and the counters must
        // stay exact under contention.
        let cache: std::sync::Arc<BoundedCache<(u128, u64, usize), u64>> =
            std::sync::Arc::new(BoundedCache::new(10_000));
        let per = 128_usize;
        std::thread::scope(|s| {
            for fam in [1_u64, 2_u64] {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..per {
                        cache.insert((i as u128, fam, i), i, fam * 1000 + i as u64);
                        assert_eq!(
                            cache.get(&(i as u128, fam, i)),
                            Some(fam * 1000 + i as u64)
                        );
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2 * per);
        assert_eq!(cache.hits(), 2 * per as u64);
        assert_eq!(cache.evictions(), 0);
        for i in 0..per {
            assert_eq!(cache.get(&(i as u128, 1, i)), Some(1000 + i as u64));
            assert_eq!(cache.get(&(i as u128, 2, i)), Some(2000 + i as u64));
        }
    }

    #[test]
    fn bounded_cache_eviction_under_shared_families_is_depth_only() {
        // When a full cache holds entries from two families, the
        // deepest-first eviction picks victims by depth alone — it must
        // not prefer (or spare) either family — and the surviving entries
        // still answer only their own family's lookups.
        let cache: BoundedCache<(u64, usize), &'static str> = BoundedCache::new(8);
        for i in 0..4 {
            cache.insert((1, i), i, "fam1");
            cache.insert((2, i), i + 4, "fam2");
        }
        // Full at 8; an incoming shallow entry squeezes out the deepest
        // batch (8/8 = 1 victim): family 2's depth-7 entry.
        cache.insert((1, 100), 0, "fam1-new");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(&(2, 3)), None);
        assert_eq!(cache.get(&(1, 3)), Some("fam1"));
        assert_eq!(cache.get(&(2, 2)), Some("fam2"));
        assert_eq!(cache.get(&(1, 100)), Some("fam1-new"));
    }

    #[derive(Clone)]
    struct NoSnap;
    impl ForkSnapshot for NoSnap {
        fn fork(&self) -> Option<Self> {
            Some(NoSnap)
        }
    }

    fn grid(len: usize) -> Vec<EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(len)
            .contexts()
    }

    #[test]
    fn explore_folds_in_index_order_and_short_circuits() {
        let contexts = grid(2);
        let opts = ExploreOptions::tuned(1, false, false, false);
        let kernel: Kernel<NoSnap, ()> = Kernel::new(&opts);
        let explored = kernel.explore("test", &contexts, 1, |ci, _| {
            if ci == 2 {
                Case::failed(format!("boom at {ci}"), Log::new(), "boom".into(), format!("context #{ci}"))
            } else {
                Case::Checked(ci)
            }
        });
        assert_eq!(explored.cases_checked, 2);
        assert_eq!(explored.checked, vec![0, 1]);
        assert_eq!(explored.failure.as_deref(), Some("boom at 2"));
    }

    #[test]
    fn explore_is_bit_identical_across_workers() {
        let contexts = grid(3);
        let run = |ci: usize, _inner: usize| -> Case<usize, String> {
            if ci == 5 {
                Case::failed("fail".to_owned(), Log::new(), "r".into(), "d".into())
            } else {
                Case::Checked(ci)
            }
        };
        let serial = Kernel::<NoSnap, ()>::new(&ExploreOptions::tuned(1, false, true, false))
            .explore("test", &contexts, 1, run);
        for workers in [2, 4] {
            let par = Kernel::<NoSnap, ()>::new(&ExploreOptions::tuned(workers, false, true, false))
                .explore("test", &contexts, 1, run);
            assert_eq!(serial.cases_checked, par.cases_checked);
            assert_eq!(serial.checked, par.checked);
            assert_eq!(serial.failure, par.failure);
        }
    }

    #[test]
    fn capture_records_only_for_the_callers_scope() {
        let contexts = grid(2);
        let explore = |workers: usize| {
            let opts = ExploreOptions::tuned(workers, false, false, false);
            Kernel::<NoSnap, ()>::new(&opts).explore("test", &contexts, 1, |ci, _| {
                let detail = format!("context #{ci}");
                Case::<(), String>::failed("boom".into(), Log::new(), "boom".into(), detail)
            })
        };
        let scope = crate::forensics::CaptureScope::begin();
        // A failing exploration on another thread leaves the scope empty,
        // however many workers it dispatches to.
        std::thread::scope(|s| {
            s.spawn(|| explore(1));
            s.spawn(|| explore(2));
        });
        assert!(scope.take().is_empty());
        // The opening thread's exploration records its failure, also from
        // worker threads.
        let scope = crate::forensics::CaptureScope::begin();
        assert!(explore(2).failure.is_some());
        let got = scope.take();
        assert!(!got.is_empty());
        assert_eq!(got[0].case_index, 0);
    }

    #[test]
    fn run_shared_memoizes_per_consumed_prefix() {
        let contexts = grid(2);
        let opts = ExploreOptions::tuned(1, false, true, false);
        let kernel: Kernel<NoSnap, u32> = Kernel::new(&opts);
        let mut executions = 0_u32;
        for env in &contexts {
            // Every run "consumes" one slot, so contexts sharing slot 0
            // share the outcome: 2 executions over a 4-context grid.
            let _ = kernel.run_shared(env, 0, || {
                executions += 1;
                (executions, 1)
            });
        }
        assert_eq!(executions, 2);
    }
}
