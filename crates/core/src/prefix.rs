//! Prefix-sharing lower-run exploration.
//!
//! The bounded checkers enumerate a `|D|^len` grid of schedule prefixes
//! ([`crate::contexts::ContextGen`]) and re-run the concrete (lower)
//! machine for every context. But a run under a [`ScriptScheduler`] is a
//! deterministic function of the *consumed* part of its script: every
//! strategy is a pure function of the global log (§2), and the scheduler
//! reads `script[k]` only at the `k`-th scheduling event. Two grid scripts
//! that agree on the first `k` slots therefore produce bit-identical runs
//! whenever the run consumes at most `k` scheduling events — most of the
//! grid is pure recomputation of shared prefixes.
//!
//! [`PrefixMemo`] exploits this: after a lower run executes, its outcome
//! (log, return values, error — whatever the checker folds over) is cached
//! under the schedule prefix it actually consumed, organizing the grid as
//! a prefix trie keyed by consumed depth. Any later case whose script
//! shares that consumed prefix reuses the outcome without re-running the
//! machine. Because the cached value is the *complete* per-case outcome,
//! evidence (case counts, probes, index-least first failure) stays
//! bit-identical to the unshared exploration, independent of visit order.
//!
//! Soundness of the clamp: when a run consumes *more* scheduling events
//! than the script's length (falling into the round-robin tail), the
//! outcome is cached at the full-script depth — sound because the fallback
//! is the same pure log function for every context of the grid (same
//! domain), so two contexts with equal full scripts are equal contexts.
//!
//! # Query-point snapshots
//!
//! Whole-outcome memoization cannot help a long multi-query primitive
//! (e.g. the interpreted ticket `acq`, which spins on `get_n` querying the
//! environment between polls): such a run consumes most or all of its
//! script, so no other context shares its *whole* consumed prefix. But
//! every query point is a cut point — the machine state plus a fork of the
//! in-flight run ([`crate::layer::PrimRun::fork_run`]) determine the rest
//! of the execution, and the schedule prefix consumed so far is exactly
//! the sched events in the log. [`SnapshotTrie`] stores such mid-run
//! snapshots keyed by consumed prefix: exploring a new context walks to
//! the *deepest* ancestor snapshot, forks it (cheap, Arc/COW-backed), and
//! executes only the suffix. Unlike [`PrefixMemo`] — where at most one
//! stored prefix can apply — many snapshots along a script's path apply
//! simultaneously; resuming from any of them yields the same outcome by
//! determinism, so the choice affects work done, never verdicts.
//!
//! Only contexts minted by [`crate::contexts::ContextGen`] carry a
//! [`ScheduleKey`]; hand-built contexts (notably the forensics replay
//! engine's scripted contexts) have none and structurally bypass the memo.
//!
//! Both layers are on by default; a caller turns them off per check with
//! [`crate::explore::ExploreOptions::prefix_share`] (both layers) or
//! [`crate::explore::ExploreOptions::deep_share`] (only the query-point
//! snapshot layer).
//!
//! [`ScriptScheduler`]: crate::strategy::ScriptScheduler

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fxhash::FxHashMap;
use crate::id::Pid;

/// The process-wide execution tier: `true` — compiled bytecode (the
/// default), `false` — the tree-walking interpreter. The two tiers are
/// bit-identical, so the tier is not a checker option: only a
/// [`BytecodeOverride`] (differential tests, the B6 tier benchmark)
/// selects the reference interpreter. Strategy closures read it at
/// *instantiation* time.
static BYTECODE: AtomicBool = AtomicBool::new(true);

/// The bytecode-tier choice in effect right now: the innermost live
/// [`BytecodeOverride`], else the compiled tier. Strategy instantiation
/// sites (notably `ccal_clightx::module_from_lowered`'s closures) consult
/// this on every call, so one compiled module serves both tiers.
pub fn bytecode_effective() -> bool {
    BYTECODE.load(Ordering::Relaxed)
}

/// RAII guard forcing the bytecode tier on or off process-wide until
/// dropped. Overrides do not nest meaningfully — the guard restores the
/// value it displaced, and concurrent checker runs with *different* tier
/// choices would race (the benchmarks and differential tests that toggle
/// the tier run checks serially).
pub struct BytecodeOverride {
    prev: bool,
}

impl BytecodeOverride {
    /// Forces the tier to `on` until the guard drops.
    pub fn force(on: bool) -> Self {
        Self {
            prev: BYTECODE.swap(on, Ordering::Relaxed),
        }
    }
}

impl Drop for BytecodeOverride {
    fn drop(&mut self) {
        BYTECODE.store(self.prev, Ordering::Relaxed);
    }
}

/// Whether **semantic sharing keys** are in effect: warm exploration state
/// keyed by the content identity of the lower-machine family
/// ([`crate::fingerprint::ShareKey`]) instead of being pinned to each
/// certification unit's whole-input fingerprint, so units of one stack and
/// successive requests over the same underlay share one
/// `PrefixMemo`/`SnapshotTrie` store. On unless a [`ShareSemanticOverride`]
/// is live; the B8 benchmark measures both sides of its ratio in one
/// process, and the sharing differential pins bit-identity across the two
/// modes.
static SHARE_SEMANTIC: AtomicBool = AtomicBool::new(true);

/// The semantic-sharing choice in effect right now: the innermost live
/// [`ShareSemanticOverride`], else semantic keys.
pub fn share_semantic_effective() -> bool {
    SHARE_SEMANTIC.load(Ordering::Relaxed)
}

/// RAII guard forcing semantic sharing keys on or off process-wide until
/// dropped, with the same (non-)nesting discipline as
/// [`BytecodeOverride`]: the guard restores the value it displaced, and
/// concurrent runs wanting different choices would race.
pub struct ShareSemanticOverride {
    prev: bool,
}

impl ShareSemanticOverride {
    /// Forces semantic sharing keys to `on` until the guard drops.
    pub fn force(on: bool) -> Self {
        Self {
            prev: SHARE_SEMANTIC.swap(on, Ordering::Relaxed),
        }
    }
}

impl Drop for ShareSemanticOverride {
    fn drop(&mut self) {
        SHARE_SEMANTIC.store(self.prev, Ordering::Relaxed);
    }
}

/// Hands out a fresh family id for a [`crate::contexts::ContextGen`]
/// instance. Keys from different generators never collide in a
/// [`PrefixMemo`], so a checker handed a mixed slice of contexts (different
/// players, domains, or fuel) stays correct — sharing simply does not cross
/// the family boundary.
pub fn next_family() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The identity of one grid context's schedule script, attached to
/// [`crate::env::EnvContext`]s minted by a generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleKey {
    family: u64,
    script: Vec<Pid>,
    domain_len: usize,
}

impl ScheduleKey {
    /// Creates a key for a script of one generator family over a domain of
    /// `domain_len` participants.
    pub fn new(family: u64, script: Vec<Pid>, domain_len: usize) -> Self {
        Self {
            family,
            script,
            domain_len,
        }
    }

    /// The generator family the script belongs to.
    pub fn family(&self) -> u64 {
        self.family
    }

    /// The schedule script (slot 0 first).
    pub fn script(&self) -> &[Pid] {
        &self.script
    }

    /// The size of the scheduler domain the script draws from.
    pub fn domain_len(&self) -> usize {
        self.domain_len
    }
}

/// A consumed-prefix outcome memo: per `(family, inner-index)` a trie over
/// schedule prefixes, stored flat as a map from the consumed prefix to the
/// cached per-case outcome. `inner` distinguishes sub-cases that share a
/// context (the argument-vector index in the simulation checker, the script
/// index in the sequence-refinement checker); checkers with one case per
/// context pass `0`.
///
/// The store is sharded by `(family, inner)` so a probe can borrow the
/// key's script (`Vec<Pid>: Borrow<[Pid]>`) — looking up every prefix
/// depth allocates nothing while the lock is held.
pub struct PrefixMemo<T> {
    map: Mutex<FxHashMap<(u64, usize), PrefixShard<T>>>,
}

/// One `(family, inner)` shard: consumed prefix → cached outcome.
type PrefixShard<T> = FxHashMap<Vec<Pid>, T>;

impl<T: Clone> PrefixMemo<T> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self {
            map: Mutex::new(FxHashMap::default()),
        }
    }

    /// Looks up the outcome cached for any consumed prefix of `key`'s
    /// script (including the empty prefix — a run that consumed no
    /// scheduling events — and the full script). At most one stored prefix
    /// can apply: a cached entry at depth `d` certifies that runs reading
    /// those `d` slots consume exactly `d` of them, so a second entry at a
    /// deeper extension of the same prefix can never be inserted.
    pub fn lookup(&self, key: &ScheduleKey, inner: usize) -> Option<T> {
        self.lookup_at(key, inner).map(|(_, v)| v)
    }

    /// [`PrefixMemo::lookup`], additionally reporting the depth of the
    /// matched prefix — the number of schedule slots the memoized run
    /// consumed (clamped at insert time for runs that outlived their
    /// script). Callers that re-cache a derived outcome must key it at
    /// this depth, *not* at zero: a depth-0 entry matches every script of
    /// the family, which is only sound for runs that truly read no slots.
    pub fn lookup_at(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, T)> {
        let map = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard = map.get(&(key.family, inner))?;
        (0..=key.script.len())
            .find_map(|d| shard.get(&key.script[..d]).map(|v| (d, v.clone())))
    }

    /// Caches `value` under the prefix of `key`'s script that the run
    /// actually consumed (`consumed` scheduling events, clamped to the
    /// script length for runs that outlived their script — see the module
    /// docs). First insert wins: two workers racing to compute the same
    /// prefix computed the same deterministic value.
    pub fn insert(&self, key: &ScheduleKey, inner: usize, consumed: usize, value: T) {
        let depth = consumed.min(key.script.len());
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry((key.family, inner))
            .or_default()
            .entry(key.script[..depth].to_vec())
            .or_insert(value);
    }

    /// Number of cached outcomes (distinct consumed prefixes executed).
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .map(FxHashMap::len)
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Clone> Default for PrefixMemo<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Cap on live snapshots in every checker's [`SnapshotTrie`] — the same
/// as the simulation checker's upper-run cache cap
/// ([`crate::sim::UPPER_CACHE_CAP`]), chosen to hold a full
/// branching-factor × depth grid of cut points for the schedule lengths
/// the checkers explore.
pub const SNAPSHOT_CAP: usize = 4096;

/// A mid-run machine snapshot that can be forked into an independent copy
/// per use. The trie stores one *master* per cut point and hands out forks
/// — masters are never resumed themselves, so an entry stays valid for any
/// number of contexts. `fork` may return `None` when some captured
/// component does not support forking; the lookup then falls back to a
/// shallower snapshot (or a fresh run), which is always sound.
pub trait ForkSnapshot: Sized + Send {
    /// Forks an independent copy of the snapshot.
    fn fork(&self) -> Option<Self>;
}

/// A schedule-prefix trie of query-point snapshots: per `(family, inner)`
/// a map from consumed schedule prefix to the machine state captured just
/// before that query's environment delivery. See the module docs for the
/// sharing model; `inner` plays the same role as in [`PrefixMemo`] and
/// must fully determine the execution's input (primitive, arguments,
/// phase) so that snapshots of one shard are interchangeable.
///
/// Memory is bounded by `cap` with **deepest-first eviction**: when an
/// insert would exceed the cap, the snapshots at the longest stored
/// prefixes — the most specific cut points, each reusable only by the few
/// contexts sharing that long prefix — are dropped first, *including the
/// incoming snapshot itself* when it is the deepest. Root and shallow
/// snapshots, which every later context of the family re-derives from
/// scratch after a whole-trie clear, survive squeezes. Ties on depth evict
/// the newest entry first (first insert wins), so a serial run's
/// hit/evict sequence is deterministic; evictions are batched (about an
/// eighth of the cap per scan, at least one) to amortize the victim scan
/// on saturated tries. Snapshots are a pure work-saving device, so
/// eviction costs re-execution, never correctness.
pub struct SnapshotTrie<S> {
    map: Mutex<SnapshotStore<S>>,
    cap: usize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

/// One resident snapshot per `(family, inner)` shard, keyed by consumed
/// schedule prefix and tagged with its insertion sequence number.
type SnapshotShards<S> = FxHashMap<(u64, usize), FxHashMap<Vec<Pid>, (u64, S)>>;

struct SnapshotStore<S> {
    shards: SnapshotShards<S>,
    len: usize,
    next_seq: u64,
}

impl<S: ForkSnapshot> SnapshotTrie<S> {
    /// Creates an empty trie holding at most `cap` snapshots (clamped to
    /// at least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            map: Mutex::new(SnapshotStore {
                shards: FxHashMap::default(),
                len: 0,
                next_seq: 0,
            }),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Forks the snapshot at the *deepest* stored prefix of `key`'s script
    /// (deepest saves the most re-execution), reporting the matched depth
    /// and counting a hit. Unlike [`PrefixMemo::lookup_at`], many stored
    /// prefixes can apply at once; determinism makes the choice
    /// observationally irrelevant.
    pub fn lookup_deepest(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let shard = store.shards.get(&(key.family, inner))?;
        let hit = (0..=key.script.len()).rev().find_map(|d| {
            shard
                .get(&key.script[..d])
                .and_then(|(_, s)| s.fork())
                .map(|s| (d, s))
        });
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores the snapshot produced by `make` under the prefix of `key`'s
    /// script consumed so far (`consumed` scheduling events, clamped to
    /// the script length — same soundness argument as
    /// [`PrefixMemo::insert`]). First insert wins, and `make` is only
    /// called when the cut point is vacant. When the trie is full, the
    /// deepest snapshots are evicted first; an incoming snapshot at least
    /// as deep as every resident is rejected instead (`make` is then never
    /// called). Either way the drop is counted in [`SnapshotTrie::evictions`].
    pub fn insert_with(
        &self,
        key: &ScheduleKey,
        inner: usize,
        consumed: usize,
        make: impl FnOnce() -> Option<S>,
    ) {
        let depth = consumed.min(key.script.len());
        let mut store = self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if store
            .shards
            .get(&(key.family, inner))
            .is_some_and(|shard| shard.contains_key(&key.script[..depth]))
        {
            return;
        }
        if store.len >= self.cap {
            // The sequence number the incoming snapshot would be stored
            // under — strictly newer than every resident's.
            let incoming_seq = store.next_seq + 1;
            type Victim = Option<((u64, usize), Vec<Pid>)>;
            let mut cand: Vec<(usize, u64, Victim)> = Vec::with_capacity(store.len + 1);
            for (sk, shard) in &store.shards {
                for (prefix, (seq, _)) in shard {
                    cand.push((prefix.len(), *seq, Some((*sk, prefix.clone()))));
                }
            }
            cand.push((depth, incoming_seq, None));
            // Deepest first; newest first among equal depths.
            cand.sort_by_key(|c| std::cmp::Reverse((c.0, c.1)));
            let batch = (self.cap / 8).max(1);
            for (_, _, victim) in cand.into_iter().take(batch) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                match victim {
                    Some((sk, prefix)) => {
                        let emptied = store.shards.get_mut(&sk).is_some_and(|shard| {
                            let removed = shard.remove(&prefix).is_some();
                            debug_assert!(removed, "victim scan saw a live entry");
                            shard.is_empty()
                        });
                        store.len -= 1;
                        if emptied {
                            store.shards.remove(&sk);
                        }
                    }
                    // The incoming snapshot is the victim: drop it and
                    // stop evicting residents — the trie no longer
                    // overflows.
                    None => return,
                }
            }
        }
        if let Some(snap) = make() {
            store.next_seq += 1;
            let seq = store.next_seq;
            store
                .shards
                .entry((key.family, inner))
                .or_default()
                .insert(key.script[..depth].to_vec(), (seq, snap));
            store.len += 1;
        }
    }

    /// Number of live snapshots across all shards.
    pub fn len(&self) -> usize {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len
    }

    /// Whether no snapshot is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that forked a stored snapshot since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Snapshots dropped (or incoming inserts rejected) by the
    /// deepest-first eviction since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

fn steps_counter() -> &'static AtomicU64 {
    static STEPS: AtomicU64 = AtomicU64::new(0);
    &STEPS
}

fn shared_counter() -> &'static AtomicU64 {
    static SHARED: AtomicU64 = AtomicU64::new(0);
    &SHARED
}

fn deep_counter() -> &'static AtomicU64 {
    static DEEP: AtomicU64 = AtomicU64::new(0);
    &DEEP
}

fn prim_steps_counter() -> &'static AtomicU64 {
    static PRIM: AtomicU64 = AtomicU64::new(0);
    &PRIM
}

/// Resets the process-wide lower-run work accounting (all counters).
/// Benchmarks bracket a checker run with [`steps_reset`] / [`steps_total`]
/// to measure executed atom-steps; the counters are only meaningful when
/// the bracketed run is not concurrent with other checker runs.
pub fn steps_reset() {
    steps_counter().store(0, Ordering::Relaxed);
    shared_counter().store(0, Ordering::Relaxed);
    deep_counter().store(0, Ordering::Relaxed);
    prim_steps_counter().store(0, Ordering::Relaxed);
}

/// Total lower-machine atom-steps executed since the last [`steps_reset`].
pub fn steps_total() -> u64 {
    steps_counter().load(Ordering::Relaxed)
}

/// Number of lower runs answered from a [`PrefixMemo`] since the last
/// [`steps_reset`].
pub fn shared_total() -> u64 {
    shared_counter().load(Ordering::Relaxed)
}

/// Records `n` executed lower-machine atom-steps. Checkers call this once
/// per *executed* (non-cached) lower run with a work proxy — machine fuel
/// consumed plus events appended — so the sharing ratio in the benchmarks
/// counts real machine work, not memo hits.
pub fn record_steps(n: u64) {
    steps_counter().fetch_add(n, Ordering::Relaxed);
}

/// Records one lower run answered from the memo instead of executed.
pub fn record_shared() {
    shared_counter().fetch_add(1, Ordering::Relaxed);
}

/// Records one lower run resumed from a [`SnapshotTrie`] snapshot instead
/// of executed from scratch.
pub fn record_deep() {
    deep_counter().fetch_add(1, Ordering::Relaxed);
}

/// Number of lower runs resumed from a snapshot since [`steps_reset`].
pub fn deep_total() -> u64 {
    deep_counter().load(Ordering::Relaxed)
}

/// Records `n` intra-primitive execution steps — interpreter work items
/// popped or VM instructions retired *inside* a ClightX primitive body.
/// Distinct from [`record_steps`]: the machine-level counter charges one
/// unit per query-point resume plus log growth, identical for both
/// execution tiers, whereas this counter measures the per-statement work
/// the bytecode tier actually eliminates. The B6 benchmark gates on the
/// ratio of this counter between tiers.
pub fn record_prim_steps(n: u64) {
    prim_steps_counter().fetch_add(n, Ordering::Relaxed);
}

/// Total intra-primitive execution steps since the last [`steps_reset`].
pub fn prim_steps_total() -> u64 {
    prim_steps_counter().load(Ordering::Relaxed)
}

/// Always 0. The convergence-dedup cache that counted suffix hits here
/// was removed; the function stays only because the end-to-end benchmark
/// (`e2ebench/`) still reads it.
pub fn converged_total() -> u64 {
    0
}

/// Always 0. The convergence-dedup cache that counted evictions here was
/// removed; the function stays only because the end-to-end benchmark
/// (`e2ebench/`) still reads it.
pub fn conv_evictions_total() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(family: u64, script: &[u32]) -> ScheduleKey {
        ScheduleKey::new(family, script.iter().map(|&p| Pid(p)).collect(), 2)
    }

    #[test]
    fn lookup_hits_any_consumed_prefix() {
        let memo = PrefixMemo::new();
        let k_short = key(7, &[0, 1, 0]);
        // A run under [0,1,0] that consumed 2 slots.
        memo.insert(&k_short, 0, 2, "shared");
        // Scripts agreeing on the first two slots hit; others miss.
        assert_eq!(memo.lookup(&key(7, &[0, 1, 1]), 0), Some("shared"));
        assert_eq!(memo.lookup(&key(7, &[0, 0, 0]), 0), None);
        assert_eq!(memo.lookup(&key(7, &[1, 1, 0]), 0), None);
    }

    #[test]
    fn depth_zero_entries_hit_every_script() {
        let memo = PrefixMemo::new();
        memo.insert(&key(3, &[1, 1]), 0, 0, 42);
        assert_eq!(memo.lookup(&key(3, &[0, 0]), 0), Some(42));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn consumed_depth_clamps_to_script_length() {
        let memo = PrefixMemo::new();
        // A run that outlived its script (round-robin tail): cached at the
        // full script, so only the identical script hits.
        memo.insert(&key(1, &[0, 1]), 0, 9, "tail");
        assert_eq!(memo.lookup(&key(1, &[0, 1]), 0), Some("tail"));
        assert_eq!(memo.lookup(&key(1, &[0, 0]), 0), None);
    }

    #[test]
    fn lookup_at_reports_the_matched_depth() {
        let memo = PrefixMemo::new();
        memo.insert(&key(9, &[0, 1, 0]), 2, 2, "deep");
        assert_eq!(memo.lookup_at(&key(9, &[0, 1, 1]), 2), Some((2, "deep")));
        // Runs that outlived their script are clamped at insert time, so
        // the reported depth is the stored (full-script) depth.
        memo.insert(&key(9, &[1, 1]), 2, 7, "tail");
        assert_eq!(memo.lookup_at(&key(9, &[1, 1]), 2), Some((2, "tail")));
        assert_eq!(memo.lookup_at(&key(9, &[0, 0, 0]), 2), None);
    }

    #[test]
    fn families_and_inner_indices_do_not_cross() {
        let memo = PrefixMemo::new();
        memo.insert(&key(1, &[0]), 0, 0, 1);
        assert_eq!(memo.lookup(&key(2, &[0]), 0), None, "family boundary");
        assert_eq!(memo.lookup(&key(1, &[0]), 1), None, "inner boundary");
    }

    #[test]
    fn first_insert_wins() {
        let memo = PrefixMemo::new();
        memo.insert(&key(1, &[0, 1]), 0, 1, "first");
        memo.insert(&key(1, &[0, 0]), 0, 1, "second");
        assert_eq!(memo.lookup(&key(1, &[0, 1]), 0), Some("first"));
    }

    #[test]
    fn step_counters_accumulate_and_reset() {
        // Serialized by the global counters themselves being process-wide:
        // this test only checks the arithmetic, tolerating interference by
        // measuring deltas.
        steps_reset();
        record_steps(10);
        record_steps(5);
        record_shared();
        assert!(steps_total() >= 15);
        assert!(shared_total() >= 1);
        steps_reset();
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Snap(&'static str, bool);

    impl ForkSnapshot for Snap {
        fn fork(&self) -> Option<Self> {
            self.1.then(|| self.clone())
        }
    }

    #[test]
    fn snapshot_lookup_prefers_the_deepest_prefix() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(4, &[0, 1, 0]), 0, 1, || Some(Snap("shallow", true)));
        trie.insert_with(&key(4, &[0, 1, 0]), 0, 2, || Some(Snap("deep", true)));
        assert_eq!(
            trie.lookup_deepest(&key(4, &[0, 1, 1]), 0),
            Some((2, Snap("deep", true)))
        );
        // A script diverging after slot 0 only reaches the shallow one.
        assert_eq!(
            trie.lookup_deepest(&key(4, &[0, 0, 0]), 0),
            Some((1, Snap("shallow", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(4, &[1, 0, 0]), 0), None);
    }

    #[test]
    fn snapshot_unforkable_masters_fall_back_shallower() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(6, &[0, 1]), 0, 1, || Some(Snap("ok", true)));
        trie.insert_with(&key(6, &[0, 1]), 0, 2, || Some(Snap("stuck", false)));
        assert_eq!(
            trie.lookup_deepest(&key(6, &[0, 1]), 0),
            Some((1, Snap("ok", true)))
        );
    }

    #[test]
    fn snapshot_insert_is_first_wins_and_skips_make_when_present() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(2, &[0, 1]), 0, 1, || Some(Snap("first", true)));
        let mut called = false;
        trie.insert_with(&key(2, &[0, 0]), 0, 1, || {
            called = true;
            Some(Snap("second", true))
        });
        assert!(!called, "make ran for an occupied cut point");
        assert_eq!(
            trie.lookup_deepest(&key(2, &[0, 1]), 0),
            Some((1, Snap("first", true)))
        );
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn snapshot_cap_evicts_deepest_first() {
        let trie = SnapshotTrie::new(2);
        trie.insert_with(&key(8, &[0, 0]), 0, 1, || Some(Snap("a", true)));
        trie.insert_with(&key(8, &[1, 0]), 0, 2, || Some(Snap("b", true)));
        assert_eq!(trie.len(), 2);
        // Full trie, shallower incoming snapshot: the deepest resident
        // ([1,0] at depth 2) is the victim; the shallow one survives.
        trie.insert_with(&key(8, &[1, 1]), 0, 1, || Some(Snap("c", true)));
        assert_eq!(trie.len(), 2);
        assert_eq!(
            trie.lookup_deepest(&key(8, &[0, 0]), 0),
            Some((1, Snap("a", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(8, &[1, 0]), 0).map(|(d, _)| d), Some(1));
        assert_eq!(
            trie.lookup_deepest(&key(8, &[1, 1]), 0),
            Some((1, Snap("c", true)))
        );
        assert_eq!(trie.evictions(), 1);
    }

    #[test]
    fn snapshot_cap_rejects_an_incoming_snapshot_deeper_than_every_resident() {
        let trie = SnapshotTrie::new(1);
        trie.insert_with(&key(8, &[0, 0]), 0, 1, || Some(Snap("shallow", true)));
        let mut made = false;
        trie.insert_with(&key(8, &[0, 1]), 0, 2, || {
            made = true;
            Some(Snap("deep", true))
        });
        assert!(!made, "rejected incoming snapshots are never made");
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.evictions(), 1);
        // The shallow resident survives the squeeze and keeps answering.
        assert_eq!(
            trie.lookup_deepest(&key(8, &[0, 1]), 0),
            Some((1, Snap("shallow", true)))
        );
        assert_eq!(trie.hits(), 1);
    }

    /// The clear-on-full regression: under a cap-1 squeeze, deepest-first
    /// eviction keeps the root snapshot every context of the family can
    /// resume from, so the simulated re-execution cost (schedule slots
    /// replayed from the matched depth) is strictly lower than with the
    /// old whole-trie clear, which repeatedly threw the root away.
    #[test]
    fn shallow_snapshots_survive_a_cap_1_squeeze_better_than_full_clears() {
        const LEN: usize = 4;
        // The interleaved workload: for each context, try to resume (cost
        // = slots not covered by the matched snapshot), then offer a
        // deep snapshot at the context's full depth.
        let scripts: Vec<Vec<u32>> = (0..8_usize)
            .map(|i| (0..LEN).map(|s| u32::from((i >> s) & 1 == 1)).collect())
            .collect();
        let evict_cost = {
            let trie = SnapshotTrie::new(1);
            let mut cost = 0_u64;
            trie.insert_with(&key(11, &scripts[0]), 0, 1, || Some(Snap("root", true)));
            for s in &scripts {
                let k = key(11, s);
                let matched = trie.lookup_deepest(&k, 0).map_or(0, |(d, _)| d);
                cost += (LEN - matched) as u64;
                trie.insert_with(&k, 0, LEN, || Some(Snap("deep", true)));
            }
            cost
        };
        // Reference model of the old clear-on-full policy over the same
        // workload: the trie holds exactly the last inserted snapshot.
        let mut clear_cost = 0_u64;
        {
            let mut resident: Option<(Vec<u32>, usize)> = Some((scripts[0].clone(), 1));
            for s in &scripts {
                let matched = resident
                    .as_ref()
                    .filter(|(held, d)| held[..*d] == s[..*d])
                    .map_or(0, |(_, d)| *d);
                clear_cost += (LEN - matched) as u64;
                resident = Some((s.clone(), LEN));
            }
        }
        assert!(
            evict_cost < clear_cost,
            "deepest-first ({evict_cost}) should beat clear-on-full ({clear_cost})"
        );
    }

    #[test]
    fn snapshot_consumed_depth_clamps_to_script_length() {
        let trie = SnapshotTrie::new(16);
        trie.insert_with(&key(3, &[0, 1]), 0, 9, || Some(Snap("tail", true)));
        assert_eq!(
            trie.lookup_deepest(&key(3, &[0, 1]), 0),
            Some((2, Snap("tail", true)))
        );
        assert_eq!(trie.lookup_deepest(&key(3, &[0, 0]), 0), None);
    }
}
