//! The bounded table behind every exploration cache.
//!
//! The checkers keep three kinds of reusable exploration state: whole
//! lower-run outcomes and mid-run query-point snapshots, both keyed by the
//! schedule prefix a run consumed ([`crate::explore::Kernel`]), and the
//! simulation checker's upper-run outcomes, keyed by the replayed abstract
//! event sequence ([`crate::sim`]). All three are instances of one
//! [`BoundedTable`]: a two-level map from a *shard* (which computation an
//! entry belongs to) to a *path* (where along that computation it was cut)
//! to the stored value, with one eviction policy and one cap
//! ([`TABLE_CAP`]).
//!
//! Every entry is a pure work-saving device: a miss re-runs a
//! deterministic computation, so eviction costs time, never a verdict.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::fxhash::FxHashMap;

/// Cap on the entries of every table the checkers build: a kernel's
/// outcomes and snapshots together, and the simulation checker's upper-run
/// cache. It holds a full branching-factor × depth grid of cut points for
/// the schedule lengths the checkers explore.
pub const TABLE_CAP: usize = 4096;

/// A bounded shard → path → value table with **deepest-first eviction**.
///
/// Each entry carries a depth (the length of its path: the consumed
/// schedule prefix, or the replayed event sequence). When an insert would
/// exceed the cap, the deepest entries — the most specific, each reusable
/// only by the few cases that share that long path — are dropped first,
/// *including the incoming entry itself* when it would be among them.
/// Shallow entries, which many later cases re-derive, survive squeezes.
/// Ties on depth evict the newest entry first (first insert wins), so a
/// serial run's hit/evict sequence is deterministic. Evictions are batched
/// (an eighth of the cap per scan, at least one) to amortize the scan on a
/// saturated table.
///
/// A probe walks several paths of one shard under a single lock and looks
/// each up by borrow (`Vec<Pid>: Borrow<[Pid]>`), so probing every prefix
/// depth allocates nothing.
pub struct BoundedTable<S, P, V> {
    entries: Mutex<Entries<S, P, V>>,
    cap: usize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

struct Entries<S, P, V> {
    shards: FxHashMap<S, FxHashMap<P, Entry<V>>>,
    len: usize,
    next_seq: u64,
}

struct Entry<V> {
    depth: usize,
    /// Insertion sequence number: newer entries have larger ones.
    seq: u64,
    value: V,
}

impl<S: Copy + Eq + Hash, P: Clone + Eq + Hash, V> BoundedTable<S, P, V> {
    /// Creates an empty table holding at most `cap` entries (clamped to at
    /// least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Mutex::new(Entries {
                shards: FxHashMap::default(),
                len: 0,
                next_seq: 0,
            }),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries<S, P, V>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Walks `paths` of `shard` in order and answers from the first stored
    /// entry `answer` accepts, returning that entry's depth with the
    /// answer. An entry `answer` declines (say, a snapshot that cannot be
    /// forked) is passed over for the next path. Counts nothing.
    pub fn peek<'q, Q, R>(
        &self,
        shard: S,
        paths: impl IntoIterator<Item = &'q Q>,
        mut answer: impl FnMut(&V) -> Option<R>,
    ) -> Option<(usize, R)>
    where
        P: Borrow<Q>,
        Q: Hash + Eq + ?Sized + 'q,
    {
        let entries = self.lock();
        let shard = entries.shards.get(&shard)?;
        paths.into_iter().find_map(|path| {
            let e = shard.get(path)?;
            answer(&e.value).map(|r| (e.depth, r))
        })
    }

    /// [`BoundedTable::peek`], counting a hit in [`BoundedTable::hits`]
    /// when it answers.
    pub fn lookup<'q, Q, R>(
        &self,
        shard: S,
        paths: impl IntoIterator<Item = &'q Q>,
        answer: impl FnMut(&V) -> Option<R>,
    ) -> Option<(usize, R)>
    where
        P: Borrow<Q>,
        Q: Hash + Eq + ?Sized + 'q,
    {
        let hit = self.peek(shard, paths, answer);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores the value `make` produces at `path` of `shard`, `depth` deep.
    /// First insert wins: `make` runs only when the slot is vacant. On a
    /// full table the deepest entries are evicted first; when the incoming
    /// entry is itself among the deepest it is rejected instead and `make`
    /// never runs. Either way each drop counts in
    /// [`BoundedTable::evictions`].
    pub fn insert_with<Q>(&self, shard: S, path: &Q, depth: usize, make: impl FnOnce() -> Option<V>)
    where
        P: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = P> + ?Sized,
    {
        let mut entries = self.lock();
        if entries
            .shards
            .get(&shard)
            .is_some_and(|s| s.contains_key(path))
        {
            return;
        }
        if entries.len >= self.cap && !self.make_room(&mut entries, depth) {
            return;
        }
        if let Some(value) = make() {
            entries.next_seq += 1;
            let seq = entries.next_seq;
            entries
                .shards
                .entry(shard)
                .or_default()
                .insert(path.to_owned(), Entry { depth, seq, value });
            entries.len += 1;
        }
    }

    /// Evicts the deepest batch of a full table to admit an entry at
    /// `depth`, returning whether it is admitted. The incoming entry is the
    /// newest, so it ranks before every resident of its own depth or
    /// shallower: the residents ranked before it are exactly those strictly
    /// deeper. When fewer of those than a batch exist, they all go and the
    /// incoming entry — next in rank — is rejected. Only the victims' keys
    /// are cloned.
    fn make_room(&self, entries: &mut Entries<S, P, V>, depth: usize) -> bool {
        let batch = (self.cap / 8).max(1);
        let mut deeper: Vec<(usize, u64, &S, &P)> = entries
            .shards
            .iter()
            .flat_map(|(s, shard)| shard.iter().map(move |(p, e)| (e.depth, e.seq, s, p)))
            .filter(|c| c.0 > depth)
            .collect();
        if deeper.len() > batch {
            deeper.select_nth_unstable_by_key(batch - 1, |c| Reverse((c.0, c.1)));
            deeper.truncate(batch);
        }
        let admitted = deeper.len() == batch;
        let victims: Vec<(S, P)> = deeper
            .into_iter()
            .map(|(_, _, s, p)| (*s, p.clone()))
            .collect();
        let dropped = victims.len() + usize::from(!admitted);
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        for (s, p) in victims {
            let emptied = entries.shards.get_mut(&s).is_some_and(|shard| {
                let removed = shard.remove(&p).is_some();
                debug_assert!(removed, "the victim scan saw a live entry");
                shard.is_empty()
            });
            entries.len -= 1;
            if emptied {
                entries.shards.remove(&s);
            }
        }
        admitted
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Number of resident entries in the shards `keep` selects.
    pub fn len_where(&self, keep: impl Fn(&S) -> bool) -> usize {
        self.lock()
            .shards
            .iter()
            .filter(|(s, _)| keep(s))
            .map(|(_, shard)| shard.len())
            .sum()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups ([`BoundedTable::lookup`], not [`BoundedTable::peek`])
    /// answered since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries dropped, or incoming inserts rejected, by the deepest-first
    /// eviction since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table keyed like the upper-run cache: one path per probe.
    type Flat = BoundedTable<u64, &'static str, i32>;

    fn get(t: &Flat, shard: u64, path: &'static str) -> Option<i32> {
        t.lookup(shard, [&path], |v| Some(*v)).map(|(_, v)| v)
    }

    fn put(t: &Flat, shard: u64, path: &'static str, depth: usize, v: i32) {
        t.insert_with(shard, &path, depth, || Some(v));
    }

    #[test]
    fn lookup_counts_hits_and_peek_does_not() {
        let t = Flat::new(2);
        put(&t, 0, "a", 1, 10);
        put(&t, 0, "b", 2, 20);
        assert_eq!(get(&t, 0, "a"), Some(10));
        assert_eq!(get(&t, 0, "missing"), None);
        assert_eq!(t.peek(0, [&"b"], |v| Some(*v)), Some((2, 20)));
        assert_eq!((t.hits(), t.len()), (1, 2));
    }

    #[test]
    fn a_probe_answers_from_the_first_accepted_path() {
        let t: BoundedTable<u64, Vec<u32>, &str> = BoundedTable::new(16);
        let script = [0_u32, 1, 0];
        t.insert_with(4, &script[..1], 1, || Some("shallow"));
        t.insert_with(4, &script[..2], 2, || Some("stuck"));
        let deepest_first = || (0..=script.len()).rev().map(|d| &script[..d]);
        assert_eq!(t.peek(4, deepest_first(), |v| Some(*v)), Some((2, "stuck")));
        // A declined entry (an unforkable snapshot) falls back shallower.
        let forkable = |v: &&'static str| (*v != "stuck").then_some(*v);
        assert_eq!(t.peek(4, deepest_first(), forkable), Some((1, "shallow")));
        assert_eq!(t.peek(4, [&[1_u32][..]], |v| Some(*v)), None);
    }

    #[test]
    fn first_insert_wins_and_skips_make_when_present() {
        let t = Flat::new(16);
        put(&t, 2, "k", 1, 1);
        let mut called = false;
        t.insert_with(2, &"k", 1, || {
            called = true;
            Some(2)
        });
        assert!(!called, "make ran for an occupied slot");
        assert_eq!((get(&t, 2, "k"), t.len()), (Some(1), 1));
    }

    #[test]
    fn shards_never_answer_for_each_other() {
        // Two shards share every path: each lookup is answered only by its
        // own shard's entry, before and after the other shard fills in.
        let t = Flat::new(64);
        put(&t, 11, "suffix", 1, 1);
        assert_eq!(get(&t, 22, "suffix"), None);
        put(&t, 22, "suffix", 1, 2);
        assert_eq!(get(&t, 11, "suffix"), Some(1));
        assert_eq!(get(&t, 22, "suffix"), Some(2));
        assert_eq!(t.len_where(|&s| s == 22), 1);
    }

    #[test]
    fn eviction_drops_the_deepest_and_rejects_an_incoming_entry_as_deep() {
        // Full, shallower incoming entry: the deepest resident goes.
        let t = Flat::new(2);
        put(&t, 8, "a", 1, 1);
        put(&t, 8, "b", 2, 2);
        put(&t, 8, "c", 1, 3);
        assert_eq!(
            (get(&t, 8, "a"), get(&t, 8, "b"), get(&t, 8, "c")),
            (Some(1), None, Some(3))
        );
        assert_eq!((t.len(), t.evictions()), (2, 1));
        // Full, incoming entry at least as deep as every resident: it is
        // rejected unmade, and the shallow resident keeps answering.
        let t = Flat::new(1);
        put(&t, 8, "shallow", 1, 1);
        let mut made = false;
        t.insert_with(8, &"deep", 5, || {
            made = true;
            Some(5)
        });
        assert!(!made, "rejected incoming entries are never made");
        // An incoming entry as deep as the resident is the newer of the
        // tie, so it is the one rejected.
        put(&t, 8, "tie", 1, 2);
        assert_eq!((get(&t, 8, "shallow"), get(&t, 8, "deep")), (Some(1), None));
        assert_eq!(get(&t, 8, "tie"), None);
        assert_eq!((t.len(), t.evictions()), (1, 2));
    }

    #[test]
    fn eviction_batch_is_deepest_first_newest_breaking_ties() {
        // Cap 16 → batch 2: the two deepest residents (15, 14) go, the
        // shallow incoming entry lands, and everything shallower survives.
        let t: BoundedTable<u64, usize, usize> = BoundedTable::new(16);
        for d in 0..16 {
            t.insert_with(0, &d, d, || Some(d));
        }
        t.insert_with(0, &100, 3, || Some(100));
        let at = |p: usize| t.peek(0, [&p], |v| Some(*v)).map(|(_, v)| v);
        assert_eq!(
            (at(15), at(14), at(13), at(100)),
            (None, None, Some(13), Some(100))
        );
        assert_eq!((t.len(), t.evictions()), (15, 2));
        // Two residents at one depth: the newer one goes first.
        let t = Flat::new(8);
        put(&t, 0, "old", 7, 1);
        put(&t, 0, "new", 7, 2);
        for (d, p) in ["a", "b", "c", "d", "e", "f"].into_iter().enumerate() {
            put(&t, 0, p, d, 0);
        }
        put(&t, 0, "incoming", 0, 9);
        assert_eq!((get(&t, 0, "new"), get(&t, 0, "old")), (None, Some(1)));
        assert_eq!((get(&t, 0, "incoming"), t.evictions()), (Some(9), 1));
    }

    #[test]
    fn eviction_ranks_by_depth_alone_across_shards() {
        // A full table holding two shards: the victim is the deepest entry
        // whichever shard holds it, and the survivors still answer only
        // their own shard's lookups.
        let t: BoundedTable<u64, usize, &str> = BoundedTable::new(8);
        for i in 0..4 {
            t.insert_with(1, &i, i, || Some("fam1"));
            t.insert_with(2, &i, i + 4, || Some("fam2"));
        }
        t.insert_with(1, &100, 0, || Some("fam1-new"));
        let get = |s: u64, p: usize| t.peek(s, [&p], |v| Some(*v)).map(|(_, v)| v);
        assert_eq!(t.evictions(), 1);
        assert_eq!(
            (get(2, 3), get(1, 3), get(2, 2)),
            (None, Some("fam1"), Some("fam2"))
        );
        assert_eq!(get(1, 100), Some("fam1-new"));
    }

    #[test]
    fn counters_stay_exact_under_concurrent_inserts() {
        // 8 threads × 64 ops on an uncapped table: half the slots are
        // shared across threads (racing first inserts), half private, and
        // the shared paths exist in both shards. Every slot lands once and
        // every lookup answers with its own shard's value.
        let t: BoundedTable<usize, (usize, usize), usize> = BoundedTable::new(10_000);
        let (nthreads, per) = (8, 64);
        std::thread::scope(|s| {
            for th in 0..nthreads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per {
                        let path = if i % 2 == 0 { (0, i) } else { (th, i) };
                        let shard = th % 2;
                        t.insert_with(shard, &path, i, || Some(shard * 1000 + i));
                        assert_eq!(
                            t.lookup(shard, [&path], |v| Some(*v)),
                            Some((i, shard * 1000 + i))
                        );
                    }
                });
            }
        });
        // Per shard: one shared slot per even i, one private per (th, odd i).
        assert_eq!(t.len(), 2 * (per / 2) + nthreads * (per / 2));
        assert_eq!((t.hits(), t.evictions()), ((nthreads * per) as u64, 0));
    }

    /// Under a cap-1 squeeze, deepest-first eviction keeps the shallow entry
    /// every context of a family can resume from, so the re-execution cost
    /// (schedule slots replayed from the matched depth) is strictly lower
    /// than under a whole-table clear, which keeps throwing the root away.
    #[test]
    fn shallow_entries_survive_a_cap_1_squeeze_better_than_full_clears() {
        const LEN: usize = 4;
        let scripts: Vec<Vec<u32>> = (0..8_usize)
            .map(|i| (0..LEN).map(|s| u32::from((i >> s) & 1 == 1)).collect())
            .collect();
        let evict_cost = {
            let t: BoundedTable<u64, Vec<u32>, ()> = BoundedTable::new(1);
            let mut cost = 0;
            t.insert_with(11, &scripts[0][..1], 1, || Some(()));
            for s in &scripts {
                let matched = t
                    .lookup(11, (0..=LEN).rev().map(|d| &s[..d]), |_| Some(()))
                    .map_or(0, |(d, ())| d);
                cost += LEN - matched;
                t.insert_with(11, &s[..], LEN, || Some(()));
            }
            cost
        };
        // Reference model of a clear-on-full policy over the same workload:
        // the table holds exactly the last inserted entry.
        let mut clear_cost = 0;
        let mut resident: (Vec<u32>, usize) = (scripts[0].clone(), 1);
        for s in &scripts {
            let (held, d) = &resident;
            clear_cost += LEN - if held[..*d] == s[..*d] { *d } else { 0 };
            resident = (s.clone(), LEN);
        }
        assert!(
            evict_cost < clear_cost,
            "deepest-first ({evict_cost}) should beat clear-on-full ({clear_cost})"
        );
    }
}
