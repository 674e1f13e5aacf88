//! Sleep-set partial-order reduction over schedule-prefix grids.
//!
//! The bounded checkers quantify over environment contexts by enumerating
//! every schedule prefix of a fixed length over the scheduler domain — a
//! `|D|^len` grid ([`crate::contexts::ContextGen`]). Many of those prefixes
//! are *Mazurkiewicz-trace equivalent*: when two environment players only
//! ever emit [`crate::event::independent`] events, scheduling `p` before
//! `q` or `q` before `p` in adjacent slots yields logs that differ only by
//! commuting independent events, and every replay-based verdict agrees on
//! them. This module enumerates exactly one representative prefix per
//! trace — the one with the **smallest grid index** — using the classic
//! sleep-set algorithm (Godefroid), so the checkers can skip the rest.
//!
//! # Independence
//!
//! Independence is lifted from events to players: two pids commute iff both
//! declare an alphabet via [`Strategy::may_emit`] and every cross pair of
//! declared kinds is [`EventKind::independent_kinds`]. A player without a
//! declared alphabet — including the focused pid, which runs the primitive
//! under test rather than a registered environment strategy — is opaque and
//! conflicts with everyone, so the reduction degrades gracefully to the
//! full grid rather than risking unsoundness.
//!
//! # Soundness contract
//!
//! Pruning is sound for strategies that are deterministic functions of the
//! log and *footprint-local* (see the [`Strategy::may_emit`] contract):
//! swapping adjacent turns of independent players then produces
//! [`crate::log::Log::trace_equivalent`] logs, on which every replay
//! function computes the same object state and every checker the same
//! verdict. The differential suites (`tests/por_differential.rs`) check
//! this end to end against the unreduced grid.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::event::EventKind;
use crate::id::Pid;
use crate::strategy::Strategy;

/// The independence relation lifted from events to scheduler-domain pids.
///
/// Built once per grid from the players' declared alphabets; symmetric and
/// irreflexive by construction.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeMap;
/// use std::sync::Arc;
/// use ccal_core::id::{Loc, Pid};
/// use ccal_core::por::PidIndependence;
/// use ccal_core::strategy::{ScratchPlayer, Strategy};
///
/// let mut players: BTreeMap<Pid, Arc<dyn Strategy>> = BTreeMap::new();
/// players.insert(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(7))));
/// players.insert(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(8))));
/// let ind = PidIndependence::from_players(&[Pid(0), Pid(1), Pid(2)], &players);
/// assert!(ind.independent(Pid(1), Pid(2)), "disjoint scratch locations");
/// assert!(!ind.independent(Pid(0), Pid(1)), "Pid(0) has no strategy: opaque");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PidIndependence {
    pairs: BTreeSet<(Pid, Pid)>,
}

impl PidIndependence {
    /// The empty (fully dependent) relation: nothing commutes, nothing is
    /// pruned.
    pub fn trivial() -> Self {
        Self::default()
    }

    /// Builds the relation for a scheduler `domain` from the environment
    /// `players` registered for (a subset of) its pids. A pid with no
    /// registered player, or whose player declines to declare an alphabet
    /// ([`Strategy::may_emit`] returning `None`), is treated as dependent
    /// with every other pid.
    pub fn from_players(domain: &[Pid], players: &BTreeMap<Pid, Arc<dyn Strategy>>) -> Self {
        let alphabets: BTreeMap<Pid, Option<Vec<EventKind>>> = domain
            .iter()
            .map(|p| (*p, players.get(p).and_then(|s| s.may_emit())))
            .collect();
        let mut pairs = BTreeSet::new();
        for (i, &p) in domain.iter().enumerate() {
            for &q in &domain[i + 1..] {
                if p == q {
                    continue;
                }
                let (Some(Some(a)), Some(Some(b))) = (alphabets.get(&p), alphabets.get(&q))
                else {
                    continue;
                };
                let commute = a
                    .iter()
                    .all(|ka| b.iter().all(|kb| EventKind::independent_kinds(ka, kb)));
                if commute {
                    pairs.insert((p.min(q), p.max(q)));
                }
            }
        }
        Self { pairs }
    }

    /// Declares `p` and `q` independent (for hand-built relations in tests
    /// and tools). No-op when `p == q`.
    pub fn declare(&mut self, p: Pid, q: Pid) {
        if p != q {
            self.pairs.insert((p.min(q), p.max(q)));
        }
    }

    /// Whether all events of `p` commute with all events of `q`.
    pub fn independent(&self, p: Pid, q: Pid) -> bool {
        p != q && self.pairs.contains(&(p.min(q), p.max(q)))
    }

    /// Whether the relation is empty — in which case every schedule prefix
    /// is its own trace representative and the reduction cannot prune.
    pub fn is_trivial(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of independent pid pairs.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }
}

/// Enumerates one representative schedule prefix per Mazurkiewicz trace:
/// for each equivalence class of length-`len` words over `domain` (adjacent
/// letters of independent pids commute), the member with the smallest
/// [`crate::contexts::ContextGen`] grid index. Returned in ascending index
/// order.
///
/// Uses sleep sets: a depth-first walk over schedule digits where each
/// branch records, in its *sleep set*, the earlier siblings it commutes
/// with — any word that would merely re-order an already-explored trace is
/// cut without being visited. With the trivial relation this is exactly the
/// full `|domain|^len` grid.
pub fn canonical_prefixes(domain: &[Pid], len: usize, ind: &PidIndependence) -> Vec<Vec<Pid>> {
    let mut out = Vec::new();
    let mut word = Vec::with_capacity(len);
    explore(domain, len, ind, &mut word, &BTreeSet::new(), &mut out);
    // The DFS fixes the most significant digit first so that the chosen
    // representative is the index-least member of its class (the grid
    // encodes slot 0 as the least significant digit); un-reverse into
    // schedule order.
    for w in &mut out {
        w.reverse();
    }
    out
}

fn explore(
    domain: &[Pid],
    len: usize,
    ind: &PidIndependence,
    word: &mut Vec<Pid>,
    sleep: &BTreeSet<Pid>,
    out: &mut Vec<Vec<Pid>>,
) {
    if word.len() == len {
        out.push(word.clone());
        return;
    }
    let mut asleep = sleep.clone();
    for &p in domain {
        if asleep.contains(&p) {
            continue;
        }
        // The child only keeps sleepers that commute with the chosen move;
        // a dependent move "wakes" them.
        let child: BTreeSet<Pid> = asleep
            .iter()
            .copied()
            .filter(|&x| ind.independent(x, p))
            .collect();
        word.push(p);
        explore(domain, len, ind, word, &child, out);
        word.pop();
        // Later siblings need not re-explore traces reachable through `p`.
        asleep.insert(p);
    }
}

/// The set of grid indices (in [`crate::contexts::ContextGen`]'s
/// least-significant-digit-first encoding) of the canonical prefixes of
/// [`canonical_prefixes`].
pub fn canonical_index_set(domain: &[Pid], len: usize, ind: &PidIndependence) -> BTreeSet<usize> {
    let pos: BTreeMap<Pid, usize> = domain.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let n = domain.len();
    canonical_prefixes(domain, len, ind)
        .into_iter()
        .map(|w| {
            let mut idx = 0usize;
            let mut weight = 1usize;
            for p in w {
                idx += pos[&p] * weight;
                weight *= n;
            }
            idx
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: &[(u32, u32)]) -> PidIndependence {
        let mut ind = PidIndependence::trivial();
        for &(p, q) in pairs {
            ind.declare(Pid(p), Pid(q));
        }
        ind
    }

    fn index_of(domain: &[Pid], word: &[Pid]) -> usize {
        let n = domain.len();
        let mut idx = 0;
        let mut weight = 1;
        for p in word {
            idx += domain.iter().position(|d| d == p).unwrap() * weight;
            weight *= n;
        }
        idx
    }

    /// All length-`len` words over `domain`, grouped into Mazurkiewicz
    /// classes by BFS over adjacent independent swaps.
    fn trace_classes(domain: &[Pid], len: usize, ind: &PidIndependence) -> Vec<BTreeSet<Vec<Pid>>> {
        let mut all = vec![Vec::new()];
        for _ in 0..len {
            all = all
                .into_iter()
                .flat_map(|w: Vec<Pid>| {
                    domain.iter().map(move |&p| {
                        let mut w2 = w.clone();
                        w2.push(p);
                        w2
                    })
                })
                .collect();
        }
        let mut seen: BTreeSet<Vec<Pid>> = BTreeSet::new();
        let mut classes = Vec::new();
        for w in all {
            if seen.contains(&w) {
                continue;
            }
            let mut class = BTreeSet::new();
            let mut frontier = vec![w];
            while let Some(v) = frontier.pop() {
                if !class.insert(v.clone()) {
                    continue;
                }
                for i in 0..v.len().saturating_sub(1) {
                    if ind.independent(v[i], v[i + 1]) {
                        let mut s = v.clone();
                        s.swap(i, i + 1);
                        frontier.push(s);
                    }
                }
            }
            seen.extend(class.iter().cloned());
            classes.push(class);
        }
        classes
    }

    #[test]
    fn two_independent_letters_give_three_of_four_words() {
        let domain = [Pid(0), Pid(1)];
        let ind = rel(&[(0, 1)]);
        let reps = canonical_prefixes(&domain, 2, &ind);
        // Classes: {00}, {01, 10}, {11}; index-least of the middle class is
        // "10" (slot 0 = Pid(1), slot 1 = Pid(0)) with index 1.
        assert_eq!(reps.len(), 3);
        assert_eq!(
            canonical_index_set(&domain, 2, &ind),
            BTreeSet::from([0, 1, 3])
        );
    }

    #[test]
    fn trivial_relation_keeps_the_full_grid() {
        let domain = [Pid(0), Pid(1), Pid(2)];
        let ind = PidIndependence::trivial();
        assert!(ind.is_trivial());
        assert_eq!(canonical_prefixes(&domain, 3, &ind).len(), 27);
        assert_eq!(canonical_index_set(&domain, 3, &ind).len(), 27);
    }

    #[test]
    fn all_independent_letters_collapse_to_multisets() {
        // With everything commuting, a trace is exactly a multiset of
        // letters: C(len + n - 1, n - 1) classes.
        let domain = [Pid(0), Pid(1), Pid(2)];
        let ind = rel(&[(0, 1), (0, 2), (1, 2)]);
        // len 4 over 3 fully independent letters: C(6, 2) = 15.
        assert_eq!(canonical_prefixes(&domain, 4, &ind).len(), 15);
    }

    #[test]
    fn canonical_set_matches_brute_force_classes() {
        let domain = [Pid(0), Pid(1), Pid(2)];
        for pairs in [
            &[][..],
            &[(0, 1)][..],
            &[(1, 2)][..],
            &[(0, 1), (1, 2)][..],
            &[(0, 1), (0, 2), (1, 2)][..],
        ] {
            let ind = rel(pairs);
            for len in 1..=4 {
                let classes = trace_classes(&domain, len, &ind);
                let expected: BTreeSet<usize> = classes
                    .iter()
                    .map(|class| {
                        class
                            .iter()
                            .map(|w| index_of(&domain, w))
                            .min()
                            .unwrap()
                    })
                    .collect();
                let got = canonical_index_set(&domain, len, &ind);
                assert_eq!(
                    got, expected,
                    "pairs {pairs:?} len {len}: sleep-set reps must be the \
                     index-least member of each trace class"
                );
            }
        }
    }

    #[test]
    fn independence_is_symmetric_and_irreflexive() {
        let ind = rel(&[(3, 5)]);
        assert!(ind.independent(Pid(3), Pid(5)));
        assert!(ind.independent(Pid(5), Pid(3)));
        assert!(!ind.independent(Pid(3), Pid(3)));
        assert_eq!(ind.pair_count(), 1);
        let mut refl = PidIndependence::trivial();
        refl.declare(Pid(2), Pid(2));
        assert!(refl.is_trivial(), "self-pairs are ignored");
    }

    #[test]
    fn from_players_uses_declared_alphabets() {
        use crate::id::Loc;
        use crate::strategy::{IdleStrategy, ScratchPlayer};

        let domain = [Pid(0), Pid(1), Pid(2), Pid(3)];
        let mut players: BTreeMap<Pid, Arc<dyn Strategy>> = BTreeMap::new();
        players.insert(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(10))));
        players.insert(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(11))));
        players.insert(Pid(3), Arc::new(IdleStrategy));
        let ind = PidIndependence::from_players(&domain, &players);
        assert!(ind.independent(Pid(1), Pid(2)), "disjoint locations");
        assert!(ind.independent(Pid(1), Pid(3)), "idle is empty-alphabet");
        assert!(ind.independent(Pid(2), Pid(3)));
        assert!(
            !ind.independent(Pid(0), Pid(1)),
            "the focused pid has no registered player and stays opaque"
        );

        // Same location ⇒ dependent.
        let mut clash: BTreeMap<Pid, Arc<dyn Strategy>> = BTreeMap::new();
        clash.insert(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(9))));
        clash.insert(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(9))));
        let ind = PidIndependence::from_players(&[Pid(1), Pid(2)], &clash);
        assert!(ind.is_trivial());
    }
}
