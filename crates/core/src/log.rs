//! The global event log.
//!
//! A [`Log`] is the chronologically ordered list of observable events
//! (Fig. 7: `Log ∈ List Event`). Events generated by different participants
//! are interleaved "following the actual chronological order of events"
//! (§3.1). The log is the *only* shared state of the game-semantic model;
//! everything else is reconstructed from it by replay functions.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::id::Pid;

/// Tail capacity before the open bump region is sealed into an immutable
/// generation. Cloning a log copies at most this many events by value; the
/// rest travel as `Arc` bumps.
const GEN_SEAL: usize = 32;

/// A global event log, oldest event first.
///
/// The paper writes `l • e` for appending ("cons-ing") event `e` to log `l`
/// (§2); [`Log::append`] is that operation.
///
/// # Examples
///
/// ```
/// use ccal_core::event::Event;
/// use ccal_core::id::Pid;
/// use ccal_core::log::Log;
///
/// let mut log = Log::new();
/// log.append(Event::sched(Pid(0)));
/// log.append(Event::prim(Pid(0), "foo", vec![]));
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.current_pid(), Some(Pid(0)));
/// ```
///
/// # Sharing
///
/// Events live in an arena of sealed *generations* plus one open bump
/// region (the tail). Appends push into the tail; when the tail reaches
/// [`GEN_SEAL`] events it is frozen into an immutable `Arc<[Event]>`
/// generation. A snapshot (clone) therefore copies the generation index —
/// one pointer per sealed generation — plus at most `GEN_SEAL` tail
/// events, and *never* detaches: the exploration kernel forks logs at
/// every environment query point, and under the old whole-`Vec`
/// copy-on-write scheme each post-fork append re-copied the entire
/// history. Generations make fork-then-append O(generations), not
/// O(events).
#[derive(Debug, Clone, Default)]
pub struct Log {
    /// Sealed generations, oldest first. Every generation is non-empty.
    gens: Vec<Arc<[Event]>>,
    /// Total number of events across all sealed generations.
    sealed: usize,
    /// The open bump region: events appended after the last seal.
    tail: Vec<Event>,
}

impl Log {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a log from a sequence of events (oldest first).
    pub fn from_events<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut log = Self::new();
        log.extend(events);
        log
    }

    /// Appends one event — the paper's `l • e`. Pushes into the open bump
    /// region; seals a generation when the region fills.
    pub fn append(&mut self, event: Event) {
        self.tail.push(event);
        if self.tail.len() >= GEN_SEAL {
            self.seal();
        }
    }

    /// Appends a batch of events in order.
    pub fn append_all<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        self.extend(events);
    }

    /// Freezes the open tail into an immutable generation.
    fn seal(&mut self) {
        if !self.tail.is_empty() {
            self.sealed += self.tail.len();
            self.gens.push(std::mem::take(&mut self.tail).into());
        }
    }

    /// Number of events in the log.
    pub fn len(&self) -> usize {
        self.sealed + self.tail.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.sealed == 0 && self.tail.is_empty()
    }

    /// Iterates over events, oldest first.
    pub fn iter(&self) -> LogIter<'_> {
        LogIter {
            gens: self.gens.iter(),
            cur: [].iter(),
            tail: Some(&self.tail),
        }
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&Event> {
        self.tail
            .last()
            .or_else(|| self.gens.last().and_then(|g| g.last()))
    }

    /// The participant currently holding control: the target of the most
    /// recent scheduling event. `None` if no scheduling event has occurred.
    pub fn current_pid(&self) -> Option<Pid> {
        fn newest_sched(events: &[Event]) -> Option<Pid> {
            events.iter().rev().find_map(|e| match e.kind {
                EventKind::HwSched(p) => Some(p),
                _ => None,
            })
        }
        newest_sched(&self.tail)
            .or_else(|| self.gens.iter().rev().find_map(|g| newest_sched(g)))
    }

    /// Events authored by `pid` (excluding scheduling events), oldest first.
    pub fn events_by(&self, pid: Pid) -> impl Iterator<Item = &Event> {
        self.iter()
            .filter(move |e| e.pid == pid && !e.is_sched())
    }

    /// Number of non-scheduling events authored by `pid`. Strategy automata
    /// use this to locate their own position in the game.
    pub fn count_by(&self, pid: Pid) -> usize {
        self.events_by(pid).count()
    }

    /// Drops every scheduling event, keeping only primitive events. Useful
    /// when comparing logs across layers whose schedulers differ (§2: the
    /// high-level scheduler `φhs` produces a coarser schedule).
    pub fn without_sched(&self) -> Log {
        if self.iter().any(Event::is_sched) {
            Log::from_events(self.iter().filter(|e| !e.is_sched()).cloned())
        } else {
            self.clone()
        }
    }

    /// The suffix of events appended after the first `prefix_len` events,
    /// oldest first.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > self.len()`.
    pub fn suffix_from(&self, prefix_len: usize) -> impl Iterator<Item = &Event> {
        assert!(
            prefix_len <= self.len(),
            "suffix_from({prefix_len}) out of bounds for log of length {}",
            self.len()
        );
        self.iter().skip(prefix_len)
    }

    /// Whether `prefix` is a prefix of this log.
    pub fn has_prefix(&self, prefix: &Log) -> bool {
        self.len() >= prefix.len() && self.iter().zip(prefix.iter()).all(|(a, b)| a == b)
    }

    /// Mazurkiewicz trace equivalence: whether `other` can be obtained from
    /// this log by swapping adjacent [`crate::event::independent`] events
    /// (ignoring scheduling events, which carry no shared state).
    ///
    /// Decided by the standard greedy projection argument: for each event
    /// of `other` in order, its match in the remainder of `self` must be
    /// the first occurrence of an equal event, and every earlier unmatched
    /// event must be independent of it (only independent events may have
    /// been commuted past it).
    pub fn trace_equivalent(&self, other: &Log) -> bool {
        let mine: Vec<&Event> = self.iter().filter(|e| !e.is_sched()).collect();
        let theirs: Vec<&Event> = other.iter().filter(|e| !e.is_sched()).collect();
        if mine.len() != theirs.len() {
            return false;
        }
        let mut taken = vec![false; mine.len()];
        'outer: for want in theirs {
            for (i, have) in mine.iter().enumerate() {
                if taken[i] {
                    continue;
                }
                if *have == want {
                    taken[i] = true;
                    continue 'outer;
                }
                // `want` would have to commute backwards past `have`.
                if !crate::event::independent(have, want) {
                    return false;
                }
            }
            return false;
        }
        true
    }
}

/// Iterator over a [`Log`]'s events, oldest first: walks the sealed
/// generations, then the open tail.
pub struct LogIter<'a> {
    gens: std::slice::Iter<'a, Arc<[Event]>>,
    cur: std::slice::Iter<'a, Event>,
    tail: Option<&'a [Event]>,
}

impl<'a> Iterator for LogIter<'a> {
    type Item = &'a Event;

    fn next(&mut self) -> Option<&'a Event> {
        loop {
            if let Some(e) = self.cur.next() {
                return Some(e);
            }
            if let Some(gen) = self.gens.next() {
                self.cur = gen.iter();
                continue;
            }
            self.cur = self.tail.take()?.iter();
        }
    }
}

// Equality, ordering-sensitive: two logs are equal iff they hold the same
// event sequence, regardless of how that sequence is cut into generations.
impl PartialEq for Log {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Log {}

// Hash must agree with `PartialEq`: generation boundaries are invisible.
impl Hash for Log {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for e in self.iter() {
            e.hash(state);
        }
    }
}

impl Index<usize> for Log {
    type Output = Event;

    fn index(&self, idx: usize) -> &Event {
        let mut at = idx;
        for gen in &self.gens {
            if at < gen.len() {
                return &gen[at];
            }
            at -= gen.len();
        }
        &self.tail[at]
    }
}

impl fmt::Display for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "•")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Log {
    type Item = &'a Event;
    type IntoIter = LogIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Event> for Log {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Self::from_events(iter)
    }
}

impl Extend<Event> for Log {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        for e in iter {
            self.append(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Loc;

    fn fai(pid: u32) -> Event {
        Event::new(Pid(pid), EventKind::FaiT(Loc(0)))
    }

    #[test]
    fn append_preserves_order() {
        let mut log = Log::new();
        log.append(fai(1));
        log.append(fai(2));
        assert_eq!(log[0].pid, Pid(1));
        assert_eq!(log[1].pid, Pid(2));
    }

    #[test]
    fn current_pid_tracks_last_sched() {
        let mut log = Log::new();
        assert_eq!(log.current_pid(), None);
        log.append(Event::sched(Pid(1)));
        log.append(fai(1));
        log.append(Event::sched(Pid(2)));
        assert_eq!(log.current_pid(), Some(Pid(2)));
    }

    #[test]
    fn count_by_ignores_sched_events() {
        let mut log = Log::new();
        log.append(Event::sched(Pid(1)));
        log.append(fai(1));
        log.append(fai(1));
        log.append(fai(2));
        assert_eq!(log.count_by(Pid(1)), 2);
        assert_eq!(log.count_by(Pid(2)), 1);
    }

    #[test]
    fn without_sched_strips_scheduling() {
        let mut log = Log::new();
        log.append(Event::sched(Pid(1)));
        log.append(fai(1));
        let stripped = log.without_sched();
        assert_eq!(stripped.len(), 1);
        assert!(!stripped[0].is_sched());
    }

    #[test]
    fn prefix_relation() {
        let mut a = Log::new();
        a.append(fai(1));
        let mut b = a.clone();
        b.append(fai(2));
        assert!(b.has_prefix(&a));
        assert!(!a.has_prefix(&b));
        let suffix: Vec<Event> = b.suffix_from(a.len()).cloned().collect();
        assert_eq!(suffix, vec![fai(2)]);
    }

    #[test]
    fn display_joins_with_bullet() {
        let log = Log::from_events([fai(1), fai(2)]);
        assert_eq!(log.to_string(), "p1.FAI_t(b0)•p2.FAI_t(b0)");
    }

    #[test]
    fn collect_from_iterator() {
        let log: Log = [fai(1), fai(2)].into_iter().collect();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn trace_equivalence_permits_independent_swaps_only() {
        let pull_a = Event::new(Pid(1), EventKind::Pull(Loc(1)));
        let pull_b = Event::new(Pid(2), EventKind::Pull(Loc(2)));
        let log = Log::from_events([pull_a.clone(), pull_b.clone()]);
        let swapped = Log::from_events([pull_b, pull_a.clone()]);
        assert!(log.trace_equivalent(&swapped), "disjoint pulls commute");
        assert!(log.trace_equivalent(&log));
        // Dependent events (same location) must not be reordered.
        let push_a = Event::new(Pid(2), EventKind::Push(Loc(1), crate::val::Val::Int(0)));
        let dep = Log::from_events([pull_a.clone(), push_a.clone()]);
        let dep_swapped = Log::from_events([push_a, pull_a]);
        assert!(!dep.trace_equivalent(&dep_swapped));
    }

    #[test]
    fn trace_equivalence_ignores_scheds_and_checks_multiset() {
        let e = fai(1);
        let mut with_sched = Log::from_events([e.clone()]);
        with_sched.append(Event::sched(Pid(2)));
        let bare = Log::from_events([e]);
        assert!(with_sched.trace_equivalent(&bare));
        assert!(!bare.trace_equivalent(&Log::new()));
    }

    #[test]
    fn snapshots_are_independent_of_later_appends() {
        let mut a = Log::from_events([fai(1)]);
        let b = a.clone();
        a.append(fai(2));
        assert_eq!(a.len(), 2, "mutation leaves the snapshot untouched");
        assert_eq!(b.len(), 1, "the original snapshot is untouched");
        assert!(b.has_prefix(&b) && a.has_prefix(&b));
    }

    #[test]
    fn generation_boundaries_are_invisible() {
        // Push enough events to seal several generations, then compare
        // against a log with a different cut structure built by clones.
        let events: Vec<Event> = (0..(GEN_SEAL * 3 + 7)).map(|i| fai(i as u32)).collect();
        let flat = Log::from_events(events.clone());
        let mut staged = Log::new();
        for (i, e) in events.iter().enumerate() {
            staged.append(e.clone());
            if i % 11 == 0 {
                // Force snapshots mid-stream; they must not perturb the
                // observable sequence.
                let snap = staged.clone();
                assert!(staged.has_prefix(&snap));
            }
        }
        assert_eq!(flat, staged);
        assert_eq!(flat.len(), staged.len());
        use std::collections::hash_map::DefaultHasher;
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        flat.hash(&mut h1);
        staged.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish(), "hash ignores generation cuts");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(&flat[i], e);
            assert_eq!(&staged[i], e);
        }
        assert_eq!(flat.last(), events.last());
        let suffix: Vec<Event> = staged.suffix_from(GEN_SEAL).cloned().collect();
        assert_eq!(suffix, events[GEN_SEAL..].to_vec());
    }
}
