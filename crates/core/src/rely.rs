//! Rely and guarantee conditions.
//!
//! "Each layer interface also specifies its set of valid environment
//! contexts. This validity corresponds to a generalized version of the
//! 'rely' (or 'assume') condition in rely-guarantee-based reasoning. Each
//! layer interface can also provide its own 'guarantee' condition. These
//! conditions are simply expressed as **invariants over the global log**"
//! (§2; Fig. 7: `Inv ∈ Log → Prop`, `R, G ∈ Id ⇀ Inv`).
//!
//! # Invariants as step monitors
//!
//! An [`Invariant`] is a fold over the log: an initial state for a
//! participant, a filter naming the events the fold reads ([`Touches`]),
//! and a step that folds in one of them and reports whether that event
//! violated the invariant. A violation is sticky: the invariant holds on a
//! log iff no event of it violated it, so it fails on every extension of a
//! log it fails on — the per-step reading of guarantees and the stability
//! of invariants under rely steps in Colvin et al.'s rely/guarantee
//! proofs. [`Invariant::holds`] and [`Conditions::first_violation`] run the
//! fold over a whole log; a [`ConditionsMonitor`] keeps the fold states of
//! one condition set, so a [`crate::machine::LayerMachine`] feeds it only
//! the events appended since its previous check instead of re-reading the
//! log at every step, and skips the events no fold reads.
//!
//! The `Compat` rule (Fig. 9) requires inclusions `L[B].R(i) ⊆ L[A].G(i)`.
//! In Coq these are proved; here inclusion is *checked*: structurally (a
//! named invariant implies itself) and empirically (on a probe suite of
//! logs gathered during verification). A failed inclusion rejects the
//! composition, mirroring an unprovable side condition.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;
use crate::id::Pid;
use crate::log::Log;

/// Which events a step fold reads: `touches(pid, event)` for the
/// participant `pid` the fold is started for. A fold skips every event its
/// filter rejects, so a monitor whose folds touch none of the events
/// appended since its last check has nothing to fold — and nothing to copy
/// if it is shared with a fork.
pub type Touches = fn(Pid, &Event) -> bool;

/// The filter of a fold that reads every event.
pub fn every_event(_: Pid, _: &Event) -> bool {
    true
}

/// The filter of a fold that reads only the participant's own
/// non-scheduling events.
pub fn own_events(pid: Pid, e: &Event) -> bool {
    e.pid == pid && !e.is_sched()
}

/// One participant's running fold of an [`Invariant`], type-erased.
trait InvariantFold: Send + Sync {
    fn touches(&self, event: &Event) -> bool;

    /// Folds in one event the fold touches; `false` when the event
    /// violates the invariant.
    fn step(&mut self, event: &Event) -> bool;

    fn boxed_clone(&self) -> Box<dyn InvariantFold>;
}

#[derive(Clone)]
struct Fold<S> {
    pid: Pid,
    touches: Touches,
    state: S,
    step: fn(&mut S, &Event) -> bool,
}

impl<S: Clone + Send + Sync + 'static> InvariantFold for Fold<S> {
    fn touches(&self, event: &Event) -> bool {
        (self.touches)(self.pid, event)
    }

    fn step(&mut self, event: &Event) -> bool {
        (self.step)(&mut self.state, event)
    }

    fn boxed_clone(&self) -> Box<dyn InvariantFold> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn InvariantFold> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

type StartFn = dyn Fn(Pid) -> Box<dyn InvariantFold> + Send + Sync;

/// A named invariant over the global log, parameterized by the participant
/// it concerns (Fig. 7: `Inv ∈ Log → Prop`), written as a step fold (see
/// the [module docs](self)).
#[derive(Clone)]
pub struct Invariant {
    name: String,
    start: Arc<StartFn>,
}

impl Invariant {
    /// Creates a named invariant as a fold for a participant `pid`:
    /// `init(pid)` is the state on the empty log, `touches` selects the
    /// events the fold reads (it skips the rest), and `step` folds in one
    /// of them, returning `false` when that event violates the invariant.
    /// Everything `step` needs beyond the event (the participant, a bound)
    /// lives in the state.
    pub fn fold<S, I>(
        name: &str,
        touches: Touches,
        init: I,
        step: fn(&mut S, &Event) -> bool,
    ) -> Self
    where
        S: Clone + Send + Sync + 'static,
        I: Fn(Pid) -> S + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            start: Arc::new(move |pid| {
                Box::new(Fold {
                    pid,
                    touches,
                    state: init(pid),
                    step,
                })
            }),
        }
    }

    /// The trivially true invariant: it reads no event.
    pub fn trivial() -> Self {
        Self::fold("true", |_, _| false, |_| (), |_, _| true)
    }

    /// The invariant's name. Two invariants with the same name are treated
    /// as the same condition by structural inclusion checking, so names
    /// must be chosen to identify the condition globally (e.g.
    /// `"fair-sched(m=4)"`, `"ticket-lock-released-within(3)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant for participant `pid` on `log`: the fold
    /// run from the empty log, stopping at the first violating event.
    pub fn holds(&self, pid: Pid, log: &Log) -> bool {
        let mut fold = (self.start)(pid);
        log.iter().all(|e| !fold.touches(e) || fold.step(e))
    }
}

impl fmt::Debug for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Invariant({})", self.name)
    }
}

/// A conjunction of named invariants — the form both rely and guarantee
/// conditions take.
#[derive(Debug, Clone, Default)]
pub struct Conditions {
    invariants: Vec<Invariant>,
}

impl Conditions {
    /// The empty (trivially true) condition set.
    pub fn none() -> Self {
        Self::default()
    }

    /// A condition set from invariants.
    pub fn from_invariants<I: IntoIterator<Item = Invariant>>(invariants: I) -> Self {
        Self {
            invariants: invariants.into_iter().collect(),
        }
    }

    /// Adds an invariant.
    pub fn with(mut self, inv: Invariant) -> Self {
        self.invariants.push(inv);
        self
    }

    /// The invariants, in insertion order.
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    /// Whether every invariant holds for `pid` on `log`.
    pub fn holds(&self, pid: Pid, log: &Log) -> bool {
        self.invariants.iter().all(|inv| inv.holds(pid, log))
    }

    /// The first violated invariant for `pid` on `log`, if any.
    pub fn first_violation(&self, pid: Pid, log: &Log) -> Option<&Invariant> {
        self.invariants.iter().find(|inv| !inv.holds(pid, log))
    }

    /// Starts the step monitors of these conditions for `pid`, on the
    /// empty log.
    pub fn monitor(&self, pid: Pid) -> ConditionsMonitor {
        ConditionsMonitor {
            folds: self
                .invariants
                .iter()
                .map(|inv| Some((inv.start)(pid)))
                .collect(),
        }
    }

    /// Whether both sets hold the very same invariants (the same
    /// allocations, in the same order), so one monitor can serve both.
    pub fn same_invariants(&self, other: &Conditions) -> bool {
        self.invariants.len() == other.invariants.len()
            && self
                .invariants
                .iter()
                .zip(&other.invariants)
                .all(|(a, b)| Arc::ptr_eq(&a.start, &b.start))
    }

    /// Conjunction of two condition sets (used by `Compat` for
    /// `L[A∪B].R = L[A].R ∩ L[B].R` — intersecting the *sets of valid
    /// contexts* conjoins the invariants).
    pub fn and(&self, other: &Conditions) -> Conditions {
        let mut invariants = self.invariants.clone();
        for inv in &other.invariants {
            if !invariants.iter().any(|i| i.name() == inv.name()) {
                invariants.push(inv.clone());
            }
        }
        Conditions { invariants }
    }

    /// Checks that `self` implies `other`, i.e. every invariant of `other`
    /// is entailed by `self`. The check is structural (same-named
    /// invariants entail each other) with an empirical fallback: on every
    /// probe log (and probe pid), whenever `self` holds, `other` must hold.
    ///
    /// Returns the name of the first invariant of `other` that could not
    /// be established, or `None` if the implication was established.
    pub fn implies(&self, other: &Conditions, probes: &ProbeSuite) -> Option<String> {
        for needed in &other.invariants {
            let structural = self.invariants.iter().any(|i| i.name() == needed.name());
            if structural {
                continue;
            }
            // Empirical check on the probe suite.
            let empirically_ok = probes
                .iter()
                .all(|(pid, log)| !self.holds(*pid, log) || needed.holds(*pid, log));
            let nontrivial = !probes.is_empty();
            if !(empirically_ok && nontrivial) {
                return Some(needed.name().to_owned());
            }
        }
        None
    }

    /// Names of all invariants.
    pub fn names(&self) -> Vec<&str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }
}

/// The step monitors of a [`Conditions`] set for one participant: one fold
/// state per invariant, fed each event of the log once, in order.
///
/// After [`ConditionsMonitor::step`] has been called on the events of a
/// log, [`ConditionsMonitor::first_violation`] answers exactly what
/// [`Conditions::first_violation`] answers on that log. Cloning copies the
/// fold states, so a clone taken at a cut point and fed a different
/// continuation stays independent.
#[derive(Clone)]
pub struct ConditionsMonitor {
    /// One fold per invariant, in order; `None` once that invariant has
    /// been violated (violations are sticky, so it is never stepped again).
    folds: Vec<Option<Box<dyn InvariantFold>>>,
}

impl ConditionsMonitor {
    /// Whether folding in `event` could change this monitor: some
    /// invariant not yet violated reads it.
    pub fn touches(&self, event: &Event) -> bool {
        self.folds.iter().flatten().any(|fold| fold.touches(event))
    }

    /// Folds in the next event of the log.
    pub fn step(&mut self, event: &Event) {
        for slot in &mut self.folds {
            if slot
                .as_mut()
                .is_some_and(|fold| fold.touches(event) && !fold.step(event))
            {
                *slot = None;
            }
        }
    }

    /// The first invariant of `conditions` violated by the events folded so
    /// far. `conditions` must be the set this monitor was started from.
    pub fn first_violation<'c>(&self, conditions: &'c Conditions) -> Option<&'c Invariant> {
        debug_assert_eq!(self.folds.len(), conditions.invariants.len());
        let at = self.folds.iter().position(Option::is_none)?;
        Some(&conditions.invariants[at])
    }
}

impl fmt::Debug for ConditionsMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let violated: Vec<bool> = self.folds.iter().map(Option::is_none).collect();
        f.debug_struct("ConditionsMonitor")
            .field("violated", &violated)
            .finish()
    }
}

/// A suite of `(pid, log)` probes used for empirical implication checking.
/// Verifiers collect the logs reached while checking a layer and reuse them
/// as probes for `Compat` side conditions.
///
/// Probes live in `Arc`-shared chunks: [`ProbeSuite::extend_from`] and
/// cloning share the other suite's chunks instead of copying every log, so
/// certificates can merge and clone their probe logs all the way up a
/// composition tower. Only [`crate::calculus::pcomp`] reads them.
/// Iteration order, [`ProbeSuite::len`] and equality are those of the flat
/// probe list; chunk boundaries are invisible.
#[derive(Clone, Default)]
pub struct ProbeSuite {
    /// Non-empty chunks, oldest first.
    chunks: Vec<Arc<Vec<(Pid, Log)>>>,
    len: usize,
}

impl ProbeSuite {
    /// An empty probe suite.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a probe, appending to the last chunk unless another suite
    /// shares it.
    pub fn push(&mut self, pid: Pid, log: Log) {
        match self.chunks.last_mut().and_then(Arc::get_mut) {
            Some(chunk) => chunk.push((pid, log)),
            None => self.chunks.push(Arc::new(vec![(pid, log)])),
        }
        self.len += 1;
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over probes.
    pub fn iter(&self) -> impl Iterator<Item = &(Pid, Log)> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Appends another suite's probes after this one's, sharing its chunks.
    pub fn extend_from(&mut self, other: &ProbeSuite) {
        self.chunks.extend(other.chunks.iter().cloned());
        self.len += other.len;
    }
}

impl PartialEq for ProbeSuite {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ProbeSuite {}

impl fmt::Debug for ProbeSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let probes: Vec<_> = self.iter().collect();
        f.debug_struct("ProbeSuite")
            .field("probes", &probes)
            .finish()
    }
}

/// Per-layer rely + guarantee conditions, both maps from participant to
/// invariants over the log. We use one uniform condition set applied to
/// each participant (the paper's `Id ⇀ Inv` maps are uniform for all the
/// objects built with the toolkit; per-pid refinement can be expressed
/// inside an invariant's predicate).
#[derive(Debug, Clone, Default)]
pub struct RelyGuarantee {
    /// The rely condition `R`: what the layer assumes of its environment
    /// contexts.
    pub rely: Conditions,
    /// The guarantee condition `G`: what the layer's own participants
    /// promise about the log after each of their steps.
    pub guarantee: Conditions,
}

impl RelyGuarantee {
    /// The trivial rely/guarantee pair.
    pub fn none() -> Self {
        Self::default()
    }

    /// Creates a rely/guarantee pair.
    pub fn new(rely: Conditions, guarantee: Conditions) -> Self {
        Self { rely, guarantee }
    }

    /// The compatibility side condition of the `Compat` rule (Fig. 9) in
    /// one direction: this layer's guarantee must imply `other`'s rely.
    /// Returns the name of the first unestablished invariant, if any.
    pub fn guarantee_implies_rely_of(
        &self,
        other: &RelyGuarantee,
        probes: &ProbeSuite,
    ) -> Option<String> {
        self.guarantee.implies(&other.rely, probes)
    }

    /// Composition for `Compat` (Fig. 9): `R = R_A ∩ R_B`,
    /// `G = G_A ∪ G_B`. For invariant sets, intersecting valid-context
    /// sets conjoins rely invariants; the union of guarantees keeps the
    /// invariants common to both (what *every* member of `A ∪ B` can be
    /// relied on to uphold).
    pub fn compose_parallel(&self, other: &RelyGuarantee) -> RelyGuarantee {
        let rely = self.rely.and(&other.rely);
        // G_A ∪ G_B as sets of allowed behaviours = intersection of the
        // invariant conjunctions: keep invariants present in both.
        let guarantee = Conditions::from_invariants(
            self.guarantee
                .invariants()
                .iter()
                .filter(|i| {
                    other
                        .guarantee
                        .invariants()
                        .iter()
                        .any(|j| j.name() == i.name())
                })
                .cloned(),
        );
        RelyGuarantee { rely, guarantee }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn ev_count_le(name: &str, n: usize) -> Invariant {
        Invariant::fold(
            name,
            own_events,
            move |_| (0, n),
            |(count, n), _| {
                *count += 1;
                *count <= *n
            },
        )
    }

    #[test]
    fn invariant_evaluates() {
        let inv = ev_count_le("le2", 2);
        let mut log = Log::new();
        assert!(inv.holds(Pid(0), &log));
        for _ in 0..3 {
            log.append(Event::prim(Pid(0), "x", vec![]));
        }
        assert!(!inv.holds(Pid(0), &log));
    }

    #[test]
    fn conditions_conjoin() {
        let c = Conditions::none()
            .with(ev_count_le("le5", 5))
            .with(ev_count_le("le1", 1));
        let mut log = Log::new();
        log.append(Event::prim(Pid(0), "x", vec![]));
        log.append(Event::prim(Pid(0), "x", vec![]));
        assert!(!c.holds(Pid(0), &log));
        assert_eq!(c.first_violation(Pid(0), &log).unwrap().name(), "le1");
    }

    #[test]
    fn structural_implication_by_name() {
        let g = Conditions::none().with(ev_count_le("le3", 3));
        let r = Conditions::none().with(ev_count_le("le3", 3));
        assert_eq!(g.implies(&r, &ProbeSuite::new()), None);
    }

    #[test]
    fn empirical_implication_needs_probes() {
        let g = Conditions::none().with(ev_count_le("le1", 1));
        let r = Conditions::none().with(ev_count_le("le5", 5));
        // No probes: cannot establish le1 ⇒ le5 empirically.
        assert_eq!(g.implies(&r, &ProbeSuite::new()), Some("le5".to_owned()));
        // With probes on which the implication holds, it is accepted.
        let mut probes = ProbeSuite::new();
        probes.push(Pid(0), Log::new());
        let mut log = Log::new();
        log.append(Event::prim(Pid(0), "x", vec![]));
        probes.push(Pid(0), log);
        assert_eq!(g.implies(&r, &probes), None);
    }

    #[test]
    fn empirical_implication_detects_counterexample() {
        let g = Conditions::none().with(Invariant::trivial());
        let r = Conditions::none().with(ev_count_le("le0", 0));
        let mut probes = ProbeSuite::new();
        let mut log = Log::new();
        log.append(Event::prim(Pid(0), "x", vec![]));
        probes.push(Pid(0), log);
        assert_eq!(g.implies(&r, &probes), Some("le0".to_owned()));
    }

    fn probe(n: u32) -> (Pid, Log) {
        let log = Log::from_events((0..n).map(|i| Event::prim(Pid(i), "x", vec![])));
        (Pid(n), log)
    }

    #[test]
    fn chunked_suites_equal_the_flat_list() {
        let probes: Vec<(Pid, Log)> = (0..7).map(probe).collect();
        let mut flat = ProbeSuite::new();
        for (pid, log) in &probes {
            flat.push(*pid, log.clone());
        }
        // The same probes assembled from three suites, one of them shared
        // with a clone that keeps growing afterwards.
        let mut a = ProbeSuite::new();
        a.push(probes[0].0, probes[0].1.clone());
        a.push(probes[1].0, probes[1].1.clone());
        let mut b = ProbeSuite::new();
        for (pid, log) in &probes[2..5] {
            b.push(*pid, log.clone());
        }
        let mut b_clone = b.clone();
        b_clone.push(Pid(99), Log::new());
        let mut chunked = ProbeSuite::new();
        chunked.extend_from(&a);
        chunked.extend_from(&ProbeSuite::new());
        chunked.extend_from(&b);
        chunked.push(probes[5].0, probes[5].1.clone());
        chunked.push(probes[6].0, probes[6].1.clone());
        assert_eq!(chunked.len(), flat.len());
        assert_eq!(chunked, flat);
        assert!(chunked.iter().eq(probes.iter()));
        // Growing the clone (or the chunked suite) touched no shared chunk.
        assert_eq!(b.len(), 3);
        assert!(b.iter().eq(probes[2..5].iter()));
        assert_eq!(b_clone.len(), 4);
        assert_ne!(chunked, b_clone);
    }

    #[test]
    fn parallel_composition_of_conditions() {
        let a = RelyGuarantee::new(
            Conditions::none().with(ev_count_le("rA", 5)),
            Conditions::none()
                .with(ev_count_le("common", 5))
                .with(ev_count_le("gA", 5)),
        );
        let b = RelyGuarantee::new(
            Conditions::none().with(ev_count_le("rB", 5)),
            Conditions::none().with(ev_count_le("common", 5)),
        );
        let c = a.compose_parallel(&b);
        let rely_names = c.rely.names();
        assert!(rely_names.contains(&"rA") && rely_names.contains(&"rB"));
        assert_eq!(c.guarantee.names(), vec!["common"]);
    }

    #[test]
    fn and_deduplicates_by_name() {
        let a = Conditions::none().with(ev_count_le("x", 1));
        let b = Conditions::none().with(ev_count_le("x", 1));
        assert_eq!(a.and(&b).invariants().len(), 1);
    }

    #[test]
    fn monitor_violations_are_sticky_and_ordered() {
        let c = Conditions::none()
            .with(ev_count_le("le3", 3))
            .with(ev_count_le("le1", 1));
        let mut m = c.monitor(Pid(0));
        let mut log = Log::new();
        let mut seen = Vec::new();
        for i in 0..5 {
            let e = Event::prim(Pid(0), "x", vec![]);
            // Once both invariants are violated, no fold reads anything.
            assert_eq!(m.touches(&e), i < 4);
            m.step(&e);
            log.append(e);
            let got = m.first_violation(&c).map(Invariant::name);
            assert_eq!(got, c.first_violation(Pid(0), &log).map(Invariant::name));
            seen.push(got);
        }
        // le1 breaks at the second event and stays broken; once le3 (listed
        // first) breaks at the fourth, it is the first violation.
        assert_eq!(
            seen,
            [None, Some("le1"), Some("le1"), Some("le3"), Some("le3")]
        );
        // Events the folds do not read leave the monitor untouched.
        let other = Event::prim(Pid(1), "x", vec![]);
        let fresh = c.monitor(Pid(0));
        assert!(!fresh.touches(&other) && !fresh.touches(&Event::sched(Pid(0))));
    }

    #[test]
    fn same_invariants_means_the_same_allocations() {
        let c = Conditions::none().with(ev_count_le("x", 1));
        assert!(c.same_invariants(&c.clone()));
        let lookalike = Conditions::none().with(ev_count_le("x", 1));
        assert!(!c.same_invariants(&lookalike), "equal names are not enough");
        assert!(!c.same_invariants(&Conditions::none()));
    }
}
