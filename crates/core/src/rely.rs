//! Rely and guarantee conditions.
//!
//! "Each layer interface also specifies its set of valid environment
//! contexts. This validity corresponds to a generalized version of the
//! 'rely' (or 'assume') condition in rely-guarantee-based reasoning. Each
//! layer interface can also provide its own 'guarantee' condition. These
//! conditions are simply expressed as **invariants over the global log**"
//! (§2; Fig. 7: `Inv ∈ Log → Prop`, `R, G ∈ Id ⇀ Inv`).
//!
//! The `Compat` rule (Fig. 9) requires inclusions `L[B].R(i) ⊆ L[A].G(i)`.
//! In Coq these are proved; here inclusion is *checked*: structurally (a
//! named invariant implies itself) and empirically (on a probe suite of
//! logs gathered during verification). A failed inclusion rejects the
//! composition, mirroring an unprovable side condition.

use std::fmt;
use std::sync::Arc;

use crate::id::Pid;
use crate::log::Log;

/// A named invariant over the global log, parameterized by the participant
/// it concerns (Fig. 7: `Inv ∈ Log → Prop`).
#[derive(Clone)]
pub struct Invariant {
    name: String,
    #[allow(clippy::type_complexity)]
    check: Arc<dyn Fn(Pid, &Log) -> bool + Send + Sync>,
}

impl Invariant {
    /// Creates a named invariant from a predicate on `(pid, log)`.
    pub fn new<F>(name: &str, check: F) -> Self
    where
        F: Fn(Pid, &Log) -> bool + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            check: Arc::new(check),
        }
    }

    /// The trivially true invariant.
    pub fn trivial() -> Self {
        Self::new("true", |_, _| true)
    }

    /// The invariant's name. Two invariants with the same name are treated
    /// as the same condition by structural inclusion checking, so names
    /// must be chosen to identify the condition globally (e.g.
    /// `"fair-sched(m=4)"`, `"ticket-lock-released-within(3)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant for participant `pid` on `log`.
    pub fn holds(&self, pid: Pid, log: &Log) -> bool {
        (self.check)(pid, log)
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
            let empirically_ok = probes.iter().all(|(pid, log)| {
                !self.holds(*pid, log) || needed.holds(*pid, log)
            });
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
        f.debug_struct("ProbeSuite").field("probes", &probes).finish()
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
        Invariant::new(name, move |pid, log: &Log| log.count_by(pid) <= n)
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
}
