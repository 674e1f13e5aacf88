//! The concurrent layer calculus (Fig. 9) and certified layers.
//!
//! A certified concurrent abstraction layer is "a triple `(L1[A], M, L2[A])`
//! plus a mechanized proof object showing that the layer implementation `M`,
//! running on behalf of a thread set `A` over the interface `L1`, indeed
//! faithfully implements the desirable interface `L2` above" (§1). In this
//! reproduction the proof object is a [`Certificate`]: the record of every
//! obligation discharged by the bounded simulation checker. A
//! [`CertifiedLayer`] value can only be obtained by running the checks (or
//! by composing already-checked layers through the calculus rules), so
//! possession of the value plays the role the proof object plays in Coq.
//!
//! The rules of Fig. 9 map to constructors as follows:
//!
//! | Fig. 9 | here |
//! |--------|------|
//! | `Empty`  | [`empty`] |
//! | `Fun`    | [`check_fun`] |
//! | `Vcomp`  | [`vcomp`] |
//! | `Hcomp`  | [`hcomp`] |
//! | `Wk`     | [`weaken`] with an [`IfaceRefinement`] from [`check_iface_refinement`] |
//! | `Compat`/`Pcomp` | [`pcomp`] |

use std::collections::BTreeMap;
use std::fmt;

use crate::env::EnvContext;
use crate::id::{Pid, PidSet};
use crate::layer::LayerInterface;
use crate::machine::MachineError;
use crate::module::Module;
use crate::rely::ProbeSuite;
use crate::sim::{check_prim_refinement, SimFailure, SimOptions, SimRelation};
use crate::val::Val;

/// The calculus rule (or auxiliary theorem) that discharged an obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Fig. 9 `Empty`.
    Empty,
    /// Fig. 9 `Fun` — leaf simulation check.
    Fun,
    /// Fig. 9 `Vcomp` — vertical composition.
    Vcomp,
    /// Fig. 9 `Hcomp` — horizontal composition.
    Hcomp,
    /// Fig. 9 `Wk` — weakening through interface refinements.
    Wk,
    /// Fig. 9 `Compat` side condition.
    Compat,
    /// Fig. 9 `Pcomp` — parallel composition.
    Pcomp,
    /// Interface refinement `L′ ≤_R L` (the "log-lift" pattern, §3.3).
    IfaceSim,
    /// Theorem 2.2 — contextual refinement soundness.
    Soundness,
    /// Theorem 3.1 — multicore linking.
    MulticoreLink,
    /// Theorem 5.1 — multithreaded linking.
    MultithreadLink,
    /// CompCertX translation validation (§5.5).
    TranslationValidation,
    /// A liveness (starvation-freedom) obligation (§4.1).
    Liveness,
    /// A linearizability obligation (§7).
    Linearizability,
    /// Data-race freedom via push/pull stuckness (§3.1).
    RaceFreedom,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::Empty => "Empty",
            Rule::Fun => "Fun",
            Rule::Vcomp => "Vcomp",
            Rule::Hcomp => "Hcomp",
            Rule::Wk => "Wk",
            Rule::Compat => "Compat",
            Rule::Pcomp => "Pcomp",
            Rule::IfaceSim => "IfaceSim",
            Rule::Soundness => "Soundness",
            Rule::MulticoreLink => "MulticoreLink",
            Rule::MultithreadLink => "MultithreadLink",
            Rule::TranslationValidation => "TranslationValidation",
            Rule::Liveness => "Liveness",
            Rule::Linearizability => "Linearizability",
            Rule::RaceFreedom => "RaceFreedom",
        };
        write!(f, "{s}")
    }
}

/// One discharged obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// The rule that discharged it.
    pub rule: Rule,
    /// What was checked.
    pub description: String,
    /// Number of (context × workload) cases executed.
    pub cases_checked: usize,
    /// Number of cases skipped as invalid contexts.
    pub cases_skipped: usize,
    /// Number of cases pruned by the partial-order reduction (see
    /// [`crate::por`]): trace-equivalent to a checked case.
    pub cases_reduced: usize,
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({} cases, {} skipped",
            self.rule, self.description, self.cases_checked, self.cases_skipped
        )?;
        if self.cases_reduced > 0 {
            write!(f, ", {} reduced", self.cases_reduced)?;
        }
        write!(f, ")")
    }
}

/// The runtime stand-in for a mechanized proof object: the full record of
/// obligations discharged while building a certified layer, plus the probe
/// logs reused for `Compat` side conditions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Certificate {
    obligations: Vec<Obligation>,
    /// Logs reached during checking, used as probes by [`pcomp`].
    pub probes: ProbeSuite,
    /// Shrink accounting attached after a failed sibling check was
    /// minimized by the forensics pipeline (empty for ordinary
    /// certificates, so equality comparisons between differential runs
    /// are unaffected).
    shrink_notes: Vec<crate::forensics::ShrinkNote>,
}

impl Certificate {
    /// An empty certificate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an obligation.
    pub fn push(&mut self, obligation: Obligation) {
        self.obligations.push(obligation);
    }

    /// All obligations, in discharge order.
    pub fn obligations(&self) -> &[Obligation] {
        &self.obligations
    }

    /// Total number of executed cases across all obligations.
    pub fn total_cases(&self) -> usize {
        self.obligations.iter().map(|o| o.cases_checked).sum()
    }

    /// Total number of cases the partial-order reduction skipped as
    /// trace-equivalent across all obligations.
    pub fn total_reduced(&self) -> usize {
        self.obligations.iter().map(|o| o.cases_reduced).sum()
    }

    /// Total number of cases skipped as invalid contexts across all
    /// obligations.
    pub fn total_skipped(&self) -> usize {
        self.obligations.iter().map(|o| o.cases_skipped).sum()
    }

    /// Attaches shrink accounting for a minimized counterexample (see
    /// [`crate::forensics::ShrinkNote`]).
    pub fn push_shrink_note(&mut self, note: crate::forensics::ShrinkNote) {
        self.shrink_notes.push(note);
    }

    /// Shrink accounting attached to this certificate, in insertion order.
    pub fn shrink_notes(&self) -> &[crate::forensics::ShrinkNote] {
        &self.shrink_notes
    }

    /// Merges another certificate into this one.
    pub fn merge(&mut self, other: &Certificate) {
        self.obligations.extend(other.obligations.iter().cloned());
        self.probes.extend_from(&other.probes);
        self.shrink_notes.extend(other.shrink_notes.iter().cloned());
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "certificate: {} obligations, {} cases",
            self.obligations.len(),
            self.total_cases()
        )?;
        for o in &self.obligations {
            writeln!(f, "  {o}")?;
        }
        for n in &self.shrink_notes {
            writeln!(f, "  {n}")?;
        }
        Ok(())
    }
}

/// Errors rejecting a layer construction — the executable analog of an
/// unprovable proof goal.
#[derive(Debug)]
pub enum LayerError {
    /// A simulation check found a counterexample.
    Sim(Box<SimFailure>),
    /// A machine-level failure (e.g. linking collision).
    Machine(MachineError),
    /// A rule's structural premise failed (interface or relation
    /// mismatch).
    Mismatch {
        /// What the rule required.
        expected: String,
        /// What was found.
        found: String,
        /// Which rule/premise.
        context: String,
    },
    /// A `Compat` inclusion could not be established.
    Compat {
        /// The rely invariant that was not implied.
        invariant: String,
        /// Which direction failed (`"G(A) ⇒ R(B)"` or the converse).
        side: String,
    },
    /// An overlay primitive has neither a module implementation nor an
    /// underlay primitive to pass through.
    MissingImpl {
        /// The unimplemented primitive.
        prim: String,
    },
}

impl fmt::Display for LayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerError::Sim(e) => write!(f, "{e}"),
            LayerError::Machine(e) => write!(f, "{e}"),
            LayerError::Mismatch {
                expected,
                found,
                context,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            LayerError::Compat { invariant, side } => {
                write!(f, "compat failed: {side} does not establish `{invariant}`")
            }
            LayerError::MissingImpl { prim } => {
                write!(f, "overlay primitive `{prim}` has no implementation")
            }
        }
    }
}

impl std::error::Error for LayerError {}

impl From<MachineError> for LayerError {
    fn from(e: MachineError) -> Self {
        LayerError::Machine(e)
    }
}

impl From<Box<SimFailure>> for LayerError {
    fn from(e: Box<SimFailure>) -> Self {
        LayerError::Sim(e)
    }
}

/// A certified concurrent abstraction layer `L1[A] ⊢_R M : L2[A]`.
#[derive(Debug, Clone)]
pub struct CertifiedLayer {
    /// The underlay interface `L1`.
    pub underlay: LayerInterface,
    /// The implementation module `M`.
    pub module: Module,
    /// The overlay interface `L2`.
    pub overlay: LayerInterface,
    /// The simulation relation `R`.
    pub relation: SimRelation,
    /// The focused participant set `A`.
    pub focused: PidSet,
    /// The discharged obligations.
    pub certificate: Certificate,
}

impl CertifiedLayer {
    /// Renders the judgment `L1[A] ⊢_R M : L2[A]`.
    pub fn judgment(&self) -> String {
        format!(
            "{}{} ⊢_{} {} : {}{}",
            self.underlay.name,
            self.focused,
            self.relation.name(),
            self.module.name,
            self.overlay.name,
            self.focused
        )
    }
}

/// Options shared by the checking rules: the environment contexts to
/// quantify over, per-primitive argument workloads, and low-level
/// simulation options.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Environment contexts (the bounded stand-in for "all valid `E`").
    pub contexts: Vec<EnvContext>,
    /// Argument vectors per primitive name; primitives without an entry
    /// are called once with no arguments.
    pub workloads: BTreeMap<String, Vec<Vec<Val>>>,
    /// Per-primitive setup scripts (calls run on both machines before the
    /// checked invocation).
    pub setups: BTreeMap<String, Vec<(String, Vec<Val>)>>,
    /// Low-level simulation options.
    pub sim: SimOptions,
}

impl CheckOptions {
    /// Creates options from a context family with empty workloads.
    pub fn new(contexts: Vec<EnvContext>) -> Self {
        Self {
            contexts,
            workloads: BTreeMap::new(),
            setups: BTreeMap::new(),
            sim: SimOptions::default(),
        }
    }

    /// Sets the argument vectors used when checking primitive `prim`.
    pub fn with_workload(mut self, prim: &str, args: Vec<Vec<Val>>) -> Self {
        self.workloads.insert(prim.to_owned(), args);
        self
    }

    /// Sets the setup script run before each checked invocation of `prim`.
    pub fn with_setup(mut self, prim: &str, setup: Vec<(String, Vec<Val>)>) -> Self {
        self.setups.insert(prim.to_owned(), setup);
        self
    }

    /// Sets the worker-thread count for case-grid exploration (1 = serial).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.sim.explore.workers = workers.max(1);
        self
    }

    /// Enables or disables upper-run memoization across symmetric
    /// schedules.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.sim.dedup = dedup;
        self
    }

    /// Enables or disables the partial-order reduction (skipping contexts
    /// marked trace-equivalent by [`crate::contexts::ContextGen`]).
    #[must_use]
    pub fn with_por(mut self, por: bool) -> Self {
        self.sim.explore.por = por;
        self
    }

    /// Enables or disables prefix-sharing of lower-machine runs across
    /// contexts with common consumed schedule prefixes (see
    /// [`crate::prefix`]).
    #[must_use]
    pub fn with_prefix_share(mut self, prefix_share: bool) -> Self {
        self.sim.explore.prefix_share = prefix_share;
        self
    }

    /// Enables or disables deep prefix-sharing: forking the lower machine
    /// at every environment query point (see [`crate::prefix`]).
    /// Effective only when prefix-sharing is on.
    #[must_use]
    pub fn with_deep_share(mut self, deep_share: bool) -> Self {
        self.sim.explore.deep_share = deep_share;
        self
    }

    fn sim_for(&self, prim: &str) -> SimOptions {
        let mut sim = self.sim.clone();
        if let Some(setup) = self.setups.get(prim) {
            sim.setup = setup.clone();
        }
        sim
    }

    fn args_for(&self, prim: &str) -> Vec<Vec<Val>> {
        self.workloads
            .get(prim)
            .cloned()
            .unwrap_or_else(|| vec![Vec::new()])
    }
}

/// The `Empty` rule (Fig. 9): `L[A] ⊢_id ∅ : L[A]`.
pub fn empty(iface: &LayerInterface, focused: PidSet) -> CertifiedLayer {
    let mut certificate = Certificate::new();
    certificate.push(Obligation {
        rule: Rule::Empty,
        description: format!("{0}[{1}] ⊢_id ∅ : {0}[{1}]", iface.name, focused),
        cases_checked: 0,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    CertifiedLayer {
        underlay: iface.clone(),
        module: Module::new("∅"),
        overlay: iface.clone(),
        relation: SimRelation::identity(),
        focused,
        certificate,
    }
}

/// The `Fun` rule (Fig. 9), generalized to whole modules: checks
/// `underlay[pid] ⊢_R module : overlay[pid]` by verifying, for every
/// overlay primitive, that its implementation (a module function, or the
/// same-named underlay primitive passed through) is simulated by the
/// overlay specification via `relation`.
///
/// # Errors
///
/// * [`LayerError::MissingImpl`] if an overlay primitive has no
///   implementation;
/// * [`LayerError::Sim`] with the first counterexample found.
pub fn check_fun(
    underlay: &LayerInterface,
    module: &Module,
    overlay: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    opts: &CheckOptions,
) -> Result<CertifiedLayer, LayerError> {
    let extended = module.install(underlay)?;
    let mut certificate = Certificate::new();
    for prim in overlay.prim_names() {
        if !extended.has_prim(prim) {
            return Err(LayerError::MissingImpl {
                prim: prim.to_owned(),
            });
        }
        let kind = if module.contains(prim) {
            "module fn"
        } else {
            "pass-through"
        };
        let evidence = check_prim_refinement(
            &extended,
            prim,
            overlay,
            prim,
            relation,
            pid,
            &opts.contexts,
            &opts.args_for(prim),
            &opts.sim_for(prim),
        )?;
        certificate.probes.extend_from(&evidence.probes);
        certificate.push(Obligation {
            rule: Rule::Fun,
            description: format!(
                "⟦{}⟧_{}[{pid}] ≤_{} {}::{prim} ({kind})",
                prim,
                extended.name,
                relation.name(),
                overlay.name
            ),
            cases_checked: evidence.cases_checked,
            cases_skipped: evidence.cases_skipped,
            cases_reduced: evidence.cases_reduced,
        });
    }
    Ok(CertifiedLayer {
        underlay: underlay.clone(),
        module: module.clone(),
        overlay: overlay.clone(),
        relation: relation.clone(),
        focused: PidSet::singleton(pid),
        certificate,
    })
}

/// An interface refinement `lower ≤_R upper` (the specification-to-
/// specification simulations used by `Wk`, e.g. the log-lift
/// `L′1[i] ≤_{R1} L1[i]` of §2).
#[derive(Debug, Clone)]
pub struct IfaceRefinement {
    /// The concrete interface.
    pub lower: LayerInterface,
    /// The abstract interface.
    pub upper: LayerInterface,
    /// The simulation relation.
    pub relation: SimRelation,
    /// Evidence.
    pub certificate: Certificate,
}

/// Checks an interface refinement `lower ≤_R upper`: every primitive of
/// `upper` must simulate the same-named primitive of `lower` via
/// `relation`.
///
/// # Errors
///
/// [`LayerError::MissingImpl`] if `lower` lacks a primitive of `upper`;
/// [`LayerError::Sim`] on a counterexample.
pub fn check_iface_refinement(
    lower: &LayerInterface,
    upper: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    opts: &CheckOptions,
) -> Result<IfaceRefinement, LayerError> {
    let mut certificate = Certificate::new();
    for prim in upper.prim_names() {
        if !lower.has_prim(prim) {
            return Err(LayerError::MissingImpl {
                prim: prim.to_owned(),
            });
        }
        let evidence = check_prim_refinement(
            lower,
            prim,
            upper,
            prim,
            relation,
            pid,
            &opts.contexts,
            &opts.args_for(prim),
            &opts.sim_for(prim),
        )?;
        certificate.probes.extend_from(&evidence.probes);
        certificate.push(Obligation {
            rule: Rule::IfaceSim,
            description: format!(
                "{}::{prim} ≤_{} {}::{prim}",
                lower.name,
                relation.name(),
                upper.name
            ),
            cases_checked: evidence.cases_checked,
            cases_skipped: evidence.cases_skipped,
            cases_reduced: evidence.cases_reduced,
        });
    }
    Ok(IfaceRefinement {
        lower: lower.clone(),
        upper: upper.clone(),
        relation: relation.clone(),
        certificate,
    })
}

fn require(cond: bool, context: &str, expected: &str, found: &str) -> Result<(), LayerError> {
    if cond {
        Ok(())
    } else {
        Err(LayerError::Mismatch {
            expected: expected.to_owned(),
            found: found.to_owned(),
            context: context.to_owned(),
        })
    }
}

/// The `Vcomp` rule (Fig. 9): from `L1[A] ⊢_R M : L2[A]` and
/// `L2[A] ⊢_S N : L3[A]`, derives `L1[A] ⊢_{R∘S} M ⊕ N : L3[A]`.
///
/// # Errors
///
/// [`LayerError::Mismatch`] if `a.overlay` and `b.underlay` are not the
/// same interface (by name and primitive set) or the focused sets differ;
/// [`LayerError::Machine`] if module linking collides.
pub fn vcomp(a: &CertifiedLayer, b: &CertifiedLayer) -> Result<CertifiedLayer, LayerError> {
    require(
        a.overlay.name == b.underlay.name && a.overlay.prim_names() == b.underlay.prim_names(),
        "Vcomp",
        &format!("b.underlay = a.overlay ({})", a.overlay.name),
        &b.underlay.name,
    )?;
    require(
        a.focused == b.focused,
        "Vcomp",
        &format!("focused {}", a.focused),
        &b.focused.to_string(),
    )?;
    let module = a.module.link(&b.module)?;
    let mut certificate = a.certificate.clone();
    certificate.merge(&b.certificate);
    certificate.push(Obligation {
        rule: Rule::Vcomp,
        description: format!(
            "{} ⊢ {} : {} (via {})",
            a.underlay.name, module.name, b.overlay.name, a.overlay.name
        ),
        cases_checked: 0,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    Ok(CertifiedLayer {
        underlay: a.underlay.clone(),
        module,
        overlay: b.overlay.clone(),
        relation: a.relation.then(&b.relation),
        focused: a.focused.clone(),
        certificate,
    })
}

/// The `Hcomp` rule (Fig. 9): two layers over the *same* underlay, same
/// relation and same focused set; their modules are linked and their
/// overlays joined.
///
/// # Errors
///
/// [`LayerError::Mismatch`] on differing underlays/relations/focused sets;
/// [`LayerError::Machine`] on linking or join collisions.
pub fn hcomp(a: &CertifiedLayer, b: &CertifiedLayer) -> Result<CertifiedLayer, LayerError> {
    require(
        a.underlay.name == b.underlay.name,
        "Hcomp",
        &a.underlay.name,
        &b.underlay.name,
    )?;
    require(
        a.relation.name() == b.relation.name(),
        "Hcomp",
        a.relation.name(),
        b.relation.name(),
    )?;
    require(
        a.focused == b.focused,
        "Hcomp",
        &a.focused.to_string(),
        &b.focused.to_string(),
    )?;
    let module = a.module.link(&b.module)?;
    let overlay = a.overlay.join(&b.overlay)?;
    let mut certificate = a.certificate.clone();
    certificate.merge(&b.certificate);
    certificate.push(Obligation {
        rule: Rule::Hcomp,
        description: format!("{} ⊢ {} : {}", a.underlay.name, module.name, overlay.name),
        cases_checked: 0,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    Ok(CertifiedLayer {
        underlay: a.underlay.clone(),
        module,
        overlay,
        relation: a.relation.clone(),
        focused: a.focused.clone(),
        certificate,
    })
}

/// The `Wk` rule (Fig. 9): strengthens a layer through interface
/// refinements on either side. `below` must refine into the layer's
/// underlay (`L′1 ≤_R L1`), `above` must refine the layer's overlay into a
/// more abstract interface (`L2 ≤_T L′2`). Either side may be `None`.
///
/// # Errors
///
/// [`LayerError::Mismatch`] if a refinement does not line up with the
/// layer's interfaces.
pub fn weaken(
    below: Option<&IfaceRefinement>,
    layer: &CertifiedLayer,
    above: Option<&IfaceRefinement>,
) -> Result<CertifiedLayer, LayerError> {
    let mut out = layer.clone();
    if let Some(b) = below {
        require(
            b.upper.name == layer.underlay.name,
            "Wk (below)",
            &layer.underlay.name,
            &b.upper.name,
        )?;
        out.underlay = b.lower.clone();
        out.relation = b.relation.then(&out.relation);
        out.certificate.merge(&b.certificate);
    }
    if let Some(t) = above {
        require(
            t.lower.name == layer.overlay.name,
            "Wk (above)",
            &layer.overlay.name,
            &t.lower.name,
        )?;
        out.overlay = t.upper.clone();
        out.relation = out.relation.then(&t.relation);
        out.certificate.merge(&t.certificate);
    }
    out.certificate.push(Obligation {
        rule: Rule::Wk,
        description: format!(
            "{} ⊢_{} {} : {}",
            out.underlay.name,
            out.relation.name(),
            out.module.name,
            out.overlay.name
        ),
        cases_checked: 0,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    Ok(out)
}

/// The `Compat` + `Pcomp` rules (Fig. 9): composes two certified layers
/// with disjoint focused sets over the same interfaces and relation into a
/// layer focused on the union. The compatibility side conditions — each
/// side's guarantee implies the other's rely, at both underlay and overlay
/// — are checked structurally and on the probe logs accumulated in both
/// certificates.
///
/// # Errors
///
/// [`LayerError::Mismatch`] on structural premises,
/// [`LayerError::Compat`] when an inclusion cannot be established.
pub fn pcomp(a: &CertifiedLayer, b: &CertifiedLayer) -> Result<CertifiedLayer, LayerError> {
    require(
        a.focused.is_disjoint(&b.focused),
        "Pcomp",
        "disjoint focused sets (A ⊥ B)",
        &format!("{} vs {}", a.focused, b.focused),
    )?;
    require(
        a.underlay.name == b.underlay.name,
        "Pcomp",
        &a.underlay.name,
        &b.underlay.name,
    )?;
    require(
        a.overlay.name == b.overlay.name,
        "Pcomp",
        &a.overlay.name,
        &b.overlay.name,
    )?;
    require(
        a.relation.name() == b.relation.name(),
        "Pcomp",
        a.relation.name(),
        b.relation.name(),
    )?;
    let mut probes = ProbeSuite::new();
    probes.extend_from(&a.certificate.probes);
    probes.extend_from(&b.certificate.probes);
    let mut certificate = a.certificate.clone();
    certificate.merge(&b.certificate);
    let mut compat_cases = 0;
    for (iface_a, iface_b, level) in [
        (&a.underlay, &b.underlay, "underlay"),
        (&a.overlay, &b.overlay, "overlay"),
    ] {
        for (ga, rb, side) in [
            (&iface_a.conditions, &iface_b.conditions, "G(A) ⇒ R(B)"),
            (&iface_b.conditions, &iface_a.conditions, "G(B) ⇒ R(A)"),
        ] {
            if let Some(invariant) = ga.guarantee_implies_rely_of(rb, &probes) {
                return Err(LayerError::Compat {
                    invariant,
                    side: format!("{side} at {level}"),
                });
            }
            compat_cases += probes.len();
        }
    }
    certificate.push(Obligation {
        rule: Rule::Compat,
        description: format!(
            "compat({0}{1}, {0}{2}, {0}{3})",
            a.underlay.name,
            a.focused,
            b.focused,
            a.focused.union(&b.focused)
        ),
        cases_checked: compat_cases,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    let focused = a.focused.union(&b.focused);
    let underlay = a.underlay.with_conditions(
        a.underlay
            .conditions
            .compose_parallel(&b.underlay.conditions),
    );
    let overlay = a
        .overlay
        .with_conditions(a.overlay.conditions.compose_parallel(&b.overlay.conditions));
    certificate.push(Obligation {
        rule: Rule::Pcomp,
        description: format!(
            "{}{} ⊢_{} {} : {}{}",
            underlay.name,
            focused,
            a.relation.name(),
            a.module.name,
            overlay.name,
            focused
        ),
        cases_checked: 0,
        cases_skipped: 0,
        cases_reduced: 0,
    });
    Ok(CertifiedLayer {
        underlay,
        module: a.module.clone(),
        overlay,
        relation: a.relation.clone(),
        focused,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contexts::ContextGen;
    use crate::event::{Event, EventKind};
    use crate::layer::PrimSpec;
    use crate::module::Lang;

    fn base_iface(name: &str) -> LayerInterface {
        LayerInterface::builder(name)
            .prim(PrimSpec::atomic("step", |ctx, _| {
                ctx.emit(EventKind::Prim("step".into(), vec![]));
                Ok(Val::Unit)
            }))
            .build()
    }

    fn wrap_module() -> Module {
        use crate::layer::{PrimCtx, PrimRun, PrimStep, SubCall};
        struct Wrap {
            sub: Option<SubCall>,
        }
        impl PrimRun for Wrap {
            fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
                if self.sub.is_none() {
                    self.sub = Some(SubCall::start(ctx, "step", vec![])?);
                }
                match self.sub.as_mut().unwrap().step(ctx)? {
                    Some(_) => Ok(PrimStep::Done(Val::Unit)),
                    None => Ok(PrimStep::Query),
                }
            }
        }
        Module::new("M").with_fn(
            Lang::Native,
            PrimSpec::strategy("wrapped", true, |_, _| Box::new(Wrap { sub: None })),
        )
    }

    fn overlay_iface(name: &str) -> LayerInterface {
        LayerInterface::builder(name)
            .prim(PrimSpec::atomic("wrapped", |ctx, _| {
                ctx.emit(EventKind::Prim("step".into(), vec![]));
                Ok(Val::Unit)
            }))
            .build()
    }

    fn opts() -> CheckOptions {
        CheckOptions::new(
            ContextGen::new(vec![Pid(0), Pid(1)])
                .with_schedule_len(2)
                .contexts(),
        )
    }

    #[test]
    fn merge_then_clone_keeps_probe_order() {
        use crate::log::Log;
        let probe = |n: u32| Log::from_events((0..n).map(|i| Event::prim(Pid(i), "x", vec![])));
        let cert = |range: std::ops::Range<u32>| {
            let mut c = Certificate::new();
            for n in range {
                c.probes.push(Pid(n), probe(n));
            }
            c
        };
        let (a, b) = (cert(0..3), cert(3..5));
        let mut merged = a.clone();
        merged.merge(&b);
        merged.probes.push(Pid(5), probe(5));
        let cloned = merged.clone();
        let expected: Vec<(Pid, Log)> = (0..6).map(|n| (Pid(n), probe(n))).collect();
        assert_eq!(merged.probes.len(), 6);
        assert!(merged.probes.iter().eq(expected.iter()));
        assert!(cloned.probes.iter().eq(expected.iter()));
        assert_eq!(merged, cloned);
        // The merge shared the sources' probes without disturbing them.
        assert!(a.probes.iter().eq(expected[..3].iter()));
        assert!(b.probes.iter().eq(expected[3..5].iter()));
    }

    #[test]
    fn empty_rule_is_identity() {
        let l = base_iface("L");
        let layer = empty(&l, PidSet::singleton(Pid(0)));
        assert_eq!(layer.underlay.name, layer.overlay.name);
        assert!(layer.module.is_empty());
        assert_eq!(layer.certificate.obligations().len(), 1);
    }

    #[test]
    fn fun_rule_certifies_wrapper() {
        let layer = check_fun(
            &base_iface("L0"),
            &wrap_module(),
            &overlay_iface("L1"),
            &SimRelation::identity(),
            Pid(1),
            &opts(),
        )
        .unwrap();
        assert!(layer.certificate.total_cases() > 0);
        assert!(layer.judgment().contains("⊢"));
    }

    #[test]
    fn fun_rule_rejects_missing_impl() {
        let overlay = LayerInterface::builder("L1")
            .prim(PrimSpec::atomic("ghost", |_, _| Ok(Val::Unit)))
            .build();
        let err = check_fun(
            &base_iface("L0"),
            &Module::new("M"),
            &overlay,
            &SimRelation::identity(),
            Pid(0),
            &opts(),
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::MissingImpl { .. }));
    }

    #[test]
    fn vcomp_requires_matching_interfaces() {
        let l0 = base_iface("L0");
        let a = empty(&l0, PidSet::singleton(Pid(0)));
        let b = empty(&base_iface("L9"), PidSet::singleton(Pid(0)));
        assert!(matches!(vcomp(&a, &b), Err(LayerError::Mismatch { .. })));
        let ok = vcomp(&a, &empty(&l0, PidSet::singleton(Pid(0)))).unwrap();
        assert_eq!(ok.relation.name(), "id ∘ id");
    }

    #[test]
    fn pcomp_unions_focused_sets() {
        let l0 = base_iface("L0");
        let a = empty(&l0, PidSet::singleton(Pid(0)));
        let b = empty(&l0, PidSet::singleton(Pid(1)));
        let ab = pcomp(&a, &b).unwrap();
        assert_eq!(ab.focused, PidSet::from_pids([Pid(0), Pid(1)]));
        // Overlapping focused sets are rejected.
        assert!(matches!(pcomp(&a, &a), Err(LayerError::Mismatch { .. })));
    }

    #[test]
    fn hcomp_joins_overlays() {
        let l0 = base_iface("L0");
        let a = check_fun(
            &l0,
            &wrap_module(),
            &overlay_iface("La"),
            &SimRelation::identity(),
            Pid(0),
            &opts(),
        )
        .unwrap();
        // Second layer: empty module, pass-through of "step".
        let b = check_fun(
            &l0,
            &Module::new("N"),
            &base_iface("Lb"),
            &SimRelation::identity(),
            Pid(0),
            &opts(),
        )
        .unwrap();
        let joined = hcomp(&a, &b).unwrap();
        assert!(joined.overlay.has_prim("wrapped"));
        assert!(joined.overlay.has_prim("step"));
    }
}
