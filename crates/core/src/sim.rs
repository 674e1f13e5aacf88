//! Strategy simulation `≤_R` (Definition 2.1) and its bounded checker.
//!
//! "We say a strategy `φ` is simulated by another strategy `φ′` with a
//! simulation relation `R` ... if, and only if, for any two related
//! environmental event sequences and any two related initial logs, ... for
//! any log `l` produced by `φ`, there must exist a log `l′` that can be
//! produced by `φ′` such that `l` and `l′` also satisfy `R`" (Def. 2.1).
//!
//! # Executable relations
//!
//! Simulation relations are represented as *event abstraction functions*
//! mapping each lower-layer event to zero or more upper-layer events —
//! exactly how the paper describes `R₁`: "mapping events `i.acq` to
//! `i.hold`, `i.rel` to `i.inc_n` and other lock-related events to empty
//! ones" (§2). Abstraction functions compose, giving an executable `R ∘ S`
//! for the `Vcomp` and `Wk` rules. Scheduling events are always dropped:
//! layers have different schedulers (the §2 walkthrough's `φ′hs` vs `φhs`),
//! and what must be preserved is "the order of lock acquiring and the
//! resulting shared state".
//!
//! # The bounded check
//!
//! [`check_prim_refinement`] checks Def. 2.1 for one lower computation /
//! upper strategy pair: for every generated environment context and
//! argument vector it (1) runs the lower machine, (2) abstracts the lower
//! log through `R` to obtain the *related* environmental event sequence,
//! (3) replays that environment for the upper machine via [`replay_env`],
//! (4) runs the upper strategy under it, and (5) compares logs modulo `R`
//! and return values. Contexts that violate the rely condition are skipped
//! — the definition only quantifies over valid contexts.
//!
//! # Parallel exploration and the upper-run memo
//!
//! The `(context × argument-vector)` grid is explored by the unified
//! exploration kernel ([`crate::explore::Kernel`]): a shared atomic work
//! queue over `std::thread::scope` workers when a caller asks for more
//! than the default one ([`crate::explore::ExploreOptions::workers`]),
//! folding outcomes in case order so the result — the evidence, the probe
//! order, and the *first* failure — is bit-identical to the serial
//! exploration. Additionally, symmetric schedules are checked once: many
//! contexts differ only in environment interleaving and abstract to the
//! same replayed upper event sequence, so the upper run is memoized keyed
//! on that sequence plus the argument vector ([`SimOptions::dedup`], a
//! [`crate::table::BoundedTable`] of at most
//! [`crate::table::TABLE_CAP`] entries). Cache hits replay the recorded
//! outcome, which keeps the evidence (case counts, probes) identical to a
//! dedup-free run.
//!
//! Symmetrically, *lower* runs are shared across contexts whose schedule
//! scripts agree on the prefix the run actually consumes
//! ([`crate::explore::ExploreOptions::prefix_share`], see
//! [`crate::prefix`]): the grid is a schedule-prefix trie, and each
//! distinct consumed prefix is executed once. With
//! [`crate::explore::ExploreOptions::deep_share`] the kernel additionally
//! stores a forked [`LayerMachine`] snapshot at *every* environment query
//! point — inside the setup phase, at each query of the checked call, and
//! at its pre-flush return — so a new context resumes from its deepest
//! snapshotted ancestor and executes only the schedule suffix (the
//! kernel's [`crate::explore::KernelTable`], which holds outcomes and
//! snapshots together). Sharing never changes the verdict,
//! the first failure, or the evidence, because every shared outcome is
//! exactly what re-execution would have produced.

use std::fmt;
use std::sync::Arc;

use crate::engine::{self, Counter};
use crate::env::EnvContext;
use crate::event::Event;
use crate::explore::{Case, CutKind};
use crate::id::Pid;
use crate::layer::{LayerInterface, PrimRun};
use crate::log::Log;
use crate::machine::LayerMachine;
use crate::rely::ProbeSuite;
use crate::strategy::{FnStrategy, StrategyMove};
use crate::table::{BoundedTable, TABLE_CAP};
use crate::val::Val;

type EventAbsFn = dyn Fn(&Event) -> Vec<Event> + Send + Sync;
type LogAbsFn = dyn Fn(&mut dyn Iterator<Item = &Event>) -> Option<Log> + Send + Sync;

#[derive(Clone)]
enum RelStage {
    PerEvent(Arc<EventAbsFn>),
    Whole(Arc<LogAbsFn>),
}

/// An executable simulation relation `R` between a lower (concrete) and an
/// upper (abstract) layer's logs.
///
/// Internally a relation is a *chain* of abstraction stages; composition
/// ([`SimRelation::then`]) concatenates chains instead of nesting
/// closures, so an `n`-deep `Vcomp` tower abstracts a log in `n` passes
/// with no intermediate closure or relation clones.
#[derive(Clone)]
pub struct SimRelation {
    name: String,
    stages: Arc<Vec<RelStage>>,
}

impl SimRelation {
    /// The identity relation `id`: logs must agree event-for-event
    /// (ignoring scheduling events). The empty stage chain — abstraction
    /// is a reference-count bump on sched-free logs.
    pub fn identity() -> Self {
        Self {
            name: "id".to_owned(),
            stages: Arc::new(Vec::new()),
        }
    }

    /// A relation given by a per-event abstraction function. Return an
    /// empty vector to erase an event, one or more events to translate it.
    /// Scheduling events are dropped automatically and never reach `f`.
    pub fn per_event<F>(name: &str, f: F) -> Self
    where
        F: Fn(&Event) -> Vec<Event> + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            stages: Arc::new(vec![RelStage::PerEvent(Arc::new(f))]),
        }
    }

    /// A relation given by a whole-log abstraction function (for relations
    /// that are not per-event, e.g. ones merging event *sequences*).
    /// Returning `None` means the lower log is outside the relation's
    /// domain. The function receives the lower log's events in order with
    /// scheduling events skipped (read in place, not copied) and must
    /// produce an upper log without scheduling events.
    pub fn whole_log<F>(name: &str, f: F) -> Self
    where
        F: Fn(&mut dyn Iterator<Item = &Event>) -> Option<Log> + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            stages: Arc::new(vec![RelStage::Whole(Arc::new(f))]),
        }
    }

    /// The relation's name, e.g. `"R1"`, `"id"`, `"R1 ∘ R2"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Applies the abstraction to a lower log, producing the related upper
    /// log (without scheduling events), or `None` if outside the domain.
    /// The first stage reads the lower log in place, skipping its
    /// scheduling events, instead of first materializing the sched-free
    /// copy; only the identity relation copies, because that copy is its
    /// result.
    pub fn abstracted(&self, lower: &Log) -> Option<Log> {
        fn per_event<'a>(f: &EventAbsFn, events: impl Iterator<Item = &'a Event>) -> Log {
            let mut out = Log::new();
            for e in events {
                out.extend(f(e));
            }
            out
        }
        let mut stages = self.stages.iter();
        let mut cur = match stages.next() {
            None => return Some(lower.without_sched()),
            Some(RelStage::PerEvent(f)) => {
                per_event(f.as_ref(), lower.iter().filter(|e| !e.is_sched()))
            }
            Some(RelStage::Whole(f)) => f(&mut lower.iter().filter(|e| !e.is_sched()))?,
        };
        for stage in stages {
            cur = match stage {
                RelStage::PerEvent(f) => per_event(f.as_ref(), cur.iter()),
                RelStage::Whole(f) => f(&mut cur.iter())?,
            };
        }
        Some(cur)
    }

    /// Whether `R(lower, upper)` holds: the abstraction of `lower` equals
    /// `upper` modulo scheduling events.
    pub fn holds(&self, lower: &Log, upper: &Log) -> bool {
        self.abstracted(lower)
            .is_some_and(|abs| eq_modulo_sched(&abs, upper))
    }

    /// Relation composition `self ∘ next` in diagram order: `self` relates
    /// `L₁→L₂` and `next` relates `L₂→L₃`; the result relates `L₁→L₃`.
    /// Used by the `Vcomp` and `Wk` rules (Fig. 9). Concatenates the stage
    /// chains: each stage is an `Arc`, so composing copies no closure.
    /// Names are labels, not identities — two different relations may
    /// share one — so nothing is looked up by name.
    pub fn then(&self, next: &SimRelation) -> SimRelation {
        SimRelation {
            name: format!("{} ∘ {}", self.name, next.name),
            stages: Arc::new(
                self.stages
                    .iter()
                    .chain(next.stages.iter())
                    .cloned()
                    .collect(),
            ),
        }
    }
}

/// Whether the sched-free log `expected` equals `upper` with its
/// scheduling events dropped — compared in one pass, without building the
/// sched-free copy of `upper`.
fn eq_modulo_sched(expected: &Log, upper: &Log) -> bool {
    expected.len() == upper.len() - upper.sched_count()
        && expected.iter().eq(upper.iter().filter(|e| !e.is_sched()))
}

impl fmt::Debug for SimRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimRelation({})", self.name)
    }
}

/// Builds the environment context that *replays* a given expected log for
/// an upper-layer run: the scheduler hands control to the author of the
/// next expected event (or to `focused` when the next event is the focused
/// participant's own), and each environment player emits exactly its
/// expected events. This constructs the "related environmental event
/// sequence" required by Def. 2.1.
pub fn replay_env(expected: &Log, focused: Pid) -> EnvContext {
    replay_env_set(expected, &crate::id::PidSet::singleton(focused))
}

/// Generalization of [`replay_env`] to a focused *set*.
///
/// The derivation is *per participant*: the scheduler walks the expected
/// event sequence and hands control to the author of the earliest expected
/// event that its author has not yet emitted (comparing per-author event
/// counts). This tolerates the benign "interleavings shuffling" of the
/// log-lift pattern (§3.3) — a participant whose critical section emitted
/// several events in one turn has simply covered several of its expected
/// events early. When every expected event is covered, the scheduler falls
/// back to fair round-robin over the focused set so trailing silent work
/// can finish.
pub fn replay_env_set(expected: &Log, focused: &crate::id::PidSet) -> EnvContext {
    let expected = expected.without_sched();
    // Next author to schedule, as a pure function of the current log.
    let sched_expected = expected.clone();
    let fallback: Vec<Pid> = focused.iter().collect();
    let scheduler = FnStrategy::new("replay-sched", move |log: &Log| {
        let mut emitted: std::collections::BTreeMap<Pid, usize> = std::collections::BTreeMap::new();
        for e in log.iter().filter(|e| !e.is_sched()) {
            *emitted.entry(e.pid).or_default() += 1;
        }
        let mut seen: std::collections::BTreeMap<Pid, usize> = std::collections::BTreeMap::new();
        let mut target = None;
        for e in sched_expected.iter() {
            let i = seen.entry(e.pid).or_default();
            if *i >= emitted.get(&e.pid).copied().unwrap_or(0) {
                target = Some(e.pid);
                break;
            }
            *i += 1;
        }
        let target = target.unwrap_or_else(|| {
            let turn = log.sched_count();
            fallback[turn % fallback.len()]
        });
        StrategyMove::Emit(vec![Event::sched(target)])
    });
    let mut env = EnvContext::new(Arc::new(scheduler));
    let mut env_pids: Vec<Pid> = expected
        .iter()
        .map(|e| e.pid)
        .filter(|p| !focused.contains(*p))
        .collect();
    env_pids.sort_unstable();
    env_pids.dedup();
    for pid in env_pids {
        let mine: Vec<Event> = expected.iter().filter(|e| e.pid == pid).cloned().collect();
        let player = FnStrategy::new(&format!("replay-{pid}"), move |log: &Log| {
            let n = log.count_by(pid);
            match mine.get(n) {
                Some(e) => StrategyMove::Emit(vec![e.clone()]),
                None => StrategyMove::idle(),
            }
        });
        env = env.with_player(pid, Arc::new(player));
    }
    env
}

/// One counterexample to a simulation check.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The lower computation's name.
    pub lower: String,
    /// The upper strategy's name.
    pub upper: String,
    /// Human-readable description of the failing case (context index,
    /// arguments).
    pub case: String,
    /// The lower log produced.
    pub lower_log: Log,
    /// The upper log produced (empty if the upper run failed).
    pub upper_log: Log,
    /// Why the case fails.
    pub reason: String,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation {} ≤ {} fails on {}: {}\n  lower: {}\n  upper: {}",
            self.lower, self.upper, self.case, self.reason, self.lower_log, self.upper_log
        )
    }
}

/// Evidence gathered by a successful simulation check.
#[derive(Debug, Clone, Default)]
pub struct SimEvidence {
    /// Number of (context × argument) cases that were executed.
    pub cases_checked: usize,
    /// Number of cases skipped because the environment context violated
    /// the rely condition (invalid contexts).
    pub cases_skipped: usize,
    /// Number of cases skipped by the partial-order reduction: their
    /// context is trace-equivalent to a lower-indexed one that was
    /// checked (see [`crate::por`]).
    pub cases_reduced: usize,
    /// Logs reached during the check, reusable as probes for `Compat`
    /// side conditions.
    pub probes: ProbeSuite,
}

/// Options controlling a simulation check.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Step budget per machine run.
    pub fuel: u64,
    /// Whether return values must be equal (disable for void-like pairs
    /// with different conventions).
    pub compare_rets: bool,
    /// Setup calls run on *both* machines before the checked invocation —
    /// the executable form of Def. 2.1's quantification over related
    /// initial logs (e.g. a lock `rel` is checked from states reached by
    /// a preceding `acq`).
    pub setup: Vec<(String, Vec<Val>)>,
    /// The exploration knobs shared with the other checkers: workers, POR,
    /// prefix and deep sharing and the case-grid window
    /// ([`crate::explore::ExploreOptions`]). None of them changes the
    /// verdict or the evidence.
    pub explore: crate::explore::ExploreOptions,
    /// Memoize upper-machine runs keyed on the replayed abstract event
    /// sequence and argument vector, so symmetric schedules — contexts
    /// whose logs abstract to the same upper environment — are explored
    /// once. Never changes the verdict or the evidence; on by default.
    pub dedup: bool,
    /// Caller-owned warm state ([`SimWarm`]) shared across checker
    /// invocations: the kernel table (memoized outcomes and query-point
    /// snapshots) and the upper-run cache survive the call instead of being
    /// dropped with the kernel. `None` — the default — runs cold. Soundness requires every
    /// invocation sharing one handle to check the *same* computation over
    /// the same schedule-key family; the certification service keys warm
    /// handles (and families) by the unit's content fingerprint.
    pub warm: Option<SimWarm>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            fuel: LayerMachine::DEFAULT_FUEL,
            compare_rets: true,
            setup: Vec::new(),
            explore: crate::explore::ExploreOptions::default(),
            dedup: true,
            warm: None,
        }
    }
}

impl SimOptions {
    /// Sets the worker-thread count (1 = serial exploration).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.explore.workers = workers.max(1);
        self
    }

    /// Enables or disables upper-run memoization.
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup = dedup;
        self
    }

    /// Enables or disables the partial-order reduction.
    #[must_use]
    pub fn with_por(mut self, por: bool) -> Self {
        self.explore.por = por;
        self
    }

    /// Enables or disables prefix-sharing of lower-machine runs.
    #[must_use]
    pub fn with_prefix_share(mut self, prefix_share: bool) -> Self {
        self.explore.prefix_share = prefix_share;
        self
    }

    /// Enables or disables query-point snapshot sharing (effective only
    /// when `prefix_share` is on).
    #[must_use]
    pub fn with_deep_share(mut self, deep_share: bool) -> Self {
        self.explore.deep_share = deep_share;
        self
    }

    /// Restricts exploration to the flat case-index window `[lo, hi)`.
    #[must_use]
    pub fn with_window(mut self, lo: usize, hi: usize) -> Self {
        self.explore.window = Some((lo, hi));
        self
    }

    /// Attaches caller-owned warm state shared across invocations.
    #[must_use]
    pub fn with_warm(mut self, warm: SimWarm) -> Self {
        self.warm = Some(warm);
        self
    }
}

/// The memoized outcome of a case's upper half — a deterministic function
/// of the replayed abstract event sequence and the argument vector, which
/// makes it memoizable across symmetric schedules. The memo is a
/// [`crate::table::BoundedTable`] sharded by the check's upper signature
/// and keyed by the replayed sequence at its length as depth, so on a full
/// table the long, unlikely-to-recur runs are dropped before the short
/// ones many cases share.
#[derive(Clone)]
enum UpperRun {
    Skipped,
    Failed { reason: String, upper_log: Log },
    Done { upper_log: Log, upper_ret: Val },
}

/// The memoized outcome of a case's lower half — a deterministic function
/// of the schedule prefix the run consumes and the argument vector, which
/// makes it shareable across contexts with a common consumed prefix via
/// [`crate::explore::Kernel::memoize`]. Reasons deliberately omit the case
/// description: the per-case wrapper re-attaches it.
#[derive(Clone)]
enum LowerRun {
    Skipped,
    Failed { lower_log: Log, reason: String },
    Done { lower_log: Log, lower_ret: Val },
}

/// Mid-run snapshots of the lower machine, keyed by consumed schedule
/// prefix in the kernel's [`crate::explore::KernelTable`]. The inner index is
/// **content-derived** (see [`check_prim_refinement`]'s `inner_of`): a
/// hash of the completed call history plus — for call-scoped states — the
/// call in flight and its arguments. Several checks sharing one semantic
/// family ([`crate::fingerprint::ShareKey`]) may interleave their entries
/// in one table, and equal inners then imply equal computations, so a
/// setup call of one unit can resume the *checked* call of another (and
/// vice versa) when they run the same primitive from the same history.
///
/// Four states, three inner domains:
/// * `Inflight` — mid-call at an environment query point (needs
///   [`PrimRun::fork_run`]; stored only with deep sharing on). Valid in
///   both phases: histories matching implies the same machine state.
/// * `Done` under a **done** inner — the machine right after the call
///   returned, *before* any trailing environment flush. Also
///   phase-interchangeable: a setup phase never flushes between calls,
///   and the checked phase flushes only after its return point.
/// * `Done` under a **flush** inner — the machine mid-flush (one entry
///   per delivered slot, deep sharing only). Checked phase *only*: a
///   setup continuation would deliver those environment turns under the
///   next call instead, so resuming one mid-setup would skip turns.
/// * `Abort`/`PostSetup` under the setup **phase** inner — the sealed
///   outcome of a whole setup phase (skip/failure, or the machine after
///   every setup call).
#[allow(clippy::large_enum_variant)]
enum SimSnap {
    Abort {
        outcome: LowerRun,
    },
    PostSetup {
        machine: LayerMachine,
    },
    Inflight {
        machine: LayerMachine,
        run: Box<dyn PrimRun>,
    },
    Done {
        machine: LayerMachine,
        ret: Val,
    },
}

impl crate::prefix::ForkSnapshot for SimSnap {
    fn fork(&self) -> Option<Self> {
        Some(match self {
            SimSnap::Abort { outcome } => SimSnap::Abort {
                outcome: outcome.clone(),
            },
            SimSnap::PostSetup { machine } => SimSnap::PostSetup {
                machine: machine.fork(),
            },
            SimSnap::Inflight { machine, run } => SimSnap::Inflight {
                machine: machine.fork(),
                run: run.fork_run()?,
            },
            SimSnap::Done { machine, ret } => SimSnap::Done {
                machine: machine.fork(),
                ret: ret.clone(),
            },
        })
    }
}

/// Caller-owned warm exploration state for [`check_prim_refinement`]: two
/// [`crate::table::BoundedTable`]s kept alive across checker invocations
/// instead of dropped with each call's kernel — the kernel's table of
/// memoized lower-run outcomes and query-point snapshots
/// ([`crate::explore::KernelTable`]), and the upper-run cache (sharded by
/// the check's upper signature, keyed by the replayed [`Log`]). A long-running certification service holds one
/// handle per distinct check configuration (keyed by content
/// fingerprint), so back-to-back certifications of the same unit share
/// prefixes and replay memoized runs.
///
/// Sharing one handle between checks of *different* semantic families is
/// unsound: kernel table entries are keyed by `(schedule family, inner
/// index, kind, script prefix)` only, so the caller must guarantee that
/// equal families imply equal lower-machine explorations. The
/// certification service keys warm handles by
/// [`crate::fingerprint::ShareKey`] — the content identity of the lower
/// machine, the participant, the context-grid structure and the options
/// a run's outcome depends on (fuel, return comparison) — under which
/// checks of *different* units may legitimately share one handle: the
/// content-derived inner indices
/// (setup history + called primitive + arguments) keep their computations
/// apart, and the upper-run cache keys carry a per-check signature for
/// the same reason. Under an engine built without semantic sharing
/// ([`crate::engine::Settings::share_semantic`]), the service falls back
/// to pinning one handle per unit fingerprint.
#[derive(Clone)]
pub struct SimWarm {
    explore: Arc<crate::explore::KernelTable<SimSnap, LowerRun>>,
    upper: Arc<BoundedTable<u128, Log, UpperRun>>,
}

/// Point-in-time accounting for a [`SimWarm`] handle, surfaced
/// per-request by the certification service (deltas between two
/// snapshots give per-request hits/evictions). The `memo_`/`snapshot_`
/// fields read the kernel table, the `upper_` fields the upper-run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Memoized lower-run outcomes resident in the kernel table.
    pub memo_entries: usize,
    /// Query-point snapshots resident in the kernel table.
    pub snapshot_entries: usize,
    /// Snapshot forks from the kernel table since the handle was created
    /// (outcome lookups are not counted).
    pub snapshot_hits: u64,
    /// Kernel table entries of either kind evicted (deepest-first) since
    /// creation.
    pub snapshot_evictions: u64,
    /// Upper-run cache entries resident.
    pub upper_entries: usize,
    /// Upper-run cache lookups answered since creation.
    pub upper_hits: u64,
    /// Upper-run cache entries evicted (deepest-first) since creation.
    pub upper_evictions: u64,
}

impl Default for SimWarm {
    fn default() -> Self {
        Self::with_caps(TABLE_CAP, TABLE_CAP)
    }
}

impl SimWarm {
    /// A fresh, empty warm handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh handle whose kernel table and upper-run cache hold at most
    /// `explore_cap` and `upper_cap` entries. Private: every caller gets
    /// [`TABLE_CAP`], and only this module's tests shrink the caps to force
    /// eviction.
    fn with_caps(explore_cap: usize, upper_cap: usize) -> Self {
        Self {
            explore: Arc::new(BoundedTable::new(explore_cap)),
            upper: Arc::new(BoundedTable::new(upper_cap)),
        }
    }

    /// Current accounting for this handle.
    pub fn stats(&self) -> WarmStats {
        let outcomes = self
            .explore
            .len_where(|&(_, _, kind)| kind == CutKind::Outcome);
        WarmStats {
            memo_entries: outcomes,
            snapshot_entries: self.explore.len() - outcomes,
            snapshot_hits: self.explore.hits(),
            snapshot_evictions: self.explore.evictions(),
            upper_entries: self.upper.len(),
            upper_hits: self.upper.hits(),
            upper_evictions: self.upper.evictions(),
        }
    }
}

impl fmt::Debug for SimWarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimWarm")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Checks Def. 2.1 for a lower computation against an upper strategy:
/// `⟦lower_prim⟧_{lower_iface[pid]} ≤_R σ_upper`.
///
/// For every environment context and argument vector, runs the lower
/// machine, derives the related upper environment by abstraction + replay,
/// runs the upper machine, and compares. Invalid contexts (rely violations,
/// unfair scheduling) are skipped and counted.
///
/// # Errors
///
/// Returns the first [`SimFailure`] encountered.
#[allow(clippy::too_many_arguments)] // mirrors the judgment's components
pub fn check_prim_refinement(
    lower_iface: &LayerInterface,
    lower_prim: &str,
    upper_iface: &LayerInterface,
    upper_prim: &str,
    relation: &SimRelation,
    pid: Pid,
    contexts: &[EnvContext],
    arg_vectors: &[Vec<Val>],
    opts: &SimOptions,
) -> Result<SimEvidence, Box<SimFailure>> {
    let fail = |case: String, lower_log: Log, upper_log: Log, reason: String| {
        Box::new(SimFailure {
            lower: format!("{}::{}", lower_iface.name, lower_prim),
            upper: format!("{}::{}", upper_iface.name, upper_prim),
            case,
            lower_log,
            upper_log,
            reason,
        })
    };
    // The upper-run cache: caller-owned (warm) when the options carry a
    // [`SimWarm`] handle, otherwise fresh for this invocation. A warm
    // handle may be shared by every unit of one semantic family — whose
    // upper machines, relations and setups all differ — so the cache key
    // carries a content signature of everything the upper run depends on
    // besides the replayed sequence.
    let upper_cache: Arc<BoundedTable<u128, Log, UpperRun>> = match &opts.warm {
        Some(w) => w.upper.clone(),
        None => Arc::new(BoundedTable::new(TABLE_CAP)),
    };
    let upper_sig: Vec<u128> = arg_vectors
        .iter()
        .map(|args| {
            let mut h = crate::fingerprint::ContentHasher::new();
            h.section("sim.upper-sig");
            h.interface("upper", upper_iface);
            h.str("upper.prim", upper_prim);
            h.str("relation", &relation.name);
            h.u64("pid", u64::from(pid.0));
            h.u64("fuel", opts.fuel);
            h.usize("setup.len", opts.setup.len());
            for (sname, sargs) in &opts.setup {
                h.str("setup.name", sname);
                h.usize("setup.nargs", sargs.len());
                for v in sargs {
                    h.val("setup.arg", v);
                }
            }
            h.usize("nargs", args.len());
            for v in args {
                h.val("arg", v);
            }
            h.finish().0
        })
        .collect();
    // Both interfaces are wrapped once per check: every machine below
    // shares its `Arc` instead of deep-copying the interface.
    let lower_shared = Arc::new(lower_iface.clone());
    let upper_shared = Arc::new(upper_iface.clone());
    let run_upper = |expected: &Log, args: &[Val]| -> UpperRun {
        let upper_env = replay_env(expected, pid);
        let mut upper =
            LayerMachine::new(upper_shared.clone(), pid, upper_env).with_fuel(opts.fuel);
        for (sname, sargs) in &opts.setup {
            match upper.call_prim(sname, sargs) {
                Ok(_) => {}
                Err(e) if e.is_invalid_context() => return UpperRun::Skipped,
                Err(e) => {
                    return UpperRun::Failed {
                        reason: format!("upper setup `{sname}` failed: {e}"),
                        upper_log: upper.log().clone(),
                    };
                }
            }
        }
        match upper.call_prim(upper_prim, args) {
            Ok(upper_ret) => {
                let _ = upper.deliver_env();
                UpperRun::Done {
                    upper_log: upper.log().clone(),
                    upper_ret,
                }
            }
            Err(e) if e.is_invalid_context() => UpperRun::Skipped,
            Err(e) => UpperRun::Failed {
                reason: format!("upper run failed: {e}"),
                upper_log: upper.log().clone(),
            },
        }
    };
    // The kernel owns the table of outcomes and snapshots — warm
    // (caller-owned, surviving this call) when the options carry a
    // [`SimWarm`] handle. Sim's phase accounting distinguishes shared
    // (`Abort`/`PostSetup`/`Return`) from deep (`Setup`/`Call`) snapshot
    // hits, so it resumes via the raw
    // [`crate::explore::Kernel::lookup_snapshot`] and records itself.
    let kernel: crate::explore::Kernel<SimSnap, LowerRun> = match &opts.warm {
        Some(w) => crate::explore::Kernel::with_state(&opts.explore, w.explore.clone()),
        None => crate::explore::Kernel::new(&opts.explore),
    };
    let deep = kernel.deep();
    let sched_consumed = |m: &LayerMachine| m.log().sched_count();
    // Content-derived inner indices. A kernel table entry's inner
    // identifies the *computation* it belongs to — the completed call
    // history plus (for call-scoped states) the call in flight and its
    // arguments — hashed down to a `usize`. Within one check this
    // partitions sub-cases exactly as the old positional indices did;
    // across the checks of one semantic family it is what makes sharing
    // sound: equal inners imply equal deterministic computations, so e.g.
    // a `rel` unit's setup call `acq(l)` resumes the states the `acq`
    // unit's *checked* call stored, and vice versa.
    let inner_of = |tag: &str, history: usize, name: &str, args: &[Val]| -> usize {
        let mut h = crate::fingerprint::ContentHasher::new();
        h.section(tag);
        h.usize("history.len", history);
        for (sname, sargs) in &opts.setup[..history] {
            h.str("call.name", sname);
            h.usize("call.nargs", sargs.len());
            for v in sargs {
                h.val("call.arg", v);
            }
        }
        h.str("call.name", name);
        h.usize("call.nargs", args.len());
        for v in args {
            h.val("call.arg", v);
        }
        h.finish().low64() as usize
    };
    // Setup phase: per-call in-flight and completed-call inners, plus the
    // phase seal (`Abort`/`PostSetup`) keyed over the whole setup list.
    let setup_inflight: Vec<usize> = (0..opts.setup.len())
        .map(|k| inner_of("sim.inner.inflight", k, &opts.setup[k].0, &opts.setup[k].1))
        .collect();
    let setup_done: Vec<usize> = (0..opts.setup.len())
        .map(|k| inner_of("sim.inner.done", k, &opts.setup[k].0, &opts.setup[k].1))
        .collect();
    let phase_inner = inner_of("sim.inner.setup-phase", opts.setup.len(), "", &[]);
    // Checked call, per argument vector: the memo case inner, the mid-call
    // inner, the pre-flush return inner (phase-interchangeable with a setup
    // call), and the post-flush inner (checked phase only — see
    // [`SimSnap`]).
    let nsetup = opts.setup.len();
    let case_inner: Vec<usize> = arg_vectors
        .iter()
        .map(|args| inner_of("sim.inner.case", nsetup, lower_prim, args))
        .collect();
    let chk_inflight: Vec<usize> = arg_vectors
        .iter()
        .map(|args| inner_of("sim.inner.inflight", nsetup, lower_prim, args))
        .collect();
    let chk_done: Vec<usize> = arg_vectors
        .iter()
        .map(|args| inner_of("sim.inner.done", nsetup, lower_prim, args))
        .collect();
    let chk_flush: Vec<usize> = arg_vectors
        .iter()
        .map(|args| inner_of("sim.inner.flush", nsetup, lower_prim, args))
        .collect();
    // Inserts a query-point snapshot of the checked call for sub-case `ai`.
    let snap_call_point =
        |k: &crate::prefix::ScheduleKey, ai: usize, mach: &LayerMachine, run: &dyn PrimRun| {
            kernel.snapshot(k, chk_inflight[ai], sched_consumed(mach), || {
                Some(SimSnap::Inflight {
                    machine: mach.fork(),
                    run: run.fork_run()?,
                })
            });
        };
    // Runs the setup calls from index `first` on `m` — finishing `inflight`
    // first when resuming a mid-call snapshot — capturing an `Inflight`
    // snapshot at every query point when deep sharing is on and a `Done`
    // snapshot at every completed call (the pre-flush state another unit's
    // *checked* call of the same primitive can resume). Returns the abort
    // outcome when a call skips or fails.
    let run_setup = |m: &mut LayerMachine,
                     first: usize,
                     inflight: Option<Box<dyn PrimRun>>,
                     key: Option<&crate::prefix::ScheduleKey>|
     -> Option<LowerRun> {
        let call_idx = std::cell::Cell::new(first);
        let mut hook = |mach: &LayerMachine, run: &dyn PrimRun| {
            let Some(k) = key else { return };
            kernel.snapshot(
                k,
                setup_inflight[call_idx.get()],
                sched_consumed(mach),
                || {
                    Some(SimSnap::Inflight {
                        machine: mach.fork(),
                        run: run.fork_run()?,
                    })
                },
            );
        };
        let seal_call = |m: &LayerMachine, call: usize, ret: &Val| {
            if let Some(k) = key {
                kernel.snapshot(k, setup_done[call], sched_consumed(m), || {
                    Some(SimSnap::Done {
                        machine: m.fork(),
                        ret: ret.clone(),
                    })
                });
            }
        };
        if let Some(run) = inflight {
            let sname = &opts.setup[first].0;
            match m.resume_query(run, &mut hook) {
                Ok(ret) => {
                    seal_call(m, first, &ret);
                    call_idx.set(first + 1);
                }
                Err(e) if e.is_invalid_context() => return Some(LowerRun::Skipped),
                Err(e) => {
                    return Some(LowerRun::Failed {
                        lower_log: m.log().clone(),
                        reason: format!("lower setup `{sname}` failed: {e}"),
                    });
                }
            }
        }
        for (i, (sname, sargs)) in opts.setup.iter().enumerate().skip(call_idx.get()) {
            call_idx.set(i);
            let res = if deep {
                m.call_prim_with_snapshots(sname, sargs, &mut hook)
            } else {
                m.call_prim(sname, sargs)
            };
            match res {
                Ok(ret) => seal_call(m, i, &ret),
                Err(e) if e.is_invalid_context() => return Some(LowerRun::Skipped),
                Err(e) => {
                    return Some(LowerRun::Failed {
                        lower_log: m.log().clone(),
                        reason: format!("lower setup `{sname}` failed: {e}"),
                    });
                }
            }
        }
        None
    };
    // Seals the setup phase at its consumed depth: an `Abort` snapshot for
    // a skip/failure (returned as the per-case outcome), a `PostSetup`
    // snapshot otherwise. A skip/failure is keyed at the matched depth,
    // never 0 — the caller re-caches it per argument index, and a depth-0
    // entry would match scripts that diverge *inside* the setup and owe a
    // different verdict.
    let seal_setup = |m: LayerMachine,
                      early: Option<LowerRun>,
                      key: Option<&crate::prefix::ScheduleKey>|
     -> Result<LayerMachine, (LowerRun, usize)> {
        let consumed = sched_consumed(&m);
        match early {
            Some(outcome) => {
                if let Some(k) = key {
                    let out = outcome.clone();
                    kernel.snapshot(k, phase_inner, consumed, || {
                        Some(SimSnap::Abort { outcome: out })
                    });
                }
                Err((outcome, consumed))
            }
            None => {
                if let Some(k) = key {
                    kernel.snapshot(k, phase_inner, consumed, || {
                        Some(SimSnap::PostSetup { machine: m.fork() })
                    });
                }
                Ok(m)
            }
        }
    };
    // Seals the checked call: a `Done` snapshot at the pre-flush return
    // point on success (phase-interchangeable — another unit's setup call
    // of this primitive can resume it), then the trailing environment
    // flush.
    let finish_call = |lower: &mut LayerMachine,
                       res: Result<Val, crate::machine::MachineError>,
                       key: Option<&crate::prefix::ScheduleKey>,
                       ai: usize|
     -> LowerRun {
        match res {
            Ok(lower_ret) => {
                if let Some(k) = key {
                    kernel.snapshot(k, chk_done[ai], sched_consumed(lower), || {
                        Some(SimSnap::Done {
                            machine: lower.fork(),
                            ret: lower_ret.clone(),
                        })
                    });
                }
                // Flush trailing environment events so handoff-style
                // abstractions (events authored during another
                // participant's turn) are fully delivered before comparing
                // — capturing a deeper `Done` snapshot per flushed slot
                // when deep sharing is on, since the flush prefix is the
                // same for every context agreeing on those slots. These
                // live under the checked-phase-only flush inner: a setup
                // continuation must never resume a post-flush state.
                match key.filter(|_| deep) {
                    Some(k) => {
                        let ret = lower_ret.clone();
                        let _ = lower.deliver_env_each_turn(&mut |m| {
                            kernel.snapshot(k, chk_flush[ai], sched_consumed(m), || {
                                Some(SimSnap::Done {
                                    machine: m.fork(),
                                    ret: ret.clone(),
                                })
                            });
                        });
                    }
                    None => {
                        let _ = lower.deliver_env();
                    }
                }
                LowerRun::Done {
                    lower_log: lower.log().clone(),
                    lower_ret,
                }
            }
            Err(e) if e.is_invalid_context() => LowerRun::Skipped,
            Err(e) => LowerRun::Failed {
                lower_log: lower.log().clone(),
                reason: format!("lower run failed: {e}"),
            },
        }
    };
    // Executes the lower half of a case, resuming the setup phase from the
    // deepest stored snapshot. Returns the outcome plus the total consumed
    // schedule prefix length.
    let exec_lower = |env: &EnvContext, ai: usize, args: &[Val]| -> (LowerRun, usize) {
        let key = kernel.share_key(env);
        let fresh =
            || LayerMachine::new(lower_shared.clone(), pid, env.clone()).with_fuel(opts.fuel);
        let mut lower = if opts.setup.is_empty() {
            fresh()
        } else {
            // Resume the most-progressed stored setup state: the sealed
            // phase first, then per-call states last call first, completed
            // (`Done`) before in-flight. By determinism a sealed or
            // completed state matching `env`'s script *is* the run `env`
            // would execute, so progress order never loses schedule depth.
            // The per-call inners are exactly the ones another unit's
            // checked call of the same primitive populates, which is how a
            // warm family shares state across units.
            'setup: {
                if let Some(k) = key {
                    match kernel.lookup_snapshot(k, phase_inner) {
                        Some((depth, SimSnap::Abort { outcome })) => {
                            engine::record(Counter::Shared, 1);
                            return (outcome, depth);
                        }
                        Some((_, SimSnap::PostSetup { machine })) => {
                            // The lookup forked at the divergence point:
                            // the snapshot's log was produced under a
                            // script agreeing with `env`'s on every slot it
                            // consumed, so resuming under `env` is
                            // identical to having run setup under it.
                            engine::record(Counter::Shared, 1);
                            break 'setup machine.with_env(env.clone());
                        }
                        _ => {}
                    }
                    for call in (0..opts.setup.len()).rev() {
                        if let Some((_, SimSnap::Done { machine, .. })) =
                            kernel.lookup_snapshot(k, setup_done[call])
                        {
                            // Finish the remaining calls from the completed
                            // call's pre-flush state, counting only the
                            // suffix work.
                            engine::record(Counter::Shared, 1);
                            let mut m = machine.with_env(env.clone());
                            let pre = m.steps_taken() + m.log().len() as u64;
                            let early = run_setup(&mut m, call + 1, None, key);
                            engine::record(
                                Counter::Steps,
                                m.steps_taken() + m.log().len() as u64 - pre,
                            );
                            match seal_setup(m, early, key) {
                                Ok(m) => break 'setup m,
                                Err(out) => return out,
                            }
                        }
                        if let Some((_, SimSnap::Inflight { machine, run })) =
                            kernel.lookup_snapshot(k, setup_inflight[call])
                        {
                            // Resume the in-flight setup call from its
                            // query point and finish the remaining calls.
                            engine::record(Counter::Deep, 1);
                            let mut m = machine.with_env(env.clone());
                            let pre = m.steps_taken() + m.log().len() as u64;
                            let early = run_setup(&mut m, call, Some(run), key);
                            engine::record(
                                Counter::Steps,
                                m.steps_taken() + m.log().len() as u64 - pre,
                            );
                            match seal_setup(m, early, key) {
                                Ok(m) => break 'setup m,
                                Err(out) => return out,
                            }
                        }
                    }
                }
                let mut m = fresh();
                let early = run_setup(&mut m, 0, None, key);
                engine::record(Counter::Steps, m.steps_taken() + m.log().len() as u64);
                match seal_setup(m, early, key) {
                    Ok(m) => m,
                    Err(out) => return out,
                }
            }
        };
        // Work executed before this point was already counted (at setup
        // time for a fresh run, by the snapshot's producer for a fork).
        let pre = lower.steps_taken() + lower.log().len() as u64;
        let res = match key.filter(|_| deep) {
            Some(k) => {
                let mut hook = |mach: &LayerMachine, run: &dyn PrimRun| {
                    snap_call_point(k, ai, mach, run);
                };
                lower.call_prim_with_snapshots(lower_prim, args, &mut hook)
            }
            None => lower.call_prim(lower_prim, args),
        };
        let outcome = finish_call(&mut lower, res, key, ai);
        engine::record(
            Counter::Steps,
            lower.steps_taken() + lower.log().len() as u64 - pre,
        );
        (outcome, sched_consumed(&lower))
    };
    // 1. Run the lower machine — once per distinct consumed schedule
    // prefix and argument vector when sharing is on; every context whose
    // script extends a memoized prefix replays the recorded outcome, and
    // contexts that agree only up to some snapshot's cut point fork it and
    // execute just the schedule suffix.
    let run_lower = |env: &EnvContext, ai: usize, args: &[Val]| -> LowerRun {
        let Some(k) = kernel.share_key(env) else {
            return exec_lower(env, ai, args).0;
        };
        if let Some(hit) = kernel.cached(k, case_inner[ai]) {
            return hit;
        }
        let resumed = 'hit: {
            // Progress-order walk: a completed call (post-flush first,
            // then pre-flush) beats an in-flight one. Under deterministic
            // execution, any completion entry whose consumed prefix
            // matches this script *is* the run this script would produce,
            // so no deeper mid-call state can disagree with it.
            for &inner in &[chk_flush[ai], chk_done[ai]] {
                if let Some((_, SimSnap::Done { machine, ret })) = kernel.lookup_snapshot(k, inner)
                {
                    engine::record(Counter::Shared, 1);
                    let mut lower = machine.with_env(env.clone());
                    let pre = lower.steps_taken() + lower.log().len() as u64;
                    if deep {
                        let r = ret.clone();
                        let _ = lower.deliver_env_each_turn(&mut |m| {
                            kernel.snapshot(k, chk_flush[ai], sched_consumed(m), || {
                                Some(SimSnap::Done {
                                    machine: m.fork(),
                                    ret: r.clone(),
                                })
                            });
                        });
                    } else {
                        let _ = lower.deliver_env();
                    }
                    engine::record(
                        Counter::Steps,
                        lower.steps_taken() + lower.log().len() as u64 - pre,
                    );
                    break 'hit Some((
                        LowerRun::Done {
                            lower_log: lower.log().clone(),
                            lower_ret: ret,
                        },
                        sched_consumed(&lower),
                    ));
                }
            }
            if let Some((_, SimSnap::Inflight { machine, run })) =
                kernel.lookup_snapshot(k, chk_inflight[ai])
            {
                engine::record(Counter::Deep, 1);
                let mut lower = machine.with_env(env.clone());
                let pre = lower.steps_taken() + lower.log().len() as u64;
                let res = {
                    let mut hook = |mach: &LayerMachine, run: &dyn PrimRun| {
                        snap_call_point(k, ai, mach, run);
                    };
                    lower.resume_query(run, &mut hook)
                };
                let outcome = finish_call(&mut lower, res, Some(k), ai);
                engine::record(
                    Counter::Steps,
                    lower.steps_taken() + lower.log().len() as u64 - pre,
                );
                break 'hit Some((outcome, sched_consumed(&lower)));
            }
            None
        };
        let (outcome, consumed) = resumed.unwrap_or_else(|| exec_lower(env, ai, args));
        kernel.memoize(k, case_inner[ai], consumed, outcome.clone());
        outcome
    };
    let nargs = arg_vectors.len();
    let explored = kernel.explore("sim", contexts, nargs, |ci, ai| {
        let env = &contexts[ci];
        let args = &arg_vectors[ai];
        // A failing case carries the forensics payload — the witness lower
        // log, the reason, the case description — alongside the failure.
        // The description is built only here, on the failure paths.
        let failed = |lower_log: Log, upper_log: Log, reason: String| {
            let case = format!("context #{ci}, args #{ai} {args:?}");
            let (log, r, detail) = (lower_log.clone(), reason.clone(), case.clone());
            Case::failed(fail(case, lower_log, upper_log, reason), log, r, detail)
        };
        let (lower_log, lower_ret) = match run_lower(env, ai, args) {
            LowerRun::Skipped => return Case::Skipped,
            LowerRun::Failed { lower_log, reason } => {
                return failed(lower_log, Log::new(), reason);
            }
            LowerRun::Done {
                lower_log,
                lower_ret,
            } => (lower_log, lower_ret),
        };
        // 2. Abstract the lower log to the related upper event sequence.
        let expected = match relation.abstracted(&lower_log) {
            Some(l) => l,
            None => {
                return failed(
                    lower_log.clone(),
                    Log::new(),
                    format!("lower log outside domain of {}", relation.name),
                );
            }
        };
        // 3–4. Replay it as the upper environment and run the upper
        // strategy — memoized on (expected sequence, argument vector)
        // when dedup is on, since the upper run depends on nothing else.
        let upper_run = if opts.dedup {
            match upper_cache.lookup(upper_sig[ai], [&expected], |r| Some(r.clone())) {
                Some((_, r)) => r,
                None => {
                    let r = run_upper(&expected, args);
                    // Keyed at the replayed sequence's length: on a full
                    // table the deepest (longest-sequence) entries are
                    // evicted first, so the short entries symmetric
                    // schedules keep re-deriving survive the squeeze.
                    upper_cache
                        .insert_with(upper_sig[ai], &expected, expected.len(), || Some(r.clone()));
                    r
                }
            }
        } else {
            run_upper(&expected, args)
        };
        match upper_run {
            UpperRun::Skipped => Case::Skipped,
            UpperRun::Failed { reason, upper_log } => failed(lower_log, upper_log, reason),
            UpperRun::Done {
                upper_log,
                upper_ret,
            } => {
                // 5. Compare logs modulo R — `expected` *is* the
                // abstraction of the lower log, so `R(lower, upper)`
                // reduces to one comparison — and return values.
                if !eq_modulo_sched(&expected, &upper_log) {
                    return failed(
                        lower_log,
                        upper_log,
                        format!("logs not related by {}", relation.name),
                    );
                }
                if opts.compare_rets && lower_ret != upper_ret {
                    return failed(
                        lower_log,
                        upper_log,
                        format!("return values differ: {lower_ret} vs {upper_ret}"),
                    );
                }
                Case::Checked((lower_log, upper_log))
            }
        }
    });
    if let Some(f) = explored.failure {
        return Err(f);
    }
    let mut evidence = SimEvidence {
        cases_checked: explored.cases_checked,
        cases_skipped: explored.cases_skipped,
        cases_reduced: explored.cases_reduced,
        probes: ProbeSuite::default(),
    };
    for (lower_log, upper_log) in explored.checked {
        evidence.probes.push(pid, lower_log);
        evidence.probes.push(pid, upper_log);
    }
    Ok(evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::id::Loc;
    use crate::layer::PrimSpec;
    use crate::strategy::RoundRobinScheduler;

    fn emit_iface(name: &str, kind_of: fn(Loc) -> EventKind) -> LayerInterface {
        LayerInterface::builder(name)
            .prim(PrimSpec::atomic("op", move |ctx, args| {
                let b = args[0].as_loc()?;
                ctx.emit(kind_of(b));
                Ok(Val::Unit)
            }))
            .build()
    }

    fn rr_ctx() -> Vec<EnvContext> {
        vec![EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(
            2,
        )))]
    }

    /// Relation names are labels, not identities: composing two different
    /// relations that share a name must keep each one's own stages.
    #[test]
    fn composing_same_named_relations_keeps_each_chain() {
        let keep = SimRelation::per_event("probeA", |e| vec![e.clone()]);
        let erase = SimRelation::per_event("probeA", |_| Vec::new());
        let probe_b = SimRelation::per_event("probeB", |e| vec![e.clone()]);
        let mut log = Log::new();
        log.append(Event::prim(Pid(0), "x", vec![]));
        let kept = |r: &SimRelation| r.abstracted(&log).map(|l| l.len());
        assert_eq!(kept(&keep.then(&probe_b)), Some(1));
        assert_eq!(kept(&erase.then(&probe_b)), Some(0));
        assert_eq!(kept(&erase), Some(0));
    }

    #[test]
    fn identity_relation_holds_on_equal_logs() {
        let r = SimRelation::identity();
        let mut a = Log::new();
        a.append(Event::sched(Pid(0)));
        a.append(Event::prim(Pid(0), "x", vec![]));
        let b = a.without_sched();
        assert!(r.holds(&a, &b));
        assert!(r.holds(&a, &a));
    }

    #[test]
    fn per_event_relation_translates() {
        let r = SimRelation::per_event("hold→acq", |e| match e.kind {
            EventKind::Hold(b) => vec![Event::new(e.pid, EventKind::Acq(b))],
            EventKind::GetN(_) | EventKind::FaiT(_) => vec![],
            _ => vec![e.clone()],
        });
        let lower = Log::from_events([
            Event::new(Pid(1), EventKind::FaiT(Loc(0))),
            Event::new(Pid(1), EventKind::GetN(Loc(0))),
            Event::new(Pid(1), EventKind::Hold(Loc(0))),
        ]);
        let upper = Log::from_events([Event::new(Pid(1), EventKind::Acq(Loc(0)))]);
        assert!(r.holds(&lower, &upper));
        assert!(!r.holds(&lower, &lower));
    }

    #[test]
    fn composition_chains_abstractions() {
        let r1 = SimRelation::per_event("a→b", |e| match &e.kind {
            EventKind::Prim(n, _) if n == "a" => vec![Event::prim(e.pid, "b", vec![])],
            _ => vec![e.clone()],
        });
        let r2 = SimRelation::per_event("b→c", |e| match &e.kind {
            EventKind::Prim(n, _) if n == "b" => vec![Event::prim(e.pid, "c", vec![])],
            _ => vec![e.clone()],
        });
        let r = r1.then(&r2);
        assert_eq!(r.name(), "a→b ∘ b→c");
        let lower = Log::from_events([Event::prim(Pid(0), "a", vec![])]);
        let upper = Log::from_events([Event::prim(Pid(0), "c", vec![])]);
        assert!(r.holds(&lower, &upper));
    }

    #[test]
    fn replay_env_reproduces_expected_events() {
        let expected = Log::from_events([
            Event::prim(Pid(0), "noise", vec![]),
            Event::prim(Pid(1), "mine", vec![]),
            Event::prim(Pid(0), "more", vec![]),
        ]);
        let env = replay_env(&expected, Pid(1));
        let mut log = Log::new();
        // First query: p0 plays "noise", then control reaches p1.
        let got = env
            .extend_until_focused(&crate::id::PidSet::singleton(Pid(1)), &mut log)
            .unwrap();
        assert_eq!(got, Pid(1));
        assert_eq!(log.count_by(Pid(0)), 1);
        // After p1 plays its event, the env plays p0's second event.
        log.append(Event::prim(Pid(1), "mine", vec![]));
        env.extend_until_focused(&crate::id::PidSet::singleton(Pid(1)), &mut log)
            .unwrap();
        assert_eq!(log.count_by(Pid(0)), 2);
    }

    #[test]
    fn prim_refinement_identity_succeeds() {
        let lower = emit_iface("L-low", EventKind::Acq);
        let upper = emit_iface("L-up", EventKind::Acq);
        let ev = check_prim_refinement(
            &lower,
            "op",
            &upper,
            "op",
            &SimRelation::identity(),
            Pid(1),
            &rr_ctx(),
            &[vec![Val::Loc(Loc(0))]],
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(ev.cases_checked, 1);
        assert!(ev.probes.len() >= 2);
    }

    #[test]
    fn prim_refinement_detects_mismatch() {
        let lower = emit_iface("L-low", EventKind::Acq);
        let upper = emit_iface("L-up", EventKind::Rel);
        let err = check_prim_refinement(
            &lower,
            "op",
            &upper,
            "op",
            &SimRelation::identity(),
            Pid(1),
            &rr_ctx(),
            &[vec![Val::Loc(Loc(0))]],
            &SimOptions::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("not related"));
    }

    /// Runs `check` under an uncapped warm handle and under
    /// `SimWarm::with_caps(1, 1)`, asserting that the tiny caps hold and
    /// evict from both tables — lower-run outcomes included: the capped
    /// kernel table ends with fewer outcomes than the uncapped one keeps —
    /// and that the verdict, the evidence and the first failure are the
    /// uncapped run's.
    fn assert_tiny_caps_are_invisible(
        check: impl Fn(SimOptions) -> Result<SimEvidence, Box<SimFailure>>,
    ) {
        let full = SimWarm::new();
        let tiny = SimWarm::with_caps(1, 1);
        let base = check(SimOptions::default().with_warm(full.clone()));
        let capped = check(SimOptions::default().with_warm(tiny.clone()));
        let (full, tiny) = (full.stats(), tiny.stats());
        assert_eq!((full.snapshot_evictions, full.upper_evictions), (0, 0));
        assert!(
            tiny.memo_entries + tiny.snapshot_entries <= 1,
            "kernel table over its cap"
        );
        assert!(tiny.upper_entries <= 1, "upper-run cache over its cap");
        assert!(tiny.snapshot_evictions > 0, "the kernel table evicts");
        assert!(
            tiny.memo_entries < full.memo_entries,
            "outcomes are evicted"
        );
        // Every distinct upper run is stored once; all but one of them
        // must have been evicted or rejected.
        assert!(
            tiny.upper_evictions + 1 >= full.upper_entries as u64,
            "{tiny:?}"
        );
        match (base, capped) {
            (Ok(base), Ok(capped)) => {
                assert!(tiny.upper_evictions > 0, "the upper-run cache evicts");
                assert_eq!(base.cases_checked, capped.cases_checked);
                assert_eq!(base.cases_skipped, capped.cases_skipped);
                assert_eq!(base.cases_reduced, capped.cases_reduced);
                assert_eq!(base.probes, capped.probes);
            }
            (Err(base), Err(capped)) => {
                assert_eq!(base.case, capped.case);
                assert_eq!(base.reason, capped.reason);
                assert_eq!(base.lower_log, capped.lower_log);
                assert_eq!(base.upper_log, capped.upper_log);
            }
            (base, capped) => panic!("verdicts differ: {base:?} vs {capped:?}"),
        }
    }

    #[test]
    fn cache_eviction_does_not_change_verdicts() {
        let lower = emit_iface("L-low", EventKind::Acq);
        let contexts = crate::contexts::ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(3)
            .contexts();
        let args = vec![vec![Val::Loc(Loc(0))], vec![Val::Loc(Loc(1))]];
        // A passing pair, then a failing one: the same evidence, and the
        // identical first counterexample.
        for upper in [
            emit_iface("L-up", EventKind::Acq),
            emit_iface("L-bad", EventKind::Rel),
        ] {
            assert_tiny_caps_are_invisible(|opts| {
                check_prim_refinement(
                    &lower,
                    "op",
                    &upper,
                    "op",
                    &SimRelation::identity(),
                    Pid(1),
                    &contexts,
                    &args,
                    &opts.with_workers(1),
                )
            });
        }
    }

    #[test]
    fn snapshot_cap_eviction_does_not_change_verdicts() {
        let lower = emit_iface("L-low", EventKind::Acq);
        let contexts = crate::contexts::ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(3)
            .contexts();
        let args = vec![vec![Val::Loc(Loc(0))], vec![Val::Loc(Loc(1))]];
        // With a setup call every case also stores setup-phase snapshots,
        // so most cases re-execute from scratch under the tiny cap.
        for upper in [
            emit_iface("L-up", EventKind::Acq),
            emit_iface("L-bad", EventKind::Rel),
        ] {
            assert_tiny_caps_are_invisible(|opts| {
                let mut opts = opts
                    .with_workers(1)
                    .with_prefix_share(true)
                    .with_deep_share(true);
                opts.setup = vec![("op".to_owned(), vec![Val::Loc(Loc(2))])];
                check_prim_refinement(
                    &lower,
                    "op",
                    &upper,
                    "op",
                    &SimRelation::identity(),
                    Pid(1),
                    &contexts,
                    &args,
                    &opts,
                )
            });
        }
    }

    #[test]
    fn prim_refinement_detects_ret_mismatch() {
        let mk = |ret: i64| {
            LayerInterface::builder("L")
                .prim(PrimSpec::atomic("op", move |ctx, _| {
                    ctx.emit(EventKind::Prim("e".into(), vec![]));
                    Ok(Val::Int(ret))
                }))
                .build()
        };
        let err = check_prim_refinement(
            &mk(1),
            "op",
            &mk(2),
            "op",
            &SimRelation::identity(),
            Pid(0),
            &rr_ctx(),
            &[vec![]],
            &SimOptions::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("return values differ"));
    }
}
