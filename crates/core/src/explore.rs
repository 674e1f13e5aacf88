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
//! * **Prefix memoization**: one executed lower run per distinct consumed
//!   schedule prefix ([`Kernel::run_shared`], [`Kernel::memoize`]).
//! * **Query-point snapshots**: forked mid-run machine states at every
//!   environment cut point, resumed for contexts that diverge later
//!   ([`Kernel::resume_deepest`], [`Kernel::snapshot`]).
//!
//!   Outcomes and snapshots share one [`KernelTable`] (see
//!   [`crate::prefix`] for why a schedule prefix keys both), bounded by
//!   [`TABLE_CAP`] entries with deepest-first eviction.
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
use std::sync::Arc;

use crate::conc::{ConcurrentMachine, ConcurrentOutcome, GameState, ThreadScript};
use crate::engine::{self, Counter};
use crate::env::EnvContext;
use crate::id::{Pid, PidSet};
use crate::layer::{LayerInterface, PrimRun};
use crate::log::Log;
use crate::machine::{LayerMachine, MachineError};
use crate::prefix::{ForkSnapshot, ScheduleKey};
use crate::table::{BoundedTable, TABLE_CAP};

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
    /// the consumed prefix ([`Kernel::memoize`]): a lower run is
    /// a deterministic function of the schedule slots it actually reads,
    /// so a grid of `n^L` contexts executes only one run per *distinct
    /// consumed prefix*. Never changes the verdict or the evidence; on by
    /// default.
    pub prefix_share: bool,
    /// Additionally fork mid-run snapshots of the lower machine at every
    /// environment query point ([`Kernel::snapshot`]): a long
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

/// What a kernel table entry holds at its cut point: a run's whole
/// outcome, or a mid-run snapshot to fork.
pub enum Cut<S, T> {
    /// The memoized outcome of a run that consumed exactly this prefix.
    Outcome(T),
    /// A query-point snapshot taken after consuming this prefix.
    Snapshot(S),
}

/// Which [`Cut`] a kernel table shard holds. Part of the shard key: live,
/// seqref and [`Kernel::run_game`] use one inner index for both kinds, and
/// a run's outcome and its snapshots can sit at the same prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutKind {
    /// Whole-run outcomes.
    Outcome,
    /// Query-point snapshots.
    Snapshot,
}

/// A kernel's exploration state: outcomes and snapshots in one
/// [`BoundedTable`], sharded by `(family, inner, kind)` and keyed by the
/// consumed schedule prefix. `inner` distinguishes sub-cases that share a
/// context (the argument vector in the simulation checker, the script in
/// the sequence-refinement checker; `0` for one case per context) and must
/// fully determine the execution's input, so that entries of one shard
/// are interchangeable.
pub type KernelTable<S, T> = BoundedTable<(u64, usize, CutKind), Vec<Pid>, Cut<S, T>>;

/// Every prefix of `key`'s script, shallowest first: the empty prefix (a
/// run that consumed no scheduling events) through the full script.
fn prefixes(key: &ScheduleKey) -> impl DoubleEndedIterator<Item = &[Pid]> {
    let script = key.script();
    (0..=script.len()).map(move |d| &script[..d])
}

/// The unified exploration kernel: one [`KernelTable`] of memoized
/// outcomes and query-point snapshots plus the grid-dispatch loop,
/// parameterized over a fork-able snapshot type `S` and a memoized outcome
/// type `T`. See the module docs for the division of labor between the
/// kernel and its clients.
pub struct Kernel<S, T> {
    table: Arc<KernelTable<S, T>>,
    workers: usize,
    por: bool,
    share: bool,
    deep: bool,
    window: Option<(usize, usize)>,
}

impl<S: ForkSnapshot, T: Clone + Send> Kernel<S, T> {
    /// Creates a kernel for one checker invocation, with a fresh (cold)
    /// table of at most [`TABLE_CAP`] entries (deepest-first eviction):
    /// entries only save work, so eviction costs re-execution, never
    /// correctness.
    pub fn new(opts: &ExploreOptions) -> Self {
        Self::with_state(opts, Arc::new(BoundedTable::new(TABLE_CAP)))
    }

    /// Creates a kernel over a *caller-owned* table, so a long-running
    /// service can keep it warm across checker invocations. Soundness
    /// requires that every invocation sharing the table checks the same
    /// computation over the same schedule-key family: entries are keyed by
    /// `(family, inner index, kind, script prefix)` only, so two different
    /// checks pinned to one family would read each other's outcomes. The
    /// certification service keys families by the unit's content
    /// fingerprint, which makes key collisions imply input equality.
    pub fn with_state(opts: &ExploreOptions, table: Arc<KernelTable<S, T>>) -> Self {
        let share = opts.prefix_share;
        Self {
            table,
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
    /// script, recording a shared (memo-answered) run on a hit. At most one
    /// stored prefix can apply: an outcome at depth `d` certifies that runs
    /// reading those `d` slots consume exactly `d` of them, so no outcome
    /// at a deeper extension of the same prefix is ever stored.
    pub fn cached(&self, key: &ScheduleKey, inner: usize) -> Option<T> {
        let shard = (key.family(), inner, CutKind::Outcome);
        let hit = self.table.peek(shard, prefixes(key), |cut| match cut {
            Cut::Outcome(t) => Some(t.clone()),
            Cut::Snapshot(_) => None,
        });
        hit.map(|(_, t)| {
            engine::record(Counter::Shared, 1);
            t
        })
    }

    /// Stores the entry `make` produces under the prefix of `key`'s script
    /// the run consumed (`consumed` scheduling events). A run that consumed *more* than the
    /// script's length (falling into the round-robin tail) is stored at the
    /// full script: the fallback is the same pure log function for every
    /// context of the grid (same domain), so two contexts with equal full
    /// scripts are equal contexts. `make` runs only when the slot is vacant
    /// and the table admits the entry.
    fn store(
        &self,
        key: &ScheduleKey,
        inner: usize,
        kind: CutKind,
        consumed: usize,
        make: impl FnOnce() -> Option<Cut<S, T>>,
    ) {
        let depth = consumed.min(key.script().len());
        let shard = (key.family(), inner, kind);
        self.table
            .insert_with(shard, &key.script()[..depth], depth, make);
    }

    /// Memoizes an executed run's outcome at its consumed prefix depth
    /// (first insert wins: racing workers computed the same value).
    pub fn memoize(&self, key: &ScheduleKey, inner: usize, consumed: usize, outcome: T) {
        self.store(key, inner, CutKind::Outcome, consumed, || {
            Some(Cut::Outcome(outcome))
        });
    }

    /// The standard lower-run composition every checker uses: answer from
    /// the memo when the context's consumed prefix is cached (recording a
    /// shared run), otherwise execute via `exec` — which returns the
    /// outcome plus the consumed schedule-prefix length — and memoize.
    /// With sharing off (or a keyless context) this is just `exec`.
    pub fn run_shared(
        &self,
        env: &EnvContext,
        inner: usize,
        exec: impl FnOnce() -> (T, usize),
    ) -> T {
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
        let hit = self.lookup_snapshot(key, inner);
        if hit.is_some() {
            engine::record(Counter::Deep, 1);
        }
        hit
    }

    /// [`Kernel::resume_deepest`] without the engine accounting: forks the
    /// snapshot at the *deepest* stored prefix of `key`'s script (deepest
    /// saves the most re-execution), reporting its depth. Unlike outcomes,
    /// many stored snapshots can apply at once; determinism makes the
    /// choice observationally irrelevant. A snapshot that cannot be forked
    /// falls back to a shallower one. Counts a table hit.
    pub fn lookup_snapshot(&self, key: &ScheduleKey, inner: usize) -> Option<(usize, S)> {
        let shard = (key.family(), inner, CutKind::Snapshot);
        self.table
            .lookup(shard, prefixes(key).rev(), |cut| match cut {
                Cut::Snapshot(s) => s.fork(),
                Cut::Outcome(_) => None,
            })
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
        self.store(key, inner, CutKind::Snapshot, consumed, || {
            make().map(Cut::Snapshot)
        });
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
            let machine =
                ConcurrentMachine::new(iface.clone(), focused.clone(), env.clone()).with_fuel(fuel);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contexts::ContextGen;
    use crate::id::Pid;

    #[derive(Clone)]
    struct NoSnap;
    impl ForkSnapshot for NoSnap {
        fn fork(&self) -> Option<Self> {
            Some(NoSnap)
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Snap(&'static str);
    impl ForkSnapshot for Snap {
        fn fork(&self) -> Option<Self> {
            Some(self.clone())
        }
    }

    fn key(family: u64, script: &[u32]) -> ScheduleKey {
        ScheduleKey::new(family, script.iter().map(|&p| Pid(p)).collect(), 2)
    }

    fn sharing_kernel() -> Kernel<Snap, &'static str> {
        Kernel::new(&ExploreOptions::default())
    }

    #[test]
    fn outcomes_answer_every_script_extending_the_consumed_prefix() {
        let kernel = sharing_kernel();
        // A run under [0,1,0] that consumed 2 slots.
        kernel.memoize(&key(7, &[0, 1, 0]), 0, 2, "shared");
        assert_eq!(kernel.cached(&key(7, &[0, 1, 1]), 0), Some("shared"));
        assert_eq!(kernel.cached(&key(7, &[0, 0, 0]), 0), None);
        assert_eq!(kernel.cached(&key(7, &[1, 1, 0]), 0), None);
        assert_eq!(
            kernel.cached(&key(8, &[0, 1, 0]), 0),
            None,
            "family boundary"
        );
        assert_eq!(
            kernel.cached(&key(7, &[0, 1, 0]), 1),
            None,
            "inner boundary"
        );
        // A run that consumed nothing answers every script of its family.
        kernel.memoize(&key(3, &[1, 1]), 0, 0, "root");
        assert_eq!(kernel.cached(&key(3, &[0, 0]), 0), Some("root"));
    }

    #[test]
    fn consumed_depth_clamps_to_script_length() {
        // Runs that outlived their script (round-robin tail) are stored at
        // the full script, so only the identical script finds them.
        let kernel = sharing_kernel();
        kernel.memoize(&key(1, &[0, 1]), 0, 9, "tail");
        kernel.snapshot(&key(1, &[0, 1]), 0, 9, || Some(Snap("tail")));
        assert_eq!(kernel.cached(&key(1, &[0, 1]), 0), Some("tail"));
        assert_eq!(
            kernel.lookup_snapshot(&key(1, &[0, 1]), 0),
            Some((2, Snap("tail")))
        );
        assert_eq!(kernel.cached(&key(1, &[0, 0]), 0), None);
        assert_eq!(kernel.lookup_snapshot(&key(1, &[0, 0]), 0), None);
    }

    #[test]
    fn snapshots_resume_from_the_deepest_stored_prefix() {
        let kernel = sharing_kernel();
        kernel.snapshot(&key(4, &[0, 1, 0]), 0, 1, || Some(Snap("shallow")));
        kernel.snapshot(&key(4, &[0, 1, 0]), 0, 2, || Some(Snap("deep")));
        assert_eq!(
            kernel.lookup_snapshot(&key(4, &[0, 1, 1]), 0),
            Some((2, Snap("deep")))
        );
        // A script diverging after slot 0 only reaches the shallow one.
        assert_eq!(
            kernel.lookup_snapshot(&key(4, &[0, 0, 0]), 0),
            Some((1, Snap("shallow")))
        );
        assert_eq!(kernel.lookup_snapshot(&key(4, &[1, 0, 0]), 0), None);
    }

    #[test]
    fn outcomes_and_snapshots_at_one_cut_do_not_collide() {
        // Live, seqref and `run_game` use one inner index for both kinds,
        // and a run's outcome and a snapshot can sit at the same consumed
        // prefix. Stored in either order, both are found: were they one
        // slot, first-insert-wins would drop the second.
        for outcome_first in [true, false] {
            let _in = engine::Engine::default().enter();
            let kernel = sharing_kernel();
            let k = key(5, &[0, 1]);
            let mut made = false;
            if outcome_first {
                kernel.memoize(&k, 0, 1, "outcome");
            }
            kernel.snapshot(&k, 0, 1, || {
                made = true;
                Some(Snap("snapshot"))
            });
            if !outcome_first {
                kernel.memoize(&k, 0, 1, "outcome");
            }
            assert!(made, "the snapshot slot was vacant");
            assert_eq!(kernel.cached(&k, 0), Some("outcome"));
            assert_eq!(kernel.resume_deepest(&k, 0), Some((1, Snap("snapshot"))));
            let totals = engine::totals();
            assert_eq!((totals.shared, totals.deep), (1, 1));
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
                Case::failed(
                    format!("boom at {ci}"),
                    Log::new(),
                    "boom".into(),
                    format!("context #{ci}"),
                )
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
            let par =
                Kernel::<NoSnap, ()>::new(&ExploreOptions::tuned(workers, false, true, false))
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
