//! The engine differential: one table of exploration-engine
//! configurations and one copy of the fixtures, shared by the four axis
//! suites — `parallel_differential` (workers × upper-run dedup),
//! `por_differential` (partial-order reduction), `prefix_differential`
//! (prefix and deep sharing on synthetic grids) and
//! `kernel_differential` (every axis on the ticket and qlock stacks).
//!
//! A [`Row`] is one engine configuration `(workers, dedup, por,
//! prefix_share, deep_share)`. No knob may change what a check reports:
//!
//! * on the worker, dedup and sharing axes the verdict, the case
//!   accounting and the first-failure evidence (captured logs included)
//!   are byte-identical to the reference row ([`assert_invisible`]);
//! * on the POR axis the verdict and the first-failure evidence are
//!   identical, and the case accounting obeys the POR rule: checked +
//!   skipped + reduced on the reduced grid equals checked + skipped on
//!   the full grid ([`assert_accounting`], [`assert_same_verdict`]).

// Each suite compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use ccal::core::calculus::{LayerError, Obligation};
use ccal::core::conc::ThreadScript;
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal::core::machine::MachineError;
use ccal::core::sim::{check_prim_refinement, SimEvidence, SimFailure, SimOptions, SimRelation};
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::machine::mx86::mx86_hw_interface;
use ccal::objects::ticket::TicketEnvPlayer;
use ccal::verifier::linz::HistoryValidator;
use ccal::verifier::{
    check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
    check_sequence_refinement_tuned, fifo_history_validator, OpScript,
};

/// One engine configuration: a row of the differential table. `dedup`
/// only reaches the simulation checker (the verifier checkers have no
/// upper-run memo); `deep_share` is effective only with `prefix_share`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub workers: usize,
    pub dedup: bool,
    pub por: bool,
    pub prefix_share: bool,
    pub deep_share: bool,
}

/// The shipped engine, serial: every optimization on.
pub const SHIPPED: Row = Row {
    workers: 1,
    dedup: true,
    por: true,
    prefix_share: true,
    deep_share: true,
};

impl Row {
    /// The sharing-axis reference: serial and memo-free, with POR as
    /// given (sharing is compared at equal POR).
    pub const fn reference(por: bool) -> Row {
        Row {
            workers: 1,
            dedup: true,
            por,
            prefix_share: false,
            deep_share: false,
        }
    }

    /// The row with sharing on, at the given workers, POR and depth.
    pub const fn shared(workers: usize, por: bool, deep_share: bool) -> Row {
        Row {
            workers,
            dedup: true,
            por,
            prefix_share: true,
            deep_share,
        }
    }

    pub const fn with_workers(self, workers: usize) -> Row {
        Row { workers, ..self }
    }

    pub const fn with_dedup(self, dedup: bool) -> Row {
        Row { dedup, ..self }
    }

    pub const fn with_por(self, por: bool) -> Row {
        Row { por, ..self }
    }

    /// The simulation checker's options for this row.
    pub fn sim(self) -> SimOptions {
        SimOptions::default()
            .with_workers(self.workers)
            .with_dedup(self.dedup)
            .with_por(self.por)
            .with_prefix_share(self.prefix_share)
            .with_deep_share(self.deep_share)
    }

    /// `check_prim_refinement` under the identity relation for `Pid(0)`,
    /// with `setup` run before each checked call.
    #[allow(clippy::too_many_arguments)]
    pub fn refinement(
        self,
        lower: &LayerInterface,
        lower_prim: &str,
        upper: &LayerInterface,
        upper_prim: &str,
        contexts: &[EnvContext],
        args: &[Vec<Val>],
        setup: &[(String, Vec<Val>)],
    ) -> Result<SimEvidence, Box<SimFailure>> {
        let mut opts = self.sim();
        opts.setup = setup.to_vec();
        check_prim_refinement(
            lower,
            lower_prim,
            upper,
            upper_prim,
            &SimRelation::identity(),
            Pid(0),
            contexts,
            args,
            &opts,
        )
    }

    /// The liveness checker under this row.
    #[allow(clippy::too_many_arguments)]
    pub fn liveness(
        self,
        iface: &LayerInterface,
        prim: &str,
        args: &[Val],
        pid: Pid,
        contexts: &[EnvContext],
        bound: u64,
        fuel: u64,
    ) -> Result<Obligation, LayerError> {
        check_liveness_tuned(
            iface,
            prim,
            args,
            pid,
            contexts,
            bound,
            fuel,
            self.workers,
            self.por,
            self.prefix_share,
            self.deep_share,
        )
    }

    /// The linearizability checker under this row.
    #[allow(clippy::too_many_arguments)]
    pub fn linearizability(
        self,
        iface: &LayerInterface,
        focused: &PidSet,
        programs: &BTreeMap<Pid, ThreadScript>,
        relation: &SimRelation,
        validator: &HistoryValidator,
        contexts: &[EnvContext],
        fuel: u64,
    ) -> Result<Obligation, LayerError> {
        check_linearizability_tuned(
            iface,
            focused,
            programs,
            relation,
            validator,
            contexts,
            fuel,
            self.workers,
            self.por,
            self.prefix_share,
            self.deep_share,
        )
    }

    /// The race-freedom checker under this row.
    pub fn race_freedom(
        self,
        iface: &LayerInterface,
        focused: &PidSet,
        programs: &BTreeMap<Pid, ThreadScript>,
        contexts: &[EnvContext],
        fuel: u64,
    ) -> Result<Obligation, LayerError> {
        check_race_freedom_tuned(
            iface,
            focused,
            programs,
            contexts,
            fuel,
            self.workers,
            self.por,
            self.prefix_share,
            self.deep_share,
        )
    }

    /// The sequence-refinement checker under this row.
    #[allow(clippy::too_many_arguments)]
    pub fn sequence_refinement(
        self,
        impl_iface: &LayerInterface,
        spec_iface: &LayerInterface,
        relation: &SimRelation,
        pid: Pid,
        contexts: &[EnvContext],
        scripts: &[OpScript],
        fuel: u64,
    ) -> Result<Obligation, LayerError> {
        check_sequence_refinement_tuned(
            impl_iface,
            spec_iface,
            relation,
            pid,
            contexts,
            scripts,
            fuel,
            self.workers,
            self.por,
            self.prefix_share,
            self.deep_share,
        )
    }
}

/// The sharing rows compared against [`Row::reference`] at equal POR:
/// workers ∈ {1, 4} × deep sharing off and on.
pub fn sharing_rows(por: bool) -> [Row; 4] {
    [
        Row::shared(1, por, false),
        Row::shared(1, por, true),
        Row::shared(4, por, false),
        Row::shared(4, por, true),
    ]
}

/// Asserts that `got` is indistinguishable from `reference`: the same
/// polarity and byte-identical `Debug` renderings, which spell out every
/// case count, every probe log and (on failure) every captured event.
pub fn assert_invisible<T: Debug, E: Debug>(
    label: &str,
    reference: &Result<T, E>,
    got: &Result<T, E>,
) {
    match (reference, got) {
        (Ok(a), Ok(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: evidence drifted from the reference row"
        ),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: failure evidence drifted from the reference row"
        ),
        (a, b) => panic!("{label}: verdicts diverged: {a:?} (reference) vs {b:?}"),
    }
}

/// Runs `check` on the reference row and on every sharing row, for POR
/// off and on, and asserts each sharing row invisible. Returns the two
/// reference results (POR off, POR on) for polarity checks.
pub fn assert_sharing_invisible<T: Debug, E: Debug>(
    label: &str,
    check: impl Fn(Row) -> Result<T, E>,
) -> Vec<Result<T, E>> {
    [false, true]
        .into_iter()
        .map(|por| {
            let reference = check(Row::reference(por));
            for row in sharing_rows(por) {
                assert_invisible(&format!("{label} {row:?}"), &reference, &check(row));
            }
            reference
        })
        .collect()
}

/// The POR accounting rule between an obligation discharged on the
/// reduced grid (`on`) and the same obligation on the full grid (`off`):
/// every case is checked, skipped or reduced, and the full run reduces
/// nothing.
pub fn assert_por_accounting(on: (usize, usize, usize), off: (usize, usize, usize)) {
    let (checked, skipped, reduced) = on;
    assert_eq!(off.2, 0, "POR off must reduce nothing");
    assert_eq!(
        checked + skipped + reduced,
        off.0 + off.1,
        "canonical + skipped + reduced must cover the full grid"
    );
}

/// [`assert_por_accounting`] on a grid that actually reduces, with one
/// case per context: exactly the contexts the generator marked are
/// reduced, so the reduction prunes nothing it cannot justify.
pub fn assert_accounting(on: &Obligation, off: &Obligation, contexts: &[EnvContext]) {
    assert!(on.cases_reduced > 0, "the grid must actually reduce");
    assert_eq!(
        on.cases_reduced,
        marked(contexts),
        "only marked contexts are reduced"
    );
    assert_por_accounting(counts(on), counts(off));
}

/// The number of contexts the generator marked POR-equivalent.
pub fn marked(contexts: &[EnvContext]) -> usize {
    contexts.iter().filter(|c| c.is_por_equivalent()).count()
}

pub fn counts(ob: &Obligation) -> (usize, usize, usize) {
    (ob.cases_checked, ob.cases_skipped, ob.cases_reduced)
}

pub fn sim_counts(ev: &SimEvidence) -> (usize, usize, usize) {
    (ev.cases_checked, ev.cases_skipped, ev.cases_reduced)
}

/// The POR-axis invariant for arbitrary verdicts: both sides agree on
/// Ok/Err; Ok sides carry the same rule and description (including any
/// embedded worst-case metrics) and obey the accounting rule; Err sides
/// render the same first failure.
pub fn assert_same_verdict(
    on: &Result<Obligation, LayerError>,
    off: &Result<Obligation, LayerError>,
) {
    match (on, off) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.rule, b.rule);
            assert_eq!(a.description, b.description);
            assert_por_accounting(counts(a), counts(b));
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("verdicts diverged: {a:?} (POR) vs {b:?} (full)"),
    }
}

/// [`assert_same_verdict`] for the simulation checker.
pub fn assert_same_sim_verdict(
    on: &Result<SimEvidence, Box<SimFailure>>,
    off: &Result<SimEvidence, Box<SimFailure>>,
) {
    match (on, off) {
        (Ok(a), Ok(b)) => assert_por_accounting(sim_counts(a), sim_counts(b)),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        (a, b) => panic!("sim verdicts diverged: {a:?} (POR) vs {b:?} (full)"),
    }
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// A four-pid grid built with POR marking on, from encoded player
/// choices for pids 1–3: `0` = no player (opaque), `1`/`2` = scratch
/// threads on one of two locations (same code twice ⇒ overlapping
/// footprints ⇒ dependent), `3` = a ticket contender. Mixes exercise
/// every shape of the independence relation and vary how much of the
/// schedule each lower run consumes. Full-grid rows simply ignore the
/// POR marks.
pub fn random_contexts(len: usize, choices: [u8; 3]) -> Vec<EnvContext> {
    let total = 4_usize.pow(len as u32);
    let mut gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_schedule_len(len)
        .with_max_contexts(total)
        .with_por(true);
    for (i, &c) in choices.iter().enumerate() {
        let pid = Pid(1 + i as u32);
        gen = match c {
            0 => gen,
            1 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(100)))),
            2 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(101)))),
            _ => gen.with_player(pid, Arc::new(TicketEnvPlayer::new(pid, Loc(0), 1))),
        };
    }
    gen.contexts()
}

/// The grid on which the reduction fires and sharing is mixed: a ticket
/// contender (some lower runs consume the whole schedule, others finish
/// and memoize early) next to two scratch threads on disjoint locations
/// (mutually independent) and the opaque focused pid.
pub fn grid(len: usize) -> Vec<EnvContext> {
    random_contexts(len, [3, 1, 2])
}

/// [`grid`] without the contender, so `Pid(1)` can be a second focused
/// pid (focused pids must not also be environment players).
pub fn racy_grid(len: usize) -> Vec<EnvContext> {
    random_contexts(len, [0, 1, 2])
}

/// An identity-like `op` pair: the lower returns its argument, the upper
/// returns `n + 1` for every argument `n ≥ broken_from` — so every
/// context fails from argument index `broken_from` on.
pub fn op_pair(broken_from: i64) -> (LayerInterface, LayerInterface) {
    let lower = LayerInterface::builder("LD")
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .build();
    let upper = LayerInterface::builder("UD")
        .prim(PrimSpec::atomic("op", move |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            let n = args[0].as_int()?;
            Ok(Val::Int(if n >= broken_from { n + 1 } else { n }))
        }))
        .build();
    (lower, upper)
}

/// `n` single-integer argument vectors `[0], [1], …`.
pub fn int_args(n: i64) -> Vec<Vec<Val>> {
    (0..n).map(|i| vec![Val::Int(i)]).collect()
}

/// A counter whose `bump` returns the new count — off by one from the
/// third bump on when `broken`.
pub fn counter_iface(name: &str, broken: bool) -> LayerInterface {
    LayerInterface::builder(name)
        .prim(PrimSpec::atomic("bump", move |ctx, _| {
            let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
            ctx.abs.set("n", Val::Int(n));
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            Ok(Val::Int(if broken && n >= 3 { n + 1 } else { n }))
        }))
        .build()
}

/// A primitive that queries the environment until `k` non-scheduling
/// events exist in the log, then finishes — the liveness workload.
pub fn wait_for_iface(k: usize) -> LayerInterface {
    struct WaitFor(usize);
    impl PrimRun for WaitFor {
        fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
            if ctx.log.without_sched().len() >= self.0 {
                ctx.emit(EventKind::Prim("done".into(), vec![]));
                Ok(PrimStep::Done(Val::Unit))
            } else {
                Ok(PrimStep::Query)
            }
        }
    }
    LayerInterface::builder("L-wait")
        .prim(PrimSpec::strategy("wait", true, move |_, _| {
            Box::new(WaitFor(k))
        }))
        .build()
}

/// An atomic queue: honest `deq` returns what the replayed queue holds;
/// `Some(k)` makes it always return `k`.
pub fn atomic_queue_iface(deq_ret: Option<i64>) -> LayerInterface {
    let b = LayerInterface::builder("Lq").prim(PrimSpec::atomic("enq", |ctx, args| {
        let q = QId(args[0].as_int()? as u32);
        ctx.emit(EventKind::EnQ(q, args[1].clone()));
        Ok(Val::Unit)
    }));
    match deq_ret {
        None => b.prim(PrimSpec::atomic("deq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(ccal::core::replay::deq_result(ctx.log, ctx.log.len() - 1))
        })),
        Some(k) => b.prim(PrimSpec::atomic("deq", move |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(Val::Int(k))
        })),
    }
    .build()
}

/// `Pid(0)` enqueues 10 on queue 0, then dequeues it.
pub fn enq_deq_programs() -> BTreeMap<Pid, ThreadScript> {
    BTreeMap::from([(
        Pid(0),
        vec![
            ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
            ("deq".to_owned(), vec![Val::Int(0)]),
        ],
    )])
}

/// Each pid pulls then pushes its location on the raw hardware machine.
pub fn pull_push_programs(locs: &[(Pid, Loc)]) -> BTreeMap<Pid, ThreadScript> {
    locs.iter()
        .map(|&(pid, loc)| {
            (
                pid,
                vec![
                    ("pull".to_owned(), vec![Val::Loc(loc)]),
                    ("push".to_owned(), vec![Val::Loc(loc)]),
                ],
            )
        })
        .collect()
}

/// One row's results of all five checkers on a random grid: the shared
/// body of the POR and sharing property tests. Honest fixtures verify;
/// `broken` ones fail (a zero liveness bound, a shared racy location, a
/// constant `deq`, a drifting counter). Race freedom runs only when
/// `Pid(1)` is free to be focused.
pub struct FiveCheckers {
    pub sim: Result<SimEvidence, Box<SimFailure>>,
    pub live: Result<Obligation, LayerError>,
    pub race: Option<Result<Obligation, LayerError>>,
    pub linz: Result<Obligation, LayerError>,
    pub seqref: Result<Obligation, LayerError>,
}

pub fn five_checkers(row: Row, contexts: &[EnvContext], broken: bool, race: bool) -> FiveCheckers {
    let bump = || vec![("bump".to_owned(), vec![]); 4];
    let race = race.then(|| {
        let loc = |c: u32| if broken { Loc(0) } else { Loc(50 + c) };
        row.race_freedom(
            &mx86_hw_interface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &pull_push_programs(&[(Pid(0), loc(0)), (Pid(1), loc(1))]),
            contexts,
            50_000,
        )
    });
    FiveCheckers {
        sim: row.refinement(
            &counter_iface("ctr-impl", broken),
            "bump",
            &counter_iface("ctr-spec", false),
            "bump",
            contexts,
            &[vec![], vec![], vec![]],
            &[],
        ),
        live: row.liveness(
            &wait_for_iface(1),
            "wait",
            &[],
            Pid(0),
            contexts,
            if broken { 0 } else { 64 },
            100_000,
        ),
        race,
        linz: row.linearizability(
            &atomic_queue_iface(broken.then_some(999)),
            &PidSet::from_pids([Pid(0)]),
            &enq_deq_programs(),
            &SimRelation::identity(),
            &*fifo_history_validator("deq"),
            contexts,
            100_000,
        ),
        seqref: row.sequence_refinement(
            &counter_iface("ctr-impl", broken),
            &counter_iface("ctr-spec", false),
            &SimRelation::identity(),
            Pid(0),
            contexts,
            &[bump()],
            100_000,
        ),
    }
}
