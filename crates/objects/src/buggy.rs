//! Intentionally buggy objects — seeded-defect fixtures for the
//! failure-forensics pipeline.
//!
//! Each fixture is a small object (or object pair) with a planted defect
//! that one of the five bounded checkers detects under *some* adversarial
//! environment contexts. The `ccal-forensics` crate runs the checker over
//! the full context grid, captures the failing witness log, reifies it
//! into a scripted context, delta-debugs it to a 1-minimal counterexample,
//! and replays the serialized artifact — these fixtures are the seeded
//! ground truth that exercise that whole pipeline (and the corpus of
//! golden artifacts checked into `forensics/corpus/`).
//!
//! The defects are chosen so that the failure condition is *monotone* in
//! the environment's events wherever possible: adding extra environment
//! noise to a failing context keeps it failing, which lets the property
//! tests generate junk-augmented contexts without re-searching for a
//! failure.

use std::collections::BTreeMap;

use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::event::EventKind;
use ccal_core::id::{Loc, Pid, QId};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::strategy::ScratchPlayer;
use ccal_core::val::Val;

/// The two scratch locations the `sim` fixture's lower machine leaks.
pub const SCRATCH_A: Loc = Loc(50);
/// See [`SCRATCH_A`].
pub const SCRATCH_B: Loc = Loc(51);
/// The location the `live` fixture's waiter watches.
pub const WAIT_LOC: Loc = Loc(60);
/// The location the `seqref` fixture's counter leaks.
pub const LEAK_LOC: Loc = Loc(70);
/// The scratch location of the `linz` fixture's noise player.
pub const NOISE_LOC: Loc = Loc(77);

// ---------------------------------------------------------------------
// sim: "scratch-sensitive" — a lower machine whose return value leaks
// the environment's scratch traffic, refined against an upper strategy
// that always returns 0.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct TwoProbeOp {
    queries: u32,
}

impl PrimRun for TwoProbeOp {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if self.queries < 2 {
            self.queries += 1;
            return Ok(PrimStep::Query);
        }
        let has = |loc: Loc| {
            ctx.log
                .iter()
                .any(|e| matches!(e.kind, EventKind::Push(l, _) if l == loc))
        };
        let leaked = has(SCRATCH_A) && has(SCRATCH_B);
        ctx.emit(EventKind::Prim("op".into(), vec![]));
        Ok(PrimStep::Done(Val::Int(i64::from(leaked))))
    }
}

/// The buggy lower interface: `op` queries the environment twice and then
/// returns 1 iff *both* scratch locations have been pushed — observable
/// environment state leaking into the return value.
pub fn scratch_sensitive_lower() -> LayerInterface {
    LayerInterface::builder("L-scratch-lo")
        .prim(PrimSpec::strategy("op", true, |_, _| {
            Box::new(TwoProbeOp { queries: 0 })
        }))
        .build()
}

/// The upper specification: `op` always returns 0.
pub fn scratch_sensitive_upper() -> LayerInterface {
    LayerInterface::builder("L-scratch-hi")
        .prim(PrimSpec::atomic("op", |ctx, _| {
            ctx.emit(EventKind::Prim("op".into(), vec![]));
            Ok(Val::Int(0))
        }))
        .build()
}

/// The context family: two scratch players on [`SCRATCH_A`]/[`SCRATCH_B`]
/// over every schedule prefix of length 3.
pub fn scratch_sensitive_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(
            Pid(1),
            std::sync::Arc::new(ScratchPlayer::new(Pid(1), SCRATCH_A)),
        )
        .with_player(
            Pid(2),
            std::sync::Arc::new(ScratchPlayer::new(Pid(2), SCRATCH_B)),
        )
        .with_schedule_len(3)
        .with_por(true)
        .contexts()
}

// ---------------------------------------------------------------------
// live: "impatient-waiter" — a strategy that waits for two pushes on
// WAIT_LOC, declared with a step bound far too tight to ever hold.
// ---------------------------------------------------------------------

#[derive(Clone)]
struct WaitForPushes;

impl PrimRun for WaitForPushes {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let n = ctx
            .log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Push(l, _) if l == WAIT_LOC))
            .count();
        if n >= 2 {
            ctx.emit(EventKind::Prim("waited".into(), vec![]));
            Ok(PrimStep::Done(Val::Unit))
        } else {
            Ok(PrimStep::Query)
        }
    }
}

/// The buggy interface: `wait` blocks until [`WAIT_LOC`] has been pushed
/// twice — at least two environment turns, so the declared bound of
/// [`IMPATIENT_BOUND`] scheduling steps can never hold.
pub fn impatient_waiter_iface() -> LayerInterface {
    LayerInterface::builder("L-impatient")
        .prim(PrimSpec::strategy("wait", true, |_, _| {
            Box::new(WaitForPushes)
        }))
        .build()
}

/// The (unsatisfiable) liveness bound the fixture claims.
pub const IMPATIENT_BOUND: u64 = 3;

/// Machine fuel for the fixture — small, so shrunk contexts whose waiter
/// starves fail fast with `OutOfFuel` instead of spinning.
pub const IMPATIENT_FUEL: u64 = 500;

/// The context family: one scratch player feeding [`WAIT_LOC`].
pub fn impatient_waiter_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            std::sync::Arc::new(ScratchPlayer::new(Pid(1), WAIT_LOC)),
        )
        .with_schedule_len(3)
        .with_por(true)
        .contexts()
}

// ---------------------------------------------------------------------
// race: "unlocked-pair" — two participants pull/push the same location
// with no lock; preemption between the pulls races.
// ---------------------------------------------------------------------

/// The racing programs: both participants `pull` then `push` [`Loc`]`(0)`.
pub fn unlocked_pair_programs() -> BTreeMap<Pid, ccal_core::conc::ThreadScript> {
    let b = Val::Loc(Loc(0));
    let mut programs = BTreeMap::new();
    for c in 0..2 {
        programs.insert(
            Pid(c),
            vec![
                ("pull".to_owned(), vec![b.clone()]),
                ("push".to_owned(), vec![b.clone()]),
            ],
        );
    }
    programs
}

/// The context family: every schedule prefix of length 4 over the pair.
pub fn unlocked_pair_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_por(true)
        .contexts()
}

// ---------------------------------------------------------------------
// linz: "lifo-queue" — an "atomic queue" whose deq pops the *newest*
// enqueued value; linearizable histories must be FIFO.
// ---------------------------------------------------------------------

/// The LIFO replay the buggy queue uses: the value `deq` at position `at`
/// returns, treating the `EnQ`/`DeQ` history as a *stack*.
pub fn lifo_deq_result(log: &Log, at: usize) -> Val {
    let mut stack: Vec<Val> = Vec::new();
    for (i, e) in log.iter().enumerate() {
        if i >= at {
            break;
        }
        match &e.kind {
            EventKind::EnQ(_, v) => stack.push(v.clone()),
            EventKind::DeQ(_) => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack.pop().unwrap_or(Val::Undef)
}

/// The buggy queue interface: `enq` is correct, `deq` replays the history
/// as a stack (LIFO) instead of a queue.
pub fn lifo_queue_iface() -> LayerInterface {
    LayerInterface::builder("Lq-lifo")
        .prim(PrimSpec::atomic("enq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::EnQ(q, args[1].clone()));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("deq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::DeQ(q));
            Ok(lifo_deq_result(ctx.log, ctx.log.len() - 1))
        }))
        .build()
}

/// The client programs: `p0` enqueues 10 and dequeues, `p1` enqueues 20.
/// Interleavings where 20 lands between `p0`'s two calls expose the LIFO
/// pop (observed 20, FIFO predicts 10).
pub fn lifo_queue_programs() -> BTreeMap<Pid, ccal_core::conc::ThreadScript> {
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
            ("deq".to_owned(), vec![Val::Int(0)]),
        ],
    );
    programs.insert(
        Pid(1),
        vec![("enq".to_owned(), vec![Val::Int(0), Val::Int(20)])],
    );
    programs
}

/// The context family: the two clients plus an unrelated scratch player,
/// so shrinking has genuine noise to strip.
pub fn lifo_queue_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(
            Pid(2),
            std::sync::Arc::new(ScratchPlayer::new(Pid(2), NOISE_LOC)),
        )
        .with_schedule_len(3)
        .with_por(true)
        .contexts()
}

// ---------------------------------------------------------------------
// seqref: "env-leaky-counter" — a counter whose return value gains a
// spurious +1 once the environment has pushed LEAK_LOC.
// ---------------------------------------------------------------------

/// The buggy implementation: `bump` increments its private counter but
/// returns one extra once [`LEAK_LOC`] has been pushed by anyone.
pub fn env_leaky_counter_impl() -> LayerInterface {
    LayerInterface::builder("ctr-leaky")
        .prim(PrimSpec::atomic("bump", |ctx, _| {
            let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
            ctx.abs.set("n", Val::Int(n));
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            let leak = ctx
                .log
                .iter()
                .any(|e| matches!(e.kind, EventKind::Push(l, _) if l == LEAK_LOC));
            Ok(Val::Int(if leak { n + 1 } else { n }))
        }))
        .build()
}

/// The specification: `bump` returns the count of its own `bump` events,
/// replayed from the log.
pub fn env_leaky_counter_spec() -> LayerInterface {
    LayerInterface::builder("ctr-spec")
        .prim(PrimSpec::atomic("bump", |ctx, _| {
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            let n = ctx
                .log
                .iter()
                .filter(|e| {
                    e.pid == ctx.pid && matches!(&e.kind, EventKind::Prim(p, _) if p == "bump")
                })
                .count();
            Ok(Val::Int(n as i64))
        }))
        .build()
}

/// The op scripts checked against the spec.
pub fn env_leaky_counter_scripts() -> Vec<Vec<(String, Vec<Val>)>> {
    vec![vec![("bump".to_owned(), vec![]); 2]]
}

/// The context family: one scratch player feeding [`LEAK_LOC`]. Schedules
/// that never reach `p1` pass; the rest leak.
pub fn env_leaky_counter_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            std::sync::Arc::new(ScratchPlayer::new(Pid(1), LEAK_LOC)),
        )
        .with_schedule_len(3)
        .with_por(true)
        .contexts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::id::PidSet;
    use ccal_core::sim::{check_prim_refinement, SimOptions, SimRelation};
    use ccal_verifier::{
        check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
        check_sequence_refinement_tuned, fifo_history_validator,
    };

    #[test]
    fn scratch_sensitive_fails_refinement() {
        let err = check_prim_refinement(
            &scratch_sensitive_lower(),
            "op",
            &scratch_sensitive_upper(),
            "op",
            &SimRelation::identity(),
            Pid(0),
            &scratch_sensitive_contexts(),
            &[vec![]],
            &SimOptions::default().with_workers(1).with_por(false),
        )
        .unwrap_err();
        assert!(
            err.reason.contains("return values differ"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn impatient_waiter_fails_liveness() {
        let err = check_liveness_tuned(
            &impatient_waiter_iface(),
            "wait",
            &[],
            Pid(0),
            &impatient_waiter_contexts(),
            IMPATIENT_BOUND,
            IMPATIENT_FUEL,
            1,
            false,
            true,
            true,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ccal_core::calculus::LayerError::Mismatch { .. }
        ));
    }

    #[test]
    fn unlocked_pair_races() {
        let err = check_race_freedom_tuned(
            &ccal_machine::mx86::mx86_hw_interface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &unlocked_pair_programs(),
            &unlocked_pair_contexts(),
            50_000,
            1,
            false,
            true,
            true,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ccal_core::calculus::LayerError::Mismatch { .. }
        ));
    }

    #[test]
    fn lifo_queue_fails_linearizability() {
        let err = check_linearizability_tuned(
            &lifo_queue_iface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &lifo_queue_programs(),
            &SimRelation::identity(),
            &*fifo_history_validator("deq"),
            &lifo_queue_contexts(),
            100_000,
            1,
            false,
            true,
            true,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ccal_core::calculus::LayerError::Mismatch { .. }
        ));
    }

    #[test]
    fn env_leaky_counter_fails_sequence_refinement() {
        let err = check_sequence_refinement_tuned(
            &env_leaky_counter_impl(),
            &env_leaky_counter_spec(),
            &SimRelation::identity(),
            Pid(0),
            &env_leaky_counter_contexts(),
            &env_leaky_counter_scripts(),
            100_000,
            1,
            false,
            true,
            true,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ccal_core::calculus::LayerError::Mismatch { .. }
        ));
    }

    #[test]
    fn lifo_replay_pops_newest() {
        use ccal_core::event::Event;
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::EnQ(QId(0), Val::Int(10))),
            Event::new(Pid(1), EventKind::EnQ(QId(0), Val::Int(20))),
            Event::new(Pid(0), EventKind::DeQ(QId(0))),
        ]);
        assert_eq!(lifo_deq_result(&log, 2), Val::Int(20));
    }
}
