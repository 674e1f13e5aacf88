//! The queuing lock (§5.4, Fig. 11): waiting threads sleep instead of
//! spinning.
//!
//! "Reasoning about this locking algorithm is particularly challenging
//! since its C implementation utilizes both spinlocks and low-level
//! scheduler primitives (i.e., sleep and wakeup)" (§5.4). The stack here
//! is exactly the paper's: the implementation [`QLOCK_SOURCE`] runs over
//! the thread-local scheduler interface `Lhtd` (atomic spinlock +
//! `sleep`/`wakeup`) extended with the `ql_busy` accessors; the overlay
//! exposes the atomic events `t.acq_q(l)` / `t.rel_q(l)`.
//!
//! Mutual exclusion rests on the invariant that "the busy value of the
//! lock (`ql_busy`) is always equal to the lock holder's thread ID",
//! maintained "either by the lock requester when the lock is free (line 6
//! of Fig. 11) or by the previous lock holder when releasing the lock
//! (line 12)" — our `ql_take` / `ql_pass` events. Starvation freedom
//! follows from holders waking the FIFO front sleeper.

use ccal_core::calculus::{check_fun, CertifiedLayer, CheckOptions, LayerError};
use ccal_core::event::{Event, EventKind, Footprint};
use ccal_core::id::{Loc, Pid, QId};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::replay::replay_atomic_lock;
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;

use crate::sched::{replay_sleepers, sched_overlay, PENDQ_BASE};
use crate::ticket::holds_atomic_lock;

/// The ClightX source of the queuing lock — Fig. 11, with `ql_take` /
/// `ql_pass` as the observable busy-value writes. The sleeping queue and
/// the protecting spinlock of qlock `l` are both indexed by `l`
/// (`ql_loc(l) = l`).
pub const QLOCK_SOURCE: &str = r#"
void acq_q(int l) {
    acq(l);
    int busy = ql_get_busy(l);
    if (busy != -1) {
        sleep(l, l);
    } else {
        ql_take(l);
        rel(l);
    }
}
void rel_q(int l) {
    acq(l);
    int t = wakeup(l);
    ql_pass(l, t);
    rel(l);
}
"#;

/// The replayed `ql_busy` value of qlock `l`: the current holder's thread
/// id, or `-1` when free. Folds the `ql_take`/`ql_pass` events.
pub fn replay_ql_busy(log: &Log, l: Loc) -> i64 {
    let mut busy = -1_i64;
    for e in log.iter() {
        match &e.kind {
            EventKind::Prim(n, args) if n == "ql_take" && args.first() == Some(&Val::Loc(l)) => {
                busy = i64::from(e.pid.0);
            }
            EventKind::Prim(n, args) if n == "ql_pass" && args.first() == Some(&Val::Loc(l)) => {
                busy = args.get(1).and_then(|v| v.as_int().ok()).unwrap_or(-1);
            }
            _ => {}
        }
    }
    busy
}

fn arg_loc(args: &[Val]) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck("qlock primitive needs a location".into()))?
        .as_loc()
        .map_err(MachineError::from)
}

/// The queuing lock's underlay: the thread-local scheduler interface
/// (`acq`/`rel`/`yield`/`sleep`/`wakeup`) plus the `ql_busy` accessors,
/// which require holding the protecting spinlock.
pub fn qlock_underlay() -> LayerInterface {
    let base = sched_overlay();
    let mut b = LayerInterface::builder("Lql");
    for name in base.prim_names() {
        b = b.prim(base.prim(name).expect("listed").clone());
    }
    b.prim(PrimSpec::private("ql_get_busy", |ctx, args| {
        let l = arg_loc(args)?;
        if replay_atomic_lock(ctx.log, l)? != Some(ctx.pid) {
            return Err(MachineError::Stuck(format!(
                "ql_get_busy({l}) without holding the spinlock"
            )));
        }
        Ok(Val::Int(replay_ql_busy(ctx.log, l)))
    }))
    .prim(PrimSpec::atomic_unqueried("ql_take", |ctx, args| {
        let l = arg_loc(args)?;
        if replay_atomic_lock(ctx.log, l)? != Some(ctx.pid) {
            return Err(MachineError::Stuck(format!(
                "ql_take({l}) without holding the spinlock"
            )));
        }
        ctx.emit(EventKind::Prim("ql_take".into(), vec![Val::Loc(l)]));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic_unqueried("ql_pass", |ctx, args| {
        let l = arg_loc(args)?;
        let t = args
            .get(1)
            .cloned()
            .ok_or_else(|| MachineError::Stuck("ql_pass needs a thread".into()))?;
        if replay_atomic_lock(ctx.log, l)? != Some(ctx.pid) {
            return Err(MachineError::Stuck(format!(
                "ql_pass({l}) without holding the spinlock"
            )));
        }
        ctx.emit(EventKind::Prim("ql_pass".into(), vec![Val::Loc(l), t]));
        Ok(Val::Unit)
    }))
    .critical(holds_atomic_lock())
    .build()
}

/// The atomic queuing-lock acquire strategy: wait for the qlock to be
/// free (per the `acq_q`/`rel_q` replay), then take it in one event.
#[derive(Clone)]
struct PhiAcqQ {
    args: Vec<Val>,
    queried: bool,
}

impl PrimRun for PhiAcqQ {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let l = arg_loc(&self.args)?;
        if !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        // If a releaser handed the lock to us (our acq_q event appears in
        // the log already via the handoff abstraction), we are done;
        // otherwise take it when free.
        if replay_atomic_lock(ctx.log, l)? == Some(ctx.pid) {
            return Ok(PrimStep::Done(Val::Unit));
        }
        if replay_atomic_lock(ctx.log, l)?.is_none() {
            ctx.emit(EventKind::AcqQ(l));
            Ok(PrimStep::Done(Val::Unit))
        } else {
            Ok(PrimStep::Query)
        }
    }
}

/// The atomic queuing-lock overlay: `acq_q`/`rel_q` as single events.
pub fn qlock_overlay() -> LayerInterface {
    LayerInterface::builder("Lqlock")
        .prim(PrimSpec::strategy("acq_q", true, |_pid, args| {
            Box::new(PhiAcqQ {
                args,
                queried: false,
            })
        }))
        .prim(PrimSpec::atomic_unqueried("rel_q", |ctx, args| {
            let l = arg_loc(args)?;
            ctx.emit(EventKind::RelQ(l));
            Ok(Val::Unit)
        }))
        .critical(holds_atomic_lock())
        .build()
}

/// `R_ql`: `ql_take` is the requester's linearization point
/// (`t.acq_q(l)`); `ql_pass(l, t)` is the releaser's (`rel_q`, plus the
/// handed-off `acq_q` authored by the woken thread `t`); the spinlock and
/// scheduler events are erased.
pub fn r_ql_relation() -> SimRelation {
    SimRelation::per_event("Rql", |e| match &e.kind {
        EventKind::Prim(n, args) if n == "ql_take" => {
            let l = args
                .first()
                .and_then(|v| v.as_loc().ok())
                .expect("ql_take loc");
            vec![Event::new(e.pid, EventKind::AcqQ(l))]
        }
        EventKind::Prim(n, args) if n == "ql_pass" => {
            let l = args
                .first()
                .and_then(|v| v.as_loc().ok())
                .expect("ql_pass loc");
            let t = args.get(1).and_then(|v| v.as_int().ok()).unwrap_or(-1);
            let mut out = vec![Event::new(e.pid, EventKind::RelQ(l))];
            if t >= 0 {
                out.push(Event::new(Pid(t as u32), EventKind::AcqQ(l)));
            }
            out
        }
        EventKind::Acq(_)
        | EventKind::Rel(_)
        | EventKind::Sleep(_, _)
        | EventKind::Wakeup(_)
        | EventKind::Yield => vec![],
        EventKind::EnQ(q, _) | EventKind::DeQ(q) if q.0 >= PENDQ_BASE => vec![],
        _ => vec![e.clone()],
    })
}

/// A well-behaved queuing-lock environment thread: acquires through the
/// Fig. 11 fast/slow paths and always releases, as a pure function of the
/// log. It emits exactly the event shapes the implementation produces.
#[derive(Debug, Clone)]
pub struct QlockEnvPlayer {
    pid: Pid,
    l: Loc,
    rounds: u64,
}

impl QlockEnvPlayer {
    /// Creates a contender on qlock `l`.
    pub fn new(pid: Pid, l: Loc, rounds: u64) -> Self {
        Self { pid, l, rounds }
    }
}

impl Strategy for QlockEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let holds_q = replay_ql_busy(log, self.l) == i64::from(self.pid.0);
        if holds_q {
            // Release: take the spinlock, wake the front sleeper, pass.
            let woken = replay_sleepers(log, QId(self.l.0))
                .first()
                .map_or(-1, |p| i64::from(p.0));
            if replay_atomic_lock(log, self.l) != Ok(None) {
                return StrategyMove::idle();
            }
            return StrategyMove::Emit(vec![
                Event::new(self.pid, EventKind::Acq(self.l)),
                Event::new(self.pid, EventKind::Wakeup(QId(self.l.0))),
                Event::new(
                    self.pid,
                    EventKind::Prim("ql_pass".into(), vec![Val::Loc(self.l), Val::Int(woken)]),
                ),
                Event::new(self.pid, EventKind::Rel(self.l)),
            ]);
        }
        if crate::sched::is_sleeping(log, QId(self.l.0), self.pid) {
            return StrategyMove::idle();
        }
        let acquisitions = log
            .iter()
            .filter(|e| {
                e.pid == self.pid
                    && matches!(&e.kind, EventKind::Prim(n, args) if n == "ql_take"
                        && args.first() == Some(&Val::Loc(self.l)))
            })
            .count() as u64
            + log
                .iter()
                .filter(|e| {
                    matches!(&e.kind, EventKind::Prim(n, args) if n == "ql_pass"
                        && args.first() == Some(&Val::Loc(self.l))
                        && args.get(1) == Some(&Val::Int(i64::from(self.pid.0))))
                })
                .count() as u64;
        if acquisitions >= self.rounds || replay_atomic_lock(log, self.l) != Ok(None) {
            return StrategyMove::idle();
        }
        if replay_ql_busy(log, self.l) == -1 {
            // Fast path: spinlock, check busy, take, unlock.
            StrategyMove::Emit(vec![
                Event::new(self.pid, EventKind::Acq(self.l)),
                Event::new(
                    self.pid,
                    EventKind::Prim("ql_take".into(), vec![Val::Loc(self.l)]),
                ),
                Event::new(self.pid, EventKind::Rel(self.l)),
            ])
        } else {
            // Slow path: spinlock, busy, sleep (which releases the
            // spinlock).
            StrategyMove::Emit(vec![
                Event::new(self.pid, EventKind::Acq(self.l)),
                Event::new(self.pid, EventKind::Sleep(QId(self.l.0), self.l)),
                Event::new(self.pid, EventKind::Rel(self.l)),
            ])
        }
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // With the `ql_take`/`ql_pass` footprints declared below, every
        // kind here is local to lock `l` and its sleeping queue, so this
        // alphabet licenses reductions against players touching disjoint
        // state. The decisions above read only this pid's projection plus
        // the replayed state of `l` and `QId(l.0)`, as `Strategy::may_emit`
        // requires.
        Some(vec![
            EventKind::Acq(self.l),
            EventKind::Rel(self.l),
            EventKind::Wakeup(QId(self.l.0)),
            EventKind::Sleep(QId(self.l.0), self.l),
            EventKind::Prim("ql_take".into(), vec![Val::Loc(self.l)]),
            EventKind::Prim("ql_pass".into(), vec![Val::Loc(self.l), Val::Int(0)]),
        ])
    }

    fn footprints_of_prim(&self, name: &str, args: &[Val]) -> Vec<Footprint> {
        // `ql_take(l)` and `ql_pass(l, t)` read and write only the busy
        // value of lock `l`, their `Val::Loc` argument. The woken thread
        // `t` is an `Int`, not a location: the hand-off it names is a
        // separate `Wakeup` event with its own queue footprint.
        match name {
            "ql_take" | "ql_pass" => args
                .iter()
                .filter_map(|v| match v {
                    Val::Loc(b) => Some(Footprint::Loc(*b)),
                    _ => None,
                })
                .collect(),
            _ => vec![Footprint::Global],
        }
    }

    fn name(&self) -> &str {
        "qlock-contender"
    }
}

/// Certifies the queuing lock: `Lql[t] ⊢_{Rql} Mql : Lqlock[t]`.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_qlock(
    pid: Pid,
    l: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    let m = ccal_clightx::clightx_module("Mql", QLOCK_SOURCE)
        .map_err(|e| LayerError::Machine(MachineError::Stuck(format!("Mql front-end: {e}"))))?;
    let args = vec![vec![Val::Loc(l)]];
    let opts = CheckOptions::new(contexts)
        .with_workload("acq_q", args.clone())
        .with_workload("rel_q", args)
        .with_setup("rel_q", vec![("acq_q".to_owned(), vec![Val::Loc(l)])]);
    check_fun(
        &qlock_underlay(),
        &m,
        &qlock_overlay(),
        &r_ql_relation(),
        pid,
        &opts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use std::sync::Arc;

    pub(crate) fn contexts(l: Loc) -> Vec<ccal_core::env::EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(QlockEnvPlayer::new(Pid(1), l, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn busy_replay_tracks_take_and_pass() {
        let l = Loc(4);
        let mut log = Log::new();
        assert_eq!(replay_ql_busy(&log, l), -1);
        log.append(Event::new(
            Pid(0),
            EventKind::Prim("ql_take".into(), vec![Val::Loc(l)]),
        ));
        assert_eq!(replay_ql_busy(&log, l), 0);
        log.append(Event::new(
            Pid(0),
            EventKind::Prim("ql_pass".into(), vec![Val::Loc(l), Val::Int(7)]),
        ));
        assert_eq!(replay_ql_busy(&log, l), 7);
    }

    #[test]
    fn qlock_certifies() {
        let l = Loc(4);
        let layer = certify_qlock(Pid(0), l, contexts(l)).unwrap();
        assert!(layer.certificate.total_cases() > 0);
        assert_eq!(layer.relation.name(), "Rql");
    }

    #[test]
    fn busy_accessors_require_the_spinlock() {
        use ccal_core::env::EnvContext;
        use ccal_core::machine::LayerMachine;
        use ccal_core::strategy::RoundRobinScheduler;
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut m = LayerMachine::new(qlock_underlay(), Pid(0), env);
        assert!(matches!(
            m.call_prim("ql_take", &[Val::Loc(Loc(0))]),
            Err(MachineError::Stuck(_))
        ));
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // Run two threads doing acq_q/rel_q on the implementation machine
        // over many interleavings; the abstracted history must be a legal
        // lock history (well-bracketed AcqQ/RelQ).
        use ccal_core::id::PidSet;
        use std::collections::BTreeMap;
        let l = Loc(4);
        let m = ccal_clightx::clightx_module("Mql", QLOCK_SOURCE).unwrap();
        let iface = m.install(&qlock_underlay()).unwrap();
        let mut programs = BTreeMap::new();
        for t in 0..2 {
            programs.insert(
                Pid(t),
                vec![
                    ("acq_q".to_owned(), vec![Val::Loc(l)]),
                    ("rel_q".to_owned(), vec![Val::Loc(l)]),
                ],
            );
        }
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(5)
            .with_max_contexts(24)
            .contexts();
        let ob = ccal_verifier::check_linearizability(
            &iface,
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &programs,
            &r_ql_relation(),
            &*ccal_verifier::lock_history_validator(),
            &contexts,
            200_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn env_player_is_protocol_clean() {
        let l = Loc(4);
        let player = QlockEnvPlayer::new(Pid(1), l, 2);
        let mut log = Log::new();
        for _ in 0..30 {
            if let StrategyMove::Emit(evs) = player.next_move(&log) {
                log.append_all(evs);
            }
        }
        // Ends with the lock free and the player idle.
        assert_eq!(replay_ql_busy(&log, l), -1);
        assert_eq!(replay_atomic_lock(&log, l), Ok(None));
    }
}
