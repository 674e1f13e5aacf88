//! Condition variables over the queuing lock (one of the "high-level
//! synchronization libraries such as queuing locks, condition variables
//! (CV), and message-passing primitives" of §1, Fig. 1).
//!
//! Mesa-style: `cv_wait(cv, l)` registers the caller on the condition
//! queue, releases the queuing lock `l`, blocks until signalled, and
//! re-acquires `l`; `cv_signal` wakes the FIFO front waiter,
//! `cv_broadcast` wakes all. The implementation runs over the *atomic*
//! queuing-lock interface — another instance of §6's observation that
//! building on certified lock layers "is relatively simple and does not
//! require many lines of code".

use ccal_core::calculus::{check_fun, CertifiedLayer, CheckOptions, LayerError};
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid, QId};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::replay::replay_atomic_lock;
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;

use crate::qlock::qlock_overlay;
use crate::ticket::holds_atomic_lock;

/// The ClightX source of the condition-variable module.
pub const CONDVAR_SOURCE: &str = r#"
void cv_wait(int cv, int l) {
    cv_enq(cv);
    rel_q(l);
    cv_block(cv);
    acq_q(l);
}
void cv_signal(int cv) {
    cv_sig(cv);
}
void cv_broadcast(int cv) {
    cv_bcast(cv);
}
"#;

/// The threads currently waiting on condition variable `cv` (FIFO),
/// replayed from the CV events: `CvWait` registers, `CvSignal` pops one,
/// `CvBroadcast` pops all.
pub fn replay_cv_waiters(log: &Log, cv: QId) -> Vec<Pid> {
    let mut waiters = Vec::new();
    for e in log.iter() {
        match e.kind {
            EventKind::CvWait(q) if q == cv => waiters.push(e.pid),
            EventKind::CvSignal(q) if q == cv && !waiters.is_empty() => {
                waiters.remove(0);
            }
            EventKind::CvBroadcast(q) if q == cv => waiters.clear(),
            _ => {}
        }
    }
    waiters
}

fn arg_loc(args: &[Val], i: usize) -> Result<Loc, MachineError> {
    args.get(i)
        .ok_or_else(|| MachineError::Stuck(format!("missing location argument {i}")))?
        .as_loc()
        .map_err(MachineError::from)
}

#[derive(Clone)]
struct CvBlock {
    cv: QId,
}

impl PrimRun for CvBlock {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if replay_cv_waiters(ctx.log, self.cv).contains(&ctx.pid) {
            Ok(PrimStep::Query)
        } else {
            Ok(PrimStep::Done(Val::Unit))
        }
    }
}

/// The CV underlay: the atomic queuing lock plus the raw CV primitives
/// (`cv_enq`/`cv_block`/`cv_sig`/`cv_bcast`).
pub fn condvar_underlay() -> LayerInterface {
    let base = qlock_overlay();
    let mut b = LayerInterface::builder("Lcvb");
    for name in base.prim_names() {
        b = b.prim(base.prim(name).expect("listed").clone());
    }
    b.prim(PrimSpec::atomic_unqueried("cv_enq", |ctx, args| {
        let cv = arg_loc(args, 0)?;
        ctx.emit(EventKind::CvWait(QId(cv.0)));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::strategy("cv_block", true, |_pid, args| {
        let cv = args
            .first()
            .and_then(|v| v.as_loc().ok())
            .map(|l| QId(l.0))
            .unwrap_or(QId(0));
        Box::new(CvBlock { cv })
    }))
    .prim(PrimSpec::atomic("cv_sig", |ctx, args| {
        let cv = arg_loc(args, 0)?;
        ctx.emit(EventKind::CvSignal(QId(cv.0)));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic("cv_bcast", |ctx, args| {
        let cv = arg_loc(args, 0)?;
        ctx.emit(EventKind::CvBroadcast(QId(cv.0)));
        Ok(Val::Unit)
    }))
    .critical(holds_atomic_lock())
    .build()
}

/// The specification strategy of `cv_wait`: register + release in one
/// step, block until signalled, then re-acquire the queuing lock.
#[derive(Clone)]
struct PhiCvWait {
    args: Vec<Val>,
    phase: u8,
}

impl PrimRun for PhiCvWait {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let cv = QId(arg_loc(&self.args, 0)?.0);
        let l = arg_loc(&self.args, 1)?;
        match self.phase {
            0 => {
                ctx.emit(EventKind::CvWait(cv));
                ctx.emit(EventKind::RelQ(l));
                self.phase = 1;
                Ok(PrimStep::Query)
            }
            1 => {
                if replay_cv_waiters(ctx.log, cv).contains(&ctx.pid) {
                    return Ok(PrimStep::Query);
                }
                self.phase = 2;
                self.resume(ctx)
            }
            _ => {
                // Re-acquire (possibly via handoff, as in the qlock spec).
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
    }
}

/// The CV overlay: `cv_wait` as the canonical wait strategy; signal and
/// broadcast as single events. The queuing lock is re-exported (Fig. 1's
/// synchronization libraries expose both).
pub fn condvar_overlay() -> LayerInterface {
    let qlock = qlock_overlay();
    let mut b = LayerInterface::builder("Lcv");
    for name in ["acq_q", "rel_q"] {
        b = b.prim(qlock.prim(name).expect("qlock prim").clone());
    }
    b.prim(PrimSpec::strategy("cv_wait", true, |_pid, args| {
        Box::new(PhiCvWait { args, phase: 0 })
    }))
    .prim(PrimSpec::atomic("cv_signal", |ctx, args| {
        let cv = arg_loc(args, 0)?;
        ctx.emit(EventKind::CvSignal(QId(cv.0)));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic("cv_broadcast", |ctx, args| {
        let cv = arg_loc(args, 0)?;
        ctx.emit(EventKind::CvBroadcast(QId(cv.0)));
        Ok(Val::Unit)
    }))
    .critical(holds_atomic_lock())
    .build()
}

/// An environment thread that signals waiters; between signals it takes
/// and releases the queuing lock like any client.
#[derive(Debug, Clone)]
pub struct CvEnvPlayer {
    pid: Pid,
    cv: QId,
    l: Loc,
}

impl CvEnvPlayer {
    /// Creates a signaller for condition variable `cv` guarded by qlock
    /// `l`.
    pub fn new(pid: Pid, cv: QId, l: Loc) -> Self {
        Self { pid, cv, l }
    }
}

impl Strategy for CvEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        // If we hold the qlock, release it so waiters can re-acquire.
        if replay_atomic_lock(log, self.l) == Ok(Some(self.pid)) {
            return StrategyMove::Emit(vec![Event::new(self.pid, EventKind::RelQ(self.l))]);
        }
        if !replay_cv_waiters(log, self.cv).is_empty() {
            return StrategyMove::Emit(vec![Event::new(self.pid, EventKind::CvSignal(self.cv))]);
        }
        StrategyMove::idle()
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![EventKind::RelQ(self.l), EventKind::CvSignal(self.cv)])
    }

    fn name(&self) -> &str {
        "cv-signaller"
    }
}

/// Certifies the condition-variable module:
/// `Lcvb[t] ⊢_id Mcv : Lcv[t]` — the implementation's event footprint *is*
/// the specification's (the underlay is already atomic), so the relation
/// is the identity.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_condvar(
    pid: Pid,
    cv: QId,
    l: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    let m = ccal_clightx::clightx_module("Mcv", CONDVAR_SOURCE)
        .map_err(|e| LayerError::Machine(MachineError::Stuck(format!("Mcv front-end: {e}"))))?;
    let opts = CheckOptions::new(contexts)
        .with_workload("cv_wait", vec![vec![Val::Loc(Loc(cv.0)), Val::Loc(l)]])
        .with_setup("cv_wait", vec![("acq_q".to_owned(), vec![Val::Loc(l)])])
        .with_workload("cv_signal", vec![vec![Val::Loc(Loc(cv.0))]])
        .with_workload("cv_broadcast", vec![vec![Val::Loc(Loc(cv.0))]])
        .with_workload("acq_q", vec![vec![Val::Loc(l)]])
        .with_workload("rel_q", vec![vec![Val::Loc(l)]])
        .with_setup("rel_q", vec![("acq_q".to_owned(), vec![Val::Loc(l)])]);
    check_fun(
        &condvar_underlay(),
        &m,
        &condvar_overlay(),
        &SimRelation::identity(),
        pid,
        &opts,
    )
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use std::sync::Arc;

    #[test]
    fn waiters_replay_with_signal_and_broadcast() {
        let cv = QId(8);
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::CvWait(cv)),
            Event::new(Pid(1), EventKind::CvWait(cv)),
            Event::new(Pid(2), EventKind::CvSignal(cv)),
        ]);
        assert_eq!(replay_cv_waiters(&log, cv), vec![Pid(1)]);
        let mut log = log;
        log.append(Event::new(Pid(2), EventKind::CvBroadcast(cv)));
        assert!(replay_cv_waiters(&log, cv).is_empty());
    }

    #[test]
    fn condvar_certifies() {
        let cv = QId(8);
        let l = Loc(4);
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(CvEnvPlayer::new(Pid(1), cv, l)))
            .with_schedule_len(3)
            .contexts();
        let layer = certify_condvar(Pid(0), cv, l, contexts).unwrap();
        assert!(layer.certificate.total_cases() > 0);
    }

    #[test]
    fn wait_blocks_until_signalled_then_reacquires() {
        use ccal_core::env::EnvContext;
        use ccal_core::machine::LayerMachine;
        let cv = QId(8);
        let l = Loc(4);
        let m = ccal_clightx::clightx_module("Mcv", CONDVAR_SOURCE).unwrap();
        let iface = m.install(&condvar_underlay()).unwrap();
        let env = EnvContext::new(Arc::new(
            ccal_core::strategy::RoundRobinScheduler::over_domain(2),
        ))
        .with_player(Pid(1), Arc::new(CvEnvPlayer::new(Pid(1), cv, l)));
        let mut machine = LayerMachine::new(iface, Pid(0), env);
        machine.call_prim("acq_q", &[Val::Loc(l)]).unwrap();
        machine
            .call_prim("cv_wait", &[Val::Loc(Loc(cv.0)), Val::Loc(l)])
            .unwrap();
        // After waking we hold the lock again.
        assert_eq!(replay_atomic_lock(machine.log(), l), Ok(Some(Pid(0))));
    }
}
