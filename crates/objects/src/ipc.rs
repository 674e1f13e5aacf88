//! Inter-process communication over the queuing lock and condition
//! variables.
//!
//! The top of Fig. 1's synchronization-library layer: CertiKOS builds "a
//! synchronous inter-process communication (IPC) protocol using the
//! queuing lock" (§6). A channel is a mailbox protected by the queuing
//! lock at the channel's location, with a condition variable (same id)
//! signalling "not empty"; `recv` blocks Mesa-style until a message
//! arrives. The atomic overlay exposes single-event `send`/`recv` whose
//! results come from the replayed channel contents.

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

use crate::condvar::condvar_overlay;
use crate::ticket::holds_atomic_lock;

/// The ClightX source of the IPC module.
pub const IPC_SOURCE: &str = r#"
void send(int ch, int v) {
    acq_q(ch);
    ipc_put(ch, v);
    cv_signal(ch);
    rel_q(ch);
}
int recv(int ch) {
    acq_q(ch);
    while (ch_size(ch) == 0) {
        cv_wait(ch, ch);
    }
    int v = ipc_get(ch);
    rel_q(ch);
    return v;
}
"#;

/// The replayed contents of channel `ch` (oldest message first).
pub fn replay_channel(log: &Log, ch: QId) -> Vec<Val> {
    let mut buf = Vec::new();
    for e in log.iter() {
        match &e.kind {
            EventKind::IpcSend(q, v) if *q == ch => buf.push(v.clone()),
            EventKind::IpcRecv(q) if *q == ch && !buf.is_empty() => {
                buf.remove(0);
            }
            _ => {}
        }
    }
    buf
}

fn arg_loc(args: &[Val]) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck("ipc primitive needs a channel".into()))?
        .as_loc()
        .map_err(MachineError::from)
}

fn require_qlock(ctx: &PrimCtx<'_>, ch: Loc) -> Result<(), MachineError> {
    if replay_atomic_lock(ctx.log, ch)? == Some(ctx.pid) {
        Ok(())
    } else {
        Err(MachineError::Stuck(format!(
            "ipc op on channel {ch} by {} without the channel lock",
            ctx.pid
        )))
    }
}

/// The IPC underlay: the CV/qlock interface plus the raw mailbox
/// accessors, all requiring the channel lock.
pub fn ipc_underlay() -> LayerInterface {
    let base = condvar_overlay();
    let mut b = LayerInterface::builder("Lipcb");
    for name in base.prim_names() {
        b = b.prim(base.prim(name).expect("listed").clone());
    }
    b.prim(PrimSpec::atomic_unqueried("ipc_put", |ctx, args| {
        let ch = arg_loc(args)?;
        require_qlock(ctx, ch)?;
        let v = args
            .get(1)
            .cloned()
            .ok_or_else(|| MachineError::Stuck("ipc_put needs a value".into()))?;
        ctx.emit(EventKind::IpcSend(QId(ch.0), v));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic_unqueried("ipc_get", |ctx, args| {
        let ch = arg_loc(args)?;
        require_qlock(ctx, ch)?;
        let front = replay_channel(ctx.log, QId(ch.0)).into_iter().next();
        let front =
            front.ok_or_else(|| MachineError::Stuck(format!("ipc_get on empty channel {ch}")))?;
        ctx.emit(EventKind::IpcRecv(QId(ch.0)));
        Ok(front)
    }))
    .prim(PrimSpec::private("ch_size", |ctx, args| {
        let ch = arg_loc(args)?;
        require_qlock(ctx, ch)?;
        Ok(Val::Int(replay_channel(ctx.log, QId(ch.0)).len() as i64))
    }))
    .critical(holds_atomic_lock())
    .build()
}

/// The atomic `recv` strategy: wait until the channel has a message, then
/// take it in a single event.
#[derive(Clone)]
struct PhiRecv {
    args: Vec<Val>,
    queried: bool,
}

impl PrimRun for PhiRecv {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let ch = QId(arg_loc(&self.args)?.0);
        if !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        match replay_channel(ctx.log, ch).into_iter().next() {
            Some(front) => {
                ctx.emit(EventKind::IpcRecv(ch));
                Ok(PrimStep::Done(front))
            }
            None => Ok(PrimStep::Query),
        }
    }
}

/// The atomic IPC overlay: single-event `send`/`recv`.
pub fn ipc_overlay() -> LayerInterface {
    LayerInterface::builder("Lipc")
        .prim(PrimSpec::atomic("send", |ctx, args| {
            let ch = arg_loc(args)?;
            let v = args
                .get(1)
                .cloned()
                .ok_or_else(|| MachineError::Stuck("send needs a value".into()))?;
            ctx.emit(EventKind::IpcSend(QId(ch.0), v));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::strategy("recv", true, |_pid, args| {
            Box::new(PhiRecv {
                args,
                queried: false,
            })
        }))
        .build()
}

/// `R_ipc`: the lock and condition-variable events are erased; only the
/// message events remain.
pub fn r_ipc_relation() -> SimRelation {
    SimRelation::per_event("Ripc", |e| match e.kind {
        EventKind::AcqQ(_)
        | EventKind::RelQ(_)
        | EventKind::CvWait(_)
        | EventKind::CvSignal(_)
        | EventKind::CvBroadcast(_) => vec![],
        _ => vec![e.clone()],
    })
}

/// An environment thread that feeds the channel: when the channel is
/// empty and the lock free, performs a whole send burst (the exact event
/// shape the implementation produces).
#[derive(Debug, Clone)]
pub struct SenderEnvPlayer {
    pid: Pid,
    ch: Loc,
    rounds: u64,
}

impl SenderEnvPlayer {
    /// Creates a sender feeding channel `ch`.
    pub fn new(pid: Pid, ch: Loc, rounds: u64) -> Self {
        Self { pid, ch, rounds }
    }
}

impl Strategy for SenderEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let sent = log
            .iter()
            .filter(|e| {
                e.pid == self.pid && matches!(e.kind, EventKind::IpcSend(q, _) if q.0 == self.ch.0)
            })
            .count() as u64;
        if sent >= self.rounds || replay_atomic_lock(log, self.ch) != Ok(None) {
            return StrategyMove::idle();
        }
        StrategyMove::Emit(vec![
            Event::new(self.pid, EventKind::AcqQ(self.ch)),
            Event::new(
                self.pid,
                EventKind::IpcSend(QId(self.ch.0), Val::Int(500 + sent as i64)),
            ),
            Event::new(self.pid, EventKind::CvSignal(QId(self.ch.0))),
            Event::new(self.pid, EventKind::RelQ(self.ch)),
        ])
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![
            EventKind::AcqQ(self.ch),
            EventKind::IpcSend(QId(self.ch.0), Val::Int(0)),
            EventKind::CvSignal(QId(self.ch.0)),
            EventKind::RelQ(self.ch),
        ])
    }

    fn name(&self) -> &str {
        "ipc-sender"
    }
}

/// Certifies the IPC module: `Lipcb[t] ⊢_{Ripc} Mipc : Lipc[t]`.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_ipc(
    pid: Pid,
    ch: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    let m = ccal_clightx::clightx_module("Mipc", IPC_SOURCE)
        .map_err(|e| LayerError::Machine(MachineError::Stuck(format!("Mipc front-end: {e}"))))?;
    let opts = CheckOptions::new(contexts)
        .with_workload("send", vec![vec![Val::Loc(ch), Val::Int(7)]])
        .with_workload("recv", vec![vec![Val::Loc(ch)]]);
    check_fun(
        &ipc_underlay(),
        &m,
        &ipc_overlay(),
        &r_ipc_relation(),
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

    fn contexts(ch: Loc) -> Vec<ccal_core::env::EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(SenderEnvPlayer::new(Pid(1), ch, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn channel_replay_is_fifo() {
        let ch = QId(6);
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::IpcSend(ch, Val::Int(1))),
            Event::new(Pid(0), EventKind::IpcSend(ch, Val::Int(2))),
            Event::new(Pid(1), EventKind::IpcRecv(ch)),
        ]);
        assert_eq!(replay_channel(&log, ch), vec![Val::Int(2)]);
    }

    #[test]
    fn ipc_certifies() {
        let ch = Loc(6);
        let layer = certify_ipc(Pid(0), ch, contexts(ch)).unwrap();
        assert!(layer.certificate.total_cases() > 0);
        assert_eq!(layer.relation.name(), "Ripc");
    }

    #[test]
    fn recv_blocks_until_a_message_arrives() {
        use ccal_core::machine::LayerMachine;
        let ch = Loc(6);
        let m = ccal_clightx::clightx_module("Mipc", IPC_SOURCE).unwrap();
        let iface = m.install(&ipc_underlay()).unwrap();
        let env = ccal_core::env::EnvContext::new(Arc::new(
            ccal_core::strategy::RoundRobinScheduler::over_domain(2),
        ))
        .with_player(Pid(1), Arc::new(SenderEnvPlayer::new(Pid(1), ch, 1)));
        let mut machine = LayerMachine::new(iface, Pid(0), env);
        let got = machine.call_prim("recv", &[Val::Loc(ch)]).unwrap();
        assert_eq!(got, Val::Int(500));
    }

    #[test]
    fn mailbox_ops_require_the_channel_lock() {
        use ccal_core::machine::LayerMachine;
        let env = ccal_core::env::EnvContext::new(Arc::new(
            ccal_core::strategy::RoundRobinScheduler::over_domain(1),
        ));
        let mut m = LayerMachine::new(ipc_underlay(), Pid(0), env);
        assert!(matches!(
            m.call_prim("ipc_put", &[Val::Loc(Loc(6)), Val::Int(1)]),
            Err(MachineError::Stuck(_))
        ));
    }
}
