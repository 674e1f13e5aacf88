//! The shared queue object: lock-wrapped queue operations lifted to an
//! atomic interface (§4.2).
//!
//! "To implement the atomic queue object, we simply wrap the local queue
//! operations with lock acquire and release statements" (§6). The
//! implementation [`SHAREDQ_SOURCE`] runs over the *atomic lock interface*
//! `L1` — reusing the certified ticket (or MCS) lock — plus the in-critical
//! queue primitives `enq_t`/`deq_t`, which are exactly `σ_deQ_t` of §4.2:
//! they check lock ownership through the replayed log and get stuck
//! otherwise. The overlay exposes the atomic events `c.enQ(q,v)` /
//! `c.deQ(q)`; the relation [`rq_relation`] erases the lock events, as in
//! the paper's `R_lock` "merging two queue-related lock events into a
//! single event `c.deQ`".

use ccal_core::calculus::{check_fun, CertifiedLayer, CheckOptions, LayerError};
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid, QId};
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::replay::{deq_result, replay_atomic_lock};
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;

use crate::ticket::{holds_atomic_lock, lock_interface};

/// The ClightX source of the shared queue module: local queue operations
/// wrapped with the certified lock (Fig. 1's shared queues; §4.2). The
/// queue at location `q` is protected by the lock at the same location.
pub const SHAREDQ_SOURCE: &str = r#"
void enQ(int q, int v) {
    acq(q);
    enq_t(q, v);
    rel(q);
}
int deQ(int q) {
    acq(q);
    int v = deq_t(q);
    rel(q);
    return v;
}
"#;

fn arg_loc(args: &[Val]) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck("queue primitive needs a location".into()))?
        .as_loc()
        .map_err(MachineError::from)
}

fn require_lock(ctx: &ccal_core::layer::PrimCtx<'_>, q: Loc) -> Result<(), MachineError> {
    if replay_atomic_lock(ctx.log, q)? == Some(ctx.pid) {
        Ok(())
    } else {
        // "if the lock of queue i is held ... | _ => None (*get stuck*)"
        // — σ_deQ_t, §4.2.
        Err(MachineError::Stuck(format!(
            "queue op on {q} by {} without holding its lock",
            ctx.pid
        )))
    }
}

/// The underlay of the shared queue: the atomic lock interface `L1`
/// extended with the in-critical queue operations.
pub fn sharedq_underlay() -> LayerInterface {
    let base = lock_interface();
    let mut b = LayerInterface::builder("Lq");
    for name in base.prim_names() {
        if name == "f" || name == "g" {
            continue;
        }
        b = b.prim(base.prim(name).expect("listed").clone());
    }
    b.prim(PrimSpec::atomic_unqueried("enq_t", |ctx, args| {
        let q = arg_loc(args)?;
        require_lock(ctx, q)?;
        let v = args
            .get(1)
            .cloned()
            .ok_or_else(|| MachineError::Stuck("enq_t needs a value".into()))?;
        ctx.emit(EventKind::EnQ(QId(q.0), v));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic_unqueried("deq_t", |ctx, args| {
        let q = arg_loc(args)?;
        require_lock(ctx, q)?;
        ctx.emit(EventKind::DeQ(QId(q.0)));
        Ok(deq_result(ctx.log, ctx.log.len() - 1))
    }))
    .conditions(base.conditions.clone())
    .critical(holds_atomic_lock)
    .build()
}

/// The atomic shared-queue overlay `Lq_high` (§4.2's lifted interface):
/// single-event `enQ`/`deQ` whose results come from the replayed queue.
pub fn sharedq_overlay() -> LayerInterface {
    LayerInterface::builder("Lq_high")
        .prim(PrimSpec::atomic("enQ", |ctx, args| {
            let q = arg_loc(args)?;
            let v = args
                .get(1)
                .cloned()
                .ok_or_else(|| MachineError::Stuck("enQ needs a value".into()))?;
            ctx.emit(EventKind::EnQ(QId(q.0), v));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("deQ", |ctx, args| {
            let q = arg_loc(args)?;
            ctx.emit(EventKind::DeQ(QId(q.0)));
            Ok(deq_result(ctx.log, ctx.log.len() - 1))
        }))
        .build()
}

/// The relation `R_lock` of §4.2 for the queue stack: the wrapping lock
/// events are erased, leaving the atomic queue events.
pub fn rq_relation() -> SimRelation {
    SimRelation::per_event("Rlock", |e| match e.kind {
        EventKind::Acq(_) | EventKind::Rel(_) => vec![],
        _ => vec![e.clone()],
    })
}

/// A well-behaved environment participant for the *underlay*: performs
/// whole `acq • enQ/deQ • rel` bursts (legal at `L1`, where the critical
/// state keeps control), alternating enqueues of `seed`-derived values and
/// dequeues.
#[derive(Debug, Clone)]
pub struct SharedQEnvPlayer {
    pid: Pid,
    q: Loc,
    rounds: u64,
}

impl SharedQEnvPlayer {
    /// Creates a queue contender on queue/lock `q`.
    pub fn new(pid: Pid, q: Loc, rounds: u64) -> Self {
        Self { pid, q, rounds }
    }
}

impl Strategy for SharedQEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let done = log
            .iter()
            .filter(|e| e.pid == self.pid && matches!(e.kind, EventKind::Acq(b) if b == self.q))
            .count() as u64;
        if done >= self.rounds || replay_atomic_lock(log, self.q) != Ok(None) {
            return StrategyMove::idle();
        }
        let op = if done.is_multiple_of(2) {
            Event::new(
                self.pid,
                EventKind::EnQ(QId(self.q.0), Val::Int(100 + done as i64)),
            )
        } else {
            Event::new(self.pid, EventKind::DeQ(QId(self.q.0)))
        };
        StrategyMove::Emit(vec![
            Event::new(self.pid, EventKind::Acq(self.q)),
            op,
            Event::new(self.pid, EventKind::Rel(self.q)),
        ])
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // Payload values are irrelevant to independence — only the
        // footprints (lock `q`, queue `q.0`) matter.
        Some(vec![
            EventKind::Acq(self.q),
            EventKind::EnQ(QId(self.q.0), Val::Int(0)),
            EventKind::DeQ(QId(self.q.0)),
            EventKind::Rel(self.q),
        ])
    }

    fn name(&self) -> &str {
        "sharedq-contender"
    }
}

/// Certifies the shared queue: `Lq[pid] ⊢_{Rlock} Mq : Lq_high[pid]`.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_shared_queue(
    pid: Pid,
    q: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    certify_shared_queue_tuned(pid, q, contexts, 1, true)
}

/// [`certify_shared_queue`] with explicit exploration settings — worker
/// count and symmetric-schedule dedup — so differential tests and
/// benchmarks can compare serial and parallel checking of the same layer.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_shared_queue_tuned(
    pid: Pid,
    q: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
    workers: usize,
    dedup: bool,
) -> Result<CertifiedLayer, LayerError> {
    let m = ccal_clightx::clightx_module("Mq", SHAREDQ_SOURCE).map_err(|e| {
        LayerError::Machine(MachineError::Stuck(format!("Mq front-end: {e}")))
    })?;
    let opts = CheckOptions::new(contexts)
        .with_workload("enQ", vec![vec![Val::Loc(q), Val::Int(7)]])
        .with_workload("deQ", vec![vec![Val::Loc(q)]])
        // Exercise deQ both on an empty queue and after an enqueue.
        .with_setup("deQ", vec![("enQ".to_owned(), vec![Val::Loc(q), Val::Int(42)])])
        .with_workers(workers)
        .with_dedup(dedup);
    // The overlay has only enQ/deQ; underlay prims acq/rel are not
    // re-exported (they are hidden by the abstraction, as in Fig. 1 where
    // shared queues sit above spinlocks).
    check_fun(&sharedq_underlay(), &m, &sharedq_overlay(), &rq_relation(), pid, &opts)
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use std::sync::Arc;

    pub(crate) fn contexts(q: Loc) -> Vec<ccal_core::env::EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(SharedQEnvPlayer::new(Pid(1), q, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn shared_queue_certifies() {
        let q = Loc(3);
        let layer = certify_shared_queue(Pid(0), q, contexts(q)).unwrap();
        assert!(layer.certificate.total_cases() > 0);
        assert_eq!(layer.relation.name(), "Rlock");
    }

    #[test]
    fn queue_ops_without_lock_are_stuck() {
        use ccal_core::env::EnvContext;
        use ccal_core::machine::LayerMachine;
        use ccal_core::strategy::RoundRobinScheduler;
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let mut m = LayerMachine::new(sharedq_underlay(), Pid(0), env);
        let err = m
            .call_prim("enq_t", &[Val::Loc(Loc(0)), Val::Int(1)])
            .unwrap_err();
        assert!(matches!(err, MachineError::Stuck(_)));
    }

    #[test]
    fn deq_observes_fifo_under_the_lock() {
        use ccal_core::env::EnvContext;
        use ccal_core::machine::LayerMachine;
        use ccal_core::strategy::RoundRobinScheduler;
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
        let m = ccal_clightx::clightx_module("Mq", SHAREDQ_SOURCE).unwrap();
        let iface = m.install(&sharedq_underlay()).unwrap();
        let mut machine = LayerMachine::new(iface, Pid(0), env);
        let q = Val::Loc(Loc(0));
        machine.call_prim("enQ", &[q.clone(), Val::Int(1)]).unwrap();
        machine.call_prim("enQ", &[q.clone(), Val::Int(2)]).unwrap();
        assert_eq!(machine.call_prim("deQ", &[q.clone()]).unwrap(), Val::Int(1));
        assert_eq!(machine.call_prim("deQ", &[q.clone()]).unwrap(), Val::Int(2));
        assert_eq!(machine.call_prim("deQ", &[q]).unwrap(), Val::Int(-1));
    }

    #[test]
    fn concurrent_shared_queue_is_linearizable() {
        use ccal_core::id::PidSet;
        use std::collections::BTreeMap;
        let q = Loc(0);
        let m = ccal_clightx::clightx_module("Mq", SHAREDQ_SOURCE).unwrap();
        let iface = m.install(&sharedq_underlay()).unwrap();
        let mut programs = BTreeMap::new();
        programs.insert(
            Pid(0),
            vec![
                ("enQ".to_owned(), vec![Val::Loc(q), Val::Int(10)]),
                ("deQ".to_owned(), vec![Val::Loc(q)]),
            ],
        );
        programs.insert(
            Pid(1),
            vec![
                ("enQ".to_owned(), vec![Val::Loc(q), Val::Int(20)]),
                ("deQ".to_owned(), vec![Val::Loc(q)]),
            ],
        );
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(4)
            .contexts();
        let ob = ccal_verifier::check_linearizability(
            &iface,
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &programs,
            &rq_relation(),
            &*ccal_verifier::fifo_history_validator("deQ"),
            &contexts,
            100_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
    }
}
