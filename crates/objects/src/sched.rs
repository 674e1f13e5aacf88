//! The thread scheduler: `yield` / `sleep` / `wakeup` over shared thread
//! queues (§5.1), the multithreaded layer interfaces of §5.2–5.3, and the
//! executable Theorem 5.1 (multithreaded linking).
//!
//! Each CPU has a private ready queue `rdq` and a shared pending queue
//! `pendq` ("containing the threads woken up by other CPUs"); sleeping
//! threads wait on shared sleeping queues. "A thread yield sends the first
//! pending thread from `pendq` to `rdq` and then switches to the next
//! ready thread" (§5.1). Context switching (`cswitch`) "can only be
//! implemented at the assembly level" — here it is a hand-written
//! [`ccal_machine::asm`] function saving and loading the kernel context
//! through private primitives.
//!
//! The overlay `Lhtd` exposes the *atomic* scheduling primitives whose
//! only footprint is the events `t.yield` / `t.sleep(q, lk)` /
//! `t.wakeup(q)`: on the thread-local interface they "do not modify the
//! kernel context and effectively act as a 'no-op', except that the shared
//! log gets updated" (§5.3) — which also makes them satisfy C calling
//! conventions, the key to thread-safe compilation.

use ccal_core::calculus::{check_fun, CertifiedLayer, CheckOptions, LayerError, Obligation};
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid, QId};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::module::Module;
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;
use ccal_machine::asm::{AsmFunction, AsmModule, Instr, Reg};

use crate::ticket::holds_atomic_lock;

/// Queue ids at or above this bound are scheduler pending queues; the
/// relation [`r_sched_relation`] erases their traffic.
pub const PENDQ_BASE: u32 = 100;

/// The pending queue of CPU `c`.
pub fn pendq(c: u32) -> Loc {
    Loc(PENDQ_BASE + c)
}

/// The ClightX part of the scheduler module (the assembly part is
/// [`cswitch_asm`]).
pub const SCHED_C_SOURCE: &str = r#"
void yield() {
    int t = pdeq(#100);
    if (t != -1) { rdq_enq(t); }
    int nxt = rdq_deq();
    if (nxt != -1) { cswitch(nxt); }
    log_yield();
}
void sleep(int q, int lk) {
    log_sleep(q, lk);
    wait_wakeup(q);
}
int wakeup(int q) {
    int t = wake_t(q);
    if (t != -1) { penq(#100, t); }
    return t;
}
"#;

/// The hand-written assembly context switch (§5.1): save the current
/// thread's kernel context, set the current thread id, load the target's
/// context. "This cswitch ... can only be implemented at the assembly
/// level, as it does not satisfy the C calling convention."
pub fn cswitch_asm() -> AsmModule {
    AsmModule::new().with_fn(AsmFunction::new(
        "cswitch",
        1,
        1,
        vec![
            // slot0 := target thread id (argument in EAX).
            Instr::StoreSlot(0, Reg::EAX),
            // save_ctx(curid())
            Instr::PrimCall("curid".to_owned(), 0),
            Instr::PrimCall("save_ctx".to_owned(), 1),
            // set_curid(target)
            Instr::Mov(Reg::EAX, ccal_machine::asm::Operand::Slot(0)),
            Instr::PrimCall("set_curid".to_owned(), 1),
            // load_ctx(target)
            Instr::Mov(Reg::EAX, ccal_machine::asm::Operand::Slot(0)),
            Instr::PrimCall("load_ctx".to_owned(), 1),
            Instr::RetVoid,
        ],
    ))
}

/// The sleeping threads of queue `q` (FIFO), replayed from `sleep` and
/// `wakeup` events — the paper's `R_sched` tracks the running thread the
/// same way (§5.1).
pub fn replay_sleepers(log: &Log, q: QId) -> Vec<Pid> {
    let mut sleepers = Vec::new();
    for e in log.iter() {
        match e.kind {
            EventKind::Sleep(qq, _) if qq == q => sleepers.push(e.pid),
            EventKind::Wakeup(qq) if qq == q && !sleepers.is_empty() => {
                sleepers.remove(0);
            }
            _ => {}
        }
    }
    sleepers
}

/// Whether `pid` is currently sleeping on queue `q`.
pub fn is_sleeping(log: &Log, q: QId, pid: Pid) -> bool {
    replay_sleepers(log, q).contains(&pid)
}

fn arg_loc(args: &[Val], i: usize) -> Result<Loc, MachineError> {
    args.get(i)
        .ok_or_else(|| MachineError::Stuck(format!("missing location argument {i}")))?
        .as_loc()
        .map_err(MachineError::from)
}

/// Blocking until woken: the tail of `sleep`. Queries the environment
/// until a `wakeup` pops the caller off the sleeping queue — liveness
/// rests on the rely that sleepers are eventually woken (§5.4 proves this
/// for the queuing lock).
#[derive(Clone)]
struct WaitWakeup {
    q: QId,
}

impl PrimRun for WaitWakeup {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if is_sleeping(ctx.log, self.q, ctx.pid) {
            Ok(PrimStep::Query)
        } else {
            Ok(PrimStep::Done(Val::Unit))
        }
    }
}

/// The scheduler's underlay `Lsq`: atomic lock (`acq`/`rel`, pass-through
/// for the queuing lock above), pending-queue operations, private ready
/// queue, kernel-context accessors, and the event-emitting scheduling
/// sub-primitives.
pub fn sched_underlay() -> LayerInterface {
    let lock = crate::ticket::lock_interface();
    let mut b = LayerInterface::builder("Lsq");
    for name in ["acq", "rel"] {
        b = b.prim(lock.prim(name).expect("lock prim").clone());
    }
    b.prim(PrimSpec::atomic("pdeq", |ctx, args| {
        let q = arg_loc(args, 0)?;
        ctx.emit(EventKind::DeQ(QId(q.0)));
        Ok(ccal_core::replay::deq_result(ctx.log, ctx.log.len() - 1))
    }))
    .prim(PrimSpec::atomic_unqueried("penq", |ctx, args| {
        let q = arg_loc(args, 0)?;
        let v = args
            .get(1)
            .cloned()
            .ok_or_else(|| MachineError::Stuck("penq needs a value".into()))?;
        ctx.emit(EventKind::EnQ(QId(q.0), v));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::private("rdq_enq", |ctx, args| {
        let t = args
            .first()
            .cloned()
            .ok_or_else(|| MachineError::Stuck("rdq_enq needs a thread".into()))?;
        let key = format!("rdq[{}]", ctx.pid);
        let mut items = match ctx.abs.get_or_undef(&key) {
            Val::List(items) => items,
            _ => Vec::new(),
        };
        items.push(t);
        ctx.abs.set(&key, Val::List(items));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::private("rdq_deq", |ctx, _| {
        let key = format!("rdq[{}]", ctx.pid);
        let mut items = match ctx.abs.get_or_undef(&key) {
            Val::List(items) => items,
            _ => Vec::new(),
        };
        if items.is_empty() {
            return Ok(Val::Int(-1));
        }
        let front = items.remove(0);
        ctx.abs.set(&key, Val::List(items));
        Ok(front)
    }))
    .prim(PrimSpec::private("curid", |ctx, _| {
        Ok(ctx.abs.get_or_undef("curid"))
    }))
    .prim(PrimSpec::private("set_curid", |ctx, args| {
        let t = args
            .first()
            .cloned()
            .ok_or_else(|| MachineError::Stuck("set_curid needs a thread".into()))?;
        ctx.abs.set("curid", t);
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::private("save_ctx", |ctx, args| {
        let t = args.first().and_then(|v| v.as_int().ok()).unwrap_or(-1);
        // Saving ra/ebp/ebx/esi/edi/esp (§5.1) — summarized as one token.
        ctx.abs
            .set(&format!("ctxt[{t}]"), Val::Str(format!("ctx-of-{t}")));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::private("load_ctx", |ctx, args| {
        let t = args.first().and_then(|v| v.as_int().ok()).unwrap_or(-1);
        Ok(ctx.abs.get_or_undef(&format!("ctxt[{t}]")))
    }))
    .prim(PrimSpec::atomic_unqueried("log_yield", |ctx, _| {
        ctx.emit(EventKind::Yield);
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::atomic_unqueried("log_sleep", |ctx, args| {
        let q = arg_loc(args, 0)?;
        let lk = arg_loc(args, 1)?;
        // sleep(i, lk): "sleep on queue i while holding the lock lk" — the
        // primitive releases the lock atomically with going to sleep.
        ctx.emit(EventKind::Sleep(QId(q.0), lk));
        ctx.emit(EventKind::Rel(lk));
        Ok(Val::Unit)
    }))
    .prim(PrimSpec::strategy("wait_wakeup", true, |_pid, args| {
        let q = args
            .first()
            .and_then(|v| v.as_loc().ok())
            .map(|l| QId(l.0))
            .unwrap_or(QId(0));
        Box::new(WaitWakeup { q })
    }))
    .prim(PrimSpec::atomic_unqueried("wake_t", |ctx, args| {
        let q = arg_loc(args, 0)?;
        let front = replay_sleepers(ctx.log, QId(q.0)).first().copied();
        ctx.emit(EventKind::Wakeup(QId(q.0)));
        Ok(front.map_or(Val::Int(-1), |p| Val::Int(i64::from(p.0))))
    }))
    .critical(holds_atomic_lock())
    .build()
}

#[derive(Clone)]
struct AtomicYield {
    queried: bool,
}

impl PrimRun for AtomicYield {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        ctx.emit(EventKind::Yield);
        Ok(PrimStep::Done(Val::Unit))
    }
}

#[derive(Clone)]
struct AtomicSleep {
    args: Vec<Val>,
    phase: u8,
}

impl PrimRun for AtomicSleep {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let q = QId(arg_loc(&self.args, 0)?.0);
        let lk = arg_loc(&self.args, 1)?;
        match self.phase {
            0 => {
                ctx.emit(EventKind::Sleep(q, lk));
                ctx.emit(EventKind::Rel(lk));
                self.phase = 1;
                Ok(PrimStep::Query)
            }
            _ => {
                if is_sleeping(ctx.log, q, ctx.pid) {
                    Ok(PrimStep::Query)
                } else {
                    Ok(PrimStep::Done(Val::Unit))
                }
            }
        }
    }
}

/// The thread-local overlay `Lhtd`: atomic `yield` / `sleep` / `wakeup`
/// plus the pass-through atomic lock. These primitives "effectively act as
/// a no-op, except that the shared log gets updated" (§5.3).
pub fn sched_overlay() -> LayerInterface {
    let lock = crate::ticket::lock_interface();
    let mut b = LayerInterface::builder("Lhtd");
    for name in ["acq", "rel"] {
        b = b.prim(lock.prim(name).expect("lock prim").clone());
    }
    b.prim(PrimSpec::strategy("yield", true, |_pid, _args| {
        Box::new(AtomicYield { queried: false })
    }))
    .prim(PrimSpec::strategy("sleep", true, |_pid, args| {
        Box::new(AtomicSleep { args, phase: 0 })
    }))
    .prim(PrimSpec::atomic_unqueried("wakeup", |ctx, args| {
        let q = arg_loc(args, 0)?;
        let front = replay_sleepers(ctx.log, QId(q.0)).first().copied();
        ctx.emit(EventKind::Wakeup(QId(q.0)));
        Ok(front.map_or(Val::Int(-1), |p| Val::Int(i64::from(p.0))))
    }))
    .critical(holds_atomic_lock())
    .build()
}

/// `R_sched`: pending-queue traffic (queue ids ≥ [`PENDQ_BASE`]) is
/// erased; the scheduling events themselves are kept.
pub fn r_sched_relation() -> SimRelation {
    SimRelation::per_event("Rsched", |e| match e.kind {
        EventKind::EnQ(q, _) | EventKind::DeQ(q) if q.0 >= PENDQ_BASE => vec![],
        _ => vec![e.clone()],
    })
}

/// The scheduler module: ClightX `yield`/`sleep`/`wakeup` linked with the
/// assembly `cswitch`.
///
/// # Errors
///
/// Front-end or linking failures.
pub fn sched_module() -> Result<Module, LayerError> {
    let c = ccal_clightx::clightx_module("Msched.c", SCHED_C_SOURCE)
        .map_err(|e| LayerError::Machine(MachineError::Stuck(format!("Msched front-end: {e}"))))?;
    let asm = cswitch_asm().as_core_module("Msched.s");
    Ok(c.link(&asm)?)
}

/// An environment thread that wakes sleepers (and otherwise yields), as a
/// pure function of the log — the "other threads wake it up to ensure
/// liveness" side of the bargain (§1).
#[derive(Debug, Clone)]
pub struct WakerEnvPlayer {
    pid: Pid,
    q: QId,
    yields: u64,
}

impl WakerEnvPlayer {
    /// Creates a waker for sleeping queue `q` that also yields up to
    /// `yields` times.
    pub fn new(pid: Pid, q: QId, yields: u64) -> Self {
        Self { pid, q, yields }
    }
}

impl Strategy for WakerEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        if !replay_sleepers(log, self.q).is_empty() {
            // Wake the front sleeper and push it to the pending queue —
            // the same shape the implementation produces.
            let woken = replay_sleepers(log, self.q)[0];
            return StrategyMove::Emit(vec![
                Event::new(self.pid, EventKind::Wakeup(self.q)),
                Event::new(
                    self.pid,
                    EventKind::EnQ(QId(PENDQ_BASE), Val::Int(i64::from(woken.0))),
                ),
            ]);
        }
        let yielded = log
            .iter()
            .filter(|e| e.pid == self.pid && matches!(e.kind, EventKind::Yield))
            .count() as u64;
        if yielded < self.yields {
            StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Yield)])
        } else {
            StrategyMove::idle()
        }
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![
            EventKind::Wakeup(self.q),
            EventKind::EnQ(QId(PENDQ_BASE), Val::Int(0)),
            EventKind::Yield,
        ])
    }

    fn name(&self) -> &str {
        "waker"
    }
}

/// Certifies the scheduler: `Lsq[t] ⊢_{Rsched} Msched : Lhtd[t]`.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_scheduler(
    pid: Pid,
    sleep_q: QId,
    lk: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    let m = sched_module()?;
    let opts = CheckOptions::new(contexts)
        .with_workload("yield", vec![vec![]])
        .with_workload("sleep", vec![vec![Val::Loc(Loc(sleep_q.0)), Val::Loc(lk)]])
        // sleep(q, lk) releases lk, so acquire it first.
        .with_setup("sleep", vec![("acq".to_owned(), vec![Val::Loc(lk)])])
        .with_workload("wakeup", vec![vec![Val::Loc(Loc(sleep_q.0))]])
        .with_workload("acq", vec![vec![Val::Loc(lk)]])
        .with_workload("rel", vec![vec![Val::Loc(lk)]])
        .with_setup("rel", vec![("acq".to_owned(), vec![Val::Loc(lk)])]);
    check_fun(
        &sched_underlay(),
        &m,
        &sched_overlay(),
        &r_sched_relation(),
        pid,
        &opts,
    )
}

/// Executable Theorem 5.1 (multithreaded linking): with the whole thread
/// set focused, the behaviors of thread programs over the implementation
/// machine (`Lbtd` = `Msched` installed over `Lsq`) contextually refine
/// their behaviors over the multithreaded interface `Lhtd[Tc]`.
///
/// # Errors
///
/// A [`LayerError`] describing the first disagreeing behavior.
pub fn check_multithreaded_linking(
    threads: &[Pid],
    client: &ccal_core::refine::ClientProgram,
    contexts: &[ccal_core::env::EnvContext],
) -> Result<Obligation, LayerError> {
    use ccal_core::calculus::Rule;
    let m = sched_module()?;
    let layer = CertifiedLayer {
        underlay: sched_underlay(),
        module: m,
        overlay: sched_overlay(),
        relation: r_sched_relation(),
        focused: threads.iter().copied().collect(),
        certificate: ccal_core::calculus::Certificate::new(),
    };
    let mut ob = ccal_core::refine::check_contextual_refinement(&layer, client, contexts, 200_000)?;
    ob.rule = Rule::MultithreadLink;
    ob.description = format!("Lbtd[c] ≤ Lhtd[c][Tc] on {} threads", threads.len());
    Ok(ob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use std::sync::Arc;

    fn contexts(q: QId) -> Vec<ccal_core::env::EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(WakerEnvPlayer::new(Pid(1), q, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn sleepers_replay_fifo() {
        let q = QId(5);
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::Sleep(q, Loc(0))),
            Event::new(Pid(1), EventKind::Sleep(q, Loc(0))),
            Event::new(Pid(2), EventKind::Wakeup(q)),
        ]);
        assert_eq!(replay_sleepers(&log, q), vec![Pid(1)]);
        assert!(is_sleeping(&log, q, Pid(1)));
        assert!(!is_sleeping(&log, q, Pid(0)));
    }

    #[test]
    fn scheduler_certifies() {
        let q = QId(5);
        let layer = certify_scheduler(Pid(0), q, Loc(9), contexts(q)).unwrap();
        assert!(layer.certificate.total_cases() > 0);
        assert_eq!(layer.relation.name(), "Rsched");
        // The module really is mixed C + assembly.
        assert!(layer.module.get("cswitch").is_some());
        assert_eq!(
            layer.module.get("cswitch").unwrap().lang,
            ccal_core::module::Lang::Asm
        );
        assert_eq!(
            layer.module.get("yield").unwrap().lang,
            ccal_core::module::Lang::C
        );
    }

    #[test]
    fn multithreaded_linking_holds_for_yield_programs() {
        let mut client = ccal_core::refine::ClientProgram::new();
        client.insert(Pid(0), vec![("yield".to_owned(), vec![]); 2]);
        client.insert(Pid(1), vec![("yield".to_owned(), vec![]); 2]);
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(3)
            .contexts();
        let ob = check_multithreaded_linking(&[Pid(0), Pid(1)], &client, &contexts).unwrap();
        assert!(ob.cases_checked > 0);
        assert_eq!(ob.rule, ccal_core::calculus::Rule::MultithreadLink);
    }

    #[test]
    fn sleep_wakeup_round_trip_across_threads() {
        // Thread 0 sleeps; thread 1 wakes it. Run concurrently on the
        // implementation machine.
        use ccal_core::conc::ConcurrentMachine;
        use ccal_core::id::PidSet;
        use std::collections::BTreeMap;
        let m = sched_module().unwrap();
        let iface = m.install(&sched_underlay()).unwrap();
        let env = ccal_core::env::EnvContext::new(Arc::new(
            ccal_core::strategy::RoundRobinScheduler::over_domain(2),
        ));
        let machine = ConcurrentMachine::new(iface, PidSet::from_pids([Pid(0), Pid(1)]), env);
        let mut programs = BTreeMap::new();
        programs.insert(
            Pid(0),
            vec![
                ("acq".to_owned(), vec![Val::Loc(Loc(9))]),
                ("sleep".to_owned(), vec![Val::Loc(Loc(5)), Val::Loc(Loc(9))]),
            ],
        );
        programs.insert(
            Pid(1),
            vec![
                ("yield".to_owned(), vec![]),
                ("wakeup".to_owned(), vec![Val::Loc(Loc(5))]),
            ],
        );
        let out = machine.run(&programs).unwrap();
        assert!(!is_sleeping(&out.log, QId(5), Pid(0)), "thread 0 was woken");
        // The wakeup returned thread 0's id and pushed it to the pendq.
        assert_eq!(out.rets[&Pid(1)][1], Val::Int(0));
    }
}
