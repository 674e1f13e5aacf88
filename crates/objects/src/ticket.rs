//! The ticket-lock certified layer stack (§2, §4.1, Figs. 3/10).
//!
//! The full derivation of Fig. 5, executable:
//!
//! 1. **Bottom interface `L0`** ([`l0_interface`]): the CPU-local machine
//!    interface with the hardware ticket primitives `fai_t`/`get_n`/
//!    `inc_n`/`hold` (plus the client primitives `f`/`g` of Fig. 3).
//! 2. **`M1`** ([`M1_SOURCE`]): the ClightX ticket lock of Fig. 3/10,
//!    compiled and validated by CompCertX.
//! 3. **Fun-lift to `L′1`** ([`lock_low_interface`]): the strategies
//!    `φ′_acq`/`φ′_rel` of §2 — still exposing the spin loop.
//! 4. **Log-lift to `L1`** ([`lock_interface`]): the *atomic* interface
//!    whose `acq` produces the single event `i.acq`, related by the
//!    simulation relation [`r1_relation`] ("mapping events `i.acq` to
//!    `i.hold`, `i.rel` to `i.inc_n` and other lock-related events to
//!    empty ones", §2).
//! 5. **`M2`/`foo`** ([`M2_SOURCE`], [`l2_interface`], [`r2_relation`]):
//!    the client layer of Fig. 3, whose atomic `foo` abstracts the whole
//!    `acq; f(); g(); rel` critical section.
//!
//! [`certify_ticket_stack`] discharges every obligation and returns the
//! composed certified layers.

use ccal_core::calculus::{
    check_fun, check_iface_refinement, vcomp, weaken, CertifiedLayer, CheckOptions,
    IfaceRefinement, LayerError,
};
use ccal_core::event::{Event, EventKind, Footprint};
use ccal_core::id::{Loc, Pid};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::module::Module;
use ccal_core::rely::{Conditions, Invariant, RelyGuarantee};
use ccal_core::replay::{my_ticket, replay_atomic_lock, replay_ticket};
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;
use ccal_machine::lx86::{in_critical_l0, lx86_interface};

/// The ClightX source of module `M1` — the ticket lock of Figs. 3 and 10.
pub const M1_SOURCE: &str = r#"
void acq(int b) {
    int my_t = fai_t(b);
    while (get_n(b) != my_t) {}
    hold(b);
}
void rel(int b) {
    inc_n(b);
}
"#;

/// The ClightX source of module `M2` — the client layer of Fig. 3.
pub const M2_SOURCE: &str = r#"
void foo(int b) {
    acq(b);
    f();
    g();
    rel(b);
}
"#;

fn f_prim() -> PrimSpec {
    PrimSpec::atomic("f", |ctx, _| {
        ctx.emit(EventKind::Prim("f".into(), vec![]));
        Ok(Val::Unit)
    })
}

fn g_prim() -> PrimSpec {
    PrimSpec::atomic("g", |ctx, _| {
        // g runs inside the critical section right after f; the critical
        // state suppresses its query point there (§2).
        ctx.emit(EventKind::Prim("g".into(), vec![]));
        Ok(Val::Unit)
    })
}

/// The per-participant ticket-protocol invariant: on every lock location,
/// each participant's events follow `FAI_t → get_n* → hold → inc_n`
/// (release from idle is tolerated, matching the hardware's totality).
/// Used as both rely and guarantee so that parallel composition's
/// compatibility is discharged structurally.
pub fn ticket_protocol_invariant() -> Invariant {
    Invariant::new("ticket-protocol", |pid: Pid, log: &Log| {
        use std::collections::BTreeMap;
        #[derive(PartialEq, Clone, Copy)]
        enum St {
            Idle,
            Ticketed,
            Held,
        }
        let mut st: BTreeMap<Loc, St> = BTreeMap::new();
        for e in log.iter().filter(|e| e.pid == pid) {
            match e.kind {
                EventKind::FaiT(b) => {
                    if *st.get(&b).unwrap_or(&St::Idle) != St::Idle {
                        return false;
                    }
                    st.insert(b, St::Ticketed);
                }
                EventKind::GetN(b)
                    if *st.get(&b).unwrap_or(&St::Idle) != St::Ticketed => {
                        return false;
                    }
                EventKind::Hold(b) => {
                    if *st.get(&b).unwrap_or(&St::Idle) != St::Ticketed {
                        return false;
                    }
                    st.insert(b, St::Held);
                }
                EventKind::IncN(b) => {
                    st.insert(b, St::Idle);
                }
                _ => {}
            }
        }
        true
    })
}

/// The atomic lock protocol invariant: each participant's `acq`/`rel`
/// events are well-bracketed per location.
pub fn atomic_lock_protocol_invariant() -> Invariant {
    Invariant::new("atomic-lock-protocol", |pid: Pid, log: &Log| {
        use std::collections::BTreeSet;
        let mut held: BTreeSet<Loc> = BTreeSet::new();
        for e in log.iter().filter(|e| e.pid == pid) {
            match e.kind {
                EventKind::Acq(b)
                    if !held.insert(b) => {
                        return false;
                    }
                EventKind::Rel(b) => {
                    held.remove(&b);
                }
                _ => {}
            }
        }
        true
    })
}

fn ticket_conditions() -> RelyGuarantee {
    let c = Conditions::none().with(ticket_protocol_invariant());
    RelyGuarantee::new(c.clone(), c)
}

fn atomic_conditions() -> RelyGuarantee {
    let c = Conditions::none().with(atomic_lock_protocol_invariant());
    RelyGuarantee::new(c.clone(), c)
}

/// The bottom interface `L0` of the ticket stack: the CPU-local machine
/// interface (push/pull + ticket hardware primitives) extended with the
/// Fig. 3 client primitives `f` and `g`.
pub fn l0_interface() -> LayerInterface {
    let base = lx86_interface();
    let mut b = LayerInterface::builder("L0");
    for name in base.prim_names() {
        b = b.prim(base.prim(name).expect("listed prim").clone());
    }
    b.prim(f_prim())
        .prim(g_prim())
        .conditions(ticket_conditions())
        .critical(in_critical_l0)
        .build()
}

fn arg_loc(args: &[Val]) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck("lock primitive needs a location".into()))?
        .as_loc()
        .map_err(MachineError::from)
}

/// The `φ′_acq` strategy of §2: fetch a ticket, spin on `get_n` (querying
/// the environment between probes), then announce with `hold`.
#[derive(Clone)]
struct PhiAcqLow {
    args: Vec<Val>,
    phase: u8,
    ticket: u64,
}

impl PrimRun for PhiAcqLow {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let b = arg_loc(&self.args)?;
        match self.phase {
            0 => {
                // Query point before the shared FAI.
                self.phase = 1;
                Ok(PrimStep::Query)
            }
            1 => {
                ctx.emit(EventKind::FaiT(b));
                self.ticket = my_ticket(ctx.log, b, ctx.pid).expect("just fetched");
                self.phase = 2;
                Ok(PrimStep::Query)
            }
            2 => {
                ctx.emit(EventKind::GetN(b));
                if replay_ticket(ctx.log, b).serving == self.ticket {
                    // Served: one more query point precedes the hold move
                    // (the `?E, !i.hold` edge of the §2 automaton).
                    self.phase = 3;
                }
                Ok(PrimStep::Query)
            }
            _ => {
                ctx.emit(EventKind::Hold(b));
                Ok(PrimStep::Done(Val::Unit))
            }
        }
    }
}

/// The fun-lifted interface `L′1` of §2: `acq`/`rel` as the low-level
/// strategies `φ′_acq`/`φ′_rel` (spin loop still visible), plus the
/// pass-through client primitives.
pub fn lock_low_interface() -> LayerInterface {
    LayerInterface::builder("L1'")
        .prim(PrimSpec::strategy("acq", true, |_pid, args| {
            Box::new(PhiAcqLow {
                args,
                phase: 0,
                ticket: 0,
            })
        }))
        .prim(PrimSpec::atomic("rel", |ctx, args| {
            let b = arg_loc(args)?;
            ctx.emit(EventKind::IncN(b));
            Ok(Val::Unit)
        }))
        .prim(f_prim())
        .prim(g_prim())
        .conditions(ticket_conditions())
        .critical(in_critical_l0)
        .build()
}

/// Which atomic locks `pid` currently holds, per the `acq`/`rel` events.
pub fn holds_atomic_lock(pid: Pid, log: &Log) -> bool {
    use std::collections::BTreeSet;
    let mut held: BTreeSet<Loc> = BTreeSet::new();
    for e in log.iter().filter(|e| e.pid == pid) {
        match e.kind {
            EventKind::Acq(b) | EventKind::AcqQ(b) => {
                held.insert(b);
            }
            EventKind::Rel(b) | EventKind::RelQ(b) => {
                held.remove(&b);
            }
            _ => {}
        }
    }
    !held.is_empty()
}

/// The `φ_acq` strategy of the atomic interface `L1`: query the
/// environment until the lock is free (the rely guarantees holders
/// release), then take it in one atomic event and enter the critical
/// state.
#[derive(Clone)]
struct PhiAcqAtomic {
    args: Vec<Val>,
    queried: bool,
}

impl PrimRun for PhiAcqAtomic {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let b = arg_loc(&self.args)?;
        if !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        if replay_atomic_lock(ctx.log, b)?.is_none() {
            ctx.emit(EventKind::Acq(b));
            Ok(PrimStep::Done(Val::Unit))
        } else {
            Ok(PrimStep::Query)
        }
    }
}

/// The log-lifted atomic lock interface `L1` of §2: `acq` and `rel` are
/// single-event atomic primitives; holding the lock is the critical state.
pub fn lock_interface() -> LayerInterface {
    LayerInterface::builder("L1")
        .prim(PrimSpec::strategy("acq", true, |_pid, args| {
            Box::new(PhiAcqAtomic {
                args,
                queried: false,
            })
        }))
        .prim(PrimSpec::atomic("rel", |ctx, args| {
            let b = arg_loc(args)?;
            ctx.emit(EventKind::Rel(b));
            Ok(Val::Unit)
        }))
        .prim(f_prim())
        .prim(g_prim())
        .conditions(atomic_conditions())
        .critical(holds_atomic_lock)
        .build()
}

/// The relation `R1` of §2: `hold ↦ acq`, `inc_n ↦ rel`, other
/// lock-related events erased, everything else kept.
pub fn r1_relation() -> SimRelation {
    SimRelation::per_event("R1", |e| match e.kind {
        EventKind::FaiT(_) | EventKind::GetN(_) => vec![],
        EventKind::Hold(b) => vec![Event::new(e.pid, EventKind::Acq(b))],
        EventKind::IncN(b) => vec![Event::new(e.pid, EventKind::Rel(b))],
        _ => vec![e.clone()],
    })
}

/// The top client interface `L2` of Fig. 3: the single atomic primitive
/// `foo`, producing the event `i.foo`.
pub fn l2_interface() -> LayerInterface {
    LayerInterface::builder("L2")
        .prim(PrimSpec::strategy("foo", true, |_pid, args| {
            Box::new(PhiFooAtomic {
                args,
                queried: false,
            })
        }))
        .conditions(RelyGuarantee::none())
        .build()
}

#[derive(Clone)]
struct PhiFooAtomic {
    args: Vec<Val>,
    queried: bool,
}

impl PrimRun for PhiFooAtomic {
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }

    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let b = arg_loc(&self.args)?;
        if !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        if replay_atomic_lock(ctx.log, b)?.is_none() {
            ctx.emit(EventKind::Prim("foo".into(), vec![Val::Loc(b)]));
            Ok(PrimStep::Done(Val::Unit))
        } else {
            Ok(PrimStep::Query)
        }
    }
}

/// The relation `R2` of §2: the critical section `i.acq • i.f • i.g •
/// i.rel` collapses to the single event `i.foo`. Implemented as a
/// whole-log abstraction: per participant, an open `acq` buffers `f`/`g`
/// until the matching `rel`, which emits `foo`.
pub fn r2_relation() -> SimRelation {
    SimRelation::whole_log("R2", |log: &Log| {
        use std::collections::BTreeMap;
        let mut open: BTreeMap<Pid, (Loc, Vec<String>)> = BTreeMap::new();
        let mut out = Log::new();
        for e in log.iter() {
            match &e.kind {
                EventKind::Acq(b) => {
                    if open.insert(e.pid, (*b, Vec::new())).is_some() {
                        return None;
                    }
                }
                EventKind::Prim(name, _) if name == "f" || name == "g" => {
                    match open.get_mut(&e.pid) {
                        Some((_, inner)) => inner.push(name.clone()),
                        None => return None,
                    }
                }
                EventKind::Rel(b) => match open.remove(&e.pid) {
                    Some((open_b, inner)) if open_b == *b && inner == ["f", "g"] => {
                        out.append(Event::new(
                            e.pid,
                            EventKind::Prim("foo".into(), vec![Val::Loc(*b)]),
                        ));
                    }
                    _ => return None,
                },
                _ => out.append(e.clone()),
            }
        }
        if open.is_empty() {
            Some(out)
        } else {
            None
        }
    })
}

/// A well-behaved contending environment participant for the ticket lock:
/// as a pure function of the log it acquires the lock (FAI → hold when
/// served) up to `rounds` times and always releases on the turn after
/// taking it — satisfying the rely condition that "the held locks will
/// eventually be released" (§2).
#[derive(Debug, Clone)]
pub struct TicketEnvPlayer {
    pid: Pid,
    b: Loc,
    rounds: u64,
}

impl TicketEnvPlayer {
    /// Creates a contender on lock `b` that acquires `rounds` times.
    pub fn new(pid: Pid, b: Loc, rounds: u64) -> Self {
        Self { pid, b, rounds }
    }
}

impl Strategy for TicketEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        // Reconstruct my lock state from the log.
        let mut fai_count = 0_u64;
        let mut state = 0_u8; // 0 idle, 1 ticketed, 2 held
        for e in log.iter().filter(|e| e.pid == self.pid) {
            match e.kind {
                EventKind::FaiT(b) if b == self.b => {
                    fai_count += 1;
                    state = 1;
                }
                EventKind::Hold(b) if b == self.b => state = 2,
                EventKind::IncN(b) if b == self.b => state = 0,
                _ => {}
            }
        }
        match state {
            2 => StrategyMove::Emit(vec![Event::new(self.pid, EventKind::IncN(self.b))]),
            1 => {
                let mine = my_ticket(log, self.b, self.pid).expect("ticketed");
                if replay_ticket(log, self.b).serving == mine {
                    StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Hold(self.b))])
                } else {
                    StrategyMove::idle()
                }
            }
            _ if fai_count < self.rounds => {
                StrategyMove::Emit(vec![Event::new(self.pid, EventKind::FaiT(self.b))])
            }
            _ => StrategyMove::idle(),
        }
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // Every move touches only the ticket state of lock `self.b`; the
        // decisions depend only on this pid's own projection of the log
        // plus the replayed state of `self.b`, so the strategy is local to
        // these kinds' footprints as `Strategy::may_emit` requires.
        Some(vec![
            EventKind::FaiT(self.b),
            EventKind::Hold(self.b),
            EventKind::IncN(self.b),
        ])
    }

    fn name(&self) -> &str {
        "ticket-contender"
    }
}

/// The atomic-level image of [`TicketEnvPlayer`]: acquires with a single
/// `acq` event when the lock is free, releases on the next turn.
#[derive(Debug, Clone)]
pub struct AtomicLockEnvPlayer {
    pid: Pid,
    b: Loc,
    rounds: u64,
}

impl AtomicLockEnvPlayer {
    /// Creates an atomic-level contender on lock `b`.
    pub fn new(pid: Pid, b: Loc, rounds: u64) -> Self {
        Self { pid, b, rounds }
    }
}

impl Strategy for AtomicLockEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let mut acqs = 0_u64;
        let mut holding = false;
        for e in log.iter().filter(|e| e.pid == self.pid) {
            match e.kind {
                EventKind::Acq(b) if b == self.b => {
                    acqs += 1;
                    holding = true;
                }
                EventKind::Rel(b) if b == self.b => holding = false,
                _ => {}
            }
        }
        if holding {
            return StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Rel(self.b))]);
        }
        if acqs < self.rounds && replay_atomic_lock(log, self.b) == Ok(None) {
            return StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Acq(self.b))]);
        }
        StrategyMove::idle()
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![EventKind::Acq(self.b), EventKind::Rel(self.b)])
    }

    fn name(&self) -> &str {
        "atomic-lock-contender"
    }
}

/// An environment participant whose critical sections are `foo`-shaped
/// (`acq • f • g • rel` in one atomic burst — legal at `L1`, where the
/// critical state keeps control): the environment the client layer's rely
/// assumes, since every participant at this level runs `foo` (Fig. 3).
#[derive(Debug, Clone)]
pub struct FooEnvPlayer {
    pid: Pid,
    b: Loc,
    rounds: u64,
}

impl FooEnvPlayer {
    /// Creates a `foo`-shaped contender on lock `b`.
    pub fn new(pid: Pid, b: Loc, rounds: u64) -> Self {
        Self { pid, b, rounds }
    }
}

impl Strategy for FooEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let done = log
            .iter()
            .filter(|e| e.pid == self.pid && matches!(e.kind, EventKind::Acq(b) if b == self.b))
            .count() as u64;
        if done < self.rounds && replay_atomic_lock(log, self.b) == Ok(None) {
            StrategyMove::Emit(vec![
                Event::new(self.pid, EventKind::Acq(self.b)),
                Event::prim(self.pid, "f", vec![]),
                Event::prim(self.pid, "g", vec![]),
                Event::new(self.pid, EventKind::Rel(self.b)),
            ])
        } else {
            StrategyMove::idle()
        }
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // With `f`/`g` declared empty ([`Strategy::footprints_of_prim`]
        // below), the whole alphabet is local to lock `self.b`, so this
        // declaration licenses reductions against players on disjoint
        // state. The decision above reads only this pid's projection plus
        // the replayed lock `self.b`.
        Some(vec![
            EventKind::Acq(self.b),
            Event::prim(self.pid, "f", vec![]).kind,
            Event::prim(self.pid, "g", vec![]).kind,
            EventKind::Rel(self.b),
        ])
    }

    fn footprints_of_prim(&self, name: &str, _args: &[Val]) -> Vec<Footprint> {
        // This player's `f`/`g` are the client primitives of Fig. 3. They
        // touch no replayed shared state (every replay function and
        // invariant ignores them; `R2` buffers them per pid), so they
        // commute with everything but the schedule.
        match name {
            "f" | "g" => Vec::new(),
            _ => vec![Footprint::Global],
        }
    }

    fn name(&self) -> &str {
        "foo-contender"
    }
}

/// The fully certified ticket stack: all layers, relations and
/// certificates of the Fig. 5 pipeline for one participant.
#[derive(Debug, Clone)]
pub struct TicketStack {
    /// `L0[i] ⊢_id M1 : L′1[i]` — the fun-lift.
    pub fun_lift: CertifiedLayer,
    /// `L′1[i] ≤_{R1} L1[i]` — the log-lift.
    pub log_lift: IfaceRefinement,
    /// `L0[i] ⊢_{R1} M1 : L1[i]` — the weakened lock layer.
    pub lock_layer: CertifiedLayer,
    /// `L1[i] ⊢_{R2} M2 : L2[i]` — the client layer.
    pub client_layer: CertifiedLayer,
    /// `L0[i] ⊢_{R1∘R2} M1 ⊕ M2 : L2[i]` — the vertical composition.
    pub full_stack: CertifiedLayer,
}

/// Certifies the whole ticket stack for participant `pid` on lock `b`,
/// checking every obligation of Fig. 5's pipeline over the given contexts.
///
/// # Errors
///
/// The first failed obligation, as a [`LayerError`].
pub fn certify_ticket_stack(
    pid: Pid,
    b: Loc,
    contexts_low: Vec<ccal_core::env::EnvContext>,
    contexts_atomic: Vec<ccal_core::env::EnvContext>,
) -> Result<TicketStack, LayerError> {
    certify_ticket_stack_tuned(
        pid,
        b,
        contexts_low,
        contexts_atomic,
        1,
        true,
    )
}

/// [`certify_ticket_stack`] with explicit exploration settings — worker
/// count and symmetric-schedule dedup — so differential tests and
/// benchmarks can compare serial and parallel checking of the same stack.
///
/// # Errors
///
/// The first failed obligation, as a [`LayerError`].
pub fn certify_ticket_stack_tuned(
    pid: Pid,
    b: Loc,
    contexts_low: Vec<ccal_core::env::EnvContext>,
    contexts_atomic: Vec<ccal_core::env::EnvContext>,
    workers: usize,
    dedup: bool,
) -> Result<TicketStack, LayerError> {
    let m1 = ccal_clightx::clightx_module("M1", M1_SOURCE).map_err(|e| {
        LayerError::Machine(MachineError::Stuck(format!("M1 front-end: {e}")))
    })?;
    let m2 = ccal_clightx::clightx_module("M2", M2_SOURCE).map_err(|e| {
        LayerError::Machine(MachineError::Stuck(format!("M2 front-end: {e}")))
    })?;
    let lock_args = vec![vec![Val::Loc(b)]];
    let opts_low = CheckOptions::new(contexts_low)
        .with_workload("acq", lock_args.clone())
        .with_workload("rel", lock_args.clone())
        .with_workers(workers)
        .with_dedup(dedup);
    let opts_atomic = CheckOptions::new(contexts_atomic)
        .with_workload("acq", lock_args.clone())
        .with_workload("rel", lock_args.clone())
        .with_workload("foo", lock_args.clone())
        .with_workers(workers)
        .with_dedup(dedup);

    // Fun-lift: L0 ⊢_id M1 : L′1.
    let fun_lift = check_fun(
        &l0_interface(),
        &m1,
        &lock_low_interface(),
        &SimRelation::identity(),
        pid,
        &opts_low,
    )?;
    // Log-lift: L′1 ≤_R1 L1.
    let log_lift = check_iface_refinement(
        &lock_low_interface(),
        &lock_interface(),
        &r1_relation(),
        pid,
        &opts_low,
    )?;
    // Weaken: L0 ⊢_{id∘R1} M1 : L1.
    let lock_layer = weaken(None, &fun_lift, Some(&log_lift))?;
    // Client layer: L1 ⊢ M2 : L2 via R2.
    let client_layer = check_fun(
        &lock_interface(),
        &m2,
        &l2_interface(),
        &r2_relation(),
        pid,
        &opts_atomic,
    )?;
    // Vertical composition: L0 ⊢ M1 ⊕ M2 : L2.
    let full_stack = vcomp(&lock_layer, &client_layer)?;
    Ok(TicketStack {
        fun_lift,
        log_lift,
        lock_layer,
        client_layer,
        full_stack,
    })
}

/// The module `M1` as a core module (interpreted C), for callers that
/// need it without certifying the whole stack.
///
/// # Errors
///
/// Front-end errors from parsing/checking the embedded source.
pub fn m1_module() -> Result<Module, ccal_clightx::CError> {
    ccal_clightx::clightx_module("M1", M1_SOURCE)
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use ccal_core::contexts::ContextGen;
    use ccal_core::env::EnvContext;

    #[test]
    fn declared_footprints_make_the_foo_contender_independent_of_scratch() {
        use ccal_core::por::PidIndependence;
        use ccal_core::strategy::{ScratchPlayer, Strategy};
        use std::collections::BTreeMap;
        let foo = FooEnvPlayer::new(Pid(1), Loc(0), 1);
        // The contender declares its `f`/`g` empty: independent of a
        // scratch push.
        let push = EventKind::Push(Loc(100), Val::Int(0));
        let fp_push = push.footprints();
        let f = Event::prim(Pid(1), "f", vec![]).kind;
        let fp_f = foo.footprints_of_prim("f", &[]);
        assert!(EventKind::independent_kinds(&f, &fp_f, &push, &fp_push));
        // A prim the contender does not declare stays global and dependent.
        let alien = EventKind::Prim("test_fp_undeclared_ticket".into(), vec![]);
        let fp_alien = foo.footprints_of_prim("test_fp_undeclared_ticket", &[]);
        assert!(!EventKind::independent_kinds(&alien, &fp_alien, &push, &fp_push));
        // At the player level: the foo contender now commutes with the
        // scratch threads, so the sleep-set reduction may prune their
        // interleavings.
        let domain = [Pid(0), Pid(1), Pid(2)];
        let mut players: BTreeMap<Pid, Arc<dyn Strategy>> = BTreeMap::new();
        players.insert(Pid(1), Arc::new(foo));
        players.insert(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))));
        let indep = PidIndependence::from_players(&domain, &players);
        assert!(indep.independent(Pid(1), Pid(2)));
        // The focused pid declares no alphabet and stays dependent.
        assert!(!indep.independent(Pid(0), Pid(1)));
    }

    #[test]
    fn another_players_same_named_prim_stays_dependent_on_scratch() {
        use ccal_core::por::PidIndependence;
        use ccal_core::strategy::{ScratchPlayer, Strategy, StrategyMove};
        use std::collections::BTreeMap;
        // A player with a global-effect primitive that happens to be named
        // `f`, declaring no footprints for it.
        struct GlobalF(Pid);
        impl Strategy for GlobalF {
            fn next_move(&self, _log: &Log) -> StrategyMove {
                StrategyMove::Emit(vec![Event::prim(self.0, "f", vec![])])
            }
            fn may_emit(&self) -> Option<Vec<EventKind>> {
                Some(vec![EventKind::Prim("f".into(), vec![])])
            }
        }
        // Ticket's `f` and its contender exist in the same process...
        let _contender = FooEnvPlayer::new(Pid(3), Loc(0), 1);
        let _l0 = l0_interface();
        // ...and lend the other `f` nothing.
        let domain = [Pid(1), Pid(2)];
        let mut players: BTreeMap<Pid, Arc<dyn Strategy>> = BTreeMap::new();
        players.insert(Pid(1), Arc::new(GlobalF(Pid(1))));
        players.insert(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))));
        let indep = PidIndependence::from_players(&domain, &players);
        assert!(!indep.independent(Pid(1), Pid(2)));
    }

    pub(crate) fn low_contexts(b: Loc) -> Vec<EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    pub(crate) fn atomic_contexts(b: Loc) -> Vec<EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), b, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn full_stack_certifies() {
        let b = Loc(0);
        let stack =
            certify_ticket_stack(Pid(0), b, low_contexts(b), atomic_contexts(b)).unwrap();
        assert!(stack.full_stack.certificate.total_cases() > 0);
        assert!(stack.full_stack.judgment().contains("L0"));
        assert!(stack.full_stack.judgment().contains("L2"));
        assert_eq!(stack.full_stack.relation.name(), "id ∘ R1 ∘ R2");
    }

    #[test]
    fn r1_maps_the_walkthrough_events() {
        let b = Loc(0);
        let lower = Log::from_events([
            Event::new(Pid(1), EventKind::FaiT(b)),
            Event::new(Pid(2), EventKind::FaiT(b)),
            Event::new(Pid(1), EventKind::GetN(b)),
            Event::new(Pid(1), EventKind::Hold(b)),
            Event::new(Pid(1), EventKind::IncN(b)),
        ]);
        let upper = r1_relation().abstracted(&lower).unwrap();
        let expected = Log::from_events([
            Event::new(Pid(1), EventKind::Acq(b)),
            Event::new(Pid(1), EventKind::Rel(b)),
        ]);
        assert_eq!(upper, expected);
    }

    #[test]
    fn r2_collapses_critical_sections() {
        let b = Loc(0);
        let lower = Log::from_events([
            Event::new(Pid(1), EventKind::Acq(b)),
            Event::prim(Pid(1), "f", vec![]),
            Event::prim(Pid(1), "g", vec![]),
            Event::new(Pid(1), EventKind::Rel(b)),
            Event::new(Pid(2), EventKind::Acq(b)),
            Event::prim(Pid(2), "f", vec![]),
            Event::prim(Pid(2), "g", vec![]),
            Event::new(Pid(2), EventKind::Rel(b)),
        ]);
        let upper = r2_relation().abstracted(&lower).unwrap();
        assert_eq!(upper.len(), 2);
        assert!(matches!(&upper[0].kind, EventKind::Prim(n, _) if n == "foo"));
        assert_eq!(upper[0].pid, Pid(1));
        assert_eq!(upper[1].pid, Pid(2));
    }

    #[test]
    fn r2_rejects_torn_critical_sections() {
        let b = Loc(0);
        let torn = Log::from_events([
            Event::new(Pid(1), EventKind::Acq(b)),
            Event::prim(Pid(1), "f", vec![]),
            Event::new(Pid(1), EventKind::Rel(b)),
        ]);
        assert_eq!(r2_relation().abstracted(&torn), None);
    }

    #[test]
    fn protocol_invariant_accepts_legal_and_rejects_illegal() {
        let b = Loc(0);
        let inv = ticket_protocol_invariant();
        let ok = Log::from_events([
            Event::new(Pid(0), EventKind::FaiT(b)),
            Event::new(Pid(0), EventKind::GetN(b)),
            Event::new(Pid(0), EventKind::Hold(b)),
            Event::new(Pid(0), EventKind::IncN(b)),
        ]);
        assert!(inv.holds(Pid(0), &ok));
        let bad = Log::from_events([Event::new(Pid(0), EventKind::Hold(b))]);
        assert!(!inv.holds(Pid(0), &bad));
    }

    #[test]
    fn ticket_env_player_respects_the_protocol() {
        let b = Loc(0);
        let player = TicketEnvPlayer::new(Pid(1), b, 2);
        let mut log = Log::new();
        // Drive the player for a while; its own events must satisfy the
        // protocol invariant at every step.
        for _ in 0..20 {
            if let StrategyMove::Emit(evs) = player.next_move(&log) {
                log.append_all(evs);
            }
            assert!(ticket_protocol_invariant().holds(Pid(1), &log));
        }
        // It completed its two rounds.
        assert_eq!(replay_ticket(&log, b).serving, 2);
    }
}
