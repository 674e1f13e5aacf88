//! The MCS queue lock, certified against the *same* atomic interface as
//! the ticket lock.
//!
//! "Both ticket and MCS locks share the same high-level atomic
//! specifications (or strategies) shown in Sec. 2. Thus the lock
//! implementations can be freely interchanged without affecting any proof
//! in the higher-level modules using locks" (§6; the MCS verification is
//! the subject of Kim et al. \[24\]).
//!
//! The lock queues waiters through per-participant nodes: `mcs_swap`
//! atomically appends the caller to the tail, `mcs_set_next` links it
//! behind its predecessor, the waiter spins *locally* on its own `locked`
//! flag (`mcs_get_locked`), and release either clears the tail with a
//! compare-and-swap (no waiter) or hands the lock to the successor
//! (`mcs_grant`). All state is reconstructed by [`replay_mcs`].

use ccal_core::calculus::{check_fun, CertifiedLayer, CheckOptions, LayerError};
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid};
use ccal_core::layer::{Critical, LayerInterface, PrimSpec};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::rely::{own_events, Conditions, Invariant, RelyGuarantee};
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;
use std::collections::{BTreeMap, BTreeSet};

use crate::ticket::{lock_interface, M1_SOURCE};

/// The ClightX source of the MCS lock module. The exported names are the
/// same `acq`/`rel` as the ticket lock's — interchangeability is by
/// construction.
pub const MCS_SOURCE: &str = r#"
void acq(int b) {
    int pred = mcs_swap(b);
    if (pred != -1) {
        mcs_set_next(b, pred);
        while (mcs_get_locked(b)) {}
    }
    hold(b);
}
void rel(int b) {
    int has = mcs_has_next(b);
    if (has == 0) {
        int ok = mcs_cas_tail(b);
        if (ok == 0) {
            while (mcs_has_next(b) == 0) {}
            mcs_grant(b);
        }
    } else {
        mcs_grant(b);
    }
}
"#;

/// One waiter node of the MCS queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McsNode {
    /// The successor waiting behind this node, once linked.
    pub next: Option<Pid>,
    /// Whether the node is still waiting for the lock.
    pub locked: bool,
}

/// The replayed MCS lock state at a location.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct McsState {
    /// The queue tail (last waiter), if any.
    pub tail: Option<Pid>,
    /// Live nodes by owner.
    pub nodes: BTreeMap<Pid, McsNode>,
}

impl McsState {
    /// Folds in one MCS queue event on this lock. The caller routes events
    /// by location ([`mcs_loc`]); other events leave the state unchanged.
    pub fn step(&mut self, e: &Event) {
        match e.kind {
            EventKind::McsSwap(_) => {
                self.nodes.insert(
                    e.pid,
                    McsNode {
                        next: None,
                        locked: self.tail.is_some(),
                    },
                );
                self.tail = Some(e.pid);
            }
            EventKind::McsSetNext(_, pred) => {
                if let Some(n) = self.nodes.get_mut(&pred) {
                    n.next = Some(e.pid);
                }
            }
            EventKind::McsCasTail(_) => {
                let no_next = self
                    .nodes
                    .get(&e.pid)
                    .map(|n| n.next.is_none())
                    .unwrap_or(false);
                if self.tail == Some(e.pid) && no_next {
                    self.tail = None;
                    self.nodes.remove(&e.pid);
                }
            }
            EventKind::McsGrant(_, succ) => {
                if let Some(n) = self.nodes.get_mut(&succ) {
                    n.locked = false;
                }
                self.nodes.remove(&e.pid);
            }
            _ => {}
        }
    }
}

/// The lock an MCS queue event operates on; `None` for every other event
/// (including the read-only `McsGetLocked`), which changes no queue.
pub fn mcs_loc(kind: &EventKind) -> Option<Loc> {
    match *kind {
        EventKind::McsSwap(b)
        | EventKind::McsSetNext(b, _)
        | EventKind::McsCasTail(b)
        | EventKind::McsGrant(b, _) => Some(b),
        _ => None,
    }
}

/// `R_mcs`-style replay: folds the MCS events for lock `b` into the
/// queue-of-waiters state ([`McsState::step`]). Never stuck (the hardware
/// primitives are total); protocol violations are ruled out by the
/// rely/guarantee invariant instead.
pub fn replay_mcs(log: &Log, b: Loc) -> McsState {
    let mut st = McsState::default();
    for e in log.iter().filter(|e| mcs_loc(&e.kind) == Some(b)) {
        st.step(e);
    }
    st
}

/// The events the MCS monitors read: the participant's own events and
/// every MCS queue event.
fn mcs_touches(pid: Pid, e: &Event) -> bool {
    own_events(pid, e) || mcs_loc(&e.kind).is_some()
}

/// The queues of every MCS lock, folded in one pass over the log.
#[derive(Debug, Clone, Default)]
struct McsQueues(BTreeMap<Loc, McsState>);

impl McsQueues {
    /// Folds in one event. An emptied queue is dropped, so a state with no
    /// lock in use is empty (and free to copy).
    fn step(&mut self, e: &Event) {
        if let Some(b) = mcs_loc(&e.kind) {
            let st = self.0.entry(b).or_default();
            st.step(e);
            if *st == McsState::default() {
                self.0.remove(&b);
            }
        }
    }

    /// The queue at `b`, or `None` while it is empty.
    fn lock(&self, b: Loc) -> Option<&McsState> {
        self.0.get(&b)
    }

    /// Whether `pid` has a node in the queue at `b`. Right after folding in
    /// `pid`'s `McsCasTail(b)`, `false` means the CAS released the lock.
    fn enqueued(&self, b: Loc, pid: Pid) -> bool {
        self.lock(b).is_some_and(|st| st.nodes.contains_key(&pid))
    }
}

/// One participant's view of the MCS locks, folded in one pass: every
/// queue, the locks it holds (announced with `hold`, released by a
/// successful CAS or a grant) and every lock it has ever announced. The
/// state of the MCS critical-state monitor ([`in_critical_mcs`]).
#[derive(Debug, Clone)]
struct McsView {
    pid: Pid,
    queues: McsQueues,
    held: BTreeSet<Loc>,
    announced: BTreeSet<Loc>,
}

impl McsView {
    fn new(pid: Pid) -> Self {
        Self {
            pid,
            queues: McsQueues::default(),
            held: BTreeSet::new(),
            announced: BTreeSet::new(),
        }
    }

    fn step(&mut self, e: &Event) {
        self.queues.step(e);
        if e.pid != self.pid {
            return;
        }
        match e.kind {
            EventKind::Hold(b) => {
                self.held.insert(b);
                self.announced.insert(b);
            }
            EventKind::McsGrant(b, _) => {
                self.held.remove(&b);
            }
            EventKind::McsCasTail(b) if !self.queues.enqueued(b, self.pid) => {
                self.held.remove(&b);
            }
            _ => {}
        }
    }

    fn holds(&self) -> bool {
        !self.held.is_empty()
    }

    /// Holding a lock, and not waiting for a successor's link on any lock
    /// ever announced.
    fn is_critical(&self) -> bool {
        self.holds()
            && self.announced.iter().all(|&b| {
                let Some(st) = self.queues.lock(b) else {
                    return true;
                };
                !st.nodes
                    .get(&self.pid)
                    .is_some_and(|node| node.next.is_none() && st.tail != Some(self.pid))
            })
    }
}

/// Whether `pid` currently holds an MCS lock (announced with `hold`,
/// released by a successful CAS or a grant), in one pass over the log.
pub fn holds_mcs(pid: Pid, log: &Log) -> bool {
    let mut view = McsView::new(pid);
    for e in log {
        view.step(e);
    }
    view.holds()
}

/// The MCS critical-state predicate: the holder keeps control *except*
/// while waiting for a successor that has swapped in but not yet linked
/// itself (`tail ≠ me` and `next = None`) — in that window the release
/// loop genuinely depends on the successor's move, so the machine must
/// keep querying the environment (this is the subtle liveness hand-off
/// Kim et al. \[24\] verify).
pub fn in_critical_mcs() -> Critical {
    Critical::fold(
        mcs_touches,
        McsView::new,
        McsView::step,
        McsView::is_critical,
    )
}

fn arg_loc(args: &[Val]) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck("mcs primitive needs a location".into()))?
        .as_loc()
        .map_err(MachineError::from)
}

/// The MCS protocol invariant, used as rely and guarantee: per
/// participant, events follow swap → (set_next → get_locked*)? → hold →
/// (cas | grant).
pub fn mcs_protocol_invariant() -> Invariant {
    Invariant::fold(
        "mcs-protocol",
        mcs_touches,
        McsProtocol::new,
        McsProtocol::step,
    )
}

/// The fold state of [`mcs_protocol_invariant`]. A participant may not
/// hold before being unlocked, nor grant without a successor; it checks
/// the cheap structural part: hold only after swap (and at the head of
/// the queue), grant/cas only after hold.
#[derive(Debug, Clone)]
struct McsProtocol {
    pid: Pid,
    queues: McsQueues,
    swapped: bool,
    holding: bool,
}

impl McsProtocol {
    fn new(pid: Pid) -> Self {
        Self {
            pid,
            queues: McsQueues::default(),
            swapped: false,
            holding: false,
        }
    }

    /// Folds in one event; `false` if it breaks the protocol.
    fn step(&mut self, e: &Event) -> bool {
        self.queues.step(e);
        if e.pid != self.pid {
            return true;
        }
        match e.kind {
            EventKind::McsSwap(_) => {
                if self.swapped || self.holding {
                    return false;
                }
                self.swapped = true;
            }
            EventKind::Hold(b) => {
                // Must actually be at the head: our node unlocked.
                let unlocked = self
                    .queues
                    .lock(b)
                    .and_then(|st| st.nodes.get(&self.pid))
                    .is_some_and(|n| !n.locked);
                if !self.swapped || !unlocked {
                    return false;
                }
                self.swapped = false;
                self.holding = true;
            }
            EventKind::McsGrant(_, _) => {
                if !self.holding {
                    return false;
                }
                self.holding = false;
            }
            EventKind::McsCasTail(b) => {
                if !self.holding {
                    return false;
                }
                if !self.queues.enqueued(b, self.pid) {
                    self.holding = false;
                }
            }
            _ => {}
        }
        true
    }
}

/// The MCS bottom interface: hardware swap/CAS/link/grant primitives plus
/// the `hold` announcement and the `f`/`g` client primitives, all replayed
/// from the log.
pub fn l0_mcs_interface() -> LayerInterface {
    let conditions = {
        let c = Conditions::none().with(mcs_protocol_invariant());
        RelyGuarantee::new(c.clone(), c)
    };
    LayerInterface::builder("L0mcs")
        .prim(PrimSpec::atomic("mcs_swap", |ctx, args| {
            let b = arg_loc(args)?;
            let prev = replay_mcs(ctx.log, b).tail;
            ctx.emit(EventKind::McsSwap(b));
            Ok(Val::Int(prev.map_or(-1, |p| i64::from(p.0))))
        }))
        .prim(PrimSpec::atomic("mcs_set_next", |ctx, args| {
            let b = arg_loc(args)?;
            let pred = args
                .get(1)
                .ok_or_else(|| MachineError::Stuck("mcs_set_next needs a predecessor".into()))?
                .as_int()?;
            ctx.emit(EventKind::McsSetNext(b, Pid(pred as u32)));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("mcs_get_locked", |ctx, args| {
            let b = arg_loc(args)?;
            ctx.emit(EventKind::McsGetLocked(b));
            let locked = replay_mcs(ctx.log, b)
                .nodes
                .get(&ctx.pid)
                .map(|n| n.locked)
                .unwrap_or(false);
            Ok(Val::Int(i64::from(locked)))
        }))
        .prim(PrimSpec::atomic("mcs_has_next", |ctx, args| {
            let b = arg_loc(args)?;
            ctx.emit(EventKind::Prim("mcs_has_next".into(), vec![Val::Loc(b)]));
            let has = replay_mcs(ctx.log, b)
                .nodes
                .get(&ctx.pid)
                .map(|n| n.next.is_some())
                .unwrap_or(false);
            Ok(Val::Int(i64::from(has)))
        }))
        .prim(PrimSpec::atomic_unqueried("mcs_cas_tail", |ctx, args| {
            let b = arg_loc(args)?;
            let st = replay_mcs(ctx.log, b);
            let success = st.tail == Some(ctx.pid)
                && st
                    .nodes
                    .get(&ctx.pid)
                    .map(|n| n.next.is_none())
                    .unwrap_or(false);
            ctx.emit(EventKind::McsCasTail(b));
            Ok(Val::Int(i64::from(success)))
        }))
        .prim(PrimSpec::atomic_unqueried("mcs_grant", |ctx, args| {
            let b = arg_loc(args)?;
            let succ = replay_mcs(ctx.log, b)
                .nodes
                .get(&ctx.pid)
                .and_then(|n| n.next)
                .ok_or_else(|| {
                    MachineError::Stuck(format!("mcs_grant({b}) without a successor"))
                })?;
            ctx.emit(EventKind::McsGrant(b, succ));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("hold", |ctx, args| {
            let b = arg_loc(args)?;
            ctx.emit(EventKind::Hold(b));
            Ok(Val::Unit)
        }))
        // MCS's own `f`/`g`, not ticket's: no ticket player's footprints apply.
        .prim(PrimSpec::atomic("f", |ctx, _| {
            ctx.emit(EventKind::Prim("f".into(), vec![]));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic_unqueried("g", |ctx, _| {
            ctx.emit(EventKind::Prim("g".into(), vec![]));
            Ok(Val::Unit)
        }))
        .critical(in_critical_mcs())
        .conditions(conditions)
        .build()
}

/// The simulation relation from MCS low-level events to the atomic
/// `acq`/`rel` events of `L1`: `hold ↦ acq`, successful `cas`/`grant`
/// ↦ `rel`, every other MCS event erased. The atomic interface is shared
/// with the ticket lock, so higher layers cannot tell which lock they run
/// on.
pub fn r_mcs_relation() -> SimRelation {
    SimRelation::whole_log("Rmcs", |events| {
        let mut out = Log::new();
        let mut queues = McsQueues::default();
        for e in events {
            queues.step(e);
            match e.kind {
                EventKind::Hold(b) => out.append(Event::new(e.pid, EventKind::Acq(b))),
                EventKind::McsGrant(b, _) => out.append(Event::new(e.pid, EventKind::Rel(b))),
                EventKind::McsCasTail(b) => {
                    if !queues.enqueued(b, e.pid) {
                        out.append(Event::new(e.pid, EventKind::Rel(b)));
                    }
                }
                EventKind::McsSwap(_)
                | EventKind::McsSetNext(_, _)
                | EventKind::McsGetLocked(_) => {}
                EventKind::Prim(ref n, _) if n == "mcs_has_next" => {}
                _ => out.append(e.clone()),
            }
        }
        Some(out)
    })
}

/// A well-behaved contending MCS environment participant: acquires through
/// the full swap/link/spin protocol and always releases promptly, as a
/// pure function of the log.
#[derive(Debug, Clone)]
pub struct McsEnvPlayer {
    pid: Pid,
    b: Loc,
    rounds: u64,
}

impl McsEnvPlayer {
    /// Creates a contender on MCS lock `b`.
    pub fn new(pid: Pid, b: Loc, rounds: u64) -> Self {
        Self { pid, b, rounds }
    }
}

impl Strategy for McsEnvPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let mut view = McsView::new(self.pid);
        let mut my_swaps = 0_u64;
        for e in log {
            view.step(e);
            if e.pid == self.pid && matches!(e.kind, EventKind::McsSwap(b) if b == self.b) {
                my_swaps += 1;
            }
        }
        let empty = McsState::default();
        let st = view.queues.lock(self.b).unwrap_or(&empty);
        if view.holds() {
            // Release: grant if a successor is linked, otherwise CAS; if
            // the CAS would fail (successor swapped but not yet linked),
            // wait for the link.
            let me = st.nodes.get(&self.pid);
            return match me.and_then(|n| n.next) {
                Some(succ) => StrategyMove::Emit(vec![Event::new(
                    self.pid,
                    EventKind::McsGrant(self.b, succ),
                )]),
                None if st.tail == Some(self.pid) => {
                    StrategyMove::Emit(vec![Event::new(self.pid, EventKind::McsCasTail(self.b))])
                }
                None => StrategyMove::idle(),
            };
        }
        match st.nodes.get(&self.pid) {
            Some(node) if !node.locked => {
                // Reached the head: announce.
                StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Hold(self.b))])
            }
            Some(_) => StrategyMove::idle(), // spinning locally
            None => {
                if my_swaps >= self.rounds {
                    return StrategyMove::idle();
                }
                // Swap in; link behind the predecessor in the same move
                // (swap + set_next are adjacent in the implementation).
                let mut evs = vec![Event::new(self.pid, EventKind::McsSwap(self.b))];
                if let Some(pred) = st.tail {
                    evs.push(Event::new(self.pid, EventKind::McsSetNext(self.b, pred)));
                }
                StrategyMove::Emit(evs)
            }
        }
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![
            EventKind::McsSwap(self.b),
            EventKind::McsSetNext(self.b, self.pid),
            EventKind::McsCasTail(self.b),
            EventKind::McsGrant(self.b, self.pid),
            EventKind::Hold(self.b),
        ])
    }

    fn name(&self) -> &str {
        "mcs-contender"
    }
}

/// Certifies the MCS lock module against the shared atomic lock interface:
/// `L0mcs[pid] ⊢_{Rmcs} Mmcs : L1[pid]`.
///
/// # Errors
///
/// The first failed obligation.
pub fn certify_mcs_lock(
    pid: Pid,
    b: Loc,
    contexts: Vec<ccal_core::env::EnvContext>,
) -> Result<CertifiedLayer, LayerError> {
    let m = ccal_clightx::clightx_module("Mmcs", MCS_SOURCE)
        .map_err(|e| LayerError::Machine(MachineError::Stuck(format!("Mmcs front-end: {e}"))))?;
    let lock_args = vec![vec![Val::Loc(b)]];
    let opts = CheckOptions::new(contexts)
        .with_workload("acq", lock_args.clone())
        .with_workload("rel", lock_args)
        // `rel` is only meaningful after an `acq` — check it from states
        // reached by a preceding acquire (Def. 2.1's related initial logs).
        .with_setup("rel", vec![("acq".to_owned(), vec![Val::Loc(b)])])
        .with_workload("f", vec![vec![]])
        .with_workload("g", vec![vec![]]);
    // The overlay is the *ticket lock's* atomic interface — but with the
    // MCS rely/guarantee at the bottom. The atomic side keeps its own
    // conditions.
    check_fun(
        &l0_mcs_interface(),
        &m,
        &lock_interface(),
        &r_mcs_relation(),
        pid,
        &opts,
    )
}

/// Re-export of the ticket-lock source for side-by-side comparisons in
/// examples and benches (the two modules implement the same interface).
pub fn ticket_source() -> &'static str {
    M1_SOURCE
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use std::sync::Arc;

    fn contexts(b: Loc) -> Vec<ccal_core::env::EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(McsEnvPlayer::new(Pid(1), b, 2)))
            .with_schedule_len(3)
            .contexts()
    }

    #[test]
    fn replay_tracks_swap_link_grant() {
        let b = Loc(0);
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::McsSwap(b)),
            Event::new(Pid(1), EventKind::McsSwap(b)),
            Event::new(Pid(1), EventKind::McsSetNext(b, Pid(0))),
        ]);
        let st = replay_mcs(&log, b);
        assert_eq!(st.tail, Some(Pid(1)));
        assert!(!st.nodes[&Pid(0)].locked, "head holds");
        assert!(st.nodes[&Pid(1)].locked, "waiter spins");
        assert_eq!(st.nodes[&Pid(0)].next, Some(Pid(1)));
    }

    #[test]
    fn cas_succeeds_only_for_sole_tail() {
        let b = Loc(0);
        let mut log = Log::from_events([Event::new(Pid(0), EventKind::McsSwap(b))]);
        log.append(Event::new(Pid(0), EventKind::McsCasTail(b)));
        let st = replay_mcs(&log, b);
        assert_eq!(st.tail, None);
        assert!(st.nodes.is_empty());
        // With a waiter, the CAS fails.
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::McsSwap(b)),
            Event::new(Pid(1), EventKind::McsSwap(b)),
            Event::new(Pid(1), EventKind::McsSetNext(b, Pid(0))),
            Event::new(Pid(0), EventKind::McsCasTail(b)),
        ]);
        let st = replay_mcs(&log, b);
        assert_eq!(st.tail, Some(Pid(1)));
        assert!(st.nodes.contains_key(&Pid(0)), "holder still enqueued");
    }

    #[test]
    fn mcs_lock_certifies_against_the_shared_atomic_interface() {
        let b = Loc(0);
        let layer = certify_mcs_lock(Pid(0), b, contexts(b)).unwrap();
        assert_eq!(
            layer.overlay.name, "L1",
            "same interface as the ticket lock"
        );
        assert!(layer.certificate.total_cases() > 0);
    }

    #[test]
    fn env_player_round_trips_the_protocol() {
        let b = Loc(0);
        let player = McsEnvPlayer::new(Pid(1), b, 2);
        let mut log = Log::new();
        for _ in 0..24 {
            if let StrategyMove::Emit(evs) = player.next_move(&log) {
                log.append_all(evs);
            }
            assert!(mcs_protocol_invariant().holds(Pid(1), &log));
        }
        assert!(replay_mcs(&log, b).nodes.is_empty(), "all rounds completed");
        assert!(!holds_mcs(Pid(1), &log));
    }

    #[test]
    fn relation_abstracts_a_contended_run() {
        let b = Loc(0);
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::McsSwap(b)),
            Event::new(Pid(0), EventKind::Hold(b)),
            Event::new(Pid(1), EventKind::McsSwap(b)),
            Event::new(Pid(1), EventKind::McsSetNext(b, Pid(0))),
            Event::new(Pid(1), EventKind::McsGetLocked(b)),
            Event::new(Pid(0), EventKind::McsGrant(b, Pid(1))),
            Event::new(Pid(1), EventKind::Hold(b)),
            Event::new(Pid(1), EventKind::McsCasTail(b)),
        ]);
        let abstracted = r_mcs_relation().abstracted(&log).unwrap();
        let expected = Log::from_events([
            Event::new(Pid(0), EventKind::Acq(b)),
            Event::new(Pid(0), EventKind::Rel(b)),
            Event::new(Pid(1), EventKind::Acq(b)),
            Event::new(Pid(1), EventKind::Rel(b)),
        ]);
        assert_eq!(abstracted, expected);
    }
}
