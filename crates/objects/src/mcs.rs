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
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::rely::{Conditions, Invariant, RelyGuarantee};
use ccal_core::sim::SimRelation;
use ccal_core::strategy::{Strategy, StrategyMove};
use ccal_core::val::Val;
use std::collections::BTreeMap;

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

/// `R_mcs`-style replay: folds the MCS events for lock `b` into the
/// queue-of-waiters state. Never stuck (the hardware primitives are
/// total); protocol violations are ruled out by the rely/guarantee
/// invariant instead.
pub fn replay_mcs(log: &Log, b: Loc) -> McsState {
    let mut st = McsState::default();
    for e in log.iter() {
        match e.kind {
            EventKind::McsSwap(loc) if loc == b => {
                st.nodes.insert(
                    e.pid,
                    McsNode {
                        next: None,
                        locked: st.tail.is_some(),
                    },
                );
                st.tail = Some(e.pid);
            }
            EventKind::McsSetNext(loc, pred) if loc == b => {
                if let Some(n) = st.nodes.get_mut(&pred) {
                    n.next = Some(e.pid);
                }
            }
            EventKind::McsCasTail(loc) if loc == b => {
                let no_next = st
                    .nodes
                    .get(&e.pid)
                    .map(|n| n.next.is_none())
                    .unwrap_or(false);
                if st.tail == Some(e.pid) && no_next {
                    st.tail = None;
                    st.nodes.remove(&e.pid);
                }
            }
            EventKind::McsGrant(loc, succ) if loc == b => {
                if let Some(n) = st.nodes.get_mut(&succ) {
                    n.locked = false;
                }
                st.nodes.remove(&e.pid);
            }
            _ => {}
        }
    }
    st
}

/// Whether `pid` currently holds the MCS lock at `b` (announced with
/// `hold`, released by a successful CAS or a grant). Used as the critical
/// predicate of the MCS bottom interface.
pub fn holds_mcs(pid: Pid, log: &Log) -> bool {
    let mut held: std::collections::BTreeSet<Loc> = std::collections::BTreeSet::new();
    for (at, e) in log.iter().enumerate() {
        if e.pid != pid {
            continue;
        }
        match e.kind {
            EventKind::Hold(b) => {
                held.insert(b);
            }
            EventKind::McsGrant(b, _) => {
                held.remove(&b);
            }
            EventKind::McsCasTail(b) => {
                // Successful iff the replay of the prefix (incl. this
                // event) removed our node.
                let prefix = Log::from_events(log.iter().take(at + 1).cloned());
                if !replay_mcs(&prefix, b).nodes.contains_key(&pid) {
                    held.remove(&b);
                }
            }
            _ => {}
        }
    }
    !held.is_empty()
}

/// The MCS critical-state predicate: the holder keeps control *except*
/// while waiting for a successor that has swapped in but not yet linked
/// itself (`tail ≠ me` and `next = None`) — in that window the release
/// loop genuinely depends on the successor's move, so the machine must
/// keep querying the environment (this is the subtle liveness hand-off
/// Kim et al. \[24\] verify).
pub fn in_critical_mcs(pid: Pid, log: &Log) -> bool {
    if !holds_mcs(pid, log) {
        return false;
    }
    // Which lock(s) do we hold? Check the wait window on each.
    let mut locks: std::collections::BTreeSet<Loc> = std::collections::BTreeSet::new();
    for e in log.iter() {
        if e.pid == pid {
            if let EventKind::Hold(b) = e.kind {
                locks.insert(b);
            }
        }
    }
    for b in locks {
        let st = replay_mcs(log, b);
        if let Some(node) = st.nodes.get(&pid) {
            if node.next.is_none() && st.tail != Some(pid) {
                // Waiting for the successor's link: not critical.
                return false;
            }
        }
    }
    true
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
    Invariant::new("mcs-protocol", |pid: Pid, log: &Log| {
        // A participant may not hold before being unlocked, nor grant
        // without a successor; we check the cheap structural part: hold
        // only after swap, grant/cas only after hold.
        let mut swapped = false;
        let mut holding = false;
        for (at, e) in log.iter().enumerate() {
            if e.pid != pid {
                continue;
            }
            match e.kind {
                EventKind::McsSwap(_) => {
                    if swapped || holding {
                        return false;
                    }
                    swapped = true;
                }
                EventKind::Hold(b) => {
                    if !swapped {
                        return false;
                    }
                    // Must actually be at the head: our node unlocked.
                    let prefix = Log::from_events(log.iter().take(at).cloned());
                    let st = replay_mcs(&prefix, b);
                    match st.nodes.get(&pid) {
                        Some(n) if !n.locked => {}
                        _ => return false,
                    }
                    swapped = false;
                    holding = true;
                }
                EventKind::McsGrant(_, _) => {
                    if !holding {
                        return false;
                    }
                    holding = false;
                }
                EventKind::McsCasTail(b) => {
                    if !holding {
                        return false;
                    }
                    let prefix = Log::from_events(log.iter().take(at + 1).cloned());
                    if !replay_mcs(&prefix, b).nodes.contains_key(&pid) {
                        holding = false;
                    }
                }
                _ => {}
            }
        }
        true
    })
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
                && st.nodes.get(&ctx.pid).map(|n| n.next.is_none()).unwrap_or(false);
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
        .critical(in_critical_mcs)
        .conditions(conditions)
        .build()
}

/// The simulation relation from MCS low-level events to the atomic
/// `acq`/`rel` events of `L1`: `hold ↦ acq`, successful `cas`/`grant`
/// ↦ `rel`, every other MCS event erased. The atomic interface is shared
/// with the ticket lock, so higher layers cannot tell which lock they run
/// on.
pub fn r_mcs_relation() -> SimRelation {
    SimRelation::whole_log("Rmcs", |log: &Log| {
        let mut out = Log::new();
        for (at, e) in log.iter().enumerate() {
            match e.kind {
                EventKind::Hold(b) => out.append(Event::new(e.pid, EventKind::Acq(b))),
                EventKind::McsGrant(b, _) => out.append(Event::new(e.pid, EventKind::Rel(b))),
                EventKind::McsCasTail(b) => {
                    let prefix = Log::from_events(log.iter().take(at + 1).cloned());
                    if !replay_mcs(&prefix, b).nodes.contains_key(&e.pid) {
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
        let st = replay_mcs(log, self.b);
        let holding = holds_mcs(self.pid, log);
        if holding {
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
                let my_swaps = log
                    .iter()
                    .filter(|e| {
                        e.pid == self.pid
                            && matches!(e.kind, EventKind::McsSwap(b) if b == self.b)
                    })
                    .count() as u64;
                if my_swaps >= self.rounds {
                    return StrategyMove::idle();
                }
                // Swap in; link behind the predecessor in the same move
                // (swap + set_next are adjacent in the implementation).
                let mut evs = vec![Event::new(self.pid, EventKind::McsSwap(self.b))];
                if let Some(pred) = st.tail {
                    evs.push(Event::new(
                        self.pid,
                        EventKind::McsSetNext(self.b, pred),
                    ));
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
    let m = ccal_clightx::clightx_module("Mmcs", MCS_SOURCE).map_err(|e| {
        LayerError::Machine(MachineError::Stuck(format!("Mmcs front-end: {e}")))
    })?;
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
    check_fun(&l0_mcs_interface(), &m, &lock_interface(), &r_mcs_relation(), pid, &opts)
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
        assert_eq!(layer.overlay.name, "L1", "same interface as the ticket lock");
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
