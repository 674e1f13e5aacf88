//! Step monitors against the whole-log predicates they replace.
//!
//! Every shipped rely/guarantee invariant and critical-state predicate is a
//! fold (`Invariant::fold`, `Critical::fold`) that a `LayerMachine` feeds
//! only the events appended since its previous check. This suite pins each
//! fold to an oracle: a verbatim copy of the whole-log closure the fold
//! replaced, re-run from scratch on every prefix of random logs. It also
//! forks monitors at random cut points, feeds each fork a different
//! continuation, and checks both against folding from scratch — the
//! copy-on-fork discipline the exploration kernel's snapshots rely on.
//!
//! Logs come from five event mixes (ticket, atomic lock, MCS, push/pull,
//! scheduling) and from the shipped contender players driven by a random
//! schedule with random noise events mixed in, so that protocol-following
//! prefixes — where the folds carry non-trivial state — are common.

use std::collections::{BTreeMap, BTreeSet};

use ccal::core::event::{Event, EventKind};
use ccal::core::id::{Loc, Pid};
use ccal::core::layer::{Critical, LayerInterface};
use ccal::core::log::Log;
use ccal::core::machine::{LayerMachine, MachineError};
use ccal::core::rely::{Conditions, Invariant, RelyGuarantee};
use ccal::core::strategy::{RoundRobinScheduler, Strategy as Player, StrategyMove};
use ccal::core::val::Val;
use ccal::machine::lx86::{in_critical_l0, lx86_interface};
use ccal::objects::mcs::{
    holds_mcs, in_critical_mcs, mcs_protocol_invariant, r_mcs_relation, replay_mcs, McsEnvPlayer,
};
use ccal::objects::ticket::{
    atomic_lock_protocol_invariant, holds_atomic_lock, l0_interface, ticket_protocol_invariant,
    AtomicLockEnvPlayer, TicketEnvPlayer,
};
use proptest::prelude::*;

/// The whole-log predicates the folds replaced, copied unchanged.
#[allow(clippy::collapsible_match)]
mod oracle {
    use super::*;

    pub fn ticket_protocol(pid: Pid, log: &Log) -> bool {
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
                EventKind::GetN(b) if *st.get(&b).unwrap_or(&St::Idle) != St::Ticketed => {
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
    }

    pub fn atomic_lock_protocol(pid: Pid, log: &Log) -> bool {
        let mut held: BTreeSet<Loc> = BTreeSet::new();
        for e in log.iter().filter(|e| e.pid == pid) {
            match e.kind {
                EventKind::Acq(b) if !held.insert(b) => {
                    return false;
                }
                EventKind::Rel(b) => {
                    held.remove(&b);
                }
                _ => {}
            }
        }
        true
    }

    /// The MCS queue state: tail plus `(next, locked)` per node owner.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct Mcs {
        pub tail: Option<Pid>,
        pub nodes: BTreeMap<Pid, (Option<Pid>, bool)>,
    }

    pub fn replay_mcs(log: &Log, b: Loc) -> Mcs {
        let mut st = Mcs::default();
        for e in log.iter() {
            match e.kind {
                EventKind::McsSwap(loc) if loc == b => {
                    st.nodes.insert(e.pid, (None, st.tail.is_some()));
                    st.tail = Some(e.pid);
                }
                EventKind::McsSetNext(loc, pred) if loc == b => {
                    if let Some(n) = st.nodes.get_mut(&pred) {
                        n.0 = Some(e.pid);
                    }
                }
                EventKind::McsCasTail(loc) if loc == b => {
                    let no_next = st.nodes.get(&e.pid).map(|n| n.0.is_none()).unwrap_or(false);
                    if st.tail == Some(e.pid) && no_next {
                        st.tail = None;
                        st.nodes.remove(&e.pid);
                    }
                }
                EventKind::McsGrant(loc, succ) if loc == b => {
                    if let Some(n) = st.nodes.get_mut(&succ) {
                        n.1 = false;
                    }
                    st.nodes.remove(&e.pid);
                }
                _ => {}
            }
        }
        st
    }

    fn prefix(log: &Log, len: usize) -> Log {
        Log::from_events(log.iter().take(len).cloned())
    }

    pub fn holds_mcs(pid: Pid, log: &Log) -> bool {
        let mut held: BTreeSet<Loc> = BTreeSet::new();
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
                    if !replay_mcs(&prefix(log, at + 1), b).nodes.contains_key(&pid) {
                        held.remove(&b);
                    }
                }
                _ => {}
            }
        }
        !held.is_empty()
    }

    pub fn in_critical_mcs(pid: Pid, log: &Log) -> bool {
        if !holds_mcs(pid, log) {
            return false;
        }
        let mut locks: BTreeSet<Loc> = BTreeSet::new();
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
                if node.0.is_none() && st.tail != Some(pid) {
                    return false;
                }
            }
        }
        true
    }

    pub fn mcs_protocol(pid: Pid, log: &Log) -> bool {
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
                    let st = replay_mcs(&prefix(log, at), b);
                    match st.nodes.get(&pid) {
                        Some(n) if !n.1 => {}
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
                    if !replay_mcs(&prefix(log, at + 1), b).nodes.contains_key(&pid) {
                        holding = false;
                    }
                }
                _ => {}
            }
        }
        true
    }

    pub fn r_mcs(log: &Log) -> Log {
        let mut out = Log::new();
        for (at, e) in log.iter().enumerate() {
            match e.kind {
                EventKind::Hold(b) => out.append(Event::new(e.pid, EventKind::Acq(b))),
                EventKind::McsGrant(b, _) => out.append(Event::new(e.pid, EventKind::Rel(b))),
                EventKind::McsCasTail(b) => {
                    if !replay_mcs(&prefix(log, at + 1), b)
                        .nodes
                        .contains_key(&e.pid)
                    {
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
        out
    }

    pub fn in_critical_l0(pid: Pid, log: &Log) -> bool {
        let mut owned = BTreeSet::new();
        let mut held = BTreeSet::new();
        for e in log.iter() {
            match e.kind {
                EventKind::Pull(b) if e.pid == pid => {
                    owned.insert(b);
                }
                EventKind::Push(b, _) if e.pid == pid => {
                    owned.remove(&b);
                }
                _ => {}
            }
        }
        for e in log.iter() {
            match e.kind {
                EventKind::Hold(b) if e.pid == pid => {
                    held.insert(b);
                }
                EventKind::IncN(b) if e.pid == pid => {
                    held.remove(&b);
                }
                _ => {}
            }
        }
        !owned.is_empty() || !held.is_empty()
    }

    pub fn holds_atomic_lock(pid: Pid, log: &Log) -> bool {
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
}

type Oracle = fn(Pid, &Log) -> bool;

/// Every shipped invariant with its oracle.
fn invariants() -> Vec<(Invariant, Oracle)> {
    vec![
        (
            ticket_protocol_invariant(),
            oracle::ticket_protocol as Oracle,
        ),
        (
            atomic_lock_protocol_invariant(),
            oracle::atomic_lock_protocol,
        ),
        (mcs_protocol_invariant(), oracle::mcs_protocol),
        (Invariant::trivial(), |_, _| true),
    ]
}

fn l0_or_atomic(pid: Pid, log: &Log) -> bool {
    oracle::in_critical_l0(pid, log) || oracle::holds_atomic_lock(pid, log)
}

/// Every shipped critical predicate with its oracle, plus a disjunction
/// (`LayerInterface::join`) and the predicate an installed module
/// delegates to its underlay (`Module::install`).
fn criticals() -> Vec<(Critical, Oracle)> {
    let joined = lx86_interface()
        .join(
            &LayerInterface::builder("atomic")
                .critical(holds_atomic_lock())
                .build(),
        )
        .expect("disjoint primitives");
    let installed = ccal::core::module::Module::new("M")
        .install(&l0_interface())
        .expect("empty module installs");
    vec![
        (in_critical_l0(), oracle::in_critical_l0 as Oracle),
        (holds_atomic_lock(), oracle::holds_atomic_lock),
        (in_critical_mcs(), oracle::in_critical_mcs),
        (joined.critical().clone(), l0_or_atomic),
        (installed.critical().clone(), oracle::in_critical_l0),
        (Critical::never(), |_, _| false),
    ]
}

const PIDS: u32 = 3;

/// One random event from mix `mix` (0 ticket, 1 atomic lock, 2 MCS,
/// 3 push/pull, 4 scheduling).
fn mix_event(mix: u8, pick: u8, pid: u32, loc: u32, other: u32) -> Event {
    let (b, p) = (Loc(loc), Pid(pid));
    let kind = match (mix, pick % 6) {
        (0, 0) => EventKind::FaiT(b),
        (0, 1 | 2) => EventKind::GetN(b),
        (0, 3) => EventKind::Hold(b),
        (0, 4) => EventKind::IncN(b),
        (1, 0 | 1) => EventKind::Acq(b),
        (1, 2 | 3) => EventKind::Rel(b),
        (1, 4) => EventKind::AcqQ(b),
        (1, _) => EventKind::RelQ(b),
        (2, 0) => EventKind::McsSwap(b),
        (2, 1) => EventKind::McsSetNext(b, Pid(other)),
        (2, 2) => EventKind::McsCasTail(b),
        (2, 3) => EventKind::McsGrant(b, Pid(other)),
        (2, 4) => EventKind::Hold(b),
        (2, _) => EventKind::McsGetLocked(b),
        (3, 0..=2) => EventKind::Pull(b),
        (3, _) => EventKind::Push(b, Val::Int(i64::from(other))),
        _ => EventKind::HwSched(Pid(other)),
    };
    Event::new(p, kind)
}

/// A log drawn from one mix, or (mix 5) from all of them at once.
fn arb_mixed_log() -> impl Strategy<Value = Log> {
    (
        0_u8..6,
        proptest::collection::vec(
            (0_u8..5, 0_u8..6, 0_u32..PIDS, 0_u32..2, 0_u32..PIDS),
            0..36,
        ),
    )
        .prop_map(|(mix, picks)| {
            Log::from_events(picks.into_iter().map(|(any, pick, pid, loc, other)| {
                mix_event(if mix == 5 { any } else { mix }, pick, pid, loc, other)
            }))
        })
}

/// A log produced by the shipped contenders under a random schedule, with
/// an occasional noise event from any mix.
fn arb_played_log() -> impl Strategy<Value = Log> {
    (
        0_u8..3,
        proptest::collection::vec(
            (
                0_u32..PIDS,
                0_u8..12,
                0_u8..5,
                0_u8..6,
                0_u32..2,
                0_u32..PIDS,
            ),
            0..28,
        ),
    )
        .prop_map(|(family, slots)| {
            let b = Loc(0);
            let players: Vec<Box<dyn Player>> = (0..PIDS)
                .map(|p| -> Box<dyn Player> {
                    match family {
                        0 => Box::new(TicketEnvPlayer::new(Pid(p), b, 2)),
                        1 => Box::new(AtomicLockEnvPlayer::new(Pid(p), b, 2)),
                        _ => Box::new(McsEnvPlayer::new(Pid(p), b, 2)),
                    }
                })
                .collect();
            let mut log = Log::new();
            for (pid, noise, mix, pick, loc, other) in slots {
                log.append(Event::sched(Pid(pid)));
                if noise == 0 {
                    log.append(mix_event(mix, pick, pid, loc, other));
                } else if let StrategyMove::Emit(evs) = players[pid as usize].next_move(&log) {
                    log.append_all(evs);
                }
            }
            log
        })
}

fn arb_log() -> impl Strategy<Value = Log> {
    prop_oneof![arb_mixed_log(), arb_played_log()]
}

fn prefix(log: &Log, len: usize) -> Log {
    Log::from_events(log.iter().take(len).cloned())
}

/// The monitors of every invariant and critical predicate for `pid`,
/// stepped in lockstep.
#[derive(Clone)]
struct Monitors {
    each: Vec<ccal::core::rely::ConditionsMonitor>,
    all: ccal::core::rely::ConditionsMonitor,
    critical: Vec<ccal::core::layer::CriticalMonitor>,
}

impl Monitors {
    fn start(all: &Conditions, pid: Pid) -> Self {
        Self {
            each: invariants()
                .iter()
                .map(|(inv, _)| Conditions::none().with(inv.clone()).monitor(pid))
                .collect(),
            all: all.monitor(pid),
            critical: criticals().iter().map(|(c, _)| c.monitor(pid)).collect(),
        }
    }

    fn step(&mut self, e: &Event) {
        for m in &mut self.each {
            m.step(e);
        }
        self.all.step(e);
        for m in &mut self.critical {
            m.step(e);
        }
    }

    /// Asserts every answer against the oracles on `log`.
    fn check(&self, all: &Conditions, pid: Pid, log: &Log) {
        let invs = invariants();
        for ((inv, oracle), m) in invs.iter().zip(&self.each) {
            let one = Conditions::none().with(inv.clone());
            let want = oracle(pid, log);
            prop_assert_eq!(
                m.first_violation(&one).is_none(),
                want,
                "{} on {}",
                inv.name(),
                log
            );
            prop_assert_eq!(
                inv.holds(pid, log),
                want,
                "{} from scratch on {}",
                inv.name(),
                log
            );
        }
        let first = invs
            .iter()
            .find(|(_, oracle)| !oracle(pid, log))
            .map(|(inv, _)| inv.name());
        prop_assert_eq!(self.all.first_violation(all).map(|i| i.name()), first);
        prop_assert_eq!(all.first_violation(pid, log).map(|i| i.name()), first);
        for (i, ((crit, oracle), m)) in criticals().iter().zip(&self.critical).enumerate() {
            let want = oracle(pid, log);
            prop_assert_eq!(m.is_critical(), want, "critical #{} on {}", i, log);
            prop_assert_eq!(crit.holds(pid, log), want, "critical #{} from scratch", i);
        }
    }
}

fn all_conditions() -> Conditions {
    Conditions::from_invariants(invariants().into_iter().map(|(inv, _)| inv))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fed a log event by event, every monitor agrees with its oracle on
    /// every prefix, for every participant — including after a violation,
    /// which must stay reported (violations are sticky).
    #[test]
    fn monitors_agree_with_the_whole_log_predicates(log in arb_log()) {
        let all = all_conditions();
        for pid in (0..PIDS).map(Pid) {
            let mut monitors = Monitors::start(&all, pid);
            monitors.check(&all, pid, &Log::new());
            for (at, e) in log.iter().enumerate() {
                monitors.step(e);
                monitors.check(&all, pid, &prefix(&log, at + 1));
            }
        }
    }

    /// A monitor forked at a random cut point and fed another continuation
    /// than the original agrees with folding that log from scratch, and
    /// feeding the fork leaves the original untouched.
    #[test]
    fn forked_monitors_advance_independently(
        a in arb_log(),
        b in arb_log(),
        cut in 0_usize..32,
    ) {
        let all = all_conditions();
        let cut = cut.min(a.len());
        // `b` continues `a`'s first `cut` events.
        let mut other = prefix(&a, cut);
        other.append_all(b.iter().cloned());
        for pid in (0..PIDS).map(Pid) {
            let mut original = Monitors::start(&all, pid);
            for e in a.iter().take(cut) {
                original.step(e);
            }
            let mut fork = original.clone();
            for e in other.iter_from(cut) {
                fork.step(e);
            }
            original.check(&all, pid, &prefix(&a, cut));
            for e in a.iter_from(cut) {
                original.step(e);
            }
            original.check(&all, pid, &a);
            fork.check(&all, pid, &other);
        }
    }

    /// The single-pass MCS replays agree with the quadratic prefix-rebuild
    /// versions they replaced: `replay_mcs`, `holds_mcs` and `Rmcs`.
    #[test]
    fn single_pass_mcs_replays_agree(log in arb_log()) {
        let b = Loc(0);
        let st = replay_mcs(&log, b);
        let want = oracle::replay_mcs(&log, b);
        prop_assert_eq!(st.tail, want.tail);
        let nodes: BTreeMap<Pid, (Option<Pid>, bool)> =
            st.nodes.iter().map(|(p, n)| (*p, (n.next, n.locked))).collect();
        prop_assert_eq!(nodes, want.nodes);
        for pid in (0..PIDS).map(Pid) {
            prop_assert_eq!(holds_mcs(pid, &log), oracle::holds_mcs(pid, &log));
        }
        prop_assert_eq!(
            r_mcs_relation().abstracted(&log),
            Some(oracle::r_mcs(&log.without_sched()))
        );
    }
}

/// A machine started on a log whose prefix already violates the
/// guarantee reports that violation at its first check, at the initial
/// log's length — the monitors restart from the empty log and fold the
/// whole initial log, forgetting whatever the machine ran before.
#[test]
fn initial_log_violating_the_guarantee_is_reported_at_the_first_check() {
    let b = Loc(0);
    // p0 reads the now-serving field without a ticket: a ticket-protocol
    // violation, after a few scheduling events.
    let mut initial: Log = (0..6).map(|i| Event::sched(Pid(i % 2))).collect();
    initial.append(Event::new(Pid(1), EventKind::FaiT(b)));
    initial.append(Event::new(Pid(0), EventKind::GetN(b)));
    let violation = Err(MachineError::GuaranteeViolated {
        invariant: "ticket-protocol".to_owned(),
        pid: Pid(0),
        log_len: initial.len(),
    });
    let env =
        ccal::core::env::EnvContext::new(std::sync::Arc::new(RoundRobinScheduler::over_domain(2)));
    let mut m =
        LayerMachine::new(l0_interface(), Pid(0), env.clone()).with_initial_log(initial.clone());
    assert_eq!(m.call_prim("f", &[]), violation);
    // A machine whose own run took a ticket (so that a `get_n` would be
    // legal for it) and is then restarted on the violating log reports
    // the same: the restart forgot the run.
    let mut ran = LayerMachine::new(l0_interface(), Pid(0), env.clone());
    ran.call_prim("fai_t", &[Val::Loc(b)]).expect("clean run");
    assert!(ran.log().len() < initial.len());
    let mut restarted = ran.with_initial_log(initial.clone());
    assert_eq!(restarted.call_prim("f", &[]), violation);
    // The same prefix as a rely violation: with the guarantee dropped, the
    // first rely check (after the first delivery) reports it.
    let rely_only = l0_interface().with_conditions(RelyGuarantee::new(
        Conditions::none().with(ticket_protocol_invariant()),
        Conditions::none(),
    ));
    let mut m = LayerMachine::new(rely_only, Pid(0), env).with_initial_log(initial);
    assert_eq!(
        m.call_prim("f", &[]),
        Err(MachineError::RelyViolated {
            invariant: "ticket-protocol".to_owned(),
            pid: Pid(0),
        })
    );
}
