//! The §4.1 side conditions of the ticket lock, reproduced:
//!
//! * **Overflow**: "we must also handle potential integer overflows for
//!   `t` and `n`. We can prove that, as long as the total number of CPUs
//!   in the machine is less than 2³² (determined by `uint`), the mutual
//!   exclusion property will not be violated even with overflows." We
//!   check the property at a small modulus: with `#CPU ≤ M` wrapped
//!   tickets stay mutually exclusive; with `#CPU > M` a violation is
//!   constructible — the boundary the paper's proof lives on.
//! * **Starvation-freedom**: `acq` terminates within the `n·m·#CPU`
//!   bound under rely-respecting environments, and a lock-hogging
//!   environment is *detected* as starvation.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::conc::{ConcurrentMachine, ThreadScript};
use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::log::Log;
use ccal_core::replay::{my_ticket, replay_ticket};
use ccal_core::strategy::{RoundRobinScheduler, Strategy, StrategyMove};
use ccal_core::val::Val;
use ccal_objects::ticket::{l0_interface, m1_module, TicketEnvPlayer};
use ccal_verifier::{check_liveness, ticket_bound};

const B: Loc = Loc(0);

/// A ticket interface whose counters wrap at modulus `m` — the bounded
/// `uint` of the real implementation, scaled down so the overflow boundary
/// is reachable in a test.
fn wrapped_ticket_interface(m: i64) -> LayerInterface {
    let fai = move |ctx: &mut ccal_core::layer::PrimCtx<'_>,
                    args: &[Val]|
          -> Result<Val, ccal_core::machine::MachineError> {
        let b = args[0].as_loc()?;
        ctx.emit(EventKind::FaiT(b));
        let t = my_ticket(ctx.log, b, ctx.pid).expect("just fetched") as i64;
        Ok(Val::Int(t % m))
    };
    let get_n = move |ctx: &mut ccal_core::layer::PrimCtx<'_>,
                      args: &[Val]|
          -> Result<Val, ccal_core::machine::MachineError> {
        let b = args[0].as_loc()?;
        ctx.emit(EventKind::GetN(b));
        Ok(Val::Int(replay_ticket(ctx.log, b).serving as i64 % m))
    };
    LayerInterface::builder("L0-wrapped")
        .prim(PrimSpec::atomic("fai_w", fai))
        .prim(PrimSpec::atomic("gn_w", get_n))
        .prim(PrimSpec::atomic("inc_n", |ctx, args| {
            let b = args[0].as_loc()?;
            ctx.emit(EventKind::IncN(b));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("hold", |ctx, args| {
            let b = args[0].as_loc()?;
            ctx.emit(EventKind::Hold(b));
            Ok(Val::Unit)
        }))
        .critical(ccal_machine::lx86::in_critical_l0())
        .build()
}

const WRAPPED_ACQ: &str = r#"
void acq(int b) {
    int t = fai_w(b);
    while (gn_w(b) != t) {}
    hold(b);
}
void rel(int b) {
    inc_n(b);
}
"#;

/// Scans a log for a ticket-safety violation: a `hold` whose author's
/// *true* (unwrapped) ticket differs from the now-serving counter — an
/// out-of-turn acquisition. On real hardware, where critical sections
/// span time, this is exactly a mutual-exclusion breach; under the layer
/// machine's atomic critical sections it surfaces as queue-jumping.
fn ticket_safety_violated(log: &Log) -> bool {
    for (at, e) in log.iter().enumerate() {
        if let EventKind::Hold(b) = e.kind {
            if b != B {
                continue;
            }
            let prefix = Log::from_events(log.iter().take(at).cloned());
            let serving = replay_ticket(&prefix, B).serving;
            let true_ticket = my_ticket(&prefix, B, e.pid).expect("holder fetched a ticket");
            if true_ticket != serving {
                return true;
            }
        }
    }
    false
}

fn contend(ncpus: u32, modulus: i64, rounds: usize) -> Log {
    let module = ccal_clightx::clightx_module("Mw", WRAPPED_ACQ).expect("parses");
    let iface = module
        .install(&wrapped_ticket_interface(modulus))
        .expect("installs");
    let domain: Vec<Pid> = (0..ncpus).map(Pid).collect();
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::new(domain.clone())));
    let machine =
        ConcurrentMachine::new(iface, PidSet::from_pids(domain.clone()), env).with_fuel(2_000_000);
    let mut programs: BTreeMap<Pid, ThreadScript> = BTreeMap::new();
    for pid in domain {
        let mut script = ThreadScript::new();
        for _ in 0..rounds {
            script.push(("acq".to_owned(), vec![Val::Loc(B)]));
            script.push(("rel".to_owned(), vec![Val::Loc(B)]));
        }
        programs.insert(pid, script);
    }
    machine.run(&programs).expect("contended run completes").log
}

#[test]
fn wrapped_tickets_stay_exclusive_when_cpus_fit_the_modulus() {
    // #CPU = 3 ≤ M = 4: no two tickets can alias, so mutual exclusion
    // survives wraparound even after many acquisitions.
    let log = contend(3, 4, 4);
    assert!(!ticket_safety_violated(&log), "violation in {log}");
    // The counters really did wrap (more acquisitions than the modulus).
    assert!(replay_ticket(&log, B).next > 4);
}

#[test]
fn overflow_violates_mutual_exclusion_when_cpus_exceed_the_modulus() {
    // #CPU = 3 > M = 2: tickets 0 and 2 alias mod 2, so a waiter can see
    // "its" number while the owner still holds — the exact hazard the
    // paper's #CPU < 2³² side condition excludes.
    let log = contend(3, 2, 2);
    assert!(
        ticket_safety_violated(&log),
        "expected an aliasing violation, log: {log}"
    );
}

/// An environment participant that grabs the ticket lock and never
/// releases — violating the "held locks will eventually be released"
/// rely condition (§2).
#[derive(Debug, Clone)]
struct HogPlayer {
    pid: Pid,
}

impl Strategy for HogPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let mine = my_ticket(log, B, self.pid);
        match mine {
            None => StrategyMove::Emit(vec![Event::new(self.pid, EventKind::FaiT(B))]),
            Some(t) if replay_ticket(log, B).serving == t => {
                let held = log
                    .iter()
                    .any(|e| e.pid == self.pid && matches!(e.kind, EventKind::Hold(b) if b == B));
                if held {
                    StrategyMove::idle() // never releases
                } else {
                    StrategyMove::Emit(vec![Event::new(self.pid, EventKind::Hold(B))])
                }
            }
            Some(_) => StrategyMove::idle(),
        }
    }

    fn name(&self) -> &str {
        "lock-hog"
    }
}

#[test]
fn acq_meets_the_paper_bound_under_well_behaved_contention() {
    let iface = m1_module()
        .expect("parses")
        .install(&l0_interface())
        .expect("installs");
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts();
    let ob = check_liveness(
        &iface,
        "acq",
        &[Val::Loc(B)],
        Pid(0),
        &contexts,
        ticket_bound(4, 8, 2),
        200_000,
    )
    .expect("starvation-free under the rely");
    assert!(ob.cases_checked > 0);
}

#[test]
fn a_lock_hog_is_detected_as_starvation() {
    let iface = m1_module()
        .expect("parses")
        .install(&l0_interface())
        .expect("installs");
    // The hog takes the lock first and never releases: acq must starve.
    let contexts = vec![ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(HogPlayer { pid: Pid(1) }))
        .with_schedule_len(2)
        .contexts()
        .into_iter()
        .next_back()
        .expect("a context scheduling p1 first")];
    let err = check_liveness(
        &iface,
        "acq",
        &[Val::Loc(B)],
        Pid(0),
        &contexts,
        ticket_bound(4, 8, 2),
        2_000, // small fuel: starvation surfaces quickly
    )
    .expect_err("the hog starves every waiter");
    let msg = format!("{err}");
    assert!(
        msg.contains("starvation") || msg.contains("steps"),
        "unexpected error: {msg}"
    );
}
