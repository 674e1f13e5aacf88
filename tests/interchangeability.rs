//! The §6 interchangeability claim: "Both ticket and MCS locks share the
//! same high-level atomic specifications ... Thus the lock implementations
//! can be freely interchanged without affecting any proof in the
//! higher-level modules using locks."
//!
//! We certify both locks against the same atomic interface `L1`, then
//! vertically compose the *client layer of the ticket stack* on top of the
//! *MCS lock layer* — the client's certificate is reused untouched.

use std::sync::Arc;

use ccal::core::calculus::vcomp;
use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid};
use ccal::objects::{mcs, ticket};

const B: Loc = Loc(0);

#[test]
fn both_locks_certify_to_the_same_interface() {
    let t_low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let t_atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let ticket_stack =
        ticket::certify_ticket_stack(Pid(0), B, t_low, t_atomic).expect("ticket certifies");

    let m_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(mcs::McsEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let mcs_layer = mcs::certify_mcs_lock(Pid(0), B, m_ctx).expect("mcs certifies");

    assert_eq!(ticket_stack.lock_layer.overlay.name, mcs_layer.overlay.name);
    assert_eq!(
        ticket_stack.lock_layer.overlay.prim_names(),
        mcs_layer.overlay.prim_names()
    );
}

#[test]
fn the_client_layer_composes_over_either_lock() {
    let t_low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let t_atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let ticket_stack =
        ticket::certify_ticket_stack(Pid(0), B, t_low, t_atomic).expect("ticket certifies");

    let m_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(mcs::McsEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(3)
        .contexts();
    let mcs_layer = mcs::certify_mcs_lock(Pid(0), B, m_ctx).expect("mcs certifies");

    // Swap the lock: the client layer (certified once, over L1) composes
    // over the MCS lock layer without re-checking anything.
    let over_ticket =
        vcomp(&ticket_stack.lock_layer, &ticket_stack.client_layer).expect("ticket ∘ client");
    let over_mcs = vcomp(&mcs_layer, &ticket_stack.client_layer).expect("mcs ∘ client");

    assert_eq!(over_ticket.overlay.name, "L2");
    assert_eq!(over_mcs.overlay.name, "L2");
    assert_eq!(over_mcs.underlay.name, "L0mcs");
    // The swapped stack reuses the client's checking cases verbatim.
    let client_cases = ticket_stack.client_layer.certificate.total_cases();
    assert!(over_mcs.certificate.total_cases() >= client_cases);
}

#[test]
fn contended_histories_abstract_identically() {
    // Run both lock implementations under the same acquisition pattern;
    // after abstraction both histories are the *same* atomic behavior:
    // two well-bracketed critical sections.
    use ccal::core::conc::ConcurrentMachine;
    use ccal::core::env::EnvContext;
    use ccal::core::event::EventKind;
    use ccal::core::id::PidSet;
    use ccal::core::replay::replay_atomic_lock;
    use ccal::core::strategy::RoundRobinScheduler;
    use ccal::core::val::Val;
    use std::collections::BTreeMap;

    let mut programs = BTreeMap::new();
    for c in 0..2 {
        programs.insert(
            Pid(c),
            vec![
                ("acq".to_owned(), vec![Val::Loc(B)]),
                ("rel".to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    let run =
        |src: &str, base: ccal::core::layer::LayerInterface, rel: ccal::core::sim::SimRelation| {
            let m = ccal::clightx::clightx_module("M", src).expect("parses");
            let iface = m.install(&base).expect("installs");
            let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
            let machine = ConcurrentMachine::new(iface, PidSet::from_pids([Pid(0), Pid(1)]), env)
                .with_fuel(500_000);
            let out = machine.run(&programs).expect("runs");
            rel.abstracted(&out.log).expect("abstractable")
        };
    let ticket_hist = run(
        ticket::M1_SOURCE,
        ticket::l0_interface(),
        ticket::r1_relation(),
    );
    let mcs_hist = run(
        mcs::MCS_SOURCE,
        mcs::l0_mcs_interface(),
        mcs::r_mcs_relation(),
    );
    // Identical atomic footprints: same multiset of events per pid.
    for hist in [&ticket_hist, &mcs_hist] {
        replay_atomic_lock(hist, B).expect("legal history");
        assert_eq!(hist.len(), 4, "two acq + two rel: {hist}");
        for pid in [Pid(0), Pid(1)] {
            let kinds: Vec<_> = hist
                .events_by(pid)
                .map(|e| std::mem::discriminant(&e.kind))
                .collect();
            assert_eq!(
                kinds,
                vec![
                    std::mem::discriminant(&EventKind::Acq(B)),
                    std::mem::discriminant(&EventKind::Rel(B))
                ]
            );
        }
    }
}
