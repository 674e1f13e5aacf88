//! Experiment F1: the concurrent layer stack of Fig. 1, certified
//! bottom-up and exercised end-to-end — spinlocks, shared queues, the
//! scheduler, the queuing lock, condition variables and IPC.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal::core::conc::ConcurrentMachine;
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::strategy::RoundRobinScheduler;
use ccal::core::val::Val;
use ccal::objects::{condvar, ipc, qlock, sched, sharedq, ticket};

#[test]
fn every_layer_of_the_tower_certifies() {
    let b = Loc(0);
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(2)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(2)
        .contexts();
    let stack = ticket::certify_ticket_stack(Pid(0), b, low, atomic).expect("spinlock");

    let q = Loc(3);
    let q_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sharedq::SharedQEnvPlayer::new(Pid(1), q, 2)),
        )
        .with_schedule_len(2)
        .contexts();
    let q_layer = sharedq::certify_shared_queue(Pid(0), q, q_ctx).expect("shared queue");

    let s_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sched::WakerEnvPlayer::new(Pid(1), QId(5), 2)),
        )
        .with_schedule_len(2)
        .contexts();
    let s_layer = sched::certify_scheduler(Pid(0), QId(5), Loc(9), s_ctx).expect("scheduler");

    let l = Loc(4);
    let ql_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(qlock::QlockEnvPlayer::new(Pid(1), l, 2)))
        .with_schedule_len(2)
        .contexts();
    let ql_layer = qlock::certify_qlock(Pid(0), l, ql_ctx).expect("queuing lock");

    let cv_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(condvar::CvEnvPlayer::new(Pid(1), QId(8), l)),
        )
        .with_schedule_len(2)
        .contexts();
    let cv_layer = condvar::certify_condvar(Pid(0), QId(8), l, cv_ctx).expect("condvar");

    let ch = Loc(6);
    let ipc_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ipc::SenderEnvPlayer::new(Pid(1), ch, 2)))
        .with_schedule_len(2)
        .contexts();
    let ipc_layer = ipc::certify_ipc(Pid(0), ch, ipc_ctx).expect("IPC");

    // Every judgment names its layer pair and carries a non-empty
    // certificate.
    for (layer, under, over) in [
        (&stack.lock_layer, "L0", "L1"),
        (&q_layer, "Lq", "Lq_high"),
        (&s_layer, "Lsq", "Lhtd"),
        (&ql_layer, "Lql", "Lqlock"),
        (&cv_layer, "Lcvb", "Lcv"),
        (&ipc_layer, "Lipcb", "Lipc"),
    ] {
        assert_eq!(layer.underlay.name, under);
        assert_eq!(layer.overlay.name, over);
        assert!(layer.certificate.total_cases() > 0, "{under} ⊢ {over}");
    }
}

#[test]
fn the_whole_stack_runs_a_producer_consumer_workload() {
    // Execute the producer/consumer of the ipc_pipeline example as a test:
    // the full implementation stack (qlock + CV + mailbox) underneath.
    let ch = Loc(6);
    let module = ccal::clightx::clightx_module("Mipc", ipc::IPC_SOURCE).expect("parses");
    let iface = module.install(&ipc::ipc_underlay()).expect("installs");
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
    let machine =
        ConcurrentMachine::new(iface, PidSet::from_pids([Pid(0), Pid(1)]), env).with_fuel(500_000);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        (1..=4)
            .map(|i| ("send".to_owned(), vec![Val::Loc(ch), Val::Int(i)]))
            .collect::<Vec<_>>(),
    );
    programs.insert(
        Pid(1),
        (0..4)
            .map(|_| ("recv".to_owned(), vec![Val::Loc(ch)]))
            .collect::<Vec<_>>(),
    );
    let out = machine.run(&programs).expect("pipeline completes");
    assert_eq!(
        out.rets[&Pid(1)],
        vec![Val::Int(1), Val::Int(2), Val::Int(3), Val::Int(4)],
        "messages delivered in order through the whole tower"
    );
}

#[test]
fn shared_queue_runs_over_both_certified_locks() {
    // The §6 interchangeability claim, exercised dynamically: the shared
    // queue implementation only needs the *atomic* acq/rel interface, so
    // it runs unchanged whether the events underneath came from a ticket
    // or an MCS acquisition history. Here we drive the shared queue over
    // its atomic underlay and verify FIFO behavior under contention.
    let q = Loc(3);
    let module = ccal::clightx::clightx_module("Mq", sharedq::SHAREDQ_SOURCE).expect("parses");
    let iface = module
        .install(&sharedq::sharedq_underlay())
        .expect("installs");
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
    let machine =
        ConcurrentMachine::new(iface, PidSet::from_pids([Pid(0), Pid(1)]), env).with_fuel(500_000);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("enQ".to_owned(), vec![Val::Loc(q), Val::Int(1)]),
            ("enQ".to_owned(), vec![Val::Loc(q), Val::Int(2)]),
        ],
    );
    programs.insert(
        Pid(1),
        vec![
            ("deQ".to_owned(), vec![Val::Loc(q)]),
            ("deQ".to_owned(), vec![Val::Loc(q)]),
        ],
    );
    let out = machine.run(&programs).expect("queue workload completes");
    // Dequeued values are a subsequence of {-1, 1, 2} consistent with FIFO.
    let got: Vec<i64> = out.rets[&Pid(1)]
        .iter()
        .map(|v| v.as_int().expect("int result"))
        .collect();
    let non_empty: Vec<i64> = got.iter().copied().filter(|v| *v != -1).collect();
    let mut sorted = non_empty.clone();
    sorted.sort_unstable();
    assert_eq!(non_empty, sorted, "FIFO order preserved: {got:?}");
}
