//! The §5.4 correctness properties of the queuing lock: "mutual exclusion
//! and starvation freedom", with the liveness resting on "all the lock
//! holders will eventually release the lock" and the fair scheduler.

use std::sync::Arc;

use ccal_core::contexts::ContextGen;
use ccal_core::id::{Loc, Pid};
use ccal_core::val::Val;
use ccal_objects::qlock::{qlock_underlay, replay_ql_busy, QlockEnvPlayer, QLOCK_SOURCE};
use ccal_verifier::check_liveness;

const L: Loc = Loc(4);

fn installed() -> ccal_core::layer::LayerInterface {
    ccal_clightx::clightx_module("Mql", QLOCK_SOURCE)
        .expect("parses")
        .install(&qlock_underlay())
        .expect("installs")
}

#[test]
fn acq_q_is_starvation_free_under_releasing_contenders() {
    // The sleeping waiter is woken and handed the lock within a bounded
    // number of scheduling steps — the Fig. 11 proof obligation: "the
    // starvation-freedom proof of queuing lock is mainly about the
    // termination of the sleep primitive call".
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(QlockEnvPlayer::new(Pid(1), L, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts();
    let ob = check_liveness(
        &installed(),
        "acq_q",
        &[Val::Loc(L)],
        Pid(0),
        &contexts,
        96, // generous scheduling-step bound for two participants
        200_000,
    )
    .expect("acq_q terminates under the rely");
    assert!(ob.cases_checked > 0);
}

#[test]
fn busy_value_always_names_the_holder() {
    // The §5.4 mutual-exclusion invariant: "the busy value of the lock
    // (ql_busy) is always equal to the lock holder's thread ID". Run a
    // contended workload and check the invariant at every log prefix.
    use ccal_core::conc::ConcurrentMachine;
    use ccal_core::env::EnvContext;
    use ccal_core::id::PidSet;
    use ccal_core::log::Log;
    use ccal_core::strategy::RoundRobinScheduler;
    use std::collections::BTreeMap;

    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
    let machine = ConcurrentMachine::new(installed(), PidSet::from_pids([Pid(0), Pid(1)]), env)
        .with_fuel(500_000);
    let mut programs = BTreeMap::new();
    for t in 0..2 {
        programs.insert(
            Pid(t),
            vec![
                ("acq_q".to_owned(), vec![Val::Loc(L)]),
                ("rel_q".to_owned(), vec![Val::Loc(L)]),
                ("acq_q".to_owned(), vec![Val::Loc(L)]),
                ("rel_q".to_owned(), vec![Val::Loc(L)]),
            ],
        );
    }
    let out = machine.run(&programs).expect("workload completes");
    // At every prefix, the abstracted holder (via R_ql) agrees with the
    // busy value.
    let rel = ccal_objects::qlock::r_ql_relation();
    for cut in 0..=out.log.len() {
        let prefix = Log::from_events(out.log.iter().take(cut).cloned());
        let busy = replay_ql_busy(&prefix, L);
        let holder = ccal_core::replay::replay_atomic_lock(
            &rel.abstracted(&prefix).expect("abstractable"),
            L,
        )
        .expect("legal history");
        match holder {
            Some(p) => assert_eq!(busy, i64::from(p.0), "at prefix {cut}"),
            None => assert_eq!(busy, -1, "at prefix {cut}"),
        }
    }
}

#[test]
fn fifo_handoff_order_is_respected() {
    // Sleepers are woken in FIFO order: with three contenders queueing
    // behind a holder, hand-offs follow the sleep order.
    use ccal_core::conc::ConcurrentMachine;
    use ccal_core::env::EnvContext;
    use ccal_core::event::EventKind;
    use ccal_core::id::PidSet;
    use ccal_core::strategy::ScriptScheduler;
    use std::collections::BTreeMap;

    let domain: Vec<Pid> = (0..3).map(Pid).collect();
    // p0 takes the lock; p1 then p2 queue behind it.
    let env = EnvContext::new(Arc::new(ScriptScheduler::new(
        vec![Pid(0), Pid(0), Pid(1), Pid(1), Pid(2), Pid(2)],
        domain.clone(),
    )));
    let machine =
        ConcurrentMachine::new(installed(), PidSet::from_pids(domain), env).with_fuel(500_000);
    let mut programs = BTreeMap::new();
    for t in 0..3 {
        programs.insert(
            Pid(t),
            vec![
                ("acq_q".to_owned(), vec![Val::Loc(L)]),
                ("rel_q".to_owned(), vec![Val::Loc(L)]),
            ],
        );
    }
    let out = machine.run(&programs).expect("workload completes");
    // Extract hand-off targets from ql_pass events (ignoring -1).
    let handoffs: Vec<i64> = out
        .log
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Prim(n, args) if n == "ql_pass" => args
                .get(1)
                .and_then(|v| v.as_int().ok())
                .filter(|t| *t >= 0),
            _ => None,
        })
        .collect();
    // Whoever slept first is handed the lock first.
    let sleep_order: Vec<i64> = out
        .log
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Sleep(_, _)))
        .map(|e| i64::from(e.pid.0))
        .collect();
    assert_eq!(
        handoffs, sleep_order,
        "hand-offs follow FIFO sleep order; log: {}",
        out.log
    );
}
