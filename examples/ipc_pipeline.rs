//! A two-thread producer/consumer pipeline over the certified IPC layer
//! (the top of Fig. 1), executed on the multi-participant game machine
//! with the full implementation stack underneath — queuing lock,
//! condition variables, mailbox — and the resulting global log printed.
//!
//! Run with `cargo run --example ipc_pipeline`.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal::core::conc::ConcurrentMachine;
use ccal::core::env::EnvContext;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::strategy::RoundRobinScheduler;
use ccal::core::val::Val;
use ccal::objects::ipc::{ipc_underlay, replay_channel, IPC_SOURCE};

fn main() {
    let ch = Loc(6);
    println!("Producer/consumer over the certified IPC stack (channel {ch}):\n{IPC_SOURCE}");

    let module = ccal::clightx::clightx_module("Mipc", IPC_SOURCE).expect("IPC module parses");
    let iface = module
        .install(&ipc_underlay())
        .expect("IPC module installs");

    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
    let machine =
        ConcurrentMachine::new(iface, PidSet::from_pids([Pid(0), Pid(1)]), env).with_fuel(500_000);

    let mut programs = BTreeMap::new();
    // Producer: send three messages.
    programs.insert(
        Pid(0),
        (1..=3)
            .map(|i| ("send".to_owned(), vec![Val::Loc(ch), Val::Int(i * 10)]))
            .collect(),
    );
    // Consumer: receive three messages (blocking on an empty mailbox).
    programs.insert(
        Pid(1),
        (0..3)
            .map(|_| ("recv".to_owned(), vec![Val::Loc(ch)]))
            .collect(),
    );

    let out = machine.run(&programs).expect("pipeline completes");

    println!("Consumer received: {:?}", out.rets[&Pid(1)]);
    assert_eq!(
        out.rets[&Pid(1)],
        vec![Val::Int(10), Val::Int(20), Val::Int(30)],
        "messages arrive in order"
    );
    assert!(
        replay_channel(&out.log, QId(ch.0)).is_empty(),
        "mailbox drained"
    );

    println!("\nGlobal log ({} events):", out.log.len());
    for e in out.log.iter().filter(|e| !e.is_sched()) {
        println!("  {e}");
    }
    println!("\nEvery shared interaction above is an observable event; the channel");
    println!("contents at any instant are a replay function of this log.");
}
