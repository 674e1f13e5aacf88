//! Quickstart: the ticket-lock walkthrough of the paper's §2 / Fig. 5.
//!
//! Builds and certifies the whole stack of Fig. 3 — the ticket lock `M1`
//! over the hardware interface `L0`, fun-lifted to the spin-visible
//! `L′1`, log-lifted to the atomic `L1`, and the client layer `M2`/`foo`
//! on top — printing each judgment and the accumulated certificate.
//!
//! Run with `cargo run --example quickstart`.

use std::sync::Arc;

use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid};
use ccal::objects::ticket::{
    certify_ticket_stack, FooEnvPlayer, TicketEnvPlayer, M1_SOURCE, M2_SOURCE,
};

fn main() {
    let b = Loc(0);
    println!("== The ticket lock of Fig. 3 / Fig. 10 (module M1) ==");
    println!("{M1_SOURCE}");
    println!("== The client layer of Fig. 3 (module M2) ==");
    println!("{M2_SOURCE}");

    // Environment contexts: every schedule prefix of length 3 over two
    // participants, with participant 1 contending for the same lock.
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    println!(
        "Checking over {} low-level and {} atomic environment contexts...\n",
        low.len(),
        atomic.len()
    );

    let stack = certify_ticket_stack(Pid(0), b, low, atomic).expect("the ticket stack certifies");

    println!("Derivation (the pipeline of Fig. 5):");
    println!("  1. fun-lift:  {}", stack.fun_lift.judgment());
    println!(
        "  2. log-lift:  {} ≤_{} {}",
        stack.log_lift.lower.name,
        stack.log_lift.relation.name(),
        stack.log_lift.upper.name
    );
    println!("  3. weaken:    {}", stack.lock_layer.judgment());
    println!("  4. client:    {}", stack.client_layer.judgment());
    println!("  5. vcomp:     {}", stack.full_stack.judgment());

    println!("\n{}", stack.full_stack.certificate);
    println!("Every obligation above was discharged by the bounded simulation checker —");
    println!("the reproduction's executable stand-in for the paper's Coq proof objects.");
}
