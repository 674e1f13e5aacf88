//! The full concurrent layer stack of Fig. 1: spinlocks → shared queues →
//! scheduler → queuing lock → condition variables → IPC — every layer
//! certified bottom-up, then composed across participants and checked
//! against the soundness theorem.
//!
//! Run with `cargo run --example kernel_stack`.

use std::sync::Arc;

use ccal::core::calculus::pcomp;
use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid, QId};
use ccal::core::refine::{check_contextual_refinement, ClientProgram};
use ccal::core::val::Val;
use ccal::objects::{condvar, ipc, mcs, qlock, sched, sharedq, ticket};

fn main() {
    let b = Loc(0);
    println!("Building the Fig. 1 layer tower, bottom-up:\n");

    // 1. Spinlocks (ticket + MCS, same atomic interface).
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let ticket_stack = ticket::certify_ticket_stack(Pid(0), b, low, atomic.clone())
        .expect("ticket lock certifies");
    println!("  [spinlock/ticket] {}", ticket_stack.lock_layer.judgment());

    let mcs_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(mcs::McsEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let mcs_layer = mcs::certify_mcs_lock(Pid(0), b, mcs_ctx).expect("MCS lock certifies");
    println!("  [spinlock/MCS]    {}", mcs_layer.judgment());
    println!("                    (same atomic interface: interchangeable)");

    // 2. Shared queues over the atomic lock.
    let q = Loc(3);
    let q_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sharedq::SharedQEnvPlayer::new(Pid(1), q, 2)),
        )
        .with_schedule_len(3)
        .contexts();
    let q_layer = sharedq::certify_shared_queue(Pid(0), q, q_ctx).expect("shared queue certifies");
    println!("  [shared queue]    {}", q_layer.judgment());

    // 3. Scheduler (yield / sleep / wakeup, C + assembly cswitch).
    let s_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sched::WakerEnvPlayer::new(Pid(1), QId(5), 2)),
        )
        .with_schedule_len(3)
        .contexts();
    let s_layer =
        sched::certify_scheduler(Pid(0), QId(5), Loc(9), s_ctx).expect("scheduler certifies");
    println!("  [scheduler]       {}", s_layer.judgment());

    // 4. Queuing lock (Fig. 11) over the thread-local interface.
    let l = Loc(4);
    let ql_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(qlock::QlockEnvPlayer::new(Pid(1), l, 2)))
        .with_schedule_len(3)
        .contexts();
    let ql_layer = qlock::certify_qlock(Pid(0), l, ql_ctx).expect("queuing lock certifies");
    println!("  [queuing lock]    {}", ql_layer.judgment());

    // 5. Condition variables.
    let cv_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(condvar::CvEnvPlayer::new(Pid(1), QId(8), l)),
        )
        .with_schedule_len(3)
        .contexts();
    let cv_layer =
        condvar::certify_condvar(Pid(0), QId(8), l, cv_ctx).expect("condition variable certifies");
    println!("  [cond. variable]  {}", cv_layer.judgment());

    // 6. IPC at the top.
    let ch = Loc(6);
    let ipc_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ipc::SenderEnvPlayer::new(Pid(1), ch, 2)))
        .with_schedule_len(3)
        .contexts();
    let ipc_layer = ipc::certify_ipc(Pid(0), ch, ipc_ctx).expect("IPC certifies");
    println!("  [IPC]             {}", ipc_layer.judgment());

    // Parallel composition + soundness at the client level (Fig. 4/5,
    // Thm 2.2) for the ticket stack.
    println!("\nParallel composition and the soundness theorem:");
    let low1 = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(0), Arc::new(ticket::TicketEnvPlayer::new(Pid(0), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let atomic1 = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(0), Arc::new(ticket::FooEnvPlayer::new(Pid(0), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let stack1 = ticket::certify_ticket_stack(Pid(1), b, low1, atomic1).expect("pid 1 certifies");
    let both =
        pcomp(&ticket_stack.full_stack, &stack1.full_stack).expect("compatible layers compose");
    println!("  Pcomp:      {}", both.judgment());

    let mut client = ClientProgram::new();
    client.insert(Pid(0), vec![("foo".to_owned(), vec![Val::Loc(b)])]);
    client.insert(Pid(1), vec![("foo".to_owned(), vec![Val::Loc(b)])]);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .contexts();
    let soundness = check_contextual_refinement(&both, &client, &contexts, 200_000)
        .expect("soundness (Thm 2.2) holds");
    println!("  Soundness:  {soundness}");

    let total: usize = [
        &ticket_stack.full_stack.certificate,
        &mcs_layer.certificate,
        &q_layer.certificate,
        &s_layer.certificate,
        &ql_layer.certificate,
        &cv_layer.certificate,
        &ipc_layer.certificate,
    ]
    .iter()
    .map(|c| c.total_cases())
    .sum();
    println!("\nWhole tower certified: {total} checking cases discharged across 7 objects.");
}
