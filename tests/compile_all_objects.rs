//! CompCertX across the whole object suite: every ClightX module of the
//! Fig. 1 tower compiles to layered assembly and validates against its
//! interpreted semantics over its own underlay — "certified C layers can
//! be compiled into certified assembly layers" (§2), object by object.

use std::sync::Arc;

use ccal::compcertx::{compcertx, ValidateOptions};
use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid};
use ccal::core::val::Val;
use ccal::objects::{condvar, ipc, localq, qlock, sharedq, ticket};

fn rr_contexts() -> Vec<ccal::core::env::EnvContext> {
    vec![ContextGen::new(vec![Pid(0), Pid(1)]).round_robin()]
}

#[test]
fn ticket_lock_compiles_and_validates() {
    let b = Loc(0);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, 1)))
        .with_schedule_len(2)
        .contexts();
    let opts = ValidateOptions::new(contexts)
        .with_workload("acq", vec![vec![Val::Loc(b)]])
        .with_workload("rel", vec![vec![Val::Loc(b)]]);
    let compiled =
        compcertx("M1", ticket::M1_SOURCE, &ticket::l0_interface(), &opts).expect("validates");
    assert_eq!(compiled.asm.fn_names(), vec!["acq", "rel"]);
}

#[test]
fn local_queue_compiles_and_validates() {
    let opts = ValidateOptions::new(rr_contexts())
        .with_workload("enq_t", vec![vec![Val::Int(0), Val::Int(7)]])
        .with_workload("deq_t", vec![vec![Val::Int(0)]]);
    let compiled = compcertx(
        "Mlq",
        localq::LOCALQ_SOURCE,
        &localq::node_pool_interface(),
        &opts,
    )
    .expect("validates");
    assert!(compiled.certificate.total_cases() > 0);
}

#[test]
fn shared_queue_compiles_and_validates() {
    let q = Loc(3);
    let opts = ValidateOptions::new(rr_contexts())
        .with_workload("enQ", vec![vec![Val::Loc(q), Val::Int(9)]])
        .with_workload("deQ", vec![vec![Val::Loc(q)]]);
    let compiled = compcertx(
        "Mq",
        sharedq::SHAREDQ_SOURCE,
        &sharedq::sharedq_underlay(),
        &opts,
    )
    .expect("validates");
    assert_eq!(compiled.asm.fn_names(), vec!["deQ", "enQ"]);
}

#[test]
fn qlock_compiles_and_validates() {
    let l = Loc(4);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(qlock::QlockEnvPlayer::new(Pid(1), l, 1)))
        .with_schedule_len(2)
        .contexts();
    let opts = ValidateOptions::new(contexts)
        .with_workload("acq_q", vec![vec![Val::Loc(l)]])
        .with_workload("rel_q", vec![vec![Val::Loc(l)]]);
    // rel_q without holding is stuck in both semantics: the validator
    // accepts matching failure classes, so the plain workload suffices.
    let compiled =
        compcertx("Mql", qlock::QLOCK_SOURCE, &qlock::qlock_underlay(), &opts).expect("validates");
    assert!(compiled.certificate.total_cases() > 0);
}

#[test]
fn condvar_compiles_and_validates() {
    let l = Loc(4);
    let cv = Loc(8);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(condvar::CvEnvPlayer::new(
                Pid(1),
                ccal::core::id::QId(cv.0),
                l,
            )),
        )
        .with_schedule_len(2)
        .contexts();
    let opts = ValidateOptions::new(contexts)
        .with_workload("cv_signal", vec![vec![Val::Loc(cv)]])
        .with_workload("cv_broadcast", vec![vec![Val::Loc(cv)]])
        // cv_wait needs to hold the qlock first; exercised separately via
        // certification — here we validate the signal paths and the
        // broadcast, which are straight-line.
        .with_workload("cv_wait", vec![]);
    let compiled = compcertx(
        "Mcv",
        condvar::CONDVAR_SOURCE,
        &condvar::condvar_underlay(),
        &opts,
    )
    .expect("validates");
    assert_eq!(
        compiled.asm.fn_names(),
        vec!["cv_broadcast", "cv_signal", "cv_wait"]
    );
}

#[test]
fn ipc_compiles_and_validates() {
    let ch = Loc(6);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ipc::SenderEnvPlayer::new(Pid(1), ch, 1)))
        .with_schedule_len(2)
        .contexts();
    let opts = ValidateOptions::new(contexts)
        .with_workload("send", vec![vec![Val::Loc(ch), Val::Int(3)]])
        .with_workload("recv", vec![vec![Val::Loc(ch)]]);
    let compiled =
        compcertx("Mipc", ipc::IPC_SOURCE, &ipc::ipc_underlay(), &opts).expect("validates");
    assert!(compiled.certificate.total_cases() > 0);
}

#[test]
fn compiled_listings_are_printable() {
    // The disassembly of the whole tower is well-formed text (smoke test
    // for the Display impls the compile_and_link example relies on).
    let opts = ValidateOptions::new(rr_contexts())
        .with_workload("enq_t", vec![vec![Val::Int(0), Val::Int(1)]])
        .with_workload("deq_t", vec![vec![Val::Int(0)]]);
    let compiled = compcertx(
        "Mlq",
        localq::LOCALQ_SOURCE,
        &localq::node_pool_interface(),
        &opts,
    )
    .expect("validates");
    for name in compiled.asm.fn_names() {
        let listing = compiled.asm.get(name).expect("listed").to_string();
        assert!(listing.contains("ret"), "{listing}");
    }
}
