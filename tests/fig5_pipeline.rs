//! Experiment F4/F5: the complete verification pipeline of Fig. 5 —
//! vertical composition, thread-safe compilation, parallel composition,
//! and the soundness theorem — plus the linking theorems (Thm 3.1, 5.1)
//! and the safety/liveness properties of §4.1.

use std::sync::Arc;

use ccal::compcertx::{compcertx, ValidateOptions};
use ccal::core::calculus::{pcomp, Rule};
use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::refine::{check_contextual_refinement, ClientProgram};
use ccal::core::val::Val;
use ccal::machine::linking::check_multicore_linking;
use ccal::machine::mx86::Mx86Program;
use ccal::objects::ticket::{
    certify_ticket_stack, l0_interface, m1_module, r1_relation, FooEnvPlayer, TicketEnvPlayer,
};
use ccal::verifier::{check_linearizability, check_liveness, lock_history_validator, ticket_bound};

const B: Loc = Loc(0);

fn low_contexts(pid_env: Pid) -> Vec<ccal::core::env::EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(pid_env, Arc::new(TicketEnvPlayer::new(pid_env, B, 2)))
        .with_schedule_len(3)
        .contexts()
}

fn atomic_contexts(pid_env: Pid) -> Vec<ccal::core::env::EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(pid_env, Arc::new(FooEnvPlayer::new(pid_env, B, 2)))
        .with_schedule_len(3)
        .contexts()
}

#[test]
fn vertical_composition_builds_the_full_stack() {
    let stack = certify_ticket_stack(Pid(0), B, low_contexts(Pid(1)), atomic_contexts(Pid(1)))
        .expect("the Fig. 5 derivation succeeds");
    assert_eq!(stack.full_stack.underlay.name, "L0");
    assert_eq!(stack.full_stack.overlay.name, "L2");
    assert_eq!(stack.full_stack.relation.name(), "id ∘ R1 ∘ R2");
    // The composed certificate contains both layers' Fun obligations plus
    // the IfaceSim (log-lift), Wk and Vcomp records.
    let rules: Vec<Rule> = stack
        .full_stack
        .certificate
        .obligations()
        .iter()
        .map(|o| o.rule)
        .collect();
    for needed in [Rule::Fun, Rule::IfaceSim, Rule::Wk, Rule::Vcomp] {
        assert!(rules.contains(&needed), "missing {needed} in {rules:?}");
    }
}

#[test]
fn thread_safe_compilation_validates_m1() {
    // CompCertX(M1 ⊕ M2) of Fig. 5: compile the lock module and validate
    // it over L0.
    let opts = ValidateOptions::new(low_contexts(Pid(1)))
        .with_workload("acq", vec![vec![Val::Loc(B)]])
        .with_workload("rel", vec![vec![Val::Loc(B)]]);
    let compiled = compcertx(
        "M1",
        ccal::objects::ticket::M1_SOURCE,
        &l0_interface(),
        &opts,
    )
    .expect("compilation validates");
    assert_eq!(compiled.asm.fn_names(), vec!["acq", "rel"]);
    assert!(compiled
        .certificate
        .obligations()
        .iter()
        .all(|o| o.rule == Rule::TranslationValidation));
    assert!(compiled.certificate.total_cases() > 0);
}

#[test]
fn compiled_lock_certifies_like_the_source() {
    // The assembly produced by CompCertX can replace the C module in the
    // Fun-rule check — "certified C layers can be compiled into certified
    // assembly layers" (§2).
    use ccal::core::calculus::{check_fun, CheckOptions};
    use ccal::core::sim::SimRelation;
    let opts = ValidateOptions::new(low_contexts(Pid(1)))
        .with_workload("acq", vec![vec![Val::Loc(B)]])
        .with_workload("rel", vec![vec![Val::Loc(B)]]);
    let compiled = compcertx(
        "M1",
        ccal::objects::ticket::M1_SOURCE,
        &l0_interface(),
        &opts,
    )
    .expect("compilation validates");
    let check_opts = CheckOptions::new(low_contexts(Pid(1)))
        .with_workload("acq", vec![vec![Val::Loc(B)]])
        .with_workload("rel", vec![vec![Val::Loc(B)]]);
    let layer = check_fun(
        &l0_interface(),
        &compiled.asm_module,
        &ccal::objects::ticket::lock_low_interface(),
        &SimRelation::identity(),
        Pid(0),
        &check_opts,
    )
    .expect("the compiled module certifies");
    assert!(layer.certificate.total_cases() > 0);
}

#[test]
fn parallel_composition_and_soundness() {
    // Certify both participants, compose in parallel, and check Thm 2.2
    // with the two-thread foo client of Fig. 3.
    let s0 = certify_ticket_stack(Pid(0), B, low_contexts(Pid(1)), atomic_contexts(Pid(1)))
        .expect("pid 0 certifies");
    let s1 = certify_ticket_stack(Pid(1), B, low_contexts(Pid(0)), atomic_contexts(Pid(0)))
        .expect("pid 1 certifies");
    let both = pcomp(&s0.full_stack, &s1.full_stack).expect("Pcomp holds");
    assert_eq!(both.focused, PidSet::from_pids([Pid(0), Pid(1)]));

    let mut client = ClientProgram::new();
    client.insert(Pid(0), vec![("foo".to_owned(), vec![Val::Loc(B)])]);
    client.insert(Pid(1), vec![("foo".to_owned(), vec![Val::Loc(B)])]);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .contexts();
    let ob =
        check_contextual_refinement(&both, &client, &contexts, 200_000).expect("soundness holds");
    assert_eq!(ob.rule, Rule::Soundness);
    assert!(ob.cases_checked > 0);
}

#[test]
fn multicore_linking_theorem_for_ticket_programs() {
    // Thm 3.1: hardware and layered executions agree on bounded
    // interleavings of ticket-lock primitive programs.
    let mut program = Mx86Program::new();
    for c in 0..2 {
        program.insert(
            Pid(c),
            vec![
                ("fai_t".to_owned(), vec![Val::Loc(B)]),
                ("get_n".to_owned(), vec![Val::Loc(B)]),
                ("inc_n".to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    let ob = check_multicore_linking(2, &program, 4, 32).expect("Thm 3.1 holds");
    assert_eq!(ob.rule, Rule::MulticoreLink);
    assert!(ob.cases_checked > 0);
}

#[test]
fn multithreaded_linking_theorem() {
    // Thm 5.1: scheduling-primitive programs behave identically on the
    // implementation machine and the thread-local interface.
    let mut client = ClientProgram::new();
    client.insert(Pid(0), vec![("yield".to_owned(), vec![]); 2]);
    client.insert(Pid(1), vec![("yield".to_owned(), vec![])]);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(3)
        .contexts();
    let ob =
        ccal::objects::sched::check_multithreaded_linking(&[Pid(0), Pid(1)], &client, &contexts)
            .expect("Thm 5.1 holds");
    assert_eq!(ob.rule, Rule::MultithreadLink);
    assert!(ob.cases_checked > 0);
}

#[test]
fn ticket_acq_is_starvation_free_within_the_paper_bound() {
    // §4.1: the while-loop in acq terminates in n·m·#CPU steps under a
    // fair scheduler whose rely bounds holders to n steps.
    let iface = m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs");
    let contexts = low_contexts(Pid(1));
    // Holder keeps the lock ≤ 4 of its own steps, fairness bound ≈ 8
    // scheduling events, 2 CPUs.
    let bound = ticket_bound(4, 8, 2);
    let ob = check_liveness(
        &iface,
        "acq",
        &[Val::Loc(B)],
        Pid(0),
        &contexts,
        bound,
        200_000,
    )
    .expect("starvation-freedom within n·m·#CPU");
    assert_eq!(ob.rule, Rule::Liveness);
    assert!(ob.cases_checked > 0);
}

#[test]
fn concurrent_ticket_histories_are_linearizable() {
    let iface = m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs");
    let mut programs = std::collections::BTreeMap::new();
    for c in 0..2 {
        programs.insert(
            Pid(c),
            vec![
                ("acq".to_owned(), vec![Val::Loc(B)]),
                ("rel".to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(5)
        .with_max_contexts(24)
        .contexts();
    let ob = check_linearizability(
        &iface,
        &PidSet::from_pids([Pid(0), Pid(1)]),
        &programs,
        &r1_relation(),
        &*lock_history_validator(),
        &contexts,
        200_000,
    )
    .expect("linearizable");
    assert_eq!(ob.rule, Rule::Linearizability);
    assert!(ob.cases_checked > 0);
}

#[test]
fn pcomp_rejects_overlapping_thread_sets() {
    let s0 = certify_ticket_stack(Pid(0), B, low_contexts(Pid(1)), atomic_contexts(Pid(1)))
        .expect("certifies");
    assert!(pcomp(&s0.full_stack, &s0.full_stack).is_err());
}

#[test]
fn sleep_queue_example_uses_qid_newtype() {
    // Guard test for the public id types used across the pipeline.
    assert_eq!(QId(3).to_string(), "q3");
}
