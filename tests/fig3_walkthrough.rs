//! Experiment F3: the §2 walkthrough of Fig. 3, executed.
//!
//! The paper runs the client `P` (two participants, each calling `foo`)
//! over the low-level interface under the scheduler
//! "1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2", obtaining the log `l′g`, and
//! shows that the relation `R1` maps it to the atomic-level log
//! `lg = (1.acq)•(1.f)•(1.g)•(1.rel)•(2.acq)` with "the order of lock
//! acquiring and the resulting shared state ... exactly the same". These
//! tests replay the same story on the executable machines.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal::core::conc::ConcurrentMachine;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::id::{Loc, Pid, PidSet};
use ccal::core::replay::{replay_atomic_lock, replay_ticket};
use ccal::core::strategy::ScriptScheduler;
use ccal::core::val::Val;
use ccal::objects::ticket::{l0_interface, m1_module, r1_relation};

const B: Loc = Loc(0);

fn foo_client() -> BTreeMap<Pid, Vec<(String, Vec<Val>)>> {
    // T1() { foo(); }  T2() { foo(); } — with foo inlined to its Fig. 3
    // body (acq; f; g; rel) so we exercise the M1 implementation events.
    let script = |_: u32| {
        vec![
            ("acq".to_owned(), vec![Val::Loc(B)]),
            ("f".to_owned(), vec![]),
            ("g".to_owned(), vec![]),
            ("rel".to_owned(), vec![Val::Loc(B)]),
        ]
    };
    let mut programs = BTreeMap::new();
    programs.insert(Pid(1), script(1));
    programs.insert(Pid(2), script(2));
    programs
}

fn run_with_schedule(schedule: Vec<Pid>) -> ccal::core::conc::ConcurrentOutcome {
    let iface = m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs");
    let env = EnvContext::new(Arc::new(ScriptScheduler::new(
        schedule,
        vec![Pid(1), Pid(2)],
    )));
    let machine = ConcurrentMachine::new(iface, PidSet::from_pids([Pid(1), Pid(2)]), env);
    machine.run(&foo_client()).expect("the walkthrough runs")
}

#[test]
fn the_walkthrough_schedule_produces_a_contended_log() {
    // The paper's schedule "1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2" counts
    // *moves*; our machine consumes one scheduling decision per query
    // point, so the equivalent decision sequence doubles the leading 1
    // (the first turn only reaches acq's query point). Participant 1 wins
    // the lock and participant 2 spins, exactly as in §2.
    let schedule: Vec<Pid> = [1, 1, 2, 2, 2, 1, 2, 2].into_iter().map(Pid).collect();
    let out = run_with_schedule(schedule);
    let stripped = out.log.without_sched();
    let kinds: Vec<&EventKind> = stripped.iter().map(|e| &e.kind).collect();
    // Both participants fetched tickets; p1's FAI came first.
    let fai_authors: Vec<Pid> = out
        .log
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaiT(_)))
        .map(|e| e.pid)
        .collect();
    assert_eq!(fai_authors, vec![Pid(1), Pid(2)]);
    // Participant 2 spun: it probed get_n more than once.
    let p2_probes = out
        .log
        .iter()
        .filter(|e| e.pid == Pid(2) && matches!(e.kind, EventKind::GetN(_)))
        .count();
    assert!(
        p2_probes > 1,
        "p2 spun while p1 held the lock, got {kinds:?}"
    );
    // Final shared state: both critical sections completed.
    let st = replay_ticket(&out.log, B);
    assert_eq!(st.next, 2);
    assert_eq!(st.serving, 2);
}

#[test]
fn r1_abstracts_the_walkthrough_to_the_atomic_log() {
    let schedule: Vec<Pid> = [1, 1, 2, 2, 2, 1, 2, 2].into_iter().map(Pid).collect();
    let out = run_with_schedule(schedule);
    let lg = r1_relation().abstracted(&out.log).expect("in R1's domain");
    // The abstracted log begins exactly as the paper's lg:
    // (1.acq)•(1.f)•(1.g)•(1.rel)•(2.acq) ... (then 2's critical section
    // completes, since our run finishes both participants).
    let prefix: Vec<(Pid, String)> = lg
        .iter()
        .take(5)
        .map(|e| (e.pid, format!("{:?}", std::mem::discriminant(&e.kind))))
        .collect();
    assert_eq!(lg[0].pid, Pid(1));
    assert!(
        matches!(lg[0].kind, EventKind::Acq(b) if b == B),
        "{prefix:?}"
    );
    assert!(matches!(&lg[1].kind, EventKind::Prim(n, _) if n == "f"));
    assert!(matches!(&lg[2].kind, EventKind::Prim(n, _) if n == "g"));
    assert!(matches!(lg[3].kind, EventKind::Rel(b) if b == B));
    assert_eq!(lg[4].pid, Pid(2));
    assert!(matches!(lg[4].kind, EventKind::Acq(b) if b == B));
    // "The order of lock acquiring and the resulting shared state ... are
    // exactly the same": the atomic log replays to a free lock.
    assert_eq!(replay_atomic_lock(&lg, B), Ok(None));
}

#[test]
fn every_fair_schedule_yields_the_same_acquisition_semantics() {
    // Whatever the interleaving, the two critical sections are serialized
    // and the abstracted log is always a legal atomic lock history.
    for seed in 0..16_u32 {
        let schedule: Vec<Pid> = (0..6).map(|i| Pid(1 + ((seed >> i) & 1))).collect();
        let out = run_with_schedule(schedule);
        let lg = r1_relation().abstracted(&out.log).expect("in R1's domain");
        replay_atomic_lock(&lg, B).expect("well-bracketed atomic history");
        // f and g always appear inside their author's critical section.
        let mut holder: Option<Pid> = None;
        for e in lg.iter() {
            match e.kind {
                EventKind::Acq(_) => holder = Some(e.pid),
                EventKind::Rel(_) => holder = None,
                EventKind::Prim(_, _) => {
                    assert_eq!(holder, Some(e.pid), "f/g outside the critical section");
                }
                _ => {}
            }
        }
    }
}
