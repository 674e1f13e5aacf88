//! Property tests of the hardware machine `Mx86`: determinism per
//! schedule, permutation semantics of fetch-and-increment, and
//! schedule-sensitivity of outcomes.

use ccal_core::id::{Loc, Pid};
use ccal_core::val::Val;
use ccal_machine::linking::schedules;
use ccal_machine::mx86::{Mx86Machine, Mx86Program};
use proptest::prelude::*;

fn fai_program(ncpus: u32, per_cpu: usize) -> Mx86Program {
    let mut prog = Mx86Program::new();
    for c in 0..ncpus {
        prog.insert(
            Pid(c),
            (0..per_cpu)
                .map(|_| ("fai_t".to_owned(), vec![Val::Loc(Loc(0))]))
                .collect(),
        );
    }
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Given an environment context (a schedule), execution is
    /// deterministic — the §2 claim made executable: running the same
    /// program twice under the same schedule yields identical logs and
    /// results.
    #[test]
    fn execution_is_deterministic_per_schedule(seed in 0_usize..64) {
        let m = Mx86Machine::new(2);
        let program = fai_program(2, 2);
        let all = schedules(&m.domain(), 4, 64);
        let schedule = &all[seed % all.len()];
        let a = m.run_with_schedule(&program, schedule).expect("runs");
        let b = m.run_with_schedule(&program, schedule).expect("runs");
        prop_assert_eq!(a.log, b.log);
        prop_assert_eq!(a.rets, b.rets);
    }

    /// Whatever the interleaving, the tickets handed out by `fai_t` are a
    /// permutation of 0..n — atomicity of the hardware fetch-and-add.
    #[test]
    fn fai_hands_out_a_permutation(seed in 0_usize..256, ncpus in 1_u32..4, per_cpu in 1_usize..4) {
        let m = Mx86Machine::new(ncpus);
        let program = fai_program(ncpus, per_cpu);
        let all = schedules(&m.domain(), 4, 256);
        let schedule = &all[seed % all.len()];
        let out = m.run_with_schedule(&program, schedule).expect("runs");
        let mut tickets: Vec<i64> = out
            .rets
            .values()
            .flatten()
            .map(|v| v.as_int().expect("fai returns an int"))
            .collect();
        tickets.sort_unstable();
        let expected: Vec<i64> = (0..(ncpus as usize * per_cpu) as i64).collect();
        prop_assert_eq!(tickets, expected);
    }
}

#[test]
fn different_schedules_can_produce_different_outcomes() {
    // Nondeterminism lives in the schedule choice (and only there).
    let m = Mx86Machine::new(2);
    let program = fai_program(2, 1);
    let mut distinct = std::collections::BTreeSet::new();
    for schedule in schedules(&m.domain(), 4, 16) {
        let out = m.run_with_schedule(&program, &schedule).expect("runs");
        distinct.insert(format!("{:?}", out.rets));
    }
    assert!(
        distinct.len() > 1,
        "schedules must be able to change who wins"
    );
}
