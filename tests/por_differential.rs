//! The POR axis of the engine differential (`tests/engine`): running any
//! bounded checker over the POR-reduced grid must produce the same
//! verdict and the same first-failure evidence as the full, unreduced
//! grid — the only permitted difference is the number of cases skipped as
//! trace-equivalent (`cases_reduced`), under the accounting rule. Covers
//! all five bounded checkers: `check_prim_refinement`, liveness, race
//! freedom, linearizability, and sequence refinement.

mod engine;

use ccal::core::calculus::LayerError;
use ccal::core::id::{Loc, Pid, PidSet};
use ccal::core::sim::SimRelation;
use ccal::machine::mx86::mx86_hw_interface;
use ccal::verifier::fifo_history_validator;
use engine::{
    assert_accounting, assert_por_accounting, assert_same_sim_verdict, assert_same_verdict,
    atomic_queue_iface, counter_iface, enq_deq_programs, five_checkers, grid, int_args, marked,
    op_pair, pull_push_programs, racy_grid, random_contexts, sim_counts, wait_for_iface, Row,
    SHIPPED,
};

/// The POR axis: the shipped engine with the reduction on and off.
const ON: Row = SHIPPED;
const OFF: Row = SHIPPED.with_por(false);

#[test]
fn sim_refinement_verdict_and_accounting_match_the_full_grid() {
    let iface = counter_iface("L-ctr", false);
    let contexts = grid(3);
    let run = |row: Row| {
        row.refinement(&iface, "bump", &iface, "bump", &contexts, &[vec![]], &[])
            .expect("identity refinement holds")
    };
    let (on, off) = (run(ON), run(OFF));
    assert!(on.cases_reduced > 0, "the grid must actually reduce");
    assert_eq!(
        on.cases_reduced,
        marked(&contexts),
        "only marked contexts are reduced"
    );
    assert_por_accounting(sim_counts(&on), sim_counts(&off));
}

#[test]
fn sim_first_failure_is_identical_with_and_without_por() {
    // Broken for every argument ≥ 5 in every context: all configurations
    // must select the same smallest case index.
    let (lower, upper) = op_pair(5);
    let contexts = grid(3);
    let args = int_args(8);
    let rows = [
        OFF.with_dedup(false),
        ON.with_dedup(false),
        ON.with_workers(4).with_dedup(false),
        ON.with_workers(4),
    ];
    let failures: Vec<_> = rows
        .iter()
        .map(|row| {
            row.refinement(&lower, "op", &upper, "op", &contexts, &args, &[])
                .expect_err("the refinement is broken")
        })
        .collect();
    assert!(
        failures[0].case.starts_with("context #0, args #5"),
        "full-grid first failure must be the smallest case index, got {}",
        failures[0].case
    );
    for (row, failure) in rows.iter().zip(&failures) {
        assert_eq!(
            format!("{failure}"),
            format!("{}", failures[0]),
            "{row:?} selected a different failure"
        );
    }
}

#[test]
fn liveness_verdict_and_failure_match_the_full_grid() {
    let contexts = grid(3);
    // Generous bound: the verdict is Ok; accounting must agree.
    let ok = |row: Row| {
        row.liveness(
            &wait_for_iface(0),
            "wait",
            &[],
            Pid(0),
            &contexts,
            64,
            100_000,
        )
        .expect("trivial wait completes")
    };
    assert_accounting(&ok(ON), &ok(OFF), &contexts);
    // Over-budget: a zero-step bound fails on the first context that
    // consumes any scheduling step. Both runs must report the same
    // context index and the same observed step count.
    let over = |row: Row| {
        row.liveness(
            &wait_for_iface(1),
            "wait",
            &[],
            Pid(0),
            &contexts,
            0,
            100_000,
        )
        .expect_err("a zero-step bound is over-budget somewhere")
    };
    assert_eq!(over(ON).to_string(), over(OFF).to_string());
}

#[test]
fn race_freedom_verdict_and_failure_match_the_full_grid() {
    // Race-free: the focused pid owns its location.
    let contexts = grid(3);
    let focused = PidSet::from_pids([Pid(0)]);
    let safe = pull_push_programs(&[(Pid(0), Loc(50))]);
    let ok = |row: Row| {
        row.race_freedom(&mx86_hw_interface(), &focused, &safe, &contexts, 50_000)
            .expect("disjoint locations are race-free")
    };
    assert_accounting(&ok(ON), &ok(OFF), &contexts);
    // Racy: two focused pids share a location with fully preemptible
    // pull/push, next to the two independent scratch threads — the
    // machine gets stuck on some interleaving, and both runs must report
    // the same first stuck context.
    let racy_contexts = racy_grid(3);
    let both = PidSet::from_pids([Pid(0), Pid(1)]);
    let racy = pull_push_programs(&[(Pid(0), Loc(0)), (Pid(1), Loc(0))]);
    let fail = |row: Row| {
        row.race_freedom(&mx86_hw_interface(), &both, &racy, &racy_contexts, 50_000)
            .expect_err("fully preemptible sharing races somewhere")
    };
    assert_eq!(fail(ON).to_string(), fail(OFF).to_string());
}

#[test]
fn linearizability_verdict_and_failure_match_the_full_grid() {
    let contexts = grid(3);
    let focused = PidSet::from_pids([Pid(0)]);
    let programs = enq_deq_programs();
    let run = |deq_ret: Option<i64>, row: Row| {
        row.linearizability(
            &atomic_queue_iface(deq_ret),
            &focused,
            &programs,
            &SimRelation::identity(),
            &*fifo_history_validator("deq"),
            &contexts,
            100_000,
        )
    };
    let on = run(None, ON).expect("atomic queue is linearizable");
    let off = run(None, OFF).expect("atomic queue is linearizable");
    assert_accounting(&on, &off, &contexts);
    let broken_on = run(Some(999), ON).expect_err("999 is never predicted");
    let broken_off = run(Some(999), OFF).expect_err("999 is never predicted");
    assert_eq!(broken_on.to_string(), broken_off.to_string());
}

#[test]
fn sequence_refinement_verdict_and_failure_match_the_full_grid() {
    let contexts = grid(3);
    let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
    let run = |impl_iface: &_, row: Row| {
        row.sequence_refinement(
            impl_iface,
            &counter_iface("ctr-spec", false),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
        )
    };
    let honest = counter_iface("ctr-impl", false);
    let on = run(&honest, ON).expect("identical counters agree");
    let off = run(&honest, OFF).expect("identical counters agree");
    assert_accounting(&on, &off, &contexts);
    let broken = counter_iface("ctr-broken", true);
    let fail_on = run(&broken, ON).expect_err("diverges at n = 3");
    let fail_off = run(&broken, OFF).expect_err("diverges at n = 3");
    assert!(matches!(fail_on, LayerError::Mismatch { .. }));
    assert_eq!(fail_on.to_string(), fail_off.to_string());
}

// ---------------------------------------------------------------------------
// Property tests: POR soundness on randomly assembled grids.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// POR soundness on random stacks: for every random assignment of
    /// environment players (two object kinds over shared or disjoint
    /// footprints), all five bounded checkers return the same verdict and
    /// evidence on the reduced grid as on the full grid.
    #[test]
    fn por_preserves_all_five_checkers_on_random_grids(
        len in 2_usize..4,
        c1 in 0_u8..4,
        c2 in 0_u8..4,
        c3 in 0_u8..4,
        broken in 0_u8..2,
    ) {
        let contexts = random_contexts(len, [c1, c2, c3]);
        let broken = broken == 1;
        // Focused pids must not also be environment players.
        let race = c1 == 0;
        let on = five_checkers(ON, &contexts, broken, race);
        let off = five_checkers(OFF, &contexts, broken, race);
        assert_same_sim_verdict(&on.sim, &off.sim);
        assert_same_verdict(&on.live, &off.live);
        if let (Some(a), Some(b)) = (&on.race, &off.race) {
            assert_same_verdict(a, b);
        }
        assert_same_verdict(&on.linz, &off.linz);
        assert_same_verdict(&on.seqref, &off.seqref);
    }
}
