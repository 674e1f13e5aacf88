//! The sharing axis of the engine differential (`tests/engine`): running
//! any bounded checker with the schedule-prefix trie
//! (`ccal_core::prefix`) on must be *observationally invisible* — the
//! same verdict, the same case accounting (checked/skipped/reduced), the
//! same first-failure case index, and bit-identical captured logs as the
//! memo-free engine, across serial and parallel workers and with the
//! partial-order reduction on or off. Every comparison runs with deep
//! sharing (the query-point snapshot trie,
//! `ccal_core::prefix::SnapshotTrie`) off and on, so forked-resume suffix
//! execution is held to the same invisibility contract.

mod engine;

use std::sync::Arc;

use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::id::{Loc, Pid, PidSet};
use ccal::core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal::core::log::Log;
use ccal::core::machine::MachineError;
use ccal::core::rely::{Conditions, Invariant, RelyGuarantee};
use ccal::core::sim::SimRelation;
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::machine::mx86::mx86_hw_interface;
use ccal::verifier::fifo_history_validator;
use engine::{
    assert_invisible, assert_sharing_invisible, atomic_queue_iface, counter_iface,
    enq_deq_programs, five_checkers, grid, int_args, op_pair, pull_push_programs, racy_grid,
    random_contexts, wait_for_iface, Row,
};

#[test]
fn sim_refinement_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    // 6 argument vectors so the memo's inner (argument) dimension is
    // exercised alongside the context dimension; broken for args ≥ 4 so
    // the index-least failing case is in the middle of the grid.
    let args = int_args(6);
    for broken in [false, true] {
        let (lower, upper) = op_pair(if broken { 4 } else { i64::MAX });
        let references = assert_sharing_invisible(&format!("sim broken={broken}"), |row| {
            row.refinement(&lower, "op", &upper, "op", &contexts, &args, &[])
        });
        if broken {
            for reference in &references {
                let failure = reference.as_ref().expect_err("broken for args >= 4");
                assert!(
                    format!("{failure}").contains("args #4"),
                    "first failure must be the index-least case, got {failure}"
                );
            }
        }
    }
}

/// A lower interface whose `gate` setup primitive queries the environment
/// until a non-scheduling event exists — so setup consumes a
/// schedule-dependent number of slots — under a rely condition violated
/// exactly when `Pid(2)` is the *first* environment pid to act (a
/// predicate that is decided within the consumed window and stable
/// afterwards). Contexts scheduling pid 2 first skip *during setup* at
/// prefix depth ≥ 1; the memoized skip must stay keyed at that depth (a
/// depth-0 entry would leak the skip to every schedule in the family —
/// the regression behind
/// `setup_skips_and_failures_stay_keyed_at_their_consumed_depth`).
fn gated_lower_iface() -> LayerInterface {
    struct Gate;
    impl PrimRun for Gate {
        fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
            if !ctx.log.without_sched().is_empty() {
                Ok(PrimStep::Done(Val::Unit))
            } else {
                Ok(PrimStep::Query)
            }
        }
    }
    LayerInterface::builder("L-gate")
        .prim(PrimSpec::strategy("gate", true, |_, _| Box::new(Gate)))
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .conditions(RelyGuarantee::new(
            Conditions::none().with(Invariant::new("pid2-not-first", |_, log: &Log| {
                log.iter()
                    .find(|e| !e.is_sched())
                    .is_none_or(|e| e.pid != Pid(2))
            })),
            Conditions::none(),
        ))
        .build()
}

fn gated_upper_iface(broken: bool) -> LayerInterface {
    LayerInterface::builder("U-gate")
        .prim(PrimSpec::atomic("gate", |_, _| Ok(Val::Unit)))
        .prim(PrimSpec::atomic("op", move |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            let n = args[0].as_int()?;
            Ok(Val::Int(if broken && n >= 1 { n + 1 } else { n }))
        }))
        .build()
}

/// Regression: a memoized setup-phase skip (or failure) that consumed
/// `d > 0` schedule slots must be re-cached for other argument indices at
/// depth `d`, not at the empty prefix — a depth-0 entry matches every
/// script of the family, so contexts whose schedules diverge inside the
/// setup window would inherit the wrong outcome and break sharing
/// invisibility.
#[test]
fn setup_skips_and_failures_stay_keyed_at_their_consumed_depth() {
    // Every environment pid acts every turn, so which pid the script
    // schedules first decides whether setup skips (pid 2 first), succeeds
    // (pids 1, 3 first), or keeps consuming slots (pid 0 — the focused
    // pid — until the round-robin tail lets an environment pid act).
    let contexts: Vec<EnvContext> = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(100))))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(101))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(102))))
        .with_schedule_len(2)
        .with_max_contexts(16)
        .with_por(true)
        .contexts();
    let lower = gated_lower_iface();
    // Two argument vectors: the poisoning path needs an inner index > 0
    // that replays the memoized setup outcome.
    let args = int_args(2);
    let setup = [("gate".to_owned(), Vec::new())];
    for broken in [false, true] {
        let upper = gated_upper_iface(broken);
        let references = assert_sharing_invisible(&format!("gated-setup broken={broken}"), |row| {
            row.refinement(&lower, "op", &upper, "op", &contexts, &args, &setup)
        });
        if !broken {
            // The grid must mix skipping and non-skipping setups, or the
            // scenario exercises nothing.
            for reference in &references {
                let ev = reference.as_ref().expect("honest pair verifies");
                assert!(ev.cases_skipped > 0, "some setups must skip");
                assert!(ev.cases_checked > 0, "some setups must succeed");
            }
        }
    }
}

#[test]
fn liveness_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    for bound in [64, 0] {
        assert_sharing_invisible(&format!("live bound={bound}"), |row| {
            row.liveness(
                &wait_for_iface(1),
                "wait",
                &[],
                Pid(0),
                &contexts,
                bound,
                100_000,
            )
        });
    }
}

#[test]
fn race_freedom_is_identical_with_and_without_sharing() {
    for broken in [false, true] {
        // Private location when honest; shared with a (racy) second
        // focused pid when broken — who then must not also be an
        // environment player.
        let (contexts, pids, programs) = if broken {
            (
                racy_grid(3),
                PidSet::from_pids([Pid(0), Pid(1)]),
                pull_push_programs(&[(Pid(0), Loc(0)), (Pid(1), Loc(0))]),
            )
        } else {
            (
                grid(3),
                PidSet::from_pids([Pid(0)]),
                pull_push_programs(&[(Pid(0), Loc(50))]),
            )
        };
        assert_sharing_invisible(&format!("race broken={broken}"), |row| {
            row.race_freedom(&mx86_hw_interface(), &pids, &programs, &contexts, 50_000)
        });
    }
}

#[test]
fn linearizability_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    let focused = PidSet::from_pids([Pid(0)]);
    let programs = enq_deq_programs();
    for broken in [false, true] {
        let iface = atomic_queue_iface(broken.then_some(999));
        assert_sharing_invisible(&format!("linz broken={broken}"), |row| {
            row.linearizability(
                &iface,
                &focused,
                &programs,
                &SimRelation::identity(),
                &*fifo_history_validator("deq"),
                &contexts,
                100_000,
            )
        });
    }
}

#[test]
fn sequence_refinement_is_identical_with_and_without_sharing() {
    let contexts = grid(3);
    // Two scripts so the memo's inner (script) dimension is exercised.
    let scripts = vec![
        vec![("bump".to_owned(), vec![]); 4],
        vec![("bump".to_owned(), vec![]); 2],
    ];
    let spec_iface = counter_iface("ctr-spec", false);
    for broken in [false, true] {
        let impl_iface = counter_iface("ctr-impl", broken);
        assert_sharing_invisible(&format!("seqref broken={broken}"), |row| {
            row.sequence_refinement(
                &impl_iface,
                &spec_iface,
                &SimRelation::identity(),
                Pid(0),
                &contexts,
                &scripts,
                100_000,
            )
        });
    }
}

// ---------------------------------------------------------------------------
// Property tests: sharing invisibility on randomly assembled grids.
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharing invisibility on random stacks: for every random assignment
    /// of environment players and both verdict polarities, all five
    /// bounded checkers return identical results with the trie on and
    /// off, serial and parallel, POR on and off.
    #[test]
    fn sharing_is_invisible_for_all_five_checkers_on_random_grids(
        len in 2_usize..4,
        c1 in 0_u8..4,
        c2 in 0_u8..4,
        c3 in 0_u8..4,
        broken in 0_u8..2,
        knobs in 0_u8..8,
    ) {
        let contexts = random_contexts(len, [c1, c2, c3]);
        let broken = broken == 1;
        let por = knobs & 1 == 1;
        let workers = if knobs & 2 == 2 { 4 } else { 1 };
        let row = Row::shared(workers, por, knobs & 4 == 4);
        // Focused pids must not also be environment players.
        let race = c1 == 0;
        let reference = five_checkers(Row::reference(por), &contexts, broken, race);
        let shared = five_checkers(row, &contexts, broken, race);
        let label = format!("{row:?}");
        assert_invisible(&format!("sim {label}"), &reference.sim, &shared.sim);
        assert_invisible(&format!("live {label}"), &reference.live, &shared.live);
        if let (Some(a), Some(b)) = (&reference.race, &shared.race) {
            assert_invisible(&format!("race {label}"), a, b);
        }
        assert_invisible(&format!("linz {label}"), &reference.linz, &shared.linz);
        assert_invisible(&format!("seqref {label}"), &reference.seqref, &shared.seqref);
    }
}
