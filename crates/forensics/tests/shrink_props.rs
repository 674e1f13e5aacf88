//! Property tests for the shrink → artifact → replay pipeline.
//!
//! The `sim/scratch-sensitive` fixture's failure is *monotone* in the
//! environment's events: adding extra environment noise (env-pid schedule
//! slots, junk pushes to unrelated locations) to a failing context keeps
//! it failing. That lets these tests generate junk-augmented contexts
//! around the investigated 1-minimal witness without re-searching for a
//! failure, and assert the pipeline's contracts on each:
//!
//! * the junked context still fails its checker;
//! * shrinking it yields a context that still fails and is 1-minimal;
//! * probing the shrunk context is deterministic (bit-identical reason,
//!   case detail, and first-failure log across repeated runs and across a
//!   serialize/deserialize round trip);
//! * `investigate` produces byte-identical artifacts across
//!   `workers ∈ {1, 4}` × `por ∈ {on, off}`.

use std::sync::OnceLock;

use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid};
use ccal_core::val::Val;
use ccal_forensics::{
    all_fixtures, find, investigate, one_minimal, probe, replay_artifact, shrink_context, Fixture,
    RunConfig, ScriptedContext,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn sim_fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| find("sim", "scratch-sensitive").expect("registered fixture"))
}

/// The investigated 1-minimal witness the junk is layered onto.
fn base_context() -> &'static ScriptedContext {
    static BASE: OnceLock<ScriptedContext> = OnceLock::new();
    BASE.get_or_init(|| {
        investigate(sim_fixture(), &RunConfig::replay())
            .expect("sim fixture investigates")
            .context
    })
}

/// Applies failure-preserving junk: every op either inserts an *env-pid*
/// schedule slot (never the focused `p0`, which would let the checked
/// primitive finish before the scratch pushes land) or appends a push to
/// an unrelated location into an existing batch.
fn apply_junk(base: &ScriptedContext, ops: &[(u8, u8, u8)]) -> ScriptedContext {
    let mut sc = base.clone();
    for &(kind, sel, pos) in ops {
        let pid = Pid(1 + u32::from(sel) % 2);
        if kind % 2 == 0 {
            let at = usize::from(pos) % (sc.schedule.len() + 1);
            sc.schedule.insert(at, pid);
        } else {
            let ev = Event::new(
                pid,
                EventKind::Push(Loc(100 + u32::from(pos) % 8), Val::Int(i64::from(pos))),
            );
            let batches = sc.players.entry(pid).or_insert_with(|| vec![Vec::new()]);
            let at = usize::from(pos) % batches.len();
            batches[at].push(ev);
        }
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn junk_augmented_witnesses_shrink_to_one_minimal_failures(
        ops in vec((0_u8..255, 0_u8..255, 0_u8..255), 1..10),
    ) {
        let fx = sim_fixture();
        let junked = apply_junk(base_context(), &ops);
        prop_assert!(junked.steps() > base_context().steps() || ops.is_empty());

        // Monotonicity: the junk-augmented context still fails.
        prop_assert!(probe(fx, &junked).is_some(), "junked context stopped failing: {junked:?}");

        // Shrinking it yields a failing, 1-minimal context.
        let out = shrink_context(&junked, &mut |sc| probe(fx, sc).is_some());
        prop_assert!(out.context.steps() <= junked.steps());
        let witness = probe(fx, &out.context);
        prop_assert!(witness.is_some(), "shrunk context stopped failing");
        prop_assert!(one_minimal(&out.context, &mut |sc| probe(fx, sc).is_some()));

        // Probing is deterministic and survives a serialization round trip.
        let witness = witness.unwrap();
        let again = probe(fx, &out.context).unwrap();
        prop_assert_eq!(&again.reason, &witness.reason);
        prop_assert_eq!(&again.detail, &witness.detail);
        prop_assert_eq!(&again.log, &witness.log);
        let decoded = ScriptedContext::decode(
            &ccal_forensics::json::parse(&out.context.encode().pretty()).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(&decoded, &out.context);
        let replayed = probe(fx, &decoded).unwrap();
        prop_assert_eq!(&replayed.reason, &witness.reason);
        prop_assert_eq!(&replayed.log, &witness.log);
    }
}

/// `investigate` is a deterministic function of the fixture: the engine
/// knobs (worker count, POR, dedup, prefix sharing) never change which
/// case is reified,
/// how it shrinks, or the artifact bytes. POR may *skip* trace-equivalent
/// contexts, but the index-least failing case is never skippable — its
/// POR representative would be an earlier failure.
#[test]
fn investigation_is_identical_across_workers_and_por() {
    for fx in all_fixtures() {
        let reference = investigate(&fx, &RunConfig::replay())
            .unwrap_or_else(|e| panic!("investigate failed: {e}"));
        let reference_bytes = reference.encode().pretty();
        replay_artifact(&reference).expect("reference artifact replays");
        for workers in [1, 4] {
            for por in [false, true] {
                for prefix_share in [false, true] {
                    for deep_share in [false, true] {
                        let cfg = RunConfig {
                            workers,
                            dedup: workers > 1,
                            por,
                            prefix_share,
                            deep_share,
                        };
                        let got = investigate(&fx, &cfg)
                            .unwrap_or_else(|e| panic!("investigate failed under {cfg:?}: {e}"));
                        assert_eq!(
                            got.encode().pretty(),
                            reference_bytes,
                            "{}/{}: artifact drifted under workers={workers} por={por} \
                             prefix_share={prefix_share} deep_share={deep_share}",
                            fx.checker,
                            fx.object
                        );
                    }
                }
            }
        }
    }
}
