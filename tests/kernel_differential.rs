//! The engine differential (`tests/engine`) on real workloads: every
//! bounded checker — simulation, liveness, linearizability, race freedom
//! and sequence refinement — routes its grid walk, prefix memoization,
//! query-point snapshotting, POR pruning and forensics capture through
//! the one exploration kernel (`ccal_core::explore::Kernel`). For the
//! ticket-lock stack of §2 and the queuing lock of Fig. 11 the verdict,
//! the case accounting, and the first-failure evidence must be
//! byte-identical across every `workers × por × prefix/deep` row, and the
//! process-global step counters must reproduce exactly on repeated serial
//! runs.

mod engine;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ccal::core::conc::ThreadScript;
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::id::{Loc, Pid, PidSet};
use ccal::core::layer::LayerInterface;
use ccal::core::sim::SimRelation;
use ccal::core::val::Val;
use ccal::machine::mx86::mx86_hw_interface;
use ccal::objects::qlock::{certify_qlock, qlock_overlay, QlockEnvPlayer};
use ccal::objects::ticket::{
    l0_interface, lock_interface, lock_low_interface, m1_module, r1_relation, TicketEnvPlayer,
};
use ccal::verifier::{lock_history_validator, ticket_bound, OpScript};
use engine::{assert_sharing_invisible, SHIPPED};

const B: Loc = Loc(0);
const FUEL: u64 = 200_000;

/// The step counters asserted by [`serial_step_counters_are_reproducible`]
/// are process-global; serialize every test in this binary so concurrent
/// checker runs cannot pollute the bracketed measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `M1` (real ClightX `acq`/`rel` bodies) installed over the ticket
/// underlay — the implementation side of the paper's Fig. 5 fun-lift.
fn ticket_iface() -> LayerInterface {
    m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs over L0")
}

/// Contexts with a real contending lock client, so `acq` consumes a
/// schedule-dependent number of query points (exercising the snapshot
/// trie, not just the flat memo).
fn ticket_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

fn game_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

fn acq_rel_programs(acq: &str, rel: &str) -> BTreeMap<Pid, ThreadScript> {
    [Pid(0), Pid(1)]
        .into_iter()
        .map(|pid| {
            (
                pid,
                vec![
                    (acq.to_owned(), vec![Val::Loc(B)]),
                    (rel.to_owned(), vec![Val::Loc(B)]),
                ],
            )
        })
        .collect()
}

#[test]
fn sim_on_the_ticket_stack_is_kernel_config_invariant() {
    let _g = serial();
    let lower = ticket_iface();
    let contexts = ticket_contexts();
    let args = vec![vec![Val::Loc(B)]];
    // Honest: the fun-lift obligation `L0 ⊢_id M1 : L′1` restricted to
    // `acq`. Broken: comparing `acq` against `rel` diverges on the very
    // first abstracted event, so the counterexample (which must match
    // byte-for-byte across configurations) is exercised too.
    for upper_prim in ["acq", "rel"] {
        let references =
            assert_sharing_invisible(&format!("sim ticket upper={upper_prim}"), |row| {
                row.refinement(
                    &lower,
                    "acq",
                    &lock_low_interface(),
                    upper_prim,
                    &contexts,
                    &args,
                    &[],
                )
            });
        if upper_prim == "rel" {
            for reference in &references {
                assert!(reference.is_err(), "acq vs rel must be a counterexample");
            }
        }
    }
}

#[test]
fn liveness_on_ticket_acq_is_kernel_config_invariant() {
    let _g = serial();
    let iface = ticket_iface();
    let contexts = ticket_contexts();
    // The paper's bound passes; bound 1 is unmeetable, so both polarities
    // (obligation and starvation counterexample) are compared.
    for bound in [ticket_bound(4, 8, 2), 1] {
        let references = assert_sharing_invisible(&format!("live ticket bound={bound}"), |row| {
            row.liveness(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                bound,
                FUEL,
            )
        });
        for reference in &references {
            assert_eq!(reference.is_ok(), bound > 1, "bound {bound} polarity");
        }
    }
}

#[test]
fn linearizability_on_ticket_is_kernel_config_invariant() {
    let _g = serial();
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs("acq", "rel");
    let contexts = game_contexts();
    let honest = lock_history_validator();
    let reject: Box<ccal::verifier::linz::HistoryValidator> =
        Box::new(|_, _| Err("forced rejection (negative control)".to_owned()));
    for (label, validator, expect_ok) in [("honest", &honest, true), ("reject", &reject, false)] {
        let references = assert_sharing_invisible(&format!("linz ticket {label}"), |row| {
            row.linearizability(
                &iface,
                &focused,
                &programs,
                &r1_relation(),
                validator,
                &contexts,
                FUEL,
            )
        });
        for reference in &references {
            assert_eq!(reference.is_ok(), expect_ok, "{label} polarity");
        }
    }
}

#[test]
fn race_freedom_is_kernel_config_invariant() {
    let _g = serial();
    // Honest: the locked ticket client is race-free. Broken: fully
    // preemptible pull/push on the raw hardware machine gets stuck, and
    // the stuck-context evidence must match across configurations.
    let scenarios = [
        (
            "ticket",
            ticket_iface(),
            acq_rel_programs("acq", "rel"),
            true,
        ),
        (
            "mx86",
            mx86_hw_interface(),
            acq_rel_programs("pull", "push"),
            false,
        ),
    ];
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let contexts = game_contexts();
    for (label, iface, programs, expect_ok) in &scenarios {
        let references = assert_sharing_invisible(&format!("race {label}"), |row| {
            row.race_freedom(iface, &focused, programs, &contexts, FUEL)
        });
        for reference in &references {
            assert_eq!(reference.is_ok(), *expect_ok, "{label} polarity");
        }
    }
}

#[test]
fn sequence_refinement_on_ticket_is_kernel_config_invariant() {
    let _g = serial();
    let impl_iface = ticket_iface();
    let scripts: Vec<OpScript> = vec![vec![
        ("acq".to_owned(), vec![Val::Loc(B)]),
        ("rel".to_owned(), vec![Val::Loc(B)]),
    ]];
    let contexts = ticket_contexts();
    // The `R1` abstraction against the atomic lock spec is the certified
    // direction; the identity relation against the same spec diverges on
    // the low-level events. Either way the verdict — and, on failure, the
    // exact case index and rendered evidence — must be configuration
    // independent.
    for (label, relation) in [("r1", r1_relation()), ("id", SimRelation::identity())] {
        assert_sharing_invisible(&format!("seqref ticket {label}"), |row| {
            row.sequence_refinement(
                &impl_iface,
                &lock_interface(),
                &relation,
                Pid(0),
                &contexts,
                &scripts,
                FUEL,
            )
        });
    }
}

#[test]
fn qlock_overlay_checkers_are_kernel_config_invariant() {
    let _g = serial();
    // The queuing-lock side of the differential: the atomic overlay's
    // `acq_q`/`rel_q` through linearizability, race freedom, sequence
    // refinement and liveness. (The full ClightX `Mql` stack is covered by
    // `qlock_certificate_is_deterministic_through_the_kernel`.)
    let iface = qlock_overlay();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs("acq_q", "rel_q");
    let contexts = game_contexts();
    let validator = lock_history_validator();
    let linz = assert_sharing_invisible("linz qlock", |row| {
        row.linearizability(
            &iface,
            &focused,
            &programs,
            &SimRelation::identity(),
            &validator,
            &contexts,
            FUEL,
        )
    });
    assert!(
        linz.iter().all(Result::is_ok),
        "atomic qlock histories linearize"
    );
    let race = assert_sharing_invisible("race qlock", |row| {
        row.race_freedom(&iface, &focused, &programs, &contexts, FUEL)
    });
    assert!(
        race.iter().all(Result::is_ok),
        "atomic qlock clients are race-free"
    );
    let scripts: Vec<OpScript> = vec![vec![
        ("acq_q".to_owned(), vec![Val::Loc(B)]),
        ("rel_q".to_owned(), vec![Val::Loc(B)]),
    ]];
    assert_sharing_invisible("seqref qlock", |row| {
        row.sequence_refinement(
            &iface,
            &iface,
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            FUEL,
        )
    });
    let live = assert_sharing_invisible("live qlock", |row| {
        row.liveness(&iface, "acq_q", &[Val::Loc(B)], Pid(0), &contexts, 32, FUEL)
    });
    assert!(
        live.iter().all(Result::is_ok),
        "uncontended acq_q completes promptly"
    );
}

#[test]
fn qlock_certificate_is_deterministic_through_the_kernel() {
    let _g = serial();
    // `certify_qlock` drives the real ClightX `Mql` module through
    // `check_fun` (the sim checker, now a kernel client). Two back-to-back
    // runs must render byte-identically.
    let contexts = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(QlockEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    let run = || {
        certify_qlock(Pid(0), B, contexts())
            .map(|layer| format!("{layer:?}"))
            .map_err(|e| format!("{e:?}"))
    };
    let first = run();
    assert_eq!(first, run(), "qlock certificate drifted between runs");
    let rendered = first.expect("the queuing lock certifies");
    assert!(
        rendered.contains("Obligation"),
        "certificate renders: {rendered}"
    );
}

#[test]
fn serial_step_counters_are_reproducible() {
    let _g = serial();
    // The atom-step / memo-hit / snapshot-resume counters are process-wide
    // and only serial-deterministic; two identical serial runs bracketed
    // by a reset must agree exactly, and the sharing counters must show
    // the kernel actually shared work on this grid.
    let iface = ticket_iface();
    let contexts = ticket_contexts();
    let run = || {
        ccal::core::prefix::steps_reset();
        let ob = SHIPPED
            .liveness(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                ticket_bound(4, 8, 2),
                FUEL,
            )
            .expect("acq is starvation-free under the rely");
        (
            format!("{ob:?}"),
            ccal::core::prefix::steps_total(),
            ccal::core::prefix::shared_total(),
            ccal::core::prefix::deep_total(),
            ccal::core::prefix::prim_steps_total(),
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "serial step counters drifted between runs");
    assert!(first.1 > 0, "executed runs must record atom-steps");
    assert!(
        first.2 + first.3 > 0,
        "the kernel must share at least one lower run on this grid"
    );
}
