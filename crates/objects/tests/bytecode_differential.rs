//! Tier differential at the checker level: every verification driver —
//! simulation (`check_fun` via the ticket stack), liveness, race
//! freedom, linearizability and sequence refinement — must reach the
//! same verdict, with the same counts and the same first-failure
//! evidence, whether the ClightX bodies run on the bytecode VM or on
//! the tree-walking interpreter. The scenarios are ticket-lock layers
//! whose `acq`/`rel` are real ClightX code (`M1`), exercised across
//! worker counts, POR, and prefix/deep sharing.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ccal_core::conc::ThreadScript;
use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::prefix::BytecodeOverride;
use ccal_core::val::Val;
use ccal_objects::ticket::{
    certify_ticket_stack_tuned, l0_interface, lock_interface, m1_module, r1_relation,
    FooEnvPlayer, TicketEnvPlayer,
};
use ccal_verifier::{
    check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
    check_sequence_refinement_tuned, lock_history_validator, ticket_bound, OpScript,
};

const B: Loc = Loc(0);

/// The tier override is process-global; serialize every test that flips
/// it so parallel test threads cannot observe each other's tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` once per tier and asserts the outcomes are identical;
/// returns the (shared) outcome for further assertions.
fn both_tiers<T, F>(f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let _serial = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let on = {
        let _tier = BytecodeOverride::force(true);
        f()
    };
    let off = {
        let _tier = BytecodeOverride::force(false);
        f()
    };
    assert_eq!(on, off, "compiled and interpreted tiers diverged");
    on
}

/// The exploration settings the grid sweeps: (workers, por, prefix
/// sharing, deep sharing) — serial baseline, parallel + POR with prefix
/// memoization, and the full snapshot-trie configuration.
const GRID: [(usize, bool, bool, bool); 3] = [
    (1, false, false, false),
    (2, true, true, false),
    (2, true, true, true),
];

fn ticket_iface() -> LayerInterface {
    m1_module()
        .expect("M1 parses")
        .install(&l0_interface())
        .expect("M1 installs over L0")
}

fn liveness_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

#[test]
fn liveness_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let contexts = liveness_contexts();
    for (workers, por, prefix, deep) in GRID {
        let ob = both_tiers(|| {
            check_liveness_tuned(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                ticket_bound(4, 8, 2),
                200_000,
                workers,
                por,
                prefix,
                deep,
            )
            .map_err(|e| e.to_string())
        })
        .expect("acq is starvation-free under the rely");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn liveness_failure_evidence_is_tier_invariant() {
    let iface = ticket_iface();
    let contexts = liveness_contexts();
    for (workers, por, prefix, deep) in GRID {
        // Bound 1 is unmeetable: even an uncontended acq takes several
        // scheduling steps. Both tiers must starve at the same point
        // with the same rendered counterexample.
        let err = both_tiers(|| {
            check_liveness_tuned(
                &iface,
                "acq",
                &[Val::Loc(B)],
                Pid(0),
                &contexts,
                1,
                200_000,
                workers,
                por,
                prefix,
                deep,
            )
            .map_err(|e| e.to_string())
        })
        .expect_err("bound 1 must fail");
        assert!(
            err.contains("steps") || err.contains("starvation"),
            "unexpected failure shape: {err}"
        );
    }
}

fn acq_rel_programs() -> BTreeMap<Pid, ThreadScript> {
    let mut programs: BTreeMap<Pid, ThreadScript> = BTreeMap::new();
    for pid in [Pid(0), Pid(1)] {
        programs.insert(
            pid,
            vec![
                ("acq".to_owned(), vec![Val::Loc(B)]),
                ("rel".to_owned(), vec![Val::Loc(B)]),
            ],
        );
    }
    programs
}

fn game_contexts() -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts()
}

#[test]
fn race_freedom_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs();
    let contexts = game_contexts();
    for (workers, por, prefix, deep) in GRID {
        let outcome = both_tiers(|| {
            check_race_freedom_tuned(
                &iface,
                &focused,
                &programs,
                &contexts,
                200_000,
                workers,
                por,
                prefix,
                deep,
            )
            .map_err(|e| e.to_string())
        });
        let ob = outcome.expect("ticket acq/rel is race-free");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn linearizability_verdict_is_tier_invariant() {
    let iface = ticket_iface();
    let focused = PidSet::from_pids([Pid(0), Pid(1)]);
    let programs = acq_rel_programs();
    let contexts = game_contexts();
    let validator = lock_history_validator();
    for (workers, por, prefix, deep) in GRID {
        let outcome = both_tiers(|| {
            check_linearizability_tuned(
                &iface,
                &focused,
                &programs,
                &r1_relation(),
                &validator,
                &contexts,
                200_000,
                workers,
                por,
                prefix,
                deep,
            )
            .map_err(|e| e.to_string())
        });
        let ob = outcome.expect("ticket histories linearize to lock histories");
        assert!(ob.cases_checked > 0);
    }
}

#[test]
fn sequence_refinement_verdict_is_tier_invariant() {
    let impl_iface = ticket_iface();
    let spec_iface = lock_interface();
    let scripts: Vec<OpScript> = vec![vec![
        ("acq".to_owned(), vec![Val::Loc(B)]),
        ("rel".to_owned(), vec![Val::Loc(B)]),
    ]];
    let contexts = liveness_contexts();
    for (workers, por, prefix, deep) in GRID {
        // The verdict (pass or fail, and if fail: which case, why) must
        // match tier-for-tier; the interesting property is invariance,
        // not the verdict itself.
        let _outcome = both_tiers(|| {
            check_sequence_refinement_tuned(
                &impl_iface,
                &spec_iface,
                &r1_relation(),
                Pid(0),
                &contexts,
                &scripts,
                200_000,
                workers,
                por,
                prefix,
                deep,
            )
            .map_err(|e| e.to_string())
        });
    }
}

#[test]
fn full_ticket_stack_certificate_is_tier_invariant() {
    // The whole Fig. 5 pipeline — two `check_fun` obligations (both with
    // ClightX bodies), the log-lift, weakening and vertical composition —
    // rendered to its Debug form: every obligation count, rule name and
    // layer signature must match across tiers.
    let low = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    let atomic = || {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), B, 2)))
            .with_schedule_len(3)
            .contexts()
    };
    for (workers, dedup) in [(1, false), (2, true)] {
        let rendered = both_tiers(|| {
            certify_ticket_stack_tuned(Pid(0), B, low(), atomic(), workers, dedup)
                .map(|stack| format!("{stack:?}"))
                .map_err(|e| e.to_string())
        });
        let stack = rendered.expect("the ticket stack certifies");
        assert!(stack.contains("Obligation"), "certificate renders: {stack}");
    }
}

/// Every other object with ClightX bodies — the queuing lock, the MCS
/// lock, the condition variable, IPC, the shared queue and the scheduler
/// — certifies to the same rendered certificate on both tiers.
#[test]
fn object_certificates_are_tier_invariant() {
    use ccal_core::calculus::{CertifiedLayer, LayerError};
    use ccal_core::id::QId;
    use ccal_objects::{condvar, ipc, mcs, qlock, sched, sharedq};
    type Certify<'a> = Box<dyn Fn() -> Result<CertifiedLayer, LayerError> + 'a>;

    let grid = |player: Arc<dyn ccal_core::strategy::Strategy>| {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), player)
            .with_schedule_len(3)
            .contexts()
    };
    let (l, ch, q, cv, sleep_q) = (Loc(4), Loc(6), Loc(3), QId(8), QId(5));
    let objects: [(&str, Certify); 6] = [
        (
            "qlock",
            Box::new(|| {
                let player = qlock::QlockEnvPlayer::new(Pid(1), l, 2);
                qlock::certify_qlock(Pid(0), l, grid(Arc::new(player)))
            }),
        ),
        (
            "mcs",
            Box::new(|| {
                let player = mcs::McsEnvPlayer::new(Pid(1), B, 2);
                mcs::certify_mcs_lock(Pid(0), B, grid(Arc::new(player)))
            }),
        ),
        (
            "condvar",
            Box::new(|| {
                let player = condvar::CvEnvPlayer::new(Pid(1), cv, l);
                condvar::certify_condvar(Pid(0), cv, l, grid(Arc::new(player)))
            }),
        ),
        (
            "ipc",
            Box::new(|| {
                let player = ipc::SenderEnvPlayer::new(Pid(1), ch, 2);
                ipc::certify_ipc(Pid(0), ch, grid(Arc::new(player)))
            }),
        ),
        (
            "sharedq",
            Box::new(|| {
                let player = sharedq::SharedQEnvPlayer::new(Pid(1), q, 2);
                sharedq::certify_shared_queue(Pid(0), q, grid(Arc::new(player)))
            }),
        ),
        (
            "sched",
            Box::new(|| {
                let player = sched::WakerEnvPlayer::new(Pid(1), sleep_q, 2);
                sched::certify_scheduler(Pid(0), sleep_q, Loc(9), grid(Arc::new(player)))
            }),
        ),
    ];
    for (name, certify) in &objects {
        let rendered = both_tiers(|| {
            certify()
                .map(|layer| format!("{layer:?}"))
                .map_err(|e| e.to_string())
        });
        let layer = rendered.unwrap_or_else(|e| panic!("{name} certifies: {e}"));
        assert!(layer.contains("Obligation"), "{name} certificate renders: {layer}");
    }
}
