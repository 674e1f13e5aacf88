//! Differential tests for **semantic sharing keys**
//! (`ccal_core::fingerprint::share_key`): keying warm exploration state
//! by lower-machine *content* instead of per-unit identity must be
//! observationally invisible — the same verdicts, the same case
//! accounting, and bit-identical index-least failure evidence — while
//! actually sharing state across content-equal units, and *never*
//! exchanging state between machines whose content differs.
//!
//! Three layers of coverage:
//!
//! 1. **Registry differential**: every known stack is certified twice —
//!    pinned per-unit keys cold (`ShareSemanticOverride::force(false)`,
//!    the old behavior) vs. semantic keys with one warm map shared across units
//!    exactly as `ccal-certd` runs it — across workers × POR ×
//!    prefix/deep sharing × both ClightX execution tiers.
//! 2. **Checker differential**: all five bounded checkers run on a
//!    "twin" grid — two content-equal context generators concatenated —
//!    once with the twins pinned to distinct families (isolated) and
//!    once pinned to one shared semantic family (cross-twin sharing
//!    live). Verdicts and evidence must be byte-identical.
//! 3. **Hostile aliasing**: two ClightX machines differing only in one
//!    primitive body must produce distinct `ShareKey`s, and a warm state
//!    populated by one must never serve the other — its verdict,
//!    evidence *and work counters* must equal a cold run's.
//!
//! The semantic-sharing override and the engine's sharing counters are
//! process-global, so every test in this binary serializes on one mutex.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use ccal::core::calculus::{LayerError, Obligation};
use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::fingerprint::{share_key, ShareKey};
use ccal::core::id::{Loc, Pid, PidSet, QId};
use ccal::core::layer::{LayerInterface, PrimSpec};
use ccal::core::prefix::{self, BytecodeOverride, ShareSemanticOverride};
use ccal::core::sim::{
    check_prim_refinement, SimEvidence, SimFailure, SimOptions, SimRelation, SimWarm,
};
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::objects::ticket::TicketEnvPlayer;
use ccal::verifier::{
    check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
    check_sequence_refinement_tuned, fifo_history_validator,
};
use ccal_certd::registry::{self, UnitOutcome, WarmMap};
use ccal_certd::CertParams;

/// Serializes the tests in this binary: the semantic-sharing override and
/// the prefix counters are process-global.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// 1. Registry differential: semantic + warm vs. pinned + cold.
// ---------------------------------------------------------------------------

/// Certifies every unit of `stack` in pipeline order. With `semantic`
/// off, this is the pre-sharing engine: per-unit pinned keys, no warm
/// state. With `semantic` on, units draw warm state from one [`WarmMap`]
/// keyed by their semantic sharing key — the daemon's exact flow — so
/// content-equal units feed each other.
fn certify_stack(stack: &str, params: &CertParams, semantic: bool) -> Vec<UnitOutcome> {
    let _mode = ShareSemanticOverride::force(semantic);
    let warm = WarmMap::new();
    registry::stack_units(stack, params)
        .expect("stack resolves")
        .iter()
        .map(|u| {
            let w = semantic.then(|| warm.get(&u.share));
            registry::run_unit(stack, &u.name, params, None, w.as_ref())
                .expect("unit runs")
        })
        .collect()
}

#[test]
fn registry_verdicts_are_identical_between_semantic_and_pinned_keys() {
    let _guard = serial();
    for stack in ["ticket", "qlock", "scratch"] {
        // (ClightX tier, params): the tier is process-wide, chosen by a
        // `BytecodeOverride` around each pair of runs.
        let mut grid: Vec<(bool, CertParams)> = Vec::new();
        for bytecode in [true, false] {
            for workers in [1, 4] {
                for por in [true, false] {
                    let mut p = CertParams::default();
                    p.workers = workers;
                    p.por = por;
                    grid.push((bytecode, p));
                }
            }
        }
        // The prefix/deep sharing axis, at the default corner.
        for (prefix_share, deep_share) in [(true, false), (false, false)] {
            let mut p = CertParams::default();
            p.prefix_share = prefix_share;
            p.deep_share = deep_share;
            grid.push((true, p));
        }
        for (bytecode, params) in &grid {
            let _tier = BytecodeOverride::force(*bytecode);
            let pinned = certify_stack(stack, params, false);
            let shared = certify_stack(stack, params, true);
            assert_eq!(
                pinned, shared,
                "stack `{stack}` drifted under semantic sharing \
                 (workers={} por={} prefix={} deep={} bytecode={})",
                params.workers, params.por, params.prefix_share, params.deep_share,
                bytecode
            );
            // The differential only has teeth if both polarities appear:
            // scratch must fail (with rendered index-least evidence held
            // byte-identical above), the lock stacks must certify.
            let failures = pinned.iter().filter(|o| o.failure.is_some()).count();
            if stack == "scratch" {
                assert!(failures > 0, "scratch is the known-failing fixture");
            } else {
                assert_eq!(failures, 0, "stack `{stack}` must certify");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Checker differential on twin grids: shared family vs. pinned twins.
// ---------------------------------------------------------------------------

/// Two content-equal context generators, concatenated. With
/// `family: None` each half keeps its own pinned (process-unique)
/// family — the halves explore in isolation. With `family: Some(f)` both
/// halves are pinned to `f`, so the engine's memo/snapshot keys alias
/// across the halves and the second half can be served by the first —
/// the cross-unit sharing regime in miniature.
fn twin_grid(family: Option<u64>) -> Vec<EnvContext> {
    let half = || {
        ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
            .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), Loc(0), 1)))
            .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
            .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
            .with_schedule_len(2)
            .with_max_contexts(16)
            .with_por(true)
    };
    let (a, b) = match family {
        Some(f) => (half().with_family(f), half().with_family(f)),
        None => (half(), half()),
    };
    let mut out = a.contexts();
    out.extend(b.contexts());
    out
}

/// A semantic family for the twin grid, derived the production way: from
/// the lower machine's content. (Any stable `u64` would pin the family;
/// going through [`share_key`] keeps the test aligned with how `ccal-certd`
/// derives it.)
fn twin_family(lower: &LayerInterface) -> u64 {
    share_key(
        &[],
        lower,
        Pid(0),
        |h| h.str("ctx.kind", "twin"),
        &SimOptions::default(),
    )
    .family()
}

fn assert_invisible(
    label: &str,
    reference: &Result<Obligation, LayerError>,
    shared: &Result<Obligation, LayerError>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: obligation drifted under family sharing"),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: failure evidence drifted under family sharing"
        ),
        (a, b) => panic!("{label}: verdicts diverged: {a:?} (pinned) vs {b:?} (shared)"),
    }
}

fn assert_sim_invisible(
    label: &str,
    reference: &Result<SimEvidence, Box<SimFailure>>,
    shared: &Result<SimEvidence, Box<SimFailure>>,
) {
    match (reference, shared) {
        (Ok(a), Ok(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim evidence drifted under family sharing"
        ),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{label}: sim counterexample drifted under family sharing"
        ),
        (a, b) => panic!("{label}: sim verdicts diverged: {a:?} (pinned) vs {b:?} (shared)"),
    }
}

fn counter_iface(name: &str, broken: bool) -> LayerInterface {
    LayerInterface::builder(name)
        .prim(PrimSpec::atomic("bump", move |ctx, _| {
            let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
            ctx.abs.set("n", Val::Int(n));
            ctx.emit(EventKind::Prim("bump".into(), vec![]));
            Ok(Val::Int(if broken && n >= 3 { n + 1 } else { n }))
        }))
        .build()
}

const WORKERS: [usize; 2] = [1, 4];
const POR: [bool; 2] = [false, true];
const DEEP: [bool; 2] = [false, true];

#[test]
fn sim_refinement_matches_between_shared_and_pinned_twin_grids() {
    let _guard = serial();
    let lower = LayerInterface::builder("LD")
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
            Ok(args[0].clone())
        }))
        .build();
    let upper = |broken: bool| {
        LayerInterface::builder("UD")
            .prim(PrimSpec::atomic("op", move |ctx, args| {
                ctx.emit(EventKind::Prim("op".into(), vec![args[0].clone()]));
                let n = args[0].as_int()?;
                Ok(Val::Int(if broken && n >= 4 { n + 1 } else { n }))
            }))
            .build()
    };
    let family = twin_family(&lower);
    let args: Vec<Vec<Val>> = (0..6).map(|i| vec![Val::Int(i)]).collect();
    for broken in [false, true] {
        let up = upper(broken);
        let run = |contexts: &[EnvContext], deep: bool, workers: usize, por: bool| {
            check_prim_refinement(
                &lower,
                "op",
                &up,
                "op",
                &SimRelation::identity(),
                Pid(0),
                contexts,
                &args,
                // Case-level dedup off: the twin halves are content-equal,
                // so with dedup on the second half would be answered before
                // the family-keyed memo is ever consulted — family sharing
                // must be the live mechanism here.
                &SimOptions::default()
                    .with_dedup(false)
                    .with_prefix_share(true)
                    .with_deep_share(deep)
                    .with_workers(workers)
                    .with_por(por),
            )
        };
        for por in POR {
            for workers in WORKERS {
                for deep in DEEP {
                    let pinned = run(&twin_grid(None), deep, workers, por);
                    let shared = run(&twin_grid(Some(family)), deep, workers, por);
                    assert_sim_invisible(
                        &format!("sim broken={broken} deep={deep} workers={workers} por={por}"),
                        &pinned,
                        &shared,
                    );
                }
            }
        }
        // Teeth: on a serial deterministic run, the shared-family twins
        // must record strictly more sharing than the pinned twins — the
        // second half is being served by the first. (Honest arm only: the
        // broken arm stops at its index-least failure, which lies in the
        // first half, before any cross-half reuse can happen.)
        if !broken {
            let shares = |contexts: &[EnvContext]| {
                let before = prefix::shared_total();
                let _ = run(contexts, true, 1, true);
                prefix::shared_total() - before
            };
            let pinned_shares = shares(&twin_grid(None));
            let shared_shares = shares(&twin_grid(Some(family)));
            assert!(
                shared_shares > pinned_shares,
                "shared-family twins must actually share across the halves \
                 ({shared_shares} vs {pinned_shares} pinned)"
            );
        }
    }
}

#[test]
fn liveness_matches_between_shared_and_pinned_twin_grids() {
    let _guard = serial();
    use ccal::core::layer::{PrimCtx, PrimRun, PrimStep};
    use ccal::core::machine::MachineError;
    struct WaitFor(usize);
    impl PrimRun for WaitFor {
        fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
            if ctx.log.without_sched().len() >= self.0 {
                ctx.emit(EventKind::Prim("done".into(), vec![]));
                Ok(PrimStep::Done(Val::Unit))
            } else {
                Ok(PrimStep::Query)
            }
        }
    }
    let iface = LayerInterface::builder("L-wait")
        .prim(PrimSpec::strategy("wait", true, move |_, _| {
            Box::new(WaitFor(1))
        }))
        .build();
    let family = twin_family(&iface);
    for bound in [64, 0] {
        let run = |contexts: &[EnvContext], deep: bool, workers: usize, por: bool| {
            check_liveness_tuned(
                &iface, "wait", &[], Pid(0), contexts, bound, 100_000, workers, por, true, deep,
            )
        };
        for por in POR {
            for workers in WORKERS {
                for deep in DEEP {
                    assert_invisible(
                        &format!("live bound={bound} deep={deep} workers={workers} por={por}"),
                        &run(&twin_grid(None), deep, workers, por),
                        &run(&twin_grid(Some(family)), deep, workers, por),
                    );
                }
            }
        }
    }
}

#[test]
fn race_freedom_matches_between_shared_and_pinned_twin_grids() {
    let _guard = serial();
    use ccal::machine::mx86::mx86_hw_interface;
    let iface = mx86_hw_interface();
    let family = twin_family(&iface);
    let focused = PidSet::from_pids([Pid(0)]);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("pull".to_owned(), vec![Val::Loc(Loc(50))]),
            ("push".to_owned(), vec![Val::Loc(Loc(50))]),
        ],
    );
    let run = |contexts: &[EnvContext], deep: bool, workers: usize, por: bool| {
        check_race_freedom_tuned(
            &iface, &focused, &programs, contexts, 50_000, workers, por, true, deep,
        )
    };
    for por in POR {
        for workers in WORKERS {
            for deep in DEEP {
                assert_invisible(
                    &format!("race deep={deep} workers={workers} por={por}"),
                    &run(&twin_grid(None), deep, workers, por),
                    &run(&twin_grid(Some(family)), deep, workers, por),
                );
            }
        }
    }
}

#[test]
fn linearizability_matches_between_shared_and_pinned_twin_grids() {
    let _guard = serial();
    let queue_iface = |broken: bool| {
        let mut b = LayerInterface::builder("Lq").prim(PrimSpec::atomic("enq", |ctx, args| {
            let q = QId(args[0].as_int()? as u32);
            ctx.emit(EventKind::EnQ(q, args[1].clone()));
            Ok(Val::Unit)
        }));
        b = if broken {
            b.prim(PrimSpec::atomic("deq", |ctx, args| {
                let q = QId(args[0].as_int()? as u32);
                ctx.emit(EventKind::DeQ(q));
                Ok(Val::Int(999))
            }))
        } else {
            b.prim(PrimSpec::atomic("deq", |ctx, args| {
                let q = QId(args[0].as_int()? as u32);
                ctx.emit(EventKind::DeQ(q));
                Ok(ccal::core::replay::deq_result(ctx.log, ctx.log.len() - 1))
            }))
        };
        b.build()
    };
    let focused = PidSet::from_pids([Pid(0)]);
    let mut programs = BTreeMap::new();
    programs.insert(
        Pid(0),
        vec![
            ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
            ("deq".to_owned(), vec![Val::Int(0)]),
        ],
    );
    for broken in [false, true] {
        let iface = queue_iface(broken);
        let family = twin_family(&iface);
        let run = |contexts: &[EnvContext], deep: bool, workers: usize, por: bool| {
            check_linearizability_tuned(
                &iface,
                &focused,
                &programs,
                &SimRelation::identity(),
                &*fifo_history_validator("deq"),
                contexts,
                100_000,
                workers,
                por,
                true,
                deep,
            )
        };
        for por in POR {
            for workers in WORKERS {
                for deep in DEEP {
                    assert_invisible(
                        &format!("linz broken={broken} deep={deep} workers={workers} por={por}"),
                        &run(&twin_grid(None), deep, workers, por),
                        &run(&twin_grid(Some(family)), deep, workers, por),
                    );
                }
            }
        }
    }
}

#[test]
fn sequence_refinement_matches_between_shared_and_pinned_twin_grids() {
    let _guard = serial();
    let scripts = vec![
        vec![("bump".to_owned(), vec![]); 4],
        vec![("bump".to_owned(), vec![]); 2],
    ];
    for broken in [false, true] {
        let impl_iface = counter_iface("ctr-impl", broken);
        let spec_iface = counter_iface("ctr-spec", false);
        let family = twin_family(&impl_iface);
        let run = |contexts: &[EnvContext], deep: bool, workers: usize, por: bool| {
            check_sequence_refinement_tuned(
                &impl_iface,
                &spec_iface,
                &SimRelation::identity(),
                Pid(0),
                contexts,
                &scripts,
                100_000,
                workers,
                por,
                true,
                deep,
            )
        };
        for por in POR {
            for workers in WORKERS {
                for deep in DEEP {
                    assert_invisible(
                        &format!("seqref broken={broken} deep={deep} workers={workers} por={por}"),
                        &run(&twin_grid(None), deep, workers, por),
                        &run(&twin_grid(Some(family)), deep, workers, por),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Hostile aliasing: distinct content must never exchange warm state.
// ---------------------------------------------------------------------------

/// The minimal underlay the aliasing machines run over. `tick` returns a
/// constant so a machine's state after the call is schedule-independent.
fn tick_iface() -> LayerInterface {
    LayerInterface::builder("L-tick")
        .prim(PrimSpec::atomic("tick", |ctx, _| {
            ctx.emit(EventKind::Prim("tick".into(), vec![]));
            Ok(Val::Int(0))
        }))
        .build()
}

/// `op` with one underlay query point; `bump` selects the primitive
/// *body* — the only content difference between the hostile machines.
fn op_source(bump: i64) -> String {
    format!("int op(int x) {{ int t = tick(); return x + t + {bump}; }}")
}

fn op_machine(src: &str) -> LayerInterface {
    ccal::clightx::clightx_module("M", src)
        .expect("op module parses")
        .install(&tick_iface())
        .expect("op module installs")
}

/// The spec the machines are checked against: machine A (`bump = 1`)
/// refines it, machine B (`bump = 2`) must fail. Each machine gets its
/// own spec *name*: the interface name is an upper layer's content
/// identity in the upper-run cache signature, and this test isolates the
/// claim about *lower*-machine state — two checks deliberately sharing
/// one spec would (soundly) share replayed upper runs.
fn op_spec(name: &str) -> LayerInterface {
    LayerInterface::builder(name)
        .prim(PrimSpec::atomic("op", |ctx, args| {
            ctx.emit(EventKind::Prim("tick".into(), vec![]));
            Ok(Val::Int(args[0].as_int()? + 1))
        }))
        .build()
}

/// A 3-pid grid pinned to `family`; content-equal across calls so the
/// *only* thing distinguishing the hostile machines' key spaces is their
/// `ShareKey`.
fn aliasing_grid(family: u64) -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(100))))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(101))))
        .with_schedule_len(2)
        .with_max_contexts(16)
        .with_por(true)
        .with_family(family)
        .contexts()
}

#[test]
fn hostile_aliasing_gets_distinct_keys_and_never_exchanges_state() {
    let _guard = serial();
    let src_a = op_source(1);
    let src_b = op_source(2);
    for bytecode in [true, false] {
        let _tier = BytecodeOverride::force(bytecode);
        let machine_a = op_machine(&src_a);
        let machine_b = op_machine(&src_b);
        let spec_a = op_spec("U-op-A");
        let spec_b = op_spec("U-op-B");
        let base_opts = SimOptions::default()
            .with_prefix_share(true)
            .with_deep_share(true)
            .with_workers(1)
            .with_por(true);
        let key_of = |src: &str, iface: &LayerInterface| -> ShareKey {
            share_key(
                &[("M", src)],
                iface,
                Pid(0),
                |h| h.str("ctx.kind", "aliasing"),
                &base_opts,
            )
        };
        // One primitive body differs — the keys (and so the families and
        // every memo/snapshot key derived from them) must differ.
        let key_a = key_of(&src_a, &machine_a);
        let key_b = key_of(&src_b, &machine_b);
        assert_ne!(key_a, key_b, "body-only edits must change the ShareKey");
        assert_ne!(
            key_a.family(),
            key_b.family(),
            "body-only edits must change the sharing family"
        );

        let args: Vec<Vec<Val>> = (0..3).map(|i| vec![Val::Int(i)]).collect();
        // Runs one check and captures the work alongside the verdict: the
        // engine's global share/step counters plus the warm handle's own
        // hit deltas. Serial + deterministic, so equal work means equal
        // counters, exactly.
        let run = |iface: &LayerInterface, spec: &LayerInterface, family: u64, warm: &SimWarm| {
            let (steps0, shared0, deep0) =
                (prefix::steps_total(), prefix::shared_total(), prefix::deep_total());
            let w0 = warm.stats();
            let res = check_prim_refinement(
                iface,
                "op",
                spec,
                "op",
                &SimRelation::identity(),
                Pid(0),
                &aliasing_grid(family),
                &args,
                &base_opts.clone().with_warm(warm.clone()),
            );
            let w1 = warm.stats();
            let work = (
                prefix::steps_total() - steps0,
                prefix::shared_total() - shared0,
                prefix::deep_total() - deep0,
                w1.snapshot_hits - w0.snapshot_hits,
                w1.upper_hits - w0.upper_hits,
            );
            (format!("{res:?}"), work)
        };

        // Machine A populates a warm state...
        let warm = SimWarm::default();
        let (a_cold, a_cold_work) = run(&machine_a, &spec_a, key_a.family(), &warm);
        assert!(a_cold.starts_with("Ok"), "machine A refines its spec: {a_cold}");
        // ...which serves a re-run of A byte-identically (positive
        // control: under the *same* key, the warm state demonstrably
        // shares — so the zero-sharing assertion for B below has teeth).
        let (a_warm, a_warm_work) = run(&machine_a, &spec_a, key_a.family(), &warm);
        assert_eq!(a_cold, a_warm, "warm reuse must be invisible (tier bytecode={bytecode})");
        assert!(
            a_warm_work.1 > a_cold_work.1,
            "same-key warm reuse must share ({a_warm_work:?} vs cold {a_cold_work:?})"
        );

        // Machine B cold: the reference failure and reference work.
        let (b_cold, b_cold_work) = run(&machine_b, &spec_b, key_b.family(), &SimWarm::default());
        assert!(b_cold.starts_with("Err"), "machine B must fail its spec: {b_cold}");
        // Machine B against A's warm state: same failure bytes, same
        // work — not one entry of A's crossed the key boundary.
        let (b_hostile, b_hostile_work) = run(&machine_b, &spec_b, key_b.family(), &warm);
        assert_eq!(
            b_cold, b_hostile,
            "hostile warm state perturbed machine B's evidence (bytecode={bytecode})"
        );
        assert_eq!(
            b_cold_work, b_hostile_work,
            "machine B did different work against A's warm state — \
             state crossed the ShareKey boundary (bytecode={bytecode})"
        );
    }
}
