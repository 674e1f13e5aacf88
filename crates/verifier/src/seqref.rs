//! Sequential (multi-call) refinement checking.
//!
//! The `Fun`-rule checker in `ccal-core` verifies one primitive invocation
//! from the initial state. Stateful objects — queues, schedulers — need
//! *sequences* of operations checked against their specifications, because
//! interesting behavior only appears from non-initial states ("the queue
//! is represented as a logical list in the specification, while it is
//! implemented as a doubly linked list", §6). [`check_sequence_refinement`]
//! runs whole operation scripts on a single machine pair and compares
//! every return value and the final logs through the simulation relation.

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::env::EnvContext;
use ccal_core::explore::{Case, ExploreOptions, Kernel};
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;
use ccal_core::machine::LayerMachine;
use ccal_core::sim::{replay_env, SimRelation};
use ccal_core::val::Val;

/// A script of operations for sequence checking.
pub type OpScript = Vec<(String, Vec<Val>)>;

/// Checks that the implementation interface refines the specification
/// interface on whole operation scripts: for every context and script, the
/// two machines return the same values call-for-call, and the final logs
/// are related by `relation`. The spec run's environment is derived from
/// the implementation run by abstraction + replay, as in Def. 2.1.
///
/// # Errors
///
/// [`LayerError::Mismatch`] on the first disagreeing case;
/// [`LayerError::Machine`] if a run fails outright.
pub fn check_sequence_refinement(
    impl_iface: &LayerInterface,
    spec_iface: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    contexts: &[EnvContext],
    scripts: &[OpScript],
    fuel: u64,
) -> Result<Obligation, LayerError> {
    check_sequence_refinement_tuned(
        impl_iface,
        spec_iface,
        relation,
        pid,
        contexts,
        scripts,
        fuel,
        1,
        true,
        true,
        true,
    )
}

/// [`check_sequence_refinement`] with every exploration knob explicit: the partial-order
/// reduction (`por`), an explicit worker count — `1`
/// explores the grid serially on the calling thread, the reference
/// behavior the forensics replay gate uses for bit-identical reproduction
/// — and explicit prefix-sharing of impl-machine runs across contexts with
/// common consumed schedule prefixes (see [`ccal_core::prefix`]).
/// `deep_share` additionally snapshots the impl machine mid-script at
/// every environment query point ([`ccal_core::prefix::SnapshotTrie`]), so
/// contexts diverging mid-call replay only their schedule suffix; it is
/// effective only when `prefix_share` is on.
///
/// # Errors
///
/// As [`check_sequence_refinement`].
#[allow(clippy::too_many_arguments)]
pub fn check_sequence_refinement_tuned(
    impl_iface: &LayerInterface,
    spec_iface: &LayerInterface,
    relation: &SimRelation,
    pid: Pid,
    contexts: &[EnvContext],
    scripts: &[OpScript],
    fuel: u64,
    workers: usize,
    por: bool,
    prefix_share: bool,
    deep_share: bool,
) -> Result<Obligation, LayerError> {
    // The impl-machine run is a deterministic function of the consumed
    // schedule prefix and the script index, so it is shared across contexts
    // via the kernel's prefix memo. The spec phase replays the abstracted
    // impl log (context-independent) and is recomputed per case: its
    // environment is derived from the memoized impl log, so recomputation
    // is deterministic.
    #[allow(clippy::items_after_statements)]
    #[derive(Clone)]
    enum ImplRun {
        Skipped,
        Failed {
            log: ccal_core::log::Log,
            err: ccal_core::machine::MachineError,
        },
        Done {
            log: ccal_core::log::Log,
            rets: Vec<Val>,
        },
    }
    // A query-point snapshot of the impl machine mid-script (deep
    // sharing): the in-flight run of script call `extra.0`, with the
    // return values of the calls already completed in `extra.1`.
    #[allow(clippy::items_after_statements)]
    type SeqSnap = ccal_core::explore::RunSnap<(usize, Vec<Val>)>;
    let nscripts = scripts.len();
    let kernel: Kernel<SeqSnap, ImplRun> =
        Kernel::new(&ExploreOptions::tuned(workers, por, prefix_share, deep_share));
    // Every impl and spec machine shares one `Arc` of its interface.
    let impl_shared = std::sync::Arc::new(impl_iface.clone());
    let spec_shared = std::sync::Arc::new(spec_iface.clone());
    let sched_consumed = |m: &LayerMachine| m.log.sched_count();
    // Runs script `si` on `m` from call index `first` (finishing `inflight`
    // first when resuming a snapshot), capturing a snapshot at every query
    // point when deep sharing is on. Returns the completed return values,
    // or the aborted outcome.
    let run_script = |m: &mut LayerMachine,
                      si: usize,
                      first: usize,
                      inflight: Option<Box<dyn ccal_core::layer::PrimRun>>,
                      mut rets: Vec<Val>,
                      key: Option<&ccal_core::prefix::ScheduleKey>|
     -> Result<Vec<Val>, ImplRun> {
        let script = &scripts[si];
        let mut next = first;
        if let Some(run) = inflight {
            let before = rets.clone();
            let mut hook = |mach: &LayerMachine, r: &dyn ccal_core::layer::PrimRun| {
                let Some(k) = key else { return };
                kernel.snapshot(k, si, sched_consumed(mach), || {
                    Some(SeqSnap {
                        machine: mach.fork(),
                        run: r.fork_run()?,
                        extra: (first, before.clone()),
                    })
                });
            };
            match m.resume_query(run, &mut hook) {
                Ok(v) => rets.push(v),
                Err(e) if e.is_invalid_context() => return Err(ImplRun::Skipped),
                Err(e) => {
                    return Err(ImplRun::Failed {
                        log: m.log.clone(),
                        err: e,
                    });
                }
            }
            next = first + 1;
        }
        for (i, (name, args)) in script.iter().enumerate().skip(next) {
            let before = rets.clone();
            let mut hook = |mach: &LayerMachine, r: &dyn ccal_core::layer::PrimRun| {
                let Some(k) = key else { return };
                kernel.snapshot(k, si, sched_consumed(mach), || {
                    Some(SeqSnap {
                        machine: mach.fork(),
                        run: r.fork_run()?,
                        extra: (i, before.clone()),
                    })
                });
            };
            let res = if kernel.deep() && key.is_some() {
                m.call_prim_with_snapshots(name, args, &mut hook)
            } else {
                m.call_prim(name, args)
            };
            match res {
                Ok(v) => rets.push(v),
                Err(e) if e.is_invalid_context() => return Err(ImplRun::Skipped),
                Err(e) => {
                    return Err(ImplRun::Failed {
                        log: m.log.clone(),
                        err: e,
                    });
                }
            }
        }
        Ok(rets)
    };
    let exec_impl = |env: &EnvContext, si: usize| -> (ImplRun, usize) {
        let key = kernel.deep_key(env);
        if let Some(k) = key {
            if let Some((_, SeqSnap { machine, run, extra: (call, rets) })) =
                kernel.resume_deepest(k, si)
            {
                // Resume the deepest snapshotted ancestor (the lookup
                // already forked it) and execute only the schedule
                // suffix, counting only the suffix work.
                let mut m = machine.with_env(env.clone());
                let pre = m.steps_taken() + m.log.len() as u64;
                let outcome = match run_script(&mut m, si, call, Some(run), rets, Some(k)) {
                    Ok(rets) => ImplRun::Done {
                        log: m.log.clone(),
                        rets,
                    },
                    Err(aborted) => aborted,
                };
                ccal_core::prefix::record_steps(m.steps_taken() + m.log.len() as u64 - pre);
                return (outcome, sched_consumed(&m));
            }
        }
        let mut impl_machine =
            LayerMachine::new(impl_shared.clone(), pid, env.clone()).with_fuel(fuel);
        let outcome = match run_script(&mut impl_machine, si, 0, None, Vec::new(), key) {
            Ok(rets) => ImplRun::Done {
                log: impl_machine.log.clone(),
                rets,
            },
            Err(aborted) => aborted,
        };
        ccal_core::prefix::record_steps(
            impl_machine.steps_taken() + impl_machine.log.len() as u64,
        );
        (outcome, sched_consumed(&impl_machine))
    };
    let explored = kernel.explore("seqref", contexts, nscripts, |ci, si| {
        let env = &contexts[ci];
        let script = &scripts[si];
        let fail = |reason: String, log: &ccal_core::log::Log, err: LayerError| {
            Case::failed(err, log.clone(), reason, format!("context #{ci}, script #{si}"))
        };
        let (impl_log, impl_rets) = match kernel.run_shared(env, si, || exec_impl(env, si)) {
            ImplRun::Skipped => return Case::Skipped,
            ImplRun::Failed { log, err } => {
                let reason = format!("impl machine failure: {err}");
                return fail(reason, &log, LayerError::Machine(err));
            }
            ImplRun::Done { log, rets } => (log, rets),
        };
        let Some(expected) = relation.abstracted(&impl_log) else {
            return fail(
                format!("log not in domain of {}", relation.name()),
                &impl_log,
                LayerError::Mismatch {
                    expected: format!("log in domain of {}", relation.name()),
                    found: impl_log.to_string(),
                    context: format!("sequence refinement, context #{ci}, script #{si}"),
                },
            );
        };
        let mut spec_machine =
            LayerMachine::new(spec_shared.clone(), pid, replay_env(&expected, pid)).with_fuel(fuel);
        let mut spec_rets = Vec::with_capacity(script.len());
        for (name, args) in script {
            match spec_machine.call_prim(name, args) {
                Ok(v) => spec_rets.push(v),
                Err(e) if e.is_invalid_context() => return Case::Skipped,
                Err(e) => {
                    let reason = format!("spec machine failure: {e}");
                    return fail(reason, &impl_log, LayerError::Machine(e));
                }
            }
        }
        if impl_rets != spec_rets {
            return fail(
                format!("rets diverge: impl {impl_rets:?} vs spec {spec_rets:?}"),
                &impl_log,
                LayerError::Mismatch {
                    expected: format!("{spec_rets:?} (spec)"),
                    found: format!("{impl_rets:?} (impl)"),
                    context: format!("sequence refinement rets, context #{ci}, script #{si}"),
                },
            );
        }
        // `expected` already is the abstraction of the impl log, so
        // R(impl, spec) reduces to one comparison (no re-abstraction).
        if expected != spec_machine.log.without_sched() {
            return fail(
                "final logs diverge through the relation".to_owned(),
                &impl_log,
                LayerError::Mismatch {
                    expected: spec_machine.log.to_string(),
                    found: impl_log.to_string(),
                    context: format!("sequence refinement logs, context #{ci}, script #{si}"),
                },
            );
        }
        Case::Checked(())
    });
    if let Some(e) = explored.failure {
        return Err(e);
    }
    Ok(Obligation {
        rule: Rule::IfaceSim,
        description: format!(
            "{} ≤_{} {} on {} op scripts",
            impl_iface.name,
            relation.name(),
            spec_iface.name,
            scripts.len()
        ),
        cases_checked: explored.cases_checked,
        cases_skipped: explored.cases_skipped,
        cases_reduced: explored.cases_reduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::event::EventKind;
    use ccal_core::layer::PrimSpec;

    /// An "implementation" counter that stores state in the abstract state,
    /// and a "spec" counter that replays the log — sequence refinement
    /// relates them.
    fn impl_iface() -> LayerInterface {
        LayerInterface::builder("ctr-impl")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
                ctx.abs.set("n", Val::Int(n));
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                Ok(Val::Int(n))
            }))
            .build()
    }

    fn spec_iface() -> LayerInterface {
        LayerInterface::builder("ctr-spec")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| e.pid == ctx.pid && matches!(&e.kind, EventKind::Prim(p, _) if p == "bump"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build()
    }

    #[test]
    fn stateful_and_replay_counters_agree_on_scripts() {
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(2)
            .contexts();
        let scripts = vec![
            vec![("bump".to_owned(), vec![]); 3],
            vec![("bump".to_owned(), vec![])],
        ];
        let ob = check_sequence_refinement(
            &impl_iface(),
            &spec_iface(),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn detects_divergence_mid_script() {
        // A broken spec that counts *all* pids' bumps diverges once the
        // env also bumps — but with an idle env it agrees; use a
        // deliberately wrong impl instead: skips every third increment.
        let broken = LayerInterface::builder("ctr-broken")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                let n = ctx.abs.get_or_undef("n").as_int().unwrap_or(0) + 1;
                ctx.abs.set("n", Val::Int(n));
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                Ok(Val::Int(if n >= 3 { n + 1 } else { n }))
            }))
            .build();
        let contexts = vec![ContextGen::new(vec![Pid(0)]).round_robin()];
        let scripts = vec![vec![("bump".to_owned(), vec![]); 4]];
        let err = check_sequence_refinement(
            &broken,
            &spec_iface(),
            &SimRelation::identity(),
            Pid(0),
            &contexts,
            &scripts,
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::Mismatch { .. }));
    }
}
