//! Liveness (starvation-freedom) checking.
//!
//! "By enforcing the fairness of the scheduler in rely conditions, saying
//! that any CPU can be scheduled within `m` steps, we can show the
//! liveness property (i.e., starvation-freedom): the while-loop in `acq`
//! terminates in `n × m × #CPU` steps" (§4.1).
//!
//! [`check_liveness`] executes an operation under every generated (fair,
//! rely-respecting) environment context and asserts it completes within
//! the declared step bound, measured in scheduling events consumed — the
//! paper's notion of "steps" at the game level.

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::engine::{self, Counter};
use ccal_core::env::EnvContext;
use ccal_core::explore::{Case, ExploreOptions, Kernel};
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;
use ccal_core::machine::LayerMachine;
use ccal_core::val::Val;

/// The paper's ticket-lock starvation bound `n × m × #CPU` (§4.1): `n`
/// bounds the steps a holder keeps the lock, `m` bounds scheduler
/// fairness, and `#CPU` bounds the number of competitors ahead in line.
pub fn ticket_bound(n: u64, m: u64, ncpu: u64) -> u64 {
    n * m * ncpu
}

/// Checks that calling `prim(args)` completes within `bound` scheduling
/// steps under every context (invalid contexts are skipped). Also verifies
/// the run actually terminates — an `OutOfFuel` is a liveness
/// counterexample, reported as a mismatch.
///
/// # Errors
///
/// [`LayerError::Mismatch`] on a starving or over-budget run;
/// [`LayerError::Machine`] on other failures.
pub fn check_liveness(
    iface: &LayerInterface,
    prim: &str,
    args: &[Val],
    pid: Pid,
    contexts: &[EnvContext],
    bound: u64,
    fuel: u64,
) -> Result<Obligation, LayerError> {
    check_liveness_tuned(
        iface, prim, args, pid, contexts, bound, fuel, 1, true, true, true,
    )
}

/// [`check_liveness`] with every exploration knob explicit: the partial-order
/// reduction (`por`), an explicit worker count — `1` explores the
/// grid serially on the calling thread, the reference behavior the
/// forensics replay gate uses for bit-identical reproduction — and
/// explicit prefix-sharing of lower runs across contexts with common
/// consumed schedule prefixes (see [`ccal_core::prefix`]).
/// `deep_share` additionally snapshots the machine and the in-flight run
/// at every environment query point ([`ccal_core::explore::Kernel::snapshot`]),
/// so a multi-query primitive executes once per distinct schedule path and
/// later contexts replay only their suffix; it is effective only when
/// `prefix_share` is on.
///
/// # Errors
///
/// As [`check_liveness`].
#[allow(clippy::too_many_arguments)]
pub fn check_liveness_tuned(
    iface: &LayerInterface,
    prim: &str,
    args: &[Val],
    pid: Pid,
    contexts: &[EnvContext],
    bound: u64,
    fuel: u64,
    workers: usize,
    por: bool,
    prefix_share: bool,
    deep_share: bool,
) -> Result<Obligation, LayerError> {
    // The machine run is a deterministic function of the consumed schedule
    // prefix, so its result (not the per-case classification, which names
    // the context index) is shared across contexts via the kernel's prefix
    // memo; query-point snapshots are plain `RunSnap`s with no extra state.
    type LowerRun = (
        Result<(), ccal_core::machine::MachineError>,
        ccal_core::log::Log,
    );
    type LiveSnap = ccal_core::explore::RunSnap<()>;
    let kernel: Kernel<LiveSnap, LowerRun> = Kernel::new(&ExploreOptions::tuned(
        workers,
        por,
        prefix_share,
        deep_share,
    ));
    let iface = std::sync::Arc::new(iface.clone());
    let sched_consumed = |m: &LayerMachine| m.log().sched_count();
    let snap_point = |k: &ccal_core::prefix::ScheduleKey,
                      mach: &LayerMachine,
                      run: &dyn ccal_core::layer::PrimRun| {
        kernel.snapshot(k, 0, sched_consumed(mach), || {
            Some(LiveSnap {
                machine: mach.fork(),
                run: run.fork_run()?,
                extra: (),
            })
        });
    };
    let exec_lower = |env: &EnvContext| -> (LowerRun, usize) {
        let key = kernel.deep_key(env);
        if let Some(k) = key {
            if let Some((_, LiveSnap { machine, run, .. })) = kernel.resume_deepest(k, 0) {
                // Resume the deepest snapshotted ancestor (the lookup
                // already forked it) and execute only the schedule
                // suffix, counting only the suffix work.
                let mut machine = machine.with_env(env.clone());
                let pre = machine.steps_taken() + machine.log().len() as u64;
                let mut hook = |mach: &LayerMachine, run: &dyn ccal_core::layer::PrimRun| {
                    snap_point(k, mach, run);
                };
                let res = machine.resume_query(run, &mut hook).map(|_| ());
                engine::record(
                    Counter::Steps,
                    machine.steps_taken() + machine.log().len() as u64 - pre,
                );
                let consumed = sched_consumed(&machine);
                return ((res, machine.log().clone()), consumed);
            }
        }
        let mut machine = LayerMachine::new(iface.clone(), pid, env.clone()).with_fuel(fuel);
        let res = if let Some(k) = key {
            let mut hook = |mach: &LayerMachine, run: &dyn ccal_core::layer::PrimRun| {
                snap_point(k, mach, run);
            };
            machine
                .call_prim_with_snapshots(prim, args, &mut hook)
                .map(|_| ())
        } else {
            machine.call_prim(prim, args).map(|_| ())
        };
        engine::record(
            Counter::Steps,
            machine.steps_taken() + machine.log().len() as u64,
        );
        let consumed = sched_consumed(&machine);
        ((res, machine.log().clone()), consumed)
    };
    let explored = kernel.explore("live", contexts, 1, |ci, _| {
        let env = &contexts[ci];
        let (res, log) = kernel.run_shared(env, 0, || exec_lower(env));
        let fail = |reason: String, log: &ccal_core::log::Log, err: LayerError| {
            Case::failed(err, log.clone(), reason, format!("context #{ci}"))
        };
        match res {
            Ok(()) => {}
            Err(e) if e.is_invalid_context() => return Case::Skipped,
            Err(ccal_core::machine::MachineError::OutOfFuel { .. }) => {
                return fail(
                    "run exhausted its fuel (starvation)".to_owned(),
                    &log,
                    LayerError::Mismatch {
                        expected: format!("`{prim}` to terminate (starvation-freedom)"),
                        found: "run exhausted its fuel (starvation)".to_owned(),
                        context: format!("liveness, context #{ci}"),
                    },
                );
            }
            Err(e) => {
                let reason = format!("machine failure: {e}");
                return fail(reason, &log, LayerError::Machine(e));
            }
        }
        let steps = log.sched_count() as u64;
        if steps > bound {
            return fail(
                format!("{steps} steps exceed the bound {bound}"),
                &log,
                LayerError::Mismatch {
                    expected: format!("completion within {bound} scheduling steps"),
                    found: format!("{steps} steps"),
                    context: format!("liveness of `{prim}`, context #{ci}"),
                },
            );
        }
        Case::Checked(steps)
    });
    if let Some(e) = explored.failure {
        return Err(e);
    }
    let worst = explored.checked.iter().copied().fold(0_u64, u64::max);
    Ok(Obligation {
        rule: Rule::Liveness,
        description: format!(
            "`{prim}` completes within {bound} steps on {} (worst observed: {worst})",
            iface.name
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
    use ccal_core::layer::{PrimCtx, PrimRun, PrimSpec, PrimStep};
    use ccal_core::machine::MachineError;

    /// A primitive that waits until the environment has produced `k`
    /// events, then finishes.
    fn wait_for_iface(k: usize) -> LayerInterface {
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
        LayerInterface::builder("L-wait")
            .prim(PrimSpec::strategy("wait", true, move |_, _| {
                Box::new(WaitFor(k))
            }))
            .build()
    }

    fn chatty_contexts() -> Vec<EnvContext> {
        use ccal_core::strategy::FnStrategy;
        use std::sync::Arc;
        let noisy = FnStrategy::new("noisy", |_log| {
            ccal_core::strategy::StrategyMove::Emit(vec![ccal_core::event::Event::prim(
                Pid(1),
                "noise",
                vec![],
            )])
        });
        vec![ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(noisy))
            .round_robin()]
    }

    #[test]
    fn bounded_wait_passes_within_bound() {
        let ob = check_liveness(
            &wait_for_iface(3),
            "wait",
            &[],
            Pid(0),
            &chatty_contexts(),
            32,
            100_000,
        )
        .unwrap();
        assert_eq!(ob.cases_checked, 1);
        assert_eq!(ob.rule, Rule::Liveness);
    }

    #[test]
    fn over_budget_run_is_reported() {
        let err = check_liveness(
            &wait_for_iface(20),
            "wait",
            &[],
            Pid(0),
            &chatty_contexts(),
            4, // far too tight
            100_000,
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::Mismatch { .. }));
    }

    #[test]
    fn starving_run_is_reported() {
        // The environment never produces events, so the wait never ends.
        let silent = vec![ContextGen::new(vec![Pid(0), Pid(1)]).round_robin()];
        let err = check_liveness(
            &wait_for_iface(1),
            "wait",
            &[],
            Pid(0),
            &silent,
            1_000_000,
            500,
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::Mismatch { .. }));
    }

    #[test]
    fn ticket_bound_formula() {
        assert_eq!(ticket_bound(3, 4, 2), 24);
    }
}
