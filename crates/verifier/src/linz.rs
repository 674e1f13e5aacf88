//! Linearizability checking via contextual abstraction.
//!
//! "Linearizability is actually equivalent to a termination-insensitive
//! version of the contextual refinement property" (§7, citing Filipović
//! et al.). The toolkit exploits that equivalence: an object is
//! linearizable iff its concurrent implementation refines the *atomic*
//! interface whose methods take effect in log order. The checker runs
//! client programs on the implementation over many interleavings,
//! abstracts each log through the object's simulation relation, and
//! requires that the resulting *atomic history* is (1) a well-formed
//! sequential history of the atomic object (its replay function never
//! gets stuck) and (2) consistent with every value the clients actually
//! observed.

use std::collections::BTreeMap;

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::conc::ThreadScript;
use ccal_core::env::EnvContext;
use ccal_core::explore::{Case, ExploreOptions, Kernel};
use ccal_core::id::{Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::log::Log;
use ccal_core::sim::SimRelation;
use ccal_core::val::Val;

/// The atomic-history validator for one object: given the abstracted log
/// and the per-participant observed return values, decide whether the
/// history is a legal sequential behavior of the atomic object.
pub type HistoryValidator =
    dyn Fn(&Log, &BTreeMap<Pid, Vec<Val>>) -> Result<(), String> + Send + Sync;

/// Checks linearizability of an object implementation: for every context,
/// the concurrent run's abstracted log must be a legal atomic history
/// consistent with all observed results.
///
/// # Errors
///
/// [`LayerError::Mismatch`] naming the context and the violation;
/// [`LayerError::Machine`] if a run fails.
pub fn check_linearizability(
    impl_iface: &LayerInterface,
    focused: &PidSet,
    programs: &BTreeMap<Pid, ThreadScript>,
    relation: &SimRelation,
    validate_history: &HistoryValidator,
    contexts: &[EnvContext],
    fuel: u64,
) -> Result<Obligation, LayerError> {
    check_linearizability_tuned(
        impl_iface,
        focused,
        programs,
        relation,
        validate_history,
        contexts,
        fuel,
        1,
        true,
        true,
        true,
    )
}

/// [`check_linearizability`] with every exploration knob explicit: the partial-order
/// reduction (`por`), an explicit worker count — `1`
/// explores the grid serially on the calling thread, the reference
/// behavior the forensics replay gate uses for bit-identical reproduction
/// — and explicit prefix-sharing of runs across contexts with common
/// consumed schedule prefixes (see [`ccal_core::prefix`]).
/// `deep_share` additionally snapshots the whole game state before every
/// scheduler decision ([`ccal_core::prefix::SnapshotTrie`]), so a context
/// diverging at turn `k` forks the deepest snapshot and replays only the
/// remaining turns; it is effective only when `prefix_share` is on.
///
/// # Errors
///
/// As [`check_linearizability`].
#[allow(clippy::too_many_arguments)]
pub fn check_linearizability_tuned(
    impl_iface: &LayerInterface,
    focused: &PidSet,
    programs: &BTreeMap<Pid, ThreadScript>,
    relation: &SimRelation,
    validate_history: &HistoryValidator,
    contexts: &[EnvContext],
    fuel: u64,
    workers: usize,
    por: bool,
    prefix_share: bool,
    deep_share: bool,
) -> Result<Obligation, LayerError> {
    // The traced run is a deterministic function of the consumed schedule
    // prefix, so the kernel's game-run helper shares it across contexts
    // (memo + whole-`GameState` query-point snapshots); the history
    // abstraction + validation are redone per case (cheap, and the
    // diagnostics name the context index).
    let kernel: Kernel<ccal_core::conc::GameState, ccal_core::explore::GameRun> =
        Kernel::new(&ExploreOptions::tuned(workers, por, prefix_share, deep_share));
    let explored = kernel.explore("linz", contexts, 1, |ci, _| {
        let env = &contexts[ci];
        let (res, log) = kernel.run_game(impl_iface, focused, programs, env, fuel);
        let fail = |reason: String, err: LayerError| -> Case<(), LayerError> {
            Case::failed(err, log.clone(), reason, format!("context #{ci}"))
        };
        let out = match res {
            Ok(out) => out,
            Err(e) if e.is_invalid_context() => return Case::Skipped,
            Err(e) => {
                let reason = format!("machine failure: {e}");
                return fail(reason, LayerError::Machine(e));
            }
        };
        let Some(history) = relation.abstracted(&out.log) else {
            return fail(
                format!("log not in domain of {}", relation.name()),
                LayerError::Mismatch {
                    expected: format!("log in domain of {}", relation.name()),
                    found: out.log.to_string(),
                    context: format!("linearizability, context #{ci}"),
                },
            );
        };
        if let Err(msg) = validate_history(&history, &out.rets) {
            return fail(
                format!("illegal atomic history: {msg}"),
                LayerError::Mismatch {
                    expected: "a legal atomic history".to_owned(),
                    found: format!("{msg}; history: {history}"),
                    context: format!("linearizability, context #{ci}"),
                },
            );
        }
        Case::Checked(())
    });
    if let Some(e) = explored.failure {
        return Err(e);
    }
    Ok(Obligation {
        rule: Rule::Linearizability,
        description: format!(
            "histories of {} abstract (via {}) to legal atomic behaviors",
            impl_iface.name,
            relation.name()
        ),
        cases_checked: explored.cases_checked,
        cases_skipped: explored.cases_skipped,
        cases_reduced: explored.cases_reduced,
    })
}

/// A ready-made history validator for atomic mutual-exclusion locks: the
/// `acq`/`rel` (and `acq_q`/`rel_q`) events of every location must be
/// well-bracketed — [`ccal_core::replay::replay_atomic_lock`] must not get
/// stuck on any location appearing in the history.
pub fn lock_history_validator() -> Box<HistoryValidator> {
    Box::new(|history: &Log, _rets| {
        use ccal_core::event::EventKind;
        let mut locs = std::collections::BTreeSet::new();
        for e in history.iter() {
            match e.kind {
                EventKind::Acq(b)
                | EventKind::Rel(b)
                | EventKind::AcqQ(b)
                | EventKind::RelQ(b) => {
                    locs.insert(b);
                }
                _ => {}
            }
        }
        for b in locs {
            ccal_core::replay::replay_atomic_lock(history, b).map_err(|e| e.to_string())?;
        }
        Ok(())
    })
}

/// A ready-made validator for atomic FIFO queues: every `deQ` return value
/// observed by a client must equal the value the replayed queue had at its
/// front at that point in the history. `deq_name` names the implementation
/// primitive whose returns correspond to `DeQ` events (in program order).
pub fn fifo_history_validator(deq_name: &str) -> Box<HistoryValidator> {
    let _ = deq_name; // documented for symmetry; returns are matched in order
    Box::new(|history: &Log, rets| {
        use ccal_core::event::EventKind;
        // Predicted returns, per participant, in history order.
        let mut predicted: BTreeMap<Pid, Vec<Val>> = BTreeMap::new();
        for (at, e) in history.iter().enumerate() {
            if matches!(e.kind, EventKind::DeQ(_)) {
                predicted
                    .entry(e.pid)
                    .or_default()
                    .push(ccal_core::replay::deq_result(history, at));
            }
        }
        for (pid, pred) in predicted {
            let observed: Vec<Val> = rets
                .get(&pid)
                .map(|v| {
                    v.iter()
                        .filter(|x| !matches!(x, Val::Unit))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            if observed != pred {
                return Err(format!(
                    "{pid} observed {observed:?} but the linearized history predicts {pred:?}"
                ));
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::event::{Event, EventKind};
    use ccal_core::id::{Loc, QId};
    use ccal_core::layer::PrimSpec;

    fn atomic_queue_iface() -> LayerInterface {
        LayerInterface::builder("Lq")
            .prim(PrimSpec::atomic("enq", |ctx, args| {
                let q = QId(args[0].as_int()? as u32);
                ctx.emit(EventKind::EnQ(q, args[1].clone()));
                Ok(Val::Unit)
            }))
            .prim(PrimSpec::atomic("deq", |ctx, args| {
                let q = QId(args[0].as_int()? as u32);
                ctx.emit(EventKind::DeQ(q));
                Ok(ccal_core::replay::deq_result(
                    ctx.log,
                    ctx.log.len() - 1,
                ))
            }))
            .build()
    }

    #[test]
    fn atomic_queue_is_linearizable() {
        let mut programs = BTreeMap::new();
        programs.insert(
            Pid(0),
            vec![
                ("enq".to_owned(), vec![Val::Int(0), Val::Int(10)]),
                ("deq".to_owned(), vec![Val::Int(0)]),
            ],
        );
        programs.insert(
            Pid(1),
            vec![
                ("enq".to_owned(), vec![Val::Int(0), Val::Int(20)]),
                ("deq".to_owned(), vec![Val::Int(0)]),
            ],
        );
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(4)
            .contexts();
        let ob = check_linearizability(
            &atomic_queue_iface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &programs,
            &SimRelation::identity(),
            &*fifo_history_validator("deq"),
            &contexts,
            100_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn lock_validator_accepts_bracketing_and_rejects_violations() {
        let v = lock_history_validator();
        let ok = Log::from_events([
            Event::new(Pid(0), EventKind::Acq(Loc(0))),
            Event::new(Pid(0), EventKind::Rel(Loc(0))),
            Event::new(Pid(1), EventKind::Acq(Loc(0))),
        ]);
        assert!(v(&ok, &BTreeMap::new()).is_ok());
        let bad = Log::from_events([
            Event::new(Pid(0), EventKind::Acq(Loc(0))),
            Event::new(Pid(1), EventKind::Acq(Loc(0))),
        ]);
        assert!(v(&bad, &BTreeMap::new()).is_err());
    }

    #[test]
    fn fifo_validator_rejects_wrong_observations() {
        let v = fifo_history_validator("deq");
        let history = Log::from_events([
            Event::new(Pid(0), EventKind::EnQ(QId(0), Val::Int(5))),
            Event::new(Pid(1), EventKind::DeQ(QId(0))),
        ]);
        let mut rets = BTreeMap::new();
        rets.insert(Pid(1), vec![Val::Int(5)]);
        assert!(v(&history, &rets).is_ok());
        rets.insert(Pid(1), vec![Val::Int(6)]);
        assert!(v(&history, &rets).is_err());
    }
}
