//! Data-race-freedom checking via push/pull stuckness.
//!
//! "If a program tries to pull a not-free location, or tries to access or
//! push to a location not owned by the current CPU, a data race may occur
//! and the machine gets stuck. One goal of concurrent program verification
//! is to show that a program is data-race free; in our setting, we
//! accomplish this by showing that the program does not get stuck" (§3.1).
//!
//! [`check_race_freedom`] runs a multi-participant program under every
//! enumerated interleaving and asserts no run gets stuck. For a negative
//! control, [`count_racy_interleavings`] reports how many interleavings
//! *do* race (used by tests and by the benchmark harness to show that the
//! raw program races while the locked version does not).

use std::collections::BTreeMap;

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::conc::{ConcurrentMachine, ThreadScript};
use ccal_core::env::EnvContext;
use ccal_core::explore::{Case, ExploreOptions, Kernel};
use ccal_core::id::{Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::machine::MachineError;

/// Checks that no enumerated interleaving of `programs` over `iface` gets
/// stuck (races) — starvation under an unfair prefix is skipped, any
/// `Stuck`/`Replay` failure is a counterexample.
///
/// # Errors
///
/// [`LayerError::Mismatch`] naming the racing context;
/// [`LayerError::Machine`] on unrelated failures.
pub fn check_race_freedom(
    iface: &LayerInterface,
    focused: &PidSet,
    programs: &BTreeMap<Pid, ThreadScript>,
    contexts: &[EnvContext],
    fuel: u64,
) -> Result<Obligation, LayerError> {
    check_race_freedom_tuned(
        iface, focused, programs, contexts, fuel, 1, true, true, true,
    )
}

/// [`check_race_freedom`] with every exploration knob explicit: the partial-order
/// reduction (`por`), an explicit worker count — `1` explores
/// the grid serially on the calling thread, the reference behavior the
/// forensics replay gate uses for bit-identical reproduction — and
/// explicit prefix-sharing of runs across contexts with common consumed
/// schedule prefixes (see [`ccal_core::prefix`]).
/// `deep_share` additionally snapshots the whole game state before every
/// scheduler decision ([`ccal_core::explore::Kernel::snapshot`]), so a context
/// diverging at turn `k` forks the deepest snapshot and replays only the
/// remaining turns; it is effective only when `prefix_share` is on.
///
/// # Errors
///
/// As [`check_race_freedom`].
#[allow(clippy::too_many_arguments)]
pub fn check_race_freedom_tuned(
    iface: &LayerInterface,
    focused: &PidSet,
    programs: &BTreeMap<Pid, ThreadScript>,
    contexts: &[EnvContext],
    fuel: u64,
    workers: usize,
    por: bool,
    prefix_share: bool,
    deep_share: bool,
) -> Result<Obligation, LayerError> {
    // The traced run is a deterministic function of the consumed schedule
    // prefix, so the kernel's game-run helper shares it across contexts
    // (memo + whole-`GameState` query-point snapshots); only the per-case
    // classification (which names the context index) is redone.
    let kernel: Kernel<ccal_core::conc::GameState, ccal_core::explore::GameRun> = Kernel::new(
        &ExploreOptions::tuned(workers, por, prefix_share, deep_share),
    );
    let explored = kernel.explore("race", contexts, 1, |ci, _| {
        let env = &contexts[ci];
        let (res, log) = kernel.run_game(iface, focused, programs, env, fuel);
        let fail = |reason: String, err: LayerError| -> Case<(), LayerError> {
            Case::failed(err, log.clone(), reason, format!("context #{ci}"))
        };
        match res {
            Ok(_) => Case::Checked(()),
            Err(e) if e.is_invalid_context() => Case::Skipped,
            Err(MachineError::OutOfFuel { .. }) => Case::Skipped,
            Err(MachineError::Stuck(msg)) => fail(
                format!("stuck: {msg}"),
                LayerError::Mismatch {
                    expected: "a race-free run".to_owned(),
                    found: format!("stuck: {msg}"),
                    context: format!("race freedom, context #{ci}"),
                },
            ),
            Err(MachineError::Replay(e)) => fail(
                format!("replay stuck: {e}"),
                LayerError::Mismatch {
                    expected: "a race-free run".to_owned(),
                    found: format!("replay stuck: {e}"),
                    context: format!("race freedom, context #{ci}"),
                },
            ),
            Err(e) => {
                let reason = format!("machine failure: {e}");
                fail(reason, LayerError::Machine(e))
            }
        }
    });
    if let Some(e) = explored.failure {
        return Err(e);
    }
    Ok(Obligation {
        rule: Rule::RaceFreedom,
        description: format!("{} never gets stuck (push/pull DRF)", iface.name),
        cases_checked: explored.cases_checked,
        cases_skipped: explored.cases_skipped,
        cases_reduced: explored.cases_reduced,
    })
}

/// Counts how many of the given interleavings race (get stuck). Useful as
/// a negative control: unlocked access should race on some interleavings.
pub fn count_racy_interleavings(
    iface: &LayerInterface,
    focused: &PidSet,
    programs: &BTreeMap<Pid, ThreadScript>,
    contexts: &[EnvContext],
    fuel: u64,
) -> usize {
    contexts
        .iter()
        .filter(|env| {
            let machine = ConcurrentMachine::new(iface.clone(), focused.clone(), (*env).clone())
                .with_fuel(fuel);
            matches!(
                machine.run(programs),
                Err(MachineError::Stuck(_)) | Err(MachineError::Replay(_))
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::contexts::ContextGen;
    use ccal_core::id::Loc;
    use ccal_core::val::Val;
    use ccal_machine::mx86::mx86_hw_interface;

    fn contexts() -> Vec<EnvContext> {
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(4)
            .contexts()
    }

    fn pull_push_program() -> BTreeMap<Pid, ThreadScript> {
        let b = Val::Loc(Loc(0));
        let mut programs = BTreeMap::new();
        for c in 0..2 {
            programs.insert(
                Pid(c),
                vec![
                    ("pull".to_owned(), vec![b.clone()]),
                    ("push".to_owned(), vec![b.clone()]),
                ],
            );
        }
        programs
    }

    #[test]
    fn unlocked_sharing_races_on_some_interleavings() {
        let racy = count_racy_interleavings(
            &mx86_hw_interface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &pull_push_program(),
            &contexts(),
            50_000,
        );
        assert!(racy > 0, "fully preemptible pull/push must race somewhere");
    }

    #[test]
    fn race_check_reports_the_stuck_context() {
        let err = check_race_freedom(
            &mx86_hw_interface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &pull_push_program(),
            &contexts(),
            50_000,
        )
        .unwrap_err();
        assert!(matches!(err, LayerError::Mismatch { .. }));
    }

    #[test]
    fn disjoint_locations_are_race_free() {
        let mut programs = BTreeMap::new();
        for c in 0..2_u32 {
            let b = Val::Loc(Loc(c));
            programs.insert(
                Pid(c),
                vec![
                    ("pull".to_owned(), vec![b.clone()]),
                    ("push".to_owned(), vec![b]),
                ],
            );
        }
        let ob = check_race_freedom(
            &mx86_hw_interface(),
            &PidSet::from_pids([Pid(0), Pid(1)]),
            &programs,
            &contexts(),
            50_000,
        )
        .unwrap();
        assert!(ob.cases_checked > 0);
        assert_eq!(ob.rule, Rule::RaceFreedom);
    }
}
