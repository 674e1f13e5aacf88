//! The fixture registry: checker runners, the probe oracle, and the full
//! investigate → shrink → artifact → replay pipeline.
//!
//! Each [`Fixture`] binds one seeded-bug object from
//! [`ccal_objects::buggy`] to the checker that detects it, behind a
//! uniform `runner` signature. [`probe`] runs a single scripted context
//! through the fixture's checker — serially, with POR and dedup disabled —
//! inside a capture scope, which is both the shrink oracle and the replay
//! engine. [`investigate`] runs the full context grid, reifies the
//! index-least failing case into a [`ScriptedContext`], delta-debugs it to
//! 1-minimal, and packages the result as a [`TraceArtifact`];
//! [`replay_artifact`] asserts a saved artifact still reproduces a
//! bit-identical verdict and first-failure log.

use ccal_core::env::EnvContext;
use ccal_core::forensics::{CaptureScope, ShrinkNote};
use ccal_core::id::{Pid, PidSet};
use ccal_core::log::Log;
use ccal_core::machine::LayerMachine;
use ccal_core::sim::{check_prim_refinement, SimOptions, SimRelation};
use ccal_objects::buggy;
use ccal_verifier::{
    check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
    check_sequence_refinement_tuned, fifo_history_validator,
};

use crate::artifact::{ExpectedFailure, ReplayOptions, TraceArtifact, FORMAT_VERSION};
use crate::scripted::ScriptedContext;
use crate::shrink;

/// How a checker run is configured (the knobs forensics bypasses on
/// replay).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker threads on the case grid.
    pub workers: usize,
    /// Upper-run memoization (sim only; ignored elsewhere).
    pub dedup: bool,
    /// Partial-order reduction.
    pub por: bool,
    /// Prefix-sharing of lower runs across contexts (see
    /// [`ccal_core::prefix`]).
    pub prefix_share: bool,
    /// Deep prefix-sharing: query-point snapshot forking (see
    /// [`ccal_core::prefix::SnapshotTrie`]). Effective only when
    /// `prefix_share` is on.
    pub deep_share: bool,
}

impl RunConfig {
    /// The replay configuration: serial, no dedup, no POR, no prefix
    /// sharing — every source of exploration-order variance off.
    #[must_use]
    pub fn replay() -> Self {
        Self {
            workers: 1,
            dedup: false,
            por: false,
            prefix_share: false,
            deep_share: false,
        }
    }
}

/// One failing case as captured from a checker run.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Index of the case in the checker's exploration grid.
    pub case_index: usize,
    /// The checker's case description (context/args/script indices).
    pub detail: String,
    /// The failure reason exactly as the checker reported it.
    pub reason: String,
    /// The first-failure log.
    pub log: Log,
}

/// A seeded-bug object bound to the checker that detects it.
pub struct Fixture {
    /// Checker id: `sim`, `live`, `linz`, `race`, `seqref`.
    pub checker: &'static str,
    /// Object id, unique within the checker.
    pub object: &'static str,
    /// The participant domain of the fixture's context family.
    pub domain: Vec<Pid>,
    /// The focused (program) participants — their events are re-emitted
    /// by the machine on replay, not scripted.
    pub focused: PidSet,
    /// Machine fuel the runner uses (part of the artifact fingerprint).
    pub machine_fuel: u64,
    /// The adversarial context family the checker explores.
    pub contexts: fn() -> Vec<EnvContext>,
    /// Runs the fixture's checker over a context slice. `Ok(())` = the
    /// check passed; `Err` = the first failure's reason.
    pub runner: fn(&[EnvContext], &RunConfig) -> Result<(), String>,
}

fn run_sim(contexts: &[EnvContext], cfg: &RunConfig) -> Result<(), String> {
    check_prim_refinement(
        &buggy::scratch_sensitive_lower(),
        "op",
        &buggy::scratch_sensitive_upper(),
        "op",
        &SimRelation::identity(),
        Pid(0),
        contexts,
        &[vec![]],
        &SimOptions::default()
            .with_workers(cfg.workers)
            .with_dedup(cfg.dedup)
            .with_por(cfg.por)
            .with_prefix_share(cfg.prefix_share)
            .with_deep_share(cfg.deep_share),
    )
    .map(|_| ())
    .map_err(|f| f.reason)
}

fn run_live(contexts: &[EnvContext], cfg: &RunConfig) -> Result<(), String> {
    check_liveness_tuned(
        &buggy::impatient_waiter_iface(),
        "wait",
        &[],
        Pid(0),
        contexts,
        buggy::IMPATIENT_BOUND,
        buggy::IMPATIENT_FUEL,
        cfg.workers,
        cfg.por,
        cfg.prefix_share,
        cfg.deep_share,
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

fn run_race(contexts: &[EnvContext], cfg: &RunConfig) -> Result<(), String> {
    check_race_freedom_tuned(
        &ccal_machine::mx86::mx86_hw_interface(),
        &PidSet::from_pids([Pid(0), Pid(1)]),
        &buggy::unlocked_pair_programs(),
        contexts,
        RACE_FUEL,
        cfg.workers,
        cfg.por,
        cfg.prefix_share,
        cfg.deep_share,
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

fn run_linz(contexts: &[EnvContext], cfg: &RunConfig) -> Result<(), String> {
    check_linearizability_tuned(
        &buggy::lifo_queue_iface(),
        &PidSet::from_pids([Pid(0), Pid(1)]),
        &buggy::lifo_queue_programs(),
        &SimRelation::identity(),
        &*fifo_history_validator("deq"),
        contexts,
        LINZ_FUEL,
        cfg.workers,
        cfg.por,
        cfg.prefix_share,
        cfg.deep_share,
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

fn run_seqref(contexts: &[EnvContext], cfg: &RunConfig) -> Result<(), String> {
    check_sequence_refinement_tuned(
        &buggy::env_leaky_counter_impl(),
        &buggy::env_leaky_counter_spec(),
        &SimRelation::identity(),
        Pid(0),
        contexts,
        &buggy::env_leaky_counter_scripts(),
        SEQREF_FUEL,
        cfg.workers,
        cfg.por,
        cfg.prefix_share,
        cfg.deep_share,
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

const RACE_FUEL: u64 = 50_000;
const LINZ_FUEL: u64 = 100_000;
const SEQREF_FUEL: u64 = 100_000;

/// Every registered fixture, one per checker.
pub fn all_fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            checker: "sim",
            object: "scratch-sensitive",
            domain: vec![Pid(0), Pid(1), Pid(2)],
            focused: PidSet::singleton(Pid(0)),
            machine_fuel: LayerMachine::DEFAULT_FUEL,
            contexts: buggy::scratch_sensitive_contexts,
            runner: run_sim,
        },
        Fixture {
            checker: "live",
            object: "impatient-waiter",
            domain: vec![Pid(0), Pid(1)],
            focused: PidSet::singleton(Pid(0)),
            machine_fuel: buggy::IMPATIENT_FUEL,
            contexts: buggy::impatient_waiter_contexts,
            runner: run_live,
        },
        Fixture {
            checker: "race",
            object: "unlocked-pair",
            domain: vec![Pid(0), Pid(1)],
            focused: PidSet::from_pids([Pid(0), Pid(1)]),
            machine_fuel: RACE_FUEL,
            contexts: buggy::unlocked_pair_contexts,
            runner: run_race,
        },
        Fixture {
            checker: "linz",
            object: "lifo-queue",
            domain: vec![Pid(0), Pid(1), Pid(2)],
            focused: PidSet::from_pids([Pid(0), Pid(1)]),
            machine_fuel: LINZ_FUEL,
            contexts: buggy::lifo_queue_contexts,
            runner: run_linz,
        },
        Fixture {
            checker: "seqref",
            object: "env-leaky-counter",
            domain: vec![Pid(0), Pid(1)],
            focused: PidSet::singleton(Pid(0)),
            machine_fuel: SEQREF_FUEL,
            contexts: buggy::env_leaky_counter_contexts,
            runner: run_seqref,
        },
    ]
}

/// Looks a fixture up by checker and object id.
#[must_use]
pub fn find(checker: &str, object: &str) -> Option<Fixture> {
    all_fixtures()
        .into_iter()
        .find(|f| f.checker == checker && f.object == object)
}

/// Runs a single scripted context through the fixture's checker under the
/// replay configuration (serial, dedup and POR off) and returns the
/// captured failure, if any. A single-context grid explores exactly one
/// case per argument/script vector, so this is deterministic by
/// construction — it serves as both the shrink oracle and the replay
/// engine.
pub fn probe(fx: &Fixture, sc: &ScriptedContext) -> Option<CaseFailure> {
    let scope = CaptureScope::begin();
    let _ = (fx.runner)(&[sc.to_env()], &RunConfig::replay());
    scope
        .take()
        .into_iter()
        .min_by_key(|c| c.case_index)
        .map(|c| CaseFailure {
            case_index: c.case_index,
            detail: c.detail,
            reason: c.reason,
            log: c.log,
        })
}

/// Runs the fixture's full context grid under `cfg`, reifies the
/// index-least failing case, shrinks it to 1-minimal, and packages the
/// minimized witness as a [`TraceArtifact`] (with shrink accounting
/// embedded).
///
/// # Errors
///
/// If the checker unexpectedly passes, no capture is recorded, the
/// reified context fails to reproduce, or the shrunk context stops
/// failing.
pub fn investigate(fx: &Fixture, cfg: &RunConfig) -> Result<TraceArtifact, String> {
    let contexts = (fx.contexts)();
    let env_fuel = contexts.first().map_or(EnvContext::DEFAULT_FUEL, EnvContext::fuel);
    let scope = CaptureScope::begin();
    let verdict = (fx.runner)(&contexts, cfg);
    let captures = scope.take();
    if verdict.is_ok() {
        return Err(format!(
            "{}/{}: checker passed — nothing to investigate",
            fx.checker, fx.object
        ));
    }
    let first = captures
        .into_iter()
        .min_by_key(|c| c.case_index)
        .ok_or_else(|| {
            format!(
                "{}/{}: checker failed but recorded no capture",
                fx.checker, fx.object
            )
        })?;
    let reified = ScriptedContext::from_log(fx.domain.clone(), env_fuel, &fx.focused, &first.log);
    if probe(fx, &reified).is_none() {
        return Err(format!(
            "{}/{}: reified context does not reproduce the failure ({})",
            fx.checker, fx.object, first.reason
        ));
    }
    let original_steps = reified.steps();
    let outcome = shrink::shrink(&reified, &mut |sc| probe(fx, sc).is_some());
    let witness = probe(fx, &outcome.context).ok_or_else(|| {
        format!(
            "{}/{}: shrunk context no longer fails",
            fx.checker, fx.object
        )
    })?;
    let mut artifact = TraceArtifact {
        version: FORMAT_VERSION,
        checker: fx.checker.to_owned(),
        object: fx.object.to_owned(),
        options: ReplayOptions {
            machine_fuel: fx.machine_fuel,
            workers: 1,
            dedup: false,
            por: false,
            prefix_share: false,
            deep_share: false,
            // Record the tier the investigation actually ran under, so
            // the artifact is self-describing about its provenance.
            bytecode: ccal_core::prefix::bytecode_effective(),
            share_semantic: ccal_core::prefix::share_semantic_effective(),
        },
        context: outcome.context,
        expected: ExpectedFailure {
            reason: witness.reason,
            detail: witness.detail,
            log: witness.log,
        },
        shrink: ShrinkNote {
            checker: fx.checker.to_owned(),
            object: fx.object.to_owned(),
            original_steps,
            minimized_steps: 0, // filled below from the minimized context
            iterations: outcome.iterations + 2, // + reify probe + final probe
            artifact: String::new(),
        },
    };
    artifact.shrink.minimized_steps = artifact.context.steps();
    artifact.shrink.artifact = artifact.file_name();
    Ok(artifact)
}

/// Replays a trace artifact through its fixture's checker and asserts the
/// verdict is bit-identical: same failure reason, same case detail, same
/// first-failure log.
///
/// # Errors
///
/// On unknown fixtures, fingerprint mismatches, a passing replay, or any
/// verdict drift (with a description of the divergence).
pub fn replay_artifact(a: &TraceArtifact) -> Result<(), String> {
    let fx = find(&a.checker, &a.object)
        .ok_or_else(|| format!("unknown fixture {}/{}", a.checker, a.object))?;
    if a.options.machine_fuel != fx.machine_fuel {
        return Err(format!(
            "{}/{}: artifact fuel {} != fixture fuel {}",
            a.checker, a.object, a.options.machine_fuel, fx.machine_fuel
        ));
    }
    let got = probe(&fx, &a.context).ok_or_else(|| {
        format!(
            "{}/{}: replay PASSED but artifact expects failure `{}`",
            a.checker, a.object, a.expected.reason
        )
    })?;
    if got.reason != a.expected.reason {
        return Err(format!(
            "{}/{}: reason drift\n  expected: {}\n  got:      {}",
            a.checker, a.object, a.expected.reason, got.reason
        ));
    }
    if got.detail != a.expected.detail {
        return Err(format!(
            "{}/{}: case detail drift\n  expected: {}\n  got:      {}",
            a.checker, a.object, a.expected.detail, got.detail
        ));
    }
    if got.log != a.expected.log {
        return Err(format!(
            "{}/{}: first-failure log drift\n  expected: {}\n  got:      {}",
            a.checker, a.object, a.expected.log, got.log
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_fails_its_checker() {
        for fx in all_fixtures() {
            let contexts = (fx.contexts)();
            assert!(
                (fx.runner)(&contexts, &RunConfig::replay()).is_err(),
                "{}/{} unexpectedly passed",
                fx.checker,
                fx.object
            );
        }
    }

    #[test]
    fn investigate_shrinks_and_replays_every_fixture() {
        for fx in all_fixtures() {
            let a = investigate(&fx, &RunConfig::replay())
                .unwrap_or_else(|e| panic!("investigate failed: {e}"));
            assert!(
                a.shrink.minimized_steps <= a.shrink.original_steps,
                "{}/{}: shrink grew the context",
                fx.checker,
                fx.object
            );
            replay_artifact(&a).unwrap_or_else(|e| panic!("replay failed: {e}"));
        }
    }

    #[test]
    fn minimized_contexts_are_one_minimal() {
        for fx in all_fixtures() {
            let a = investigate(&fx, &RunConfig::replay()).unwrap();
            assert!(
                shrink::one_minimal(&a.context, &mut |sc| probe(&fx, sc).is_some()),
                "{}/{}: minimized context is not 1-minimal",
                fx.checker,
                fx.object
            );
        }
    }

    #[test]
    fn replay_detects_reason_drift() {
        let fx = find("sim", "scratch-sensitive").unwrap();
        let mut a = investigate(&fx, &RunConfig::replay()).unwrap();
        a.expected.reason = "some other reason".into();
        let err = replay_artifact(&a).unwrap_err();
        assert!(err.contains("reason drift"), "{err}");
    }

    #[test]
    fn find_rejects_unknown_fixtures() {
        assert!(find("sim", "no-such-object").is_none());
        assert!(find("nope", "scratch-sensitive").is_none());
    }
}
