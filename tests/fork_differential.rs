//! Differential tests for query-point forking (`LayerMachine::fork` +
//! `PrimRun::fork_run`): a machine snapshotted at *any* environment query
//! point and resumed — under the same context, or under any context that
//! agrees with it on the consumed schedule prefix — must finish exactly
//! like a fresh run: same result, same final log, same abstract state,
//! same fuel consumption. This is the soundness core of the kernel's
//! query-point snapshots (`ccal_core::explore::Kernel::snapshot`): strategies are pure
//! functions of the log, so runs can only diverge through the events
//! their environments append after the fork point.

use std::sync::Arc;

use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::event::EventKind;
use ccal::core::id::{Loc, Pid};
use ccal::core::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep};
use ccal::core::machine::{LayerMachine, MachineError};
use ccal::core::strategy::ScratchPlayer;
use ccal::core::val::Val;
use ccal::objects::ticket::TicketEnvPlayer;

/// A primitive that alternates local work and environment queries `n`
/// times: each round bumps an abstract counter and emits an event, so a
/// forked resume that drifted in abstract state, log, or round count is
/// caught by the final comparison. Forkable, so query-point snapshots can
/// capture it mid-flight.
struct StepWait {
    left: usize,
}

impl PrimRun for StepWait {
    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        let n = ctx.abs.get_or_undef("rounds").as_int().unwrap_or(0) + 1;
        ctx.abs.set("rounds", Val::Int(n));
        ctx.emit(EventKind::Prim("round".into(), vec![Val::Int(n)]));
        if self.left == 0 {
            Ok(PrimStep::Done(Val::Int(n)))
        } else {
            self.left -= 1;
            Ok(PrimStep::Query)
        }
    }

    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(StepWait { left: self.left }))
    }
}

fn step_wait_iface(rounds: usize) -> LayerInterface {
    LayerInterface::builder("L-fork")
        .prim(PrimSpec::strategy("work", true, move |_, _| {
            Box::new(StepWait { left: rounds })
        }))
        .build()
}

/// The full observable outcome of one lower run, for equality checks.
fn outcome(res: Result<Val, MachineError>, m: &LayerMachine) -> String {
    format!(
        "{res:?} | log={:?} | abs={:?} | steps={}",
        m.log(),
        m.abs,
        m.steps_taken()
    )
}

/// Runs `work` fresh on a machine over `env`, capturing a fork of the
/// machine and the in-flight run at every query point. Returns the final
/// outcome and the captured snapshots.
#[allow(clippy::type_complexity)]
fn run_with_snapshots(
    iface: &LayerInterface,
    env: &EnvContext,
) -> (String, Vec<(LayerMachine, Box<dyn PrimRun>)>) {
    let mut snaps = Vec::new();
    let mut machine = LayerMachine::new(iface.clone(), Pid(0), env.clone());
    let mut hook = |m: &LayerMachine, r: &dyn PrimRun| {
        if let Some(run) = r.fork_run() {
            snaps.push((m.fork(), run));
        }
    };
    let res = machine.call_prim_with_snapshots("work", &[], &mut hook);
    (outcome(res, &machine), snaps)
}

/// Resumes a captured snapshot under `env` and returns the final outcome.
fn resume_snapshot(snap: &(LayerMachine, Box<dyn PrimRun>), env: &EnvContext) -> String {
    let (m, r) = snap;
    let run = r.fork_run().expect("StepWait is forkable");
    let mut machine = m.fork().with_env(env.clone());
    let mut hook = |_: &LayerMachine, _: &dyn PrimRun| {};
    let res = machine.resume_query(run, &mut hook);
    outcome(res, &machine)
}

/// Sched events consumed by the snapshot — the depth at which its context
/// and a resuming context must agree.
fn consumed(m: &LayerMachine) -> usize {
    m.log().iter().filter(|e| e.is_sched()).count()
}

fn grid(len: usize, choices: [u8; 3]) -> Vec<EnvContext> {
    let total = 4_usize.pow(len as u32);
    let mut gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_schedule_len(len)
        .with_max_contexts(total)
        .with_por(true);
    for (i, &c) in choices.iter().enumerate() {
        let pid = Pid(1 + i as u32);
        gen = match c {
            0 => gen,
            1 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(100)))),
            2 => gen.with_player(pid, Arc::new(ScratchPlayer::new(pid, Loc(101)))),
            _ => gen.with_player(pid, Arc::new(TicketEnvPlayer::new(pid, Loc(0), 1))),
        };
    }
    gen.contexts()
}

#[test]
fn fork_at_every_query_depth_matches_fresh_run_same_context() {
    let iface = step_wait_iface(4);
    for env in grid(3, [1, 3, 2]) {
        let (fresh, snaps) = run_with_snapshots(&iface, &env);
        assert!(!snaps.is_empty(), "a 4-round wait must hit query points");
        for (depth, snap) in snaps.iter().enumerate() {
            assert_eq!(
                resume_snapshot(snap, &env),
                fresh,
                "resume from query point #{depth} diverged from the fresh run"
            );
        }
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cross-context forking: a snapshot taken under context `i` that
    /// consumed `d` schedule slots, resumed under any context `j` whose
    /// script agrees on the first `d` slots, finishes exactly like `j`'s
    /// own fresh run — for every snapshot of every pair in a random grid.
    #[test]
    fn fork_resumes_identically_under_prefix_agreeing_contexts(
        len in 2_usize..4,
        c1 in 0_u8..4,
        c2 in 0_u8..4,
        c3 in 0_u8..4,
        rounds in 1_usize..5,
    ) {
        let iface = step_wait_iface(rounds);
        let contexts = grid(len, [c1, c2, c3]);
        let runs: Vec<_> = contexts
            .iter()
            .map(|env| run_with_snapshots(&iface, env))
            .collect();
        for (i, (_, snaps)) in runs.iter().enumerate() {
            let script_i = contexts[i].schedule_key().unwrap().script();
            for snap in snaps {
                let d = consumed(&snap.0);
                for (j, (fresh_j, _)) in runs.iter().enumerate() {
                    let script_j = contexts[j].schedule_key().unwrap().script();
                    if d <= script_j.len() && script_j[..d] == script_i[..d] {
                        prop_assert_eq!(
                            &resume_snapshot(snap, &contexts[j]),
                            fresh_j,
                            "snapshot of ctx #{} at depth {} resumed under ctx #{}",
                            i, d, j
                        );
                    }
                }
            }
        }
    }
}
