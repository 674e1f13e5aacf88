//! The `inproc-cold` workload: certification from scratch in this
//! process, through the toolkit's public entry points.
//!
//! A pass visits every catalog key (ticket, qlock and MCS at each bound)
//! and runs B7's checker set (live, linz, race, seqref) on the ticket
//! lock. The untraced pass calls the certify entry points as a user
//! would. The traced pass makes the same calls those entry points make,
//! one layer at a time, so each can be timed from outside.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::calculus::{
    check_fun, check_iface_refinement, vcomp, weaken, Certificate, CheckOptions, LayerError,
    Obligation,
};
use ccal_core::conc::ThreadScript;
use ccal_core::contexts::ContextGen;
use ccal_core::env::EnvContext;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::prefix;
use ccal_core::sim::SimRelation;
use ccal_core::strategy::Strategy;
use ccal_core::val::Val;
use ccal_objects::{mcs, qlock, ticket};
use ccal_verifier::{
    check_linearizability_tuned, check_liveness_tuned, check_race_freedom_tuned,
    check_sequence_refinement_tuned, lock_history_validator, ticket_bound, OpScript,
};

use crate::catalog::{self, Key};
use crate::trace::Tracer;

const PID: Pid = Pid(0);
/// The ticket and MCS lock location (the §2 walkthrough's `b`).
const LOCK_B: Loc = Loc(0);
/// The queuing lock location (the registry's and Fig. 11 tests').
const QLOCK_L: Loc = Loc(4);
/// Fuel per checker case (B7's setting).
const CHECKER_FUEL: u64 = 200_000;

/// The B7 checkers run once per pass.
pub const CHECKERS: [&str; 4] = ["live", "linz", "race", "seqref"];

/// One unit of work in an `inproc-cold` pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// Certify a whole stack at one bound.
    Certify(Key),
    /// Run one B7 checker on the ticket lock.
    Checker(&'static str),
}

/// The pass catalog: every in-process key, then the checker set.
pub fn items() -> Vec<Item> {
    catalog::inproc_keys()
        .into_iter()
        .map(Item::Certify)
        .chain(CHECKERS.into_iter().map(Item::Checker))
        .collect()
}

/// What an item proved: its obligations with their case counts.
pub type Answer = Vec<(usize, usize, usize)>;

/// Obligations each stack must discharge (one per checked primitive).
pub fn expected_obligations(item: Item) -> usize {
    match item {
        Item::Certify(k) => match k.stack {
            "ticket" => 9,
            "qlock" => 2,
            "mcs" => 4,
            other => unreachable!("no {other} stack in the catalog"),
        },
        Item::Checker(_) => 1,
    }
}

fn front_end(name: &str, src: &str) -> Result<ccal_core::module::Module, String> {
    ccal_clightx::clightx_module(name, src).map_err(|e| format!("{name} front-end: {e}"))
}

fn contexts(player: Arc<dyn Strategy>, schedule_len: usize) -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), player)
        .with_schedule_len(schedule_len)
        .contexts()
}

fn ticket_low(k: Key) -> Vec<EnvContext> {
    contexts(
        Arc::new(ticket::TicketEnvPlayer::new(Pid(1), LOCK_B, k.rounds)),
        k.schedule_len,
    )
}

fn ticket_atomic(k: Key) -> Vec<EnvContext> {
    contexts(
        Arc::new(ticket::FooEnvPlayer::new(Pid(1), LOCK_B, k.rounds)),
        k.schedule_len,
    )
}

fn qlock_contexts(k: Key) -> Vec<EnvContext> {
    contexts(
        Arc::new(qlock::QlockEnvPlayer::new(Pid(1), QLOCK_L, k.rounds)),
        k.schedule_len,
    )
}

fn mcs_contexts(k: Key) -> Vec<EnvContext> {
    contexts(
        Arc::new(mcs::McsEnvPlayer::new(Pid(1), LOCK_B, k.rounds)),
        k.schedule_len,
    )
}

/// The ClightX sources the certd registry front-ends for `stack`.
pub(crate) fn stack_sources(stack: &str) -> &'static [(&'static str, &'static str)] {
    if stack == "ticket" {
        &[("M1", ticket::M1_SOURCE), ("M2", ticket::M2_SOURCE)]
    } else {
        &[("Mql", qlock::QLOCK_SOURCE)]
    }
}

/// The context family the certd registry builds for `unit` at `k`.
pub(crate) fn unit_contexts(unit: &str, k: Key) -> Vec<EnvContext> {
    match unit.split('/').next() {
        Some("funlift" | "loglift") => ticket_low(k),
        Some("client") => ticket_atomic(k),
        _ => qlock_contexts(k),
    }
}

fn answer<'a>(certs: impl IntoIterator<Item = &'a Certificate>) -> Answer {
    certs
        .into_iter()
        .flat_map(Certificate::obligations)
        .map(|o| (o.cases_checked, o.cases_skipped, o.cases_reduced))
        .collect()
}

fn err(e: LayerError) -> String {
    e.to_string()
}

/// Runs one item through the public entry points.
///
/// # Errors
///
/// Any failed obligation or front-end error.
pub fn run(item: Item) -> Result<Answer, String> {
    match item {
        Item::Certify(k) => match k.stack {
            "ticket" => {
                let s = ticket::certify_ticket_stack_tuned(
                    PID,
                    LOCK_B,
                    ticket_low(k),
                    ticket_atomic(k),
                    1,
                    true,
                )
                .map_err(err)?;
                Ok(answer([
                    &s.fun_lift.certificate,
                    &s.log_lift.certificate,
                    &s.client_layer.certificate,
                ]))
            }
            "qlock" => qlock::certify_qlock(PID, QLOCK_L, qlock_contexts(k))
                .map(|l| answer([&l.certificate]))
                .map_err(err),
            "mcs" => mcs::certify_mcs_lock(PID, LOCK_B, mcs_contexts(k))
                .map(|l| answer([&l.certificate]))
                .map_err(err),
            other => Err(format!("unknown stack {other}")),
        },
        Item::Checker(name) => {
            let m1 = front_end("M1", ticket::M1_SOURCE)?;
            CheckerInputs::build(&m1, checker_contexts())?
                .run(name)
                .map(|o| vec![cases(&o)])
                .map_err(err)
        }
    }
}

fn cases(o: &Obligation) -> (usize, usize, usize) {
    (o.cases_checked, o.cases_skipped, o.cases_reduced)
}

/// Global engine counters, read around each traced item.
struct Counters([u64; 6]);

impl Counters {
    const NAMES: [&'static str; 6] = [
        "explore.atom_steps",
        "explore.prim_steps",
        "cache.prefix_shared",
        "cache.deep_resumes",
        "cache.conv_hits",
        "cache.conv_evictions",
    ];

    fn read() -> Counters {
        Counters([
            prefix::steps_total(),
            prefix::prim_steps_total(),
            prefix::shared_total(),
            prefix::deep_total(),
            prefix::converged_total(),
            prefix::conv_evictions_total(),
        ])
    }

    fn record_since(&self, t: &mut Tracer) {
        let now = Counters::read();
        for ((name, a), b) in Counters::NAMES.iter().zip(now.0).zip(self.0) {
            t.count(name, a.saturating_sub(b) as f64);
        }
    }
}

fn gen(t: &mut Tracer, f: impl FnOnce() -> Vec<EnvContext>) -> Vec<EnvContext> {
    let ctx = t.span("contexts.gen", "", f);
    t.count("contexts.count", ctx.len() as f64);
    ctx
}

fn record_cases(t: &mut Tracer, a: &Answer) {
    for &(checked, skipped, reduced) in a {
        t.count("explore.cases_checked", checked as f64);
        t.count("explore.cases_skipped", skipped as f64);
        t.count("explore.cases_reduced", reduced as f64);
    }
}

/// Runs one item layer by layer, recording a span around each layer
/// call. The calls and options are those of the entry point [`run`]
/// uses, so the answer must equal [`run`]'s.
///
/// # Errors
///
/// Any failed obligation or front-end error.
pub fn run_traced(item: Item, t: &mut Tracer) -> Result<Answer, String> {
    let before = Counters::read();
    let out = match item {
        Item::Certify(k) => match k.stack {
            "ticket" => ticket_traced(k, t),
            "qlock" => lock_traced(
                t,
                || qlock_contexts(k),
                ("Mql", qlock::QLOCK_SOURCE),
                "qlock",
                |ctx| {
                    let args = vec![vec![Val::Loc(QLOCK_L)]];
                    CheckOptions::new(ctx)
                        .with_workload("acq_q", args.clone())
                        .with_workload("rel_q", args)
                        .with_setup("rel_q", vec![("acq_q".to_owned(), vec![Val::Loc(QLOCK_L)])])
                },
                (
                    qlock::qlock_underlay,
                    qlock::qlock_overlay,
                    qlock::r_ql_relation,
                ),
            ),
            "mcs" => lock_traced(
                t,
                || mcs_contexts(k),
                ("Mmcs", mcs::MCS_SOURCE),
                "mcs",
                |ctx| {
                    let lock_args = vec![vec![Val::Loc(LOCK_B)]];
                    CheckOptions::new(ctx)
                        .with_workload("acq", lock_args.clone())
                        .with_workload("rel", lock_args)
                        .with_setup("rel", vec![("acq".to_owned(), vec![Val::Loc(LOCK_B)])])
                        .with_workload("f", vec![vec![]])
                        .with_workload("g", vec![vec![]])
                },
                (
                    mcs::l0_mcs_interface,
                    ticket::lock_interface,
                    mcs::r_mcs_relation,
                ),
            ),
            other => Err(format!("unknown stack {other}")),
        },
        Item::Checker(name) => {
            let m1 = t.span("clightx.front_end", "", || {
                front_end("M1", ticket::M1_SOURCE)
            })?;
            let ctx = t.span("contexts.gen", "", checker_contexts);
            t.count("contexts.count", (ctx.0.len() + ctx.1.len()) as f64);
            let inputs = CheckerInputs::build(&m1, ctx)?;
            let verdict = match name {
                "live" => t.span("verifier.live", "", || inputs.run(name)),
                "linz" => t.span("verifier.linz", "", || inputs.run(name)),
                "race" => t.span("verifier.race", "", || inputs.run(name)),
                _ => t.span("verifier.seqref", "", || inputs.run(name)),
            };
            verdict.map(|o| vec![cases(&o)]).map_err(err)
        }
    };
    before.record_since(t);
    if let Ok(a) = &out {
        record_cases(t, a);
    }
    out
}

fn ticket_traced(k: Key, t: &mut Tracer) -> Result<Answer, String> {
    let low = gen(t, || ticket_low(k));
    let atomic = gen(t, || ticket_atomic(k));
    let m1 = t.span("clightx.front_end", "", || {
        front_end("M1", ticket::M1_SOURCE)
    })?;
    let m2 = t.span("clightx.front_end", "", || {
        front_end("M2", ticket::M2_SOURCE)
    })?;
    let lock_args = vec![vec![Val::Loc(LOCK_B)]];
    let opts_low = CheckOptions::new(low)
        .with_workload("acq", lock_args.clone())
        .with_workload("rel", lock_args.clone())
        .with_workers(1)
        .with_dedup(true);
    let opts_atomic = CheckOptions::new(atomic)
        .with_workload("acq", lock_args.clone())
        .with_workload("rel", lock_args.clone())
        .with_workload("foo", lock_args)
        .with_workers(1)
        .with_dedup(true);
    let fun_lift = t
        .span("layer", "funlift", || {
            check_fun(
                &ticket::l0_interface(),
                &m1,
                &ticket::lock_low_interface(),
                &SimRelation::identity(),
                PID,
                &opts_low,
            )
        })
        .map_err(err)?;
    let log_lift = t
        .span("layer", "loglift", || {
            check_iface_refinement(
                &ticket::lock_low_interface(),
                &ticket::lock_interface(),
                &ticket::r1_relation(),
                PID,
                &opts_low,
            )
        })
        .map_err(err)?;
    let lock_layer = t
        .span("calculus.compose", "", || {
            weaken(None, &fun_lift, Some(&log_lift))
        })
        .map_err(err)?;
    let client = t
        .span("layer", "client", || {
            check_fun(
                &ticket::lock_interface(),
                &m2,
                &ticket::l2_interface(),
                &ticket::r2_relation(),
                PID,
                &opts_atomic,
            )
        })
        .map_err(err)?;
    t.span("calculus.compose", "", || vcomp(&lock_layer, &client))
        .map_err(err)?;
    Ok(answer([
        &fun_lift.certificate,
        &log_lift.certificate,
        &client.certificate,
    ]))
}

type Ifaces = (
    fn() -> LayerInterface,
    fn() -> LayerInterface,
    fn() -> SimRelation,
);

/// One `check_fun` over a module: the shape of `certify_qlock` and
/// `certify_mcs_lock`.
fn lock_traced(
    t: &mut Tracer,
    ctx: impl FnOnce() -> Vec<EnvContext>,
    (name, src): (&str, &str),
    layer: &'static str,
    opts: impl FnOnce(Vec<EnvContext>) -> CheckOptions,
    (underlay, overlay, relation): Ifaces,
) -> Result<Answer, String> {
    let ctx = gen(t, ctx);
    let m = t.span("clightx.front_end", "", || front_end(name, src))?;
    let opts = opts(ctx);
    t.span("layer", layer, || {
        check_fun(&underlay(), &m, &overlay(), &relation(), PID, &opts)
    })
    .map(|l| answer([&l.certificate]))
    .map_err(err)
}

/// B7's checker workloads on the ticket lock (`M1` over `L0`).
struct CheckerInputs {
    iface: LayerInterface,
    player_contexts: Vec<EnvContext>,
    open_contexts: Vec<EnvContext>,
    focused: PidSet,
    programs: BTreeMap<Pid, ThreadScript>,
    scripts: Vec<OpScript>,
}

/// B7's two context families: with a ticket contender, and open.
fn checker_contexts() -> (Vec<EnvContext>, Vec<EnvContext>) {
    let with_contender = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(ticket::TicketEnvPlayer::new(Pid(1), LOCK_B, 2)),
        )
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts();
    let open = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(4)
        .with_max_contexts(16)
        .contexts();
    (with_contender, open)
}

impl CheckerInputs {
    fn build(
        m1: &ccal_core::module::Module,
        (player_contexts, open_contexts): (Vec<EnvContext>, Vec<EnvContext>),
    ) -> Result<CheckerInputs, String> {
        let iface = m1
            .install(&ticket::l0_interface())
            .map_err(|e| format!("M1 install: {e:?}"))?;
        let acq_rel = || {
            vec![
                ("acq".to_owned(), vec![Val::Loc(LOCK_B)]),
                ("rel".to_owned(), vec![Val::Loc(LOCK_B)]),
            ]
        };
        Ok(CheckerInputs {
            iface,
            player_contexts,
            open_contexts,
            focused: PidSet::from_pids([Pid(0), Pid(1)]),
            programs: [(Pid(0), acq_rel()), (Pid(1), acq_rel())]
                .into_iter()
                .collect(),
            scripts: vec![acq_rel()],
        })
    }

    /// Runs checker `name` serially, with B7's settings.
    fn run(&self, name: &str) -> Result<Obligation, LayerError> {
        let (workers, por, prefix_share, deep_share) = (1, false, false, false);
        match name {
            "live" => check_liveness_tuned(
                &self.iface,
                "acq",
                &[Val::Loc(LOCK_B)],
                PID,
                &self.player_contexts,
                ticket_bound(4, 8, 2),
                CHECKER_FUEL,
                workers,
                por,
                prefix_share,
                deep_share,
            ),
            "linz" => check_linearizability_tuned(
                &self.iface,
                &self.focused,
                &self.programs,
                &ticket::r1_relation(),
                &lock_history_validator(),
                &self.open_contexts,
                CHECKER_FUEL,
                workers,
                por,
                prefix_share,
                deep_share,
            ),
            "race" => check_race_freedom_tuned(
                &self.iface,
                &self.focused,
                &self.programs,
                &self.open_contexts,
                CHECKER_FUEL,
                workers,
                por,
                prefix_share,
                deep_share,
            ),
            _ => check_sequence_refinement_tuned(
                &self.iface,
                &ticket::lock_interface(),
                &ticket::r1_relation(),
                PID,
                &self.player_contexts,
                &self.scripts,
                CHECKER_FUEL,
                workers,
                por,
                prefix_share,
                deep_share,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_traced_pipeline_answers_like_the_entry_points() {
        let mut t = Tracer::new();
        t.start_pass(0);
        for stack in ["ticket", "qlock", "mcs"] {
            let item = Item::Certify(Key {
                stack,
                schedule_len: 4,
                rounds: 1,
            });
            let plain = run(item).expect("certifies");
            assert_eq!(plain.len(), expected_obligations(item), "{stack}");
            assert_eq!(
                run_traced(item, &mut t).expect("certifies"),
                plain,
                "{stack}"
            );
        }
        let live = Item::Checker("live");
        assert_eq!(run_traced(live, &mut t), run(live));
        for name in [
            "layer",
            "clightx.front_end",
            "contexts.gen",
            "calculus.compose",
            "verifier.live",
        ] {
            assert!(t.spans().iter().any(|s| s.name == name), "no {name} span");
        }
    }
}
