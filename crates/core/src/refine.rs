//! Contextual refinement and the soundness theorem (Thm 2.2).
//!
//! "From `L′[D] ⊢_R M : L[D]`, the soundness theorem enforces a strong
//! contextual refinement property saying that, for any client program `P`,
//! ... for any log `l` in the behavior `[[P ⊕ M]]_{L′[D]}`, there must
//! exist a log `l′` in the behavior `[[P]]_{L[D]}` such that `l` and `l′`
//! satisfy `R`" (Thm 2.2).
//!
//! [`check_contextual_refinement`] is the bounded executable check: for
//! every generated environment context, it runs `P ⊕ M` over the underlay
//! (by installing `M`'s functions next to the underlay's primitives),
//! abstracts the produced log through `R`, constructs the matching
//! high-level environment by replay (the paper's "picking a suitable
//! scheduler", §2 and Thm 3.1), runs `P` over the overlay, and compares.

use std::collections::BTreeMap;

use crate::calculus::{CertifiedLayer, LayerError, Obligation, Rule};
use crate::conc::{ConcurrentMachine, ThreadScript};
use crate::env::EnvContext;
use crate::id::Pid;
use crate::log::Log;
use crate::sim::replay_env_set;

/// A client program `P`: one straight-line script of primitive calls per
/// focused participant.
pub type ClientProgram = BTreeMap<Pid, ThreadScript>;

/// The behaviors `[[P]]_{L[A]}`: the set of logs produced by running `P`
/// over the interface under each environment context. Contexts on which
/// the run is invalid (rely violation / unfairness) are omitted, mirroring
/// the quantification over *valid* contexts.
///
/// # Errors
///
/// Propagates real execution failures (stuck machines, guarantee
/// violations).
pub fn behaviors(
    iface: &crate::layer::LayerInterface,
    focused: &crate::id::PidSet,
    client: &ClientProgram,
    contexts: &[EnvContext],
    fuel: u64,
) -> Result<Vec<Log>, LayerError> {
    let mut logs = Vec::new();
    for env in contexts {
        let machine =
            ConcurrentMachine::new(iface.clone(), focused.clone(), env.clone()).with_fuel(fuel);
        match machine.run(client) {
            Ok(out) => logs.push(out.log),
            Err(e) if e.is_invalid_context() => continue,
            Err(e) => return Err(LayerError::Machine(e)),
        }
    }
    Ok(logs)
}

/// Bounded check of Theorem 2.2 for a certified layer and a client
/// program: `∀E. [[P ⊕ M]]_{L′[A]}(E) ⊑_R [[P]]_{L[A]}`.
///
/// Returns the discharged obligation (and pushes it onto a copy of the
/// layer's certificate if the caller records it).
///
/// # Errors
///
/// * [`LayerError::Machine`] if a run fails;
/// * [`LayerError::Mismatch`] if some low-level behavior has no related
///   high-level behavior.
pub fn check_contextual_refinement(
    layer: &CertifiedLayer,
    client: &ClientProgram,
    contexts: &[EnvContext],
    fuel: u64,
) -> Result<Obligation, LayerError> {
    let extended = layer.module.install(&layer.underlay)?;
    let mut cases_checked = 0;
    let mut cases_skipped = 0;
    for (ci, env) in contexts.iter().enumerate() {
        // [[P ⊕ M]]_{L′}(E)
        let lower_machine =
            ConcurrentMachine::new(extended.clone(), layer.focused.clone(), env.clone())
                .with_fuel(fuel);
        let lower = match lower_machine.run(client) {
            Ok(out) => out,
            Err(e) if e.is_invalid_context() => {
                cases_skipped += 1;
                continue;
            }
            Err(e) => return Err(LayerError::Machine(e)),
        };
        // Abstract through R and replay for the overlay run.
        let expected =
            layer
                .relation
                .abstracted(&lower.log)
                .ok_or_else(|| LayerError::Mismatch {
                    expected: format!("log in domain of {}", layer.relation.name()),
                    found: lower.log.to_string(),
                    context: format!("soundness, context #{ci}"),
                })?;
        let upper_env = replay_env_set(&expected, &layer.focused);
        let upper_machine =
            ConcurrentMachine::new(layer.overlay.clone(), layer.focused.clone(), upper_env)
                .with_fuel(fuel);
        let upper = match upper_machine.run(client) {
            Ok(out) => out,
            Err(e) if e.is_invalid_context() => {
                cases_skipped += 1;
                continue;
            }
            Err(e) => return Err(LayerError::Machine(e)),
        };
        if !layer.relation.holds(&lower.log, &upper.log) {
            return Err(LayerError::Mismatch {
                expected: format!("related high-level log (R = {})", layer.relation.name()),
                found: format!("low: {} / high: {}", lower.log, upper.log),
                context: format!("soundness, context #{ci}"),
            });
        }
        if lower.rets != upper.rets {
            return Err(LayerError::Mismatch {
                expected: format!("{:?}", upper.rets),
                found: format!("{:?}", lower.rets),
                context: format!("soundness return values, context #{ci}"),
            });
        }
        cases_checked += 1;
    }
    Ok(Obligation {
        rule: Rule::Soundness,
        description: format!(
            "∀P fixed: [[P ⊕ {}]]_{}{} ⊑_{} [[P]]_{}{}",
            layer.module.name,
            layer.underlay.name,
            layer.focused,
            layer.relation.name(),
            layer.overlay.name,
            layer.focused
        ),
        cases_checked,
        cases_skipped,
        cases_reduced: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calculus::{check_fun, CheckOptions};
    use crate::contexts::ContextGen;
    use crate::event::EventKind;
    use crate::id::PidSet;
    use crate::layer::{LayerInterface, PrimSpec};
    use crate::machine::MachineError;
    use crate::module::{Lang, Module};
    use crate::sim::SimRelation;
    use crate::val::Val;

    fn low_iface() -> LayerInterface {
        LayerInterface::builder("L-low")
            .prim(PrimSpec::atomic("raw", |ctx, _| {
                ctx.emit(EventKind::Prim("raw".into(), vec![]));
                Ok(Val::Unit)
            }))
            .build()
    }

    fn high_iface() -> LayerInterface {
        LayerInterface::builder("L-high")
            .prim(PrimSpec::atomic("nice", |ctx, _| {
                ctx.emit(EventKind::Prim("nice".into(), vec![]));
                Ok(Val::Unit)
            }))
            .build()
    }

    fn raw_to_nice() -> SimRelation {
        SimRelation::per_event("raw→nice", |e| match &e.kind {
            EventKind::Prim(n, _) if n == "raw" => {
                vec![crate::event::Event::prim(e.pid, "nice", vec![])]
            }
            _ => vec![e.clone()],
        })
    }

    fn nice_module() -> Module {
        use crate::layer::{PrimCtx, PrimRun, PrimStep, SubCall};
        struct Nice {
            sub: Option<SubCall>,
        }
        impl PrimRun for Nice {
            fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
                if self.sub.is_none() {
                    self.sub = Some(SubCall::start(ctx, "raw", vec![])?);
                }
                match self.sub.as_mut().unwrap().step(ctx)? {
                    Some(_) => Ok(PrimStep::Done(Val::Unit)),
                    None => Ok(PrimStep::Query),
                }
            }
        }
        Module::new("M-nice").with_fn(
            Lang::Native,
            PrimSpec::strategy("nice", true, |_, _| Box::new(Nice { sub: None })),
        )
    }

    #[test]
    fn soundness_holds_for_certified_wrapper() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(3);
        let layer = check_fun(
            &low_iface(),
            &nice_module(),
            &high_iface(),
            &raw_to_nice(),
            Pid(0),
            &CheckOptions::new(gen.contexts()),
        )
        .unwrap();
        let mut client = ClientProgram::new();
        client.insert(Pid(0), vec![("nice".to_owned(), vec![]); 2]);
        let ob = check_contextual_refinement(&layer, &client, &gen.contexts(), 100_000).unwrap();
        assert!(ob.cases_checked > 0);
        assert_eq!(ob.rule, Rule::Soundness);
    }

    #[test]
    fn soundness_for_two_focused_participants() {
        use crate::calculus::pcomp;
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(3);
        let opts = CheckOptions::new(gen.contexts());
        let l0 = check_fun(
            &low_iface(),
            &nice_module(),
            &high_iface(),
            &raw_to_nice(),
            Pid(0),
            &opts,
        )
        .unwrap();
        let l1 = check_fun(
            &low_iface(),
            &nice_module(),
            &high_iface(),
            &raw_to_nice(),
            Pid(1),
            &opts,
        )
        .unwrap();
        let both = pcomp(&l0, &l1).unwrap();
        assert_eq!(both.focused, PidSet::from_pids([Pid(0), Pid(1)]));
        let mut client = ClientProgram::new();
        client.insert(Pid(0), vec![("nice".to_owned(), vec![])]);
        client.insert(Pid(1), vec![("nice".to_owned(), vec![])]);
        let ob = check_contextual_refinement(&both, &client, &gen.contexts(), 100_000).unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn behaviors_collects_logs_per_context() {
        let gen = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(2);
        let mut client = ClientProgram::new();
        client.insert(Pid(0), vec![("raw".to_owned(), vec![])]);
        let logs = behaviors(
            &low_iface(),
            &PidSet::singleton(Pid(0)),
            &client,
            &gen.contexts(),
            100_000,
        )
        .unwrap();
        assert_eq!(logs.len(), gen.contexts().len());
        for log in logs {
            assert_eq!(log.count_by(Pid(0)), 1);
        }
    }
}
