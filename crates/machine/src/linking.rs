//! Multicore linking — the executable Theorem 3.1.
//!
//! "By composing all the CPUs in the machine ..., the resulting layer
//! interface does not depend on any environmental events except those from
//! the hardware scheduler. We construct such a layer interface `Lx86[D]`
//! using the primitives provided by the hardware `Mx86`. We can then prove
//! a contextual refinement from `Mx86` to `Lx86[D]` by picking a suitable
//! hardware scheduler of `Lx86[D]` for every interleaving (or log) of
//! `Mx86`" (Thm 3.1).
//!
//! [`check_multicore_linking`] checks this on a bounded family of
//! interleavings: for every enumerated hardware schedule, the program runs
//! on the concrete-state `Mx86` machine; a *suitable layer scheduler* is
//! derived from the produced log and the program re-runs on the
//! replay-based layer machine `Lx86[D]` under it; per-CPU event
//! projections and all return values must agree. This validates that the
//! replay-function semantics (everything-from-the-log) is a faithful
//! abstraction of in-place hardware state.

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::id::Pid;
use ccal_core::layer::LayerInterface;

use crate::lx86::lx86_interface;
use crate::mx86::{Mx86Machine, Mx86Program};

/// Enumerates all schedules of length `len` over `domain`, capped at
/// `max` using a deterministic stride (same sampling discipline as
/// `ccal_core::contexts::ContextGen`).
pub fn schedules(domain: &[Pid], len: usize, max: usize) -> Vec<Vec<Pid>> {
    let n = domain.len();
    let total = n.pow(len as u32);
    let take = total.min(max.max(1));
    let stride = total.div_ceil(take).max(1);
    (0..total)
        .step_by(stride)
        .take(take)
        .map(|mut index| {
            let mut script = Vec::with_capacity(len);
            for _ in 0..len {
                script.push(domain[index % n]);
                index /= n;
            }
            script
        })
        .collect()
}

/// Bounded check of Theorem 3.1 for a fixed program: for every enumerated
/// hardware schedule, `[[P]]_{Mx86} = [[P]]_{Lx86[D]}` (log, return values
/// and turn-for-turn agreement). Schedules on which *both* machines starve
/// (out of fuel) are skipped; a schedule on which exactly one machine
/// fails is a counterexample.
///
/// # Errors
///
/// [`LayerError::Mismatch`] describing the first disagreeing schedule, or
/// [`LayerError::Machine`] if a run fails on one side only.
pub fn check_multicore_linking(
    ncpus: u32,
    program: &Mx86Program,
    schedule_len: usize,
    max_schedules: usize,
) -> Result<Obligation, LayerError> {
    check_multicore_linking_between(
        ncpus,
        crate::mx86::mx86_hw_interface(),
        lx86_interface(),
        program,
        schedule_len,
        max_schedules,
    )
}

/// Generalization of [`check_multicore_linking`] to arbitrary
/// hardware/layer interface pairs — used by the objects crate to link
/// extended machines (e.g. with MCS primitives added on both sides).
///
/// For each enumerated hardware schedule the program runs on the hardware
/// machine; from the produced log a *suitable layer scheduler* is derived
/// (the replay scheduler — Thm 3.1's "picking a suitable hardware
/// scheduler ... for every interleaving"), the program is re-run on the
/// layer machine under it, and the runs are compared observationally:
/// per-CPU event projections and all return values must agree. (Whole-log
/// equality is deliberately not required: the layer machine's critical
/// state collapses ownership windows that raw hardware may interleave —
/// the "interleavings shuffling" of the log-lift pattern, §3.3.)
///
/// Hardware schedules on which the program races (the hardware machine
/// gets stuck) or starves are counted as skipped: Thm 3.1 transports the
/// behaviors of *safe* runs, and showing programs never get stuck is the
/// race-freedom obligation checked elsewhere.
///
/// # Errors
///
/// [`LayerError::Mismatch`] describing the first disagreeing schedule, or
/// [`LayerError::Machine`] if the layer run fails where hardware
/// succeeded.
pub fn check_multicore_linking_between(
    ncpus: u32,
    hw_iface: LayerInterface,
    layer_iface: LayerInterface,
    program: &Mx86Program,
    schedule_len: usize,
    max_schedules: usize,
) -> Result<Obligation, LayerError> {
    use ccal_core::conc::ConcurrentMachine;
    use ccal_core::id::PidSet;
    use ccal_core::machine::MachineError;
    use ccal_core::sim::replay_env_set;

    let hw = Mx86Machine::with_interface(ncpus, hw_iface);
    let domain = hw.domain();
    let focused = PidSet::from_pids(domain.clone());
    let mut cases_checked = 0;
    let mut cases_skipped = 0;
    for (si, schedule) in schedules(&domain, schedule_len, max_schedules)
        .into_iter()
        .enumerate()
    {
        let hw_out = match hw.run_with_schedule(program, &schedule) {
            Ok(out) => out,
            Err(MachineError::Stuck(_))
            | Err(MachineError::Replay(_))
            | Err(MachineError::OutOfFuel { .. }) => {
                cases_skipped += 1;
                continue;
            }
            Err(e) => return Err(LayerError::Machine(e)),
        };
        // Derive the layer scheduler from the hardware interleaving.
        let layer_env = replay_env_set(&hw_out.log, &focused);
        let layer_machine = ConcurrentMachine::new(layer_iface.clone(), focused.clone(), layer_env);
        let ly_out = match layer_machine.run(program) {
            Ok(out) => out,
            Err(e) => {
                return Err(LayerError::Mismatch {
                    expected: "layer run to succeed like the hardware run".to_owned(),
                    found: format!("layer error: {e}"),
                    context: format!("multicore linking, schedule #{si} ({schedule:?})"),
                });
            }
        };
        for pid in &domain {
            let hw_proj: Vec<_> = hw_out.log.events_by(*pid).cloned().collect();
            let ly_proj: Vec<_> = ly_out.log.events_by(*pid).cloned().collect();
            if hw_proj != ly_proj {
                return Err(LayerError::Mismatch {
                    expected: format!("{ly_proj:?}"),
                    found: format!("{hw_proj:?}"),
                    context: format!(
                        "multicore linking projection for {pid}, schedule #{si} ({schedule:?})"
                    ),
                });
            }
        }
        if hw_out.rets != ly_out.rets {
            return Err(LayerError::Mismatch {
                expected: format!("{:?}", ly_out.rets),
                found: format!("{:?}", hw_out.rets),
                context: format!("multicore linking return values, schedule #{si} ({schedule:?})"),
            });
        }
        cases_checked += 1;
    }
    Ok(Obligation {
        rule: Rule::MulticoreLink,
        description: format!("∀sched: [[P]]_Mx86({ncpus} cpus) ⊑ [[P]]_Lx86[D]"),
        cases_checked,
        cases_skipped,
        cases_reduced: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::id::Loc;
    use ccal_core::val::Val;

    fn fai_program(ncpus: u32, per_cpu: usize) -> Mx86Program {
        let mut prog = Mx86Program::new();
        for c in 0..ncpus {
            prog.insert(
                Pid(c),
                (0..per_cpu)
                    .map(|_| ("fai_t".to_owned(), vec![Val::Loc(Loc(0))]))
                    .collect(),
            );
        }
        prog
    }

    #[test]
    fn schedules_enumeration_has_expected_size() {
        let d = [Pid(0), Pid(1)];
        assert_eq!(schedules(&d, 3, 100).len(), 8);
        assert!(schedules(&d, 10, 16).len() <= 16);
    }

    #[test]
    fn fai_program_links_across_all_schedules() {
        let ob = check_multicore_linking(2, &fai_program(2, 2), 4, 64).unwrap();
        assert_eq!(ob.rule, Rule::MulticoreLink);
        assert_eq!(ob.cases_checked, 16);
    }

    #[test]
    fn pull_push_program_links() {
        let b = Val::Loc(Loc(0));
        let mut prog = Mx86Program::new();
        prog.insert(
            Pid(0),
            vec![
                ("pull".to_owned(), vec![b.clone()]),
                ("mset".to_owned(), vec![b.clone(), Val::Int(5)]),
                ("push".to_owned(), vec![b.clone()]),
            ],
        );
        prog.insert(Pid(1), vec![("fai_t".to_owned(), vec![Val::Loc(Loc(1))])]);
        let ob = check_multicore_linking(2, &prog, 3, 64).unwrap();
        assert!(ob.cases_checked > 0);
    }

    #[test]
    fn racy_program_races_identically_on_both_machines() {
        // Both CPUs pull the same location: on racy schedules both
        // machines must get stuck (skipped), on race-free schedules both
        // must succeed — never a one-sided failure.
        let b = Val::Loc(Loc(0));
        let mut prog = Mx86Program::new();
        for c in 0..2 {
            prog.insert(
                Pid(c),
                vec![
                    ("pull".to_owned(), vec![b.clone()]),
                    ("push".to_owned(), vec![b.clone()]),
                ],
            );
        }
        let ob = check_multicore_linking(2, &prog, 4, 64).unwrap();
        assert!(ob.cases_checked > 0, "some race-free schedules exist");
        assert!(ob.cases_skipped > 0, "some racy schedules exist");
    }
}
