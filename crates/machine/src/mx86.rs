//! The multiprocessor hardware machine model `Mx86` (§3.1).
//!
//! `Mx86`'s state is the tuple `(c, fρ, m, a, l)`: current CPU, per-CPU
//! private states, shared memory, abstract state and global log (Fig. 7).
//! Unlike the layer interface `Lx86` — where all shared state is a
//! function of the log — `Mx86` maintains the shared memory, ownership
//! map and atomic lock words *concretely and in place*, updating them on
//! every program transition, and records events chronologically alongside.
//! Hardware scheduling transitions "can be arbitrarily and
//! nondeterministically interleaved" with program transitions; the
//! verifier enumerates them as scripted schedulers.
//!
//! [`crate::linking::check_multicore_linking`] is the executable Theorem
//! 3.1: on every bounded interleaving, running a program on `Mx86` and on
//! the layer machine over `Lx86[D]` produces the same log and results —
//! i.e. the replay-function semantics faithfully abstracts the in-place
//! hardware semantics.

use std::collections::BTreeMap;

use ccal_core::abs::AbsState;
use ccal_core::conc::{ConcurrentMachine, ConcurrentOutcome, ThreadScript};
use ccal_core::env::EnvContext;
use ccal_core::event::EventKind;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::{LayerInterface, PrimCtx, PrimSpec};
use ccal_core::machine::MachineError;
use ccal_core::strategy::{RoundRobinScheduler, ScriptScheduler};
use ccal_core::val::Val;

use crate::lx86::local_copy_key;

fn own_key(b: Loc) -> String {
    format!("own[{b}]")
}

fn shared_key(b: Loc) -> String {
    format!("shared[{b}]")
}

fn tkt_t_key(b: Loc) -> String {
    format!("tkt_t[{b}]")
}

fn tkt_n_key(b: Loc) -> String {
    format!("tkt_n[{b}]")
}

fn arg_loc(args: &[Val], prim: &str) -> Result<Loc, MachineError> {
    args.first()
        .ok_or_else(|| MachineError::Stuck(format!("{prim}: missing location argument")))?
        .as_loc()
        .map_err(MachineError::from)
}

fn owner_of(ctx: &PrimCtx<'_>, b: Loc) -> Option<Pid> {
    match ctx.abs.get_or_undef(&own_key(b)) {
        Val::Int(p) if p >= 0 => Some(Pid(p as u32)),
        _ => None,
    }
}

fn int_field(ctx: &PrimCtx<'_>, key: &str) -> i64 {
    match ctx.abs.get_or_undef(key) {
        Val::Int(i) => i,
        _ => 0,
    }
}

/// Builds the hardware machine interface: same primitives and events as
/// [`crate::lx86::lx86_interface`], but with shared state maintained
/// concretely in the abstract state instead of replayed from the log —
/// and *fully preemptible*: every shared primitive is a hardware
/// preemption point and there is no critical-state protection. (The
/// critical-state discipline of §2 is a property of the layer interfaces
/// built above the hardware, not of the hardware itself: `Mx86`'s
/// transitions are "arbitrarily and nondeterministically interleaved",
/// §3.1.)
pub fn mx86_hw_interface() -> LayerInterface {
    LayerInterface::builder("Mx86")
        .prim(PrimSpec::atomic("pull", |ctx, args| {
            let b = arg_loc(args, "pull")?;
            if owner_of(ctx, b).is_some() {
                return Err(MachineError::Stuck(format!(
                    "hw pull({b}) by {}: location not free (data race)",
                    ctx.pid
                )));
            }
            ctx.abs.set(&own_key(b), Val::Int(i64::from(ctx.pid.0)));
            let v = ctx.abs.get_or_undef(&shared_key(b));
            ctx.abs.set(&local_copy_key(ctx.pid, b), v.clone());
            ctx.emit(EventKind::Pull(b));
            Ok(v)
        }))
        .prim(PrimSpec::atomic("push", |ctx, args| {
            let b = arg_loc(args, "push")?;
            if owner_of(ctx, b) != Some(ctx.pid) {
                return Err(MachineError::Stuck(format!(
                    "hw push({b}) by {} without ownership",
                    ctx.pid
                )));
            }
            let v = ctx.abs.get_or_undef(&local_copy_key(ctx.pid, b));
            ctx.abs.set(&shared_key(b), v.clone());
            ctx.abs.set(&own_key(b), Val::Int(-1));
            ctx.emit(EventKind::Push(b, v));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::private("mget", |ctx, args| {
            let b = arg_loc(args, "mget")?;
            if owner_of(ctx, b) != Some(ctx.pid) {
                return Err(MachineError::Stuck(format!(
                    "hw mget({b}) by {} without ownership",
                    ctx.pid
                )));
            }
            Ok(ctx.abs.get_or_undef(&local_copy_key(ctx.pid, b)))
        }))
        .prim(PrimSpec::private("mset", |ctx, args| {
            let b = arg_loc(args, "mset")?;
            let v = args
                .get(1)
                .cloned()
                .ok_or_else(|| MachineError::Stuck("mset: missing value".to_owned()))?;
            if owner_of(ctx, b) != Some(ctx.pid) {
                return Err(MachineError::Stuck(format!(
                    "hw mset({b}) by {} without ownership",
                    ctx.pid
                )));
            }
            ctx.abs.set(&local_copy_key(ctx.pid, b), v);
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("fai_t", |ctx, args| {
            let b = arg_loc(args, "fai_t")?;
            let t = int_field(ctx, &tkt_t_key(b));
            ctx.abs.set(&tkt_t_key(b), Val::Int(t + 1));
            ctx.emit(EventKind::FaiT(b));
            Ok(Val::Int(t))
        }))
        .prim(PrimSpec::atomic("get_n", |ctx, args| {
            let b = arg_loc(args, "get_n")?;
            ctx.emit(EventKind::GetN(b));
            Ok(Val::Int(int_field(ctx, &tkt_n_key(b))))
        }))
        .prim(PrimSpec::atomic("inc_n", |ctx, args| {
            let b = arg_loc(args, "inc_n")?;
            let n = int_field(ctx, &tkt_n_key(b));
            ctx.abs.set(&tkt_n_key(b), Val::Int(n + 1));
            ctx.emit(EventKind::IncN(b));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::atomic("hold", |ctx, args| {
            let b = arg_loc(args, "hold")?;
            ctx.emit(EventKind::Hold(b));
            Ok(Val::Unit)
        }))
        .init_abs(AbsState::new())
        .build()
}

/// A whole-machine `Mx86` program: one script of function/primitive calls
/// per CPU.
pub type Mx86Program = BTreeMap<Pid, ThreadScript>;

/// The `Mx86` machine: `ncpus` CPUs, all focused, interleaved by an
/// explicit hardware schedule.
#[derive(Debug, Clone)]
pub struct Mx86Machine {
    /// Number of CPUs (the domain `D` is `{0, .., ncpus-1}`).
    pub ncpus: u32,
    iface: LayerInterface,
    fuel: u64,
}

impl Mx86Machine {
    /// Creates a machine with `ncpus` CPUs running over the hardware
    /// interface.
    pub fn new(ncpus: u32) -> Self {
        Self {
            ncpus,
            iface: mx86_hw_interface(),
            fuel: ConcurrentMachine::DEFAULT_FUEL,
        }
    }

    /// Creates a machine with the same shape but running over a custom
    /// interface (used by linking checks to swap in `Lx86[D]`, and by the
    /// objects crate to extend the hardware interface).
    pub fn with_interface(ncpus: u32, iface: LayerInterface) -> Self {
        Self {
            ncpus,
            iface,
            fuel: ConcurrentMachine::DEFAULT_FUEL,
        }
    }

    /// Overrides the turn budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The machine's interface.
    pub fn iface(&self) -> &LayerInterface {
        &self.iface
    }

    /// The machine's CPU domain.
    pub fn domain(&self) -> Vec<Pid> {
        (0..self.ncpus).map(Pid).collect()
    }

    /// Runs `program` under a specific hardware schedule prefix (completed
    /// by fair round-robin). The behavior `[[P]]_{Mx86}` is the set of logs
    /// over all schedules; enumerate prefixes to explore it.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] from the run — in particular `Stuck` on a data
    /// race, and `OutOfFuel` on starvation under the given schedule.
    pub fn run_with_schedule(
        &self,
        program: &Mx86Program,
        schedule: &[Pid],
    ) -> Result<ConcurrentOutcome, MachineError> {
        let env = EnvContext::new(std::sync::Arc::new(ScriptScheduler::new(
            schedule.to_vec(),
            self.domain(),
        )));
        let machine =
            ConcurrentMachine::new(self.iface.clone(), PidSet::from_pids(self.domain()), env)
                .with_fuel(self.fuel);
        machine.run(program)
    }

    /// Runs `program` under plain round-robin scheduling.
    ///
    /// # Errors
    ///
    /// See [`Mx86Machine::run_with_schedule`].
    pub fn run_round_robin(
        &self,
        program: &Mx86Program,
    ) -> Result<ConcurrentOutcome, MachineError> {
        let env = EnvContext::new(std::sync::Arc::new(RoundRobinScheduler::new(self.domain())));
        let machine =
            ConcurrentMachine::new(self.iface.clone(), PidSet::from_pids(self.domain()), env)
                .with_fuel(self.fuel);
        machine.run(program)
    }
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;

    fn script(calls: &[(&str, Vec<Val>)]) -> ThreadScript {
        calls
            .iter()
            .map(|(n, a)| ((*n).to_owned(), a.clone()))
            .collect()
    }

    #[test]
    fn hw_pull_push_updates_shared_memory_in_place() {
        let m = Mx86Machine::new(2);
        let b = Val::Loc(Loc(0));
        let mut prog = Mx86Program::new();
        prog.insert(
            Pid(0),
            script(&[
                ("pull", vec![b.clone()]),
                ("mset", vec![b.clone(), Val::Int(9)]),
                ("push", vec![b.clone()]),
            ]),
        );
        let out = m.run_round_robin(&prog).unwrap();
        assert_eq!(out.abs.get_or_undef("shared[b0]"), Val::Int(9));
        assert_eq!(out.log.count_by(Pid(0)), 2, "pull + push events");
    }

    #[test]
    fn hw_fai_is_atomic_across_cpus() {
        let m = Mx86Machine::new(2);
        let b = Val::Loc(Loc(1));
        let mut prog = Mx86Program::new();
        prog.insert(
            Pid(0),
            script(&[("fai_t", vec![b.clone()]), ("fai_t", vec![b.clone()])]),
        );
        prog.insert(Pid(1), script(&[("fai_t", vec![b.clone()])]));
        let out = m.run_round_robin(&prog).unwrap();
        // Three FAIs: tickets are 0, 1, 2 in some order; counter ends at 3.
        assert_eq!(out.abs.get_or_undef("tkt_t[b1]"), Val::Int(3));
        let mut tickets: Vec<i64> = out
            .rets
            .values()
            .flatten()
            .map(|v| v.as_int().unwrap())
            .collect();
        tickets.sort_unstable();
        assert_eq!(tickets, vec![0, 1, 2]);
    }

    #[test]
    fn racy_concurrent_pull_gets_stuck() {
        // Both CPUs pull the same location; with round-robin the second
        // pull happens while the first CPU still owns it.
        let m = Mx86Machine::new(2);
        let b = Val::Loc(Loc(0));
        let mut prog = Mx86Program::new();
        prog.insert(Pid(0), script(&[("pull", vec![b.clone()])]));
        prog.insert(Pid(1), script(&[("pull", vec![b.clone()])]));
        let err = m.run_round_robin(&prog).unwrap_err();
        assert!(matches!(err, MachineError::Stuck(_)));
    }

    #[test]
    fn schedules_change_interleavings() {
        let m = Mx86Machine::new(2);
        let b = Val::Loc(Loc(0));
        let mut prog = Mx86Program::new();
        prog.insert(Pid(0), script(&[("fai_t", vec![b.clone()])]));
        prog.insert(Pid(1), script(&[("fai_t", vec![b.clone()])]));
        let out01 = m
            .run_with_schedule(&prog, &[Pid(0), Pid(0), Pid(1), Pid(1)])
            .unwrap();
        let out10 = m
            .run_with_schedule(&prog, &[Pid(1), Pid(1), Pid(0), Pid(0)])
            .unwrap();
        assert_eq!(out01.rets[&Pid(0)], vec![Val::Int(0)]);
        assert_eq!(out10.rets[&Pid(0)], vec![Val::Int(1)]);
    }
}
