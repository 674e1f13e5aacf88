//! The CPU-local layer interface `Lx86[c]` (§3.2).
//!
//! `Lx86` equips the assembly machine with the shared primitives of the
//! push/pull memory model (Fig. 8) and the hardware atomic primitives of
//! the ticket lock's bottom interface `L0` ("these primitives are provided
//! by `L0` and implemented using x86 atomic instructions", §2). Every
//! primitive's return value is computed by a *replay function* over the
//! global log — the machine state is a function of the log, which is what
//! makes the interface compose in parallel.
//!
//! The corresponding *hardware* machine `Mx86`, which maintains shared
//! state concretely and in place, lives in [`crate::mx86`]; Theorem 3.1's
//! executable counterpart ([`crate::linking`]) validates that the two
//! agree on every bounded interleaving.

use std::collections::BTreeSet;

use ccal_core::abs::AbsState;
use ccal_core::event::{Event, EventKind};
use ccal_core::id::{Loc, Pid};
use ccal_core::layer::{Critical, LayerInterface, PrimSpec};
use ccal_core::log::Log;
use ccal_core::machine::MachineError;
use ccal_core::rely::own_events;
use ccal_core::replay::{my_ticket, replay_shared, replay_ticket, Ownership};
use ccal_core::val::Val;

/// The abstract-state key of CPU `pid`'s local copy of shared location `b`
/// ("`m` is just a local copy of the shared memory", §3.2).
pub fn local_copy_key(pid: Pid, b: Loc) -> String {
    format!("m[{pid}][{b}]")
}

/// What one CPU holds, replayed from the log: the shared locations it has
/// pulled and not pushed back, and the ticket locks it has announced with
/// `hold(b)` and not yet released with its `inc_n(b)`. A step fold, so the
/// `Lx86` critical-state monitor ([`in_critical_l0`]) carries it along the
/// log instead of replaying the log at every query point.
#[derive(Debug, Clone)]
struct CpuHoldings {
    pid: Pid,
    owned: BTreeSet<Loc>,
    held: BTreeSet<Loc>,
}

impl CpuHoldings {
    fn new(pid: Pid) -> Self {
        Self {
            pid,
            owned: BTreeSet::new(),
            held: BTreeSet::new(),
        }
    }

    fn step(&mut self, e: &Event) {
        if e.pid != self.pid {
            return;
        }
        match e.kind {
            EventKind::Pull(b) => {
                self.owned.insert(b);
            }
            EventKind::Push(b, _) => {
                self.owned.remove(&b);
            }
            EventKind::Hold(b) => {
                self.held.insert(b);
            }
            EventKind::IncN(b) => {
                self.held.remove(&b);
            }
            _ => {}
        }
    }

    /// Whether the CPU owns a pulled location or holds a ticket lock.
    fn is_critical(&self) -> bool {
        !self.owned.is_empty() || !self.held.is_empty()
    }
}

/// The set of shared locations currently pulled (owned) by `pid`,
/// reconstructed from the log.
pub fn owned_locs(log: &Log, pid: Pid) -> BTreeSet<Loc> {
    let mut st = CpuHoldings::new(pid);
    for e in log {
        st.step(e);
    }
    st.owned
}

/// The critical-state predicate of the `Lx86`-family interfaces: a CPU is
/// critical while it owns a pulled location or holds a ticket lock —
/// "there is no need to ask E in critical state" (§2).
pub fn in_critical_l0() -> Critical {
    Critical::fold(
        own_events,
        CpuHoldings::new,
        CpuHoldings::step,
        CpuHoldings::is_critical,
    )
}

fn arg_loc(args: &[Val], i: usize, prim: &str) -> Result<Loc, MachineError> {
    args.get(i)
        .ok_or_else(|| MachineError::Stuck(format!("{prim}: missing argument {i}")))?
        .as_loc()
        .map_err(MachineError::from)
}

/// `σ_pull` (Fig. 8): acquires ownership of `b`, loading the replayed
/// shared value into the CPU's local copy. Returns the loaded value.
/// Stuck if `b` is not free — the data-race signal of §3.1.
pub fn pull_prim() -> PrimSpec {
    PrimSpec::atomic("pull", |ctx, args| {
        let b = arg_loc(args, 0, "pull")?;
        ctx.emit(EventKind::Pull(b));
        let cell = replay_shared(ctx.log, b)?;
        ctx.abs.set(&local_copy_key(ctx.pid, b), cell.value.clone());
        Ok(cell.value)
    })
}

/// `σ_push` (Fig. 8): publishes the CPU's local copy of `b` and frees its
/// ownership. Fig. 8's "do not query E" is realized by the critical
/// state: a CPU that owns `b` is critical, so the machine skips the query
/// point — while a protocol-violating push (not owning `b`) is preemptible
/// exactly as on the raw hardware. Stuck if the CPU does not own `b`.
pub fn push_prim() -> PrimSpec {
    PrimSpec::atomic("push", |ctx, args| {
        let b = arg_loc(args, 0, "push")?;
        let v = ctx.abs.get_or_undef(&local_copy_key(ctx.pid, b));
        ctx.emit(EventKind::Push(b, v));
        replay_shared(ctx.log, b)?;
        Ok(Val::Unit)
    })
}

/// Private read of the local copy of `b`. Stuck unless the CPU owns `b`
/// ("tries to access ... a location not owned by the current CPU, ... the
/// machine gets stuck", §3.1).
pub fn mget_prim() -> PrimSpec {
    PrimSpec::private("mget", |ctx, args| {
        let b = arg_loc(args, 0, "mget")?;
        let cell = replay_shared(ctx.log, b)?;
        if cell.owner != Ownership::Owned(ctx.pid) {
            return Err(MachineError::Stuck(format!(
                "mget({b}) by {} without ownership",
                ctx.pid
            )));
        }
        Ok(ctx.abs.get_or_undef(&local_copy_key(ctx.pid, b)))
    })
}

/// Private write of the local copy of `b`. Stuck unless the CPU owns `b`.
pub fn mset_prim() -> PrimSpec {
    PrimSpec::private("mset", |ctx, args| {
        let b = arg_loc(args, 0, "mset")?;
        let v = args
            .get(1)
            .cloned()
            .ok_or_else(|| MachineError::Stuck("mset: missing value".to_owned()))?;
        let cell = replay_shared(ctx.log, b)?;
        if cell.owner != Ownership::Owned(ctx.pid) {
            return Err(MachineError::Stuck(format!(
                "mset({b}) by {} without ownership",
                ctx.pid
            )));
        }
        ctx.abs.set(&local_copy_key(ctx.pid, b), v);
        Ok(Val::Unit)
    })
}

/// `FAI_t(b)`: the hardware fetch-and-increment of the ticket lock's
/// next-ticket field (§2). The returned ticket is "calculated by a function
/// that counts the fetch-and-increment events in `l`".
pub fn fai_t_prim() -> PrimSpec {
    PrimSpec::atomic("fai_t", |ctx, args| {
        let b = arg_loc(args, 0, "fai_t")?;
        ctx.emit(EventKind::FaiT(b));
        let ticket =
            my_ticket(ctx.log, b, ctx.pid).expect("fai_t just emitted an event for this pid");
        Ok(Val::Int(ticket as i64))
    })
}

/// `get_n(b)`: reads the now-serving field of the ticket lock.
pub fn get_n_prim() -> PrimSpec {
    PrimSpec::atomic("get_n", |ctx, args| {
        let b = arg_loc(args, 0, "get_n")?;
        ctx.emit(EventKind::GetN(b));
        Ok(Val::Int(replay_ticket(ctx.log, b).serving as i64))
    })
}

/// `inc_n(b)`: increments the now-serving field (lock release). When
/// executed in the critical state (after `hold`) the machine skips its
/// query point, giving §2's "no need to ask E"; outside the protocol it
/// is preemptible like any hardware instruction.
pub fn inc_n_prim() -> PrimSpec {
    PrimSpec::atomic("inc_n", |ctx, args| {
        let b = arg_loc(args, 0, "inc_n")?;
        ctx.emit(EventKind::IncN(b));
        Ok(Val::Unit)
    })
}

/// `hold(b)`: "a no-op primitive ... called by `acq` to announce that the
/// lock has been taken" (§2). A shared primitive with its own query point
/// (the `?E, !i.hold` move of the `φ′_acq` automaton); *entering* the
/// critical state happens with the emitted event.
pub fn hold_prim() -> PrimSpec {
    PrimSpec::atomic("hold", |ctx, args| {
        let b = arg_loc(args, 0, "hold")?;
        ctx.emit(EventKind::Hold(b));
        Ok(Val::Unit)
    })
}

/// Builds the CPU-local interface `Lx86` with the push/pull primitives,
/// local-copy accessors, and the ticket-lock hardware primitives. All
/// state is reconstructed from the log by replay.
pub fn lx86_interface() -> LayerInterface {
    LayerInterface::builder("Lx86")
        .prim(pull_prim())
        .prim(push_prim())
        .prim(mget_prim())
        .prim(mset_prim())
        .prim(fai_t_prim())
        .prim(get_n_prim())
        .prim(inc_n_prim())
        .prim(hold_prim())
        .critical(in_critical_l0())
        .init_abs(AbsState::new())
        .build()
}

#[cfg(test)]
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use ccal_core::env::EnvContext;
    use ccal_core::machine::LayerMachine;
    use ccal_core::strategy::RoundRobinScheduler;
    use std::sync::Arc;

    fn machine(pid: u32) -> LayerMachine {
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)));
        LayerMachine::new(lx86_interface(), Pid(pid), env)
    }

    #[test]
    fn pull_modify_push_round_trip() {
        let b = Val::Loc(Loc(3));
        let mut m = machine(0);
        assert!(m.call_prim("pull", &[b.clone()]).unwrap().is_undef());
        m.call_prim("mset", &[b.clone(), Val::Int(42)]).unwrap();
        assert_eq!(m.call_prim("mget", &[b.clone()]).unwrap(), Val::Int(42));
        m.call_prim("push", &[b.clone()]).unwrap();
        // A second pull observes the pushed value.
        assert_eq!(m.call_prim("pull", &[b]).unwrap(), Val::Int(42));
    }

    #[test]
    fn access_without_ownership_is_stuck() {
        let b = Val::Loc(Loc(0));
        let mut m = machine(0);
        assert!(matches!(
            m.call_prim("mget", &[b.clone()]),
            Err(MachineError::Stuck(_))
        ));
        assert!(matches!(
            m.call_prim("push", &[b]),
            Err(MachineError::Replay(_))
        ));
    }

    #[test]
    fn double_pull_by_env_is_a_race() {
        use ccal_core::event::Event;
        use ccal_core::strategy::ScriptPlayer;
        // Environment CPU 1 pulls b before we do: our pull gets stuck.
        let b = Loc(0);
        let noisy = ScriptPlayer::new(Pid(1), vec![vec![Event::new(Pid(1), EventKind::Pull(b))]]);
        // Schedule CPU 1 first so its pull lands before ours.
        let env = EnvContext::new(Arc::new(ccal_core::strategy::ScriptScheduler::new(
            vec![Pid(1)],
            vec![Pid(0), Pid(1)],
        )))
        .with_player(Pid(1), Arc::new(noisy));
        let mut m = LayerMachine::new(lx86_interface(), Pid(0), env);
        let err = m.call_prim("pull", &[Val::Loc(b)]).unwrap_err();
        assert!(matches!(err, MachineError::Replay(_)));
    }

    #[test]
    fn ticket_prims_compute_from_log() {
        let b = Val::Loc(Loc(7));
        let mut m = machine(0);
        assert_eq!(m.call_prim("fai_t", &[b.clone()]).unwrap(), Val::Int(0));
        assert_eq!(m.call_prim("get_n", &[b.clone()]).unwrap(), Val::Int(0));
        m.call_prim("hold", &[b.clone()]).unwrap();
        m.call_prim("inc_n", &[b.clone()]).unwrap();
        assert_eq!(m.call_prim("get_n", &[b.clone()]).unwrap(), Val::Int(1));
        assert_eq!(m.call_prim("fai_t", &[b]).unwrap(), Val::Int(1));
    }

    #[test]
    fn critical_state_tracks_ownership_and_holds() {
        let b = Loc(2);
        let in_critical_l0 = |pid, log: &Log| in_critical_l0().holds(pid, log);
        let mut log = Log::new();
        assert!(!in_critical_l0(Pid(0), &log));
        log.append(ccal_core::event::Event::new(Pid(0), EventKind::Pull(b)));
        assert!(in_critical_l0(Pid(0), &log));
        log.append(ccal_core::event::Event::new(
            Pid(0),
            EventKind::Push(b, Val::Int(1)),
        ));
        assert!(!in_critical_l0(Pid(0), &log));
        log.append(ccal_core::event::Event::new(Pid(0), EventKind::Hold(b)));
        assert!(in_critical_l0(Pid(0), &log));
        log.append(ccal_core::event::Event::new(Pid(0), EventKind::IncN(b)));
        assert!(!in_critical_l0(Pid(0), &log));
    }

    #[test]
    fn owned_locs_tracks_multiple_locations() {
        use ccal_core::event::Event;
        let log = Log::from_events([
            Event::new(Pid(0), EventKind::Pull(Loc(1))),
            Event::new(Pid(0), EventKind::Pull(Loc(2))),
            Event::new(Pid(0), EventKind::Push(Loc(1), Val::Unit)),
        ]);
        let owned = owned_locs(&log, Pid(0));
        assert!(!owned.contains(&Loc(1)));
        assert!(owned.contains(&Loc(2)));
    }
}
