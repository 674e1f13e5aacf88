//! The (sequential-like) layer machine for a focused participant.
//!
//! "Consider the case where the focused thread set is a singleton `{i}`.
//! Since the environmental executions (including the interleavings) are all
//! encapsulated into the environment context, `L[i]` is actually a
//! sequential-like (or local) interface parameterized over `E`. Before each
//! move of a client program `P` over this local interface, the layer
//! machine first repeatedly asks `E` for environmental events until the
//! control is transferred to `i`. It then makes the move based on received
//! events" (§2).
//!
//! [`LayerMachine`] is that machine: it drives [`PrimRun`]s, delivering
//! environment events at query points (unless the participant is in the
//! critical state), checking the rely condition on received events and the
//! guarantee condition on every local step.

use std::fmt;
use std::sync::Arc;

use crate::abs::{AbsError, AbsState};
use crate::env::{EnvContext, EnvError};
use crate::id::{Pid, PidSet};
use crate::layer::{LayerInterface, PrimCtx, PrimRun, PrimStep};
use crate::log::Log;
use crate::replay::ReplayError;
use crate::val::{Val, ValError};

/// Errors of layer-machine execution. `Stuck` is the semantic "the machine
/// gets stuck" of the paper — e.g. a data race under the push/pull model;
/// the others are verification-infrastructure failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A primitive was called that the interface does not provide.
    UnknownPrim {
        /// The missing primitive.
        prim: String,
        /// The interface queried.
        iface: String,
    },
    /// Two joined interfaces or linked modules both define this name.
    DuplicatePrim {
        /// The colliding name.
        prim: String,
        /// The interface/module being formed.
        iface: String,
    },
    /// The machine is stuck: an undefined transition was attempted.
    Stuck(String),
    /// A replay function got stuck (data race / protocol violation).
    Replay(ReplayError),
    /// Abstract-state access failed.
    Abs(AbsError),
    /// Dynamic value typing failed.
    Val(ValError),
    /// Querying the environment context failed.
    Env(EnvError),
    /// The environment produced events violating the rely condition; the
    /// context is invalid and verifiers treat the run as vacuous.
    RelyViolated {
        /// Name of the violated invariant.
        invariant: String,
        /// Observer participant.
        pid: Pid,
    },
    /// A local step violated the layer's guarantee condition — a real
    /// verification failure.
    GuaranteeViolated {
        /// Name of the violated invariant.
        invariant: String,
        /// The participant whose step violated it.
        pid: Pid,
        /// Log length at the violation.
        log_len: usize,
    },
    /// The step budget was exhausted (possible divergence or liveness
    /// failure).
    OutOfFuel {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl MachineError {
    /// Whether the error indicates an *invalid environment context* (rely
    /// violation or unfair scheduling) rather than a defect of the code
    /// under test. Verifiers skip such contexts: the paper only quantifies
    /// over valid environment contexts (§3.2).
    pub fn is_invalid_context(&self) -> bool {
        matches!(
            self,
            MachineError::RelyViolated { .. } | MachineError::Env(EnvError::Unfair { .. })
        )
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UnknownPrim { prim, iface } => {
                write!(f, "interface {iface} has no primitive `{prim}`")
            }
            MachineError::DuplicatePrim { prim, iface } => {
                write!(f, "duplicate primitive `{prim}` while forming {iface}")
            }
            MachineError::Stuck(msg) => write!(f, "machine stuck: {msg}"),
            MachineError::Replay(e) => write!(f, "{e}"),
            MachineError::Abs(e) => write!(f, "{e}"),
            MachineError::Val(e) => write!(f, "{e}"),
            MachineError::Env(e) => write!(f, "{e}"),
            MachineError::RelyViolated { invariant, pid } => {
                write!(f, "rely condition `{invariant}` violated (observer {pid})")
            }
            MachineError::GuaranteeViolated {
                invariant,
                pid,
                log_len,
            } => write!(
                f,
                "guarantee `{invariant}` violated by {pid} at log length {log_len}"
            ),
            MachineError::OutOfFuel { budget } => {
                write!(f, "machine ran out of fuel (budget {budget})")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ReplayError> for MachineError {
    fn from(e: ReplayError) -> Self {
        MachineError::Replay(e)
    }
}

impl From<AbsError> for MachineError {
    fn from(e: AbsError) -> Self {
        MachineError::Abs(e)
    }
}

impl From<ValError> for MachineError {
    fn from(e: ValError) -> Self {
        MachineError::Val(e)
    }
}

impl From<EnvError> for MachineError {
    fn from(e: EnvError) -> Self {
        MachineError::Env(e)
    }
}

/// The layer machine for one focused participant over an interface `L[i]`,
/// parameterized by an environment context `E`.
///
/// Cloning costs reference-count bumps only: the interface, the focused
/// set and the environment are `Arc`-shared, the abstract state copies
/// its field map only on the first write after a fork, and the persistent
/// log shares all of its events (its next append starts a new generation
/// instead of copying the shared tail). That is what makes
/// [`LayerMachine::fork`] a viable snapshot primitive for the
/// prefix-sharing exploration ([`crate::prefix`]), which forks at every
/// environment query point.
#[derive(Clone)]
pub struct LayerMachine {
    iface: Arc<LayerInterface>,
    /// The focused participant `i`.
    pub pid: Pid,
    focused: Arc<PidSet>,
    env: EnvContext,
    /// The abstract state `a`.
    pub abs: AbsState,
    /// The global log `l`.
    pub log: Log,
    fuel: u64,
    budget: u64,
}

impl LayerMachine {
    /// Default step budget per machine.
    pub const DEFAULT_FUEL: u64 = 100_000;

    /// Creates a machine for participant `pid` over `iface`, with
    /// environment context `env`. The abstract state starts from the
    /// interface's `init_abs`, the log starts empty. Checkers that create
    /// many machines over one interface pass an `Arc<LayerInterface>` so
    /// every machine shares it.
    pub fn new(iface: impl Into<Arc<LayerInterface>>, pid: Pid, env: EnvContext) -> Self {
        let iface = iface.into();
        let abs = iface.init_abs.clone();
        Self {
            iface,
            pid,
            focused: Arc::new(PidSet::singleton(pid)),
            env,
            abs,
            log: Log::new(),
            fuel: Self::DEFAULT_FUEL,
            budget: Self::DEFAULT_FUEL,
        }
    }

    /// Overrides the step budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self.budget = fuel;
        self
    }

    /// Starts the machine from a given log (e.g. a non-empty initial log
    /// for simulation checking).
    pub fn with_initial_log(mut self, log: Log) -> Self {
        self.log = log;
        self
    }

    /// The machine's interface.
    pub fn iface(&self) -> &LayerInterface {
        &self.iface
    }

    /// The shared interface allocation (tests check that forks share it).
    #[cfg(test)]
    fn iface_arc(&self) -> &Arc<LayerInterface> {
        &self.iface
    }

    /// The machine's environment context.
    pub fn env(&self) -> &EnvContext {
        &self.env
    }

    /// Whether the machine is currently in the critical state (§2).
    pub fn in_critical(&self) -> bool {
        self.iface.is_critical(self.pid, &self.log)
    }

    /// Snapshots the machine at a call boundary: reference-count bumps for
    /// the shared state (interface, focused set, environment, abstract
    /// state, log) plus a copy of the remaining fuel; no event is copied.
    /// Runs continued from the fork and from
    /// the original diverge only through the events their environments
    /// append — the mechanism behind sharing a common schedule prefix
    /// across grid contexts ([`crate::prefix`]).
    ///
    /// On its own, forking captures the machine *between* primitive calls:
    /// an in-flight [`PrimRun`] lives on the [`LayerMachine::drive`] stack,
    /// outside the machine state. To snapshot mid-primitive, pair the fork
    /// with [`crate::layer::PrimRun::fork_run`] on the in-flight run at a
    /// query point — see [`LayerMachine::drive_with_snapshots`].
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Rebinds the machine — typically a fork handed out by a snapshot
    /// lookup — to a different environment context. The caller asserts
    /// that `env` agrees with the snapshot's context on the schedule prefix
    /// already consumed in the log — then the continued run is exactly the
    /// run the new context would have produced from scratch, because
    /// strategies are pure functions of the log. Resume a snapshot held by
    /// reference with `snapshot.fork().with_env(env)`.
    pub fn with_env(mut self, env: EnvContext) -> Self {
        self.env = env;
        self
    }

    /// Machine steps executed so far (fuel consumed out of the budget) —
    /// the work proxy the prefix-sharing accounting records per executed
    /// lower run.
    pub fn steps_taken(&self) -> u64 {
        self.budget - self.fuel
    }

    /// Consumes one unit of fuel.
    ///
    /// # Errors
    ///
    /// [`MachineError::OutOfFuel`] when the budget is exhausted.
    fn consume_fuel(&mut self) -> Result<(), MachineError> {
        if self.fuel == 0 {
            return Err(MachineError::OutOfFuel { budget: self.budget });
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Delivers environment events at a query point: queries `E` until
    /// control returns to the focused participant, then checks the rely
    /// condition on the extended log. A machine in the critical state does
    /// not query (§2).
    ///
    /// # Errors
    ///
    /// [`MachineError::Env`] if the context is stuck/unfair,
    /// [`MachineError::RelyViolated`] if the received events violate the
    /// rely condition.
    pub fn deliver_env(&mut self) -> Result<(), MachineError> {
        self.deliver_env_each_turn(&mut |_| {})
    }

    /// Calls primitive `name` with `args`, driving its run to completion:
    /// the machine's query points deliver environment events, and the
    /// guarantee condition is checked after every local step.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] arising from the primitive, the environment, or
    /// a guarantee violation.
    pub fn call_prim(&mut self, name: &str, args: &[Val]) -> Result<Val, MachineError> {
        self.call_prim_with_snapshots(name, args, &mut |_, _| {})
    }

    /// Drives an arbitrary [`PrimRun`] (primitive invocation or module
    /// function body) to completion on this machine:
    /// [`LayerMachine::drive_with_snapshots`] with a no-op hook.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`]; see [`LayerMachine::call_prim`].
    pub fn drive(&mut self, run: Box<dyn PrimRun>) -> Result<Val, MachineError> {
        self.drive_with_snapshots(run, &mut |_, _| {})
    }

    /// Like [`LayerMachine::call_prim`], additionally invoking `hook` at
    /// every query point reached outside the critical state — *before*
    /// environment events are delivered — and again after every delivered
    /// environment turn. These are the cut points of the query-point
    /// snapshot trie ([`crate::prefix::SnapshotTrie`]): the machine state
    /// plus a [`PrimRun::fork_run`] of the in-flight run fully determine
    /// the rest of the execution, and the schedule prefix consumed so far
    /// is exactly the sched events in the log. Per-turn hooks matter
    /// because one delivery can consume several schedule slots: without
    /// them, contexts diverging *inside* a delivery would share no cut
    /// point deeper than the query that started it.
    ///
    /// # Errors
    ///
    /// As [`LayerMachine::call_prim`].
    pub fn call_prim_with_snapshots(
        &mut self,
        name: &str,
        args: &[Val],
        hook: &mut dyn FnMut(&Self, &dyn PrimRun),
    ) -> Result<Val, MachineError> {
        let run = self.iface.prim(name)?.instantiate(self.pid, args.to_vec());
        self.drive_with_snapshots(run, hook)
    }

    /// [`LayerMachine::drive`] with a snapshot hook at non-critical query
    /// points and after each delivered environment turn (critical-state
    /// queries skip environment delivery entirely, so no snapshot is lost
    /// by skipping the hook there too).
    ///
    /// # Errors
    ///
    /// As [`LayerMachine::drive`].
    pub fn drive_with_snapshots(
        &mut self,
        mut run: Box<dyn PrimRun>,
        hook: &mut dyn FnMut(&Self, &dyn PrimRun),
    ) -> Result<Val, MachineError> {
        loop {
            self.consume_fuel()?;
            let step = {
                let mut ctx = PrimCtx {
                    pid: self.pid,
                    abs: &mut self.abs,
                    log: &mut self.log,
                    iface: &self.iface,
                };
                run.resume(&mut ctx)?
            };
            self.check_guarantee()?;
            match step {
                // A machine in the critical state does not query (§2).
                PrimStep::Query if self.in_critical() => {}
                PrimStep::Query => {
                    hook(self, run.as_ref());
                    self.deliver_env_with_snapshots(run.as_ref(), hook)?;
                }
                PrimStep::Done(v) => return Ok(v),
            }
        }
    }

    /// [`LayerMachine::deliver_env`] invoking `hook` after every delivered
    /// environment turn except the final control transfer (whose machine
    /// state the *next* query point's hook captures, after the local steps
    /// in between). Each turn consumes one schedule slot, so these are the
    /// per-slot interior cut points between two query points: the machine
    /// state after a turn is fully log-determined, and a fork resumed via
    /// [`LayerMachine::resume_query`] re-enters the delivery loop with the
    /// scheduler continuing from the recorded scheduling events.
    ///
    /// A resumed delivery restarts the per-delivery fairness budget at the
    /// cut point, so a fresh run and a resumed run can disagree about an
    /// [`EnvError::Unfair`] verdict in principle — but only contexts built
    /// by [`crate::contexts::ContextGen`] carry the schedule key that
    /// snapshot sharing requires, and their script-then-round-robin
    /// schedulers return control within one domain round, far inside any
    /// fairness budget.
    ///
    /// # Errors
    ///
    /// As [`LayerMachine::deliver_env`].
    fn deliver_env_with_snapshots(
        &mut self,
        run: &dyn PrimRun,
        hook: &mut dyn FnMut(&Self, &dyn PrimRun),
    ) -> Result<(), MachineError> {
        self.deliver_env_each_turn(&mut |m| hook(m, run))
    }

    /// The machine's one delivery loop, invoking `hook` after every
    /// delivered turn ([`LayerMachine::deliver_env`] is this with a no-op
    /// hook). Public for callers that flush trailing environment events
    /// with no in-flight run — the cut points there carry the
    /// already-computed return value instead of a [`PrimRun`] fork.
    ///
    /// # Errors
    ///
    /// As [`LayerMachine::deliver_env`].
    pub fn deliver_env_each_turn(
        &mut self,
        hook: &mut dyn FnMut(&Self),
    ) -> Result<(), MachineError> {
        if self.in_critical() {
            return Ok(());
        }
        let mut returned = false;
        for _ in 0..self.env.fuel() {
            if self.env.extend_one(&self.focused, &mut self.log)?.is_some() {
                returned = true;
                break;
            }
            hook(self);
        }
        if !returned {
            return Err(MachineError::Env(EnvError::Unfair {
                fuel: self.env.fuel(),
            }));
        }
        if let Some(inv) = self
            .iface
            .conditions
            .rely
            .first_violation(self.pid, &self.log)
        {
            return Err(MachineError::RelyViolated {
                invariant: inv.name().to_owned(),
                pid: self.pid,
            });
        }
        Ok(())
    }

    /// Continues a run captured at a query point by the
    /// [`LayerMachine::drive_with_snapshots`] hook: delivers the pending
    /// environment events (the snapshot was taken just *before* delivery),
    /// then drives the run to completion with the same hook. Fuel
    /// sequencing matches a fresh execution exactly.
    ///
    /// # Errors
    ///
    /// As [`LayerMachine::drive`].
    pub fn resume_query(
        &mut self,
        run: Box<dyn PrimRun>,
        hook: &mut dyn FnMut(&Self, &dyn PrimRun),
    ) -> Result<Val, MachineError> {
        self.deliver_env_with_snapshots(run.as_ref(), hook)?;
        self.drive_with_snapshots(run, hook)
    }

    /// Checks the guarantee condition on the current log.
    ///
    /// # Errors
    ///
    /// [`MachineError::GuaranteeViolated`] naming the failed invariant.
    pub fn check_guarantee(&self) -> Result<(), MachineError> {
        if let Some(inv) = self
            .iface
            .conditions
            .guarantee
            .first_violation(self.pid, &self.log)
        {
            return Err(MachineError::GuaranteeViolated {
                invariant: inv.name().to_owned(),
                pid: self.pid,
                log_len: self.log.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for LayerMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayerMachine")
            .field("iface", &self.iface.name)
            .field("pid", &self.pid)
            .field("log_len", &self.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::layer::PrimSpec;
    use crate::rely::{Conditions, Invariant, RelyGuarantee};
    use crate::strategy::RoundRobinScheduler;

    fn tick_iface(conditions: RelyGuarantee) -> LayerInterface {
        LayerInterface::builder("L-tick")
            .prim(PrimSpec::atomic("tick", |ctx, _| {
                ctx.emit(EventKind::Prim("tick".into(), vec![]));
                Ok(Val::Unit)
            }))
            .conditions(conditions)
            .build()
    }

    fn env2() -> EnvContext {
        EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2)))
    }

    #[test]
    fn call_prim_queries_env_then_executes() {
        let mut m = LayerMachine::new(tick_iface(RelyGuarantee::none()), Pid(1), env2());
        m.call_prim("tick", &[]).unwrap();
        // The log contains environment scheduling events followed by ours.
        assert!(m.log.iter().any(|e| e.is_sched()));
        assert_eq!(m.log.count_by(Pid(1)), 1);
        assert_eq!(m.log.current_pid(), Some(Pid(1)));
    }

    #[test]
    fn guarantee_violation_is_detected() {
        let conditions = RelyGuarantee::new(
            Conditions::none(),
            Conditions::none().with(Invariant::new("at-most-one-tick", |pid, log| {
                log.count_by(pid) <= 1
            })),
        );
        let mut m = LayerMachine::new(tick_iface(conditions), Pid(1), env2());
        m.call_prim("tick", &[]).unwrap();
        let err = m.call_prim("tick", &[]).unwrap_err();
        assert!(matches!(err, MachineError::GuaranteeViolated { .. }));
    }

    #[test]
    fn rely_violation_marks_context_invalid() {
        use crate::strategy::ScriptPlayer;
        let conditions = RelyGuarantee::new(
            Conditions::none().with(Invariant::new("env-silent", |pid, log: &Log| {
                log.iter().all(|e| e.pid == pid || e.is_sched())
            })),
            Conditions::none(),
        );
        let noisy = ScriptPlayer::new(
            Pid(0),
            vec![vec![crate::event::Event::prim(Pid(0), "noise", vec![])]],
        );
        let env = env2().with_player(Pid(0), Arc::new(noisy));
        let mut m = LayerMachine::new(tick_iface(conditions), Pid(1), env);
        let err = m.call_prim("tick", &[]).unwrap_err();
        assert!(matches!(err, MachineError::RelyViolated { .. }));
        assert!(err.is_invalid_context());
    }

    #[test]
    fn fuel_exhaustion_reports_budget() {
        struct Diverge;
        impl PrimRun for Diverge {
            fn resume(&mut self, _: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
                Ok(PrimStep::Query)
            }
        }
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::strategy("spin", true, |_, _| Box::new(Diverge)))
            .build();
        let mut m = LayerMachine::new(iface, Pid(0), env2()).with_fuel(10);
        let err = m.call_prim("spin", &[]).unwrap_err();
        assert_eq!(err, MachineError::OutOfFuel { budget: 10 });
    }

    #[test]
    fn critical_state_skips_env_queries() {
        // Critical whenever the participant has emitted an odd number of
        // events; the second tick must not receive new env events.
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic("tick", |ctx, _| {
                ctx.emit(EventKind::Prim("tick".into(), vec![]));
                Ok(Val::Unit)
            }))
            .critical(|pid, log| log.count_by(pid) % 2 == 1)
            .build();
        let mut m = LayerMachine::new(iface, Pid(1), env2());
        m.call_prim("tick", &[]).unwrap();
        let len_after_first = m.log.len();
        m.call_prim("tick", &[]).unwrap();
        // Only our own event was appended — no scheduling events in between.
        assert_eq!(m.log.len(), len_after_first + 1);
    }

    #[test]
    fn forks_share_the_interface_and_focused_set() {
        let m = LayerMachine::new(tick_iface(RelyGuarantee::none()), Pid(1), env2());
        let f = m.fork();
        assert!(Arc::ptr_eq(m.iface_arc(), f.iface_arc()));
        assert!(Arc::ptr_eq(&m.focused, &f.focused));
        let g = f.with_env(env2());
        assert!(
            Arc::ptr_eq(m.iface_arc(), g.iface_arc()),
            "rebinding keeps it shared"
        );
        // Machines built from one `Arc` share it too.
        let iface = Arc::new(tick_iface(RelyGuarantee::none()));
        let a = LayerMachine::new(iface.clone(), Pid(0), env2());
        let b = LayerMachine::new(iface.clone(), Pid(1), env2());
        assert!(Arc::ptr_eq(a.iface_arc(), &iface) && Arc::ptr_eq(b.iface_arc(), &iface));
    }

    #[test]
    fn fork_mutations_stay_on_their_side() {
        let mut m = LayerMachine::new(tick_iface(RelyGuarantee::none()), Pid(1), env2());
        m.abs.set("x", Val::Int(1));
        m.call_prim("tick", &[]).unwrap();
        let (abs0, log0) = (m.abs.clone(), m.log.clone());

        // Mutating the fork leaves the original untouched.
        let mut f = m.fork();
        f.abs.set("x", Val::Int(2));
        f.abs.set("y", Val::Int(3));
        f.call_prim("tick", &[]).unwrap();
        assert_eq!(m.abs, abs0);
        assert_eq!(m.log, log0);
        assert_eq!(f.abs.get_int("x").unwrap(), 2);
        assert!(f.log.len() > log0.len());

        // And the reverse: mutating the original leaves the fork untouched.
        let g = m.fork();
        let (gabs, glog) = (g.abs.clone(), g.log.clone());
        m.abs.set("x", Val::Int(9));
        m.call_prim("tick", &[]).unwrap();
        assert_eq!(g.abs, gabs);
        assert_eq!(g.log, glog);
        assert_eq!(g.abs.get_int("x").unwrap(), 1);
        assert_eq!(m.abs.get_int("x").unwrap(), 9);
    }

    #[test]
    fn unknown_prim_is_an_error() {
        let mut m = LayerMachine::new(tick_iface(RelyGuarantee::none()), Pid(0), env2());
        assert!(matches!(
            m.call_prim("nope", &[]),
            Err(MachineError::UnknownPrim { .. })
        ));
    }
}
