//! Concurrent layer interfaces.
//!
//! "A concurrent layer interface `L[A]` \[is\] defined as a tuple `(L, R, G)`"
//! (§3.2): a collection of primitives `L`, a rely condition `R` specifying
//! the valid environment contexts, and a guarantee condition `G` that the
//! log must satisfy after each local step. The layer machine based on
//! `L[A]` is the base machine extended with the abstract state and
//! primitives of `L`.
//!
//! # Primitives as resumable strategies
//!
//! A primitive's semantics `σ_f` is, in general, a *strategy*: it may query
//! the environment context at query points, emit events, and eventually
//! return a value (§2's `φ′_acq` queries `E` on every spin iteration). We
//! represent an invocation as a [`PrimRun`] — a resumable state machine
//! whose [`PrimRun::resume`] either requests an environment query
//! ([`PrimStep::Query`]) or completes ([`PrimStep::Done`]). This makes one
//! representation serve both the sequential CPU-local machines and the
//! multi-participant game of the parallel composition rule: a driver
//! interleaves any number of in-flight runs at their query points.
//!
//! Atomic primitives (one event, return value computed by replay) are the
//! common case; build them with [`PrimSpec::atomic`] or
//! [`PrimSpec::atomic_unqueried`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::abs::AbsState;
use crate::event::{Event, EventKind};
use crate::id::Pid;
use crate::log::Log;
use crate::machine::MachineError;
use crate::rely::RelyGuarantee;
use crate::val::Val;

/// Whether the machine is in the *critical state* for a participant: "it
/// then enters a so-called critical state ... to prevent losing the control
/// until the lock is released. Thus, there is no need to ask `E` in critical
/// state" (§2). The predicate is computed from the log (by replay), keeping
/// the machine state a function of the log.
pub type CriticalFn = dyn Fn(Pid, &Log) -> bool + Send + Sync;

/// The visible machine state a primitive invocation operates on: the
/// caller's id, the abstract state `a`, the global log `l`, and the
/// interface itself (so that module code can invoke underlay primitives).
pub struct PrimCtx<'a> {
    /// The participant executing the primitive.
    pub pid: Pid,
    /// The layer's abstract state.
    pub abs: &'a mut AbsState,
    /// The global log.
    pub log: &'a mut Log,
    /// The interface this computation runs over (its *underlay* when the
    /// computation is module code).
    pub iface: &'a LayerInterface,
}

impl PrimCtx<'_> {
    /// Appends an event authored by the calling participant — the paper's
    /// `!i.e` move.
    pub fn emit(&mut self, kind: EventKind) {
        self.log.append(Event::new(self.pid, kind));
    }

    /// Instantiates a run of primitive `name` of the ambient interface,
    /// for use by module code calling its underlay.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownPrim`] if the interface has no such
    /// primitive.
    pub fn start_call(&self, name: &str, args: Vec<Val>) -> Result<Box<dyn PrimRun>, MachineError> {
        let spec = self.iface.prim(name)?;
        Ok(spec.instantiate(self.pid, args))
    }
}

impl fmt::Debug for PrimCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrimCtx")
            .field("pid", &self.pid)
            .field("log_len", &self.log.len())
            .field("iface", &self.iface.name)
            .finish()
    }
}

/// The outcome of resuming a primitive run.
#[derive(Debug)]
pub enum PrimStep {
    /// The run has reached a query point: the driver must deliver
    /// environment events (§3.2's `E[A, l]`) before resuming. Drivers
    /// skip the actual query when the participant is in the critical
    /// state (§2).
    Query,
    /// The run completed, returning a value.
    Done(Val),
}

/// A resumable primitive (or module-function) invocation.
///
/// Implementations hold whatever internal state the computation needs (a
/// program counter, an interpreter continuation, a pending sub-call); all
/// *shared* state must be read from the log via replay, never cached across
/// query points.
pub trait PrimRun: Send {
    /// Advances the run until its next query point or completion.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`]; in particular [`MachineError::Stuck`] when the
    /// invocation is undefined at the current state — the paper's partial
    /// specification "gets stuck" (Fig. 6).
    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError>;

    /// Forks the run at its current internal state, producing an
    /// independent copy that resumes identically. This is what lets the
    /// query-point snapshot trie ([`crate::prefix::SnapshotTrie`]) capture
    /// a machine *mid-primitive*: at a query point the run's private state
    /// plus the machine state determine the rest of the execution, so a
    /// forked pair diverges only through the events their environments
    /// append.
    ///
    /// The default returns `None` (not forkable); snapshotting drivers
    /// then simply skip the cut point, which is always sound. Implement it
    /// (typically `Some(Box::new(self.clone()))`) for runs whose state is
    /// cheaply clonable.
    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        None
    }
}

/// A [`PrimRun`] that is already finished: resuming returns the stored
/// value. Used by [`SubCall::fork`] to stand in for a completed callee —
/// the original run is never resumed again once `done` is set, so the stub
/// is observationally equivalent.
struct CompletedRun(Val);

impl PrimRun for CompletedRun {
    fn resume(&mut self, _ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        Ok(PrimStep::Done(self.0.clone()))
    }

    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(CompletedRun(self.0.clone())))
    }
}

/// Helper for module code that calls a primitive of its underlay: drives a
/// nested [`PrimRun`], bubbling its query points to the caller.
///
/// ```ignore
/// // inside some PrimRun::resume
/// if let Some(v) = self.sub.step(ctx)? { /* call finished with v */ }
/// else { return Ok(PrimStep::Query); }
/// ```
pub struct SubCall {
    run: Box<dyn PrimRun>,
    done: Option<Val>,
}

impl SubCall {
    /// Starts a sub-call of `name` on the ambient interface of `ctx`.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownPrim`] if the primitive does not exist.
    pub fn start(ctx: &PrimCtx<'_>, name: &str, args: Vec<Val>) -> Result<Self, MachineError> {
        Ok(Self {
            run: ctx.start_call(name, args)?,
            done: None,
        })
    }

    /// Resumes the sub-call one step. Returns `Some(v)` when it has
    /// completed with value `v` (idempotently thereafter), `None` when it
    /// hit a query point — in which case the caller must itself return
    /// [`PrimStep::Query`] and call `step` again after resumption.
    ///
    /// # Errors
    ///
    /// Propagates errors from the callee.
    pub fn step(&mut self, ctx: &mut PrimCtx<'_>) -> Result<Option<Val>, MachineError> {
        if let Some(v) = &self.done {
            return Ok(Some(v.clone()));
        }
        match self.run.resume(ctx)? {
            PrimStep::Query => Ok(None),
            PrimStep::Done(v) => {
                self.done = Some(v.clone());
                Ok(Some(v))
            }
        }
    }

    /// Forks the sub-call for a query-point snapshot. A completed call
    /// forks into a stub replaying the finished value (the real run is
    /// never resumed after completion); an in-flight call forks its inner
    /// run via [`PrimRun::fork_run`], returning `None` when the callee
    /// does not support forking.
    pub fn fork(&self) -> Option<SubCall> {
        if let Some(v) = &self.done {
            return Some(SubCall {
                run: Box::new(CompletedRun(v.clone())),
                done: Some(v.clone()),
            });
        }
        Some(SubCall {
            run: self.run.fork_run()?,
            done: None,
        })
    }
}

impl fmt::Debug for SubCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubCall").field("done", &self.done).finish()
    }
}

type PrimBody = dyn Fn(&mut PrimCtx<'_>, &[Val]) -> Result<Val, MachineError> + Send + Sync;
type PrimFactory = dyn Fn(Pid, Vec<Val>) -> Box<dyn PrimRun> + Send + Sync;

/// The specification of one layer primitive: its name, whether it is
/// *shared* (observable — it generates events and is preceded by a query
/// point, §3.1) and a factory creating a [`PrimRun`] per invocation.
#[derive(Clone)]
pub struct PrimSpec {
    name: String,
    shared: bool,
    factory: Arc<PrimFactory>,
}

#[derive(Clone)]
struct AtomicRun {
    queried: bool,
    needs_query: bool,
    args: Vec<Val>,
    body: Arc<PrimBody>,
}

impl PrimRun for AtomicRun {
    fn resume(&mut self, ctx: &mut PrimCtx<'_>) -> Result<PrimStep, MachineError> {
        if self.needs_query && !self.queried {
            self.queried = true;
            return Ok(PrimStep::Query);
        }
        let ret = (self.body)(ctx, &self.args)?;
        Ok(PrimStep::Done(ret))
    }

    fn fork_run(&self) -> Option<Box<dyn PrimRun>> {
        Some(Box::new(self.clone()))
    }
}

impl PrimSpec {
    /// A shared atomic primitive: queries the environment once (the query
    /// point "just before executing shared primitives", §3.2), then runs
    /// `body` in a single step. `body` typically emits one event and
    /// computes its return value with a replay function.
    pub fn atomic<F>(name: &str, body: F) -> Self
    where
        F: Fn(&mut PrimCtx<'_>, &[Val]) -> Result<Val, MachineError> + Send + Sync + 'static,
    {
        Self::from_body(name, true, true, body)
    }

    /// A shared atomic primitive *without* a preceding query point — like
    /// `σ_push` ("do not query E", Fig. 8) and `inc_n`, which execute in
    /// the critical state.
    pub fn atomic_unqueried<F>(name: &str, body: F) -> Self
    where
        F: Fn(&mut PrimCtx<'_>, &[Val]) -> Result<Val, MachineError> + Send + Sync + 'static,
    {
        Self::from_body(name, true, false, body)
    }

    /// A private (thread-/CPU-local) primitive: unobservable, no events,
    /// no query point (§3.1: private primitive calls are "silent").
    pub fn private<F>(name: &str, body: F) -> Self
    where
        F: Fn(&mut PrimCtx<'_>, &[Val]) -> Result<Val, MachineError> + Send + Sync + 'static,
    {
        Self::from_body(name, false, false, body)
    }

    fn from_body<F>(name: &str, shared: bool, needs_query: bool, body: F) -> Self
    where
        F: Fn(&mut PrimCtx<'_>, &[Val]) -> Result<Val, MachineError> + Send + Sync + 'static,
    {
        let body: Arc<PrimBody> = Arc::new(body);
        Self {
            name: name.to_owned(),
            shared,
            factory: Arc::new(move |_pid, args| {
                Box::new(AtomicRun {
                    queried: false,
                    needs_query,
                    args,
                    body: body.clone(),
                })
            }),
        }
    }

    /// A primitive with a custom resumable implementation — used for
    /// multi-step strategies such as the spinning `φ′_acq` (§2) and for
    /// module code installed as overlay primitives.
    pub fn strategy<F>(name: &str, shared: bool, factory: F) -> Self
    where
        F: Fn(Pid, Vec<Val>) -> Box<dyn PrimRun> + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            shared,
            factory: Arc::new(factory),
        }
    }

    /// The primitive's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the primitive is shared (observable).
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Creates a fresh run of this primitive for participant `pid` with
    /// the given arguments.
    pub fn instantiate(&self, pid: Pid, args: Vec<Val>) -> Box<dyn PrimRun> {
        (self.factory)(pid, args)
    }
}

impl fmt::Debug for PrimSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrimSpec")
            .field("name", &self.name)
            .field("shared", &self.shared)
            .finish()
    }
}

/// A concurrent layer interface `L` (to be focused as `L[A]` by a machine):
/// primitives, rely/guarantee conditions, the critical-state predicate and
/// the initial abstract state.
///
/// The primitive table is `Arc`-backed: the bounded checker clones the
/// interface once per checked case, so that clone must stay a handful of
/// reference-count bumps even for wide interfaces.
#[derive(Clone)]
pub struct LayerInterface {
    /// The interface's name (e.g. `"L0"`, `"L_lock"`).
    pub name: String,
    prims: Arc<BTreeMap<String, PrimSpec>>,
    /// Rely and guarantee conditions (§3.2).
    pub conditions: RelyGuarantee,
    critical: Arc<CriticalFn>,
    /// Initial abstract state of machines over this interface.
    pub init_abs: AbsState,
}

impl LayerInterface {
    /// Starts building an interface.
    pub fn builder(name: &str) -> LayerInterfaceBuilder {
        LayerInterfaceBuilder {
            name: name.to_owned(),
            prims: BTreeMap::new(),
            conditions: RelyGuarantee::none(),
            critical: Arc::new(|_, _| false),
            init_abs: AbsState::new(),
        }
    }

    /// Looks up a primitive.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownPrim`] if absent.
    pub fn prim(&self, name: &str) -> Result<&PrimSpec, MachineError> {
        self.prims.get(name).ok_or_else(|| MachineError::UnknownPrim {
            prim: name.to_owned(),
            iface: self.name.clone(),
        })
    }

    /// Whether the interface provides primitive `name`.
    pub fn has_prim(&self, name: &str) -> bool {
        self.prims.contains_key(name)
    }

    /// Names of all primitives, sorted.
    pub fn prim_names(&self) -> Vec<&str> {
        self.prims.keys().map(String::as_str).collect()
    }

    /// The critical-state predicate.
    pub fn is_critical(&self, pid: Pid, log: &Log) -> bool {
        (self.critical)(pid, log)
    }

    /// Returns a copy of this interface with different rely/guarantee
    /// conditions — used by the `Compat`/`Pcomp` rules (Fig. 9), which
    /// re-equip the composed interface `L[A ∪ B]` with merged conditions.
    pub fn with_conditions(&self, conditions: crate::rely::RelyGuarantee) -> LayerInterface {
        let mut out = self.clone();
        out.conditions = conditions;
        out
    }

    /// The union `L₁ ⊕ L₂` of two interfaces' primitive collections
    /// (Fig. 9, `Hcomp`): primitives are merged; rely/guarantee and
    /// critical predicates are conjoined; initial abstract states merged.
    ///
    /// # Errors
    ///
    /// [`MachineError::DuplicatePrim`] if both define a primitive of the
    /// same name.
    pub fn join(&self, other: &LayerInterface) -> Result<LayerInterface, MachineError> {
        let mut prims = (*self.prims).clone();
        for (k, v) in other.prims.iter() {
            if prims.insert(k.clone(), v.clone()).is_some() {
                return Err(MachineError::DuplicatePrim {
                    prim: k.clone(),
                    iface: format!("{} ⊕ {}", self.name, other.name),
                });
            }
        }
        let c1 = self.critical.clone();
        let c2 = other.critical.clone();
        Ok(LayerInterface {
            name: format!("{} ⊕ {}", self.name, other.name),
            prims: Arc::new(prims),
            conditions: RelyGuarantee::new(
                self.conditions.rely.and(&other.conditions.rely),
                self.conditions.guarantee.and(&other.conditions.guarantee),
            ),
            critical: Arc::new(move |p, l| c1(p, l) || c2(p, l)),
            init_abs: self.init_abs.clone().merged_with(&other.init_abs),
        })
    }
}

impl fmt::Debug for LayerInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LayerInterface")
            .field("name", &self.name)
            .field("prims", &self.prim_names())
            .finish()
    }
}

/// Builder for [`LayerInterface`].
pub struct LayerInterfaceBuilder {
    name: String,
    prims: BTreeMap<String, PrimSpec>,
    conditions: RelyGuarantee,
    critical: Arc<CriticalFn>,
    init_abs: AbsState,
}

impl LayerInterfaceBuilder {
    /// Adds a primitive. Later additions with the same name replace
    /// earlier ones.
    pub fn prim(mut self, spec: PrimSpec) -> Self {
        self.prims.insert(spec.name().to_owned(), spec);
        self
    }

    /// Sets the rely/guarantee conditions.
    pub fn conditions(mut self, conditions: RelyGuarantee) -> Self {
        self.conditions = conditions;
        self
    }

    /// Sets the critical-state predicate.
    pub fn critical<F>(mut self, f: F) -> Self
    where
        F: Fn(Pid, &Log) -> bool + Send + Sync + 'static,
    {
        self.critical = Arc::new(f);
        self
    }

    /// Sets the initial abstract state.
    pub fn init_abs(mut self, abs: AbsState) -> Self {
        self.init_abs = abs;
        self
    }

    /// Finishes the interface.
    pub fn build(self) -> LayerInterface {
        LayerInterface {
            name: self.name,
            prims: Arc::new(self.prims),
            conditions: self.conditions,
            critical: self.critical,
            init_abs: self.init_abs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Loc;

    fn counter_iface() -> LayerInterface {
        LayerInterface::builder("L-counter")
            .prim(PrimSpec::atomic("tick", |ctx, _args| {
                ctx.emit(EventKind::Prim("tick".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| matches!(&e.kind, EventKind::Prim(p, _) if p == "tick"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build()
    }

    #[test]
    fn builder_and_lookup() {
        let iface = counter_iface();
        assert!(iface.has_prim("tick"));
        assert!(iface.prim("tock").is_err());
        assert_eq!(iface.prim_names(), vec!["tick"]);
    }

    #[test]
    fn atomic_prim_queries_then_executes() {
        let iface = counter_iface();
        let mut abs = AbsState::new();
        let mut log = Log::new();
        let mut run = iface.prim("tick").unwrap().instantiate(Pid(0), vec![]);
        let mut ctx = PrimCtx {
            pid: Pid(0),
            abs: &mut abs,
            log: &mut log,
            iface: &iface,
        };
        // First resume hits the query point.
        assert!(matches!(run.resume(&mut ctx).unwrap(), PrimStep::Query));
        // Second resume performs the call.
        match run.resume(&mut ctx).unwrap() {
            PrimStep::Done(v) => assert_eq!(v, Val::Int(1)),
            other => panic!("unexpected step {other:?}"),
        }
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unqueried_prim_executes_immediately() {
        let iface = LayerInterface::builder("L")
            .prim(PrimSpec::atomic_unqueried("push", |ctx, args| {
                let b = args[0].as_loc()?;
                ctx.emit(EventKind::Push(b, Val::Int(0)));
                Ok(Val::Unit)
            }))
            .build();
        let mut abs = AbsState::new();
        let mut log = Log::new();
        let mut run = iface
            .prim("push")
            .unwrap()
            .instantiate(Pid(1), vec![Val::Loc(Loc(0))]);
        let mut ctx = PrimCtx {
            pid: Pid(1),
            abs: &mut abs,
            log: &mut log,
            iface: &iface,
        };
        assert!(matches!(run.resume(&mut ctx).unwrap(), PrimStep::Done(_)));
    }

    #[test]
    fn join_merges_prims_and_rejects_duplicates() {
        let a = counter_iface();
        let b = LayerInterface::builder("L2")
            .prim(PrimSpec::private("noop", |_, _| Ok(Val::Unit)))
            .build();
        let joined = a.join(&b).unwrap();
        assert!(joined.has_prim("tick") && joined.has_prim("noop"));
        assert!(a.join(&counter_iface()).is_err());
    }

    #[test]
    fn subcall_bubbles_queries() {
        let iface = counter_iface();
        let mut abs = AbsState::new();
        let mut log = Log::new();
        let mut ctx = PrimCtx {
            pid: Pid(0),
            abs: &mut abs,
            log: &mut log,
            iface: &iface,
        };
        let mut sub = SubCall::start(&ctx, "tick", vec![]).unwrap();
        assert_eq!(sub.step(&mut ctx).unwrap(), None, "query point bubbles");
        assert_eq!(sub.step(&mut ctx).unwrap(), Some(Val::Int(1)));
        // Idempotent after completion.
        assert_eq!(sub.step(&mut ctx).unwrap(), Some(Val::Int(1)));
    }
}
