//! # ccal-core — Certified Concurrent Abstraction Layers (the calculus)
//!
//! A Rust reproduction of the core of **CCAL**, the toolkit of *"Certified
//! Concurrent Abstraction Layers"* (Gu et al., PLDI 2018): the
//! game-theoretical, strategy-based compositional semantic model for
//! shared-memory concurrency, and the concurrent layer calculus used to
//! specify, verify and compose certified concurrent abstraction layers.
//!
//! ## The model in one paragraph
//!
//! All shared state is a single global [`log::Log`] of observable
//! [`event::Event`]s; shared state is reconstructed from the log by
//! [`replay`] functions. Each participant (CPU or thread, [`id::Pid`])
//! plays a [`strategy::Strategy`] — a deterministic partial function from
//! logs to moves. A layer interface [`layer::LayerInterface`] packages
//! primitives (executable, resumable strategies), a rely condition on
//! environment contexts and a guarantee condition on the log
//! ([`rely::RelyGuarantee`]). Execution of a focused participant set over
//! an interface is a *game* against an [`env::EnvContext`]
//! ([`machine::LayerMachine`] for one participant,
//! [`conc::ConcurrentMachine`] for many). Refinement between layers is
//! strategy simulation ([`sim`], Def. 2.1), checked exhaustively over
//! bounded families of environment contexts ([`contexts::ContextGen`]).
//! The layer calculus ([`calculus`], Fig. 9) composes checked layers
//! vertically, horizontally and in parallel, and [`refine`] provides the
//! executable soundness theorem (Thm 2.2).
//!
//! ## Where the rest of the system lives
//!
//! * `ccal-machine` — the multicore machine model `Mx86` with the
//!   push/pull memory model (§3.1) and multicore linking (Thm 3.1);
//! * `ccal-clightx` — the C-like layered source language;
//! * `ccal-compcertx` — the thread-safe compiler with translation
//!   validation and the algebraic memory model (§5.5, Fig. 12);
//! * `ccal-objects` — the certified objects of §4–§5 (ticket/MCS locks,
//!   shared queues, schedulers, queuing locks, condition variables, IPC);
//! * `ccal-verifier` — linearizability, liveness and race checkers.
//!
//! ## Example: certify a one-function layer
//!
//! ```
//! use ccal_core::prelude::*;
//!
//! // Underlay L0 with an atomic primitive `step`.
//! let l0 = LayerInterface::builder("L0")
//!     .prim(PrimSpec::atomic("step", |ctx, _args| {
//!         ctx.emit(EventKind::Prim("step".into(), vec![]));
//!         Ok(Val::Unit)
//!     }))
//!     .build();
//! // Overlay L1 re-exporting `step` (pass-through implementation).
//! let l1 = LayerInterface::builder("L1")
//!     .prim(PrimSpec::atomic("step", |ctx, _args| {
//!         ctx.emit(EventKind::Prim("step".into(), vec![]));
//!         Ok(Val::Unit)
//!     }))
//!     .build();
//! let contexts = ContextGen::new(vec![Pid(0), Pid(1)]).with_schedule_len(2).contexts();
//! let layer = check_fun(
//!     &l0,
//!     &Module::new("M"),
//!     &l1,
//!     &SimRelation::identity(),
//!     Pid(0),
//!     &CheckOptions::new(contexts),
//! )?;
//! assert!(layer.certificate.total_cases() > 0);
//! # Ok::<(), ccal_core::calculus::LayerError>(())
//! ```

#![warn(missing_docs)]

pub mod abs;
pub mod calculus;
pub mod conc;
pub mod contexts;
pub mod engine;
pub mod env;
pub mod event;
pub mod explore;
pub mod fingerprint;
pub mod forensics;
mod fxhash;
pub mod id;
pub mod layer;
pub mod log;
pub mod machine;
pub mod module;
pub mod par;
pub mod por;
pub mod prefix;
pub mod refine;
pub mod rely;
pub mod replay;
pub mod sim;
pub mod strategy;
pub mod table;
pub mod val;

/// Convenience re-exports of the types used by nearly every client.
pub mod prelude {
    pub use crate::abs::AbsState;
    pub use crate::calculus::{
        check_fun, check_iface_refinement, empty, hcomp, pcomp, vcomp, weaken, Certificate,
        CertifiedLayer, CheckOptions, IfaceRefinement, LayerError, Obligation, Rule,
    };
    pub use crate::conc::{ConcurrentMachine, ConcurrentOutcome, ThreadScript};
    pub use crate::contexts::ContextGen;
    pub use crate::env::EnvContext;
    pub use crate::event::{Event, EventKind, Footprint};
    pub use crate::explore::{Case, ExploreOptions, Explored, Kernel, RunSnap};
    pub use crate::forensics::{CaptureScope, FailingCase, ShrinkNote};
    pub use crate::id::{Loc, Pid, PidSet, QId};
    pub use crate::layer::{LayerInterface, PrimCtx, PrimRun, PrimSpec, PrimStep, SubCall};
    pub use crate::log::Log;
    pub use crate::machine::{LayerMachine, MachineError};
    pub use crate::module::{Lang, Module, ModuleFn};
    pub use crate::por::PidIndependence;
    pub use crate::prefix::ScheduleKey;
    pub use crate::refine::{behaviors, check_contextual_refinement, ClientProgram};
    pub use crate::rely::{Conditions, Invariant, ProbeSuite, RelyGuarantee};
    pub use crate::replay::{
        deq_result, my_ticket, replay_atomic_lock, replay_atomic_queue, replay_shared,
        replay_ticket, Ownership, ReplayError, SharedCell, TicketState,
    };
    pub use crate::sim::{
        check_prim_refinement, replay_env, replay_env_set, SimFailure, SimOptions, SimRelation,
    };
    pub use crate::strategy::{
        is_fair_schedule, FnStrategy, IdleStrategy, RoundRobinScheduler, ScratchPlayer,
        ScriptPlayer, ScriptScheduler, Strategy, StrategyMove,
    };
    pub use crate::val::Val;
}
