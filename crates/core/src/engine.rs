//! The engine context: everything a certification runs under besides its
//! inputs.
//!
//! The paper's judgement `L' ⊢_R M : L` is a function of the layers, the
//! module and the relation. The executable checkers add a little state of
//! their own — which ClightX execution tier runs primitive bodies, how
//! warm exploration state is keyed, how much work a run did, and where a
//! forensics scope collects failing cases. All of it lives in one
//! [`Engine`] value, so a check's tier, its reported cost and its captures
//! depend only on the engine it ran under, never on what else the process
//! is running.
//!
//! * **Settings** ([`Settings`]) are fixed when an engine is built. A test
//!   that wants the reference interpreter builds an engine with
//!   `bytecode: false` and enters it; nothing flips a setting in the
//!   middle of a run.
//! * **Counters** ([`Counter`], read as [`Totals`]) are shared by every
//!   thread that entered the engine, so a parallel check's workers count
//!   into their caller's totals.
//! * **Capture sink**: present while a [`crate::forensics::CaptureScope`]
//!   is open; failing cases of checks run under it land there.
//!
//! A thread runs under the engine it last [entered](Engine::enter), or
//! under a fresh default engine of its own. Dropping the [`Entered`] guard
//! restores the engine the thread ran under before. The exploration
//! kernel's workers ([`crate::par::run_cases`]) enter their caller's
//! engine, and `ccal-certd`'s daemon owns one engine that every
//! connection thread enters.
//!
//! The counting and settings reads on the hot path ([`record`],
//! [`settings`]) borrow the thread's engine in place; they clone nothing.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::forensics::FailingCase;

/// The two settings an [`Engine`] is built with; both default to on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// The ClightX execution tier: compiled bytecode (`true`) or the
    /// tree-walking reference interpreter (`false`). The tiers are
    /// bit-identical, so only differential tests and the B6 benchmark turn
    /// this off. Strategy closures read it when a primitive is
    /// instantiated.
    pub bytecode: bool,
    /// Semantic sharing keys: warm exploration state keyed by the content
    /// identity of the lower-machine family
    /// ([`crate::fingerprint::ShareKey`]), so units of one stack and
    /// successive requests over the same underlay share one store. Off,
    /// the state is pinned to each certification unit's fingerprint (the
    /// B8 baseline; the sharing differential pins bit-identity across
    /// the two).
    pub share_semantic: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            bytecode: true,
            share_semantic: true,
        }
    }
}

/// One of an engine's work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Lower-machine atom-steps: per executed (not memo-served) lower run,
    /// machine fuel consumed plus events appended.
    Steps,
    /// Intra-primitive steps: interpreter work items popped or VM
    /// instructions retired inside a ClightX primitive body — the work
    /// the bytecode tier eliminates (the B6 metric).
    PrimSteps,
    /// Lower runs answered without re-executing the checked computation:
    /// from a memoized outcome in the kernel table
    /// ([`crate::explore::Kernel::cached`]), or — in the simulation
    /// checker — from a sealed setup phase or a completed-call snapshot.
    Shared,
    /// Lower runs resumed from a mid-run query-point snapshot in the
    /// kernel table ([`crate::explore::Kernel::resume_deepest`]), executing
    /// only the schedule suffix.
    Deep,
    /// Whole-stack decompositions by `ccal-certd`'s registry (front-end
    /// runs, interface construction, unit fingerprinting).
    Decompositions,
}

/// An engine's counters at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// [`Counter::Steps`].
    pub steps: u64,
    /// [`Counter::PrimSteps`].
    pub prim_steps: u64,
    /// [`Counter::Shared`].
    pub shared: u64,
    /// [`Counter::Deep`].
    pub deep: u64,
    /// [`Counter::Decompositions`].
    pub decompositions: u64,
}

/// Where a capture scope collects failing cases.
pub(crate) type Sink = Arc<Mutex<Vec<FailingCase>>>;

/// The state a certification runs under: fixed [`Settings`], shared
/// counters and an optional capture sink. Clones share the counters and
/// the sink.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    settings: Settings,
    counters: Arc<[AtomicU64; 5]>,
    pub(crate) capture: Option<Sink>,
}

thread_local! {
    /// The engine this thread runs under.
    static CURRENT: RefCell<Engine> = RefCell::new(Engine::default());
}

/// Runs `f` on the calling thread's engine, borrowed in place.
pub(crate) fn with_current<R>(f: impl FnOnce(&Engine) -> R) -> R {
    CURRENT.with(|current| f(&current.borrow()))
}

impl Engine {
    /// A fresh engine with `settings`, zeroed counters and no capture
    /// sink.
    pub fn new(settings: Settings) -> Engine {
        Engine {
            settings,
            ..Engine::default()
        }
    }

    /// The engine the calling thread runs under (a handle sharing its
    /// counters and sink).
    pub(crate) fn current() -> Engine {
        with_current(Engine::clone)
    }

    /// This engine's counters, summed over every thread that entered it.
    pub fn totals(&self) -> Totals {
        let [steps, prim_steps, shared, deep, decompositions] =
            self.counters.each_ref().map(|c| c.load(Ordering::Relaxed));
        Totals {
            steps,
            prim_steps,
            shared,
            deep,
            decompositions,
        }
    }

    /// Runs the calling thread under this engine until the guard drops.
    /// Guards nest: each restores the engine its `enter` displaced.
    pub fn enter(&self) -> Entered {
        Entered {
            prev: Some(CURRENT.with(|current| current.replace(self.clone()))),
            _not_send: PhantomData,
        }
    }

    /// This engine with its own capture sink: same settings, same
    /// counters.
    pub(crate) fn with_capture(&self, sink: Sink) -> Engine {
        Engine {
            capture: Some(sink),
            ..self.clone()
        }
    }
}

/// The guard [`Engine::enter`] returns. Not `Send`: it restores the
/// thread's previous engine on the thread that entered.
#[must_use = "the thread leaves the engine when the guard drops"]
pub struct Entered {
    prev: Option<Engine>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            // During thread teardown the slot may already be gone; there
            // is nothing left to restore then.
            let _ = CURRENT.try_with(|current| current.replace(prev));
        }
    }
}

/// The settings of the calling thread's engine.
pub fn settings() -> Settings {
    with_current(|e| e.settings)
}

/// The counters of the calling thread's engine.
pub fn totals() -> Totals {
    with_current(Engine::totals)
}

/// Adds `n` to `counter` of the calling thread's engine.
pub fn record(counter: Counter, n: u64) {
    with_current(|e| e.counters[counter as usize].fetch_add(n, Ordering::Relaxed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_counts_into_the_engine_it_entered() {
        let engine = Engine::default();
        let before = totals();
        {
            let _in = engine.enter();
            record(Counter::Steps, 7);
            record(Counter::Decompositions, 1);
            assert_eq!(totals(), engine.totals());
        }
        assert_eq!(totals(), before, "leaving restores the thread's engine");
        assert_eq!(
            engine.totals(),
            Totals {
                steps: 7,
                decompositions: 1,
                ..Totals::default()
            }
        );
    }

    #[test]
    fn settings_are_fixed_per_engine_and_guards_nest() {
        assert_eq!(settings(), Settings::default());
        let interp = Settings {
            bytecode: false,
            ..Settings::default()
        };
        let pinned = Settings {
            share_semantic: false,
            ..Settings::default()
        };
        let outer = Engine::new(interp).enter();
        assert_eq!(settings(), interp);
        {
            let _inner = Engine::new(pinned).enter();
            assert_eq!(settings(), pinned);
        }
        assert_eq!(settings(), interp);
        drop(outer);
        assert_eq!(settings(), Settings::default());
    }

    #[test]
    fn other_threads_run_under_their_own_engine() {
        let engine = Engine::default();
        let _in = engine.enter();
        std::thread::spawn(|| record(Counter::Steps, 5))
            .join()
            .expect("counting thread");
        assert_eq!(engine.totals().steps, 0);
        let shared = engine.clone();
        std::thread::spawn(move || {
            let _in = shared.enter();
            record(Counter::Steps, 5);
        })
        .join()
        .expect("entering thread");
        assert_eq!(engine.totals().steps, 5);
    }
}
