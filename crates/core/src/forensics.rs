//! Failure-forensics hooks: first-failure capture and shrink accounting.
//!
//! The paper's obligations fail with a *witness* — an event log that an
//! adversarial environment context can force (§2.3). The bounded checkers
//! report that witness as a human-readable message, which is enough to read
//! but not enough to *reproduce*: the `ccal-forensics` crate re-derives a
//! scripted environment context from the failing log, shrinks it to a
//! 1-minimal counterexample, and replays it deterministically. This module
//! holds the core-side half of that pipeline:
//!
//! * a **capture scope**: while a [`CaptureScope`] is alive, every checker
//!   run under the engine the scope opened ([`crate::engine`]) records its
//!   failing cases (grid index, context index, the concrete machine log
//!   at the failure, and the reason) via [`record`]. The scope enters a
//!   copy of the calling thread's engine that carries its own capture
//!   sink, so the exploration kernel's workers, which enter their
//!   caller's engine, record into it, while checks on other threads —
//!   even ones holding scopes of their own — never leak failures into
//!   it. Outside a scope, [`capturing`] is a thread-local read —
//!   ordinary verification runs pay nothing.
//! * [`ShrinkNote`] — the shrink-accounting record (original vs. minimized
//!   steps, oracle iterations) that [`crate::calculus::Certificate`] and
//!   the verifier's report rendering carry alongside ordinary obligations.
//!
//! Scopes do not serialize: any number of threads may hold one at once,
//! each collecting only its own failures. The checkers themselves may
//! still run their case grids on many workers inside one scope; captures
//! are indexed by grid case index and sorted on [`CaptureScope::take`],
//! so the *index-least* capture is the same first failure the checker
//! reported.

use std::fmt;
use std::sync::{Arc, PoisonError};

use crate::engine::{self, Engine, Entered, Sink};
use crate::log::Log;

/// One captured failing case: everything the forensics pipeline needs to
/// re-derive and replay the adversarial environment context.
#[derive(Debug, Clone)]
pub struct FailingCase {
    /// The checker that failed: `"sim"`, `"live"`, `"linz"`, `"race"` or
    /// `"seqref"`.
    pub checker: &'static str,
    /// The flat case-grid index of the failure (ties captures to the
    /// checker's deterministic index-least first failure).
    pub case_index: usize,
    /// The environment-context index within the checked context family.
    pub ctx_index: usize,
    /// Human-readable case detail (context/args/script indices).
    pub detail: String,
    /// The concrete (lower/implementation) machine log at the failure,
    /// *including* scheduling events — the witness the forensics crate
    /// reifies into a scripted context.
    pub log: Log,
    /// Why the case failed, exactly as the checker reported it.
    pub reason: String,
}

/// Whether the calling thread runs under a capture scope. Checkers guard
/// the (log clone) cost of building a [`FailingCase`] behind it.
pub fn capturing() -> bool {
    engine::with_current(|e| e.capture.is_some())
}

/// Records a failing case into the capture scope the calling thread runs
/// under; a no-op outside a scope.
pub fn record(case: FailingCase) {
    engine::with_current(|e| {
        if let Some(sink) = &e.capture {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(case);
        }
    });
}

/// A failure-capture scope. While alive, failures of checkers run on the
/// opening thread (and on the workers it dispatches to) are recorded;
/// [`CaptureScope::take`] ends the scope and returns them, dropping it
/// discards them. The scope is not `Send`, so it ends on the thread that
/// opened it. Scopes nest: an inner scope collects until it ends, then
/// the outer one resumes.
pub struct CaptureScope {
    sink: Sink,
    _entered: Entered,
}

impl CaptureScope {
    /// Opens a capture scope on the calling thread.
    pub fn begin() -> Self {
        let sink = Sink::default();
        let _entered = Engine::current().with_capture(Arc::clone(&sink)).enter();
        Self { sink, _entered }
    }

    /// Ends the scope and returns every captured failing case, sorted by
    /// grid case index (the first element, if any, is the checker's
    /// deterministic first failure).
    pub fn take(self) -> Vec<FailingCase> {
        let mut cases =
            std::mem::take(&mut *self.sink.lock().unwrap_or_else(PoisonError::into_inner));
        cases.sort_by_key(|c| c.case_index);
        cases
    }
}

/// Shrink accounting for one minimized counterexample, carried by
/// [`crate::calculus::Certificate`] and rendered by the verifier's report:
/// how large the original witness was, how small delta debugging got it,
/// and how many oracle runs that took.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShrinkNote {
    /// The checker whose failure was shrunk.
    pub checker: String,
    /// The object / fixture under check.
    pub object: String,
    /// Steps (schedule slots + scripted environment events) in the
    /// original reified witness.
    pub original_steps: usize,
    /// Steps in the 1-minimal witness.
    pub minimized_steps: usize,
    /// Oracle invocations the delta-debugging loop spent.
    pub iterations: usize,
    /// File name of the emitted trace artifact, if one was written.
    pub artifact: String,
}

impl fmt::Display for ShrinkNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shrunk {}/{}: {} → {} steps in {} oracle runs",
            self.checker, self.object, self.original_steps, self.minimized_steps, self.iterations
        )?;
        if !self.artifact.is_empty() {
            write!(f, " ({})", self.artifact)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::id::Pid;

    fn case(i: usize) -> FailingCase {
        FailingCase {
            checker: "sim",
            case_index: i,
            ctx_index: i,
            detail: format!("context #{i}"),
            log: Log::from_events([Event::sched(Pid(0))]),
            reason: "boom".to_owned(),
        }
    }

    #[test]
    fn records_only_inside_a_scope_and_sorts_by_index() {
        record(case(9)); // no scope: dropped
        let scope = CaptureScope::begin();
        assert!(capturing());
        record(case(5));
        record(case(2));
        record(case(7));
        let got = scope.take();
        assert!(!capturing());
        assert_eq!(
            got.iter().map(|c| c.case_index).collect::<Vec<_>>(),
            vec![2, 5, 7]
        );
        // A later scope starts empty.
        let scope = CaptureScope::begin();
        assert!(scope.take().is_empty());
    }

    #[test]
    fn dropping_a_scope_clears_and_deactivates() {
        {
            let _scope = CaptureScope::begin();
            record(case(1));
        }
        assert!(!capturing());
        let scope = CaptureScope::begin();
        record(case(3));
        assert_eq!(scope.take().len(), 1);
    }

    #[test]
    fn only_the_opening_thread_is_capturing() {
        let scope = CaptureScope::begin();
        assert!(capturing());
        let elsewhere = std::thread::spawn(capturing).join().unwrap();
        assert!(!elsewhere, "another thread does not own the scope");
        drop(scope);
        assert!(!capturing());
    }

    #[test]
    fn concurrent_scopes_each_capture_only_their_own_failure() {
        use std::sync::mpsc;
        use std::time::Duration;
        let wait = Duration::from_secs(10);
        let (opened_tx, opened) = mpsc::channel();
        let threads: Vec<_> = [1, 2]
            .map(|i| {
                let opened_tx = opened_tx.clone();
                let (go_tx, go) = mpsc::channel::<()>();
                let handle = std::thread::spawn(move || {
                    let scope = CaptureScope::begin();
                    opened_tx.send(()).expect("the test is listening");
                    // Record only once both scopes are open at once.
                    go.recv_timeout(wait).expect("both scopes opened");
                    record(case(i));
                    scope.take()
                });
                (i, go_tx, handle)
            })
            .into();
        for _ in &threads {
            opened
                .recv_timeout(wait)
                .expect("a scope opens while another thread holds one");
        }
        for (_, go_tx, _) in &threads {
            go_tx.send(()).expect("the scope's thread waits");
        }
        for (i, _, handle) in threads {
            let got = handle.join().expect("capturing thread");
            assert_eq!(
                got.iter().map(|c| c.case_index).collect::<Vec<_>>(),
                vec![i],
                "thread {i} captured exactly its own failure"
            );
        }
    }

    #[test]
    fn nested_scopes_capture_into_the_innermost() {
        let outer = CaptureScope::begin();
        record(case(1));
        let inner = CaptureScope::begin();
        record(case(2));
        assert_eq!(inner.take().len(), 1);
        record(case(3));
        assert_eq!(
            outer
                .take()
                .iter()
                .map(|c| c.case_index)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn shrink_note_renders_accounting() {
        let note = ShrinkNote {
            checker: "live".into(),
            object: "impatient-waiter".into(),
            original_steps: 14,
            minimized_steps: 3,
            iterations: 27,
            artifact: "live-impatient-waiter-1a2b.json".into(),
        };
        let s = note.to_string();
        assert!(s.contains("14 → 3 steps"));
        assert!(s.contains("27 oracle runs"));
        assert!(s.contains("live-impatient-waiter-1a2b.json"));
    }
}
