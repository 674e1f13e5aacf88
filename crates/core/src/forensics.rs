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
//! * a thread-affine **capture scope**: while a [`CaptureScope`] is alive,
//!   every checker *called on the thread that opened it* records its
//!   failing cases (grid index, context index, the concrete machine log at
//!   the failure, and the reason) via [`record`]. The exploration kernel
//!   samples [`capturing`] once on its calling thread before dispatching
//!   the grid, so its worker threads record exactly for the scope their
//!   caller opened, and checks running on other threads (e.g. parallel
//!   tests) never leak failures into it. Outside a scope, [`capturing`]
//!   is a thread-local read — ordinary verification runs pay nothing.
//! * [`ShrinkNote`] — the shrink-accounting record (original vs. minimized
//!   steps, oracle iterations) that [`crate::calculus::Certificate`] and
//!   the verifier's report rendering carry alongside ordinary obligations.
//!
//! The capture scope is exclusive: scopes serialize on a process-global
//! lock so that concurrently running checks (e.g. parallel tests) cannot
//! interleave their captures. The checkers themselves may still run their
//! case grids on many workers inside one scope; captures are indexed by
//! grid case index and sorted on [`CaptureScope::take`], so the
//! *index-least* capture is the same first failure the checker reported.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

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

fn active() -> &'static AtomicBool {
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    &ACTIVE
}

thread_local! {
    /// Whether this thread opened the live capture scope.
    static OWNS_SCOPE: Cell<bool> = const { Cell::new(false) };
}

fn captured() -> &'static Mutex<Vec<FailingCase>> {
    static CAPTURED: OnceLock<Mutex<Vec<FailingCase>>> = OnceLock::new();
    CAPTURED.get_or_init(|| Mutex::new(Vec::new()))
}

fn gate() -> &'static Mutex<()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
}

/// Whether the calling thread opened the currently active capture scope.
/// Checkers sample this on the thread that starts an exploration and guard
/// the (log clone) cost of building a [`FailingCase`] behind it.
pub fn capturing() -> bool {
    OWNS_SCOPE.with(Cell::get)
}

/// Records a failing case into the active capture scope; a no-op when no
/// scope is active. Callable from any thread — the exploration kernel's
/// workers record on behalf of a caller whose [`capturing`] sample was
/// true — so it does not re-check thread ownership.
pub fn record(case: FailingCase) {
    if !active().load(Ordering::Relaxed) {
        return;
    }
    captured()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(case);
}

/// An exclusive failure-capture scope. While alive, failures of checkers
/// called on the opening thread are recorded; dropping (or
/// [`CaptureScope::take`]) ends the scope and clears the buffer. The scope
/// is not `Send` (it holds a mutex guard), so it ends on the thread that
/// opened it.
pub struct CaptureScope {
    _gate: MutexGuard<'static, ()>,
}

impl CaptureScope {
    /// Opens a capture scope owned by the calling thread, waiting for any
    /// concurrently active scope to finish first.
    pub fn begin() -> Self {
        let guard = gate().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        captured()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        active().store(true, Ordering::Relaxed);
        OWNS_SCOPE.with(|owns| owns.set(true));
        Self { _gate: guard }
    }

    /// Ends the scope and returns every captured failing case, sorted by
    /// grid case index (the first element, if any, is the checker's
    /// deterministic first failure).
    pub fn take(self) -> Vec<FailingCase> {
        let mut cases = std::mem::take(
            &mut *captured()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        cases.sort_by_key(|c| c.case_index);
        cases
        // `self` drops here, releasing the gate and clearing `active` and
        // the thread's ownership.
    }
}

impl Drop for CaptureScope {
    fn drop(&mut self) {
        active().store(false, Ordering::Relaxed);
        OWNS_SCOPE.with(|owns| owns.set(false));
        captured()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
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
