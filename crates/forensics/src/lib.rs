//! Failure forensics for the bounded CCAL checkers: counterexample
//! shrinking, trace artifacts, and deterministic replay.
//!
//! The paper's concurrent layer interfaces fail with a *witness*: an event
//! log that some adversarial environment context forces (§2.3). This crate
//! turns that witness into a durable, replayable artifact:
//!
//! 1. **Capture** — the checkers record every failing case (grid index,
//!    concrete machine log, reason) inside a
//!    [`ccal_core::forensics::CaptureScope`];
//! 2. **Reify** — [`ScriptedContext::from_log`] re-derives the
//!    environment's choices (schedule targets, per-player event batches)
//!    from the failing log;
//! 3. **Shrink** — [`shrink::shrink`] delta-debugs the scripted context to
//!    a 1-minimal counterexample, using a serial no-POR no-dedup re-run of
//!    the checker ([`registry::probe`]) as the oracle;
//! 4. **Serialize** — [`TraceArtifact`] writes the minimized witness as
//!    versioned, self-describing JSON ([`json`]/[`wire`] are hand-rolled:
//!    the container has no serde);
//! 5. **Replay** — [`registry::replay_artifact`] re-runs the artifact's
//!    context through the same checker and asserts a bit-identical verdict
//!    (reason, case detail, and first-failure log). The `ccal-replay`
//!    binary drives this over a corpus directory as a regression gate.
//!
//! The seeded-bug fixtures live in [`ccal_objects::buggy`]; the registry
//! binds each to its checker.

#![warn(missing_docs)]

pub mod artifact;
pub mod json;
pub mod registry;
pub mod scripted;
pub mod shrink;
pub mod wire;

pub use artifact::{ExpectedFailure, ReplayOptions, TraceArtifact, FORMAT_VERSION};
pub use registry::{
    all_fixtures, find, investigate, probe, replay_artifact, CaseFailure, Fixture, RunConfig,
};
pub use scripted::ScriptedContext;
pub use shrink::{one_minimal, one_removals, shrink as shrink_context, ShrinkOutcome};
