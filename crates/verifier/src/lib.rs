//! # ccal-verifier — bounded verification drivers
//!
//! The program-verifier layer of the toolkit (Fig. 2's "C verifier" /
//! "Asm verifier" / "Refinement libraries" in executable form): drivers
//! that discharge the correctness properties certified concurrent layers
//! must enforce — "every certified concurrent object satisfies not only a
//! safety property (e.g., linearizability) but also a progress property
//! (e.g., starvation-freedom)" (§1) — plus data-race freedom via push/pull
//! stuckness and multi-call sequential refinement for stateful objects.
//!
//! * [`seqref`] — whole-script refinement (queues, schedulers);
//! * [`linz`] — linearizability via contextual abstraction (§7);
//! * [`live`] — starvation-freedom within the paper's `n·m·#CPU` bound
//!   (§4.1);
//! * [`race`] — data-race freedom ("the program does not get stuck",
//!   §3.1).

#![warn(missing_docs)]

pub mod linz;
pub mod live;
pub mod race;
pub mod report;
pub mod seqref;

pub use linz::{
    check_linearizability, check_linearizability_tuned, fifo_history_validator,
    lock_history_validator,
};
pub use live::{check_liveness, check_liveness_tuned, ticket_bound};
pub use race::{check_race_freedom, check_race_freedom_tuned, count_racy_interleavings};
pub use report::{ReportSection, VerificationReport};
pub use seqref::{check_sequence_refinement, check_sequence_refinement_tuned, OpScript};
