//! # ccal-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) from
//! this reproduction, as catalogued in `DESIGN.md` and `EXPERIMENTS.md`:
//!
//! * [`tables::table1`] — Table 1, toolkit component sizes;
//! * [`tables::table2`] — Table 2, per-object statistics (implementation
//!   size, specification size, and the *checking* effort that replaces
//!   proof effort);
//! * [`latency`] — the §6 performance study: ticket-lock latency with and
//!   without the leftover "logical primitive" calls (paper: 87 → 35
//!   cycles);
//! * [`scaling`] — the compositionality study (B1): schedule-space sizes
//!   for compositional vs. monolithic verification;
//! * the Criterion benches under `benches/` drive these and the lock
//!   contention comparison (B3) and memory-algebra composition (F12).

#![warn(missing_docs)]

pub mod latency;
pub mod scaling;
pub mod tables;
