//! End-to-end and per-layer benchmark of the CCAL toolkit.
//!
//! Two workloads, each a closed loop of one client thread timing whole
//! passes over a fixed catalog (see `README.md` in this directory):
//! `inproc-cold` certifies in process from scratch, and `certd-hit`
//! drives a real `ccal-certd serve` process over a unix socket. A traced run (`--trace 1`) times each layer's public calls
//! from this crate's own code.

pub mod catalog;
pub mod certd;
pub mod gate;
pub mod host;
pub mod inproc;
pub mod stats;
pub mod trace;
