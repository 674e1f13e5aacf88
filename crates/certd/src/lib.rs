//! # ccal-certd — the certification service
//!
//! A long-running certification daemon for the CCAL reproduction, plus
//! the thin client and shard workers that talk to it. The daemon answers
//! "certify this layer stack" requests the same way `check_fun` does in
//! process, with three service-level additions:
//!
//! * **Content-addressed certificate store** ([`store`]): every
//!   certification unit (one `check_prim_refinement` obligation of a
//!   stack's Fig. 9 pipeline) is keyed by a
//!   [`ccal_core::fingerprint::ContentHash`] over its ClightX sources,
//!   both layer interfaces (name and primitive names), the simulation
//!   relation, the context-family parameters and the full `SimOptions`.
//!   A request whose units all hit the store is answered with **zero**
//!   exploration steps; editing one layer dirties only the units whose
//!   inputs actually changed.
//! * **Warm memo state** ([`coordinator`], [`shard`]): the daemon and its
//!   shards keep one [`ccal_core::sim::SimWarm`] per unit fingerprint
//!   alive across requests, so a re-check of a known unit starts with the
//!   kernel table (memoized outcomes and snapshots) and the upper-run
//!   cache already populated.
//!   Per-request hit/evict deltas are reported in the response.
//! * **Sharded grid** ([`proto`], [`coordinator`]): the kernel's flat
//!   `ci·ninner + inner` index space is cut into half-open windows and
//!   leased to shard processes over a length-prefixed JSON protocol (TCP
//!   or unix socket). The coordinator folds chunk results **in index
//!   order**, so the verdict, the case accounting and the index-least
//!   first failure are bit-identical to a serial in-process run. A shard
//!   that dies or stalls mid-lease has its window re-leased (bounded
//!   attempts, then the coordinator runs it locally), so a killed worker
//!   can never change the verdict or the evidence.
//!
//! The protocol, the unit decomposition and the failure semantics are
//! documented in `docs/DESIGN.md` ("Certification service").

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod proto;
pub mod registry;
pub mod shard;
pub mod spec;
pub mod store;

pub use client::certify;
pub use coordinator::{Daemon, DaemonOptions};
pub use spec::{CertParams, CertRequest, CertResponse, UnitReport};
