//! The §6 performance study (experiment P1).
//!
//! "Initially, the ticket lock implementation incurred a latency of 87 CPU
//! cycles in the single core case. ... we forgot to remove some function
//! calls to 'logical primitives' used for manipulating ghost abstract
//! states. After we removed these extra null calls, the latency dropped
//! down to only 35 CPU cycles" (§6) — a 2.49× reduction.
//!
//! The reproduction's analog of the "logical primitives" is the
//! replay-from-log machinery: the verified interface computes every
//! primitive result by folding the global log and appends observable
//! events. The *optimized* build keeps the identical ClightX code and
//! interpreter but serves the ticket fields from concrete state with no
//! event bookkeeping — exactly "removing the null calls". The shape to
//! reproduce is the multiple-× latency drop.

use ccal_core::abs::AbsState;
use ccal_core::env::EnvContext;
use ccal_core::id::{Loc, Pid};
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::machine::LayerMachine;
use ccal_core::strategy::RoundRobinScheduler;
use ccal_core::val::Val;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccal_objects::ticket::{l0_interface, M1_SOURCE};

/// The direct-state ticket interface: same primitive names and semantics
/// as `L0`, but the ticket fields live in the abstract state and **no
/// events are recorded** — the ghost/logical work has been stripped.
pub fn direct_ticket_interface() -> LayerInterface {
    fn key_t(b: Loc) -> String {
        format!("t[{b}]")
    }
    fn key_n(b: Loc) -> String {
        format!("n[{b}]")
    }
    fn get(abs: &AbsState, key: &str) -> i64 {
        match abs.get_or_undef(key) {
            Val::Int(i) => i,
            _ => 0,
        }
    }
    LayerInterface::builder("L0-direct")
        .prim(PrimSpec::private("fai_t", |ctx, args| {
            let b = args[0].as_loc()?;
            let t = get(ctx.abs, &key_t(b));
            ctx.abs.set(&key_t(b), Val::Int(t + 1));
            Ok(Val::Int(t))
        }))
        .prim(PrimSpec::private("get_n", |ctx, args| {
            let b = args[0].as_loc()?;
            Ok(Val::Int(get(ctx.abs, &key_n(b))))
        }))
        .prim(PrimSpec::private("inc_n", |ctx, args| {
            let b = args[0].as_loc()?;
            let n = get(ctx.abs, &key_n(b));
            ctx.abs.set(&key_n(b), Val::Int(n + 1));
            Ok(Val::Unit)
        }))
        .prim(PrimSpec::private("hold", |_ctx, _args| Ok(Val::Unit)))
        .build()
}

fn machine_over(iface: LayerInterface) -> LayerMachine {
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(1)));
    LayerMachine::new(iface, Pid(0), env)
}

/// Builds the machine for the *with-logical-primitives* configuration:
/// the ticket lock module over the replay-based `L0`.
pub fn layered_machine() -> LayerMachine {
    let m = ccal_clightx::clightx_module("M1", M1_SOURCE).expect("M1 parses");
    machine_over(m.install(&l0_interface()).expect("M1 installs"))
}

/// Builds the machine for the *optimized* configuration: the same module
/// over the direct-state interface.
pub fn direct_machine() -> LayerMachine {
    let m = ccal_clightx::clightx_module("M1", M1_SOURCE).expect("M1 parses");
    machine_over(m.install(&direct_ticket_interface()).expect("M1 installs"))
}

/// One uncontended acquire/release round trip on the given machine.
pub fn roundtrip(machine: &mut LayerMachine, b: Loc) {
    machine
        .call_prim("acq", &[Val::Loc(b)])
        .expect("uncontended acquire");
    machine.call_prim("rel", &[Val::Loc(b)]).expect("release");
}

/// The result of the quick latency measurement.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Mean acquire+release latency with logical primitives (replay +
    /// events).
    pub with_logical: Duration,
    /// Mean latency with logical primitives removed (direct state).
    pub without_logical: Duration,
    /// `with / without` — the paper observed 87/35 ≈ 2.5×.
    pub ratio: f64,
}

/// Measures both configurations on a *running* machine: after `warm`
/// acquire/release round trips of history, times `iters` further round
/// trips. On the verified interface every primitive replays the
/// accumulated log (the "logical primitives"), so its latency reflects
/// the system's age — exactly the overhead the CertiKOS authors found and
/// removed; the optimized build is history-independent.
pub fn measure_warm(warm: u32, iters: u32) -> LatencyReport {
    let b = Loc(0);
    let time = |mk: &dyn Fn() -> LayerMachine| {
        let mut m = mk();
        for _ in 0..warm {
            roundtrip(&mut m, b);
        }
        let start = Instant::now();
        for _ in 0..iters {
            roundtrip(&mut m, b);
        }
        start.elapsed() / iters
    };
    let with_logical = time(&layered_machine);
    let without_logical = time(&direct_machine);
    let ratio = with_logical.as_secs_f64() / without_logical.as_secs_f64().max(f64::EPSILON);
    LatencyReport {
        with_logical,
        without_logical,
        ratio,
    }
}

/// [`measure_warm`] with a realistic default history (200 prior
/// acquisitions).
pub fn measure(iters: u32) -> LatencyReport {
    measure_warm(200, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_configurations_acquire_and_release() {
        let b = Loc(0);
        let mut m = layered_machine();
        roundtrip(&mut m, b);
        assert!(m.log().count_by(Pid(0)) >= 3, "events recorded");
        let mut m = direct_machine();
        roundtrip(&mut m, b);
        assert!(m.log().is_empty(), "no events in the optimized build");
        assert_eq!(m.abs.get_or_undef("t[b0]"), Val::Int(1));
        assert_eq!(m.abs.get_or_undef("n[b0]"), Val::Int(1));
    }

    #[test]
    fn removing_logical_primitives_reduces_latency() {
        let report = measure(200);
        assert!(
            report.ratio > 1.2,
            "expected a clear latency drop, measured ratio {:.2}",
            report.ratio
        );
    }
}
