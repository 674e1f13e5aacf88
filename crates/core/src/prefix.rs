//! Prefix-sharing lower-run exploration.
//!
//! The bounded checkers enumerate a `|D|^len` grid of schedule prefixes
//! ([`crate::contexts::ContextGen`]) and re-run the concrete (lower)
//! machine for every context. But a run under a [`ScriptScheduler`] is a
//! deterministic function of the *consumed* part of its script: every
//! strategy is a pure function of the global log (§2), and the scheduler
//! reads `script[k]` only at the `k`-th scheduling event. Two grid scripts
//! that agree on the first `k` slots therefore produce bit-identical runs
//! whenever the run consumes at most `k` scheduling events — most of the
//! grid is pure recomputation of shared prefixes.
//!
//! The exploration kernel ([`crate::explore::Kernel`]) exploits this:
//! after a lower run executes, its outcome (log, return values, error —
//! whatever the checker folds over) is stored under the schedule prefix it
//! actually consumed, organizing the grid as a prefix trie keyed by
//! consumed depth. Any later case whose script shares that consumed prefix
//! reuses the outcome without re-running the machine. Because the stored
//! value is the *complete* per-case outcome, evidence (case counts,
//! probes, index-least first failure) stays bit-identical to the unshared
//! exploration, independent of visit order.
//!
//! # Query-point snapshots
//!
//! Whole-outcome memoization cannot help a long multi-query primitive
//! (e.g. the interpreted ticket `acq`, which spins on `get_n` querying the
//! environment between polls): such a run consumes most or all of its
//! script, so no other context shares its *whole* consumed prefix. But
//! every query point is a cut point — the machine state plus a fork of the
//! in-flight run ([`crate::layer::PrimRun::fork_run`]) determine the rest
//! of the execution, and the schedule prefix consumed so far is exactly
//! the sched events in the log. The kernel therefore also stores such
//! mid-run snapshots ([`ForkSnapshot`]) keyed by consumed prefix: exploring
//! a new context walks to the *deepest* ancestor snapshot, forks it (cheap,
//! Arc/COW-backed), and executes only the suffix. Unlike outcomes — where
//! at most one stored prefix can apply — many snapshots along a script's
//! path apply simultaneously; resuming from any of them yields the same
//! outcome by determinism, so the choice affects work done, never
//! verdicts.
//!
//! Outcomes and snapshots live in one bounded table per kernel
//! ([`crate::explore::KernelTable`], a [`crate::table::BoundedTable`]),
//! under one cap and one deepest-first eviction.
//!
//! Only contexts minted by [`crate::contexts::ContextGen`] carry a
//! [`ScheduleKey`]; hand-built contexts (notably the forensics replay
//! engine's scripted contexts) have none and structurally bypass sharing.
//!
//! Both layers are on by default; a caller turns them off per check with
//! [`crate::explore::ExploreOptions::prefix_share`] (both layers) or
//! [`crate::explore::ExploreOptions::deep_share`] (only the query-point
//! snapshot layer).
//!
//! [`ScriptScheduler`]: crate::strategy::ScriptScheduler

use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine;
use crate::id::Pid;

/// Hands out a fresh family id for a [`crate::contexts::ContextGen`]
/// instance. Keys from different generators never collide in a kernel
/// table, so a checker handed a mixed slice of contexts (different
/// players, domains, or fuel) stays correct — sharing simply does not cross
/// the family boundary. Process-wide rather than per engine: family ids
/// must stay unique across every engine that shares a warm store.
pub fn next_family() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The identity of one grid context's schedule script, attached to
/// [`crate::env::EnvContext`]s minted by a generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleKey {
    family: u64,
    script: Vec<Pid>,
    domain_len: usize,
}

impl ScheduleKey {
    /// Creates a key for a script of one generator family over a domain of
    /// `domain_len` participants.
    pub fn new(family: u64, script: Vec<Pid>, domain_len: usize) -> Self {
        Self {
            family,
            script,
            domain_len,
        }
    }

    /// The generator family the script belongs to.
    pub fn family(&self) -> u64 {
        self.family
    }

    /// The schedule script (slot 0 first).
    pub fn script(&self) -> &[Pid] {
        &self.script
    }

    /// The size of the scheduler domain the script draws from.
    pub fn domain_len(&self) -> usize {
        self.domain_len
    }
}

/// A mid-run machine snapshot that can be forked into an independent copy
/// per use. The kernel stores one *master* per cut point and hands out forks
/// — masters are never resumed themselves, so an entry stays valid for any
/// number of contexts. `fork` may return `None` when some captured
/// component does not support forking; the lookup then falls back to a
/// shallower snapshot (or a fresh run), which is always sound.
pub trait ForkSnapshot: Sized + Send {
    /// Forks an independent copy of the snapshot.
    fn fork(&self) -> Option<Self>;
}

/// Lower-machine atom-steps counted by the calling thread's engine
/// ([`Counter::Steps`](crate::engine::Counter::Steps)).
pub fn steps_total() -> u64 {
    engine::totals().steps
}

/// Lower runs the calling thread's engine answered from a stored outcome
/// or completed-call snapshot ([`Counter::Shared`](crate::engine::Counter::Shared)).
pub fn shared_total() -> u64 {
    engine::totals().shared
}

/// Lower runs the calling thread's engine resumed from a snapshot
/// ([`Counter::Deep`](crate::engine::Counter::Deep)).
pub fn deep_total() -> u64 {
    engine::totals().deep
}

/// Intra-primitive steps counted by the calling thread's engine
/// ([`Counter::PrimSteps`](crate::engine::Counter::PrimSteps)).
pub fn prim_steps_total() -> u64 {
    engine::totals().prim_steps
}

/// Always 0. The convergence-dedup cache that counted suffix hits here
/// was removed; the function stays only because the end-to-end benchmark
/// (`e2ebench/`) still reads it.
pub fn converged_total() -> u64 {
    0
}

/// Always 0. The convergence-dedup cache that counted evictions here was
/// removed; the function stays only because the end-to-end benchmark
/// (`e2ebench/`) still reads it.
pub fn conv_evictions_total() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_counters_accumulate_and_reset() {
        use crate::engine::{record, Counter, Engine};
        // Each engine starts from zero, and only this thread counts into
        // the one it entered: exact totals even beside concurrent tests.
        for _ in 0..2 {
            let _in = Engine::default().enter();
            record(Counter::Steps, 10);
            record(Counter::Steps, 5);
            record(Counter::Shared, 1);
            assert_eq!(steps_total(), 15);
            assert_eq!(shared_total(), 1);
            assert_eq!((deep_total(), prim_steps_total()), (0, 0));
        }
    }
}
