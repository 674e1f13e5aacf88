//! Environment contexts.
//!
//! "Each environment context (denoted as `E`) provides a strategy for its
//! 'environment', i.e., the union of the strategies by the scheduler plus
//! those participants not in `A`" (§2). Given an environment context,
//! execution of a program over `L[A]` is *deterministic* — all
//! nondeterminism lives in the choice of `E`, which verifiers enumerate.
//!
//! [`EnvContext::extend_until_focused`] implements the query process
//! `E[A, l]` of §3.2: "at each query point, the machine repeatedly queries
//! `E` ... and this querying continues until there is a hardware transition
//! event back to `A`".

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::event::EventKind;
use crate::id::{Pid, PidSet};
use crate::log::Log;
use crate::prefix::ScheduleKey;
use crate::strategy::{IdleStrategy, Strategy, StrategyMove};

/// Error produced while querying an environment context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvError {
    /// The scheduler strategy was stuck or emitted a non-scheduling move.
    SchedulerStuck {
        /// Length of the log at the failure.
        log_len: usize,
    },
    /// An environment participant's strategy was stuck.
    PlayerStuck {
        /// The stuck participant.
        pid: Pid,
        /// Length of the log at the failure.
        log_len: usize,
    },
    /// The query fuel ran out before control returned to the focused set —
    /// the scheduler was unfair beyond the assumed bound.
    Unfair {
        /// The fuel that was exhausted.
        fuel: u64,
    },
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::SchedulerStuck { log_len } => {
                write!(f, "scheduler strategy stuck at log length {log_len}")
            }
            EnvError::PlayerStuck { pid, log_len } => {
                write!(f, "environment player {pid} stuck at log length {log_len}")
            }
            EnvError::Unfair { fuel } => write!(
                f,
                "environment did not return control within {fuel} scheduling steps (unfair)"
            ),
        }
    }
}

impl std::error::Error for EnvError {}

/// An environment context `E`: a scheduler strategy plus one strategy per
/// environment participant (Fig. 7: `EC ∈ Id ⇀ Strategy`). Participants
/// without an explicit strategy are treated as [`IdleStrategy`] — "even if
/// a thread `t` is never created, the semantics ... is still well defined"
/// (§7, *Treatment of Parallel Composition*).
///
/// Contexts are cloned once per checked case by the bounded checker; the
/// player map is `Arc`-backed so a clone is two reference-count bumps
/// regardless of how many players the context carries.
#[derive(Clone)]
pub struct EnvContext {
    scheduler: Arc<dyn Strategy>,
    players: Arc<BTreeMap<Pid, Arc<dyn Strategy>>>,
    /// Fuel bound on a single query process; encodes the fairness bound
    /// `m` of the rely conditions (§4.1).
    fuel: u64,
    /// Whether this context is Mazurkiewicz-trace equivalent to another
    /// context with a smaller grid index (see [`crate::por`]); checkers
    /// running with partial-order reduction enabled skip it.
    por_equivalent: bool,
    /// The schedule script identity for prefix-sharing (see
    /// [`crate::prefix`]); set only by [`crate::contexts::ContextGen`].
    /// Contexts without a key — hand-built ones, scripted replay contexts —
    /// structurally bypass prefix sharing.
    schedule_key: Option<Arc<ScheduleKey>>,
}

impl EnvContext {
    /// Default fuel for the query process.
    pub const DEFAULT_FUEL: u64 = 10_000;

    /// Creates a context with the given scheduler and no players.
    pub fn new(scheduler: Arc<dyn Strategy>) -> Self {
        Self {
            scheduler,
            players: Arc::new(BTreeMap::new()),
            fuel: Self::DEFAULT_FUEL,
            por_equivalent: false,
            schedule_key: None,
        }
    }

    /// Attaches the schedule script identity that lets checkers share
    /// lower runs across contexts with common consumed prefixes (see
    /// [`crate::prefix`]). Only [`crate::contexts::ContextGen`] should set
    /// this: the key certifies that the context's scheduler is a
    /// [`crate::strategy::ScriptScheduler`] over exactly this script and
    /// that contexts of one family differ *only* in their scripts.
    pub fn with_schedule_key(mut self, key: ScheduleKey) -> Self {
        self.schedule_key = Some(Arc::new(key));
        self
    }

    /// The schedule script identity, if this context came from a generator
    /// grid.
    pub fn schedule_key(&self) -> Option<&ScheduleKey> {
        self.schedule_key.as_deref()
    }

    /// Adds (or replaces) the strategy of environment participant `pid`.
    pub fn with_player(mut self, pid: Pid, strategy: Arc<dyn Strategy>) -> Self {
        Arc::make_mut(&mut self.players).insert(pid, strategy);
        self
    }

    /// Sets the query-process fuel (fairness bound).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// The query-process fuel (fairness bound) — exposed so the forensics
    /// pipeline can carry it into serialized trace artifacts.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Marks this context as trace-equivalent to a lower-indexed context of
    /// the same grid (set by [`crate::contexts::ContextGen`] when the
    /// partial-order reduction proves the equivalence).
    pub fn mark_por_equivalent(mut self) -> Self {
        self.por_equivalent = true;
        self
    }

    /// Whether a lower-indexed trace-equivalent context exists, so a
    /// checker with the partial-order reduction on
    /// ([`crate::explore::ExploreOptions::por`]) may skip this one without
    /// changing its verdict.
    pub fn is_por_equivalent(&self) -> bool {
        self.por_equivalent
    }

    /// The scheduler strategy `φ₀`.
    pub fn scheduler(&self) -> &Arc<dyn Strategy> {
        &self.scheduler
    }

    /// The strategy of participant `pid`, or the idle strategy.
    pub fn player(&self, pid: Pid) -> Arc<dyn Strategy> {
        self.players
            .get(&pid)
            .cloned()
            .unwrap_or_else(|| Arc::new(IdleStrategy))
    }

    /// The pids with explicitly registered strategies.
    pub fn player_pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.players.keys().copied()
    }

    /// The query process `E[A, l]` (§3.2): repeatedly asks the scheduler
    /// for the next participant; if it is outside `focused`, plays that
    /// participant's strategy move and continues; stops when control
    /// transfers to a member of `focused`, returning it.
    ///
    /// All generated events (scheduling events and environment events) are
    /// appended to `log`.
    ///
    /// # Errors
    ///
    /// * [`EnvError::SchedulerStuck`] if the scheduler has no move or emits
    ///   anything but a single scheduling event;
    /// * [`EnvError::PlayerStuck`] if an environment participant is stuck;
    /// * [`EnvError::Unfair`] if the fuel is exhausted before control
    ///   returns to `focused` — i.e. the scheduler violated the fairness
    ///   rely condition.
    pub fn extend_until_focused(&self, focused: &PidSet, log: &mut Log) -> Result<Pid, EnvError> {
        for _ in 0..self.fuel {
            if let Some(p) = self.extend_one(focused, log)? {
                return Ok(p);
            }
        }
        Err(EnvError::Unfair { fuel: self.fuel })
    }

    /// One turn of the query process: asks the scheduler for the next
    /// participant and, when it is outside `focused`, plays that
    /// participant's strategy move. All generated events are appended to
    /// `log`; returns the scheduled pid when control transferred to
    /// `focused` (whose strategy does *not* run), `None` otherwise. Each
    /// turn consumes exactly one schedule slot, which makes the machine
    /// state after it a per-slot cut point for query-point snapshots (see
    /// [`crate::machine::LayerMachine::drive_with_snapshots`]).
    ///
    /// # Errors
    ///
    /// As [`EnvContext::extend_until_focused`], minus the fairness bound
    /// (a single turn cannot be unfair; the caller owns the loop).
    pub fn extend_one(&self, focused: &PidSet, log: &mut Log) -> Result<Option<Pid>, EnvError> {
        let target = match self.scheduler.next_move(log) {
            StrategyMove::Emit(evs) => match evs.as_slice() {
                [e] => {
                    if let EventKind::HwSched(p) = e.kind {
                        log.append(e.clone());
                        p
                    } else {
                        return Err(EnvError::SchedulerStuck { log_len: log.len() });
                    }
                }
                _ => return Err(EnvError::SchedulerStuck { log_len: log.len() }),
            },
            _ => return Err(EnvError::SchedulerStuck { log_len: log.len() }),
        };
        if focused.contains(target) {
            return Ok(Some(target));
        }
        match self.player(target).next_move(log) {
            StrategyMove::Emit(evs) => log.append_all(evs),
            StrategyMove::Finish(_) => {}
            StrategyMove::Stuck => {
                return Err(EnvError::PlayerStuck {
                    pid: target,
                    log_len: log.len(),
                });
            }
        }
        Ok(None)
    }
}

impl fmt::Debug for EnvContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnvContext")
            .field("scheduler", &self.scheduler.name())
            .field(
                "players",
                &self
                    .players
                    .iter()
                    .map(|(p, s)| (p.to_string(), s.name().to_owned()))
                    .collect::<Vec<_>>(),
            )
            .field("fuel", &self.fuel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::strategy::{FnStrategy, RoundRobinScheduler, ScriptPlayer};

    #[test]
    fn query_process_stops_at_focused_pid() {
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(3)));
        let focused = PidSet::singleton(Pid(2));
        let mut log = Log::new();
        let got = env.extend_until_focused(&focused, &mut log).unwrap();
        assert_eq!(got, Pid(2));
        // Scheduler visited p0 and p1 first (idle moves), then p2.
        let scheds: Vec<_> = log.iter().filter(|e| e.is_sched()).collect();
        assert_eq!(scheds.len(), 3);
        assert_eq!(log.current_pid(), Some(Pid(2)));
    }

    #[test]
    fn environment_players_contribute_events() {
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2))).with_player(
            Pid(0),
            Arc::new(ScriptPlayer::new(
                Pid(0),
                vec![vec![Event::prim(Pid(0), "noise", vec![])]],
            )),
        );
        let focused = PidSet::singleton(Pid(1));
        let mut log = Log::new();
        env.extend_until_focused(&focused, &mut log).unwrap();
        assert_eq!(log.count_by(Pid(0)), 1, "p0 played its scripted event");
    }

    #[test]
    fn unfair_scheduler_exhausts_fuel() {
        // A scheduler that never schedules p1.
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::new(vec![Pid(0)]))).with_fuel(16);
        let focused = PidSet::singleton(Pid(1));
        let mut log = Log::new();
        let err = env.extend_until_focused(&focused, &mut log).unwrap_err();
        assert_eq!(err, EnvError::Unfair { fuel: 16 });
    }

    #[test]
    fn stuck_player_is_reported() {
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2))).with_player(
            Pid(0),
            Arc::new(FnStrategy::new("stuck", |_| StrategyMove::Stuck)),
        );
        let focused = PidSet::singleton(Pid(1));
        let mut log = Log::new();
        let err = env.extend_until_focused(&focused, &mut log).unwrap_err();
        assert!(matches!(err, EnvError::PlayerStuck { pid: Pid(0), .. }));
    }

    #[test]
    fn bad_scheduler_move_is_reported() {
        let env = EnvContext::new(Arc::new(FnStrategy::new("bad", |_| {
            StrategyMove::Emit(vec![Event::prim(Pid(0), "not-sched", vec![])])
        })));
        let mut log = Log::new();
        let err = env
            .extend_until_focused(&PidSet::singleton(Pid(0)), &mut log)
            .unwrap_err();
        assert!(matches!(err, EnvError::SchedulerStuck { .. }));
    }
}
