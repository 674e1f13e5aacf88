//! Strategies: the game-semantic description of participants.
//!
//! "Each participant `i ∈ D` contributes its play by appending events into
//! the global log `l`; its strategy `φᵢ` is a deterministic partial function
//! from the current log `l` to its next move `φᵢ(l)` whenever the last event
//! in `l` transfers control back to `i`" (§2).
//!
//! Strategies are *stateless*: all of a participant's state is a function of
//! the log (via replay). This is what makes parallel composition of layers
//! sound — any interleaving of strategy moves is meaningful.
//!
//! The scheduler `φ₀` "acts as a judge of the game" (§2); it is itself a
//! strategy whose moves are [`EventKind::HwSched`] events.

use std::fmt;
use std::sync::Arc;

use crate::event::{Event, EventKind, Footprint};
use crate::id::Pid;
use crate::log::Log;
use crate::val::Val;

/// One move of a strategy when control is transferred to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyMove {
    /// Append these events (possibly none — the idle move `!ϵ` of §2) and
    /// remain in the game.
    Emit(Vec<Event>),
    /// The strategy's play is complete; carries the value it returns
    /// (`↓ v` in the paper's automata).
    Finish(Val),
    /// The strategy is undefined at this log — the partiality of `φᵢ`.
    /// Reaching a stuck strategy is a verification failure (e.g. a data
    /// race under the push/pull model).
    Stuck,
}

impl StrategyMove {
    /// The idle move `!ϵ`.
    pub fn idle() -> Self {
        StrategyMove::Emit(Vec::new())
    }
}

/// A deterministic partial function from logs to moves.
///
/// Implementations must be deterministic and must not carry hidden mutable
/// state: two calls with equal logs must return equal moves. (The paper's
/// strategies are functions of the log; every per-participant notion of
/// "where am I" must be recomputed from the log, typically with a replay
/// function or by counting the participant's own events.)
pub trait Strategy: Send + Sync {
    /// The strategy's move at log `log`, assuming control was just
    /// transferred to the strategy's participant.
    fn next_move(&self, log: &Log) -> StrategyMove;

    /// Human-readable name, used in diagnostics and certificates.
    fn name(&self) -> &str {
        "strategy"
    }

    /// The strategy's *declared alphabet*: event kinds it may ever emit,
    /// used by the partial-order reduction ([`crate::por`]) to decide
    /// whether two environment players commute. `None` (the default) means
    /// "unknown" — the player is conservatively treated as conflicting
    /// with everything and the reduction never prunes around it.
    ///
    /// # Contract
    ///
    /// Every event the strategy can emit must match one of the returned
    /// kinds up to payload *values* (same constructor, same footprints,
    /// same [`EventKind::is_lock_ordered`] class). A named kind's
    /// footprints are [`EventKind::footprints`]; a [`EventKind::Prim`]
    /// kind's are what this player declares for it in
    /// [`Strategy::footprints_of_prim`]. Declaring too small an alphabet or
    /// too small a footprint makes the reduction unsound; declaring `None`
    /// or too large an alphabet only loses pruning. Implementations must
    /// also be *footprint-local*: their moves may depend only on their own
    /// events and on events touching their declared footprints (all
    /// strategies in this workspace are — they replay per-object shared
    /// state and count their own events).
    fn may_emit(&self) -> Option<Vec<EventKind>> {
        None
    }

    /// The shared resources touched by the [`EventKind::Prim`] event
    /// `name(args)` when this player emits it — part of the
    /// [`Strategy::may_emit`] declaration. The default,
    /// `[Footprint::Global]`, conflicts with everything. A player may
    /// narrow it for primitives of its own object: it then claims that
    /// every replay function, invariant and relation consuming the event
    /// depends only on the returned resources (and on per-author event
    /// order, which the reduction always keeps). An empty footprint
    /// commutes with every event but the schedule. The answer holds for
    /// this player only; another object's primitive of the same name
    /// keeps its own.
    fn footprints_of_prim(&self, name: &str, args: &[Val]) -> Vec<Footprint> {
        let _ = (name, args);
        vec![Footprint::Global]
    }
}

impl fmt::Debug for dyn Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Strategy({})", self.name())
    }
}

/// A strategy defined by a closure over the log.
///
/// # Examples
///
/// ```
/// use ccal_core::strategy::{FnStrategy, Strategy, StrategyMove};
/// use ccal_core::event::Event;
/// use ccal_core::id::Pid;
/// use ccal_core::log::Log;
///
/// // A player that emits one `foo` event on its first turn, then idles.
/// let s = FnStrategy::new("foo-once", |log: &Log| {
///     if log.count_by(Pid(1)) == 0 {
///         StrategyMove::Emit(vec![Event::prim(Pid(1), "foo", vec![])])
///     } else {
///         StrategyMove::idle()
///     }
/// });
/// assert_eq!(s.name(), "foo-once");
/// ```
#[derive(Clone)]
pub struct FnStrategy {
    name: String,
    f: Arc<dyn Fn(&Log) -> StrategyMove + Send + Sync>,
}

impl FnStrategy {
    /// Creates a strategy from a name and a move function.
    pub fn new<F>(name: &str, f: F) -> Self
    where
        F: Fn(&Log) -> StrategyMove + Send + Sync + 'static,
    {
        Self {
            name: name.to_owned(),
            f: Arc::new(f),
        }
    }
}

impl Strategy for FnStrategy {
    fn next_move(&self, log: &Log) -> StrategyMove {
        (self.f)(log)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for FnStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnStrategy")
            .field("name", &self.name)
            .finish()
    }
}

/// The always-idle player: emits no events, forever. Used for environment
/// participants that never act.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleStrategy;

impl Strategy for IdleStrategy {
    fn next_move(&self, _log: &Log) -> StrategyMove {
        StrategyMove::idle()
    }

    fn name(&self) -> &str {
        "idle"
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // The empty alphabet: vacuously independent of every other player.
        Some(Vec::new())
    }
}

/// A player that replays a fixed script of event batches: on its `k`-th
/// scheduled turn it emits the `k`-th batch, then idles forever. The turn
/// index is recovered from the log by counting scheduling events that
/// target the player — keeping the strategy a pure function of the log.
#[derive(Debug, Clone)]
pub struct ScriptPlayer {
    pid: Pid,
    script: Vec<Vec<Event>>,
}

impl ScriptPlayer {
    /// Creates a scripted player for participant `pid`.
    pub fn new(pid: Pid, script: Vec<Vec<Event>>) -> Self {
        Self { pid, script }
    }

    fn turn_index(&self, log: &Log) -> usize {
        log.iter()
            .filter(|e| matches!(e.kind, EventKind::HwSched(p) if p == self.pid))
            .count()
            .saturating_sub(1)
    }
}

impl Strategy for ScriptPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        match self.script.get(self.turn_index(log)) {
            Some(batch) => StrategyMove::Emit(batch.clone()),
            None => StrategyMove::idle(),
        }
    }

    fn name(&self) -> &str {
        "script-player"
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        // A scripted player's alphabet is exactly the kinds in its script.
        Some(
            self.script
                .iter()
                .flatten()
                .map(|e| e.kind.clone())
                .collect(),
        )
    }
}

/// An environment player that works on a *private* scratch location: on
/// each scheduled turn it pulls the location and pushes an incremented
/// counter back, forever. Its events are plain memory events on a single
/// location (not lock-ordered), so two scratch players on distinct
/// locations are fully independent — they exist to give the partial-order
/// reduction something to prune, both in benchmarks and in tests.
#[derive(Debug, Clone)]
pub struct ScratchPlayer {
    pid: Pid,
    loc: crate::id::Loc,
}

impl ScratchPlayer {
    /// Creates a scratch player for participant `pid` working on `loc`.
    pub fn new(pid: Pid, loc: crate::id::Loc) -> Self {
        Self { pid, loc }
    }
}

impl Strategy for ScratchPlayer {
    fn next_move(&self, log: &Log) -> StrategyMove {
        // The turn index doubles as the counter value — a pure function of
        // the log, as the strategy contract requires.
        let k = log.count_by(self.pid) / 2;
        StrategyMove::Emit(vec![
            Event::new(self.pid, EventKind::Pull(self.loc)),
            Event::new(self.pid, EventKind::Push(self.loc, Val::Int(k as i64))),
        ])
    }

    fn name(&self) -> &str {
        "scratch-player"
    }

    fn may_emit(&self) -> Option<Vec<EventKind>> {
        Some(vec![
            EventKind::Pull(self.loc),
            EventKind::Push(self.loc, Val::Int(0)),
        ])
    }
}

/// A fair round-robin scheduler over a fixed domain: the `k`-th scheduling
/// event targets `domain[k mod n]`.
#[derive(Debug, Clone)]
pub struct RoundRobinScheduler {
    domain: Vec<Pid>,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler over the given participants.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is empty.
    pub fn new(domain: Vec<Pid>) -> Self {
        assert!(!domain.is_empty(), "scheduler domain must be non-empty");
        Self { domain }
    }

    /// Round-robin over `D = {0, .., n-1}`.
    pub fn over_domain(n: u32) -> Self {
        Self::new((0..n).map(Pid).collect())
    }
}

impl Strategy for RoundRobinScheduler {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let k = log.sched_count();
        let target = self.domain[k % self.domain.len()];
        StrategyMove::Emit(vec![Event::sched(target)])
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// A scheduler that first plays a fixed script of targets, then falls back
/// to round-robin over the domain (so that it stays fair, as the rely
/// conditions require of hardware schedulers, §4.1).
///
/// This is how the §2 walkthrough schedule "1, 2, 2, 1, 1, 2, 1, 2, 1, 1,
/// 2, 2" is expressed.
#[derive(Debug, Clone)]
pub struct ScriptScheduler {
    script: Vec<Pid>,
    fallback: RoundRobinScheduler,
}

impl ScriptScheduler {
    /// Creates a scripted scheduler with a round-robin fallback over
    /// `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is empty.
    pub fn new(script: Vec<Pid>, domain: Vec<Pid>) -> Self {
        Self {
            script,
            fallback: RoundRobinScheduler::new(domain),
        }
    }
}

impl Strategy for ScriptScheduler {
    fn next_move(&self, log: &Log) -> StrategyMove {
        let k = log.sched_count();
        match self.script.get(k) {
            Some(target) => StrategyMove::Emit(vec![Event::sched(*target)]),
            None => self.fallback.next_move(log),
        }
    }

    fn name(&self) -> &str {
        "script-scheduler"
    }
}

/// Checks the fairness of the scheduling events in `log`: every participant
/// of `domain` is scheduled at least once in every window of `bound`
/// scheduling events. This is the rely condition `R_hs` — "the scheduler
/// strategy φ′hs must be fair", "any CPU can be scheduled within m steps"
/// (§2, §4.1).
pub fn is_fair_schedule(log: &Log, domain: &[Pid], bound: usize) -> bool {
    let scheds: Vec<Pid> = log
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::HwSched(p) => Some(p),
            _ => None,
        })
        .collect();
    if scheds.len() < bound {
        return true;
    }
    for w in scheds.windows(bound) {
        for p in domain {
            if !w.contains(p) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_domain() {
        let sched = RoundRobinScheduler::over_domain(3);
        let mut log = Log::new();
        for expect in [0, 1, 2, 0, 1] {
            match sched.next_move(&log) {
                StrategyMove::Emit(evs) => {
                    assert_eq!(evs, vec![Event::sched(Pid(expect))]);
                    log.append_all(evs);
                }
                other => panic!("unexpected move {other:?}"),
            }
        }
    }

    #[test]
    fn script_scheduler_plays_script_then_round_robin() {
        let sched = ScriptScheduler::new(vec![Pid(1), Pid(1)], vec![Pid(0), Pid(1)]);
        let mut log = Log::new();
        let mut targets = Vec::new();
        for _ in 0..4 {
            if let StrategyMove::Emit(evs) = sched.next_move(&log) {
                targets.push(evs[0].pid);
                log.append_all(evs);
            }
        }
        assert_eq!(targets, vec![Pid(1), Pid(1), Pid(0), Pid(1)]);
    }

    #[test]
    fn script_player_follows_turn_count() {
        let p = ScriptPlayer::new(
            Pid(2),
            vec![
                vec![Event::prim(Pid(2), "a", vec![])],
                vec![Event::prim(Pid(2), "b", vec![])],
            ],
        );
        let mut log = Log::new();
        log.append(Event::sched(Pid(2)));
        let m1 = p.next_move(&log);
        assert_eq!(
            m1,
            StrategyMove::Emit(vec![Event::prim(Pid(2), "a", vec![])])
        );
        if let StrategyMove::Emit(evs) = m1 {
            log.append_all(evs);
        }
        log.append(Event::sched(Pid(2)));
        assert_eq!(
            p.next_move(&log),
            StrategyMove::Emit(vec![Event::prim(Pid(2), "b", vec![])])
        );
        log.append(Event::sched(Pid(2)));
        log.append(Event::sched(Pid(2)));
        assert_eq!(p.next_move(&log), StrategyMove::idle());
    }

    #[test]
    fn idle_strategy_never_moves() {
        let log = Log::new();
        assert_eq!(IdleStrategy.next_move(&log), StrategyMove::idle());
    }

    #[test]
    fn fairness_detects_starvation() {
        let mut log = Log::new();
        for _ in 0..6 {
            log.append(Event::sched(Pid(0)));
        }
        assert!(!is_fair_schedule(&log, &[Pid(0), Pid(1)], 3));
        let mut fair = Log::new();
        for i in 0..6 {
            fair.append(Event::sched(Pid(i % 2)));
        }
        assert!(is_fair_schedule(&fair, &[Pid(0), Pid(1)], 3));
    }

    #[test]
    fn short_logs_are_vacuously_fair() {
        let log = Log::from_events([Event::sched(Pid(0))]);
        assert!(is_fair_schedule(&log, &[Pid(0), Pid(1)], 5));
    }
}
