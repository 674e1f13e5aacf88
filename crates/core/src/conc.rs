//! The multi-participant game machine.
//!
//! The layer machine over `L[A]` with several focused participants "will
//! run `P` when the control is transferred to any member of `A`, but will
//! ask `E` for the next move when the control is transferred to the
//! environment" (§2). [`ConcurrentMachine`] implements that game: each
//! focused participant runs a program (a sequence of primitive calls); the
//! scheduler strategy decides whose in-flight [`PrimRun`] advances to its
//! next query point; environment participants contribute their strategies'
//! events.
//!
//! Interleaving granularity follows §3.2 exactly: instructions and private
//! primitives are silent and uninterruptible; control can change hands only
//! at *query points*, i.e. just before shared primitives — and not even
//! there while the participant is in the critical state (§2).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::abs::AbsState;
use crate::env::EnvContext;
use crate::event::EventKind;
use crate::id::{Pid, PidSet};
use crate::layer::{LayerInterface, PrimCtx, PrimRun, PrimStep};
use crate::log::Log;
use crate::machine::MachineError;
use crate::strategy::StrategyMove;
use crate::val::Val;

/// A straight-line program for one focused participant: a sequence of
/// primitive calls. This matches the client programs of the paper's
/// walkthrough (Fig. 3: `T1() { foo(); }`).
pub type ThreadScript = Vec<(String, Vec<Val>)>;

/// The result of running a multi-participant game to completion.
#[derive(Debug, Clone)]
pub struct ConcurrentOutcome {
    /// The final global log.
    pub log: Log,
    /// The final abstract state.
    pub abs: AbsState,
    /// Return values of each participant's calls, in program order.
    pub rets: BTreeMap<Pid, Vec<Val>>,
    /// Number of scheduler decisions taken.
    pub turns: u64,
}

struct Player {
    /// `Arc`-shared: scripts are immutable once the game starts, so
    /// query-point snapshot forks ([`GameState::fork`]) bump a refcount
    /// per player instead of deep-cloning every script.
    script: Arc<ThreadScript>,
    next_call: usize,
    run: Option<Box<dyn PrimRun>>,
    rets: Vec<Val>,
    done: bool,
}

impl Player {
    fn fork(&self) -> Option<Player> {
        let run = match &self.run {
            Some(r) => Some(r.fork_run()?),
            None => None,
        };
        Some(Player {
            script: Arc::clone(&self.script),
            next_call: self.next_call,
            run,
            rets: self.rets.clone(),
            done: self.done,
        })
    }
}

/// The complete mutable state of an in-flight game: every focused
/// player's script position, accumulated returns and in-flight
/// [`PrimRun`], the abstract state, the global log, and the turn/stall
/// accounting. A [`GameState`] plus a [`ConcurrentMachine`] (interface,
/// environment, fuel) determine the rest of the run — which is what makes
/// a forked state a valid snapshot for the query-point trie
/// ([`crate::prefix::SnapshotTrie`]): each turn consumes exactly one
/// schedule slot, so a state at turn `k` can resume under any context
/// agreeing on the first `k` slots.
pub struct GameState {
    players: BTreeMap<Pid, Player>,
    abs: AbsState,
    log: Log,
    turns: u64,
    last_progress: (usize, usize, usize),
    stalled_for: u64,
}

impl GameState {
    /// Schedule slots consumed so far — exactly one scheduler decision is
    /// taken per turn.
    pub fn sched_consumed(&self) -> usize {
        usize::try_from(self.turns).unwrap_or(usize::MAX)
    }

    /// Whether every focused player has finished its script.
    pub fn all_done(&self) -> bool {
        self.players.values().all(|p| p.done)
    }

    /// Events in the global log so far — the work proxy the checkers'
    /// prefix-sharing accounting uses when resuming from a snapshot.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Forks the state for resumption under another environment context
    /// that agrees on the consumed schedule prefix. Returns `None` when
    /// any in-flight run does not support [`PrimRun::fork_run`].
    pub fn fork(&self) -> Option<GameState> {
        let mut players = BTreeMap::new();
        for (pid, p) in &self.players {
            players.insert(*pid, p.fork()?);
        }
        Some(GameState {
            players,
            abs: self.abs.clone(),
            log: self.log.clone(),
            turns: self.turns,
            last_progress: self.last_progress,
            stalled_for: self.stalled_for,
        })
    }

    fn into_outcome(self) -> ConcurrentOutcome {
        ConcurrentOutcome {
            log: self.log,
            abs: self.abs,
            rets: self
                .players
                .into_iter()
                .map(|(p, st)| (p, st.rets))
                .collect(),
            turns: self.turns,
        }
    }
}

impl fmt::Debug for GameState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GameState")
            .field("turns", &self.turns)
            .field("log_len", &self.log.len())
            .finish()
    }
}

/// A whole game state is directly a query-point snapshot — the adapter the
/// game-based checkers (liveness, linearizability, race freedom) hand to
/// the exploration kernel, replacing the per-checker newtype wrappers they
/// used to carry.
impl crate::prefix::ForkSnapshot for GameState {
    fn fork(&self) -> Option<Self> {
        GameState::fork(self)
    }
}

/// The machine for a focused set `A` over an interface `L`, with an
/// environment context for the scheduler and all non-focused participants.
pub struct ConcurrentMachine {
    iface: LayerInterface,
    focused: PidSet,
    env: EnvContext,
    fuel: u64,
}

impl ConcurrentMachine {
    /// Default scheduler-decision budget.
    pub const DEFAULT_FUEL: u64 = 200_000;

    /// Creates a game machine over `iface` focused on `focused`, with
    /// environment context `env` (scheduler + strategies of participants
    /// outside `focused`).
    pub fn new(iface: LayerInterface, focused: PidSet, env: EnvContext) -> Self {
        Self {
            iface,
            focused,
            env,
            fuel: Self::DEFAULT_FUEL,
        }
    }

    /// Overrides the turn budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs the game: every focused participant executes its script to
    /// completion under the environment context's schedule.
    ///
    /// # Errors
    ///
    /// * [`MachineError::Stuck`] and friends if any participant's run
    ///   fails;
    /// * [`MachineError::GuaranteeViolated`] if a focused step breaks the
    ///   guarantee;
    /// * [`MachineError::RelyViolated`] / unfair [`MachineError::Env`] when
    ///   the context is invalid (callers treat these as vacuous);
    /// * [`MachineError::OutOfFuel`] if the game does not finish within the
    ///   turn budget (livelock / starvation).
    pub fn run(
        &self,
        programs: &BTreeMap<Pid, ThreadScript>,
    ) -> Result<ConcurrentOutcome, MachineError> {
        self.run_traced(programs).0
    }

    /// [`ConcurrentMachine::run`], additionally returning the global log as
    /// it stood when the run ended — including on *failure*, where
    /// [`MachineError`] alone carries no events. The failure-forensics
    /// pipeline reifies this partial log into a replayable scripted
    /// context. On success the returned log equals the outcome's (the log
    /// is copy-on-write, so the extra clone is a reference-count bump).
    pub fn run_traced(
        &self,
        programs: &BTreeMap<Pid, ThreadScript>,
    ) -> (Result<ConcurrentOutcome, MachineError>, Log) {
        self.run_traced_with_snapshots(programs, &mut |_| {})
    }

    /// [`ConcurrentMachine::run_traced`] with a snapshot hook invoked just
    /// *before* every scheduler decision — the cut points of the
    /// query-point snapshot trie. At hook time the state has consumed
    /// exactly [`GameState::sched_consumed`] schedule slots.
    pub fn run_traced_with_snapshots(
        &self,
        programs: &BTreeMap<Pid, ThreadScript>,
        hook: &mut dyn FnMut(&GameState),
    ) -> (Result<ConcurrentOutcome, MachineError>, Log) {
        self.run_traced_from(self.init_state(programs), hook)
    }

    /// Drives a [`GameState`] — fresh from
    /// [`ConcurrentMachine::init_state`] or forked from a snapshot — to
    /// completion, with the same snapshot hook as
    /// [`ConcurrentMachine::run_traced_with_snapshots`]. A forked state
    /// must be resumed on a machine whose environment context agrees with
    /// the snapshot's on the schedule prefix already consumed.
    pub fn run_traced_from(
        &self,
        mut st: GameState,
        hook: &mut dyn FnMut(&GameState),
    ) -> (Result<ConcurrentOutcome, MachineError>, Log) {
        while !st.all_done() {
            hook(&st);
            if let Err(e) = self.step_turn(&mut st) {
                return (Err(e), st.log);
            }
        }
        let log = st.log.clone();
        (Ok(st.into_outcome()), log)
    }

    /// Initializes the game state for a program assignment.
    ///
    /// # Panics
    ///
    /// If a program is given for a participant outside the focused set.
    pub fn init_state(&self, programs: &BTreeMap<Pid, ThreadScript>) -> GameState {
        for pid in programs.keys() {
            assert!(
                self.focused.contains(*pid),
                "program given for non-focused participant {pid}"
            );
        }
        let players: BTreeMap<Pid, Player> = self
            .focused
            .iter()
            .map(|pid| {
                let script = Arc::new(programs.get(&pid).cloned().unwrap_or_default());
                let done = script.is_empty();
                (
                    pid,
                    Player {
                        script,
                        next_call: 0,
                        run: None,
                        rets: Vec::new(),
                        done,
                    },
                )
            })
            .collect();
        GameState {
            players,
            abs: self.iface.init_abs.clone(),
            log: Log::new(),
            turns: 0,
            last_progress: (0, 0, 0),
            stalled_for: 0,
        }
    }

    /// Takes one turn: one scheduler decision, then either an environment
    /// player's move or a focused player's advance to its next query
    /// point. Callers must check [`GameState::all_done`] first.
    ///
    /// Stall detection: if no observable progress (non-scheduling events,
    /// completed calls, finished players) happens for `64 * (|A| + 4)`
    /// consecutive turns, the game is livelocked — report starvation early
    /// instead of burning the whole budget on scheduling events. The stall
    /// counters live in the [`GameState`] so a forked snapshot resumes
    /// with *identical* stall behavior.
    ///
    /// # Errors
    ///
    /// See [`ConcurrentMachine::run`].
    pub fn step_turn(&self, st: &mut GameState) -> Result<(), MachineError> {
        if st.turns >= self.fuel {
            return Err(MachineError::OutOfFuel { budget: self.fuel });
        }
        let stall_limit: u64 = 64 * (self.focused.len() as u64 + 4);
        let progress = (
            st.log.iter().filter(|e| !e.is_sched()).count(),
            st.players.values().map(|p| p.rets.len()).sum::<usize>(),
            st.players.values().filter(|p| p.done).count(),
        );
        if progress == st.last_progress {
            st.stalled_for += 1;
            if st.stalled_for > stall_limit {
                return Err(MachineError::OutOfFuel { budget: self.fuel });
            }
        } else {
            st.last_progress = progress;
            st.stalled_for = 0;
        }
        st.turns += 1;
        // One scheduler decision.
        let target = self.schedule_one(&mut st.log)?;
        if !self.focused.contains(target) {
            // Environment participant: play its strategy move.
            match self.env.player(target).next_move(&st.log) {
                StrategyMove::Emit(evs) => st.log.append_all(evs),
                StrategyMove::Finish(_) => {}
                StrategyMove::Stuck => {
                    return Err(MachineError::Env(crate::env::EnvError::PlayerStuck {
                        pid: target,
                        log_len: st.log.len(),
                    }));
                }
            }
            return self.check_rely(&st.log);
        }
        // Focused participant: advance to its next query point.
        let player = st.players.get_mut(&target).expect("focused player exists");
        self.advance_player(target, player, &mut st.log, &mut st.abs)?;
        self.check_guarantee(target, &st.log)
    }

    /// Asks the scheduler strategy for exactly one scheduling event.
    fn schedule_one(&self, log: &mut Log) -> Result<Pid, MachineError> {
        match self.env.scheduler().next_move(log) {
            StrategyMove::Emit(evs) => match evs.as_slice() {
                [e] => {
                    if let EventKind::HwSched(p) = e.kind {
                        log.append(e.clone());
                        Ok(p)
                    } else {
                        Err(MachineError::Env(crate::env::EnvError::SchedulerStuck {
                            log_len: log.len(),
                        }))
                    }
                }
                _ => Err(MachineError::Env(crate::env::EnvError::SchedulerStuck {
                    log_len: log.len(),
                })),
            },
            _ => Err(MachineError::Env(crate::env::EnvError::SchedulerStuck {
                log_len: log.len(),
            })),
        }
    }

    /// Advances one focused participant until it reaches a real query
    /// point (outside the critical state), finishes its script, or errs.
    fn advance_player(
        &self,
        pid: Pid,
        player: &mut Player,
        log: &mut Log,
        abs: &mut AbsState,
    ) -> Result<(), MachineError> {
        let mut inner_fuel = self.fuel;
        loop {
            if inner_fuel == 0 {
                return Err(MachineError::OutOfFuel { budget: self.fuel });
            }
            inner_fuel -= 1;
            if player.run.is_none() {
                match player.script.get(player.next_call) {
                    Some((name, args)) => {
                        let run = self.iface.prim(name)?.instantiate(pid, args.clone());
                        player.run = Some(run);
                        player.next_call += 1;
                    }
                    None => {
                        player.done = true;
                        return Ok(());
                    }
                }
            }
            let step = {
                let run = player.run.as_mut().expect("active run");
                let mut ctx = PrimCtx {
                    pid,
                    abs,
                    log,
                    iface: &self.iface,
                };
                run.resume(&mut ctx)?
            };
            match step {
                PrimStep::Done(v) => {
                    player.rets.push(v);
                    player.run = None;
                    // Loop: the next call starts within this turn; if it is
                    // a shared primitive it will immediately hit its query
                    // point and yield the turn.
                }
                PrimStep::Query => {
                    // In the critical state the machine does not query and
                    // keeps control (§2); otherwise the turn ends here.
                    if !self.iface.is_critical(pid, log) {
                        return Ok(());
                    }
                }
            }
        }
    }

    fn check_rely(&self, log: &Log) -> Result<(), MachineError> {
        for pid in self.focused.iter() {
            if let Some(inv) = self.iface.conditions.rely.first_violation(pid, log) {
                return Err(MachineError::RelyViolated {
                    invariant: inv.name().to_owned(),
                    pid,
                });
            }
        }
        Ok(())
    }

    fn check_guarantee(&self, pid: Pid, log: &Log) -> Result<(), MachineError> {
        if let Some(inv) = self.iface.conditions.guarantee.first_violation(pid, log) {
            return Err(MachineError::GuaranteeViolated {
                invariant: inv.name().to_owned(),
                pid,
                log_len: log.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for ConcurrentMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentMachine")
            .field("iface", &self.iface.name)
            .field("focused", &self.focused.to_string())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::PrimSpec;
    use crate::strategy::RoundRobinScheduler;
    use std::sync::Arc;

    fn counter_iface() -> LayerInterface {
        LayerInterface::builder("L-counter")
            .prim(PrimSpec::atomic("bump", |ctx, _| {
                ctx.emit(EventKind::Prim("bump".into(), vec![]));
                let n = ctx
                    .log
                    .iter()
                    .filter(|e| matches!(&e.kind, EventKind::Prim(p, _) if p == "bump"))
                    .count();
                Ok(Val::Int(n as i64))
            }))
            .build()
    }

    fn two_focused() -> (PidSet, EnvContext) {
        (
            PidSet::from_pids([Pid(0), Pid(1)]),
            EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2))),
        )
    }

    #[test]
    fn interleaves_two_participants() {
        let (focused, env) = two_focused();
        let m = ConcurrentMachine::new(counter_iface(), focused, env);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(0), vec![("bump".to_owned(), vec![]); 2]);
        programs.insert(Pid(1), vec![("bump".to_owned(), vec![]); 2]);
        let out = m.run(&programs).unwrap();
        assert_eq!(out.log.count_by(Pid(0)), 2);
        assert_eq!(out.log.count_by(Pid(1)), 2);
        // Return values observe the global (interleaved) counter: the
        // multiset of all returns is {1, 2, 3, 4}.
        let mut all: Vec<i64> = out
            .rets
            .values()
            .flatten()
            .map(|v| v.as_int().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn round_robin_alternates_bumps() {
        let (focused, env) = two_focused();
        let m = ConcurrentMachine::new(counter_iface(), focused, env);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(0), vec![("bump".to_owned(), vec![]); 2]);
        programs.insert(Pid(1), vec![("bump".to_owned(), vec![]); 2]);
        let out = m.run(&programs).unwrap();
        let authors: Vec<Pid> = out.log.without_sched().iter().map(|e| e.pid).collect();
        assert_eq!(authors, vec![Pid(0), Pid(1), Pid(0), Pid(1)]);
    }

    #[test]
    fn environment_players_interleave_with_focused() {
        use crate::strategy::ScriptPlayer;
        let focused = PidSet::singleton(Pid(0));
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::over_domain(2))).with_player(
            Pid(1),
            Arc::new(ScriptPlayer::new(
                Pid(1),
                vec![vec![crate::event::Event::prim(Pid(1), "noise", vec![])]],
            )),
        );
        let m = ConcurrentMachine::new(counter_iface(), focused, env);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(0), vec![("bump".to_owned(), vec![])]);
        let out = m.run(&programs).unwrap();
        assert_eq!(out.log.count_by(Pid(1)), 1, "env noise recorded");
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let (focused, env) = two_focused();
        let m = ConcurrentMachine::new(counter_iface(), focused, env);
        let out = m.run(&BTreeMap::new()).unwrap();
        assert!(out.log.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-focused")]
    fn rejects_program_for_unfocused_pid() {
        let (_, env) = two_focused();
        let m = ConcurrentMachine::new(counter_iface(), PidSet::singleton(Pid(0)), env);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(5), vec![("bump".to_owned(), vec![])]);
        let _ = m.run(&programs);
    }

    #[test]
    fn starvation_is_out_of_fuel() {
        // Scheduler that only ever schedules p0, while p1 has work.
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::new(vec![Pid(0)])));
        let m = ConcurrentMachine::new(
            counter_iface(),
            PidSet::from_pids([Pid(0), Pid(1)]),
            env,
        )
        .with_fuel(64);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(1), vec![("bump".to_owned(), vec![])]);
        let err = m.run(&programs).unwrap_err();
        assert!(matches!(err, MachineError::OutOfFuel { .. }));
    }

    #[test]
    fn run_traced_returns_the_partial_log_on_failure() {
        // Same starving setup: the run fails, but the traced log still
        // carries the scheduling events the game played before dying.
        let env = EnvContext::new(Arc::new(RoundRobinScheduler::new(vec![Pid(0)])));
        let m = ConcurrentMachine::new(
            counter_iface(),
            PidSet::from_pids([Pid(0), Pid(1)]),
            env,
        )
        .with_fuel(64);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(1), vec![("bump".to_owned(), vec![])]);
        let (res, log) = m.run_traced(&programs);
        assert!(res.is_err());
        assert!(!log.is_empty(), "the partial log is preserved");
        assert!(log.iter().all(|e| e.pid == Pid(0)));
    }

    #[test]
    fn run_traced_matches_run_on_success() {
        let (focused, env) = two_focused();
        let m = ConcurrentMachine::new(counter_iface(), focused, env);
        let mut programs = BTreeMap::new();
        programs.insert(Pid(0), vec![("bump".to_owned(), vec![]); 2]);
        let (res, log) = m.run_traced(&programs);
        let out = res.unwrap();
        assert_eq!(out.log, log);
    }
}
