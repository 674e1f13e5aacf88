//! Scripted environment contexts — the serializable, shrinkable form of
//! an adversarial environment.
//!
//! A [`ScriptedContext`] is a finite description of an [`EnvContext`]:
//! an explicit schedule prefix (completed by fair round-robin, exactly as
//! [`ScriptScheduler`] does) plus per-player event batches (played in
//! turn order, exactly as [`ScriptPlayer`] does). It is *reified* from a
//! failing run's log ([`ScriptedContext::from_log`]), delta-debugged by
//! [`crate::shrink`], serialized into trace artifacts by
//! [`crate::artifact`], and turned back into a live [`EnvContext`] by
//! [`ScriptedContext::to_env`] for deterministic replay.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::env::EnvContext;
use ccal_core::event::Event;
use ccal_core::id::{Pid, PidSet};
use ccal_core::log::Log;
use ccal_core::strategy::{ScriptPlayer, ScriptScheduler};

use crate::json::Json;
use crate::wire::{self, WireError};

/// A finite, serializable environment context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedContext {
    /// The participant domain (the round-robin fallback order once the
    /// schedule script runs dry).
    pub domain: Vec<Pid>,
    /// The query-process fuel of the reconstructed context.
    pub env_fuel: u64,
    /// The scheduling script: the `i`-th scheduling event targets
    /// `schedule[i]`; beyond the script the scheduler falls back to fair
    /// round-robin over `domain`.
    pub schedule: Vec<Pid>,
    /// Per-player scripts: `players[p][k]` is the event batch participant
    /// `p` plays on its `k`-th turn (empty batch = idle that turn).
    pub players: BTreeMap<Pid, Vec<Vec<Event>>>,
}

impl ScriptedContext {
    /// Builds the live context this script describes.
    pub fn to_env(&self) -> EnvContext {
        let mut env = EnvContext::new(Arc::new(ScriptScheduler::new(
            self.schedule.clone(),
            self.domain.clone(),
        )))
        .with_fuel(self.env_fuel);
        for (pid, batches) in &self.players {
            env = env.with_player(*pid, Arc::new(ScriptPlayer::new(*pid, batches.clone())));
        }
        env
    }

    /// Reifies the environment choices out of a failing run's log: the
    /// schedule is the sequence of scheduling targets, and each
    /// environment participant's events during its own turns become its
    /// scripted batches. Events authored by environment pids *outside*
    /// their own turns (handoff events appended by the machine during a
    /// focused turn) are excluded — the replaying machine re-emits them
    /// itself.
    pub fn from_log(domain: Vec<Pid>, env_fuel: u64, focused: &PidSet, log: &Log) -> Self {
        let mut schedule = Vec::new();
        let mut players: BTreeMap<Pid, Vec<Vec<Event>>> = BTreeMap::new();
        let mut turns: BTreeMap<Pid, usize> = BTreeMap::new();
        let mut current: Option<Pid> = None;
        for e in log.iter() {
            if let ccal_core::event::EventKind::HwSched(target) = e.kind {
                schedule.push(target);
                *turns.entry(target).or_default() += 1;
                current = Some(target);
                // Every environment participant's turn gets a batch slot,
                // so batch index k lines up with the k-th sched to it
                // even when some turns are silent.
                if !focused.contains(target) {
                    players.entry(target).or_default().push(Vec::new());
                }
                continue;
            }
            if focused.contains(e.pid) {
                continue; // the machine re-emits focused events
            }
            if current == Some(e.pid) {
                if let Some(batches) = players.get_mut(&e.pid) {
                    if let Some(batch) = batches.last_mut() {
                        batch.push(e.clone());
                    }
                }
            }
            // else: handoff event during another participant's turn —
            // appended by the machine, not chosen by this player.
        }
        // Players whose every turn was silent add nothing: drop them.
        players.retain(|_, batches| batches.iter().any(|b| !b.is_empty()));
        Self {
            domain,
            env_fuel,
            schedule,
            players,
        }
    }

    /// The size measure shrinking minimizes: schedule slots plus scripted
    /// environment events.
    pub fn steps(&self) -> usize {
        self.schedule.len()
            + self
                .players
                .values()
                .flat_map(|batches| batches.iter())
                .map(Vec::len)
                .sum::<usize>()
    }

    /// Encodes into the artifact's JSON form.
    pub fn encode(&self) -> Json {
        Json::obj([
            (
                "domain",
                Json::Arr(
                    self.domain
                        .iter()
                        .map(|p| Json::Int(i64::from(p.0)))
                        .collect(),
                ),
            ),
            ("env_fuel", Json::Int(self.env_fuel as i64)),
            (
                "schedule",
                Json::Arr(
                    self.schedule
                        .iter()
                        .map(|p| Json::Int(i64::from(p.0)))
                        .collect(),
                ),
            ),
            (
                "players",
                Json::Arr(
                    self.players
                        .iter()
                        .map(|(pid, batches)| {
                            Json::obj([
                                ("pid", Json::Int(i64::from(pid.0))),
                                (
                                    "batches",
                                    Json::Arr(
                                        batches
                                            .iter()
                                            .map(|b| {
                                                Json::Arr(
                                                    b.iter().map(wire::encode_event).collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes from the artifact's JSON form.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches.
    pub fn decode(j: &Json) -> Result<Self, WireError> {
        let pid_arr = |field: &str| -> Result<Vec<Pid>, WireError> {
            j.get(field)
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError(format!("context missing `{field}` array")))?
                .iter()
                .map(|v| {
                    v.as_int()
                        .and_then(|n| u32::try_from(n).ok())
                        .map(Pid)
                        .ok_or_else(|| WireError(format!("bad pid in `{field}`: {v}")))
                })
                .collect()
        };
        let domain = pid_arr("domain")?;
        let schedule = pid_arr("schedule")?;
        let env_fuel = j
            .get("env_fuel")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| WireError("context missing `env_fuel`".into()))?;
        let mut players = BTreeMap::new();
        for pj in j
            .get("players")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError("context missing `players` array".into()))?
        {
            let pid = pj
                .get("pid")
                .and_then(Json::as_int)
                .and_then(|n| u32::try_from(n).ok())
                .map(Pid)
                .ok_or_else(|| WireError(format!("player missing pid: {pj}")))?;
            let batches = pj
                .get("batches")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError(format!("player missing batches: {pj}")))?
                .iter()
                .map(|bj| {
                    bj.as_arr()
                        .ok_or_else(|| WireError(format!("batch is not an array: {bj}")))?
                        .iter()
                        .map(wire::decode_event)
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            players.insert(pid, batches);
        }
        Ok(Self {
            domain,
            env_fuel,
            schedule,
            players,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::event::EventKind;
    use ccal_core::id::Loc;
    use ccal_core::val::Val;

    fn ev(pid: u32, kind: EventKind) -> Event {
        Event::new(Pid(pid), kind)
    }

    #[test]
    fn reifies_schedule_and_player_batches() {
        // p0 focused; p1 plays two events on its first turn, none on its
        // second; a p1-authored handoff event during p0's turn is dropped.
        let log = Log::from_events([
            Event::sched(Pid(1)),
            ev(1, EventKind::Pull(Loc(5))),
            ev(1, EventKind::Push(Loc(5), Val::Int(0))),
            Event::sched(Pid(0)),
            ev(0, EventKind::Prim("op".into(), vec![])),
            ev(1, EventKind::Push(Loc(9), Val::Int(7))), // handoff
            Event::sched(Pid(1)),
            Event::sched(Pid(0)),
        ]);
        let sc =
            ScriptedContext::from_log(vec![Pid(0), Pid(1)], 100, &PidSet::singleton(Pid(0)), &log);
        assert_eq!(sc.schedule, vec![Pid(1), Pid(0), Pid(1), Pid(0)]);
        assert_eq!(
            sc.players[&Pid(1)],
            vec![
                vec![
                    ev(1, EventKind::Pull(Loc(5))),
                    ev(1, EventKind::Push(Loc(5), Val::Int(0))),
                ],
                vec![],
            ]
        );
        assert_eq!(sc.steps(), 4 + 2);
    }

    #[test]
    fn silent_players_are_dropped() {
        let log = Log::from_events([Event::sched(Pid(1)), Event::sched(Pid(0))]);
        let sc =
            ScriptedContext::from_log(vec![Pid(0), Pid(1)], 100, &PidSet::singleton(Pid(0)), &log);
        assert!(sc.players.is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut players = BTreeMap::new();
        players.insert(
            Pid(2),
            vec![vec![ev(2, EventKind::Push(Loc(50), Val::Int(1)))], vec![]],
        );
        let sc = ScriptedContext {
            domain: vec![Pid(0), Pid(1), Pid(2)],
            env_fuel: 10_000,
            schedule: vec![Pid(2), Pid(0)],
            players,
        };
        let text = sc.encode().pretty();
        let back = ScriptedContext::decode(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, sc);
    }

    #[test]
    fn to_env_replays_the_script() {
        // The reconstructed context must drive a query process through
        // the same env events the script records.
        let mut players = BTreeMap::new();
        players.insert(
            Pid(1),
            vec![vec![ev(1, EventKind::Push(Loc(5), Val::Int(3)))]],
        );
        let sc = ScriptedContext {
            domain: vec![Pid(0), Pid(1)],
            env_fuel: 100,
            schedule: vec![Pid(1), Pid(0)],
            players,
        };
        let env = sc.to_env();
        let mut log = Log::new();
        let got = env
            .extend_until_focused(&PidSet::singleton(Pid(0)), &mut log)
            .unwrap();
        assert_eq!(got, Pid(0));
        assert_eq!(
            log.iter()
                .filter(|e| !e.is_sched())
                .cloned()
                .collect::<Vec<_>>(),
            vec![ev(1, EventKind::Push(Loc(5), Val::Int(3)))]
        );
    }
}
