//! Replay functions: reconstructing shared state from the global log.
//!
//! "Such functions that reconstruct the current shared state from the log
//! are called *replay functions*" (§2). A replay function folds over the
//! log; an impossible transition (e.g. pulling a location that is not free,
//! Fig. 8) makes replay — and hence the machine — *stuck*, which is how the
//! model detects data races and protocol violations.
//!
//! This module provides the replay functions shared by the whole toolkit:
//!
//! * [`replay_shared`] — `R_shared` of Fig. 8: value + ownership status of a
//!   shared memory location under the push/pull discipline;
//! * [`replay_ticket`] — `R_ticket` of §4.1: the ticket-lock state computed
//!   from `FAI_t`/`inc_n` events;
//! * [`replay_atomic_lock`] — holder of an *atomic* lock (the lifted `acq`/
//!   `rel` events of `L1`, §2);
//! * [`replay_atomic_queue`] — contents of an atomic shared queue (§4.2).
//!
//! Object-specific replay functions (MCS lock, scheduler, queuing lock,
//! condition variables, IPC) live in `ccal-objects` next to their layers.

use std::fmt;

use crate::event::{Event, EventKind};
use crate::id::{Loc, Pid};
use crate::log::Log;
use crate::val::Val;

/// Error raised when a log cannot be replayed: some event is impossible in
/// the state reconstructed from its prefix. In the paper this is the replay
/// function returning `None`, i.e. the machine "gets stuck" (Fig. 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the offending event in the log.
    pub at: usize,
    /// Rendering of the offending event.
    pub event: String,
    /// Why the event is impossible here.
    pub reason: String,
}

impl ReplayError {
    /// Creates a replay error for event index `at`.
    pub fn new(at: usize, event: &Event, reason: impl Into<String>) -> Self {
        Self {
            at,
            event: event.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay stuck at event #{} ({}): {}",
            self.at, self.event, self.reason
        )
    }
}

impl std::error::Error for ReplayError {}

/// Ownership status of a shared memory location (Fig. 6: `free` or
/// `own c`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ownership {
    /// No participant owns the location; it may be pulled.
    #[default]
    Free,
    /// The location is owned by the given participant, which may access and
    /// push it.
    Owned(Pid),
}

/// The state of one shared location under the push/pull memory model:
/// its current (last pushed) value and its ownership status.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SharedCell {
    /// Last value pushed to the location; `Val::Undef` initially (Fig. 8
    /// line 3).
    pub value: Val,
    /// Current ownership.
    pub owner: Ownership,
}

/// `R_shared` (Fig. 8): replays the push/pull events for location `b`,
/// returning its value and ownership status.
///
/// # Errors
///
/// Returns [`ReplayError`] — the machine is stuck — if some participant
/// pulls a non-free location or pushes a location it does not own. "If a
/// program tries to pull a not-free location, or tries to access or push to
/// a location not owned by the current CPU, a data race may occur and the
/// machine gets stuck" (§3.1).
///
/// # Examples
///
/// ```
/// use ccal_core::event::{Event, EventKind};
/// use ccal_core::id::{Loc, Pid};
/// use ccal_core::log::Log;
/// use ccal_core::replay::{replay_shared, Ownership};
/// use ccal_core::val::Val;
///
/// let log = Log::from_events([
///     Event::new(Pid(0), EventKind::Pull(Loc(1))),
///     Event::new(Pid(0), EventKind::Push(Loc(1), Val::Int(7))),
/// ]);
/// let cell = replay_shared(&log, Loc(1))?;
/// assert_eq!(cell.value, Val::Int(7));
/// assert_eq!(cell.owner, Ownership::Free);
/// # Ok::<(), ccal_core::replay::ReplayError>(())
/// ```
pub fn replay_shared(log: &Log, b: Loc) -> Result<SharedCell, ReplayError> {
    let mut cell = SharedCell::default();
    for (at, e) in log.iter().enumerate() {
        match &e.kind {
            EventKind::Pull(loc) if *loc == b => match cell.owner {
                Ownership::Free => cell.owner = Ownership::Owned(e.pid),
                Ownership::Owned(_) => {
                    return Err(ReplayError::new(at, e, "pull of a non-free location"));
                }
            },
            EventKind::Push(loc, v) if *loc == b => match cell.owner {
                Ownership::Owned(owner) if owner == e.pid => {
                    cell.value = v.clone();
                    cell.owner = Ownership::Free;
                }
                _ => {
                    return Err(ReplayError::new(at, e, "push of a location not owned"));
                }
            },
            _ => {}
        }
    }
    Ok(cell)
}

/// The abstract ticket-lock state at a location: the "next ticket" counter
/// `t` and the "now serving" counter `n` (§2, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TicketState {
    /// Next ticket to hand out: number of `FAI_t` events so far.
    pub next: u64,
    /// Now-serving counter: number of `inc_n` events so far.
    pub serving: u64,
}

impl TicketState {
    /// Whether the lock is currently free (every handed-out ticket has been
    /// served).
    pub fn is_free(&self) -> bool {
        self.next == self.serving
    }
}

/// `R_ticket` (§4.1): counts `FAI_t` and `inc_n` events for the lock at
/// `b`. Never stuck — the hardware fetch-and-increment primitives are total.
pub fn replay_ticket(log: &Log, b: Loc) -> TicketState {
    let mut st = TicketState::default();
    for e in log.iter() {
        match e.kind {
            EventKind::FaiT(loc) if loc == b => st.next += 1,
            EventKind::IncN(loc) if loc == b => st.serving += 1,
            _ => {}
        }
    }
    st
}

/// The ticket obtained by `pid`'s most recent `FAI_t(b)` event: the number
/// of `FAI_t(b)` events strictly before it. `None` if `pid` has not fetched
/// a ticket. This is the "ticket number `t` calculated by a function that
/// counts the fetch-and-increment events in `l`" (§2).
pub fn my_ticket(log: &Log, b: Loc, pid: Pid) -> Option<u64> {
    let mut count = 0_u64;
    let mut mine = None;
    for e in log.iter() {
        if let EventKind::FaiT(loc) = e.kind {
            if loc == b {
                if e.pid == pid {
                    mine = Some(count);
                }
                count += 1;
            }
        }
    }
    mine
}

/// `R_lock`: replays the *atomic* lock events `acq`/`rel` of a lifted
/// interface (§2's `L1`), returning the current holder.
///
/// # Errors
///
/// Stuck if a participant acquires a held lock or releases a lock it does
/// not hold — these are protocol violations the lifted interface rules out.
pub fn replay_atomic_lock(log: &Log, b: Loc) -> Result<Option<Pid>, ReplayError> {
    let mut holder: Option<Pid> = None;
    for (at, e) in log.iter().enumerate() {
        match e.kind {
            EventKind::Acq(loc) | EventKind::AcqQ(loc) if loc == b => {
                if holder.is_some() {
                    return Err(ReplayError::new(at, e, "acquire of a held lock"));
                }
                holder = Some(e.pid);
            }
            EventKind::Rel(loc) | EventKind::RelQ(loc) if loc == b => {
                if holder != Some(e.pid) {
                    return Err(ReplayError::new(at, e, "release by a non-holder"));
                }
                holder = None;
            }
            _ => {}
        }
    }
    Ok(holder)
}

/// Replays atomic shared-queue events (§4.2), returning the queue contents
/// (front first). A `deQ` of an empty queue is *not* stuck: the paper's
/// `σ_deQ_t` returns `-1` for an empty queue.
pub fn replay_atomic_queue(log: &Log, q: crate::id::QId) -> Vec<Val> {
    replay_queue_events(log.iter(), q)
}

/// Event-stream worker for [`replay_atomic_queue`], so prefix replays (e.g.
/// [`deq_result`]) can fold over a truncated iterator without materializing
/// a prefix `Log`.
fn replay_queue_events<'a>(events: impl Iterator<Item = &'a Event>, q: crate::id::QId) -> Vec<Val> {
    let mut items: Vec<Val> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::EnQ(qid, v) if *qid == q => items.push(v.clone()),
            EventKind::DeQ(qid) if *qid == q && !items.is_empty() => {
                items.remove(0);
            }
            _ => {}
        }
    }
    items
}

/// The value returned by the `deQ` event at log index `at` (the element at
/// the front of the queue just before it), or `Val::Int(-1)` if the queue
/// was empty — matching `σ_deQ_t` (§4.2).
///
/// # Panics
///
/// Panics if `at` is out of bounds or the event at `at` is not a `DeQ`.
pub fn deq_result(log: &Log, at: usize) -> Val {
    let e = &log[at];
    let q = match e.kind {
        EventKind::DeQ(q) => q,
        _ => panic!("deq_result called on non-deQ event {e}"),
    };
    let items = replay_queue_events(log.iter().take(at), q);
    items.into_iter().next().unwrap_or(Val::Int(-1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::QId;

    fn ev(pid: u32, kind: EventKind) -> Event {
        Event::new(Pid(pid), kind)
    }

    #[test]
    fn shared_replay_tracks_value_and_ownership() {
        let log = Log::from_events([
            ev(0, EventKind::Pull(Loc(1))),
            ev(0, EventKind::Push(Loc(1), Val::Int(5))),
            ev(1, EventKind::Pull(Loc(1))),
        ]);
        let cell = replay_shared(&log, Loc(1)).unwrap();
        assert_eq!(cell.value, Val::Int(5));
        assert_eq!(cell.owner, Ownership::Owned(Pid(1)));
    }

    #[test]
    fn racy_pull_gets_stuck() {
        let log = Log::from_events([
            ev(0, EventKind::Pull(Loc(1))),
            ev(1, EventKind::Pull(Loc(1))),
        ]);
        let err = replay_shared(&log, Loc(1)).unwrap_err();
        assert_eq!(err.at, 1);
        assert!(err.reason.contains("non-free"));
    }

    #[test]
    fn push_without_ownership_gets_stuck() {
        let log = Log::from_events([ev(0, EventKind::Push(Loc(1), Val::Int(1)))]);
        assert!(replay_shared(&log, Loc(1)).is_err());
    }

    #[test]
    fn push_by_wrong_owner_gets_stuck() {
        let log = Log::from_events([
            ev(0, EventKind::Pull(Loc(1))),
            ev(1, EventKind::Push(Loc(1), Val::Int(1))),
        ]);
        assert!(replay_shared(&log, Loc(1)).is_err());
    }

    #[test]
    fn other_locations_do_not_interfere() {
        let log = Log::from_events([
            ev(0, EventKind::Pull(Loc(1))),
            ev(1, EventKind::Pull(Loc(2))),
        ]);
        assert!(replay_shared(&log, Loc(1)).is_ok());
        assert!(replay_shared(&log, Loc(2)).is_ok());
    }

    #[test]
    fn ticket_replay_counts_events() {
        let b = Loc(0);
        let log = Log::from_events([
            ev(1, EventKind::FaiT(b)),
            ev(2, EventKind::FaiT(b)),
            ev(1, EventKind::IncN(b)),
        ]);
        let st = replay_ticket(&log, b);
        assert_eq!(
            st,
            TicketState {
                next: 2,
                serving: 1
            }
        );
        assert!(!st.is_free());
    }

    #[test]
    fn my_ticket_is_fai_position() {
        let b = Loc(0);
        let log = Log::from_events([ev(1, EventKind::FaiT(b)), ev(2, EventKind::FaiT(b))]);
        assert_eq!(my_ticket(&log, b, Pid(1)), Some(0));
        assert_eq!(my_ticket(&log, b, Pid(2)), Some(1));
        assert_eq!(my_ticket(&log, b, Pid(3)), None);
    }

    #[test]
    fn atomic_lock_replay_tracks_holder() {
        let b = Loc(0);
        let log = Log::from_events([ev(1, EventKind::Acq(b))]);
        assert_eq!(replay_atomic_lock(&log, b).unwrap(), Some(Pid(1)));
        let log = Log::from_events([ev(1, EventKind::Acq(b)), ev(1, EventKind::Rel(b))]);
        assert_eq!(replay_atomic_lock(&log, b).unwrap(), None);
    }

    #[test]
    fn atomic_lock_replay_rejects_double_acquire_and_foreign_release() {
        let b = Loc(0);
        let log = Log::from_events([ev(1, EventKind::Acq(b)), ev(2, EventKind::Acq(b))]);
        assert!(replay_atomic_lock(&log, b).is_err());
        let log = Log::from_events([ev(1, EventKind::Acq(b)), ev(2, EventKind::Rel(b))]);
        assert!(replay_atomic_lock(&log, b).is_err());
    }

    #[test]
    fn queue_replay_is_fifo() {
        let q = QId(0);
        let log = Log::from_events([
            ev(1, EventKind::EnQ(q, Val::Int(10))),
            ev(2, EventKind::EnQ(q, Val::Int(20))),
            ev(1, EventKind::DeQ(q)),
        ]);
        assert_eq!(replay_atomic_queue(&log, q), vec![Val::Int(20)]);
        assert_eq!(deq_result(&log, 2), Val::Int(10));
    }

    #[test]
    fn deq_of_empty_queue_returns_minus_one() {
        let q = QId(0);
        let log = Log::from_events([ev(1, EventKind::DeQ(q))]);
        assert_eq!(replay_atomic_queue(&log, q), Vec::<Val>::new());
        assert_eq!(deq_result(&log, 0), Val::Int(-1));
    }
}
