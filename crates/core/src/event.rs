//! Observable events and the global log.
//!
//! Shared-primitive calls are the only observable actions in the paper's
//! model: "each shared primitive call (together with its arguments) is
//! recorded as an observable event appended to the end of the global log"
//! (§2). Hardware scheduling decisions are also recorded (§3.1). All shared
//! state is a *function of the log*, reconstructed by replay functions
//! ([`crate::replay`]).
//!
//! The event vocabulary below covers every layer built by the toolkit
//! (spinlocks, shared queues, schedulers, queuing locks, condition
//! variables, IPC) plus a generic [`EventKind::Prim`] escape hatch for
//! client-defined primitives such as `f`, `g` and `foo` of Fig. 3.
//!
//! A named kind knows its own [`Footprint`]. A `Prim` kind does not: its
//! name says nothing about what it touches, since two objects may each
//! define an `f`. The player that emits a `Prim` event declares its
//! footprint ([`crate::strategy::Strategy::footprints_of_prim`]).

use std::fmt;

use crate::id::{Loc, Pid, QId};
use crate::val::Val;

/// The action recorded by an event, without its author.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A hardware (or software) scheduling transition handing control to
    /// the given participant (§3.1). Recorded by the scheduler strategy
    /// `φ0`, the "judge of the game" (§2).
    HwSched(Pid),
    /// `c.pull(b)`: acquire ownership of shared location `b` (Fig. 6/8).
    Pull(Loc),
    /// `c.push(b, v)`: release ownership of `b`, publishing value `v`
    /// (Fig. 6/8).
    Push(Loc, Val),
    /// `c.FAI_t(b)`: fetch-and-increment the next-ticket field of the
    /// ticket lock at `b` (§2, Fig. 3).
    FaiT(Loc),
    /// `c.get_n(b)`: read the now-serving field of the ticket lock at `b`.
    GetN(Loc),
    /// `c.inc_n(b)`: increment the now-serving field (lock release).
    IncN(Loc),
    /// `c.hold(b)`: the no-op announcing the lock has been taken (§2).
    Hold(Loc),
    /// `c.acq(b)`: the *atomic* lock-acquire event of the lifted interface
    /// `L1` (§2).
    Acq(Loc),
    /// `c.rel(b)`: the atomic lock-release event of `L1`.
    Rel(Loc),
    /// MCS lock: atomically swap the tail pointer of the lock at `b` to the
    /// caller's queue node; the previous tail is recovered by replay.
    McsSwap(Loc),
    /// MCS lock: compare-and-swap the tail from the caller's node to null;
    /// success is recovered by replay.
    McsCasTail(Loc),
    /// MCS lock: link the caller's node as successor of `pred`'s node.
    McsSetNext(Loc, Pid),
    /// MCS lock: read the caller's `locked` flag (spin step).
    McsGetLocked(Loc),
    /// MCS lock: clear the successor's `locked` flag (hand-off).
    McsGrant(Loc, Pid),
    /// Atomic shared-queue enqueue of a value into queue `q` (§4.2).
    EnQ(QId, Val),
    /// Atomic shared-queue dequeue from queue `q` (§4.2); the dequeued
    /// element is recovered by replay.
    DeQ(QId),
    /// `c.yield`: give up the CPU (§5.1).
    Yield,
    /// `c.sleep(i, lk)`: sleep on queue `i` while holding lock `lk`, which
    /// the primitive releases (§5.1).
    Sleep(QId, Loc),
    /// `c.wakeup(i)`: wake the first sleeper of queue `i` (§5.1); the woken
    /// thread (if any) is recovered by replay.
    Wakeup(QId),
    /// Queuing-lock acquire (atomic interface of §5.4).
    AcqQ(Loc),
    /// Queuing-lock release.
    RelQ(Loc),
    /// Condition-variable wait (releases and re-acquires its queuing lock).
    CvWait(QId),
    /// Condition-variable signal.
    CvSignal(QId),
    /// Condition-variable broadcast.
    CvBroadcast(QId),
    /// Synchronous IPC send of a value into channel `q` (§6 lists IPC among
    /// the layers built with the toolkit).
    IpcSend(QId, Val),
    /// Synchronous IPC receive from channel `q`.
    IpcRecv(QId),
    /// A generic named primitive call with its arguments — e.g. `i.f`,
    /// `i.g`, `i.foo` of Fig. 3, or any client-defined atomic object.
    Prim(String, Vec<Val>),
}

/// One shared resource an event may touch. Used by the independence
/// relation of the partial-order reduction ([`crate::por`]): two events
/// can only commute when their footprints are disjoint. A named kind's
/// footprints are [`EventKind::footprints`]; a [`EventKind::Prim`] kind's
/// are declared by the player emitting it
/// ([`crate::strategy::Strategy::footprints_of_prim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Footprint {
    /// A shared memory location.
    Loc(Loc),
    /// A shared queue / channel.
    Queue(QId),
    /// Everything — the event's effect cannot be localized (scheduling
    /// transitions, `yield`, and [`EventKind::Prim`] calls no player has
    /// localized). A global footprint conflicts with every footprint,
    /// including another global one.
    Global,
}

impl Footprint {
    /// Whether two footprints touch a common resource. [`Footprint::Global`]
    /// overlaps everything.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        matches!(self, Footprint::Global) || matches!(other, Footprint::Global) || self == other
    }
}

impl EventKind {
    /// Whether this kind is a scheduling transition.
    pub fn is_sched(&self) -> bool {
        matches!(self, EventKind::HwSched(_))
    }

    /// The shared resources this event touches. Conservative: anything
    /// whose effect cannot be pinned to a location or queue reports
    /// [`Footprint::Global`]. That includes every [`EventKind::Prim`]: a
    /// primitive name is not an identity, so only the player emitting the
    /// event can localize it
    /// ([`crate::strategy::Strategy::footprints_of_prim`]).
    pub fn footprints(&self) -> Vec<Footprint> {
        use EventKind::*;
        match self {
            Pull(b)
            | Push(b, _)
            | FaiT(b)
            | GetN(b)
            | IncN(b)
            | Hold(b)
            | Acq(b)
            | Rel(b)
            | McsSwap(b)
            | McsCasTail(b)
            | McsSetNext(b, _)
            | McsGetLocked(b)
            | McsGrant(b, _)
            | AcqQ(b)
            | RelQ(b) => vec![Footprint::Loc(*b)],
            EnQ(q, _)
            | DeQ(q)
            | Wakeup(q)
            | CvWait(q)
            | CvSignal(q)
            | CvBroadcast(q)
            | IpcSend(q, _)
            | IpcRecv(q) => vec![Footprint::Queue(*q)],
            Sleep(q, lk) => vec![Footprint::Queue(*q), Footprint::Loc(*lk)],
            HwSched(_) | Yield | Prim(..) => vec![Footprint::Global],
        }
    }

    /// Whether the event participates in a lock acquisition/hand-off
    /// protocol. The simulation relations of the toolkit preserve "the
    /// order of lock acquiring" (§2), so lock-ordered events are never
    /// treated as commuting with each other, even across different locks.
    pub fn is_lock_ordered(&self) -> bool {
        use EventKind::*;
        matches!(
            self,
            FaiT(_)
                | GetN(_)
                | IncN(_)
                | Hold(_)
                | Acq(_)
                | Rel(_)
                | McsSwap(_)
                | McsCasTail(_)
                | McsSetNext(..)
                | McsGetLocked(_)
                | McsGrant(..)
                | AcqQ(_)
                | RelQ(_)
                | Yield
                | Sleep(..)
                | Wakeup(_)
                | CvWait(_)
                | CvSignal(_)
                | CvBroadcast(_)
        )
    }

    /// Kind-level independence, ignoring authorship: neither kind is a
    /// scheduling transition, the two are not both lock-ordered, and their
    /// footprints `fa` and `fb` are disjoint. The footprints are passed in
    /// because a [`EventKind::Prim`] kind's come from the player emitting
    /// it; for every other kind they are [`EventKind::footprints`].
    pub fn independent_kinds(
        a: &EventKind,
        fa: &[Footprint],
        b: &EventKind,
        fb: &[Footprint],
    ) -> bool {
        if a.is_sched() || b.is_sched() {
            return false;
        }
        if a.is_lock_ordered() && b.is_lock_ordered() {
            return false;
        }
        fb.iter().all(|y| fa.iter().all(|x| !x.overlaps(y)))
    }
}

/// An observable event: an [`EventKind`] tagged with the participant that
/// generated it — the paper writes `i.FAI_t`, `c.pull(b)`, etc.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Event {
    /// The participant (CPU or thread) that produced the event. For
    /// scheduling events this is the participant *receiving* control.
    pub pid: Pid,
    /// The recorded action.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event authored by `pid`.
    pub fn new(pid: Pid, kind: EventKind) -> Self {
        Self { pid, kind }
    }

    /// Creates the scheduling event transferring control to `target`.
    pub fn sched(target: Pid) -> Self {
        Self::new(target, EventKind::HwSched(target))
    }

    /// Creates a generic named primitive event.
    pub fn prim(pid: Pid, name: &str, args: Vec<Val>) -> Self {
        Self::new(pid, EventKind::Prim(name.to_owned(), args))
    }

    /// Whether this is a scheduling transition.
    pub fn is_sched(&self) -> bool {
        self.kind.is_sched()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match &self.kind {
            HwSched(p) => write!(f, "⟨sched→{p}⟩"),
            Pull(b) => write!(f, "{}.pull({b})", self.pid),
            Push(b, v) => write!(f, "{}.push({b},{v})", self.pid),
            FaiT(b) => write!(f, "{}.FAI_t({b})", self.pid),
            GetN(b) => write!(f, "{}.get_n({b})", self.pid),
            IncN(b) => write!(f, "{}.inc_n({b})", self.pid),
            Hold(b) => write!(f, "{}.hold({b})", self.pid),
            Acq(b) => write!(f, "{}.acq({b})", self.pid),
            Rel(b) => write!(f, "{}.rel({b})", self.pid),
            McsSwap(b) => write!(f, "{}.mcs_swap({b})", self.pid),
            McsCasTail(b) => write!(f, "{}.mcs_cas({b})", self.pid),
            McsSetNext(b, p) => write!(f, "{}.mcs_set_next({b},{p})", self.pid),
            McsGetLocked(b) => write!(f, "{}.mcs_get_locked({b})", self.pid),
            McsGrant(b, p) => write!(f, "{}.mcs_grant({b},{p})", self.pid),
            EnQ(q, v) => write!(f, "{}.enQ({q},{v})", self.pid),
            DeQ(q) => write!(f, "{}.deQ({q})", self.pid),
            Yield => write!(f, "{}.yield", self.pid),
            Sleep(q, lk) => write!(f, "{}.sleep({q},{lk})", self.pid),
            Wakeup(q) => write!(f, "{}.wakeup({q})", self.pid),
            AcqQ(b) => write!(f, "{}.acq_q({b})", self.pid),
            RelQ(b) => write!(f, "{}.rel_q({b})", self.pid),
            CvWait(q) => write!(f, "{}.cv_wait({q})", self.pid),
            CvSignal(q) => write!(f, "{}.cv_signal({q})", self.pid),
            CvBroadcast(q) => write!(f, "{}.cv_broadcast({q})", self.pid),
            IpcSend(q, v) => write!(f, "{}.send({q},{v})", self.pid),
            IpcRecv(q) => write!(f, "{}.recv({q})", self.pid),
            Prim(name, args) => {
                write!(f, "{}.{name}(", self.pid)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_event_targets_pid() {
        let e = Event::sched(Pid(2));
        assert!(e.is_sched());
        assert_eq!(e.pid, Pid(2));
    }

    #[test]
    fn prim_event_displays_like_paper_notation() {
        let e = Event::prim(Pid(1), "foo", vec![]);
        assert_eq!(e.to_string(), "p1.foo()");
        let e = Event::new(Pid(1), EventKind::FaiT(Loc(0)));
        assert_eq!(e.to_string(), "p1.FAI_t(b0)");
    }

    /// Independence of two named kinds, each with its own footprints.
    fn commute(a: &EventKind, b: &EventKind) -> bool {
        EventKind::independent_kinds(a, &a.footprints(), b, &b.footprints())
    }

    #[test]
    fn independence_requires_disjoint_footprints() {
        let pull0 = EventKind::Pull(Loc(0));
        assert!(
            commute(&pull0, &EventKind::Pull(Loc(1))),
            "disjoint locations commute"
        );
        let push0 = EventKind::Push(Loc(0), Val::Int(1));
        assert!(!commute(&pull0, &push0), "same location conflicts");
    }

    #[test]
    fn lock_ordered_events_never_commute_with_each_other() {
        let a = EventKind::Acq(Loc(0));
        // Different locks, but both participate in lock ordering.
        assert!(!commute(&a, &EventKind::FaiT(Loc(7))));
        // A lock event does commute with a non-lock event elsewhere.
        assert!(commute(&a, &EventKind::EnQ(QId(3), Val::Int(5))));
    }

    #[test]
    fn sched_prim_and_yield_conflict_with_everything() {
        let pull = EventKind::Pull(Loc(9));
        assert!(!commute(&EventKind::HwSched(Pid(1)), &pull));
        assert!(!commute(&EventKind::Prim("f".into(), vec![]), &pull));
        assert!(!commute(&EventKind::Yield, &pull));
        assert!(Footprint::Global.overlaps(&Footprint::Global));
    }

    #[test]
    fn player_declared_footprints_decide_prim_independence() {
        // What a player declares for its `Prim` kind is what counts: an
        // empty footprint commutes with anything but the schedule, even a
        // lock event, since a `Prim` is never lock-ordered.
        let pure = EventKind::Prim("f".into(), vec![]);
        let acq = EventKind::Acq(Loc(0));
        assert!(EventKind::independent_kinds(
            &pure,
            &[],
            &acq,
            &acq.footprints()
        ));
        let sched = EventKind::HwSched(Pid(2));
        assert!(!EventKind::independent_kinds(&pure, &[], &sched, &[]));
        let take = EventKind::Prim("take".into(), vec![Val::Loc(Loc(0))]);
        let at0 = [Footprint::Loc(Loc(0))];
        let pull = |b| EventKind::Pull(Loc(b));
        assert!(EventKind::independent_kinds(
            &take,
            &at0,
            &pull(1),
            &pull(1).footprints()
        ));
        assert!(!EventKind::independent_kinds(
            &take,
            &at0,
            &pull(0),
            &pull(0).footprints()
        ));
    }

    #[test]
    fn sleep_touches_both_queue_and_lock() {
        let fs = EventKind::Sleep(QId(1), Loc(2)).footprints();
        assert!(fs.contains(&Footprint::Loc(Loc(2))));
        assert!(fs.contains(&Footprint::Queue(QId(1))));
    }

    #[test]
    fn events_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Event::sched(Pid(0)));
        s.insert(Event::sched(Pid(0)));
        assert_eq!(s.len(), 1);
    }
}
