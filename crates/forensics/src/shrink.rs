//! Delta debugging of scripted contexts.
//!
//! Given a failing [`ScriptedContext`] and an oracle ("does this context
//! still make the checker fail?"), [`shrink`] minimizes it in two phases:
//!
//! 1. **Chunk removal** (classic ddmin complements) over the schedule and
//!    over each player's batch list — cheap large strides first;
//! 2. **Single-atom fixpoint**: repeatedly try every single-atom removal
//!    (one schedule slot, one whole batch, or one event inside a batch)
//!    and restart on success, until a full pass makes no progress.
//!
//! The result is *1-minimal*: removing any single atom no longer fails
//! ([`one_minimal`] re-verifies exactly that, and the property tests
//! assert it). The oracle accepts *any* failure — the failure reason is
//! allowed to drift during shrinking (e.g. an over-budget liveness run
//! degrading to starvation once its feeder events are removed), which is
//! standard delta-debugging behavior; the artifact records the minimized
//! context's actual reason.

use crate::scripted::ScriptedContext;

/// The result of a shrink run.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized context.
    pub context: ScriptedContext,
    /// Oracle invocations spent.
    pub iterations: usize,
}

/// Every context reachable by removing exactly one atom: a schedule slot,
/// a whole player batch, or a single event within a batch.
pub fn one_removals(sc: &ScriptedContext) -> Vec<ScriptedContext> {
    let mut out = Vec::new();
    for i in 0..sc.schedule.len() {
        let mut v = sc.clone();
        v.schedule.remove(i);
        out.push(v);
    }
    for (pid, batches) in &sc.players {
        for j in 0..batches.len() {
            let mut v = sc.clone();
            let b = v.players.get_mut(pid).unwrap();
            b.remove(j);
            if b.iter().all(Vec::is_empty) {
                v.players.remove(pid);
            }
            out.push(v);
            for k in 0..batches[j].len() {
                let mut v = sc.clone();
                let b = v.players.get_mut(pid).unwrap();
                b[j].remove(k);
                if b.iter().all(Vec::is_empty) {
                    v.players.remove(pid);
                }
                out.push(v);
            }
        }
    }
    out
}

/// Whether `sc` is 1-minimal for `oracle`: the context itself fails and
/// no single-atom removal still fails.
pub fn one_minimal(sc: &ScriptedContext, oracle: &mut dyn FnMut(&ScriptedContext) -> bool) -> bool {
    oracle(sc) && one_removals(sc).iter().all(|v| !oracle(v))
}

/// Classic ddmin complement reduction of one list dimension. `rebuild`
/// turns a candidate sublist into a full context; returns the reduced
/// list (every prefix of the reduction kept the oracle failing).
fn ddmin_list<T: Clone>(
    items: Vec<T>,
    rebuild: &dyn Fn(Vec<T>) -> ScriptedContext,
    oracle: &mut dyn FnMut(&ScriptedContext) -> bool,
    iterations: &mut usize,
) -> Vec<T> {
    let mut cur = items;
    let mut n = 2_usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let candidate: Vec<T> = cur[..start]
                .iter()
                .chain(cur[end..].iter())
                .cloned()
                .collect();
            *iterations += 1;
            if oracle(&rebuild(candidate.clone())) {
                cur = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// Minimizes a failing scripted context to a 1-minimal one.
///
/// # Panics
///
/// Debug-asserts that `sc` itself fails the oracle; on release builds a
/// passing input is returned unchanged after one oracle call.
pub fn shrink(
    sc: &ScriptedContext,
    oracle: &mut dyn FnMut(&ScriptedContext) -> bool,
) -> ShrinkOutcome {
    let mut iterations = 1;
    if !oracle(sc) {
        debug_assert!(false, "shrink called on a non-failing context");
        return ShrinkOutcome {
            context: sc.clone(),
            iterations,
        };
    }
    let mut cur = sc.clone();

    // Phase 1a: chunk-reduce the schedule.
    let base = cur.clone();
    cur.schedule = ddmin_list(
        cur.schedule.clone(),
        &|schedule| {
            let mut v = base.clone();
            v.schedule = schedule;
            v
        },
        oracle,
        &mut iterations,
    );

    // Phase 1b: chunk-reduce each player's batch list.
    let pids: Vec<_> = cur.players.keys().copied().collect();
    for pid in pids {
        let base = cur.clone();
        let batches = cur.players[&pid].clone();
        let reduced = ddmin_list(
            batches,
            &|batches| {
                let mut v = base.clone();
                if batches.iter().all(Vec::is_empty) {
                    v.players.remove(&pid);
                } else {
                    v.players.insert(pid, batches);
                }
                v
            },
            oracle,
            &mut iterations,
        );
        if reduced.iter().all(Vec::is_empty) {
            cur.players.remove(&pid);
        } else {
            cur.players.insert(pid, reduced);
        }
    }

    // Phase 2: single-atom fixpoint across every dimension jointly.
    'fixpoint: loop {
        for v in one_removals(&cur) {
            iterations += 1;
            if oracle(&v) {
                cur = v;
                continue 'fixpoint;
            }
        }
        break;
    }

    ShrinkOutcome {
        context: cur,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::event::{Event, EventKind};
    use ccal_core::id::{Loc, Pid};
    use ccal_core::val::Val;
    use std::collections::BTreeMap;

    fn push(pid: u32, loc: u32, v: i64) -> Event {
        Event::new(Pid(pid), EventKind::Push(Loc(loc), Val::Int(v)))
    }

    /// Oracle: fails iff some batch of p1 contains a push to Loc(50) AND
    /// the schedule contains at least one slot targeting p1 (monotone in
    /// both dimensions).
    fn oracle(sc: &ScriptedContext) -> bool {
        let has_push = sc.players.get(&Pid(1)).is_some_and(|batches| {
            batches
                .iter()
                .flatten()
                .any(|e| matches!(e.kind, EventKind::Push(l, _) if l == Loc(50)))
        });
        has_push && sc.schedule.contains(&Pid(1))
    }

    fn big_context() -> ScriptedContext {
        let mut players = BTreeMap::new();
        players.insert(
            Pid(1),
            vec![
                vec![push(1, 40, 0), push(1, 50, 1), push(1, 41, 2)],
                vec![push(1, 42, 3)],
                vec![],
            ],
        );
        players.insert(Pid(2), vec![vec![push(2, 60, 0), push(2, 61, 1)]]);
        ScriptedContext {
            domain: vec![Pid(0), Pid(1), Pid(2)],
            env_fuel: 100,
            schedule: vec![Pid(1), Pid(2), Pid(0), Pid(1), Pid(2), Pid(0)],
            players,
        }
    }

    #[test]
    fn shrinks_to_the_monotone_core() {
        let sc = big_context();
        let out = shrink(&sc, &mut oracle);
        assert!(oracle(&out.context), "shrunk context must still fail");
        // Exactly one schedule slot (p1) and one event (the push to 50).
        assert_eq!(out.context.schedule, vec![Pid(1)]);
        assert_eq!(
            out.context
                .players
                .values()
                .flatten()
                .flatten()
                .cloned()
                .collect::<Vec<_>>(),
            vec![push(1, 50, 1)]
        );
        assert_eq!(out.context.steps(), 2);
        assert!(out.iterations > 0);
    }

    #[test]
    fn result_is_one_minimal() {
        let sc = big_context();
        let out = shrink(&sc, &mut |c| oracle(c));
        assert!(one_minimal(&out.context, &mut |c| oracle(c)));
    }

    #[test]
    fn one_removals_counts_every_atom() {
        let sc = big_context();
        // 6 schedule slots + (3 batches + 4 events) for p1 + (1 batch +
        // 2 events) for p2.
        assert_eq!(one_removals(&sc).len(), 6 + 3 + 4 + 1 + 2);
    }
}
