//! Parallel case-grid exploration for the bounded checkers.
//!
//! Every bounded check in the toolkit — simulation, liveness,
//! linearizability, race freedom, sequence refinement — enumerates a
//! finite grid of independent cases (environment context × argument
//! vector) and folds the per-case outcomes in case order, stopping at the
//! first failure. [`run_cases`] parallelizes exactly that shape: a shared
//! atomic work queue hands case indices to `std::thread::scope` workers,
//! a terminal outcome (a failure) short-circuits the remaining work, and
//! the caller folds the returned slots **in index order** — which makes
//! the parallel run bit-identical to the serial one (same evidence, same
//! first failure) for any deterministic per-case function.
//!
//! Exploration is serial unless a caller asks for more workers: every
//! default in the toolkit ([`crate::explore::ExploreOptions::default`],
//! the verifier's and the objects' non-`_tuned` entry points) uses one
//! worker, and no environment variable changes that. On the grids the
//! checkers explore (tens of contexts), handing cases to a second worker
//! cost more than it saved; the work-stealing path below runs only for an
//! explicit `workers > 1`. Workers run under their caller's engine
//! ([`crate::engine`]): its tier and sharing mode, its counters and its
//! capture scope.
//!
//! # Determinism contract
//!
//! For a pure `run` function, `run_cases` guarantees that every index
//! smaller than the smallest terminal index is `Some`: indices are handed
//! out in order (in contiguous chunks of [`CHUNK`]), workers only abandon
//! an index strictly greater than an already-discovered terminal index,
//! and the terminal minimum only ever decreases to indices that really
//! are terminal. Abandoning is monotone: once a worker sees an index past
//! the terminal minimum, every index it could still claim is larger (its
//! remaining chunk items are larger, and chunk starts only grow), so it
//! stops outright. Indices past the first terminal outcome may or may not
//! be present; an in-order fold never reads them. This is what makes the
//! first failure reported by every checker the **index-least** failing
//! case regardless of worker count — the invariant the failure-forensics
//! pipeline relies on for stable shrink inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::Engine;

/// Case indices handed out per `fetch_add` on the shared work queue.
/// Sub-microsecond cases (tiny machines on tiny grids) were bottlenecked
/// on queue contention when every case was claimed individually; chunked
/// handout amortizes the atomic traffic 16× while keeping the claim order
/// contiguous and ascending, which the determinism contract needs.
pub const CHUNK: usize = 16;

/// Runs `run(0..total)` across `workers` threads, short-circuiting past
/// the smallest index whose outcome satisfies `is_terminal`.
///
/// Returns one slot per index. Slot `i` is `Some` for every `i` up to and
/// including the smallest terminal index (and for every `i` when no
/// outcome is terminal); later slots may be `None` (skipped work). With
/// `workers <= 1` the grid is explored serially on the calling thread —
/// the reference behavior the parallel path reproduces.
pub fn run_cases<T, R, S>(total: usize, workers: usize, run: R, is_terminal: S) -> Vec<Option<T>>
where
    T: Send,
    R: Fn(usize) -> T + Sync,
    S: Fn(&T) -> bool + Sync,
{
    let workers = workers.clamp(1, total.max(1));
    if workers <= 1 {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
        for i in 0..total {
            let outcome = run(i);
            let terminal = is_terminal(&outcome);
            slots.push(Some(outcome));
            if terminal {
                break;
            }
        }
        slots.resize_with(total, || None);
        return slots;
    }
    let engine = Engine::current();
    let next = AtomicUsize::new(0);
    let min_terminal = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _entered = engine.enter();
                'claim: loop {
                    let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    for i in start..(start + CHUNK).min(total) {
                        if i > min_terminal.load(Ordering::Relaxed) {
                            // An index past the terminal minimum abandons
                            // the whole worker: every index it could still
                            // claim is even larger (chunk items ascend and
                            // chunk starts only grow), so nothing below the
                            // final terminal minimum is ever skipped.
                            break 'claim;
                        }
                        let outcome = run(i);
                        if is_terminal(&outcome) {
                            min_terminal.fetch_min(i, Ordering::Relaxed);
                        }
                        *slots[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_first_failure(slots: Vec<Option<i32>>) -> (Vec<i32>, Option<i32>) {
        let mut seen = Vec::new();
        for slot in slots {
            match slot {
                Some(v) if v < 0 => return (seen, Some(v)),
                Some(v) => seen.push(v),
                None => break,
            }
        }
        (seen, None)
    }

    #[test]
    fn parallel_fold_matches_serial() {
        let run = |i: usize| i as i32 * 3;
        let serial = fold_first_failure(run_cases(100, 1, run, |v| *v < 0));
        let parallel = fold_first_failure(run_cases(100, 4, run, |v| *v < 0));
        assert_eq!(serial, parallel);
        assert_eq!(serial.0.len(), 100);
    }

    #[test]
    fn first_terminal_index_is_deterministic() {
        // Cases 17, 40 and 77 "fail"; the fold must always report 17.
        let run = |i: usize| {
            if matches!(i, 17 | 40 | 77) {
                -(i as i32)
            } else {
                i as i32
            }
        };
        for workers in [1, 2, 4, 8] {
            let slots = run_cases(100, workers, run, |v| *v < 0);
            // Everything before the first failure was computed.
            assert!(slots[..17].iter().all(Option::is_some), "workers={workers}");
            let (seen, failure) = fold_first_failure(slots);
            assert_eq!(failure, Some(-17), "workers={workers}");
            assert_eq!(seen, (0..17).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn failures_straddling_chunk_boundaries_still_select_the_least_index() {
        // Failures inside the first chunk (14), right at a boundary (16),
        // and deep in later chunks (33, 77): whichever worker computes
        // what, index 14 must win, and everything below it must be Some.
        let run = |i: usize| {
            if matches!(i, 14 | 16 | 33 | 77) {
                -(i as i32)
            } else {
                i as i32
            }
        };
        for workers in [2, 3, 4, 8] {
            let slots = run_cases(100, workers, run, |v| *v < 0);
            assert!(slots[..14].iter().all(Option::is_some), "workers={workers}");
            let (seen, failure) = fold_first_failure(slots);
            assert_eq!(failure, Some(-14), "workers={workers}");
            assert_eq!(seen, (0..14).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn non_chunk_multiple_totals_compute_every_case() {
        // total not a multiple of CHUNK, no failures: every slot is Some
        // and the fold sees all of them.
        for total in [1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5] {
            let slots = run_cases(total, 4, |i| i as i32, |_| false);
            assert_eq!(slots.len(), total);
            assert!(slots.iter().all(Option::is_some), "total={total}");
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_cases(0, 4, |i| i, |_| false).is_empty());
    }
}
