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

/// The default worker count, controlled by the `CCAL_WORKERS` environment
/// variable:
///
/// * unset — the machine's available parallelism (1 if unknown);
/// * a positive integer `n` — exactly `n` workers;
/// * `0` — explicitly serial (one worker on the calling thread), the knob
///   for bit-for-bit reference runs and debugging;
/// * anything else — a warning is printed to stderr once per process and
///   the variable is ignored (available parallelism is used).
///
/// This is the one environment variable the exploration engine reads, and
/// it only changes how the grid is scheduled, never what is explored.
pub fn default_workers() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("CCAL_WORKERS") {
        Ok(v) => parse_workers(&v).unwrap_or_else(|| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "ccal: ignoring unparseable CCAL_WORKERS={v:?} (expected a \
                     non-negative integer; 0 means serial)"
                );
            });
            fallback()
        }),
        Err(_) => fallback(),
    }
}

/// Parses a `CCAL_WORKERS` value: `Some(1)` for `0` (serial), `Some(n)`
/// for a positive integer, `None` for anything unparseable.
fn parse_workers(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Some(1),
        Ok(n) => Some(n),
        Err(_) => None,
    }
}

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
    run_cases_ordered(total, workers, None, run, is_terminal)
}

/// [`run_cases`] with an optional *claim-order permutation* for the
/// parallel path: when `order` is `Some`, the `j`-th claimed queue position
/// computes case `order[j]` instead of case `j`. The prefix-sharing
/// exploration passes the digit-reversed subtree order
/// ([`crate::prefix::subtree_case_order`]) so that a claimed chunk is a
/// subtree of the schedule-prefix trie rather than a stripe across all
/// subtrees.
///
/// The serial path ignores `order` and always explores in ascending index
/// order — bit-identical work set to the reference run, including which
/// cases past a failure are never computed.
///
/// Determinism contract: unchanged. Claimed *indices* are no longer
/// monotone under a permutation, so a worker that sees an index past the
/// terminal minimum skips that one index (`continue`) instead of
/// abandoning the queue — the skipped index is strictly greater than the
/// final terminal minimum, every position is still claimed by someone, and
/// therefore every index up to the smallest terminal index is `Some`.
///
/// # Panics
///
/// Panics if `order` is provided with a length other than `total` (indices
/// out of range panic on slot access). It must be a permutation of
/// `0..total` for the contract to hold.
pub fn run_cases_ordered<T, R, S>(
    total: usize,
    workers: usize,
    order: Option<&[usize]>,
    run: R,
    is_terminal: S,
) -> Vec<Option<T>>
where
    T: Send,
    R: Fn(usize) -> T + Sync,
    S: Fn(&T) -> bool + Sync,
{
    if let Some(order) = order {
        assert_eq!(order.len(), total, "claim order must cover the grid");
    }
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
    let next = AtomicUsize::new(0);
    let min_terminal = AtomicUsize::new(usize::MAX);
    let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| 'claim: loop {
                let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                if start >= total {
                    break;
                }
                for j in start..(start + CHUNK).min(total) {
                    let i = order.map_or(j, |o| o[j]);
                    if i > min_terminal.load(Ordering::Relaxed) {
                        if order.is_some() {
                            // Permuted indices are not monotone: skip just
                            // this one (it is larger than the final
                            // terminal minimum) and keep claiming.
                            continue;
                        }
                        // Unpermuted, an index past the terminal minimum
                        // abandons the whole worker: every index it could
                        // still claim is even larger (chunk items ascend
                        // and chunk starts only grow), so nothing below
                        // the final terminal minimum is ever skipped.
                        break 'claim;
                    }
                    let outcome = run(i);
                    if is_terminal(&outcome) {
                        min_terminal.fetch_min(i, Ordering::Relaxed);
                    }
                    *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(outcome);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
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

    #[test]
    fn permuted_claim_order_keeps_the_first_failure_invariant() {
        // Reverse claim order: the failure-rich tail is computed first,
        // yet the fold must still find the index-least failure with
        // everything below it present.
        let run = |i: usize| {
            if matches!(i, 23 | 61 | 88) {
                -(i as i32)
            } else {
                i as i32
            }
        };
        let order: Vec<usize> = (0..100).rev().collect();
        for workers in [2, 4, 8] {
            let slots = run_cases_ordered(100, workers, Some(&order), run, |v| *v < 0);
            assert!(slots[..23].iter().all(Option::is_some), "workers={workers}");
            let (seen, failure) = fold_first_failure(slots);
            assert_eq!(failure, Some(-23), "workers={workers}");
            assert_eq!(seen, (0..23).collect::<Vec<i32>>());
        }
    }

    #[test]
    fn permuted_order_without_failures_computes_every_case() {
        let order: Vec<usize> = (0..50).map(|j| (j * 7) % 50).collect();
        let slots = run_cases_ordered(50, 4, Some(&order), |i| i, |_| false);
        assert_eq!(slots.len(), 50);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, Some(i));
        }
    }

    #[test]
    fn serial_path_ignores_the_permutation() {
        // Serial exploration stays in index order: cases after the first
        // failure are never computed, no matter the claim order.
        let order: Vec<usize> = (0..10).rev().collect();
        let slots = run_cases_ordered(
            10,
            1,
            Some(&order),
            |i| if i == 3 { -1 } else { i as i32 },
            |v| *v < 0,
        );
        assert!(slots[..4].iter().all(Option::is_some));
        assert!(slots[4..].iter().all(Option::is_none));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn zero_workers_means_serial() {
        assert_eq!(parse_workers("0"), Some(1));
        assert_eq!(parse_workers(" 0 "), Some(1));
    }

    #[test]
    fn positive_workers_parse_and_garbage_is_rejected() {
        assert_eq!(parse_workers("7"), Some(7));
        assert_eq!(parse_workers(" 12\n"), Some(12));
        assert_eq!(parse_workers("many"), None);
        assert_eq!(parse_workers("-3"), None);
        assert_eq!(parse_workers("1.5"), None);
        assert_eq!(parse_workers(""), None);
    }
}
