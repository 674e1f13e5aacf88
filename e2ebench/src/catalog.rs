//! The fixed request catalog and its seeded per-pass order.
//!
//! Every pass covers the whole catalog, so passes of one workload do the
//! same work and their timings form one distribution; the seed only
//! permutes the order of the keys inside each pass.

/// One certification key: a stack at one exploration bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// `ticket`, `qlock` or `mcs`.
    pub stack: &'static str,
    /// Schedule prefix length per context.
    pub schedule_len: usize,
    /// Contention rounds of the environment player.
    pub rounds: u64,
}

const SCHEDULE_LENS: [usize; 3] = [4, 5, 6];
const ROUNDS: [u64; 2] = [1, 2];

fn keys(stacks: &[&'static str]) -> Vec<Key> {
    let mut out = Vec::new();
    for &stack in stacks {
        for schedule_len in SCHEDULE_LENS {
            for rounds in ROUNDS {
                out.push(Key {
                    stack,
                    schedule_len,
                    rounds,
                });
            }
        }
    }
    out
}

/// The 12 keys certd can answer (its registry knows ticket and qlock).
pub fn certd_keys() -> Vec<Key> {
    keys(&["ticket", "qlock"])
}

/// The in-process catalog: the certd keys plus MCS at the same bounds.
pub fn inproc_keys() -> Vec<Key> {
    keys(&["ticket", "qlock", "mcs"])
}

/// SplitMix64: a small, well-mixed generator, fully determined by its
/// state.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The order in which pass `pass` visits `n` catalog items under `seed`:
/// a Fisher–Yates permutation of `0..n`.
pub fn pass_order(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_hold_every_bound_once() {
        let certd = certd_keys();
        assert_eq!(certd.len(), 12);
        assert_eq!(inproc_keys().len(), 18);
        assert!(certd.iter().all(|k| k.stack != "mcs"));
        for (i, a) in certd.iter().enumerate() {
            assert!(!certd[i + 1..].contains(a), "{a:?} repeated");
        }
    }

    #[test]
    fn the_seed_alone_fixes_the_order() {
        let run = |seed| -> Vec<Vec<usize>> { (0..20).map(|p| pass_order(12, seed, p)).collect() };
        assert_eq!(run(7), run(7), "same seed, same orders");
        assert_ne!(run(7), run(8), "another seed, other orders");
        for order in run(7) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..12).collect::<Vec<_>>(), "a permutation");
        }
        let passes = run(7);
        assert!(passes.windows(2).any(|w| w[0] != w[1]), "passes differ");
    }
}
