//! A small, fast, unkeyed hasher for the exploration kernel's own maps.
//!
//! [`FxHasher`] is the rotate-xor-multiply word hash known from Firefox
//! and rustc: each word `w` updates the state as
//! `h = (h.rotl(5) ^ w) * K`. Hashing a short schedule prefix or an id
//! tuple costs a few multiplications, where std's default SipHash-1-3
//! runs a keyed permutation per 8 bytes plus a finalization.
//!
//! **Use it only for keys the program generates itself.** It has no
//! random seed, so anyone who picks the keys can make them collide and
//! degrade a map to a linear scan. The one store that uses it,
//! [`crate::table::BoundedTable`] (the kernel's outcomes and snapshots,
//! the simulation checker's upper-run cache), is keyed by schedule
//! prefixes from [`crate::contexts::ContextGen`], content-hash family and
//! inner ids, upper signatures, and abstract logs the checker produced. Maps keyed by anything
//! from outside the process (certd's registry, store and wire maps) keep
//! std's `RandomState`. Keys are still compared with `Eq`, so a collision
//! costs time, never a verdict.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier: `2^64 / φ`, rounded to odd (as in rustc's `FxHasher`).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rotate-xor-multiply hasher. The same input hashes to the same
/// value in every run, process and build.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // Zero-pad the tail into one word, tagged with its length so
            // that trailing zero bytes still change the hash.
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 59));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; every hasher starts from the same zero state.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`] — for program-generated keys only.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Pid;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashes_are_pinned_across_runs_and_processes() {
        // No random seed: these values hold in every process. A change to
        // them changes which bucket every kernel key lands in (never a
        // verdict), so update them only together with the hasher.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), K);
        assert_eq!(fx(&[Pid(0), Pid(1)][..]), 0x2e82_0392_c974_4baa);
        assert_eq!(fx(&(7u64, 3usize)), 0x5abb_f44b_e003_8c34);
        assert_eq!(fx(b"abcdefghi".as_slice()), 0x90bd_b72b_5bb6_93ca);
    }

    #[test]
    fn order_and_length_change_the_hash() {
        let (p0, p1) = (Pid(0), Pid(1));
        assert_ne!(fx(&[p0, p1][..]), fx(&[p1, p0][..]));
        assert_ne!(fx(&[p0][..]), fx(&[p0, p0][..]));
        assert_ne!(fx(&Vec::<Pid>::new()), fx(&[p0][..]));
    }

    #[test]
    fn write_covers_byte_lengths_that_are_not_a_multiple_of_8() {
        let bytes: Vec<u8> = (1..=19).collect();
        let raw = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        for len in 0..=bytes.len() {
            let (b, mut flipped) = (&bytes[..len], bytes[..len].to_vec());
            // Every byte, including each one of the padded tail, counts.
            for i in 0..len {
                flipped[i] ^= 0x80;
                assert_ne!(raw(b), raw(&flipped), "byte {i} of {len}");
                flipped[i] ^= 0x80;
            }
            // Trailing zeros are not the same as a shorter input.
            let mut padded = b.to_vec();
            padded.push(0);
            assert_ne!(raw(b), raw(&padded), "length {len} vs {}", len + 1);
        }
        // Whole words take exactly one round each.
        let mut word = FxHasher::default();
        word.write_u64(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        assert_eq!(raw(&bytes[..8]), word.finish());
    }
}
