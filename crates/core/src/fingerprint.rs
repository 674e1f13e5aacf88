//! Content-addressed fingerprints for certification inputs.
//!
//! A certification verdict is a pure function of (module source, layer
//! interfaces, simulation options, context grid parameters). ClightX
//! modules are hashed by source text. Other object code — a Rust
//! primitive's body, a player's moves and the footprints it declares for
//! its `Prim` events — is hashed only through the names that select it
//! (interface and primitive names, the context grid's description). The
//! certification service keys its certificate store by a [`ContentHash`]
//! over exactly those inputs, so a byte-identical request is answered
//! from the store with **zero** exploration steps, and editing one layer
//! of a stack dirties only the units whose inputs actually changed.
//!
//! The hash is a streaming FNV-1a over a 128-bit state with explicit
//! domain separation: every field is framed as `tag • length • payload`,
//! so `("ab", "c")` and `("a", "bc")` — or a field moving between
//! sections — cannot collide structurally. This generalizes the
//! options-fingerprint the forensics artifacts already carry
//! (`ccal-forensics`' `ReplayOptions`), which keys *replay compatibility*;
//! a [`ContentHash`] keys *certificate identity*.

use std::fmt;

use crate::layer::LayerInterface;
use crate::val::Val;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content hash, rendered as 32 lowercase hex digits. Used as
/// the certificate store key and as the deterministic schedule-key family
/// for warm cross-request prefix sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// The low 64 bits — used where a `u64` identity is needed (e.g.
    /// pinning a [`crate::prefix::ScheduleKey`] family to a unit).
    pub fn low64(&self) -> u64 {
        self.0 as u64
    }

    /// Parses the 32-hex-digit rendering produced by `Display`.
    pub fn parse(s: &str) -> Option<ContentHash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming content hasher with domain separation. Feed fields through
/// the typed methods (each frames its payload with a tag and a length);
/// [`ContentHasher::finish`] yields the [`ContentHash`].
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u128,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// A fresh hasher at the FNV-1a 128 offset basis.
    pub fn new() -> Self {
        ContentHasher {
            state: FNV128_OFFSET,
        }
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    fn frame(&mut self, tag: &str, payload_len: usize) {
        self.raw(tag.as_bytes());
        self.raw(&[0xff]);
        self.raw(&(payload_len as u64).to_le_bytes());
    }

    /// A section marker: separates structurally distinct regions (e.g.
    /// "module" vs "options") without a payload.
    pub fn section(&mut self, tag: &str) {
        self.frame(tag, 0);
        self.raw(&[0xfe]);
    }

    /// A tagged byte string.
    pub fn bytes(&mut self, tag: &str, payload: &[u8]) {
        self.frame(tag, payload.len());
        self.raw(payload);
    }

    /// A tagged UTF-8 string (module sources, primitive names, ...).
    pub fn str(&mut self, tag: &str, s: &str) {
        self.bytes(tag, s.as_bytes());
    }

    /// A tagged unsigned integer.
    pub fn u64(&mut self, tag: &str, v: u64) {
        self.frame(tag, 8);
        self.raw(&v.to_le_bytes());
    }

    /// A tagged signed integer.
    pub fn i64(&mut self, tag: &str, v: i64) {
        self.frame(tag, 8);
        self.raw(&v.to_le_bytes());
    }

    /// A tagged `usize` (hashed as 64-bit, so 32/64-bit hosts agree).
    pub fn usize(&mut self, tag: &str, v: usize) {
        self.u64(tag, v as u64);
    }

    /// A tagged boolean.
    pub fn bool(&mut self, tag: &str, v: bool) {
        self.frame(tag, 1);
        self.raw(&[u8::from(v)]);
    }

    /// A tagged layer-level value (setup arguments and the like).
    pub fn val(&mut self, tag: &str, v: &Val) {
        match v {
            Val::Undef => self.str(tag, "undef"),
            Val::Unit => self.str(tag, "unit"),
            Val::Int(i) => {
                self.section("int");
                self.i64(tag, *i);
            }
            Val::Bool(b) => {
                self.section("bool");
                self.bool(tag, *b);
            }
            Val::Loc(l) => {
                self.section("loc");
                self.u64(tag, u64::from(l.0));
            }
            Val::Str(s) => {
                self.section("str");
                self.str(tag, s);
            }
            Val::List(items) => {
                self.frame(tag, items.len());
                for (i, item) in items.iter().enumerate() {
                    self.val(&format!("{tag}[{i}]"), item);
                }
            }
        }
    }

    /// A layer interface: its name and its primitive names in canonical
    /// (sorted) order. Interfaces with the same name but different
    /// primitives hash differently; the hash reads nothing but the
    /// interface, so it does not depend on what else the process built.
    pub fn interface(&mut self, tag: &str, iface: &LayerInterface) {
        self.section(tag);
        self.str("iface.name", &iface.name);
        let mut names = iface.prim_names();
        names.sort_unstable();
        self.usize("iface.nprims", names.len());
        for name in names {
            self.str("prim", name);
        }
    }

    /// Finalizes the hash.
    pub fn finish(&self) -> ContentHash {
        ContentHash(self.state)
    }
}

/// A **semantic sharing key**: the content identity of one lower-machine
/// exploration *family*. Two checks with equal `ShareKey`s explore the
/// same lower machine (same sources and interfaces) for the
/// same participant over the same context-grid structure under the same
/// exploration-relevant options — so their `PrefixMemo` / `SnapshotTrie`
/// entries describe the same deterministic computations and may safely
/// live in one warm store, keyed apart only by the
/// per-computation inner index (setup history + called primitive +
/// arguments, see `crate::sim`).
///
/// Deliberately *excluded*: the unit and stack names, the checked
/// primitive and its arguments, the setup calls, the upper interface and
/// the relation (all of which vary across the units of one stack and are
/// carried by the inner index or the upper-cache signature instead), and
/// pure dispatch knobs (`workers`, `window`, `warm`) that cannot change
/// what any shared entry means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShareKey(pub ContentHash);

impl ShareKey {
    /// The schedule-key family this sharing key pins
    /// ([`crate::prefix::ScheduleKey::family`]).
    pub fn family(&self) -> u64 {
        self.0.low64()
    }
}

impl fmt::Display for ShareKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Computes the [`ShareKey`] for one lower-machine exploration family.
///
/// `sources` are the ClightX module sources backing the lower machine (in
/// a fixed caller order; empty for spec-only machines) — they carry the
/// primitive *bodies*, which [`ContentHasher::interface`] deliberately
/// does not, so two machines differing only in one primitive body get
/// distinct keys. `describe_ctx` must hash the full structure of the
/// context grid the check explores (players, rounds, schedule length,
/// POR) — everything that determines which `ScheduleKey` scripts exist
/// and what the partial-order reduction prunes.
pub fn share_key(
    sources: &[(&str, &str)],
    lower: &LayerInterface,
    pid: crate::id::Pid,
    describe_ctx: impl FnOnce(&mut ContentHasher),
    opts: &crate::sim::SimOptions,
) -> ShareKey {
    let mut h = ContentHasher::new();
    h.section("ccal.share-key.v1");
    h.usize("nsources", sources.len());
    for (name, src) in sources {
        h.str("source.name", name);
        h.str("source.text", src);
    }
    h.interface("lower", lower);
    h.u64("pid", u64::from(pid.0));
    h.section("contexts");
    describe_ctx(&mut h);
    h.section("sim_options");
    h.u64("fuel", opts.fuel);
    h.bool("compare_rets", opts.compare_rets);
    h.bool("dedup", opts.dedup);
    h.bool("prefix_share", opts.explore.prefix_share);
    h.bool("deep_share", opts.explore.deep_share);
    ShareKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl FnOnce(&mut ContentHasher)) -> ContentHash {
        let mut h = ContentHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let a = hash_of(|h| {
            h.str("x", "ab");
            h.str("y", "c");
        });
        let b = hash_of(|h| {
            h.str("x", "a");
            h.str("y", "bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn tags_separate_domains() {
        let a = hash_of(|h| h.str("source", "v"));
        let b = hash_of(|h| h.str("options", "v"));
        assert_ne!(a, b);
    }

    #[test]
    fn display_round_trips() {
        let h = hash_of(|h| h.str("s", "hello"));
        let rendered = h.to_string();
        assert_eq!(rendered.len(), 32);
        assert_eq!(ContentHash::parse(&rendered), Some(h));
        assert_eq!(ContentHash::parse("zz"), None);
        assert_eq!(ContentHash::parse(&rendered[..31]), None);
    }

    #[test]
    fn vals_hash_by_structure() {
        let int = hash_of(|h| h.val("v", &Val::Int(1)));
        let boolean = hash_of(|h| h.val("v", &Val::Bool(true)));
        assert_ne!(int, boolean);
        let nested = hash_of(|h| h.val("v", &Val::List(vec![Val::Int(1), Val::Int(2)])));
        let flat = hash_of(|h| {
            h.val("v", &Val::Int(1));
            h.val("v", &Val::Int(2));
        });
        assert_ne!(nested, flat);
    }

    #[test]
    fn deterministic_across_hashers() {
        let one = hash_of(|h| {
            h.section("m");
            h.str("src", "int f() { return 1; }");
            h.bool("por", true);
        });
        let two = hash_of(|h| {
            h.section("m");
            h.str("src", "int f() { return 1; }");
            h.bool("por", true);
        });
        assert_eq!(one, two);
    }
}
