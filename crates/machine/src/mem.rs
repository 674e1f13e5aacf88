//! CompCert-style block-based memory.
//!
//! "In the CompCert memory model, whenever a function is called, a fresh
//! memory block has to be allocated in the memory for its stack frame"
//! (§5.5). A [`Memory`] is a growing sequence of blocks; each block is
//! either *live* with a bounded array of values and full permissions, or
//! *empty* — a permissionless placeholder, as used by the thread-safe
//! linking construction ("these empty blocks are the ones without any
//! access permissions", §5.5).
//!
//! The algebraic composition `⊛` over memories (Fig. 12) lives in
//! `ccal-compcertx::memalg`; this module provides the memory states it
//! composes.

use std::fmt;

use ccal_core::val::Val;

/// A machine address: block identifier plus offset in value slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr {
    /// Block identifier (index into the memory's block sequence).
    pub block: u32,
    /// Offset within the block, in slots.
    pub off: u32,
}

impl Addr {
    /// Creates an address.
    pub fn new(block: u32, off: u32) -> Self {
        Self { block, off }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.block, self.off)
    }
}

/// One memory block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A live block with data and full permissions.
    Live(Vec<Val>),
    /// An empty placeholder block without permissions (§5.5): loads and
    /// stores on it fail.
    Empty,
}

impl Block {
    /// Whether the block is a permissionless placeholder.
    pub fn is_empty_placeholder(&self) -> bool {
        matches!(self, Block::Empty)
    }
}

/// Errors of memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// The block does not exist.
    BadBlock {
        /// Offending address.
        addr: Addr,
        /// Number of blocks in the memory.
        nb: u32,
    },
    /// The offset is outside the block.
    BadOffset {
        /// Offending address.
        addr: Addr,
        /// The block's size in slots.
        size: usize,
    },
    /// The block is an empty placeholder (no permissions).
    NoPermission {
        /// Offending address.
        addr: Addr,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::BadBlock { addr, nb } => {
                write!(f, "access to {addr} but memory has {nb} blocks")
            }
            MemError::BadOffset { addr, size } => {
                write!(f, "access to {addr} outside block of size {size}")
            }
            MemError::NoPermission { addr } => {
                write!(f, "access to {addr} in a permissionless placeholder block")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A block-structured memory state.
///
/// # Examples
///
/// ```
/// use ccal_machine::mem::{Addr, Memory};
/// use ccal_core::val::Val;
///
/// let mut m = Memory::new();
/// let b = m.alloc(2);
/// m.store(Addr::new(b, 0), Val::Int(7))?;
/// assert_eq!(m.load(Addr::new(b, 0))?, Val::Int(7));
/// assert!(m.load(Addr::new(b, 1))?.is_undef());
/// # Ok::<(), ccal_machine::mem::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Memory {
    blocks: Vec<Block>,
}

impl Memory {
    /// An empty memory (no blocks).
    pub fn new() -> Self {
        Self::default()
    }

    /// `nb(m)`: the total number of blocks (Fig. 12).
    pub fn nb(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// Allocates a fresh live block of `size` slots (all `Undef`),
    /// returning its identifier — CompCert's `alloc(m, l, h)` with
    /// `size = h - l`.
    pub fn alloc(&mut self, size: usize) -> u32 {
        self.blocks.push(Block::Live(vec![Val::Undef; size]));
        self.nb() - 1
    }

    /// `liftnb(m, n)`: extends the memory with `n` empty placeholder
    /// blocks (§5.5, Fig. 12), returning the id of the first one (if
    /// `n > 0`).
    pub fn liftnb(&mut self, n: u32) -> Option<u32> {
        let first = if n > 0 { Some(self.nb()) } else { None };
        for _ in 0..n {
            self.blocks.push(Block::Empty);
        }
        first
    }

    /// The block with identifier `b`, if it exists.
    pub fn block(&self, b: u32) -> Option<&Block> {
        self.blocks.get(b as usize)
    }

    /// Loads the value at `addr` — `ld(m, ℓ)` of Fig. 12.
    ///
    /// # Errors
    ///
    /// [`MemError`] on a missing block, out-of-range offset, or
    /// permissionless placeholder.
    pub fn load(&self, addr: Addr) -> Result<Val, MemError> {
        match self.blocks.get(addr.block as usize) {
            None => Err(MemError::BadBlock {
                addr,
                nb: self.nb(),
            }),
            Some(Block::Empty) => Err(MemError::NoPermission { addr }),
            Some(Block::Live(data)) => {
                data.get(addr.off as usize)
                    .cloned()
                    .ok_or(MemError::BadOffset {
                        addr,
                        size: data.len(),
                    })
            }
        }
    }

    /// Stores `v` at `addr` — `st(m, ℓ, v)` of Fig. 12.
    ///
    /// # Errors
    ///
    /// [`MemError`] on a missing block, out-of-range offset, or
    /// permissionless placeholder.
    pub fn store(&mut self, addr: Addr, v: Val) -> Result<(), MemError> {
        let nb = self.nb();
        match self.blocks.get_mut(addr.block as usize) {
            None => Err(MemError::BadBlock { addr, nb }),
            Some(Block::Empty) => Err(MemError::NoPermission { addr }),
            Some(Block::Live(data)) => {
                let size = data.len();
                match data.get_mut(addr.off as usize) {
                    Some(slot) => {
                        *slot = v;
                        Ok(())
                    }
                    None => Err(MemError::BadOffset { addr, size }),
                }
            }
        }
    }

    /// Iterates over `(block id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (i as u32, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_sequential_ids() {
        let mut m = Memory::new();
        assert_eq!(m.alloc(1), 0);
        assert_eq!(m.alloc(1), 1);
        assert_eq!(m.nb(), 2);
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = Memory::new();
        let b = m.alloc(3);
        m.store(Addr::new(b, 2), Val::Int(5)).unwrap();
        assert_eq!(m.load(Addr::new(b, 2)).unwrap(), Val::Int(5));
    }

    #[test]
    fn fresh_slots_are_undef() {
        let mut m = Memory::new();
        let b = m.alloc(1);
        assert!(m.load(Addr::new(b, 0)).unwrap().is_undef());
    }

    #[test]
    fn out_of_range_errors() {
        let mut m = Memory::new();
        let b = m.alloc(1);
        assert!(matches!(
            m.load(Addr::new(b, 9)),
            Err(MemError::BadOffset { .. })
        ));
        assert!(matches!(
            m.load(Addr::new(99, 0)),
            Err(MemError::BadBlock { .. })
        ));
    }

    #[test]
    fn placeholders_have_no_permissions() {
        let mut m = Memory::new();
        let first = m.liftnb(2).unwrap();
        assert_eq!(m.nb(), 2);
        assert!(matches!(
            m.load(Addr::new(first, 0)),
            Err(MemError::NoPermission { .. })
        ));
        assert!(matches!(
            m.store(Addr::new(first, 0), Val::Int(1)),
            Err(MemError::NoPermission { .. })
        ));
    }

    #[test]
    fn liftnb_zero_is_noop() {
        let mut m = Memory::new();
        assert_eq!(m.liftnb(0), None);
        assert_eq!(m.nb(), 0);
    }
}
