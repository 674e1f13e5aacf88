//! Thread-safe linking of stack frames (§5.5).
//!
//! "On top of the thread-local layer `Lhtd[c][t]`, a function called
//! within a thread will allocate its stack frame into the thread-private
//! memory state ... on top of the CPU-local layer `Lbtd[c]`, all stack
//! frames have to be allocated in the CPU-local memory regardless of which
//! thread they belong to; thus, in the thread composition proof, we need
//! to account for all such stack frames. Our solution ... extended the
//! semantics of `yield` and `sleep` \[to\] also allocate empty memory blocks
//! as 'placeholders' for other threads' new stack frames" (§5.5).
//!
//! [`simulate_threaded_linking`] executes both views of a frame-allocation
//! trace — the CPU-local memory where every frame allocates in global
//! order, and each thread's private memory where other threads' frames
//! appear as placeholders materialized at scheduling points — then checks
//! the algebraic composition `m1 ⊛ ... ⊛ mN ≃ m` and load agreement.

use std::collections::BTreeMap;

use ccal_core::calculus::{LayerError, Obligation, Rule};
use ccal_core::val::Val;
use ccal_machine::mem::{Addr, Block, Memory};

use crate::memalg::{compose_n, ld};

/// One scheduled slice of a thread's execution: how many stack frames it
/// allocates before yielding again (each frame is stamped with a
/// distinguishing value).
pub type ThreadTrace = Vec<usize>;

/// The result of a threaded-linking simulation.
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// The CPU-local memory with every thread's frames.
    pub cpu_memory: Memory,
    /// Each thread's private memory (frames + placeholders).
    pub thread_memories: BTreeMap<u32, Memory>,
    /// The discharged `MultithreadLink` obligation.
    pub obligation: Obligation,
}

/// Runs the two views of the schedule and checks them against each other.
///
/// `schedule` is the interleaving: at each entry `(tid, frames)` the
/// scheduler runs thread `tid`, which allocates `frames` stack frames
/// (each of one slot, stamped with a unique value). When a thread resumes,
/// the extended `yield` semantics first allocates placeholders in its
/// private memory for every block other threads allocated in between —
/// keeping all block numbering aligned, exactly the construction of §5.5.
///
/// # Errors
///
/// [`LayerError::Mismatch`] if the composed thread memories do not equal
/// the CPU memory, or some load disagrees.
pub fn simulate_threaded_linking(schedule: &[(u32, usize)]) -> Result<LinkOutcome, LayerError> {
    let mut cpu = Memory::new();
    let mut threads: BTreeMap<u32, Memory> = BTreeMap::new();
    for (tid, _) in schedule {
        threads.entry(*tid).or_default();
    }
    let mut stamp = 0_i64;
    for (tid, frames) in schedule {
        // Extended yield/sleep semantics: materialize placeholders for the
        // blocks allocated while this thread was away (liftnb to realign).
        let mine = threads.get_mut(tid).expect("thread registered");
        let gap = cpu.nb() - mine.nb();
        mine.liftnb(gap);
        for _ in 0..*frames {
            stamp += 1;
            let cb = cpu.alloc(1);
            cpu.store(Addr::new(cb, 0), Val::Int(stamp))
                .expect("fresh cpu frame");
            let tb = mine.alloc(1);
            mine.store(Addr::new(tb, 0), Val::Int(stamp))
                .expect("fresh thread frame");
            if cb != tb {
                return Err(LayerError::Mismatch {
                    expected: format!("aligned block ids (cpu {cb})"),
                    found: format!("thread block {tb}"),
                    context: format!("threaded linking, thread {tid}"),
                });
            }
        }
    }
    // Final realignment so every thread memory spans the full block range.
    for mem in threads.values_mut() {
        let gap = cpu.nb() - mem.nb();
        mem.liftnb(gap);
    }
    // The algebraic composition of the thread memories must reproduce the
    // CPU memory.
    let mems: Vec<Memory> = threads.values().cloned().collect();
    let composed = compose_n(&mems).ok_or_else(|| LayerError::Mismatch {
        expected: "disjointly-live thread memories (⊛ defined)".to_owned(),
        found: "overlapping live blocks".to_owned(),
        context: "threaded linking composition".to_owned(),
    })?;
    if composed != cpu {
        return Err(LayerError::Mismatch {
            expected: format!("composed = cpu memory ({} blocks)", cpu.nb()),
            found: format!("composed has {} blocks", composed.nb()),
            context: "threaded linking composition".to_owned(),
        });
    }
    // Load agreement (rule Ld transported to the N-ary case): every live
    // frame reads the same through its owner and through the CPU memory.
    let mut loads_checked = 0;
    for mem in threads.values() {
        for (b, block) in mem.iter() {
            if let Block::Live(data) = block {
                for off in 0..data.len() as u32 {
                    let addr = Addr::new(b, off);
                    let via_thread = ld(mem, addr).map_err(to_layer_err)?;
                    let via_cpu = ld(&cpu, addr).map_err(to_layer_err)?;
                    if via_thread != via_cpu {
                        return Err(LayerError::Mismatch {
                            expected: format!("{via_cpu} (CPU view)"),
                            found: format!("{via_thread} (thread view)"),
                            context: format!("threaded linking load at {addr}"),
                        });
                    }
                    loads_checked += 1;
                }
            }
        }
    }
    Ok(LinkOutcome {
        cpu_memory: cpu,
        thread_memories: threads,
        obligation: Obligation {
            rule: Rule::MultithreadLink,
            description: format!("m1 ⊛ ... ⊛ mN ≃ m over a {}-slice schedule", schedule.len()),
            cases_checked: loads_checked,
            cases_skipped: 0,
            cases_reduced: 0,
        },
    })
}

fn to_layer_err(e: ccal_machine::mem::MemError) -> LayerError {
    LayerError::Machine(ccal_core::machine::MachineError::Stuck(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_threads_interleaved() {
        let out =
            simulate_threaded_linking(&[(0, 2), (1, 1), (0, 1), (1, 3)]).expect("links cleanly");
        assert_eq!(out.cpu_memory.nb(), 7);
        assert_eq!(out.thread_memories.len(), 2);
        // Thread 0 owns blocks 0,1,3; thread 1 owns 2,4,5,6.
        let t0 = &out.thread_memories[&0];
        assert!(matches!(t0.block(0), Some(Block::Live(_))));
        assert!(t0.block(2).unwrap().is_empty_placeholder());
    }

    #[test]
    fn single_thread_degenerates_to_cpu_memory() {
        let out = simulate_threaded_linking(&[(0, 3)]).unwrap();
        assert_eq!(out.thread_memories[&0], out.cpu_memory);
    }

    #[test]
    fn empty_schedule_is_trivially_linked() {
        let out = simulate_threaded_linking(&[]).unwrap();
        assert_eq!(out.cpu_memory.nb(), 0);
        assert_eq!(out.obligation.rule, Rule::MultithreadLink);
    }

    proptest! {
        /// Any interleaving of up to 4 threads links: composition defined,
        /// equal to the CPU memory, all loads agree.
        #[test]
        fn linking_holds_for_arbitrary_schedules(
            schedule in proptest::collection::vec((0_u32..4, 0_usize..4), 0..12)
        ) {
            let out = simulate_threaded_linking(&schedule).expect("linking holds");
            let total: usize = schedule.iter().map(|(_, f)| f).sum();
            prop_assert_eq!(out.cpu_memory.nb() as usize, total);
        }
    }
}
