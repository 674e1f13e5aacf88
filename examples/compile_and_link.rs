//! The CompCertX pipeline (§5.5): compile the ticket lock from ClightX to
//! layered assembly, validate the translation over the layer machine,
//! print the generated listing, and demonstrate thread-safe linking with
//! the algebraic memory model (Fig. 12).
//!
//! Run with `cargo run --example compile_and_link`.

use std::sync::Arc;

use ccal::compcertx::{compcertx, simulate_threaded_linking, ValidateOptions};
use ccal::core::contexts::ContextGen;
use ccal::core::id::{Loc, Pid};
use ccal::core::val::Val;
use ccal::objects::ticket::{l0_interface, TicketEnvPlayer, M1_SOURCE};

fn main() {
    println!("== CompCertX: compiling the ticket lock ==\n{M1_SOURCE}");

    let b = Loc(0);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 1)))
        .with_schedule_len(2)
        .contexts();
    let opts = ValidateOptions::new(contexts)
        .with_workload("acq", vec![vec![Val::Loc(b)]])
        .with_workload("rel", vec![vec![Val::Loc(b)]]);

    let compiled =
        compcertx("M1", M1_SOURCE, &l0_interface(), &opts).expect("compilation validates");

    for name in compiled.asm.fn_names() {
        println!("{}", compiled.asm.get(name).expect("listed function"));
    }
    println!(
        "Translation validation certificate:\n{}",
        compiled.certificate
    );

    println!("== Thread-safe linking (§5.5, Fig. 12) ==");
    // Four threads allocate stack frames under an interleaved schedule;
    // the extended yield semantics inserts placeholder blocks so that the
    // private memories compose back into the CPU-local memory.
    let schedule: Vec<(u32, usize)> = vec![(0, 2), (1, 1), (2, 3), (0, 1), (3, 2), (1, 2), (2, 1)];
    let out = simulate_threaded_linking(&schedule).expect("m1 ⊛ ... ⊛ mN ≃ m holds");
    println!(
        "  schedule slices: {}, CPU memory blocks: {}",
        schedule.len(),
        out.cpu_memory.nb()
    );
    for (tid, mem) in &out.thread_memories {
        let live = mem
            .iter()
            .filter(|(_, b)| !b.is_empty_placeholder())
            .count();
        println!(
            "  thread {tid}: {} blocks ({} live frames, {} placeholders)",
            mem.nb(),
            live,
            mem.nb() as usize - live
        );
    }
    println!("  {}", out.obligation);
    println!("\nThe composed thread memories reproduce the CPU-local memory exactly —");
    println!("the executable content of the algebraic memory model's axioms.");
}
