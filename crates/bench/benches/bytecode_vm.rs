//! Experiment B6: the compiled ClightX execution tier — slot-resolved
//! bytecode on a compact register VM (`ccal_clightx::{compile, vm}`) —
//! against the tree-walking interpreter, on the interpreted ticket
//! stack's hot path (the `acq` spin loop; see DESIGN.md).
//!
//! Run with `cargo bench -p ccal-bench --bench bytecode_vm`; pass
//! `-- --quick` (or set `CCAL_BENCH_QUICK=1`) for a fast smoke run.
//! Works with or without the `criterion` feature — the metric is the
//! engine's primitive-step counters plus plain wall-clock timing.
//!
//! Each certification runs under a fresh engine of the tier it measures,
//! so its step counters are exact; the binary doubles as the acceptance
//! gate for the compile tier: at
//! `L = 5` the VM's primitive steps (retired instructions) must be at
//! most 0.6 of the interpreter's (popped work items) on the same
//! certification — a counter ratio, not a wall-clock one, so the gate
//! holds on single-core and noisy hosts. The machine-level atom-steps
//! must agree *exactly* between tiers: the tiers are bit-identical above
//! the primitive boundary, and any drift is a correctness bug, not a
//! performance regression.
//!
//! It also emits `BENCH_6.json` at the repo root — machine-readable
//! primitive-step ratios per schedule length — so the perf trajectory is
//! tracked across changes.

use std::fmt::Write as _;

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("CCAL_BENCH_QUICK").is_some();
    let lens: &[usize] = if quick { &[3, 5] } else { &[3, 4, 5] };

    let rows: Vec<_> = lens
        .iter()
        .map(|&l| ccal_bench::scaling::bytecode_row(l))
        .collect();
    println!("{}", ccal_bench::scaling::render_bytecode_rows(&rows));

    for r in &rows {
        assert_eq!(
            r.atom_steps_vm, r.atom_steps_interp,
            "tier drift at L={}: the machine-level atom-steps must be \
             bit-identical across tiers",
            r.schedule_len
        );
    }
    let gate = rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 row present");
    assert!(
        gate.prim_step_ratio() <= 0.6,
        "B6 acceptance: the compiled tier must cut the primitive steps to \
         <= 0.6 of the interpreter's at L=5, got {} of {} ({:.2})",
        gate.prim_steps_vm,
        gate.prim_steps_interp,
        gate.prim_step_ratio()
    );
    println!(
        "B6 acceptance: L=5 prim-step ratio {:.3} <= 0.6 (vm {} vs interp {})",
        gate.prim_step_ratio(),
        gate.prim_steps_vm,
        gate.prim_steps_interp
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
    std::fs::write(path, render_json(&rows)).expect("write BENCH_6.json");
    println!("wrote {path}");
}

/// Renders the machine-readable benchmark record. Hand-rolled JSON — the
/// workspace is offline and the fields are flat numbers.
fn render_json(rows: &[ccal_bench::scaling::BytecodeRow]) -> String {
    // Recorded so step-ratio trajectories can be compared across hosts:
    // wall-clock sanity numbers depend on the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = format!("{{\n  \"hardware_threads\": {hw},\n  \"b6\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"grid\": {}, \"cases\": {}, \"prim_steps_vm\": {}, \
             \"prim_steps_interp\": {}, \"atom_steps\": {}, \"ratio\": {:.4}}}",
            r.schedule_len,
            r.grid,
            r.cases,
            r.prim_steps_vm,
            r.prim_steps_interp,
            r.atom_steps_vm,
            r.prim_step_ratio(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
