//! Experiments B5 and B5d: prefix-sharing lower-run exploration — the
//! schedule grid organized as a prefix trie so each lower-machine run is
//! executed once per *distinct consumed schedule prefix* instead of once
//! per grid cell (B5, `ccal_core::explore::Kernel::memoize`), plus
//! query-point snapshots that fork the lower machine at every
//! environment query so even runs that never share a whole consumed
//! prefix share their common schedule digits (B5d,
//! `ccal_core::explore::Kernel::snapshot`; see DESIGN.md). Both live in
//! one bounded table per kernel (`ccal_core::table::BoundedTable`).
//!
//! Run with `cargo bench -p ccal-bench --bench prefix_sharing`; pass
//! `-- --quick` (or set `CCAL_BENCH_QUICK=1`) for a fast smoke run.
//! Works with or without the `criterion` feature — it uses the engine's
//! atom-step counters plus plain wall-clock timing either way.
//!
//! Each certification runs under a fresh engine, so its step counters are
//! exact; the binary doubles as the acceptance gate for both optimisations: at
//! `L = 5` the atom-steps with boundary sharing on must be at most half
//! of the memo-free steps (B5), and the atom-steps with deep sharing on
//! must be at most 0.7 of the boundary-shared steps on the *interpreted*
//! ticket stack (B5d) — the workload whose spin loop whole-outcome
//! memoization cannot reach. Both gates are counter-based, not
//! wall-clock-based, so they hold on single-core and noisy hosts.
//!
//! It also emits `BENCH_5.json` at the repo root — machine-readable
//! atom-step ratios for B5/B5d and grid accounting for B2/B2w — so the
//! perf trajectory is tracked across changes.

use std::fmt::Write as _;

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("CCAL_BENCH_QUICK").is_some();
    let lens: &[usize] = if quick { &[3, 5] } else { &[3, 4, 5] };

    // The parallel columns run one worker per hardware thread.
    let workers = ccal_bench::scaling::host_threads();
    let rows: Vec<_> = lens
        .iter()
        .map(|&l| ccal_bench::scaling::prefix_row_tuned(l, workers))
        .collect();
    println!("{}", ccal_bench::scaling::render_prefix_rows(&rows));
    let deep_rows: Vec<_> = lens
        .iter()
        .map(|&l| ccal_bench::scaling::deep_row(l))
        .collect();
    println!("{}", ccal_bench::scaling::render_deep_rows(&deep_rows));

    let gate = rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 row present");
    assert!(
        gate.step_ratio() <= 0.5,
        "B5 acceptance: sharing must at least halve the atom-steps at L=5, \
         got {} of {} ({:.2})",
        gate.steps_shared,
        gate.steps_full,
        gate.step_ratio()
    );
    println!(
        "B5 acceptance: L=5 atom-step ratio {:.3} <= 0.5 (shared {} vs full {})",
        gate.step_ratio(),
        gate.steps_shared,
        gate.steps_full
    );
    let dgate = deep_rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 deep row present");
    assert!(
        dgate.deep_over_shared() <= 0.7,
        "B5d acceptance: query-point snapshots must cut the interpreted-ticket \
         atom-steps to <= 0.7 of the boundary-shared run at L=5, got {} of {} ({:.2})",
        dgate.steps_deep,
        dgate.steps_shared,
        dgate.deep_over_shared()
    );
    println!(
        "B5d acceptance: L=5 deep/share atom-step ratio {:.3} <= 0.7 \
         (deep {} vs shared {}, {} snapshot resumes)",
        dgate.deep_over_shared(),
        dgate.steps_deep,
        dgate.steps_shared,
        dgate.deep_hits
    );

    let b2 = ccal_bench::scaling::por_row_tuned(5, workers);
    let b2w = ccal_bench::scaling::por_widened_row_tuned(5, workers);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    std::fs::write(path, render_json(&rows, &deep_rows, &b2, &b2w)).expect("write BENCH_5.json");
    println!("wrote {path}");
}

/// Renders the machine-readable benchmark record. Hand-rolled JSON — the
/// workspace is offline and the fields are flat numbers.
fn render_json(
    rows: &[ccal_bench::scaling::PrefixRow],
    deep_rows: &[ccal_bench::scaling::DeepRow],
    b2: &ccal_bench::scaling::PorRow,
    b2w: &ccal_bench::scaling::PorRow,
) -> String {
    // Recorded so step-ratio trajectories can be compared across hosts:
    // the worker-scaling rows depend on the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = format!("{{\n  \"hardware_threads\": {hw},\n  \"b5\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"grid\": {}, \"cases\": {}, \"steps_full\": {}, \
             \"steps_shared\": {}, \"steps_deep\": {}, \"ratio\": {:.4}, \"deep_ratio\": {:.4}}}",
            r.schedule_len,
            r.grid,
            r.cases,
            r.steps_full,
            r.steps_shared,
            r.steps_deep,
            r.step_ratio(),
            r.deep_ratio(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"b5d\": [\n");
    for (i, r) in deep_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"grid\": {}, \"cases\": {}, \"steps_full\": {}, \
             \"steps_shared\": {}, \"steps_deep\": {}, \"shared_hits\": {}, \"deep_hits\": {}, \
             \"deep_over_shared\": {:.4}, \"deep_over_full\": {:.4}}}",
            r.schedule_len,
            r.grid,
            r.cases,
            r.steps_full,
            r.steps_shared,
            r.steps_deep,
            r.shared_hits,
            r.deep_hits,
            r.deep_over_shared(),
            r.deep_over_full(),
        );
        out.push_str(if i + 1 < deep_rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    for (key, row) in [("b2", b2), ("b2w", b2w)] {
        let _ = write!(
            out,
            "  \"{key}\": {{\"len\": {}, \"grid\": {}, \"explored\": {}, \"skipped\": {}, \
             \"reduced\": {}, \"shrink\": {:.4}}}",
            row.schedule_len,
            row.grid,
            row.explored,
            row.skipped,
            row.reduced,
            row.shrink(),
        );
        out.push_str(if key == "b2" { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}
