//! Experiment B1: compositional vs. monolithic schedule-space exploration
//! — the quantitative form of the paper's local-reasoning claim (§1) —
//! plus the serial vs. parallel engine axis (workers × dedup), and
//! experiment B2: the sleep-set partial-order reduction axis (POR off vs
//! on, serial vs parallel) on the four-pid ticket-lock grid.
//!
//! Run with `cargo bench -p ccal-bench --bench composition_scaling`;
//! pass `-- --quick` (or set `CCAL_BENCH_QUICK=1`) for a fast smoke run.
//! Works with or without the `criterion` feature — it uses plain
//! wall-clock timing either way.

fn main() {
    let quick =
        std::env::args().any(|a| a == "--quick") || std::env::var_os("CCAL_BENCH_QUICK").is_some();
    let lens: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4, 5, 6, 7] };
    println!("{}", ccal_bench::scaling::render_scaling(lens));
    let por_lens: &[usize] = if quick { &[3] } else { &[3, 4, 5] };
    println!("{}", ccal_bench::scaling::render_por(por_lens));
    println!("{}", ccal_bench::scaling::render_por_widened(por_lens));
}
