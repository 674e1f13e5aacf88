//! Experiment P1: the §6 performance study — ticket-lock acquire/release
//! latency with the "logical primitives" (replay + event bookkeeping)
//! versus with them removed (direct state). Paper: 87 → 35 cycles
//! (2.49×); the reproduction must show the same multiple-× drop.
//!
//! Run with `cargo bench -p ccal-bench --bench ticket_latency`.

use ccal_bench::latency::{direct_machine, layered_machine, roundtrip};
use ccal_core::id::Loc;
use criterion::{criterion_group, criterion_main, Criterion};

fn warmed(
    mk: fn() -> ccal_core::machine::LayerMachine,
    warm: u32,
) -> ccal_core::machine::LayerMachine {
    let mut m = mk();
    for _ in 0..warm {
        roundtrip(&mut m, Loc(0));
    }
    m
}

fn bench_latency(c: &mut Criterion) {
    let b = Loc(0);
    let mut group = c.benchmark_group("ticket-lock-latency");
    // Each round trip is timed on a machine carrying 200 acquisitions of
    // history: the verified build pays for replay over that history (the
    // "logical primitives"), the optimized build does not.
    group.bench_function("with-logical-primitives", |bench| {
        bench.iter_batched(
            || warmed(layered_machine, 200),
            |mut m| roundtrip(&mut m, b),
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("logical-primitives-removed", |bench| {
        bench.iter_batched(
            || warmed(direct_machine, 200),
            |mut m| roundtrip(&mut m, b),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();

    // Headline summary in the paper's terms (fixed 200-acquisition
    // history, like the criterion runs above).
    let report = ccal_bench::latency::measure_warm(200, 200);
    println!(
        "\nP1 summary: with logical primitives {:?}, removed {:?} → {:.2}x drop (paper: 87 → 35 cycles, 2.49x)\n",
        report.with_logical, report.without_logical, report.ratio
    );
}

criterion_group!(benches, bench_latency);
criterion_main!(benches);
