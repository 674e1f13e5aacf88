//! Experiment B3: ticket vs. MCS lock under contention on the simulated
//! multicore machine (the comparison behind the companion evaluations of
//! Gu et al. [16] and Kim et al. [24]).
//!
//! The two implementations are *interchangeable* behind the same atomic
//! interface (§6); this bench runs each under 1, 2 and 4 contending
//! participants and reports (a) wall time per acquisition on the game
//! machine and (b) the number of shared probe events per acquisition —
//! the simulator-visible analog of interconnect traffic, where MCS's
//! local spinning is expected to scale better than the ticket lock's
//! global `get_n` polling.
//!
//! Run with `cargo bench -p ccal-bench --bench lock_contention`.

use std::collections::BTreeMap;
use std::sync::Arc;

use ccal_core::conc::ConcurrentMachine;
use ccal_core::env::EnvContext;
use ccal_core::event::EventKind;
use ccal_core::id::{Loc, Pid, PidSet};
use ccal_core::layer::LayerInterface;
use ccal_core::strategy::RoundRobinScheduler;
use ccal_core::val::Val;
use ccal_objects::mcs::{l0_mcs_interface, MCS_SOURCE};
use ccal_objects::ticket::{l0_interface, M1_SOURCE};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn installed(src: &str, base: LayerInterface) -> LayerInterface {
    ccal_clightx::clightx_module("M", src)
        .expect("lock module parses")
        .install(&base)
        .expect("lock module installs")
}

fn contended_run(
    iface: &LayerInterface,
    ncpus: u32,
    rounds: usize,
) -> ccal_core::conc::ConcurrentOutcome {
    let b = Loc(0);
    let domain: Vec<Pid> = (0..ncpus).map(Pid).collect();
    let env = EnvContext::new(Arc::new(RoundRobinScheduler::new(domain.clone())));
    let machine = ConcurrentMachine::new(iface.clone(), PidSet::from_pids(domain.clone()), env)
        .with_fuel(2_000_000);
    let mut programs = BTreeMap::new();
    for pid in domain {
        let mut script = Vec::new();
        for _ in 0..rounds {
            script.push(("acq".to_owned(), vec![Val::Loc(b)]));
            script.push(("rel".to_owned(), vec![Val::Loc(b)]));
        }
        programs.insert(pid, script);
    }
    machine.run(&programs).expect("contended run completes")
}

fn probe_events(out: &ccal_core::conc::ConcurrentOutcome) -> usize {
    out.log
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GetN(_) | EventKind::McsGetLocked(_)))
        .count()
}

fn bench_contention(c: &mut Criterion) {
    let ticket = installed(M1_SOURCE, l0_interface());
    let mcs = installed(MCS_SOURCE, l0_mcs_interface());
    let rounds = 3;
    let mut group = c.benchmark_group("lock-contention");
    group.sample_size(10);
    for ncpus in [1_u32, 2, 4] {
        group.bench_with_input(BenchmarkId::new("ticket", ncpus), &ncpus, |b, &n| {
            b.iter(|| contended_run(&ticket, n, rounds));
        });
        group.bench_with_input(BenchmarkId::new("mcs", ncpus), &ncpus, |b, &n| {
            b.iter(|| contended_run(&mcs, n, rounds));
        });
    }
    group.finish();

    println!(
        "\nB3 summary — shared probe events per acquisition (lower = less interconnect traffic):"
    );
    println!("{:>6} {:>14} {:>14}", "cpus", "ticket", "mcs");
    for ncpus in [1_u32, 2, 4] {
        let t = contended_run(&ticket, ncpus, rounds);
        let m = contended_run(&mcs, ncpus, rounds);
        let acqs = (ncpus as usize) * rounds;
        println!(
            "{:>6} {:>14.2} {:>14.2}",
            ncpus,
            probe_events(&t) as f64 / acqs as f64,
            probe_events(&m) as f64 / acqs as f64
        );
    }
    println!();
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
