//! The compositionality study (experiment B1).
//!
//! The paper's thesis is that layer-local verification plus composition
//! rules beats whole-system reasoning: "it enables local reasoning such
//! that the implementation can be first verified over a single thread `t`
//! ... and the guarantees can then be propagated to the whole concurrent
//! machine by parallel compositions" (§1). This module quantifies the
//! analogous effect in the bounded checker: the schedule space a
//! *monolithic* exploration must cover grows as `n^(k·L)` for `k`
//! participants, while the compositional route checks `k` participants
//! independently (`k · n^L`) and discharges `Pcomp` side conditions on
//! probe logs.
//!
//! It also hosts the partial-order-reduction study (B2, plus the
//! widened-footprint variant B2w) and the prefix-sharing study (B5),
//! which measures the lower-run trie of [`ccal_core::prefix`] in
//! atom-steps and wall-clock.

use std::time::{Duration, Instant};

use ccal_core::calculus::{check_fun, pcomp, CheckOptions};
use ccal_core::contexts::ContextGen;
use ccal_core::id::{Loc, Pid};
use ccal_core::sim::SimRelation;
use ccal_objects::ticket::{
    l0_interface, l2_interface, lock_interface, lock_low_interface, m1_module, r2_relation,
    FooEnvPlayer, TicketEnvPlayer, M2_SOURCE,
};
use std::sync::Arc;

/// One row of the scaling comparison, including the serial-vs-parallel
/// exploration axis.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Schedule prefix length per participant.
    pub schedule_len: usize,
    /// Contexts a monolithic product exploration would need
    /// (`2^(2·len)` for two participants).
    pub monolithic_contexts: usize,
    /// Contexts the compositional route explored (two per-participant
    /// checks).
    pub compositional_contexts: usize,
    /// Wall time of the serial compositional certification (1 worker,
    /// dedup off — the reference engine).
    pub compositional_time: Duration,
    /// Wall time with `workers` threads, dedup off.
    pub parallel_time: Duration,
    /// Wall time with `workers` threads *and* symmetric-schedule dedup.
    pub parallel_dedup_time: Duration,
    /// Worker threads used for the parallel runs.
    pub workers: usize,
    /// Checking cases discharged.
    pub cases: usize,
}

/// One timed compositional certification: both participants checked at
/// `schedule_len` with the given engine settings, then `Pcomp`-composed.
/// Returns the total contexts explored, the discharged cases, and the
/// wall time.
fn certify_both(schedule_len: usize, workers: usize, dedup: bool) -> (usize, usize, Duration) {
    let b = Loc(0);
    let m1 = m1_module().expect("M1 parses");
    let start = Instant::now();
    let mut layers = Vec::new();
    let mut contexts_used = 0;
    for (me, other) in [(Pid(0), Pid(1)), (Pid(1), Pid(0))] {
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(other, Arc::new(TicketEnvPlayer::new(other, b, 1)))
            .with_schedule_len(schedule_len)
            .contexts();
        contexts_used += contexts.len();
        let opts = CheckOptions::new(contexts)
            .with_workload("acq", vec![vec![ccal_core::val::Val::Loc(b)]])
            .with_workload("rel", vec![vec![ccal_core::val::Val::Loc(b)]])
            .with_workers(workers)
            .with_dedup(dedup);
        let layer = check_fun(
            &l0_interface(),
            &m1,
            &lock_low_interface(),
            &SimRelation::identity(),
            me,
            &opts,
        )
        .expect("per-participant certification succeeds");
        layers.push(layer);
    }
    let composed = pcomp(&layers[0], &layers[1]).expect("compatible layers");
    (
        contexts_used,
        composed.certificate.total_cases(),
        start.elapsed(),
    )
}

/// Runs the compositional ticket-lock certification at the given schedule
/// length, reporting the explored-context accounting and the serial
/// timing (1 worker, dedup off) next to `workers`-worker parallel and
/// parallel+dedup timings.
///
/// # Panics
///
/// Panics if certification fails — the configuration is expected to be
/// correct.
pub fn compositional_row_tuned(schedule_len: usize, workers: usize) -> ScalingRow {
    let (contexts_used, cases, compositional_time) = certify_both(schedule_len, 1, false);
    let (_, parallel_cases, parallel_time) = certify_both(schedule_len, workers, false);
    let (_, dedup_cases, parallel_dedup_time) = certify_both(schedule_len, workers, true);
    assert_eq!(cases, parallel_cases, "parallel run diverged from serial");
    assert_eq!(cases, dedup_cases, "dedup run diverged from serial");
    ScalingRow {
        schedule_len,
        monolithic_contexts: 2_usize.pow(2 * schedule_len as u32),
        compositional_contexts: contexts_used,
        compositional_time,
        parallel_time,
        parallel_dedup_time,
        workers,
        cases,
    }
}

/// The caveat line appended to every wall-clock scaling table when the
/// host cannot actually run workers in parallel: with one hardware
/// thread the `workers > 1` engine time-slices on a single core, so
/// serial-vs-parallel wall-clock ratios measure scheduler overhead, not
/// scaling. The step-counter metrics (atom-steps, primitive steps,
/// memo hits) are host-independent and remain meaningful.
pub fn parallelism_caveat() -> Option<String> {
    let threads = host_threads();
    (threads <= 1).then(|| {
        format!(
            "note: host reports {threads} hardware thread(s) — parallel-vs-serial \
             wall-clock scaling numbers are NOT meaningful on this machine; \
             trust the step-counter columns, which are host-independent"
        )
    })
}

/// The host's hardware threads (1 when unknown): the worker count of the
/// tables' parallel columns. Exploration itself is serial by default, so
/// a parallel column is always an explicit reading of the host.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Appends [`parallelism_caveat`] (when it applies) to a rendered table.
fn push_caveat(out: &mut String) {
    if let Some(caveat) = parallelism_caveat() {
        out.push_str(&caveat);
        out.push('\n');
    }
}

/// Renders the comparison for a family of schedule lengths.
pub fn render_scaling(lens: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let workers = host_threads();
    let _ = writeln!(
        out,
        "B1 — compositional vs. monolithic exploration, serial vs. parallel engine \
         (2 participants, {workers} workers)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>14} {:>8} {:>12} {:>12} {:>12} {:>8}",
        "len", "monolithic", "compositional", "cases", "serial", "parallel", "par+dedup", "speedup"
    );
    for &len in lens {
        let row = compositional_row_tuned(len, workers);
        let speedup =
            row.compositional_time.as_secs_f64() / row.parallel_dedup_time.as_secs_f64().max(1e-9);
        let _ = writeln!(
            out,
            "{:>4} {:>12} {:>14} {:>8} {:>12?} {:>12?} {:>12?} {:>7.2}x",
            row.schedule_len,
            row.monolithic_contexts,
            row.compositional_contexts,
            row.cases,
            row.compositional_time,
            row.parallel_time,
            row.parallel_dedup_time,
            speedup
        );
    }
    push_caveat(&mut out);
    out
}

/// One row of the partial-order-reduction study (experiment B2): the same
/// certification run over the full schedule grid and over the sleep-set
/// reduced grid, on serial and parallel engines.
#[derive(Debug, Clone)]
pub struct PorRow {
    /// Schedule prefix length.
    pub schedule_len: usize,
    /// Full grid size (`|domain|^len` contexts).
    pub grid: usize,
    /// Cases actually executed with POR on (canonical representatives).
    pub explored: usize,
    /// Cases skipped as invalid contexts with POR on.
    pub skipped: usize,
    /// Cases skipped as trace-equivalent with POR on.
    pub reduced: usize,
    /// Serial wall time, POR off.
    pub serial_full: Duration,
    /// Serial wall time, POR on.
    pub serial_por: Duration,
    /// Parallel wall time, POR off.
    pub parallel_full: Duration,
    /// Parallel wall time, POR on.
    pub parallel_por: Duration,
    /// Worker threads used for the parallel runs.
    pub workers: usize,
}

impl PorRow {
    /// Grid-shrink factor: all grid cases over the cases POR left to run.
    pub fn shrink(&self) -> f64 {
        let run = (self.explored + self.skipped).max(1);
        (self.explored + self.skipped + self.reduced) as f64 / run as f64
    }
}

/// One timed ticket-lock certification on the B2 configuration: the
/// focused participant runs `acq`/`rel` on the kernel stack's ticket lock
/// while a ticket contender and two scratch threads (touching disjoint
/// locations) fill out a four-pid scheduler domain. The contender and the
/// scratch threads declare disjoint footprints, so the sleep-set reduction
/// collapses their interleavings; the focused pid stays opaque.
fn certify_por(
    schedule_len: usize,
    workers: usize,
    por: bool,
) -> (usize, usize, usize, usize, Duration) {
    use ccal_core::strategy::ScratchPlayer;
    let b = Loc(0);
    let m1 = m1_module().expect("M1 parses");
    let gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 1)))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
        .with_schedule_len(schedule_len)
        // The reduction only marks full (unsampled) grids, so give the
        // generator room for the whole `4^len` space.
        .with_max_contexts(4_usize.pow(schedule_len as u32))
        .with_por(por);
    let contexts = gen.contexts();
    let grid = contexts.len();
    let start = Instant::now();
    let opts = CheckOptions::new(contexts)
        .with_workload("acq", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workload("rel", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workers(workers)
        .with_por(por);
    let layer = check_fun(
        &l0_interface(),
        &m1,
        &lock_low_interface(),
        &SimRelation::identity(),
        Pid(0),
        &opts,
    )
    .expect("B2 certification succeeds");
    let elapsed = start.elapsed();
    (
        grid,
        layer.certificate.total_cases(),
        layer.certificate.total_skipped(),
        layer.certificate.total_reduced(),
        elapsed,
    )
}

/// Runs the B2 comparison at one schedule length: serial runs with POR
/// off and on, then the same two with `workers` workers.
///
/// # Panics
///
/// Panics if certification fails or the POR run diverges from the full
/// grid in explored-case accounting.
pub fn por_row_tuned(schedule_len: usize, workers: usize) -> PorRow {
    let (grid, explored, skipped, reduced, serial_por) = certify_por(schedule_len, 1, true);
    let (grid_f, full_cases, full_skipped, zero, serial_full) =
        certify_por(schedule_len, 1, false);
    assert_eq!(grid, grid_f, "grid size must not depend on POR");
    assert_eq!(zero, 0, "POR off must reduce nothing");
    assert_eq!(
        explored + skipped + reduced,
        full_cases + full_skipped,
        "canonical + skipped + reduced must account for every full-grid case"
    );
    let (_, _, _, _, parallel_por) = certify_por(schedule_len, workers, true);
    let (_, _, _, _, parallel_full) = certify_por(schedule_len, workers, false);
    PorRow {
        schedule_len,
        grid,
        explored,
        skipped,
        reduced,
        serial_full,
        serial_por,
        parallel_full,
        parallel_por,
        workers,
    }
}

/// Renders the B2 table for a family of schedule lengths.
pub fn render_por(lens: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let workers = host_threads();
    let _ = writeln!(
        out,
        "B2 — sleep-set partial-order reduction on the ticket-lock grid \
         (4-pid domain, {workers} workers)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>9} {:>8} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "len", "grid", "explored", "reduced", "shrink", "ser/full", "ser/por", "par/full", "par/por"
    );
    for &len in lens {
        let row = por_row_tuned(len, workers);
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>9} {:>8} {:>6.2}x {:>12?} {:>12?} {:>12?} {:>12?}",
            row.schedule_len,
            row.grid,
            row.explored,
            row.reduced,
            row.shrink(),
            row.serial_full,
            row.serial_por,
            row.parallel_full,
            row.parallel_por,
        );
    }
    push_caveat(&mut out);
    out
}

/// One timed *client-layer* certification (`L1 ⊢ M2 : L2` via `R2`) on
/// the widened-POR configuration: the focused participant runs `foo`
/// while a `foo`-shaped contender and two scratch threads fill out a
/// four-pid domain. The contender's bursts contain `Prim` events (`f`,
/// `g`). A `Prim` event's footprint is global unless its player declares
/// otherwise, which would license *no* reduction against the scratch
/// threads; the contender declares its `f`/`g` empty
/// (`Strategy::footprints_of_prim`), so the whole alphabet is local to the
/// lock and the sleep sets prune the contender/scratch interleavings too.
fn certify_client_por(
    schedule_len: usize,
    workers: usize,
    por: bool,
) -> (usize, usize, usize, usize, Duration) {
    use ccal_core::strategy::ScratchPlayer;
    let b = Loc(0);
    let m2 = ccal_clightx::clightx_module("M2", M2_SOURCE).expect("M2 parses");
    let gen = ContextGen::new(vec![Pid(0), Pid(1), Pid(2), Pid(3)])
        .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), b, 1)))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_player(Pid(3), Arc::new(ScratchPlayer::new(Pid(3), Loc(101))))
        .with_schedule_len(schedule_len)
        .with_max_contexts(4_usize.pow(schedule_len as u32))
        .with_por(por);
    let contexts = gen.contexts();
    let grid = contexts.len();
    let start = Instant::now();
    let opts = CheckOptions::new(contexts)
        .with_workload("foo", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workers(workers)
        .with_por(por);
    let layer = check_fun(
        &lock_interface(),
        &m2,
        &l2_interface(),
        &r2_relation(),
        Pid(0),
        &opts,
    )
    .expect("widened-B2 certification succeeds");
    let elapsed = start.elapsed();
    (
        grid,
        layer.certificate.total_cases(),
        layer.certificate.total_skipped(),
        layer.certificate.total_reduced(),
        elapsed,
    )
}

/// Runs the widened-B2 comparison (client layer, `Prim`-emitting
/// contender) at one schedule length, with `workers` workers for the
/// parallel runs.
///
/// # Panics
///
/// As [`por_row_tuned`].
pub fn por_widened_row_tuned(schedule_len: usize, workers: usize) -> PorRow {
    let (grid, explored, skipped, reduced, serial_por) = certify_client_por(schedule_len, 1, true);
    let (grid_f, full_cases, full_skipped, zero, serial_full) =
        certify_client_por(schedule_len, 1, false);
    assert_eq!(grid, grid_f, "grid size must not depend on POR");
    assert_eq!(zero, 0, "POR off must reduce nothing");
    assert_eq!(
        explored + skipped + reduced,
        full_cases + full_skipped,
        "canonical + skipped + reduced must account for every full-grid case"
    );
    let (_, _, _, _, parallel_por) = certify_client_por(schedule_len, workers, true);
    let (_, _, _, _, parallel_full) = certify_client_por(schedule_len, workers, false);
    PorRow {
        schedule_len,
        grid,
        explored,
        skipped,
        reduced,
        serial_full,
        serial_por,
        parallel_full,
        parallel_por,
        workers,
    }
}

/// Renders the widened-B2 table (declared `Prim` footprints) for a family
/// of schedule lengths.
pub fn render_por_widened(lens: &[usize]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let workers = host_threads();
    let _ = writeln!(
        out,
        "B2w — sleep-set reduction with declared `Prim` footprints, client-layer grid \
         (foo contender + 2 scratch threads, 4-pid domain, {workers} workers)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>8} {:>9} {:>8} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "len", "grid", "explored", "reduced", "shrink", "ser/full", "ser/por", "par/full", "par/por"
    );
    for &len in lens {
        let row = por_widened_row_tuned(len, workers);
        let _ = writeln!(
            out,
            "{:>4} {:>8} {:>9} {:>8} {:>6.2}x {:>12?} {:>12?} {:>12?} {:>12?}",
            row.schedule_len,
            row.grid,
            row.explored,
            row.reduced,
            row.shrink(),
            row.serial_full,
            row.serial_por,
            row.parallel_full,
            row.parallel_por,
        );
    }
    push_caveat(&mut out);
    out
}

/// One row of the prefix-sharing study (experiment B5): the same
/// certification run with the lower-run prefix trie on and off, with the
/// work measured in *atom-steps* (machine steps plus emitted events — the
/// counter the engine increments for every executed lower run) rather
/// than wall-clock alone, so the comparison is robust on noisy or
/// single-core hosts.
#[derive(Debug, Clone)]
pub struct PrefixRow {
    /// Schedule prefix length.
    pub schedule_len: usize,
    /// Contexts in the (3-pid) grid.
    pub grid: usize,
    /// Checking cases discharged (identical with sharing on and off).
    pub cases: usize,
    /// Atom-steps executed with prefix sharing off (serial engine).
    pub steps_full: u64,
    /// Atom-steps executed with prefix sharing on, deep sharing off
    /// (serial engine).
    pub steps_shared: u64,
    /// Atom-steps executed with prefix *and* deep (query-point snapshot)
    /// sharing on (serial engine) — experiment B5d.
    pub steps_deep: u64,
    /// Memoized lower-run reuses with sharing on (serial engine).
    pub shared_hits: u64,
    /// Mid-run query-point resumes with deep sharing on (serial engine).
    pub deep_hits: u64,
    /// Serial wall time, sharing off.
    pub serial_full: Duration,
    /// Serial wall time, sharing on (deep off).
    pub serial_shared: Duration,
    /// Serial wall time, sharing and deep sharing on.
    pub serial_deep: Duration,
    /// Parallel wall time, sharing off.
    pub parallel_full: Duration,
    /// Parallel wall time, sharing on.
    pub parallel_shared: Duration,
    /// Worker threads used for the parallel runs.
    pub workers: usize,
}

impl PrefixRow {
    /// Shared-over-full atom-step ratio — the fraction of lower-machine
    /// work the trie could *not* share (lower is better; 1.0 means no
    /// sharing).
    pub fn step_ratio(&self) -> f64 {
        self.steps_shared as f64 / self.steps_full.max(1) as f64
    }

    /// Deep-over-full atom-step ratio (B5d): lower-machine work left after
    /// query-point snapshot forking on top of the boundary trie.
    pub fn deep_ratio(&self) -> f64 {
        self.steps_deep as f64 / self.steps_full.max(1) as f64
    }
}

/// One timed client-layer certification on the B5 configuration (`L1 ⊢
/// M2 : L2` via `R2`: the focused participant runs `foo` — whose critical
/// section suppresses query points (§2), so a run consumes only the
/// schedule slots up to its lock acquisition — against a `foo`-shaped
/// contender and one scratch thread over a 3-pid scheduler domain),
/// returning the discharged cases, the atom-steps and memo hits recorded
/// by the engine's process-global counters, and the wall time.
///
/// The counters are process-global, so callers that want meaningful step
/// counts must not run other checks concurrently (the bench binary and
/// the serial rows here are fine; unit tests assert only
/// monotone/structural facts).
fn certify_prefix(
    schedule_len: usize,
    workers: usize,
    share: bool,
    deep: bool,
) -> (usize, u64, u64, u64, Duration) {
    use ccal_core::strategy::ScratchPlayer;
    let b = Loc(0);
    let m2 = ccal_clightx::clightx_module("M2", M2_SOURCE).expect("M2 parses");
    let contexts = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), b, 1)))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_schedule_len(schedule_len)
        .with_max_contexts(3_usize.pow(schedule_len as u32))
        .contexts();
    ccal_core::prefix::steps_reset();
    let start = Instant::now();
    let opts = CheckOptions::new(contexts)
        .with_workload("foo", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workers(workers)
        .with_prefix_share(share)
        .with_deep_share(deep);
    let layer = check_fun(
        &lock_interface(),
        &m2,
        &l2_interface(),
        &r2_relation(),
        Pid(0),
        &opts,
    )
    .expect("B5 certification succeeds");
    let elapsed = start.elapsed();
    (
        layer.certificate.total_cases(),
        ccal_core::prefix::steps_total(),
        ccal_core::prefix::shared_total(),
        ccal_core::prefix::deep_total(),
        elapsed,
    )
}

/// Runs the B5 comparison at one schedule length, with `workers` workers
/// for the parallel runs. Step counts and memo hits are taken from the serial runs, where they
/// are deterministic (parallel workers may race to a prefix before the
/// first result lands in the trie).
///
/// # Panics
///
/// Panics if certification fails or the shared run diverges from the full
/// run in discharged cases.
pub fn prefix_row_tuned(schedule_len: usize, workers: usize) -> PrefixRow {
    let grid = 3_usize.pow(schedule_len as u32);
    let (cases, steps_shared, shared_hits, _, serial_shared) =
        certify_prefix(schedule_len, 1, true, false);
    let (deep_cases, steps_deep, _, deep_hits, serial_deep) =
        certify_prefix(schedule_len, 1, true, true);
    let (full_cases, steps_full, full_hits, full_deep, serial_full) =
        certify_prefix(schedule_len, 1, false, false);
    assert_eq!(cases, full_cases, "sharing changed the discharged cases");
    assert_eq!(cases, deep_cases, "deep sharing changed the discharged cases");
    assert_eq!(full_hits, 0, "sharing off must not hit the memo");
    assert_eq!(full_deep, 0, "sharing off must not resume snapshots");
    let (_, _, _, _, parallel_shared) = certify_prefix(schedule_len, workers, true, false);
    let (_, _, _, _, parallel_full) = certify_prefix(schedule_len, workers, false, false);
    PrefixRow {
        schedule_len,
        grid,
        cases,
        steps_full,
        steps_shared,
        steps_deep,
        shared_hits,
        deep_hits,
        serial_full,
        serial_shared,
        serial_deep,
        parallel_full,
        parallel_shared,
        workers,
    }
}

/// Renders the B5 table for a family of schedule lengths.
pub fn render_prefix(lens: &[usize]) -> String {
    let workers = host_threads();
    render_prefix_rows(
        &lens
            .iter()
            .map(|&l| prefix_row_tuned(l, workers))
            .collect::<Vec<_>>(),
    )
}

/// Renders already-computed B5 rows (so callers can also assert on them
/// without re-running the certifications).
pub fn render_prefix_rows(rows: &[PrefixRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let workers = rows.first().map_or(0, |r| r.workers);
    let _ = writeln!(
        out,
        "B5/B5d — prefix-sharing lower-run exploration on the client-layer grid \
         (foo contender + scratch thread, 3-pid domain, {workers} workers; \
         steps = atom-steps, serial engine; `deep` = query-point snapshot trie)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>7} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6} {:>6} {:>12} {:>12} {:>12}",
        "len",
        "grid",
        "cases",
        "steps/full",
        "steps/share",
        "steps/deep",
        "hits",
        "d-hits",
        "ratio",
        "d-rat",
        "ser/full",
        "ser/share",
        "ser/deep"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>7} {:>12} {:>12} {:>12} {:>7} {:>7} {:>5.2} {:>5.2} {:>12?} {:>12?} {:>12?}",
            row.schedule_len,
            row.grid,
            row.cases,
            row.steps_full,
            row.steps_shared,
            row.steps_deep,
            row.shared_hits,
            row.deep_hits,
            row.step_ratio(),
            row.deep_ratio(),
            row.serial_full,
            row.serial_shared,
            row.serial_deep,
        );
    }
    push_caveat(&mut out);
    out
}

/// One row of the deep-sharing study (experiment B5d) on the
/// *interpreted* ticket stack — the workload PR 4's whole-outcome memo
/// cannot reach: `acq` fetches a ticket and then spins on `get_n`,
/// querying the environment between polls, so a run consumes most of its
/// script and rarely shares a whole consumed prefix. Query-point
/// snapshots cut inside the spin loop: every poll is a fork point, so two
/// contexts agreeing on the first `k` schedule digits pay for those `k`
/// digits once, machine-state included.
#[derive(Debug, Clone)]
pub struct DeepRow {
    /// Schedule prefix length.
    pub schedule_len: usize,
    /// Contexts in the (3-pid) grid.
    pub grid: usize,
    /// Checking cases discharged (identical across all three engines).
    pub cases: usize,
    /// Atom-steps with sharing off entirely.
    pub steps_full: u64,
    /// Atom-steps with whole-outcome + boundary sharing (PR-4 tier).
    pub steps_shared: u64,
    /// Atom-steps with query-point snapshot sharing on top.
    pub steps_deep: u64,
    /// Whole-outcome/boundary reuses in the deep run.
    pub shared_hits: u64,
    /// Mid-run query-point resumes in the deep run.
    pub deep_hits: u64,
    /// Serial wall time, boundary sharing only.
    pub serial_shared: Duration,
    /// Serial wall time, deep sharing on.
    pub serial_deep: Duration,
}

impl DeepRow {
    /// The B5d acceptance metric: deep-share atom-steps over
    /// boundary-share atom-steps — the work the query-point trie removes
    /// *beyond* what PR 4's sharing already removed.
    pub fn deep_over_shared(&self) -> f64 {
        self.steps_deep as f64 / self.steps_shared.max(1) as f64
    }

    /// Deep-share atom-steps over the memo-free baseline.
    pub fn deep_over_full(&self) -> f64 {
        self.steps_deep as f64 / self.steps_full.max(1) as f64
    }
}

/// One serial interpreted-ticket certification (`L0 ⊢ M1 : L1`, `acq` +
/// `rel` workloads, ticket contender + scratch thread over a 3-pid
/// domain) with the sharing tiers set explicitly, returning discharged
/// cases, the process-global step/reuse counters, and wall time.
fn certify_ticket_prefix(
    schedule_len: usize,
    share: bool,
    deep: bool,
) -> (usize, u64, u64, u64, Duration) {
    use ccal_core::strategy::ScratchPlayer;
    let b = Loc(0);
    let m1 = m1_module().expect("M1 parses");
    let contexts = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 1)))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(100))))
        .with_schedule_len(schedule_len)
        .with_max_contexts(3_usize.pow(schedule_len as u32))
        .contexts();
    ccal_core::prefix::steps_reset();
    let start = Instant::now();
    let opts = CheckOptions::new(contexts)
        .with_workload("acq", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workload("rel", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workers(1)
        .with_prefix_share(share)
        .with_deep_share(deep);
    let layer = check_fun(
        &l0_interface(),
        &m1,
        &lock_low_interface(),
        &SimRelation::identity(),
        Pid(0),
        &opts,
    )
    .expect("B5d certification succeeds");
    let elapsed = start.elapsed();
    (
        layer.certificate.total_cases(),
        ccal_core::prefix::steps_total(),
        ccal_core::prefix::shared_total(),
        ccal_core::prefix::deep_total(),
        elapsed,
    )
}

/// Runs the B5d comparison at one schedule length (serial engine — the
/// step counters are the metric and they are only deterministic there).
///
/// # Panics
///
/// Panics if certification fails or any sharing tier changes the
/// discharged cases.
pub fn deep_row(schedule_len: usize) -> DeepRow {
    let grid = 3_usize.pow(schedule_len as u32);
    let (cases, steps_shared, _, boundary_deep, serial_shared) =
        certify_ticket_prefix(schedule_len, true, false);
    assert_eq!(boundary_deep, 0, "deep off must not resume snapshots");
    let (deep_cases, steps_deep, shared_hits, deep_hits, serial_deep) =
        certify_ticket_prefix(schedule_len, true, true);
    let (full_cases, steps_full, full_hits, _, _) = certify_ticket_prefix(schedule_len, false, false);
    assert_eq!(cases, deep_cases, "deep sharing changed the discharged cases");
    assert_eq!(cases, full_cases, "sharing changed the discharged cases");
    assert_eq!(full_hits, 0, "sharing off must not hit the memo");
    DeepRow {
        schedule_len,
        grid,
        cases,
        steps_full,
        steps_shared,
        steps_deep,
        shared_hits,
        deep_hits,
        serial_shared,
        serial_deep,
    }
}

/// Renders already-computed B5d rows.
pub fn render_deep_rows(rows: &[DeepRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "B5d — query-point snapshot trie on the interpreted ticket stack \
         (acq spin loop, ticket contender + scratch thread, 3-pid domain, \
         serial engine; ratio = deep/share atom-steps)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>7} {:>12} {:>12} {:>12} {:>7} {:>7} {:>6} {:>12} {:>12}",
        "len",
        "grid",
        "cases",
        "steps/full",
        "steps/share",
        "steps/deep",
        "hits",
        "d-hits",
        "ratio",
        "ser/share",
        "ser/deep"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>7} {:>12} {:>12} {:>12} {:>7} {:>7} {:>5.2} {:>12?} {:>12?}",
            row.schedule_len,
            row.grid,
            row.cases,
            row.steps_full,
            row.steps_shared,
            row.steps_deep,
            row.shared_hits,
            row.deep_hits,
            row.deep_over_shared(),
            row.serial_shared,
            row.serial_deep,
        );
    }
    out
}

/// One row of the execution-tier study (experiment B6): the same
/// interpreted-ticket certification (`L0 ⊢ M1 : L′1`, `acq` + `rel`
/// workloads) on the compiled bytecode VM vs. the tree-walking
/// interpreter, with the work measured in *primitive steps* — the
/// per-tier unit of ClightX execution (retired VM instructions vs.
/// popped interpreter work items), counted against the same step budget
/// by both tiers — so the comparison is host-independent.
#[derive(Debug, Clone)]
pub struct BytecodeRow {
    /// Schedule prefix length.
    pub schedule_len: usize,
    /// Contexts in the (3-pid) grid.
    pub grid: usize,
    /// Checking cases discharged (identical across tiers — the tiers are
    /// bit-identical in verdicts and logs).
    pub cases: usize,
    /// Primitive steps retired by the bytecode VM.
    pub prim_steps_vm: u64,
    /// Primitive steps consumed by the interpreter.
    pub prim_steps_interp: u64,
    /// Atom-steps (machine steps + events) on the VM run — tier-invariant
    /// by construction; recorded so drift is visible.
    pub atom_steps_vm: u64,
    /// Atom-steps on the interpreter run.
    pub atom_steps_interp: u64,
    /// Serial wall time on the VM tier.
    pub serial_vm: Duration,
    /// Serial wall time on the interpreter tier.
    pub serial_interp: Duration,
}

impl BytecodeRow {
    /// The B6 acceptance metric: VM primitive steps over interpreter
    /// primitive steps (lower is better; the spin loop compiles to two
    /// retired instructions per iteration against the interpreter's four
    /// work items, so ≈0.5 is the expected regime).
    pub fn prim_step_ratio(&self) -> f64 {
        self.prim_steps_vm as f64 / self.prim_steps_interp.max(1) as f64
    }
}

/// One serial ticket certification with the ClightX tier set explicitly
/// (sharing off, so the primitive-step counters reflect pure execution
/// work), returning discharged cases, primitive steps, atom-steps and
/// wall time. The context family is the *contended* regime — two ticket
/// contenders, `acq` workload — because B6 measures the hot path: the
/// spin loop, where the compiled tier's two retired instructions per
/// poll replace the interpreter's four work-item pops.
fn certify_ticket_tier(schedule_len: usize, bytecode: bool) -> (usize, u64, u64, Duration) {
    let b = Loc(0);
    let m1 = m1_module().expect("M1 parses");
    let contexts = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 1)))
        .with_player(Pid(2), Arc::new(TicketEnvPlayer::new(Pid(2), b, 1)))
        .with_schedule_len(schedule_len)
        .with_max_contexts(3_usize.pow(schedule_len as u32))
        .contexts();
    ccal_core::prefix::steps_reset();
    let start = Instant::now();
    let opts = CheckOptions::new(contexts)
        .with_workload("acq", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workload("rel", vec![vec![ccal_core::val::Val::Loc(b)]])
        .with_workers(1);
    // The tier is process-wide, read when each primitive is instantiated.
    let _tier = ccal_core::prefix::BytecodeOverride::force(bytecode);
    let layer = check_fun(
        &l0_interface(),
        &m1,
        &lock_low_interface(),
        &SimRelation::identity(),
        Pid(0),
        &opts,
    )
    .expect("B6 certification succeeds");
    let elapsed = start.elapsed();
    (
        layer.certificate.total_cases(),
        ccal_core::prefix::prim_steps_total(),
        ccal_core::prefix::steps_total(),
        elapsed,
    )
}

/// Runs the B6 comparison at one schedule length (serial engine — the
/// step counters are the metric and they are only deterministic there).
///
/// # Panics
///
/// Panics if certification fails or the tiers disagree on the discharged
/// cases. Atom-step equality (the runs are bit-identical at the machine
/// level) is asserted by the bench binary, which owns the process-global
/// counters; unit tests sharing the process assert only structural facts.
pub fn bytecode_row(schedule_len: usize) -> BytecodeRow {
    let grid = 3_usize.pow(schedule_len as u32);
    let (cases, prim_steps_vm, atom_steps_vm, serial_vm) =
        certify_ticket_tier(schedule_len, true);
    let (interp_cases, prim_steps_interp, atom_steps_interp, serial_interp) =
        certify_ticket_tier(schedule_len, false);
    assert_eq!(cases, interp_cases, "the tier changed the discharged cases");
    BytecodeRow {
        schedule_len,
        grid,
        cases,
        prim_steps_vm,
        prim_steps_interp,
        atom_steps_vm,
        atom_steps_interp,
        serial_vm,
        serial_interp,
    }
}

/// Renders already-computed B6 rows.
pub fn render_bytecode_rows(rows: &[BytecodeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "B6 — compiled ClightX tier on the ticket stack (acq spin loop, \
         two ticket contenders, 3-pid domain, serial engine; \
         ratio = vm/interp primitive steps)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>7} {:>12} {:>12} {:>6} {:>12} {:>12}",
        "len", "grid", "cases", "prim/vm", "prim/interp", "ratio", "ser/vm", "ser/interp"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>7} {:>12} {:>12} {:>5.2} {:>12?} {:>12?}",
            row.schedule_len,
            row.grid,
            row.cases,
            row.prim_steps_vm,
            row.prim_steps_interp,
            row.prim_step_ratio(),
            row.serial_vm,
            row.serial_interp,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn por_shrinks_the_kernel_stack_grid_at_least_twofold() {
        let _counters = crate::counter_lock();
        let row = por_row_tuned(5, 2);
        assert_eq!(row.grid, 4_usize.pow(5));
        assert!(row.reduced > 0, "independent players must license pruning");
        assert!(
            row.shrink() >= 2.0,
            "B2 acceptance: ≥2× shrink, got {:.2}x",
            row.shrink()
        );
    }

    #[test]
    fn declared_f_g_footprints_widen_the_client_layer_reduction() {
        let _counters = crate::counter_lock();
        let row = por_widened_row_tuned(5, 2);
        assert_eq!(row.grid, 4_usize.pow(5));
        assert!(
            row.reduced > 0,
            "the foo contender's declared f/g footprints must license pruning \
             against the scratch threads"
        );
        assert!(
            row.shrink() >= 2.0,
            "B2w acceptance: ≥2× shrink, got {:.2}x",
            row.shrink()
        );
    }

    #[test]
    fn prefix_sharing_reuses_lower_runs_and_preserves_evidence() {
        let _counters = crate::counter_lock();
        // Case counts and the zero-hit sharing-off baseline are asserted
        // inside `prefix_row_tuned`; the step counters are process-global,
        // so every checker-running test in this crate holds
        // `counter_lock`. The hard ≤50 % step-ratio acceptance lives in
        // the `prefix_sharing` bench binary, which owns its process.
        let row = prefix_row_tuned(4, 2);
        assert_eq!(row.grid, 81);
        assert!(row.cases > 0);
        assert!(
            row.shared_hits > 0,
            "the trie must reuse at least one lower run on the 3^4 grid"
        );
    }

    #[test]
    fn query_point_snapshots_cut_into_the_ticket_spin() {
        let _counters = crate::counter_lock();
        // As above: only structural facts here (the step counters are
        // process-global); the hard ≤0.7 deep/share gate lives in the
        // `prefix_sharing` bench binary.
        let row = deep_row(3);
        assert_eq!(row.grid, 27);
        assert!(row.cases > 0);
        assert!(
            row.deep_hits > 0,
            "the snapshot trie must resume at least one mid-spin run on the 3^3 grid"
        );
    }

    #[test]
    fn the_bytecode_tier_retires_fewer_primitive_steps() {
        let _counters = crate::counter_lock();
        // As with the sharing rows: only monotone/structural facts here
        // (the step counters are process-global); the hard ≤0.6 prim-step
        // gate lives in the `bytecode_vm` bench binary.
        let row = bytecode_row(3);
        assert_eq!(row.grid, 27);
        assert!(row.cases > 0);
        assert!(
            row.prim_steps_vm < row.prim_steps_interp,
            "the VM must retire fewer primitive steps than the interpreter pops \
             work items (vm {} vs interp {})",
            row.prim_steps_vm,
            row.prim_steps_interp
        );
    }

    #[test]
    fn compositional_space_is_exponentially_smaller() {
        let _counters = crate::counter_lock();
        let row = compositional_row_tuned(3, 2);
        assert_eq!(row.monolithic_contexts, 64);
        assert_eq!(row.compositional_contexts, 16, "2 × 2^3");
        assert!(row.cases > 0);
        // The gap widens with the bound.
        let row5 = compositional_row_tuned(5, 2);
        assert!(
            row5.monolithic_contexts / row5.compositional_contexts
                > row.monolithic_contexts / row.compositional_contexts
        );
    }
}
