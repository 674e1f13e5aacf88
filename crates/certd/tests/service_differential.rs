//! Service differential suite: the daemon's verdicts, evidence, and
//! accounting must be bit-identical to in-process runs.
//!
//! Three layers of comparison:
//!
//! 1. **Daemon vs registry** — a certify request answered by the daemon
//!    (local runner, shards, chunked or not) must reproduce the per-unit
//!    case counts, failure strings, and — for serial one-chunk configs —
//!    the prefix step-counter deltas of calling `registry::run_unit`
//!    directly, across `workers × por × prefix/deep` engine configs.
//! 2. **Registry vs paper pipelines** — the registry's unit
//!    decomposition must reproduce the per-obligation accounting of
//!    `certify_ticket_stack_tuned` / `certify_qlock`, so the service
//!    certifies exactly the Fig. 9 obligations, not an approximation.
//! 3. **Fault injection** — shards dying mid-lease (the in-process
//!    stand-in for `kill -9`) change retries accounting only, never the
//!    verdict or the index-least evidence; cache hits answer with zero
//!    exploration steps (counter-asserted on the daemon's own engine).

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ccal_certd::coordinator::{Daemon, DaemonOptions};
use ccal_certd::proto::Addr;
use ccal_certd::registry::{self, UnitOutcome};
use ccal_certd::shard::{run_shard, ShardExit, ShardOptions};
use ccal_certd::spec::{CertParams, CertRequest, CertResponse};
use ccal_certd::store::CertStore;
use ccal_core::contexts::ContextGen;
use ccal_core::engine;
use ccal_core::id::{Loc, Pid};
use ccal_objects::{qlock, ticket};

fn fresh_daemon() -> (Daemon, Addr) {
    let opts = DaemonOptions {
        store: CertStore::in_memory(),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::serve(opts, Some("127.0.0.1:0"), None).expect("daemon binds");
    let addr = Addr::Tcp(daemon.tcp_addr().expect("tcp listener").to_owned());
    (daemon, addr)
}

/// Spawns an in-process shard thread. Honest shards are not joined —
/// they poll until the test process exits; fault-injected shards return
/// and should be joined by the caller.
fn spawn_shard(addr: &Addr, opts: ShardOptions) -> thread::JoinHandle<ShardExit> {
    let addr = addr.clone();
    thread::spawn(move || run_shard(&addr, &opts).expect("shard connects"))
}

fn wait_for_shards(daemon: &Daemon, n: usize) {
    for _ in 0..200 {
        if daemon.shard_count() >= n {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("{n} shard(s) never connected");
}

fn params(workers: usize, por: bool, prefix_share: bool, deep_share: bool) -> CertParams {
    let mut p = CertParams::default();
    p.workers = workers;
    p.por = por;
    p.prefix_share = prefix_share;
    p.deep_share = deep_share;
    p
}

/// An uncached, cold request: pure exploration through the daemon.
fn cold_request(stack: &str, params: &CertParams) -> CertRequest {
    let mut req = CertRequest::new(stack);
    req.params = params.clone();
    req.use_cache = false;
    req.warm = false;
    req
}

/// One unit's in-process baseline: the registry outcome plus the deltas
/// of the test thread's engine counters.
struct BaselineUnit {
    name: String,
    outcome: UnitOutcome,
    steps: u64,
    prim_steps: u64,
}

/// Runs a stack in process, unit by unit, stopping at the first failure
/// exactly as `check_fun` (and the daemon) do.
fn baseline(stack: &str, params: &CertParams) -> Vec<BaselineUnit> {
    let defs = registry::stack_units(stack, params).expect("stack resolves");
    let mut out = Vec::new();
    for def in &defs {
        let before = engine::totals();
        let outcome = registry::run_unit(stack, &def.name, params, None, None).expect("unit runs");
        let after = engine::totals();
        let failed = outcome.failure.is_some();
        out.push(BaselineUnit {
            name: def.name.clone(),
            outcome,
            steps: after.steps - before.steps,
            prim_steps: after.prim_steps - before.prim_steps,
        });
        if failed {
            break;
        }
    }
    out
}

/// Asserts a daemon response reproduces the in-process baseline:
/// verdict, per-unit counts, failure evidence, and — when `count_steps`
/// (serial, one chunk per unit, so the bracketed deltas are
/// deterministic) — the step counters themselves.
fn assert_matches_baseline(
    label: &str,
    resp: &CertResponse,
    base: &[BaselineUnit],
    count_steps: bool,
) {
    let base_failure = base.last().and_then(|b| b.outcome.failure.clone());
    assert_eq!(resp.certified, base_failure.is_none(), "{label}: verdict");
    assert_eq!(resp.failure, base_failure, "{label}: failure evidence");
    assert_eq!(resp.units.len(), base.len(), "{label}: unit count");
    for (u, b) in resp.units.iter().zip(base) {
        let l = format!("{label}: unit {}", b.name);
        assert_eq!(u.unit, b.name, "{l}: name");
        assert!(!u.cache_hit, "{l}: cold request must not hit the cache");
        assert_eq!(u.failure, b.outcome.failure, "{l}: failure");
        // Case accounting is only comparable for passing units: the
        // in-process `Err` path discards counts, while a chunked fold
        // legitimately sums the completed windows below the failure cut.
        if b.outcome.failure.is_none() {
            assert_eq!(u.cases_checked, b.outcome.cases_checked, "{l}: checked");
            assert_eq!(u.cases_skipped, b.outcome.cases_skipped, "{l}: skipped");
            assert_eq!(u.cases_reduced, b.outcome.cases_reduced, "{l}: reduced");
        }
        if count_steps {
            assert_eq!(u.steps, b.steps, "{l}: step delta");
            assert_eq!(u.prim_steps, b.prim_steps, "{l}: prim step delta");
        }
    }
}

/// Layer 1: the daemon's local runner vs direct registry runs, across
/// engine configs, on the passing ticket and qlock stacks.
#[test]
fn daemon_matches_in_process_runs_across_configs() {
    // (workers, por, prefix_share, deep_share)
    let configs = [
        (1, true, true, true),
        (1, false, true, true),
        (1, true, true, false),
        (1, true, false, false),
        (4, true, true, true),
    ];
    for stack in ["ticket", "qlock"] {
        for (workers, por, share, deep) in configs {
            let label = format!("{stack} workers={workers} por={por} share={share} deep={deep}");
            let p = params(workers, por, share, deep);
            let base = baseline(stack, &p);
            let (daemon, addr) = fresh_daemon();
            let resp =
                ccal_certd::certify(&addr, &cold_request(stack, &p)).expect("daemon answers");
            // Step counters are only chunk-deterministic for serial
            // exploration (workers > 1 interleaves memo population).
            assert_matches_baseline(&label, &resp, &base, workers == 1);
            assert_eq!(resp.cache_hits, 0, "{label}: cold");
            drop(daemon);
        }
    }
}

/// Layer 2: the registry's unit decomposition reproduces the
/// per-obligation accounting of the in-process certification pipelines.
#[test]
fn registry_decomposition_matches_certified_pipelines() {
    let p = CertParams::default();

    // Ticket: fun-lift (4 obligations) ++ log-lift (4) ++ client (1),
    // in BTreeMap primitive order — same as the registry's unit order.
    let b = Loc(0);
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, p.rounds)),
        )
        .with_schedule_len(p.schedule_len)
        .with_por(p.por)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(ticket::FooEnvPlayer::new(Pid(1), b, p.rounds)),
        )
        .with_schedule_len(p.schedule_len)
        .with_por(p.por)
        .contexts();
    let stack = ticket::certify_ticket_stack_tuned(Pid(0), b, low, atomic, p.workers, p.dedup)
        .expect("ticket certifies in process");
    let pipeline: Vec<_> = stack
        .fun_lift
        .certificate
        .obligations()
        .iter()
        .chain(stack.log_lift.certificate.obligations())
        .chain(stack.client_layer.certificate.obligations())
        .collect();
    let units = baseline("ticket", &p);
    assert_eq!(units.len(), pipeline.len(), "obligation count");
    for (u, ob) in units.iter().zip(&pipeline) {
        let l = format!("ticket unit {} vs [{}]", u.name, ob.description);
        assert_eq!(u.outcome.failure, None, "{l}: passes");
        assert_eq!(u.outcome.cases_checked, ob.cases_checked, "{l}: checked");
        assert_eq!(u.outcome.cases_skipped, ob.cases_skipped, "{l}: skipped");
        assert_eq!(u.outcome.cases_reduced, ob.cases_reduced, "{l}: reduced");
    }

    // Qlock: acq_q, rel_q.
    let l = Loc(4);
    let ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(qlock::QlockEnvPlayer::new(Pid(1), l, p.rounds)),
        )
        .with_schedule_len(p.schedule_len)
        .with_por(p.por)
        .contexts();
    let layer = qlock::certify_qlock(Pid(0), l, ctx).expect("qlock certifies in process");
    let units = baseline("qlock", &p);
    assert_eq!(units.len(), layer.certificate.obligations().len());
    for (u, ob) in units.iter().zip(layer.certificate.obligations()) {
        let l = format!("qlock unit {} vs [{}]", u.name, ob.description);
        assert_eq!(u.outcome.failure, None, "{l}: passes");
        assert_eq!(u.outcome.cases_checked, ob.cases_checked, "{l}: checked");
        assert_eq!(u.outcome.cases_skipped, ob.cases_skipped, "{l}: skipped");
        assert_eq!(u.outcome.cases_reduced, ob.cases_reduced, "{l}: reduced");
    }
}

/// Layer 1, sharded: a chunked grid distributed over two healthy shard
/// processes folds back to the exact serial accounting, and all chunks
/// really did run remotely.
#[test]
fn sharded_chunked_ticket_run_is_bit_identical() {
    let p = CertParams::default();
    let base = baseline("ticket", &p);
    let (daemon, addr) = fresh_daemon();
    let _s1 = spawn_shard(&addr, ShardOptions::default());
    let _s2 = spawn_shard(&addr, ShardOptions::default());
    wait_for_shards(&daemon, 2);
    let mut req = cold_request("ticket", &p);
    req.chunk_cases = 3;
    let resp = ccal_certd::certify(&addr, &req).expect("daemon answers");
    // Chunked runs split the prefix-sharing brackets, so only the
    // kernel accounting (counts, verdict, evidence) is compared.
    assert_matches_baseline("sharded ticket", &resp, &base, false);
    for u in &resp.units {
        assert!(u.chunks > 1, "unit {}: grid was chunked", u.unit);
        assert_eq!(
            u.remote_chunks, u.chunks,
            "unit {}: with shards connected the coordinator never runs locally",
            u.unit
        );
    }
}

/// Fault injection: every shard dies upon receiving its first lease
/// (the deterministic stand-in for `kill -9` mid-chunk). The abandoned
/// chunks are re-run — locally, once the shards are gone — and the
/// response is bit-identical to the no-shard baseline, on both a
/// failing stack (index-least evidence) and a passing one.
#[test]
fn killed_shards_change_retries_but_not_the_verdict() {
    let p = CertParams::default();
    for stack in ["scratch", "qlock"] {
        let base = baseline(stack, &p);
        let (daemon, addr) = fresh_daemon();
        let dying1 = spawn_shard(
            &addr,
            ShardOptions {
                exit_after: Some(1),
                ..ShardOptions::default()
            },
        );
        let dying2 = spawn_shard(
            &addr,
            ShardOptions {
                exit_after: Some(1),
                ..ShardOptions::default()
            },
        );
        wait_for_shards(&daemon, 2);
        let mut req = cold_request(stack, &p);
        req.chunk_cases = 1;
        let resp = ccal_certd::certify(&addr, &req).expect("daemon answers");
        assert_matches_baseline(&format!("{stack} with killed shards"), &resp, &base, false);
        let retries: u64 = resp.units.iter().map(|u| u.retries).sum();
        assert!(
            retries >= 1,
            "{stack}: at least one lease was abandoned and re-run (got {retries})"
        );
        assert_eq!(dying1.join().expect("shard thread"), ShardExit::Injected);
        assert_eq!(dying2.join().expect("shard thread"), ShardExit::Injected);
    }
}

/// The scratch failure is index-least regardless of chunking: the
/// single-case chunks fail exactly where the whole-grid kernel fails.
#[test]
fn chunked_failure_evidence_is_index_least() {
    let p = CertParams::default();
    let whole = registry::run_unit("scratch", "op", &p, None, None).expect("runs");
    let whole_failure = whole.failure.expect("scratch fails");
    let (_daemon, addr) = fresh_daemon();
    let mut req = cold_request("scratch", &p);
    req.chunk_cases = 1;
    let resp = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(!resp.certified);
    assert_eq!(resp.failed_unit.as_deref(), Some("op"));
    assert_eq!(resp.failure.as_deref(), Some(whole_failure.as_str()));
}

/// Acceptance: recertifying an unchanged stack is answered from the
/// content-addressed store with ZERO exploration steps — counter
/// asserted on the daemon's engine, which its local runner counts into.
#[test]
fn recertifying_an_unchanged_stack_costs_zero_steps() {
    let p = CertParams::default();
    let (daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("qlock");
    req.params = p.clone();

    let first = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(first.certified);
    assert_eq!(first.cache_hits, 0);
    assert!(first.total_steps > 0, "first run explores");
    let filled = daemon.engine().totals();
    assert_eq!(
        filled.steps, first.total_steps,
        "the daemon counted the fill"
    );

    let second = ccal_certd::certify(&addr, &req).expect("daemon answers");
    let after = daemon.engine().totals();
    assert_eq!(after.steps, filled.steps, "no lower-machine steps ran");
    assert_eq!(
        after.prim_steps, filled.prim_steps,
        "no primitive steps ran"
    );
    assert!(second.certified);
    assert_eq!(second.cache_hits, second.units.len(), "every unit cached");
    assert_eq!(second.total_steps, 0, "cache hits report zero steps");
    for (a, b) in first.units.iter().zip(&second.units) {
        assert!(b.cache_hit, "unit {}: cache hit", b.unit);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "unit {}: same identity",
            b.unit
        );
        assert_eq!(a.cases_checked, b.cases_checked, "unit {}: counts", b.unit);
        assert_eq!(a.cases_skipped, b.cases_skipped, "unit {}: counts", b.unit);
        assert_eq!(a.cases_reduced, b.cases_reduced, "unit {}: counts", b.unit);
    }

    // Failures are cached too — same failure string, zero steps.
    let mut scratch = CertRequest::new("scratch");
    scratch.params = p.clone();
    let f1 = ccal_certd::certify(&addr, &scratch).expect("daemon answers");
    let f2 = ccal_certd::certify(&addr, &scratch).expect("daemon answers");
    assert!(!f1.certified && !f2.certified);
    assert_eq!(
        f1.failure, f2.failure,
        "cached failure evidence is identical"
    );
    assert_eq!(f2.cache_hits, 1);
    assert_eq!(f2.total_steps, 0);

    // A parameter change dirties the fingerprint: no hit, fresh run.
    let mut dirty = CertRequest::new("qlock");
    dirty.params = p.clone();
    dirty.params.schedule_len += 1;
    let third = ccal_certd::certify(&addr, &dirty).expect("daemon answers");
    assert_eq!(third.cache_hits, 0, "changed params miss the cache");
    assert!(third.total_steps > 0);
}

/// Each daemon counts into its own engine: a second in-process daemon's
/// run, and a run on the test thread, leave the first daemon's counters
/// where they were.
#[test]
fn a_second_daemon_does_not_move_the_first_daemons_counters() {
    let (first, first_addr) = fresh_daemon();
    let (second, second_addr) = fresh_daemon();
    let req = cold_request("qlock", &CertParams::default());
    let a = ccal_certd::certify(&first_addr, &req).expect("first daemon answers");
    let filled = first.engine().totals();
    assert_eq!(
        filled.steps, a.total_steps,
        "the first daemon counted its run"
    );
    assert_eq!(filled.decompositions, 1);

    let b = ccal_certd::certify(&second_addr, &req).expect("second daemon answers");
    assert_eq!(b.total_steps, a.total_steps, "identical serial runs");
    assert_eq!(
        second.engine().totals(),
        filled,
        "the second daemon counts the same"
    );
    assert_eq!(
        first.engine().totals(),
        filled,
        "...into its own engine only"
    );

    let here = registry::run_unit("qlock", "acq_q", &CertParams::default(), None, None)
        .expect("unit runs");
    assert!(here.failure.is_none());
    assert_eq!(
        first.engine().totals(),
        filled,
        "test-thread work is not the daemon's"
    );
    assert_eq!(second.engine().totals(), filled);
}

/// The stack-manifest fast path: recertifying a fully-clean stack is
/// answered from the per-stack manifest without asking the registry to
/// decompose the stack at all — counter-asserted on the daemon engine's
/// decomposition counter. Failing stacks never earn a manifest, and a
/// parameter change misses it.
#[test]
fn clean_recertify_skips_registry_decomposition() {
    let p = CertParams::default();
    let (daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("qlock");
    req.params = p.clone();

    let first = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(first.certified);
    assert!(!first.manifest_hit, "a cold run cannot hit the manifest");

    let filled = daemon.engine().totals();
    assert_eq!(
        filled.decompositions, 1,
        "the fill decomposed the stack once"
    );
    let second = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(
        second.manifest_hit,
        "fully-clean stack answers from the manifest"
    );
    assert_eq!(
        daemon.engine().totals(),
        filled,
        "the registry never decomposed the stack and no exploration ran"
    );
    assert!(second.certified);
    assert_eq!(second.cache_hits, second.units.len(), "every unit cached");
    assert_eq!(second.total_steps, 0);
    assert_eq!(first.units.len(), second.units.len());
    for (a, b) in first.units.iter().zip(&second.units) {
        assert!(b.cache_hit, "unit {}: cache hit", b.unit);
        assert_eq!(a.unit, b.unit, "manifest preserves pipeline order");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "unit {}: same identity",
            b.unit
        );
        assert_eq!(a.cases_checked, b.cases_checked, "unit {}: counts", b.unit);
        assert_eq!(a.cases_skipped, b.cases_skipped, "unit {}: counts", b.unit);
        assert_eq!(a.cases_reduced, b.cases_reduced, "unit {}: counts", b.unit);
    }

    // A failing stack never earns a manifest: the recertify re-derives
    // the first-failure evidence through the normal per-unit flow.
    let mut scratch = CertRequest::new("scratch");
    scratch.params = p.clone();
    let f1 = ccal_certd::certify(&addr, &scratch).expect("daemon answers");
    let dec1 = daemon.engine().totals().decompositions;
    let f2 = ccal_certd::certify(&addr, &scratch).expect("daemon answers");
    assert!(!f1.certified && !f2.certified);
    assert!(!f2.manifest_hit, "failing stacks have no manifest");
    assert_eq!(
        daemon.engine().totals().decompositions,
        dec1 + 1,
        "the failing stack was decomposed again"
    );
    assert_eq!(
        f1.failure, f2.failure,
        "evidence unchanged by the fast path"
    );

    // A parameter change misses the manifest key, exactly as it dirties
    // every unit fingerprint.
    let mut dirty = CertRequest::new("qlock");
    dirty.params = p.clone();
    dirty.params.por = false;
    let third = ccal_certd::certify(&addr, &dirty).expect("daemon answers");
    assert!(!third.manifest_hit, "changed params miss the manifest");
    assert_eq!(
        third.cache_hits, 0,
        "changed params miss the unit store too"
    );
    assert!(third.total_steps > 0, "the grid was re-explored");
    assert!(third.certified, "qlock certifies without POR");
}

/// Keys name only what a verdict depends on: after a fill at the default
/// parameters, a request that only changes how the grid is dispatched
/// (`workers`) or whether runs are memoized (`dedup`, `prefix_share`,
/// `deep_share`) is answered from the manifest with zero exploration
/// steps, with the verdict and per-unit accounting of the fill.
#[test]
fn dispatch_knobs_hit_the_manifest() {
    let (daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("qlock");
    req.params = CertParams::default();
    let fill = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(fill.certified && !fill.manifest_hit);
    for (knob, params) in [
        ("workers=4", params(4, true, true, true)),
        (
            "dedup=false",
            CertParams {
                dedup: false,
                ..CertParams::default()
            },
        ),
        ("prefix_share=false", params(1, true, false, false)),
        ("deep_share=false", params(1, true, true, false)),
    ] {
        let mut knobbed = CertRequest::new("qlock");
        knobbed.params = params;
        let before = daemon.engine().totals();
        assert!(
            before.steps > 0,
            "the fill counted into the daemon's engine"
        );
        let hit = ccal_certd::certify(&addr, &knobbed).expect("daemon answers");
        assert!(hit.manifest_hit, "{knob}: manifest hit");
        assert_eq!(hit.total_steps, 0, "{knob}: no exploration");
        assert_eq!(daemon.engine().totals(), before, "{knob}: nothing counted");
        assert_eq!(hit.cache_hits, hit.units.len(), "{knob}: every unit cached");
        assert!(hit.certified, "{knob}: verdict");
        for (a, b) in fill.units.iter().zip(&hit.units) {
            assert_eq!(a.fingerprint, b.fingerprint, "{knob}: unit {}", b.unit);
            assert_eq!(a.cases_checked, b.cases_checked, "{knob}: unit {}", b.unit);
            assert_eq!(a.cases_skipped, b.cases_skipped, "{knob}: unit {}", b.unit);
            assert_eq!(a.cases_reduced, b.cases_reduced, "{knob}: unit {}", b.unit);
        }
    }
}

/// A request with `use_cache` off (`--no-cache`) skips every store
/// lookup, forcing recertification, and still writes its results.
#[test]
fn cache_kill_switch_forces_recertification() {
    let (_daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("qlock");
    req.params = CertParams::default();
    req.use_cache = false;
    // Warm reuse off, so a forced re-check is visible in the step
    // counters (a warm re-check can legitimately cost zero steps).
    req.warm = false;
    let first = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(first.certified);
    let second = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(!second.manifest_hit, "no manifest lookup without the cache");
    assert_eq!(second.cache_hits, 0, "no unit lookup without the cache");
    assert!(second.total_steps > 0, "the grid was re-explored");
    assert_eq!(second.certified, first.certified);
    req.use_cache = true;
    let third = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(
        third.manifest_hit,
        "uncached requests still write the manifest"
    );
    assert_eq!(
        third.cache_hits,
        third.units.len(),
        "a cached request hits the results the uncached ones wrote"
    );
}

/// Warm memo state persists across requests: a second uncached run of
/// the same units reuses the daemon's warm kernel tables,
/// reporting warm hits while producing the identical verdict and
/// accounting.
#[test]
fn warm_state_is_reused_across_requests() {
    let p = CertParams::default();
    let (_daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("qlock");
    req.params = p;
    req.use_cache = false;
    req.warm = true;
    let first = ccal_certd::certify(&addr, &req).expect("daemon answers");
    let second = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert_eq!(
        first.certified, second.certified,
        "warm reuse preserves the verdict"
    );
    for (a, b) in first.units.iter().zip(&second.units) {
        assert_eq!(a.cases_checked, b.cases_checked, "unit {}: counts", b.unit);
        assert_eq!(a.cases_reduced, b.cases_reduced, "unit {}: counts", b.unit);
        assert_eq!(a.failure, b.failure, "unit {}: evidence", b.unit);
        assert!(
            b.memo_entries > 0,
            "unit {}: warm memo carried entries into the second request",
            b.unit
        );
    }
    assert!(
        second.total_steps < first.total_steps,
        "warm memo state saves lower-machine steps ({} -> {})",
        first.total_steps,
        second.total_steps
    );
    // qlock's two units share one semantic family, so `rel_q` starts
    // warm on the *first* request — cross-unit reuse, surfaced by the
    // per-unit family-hits counter.
    assert!(
        first.units[1].shared_family_hits > 0,
        "rel_q must reuse acq_q's warm family state on the first request \
         (got {:?})",
        first
            .units
            .iter()
            .map(|u| u.shared_family_hits)
            .collect::<Vec<_>>()
    );
    for u in &second.units {
        assert!(
            u.shared_family_hits > 0,
            "unit {}: a warm re-request must report family hits",
            u.unit
        );
    }
}

/// Semantic sharing keys group the ticket stack's nine units into three
/// families, so sibling units start warm within the *first* request —
/// and every later unit starts warm on a second request. The per-unit
/// `shared_family_hits` counter makes the reuse observable end to end.
#[test]
fn ticket_units_share_family_state_within_and_across_requests() {
    let (_daemon, addr) = fresh_daemon();
    let mut req = CertRequest::new("ticket");
    req.params = CertParams::default();
    req.use_cache = false;
    req.warm = true;
    let first = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert!(first.certified, "ticket certifies");
    let hits: Vec<u64> = first.units.iter().map(|u| u.shared_family_hits).collect();
    // Pipeline order: funlift/{acq,f,g,rel}, loglift/{acq,f,g,rel},
    // client/foo. Indices 1–3 and 5–7 follow a sibling of their family;
    // indices 4 and 8 open new families and must report nothing — the
    // counter is gated on the warm state being non-empty at lease start.
    for i in [1, 2, 3, 5, 6, 7] {
        assert!(
            hits[i] > 0,
            "unit {} must start warm from its family sibling (hits {hits:?})",
            first.units[i].unit
        );
    }
    for i in [4, 8] {
        assert_eq!(
            hits[i], 0,
            "unit {} opens a new family cold (hits {hits:?})",
            first.units[i].unit
        );
    }
    let second = ccal_certd::certify(&addr, &req).expect("daemon answers");
    assert_eq!(
        first.certified, second.certified,
        "warm reuse preserves the verdict"
    );
    for (a, b) in first.units.iter().zip(&second.units) {
        assert_eq!(a.cases_checked, b.cases_checked, "unit {}: counts", b.unit);
        assert_eq!(a.failure, b.failure, "unit {}: evidence", b.unit);
    }
    for u in &second.units[1..] {
        assert!(
            u.shared_family_hits > 0,
            "unit {}: every later unit starts warm on a re-request",
            u.unit
        );
    }
}
