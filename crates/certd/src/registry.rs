//! The stack registry: which certification obligations make up each
//! known layer stack, how each is content-fingerprinted, and how one
//! leased window of an obligation's exploration grid is run.
//!
//! A **unit** is one `check_prim_refinement` obligation of a stack's
//! Fig. 9 pipeline — exactly the decomposition `check_fun` /
//! `check_iface_refinement` iterate in process, in the same (BTreeMap)
//! primitive order, so unit-by-unit results fold back into the same
//! verdict, the same per-obligation case accounting and the same first
//! failure as `certify_ticket_stack` / `certify_qlock`. The zero-case
//! calculus steps (`weaken`, `vcomp`) contribute no units.
//!
//! Units are the granularity of the certificate store and of warm memo
//! state; leased *windows* of a unit's flat case grid are the
//! granularity of shard work.

use std::sync::{Arc, Mutex};

use ccal_core::contexts::ContextGen;
use ccal_core::engine::{self, Counter};
use ccal_core::env::EnvContext;
use ccal_core::fingerprint::{share_key, ContentHash, ContentHasher, ShareKey};
use ccal_core::id::{Loc, Pid};
use ccal_core::layer::LayerInterface;
use ccal_core::sim::{check_prim_refinement, SimOptions, SimRelation, SimWarm};
use ccal_core::strategy::ScratchPlayer;
use ccal_core::val::Val;
use ccal_objects::buggy;
use ccal_objects::qlock;
use ccal_objects::ticket;

use crate::proto::{ChunkReport, Lease};
use crate::spec::CertParams;

/// The focused participant of every registry obligation.
const PID: Pid = Pid(0);
/// The ticket lock location (mirrors the §2 walkthrough and tests).
const TICKET_B: Loc = Loc(0);
/// The queuing lock location (mirrors the Fig. 11 tests).
const QLOCK_L: Loc = Loc(4);

/// Stacks the service can certify.
pub fn known_stacks() -> &'static [&'static str] {
    &["ticket", "qlock", "scratch"]
}

/// A unit's public identity: name, content fingerprint, grid size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitDef {
    /// Unit name, unique within the stack.
    pub name: String,
    /// Content hash over everything the verdict depends on.
    pub fingerprint: ContentHash,
    /// Semantic sharing key (32 hex digits): the content identity of the
    /// unit's lower-machine exploration family. Units with equal keys
    /// share one warm exploration state; equals the fingerprint rendering
    /// under an engine built without semantic sharing
    /// ([`ccal_core::engine::Settings::share_semantic`]).
    pub share: String,
    /// Flat grid size (`contexts × argument vectors`), the leaseable
    /// index space.
    pub ncases: usize,
}

/// The outcome of running one unit (or one window of it).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitOutcome {
    /// Cases explored.
    pub cases_checked: usize,
    /// Cases skipped (invalid contexts).
    pub cases_skipped: usize,
    /// Cases pruned by POR.
    pub cases_reduced: usize,
    /// Rendered counterexample (index-least in the window), if any.
    pub failure: Option<String>,
}

/// How a unit's bounded context family is generated. Building contexts
/// is also where POR grid marking and the prefix-sharing family are
/// pinned, so the same spec must be used by coordinator and shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxSpec {
    /// Two pids; pid 1 plays the low-level ticket contender.
    TicketLow,
    /// Two pids; pid 1 plays the atomic `foo` client contender.
    TicketAtomic,
    /// Two pids; pid 1 plays the queuing-lock contender.
    Qlock,
    /// Three pids; pids 1 and 2 push to the scratch locations the buggy
    /// `op` strategy leaks.
    Scratch,
}

impl CtxSpec {
    fn build(self, params: &CertParams, family: Option<u64>) -> Vec<EnvContext> {
        let gen = match self {
            CtxSpec::TicketLow => ContextGen::new(vec![Pid(0), Pid(1)]).with_player(
                Pid(1),
                Arc::new(ticket::TicketEnvPlayer::new(
                    Pid(1),
                    TICKET_B,
                    params.rounds,
                )),
            ),
            CtxSpec::TicketAtomic => ContextGen::new(vec![Pid(0), Pid(1)]).with_player(
                Pid(1),
                Arc::new(ticket::FooEnvPlayer::new(Pid(1), TICKET_B, params.rounds)),
            ),
            CtxSpec::Qlock => ContextGen::new(vec![Pid(0), Pid(1)]).with_player(
                Pid(1),
                Arc::new(qlock::QlockEnvPlayer::new(Pid(1), QLOCK_L, params.rounds)),
            ),
            CtxSpec::Scratch => ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
                .with_player(
                    Pid(1),
                    Arc::new(ScratchPlayer::new(Pid(1), buggy::SCRATCH_A)),
                )
                .with_player(
                    Pid(2),
                    Arc::new(ScratchPlayer::new(Pid(2), buggy::SCRATCH_B)),
                ),
        };
        // The structural setters re-key the family to keep accidental
        // cross-family memo aliasing impossible, so `with_family` must
        // come after them — `ContextGen` debug-asserts this ordering.
        // The pinned family is the unit's semantic sharing key (or its
        // fingerprint with semantic sharing forced off), chosen by
        // `run_unit`, so content-equal lower machines share warm state.
        let gen = gen
            .with_schedule_len(params.schedule_len)
            .with_por(params.por);
        match family {
            Some(f) => gen.with_family(f),
            None => gen,
        }
        .contexts()
    }

    fn describe(self, h: &mut ContentHasher, params: &CertParams) {
        h.section("contexts");
        let (kind, pids, loc) = match self {
            CtxSpec::TicketLow => ("ticket-low", 2u64, u64::from(TICKET_B.0)),
            CtxSpec::TicketAtomic => ("ticket-atomic", 2, u64::from(TICKET_B.0)),
            CtxSpec::Qlock => ("qlock", 2, u64::from(QLOCK_L.0)),
            CtxSpec::Scratch => ("scratch", 3, u64::from(buggy::SCRATCH_A.0)),
        };
        h.str("ctx.kind", kind);
        h.u64("ctx.pids", pids);
        h.u64("ctx.loc", loc);
        h.u64("ctx.rounds", params.rounds);
        h.usize("ctx.schedule_len", params.schedule_len);
        h.bool("ctx.por", params.por);
    }
}

/// A fully resolved obligation.
struct Unit {
    name: String,
    lower: LayerInterface,
    upper: LayerInterface,
    prim: String,
    relation: SimRelation,
    ctx: CtxSpec,
    args: Vec<Vec<Val>>,
    setup: Vec<(String, Vec<Val>)>,
    /// The ClightX sources whose edit invalidates this unit (spec-only
    /// units carry none).
    sources: Vec<(&'static str, &'static str)>,
}

fn front_end(name: &str, src: &str) -> Result<ccal_core::module::Module, String> {
    ccal_clightx::clightx_module(name, src).map_err(|e| format!("{name} front-end: {e:?}"))
}

/// The ClightX module sources of each stack, `(module name, source)`, in
/// pipeline order; spec-only stacks have none. [`units`] builds the
/// stack's modules from this table and [`manifest_key`] hashes it, so an
/// edited source moves the manifest key as well as the unit fingerprints.
pub fn stack_sources(stack: &str) -> &'static [(&'static str, &'static str)] {
    match stack {
        "ticket" => &[("M1", ticket::M1_SOURCE), ("M2", ticket::M2_SOURCE)],
        "qlock" => &[("Mql", qlock::QLOCK_SOURCE)],
        _ => &[],
    }
}

/// Resolves a stack into its obligation list, in pipeline order.
fn units(stack: &str) -> Result<Vec<Unit>, String> {
    let sources = stack_sources(stack);
    let module = |i: usize| front_end(sources[i].0, sources[i].1);
    let mut out = Vec::new();
    match stack {
        "ticket" => {
            let m1 = module(0)?;
            let m2 = module(1)?;
            let l0 = ticket::l0_interface();
            let low = ticket::lock_low_interface();
            let lock = ticket::lock_interface();
            let l2 = ticket::l2_interface();
            let ext1 = m1.install(&l0).map_err(|e| format!("M1 install: {e:?}"))?;
            let ext2 = m2
                .install(&lock)
                .map_err(|e| format!("M2 install: {e:?}"))?;
            let lock_args = vec![vec![Val::Loc(TICKET_B)]];
            let workload = |prim: &str| {
                if matches!(prim, "acq" | "rel" | "foo") {
                    lock_args.clone()
                } else {
                    vec![Vec::new()]
                }
            };
            // Fun-lift: L0 ⊢_id M1 : L′1, one unit per overlay primitive.
            for prim in low.prim_names() {
                out.push(Unit {
                    name: format!("funlift/{prim}"),
                    lower: ext1.clone(),
                    upper: low.clone(),
                    prim: prim.to_owned(),
                    relation: SimRelation::identity(),
                    ctx: CtxSpec::TicketLow,
                    args: workload(prim),
                    setup: Vec::new(),
                    sources: vec![sources[0]],
                });
            }
            // Log-lift: L′1 ≤_R1 L1 (spec-to-spec; no module source).
            for prim in lock.prim_names() {
                out.push(Unit {
                    name: format!("loglift/{prim}"),
                    lower: low.clone(),
                    upper: lock.clone(),
                    prim: prim.to_owned(),
                    relation: ticket::r1_relation(),
                    ctx: CtxSpec::TicketLow,
                    args: workload(prim),
                    setup: Vec::new(),
                    sources: Vec::new(),
                });
            }
            // Client layer: L1 ⊢_R2 M2 : L2. (`weaken`/`vcomp` check
            // nothing — zero-case calculus steps.)
            for prim in l2.prim_names() {
                out.push(Unit {
                    name: format!("client/{prim}"),
                    lower: ext2.clone(),
                    upper: l2.clone(),
                    prim: prim.to_owned(),
                    relation: ticket::r2_relation(),
                    ctx: CtxSpec::TicketAtomic,
                    args: workload(prim),
                    setup: Vec::new(),
                    sources: vec![sources[1]],
                });
            }
        }
        "qlock" => {
            let m = module(0)?;
            let under = qlock::qlock_underlay();
            let over = qlock::qlock_overlay();
            let ext = m
                .install(&under)
                .map_err(|e| format!("Mql install: {e:?}"))?;
            let args = vec![vec![Val::Loc(QLOCK_L)]];
            for prim in over.prim_names() {
                let setup = if prim == "rel_q" {
                    vec![("acq_q".to_owned(), vec![Val::Loc(QLOCK_L)])]
                } else {
                    Vec::new()
                };
                out.push(Unit {
                    name: prim.to_owned(),
                    lower: ext.clone(),
                    upper: over.clone(),
                    prim: prim.to_owned(),
                    relation: qlock::r_ql_relation(),
                    ctx: CtxSpec::Qlock,
                    args: args.clone(),
                    setup,
                    sources: vec![sources[0]],
                });
            }
        }
        "scratch" => {
            // The known-failing fixture: the lower `op` leaks observable
            // environment state, so this unit *must* produce the
            // index-least counterexample — the service's first-failure
            // and shard-kill semantics are tested against it.
            out.push(Unit {
                name: "op".to_owned(),
                lower: buggy::scratch_sensitive_lower(),
                upper: buggy::scratch_sensitive_upper(),
                prim: "op".to_owned(),
                relation: SimRelation::identity(),
                ctx: CtxSpec::Scratch,
                args: vec![Vec::new()],
                setup: Vec::new(),
                sources: Vec::new(),
            });
        }
        other => {
            return Err(format!(
                "unknown stack `{other}` (known: {:?})",
                known_stacks()
            ))
        }
    }
    Ok(out)
}

fn sim_options(
    params: &CertParams,
    unit: &Unit,
    window: Option<(usize, usize)>,
    warm: Option<&SimWarm>,
) -> SimOptions {
    let mut sim = SimOptions::default()
        .with_workers(params.workers)
        .with_dedup(params.dedup)
        .with_por(params.por)
        .with_prefix_share(params.prefix_share)
        .with_deep_share(params.deep_share);
    sim.setup = unit.setup.clone();
    if let Some((lo, hi)) = window {
        sim = sim.with_window(lo, hi);
    }
    if let Some(w) = warm {
        sim = sim.with_warm(w.clone());
    }
    sim
}

/// Certificate identity: everything the verdict is a function of. The
/// run-mechanical knobs (`window`, `warm`, `workers`, `dedup`,
/// `prefix_share`, `deep_share`) are deliberately excluded — they change
/// neither the verdict, the evidence nor any stored case count, and the
/// engine differential pins that.
fn unit_fingerprint(stack: &str, unit: &Unit, params: &CertParams) -> ContentHash {
    let sim = sim_options(params, unit, None, None);
    let mut h = ContentHasher::new();
    h.section("ccal.cert.unit.v1");
    h.str("stack", stack);
    h.str("unit", &unit.name);
    h.usize("sources", unit.sources.len());
    for (name, src) in &unit.sources {
        h.str("module.name", name);
        h.str("module.source", src);
    }
    h.interface("lower", &unit.lower);
    h.interface("upper", &unit.upper);
    h.str("prim", &unit.prim);
    h.str("relation", unit.relation.name());
    h.u64("pid", u64::from(PID.0));
    h.usize("args", unit.args.len());
    for argv in &unit.args {
        h.usize("argv", argv.len());
        for v in argv {
            h.val("arg", v);
        }
    }
    h.usize("setup", unit.setup.len());
    for (prim, argv) in &unit.setup {
        h.str("setup.prim", prim);
        h.usize("setup.args", argv.len());
        for v in argv {
            h.val("setup.arg", v);
        }
    }
    unit.ctx.describe(&mut h, params);
    h.section("sim_options");
    h.u64("opt.fuel", sim.fuel);
    h.bool("opt.compare_rets", sim.compare_rets);
    h.bool("opt.por", sim.explore.por);
    h.finish()
}

/// The unit's **semantic sharing key**: the content identity of its
/// lower-machine exploration family ([`share_key`]). Where
/// [`unit_fingerprint`] answers "may this *verdict* be reused?", the
/// sharing key answers "may this *exploration state* be reused?" — it
/// deliberately drops the unit name, the checked primitive, its
/// arguments, the setup calls, the upper interface and the relation,
/// all of which vary across the units of one family and are carried by
/// the kernel's content-derived inner indices instead. The four
/// `funlift/*` ticket obligations, for example, check different
/// primitives of one lower machine over one context grid: equal keys,
/// one warm state.
fn unit_share_key(unit: &Unit, params: &CertParams) -> ShareKey {
    let sim = sim_options(params, unit, None, None);
    share_key(
        &unit.sources,
        &unit.lower,
        PID,
        |h| unit.ctx.describe(h, params),
        &sim,
    )
}

/// The warm-state key `run_unit` pins the exploration family to: the
/// semantic sharing key, or the certificate fingerprint when the engine
/// runs without semantic sharing (restoring strictly per-unit reuse).
fn unit_share_string(stack: &str, unit: &Unit, params: &CertParams) -> String {
    if engine::settings().share_semantic {
        unit_share_key(unit, params).to_string()
    } else {
        unit_fingerprint(stack, unit, params).to_string()
    }
}

/// Full stack decompositions (front-end runs, interface construction,
/// per-unit fingerprinting) counted by the calling thread's engine
/// ([`Counter::Decompositions`]). The manifest fast path is asserted
/// against this: a fully-clean recertify must answer without bumping it.
pub fn decompositions_total() -> u64 {
    engine::totals().decompositions
}

/// The identity of a whole-stack certificate: stack name, the stack's
/// module sources ([`stack_sources`]) and every parameter a verdict or a
/// stored count depends on: the bounds and `por`, which changes
/// `cases_reduced` (not `workers`, `dedup`, `prefix_share` or
/// `deep_share`, which change neither). Keying the manifest by this
/// (rather than the stack name alone) makes a parameter change or a
/// source edit a manifest miss, the same way it dirties the unit
/// fingerprints. A manifest lists unit fingerprints, so the version tag
/// moves whenever they are computed
/// differently: a store written under the old scheme then misses its
/// manifest and re-checks once instead of answering with fingerprints
/// this build no longer computes. Interfaces and object code are not
/// hashed here (the manifest fast path answers without building them).
pub fn manifest_key(stack: &str, params: &CertParams) -> ContentHash {
    manifest_key_over(stack, stack_sources(stack), params)
}

fn manifest_key_over(stack: &str, sources: &[(&str, &str)], params: &CertParams) -> ContentHash {
    let mut h = ContentHasher::new();
    h.section("ccal.cert.manifest.v5");
    h.str("stack", stack);
    h.usize("sources", sources.len());
    for (name, src) in sources {
        h.str("module.name", name);
        h.str("module.source", src);
    }
    h.usize("schedule_len", params.schedule_len);
    h.u64("rounds", params.rounds);
    h.bool("por", params.por);
    h.finish()
}

/// The stack's units, in pipeline order, with fingerprints and grid
/// sizes.
///
/// # Errors
///
/// Unknown stacks and ClightX front-end failures.
pub fn stack_units(stack: &str, params: &CertParams) -> Result<Vec<UnitDef>, String> {
    engine::record(Counter::Decompositions, 1);
    units(stack)?
        .iter()
        .map(|u| {
            let ncases = u.ctx.build(params, None).len() * u.args.len();
            Ok(UnitDef {
                name: u.name.clone(),
                fingerprint: unit_fingerprint(stack, u, params),
                share: unit_share_string(stack, u, params),
                ncases,
            })
        })
        .collect()
}

/// Runs one unit, optionally restricted to the half-open flat-index
/// `window` and/or seeded with `warm` memo state. Window indices are
/// whole-grid positions, so case strings and failure evidence are
/// identical to an unwindowed run restricted to those cases.
///
/// # Errors
///
/// Unknown stack/unit and front-end failures. A simulation
/// counterexample is NOT an error — it comes back as
/// [`UnitOutcome::failure`].
pub fn run_unit(
    stack: &str,
    unit_name: &str,
    params: &CertParams,
    window: Option<(usize, usize)>,
    warm: Option<&SimWarm>,
) -> Result<UnitOutcome, String> {
    let all = units(stack)?;
    let unit = all
        .iter()
        .find(|u| u.name == unit_name)
        .ok_or_else(|| format!("unknown unit `{unit_name}` in stack `{stack}`"))?;
    // Pin the schedule-key family to the semantic sharing key so
    // content-equal lower machines (across the units of one stack, and
    // across requests through the warm map) address one memo/snapshot
    // key space; with semantic sharing disabled, fall back to the unit
    // fingerprint — strictly per-unit reuse, as before.
    let family = if engine::settings().share_semantic {
        unit_share_key(unit, params).family()
    } else {
        unit_fingerprint(stack, unit, params).low64()
    };
    let contexts = unit.ctx.build(params, Some(family));
    let sim = sim_options(params, unit, window, warm);
    match check_prim_refinement(
        &unit.lower,
        &unit.prim,
        &unit.upper,
        &unit.prim,
        &unit.relation,
        PID,
        &contexts,
        &unit.args,
        &sim,
    ) {
        Ok(ev) => Ok(UnitOutcome {
            cases_checked: ev.cases_checked,
            cases_skipped: ev.cases_skipped,
            cases_reduced: ev.cases_reduced,
            failure: None,
        }),
        Err(failure) => Ok(UnitOutcome {
            failure: Some(failure.to_string()),
            ..UnitOutcome::default()
        }),
    }
}

/// Warm memo state keyed by the unit's **semantic sharing key**, shared
/// by a daemon or shard process across requests. Keying by *content*
/// makes the reuse sound: equal keys imply content-equal lower machines
/// explored over one context-grid structure, so every entry a lookup can
/// hit describes the identical deterministic computation — whether the
/// hitter is a re-run of the same unit, a different unit of the same
/// family, or a later request. (Under an engine without semantic sharing
/// the key degenerates to the unit fingerprint and reuse is strictly
/// per-unit.)
#[derive(Debug, Default)]
pub struct WarmMap {
    map: Mutex<std::collections::HashMap<String, SimWarm>>,
}

impl WarmMap {
    /// A fresh, empty map.
    pub fn new() -> WarmMap {
        WarmMap::default()
    }

    /// The warm state for sharing key `share`, created on first use.
    /// `SimWarm` clones share their caches, so the returned handle keeps
    /// feeding the map's entry.
    pub fn get(&self, share: &str) -> SimWarm {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(share.to_owned())
            .or_default()
            .clone()
    }
}

/// Executes one lease and packages the accounting a shard (or the
/// coordinator's local runner) reports back: kernel case counts, the
/// deltas of the calling thread's engine counters, and — when warm — the warm-state
/// hit/evict deltas.
pub fn run_lease(lease: &Lease, warm: Option<&SimWarm>) -> ChunkReport {
    let before = engine::totals();
    let warm0 = warm.map(SimWarm::stats);
    let mut report = ChunkReport::default();
    match run_unit(
        &lease.stack,
        &lease.unit,
        &lease.params,
        Some((lease.lo, lease.hi)),
        warm,
    ) {
        Ok(outcome) => {
            report.cases_checked = outcome.cases_checked;
            report.cases_skipped = outcome.cases_skipped;
            report.cases_reduced = outcome.cases_reduced;
            report.failure = outcome.failure;
        }
        Err(e) => report.error = Some(e),
    }
    let after = engine::totals();
    report.steps = after.steps - before.steps;
    report.shared = after.shared - before.shared;
    report.deep = after.deep - before.deep;
    report.prim_steps = after.prim_steps - before.prim_steps;
    if let (Some(w), Some(w0)) = (warm, warm0) {
        let ws = w.stats();
        report.memo_entries = ws.memo_entries;
        report.snapshot_entries = ws.snapshot_entries;
        report.snapshot_hits = ws.snapshot_hits.saturating_sub(w0.snapshot_hits);
        report.snapshot_evictions = ws.snapshot_evictions.saturating_sub(w0.snapshot_evictions);
        report.upper_hits = ws.upper_hits.saturating_sub(w0.upper_hits);
        report.upper_evictions = ws.upper_evictions.saturating_sub(w0.upper_evictions);
        // Family-sharing proxy: reuse deltas count as *family* sharing
        // only when the warm state already held entries at lease start —
        // a cold first-in-family run self-shares within its own grid,
        // which is not cross-unit/cross-request reuse. (The proxy still
        // includes within-run self-sharing of warm-started runs; it is a
        // reuse indicator, not an exact cross-unit count.)
        if w0.memo_entries > 0 || w0.snapshot_entries > 0 {
            report.shared_family_hits =
                report.shared + report.deep + report.snapshot_hits + report.upper_hits;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::prefix;

    #[test]
    fn stacks_resolve_with_distinct_stable_fingerprints() {
        let params = CertParams::default();
        let ticket = stack_units("ticket", &params).expect("ticket resolves");
        let names: Vec<&str> = ticket.iter().map(|u| u.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "funlift/acq",
                "funlift/f",
                "funlift/g",
                "funlift/rel",
                "loglift/acq",
                "loglift/f",
                "loglift/g",
                "loglift/rel",
                "client/foo",
            ],
            "obligation order mirrors the in-process pipeline"
        );
        let mut fps: Vec<_> = ticket.iter().map(|u| u.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), ticket.len(), "unit fingerprints are distinct");
        assert_eq!(
            ticket,
            stack_units("ticket", &params).expect("ticket resolves again"),
            "fingerprints are deterministic"
        );
        assert!(ticket.iter().all(|u| u.ncases > 0));
        assert!(stack_units("nope", &params).is_err());
    }

    /// Pins every service key at the default parameters. A change that
    /// moves a key makes every store from earlier builds re-check the
    /// affected units, so it must update this table on purpose (and say so
    /// in the CHANGELOG).
    #[test]
    fn service_keys_are_pinned_at_default_params() {
        let params = CertParams::default();
        let manifests = [
            ("ticket", "8cabbcf1953bec015481b9c0a478a2d5"),
            ("qlock", "4b3986b037e19015b619e2dc66068986"),
            ("scratch", "382b600570e8c250a0fb066852b2f133"),
        ];
        for (stack, key) in manifests {
            assert_eq!(
                manifest_key(stack, &params).to_string(),
                key,
                "{stack} manifest"
            );
        }
        // One sharing family per lower machine: ticket has 3, qlock 1.
        let funlift = "410c95b29b95a82f3c7790bdc2a8387a";
        let loglift = "8a171a6e2f17df20c3fbf9c2a345ea20";
        let client = "d11e8824367c983742f524b70482c17a";
        let qlock = "9b23ebf492447fa7f3b22317da5f67da";
        let scratch = "b2b3c8e30ab939f0eeddd5c64b41c965";
        // (stack, unit, fingerprint, share)
        let pinned = [
            (
                "ticket",
                "funlift/acq",
                "7f3aeaa548993137141e098d22973b72",
                funlift,
            ),
            (
                "ticket",
                "funlift/f",
                "de915c1e19baf074e9a6b4a5a76568f7",
                funlift,
            ),
            (
                "ticket",
                "funlift/g",
                "6789b0dc59d613ec5d398ea5f7881f1b",
                funlift,
            ),
            (
                "ticket",
                "funlift/rel",
                "19c0749f230cdf9543da7551d6b83546",
                funlift,
            ),
            (
                "ticket",
                "loglift/acq",
                "2392efdf45592f731869d9eb2a88a3b1",
                loglift,
            ),
            (
                "ticket",
                "loglift/f",
                "9ec75db0ef45b062d7606ddd381c5760",
                loglift,
            ),
            (
                "ticket",
                "loglift/g",
                "677c267f4cb2d6449ff46d3051cacfde",
                loglift,
            ),
            (
                "ticket",
                "loglift/rel",
                "5e4e415ee23bcf7193498fb75a5743fd",
                loglift,
            ),
            (
                "ticket",
                "client/foo",
                "36066a9174a1ba27a0f69d31b60e871c",
                client,
            ),
            ("qlock", "acq_q", "ed64bdc066c87c5e6e15a4d0a7e2642f", qlock),
            ("qlock", "rel_q", "e6ddade8bbe60454278cf26431c3a6cb", qlock),
            ("scratch", "op", "dad1bbe58f816109ffb18839a629f88e", scratch),
        ];
        let mut got = Vec::new();
        for stack in known_stacks() {
            for u in stack_units(stack, &params).expect("resolves") {
                got.push((*stack, u.name, u.fingerprint.to_string(), u.share));
            }
        }
        let want: Vec<_> = pinned
            .iter()
            .map(|&(stack, unit, fp, share)| {
                (stack, unit.to_owned(), fp.to_owned(), share.to_owned())
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn parameter_changes_dirty_the_fingerprint() {
        let base = CertParams::default();
        let mut longer = base.clone();
        longer.schedule_len += 1;
        let a = stack_units("qlock", &base).expect("resolves");
        let b = stack_units("qlock", &longer).expect("resolves");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.fingerprint, y.fingerprint, "{}", x.name);
        }

        assert_ne!(manifest_key("qlock", &base), manifest_key("qlock", &longer));
        assert_ne!(manifest_key("qlock", &base), manifest_key("ticket", &base));
        assert_eq!(manifest_key("qlock", &base), manifest_key("qlock", &base));
    }

    #[test]
    fn dispatch_knobs_leave_every_key_unchanged() {
        let base = CertParams::default();
        for (knob, params) in [
            (
                "workers",
                CertParams {
                    workers: 4,
                    ..base.clone()
                },
            ),
            (
                "dedup",
                CertParams {
                    dedup: false,
                    ..base.clone()
                },
            ),
            (
                "prefix_share",
                CertParams {
                    prefix_share: false,
                    ..base.clone()
                },
            ),
            (
                "deep_share",
                CertParams {
                    deep_share: false,
                    ..base.clone()
                },
            ),
        ] {
            for stack in known_stacks() {
                assert_eq!(
                    manifest_key(stack, &params),
                    manifest_key(stack, &base),
                    "{knob} moved the {stack} manifest key"
                );
                let keys = |p: &CertParams| -> Vec<(ContentHash, String)> {
                    stack_units(stack, p)
                        .expect("resolves")
                        .into_iter()
                        .map(|u| (u.fingerprint, u.share))
                        .collect()
                };
                assert_eq!(
                    keys(&params),
                    keys(&base),
                    "{knob} moved a {stack} unit fingerprint or sharing key"
                );
            }
        }
    }

    #[test]
    fn an_edited_module_source_moves_the_manifest_key() {
        let params = CertParams::default();
        let sources = stack_sources("ticket");
        assert_eq!(
            manifest_key_over("ticket", sources, &params),
            manifest_key("ticket", &params),
        );
        let edited_m1 = sources[0].1.replace("inc_n(b);", "inc_n(b); inc_n(b);");
        assert_ne!(edited_m1, sources[0].1, "the edit applies");
        let edited = [(sources[0].0, edited_m1.as_str()), sources[1]];
        assert_ne!(
            manifest_key_over("ticket", &edited, &params),
            manifest_key("ticket", &params),
        );
    }

    #[test]
    fn semantic_share_keys_group_units_into_families() {
        let params = CertParams::default();
        let ticket = stack_units("ticket", &params).expect("resolves");
        let share = |name: &str| {
            ticket
                .iter()
                .find(|u| u.name == name)
                .unwrap_or_else(|| panic!("unit {name}"))
                .share
                .clone()
        };
        // The four funlift units check different primitives of ONE lower
        // machine (M1 over L0) on one grid: one family. Likewise loglift
        // (spec-only lock_low) and client (M2 over L1).
        for u in ["funlift/f", "funlift/g", "funlift/rel"] {
            assert_eq!(share(u), share("funlift/acq"), "{u}");
        }
        for u in ["loglift/f", "loglift/g", "loglift/rel"] {
            assert_eq!(share(u), share("loglift/acq"), "{u}");
        }
        let fams: std::collections::BTreeSet<_> = ticket.iter().map(|u| u.share.clone()).collect();
        assert_eq!(fams.len(), 3, "funlift / loglift / client families");
        // Fingerprints still key certificates strictly per-unit.
        let fps: std::collections::BTreeSet<_> = ticket.iter().map(|u| u.fingerprint).collect();
        assert_eq!(fps.len(), ticket.len());

        // qlock: acq_q and rel_q differ only in checked primitive and
        // setup — both excluded from the sharing key — so they form one
        // family (rel_q's setup resumes acq_q's completed calls).
        let qlock = stack_units("qlock", &params).expect("resolves");
        assert_eq!(qlock.len(), 2);
        assert_eq!(qlock[0].share, qlock[1].share, "one qlock family");
        assert_ne!(qlock[0].fingerprint, qlock[1].fingerprint);
    }

    #[test]
    fn disabling_semantic_sharing_restores_per_unit_keys() {
        let _pinned = engine::Engine::new(engine::Settings {
            share_semantic: false,
            ..engine::Settings::default()
        })
        .enter();
        let params = CertParams::default();
        for u in stack_units("ticket", &params).expect("resolves") {
            assert_eq!(u.share, u.fingerprint.to_string(), "{}", u.name);
        }
    }

    #[test]
    fn work_on_another_thread_leaves_this_threads_counters() {
        let params = CertParams::default();
        let work = move || {
            let defs = stack_units("qlock", &params).expect("resolves");
            let out = run_unit("qlock", &defs[0].name, &params, None, None).expect("runs");
            assert!(out.failure.is_none());
        };
        let before = (prefix::steps_total(), decompositions_total());
        std::thread::spawn(work.clone())
            .join()
            .expect("worker thread");
        assert_eq!(
            (prefix::steps_total(), decompositions_total()),
            before,
            "another thread's certification is not this thread's"
        );
        work();
        assert!(
            prefix::steps_total() > before.0,
            "this thread's own run counts"
        );
        assert_eq!(decompositions_total(), before.1 + 1);
    }

    #[test]
    fn windowed_runs_sum_to_the_whole_grid() {
        let params = CertParams::default();
        let def = &stack_units("ticket", &params).expect("resolves")[0];
        let whole = run_unit("ticket", "funlift/acq", &params, None, None).expect("runs");
        assert_eq!(whole.failure, None);
        let mid = def.ncases / 2;
        let left = run_unit("ticket", "funlift/acq", &params, Some((0, mid)), None).expect("runs");
        let right = run_unit(
            "ticket",
            "funlift/acq",
            &params,
            Some((mid, def.ncases)),
            None,
        )
        .expect("runs");
        assert_eq!(
            (
                left.cases_checked + right.cases_checked,
                left.cases_skipped + right.cases_skipped,
                left.cases_reduced + right.cases_reduced,
            ),
            (
                whole.cases_checked,
                whole.cases_skipped,
                whole.cases_reduced
            ),
            "disjoint windows partition the whole-grid accounting"
        );
    }

    #[test]
    fn the_scratch_stack_fails_with_rendered_evidence() {
        let params = CertParams::default();
        let out = run_unit("scratch", "op", &params, None, None).expect("runs");
        let failure = out.failure.expect("scratch is the known-failing fixture");
        assert!(
            failure.contains("simulation") && failure.contains("context #"),
            "rendered counterexample names the case: {failure}"
        );
    }
}
