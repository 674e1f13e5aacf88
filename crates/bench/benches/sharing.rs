//! Experiment B8: semantic sharing keys — cross-unit and cross-request
//! reuse of warm exploration state in the certification service (see
//! DESIGN.md §"Semantic sharing keys").
//!
//! Run with `cargo bench -p ccal-bench --bench sharing`; pass
//! `-- --quick` (or set `CCAL_BENCH_QUICK=1`) for a fast smoke run.
//! Works with or without the `criterion` feature — the metric is the
//! engine's atom-step counters plus the per-unit family-hit counters the
//! certification service reports.
//!
//! Two arms run the same service session — three back-to-back
//! certifications of the nine-unit ticket stack — at each schedule
//! length:
//!
//! * **pinned** — semantic keys forced off (`ShareSemanticOverride`),
//!   with no warm state:
//!   the prefix-memo family is the unit fingerprint and every unit of
//!   every request rebuilds its exploration state from zero (the
//!   engine's pre-ShareKey per-request behaviour);
//! * **semantic** — units are keyed by their semantic `ShareKey` and draw
//!   warm state from one [`WarmMap`] that lives across the session, the
//!   daemon's actual flow. The nine units hash into three share
//!   families, so family-sibling units start warm *within* the first
//!   request, and every unit starts warm on the re-requests.
//!
//! The per-request breakdown is printed and recorded so the two reuse
//! axes stay visible: the ticket stack's units check *disjoint*
//! primitives, so its first-request atom-steps match the pinned arm's
//! (family siblings share a key space but no completed computations) and
//! the session win is cross-request. The *cross-unit* win inside a
//! single request needs units whose runs overlap — the qlock stack's
//! `rel_q` carries an `acq_q` setup call, which resumes the completed
//! states the `acq_q` unit's checked runs stored — and is measured by a
//! second, first-request-only qlock table.
//!
//! This binary owns its process, so the process-global step counters are
//! exact; it doubles as the acceptance gate for semantic sharing: at
//! `L = 5` the semantic session's lower-machine atom-steps must be at
//! most 0.5 of the pinned session's — a counter ratio, not a wall-clock
//! one, so the gate holds on single-core and noisy hosts. Both arms must
//! certify with identical case counts (asserted here; byte-identity of
//! verdicts and evidence across the sharing modes is pinned by
//! `tests/sharing_differential.rs`).
//!
//! It also emits `BENCH_8.json` at the repo root — per-length session
//! ratios, per-request step totals, per-unit family-hit counters and the
//! qlock cross-unit rows — so the perf trajectory is tracked across
//! changes.

use std::fmt::Write as _;

use ccal_certd::proto::Lease;
use ccal_certd::registry::{run_lease, stack_units, WarmMap};
use ccal_certd::CertParams;
use ccal_core::prefix::ShareSemanticOverride;

/// One unit's accounting within one request.
struct UnitRow {
    unit: String,
    cases: usize,
    steps: u64,
    family_hits: u64,
}

/// One certification of a full stack. `semantic` selects the sharing
/// mode (scoped override, not the environment flag); `warm` is the
/// daemon-style warm map the semantic arms thread through.
fn certify_stack(stack: &str, len: usize, semantic: bool, warm: Option<&WarmMap>) -> Vec<UnitRow> {
    let _mode = ShareSemanticOverride::force(semantic);
    let params = CertParams {
        schedule_len: len,
        ..CertParams::default()
    };
    let units = stack_units(stack, &params).expect("stack resolves");
    units
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let w = warm.map(|m| m.get(&u.share));
            let lease = Lease {
                id: i as u64,
                stack: stack.to_owned(),
                unit: u.name.clone(),
                fingerprint: u.fingerprint.to_string(),
                share: u.share.clone(),
                params: params.clone(),
                lo: 0,
                hi: u.ncases,
                warm: w.is_some(),
            };
            let report = run_lease(&lease, w.as_ref());
            assert!(report.error.is_none(), "{}: {:?}", u.name, report.error);
            assert!(
                report.failure.is_none(),
                "{}: {stack} must certify, got {:?}",
                u.name,
                report.failure
            );
            UnitRow {
                unit: u.name.clone(),
                cases: report.cases_checked,
                steps: report.steps,
                family_hits: report.shared_family_hits,
            }
        })
        .collect()
}

fn steps_total(rows: &[UnitRow]) -> u64 {
    rows.iter().map(|r| r.steps).sum()
}

/// Requests per session arm (request 1 exposes cross-unit reuse, the
/// re-requests cross-request reuse).
const REQUESTS: usize = 3;

/// One schedule length's ticket-session measurement: both arms, kept
/// per-request.
struct SharingRow {
    schedule_len: usize,
    /// Cases discharged by one request (identical across arms/requests).
    cases: usize,
    pinned: Vec<Vec<UnitRow>>,
    semantic: Vec<Vec<UnitRow>>,
}

impl SharingRow {
    fn measure(len: usize) -> SharingRow {
        let pinned: Vec<_> = (0..REQUESTS)
            .map(|_| certify_stack("ticket", len, false, None))
            .collect();
        let warm = WarmMap::new();
        let semantic: Vec<_> = (0..REQUESTS)
            .map(|_| certify_stack("ticket", len, true, Some(&warm)))
            .collect();
        let cases: usize = pinned[0].iter().map(|r| r.cases).sum();
        for req in pinned.iter().chain(&semantic) {
            assert_eq!(
                cases,
                req.iter().map(|r| r.cases).sum::<usize>(),
                "L={len}: sharing must not change the discharged case count"
            );
        }
        // Pipeline order: funlift/{acq,f,g,rel}, loglift/{acq,f,g,rel},
        // client/foo — three share families opened at indices 0, 4, 8.
        // Family-sibling units must start warm within the first request;
        // family openers must not (their warm state is empty at lease
        // start, and the counter is gated on non-empty warm state).
        for i in [1, 2, 3, 5, 6, 7] {
            assert!(
                semantic[0][i].family_hits > 0,
                "L={len}: unit {} must start warm from its family sibling",
                semantic[0][i].unit
            );
        }
        for i in [0, 4, 8] {
            assert_eq!(
                semantic[0][i].family_hits, 0,
                "L={len}: unit {} opens its family cold",
                semantic[0][i].unit
            );
        }
        for req in &semantic[1..] {
            for r in req {
                assert!(
                    r.family_hits > 0,
                    "L={len}: unit {} must start warm on a re-request",
                    r.unit
                );
            }
        }
        SharingRow {
            schedule_len: len,
            cases,
            pinned,
            semantic,
        }
    }

    fn pinned_steps(&self) -> u64 {
        self.pinned.iter().map(|r| steps_total(r)).sum()
    }

    fn semantic_steps(&self) -> u64 {
        self.semantic.iter().map(|r| steps_total(r)).sum()
    }

    /// The B8 acceptance metric: semantic-session over pinned-session
    /// lower-machine atom-steps (lower is better; the gate requires
    /// ≤ 0.5 at `L = 5`).
    fn atom_step_ratio(&self) -> f64 {
        self.semantic_steps() as f64 / self.pinned_steps().max(1) as f64
    }
}

/// The qlock cross-unit measurement: a *single* request per arm, so every
/// saved step is within-request reuse — `rel_q`'s setup call resuming
/// `acq_q`'s completed checked runs through the shared family.
struct QlockRow {
    schedule_len: usize,
    pinned: Vec<UnitRow>,
    semantic: Vec<UnitRow>,
}

impl QlockRow {
    fn measure(len: usize) -> QlockRow {
        let pinned = certify_stack("qlock", len, false, None);
        let warm = WarmMap::new();
        let semantic = certify_stack("qlock", len, true, Some(&warm));
        assert_eq!(
            pinned.iter().map(|r| r.cases).sum::<usize>(),
            semantic.iter().map(|r| r.cases).sum::<usize>(),
            "L={len}: sharing must not change the discharged case count"
        );
        assert!(
            semantic[1].family_hits > 0,
            "L={len}: rel_q must start warm from acq_q within one request"
        );
        assert!(
            semantic[1].steps < pinned[1].steps,
            "L={len}: rel_q's setup must resume acq_q's completed runs \
             (semantic {} vs pinned {} atom-steps)",
            semantic[1].steps,
            pinned[1].steps
        );
        QlockRow {
            schedule_len: len,
            pinned,
            semantic,
        }
    }
}

fn render_rows(rows: &[SharingRow], qlock: &[QlockRow]) -> String {
    let mut out = String::from(
        "B8 — semantic sharing keys: ticket-stack service session \
         (3 requests, lower-machine atom-steps)\n\
         | L | cases/req | pinned | semantic | ratio | sem req1/req2/req3 |\n\
         |---|-----------|--------|----------|-------|--------------------|\n",
    );
    for r in rows {
        let per_req: Vec<String> = r
            .semantic
            .iter()
            .map(|req| steps_total(req).to_string())
            .collect();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.3} | {} |",
            r.schedule_len,
            r.cases,
            r.pinned_steps(),
            r.semantic_steps(),
            r.atom_step_ratio(),
            per_req.join("/"),
        );
    }
    out.push_str(
        "\nB8 — qlock cross-unit reuse within one request (rel_q resumes \
         acq_q's completed runs)\n\
         | L | acq_q pin/sem | rel_q pin/sem |\n\
         |---|---------------|---------------|\n",
    );
    for r in qlock {
        let _ = writeln!(
            out,
            "| {} | {}/{} | {}/{} |",
            r.schedule_len,
            r.pinned[0].steps,
            r.semantic[0].steps,
            r.pinned[1].steps,
            r.semantic[1].steps,
        );
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("CCAL_BENCH_QUICK").is_some();
    let lens: &[usize] = if quick { &[3, 5] } else { &[3, 4, 5] };

    let rows: Vec<SharingRow> = lens.iter().map(|&l| SharingRow::measure(l)).collect();
    let qlock: Vec<QlockRow> = lens.iter().map(|&l| QlockRow::measure(l)).collect();
    println!("{}", render_rows(&rows, &qlock));

    let gate = rows
        .iter()
        .find(|r| r.schedule_len == 5)
        .expect("L=5 row present");
    assert!(
        gate.atom_step_ratio() <= 0.5,
        "B8 acceptance: the semantic-sharing session must retire <= 0.5 of \
         the pinned-family baseline's lower-run atom-steps at L=5, got {} \
         of {} ({:.2})",
        gate.semantic_steps(),
        gate.pinned_steps(),
        gate.atom_step_ratio()
    );
    println!(
        "B8 acceptance: L=5 atom-step ratio {:.3} <= 0.5 (semantic {} vs pinned {})",
        gate.atom_step_ratio(),
        gate.semantic_steps(),
        gate.pinned_steps()
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    std::fs::write(path, render_json(&rows, &qlock)).expect("write BENCH_8.json");
    println!("wrote {path}");
}

fn render_units(out: &mut String, rows: &[UnitRow]) {
    out.push_str("[\n");
    for (i, u) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "      {{\"unit\": \"{}\", \"cases\": {}, \"steps\": {}, \"family_hits\": {}}}",
            u.unit, u.cases, u.steps, u.family_hits
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]");
}

/// Renders the machine-readable benchmark record. Hand-rolled JSON — the
/// workspace is offline and the fields are flat numbers.
fn render_json(rows: &[SharingRow], qlock: &[QlockRow]) -> String {
    // Recorded so step-ratio trajectories can be compared across hosts:
    // wall-clock sanity numbers depend on the machine's parallelism.
    let hw = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\n  \"hardware_threads\": {hw},\n  \"requests\": {REQUESTS},\n  \"b8\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let pinned_reqs: Vec<String> = r
            .pinned
            .iter()
            .map(|req| steps_total(req).to_string())
            .collect();
        let semantic_reqs: Vec<String> = r
            .semantic
            .iter()
            .map(|req| steps_total(req).to_string())
            .collect();
        let _ = write!(
            out,
            "    {{\"len\": {}, \"cases_per_request\": {}, \
             \"atom_steps_pinned\": {}, \"atom_steps_semantic\": {}, \
             \"ratio\": {:.4}, \"pinned_requests\": [{}], \
             \"semantic_requests\": [{}],\n    \"units_first_request\": ",
            r.schedule_len,
            r.cases,
            r.pinned_steps(),
            r.semantic_steps(),
            r.atom_step_ratio(),
            pinned_reqs.join(", "),
            semantic_reqs.join(", "),
        );
        render_units(&mut out, &r.semantic[0]);
        out.push_str(",\n    \"units_warm_rerun\": ");
        render_units(&mut out, &r.semantic[1]);
        out.push('}');
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"b8_qlock_cross_unit\": [\n");
    for (i, r) in qlock.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"len\": {}, \"acq_q_pinned\": {}, \"acq_q_semantic\": {}, \
             \"rel_q_pinned\": {}, \"rel_q_semantic\": {}, \
             \"rel_q_family_hits\": {}}}",
            r.schedule_len,
            r.pinned[0].steps,
            r.semantic[0].steps,
            r.pinned[1].steps,
            r.semantic[1].steps,
            r.semantic[1].family_hits,
        );
        out.push_str(if i + 1 < qlock.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
