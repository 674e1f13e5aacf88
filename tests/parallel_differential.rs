//! The worker and dedup axes of the engine differential (`tests/engine`):
//! exploring the `(context × argument)` case grid across workers, with or
//! without symmetric-schedule dedup, must be **bit-identical** to the
//! serial checker — same certificates (obligations, counts, probe logs in
//! the same order), same verdicts, and the same *first* failure selected
//! by case index.

mod engine;

use std::sync::Arc;

use ccal::core::contexts::ContextGen;
use ccal::core::env::EnvContext;
use ccal::core::id::{Loc, Pid};
use ccal::objects::sharedq::{certify_shared_queue_tuned, SharedQEnvPlayer};
use ccal::objects::ticket::{certify_ticket_stack_tuned, FooEnvPlayer, TicketEnvPlayer};
use engine::{int_args, op_pair, Row, SHIPPED};

const B: Loc = Loc(0);

fn low_contexts(b: Loc) -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(TicketEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts()
}

fn atomic_contexts(b: Loc) -> Vec<EnvContext> {
    ContextGen::new(vec![Pid(0), Pid(1)])
        .with_player(Pid(1), Arc::new(FooEnvPlayer::new(Pid(1), b, 2)))
        .with_schedule_len(3)
        .contexts()
}

fn ticket_stack(row: Row) -> ccal::objects::ticket::TicketStack {
    certify_ticket_stack_tuned(
        Pid(0),
        B,
        low_contexts(B),
        atomic_contexts(B),
        row.workers,
        row.dedup,
    )
    .expect("the ticket stack certifies")
}

/// The serial, dedup-free row every parallel or deduplicated row must
/// reproduce.
const SERIAL: Row = SHIPPED.with_dedup(false);

#[test]
fn ticket_stack_certificates_are_identical_across_workers_and_dedup() {
    let serial = ticket_stack(SERIAL);
    let parallel = ticket_stack(SERIAL.with_workers(4).with_dedup(true));
    assert_eq!(serial.fun_lift.certificate, parallel.fun_lift.certificate);
    assert_eq!(serial.log_lift.certificate, parallel.log_lift.certificate);
    assert_eq!(
        serial.lock_layer.certificate,
        parallel.lock_layer.certificate
    );
    assert_eq!(
        serial.client_layer.certificate,
        parallel.client_layer.certificate
    );
    assert_eq!(
        serial.full_stack.certificate,
        parallel.full_stack.certificate
    );
    assert_eq!(serial.full_stack.judgment(), parallel.full_stack.judgment());
}

#[test]
fn shared_queue_certificates_are_identical_across_workers_and_dedup() {
    let q = Loc(3);
    let run = |row: Row| {
        let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
            .with_player(Pid(1), Arc::new(SharedQEnvPlayer::new(Pid(1), q, 2)))
            .with_schedule_len(3)
            .contexts();
        certify_shared_queue_tuned(Pid(0), q, contexts, row.workers, row.dedup)
            .expect("the shared queue certifies")
    };
    let serial = run(SERIAL);
    let parallel = run(SERIAL.with_workers(4).with_dedup(true));
    assert_eq!(serial.certificate, parallel.certificate);
    assert_eq!(serial.judgment(), parallel.judgment());
}

/// A deliberately broken refinement with *many* failing cases: return
/// values diverge for every argument ≥ 5 in every context. All engine
/// configurations must report the same first failure — smallest case
/// index, i.e. context #0, args #5.
#[test]
fn first_failure_is_selected_by_case_index_in_every_configuration() {
    let (lower, upper) = op_pair(5);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(3)
        .contexts();
    assert!(contexts.len() > 1, "the grid must span several contexts");
    let args = int_args(10);
    let failures: Vec<_> = [(1, false), (1, true), (4, false), (4, true), (8, true)]
        .into_iter()
        .map(|(workers, dedup)| {
            let row = SHIPPED.with_workers(workers).with_dedup(dedup);
            let failure = row
                .refinement(&lower, "op", &upper, "op", &contexts, &args, &[])
                .expect_err("the refinement is broken");
            (row, failure)
        })
        .collect();
    assert!(
        failures[0].1.case.starts_with("context #0, args #5"),
        "serial first failure must be the smallest case index, got {}",
        failures[0].1.case
    );
    let reference = format!("{}", failures[0].1);
    for (row, failure) in &failures {
        assert_eq!(
            format!("{failure}"),
            reference,
            "{row:?} selected a different failure"
        );
    }
}

/// The work queue hands out cases in chunks of 16; a first failure that
/// sits *beyond* the first chunk, with more failures straddling later
/// chunk boundaries, must still be selected by least case index in every
/// configuration (a worker that grabs a later chunk can reach its failure
/// before the earlier chunk's failure is even run).
#[test]
fn first_failure_beyond_the_first_chunk_is_stable() {
    let (lower, upper) = op_pair(17);
    let contexts = ContextGen::new(vec![Pid(0), Pid(1)])
        .with_schedule_len(1)
        .contexts();
    let args = int_args(20);
    // Failing case indices: 17..20 per context — the first (17) is inside
    // the second chunk, the rest straddle every later chunk boundary.
    assert!(contexts.len() * args.len() > 32, "grid must span 3+ chunks");
    let mut reference: Option<String> = None;
    for workers in [1, 2, 4, 8] {
        let failure = SHIPPED
            .with_workers(workers)
            .with_por(false)
            .refinement(&lower, "op", &upper, "op", &contexts, &args, &[])
            .expect_err("the refinement is broken");
        assert!(
            failure.case.starts_with("context #0, args #17"),
            "workers={workers}: first failure must be case 17, got {}",
            failure.case
        );
        let rendered = format!("{failure}");
        match &reference {
            None => reference = Some(rendered),
            Some(r) => assert_eq!(&rendered, r, "workers={workers} drifted"),
        }
    }
}

/// Forensics captures under a parallel run: workers may record failures
/// from later chunks before abandonment propagates, but the *index-least*
/// capture must be exactly the failure the serial checker reports — that
/// is the witness the shrink/replay pipeline reifies.
#[test]
fn parallel_capture_yields_the_index_least_failing_case() {
    use ccal::core::forensics::CaptureScope;
    use ccal::objects::buggy;

    let check = |workers: usize| {
        SHIPPED
            .with_workers(workers)
            .with_por(false)
            .refinement(
                &buggy::scratch_sensitive_lower(),
                "op",
                &buggy::scratch_sensitive_upper(),
                "op",
                &buggy::scratch_sensitive_contexts(),
                &[vec![]],
                &[],
            )
            .expect_err("the fixture is buggy")
    };
    let scope = CaptureScope::begin();
    let serial_failure = check(1);
    let serial = scope.take();
    let scope = CaptureScope::begin();
    let parallel_failure = check(4);
    let parallel = scope.take();
    let first_serial = serial.first().expect("serial run captured its failure");
    let first_parallel = parallel.first().expect("parallel run captured its failure");
    assert_eq!(first_serial.case_index, first_parallel.case_index);
    assert_eq!(first_serial.detail, first_parallel.detail);
    assert_eq!(first_serial.reason, first_parallel.reason);
    assert_eq!(first_serial.log, first_parallel.log);
    assert_eq!(first_serial.detail, serial_failure.case);
    assert_eq!(format!("{serial_failure}"), format!("{parallel_failure}"));
}

/// Dedup explores each distinct replayed upper environment once, yet the
/// evidence it reports — case counts and probe logs — must be exactly
/// what a dedup-free exploration reports (Fig. 3 walkthrough stack).
#[test]
fn dedup_never_changes_the_verdict_or_the_evidence() {
    for workers in [1, 4] {
        let with_dedup = ticket_stack(SHIPPED.with_workers(workers));
        let without = ticket_stack(SERIAL.with_workers(workers));
        assert_eq!(
            with_dedup.full_stack.certificate, without.full_stack.certificate,
            "workers={workers}: dedup changed the certificate"
        );
        assert_eq!(
            with_dedup.lock_layer.certificate,
            without.lock_layer.certificate
        );
    }
}
