//! Exercises the less-traveled paths of the layer calculus (Fig. 9):
//! weakening on the underlay side, `Compat` failures, and the structural
//! rejection paths of each rule.

use ccal_core::contexts::ContextGen;
use ccal_core::event::EventKind;
use ccal_core::id::{Pid, PidSet};
use ccal_core::layer::{LayerInterface, PrimSpec};
use ccal_core::module::Module;
use ccal_core::prelude::*;

fn step_iface(name: &str) -> LayerInterface {
    LayerInterface::builder(name)
        .prim(PrimSpec::atomic("step", |ctx, _| {
            ctx.emit(EventKind::Prim("step".into(), vec![]));
            Ok(Val::Unit)
        }))
        .build()
}

fn opts() -> CheckOptions {
    CheckOptions::new(
        ContextGen::new(vec![Pid(0), Pid(1)])
            .with_schedule_len(2)
            .contexts(),
    )
}

#[test]
fn weaken_below_strengthens_the_underlay() {
    // L0' ≤_id L0, then weaken L0 ⊢ M : L1 below to L0' ⊢ M : L1.
    let l0_prime = step_iface("L0'");
    let l0 = step_iface("L0");
    let l1 = step_iface("L1");
    let below = check_iface_refinement(&l0_prime, &l0, &SimRelation::identity(), Pid(0), &opts())
        .expect("L0' ≤ L0");
    let layer = check_fun(
        &l0,
        &Module::new("M"),
        &l1,
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("L0 ⊢ M : L1");
    let weakened = weaken(Some(&below), &layer, None).expect("Wk below");
    assert_eq!(weakened.underlay.name, "L0'");
    assert_eq!(weakened.overlay.name, "L1");
    assert_eq!(weakened.relation.name(), "id ∘ id");
}

#[test]
fn weaken_rejects_misaligned_refinements() {
    let l0 = step_iface("L0");
    let l1 = step_iface("L1");
    let unrelated = step_iface("Lx");
    let bad_below = check_iface_refinement(
        &unrelated,
        &unrelated,
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("Lx ≤ Lx");
    let layer = check_fun(
        &l0,
        &Module::new("M"),
        &l1,
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("certifies");
    // The refinement's upper interface (Lx) is not the layer's underlay.
    assert!(matches!(
        weaken(Some(&bad_below), &layer, None),
        Err(LayerError::Mismatch { .. })
    ));
}

#[test]
fn pcomp_rejects_incompatible_conditions() {
    // Layer A guarantees nothing but relies on an invariant only it
    // names: B's guarantee cannot establish it, and there are no probes
    // proving the implication empirically either.
    let demanding = Conditions::none().with(Invariant::fold(
        "exotic-rely",
        |_, _| false,
        |_| (),
        |_, _| true,
    ));
    let iface_a =
        step_iface("L").with_conditions(RelyGuarantee::new(demanding, Conditions::none()));
    let iface_b = step_iface("L");
    let a = empty(&iface_a, PidSet::singleton(Pid(0)));
    let b = empty(&iface_b, PidSet::singleton(Pid(1)));
    let err = pcomp(&a, &b).expect_err("B's guarantee does not imply A's rely");
    match err {
        LayerError::Compat { invariant, .. } => assert_eq!(invariant, "exotic-rely"),
        other => panic!("expected Compat failure, got {other}"),
    }
}

#[test]
fn pcomp_accepts_structurally_shared_conditions() {
    let shared = Conditions::none().with(Invariant::fold(
        "shared-protocol",
        |_, _| false,
        |_| (),
        |_, _| true,
    ));
    let iface = step_iface("L").with_conditions(RelyGuarantee::new(shared.clone(), shared));
    let a = empty(&iface, PidSet::singleton(Pid(0)));
    let b = empty(&iface, PidSet::singleton(Pid(1)));
    let ab = pcomp(&a, &b).expect("same-named conditions are compatible");
    assert_eq!(ab.focused.len(), 2);
    // The composed interface keeps the shared guarantee and rely.
    assert_eq!(
        ab.underlay.conditions.guarantee.names(),
        vec!["shared-protocol"]
    );
    assert_eq!(ab.underlay.conditions.rely.names(), vec!["shared-protocol"]);
}

#[test]
fn hcomp_rejects_relation_mismatch() {
    let l0 = step_iface("L0");
    let a = check_fun(
        &l0,
        &Module::new("M"),
        &step_iface("La"),
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("certifies");
    let b = check_fun(
        &l0,
        &Module::new("N"),
        &step_iface("Lb"),
        &SimRelation::per_event("other", |e| vec![e.clone()]),
        Pid(0),
        &opts(),
    )
    .expect("certifies");
    assert!(matches!(hcomp(&a, &b), Err(LayerError::Mismatch { .. })));
}

#[test]
fn vcomp_rejects_focused_set_mismatch() {
    let l = step_iface("L");
    let a = empty(&l, PidSet::singleton(Pid(0)));
    let b = empty(&l, PidSet::singleton(Pid(1)));
    assert!(matches!(vcomp(&a, &b), Err(LayerError::Mismatch { .. })));
}

#[test]
fn certificates_compose_through_the_whole_derivation() {
    let l0 = step_iface("L0");
    let l1 = step_iface("L1");
    let l2 = step_iface("L2");
    let a = check_fun(
        &l0,
        &Module::new("M"),
        &l1,
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("a");
    let b = check_fun(
        &l1,
        &Module::new("N"),
        &l2,
        &SimRelation::identity(),
        Pid(0),
        &opts(),
    )
    .expect("b");
    let ab = vcomp(&a, &b).expect("vcomp");
    // The composed certificate contains both layers' cases plus the
    // Vcomp record.
    assert_eq!(
        ab.certificate.total_cases(),
        a.certificate.total_cases() + b.certificate.total_cases()
    );
    assert!(ab
        .certificate
        .obligations()
        .iter()
        .any(|o| o.rule == Rule::Vcomp));
    // And the probe suites merged for later Compat use.
    assert!(ab.certificate.probes.len() >= a.certificate.probes.len());
}
