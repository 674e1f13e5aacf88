//! An interface's content hash reads nothing but the interface. MCS's
//! bottom interface has `f` and `g` primitives of its own; ticket's
//! interfaces and players have an `f` and a `g` too. Building ticket's
//! must not move MCS's hash, or its certd keys would depend on what else
//! the process happened to build first.
//!
//! This file holds a single test, so its process has built nothing of
//! ticket's before the first hash is taken.

use ccal_core::fingerprint::{ContentHash, ContentHasher};
use ccal_core::id::{Loc, Pid};
use ccal_objects::{mcs, ticket};

fn mcs_l0_hash() -> ContentHash {
    let mut h = ContentHasher::new();
    h.interface("lower", &mcs::l0_mcs_interface());
    h.finish()
}

#[test]
fn mcs_l0_hash_is_the_same_before_and_after_ticket_is_built() {
    let before = mcs_l0_hash();
    let _ticket = (
        ticket::l0_interface(),
        ticket::lock_low_interface(),
        ticket::lock_interface(),
        ticket::l2_interface(),
        ticket::FooEnvPlayer::new(Pid(1), Loc(0), 1),
    );
    assert_eq!(mcs_l0_hash(), before);
}
