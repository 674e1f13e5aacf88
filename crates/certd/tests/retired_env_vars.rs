//! Regression: the engine's configuration is a plain value that only code
//! sets. The environment variables that once switched the exploration
//! engine (`CCAL_POR`, `CCAL_PREFIX_SHARE`, `CCAL_PREFIX_DEEP`,
//! `CCAL_BYTECODE`, `CCAL_SHARE_SEMANTIC`) or the certificate store
//! (`CCAL_CERTD_CACHE`) are inert: set to `0` before anything reads them,
//! every default stays on and a store lookup still hits. `CCAL_WORKERS`,
//! which once chose the default worker count, is inert too: exploration
//! is serial by default whatever it holds.
//!
//! This binary holds a single test, so no other thread reads the
//! environment while it is modified.

use std::sync::Arc;

use ccal_certd::store::{CertStore, StoredUnit};
use ccal_core::contexts::ContextGen;
use ccal_core::explore::ExploreOptions;
use ccal_core::fingerprint::ContentHash;
use ccal_core::id::{Loc, Pid};
use ccal_core::prefix::{bytecode_effective, share_semantic_effective};
use ccal_core::sim::SimOptions;
use ccal_core::strategy::ScratchPlayer;

const RETIRED: [&str; 6] = [
    "CCAL_POR",
    "CCAL_PREFIX_SHARE",
    "CCAL_PREFIX_DEEP",
    "CCAL_BYTECODE",
    "CCAL_SHARE_SEMANTIC",
    "CCAL_CERTD_CACHE",
];

#[test]
fn retired_variables_switch_nothing_off() {
    for name in RETIRED {
        std::env::set_var(name, "0");
    }

    let explore = ExploreOptions::default();
    assert!(explore.por, "POR stays on");
    assert!(explore.prefix_share, "prefix sharing stays on");
    assert!(explore.deep_share, "deep sharing stays on");
    let sim = SimOptions::default();
    assert!(sim.explore.por && sim.explore.prefix_share && sim.explore.deep_share);
    assert!(bytecode_effective(), "no override means the compiled tier");
    assert!(share_semantic_effective(), "semantic sharing keys stay on");

    for value in ["4", "garbage"] {
        std::env::set_var("CCAL_WORKERS", value);
        assert_eq!(ExploreOptions::default().workers, 1, "CCAL_WORKERS={value}");
        assert_eq!(SimOptions::default().explore.workers, 1, "CCAL_WORKERS={value}");
    }

    // Generated grids still carry the partial-order reduction's marks.
    let contexts = ContextGen::new(vec![Pid(0), Pid(1), Pid(2)])
        .with_player(Pid(1), Arc::new(ScratchPlayer::new(Pid(1), Loc(100))))
        .with_player(Pid(2), Arc::new(ScratchPlayer::new(Pid(2), Loc(101))))
        .with_schedule_len(3)
        .contexts();
    assert!(
        contexts.iter().any(|c| c.is_por_equivalent()),
        "independent players must yield POR-equivalent contexts"
    );

    let store = CertStore::in_memory();
    let unit = StoredUnit {
        unit: "funlift/acq".to_owned(),
        cases_checked: 3,
        cases_skipped: 1,
        cases_reduced: 0,
        failure: None,
    };
    store.put(ContentHash(7), unit.clone());
    assert_eq!(store.get(ContentHash(7)), Some(unit), "store lookups hit");
}
