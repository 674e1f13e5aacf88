//! The traced run's in-process replay of the certd request flow must
//! answer exactly as a live daemon does, for both requests the certd
//! workload sends: the cold fill and a manifest hit.

use ccal_certd::client;
use ccal_certd::coordinator::{Daemon, DaemonOptions};
use ccal_certd::proto::Addr;
use ccal_certd::store::CertStore;
use ccal_e2ebench::catalog::Key;
use ccal_e2ebench::certd::{request, Replay};
use ccal_e2ebench::gate::{self, Expect};
use ccal_e2ebench::trace::Tracer;

#[test]
fn replay_answers_like_the_live_daemon() {
    // Relative paths keep the unix socket path short.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).expect("target tmp dir");
    let dir = std::path::Path::new("replay-matches-live");
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear old run");
    }
    std::fs::create_dir_all(dir).expect("work dir");
    let sock = dir.join("d.sock");
    let opts = DaemonOptions {
        store: CertStore::at_dir(dir.join("store")).expect("daemon store"),
        ..DaemonOptions::default()
    };
    let daemon = Daemon::serve(opts, None, Some(&sock)).expect("daemon binds");
    let addr = Addr::Unix(sock.clone());
    let mut replay = Replay::new(&dir.join("replay")).expect("replay store");
    let mut t = Tracer::new();
    t.start_pass(0);

    let key = Key {
        stack: "qlock",
        schedule_len: 4,
        rounds: 1,
    };
    let cold_req = request(key);
    let live_cold = client::certify(&addr, &cold_req).expect("cold request");
    gate::check_certd(&live_cold, "qlock", Expect::Cold).expect("cold answer");
    let replay_cold = replay
        .run(&cold_req, &mut t)
        .expect("replayed cold request");
    gate::check_same(&live_cold, &replay_cold).expect("cold: replay = live");

    let live_hit = client::certify(&addr, &cold_req).expect("hit request");
    gate::check_certd(&live_hit, "qlock", Expect::Hit).expect("hit answer");
    let replay_hit = replay.run(&cold_req, &mut t).expect("replayed hit request");
    gate::check_same(&live_hit, &replay_hit).expect("hit: replay = live");

    // The replay's spans cover the coordinator's calls.
    for name in [
        "registry.decompose",
        "registry.run_lease",
        "store.put",
        "store.get",
        "fingerprint.manifest_key",
        "wire.encode",
        "wire.decode",
    ] {
        assert!(t.spans().iter().any(|s| s.name == name), "no {name} span");
    }
    drop(daemon);
    std::fs::remove_dir_all(dir).expect("clean up");
}
