//! The `certd-hit` workload: a real `ccal-certd serve` process driven over a
//! unix socket, and the in-process replay of its request flow that the
//! traced run times layer by layer.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ccal_certd::proto::{read_msg, write_msg, Addr, Lease, Msg};
use ccal_certd::registry::{self, WarmMap};
use ccal_certd::store::{CertStore, StoredManifest, StoredUnit};
use ccal_certd::{client, CertRequest, CertResponse, UnitReport};
use ccal_core::prefix;

use crate::catalog::Key;
use crate::inproc;
use crate::trace::Tracer;

/// How long a daemon may take to bind its socket.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a daemon may take to exit after a shutdown request.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The request for one catalog key, with default settings: explored
/// cold, then answered from the stack manifest once the store is filled.
pub fn request(key: Key) -> CertRequest {
    let mut req = CertRequest::new(key.stack);
    req.params.schedule_len = key.schedule_len;
    req.params.rounds = key.rounds;
    req.params.workers = 1;
    req
}

/// A running `ccal-certd serve` child with a directory-backed store.
pub struct DaemonProc {
    child: Option<Child>,
    /// Where it listens.
    pub addr: Addr,
}

impl DaemonProc {
    /// Starts the daemon in `dir` (created fresh) with its store in
    /// `dir/store`, and returns once its socket answers. Readiness is the
    /// `--port-file` the daemon renames into place after binding, polled
    /// with a 100 µs backoff.
    ///
    /// # Errors
    ///
    /// Spawn failures, an early exit, or no readiness within 30 s.
    pub fn spawn(bin: &Path, dir: &Path) -> io::Result<DaemonProc> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        let sock = dir.join("d.sock");
        let port_file = dir.join("addr");
        let log = fs::File::create(dir.join("daemon.log"))?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--unix")
            .arg(&sock)
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--port-file")
            .arg(&port_file)
            .env("CCAL_WORKERS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut daemon = DaemonProc {
            child: Some(child),
            addr: Addr::Unix(sock),
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        while !port_file.exists() {
            if let Some(status) = daemon.child_mut().try_wait()? {
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon not ready within 30 s"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        client::ping(&daemon.addr)?;
        Ok(daemon)
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until stop")
    }

    /// The daemon's process id, for `/proc` accounting.
    pub fn pid(&self) -> String {
        self.child.as_ref().map_or(0, Child::id).to_string()
    }

    /// Asks the daemon to exit and waits for it (killing it if it lingers).
    ///
    /// # Errors
    ///
    /// Wait failures.
    pub fn stop(mut self) -> io::Result<()> {
        let _ = client::shutdown(&self.addr);
        let mut child = self.child.take().expect("child present until stop");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                child.kill()?;
                child.wait()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The certified layer a registry unit belongs to.
fn layer_of(unit: &str) -> &'static str {
    match unit.split('/').next() {
        Some("funlift") => "funlift",
        Some("loglift") => "loglift",
        Some("client") => "client",
        _ => "qlock",
    }
}

/// The coordinator's request flow (`Daemon::run_request` with no shards
/// connected), replayed in this process through the same public calls
/// so each can be timed: `manifest_key`, `get_manifest`/`get`,
/// `stack_units`, `run_lease` on `WarmMap::get` state, `put` /
/// `put_manifest` on a directory store, and the `Msg::Result` codec.
pub struct Replay {
    store: CertStore,
    store_dir: PathBuf,
    warm: WarmMap,
    families: BTreeSet<String>,
}

fn file_len(path: PathBuf) -> f64 {
    fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

impl Replay {
    /// A replay over an empty directory store at `dir`.
    ///
    /// # Errors
    ///
    /// Store directory failures.
    pub fn new(dir: &Path) -> io::Result<Replay> {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
        Ok(Replay {
            store: CertStore::at_dir(dir.to_path_buf())?,
            store_dir: dir.to_path_buf(),
            warm: WarmMap::new(),
            families: BTreeSet::new(),
        })
    }

    fn manifest_hit(&self, req: &CertRequest, t: &mut Tracer) -> Option<CertResponse> {
        let key = t.span("fingerprint.manifest_key", "", || {
            registry::manifest_key(&req.stack, &req.params)
        });
        let manifest = t.span("store.get", "", || self.store.get_manifest(key))?;
        let mut units = Vec::with_capacity(manifest.units.len());
        for (name, fp) in &manifest.units {
            let stored = t.span("store.get", "", || self.store.get(*fp))?;
            if stored.failure.is_some() {
                return None;
            }
            units.push(UnitReport {
                unit: name.clone(),
                fingerprint: fp.to_string(),
                cache_hit: true,
                cases_checked: stored.cases_checked,
                cases_skipped: stored.cases_skipped,
                cases_reduced: stored.cases_reduced,
                ..UnitReport::default()
            });
        }
        Some(CertResponse {
            stack: req.stack.clone(),
            certified: true,
            failure: None,
            failed_unit: None,
            cache_hits: units.len(),
            units,
            manifest_hit: true,
            total_steps: 0,
        })
    }

    /// Answers `req` the way the daemon does, recording spans and
    /// counters, then round-trips the answer through the wire codec.
    ///
    /// # Errors
    ///
    /// Registry, lease or codec failures.
    pub fn run(&mut self, req: &CertRequest, t: &mut Tracer) -> Result<CertResponse, String> {
        let span = t.begin("certd.request", "");
        let resp = self.answer(req, t);
        t.end(span);
        let msg = Msg::Result(resp?);
        let mut frame = Vec::new();
        t.span("wire.encode", "", || write_msg(&mut frame, &msg))
            .map_err(|e| format!("encode: {e}"))?;
        t.count("wire.response_bytes", frame.len() as f64);
        let decoded = t
            .span("wire.decode", "", || read_msg(&mut frame.as_slice()))
            .map_err(|e| format!("decode: {e}"))?;
        match (decoded, msg) {
            (Msg::Result(back), Msg::Result(sent)) if back == sent => Ok(back),
            _ => Err("the wire codec changed the answer".into()),
        }
    }

    fn answer(&mut self, req: &CertRequest, t: &mut Tracer) -> Result<CertResponse, String> {
        if req.use_cache {
            if let Some(resp) = self.manifest_hit(req, t) {
                return Ok(resp);
            }
        }
        let before = registry::decompositions_total();
        let defs = t.span("registry.decompose", "", || {
            registry::stack_units(&req.stack, &req.params)
        })?;
        t.count(
            "registry.decompositions",
            registry::decompositions_total().saturating_sub(before) as f64,
        );
        let mut leased = Vec::new();
        let mut reports = Vec::new();
        let mut cache_hits = 0;
        let mut failed_unit = None;
        let mut failure = None;
        for (id, def) in (1u64..).zip(&defs) {
            if req.use_cache {
                if let Some(stored) = t.span("store.get", "", || self.store.get(def.fingerprint)) {
                    cache_hits += 1;
                    let failed = stored.failure.is_some();
                    reports.push(UnitReport {
                        unit: def.name.clone(),
                        fingerprint: def.fingerprint.to_string(),
                        cache_hit: true,
                        cases_checked: stored.cases_checked,
                        cases_skipped: stored.cases_skipped,
                        cases_reduced: stored.cases_reduced,
                        failure: stored.failure.clone(),
                        ..UnitReport::default()
                    });
                    if failed {
                        failure = stored.failure;
                        failed_unit = Some(def.name.clone());
                        break;
                    }
                    continue;
                }
            }
            let lease = Lease {
                id,
                stack: req.stack.clone(),
                unit: def.name.clone(),
                fingerprint: def.fingerprint.to_string(),
                share: def.share.clone(),
                params: req.params.clone(),
                lo: 0,
                hi: def.ncases.max(1),
                warm: req.warm,
            };
            self.families.insert(def.share.clone());
            leased.push(def.name.as_str());
            let conv0 = (prefix::converged_total(), prefix::conv_evictions_total());
            let cr = t.span("registry.run_lease", layer_of(&def.name), || {
                let warm = lease.warm.then(|| self.warm.get(&lease.share));
                registry::run_lease(&lease, warm.as_ref())
            });
            if let Some(e) = cr.error {
                return Err(format!("lease {}: {e}", def.name));
            }
            for (name, v) in [
                ("explore.atom_steps", cr.steps),
                ("explore.prim_steps", cr.prim_steps),
                ("explore.cases_checked", cr.cases_checked as u64),
                ("explore.cases_skipped", cr.cases_skipped as u64),
                ("explore.cases_reduced", cr.cases_reduced as u64),
                ("cache.prefix_shared", cr.shared),
                ("cache.deep_resumes", cr.deep),
                ("cache.snapshot_hits", cr.snapshot_hits),
                ("cache.snapshot_evictions", cr.snapshot_evictions),
                ("cache.upper_hits", cr.upper_hits),
                ("cache.upper_evictions", cr.upper_evictions),
                (
                    "cache.conv_hits",
                    prefix::converged_total().saturating_sub(conv0.0),
                ),
                (
                    "cache.conv_evictions",
                    prefix::conv_evictions_total().saturating_sub(conv0.1),
                ),
            ] {
                t.count(name, v as f64);
            }
            let report = UnitReport {
                unit: def.name.clone(),
                fingerprint: def.fingerprint.to_string(),
                chunks: 1,
                cases_checked: cr.cases_checked,
                cases_skipped: cr.cases_skipped,
                cases_reduced: cr.cases_reduced,
                failure: cr.failure,
                steps: cr.steps,
                shared: cr.shared,
                deep: cr.deep,
                prim_steps: cr.prim_steps,
                memo_entries: cr.memo_entries,
                snapshot_entries: cr.snapshot_entries,
                snapshot_hits: cr.snapshot_hits,
                snapshot_evictions: cr.snapshot_evictions,
                upper_hits: cr.upper_hits,
                upper_evictions: cr.upper_evictions,
                shared_family_hits: cr.shared_family_hits,
                ..UnitReport::default()
            };
            let stored = StoredUnit {
                unit: def.name.clone(),
                cases_checked: report.cases_checked,
                cases_skipped: report.cases_skipped,
                cases_reduced: report.cases_reduced,
                failure: report.failure.clone(),
            };
            t.span("store.put", "", || self.store.put(def.fingerprint, stored));
            t.count("store.writes", 1.0);
            t.count(
                "store.bytes_written",
                file_len(self.store_dir.join(format!("{}.json", def.fingerprint))),
            );
            let failed = report.failure.is_some();
            if failed {
                failure = report.failure.clone();
                failed_unit = Some(def.name.clone());
            }
            reports.push(report);
            if failed {
                break;
            }
        }
        if failure.is_none() && reports.len() == defs.len() {
            let key = t.span("fingerprint.manifest_key", "", || {
                registry::manifest_key(&req.stack, &req.params)
            });
            let manifest = StoredManifest {
                stack: req.stack.clone(),
                units: defs
                    .iter()
                    .map(|d| (d.name.clone(), d.fingerprint))
                    .collect(),
            };
            t.span("store.put", "", || self.store.put_manifest(key, manifest));
            t.count("store.writes", 1.0);
            t.count(
                "store.bytes_written",
                file_len(self.store_dir.join(format!("manifest-{key}.json"))),
            );
        }
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        probe_internal_calls(req, &names, &leased, t);
        let total_steps = reports.iter().map(|r| r.steps).sum();
        Ok(CertResponse {
            stack: req.stack.clone(),
            certified: failure.is_none(),
            failure,
            failed_unit,
            units: reports,
            cache_hits,
            manifest_hit: false,
            total_steps,
        })
    }

    /// Entries resident in the warm state of every family seen so far.
    pub fn resident_entries(&self) -> usize {
        self.families
            .iter()
            .map(|f| {
                let s = self.warm.get(f).stats();
                s.memo_entries + s.snapshot_entries + s.upper_entries
            })
            .sum()
    }
}

/// `stack_units` and every `run_lease` run the stack's ClightX front end
/// and build unit contexts inside the registry, where no outside span can
/// reach. To attribute that cost, the replay re-executes the same public
/// calls (`clightx_module` on the stack's sources, `ContextGen::contexts`
/// for the unit's family) as often as the registry made them for this
/// request: the front end once per decomposition and once per lease,
/// contexts once per unit of the decomposition and once per lease.
fn probe_internal_calls(req: &CertRequest, units: &[&str], leased: &[&str], t: &mut Tracer) {
    let key = Key {
        stack: if req.stack == "ticket" {
            "ticket"
        } else {
            "qlock"
        },
        schedule_len: req.params.schedule_len,
        rounds: req.params.rounds,
    };
    let span = t.begin("certd.probe", "");
    for _ in 0..=leased.len() {
        for &(name, src) in inproc::stack_sources(key.stack) {
            let m = t.span("clightx.front_end", "", || {
                ccal_clightx::clightx_module(name, src)
            });
            std::hint::black_box(m.is_ok());
        }
    }
    for unit in units.iter().chain(leased) {
        let ctx = t.span("contexts.gen", "", || inproc::unit_contexts(unit, key));
        t.count("contexts.count", ctx.len() as f64);
    }
    t.end(span);
}
