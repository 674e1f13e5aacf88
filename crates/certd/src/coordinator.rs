//! The certification daemon: listeners, the chunk lease queue, and the
//! in-order fold that makes sharded exploration observationally
//! identical to a serial in-process run.
//!
//! ## Failure semantics
//!
//! Each unit's flat case grid is cut into windows ("chunks") and leased
//! to connected shards; the coordinator itself runs chunks only when no
//! shard is available (or a chunk has exhausted its remote attempts).
//! Chunk results are folded **in ascending window order**: the unit's
//! failure is the failure of the least failing window (whose own
//! evidence is already index-least within it, because windows keep
//! whole-grid indices), and the case accounting sums the windows below
//! that cut — exactly what a serial whole-grid run reports.
//!
//! A shard that disconnects or stalls mid-lease has its window returned
//! to the queue and re-leased (bounded attempts, then the coordinator
//! runs it locally). Because every window run is deterministic, a killed
//! worker can change neither the verdict nor the evidence — only the
//! `retries` accounting.

use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use ccal_core::engine::Engine;

use crate::proto::{read_msg, write_msg, Addr, ChunkReport, Conn, Lease, Msg, VERSION};
use crate::registry::{self, UnitDef, WarmMap};
use crate::spec::{CertRequest, CertResponse, UnitReport};
use crate::store::{CertStore, StoredManifest, StoredUnit};

/// Daemon configuration.
#[derive(Debug)]
pub struct DaemonOptions {
    /// The certificate store (in-memory or directory-backed).
    pub store: CertStore,
    /// How long a leased chunk may stay silent before it is abandoned
    /// and re-queued. Must exceed the worst-case window runtime.
    pub lease_timeout: Duration,
    /// Remote attempts per chunk before it is forced local.
    pub max_lease_attempts: u32,
    /// Local runner poll interval while waiting for shard results.
    pub local_poll: Duration,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            store: CertStore::in_memory(),
            lease_timeout: Duration::from_secs(30),
            max_lease_attempts: 3,
            local_poll: Duration::from_millis(25),
        }
    }
}

#[derive(Debug)]
enum ChunkState {
    Pending { attempts: u32 },
    Leased { id: u64, attempts: u32 },
    Done(ChunkReport),
}

#[derive(Debug)]
struct ChunkSlot {
    lo: usize,
    hi: usize,
    state: ChunkState,
}

/// The in-flight unit: its chunk table and lease bookkeeping.
#[derive(Debug)]
struct WorkState {
    stack: String,
    unit: String,
    fingerprint: String,
    /// Semantic sharing key — the warm-state key shipped in leases.
    share: String,
    params: crate::spec::CertParams,
    warm: bool,
    chunks: Vec<ChunkSlot>,
    /// Pending chunk indices, kept ascending (preference only; the fold
    /// is order-insensitive because completion is keyed by index).
    queue: VecDeque<usize>,
    /// Least chunk index seen to fail; work above it is cancelled.
    least_failed: Option<usize>,
    retries: u64,
    remote_done: usize,
}

impl WorkState {
    /// Finalizable: every chunk below (and at) the failure cut is done,
    /// or — with no failure — every chunk is done.
    fn finished(&self) -> bool {
        let cut = self.least_failed.unwrap_or(self.chunks.len());
        self.chunks[..cut]
            .iter()
            .all(|c| matches!(c.state, ChunkState::Done(_)))
    }
}

struct Inner {
    opts: DaemonOptions,
    /// The engine every connection thread runs under: the daemon's tier
    /// and sharing mode, and the counters its local runs add to.
    engine: Engine,
    /// Serializes certification requests (one grid in flight at a time;
    /// parallelism lives inside it, via shards and workers).
    certify_gate: Mutex<()>,
    work: Mutex<Option<WorkState>>,
    cond: Condvar,
    warm: WarmMap,
    shards: AtomicUsize,
    lease_seq: AtomicU64,
    stopping: AtomicBool,
    addrs: Mutex<Vec<Addr>>,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    /// Hands out the next eligible pending chunk. Shards take chunks
    /// with remote attempts left; the local runner takes chunks only
    /// when no shard is connected, or when a chunk has exhausted its
    /// remote attempts (the guaranteed-progress fallback).
    fn try_lease(&self, local: bool) -> Option<Lease> {
        let mut guard = relock(self.work.lock());
        let ws = guard.as_mut()?;
        let max = self.opts.max_lease_attempts;
        let shards_present = self.shards.load(Ordering::SeqCst) > 0;
        let pos = ws.queue.iter().position(|&i| {
            let ChunkState::Pending { attempts } = ws.chunks[i].state else {
                return false;
            };
            if local {
                !shards_present || attempts >= max
            } else {
                attempts < max
            }
        })?;
        let idx = ws.queue.remove(pos).expect("position came from the queue");
        let ChunkState::Pending { attempts } = ws.chunks[idx].state else {
            unreachable!("eligibility checked above");
        };
        let id = self.lease_seq.fetch_add(1, Ordering::SeqCst) + 1;
        ws.chunks[idx].state = ChunkState::Leased { id, attempts };
        Some(Lease {
            id,
            stack: ws.stack.clone(),
            unit: ws.unit.clone(),
            fingerprint: ws.fingerprint.clone(),
            share: ws.share.clone(),
            params: ws.params.clone(),
            lo: ws.chunks[idx].lo,
            hi: ws.chunks[idx].hi,
            warm: ws.warm,
        })
    }

    /// Records a finished lease. Stale ids (an abandoned lease whose
    /// shard answered late, or a previous unit's lease) are ignored —
    /// the chunk's current owner is authoritative. Infrastructure
    /// errors re-queue the chunk rather than completing it, with a hard
    /// cap so a deterministic registry error still terminates.
    fn complete_lease(&self, id: u64, report: ChunkReport, remote: bool) {
        let mut guard = relock(self.work.lock());
        if let Some(ws) = guard.as_mut() {
            let slot = ws
                .chunks
                .iter()
                .position(|c| matches!(c.state, ChunkState::Leased { id: lid, .. } if lid == id));
            if let Some(idx) = slot {
                let ChunkState::Leased { attempts, .. } = ws.chunks[idx].state else {
                    unreachable!("matched a leased slot");
                };
                let hard_cap = self.opts.max_lease_attempts + 2;
                if report.error.is_some() && attempts < hard_cap {
                    ws.chunks[idx].state = ChunkState::Pending {
                        attempts: attempts + 1,
                    };
                    ws.retries += 1;
                    ws.queue.push_back(idx);
                    ws.queue.make_contiguous().sort_unstable();
                } else {
                    let failed = report.failure.is_some();
                    ws.chunks[idx].state = ChunkState::Done(report);
                    if remote {
                        ws.remote_done += 1;
                    }
                    if failed && ws.least_failed.is_none_or(|k| idx < k) {
                        ws.least_failed = Some(idx);
                        ws.queue.retain(|&i| i < idx);
                    }
                }
            }
        }
        self.cond.notify_all();
    }

    /// Returns a leased chunk to the queue (shard death or stall).
    fn abandon_lease(&self, id: u64) {
        let mut guard = relock(self.work.lock());
        if let Some(ws) = guard.as_mut() {
            let slot = ws
                .chunks
                .iter()
                .position(|c| matches!(c.state, ChunkState::Leased { id: lid, .. } if lid == id));
            if let Some(idx) = slot {
                let ChunkState::Leased { attempts, .. } = ws.chunks[idx].state else {
                    unreachable!("matched a leased slot");
                };
                ws.chunks[idx].state = ChunkState::Pending {
                    attempts: attempts + 1,
                };
                ws.retries += 1;
                ws.queue.push_back(idx);
                ws.queue.make_contiguous().sort_unstable();
            }
        }
        self.cond.notify_all();
    }

    /// Runs one unit through the chunk queue and folds the windows back
    /// into a serial-equivalent report.
    fn run_unit_distributed(&self, req: &CertRequest, def: &UnitDef) -> Result<UnitReport, String> {
        let ncases = def.ncases.max(1);
        let chunk = if req.chunk_cases == 0 {
            ncases
        } else {
            req.chunk_cases.max(1)
        };
        let nchunks = ncases.div_ceil(chunk);
        {
            let mut guard = relock(self.work.lock());
            *guard = Some(WorkState {
                stack: req.stack.clone(),
                unit: def.name.clone(),
                fingerprint: def.fingerprint.to_string(),
                share: def.share.clone(),
                params: req.params.clone(),
                warm: req.warm,
                chunks: (0..nchunks)
                    .map(|i| ChunkSlot {
                        lo: i * chunk,
                        hi: ((i + 1) * chunk).min(ncases),
                        state: ChunkState::Pending { attempts: 0 },
                    })
                    .collect(),
                queue: (0..nchunks).collect(),
                least_failed: None,
                retries: 0,
                remote_done: 0,
            });
        }
        self.cond.notify_all();
        loop {
            if let Some(lease) = self.try_lease(true) {
                let warm = lease.warm.then(|| self.warm.get(&lease.share));
                let report = registry::run_lease(&lease, warm.as_ref());
                self.complete_lease(lease.id, report, false);
                continue;
            }
            let guard = relock(self.work.lock());
            match guard.as_ref() {
                Some(ws) if ws.finished() => break,
                Some(_) => {
                    let (guard, _) = self
                        .cond
                        .wait_timeout(guard, self.opts.local_poll)
                        .unwrap_or_else(PoisonError::into_inner);
                    drop(guard);
                }
                None => break,
            }
        }
        let ws = relock(self.work.lock())
            .take()
            .ok_or("work state vanished mid-unit")?;
        let mut report = UnitReport {
            unit: def.name.clone(),
            fingerprint: def.fingerprint.to_string(),
            chunks: ws.chunks.len(),
            remote_chunks: ws.remote_done,
            retries: ws.retries,
            ..UnitReport::default()
        };
        let cut = ws.least_failed.unwrap_or(ws.chunks.len());
        for (idx, slot) in ws.chunks.iter().enumerate() {
            if idx > cut {
                break;
            }
            let ChunkState::Done(cr) = &slot.state else {
                return Err(format!("chunk {idx} of `{}` never completed", def.name));
            };
            if let Some(e) = &cr.error {
                return Err(format!("chunk {idx} of `{}` failed: {e}", def.name));
            }
            report.cases_checked += cr.cases_checked;
            report.cases_skipped += cr.cases_skipped;
            report.cases_reduced += cr.cases_reduced;
            report.steps += cr.steps;
            report.shared += cr.shared;
            report.deep += cr.deep;
            report.prim_steps += cr.prim_steps;
            report.memo_entries = report.memo_entries.max(cr.memo_entries);
            report.snapshot_entries = report.snapshot_entries.max(cr.snapshot_entries);
            report.snapshot_hits += cr.snapshot_hits;
            report.snapshot_evictions += cr.snapshot_evictions;
            report.upper_hits += cr.upper_hits;
            report.upper_evictions += cr.upper_evictions;
            report.shared_family_hits += cr.shared_family_hits;
            if idx == cut {
                report.failure = cr.failure.clone();
            }
        }
        Ok(report)
    }

    /// The stack-manifest fast path: if a previous fully-clean run of
    /// this exact (stack, module sources, params) left a manifest, and
    /// every unit fingerprint in it is stored clean, the whole response
    /// is built from the store — the registry is never asked to decompose
    /// the stack (no front-end, no interface construction, no per-unit
    /// fingerprinting). Any gap — no manifest, a missing unit, a stored
    /// failure — falls back to the normal per-unit flow, which
    /// re-derives everything from scratch.
    fn try_manifest(&self, req: &CertRequest) -> Option<CertResponse> {
        let key = registry::manifest_key(&req.stack, &req.params);
        let manifest = self.opts.store.get_manifest(key)?;
        let mut reports = Vec::with_capacity(manifest.units.len());
        for (name, fp) in &manifest.units {
            let stored = self.opts.store.get(*fp)?;
            if stored.failure.is_some() {
                return None;
            }
            reports.push(UnitReport {
                unit: name.clone(),
                fingerprint: fp.to_string(),
                cache_hit: true,
                cases_checked: stored.cases_checked,
                cases_skipped: stored.cases_skipped,
                cases_reduced: stored.cases_reduced,
                ..UnitReport::default()
            });
        }
        let cache_hits = reports.len();
        Some(CertResponse {
            stack: req.stack.clone(),
            certified: true,
            failure: None,
            failed_unit: None,
            units: reports,
            cache_hits,
            manifest_hit: true,
            total_steps: 0,
        })
    }

    /// The certification flow: per unit, answer from the store or
    /// explore via the chunk queue; stop at the first failing unit
    /// (mirroring `check_fun`'s first-counterexample return).
    fn run_request(&self, req: &CertRequest) -> Result<CertResponse, String> {
        let _gate = relock(self.certify_gate.lock());
        if req.use_cache {
            if let Some(resp) = self.try_manifest(req) {
                return Ok(resp);
            }
        }
        let units = registry::stack_units(&req.stack, &req.params)?;
        let mut reports: Vec<UnitReport> = Vec::new();
        let mut cache_hits = 0usize;
        let mut failure: Option<String> = None;
        let mut failed_unit: Option<String> = None;
        for def in &units {
            if req.use_cache {
                if let Some(stored) = self.opts.store.get(def.fingerprint) {
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
            let report = self.run_unit_distributed(req, def)?;
            self.opts.store.put(
                def.fingerprint,
                StoredUnit {
                    unit: def.name.clone(),
                    cases_checked: report.cases_checked,
                    cases_skipped: report.cases_skipped,
                    cases_reduced: report.cases_reduced,
                    failure: report.failure.clone(),
                },
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
        // A clean full run earns a manifest, so the next recertify of
        // this exact (stack, params) can skip decomposition entirely.
        // Failing runs must not: their first-failure flow depends on
        // re-decomposing up to the failing unit.
        if failure.is_none() && reports.len() == units.len() {
            self.opts.store.put_manifest(
                registry::manifest_key(&req.stack, &req.params),
                StoredManifest {
                    stack: req.stack.clone(),
                    units: units
                        .iter()
                        .map(|d| (d.name.clone(), d.fingerprint))
                        .collect(),
                },
            );
        }
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
}

fn handle_client(inner: &Arc<Inner>, conn: &mut Conn) {
    loop {
        match read_msg(conn) {
            Ok(Msg::Certify(req)) => {
                let reply = match inner.run_request(&req) {
                    Ok(resp) => Msg::Result(resp),
                    Err(msg) => Msg::Error { msg },
                };
                if write_msg(conn, &reply).is_err() {
                    return;
                }
            }
            Ok(Msg::Ping) => {
                if write_msg(conn, &Msg::Pong).is_err() {
                    return;
                }
            }
            Ok(Msg::Shutdown) => {
                inner.stopping.store(true, Ordering::SeqCst);
                let _ = write_msg(conn, &Msg::Pong);
                // Poke every listener so its accept loop observes the flag.
                for addr in relock(inner.addrs.lock()).iter() {
                    let _ = Conn::connect(addr);
                }
                return;
            }
            _ => return,
        }
    }
}

fn handle_shard(inner: &Arc<Inner>, conn: &mut Conn) {
    inner.shards.fetch_add(1, Ordering::SeqCst);
    inner.cond.notify_all();
    let _ = conn.set_read_timeout(Some(inner.opts.lease_timeout));
    let mut outstanding: Option<u64> = None;
    loop {
        match read_msg(conn) {
            Ok(Msg::LeaseReq) => {
                if outstanding.is_some() {
                    break;
                }
                let reply = match inner.try_lease(false) {
                    Some(lease) => {
                        outstanding = Some(lease.id);
                        Msg::Lease(lease)
                    }
                    None => Msg::NoWork { retry_ms: 25 },
                };
                if write_msg(conn, &reply).is_err() {
                    break;
                }
            }
            Ok(Msg::ChunkDone { id, report }) => {
                if outstanding == Some(id) {
                    outstanding = None;
                    inner.complete_lease(id, report, true);
                }
            }
            Ok(Msg::Ping) => {
                if write_msg(conn, &Msg::Pong).is_err() {
                    break;
                }
            }
            // Anything else — EOF (a killed shard's socket), a read
            // timeout (a stalled shard), a protocol error — abandons the
            // outstanding lease below so the chunk is re-run elsewhere.
            _ => break,
        }
    }
    if let Some(id) = outstanding {
        inner.abandon_lease(id);
    }
    inner.shards.fetch_sub(1, Ordering::SeqCst);
    inner.cond.notify_all();
}

fn handle_conn(inner: Arc<Inner>, mut conn: Conn) {
    let _entered = inner.engine.enter();
    let role = match read_msg(&mut conn) {
        Ok(Msg::Hello { role, version }) if version == VERSION => role,
        Ok(Msg::Hello { version, .. }) => {
            let _ = write_msg(
                &mut conn,
                &Msg::Error {
                    msg: format!("protocol version mismatch: daemon {VERSION}, peer {version}"),
                },
            );
            return;
        }
        _ => return,
    };
    match role.as_str() {
        "client" => handle_client(&inner, &mut conn),
        "shard" => handle_shard(&inner, &mut conn),
        other => {
            let _ = write_msg(
                &mut conn,
                &Msg::Error {
                    msg: format!("unknown role `{other}`"),
                },
            );
        }
    }
}

/// A running daemon (listeners live on background threads).
pub struct Daemon {
    inner: Arc<Inner>,
    tcp_addr: Option<String>,
    unix_path: Option<PathBuf>,
}

impl Daemon {
    /// Binds the requested listeners and starts serving. `tcp` is a
    /// `host:port` bind spec (port 0 picks an ephemeral port); `unix` a
    /// socket path (a stale file is replaced).
    ///
    /// # Errors
    ///
    /// Bind failures; requesting no listener at all.
    pub fn serve(
        opts: DaemonOptions,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> io::Result<Daemon> {
        if tcp.is_none() && unix.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "daemon needs at least one listener (tcp or unix)",
            ));
        }
        let inner = Arc::new(Inner {
            opts,
            engine: Engine::default(),
            certify_gate: Mutex::new(()),
            work: Mutex::new(None),
            cond: Condvar::new(),
            warm: WarmMap::new(),
            shards: AtomicUsize::new(0),
            lease_seq: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            addrs: Mutex::new(Vec::new()),
        });
        let mut tcp_addr = None;
        if let Some(spec) = tcp {
            let listener = TcpListener::bind(spec)?;
            let addr = listener.local_addr()?.to_string();
            relock(inner.addrs.lock()).push(Addr::Tcp(addr.clone()));
            tcp_addr = Some(addr);
            let accept_inner = Arc::clone(&inner);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if accept_inner.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let conn_inner = Arc::clone(&accept_inner);
                        thread::spawn(move || handle_conn(conn_inner, Conn::Tcp(stream)));
                    }
                }
            });
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            relock(inner.addrs.lock()).push(Addr::Unix(path.to_path_buf()));
            unix_path = Some(path.to_path_buf());
            let accept_inner = Arc::clone(&inner);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if accept_inner.stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let conn_inner = Arc::clone(&accept_inner);
                        thread::spawn(move || handle_conn(conn_inner, Conn::Unix(stream)));
                    }
                }
            });
        }
        #[cfg(not(unix))]
        if unix.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets unsupported on this host",
            ));
        }
        Ok(Daemon {
            inner,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (`host:port`), if a TCP listener was asked
    /// for — with port 0, this is where the ephemeral port shows up.
    pub fn tcp_addr(&self) -> Option<&str> {
        self.tcp_addr.as_deref()
    }

    /// The bound unix-socket path, if any.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Asks the listeners to wind down (idempotent).
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        for addr in relock(self.inner.addrs.lock()).iter() {
            let _ = Conn::connect(addr);
        }
    }

    /// Whether shutdown has been requested (by [`Daemon::stop`] or a
    /// protocol `shutdown` message).
    pub fn stopped(&self) -> bool {
        self.inner.stopping.load(Ordering::SeqCst)
    }

    /// The engine the daemon's connection threads run under; its
    /// [`Engine::totals`] count the work of the daemon's local runs (not
    /// of shards, which report theirs in each `ChunkReport`).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Connected shard count (diagnostic).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.load(Ordering::SeqCst)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}
