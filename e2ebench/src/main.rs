//! `ccal-e2ebench` — one run of one workload.
//!
//! ```text
//! ccal-e2ebench --workload <inproc-cold|certd-hit> --seed N
//!               --seconds S --trace <0|1> [--certd PATH] [--work-dir DIR]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the host record. `--certd` names the `ccal-certd` binary (required by
//! `certd-hit`); `--work-dir` (default `.bench_work`) holds
//! daemon stores, sockets and the span file of a traced run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ccal_certd::registry;
use ccal_certd::spec::CertParams;
use ccal_certd::{client, CertRequest, CertResponse, UnitReport};
use ccal_e2ebench::catalog::{self, Key};
use ccal_e2ebench::certd::{self, DaemonProc, Replay};
use ccal_e2ebench::gate::{self, Expect};
use ccal_e2ebench::inproc::{self, Answer, Item};
use ccal_e2ebench::trace::Tracer;
use ccal_e2ebench::{host, stats};

/// The tail percentile reported next to the median.
const TAIL: f64 = 0.9;
/// Upper limit on the timed phase, whatever `--seconds` and the sample
/// floor ask, so a run always ends well inside its time limit.
const TIMED_CAP: Duration = Duration::from_secs(120);
/// Set-ups per run before and after the timed phase; `setup_s` is the
/// median of all of them, so it samples the host at both ends of the run.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 4;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    certd: Option<PathBuf>,
    work: PathBuf,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        certd: None,
        work: PathBuf::from(".bench_work"),
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--certd" => args.certd = Some(PathBuf::from(&value)),
            "--work-dir" => args.work = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything one run measured.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Untraced pass wall times (ms).
    pass_ms: Vec<f64>,
    timed_s: f64,
    cpu_ms: f64,
    /// The daemon's share of `cpu_ms` (`certd-hit`).
    daemon_cpu_ms: f64,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    steal_share: f64,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    traced_passes: usize,
}

impl Outcome {
    fn record(&mut self, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Runs `one(pass)` until `seconds` have passed and at least `min`
/// passes are in, within [`TIMED_CAP`]. Returns the elapsed seconds.
fn timed_loop(
    seconds: f64,
    min: usize,
    mut one: impl FnMut(u64) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut pass = 0u64;
    while (start.elapsed().as_secs_f64() < seconds || (pass as usize) < min)
        && start.elapsed() < TIMED_CAP
    {
        one(pass)?;
        pass += 1;
    }
    Ok(start.elapsed().as_secs_f64())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- inproc

fn check_inproc(
    item: Item,
    got: &Result<Answer, String>,
    reference: &Answer,
) -> Result<(), String> {
    let a = got.as_ref().map_err(|e| format!("{item:?}: {e}"))?;
    if a.len() != inproc::expected_obligations(item) {
        return Err(format!("{item:?}: {} obligations", a.len()));
    }
    if !reference.is_empty() && a != reference {
        return Err(format!("{item:?}: cases differ from the first pass"));
    }
    Ok(())
}

/// A catalog index with the answer its item gave.
type Indexed = (usize, Result<Answer, String>);

/// One untraced pass; returns its wall time (ms) and the answers.
fn inproc_pass(items: &[Item], seed: u64, pass: u64) -> (f64, Vec<Indexed>) {
    let order = catalog::pass_order(items.len(), seed, pass);
    let t0 = Instant::now();
    let answers: Vec<_> = order
        .into_iter()
        .map(|i| (i, inproc::run(items[i])))
        .collect();
    (ms_since(t0), answers)
}

/// The scratch fixture through the registry, in process: it must fail at
/// its known unit.
fn scratch_in_process() -> Result<CertResponse, String> {
    let params = CertParams::default();
    let mut resp = CertResponse {
        stack: "scratch".into(),
        certified: true,
        failure: None,
        failed_unit: None,
        units: Vec::new(),
        cache_hits: 0,
        manifest_hit: false,
        total_steps: 0,
    };
    for def in registry::stack_units("scratch", &params)? {
        let out = registry::run_unit("scratch", &def.name, &params, None, None)?;
        resp.units.push(UnitReport {
            unit: def.name.clone(),
            failure: out.failure.clone(),
            ..UnitReport::default()
        });
        if out.failure.is_some() {
            resp.certified = false;
            resp.failure = out.failure;
            resp.failed_unit = Some(def.name);
            break;
        }
    }
    Ok(resp)
}

/// Times `n` set-ups of `inproc-cold`: each a fresh process, from spawn
/// to the end of its one discarded pass.
fn probe_setups(args: &Args, n: usize, out: &mut Outcome) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for _ in 0..n {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", "inproc-cold", "--seed"])
            .arg(args.seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("setup probe: {e}"))?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.record(if status.success() {
            Ok(())
        } else {
            Err(format!("setup probe exited {status}"))
        });
    }
    Ok(())
}

fn run_inproc(args: &Args) -> Result<Outcome, String> {
    let items = inproc::items();
    let mut out = Outcome::default();
    if !args.trace {
        probe_setups(args, SETUPS_BEFORE, &mut out)?;
    }
    // This process's own set-up: one discarded pass, which also fixes the
    // reference answers later passes must repeat.
    let mut reference: Vec<Answer> = vec![Vec::new(); items.len()];
    let (_, answers) = inproc_pass(&items, args.seed, u64::MAX);
    for (i, a) in answers {
        out.record(check_inproc(items[i], &a, &reference[i]));
        reference[i] = a.unwrap_or_default();
    }

    let mut tracer = Tracer::new();
    let mut traced_ms = Vec::new();
    let cpu0 = host::cpu_ms("self");
    let jiffies0 = host::cpu_jiffies();
    let min = if args.trace {
        2
    } else {
        stats::min_samples(TAIL)
    };
    out.timed_s = timed_loop(args.seconds, min, |pass| {
        if args.trace && pass % 2 == 1 {
            let order = catalog::pass_order(items.len(), args.seed, pass);
            tracer.start_pass(pass);
            let t0 = Instant::now();
            let answers: Vec<_> = order
                .into_iter()
                .map(|i| (i, inproc::run_traced(items[i], &mut tracer)))
                .collect();
            traced_ms.push(ms_since(t0));
            for (i, a) in answers {
                out.record(check_inproc(items[i], &a, &reference[i]));
            }
        } else {
            let (ms, answers) = inproc_pass(&items, args.seed, pass);
            out.pass_ms.push(ms);
            for (i, a) in answers {
                out.record(check_inproc(items[i], &a, &reference[i]));
            }
        }
        Ok(())
    })?;
    out.cpu_ms = host::cpu_ms("self").zip(cpu0).map_or(0.0, |(b, a)| b - a);
    out.steal_share = host::steal_share(jiffies0, host::cpu_jiffies());
    out.peak_rss_mb = host::peak_rss_mb("self").unwrap_or(0.0);
    out.record(scratch_in_process().and_then(|r| gate::check_scratch(&r)));
    if args.trace {
        finish_trace(args, &mut out, &tracer, &traced_ms, None)?;
    } else {
        probe_setups(args, SETUPS_AFTER, &mut out)?;
    }
    Ok(out)
}

/// The set-up probe child: the first pass of a run with this seed, exit
/// status = gate verdict.
fn setup_probe(seed: u64) -> ExitCode {
    let items = inproc::items();
    let (_, answers) = inproc_pass(&items, seed, u64::MAX);
    let ok = answers
        .iter()
        .all(|(i, a)| check_inproc(items[*i], a, &Vec::new()).is_ok());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ----------------------------------------------------------------- certd

/// Spawns a daemon in `dir` and fills it with one cold pass; returns the
/// daemon and the per-key cold answers.
fn certd_setup(
    bin: &Path,
    dir: &Path,
    keys: &[Key],
    seed: u64,
    out: &mut Outcome,
) -> Result<(DaemonProc, Vec<CertResponse>), String> {
    let daemon = DaemonProc::spawn(bin, dir).map_err(|e| format!("daemon: {e}"))?;
    let mut cold = vec![None; keys.len()];
    for i in catalog::pass_order(keys.len(), seed, u64::MAX) {
        let resp = client::certify(&daemon.addr, &certd::request(keys[i]))
            .map_err(|e| format!("cold fill {:?}: {e}", keys[i]))?;
        out.record(gate::check_certd(&resp, keys[i].stack, Expect::Cold));
        cold[i] = Some(resp);
    }
    Ok((
        daemon,
        cold.into_iter()
            .map(|r| r.expect("every key filled"))
            .collect(),
    ))
}

/// Times `n` certd set-ups, numbered from `first`, each checked against
/// the first set-up's cold answers (kept in `cold`). Returns the last
/// daemon, still running; the others are stopped.
fn certd_setups(
    args: &Args,
    bin: &Path,
    dir: &Path,
    first: usize,
    n: usize,
    cold: &mut Vec<CertResponse>,
    out: &mut Outcome,
) -> Result<DaemonProc, String> {
    let keys = catalog::certd_keys();
    let mut kept: Option<DaemonProc> = None;
    for s in first..first + n {
        if let Some(old) = kept.take() {
            old.stop().map_err(|e| format!("stop daemon: {e}"))?;
        }
        let t0 = Instant::now();
        let (daemon, answers) =
            certd_setup(bin, &dir.join(format!("d{s}")), &keys, args.seed, out)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(daemon);
        if cold.is_empty() {
            *cold = answers;
        } else {
            for (a, b) in cold.iter().zip(&answers) {
                out.record(gate::check_same(a, b));
            }
        }
    }
    kept.ok_or_else(|| "no set-up".into())
}

fn run_certd(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .certd
        .as_deref()
        .ok_or("certd-hit needs --certd <ccal-certd binary>")?;
    let keys = catalog::certd_keys();
    let reqs: Vec<CertRequest> = keys.iter().map(|&k| certd::request(k)).collect();
    let dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let mut out = Outcome::default();
    let before = if args.trace { 1 } else { SETUPS_BEFORE };
    let mut cold = Vec::new();
    let daemon = certd_setups(args, bin, &dir, 0, before, &mut cold, &mut out)?;

    // The replay's own cold fill is traced as the set-up pass: it is where
    // decomposition, leases and store writes run on `certd-hit`.
    let mut fill = Tracer::new();
    let mut replay = None;
    if args.trace {
        let mut r = Replay::new(&dir.join("replay")).map_err(|e| format!("replay store: {e}"))?;
        fill.start_pass(0);
        for i in catalog::pass_order(keys.len(), args.seed, u64::MAX) {
            let resp = r.run(&reqs[i], &mut fill)?;
            out.record(gate::check_same(&cold[i], &resp));
        }
        replay = Some(r);
    }

    let mut tracer = Tracer::new();
    let pid = daemon.pid();
    let cpu0 = host::cpu_ms("self").zip(host::cpu_ms(&pid));
    let jiffies0 = host::cpu_jiffies();
    let min = if args.trace {
        2
    } else {
        stats::min_samples(TAIL)
    };
    out.timed_s = timed_loop(args.seconds, min, |pass| {
        let order = catalog::pass_order(keys.len(), args.seed, pass);
        if let (Some(replay), true) = (replay.as_mut(), pass % 2 == 1) {
            tracer.start_pass(pass);
            for i in order {
                let live = tracer.span("wire.roundtrip", "", || {
                    client::certify(&daemon.addr, &reqs[i])
                });
                let live = live.map_err(|e| format!("{:?}: {e}", keys[i]))?;
                out.record(gate::check_certd(&live, keys[i].stack, Expect::Hit));
                let res = replay.run(&reqs[i], &mut tracer);
                out.record(res.and_then(|r| gate::check_same(&live, &r)));
            }
            tracer.count("cache.resident_entries", replay.resident_entries() as f64);
        } else {
            let t0 = Instant::now();
            let answers: Vec<_> = order
                .into_iter()
                .map(|i| (i, client::certify(&daemon.addr, &reqs[i])))
                .collect();
            out.pass_ms.push(ms_since(t0));
            for (i, resp) in answers {
                let resp = resp.map_err(|e| format!("{:?}: {e}", keys[i]))?;
                out.record(gate::check_certd(&resp, keys[i].stack, Expect::Hit));
            }
        }
        Ok(())
    })?;
    if let (Some((b0, d0)), Some((b1, d1))) = (cpu0, host::cpu_ms("self").zip(host::cpu_ms(&pid))) {
        out.cpu_ms = (b1 - b0) + (d1 - d0);
        out.daemon_cpu_ms = d1 - d0;
    }
    out.steal_share = host::steal_share(jiffies0, host::cpu_jiffies());
    out.peak_rss_mb = host::peak_rss_mb(&pid).unwrap_or(0.0);
    let scratch = client::certify(&daemon.addr, &CertRequest::new("scratch"))
        .map_err(|e| format!("scratch: {e}"))?;
    out.record(gate::check_scratch(&scratch));
    daemon.stop().map_err(|e| format!("stop daemon: {e}"))?;
    if args.trace {
        // The live part of a traced pass is its round trips.
        let live_ms = tracer.pass_ms(|s| s.name == "wire.roundtrip");
        finish_trace(args, &mut out, &tracer, &live_ms, Some(&fill))?;
    } else {
        certd_setups(args, bin, &dir, before, SETUPS_AFTER, &mut cold, &mut out)?
            .stop()
            .map_err(|e| format!("stop daemon: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

// ---------------------------------------------------------------- output

/// Derives the per-layer metrics of a traced run and writes its spans:
/// medians over the traced passes of `t`, and the single set-up pass of
/// `setup` for the `setup.*` metrics.
fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    t: &Tracer,
    traced_ms: &[f64],
    setup: Option<&Tracer>,
) -> Result<(), String> {
    let setup_ms =
        |name: &'static str| setup.map_or(0.0, |f| f.pass_ms(move |s| s.name == name).iter().sum());
    let setup_count = |name: &str| setup.map_or(0.0, |f| f.pass_counts(name).iter().sum());
    let med = |v: Vec<f64>| stats::median(&v);
    let spans = |name: &'static str| med(t.pass_ms(move |s| s.name == name));
    let us = |name: &'static str| spans(name) * 1e3;
    let layer = |tag: &'static str| {
        med(t.pass_ms(move |s| {
            (s.name == "layer" || s.name == "registry.run_lease") && s.tag == tag
        }))
    };
    let count = |name: &str| med(t.pass_counts(name));
    let reuse: Vec<f64> = {
        let parts = [
            "cache.prefix_shared",
            "cache.deep_resumes",
            "cache.conv_hits",
            "cache.upper_hits",
        ];
        let checked = t.pass_counts("explore.cases_checked");
        (0..checked.len())
            .map(|p| {
                let events: f64 = parts.iter().map(|n| t.pass_counts(n)[p]).sum();
                if checked[p] > 0.0 {
                    events / checked[p]
                } else {
                    0.0
                }
            })
            .collect()
    };
    let untraced_p50 = stats::median(&out.pass_ms);
    let traced_p50 = stats::median(traced_ms);
    out.traced_passes = traced_ms.len();
    out.per_layer = vec![
        ("clightx.front_end_ms", spans("clightx.front_end"), "ms"),
        ("contexts.gen_ms", spans("contexts.gen"), "ms"),
        ("contexts.count", count("contexts.count"), "count"),
        ("layer.funlift_ms", layer("funlift"), "ms"),
        ("layer.loglift_ms", layer("loglift"), "ms"),
        ("layer.client_ms", layer("client"), "ms"),
        ("layer.qlock_ms", layer("qlock"), "ms"),
        ("layer.mcs_ms", layer("mcs"), "ms"),
        ("calculus.compose_ms", spans("calculus.compose"), "ms"),
        ("verifier.live_ms", spans("verifier.live"), "ms"),
        ("verifier.linz_ms", spans("verifier.linz"), "ms"),
        ("verifier.race_ms", spans("verifier.race"), "ms"),
        ("verifier.seqref_ms", spans("verifier.seqref"), "ms"),
        ("explore.atom_steps", count("explore.atom_steps"), "count"),
        ("explore.prim_steps", count("explore.prim_steps"), "count"),
        (
            "explore.cases_checked",
            count("explore.cases_checked"),
            "count",
        ),
        (
            "explore.cases_skipped",
            count("explore.cases_skipped"),
            "count",
        ),
        (
            "explore.cases_reduced",
            count("explore.cases_reduced"),
            "count",
        ),
        ("cache.prefix_shared", count("cache.prefix_shared"), "count"),
        ("cache.deep_resumes", count("cache.deep_resumes"), "count"),
        ("cache.conv_hits", count("cache.conv_hits"), "count"),
        (
            "cache.conv_evictions",
            count("cache.conv_evictions"),
            "count",
        ),
        ("cache.snapshot_hits", count("cache.snapshot_hits"), "count"),
        (
            "cache.snapshot_evictions",
            count("cache.snapshot_evictions"),
            "count",
        ),
        ("cache.upper_hits", count("cache.upper_hits"), "count"),
        (
            "cache.upper_evictions",
            count("cache.upper_evictions"),
            "count",
        ),
        (
            "cache.resident_entries",
            count("cache.resident_entries"),
            "count",
        ),
        ("cache.reuse_per_case", med(reuse), "ratio"),
        ("registry.decompose_ms", spans("registry.decompose"), "ms"),
        (
            "registry.decompositions",
            count("registry.decompositions"),
            "count",
        ),
        ("registry.run_lease_ms", spans("registry.run_lease"), "ms"),
        (
            "fingerprint.manifest_key_us",
            us("fingerprint.manifest_key"),
            "us",
        ),
        ("store.put_ms", spans("store.put"), "ms"),
        ("store.writes", count("store.writes"), "count"),
        ("store.bytes_written", count("store.bytes_written"), "bytes"),
        ("store.get_us", us("store.get"), "us"),
        ("wire.encode_us", us("wire.encode"), "us"),
        ("wire.decode_us", us("wire.decode"), "us"),
        ("wire.response_bytes", count("wire.response_bytes"), "bytes"),
        ("wire.roundtrip_ms", spans("wire.roundtrip"), "ms"),
        (
            "setup.registry.decompose_ms",
            setup_ms("registry.decompose"),
            "ms",
        ),
        (
            "setup.registry.decompositions",
            setup_count("registry.decompositions"),
            "count",
        ),
        (
            "setup.registry.run_lease_ms",
            setup_ms("registry.run_lease"),
            "ms",
        ),
        ("setup.store.put_ms", setup_ms("store.put"), "ms"),
        (
            "setup.cache.snapshot_hits",
            setup_count("cache.snapshot_hits"),
            "count",
        ),
        (
            "setup.cache.snapshot_evictions",
            setup_count("cache.snapshot_evictions"),
            "count",
        ),
        (
            "setup.cache.upper_hits",
            setup_count("cache.upper_hits"),
            "count",
        ),
        (
            "setup.cache.upper_evictions",
            setup_count("cache.upper_evictions"),
            "count",
        ),
        ("setup.store.writes", setup_count("store.writes"), "count"),
        (
            "setup.store.bytes_written",
            setup_count("store.bytes_written"),
            "bytes",
        ),
        ("trace.pass_p50_ms", traced_p50, "ms"),
        ("trace.overhead_ms", traced_p50 - untraced_p50, "ms"),
    ];
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let path = |kind: &str| {
        args.work.join(format!(
            "trace-{}-seed{}{kind}.jsonl",
            args.workload, args.seed
        ))
    };
    if let Some(f) = setup {
        let p = path("-setup");
        f.write_jsonl(&p)
            .map_err(|e| format!("{}: {e}", p.display()))?;
    }
    let p = path("");
    t.write_jsonl(&p)
        .map_err(|e| format!("{}: {e}", p.display()))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn render(args: &Args, out: &Outcome) -> Result<(String, String), String> {
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let passes = out.pass_ms.len();
    if args.trace {
        metrics.extend(out.per_layer.iter().copied());
    } else {
        let tail = stats::tail(&out.pass_ms, TAIL).ok_or_else(|| {
            format!(
                "{passes} passes leave fewer than {} beyond p90",
                stats::MIN_BEYOND
            )
        })?;
        metrics.extend([
            ("pass_p50_ms", stats::median(&out.pass_ms), "ms"),
            ("pass_p90_ms", tail.value, "ms"),
            ("passes_per_s", passes as f64 / out.timed_s, "1/s"),
            ("cpu_ms_per_pass", out.cpu_ms / passes.max(1) as f64, "ms"),
            ("peak_rss_mb", out.peak_rss_mb, "MiB"),
            ("setup_s", stats::median(&out.setup_s), "s"),
            (
                "ok_rate",
                (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
                "ratio",
            ),
        ]);
    }
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    let host = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"hardware_threads\": {}, \"pinned_cpus\": {}, \
         \"steal_share\": {}, \"passes\": {passes}, \"traced_passes\": {}, \
         \"p90_beyond\": {}, \"timed_s\": {}, \"setups\": {}, \"daemon_cpu_share\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        host::hardware_threads(),
        host::pinned_cpus(),
        num(out.steal_share),
        out.traced_passes,
        stats::tail(&out.pass_ms, TAIL).map_or(0, |t| t.beyond),
        num(out.timed_s),
        out.setup_s.len(),
        num(out.daemon_cpu_ms / out.cpu_ms),
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
    );
    Ok((host, result))
}

fn main() -> ExitCode {
    if std::env::var_os("CCAL_WORKERS").is_none() {
        // Serial exploration everywhere: `certify_qlock` and
        // `certify_mcs_lock` otherwise take one worker per hardware thread.
        // Still single-threaded here, so setting the variable is sound.
        std::env::set_var("CCAL_WORKERS", "1");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccal-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return setup_probe(args.seed);
    }
    let outcome = match args.workload.as_str() {
        "inproc-cold" => run_inproc(&args),
        "certd-hit" => run_certd(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let rendered = outcome.and_then(|out| {
        for e in &out.errors {
            eprintln!("ccal-e2ebench: gate: {e}");
        }
        render(&args, &out)
    });
    match rendered {
        Ok((host, result)) => {
            println!("host {host}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ccal-e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
