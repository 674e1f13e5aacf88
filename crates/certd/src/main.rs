//! `ccal-certd` — the certification service CLI.
//!
//! ```text
//! ccal-certd serve    [--tcp HOST:PORT] [--unix PATH] [--store DIR]
//!                     [--port-file PATH] [--lease-timeout-ms N]
//! ccal-certd shard    --connect ADDR
//! ccal-certd certify  STACK --connect ADDR [--workers N] [--schedule-len N]
//!                     [--rounds N] [--chunk-cases N] [--no-cache] [--no-warm]
//!                     [--no-por] [--no-prefix] [--no-deep] [--no-dedup]
//!                     [--json]
//! ccal-certd stacks
//! ccal-certd ping     --connect ADDR
//! ccal-certd shutdown --connect ADDR
//! ```
//!
//! `ADDR` is `host:port` or `unix:/path/to.sock`. Exit codes: 0 the
//! request succeeded (and, for `certify`, the stack certified); 1 the
//! stack failed certification; 2 usage or infrastructure error.
//!
//! Shard test hooks (used by `scripts/verify.sh` and the differential
//! suite): `CCAL_CERTD_SHARD_EXIT_AFTER=n` makes the shard drop its
//! connection upon receiving its nth lease (exit code 43);
//! `CCAL_CERTD_SHARD_DELAY_MS=ms` sleeps before running each lease.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ccal_certd::coordinator::{Daemon, DaemonOptions};
use ccal_certd::proto::Addr;
use ccal_certd::registry;
use ccal_certd::shard::{run_shard, ShardExit, ShardOptions};
use ccal_certd::spec::CertRequest;
use ccal_certd::store::CertStore;
use ccal_certd::{client, CertResponse};

fn fail(msg: &str) -> ExitCode {
    eprintln!("ccal-certd: {msg}");
    ExitCode::from(2)
}

/// Pulls `--name VALUE` out of `args`, if present.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        if i + 1 >= args.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(value));
    }
    Ok(None)
}

/// Pulls a boolean `--name` out of `args`.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        return true;
    }
    false
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn connect_addr(args: &mut Vec<String>) -> Result<Addr, String> {
    match take_value(args, "--connect")? {
        Some(a) => Ok(Addr::parse(&a)),
        None => Err("--connect ADDR is required".into()),
    }
}

fn cmd_serve(mut args: Vec<String>) -> Result<ExitCode, String> {
    let tcp = take_value(&mut args, "--tcp")?;
    let unix = take_value(&mut args, "--unix")?.map(PathBuf::from);
    let store_dir = take_value(&mut args, "--store")?.map(PathBuf::from);
    let port_file = take_value(&mut args, "--port-file")?.map(PathBuf::from);
    let lease_ms = take_value(&mut args, "--lease-timeout-ms")?
        .map(|v| v.parse::<u64>().map_err(|_| "bad --lease-timeout-ms"))
        .transpose()?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let store = match store_dir {
        Some(dir) => CertStore::at_dir(dir).map_err(|e| format!("store: {e}"))?,
        None => CertStore::in_memory(),
    };
    let mut opts = DaemonOptions {
        store,
        ..DaemonOptions::default()
    };
    if let Some(ms) = lease_ms {
        opts.lease_timeout = Duration::from_millis(ms.max(1));
    }
    // Default to an ephemeral TCP port when no listener is requested.
    let tcp_spec = match (&tcp, &unix) {
        (None, None) => Some("127.0.0.1:0".to_owned()),
        _ => tcp,
    };
    let daemon = Daemon::serve(opts, tcp_spec.as_deref(), unix.as_deref())
        .map_err(|e| format!("serve: {e}"))?;
    if let Some(addr) = daemon.tcp_addr() {
        println!("ccal-certd: listening on {addr}");
    }
    if let Some(path) = daemon.unix_path() {
        println!("ccal-certd: listening on unix:{}", path.display());
    }
    if let Some(path) = &port_file {
        // Written via rename so a polling reader never sees a torn file.
        let addr = daemon
            .tcp_addr()
            .map(str::to_owned)
            .or_else(|| daemon.unix_path().map(|p| format!("unix:{}", p.display())))
            .expect("serve bound at least one listener");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, format!("{addr}\n")).map_err(|e| format!("port file: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("port file: {e}"))?;
    }
    while !daemon.stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_shard(mut args: Vec<String>) -> Result<ExitCode, String> {
    let addr = connect_addr(&mut args)?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let opts = ShardOptions {
        exit_after: env_u64("CCAL_CERTD_SHARD_EXIT_AFTER").map(|n| n as usize),
        delay: Duration::from_millis(env_u64("CCAL_CERTD_SHARD_DELAY_MS").unwrap_or(0)),
    };
    // Retry the initial connect (the daemon may still be binding), then
    // serve until the daemon goes away.
    let mut attempts = 0;
    loop {
        match run_shard(&addr, &opts) {
            Ok(ShardExit::Shutdown) | Ok(ShardExit::ConnectionLost) => {
                return Ok(ExitCode::SUCCESS)
            }
            Ok(ShardExit::Injected) => return Ok(ExitCode::from(43)),
            Err(e) => {
                attempts += 1;
                if attempts >= 50 {
                    return Err(format!("connect: {e}"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn render_plain(resp: &CertResponse) {
    println!("stack: {}", resp.stack);
    println!(
        "verdict: {}",
        if resp.certified { "CERTIFIED" } else { "FAILED" }
    );
    for u in &resp.units {
        println!(
            "unit {unit}: {state} chunks={chunks} remote={remote} retries={retries} \
             checked={checked} skipped={skipped} reduced={reduced} steps={steps} \
             shared={shared} deep={deep} snap_hits={snap_hits} upper_hits={upper_hits} \
             family_hits={family_hits}",
            unit = u.unit,
            state = if u.cache_hit {
                "cache-hit"
            } else if u.failure.is_some() {
                "failed"
            } else {
                "checked"
            },
            chunks = u.chunks,
            remote = u.remote_chunks,
            retries = u.retries,
            checked = u.cases_checked,
            skipped = u.cases_skipped,
            reduced = u.cases_reduced,
            steps = u.steps,
            shared = u.shared,
            deep = u.deep,
            snap_hits = u.snapshot_hits,
            upper_hits = u.upper_hits,
            family_hits = u.shared_family_hits,
        );
    }
    println!("cache_hits: {}", resp.cache_hits);
    if resp.manifest_hit {
        println!("manifest_hit: true");
    }
    println!("total_steps: {}", resp.total_steps);
    if let Some(unit) = &resp.failed_unit {
        println!("failed_unit: {unit}");
    }
    if let Some(failure) = &resp.failure {
        println!("--- counterexample ---");
        println!("{failure}");
    }
}

fn cmd_certify(mut args: Vec<String>) -> Result<ExitCode, String> {
    let addr = connect_addr(&mut args)?;
    let json = take_flag(&mut args, "--json");
    let mut req = CertRequest::new("");
    if let Some(v) = take_value(&mut args, "--workers")? {
        req.params.workers = v.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(v) = take_value(&mut args, "--schedule-len")? {
        req.params.schedule_len = v.parse().map_err(|_| "bad --schedule-len")?;
    }
    if let Some(v) = take_value(&mut args, "--rounds")? {
        req.params.rounds = v.parse().map_err(|_| "bad --rounds")?;
    }
    if let Some(v) = take_value(&mut args, "--chunk-cases")? {
        req.chunk_cases = v.parse().map_err(|_| "bad --chunk-cases")?;
    }
    req.use_cache = !take_flag(&mut args, "--no-cache");
    req.warm = !take_flag(&mut args, "--no-warm");
    req.params.por = !take_flag(&mut args, "--no-por");
    req.params.prefix_share = !take_flag(&mut args, "--no-prefix");
    req.params.deep_share = !take_flag(&mut args, "--no-deep");
    req.params.dedup = !take_flag(&mut args, "--no-dedup");
    let mut rest = args.into_iter();
    req.stack = rest.next().ok_or("certify needs a STACK argument")?;
    let rest: Vec<String> = rest.collect();
    if !rest.is_empty() {
        return Err(format!("unexpected arguments: {rest:?}"));
    }
    let resp = client::certify(&addr, &req).map_err(|e| e.to_string())?;
    if json {
        print!("{}", resp.to_json().pretty());
    } else {
        render_plain(&resp);
    }
    Ok(if resp.certified {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return fail("usage: ccal-certd <serve|shard|certify|stacks|ping|shutdown> ...");
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "serve" => cmd_serve(argv),
        "shard" => cmd_shard(argv),
        "certify" => cmd_certify(argv),
        "stacks" => {
            for s in registry::known_stacks() {
                println!("{s}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "ping" => {
            let mut args = argv;
            connect_addr(&mut args)
                .and_then(|addr| client::ping(&addr).map_err(|e| e.to_string()))
                .map(|()| {
                    println!("pong");
                    ExitCode::SUCCESS
                })
        }
        "shutdown" => {
            let mut args = argv;
            connect_addr(&mut args)
                .and_then(|addr| client::shutdown(&addr).map_err(|e| e.to_string()))
                .map(|()| ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    result.unwrap_or_else(|msg| fail(&msg))
}
