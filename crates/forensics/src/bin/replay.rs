//! `ccal-replay` — deterministic replay of failure-forensics trace
//! artifacts.
//!
//! ```text
//! ccal-replay <artifact.json | corpus-dir>...   replay artifacts/corpora
//! ccal-replay --emit <dir>                      investigate every fixture,
//!                                               write minimized artifacts
//! ccal-replay --selftest                        investigate + replay +
//!                                               1-minimality, every fixture
//! ```
//!
//! Exit codes: `0` all verdicts reproduced; `1` verdict drift or a failed
//! investigation; `2` usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ccal_forensics::{
    all_fixtures, investigate, one_minimal, probe, replay_artifact, RunConfig, TraceArtifact,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ccal-replay <artifact.json | corpus-dir>...\n       \
         ccal-replay --emit <dir>\n       \
         ccal-replay --selftest"
    );
    ExitCode::from(2)
}

/// Expands artifact files and corpus directories into a flat file list.
fn collect_artifacts(paths: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(format!("no .json artifacts in {}", path.display()));
            }
            files.extend(entries);
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            return Err(format!("no such file or directory: {}", path.display()));
        }
    }
    Ok(files)
}

fn replay_files(files: &[PathBuf]) -> ExitCode {
    let mut drifted = 0_usize;
    for f in files {
        let a = match TraceArtifact::load(f) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        match replay_artifact(&a) {
            Ok(()) => println!(
                "ok   {}/{} ({} steps): {}",
                a.checker,
                a.object,
                a.context.steps(),
                a.expected.reason
            ),
            Err(e) => {
                drifted += 1;
                eprintln!("FAIL {}: {e}", f.display());
            }
        }
    }
    if drifted == 0 {
        println!(
            "replayed {} artifact(s), all verdicts reproduced",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{drifted} of {} artifact(s) drifted", files.len());
        ExitCode::FAILURE
    }
}

fn emit(dir: &Path) -> ExitCode {
    let cfg = RunConfig::replay();
    let mut failed = false;
    for fx in all_fixtures() {
        match investigate(&fx, &cfg) {
            Ok(a) => match a.save(dir) {
                Ok(path) => println!("{} — wrote {}", a.shrink, path.display()),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                failed = true;
                eprintln!("FAIL {}/{}: {e}", fx.checker, fx.object);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn selftest() -> ExitCode {
    let cfg = RunConfig::replay();
    let mut failed = false;
    for fx in all_fixtures() {
        let a = match investigate(&fx, &cfg) {
            Ok(a) => a,
            Err(e) => {
                failed = true;
                eprintln!("FAIL {}/{}: investigate: {e}", fx.checker, fx.object);
                continue;
            }
        };
        if let Err(e) = replay_artifact(&a) {
            failed = true;
            eprintln!("FAIL {}/{}: replay: {e}", fx.checker, fx.object);
            continue;
        }
        if !one_minimal(&a.context, &mut |sc| probe(&fx, sc).is_some()) {
            failed = true;
            eprintln!(
                "FAIL {}/{}: minimized context is not 1-minimal",
                fx.checker, fx.object
            );
            continue;
        }
        println!("ok   {}", a.shrink);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("selftest passed for every fixture");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        None => usage(),
        Some((flag, rest)) if flag == "--selftest" => {
            if rest.is_empty() {
                selftest()
            } else {
                usage()
            }
        }
        Some((flag, rest)) if flag == "--emit" => match rest {
            [dir] => emit(Path::new(dir)),
            _ => usage(),
        },
        Some((flag, _)) if flag.starts_with('-') => usage(),
        _ => match collect_artifacts(&args) {
            Ok(files) => replay_files(&files),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}
