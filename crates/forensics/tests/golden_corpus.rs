//! Regression gate over the checked-in golden corpus: every artifact in
//! `forensics/corpus/` must load, replay to a bit-identical verdict, and
//! re-encode to the exact bytes on disk (the JSON writer is
//! deterministic, so any drift in the format or the checkers shows up as
//! a byte diff here).

use std::path::PathBuf;

use ccal_forensics::{replay_artifact, TraceArtifact};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../forensics/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("forensics/corpus exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_covers_every_checker() {
    let files = corpus_files();
    assert!(
        files.len() >= 3,
        "expected at least 3 golden artifacts, found {}",
        files.len()
    );
    for checker in ["sim", "live", "linz", "race", "seqref"] {
        assert!(
            files.iter().any(|f| {
                f.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(&format!("{checker}-")))
            }),
            "no golden artifact for checker `{checker}`"
        );
    }
}

#[test]
fn golden_artifacts_replay_bit_identically() {
    for f in corpus_files() {
        let a = TraceArtifact::load(&f).unwrap_or_else(|e| panic!("{e}"));
        replay_artifact(&a).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
    }
}

/// Every golden artifact's options fingerprint must record that replay
/// runs with prefix-sharing off (alongside the serial/no-dedup/no-POR
/// knobs), and the field must be present in the on-disk bytes — not just
/// defaulted by the tolerant decoder.
#[test]
fn golden_artifacts_record_the_replay_fingerprint() {
    for f in corpus_files() {
        let on_disk = std::fs::read_to_string(&f).unwrap();
        assert!(
            on_disk.contains("\"prefix_share\""),
            "{}: options fingerprint does not record `prefix_share`",
            f.display()
        );
        assert!(
            on_disk.contains("\"bytecode\""),
            "{}: options fingerprint does not record the execution tier",
            f.display()
        );
        let a = TraceArtifact::load(&f).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.options.workers, 1, "{}: replay must be serial", f.display());
        assert!(!a.options.dedup, "{}: replay must not dedup", f.display());
        assert!(!a.options.por, "{}: replay must not reduce", f.display());
        assert!(
            !a.options.prefix_share,
            "{}: replay must not prefix-share",
            f.display()
        );
    }
}

#[test]
fn golden_artifacts_are_byte_stable() {
    for f in corpus_files() {
        let on_disk = std::fs::read_to_string(&f).unwrap();
        let a = TraceArtifact::load(&f).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            a.encode().pretty(),
            on_disk,
            "{}: re-encoding drifted from the checked-in bytes",
            f.display()
        );
    }
}
