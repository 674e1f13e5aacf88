//! Versioned, self-describing trace artifacts.
//!
//! A [`TraceArtifact`] is the on-disk witness of one minimized checker
//! failure: which checker and object failed, the 1-minimal scripted
//! environment context that forces the failure, the options fingerprint
//! the replay must use, the expected verdict (reason + full first-failure
//! log), and the shrink accounting. Artifacts are plain JSON
//! (`FORMAT_VERSION` gates future migrations) and are replayed by
//! [`crate::registry::replay_artifact`] / the `ccal-replay` binary.

use std::path::{Path, PathBuf};

use ccal_core::forensics::ShrinkNote;
use ccal_core::log::Log;

use crate::json::Json;
use crate::scripted::ScriptedContext;
use crate::wire::{self, WireError};

/// Current artifact format version.
pub const FORMAT_VERSION: i64 = 1;

/// The expected verdict a replay must reproduce bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedFailure {
    /// The failure reason exactly as the checker reported it.
    pub reason: String,
    /// The case detail string (context/args/script indices).
    pub detail: String,
    /// The full first-failure log.
    pub log: Log,
}

/// The options fingerprint a replay runs under. Replay always bypasses
/// the parallel/POR/dedup machinery — these fields *record* that, so an
/// artifact is self-describing about the configuration that validates it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Machine fuel of the checker run.
    pub machine_fuel: u64,
    /// Worker threads (always 1 for replay).
    pub workers: u64,
    /// Upper-run memoization (always off for replay).
    pub dedup: bool,
    /// Partial-order reduction (always off for replay).
    pub por: bool,
    /// Prefix-sharing of lower runs (always off for replay; decoded
    /// tolerantly — artifacts written before the knob existed read as
    /// `false`).
    pub prefix_share: bool,
    /// Deep prefix-sharing via query-point snapshots (always off for
    /// replay; decoded tolerantly like `prefix_share`).
    pub deep_share: bool,
    /// ClightX execution tier at capture time: `true` if primitive bodies
    /// ran on the compiled bytecode VM, `false` for the tree-walking
    /// interpreter. Informational — the tiers are bit-identical, so a
    /// replay validates on either — and decoded tolerantly (artifacts
    /// written before the compile tier existed read as `false`).
    pub bytecode: bool,
    /// Semantic sharing keys at capture time: `true` if warm-state
    /// families were keyed by content (`ShareKey`), `false` when they were
    /// pinned per unit. Informational — replay runs
    /// memo-free, so the key space is irrelevant to validation — and
    /// decoded tolerantly (artifacts written before the flag existed
    /// read as `false`).
    pub share_semantic: bool,
}

/// One serialized failure witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifact {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: i64,
    /// The checker that failed: `sim`, `live`, `linz`, `race`, `seqref`.
    pub checker: String,
    /// The seeded-bug object the checker ran against.
    pub object: String,
    /// The replay configuration fingerprint.
    pub options: ReplayOptions,
    /// The minimized adversarial context.
    pub context: ScriptedContext,
    /// The verdict the replay must reproduce.
    pub expected: ExpectedFailure,
    /// Shrink accounting (original/minimized steps, oracle runs).
    pub shrink: ShrinkNote,
}

impl TraceArtifact {
    /// Encodes the artifact as a JSON document.
    pub fn encode(&self) -> Json {
        Json::obj([
            ("version", Json::Int(self.version)),
            ("checker", Json::Str(self.checker.clone())),
            ("object", Json::Str(self.object.clone())),
            (
                "options",
                Json::obj([
                    ("machine_fuel", Json::Int(self.options.machine_fuel as i64)),
                    ("workers", Json::Int(self.options.workers as i64)),
                    ("dedup", Json::Bool(self.options.dedup)),
                    ("por", Json::Bool(self.options.por)),
                    ("prefix_share", Json::Bool(self.options.prefix_share)),
                    ("deep_share", Json::Bool(self.options.deep_share)),
                    ("bytecode", Json::Bool(self.options.bytecode)),
                    ("share_semantic", Json::Bool(self.options.share_semantic)),
                ]),
            ),
            ("context", self.context.encode()),
            (
                "expected",
                Json::obj([
                    ("reason", Json::Str(self.expected.reason.clone())),
                    ("detail", Json::Str(self.expected.detail.clone())),
                    ("log", wire::encode_log(&self.expected.log)),
                ]),
            ),
            (
                "shrink",
                Json::obj([
                    (
                        "original_steps",
                        Json::Int(self.shrink.original_steps as i64),
                    ),
                    (
                        "minimized_steps",
                        Json::Int(self.shrink.minimized_steps as i64),
                    ),
                    ("iterations", Json::Int(self.shrink.iterations as i64)),
                ]),
            ),
        ])
    }

    /// Decodes an artifact from JSON.
    ///
    /// # Errors
    ///
    /// [`WireError`] on shape mismatches or unsupported versions.
    pub fn decode(j: &Json) -> Result<Self, WireError> {
        let version = j
            .get("version")
            .and_then(Json::as_int)
            .ok_or_else(|| WireError("artifact missing `version`".into()))?;
        if version != FORMAT_VERSION {
            return Err(WireError(format!(
                "unsupported artifact version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let s = |field: &str| -> Result<String, WireError> {
            j.get(field)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| WireError(format!("artifact missing `{field}`")))
        };
        let checker = s("checker")?;
        let object = s("object")?;
        let oj = j
            .get("options")
            .ok_or_else(|| WireError("artifact missing `options`".into()))?;
        let ou64 = |field: &str| -> Result<u64, WireError> {
            oj.get(field)
                .and_then(Json::as_int)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| WireError(format!("options missing `{field}`")))
        };
        let obool = |field: &str| -> Result<bool, WireError> {
            oj.get(field)
                .and_then(Json::as_bool)
                .ok_or_else(|| WireError(format!("options missing `{field}`")))
        };
        let options = ReplayOptions {
            machine_fuel: ou64("machine_fuel")?,
            workers: ou64("workers")?,
            dedup: obool("dedup")?,
            por: obool("por")?,
            // Tolerant: the field postdates FORMAT_VERSION 1, and replay
            // bypasses the memo structurally either way.
            prefix_share: oj
                .get("prefix_share")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            deep_share: oj
                .get("deep_share")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            // Tolerant like `prefix_share`: predates nothing an old
            // artifact depends on — both tiers validate identically.
            bytecode: oj.get("bytecode").and_then(Json::as_bool).unwrap_or(false),
            // Tolerant: informational provenance only — replay runs
            // memo-free, on either key space.
            share_semantic: oj
                .get("share_semantic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        };
        let context = ScriptedContext::decode(
            j.get("context")
                .ok_or_else(|| WireError("artifact missing `context`".into()))?,
        )?;
        let ej = j
            .get("expected")
            .ok_or_else(|| WireError("artifact missing `expected`".into()))?;
        let es = |field: &str| -> Result<String, WireError> {
            ej.get(field)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| WireError(format!("expected missing `{field}`")))
        };
        let expected = ExpectedFailure {
            reason: es("reason")?,
            detail: es("detail")?,
            log: wire::decode_log(
                ej.get("log")
                    .ok_or_else(|| WireError("expected missing `log`".into()))?,
            )?,
        };
        let sj = j
            .get("shrink")
            .ok_or_else(|| WireError("artifact missing `shrink`".into()))?;
        let susize = |field: &str| -> Result<usize, WireError> {
            sj.get(field)
                .and_then(Json::as_int)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| WireError(format!("shrink missing `{field}`")))
        };
        let shrink = ShrinkNote {
            checker: checker.clone(),
            object: object.clone(),
            original_steps: susize("original_steps")?,
            minimized_steps: susize("minimized_steps")?,
            iterations: susize("iterations")?,
            artifact: String::new(),
        };
        Ok(Self {
            version,
            checker,
            object,
            options,
            context,
            expected,
            shrink,
        })
    }

    /// The canonical file name: `<checker>-<object>-<hash>.json`, where
    /// the hash is FNV-1a over the encoded context (so distinct minimized
    /// contexts for the same fixture get distinct names, and re-emitting
    /// the same one is idempotent).
    pub fn file_name(&self) -> String {
        let payload = self.context.encode().pretty();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in payload.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{}-{}-{:08x}.json", self.checker, self.object, h as u32)
    }

    /// Writes the artifact into `dir`, creating it if needed. Returns the
    /// full path.
    ///
    /// # Errors
    ///
    /// Any I/O error, stringified.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.encode().pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Loads an artifact from a file.
    ///
    /// # Errors
    ///
    /// I/O or decode errors, stringified.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let j = crate::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::decode(&j).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccal_core::event::Event;
    use ccal_core::id::Pid;
    use std::collections::BTreeMap;

    fn sample() -> TraceArtifact {
        TraceArtifact {
            version: FORMAT_VERSION,
            checker: "sim".into(),
            object: "scratch-sensitive".into(),
            options: ReplayOptions {
                machine_fuel: 10_000,
                workers: 1,
                dedup: false,
                por: false,
                prefix_share: false,
                deep_share: false,
                bytecode: false,
                share_semantic: false,
            },
            context: ScriptedContext {
                domain: vec![Pid(0), Pid(1)],
                env_fuel: 10_000,
                schedule: vec![Pid(1)],
                players: BTreeMap::new(),
            },
            expected: ExpectedFailure {
                reason: "return values differ: 1 vs 0".into(),
                detail: "context #0, args #0 []".into(),
                log: ccal_core::log::Log::from_events([Event::sched(Pid(1))]),
            },
            shrink: ShrinkNote {
                checker: "sim".into(),
                object: "scratch-sensitive".into(),
                original_steps: 20,
                minimized_steps: 1,
                iterations: 42,
                artifact: String::new(),
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let a = sample();
        let text = a.encode().pretty();
        let back = TraceArtifact::decode(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn artifacts_carrying_retired_options_still_load() {
        // Artifacts written while convergence dedup existed record
        // `"state_dedup": false` among their options; unknown option keys
        // are ignored, so they decode to the same artifact.
        let a = sample();
        let mut j = a.encode();
        if let Json::Obj(m) = &mut j {
            if let Some(Json::Obj(opts)) = m.get_mut("options") {
                opts.insert("state_dedup".into(), Json::Bool(false));
            }
        }
        let text = j.pretty();
        assert!(text.contains("\"state_dedup\": false"), "{text}");
        let back = TraceArtifact::decode(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn version_gate_rejects_future_formats() {
        let mut j = sample().encode();
        if let Json::Obj(m) = &mut j {
            m.insert("version".into(), Json::Int(99));
        }
        assert!(TraceArtifact::decode(&j).is_err());
    }

    #[test]
    fn file_name_is_deterministic_and_tagged() {
        let a = sample();
        let n1 = a.file_name();
        assert_eq!(n1, a.file_name());
        assert!(n1.starts_with("sim-scratch-sensitive-"));
        assert!(n1.ends_with(".json"));
        let mut b = sample();
        b.context.schedule.push(Pid(0));
        assert_ne!(b.file_name(), n1);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("ccal-forensics-test-artifacts");
        let a = sample();
        let path = a.save(&dir).unwrap();
        let back = TraceArtifact::load(&path).unwrap();
        assert_eq!(back, a);
        let _ = std::fs::remove_file(path);
    }
}
