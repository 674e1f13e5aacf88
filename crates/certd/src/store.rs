//! The content-addressed certificate store.
//!
//! One record per certification unit, keyed by the unit's
//! [`ContentHash`] (sources + interfaces + footprints + relation +
//! context family + full `SimOptions`). Records are held in memory and,
//! when the daemon is given a store directory, mirrored to
//! `<fingerprint>.json` files that survive restarts. Failing verdicts
//! are stored too: re-requesting a known-bad unit replays its rendered
//! counterexample with zero exploration steps.
//!
//! A request with `use_cache` off (`ccal-certd certify --no-cache`)
//! skips every lookup but still writes its results, so a suspect cache
//! can be bypassed and repopulated in one run.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use ccal_core::fingerprint::ContentHash;
use ccal_forensics::json::{self, Json};

use crate::spec::{get_opt_str, get_str, get_u64, get_usize, int, opt_str};

/// On-disk record format version.
const STORE_VERSION: u64 = 1;

/// A stored unit verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredUnit {
    /// Unit name at store time (diagnostic only; the key is the hash).
    pub unit: String,
    /// Cases explored.
    pub cases_checked: usize,
    /// Cases skipped by dedup.
    pub cases_skipped: usize,
    /// Cases pruned by POR.
    pub cases_reduced: usize,
    /// Rendered counterexample, if the unit failed.
    pub failure: Option<String>,
}

impl StoredUnit {
    fn to_json(&self, fp: ContentHash) -> Json {
        Json::obj([
            ("version", int(STORE_VERSION)),
            ("fingerprint", Json::Str(fp.to_string())),
            ("unit", Json::Str(self.unit.clone())),
            ("cases_checked", int(self.cases_checked as u64)),
            ("cases_skipped", int(self.cases_skipped as u64)),
            ("cases_reduced", int(self.cases_reduced as u64)),
            ("failure", opt_str(&self.failure)),
        ])
    }

    fn from_json(j: &Json) -> Result<(ContentHash, StoredUnit), String> {
        if get_u64(j, "version")? != STORE_VERSION {
            return Err("unsupported store record version".into());
        }
        let fp = ContentHash::parse(&get_str(j, "fingerprint")?)
            .ok_or("bad fingerprint in store record")?;
        Ok((
            fp,
            StoredUnit {
                unit: get_str(j, "unit")?,
                cases_checked: get_usize(j, "cases_checked")?,
                cases_skipped: get_usize(j, "cases_skipped")?,
                cases_reduced: get_usize(j, "cases_reduced")?,
                failure: get_opt_str(j, "failure")?,
            },
        ))
    }
}

/// A stack manifest: the unit fingerprints a fully-certified stack
/// decomposed into, keyed by [`manifest_key`](crate::registry::manifest_key)
/// (stack name + every verdict-relevant parameter). A manifest is only
/// written for a *clean* run, so a manifest hit whose units are all
/// stored clean can answer a recertify without decomposing the stack at
/// all — no front-end, no interface construction, no per-unit
/// fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredManifest {
    /// Stack name at store time (diagnostic only; the key is the hash).
    pub stack: String,
    /// `(unit name, unit fingerprint)` in pipeline order.
    pub units: Vec<(String, ContentHash)>,
}

impl StoredManifest {
    fn to_json(&self, fp: ContentHash) -> Json {
        Json::obj([
            ("version", int(STORE_VERSION)),
            ("fingerprint", Json::Str(fp.to_string())),
            ("stack", Json::Str(self.stack.clone())),
            (
                "units",
                Json::Arr(
                    self.units
                        .iter()
                        .map(|(name, ufp)| {
                            Json::obj([
                                ("unit", Json::Str(name.clone())),
                                ("fingerprint", Json::Str(ufp.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<(ContentHash, StoredManifest), String> {
        if get_u64(j, "version")? != STORE_VERSION {
            return Err("unsupported manifest record version".into());
        }
        let fp = ContentHash::parse(&get_str(j, "fingerprint")?)
            .ok_or("bad fingerprint in manifest record")?;
        let units = j
            .get("units")
            .and_then(Json::as_arr)
            .ok_or("field `units` is not an array")?
            .iter()
            .map(|u| {
                let name = get_str(u, "unit")?;
                let ufp = ContentHash::parse(&get_str(u, "fingerprint")?)
                    .ok_or("bad unit fingerprint in manifest record")?;
                Ok((name, ufp))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((
            fp,
            StoredManifest {
                stack: get_str(j, "stack")?,
                units,
            },
        ))
    }
}

/// The certificate store: an in-memory map, optionally mirrored to a
/// directory of `<fingerprint>.json` records (stack manifests go to
/// `manifest-<fingerprint>.json`).
#[derive(Debug)]
pub struct CertStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<ContentHash, StoredUnit>>,
    manifests: Mutex<HashMap<ContentHash, StoredManifest>>,
}

impl CertStore {
    /// A purely in-memory store (dies with the daemon).
    pub fn in_memory() -> CertStore {
        CertStore {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            manifests: Mutex::new(HashMap::new()),
        }
    }

    /// A persistent store rooted at `dir`; loads every parseable record
    /// already present (unreadable files are skipped, not fatal — the
    /// worst case is a re-check).
    ///
    /// # Errors
    ///
    /// Failure to create the directory.
    pub fn at_dir(dir: PathBuf) -> io::Result<CertStore> {
        fs::create_dir_all(&dir)?;
        let mut mem = HashMap::new();
        let mut manifests = HashMap::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(value) = json::parse(&text) else {
                continue;
            };
            let is_manifest = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("manifest-"));
            if is_manifest {
                if let Ok((fp, m)) = StoredManifest::from_json(&value) {
                    manifests.insert(fp, m);
                }
            } else if let Ok((fp, unit)) = StoredUnit::from_json(&value) {
                mem.insert(fp, unit);
            }
        }
        Ok(CertStore {
            dir: Some(dir),
            mem: Mutex::new(mem),
            manifests: Mutex::new(manifests),
        })
    }

    /// The stored verdict for `fp`.
    pub fn get(&self, fp: ContentHash) -> Option<StoredUnit> {
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).get(&fp).cloned()
    }

    /// Mirrors one record to `<dir>/<name>.json` when the store is
    /// persistent. The body goes through a temp file + rename so a
    /// concurrent reader never sees a torn record. A failed write or
    /// rename removes the temp file and is reported on stderr; the caller
    /// still keeps the record in memory, so the only cost is a re-check
    /// after a restart.
    fn write_record(&self, name: &str, body: impl FnOnce() -> String) {
        let Some(dir) = &self.dir else { return };
        let tmp = dir.join(format!(".{name}.tmp"));
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = fs::write(&tmp, body()).and_then(|()| fs::rename(&tmp, &path)) {
            // The temp file may not exist (the write itself failed).
            let _ = fs::remove_file(&tmp);
            eprintln!("ccal-certd: store write of {} failed: {e}", path.display());
        }
    }

    /// Records a verdict (in memory, and on disk when persistent). The
    /// disk copy goes through a temp file + rename; a failed write is
    /// reported on stderr and the verdict is still served from memory.
    pub fn put(&self, fp: ContentHash, unit: StoredUnit) {
        self.write_record(&fp.to_string(), || unit.to_json(fp).pretty());
        self.mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(fp, unit);
    }

    /// The stored stack manifest for `fp`.
    pub fn get_manifest(&self, fp: ContentHash) -> Option<StoredManifest> {
        self.manifests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&fp)
            .cloned()
    }

    /// Records a stack manifest (in memory, and on disk when
    /// persistent), same write discipline as [`CertStore::put`].
    pub fn put_manifest(&self, fp: ContentHash, manifest: StoredManifest) {
        self.write_record(&format!("manifest-{fp}"), || manifest.to_json(fp).pretty());
        self.manifests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(fp, manifest);
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> ContentHash {
        ContentHash(n)
    }

    fn sample(unit: &str) -> StoredUnit {
        StoredUnit {
            unit: unit.into(),
            cases_checked: 10,
            cases_skipped: 2,
            cases_reduced: 3,
            failure: Some("simulation fails on context #1".into()),
        }
    }

    #[test]
    fn memory_store_round_trips() {
        let store = CertStore::in_memory();
        assert!(store.is_empty());
        store.put(fp(42), sample("op"));
        assert_eq!(store.get(fp(42)), Some(sample("op")));
        assert_eq!(store.get(fp(43)), None);
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("ccal-certd-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = CertStore::at_dir(dir.clone()).expect("creates");
            store.put(fp(7), sample("funlift/acq"));
            store.put(
                fp(8),
                StoredUnit {
                    failure: None,
                    ..sample("client/foo")
                },
            );
        }
        let reopened = CertStore::at_dir(dir.clone()).expect("reopens");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(fp(7)), Some(sample("funlift/acq")));
        assert_eq!(reopened.get(fp(8)).expect("present").failure, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_disk_write_keeps_the_record_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ccal-certd-fstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CertStore::at_dir(dir.clone()).expect("creates");
        // The record's final path is already a non-empty directory, so the
        // rename onto it fails.
        let blocker = dir.join(format!("{}.json", fp(21)));
        fs::create_dir_all(&blocker).expect("creates blocker");
        fs::write(blocker.join("occupant"), "x").expect("fills blocker");
        store.put(fp(21), sample("op"));
        assert_eq!(store.get(fp(21)), Some(sample("op")), "served from memory");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn manifest() -> StoredManifest {
        StoredManifest {
            stack: "qlock".into(),
            units: vec![("acq_q".into(), fp(11)), ("rel_q".into(), fp(12))],
        }
    }

    #[test]
    fn manifests_round_trip_and_survive_reopen() {
        let store = CertStore::in_memory();
        assert_eq!(store.get_manifest(fp(99)), None);
        store.put_manifest(fp(99), manifest());
        assert_eq!(store.get_manifest(fp(99)), Some(manifest()));

        let dir = std::env::temp_dir().join(format!("ccal-certd-mstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = CertStore::at_dir(dir.clone()).expect("creates");
            store.put_manifest(fp(99), manifest());
            store.put(fp(11), StoredUnit { failure: None, ..sample("acq_q") });
        }
        let reopened = CertStore::at_dir(dir.clone()).expect("reopens");
        assert_eq!(
            reopened.get_manifest(fp(99)),
            Some(manifest()),
            "manifest survives restart"
        );
        assert_eq!(reopened.len(), 1, "manifest files are not unit records");
        let _ = fs::remove_dir_all(&dir);
    }
}
