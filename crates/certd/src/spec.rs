//! Request/response types of the certification service, and their JSON
//! encodings (the wire re-uses `ccal_forensics::json`, the same
//! deterministic hand-rolled codec the forensics artifacts use).

use ccal_forensics::json::Json;

/// Exploration parameters of a certification request. These feed both
/// the unit fingerprints (so a parameter change is a cache miss) and the
/// `SimOptions`/`ContextGen` of every unit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertParams {
    /// Environment schedule-prefix length of the context family.
    pub schedule_len: usize,
    /// Contention rounds of the scripted environment players.
    pub rounds: u64,
    /// Worker threads per exploration (1 = serial).
    pub workers: usize,
    /// Symmetric-schedule deduplication.
    pub dedup: bool,
    /// Partial-order reduction (grid marking *and* skipping).
    pub por: bool,
    /// Whole-outcome prefix sharing.
    pub prefix_share: bool,
    /// Deep query-point snapshot sharing.
    pub deep_share: bool,
}

impl Default for CertParams {
    fn default() -> Self {
        CertParams {
            schedule_len: 3,
            rounds: 2,
            workers: 1,
            dedup: true,
            por: true,
            prefix_share: true,
            deep_share: true,
        }
    }
}

/// A certification request: one named stack, checked under `params`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRequest {
    /// Registry stack name (`ticket`, `qlock`, `scratch`).
    pub stack: String,
    /// Exploration parameters.
    pub params: CertParams,
    /// Answer units from the certificate store when possible. Results
    /// are stored either way; `false` forces re-exploration.
    pub use_cache: bool,
    /// Keep and reuse warm memo state keyed by unit fingerprint.
    pub warm: bool,
    /// Flat-index cases per shard lease; `0` leases each unit whole
    /// (which also makes per-unit step counters comparable to an
    /// in-process run).
    pub chunk_cases: usize,
}

impl CertRequest {
    /// A default-parameter request for `stack`.
    pub fn new(stack: &str) -> Self {
        CertRequest {
            stack: stack.to_owned(),
            params: CertParams::default(),
            use_cache: true,
            warm: true,
            chunk_cases: 0,
        }
    }
}

/// Per-unit outcome and accounting in a [`CertResponse`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitReport {
    /// Unit name (e.g. `funlift/acq`).
    pub unit: String,
    /// Content fingerprint (32 hex digits) keying the store and the warm
    /// state.
    pub fingerprint: String,
    /// Answered from the certificate store (zero exploration steps).
    pub cache_hit: bool,
    /// Number of grid windows the unit was cut into.
    pub chunks: usize,
    /// Windows executed by shard processes (the rest ran locally).
    pub remote_chunks: usize,
    /// Leases abandoned (shard death/stall) and re-queued.
    pub retries: u64,
    /// Cases explored (kernel accounting, summed over windows).
    pub cases_checked: usize,
    /// Cases skipped by dedup.
    pub cases_skipped: usize,
    /// Cases pruned by POR.
    pub cases_reduced: usize,
    /// Rendered simulation failure, if the unit failed.
    pub failure: Option<String>,
    /// Atom-step delta over the unit's runs.
    pub steps: u64,
    /// Prefix-memo shared-run delta.
    pub shared: u64,
    /// Deep snapshot-resume delta.
    pub deep: u64,
    /// Primitive-step delta.
    pub prim_steps: u64,
    /// Memoized outcomes in the warm kernel table after the unit (0 when
    /// cold).
    pub memo_entries: usize,
    /// Snapshots in the warm kernel table after the unit.
    pub snapshot_entries: usize,
    /// Kernel-table snapshot-fork delta.
    pub snapshot_hits: u64,
    /// Kernel-table eviction delta (outcomes and snapshots).
    pub snapshot_evictions: u64,
    /// Upper-run cache hit delta.
    pub upper_hits: u64,
    /// Upper-run cache eviction delta.
    pub upper_evictions: u64,
    /// Reuse events served while the unit's warm state already held
    /// entries at lease start, summed over the unit's windows — the
    /// cross-unit / cross-request family-sharing proxy (semantic sharing
    /// keys let the units of one family feed each other's warm state).
    pub shared_family_hits: u64,
}

/// The daemon's answer to a [`CertRequest`]. Units appear in obligation
/// order and stop at the first failing unit, exactly like the in-process
/// pipeline (`check_fun` returns its first counterexample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertResponse {
    /// Echoed stack name.
    pub stack: String,
    /// All checked units passed.
    pub certified: bool,
    /// First failing unit's rendered counterexample.
    pub failure: Option<String>,
    /// Name of the first failing unit.
    pub failed_unit: Option<String>,
    /// Per-unit reports, obligation order.
    pub units: Vec<UnitReport>,
    /// Units answered from the certificate store.
    pub cache_hits: usize,
    /// The whole request was answered from the stack manifest: every
    /// unit fingerprint was clean in the store, so the registry was
    /// never asked to decompose the stack.
    pub manifest_hit: bool,
    /// Total atom-step delta over the request (0 on a pure cache hit).
    pub total_steps: u64,
}

// ---------------------------------------------------------------------
// JSON codecs
// ---------------------------------------------------------------------

pub(crate) fn opt_str(v: &Option<String>) -> Json {
    match v {
        Some(s) => Json::Str(s.clone()),
        None => Json::Null,
    }
}

pub(crate) fn get<'a>(j: &'a Json, k: &str) -> Result<&'a Json, String> {
    j.get(k).ok_or_else(|| format!("missing field `{k}`"))
}

pub(crate) fn get_str(j: &Json, k: &str) -> Result<String, String> {
    get(j, k)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field `{k}` is not a string"))
}

pub(crate) fn get_opt_str(j: &Json, k: &str) -> Result<Option<String>, String> {
    match j.get(k) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("field `{k}` is not a string or null")),
    }
}

pub(crate) fn get_bool(j: &Json, k: &str) -> Result<bool, String> {
    get(j, k)?
        .as_bool()
        .ok_or_else(|| format!("field `{k}` is not a bool"))
}

pub(crate) fn get_u64(j: &Json, k: &str) -> Result<u64, String> {
    let n = get(j, k)?
        .as_int()
        .ok_or_else(|| format!("field `{k}` is not an integer"))?;
    u64::try_from(n).map_err(|_| format!("field `{k}` is negative"))
}

pub(crate) fn get_usize(j: &Json, k: &str) -> Result<usize, String> {
    Ok(get_u64(j, k)? as usize)
}

pub(crate) fn int(v: u64) -> Json {
    Json::Int(v as i64)
}

impl CertParams {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schedule_len", int(self.schedule_len as u64)),
            ("rounds", int(self.rounds)),
            ("workers", int(self.workers as u64)),
            ("dedup", Json::Bool(self.dedup)),
            ("por", Json::Bool(self.por)),
            ("prefix_share", Json::Bool(self.prefix_share)),
            ("deep_share", Json::Bool(self.deep_share)),
        ])
    }

    /// Decodes from [`CertParams::to_json`]'s encoding. Unknown keys are
    /// ignored, so requests from older clients that still send a retired
    /// option decode to the same parameters as requests without it.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(CertParams {
            schedule_len: get_usize(j, "schedule_len")?,
            rounds: get_u64(j, "rounds")?,
            workers: get_usize(j, "workers")?,
            dedup: get_bool(j, "dedup")?,
            por: get_bool(j, "por")?,
            prefix_share: get_bool(j, "prefix_share")?,
            deep_share: get_bool(j, "deep_share")?,
        })
    }
}

impl CertRequest {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stack", Json::Str(self.stack.clone())),
            ("params", self.params.to_json()),
            ("use_cache", Json::Bool(self.use_cache)),
            ("warm", Json::Bool(self.warm)),
            ("chunk_cases", int(self.chunk_cases as u64)),
        ])
    }

    /// Decodes from [`CertRequest::to_json`]'s encoding.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(CertRequest {
            stack: get_str(j, "stack")?,
            params: CertParams::from_json(get(j, "params")?)?,
            use_cache: get_bool(j, "use_cache")?,
            warm: get_bool(j, "warm")?,
            chunk_cases: get_usize(j, "chunk_cases")?,
        })
    }
}

impl UnitReport {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("unit", Json::Str(self.unit.clone())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("chunks", int(self.chunks as u64)),
            ("remote_chunks", int(self.remote_chunks as u64)),
            ("retries", int(self.retries)),
            ("cases_checked", int(self.cases_checked as u64)),
            ("cases_skipped", int(self.cases_skipped as u64)),
            ("cases_reduced", int(self.cases_reduced as u64)),
            ("failure", opt_str(&self.failure)),
            ("steps", int(self.steps)),
            ("shared", int(self.shared)),
            ("deep", int(self.deep)),
            ("prim_steps", int(self.prim_steps)),
            ("memo_entries", int(self.memo_entries as u64)),
            ("snapshot_entries", int(self.snapshot_entries as u64)),
            ("snapshot_hits", int(self.snapshot_hits)),
            ("snapshot_evictions", int(self.snapshot_evictions)),
            ("upper_hits", int(self.upper_hits)),
            ("upper_evictions", int(self.upper_evictions)),
            ("shared_family_hits", int(self.shared_family_hits)),
        ])
    }

    /// Decodes from [`UnitReport::to_json`]'s encoding.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(UnitReport {
            unit: get_str(j, "unit")?,
            fingerprint: get_str(j, "fingerprint")?,
            cache_hit: get_bool(j, "cache_hit")?,
            chunks: get_usize(j, "chunks")?,
            remote_chunks: get_usize(j, "remote_chunks")?,
            retries: get_u64(j, "retries")?,
            cases_checked: get_usize(j, "cases_checked")?,
            cases_skipped: get_usize(j, "cases_skipped")?,
            cases_reduced: get_usize(j, "cases_reduced")?,
            failure: get_opt_str(j, "failure")?,
            steps: get_u64(j, "steps")?,
            shared: get_u64(j, "shared")?,
            deep: get_u64(j, "deep")?,
            prim_steps: get_u64(j, "prim_steps")?,
            memo_entries: get_usize(j, "memo_entries")?,
            snapshot_entries: get_usize(j, "snapshot_entries")?,
            snapshot_hits: get_u64(j, "snapshot_hits")?,
            snapshot_evictions: get_u64(j, "snapshot_evictions")?,
            upper_hits: get_u64(j, "upper_hits")?,
            upper_evictions: get_u64(j, "upper_evictions")?,
            // Tolerant: responses encoded before the counter existed
            // observed no family sharing.
            shared_family_hits: j
                .get("shared_family_hits")
                .and_then(Json::as_int)
                .and_then(|n| u64::try_from(n).ok())
                .unwrap_or(0),
        })
    }
}

impl CertResponse {
    /// Encodes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stack", Json::Str(self.stack.clone())),
            ("certified", Json::Bool(self.certified)),
            ("failure", opt_str(&self.failure)),
            ("failed_unit", opt_str(&self.failed_unit)),
            (
                "units",
                Json::Arr(self.units.iter().map(UnitReport::to_json).collect()),
            ),
            ("cache_hits", int(self.cache_hits as u64)),
            ("manifest_hit", Json::Bool(self.manifest_hit)),
            ("total_steps", int(self.total_steps)),
        ])
    }

    /// Decodes from [`CertResponse::to_json`]'s encoding.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let units = get(j, "units")?
            .as_arr()
            .ok_or("field `units` is not an array")?
            .iter()
            .map(UnitReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CertResponse {
            stack: get_str(j, "stack")?,
            certified: get_bool(j, "certified")?,
            failure: get_opt_str(j, "failure")?,
            failed_unit: get_opt_str(j, "failed_unit")?,
            units,
            cache_hits: get_usize(j, "cache_hits")?,
            // Tolerant: responses encoded before the manifest fast path
            // existed never hit it.
            manifest_hit: j
                .get("manifest_hit")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            total_steps: get_u64(j, "total_steps")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = CertRequest::new("ticket");
        req.params.workers = 4;
        req.params.por = false;
        req.use_cache = false;
        req.chunk_cases = 7;
        let back = CertRequest::from_json(&req.to_json()).expect("decodes");
        assert_eq!(req, back);
    }

    #[test]
    fn requests_carrying_the_retired_state_dedup_key_decode_unchanged() {
        // Clients built while convergence dedup existed still send
        // `"state_dedup": false` inside `params`; the key is ignored, so
        // such a request names the same parameters and the same stack
        // manifest as one without it.
        let req = CertRequest::new("qlock");
        let plain = req.to_json();
        let mut legacy = plain.clone();
        let Json::Obj(fields) = &mut legacy else {
            panic!("requests encode as an object");
        };
        let Some(Json::Obj(params)) = fields.get_mut("params") else {
            panic!("params encode as an object");
        };
        params.insert("state_dedup".into(), Json::Bool(false));
        let text = legacy.to_string();
        assert!(text.contains("\"state_dedup\": false"), "{text}");
        let legacy = ccal_forensics::json::parse(&text).expect("parses");
        let legacy = CertRequest::from_json(&legacy).expect("decodes");
        let plain = CertRequest::from_json(&plain).expect("decodes");
        assert_eq!(legacy, plain);
        assert_eq!(
            crate::registry::manifest_key(&legacy.stack, &legacy.params),
            crate::registry::manifest_key(&plain.stack, &plain.params),
        );
    }

    #[test]
    fn requests_carrying_the_retired_bytecode_key_decode_unchanged() {
        // Clients built while the execution tier was a request parameter
        // still send `"bytecode": false`; the tier is bit-identical, so the
        // key is ignored and such a request names the same parameters, the
        // same manifest and the same unit fingerprints as the default one.
        let req = CertRequest::new("ticket");
        let mut legacy = req.to_json();
        let Json::Obj(fields) = &mut legacy else {
            panic!("requests encode as an object");
        };
        let Some(Json::Obj(params)) = fields.get_mut("params") else {
            panic!("params encode as an object");
        };
        params.insert("bytecode".into(), Json::Bool(false));
        let text = legacy.to_string();
        assert!(text.contains("\"bytecode\": false"), "{text}");
        let legacy = ccal_forensics::json::parse(&text).expect("parses");
        let legacy = CertRequest::from_json(&legacy).expect("decodes");
        assert_eq!(legacy, req);
        let fingerprints = |params: &CertParams| {
            crate::registry::stack_units("ticket", params)
                .expect("resolves")
                .into_iter()
                .map(|u| (u.name, u.fingerprint))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fingerprints(&legacy.params),
            fingerprints(&CertParams::default())
        );
        assert_eq!(
            crate::registry::manifest_key("ticket", &legacy.params),
            crate::registry::manifest_key("ticket", &CertParams::default()),
        );
    }

    #[test]
    fn response_round_trips_with_failure() {
        let resp = CertResponse {
            stack: "scratch".into(),
            certified: false,
            failure: Some("simulation fails on context #3".into()),
            failed_unit: Some("op".into()),
            units: vec![UnitReport {
                unit: "op".into(),
                fingerprint: "0".repeat(32),
                failure: Some("simulation fails on context #3".into()),
                chunks: 4,
                retries: 1,
                steps: 99,
                shared_family_hits: 5,
                ..UnitReport::default()
            }],
            cache_hits: 0,
            manifest_hit: false,
            total_steps: 99,
        };
        let back = CertResponse::from_json(&resp.to_json()).expect("decodes");
        assert_eq!(resp, back);

        let hit = CertResponse {
            certified: true,
            failure: None,
            failed_unit: None,
            units: Vec::new(),
            manifest_hit: true,
            total_steps: 0,
            ..resp
        };
        let back = CertResponse::from_json(&hit.to_json()).expect("decodes");
        assert_eq!(hit, back, "manifest_hit round-trips");
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = CertRequest::from_json(&Json::obj([("stack", Json::Str("t".into()))]))
            .expect_err("must fail");
        assert!(err.contains("params"), "error names the field: {err}");
    }
}
