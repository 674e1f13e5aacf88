//! The service wire protocol: length-prefixed JSON frames over TCP or a
//! unix socket.
//!
//! Every message is one frame: a big-endian `u32` byte length followed
//! by that many bytes of compact JSON (an object whose `"t"` field names
//! the message). Frames are capped at 16 MiB; a peer sending a longer
//! frame is protocol-broken and gets disconnected. The JSON layer is the
//! same deterministic codec the forensics artifacts use, so goldens can
//! pin the encoding byte-for-byte.

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use ccal_forensics::json::{self, Json};

use crate::spec::{
    get, get_bool, get_opt_str, get_str, get_u64, get_usize, int, opt_str, CertParams,
    CertRequest, CertResponse,
};

/// Protocol version; both sides send it in `hello` and refuse mismatches.
pub const VERSION: u64 = 1;

/// Maximum frame payload, a guard against protocol confusion.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// A leased window of one unit's flat exploration grid: run cases
/// `lo..hi` (whole-grid indices, so case strings and first-failure
/// evidence are position-independent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Lease id; echoed in the matching [`Msg::ChunkDone`].
    pub id: u64,
    /// Registry stack name.
    pub stack: String,
    /// Unit name within the stack.
    pub unit: String,
    /// The unit's content fingerprint (certificate identity).
    pub fingerprint: String,
    /// The unit's semantic sharing key — the warm-state key on the
    /// shard. Units of one stack whose lower machines are content-equal
    /// carry the same key and share one warm exploration state; equal to
    /// `fingerprint` when semantic sharing is forced off
    /// (`ccal_core::prefix::ShareSemanticOverride`).
    pub share: String,
    /// Exploration parameters.
    pub params: CertParams,
    /// Window start (inclusive flat index).
    pub lo: usize,
    /// Window end (exclusive flat index).
    pub hi: usize,
    /// Reuse warm memo state keyed by `share`.
    pub warm: bool,
}

/// A shard's accounting for one executed lease.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkReport {
    /// Cases explored in the window.
    pub cases_checked: usize,
    /// Cases skipped by dedup in the window.
    pub cases_skipped: usize,
    /// Cases pruned by POR in the window.
    pub cases_reduced: usize,
    /// Rendered simulation failure (index-least within the window).
    pub failure: Option<String>,
    /// Atom-step delta of this run.
    pub steps: u64,
    /// Prefix-memo shared-run delta.
    pub shared: u64,
    /// Deep snapshot-resume delta.
    pub deep: u64,
    /// Primitive-step delta.
    pub prim_steps: u64,
    /// Warm prefix-memo size after the run.
    pub memo_entries: usize,
    /// Warm snapshot-trie size after the run.
    pub snapshot_entries: usize,
    /// Snapshot-trie hit delta.
    pub snapshot_hits: u64,
    /// Snapshot-trie eviction delta.
    pub snapshot_evictions: u64,
    /// Upper-run cache hit delta.
    pub upper_hits: u64,
    /// Upper-run cache eviction delta.
    pub upper_evictions: u64,
    /// Reuse events (shared + deep + snapshot + upper hits) served while
    /// the warm state already held entries at lease start — the
    /// cross-unit / cross-request family-sharing proxy. Zero on cold or
    /// first-in-family runs.
    pub shared_family_hits: u64,
    /// Infrastructure error (registry failure, not a counterexample).
    pub error: Option<String>,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Connection opener: `role` is `"client"` or `"shard"`.
    Hello {
        /// Peer role.
        role: String,
        /// Protocol version.
        version: u64,
    },
    /// Client → daemon: certify a stack.
    Certify(CertRequest),
    /// Daemon → client: the verdict.
    Result(CertResponse),
    /// Shard → daemon: ready for work.
    LeaseReq,
    /// Daemon → shard: a window to explore.
    Lease(Lease),
    /// Daemon → shard: nothing leasable right now; poll again.
    NoWork {
        /// Suggested poll delay.
        retry_ms: u64,
    },
    /// Shard → daemon: a lease's outcome.
    ChunkDone {
        /// Echo of [`Lease::id`].
        id: u64,
        /// The window's accounting.
        report: ChunkReport,
    },
    /// Liveness probe.
    Ping,
    /// Probe answer.
    Pong,
    /// Ask the daemon to exit.
    Shutdown,
    /// Protocol-level failure.
    Error {
        /// Human-readable reason.
        msg: String,
    },
}

impl ChunkReport {
    fn to_json(&self) -> Json {
        Json::obj([
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
            ("error", opt_str(&self.error)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(ChunkReport {
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
            // Tolerant: reports encoded before the counter existed
            // observed no family sharing.
            shared_family_hits: j
                .get("shared_family_hits")
                .and_then(Json::as_int)
                .and_then(|n| u64::try_from(n).ok())
                .unwrap_or(0),
            error: get_opt_str(j, "error")?,
        })
    }
}

impl Lease {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", int(self.id)),
            ("stack", Json::Str(self.stack.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("share", Json::Str(self.share.clone())),
            ("params", self.params.to_json()),
            ("lo", int(self.lo as u64)),
            ("hi", int(self.hi as u64)),
            ("warm", Json::Bool(self.warm)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        let fingerprint = get_str(j, "fingerprint")?;
        // Tolerant: leases encoded before semantic sharing keys existed
        // fall back to the per-unit fingerprint (the old warm key).
        let share = match j.get("share").and_then(Json::as_str) {
            Some(s) => s.to_owned(),
            None => fingerprint.clone(),
        };
        Ok(Lease {
            id: get_u64(j, "id")?,
            stack: get_str(j, "stack")?,
            unit: get_str(j, "unit")?,
            fingerprint,
            share,
            params: CertParams::from_json(get(j, "params")?)?,
            lo: get_usize(j, "lo")?,
            hi: get_usize(j, "hi")?,
            warm: get_bool(j, "warm")?,
        })
    }
}

impl Msg {
    /// Encodes as a tagged JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Msg::Hello { role, version } => Json::obj([
                ("t", Json::Str("hello".into())),
                ("role", Json::Str(role.clone())),
                ("version", int(*version)),
            ]),
            Msg::Certify(req) => {
                Json::obj([("t", Json::Str("certify".into())), ("req", req.to_json())])
            }
            Msg::Result(resp) => {
                Json::obj([("t", Json::Str("result".into())), ("resp", resp.to_json())])
            }
            Msg::LeaseReq => Json::obj([("t", Json::Str("lease_req".into()))]),
            Msg::Lease(lease) => {
                Json::obj([("t", Json::Str("lease".into())), ("lease", lease.to_json())])
            }
            Msg::NoWork { retry_ms } => Json::obj([
                ("t", Json::Str("no_work".into())),
                ("retry_ms", int(*retry_ms)),
            ]),
            Msg::ChunkDone { id, report } => Json::obj([
                ("t", Json::Str("chunk_done".into())),
                ("id", int(*id)),
                ("report", report.to_json()),
            ]),
            Msg::Ping => Json::obj([("t", Json::Str("ping".into()))]),
            Msg::Pong => Json::obj([("t", Json::Str("pong".into()))]),
            Msg::Shutdown => Json::obj([("t", Json::Str("shutdown".into()))]),
            Msg::Error { msg } => Json::obj([
                ("t", Json::Str("error".into())),
                ("msg", Json::Str(msg.clone())),
            ]),
        }
    }

    /// Decodes a tagged JSON object.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let tag = get_str(j, "t")?;
        match tag.as_str() {
            "hello" => Ok(Msg::Hello {
                role: get_str(j, "role")?,
                version: get_u64(j, "version")?,
            }),
            "certify" => Ok(Msg::Certify(CertRequest::from_json(get(j, "req")?)?)),
            "result" => Ok(Msg::Result(CertResponse::from_json(get(j, "resp")?)?)),
            "lease_req" => Ok(Msg::LeaseReq),
            "lease" => Ok(Msg::Lease(Lease::from_json(get(j, "lease")?)?)),
            "no_work" => Ok(Msg::NoWork {
                retry_ms: get_u64(j, "retry_ms")?,
            }),
            "chunk_done" => Ok(Msg::ChunkDone {
                id: get_u64(j, "id")?,
                report: ChunkReport::from_json(get(j, "report")?)?,
            }),
            "ping" => Ok(Msg::Ping),
            "pong" => Ok(Msg::Pong),
            "shutdown" => Ok(Msg::Shutdown),
            "error" => Ok(Msg::Error {
                msg: get_str(j, "msg")?,
            }),
            other => Err(format!("unknown message tag `{other}`")),
        }
    }
}

fn proto_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_msg<W: Write>(w: &mut W, msg: &Msg) -> io::Result<()> {
    let body = msg.to_json().pretty();
    let bytes = body.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| proto_err(format!("frame too large: {} bytes", bytes.len())))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. An EOF before the length prefix maps to
/// [`io::ErrorKind::UnexpectedEof`].
///
/// # Errors
///
/// I/O errors, oversized frames, or undecodable payloads.
pub fn read_msg<R: Read>(r: &mut R) -> io::Result<Msg> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(proto_err(format!("frame too large: {len} bytes")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body).map_err(|e| proto_err(format!("frame not UTF-8: {e}")))?;
    let value = json::parse(text).map_err(|e| proto_err(format!("frame not JSON: {e:?}")))?;
    Msg::from_json(&value).map_err(proto_err)
}

/// A daemon address: TCP `host:port`, or a unix-socket path written as
/// `unix:/path/to.sock`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// TCP host:port.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Addr {
    /// Parses `unix:PATH` or `HOST:PORT`.
    pub fn parse(s: &str) -> Addr {
        match s.strip_prefix("unix:") {
            Some(path) => Addr::Unix(PathBuf::from(path)),
            None => Addr::Tcp(s.to_owned()),
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// A connected protocol stream (TCP or unix).
#[derive(Debug)]
pub enum Conn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-socket transport.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects to a daemon address.
    ///
    /// # Errors
    ///
    /// Connection failures; on non-unix hosts, `unix:` addresses.
    pub fn connect(addr: &Addr) -> io::Result<Conn> {
        match addr {
            Addr::Tcp(hp) => TcpStream::connect(hp.as_str()).map(Conn::Tcp),
            #[cfg(unix)]
            Addr::Unix(p) => UnixStream::connect(p).map(Conn::Unix),
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(proto_err("unix sockets unsupported on this host".into())),
        }
    }

    /// Sets the read timeout (None blocks forever).
    ///
    /// # Errors
    ///
    /// Propagated from the socket layer.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Msg) -> Msg {
        let mut buf = Vec::new();
        write_msg(&mut buf, msg).expect("writes");
        let mut r = buf.as_slice();
        let back = read_msg(&mut r).expect("reads");
        assert!(r.is_empty(), "frame fully consumed");
        back
    }

    #[test]
    fn every_message_round_trips() {
        let lease = Lease {
            id: 7,
            stack: "ticket".into(),
            unit: "funlift/acq".into(),
            fingerprint: "a".repeat(32),
            share: "b".repeat(32),
            params: CertParams::default(),
            lo: 4,
            hi: 9,
            warm: true,
        };
        let report = ChunkReport {
            cases_checked: 5,
            cases_reduced: 2,
            failure: Some("simulation fails".into()),
            steps: 1234,
            snapshot_hits: 3,
            shared_family_hits: 3,
            ..ChunkReport::default()
        };
        let msgs = [
            Msg::Hello {
                role: "shard".into(),
                version: VERSION,
            },
            Msg::Certify(CertRequest::new("qlock")),
            Msg::Result(CertResponse {
                stack: "qlock".into(),
                certified: true,
                failure: None,
                failed_unit: None,
                units: vec![],
                cache_hits: 2,
                manifest_hit: false,
                total_steps: 0,
            }),
            Msg::LeaseReq,
            Msg::Lease(lease),
            Msg::NoWork { retry_ms: 25 },
            Msg::ChunkDone { id: 7, report },
            Msg::Ping,
            Msg::Pong,
            Msg::Shutdown,
            Msg::Error {
                msg: "version mismatch".into(),
            },
        ];
        for msg in &msgs {
            assert_eq!(msg, &round_trip(msg), "{msg:?}");
        }
    }

    #[test]
    fn legacy_frames_without_sharing_fields_decode() {
        // A lease encoded before semantic sharing keys existed carries no
        // `share`: it must decode with the fingerprint as the warm key
        // (the old behavior). Likewise a report without the counter.
        let lease = Lease {
            id: 1,
            stack: "ticket".into(),
            unit: "funlift/acq".into(),
            fingerprint: "a".repeat(32),
            share: "b".repeat(32),
            params: CertParams::default(),
            lo: 0,
            hi: 1,
            warm: true,
        };
        let mut j = lease.to_json();
        let Json::Obj(fields) = &mut j else {
            panic!("leases encode as objects");
        };
        fields.remove("share");
        let back = Lease::from_json(&j).expect("tolerant decode");
        assert_eq!(back.share, lease.fingerprint);

        let report = ChunkReport {
            shared_family_hits: 9,
            ..ChunkReport::default()
        };
        let mut j = report.to_json();
        let Json::Obj(fields) = &mut j else {
            panic!("reports encode as objects");
        };
        fields.remove("shared_family_hits");
        let back = ChunkReport::from_json(&j).expect("tolerant decode");
        assert_eq!(back.shared_family_hits, 0);
    }

    #[test]
    fn wire_golden_is_stable() {
        // Pins the frame layout: 4-byte BE length + deterministic JSON.
        // A codec change that breaks old shards must show up here.
        let mut buf = Vec::new();
        write_msg(&mut buf, &Msg::NoWork { retry_ms: 25 }).expect("writes");
        let body = "{\n  \"retry_ms\": 25,\n  \"t\": \"no_work\"\n}\n";
        let mut expected = (body.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(body.as_bytes());
        assert_eq!(buf, expected);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"xxxx");
        let err = read_msg(&mut buf.as_slice()).expect_err("must reject");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn addr_parsing_distinguishes_transports() {
        assert_eq!(
            Addr::parse("127.0.0.1:4455"),
            Addr::Tcp("127.0.0.1:4455".into())
        );
        assert_eq!(
            Addr::parse("unix:/tmp/certd.sock"),
            Addr::Unix(PathBuf::from("/tmp/certd.sock"))
        );
        assert_eq!(Addr::parse("unix:/tmp/x").to_string(), "unix:/tmp/x");
    }
}
