//! Wire protocol: length-prefixed JSON frames and the request/response
//! schema.
//!
//! The full specification (framing, schemas, error codes, examples)
//! lives in `SERVING.md` at the repository root; this module is its
//! executable form. In short:
//!
//! * A **frame** is a 4-byte big-endian payload length followed by that
//!   many bytes of UTF-8 JSON. Frames above [`MAX_FRAME`] are rejected.
//! * A **request** is an object with a `"cmd"` string, an optional
//!   numeric `"id"` (echoed back; assigned by the server when absent),
//!   and command-specific fields — see [`Request`].
//! * A **response** is `{"id", "ok": true, "result": {…}}` or `{"id",
//!   "ok": false, "error": {"code", "message"}}` with `code` from
//!   [`codes`].
//!
//! Everything is built on [`flow3d_obs::Json`] — std only, no external
//! dependencies.

use flow3d_obs::{Json, JsonError};
use std::io::{Read, Write};

/// Maximum accepted frame payload, in bytes (64 MiB). Large enough for
/// a full case file, small enough to bound a malicious length prefix.
// flow3d-tidy: allow(dead-pub) — wire-protocol API (flow3d::serve) for out-of-tree clients
pub const MAX_FRAME: usize = 64 << 20;

/// Error codes carried by `{"error": {"code": …}}` responses.
pub mod codes {
    /// The frame was syntactically unreadable (bad length, bad UTF-8,
    /// bad JSON). The server answers once with this code, then closes
    /// the connection — framing is unrecoverable after garbage.
    pub const MALFORMED_FRAME: &str = "malformed_frame";
    /// The frame was valid JSON but not a valid request (unknown `cmd`,
    /// missing or mistyped field, unknown cell name in a move list).
    pub const BAD_REQUEST: &str = "bad_request";
    /// The named case is not resident (never loaded, or unloaded).
    pub const UNKNOWN_CASE: &str = "unknown_case";
    /// The bounded request queue is full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The server is draining after a `shutdown` request and admits no
    /// new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A case, placement, or move file failed to parse.
    pub const PARSE_FAILED: &str = "parse_failed";
    /// The legalizer itself failed (infeasible overflow, corrupt base —
    /// the message carries the `LegalizeError`).
    pub const LEGALIZE_FAILED: &str = "legalize_failed";
}

/// A framing-layer error: the byte stream could not produce a JSON
/// value.
#[derive(Debug)]
// flow3d-tidy: allow(dead-pub) — wire-protocol API (flow3d::serve) for out-of-tree clients
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload is not UTF-8.
    BadUtf8,
    /// The payload is not JSON.
    BadJson(JsonError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::BadJson(e) => write!(f, "frame payload is not JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `json` as one length-prefixed frame and flushes. Prefix and
/// payload go out in a single `write_all`, so an unbuffered socket sees
/// one write per frame.
///
/// # Errors
///
/// Any error of the underlying writer.
pub fn write_frame(w: &mut impl Write, json: &Json) -> std::io::Result<()> {
    let payload = json.to_string();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer closed
/// between frames); anything else that prevents producing a JSON value
/// is a [`FrameError`].
///
/// # Errors
///
/// [`FrameError`] on transport errors, truncated frames, oversized
/// lengths, or non-UTF-8 / non-JSON payloads.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Read the first prefix byte separately so a clean close between
    // frames is EOF, not an error; a close *inside* a frame is an error.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            return read_frame(r);
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    // Grow the buffer only as payload bytes actually arrive: a length
    // prefix alone must not be able to reserve MAX_FRAME bytes.
    let mut buf = Vec::new();
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into()));
    }
    let text = std::str::from_utf8(&buf).map_err(|_| FrameError::BadUtf8)?;
    Json::parse(text).map(Some).map_err(FrameError::BadJson)
}

/// Builds a success response: `{"id", "ok": true, "result": {fields}}`.
// flow3d-tidy: allow(dead-pub) — wire-protocol API (flow3d::serve) for out-of-tree clients
pub fn ok_response(id: u64, fields: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::num(id as f64)),
        ("ok".into(), Json::Bool(true)),
        ("result".into(), Json::Obj(fields)),
    ])
}

/// Builds an error response:
/// `{"id", "ok": false, "error": {"code", "message"}}`.
// flow3d-tidy: allow(dead-pub) — wire-protocol API (flow3d::serve) for out-of-tree clients
pub fn error_response(id: u64, code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::num(id as f64)),
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::Str(code.into())),
                ("message".into(), Json::Str(message.into())),
            ]),
        ),
    ])
}

/// The client-assigned request id, if present and numeric.
// flow3d-tidy: allow(dead-pub) — wire-protocol API (flow3d::serve) for out-of-tree clients
pub fn request_id(json: &Json) -> Option<u64> {
    json.get("id").and_then(Json::as_u64)
}

/// One requested cell change inside an `eco` request, by cell name.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveSpec {
    /// Instance name (resolved against the resident design).
    pub cell: String,
    /// Requested lower-left x.
    pub x: i64,
    /// Requested lower-left y.
    pub y: i64,
    /// Requested die index, or `None` to keep the current die.
    pub die: Option<usize>,
}

/// A parsed request. The JSON schema of each variant is specified in
/// `SERVING.md`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered inline, never queued.
    Ping,
    /// Parse a case, establish its base placement, and make it resident
    /// under `name` (replacing any previous case of that name).
    Load {
        /// Registry key for subsequent requests.
        name: String,
        /// Case file text (`flow3d_io::parse_case`).
        case: String,
        /// Base legal placement text (`flow3d_io::parse_legal`).
        /// Exactly one of `legal` and `global` must be given.
        legal: Option<String>,
        /// Global placement text (`flow3d_io::parse_placement3d`); the
        /// server legalizes it to produce the base.
        global: Option<String>,
        /// Worker threads for this case's engine (0 = the server
        /// default). More threads shard a case's die regions across the
        /// pool; memo-hit telemetry is deterministic only at 1.
        threads: usize,
    },
    /// Full legalization of a provided global placement against the
    /// resident design.
    Legalize {
        /// Resident case name.
        name: String,
        /// Global placement text.
        global: String,
        /// Adopt the result as the case's new ECO base.
        commit: bool,
    },
    /// Incremental re-legalization of the resident base — the hot path.
    Eco {
        /// Resident case name.
        name: String,
        /// The move set (empty = no-op request, returns the base).
        moves: Vec<MoveSpec>,
        /// Adopt the result as the case's new ECO base.
        commit: bool,
        /// Include a request-id-tagged Chrome trace in the response.
        trace: bool,
    },
    /// Server statistics: resident cases, request counts, the merged
    /// serve-mode telemetry report (latency histograms included).
    /// Answered inline, never queued.
    Stats,
    /// Rolling-window gauges: windowed p50/p90/p99 latency, throughput,
    /// queue depth, and error rate, in both JSON and a Prometheus-style
    /// text rendering. Answered inline, never queued.
    Metrics,
    /// Drops a resident case. Answered inline; queued requests already
    /// admitted for the case still complete.
    Unload {
        /// Resident case name.
        name: String,
    },
    /// Graceful drain: every previously admitted request completes and
    /// is answered, then this request is answered and the server stops.
    Shutdown,
}

impl Request {
    /// Parses a request object. The error string is a human-readable
    /// reason suitable for a [`codes::BAD_REQUEST`] response.
    ///
    /// # Errors
    ///
    /// A description of the first schema violation found.
    pub fn parse(json: &Json) -> Result<Request, String> {
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing string field `cmd`")?;
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "unload" => Ok(Request::Unload {
                name: required_str(json, "name")?,
            }),
            "load" => {
                let legal = optional_str(json, "legal");
                let global = optional_str(json, "global");
                if legal.is_some() == global.is_some() {
                    return Err("`load` needs exactly one of `legal` and `global`".into());
                }
                Ok(Request::Load {
                    name: required_str(json, "name")?,
                    case: required_str(json, "case")?,
                    legal,
                    global,
                    threads: json.get("threads").and_then(Json::as_u64).unwrap_or(0) as usize,
                })
            }
            "legalize" => Ok(Request::Legalize {
                name: required_str(json, "name")?,
                global: required_str(json, "global")?,
                commit: bool_field(json, "commit"),
            }),
            "eco" => {
                let moves = match json.get("moves") {
                    None => Vec::new(),
                    Some(arr) => {
                        let items = arr.as_array().ok_or("`moves` must be an array")?;
                        items.iter().map(parse_move).collect::<Result<_, _>>()?
                    }
                };
                Ok(Request::Eco {
                    name: required_str(json, "name")?,
                    moves,
                    commit: bool_field(json, "commit"),
                    trace: bool_field(json, "trace"),
                })
            }
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Whether the request goes through the bounded FIFO queue (heavy,
    /// state-mutating work) or is answered inline by the connection
    /// thread.
    pub fn is_queued(&self) -> bool {
        matches!(
            self,
            Request::Load { .. }
                | Request::Legalize { .. }
                | Request::Eco { .. }
                | Request::Shutdown
        )
    }

    /// The shard key: the dispatcher never runs two queued requests for
    /// the same case in one wave, so per-case engine access is
    /// serialized while distinct cases fan out across the pool.
    pub fn case_name(&self) -> Option<&str> {
        match self {
            Request::Load { name, .. }
            | Request::Legalize { name, .. }
            | Request::Eco { name, .. }
            | Request::Unload { name } => Some(name),
            Request::Ping | Request::Stats | Request::Metrics | Request::Shutdown => None,
        }
    }

    /// The wire `cmd` name of this request, for structured log events.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Load { .. } => "load",
            Request::Legalize { .. } => "legalize",
            Request::Eco { .. } => "eco",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Unload { .. } => "unload",
            Request::Shutdown => "shutdown",
        }
    }
}

fn required_str(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn optional_str(json: &Json, key: &str) -> Option<String> {
    json.get(key).and_then(Json::as_str).map(str::to_string)
}

fn bool_field(json: &Json, key: &str) -> bool {
    matches!(json.get(key), Some(Json::Bool(true)))
}

fn parse_move(item: &Json) -> Result<MoveSpec, String> {
    let cell = item
        .get("cell")
        .and_then(Json::as_str)
        .ok_or("move missing string field `cell`")?
        .to_string();
    let coord = |key: &str| -> Result<i64, String> {
        item.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as i64)
            .ok_or_else(|| format!("move `{cell}` missing numeric field `{key}`"))
    };
    Ok(MoveSpec {
        x: coord("x")?,
        y: coord("y")?,
        die: item.get("die").and_then(Json::as_u64).map(|d| d as usize),
        cell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Json)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        let msg = obj(&[("cmd", Json::Str("ping".into()))]);
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &Json::num(7.0)).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Json::num(7.0)));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Counts `write` calls; a split prefix/payload would count two.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new());
        let msg = obj(&[("cmd", Json::Str("ping".into()))]);
        write_frame(&mut w, &msg).unwrap();
        assert_eq!(w.0.len(), 1);
        let text = msg.to_string();
        assert_eq!(w.0[0][..4], (text.len() as u32).to_be_bytes());
        assert_eq!(&w.0[0][4..], text.as_bytes());
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        // Truncated payload: length says 10, only 3 bytes follow.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
        // A bare prefix claiming the maximum costs nothing up front.
        let buf = (MAX_FRAME as u32).to_be_bytes().to_vec();
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
        // A prefix cut short is truncated too.
        assert!(matches!(
            read_frame(&mut &[0u8, 0][..]),
            Err(FrameError::Io(_))
        ));
        // Oversized length prefix.
        let buf = (MAX_FRAME as u32 + 1).to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::TooLarge(_))
        ));
        // Valid frame, invalid JSON.
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{x}");
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::BadJson(_))
        ));
    }

    #[test]
    fn requests_parse_and_classify() {
        let ping = obj(&[("cmd", Json::Str("ping".into()))]);
        assert_eq!(Request::parse(&ping).unwrap(), Request::Ping);
        assert!(!Request::Ping.is_queued());

        let metrics = obj(&[("cmd", Json::Str("metrics".into()))]);
        let parsed = Request::parse(&metrics).unwrap();
        assert_eq!(parsed, Request::Metrics);
        assert!(!parsed.is_queued());
        assert_eq!(parsed.case_name(), None);
        assert_eq!(parsed.cmd(), "metrics");

        let eco = obj(&[
            ("cmd", Json::Str("eco".into())),
            ("name", Json::Str("a".into())),
            (
                "moves",
                Json::Arr(vec![obj(&[
                    ("cell", Json::Str("u0".into())),
                    ("x", Json::num(35.0)),
                    ("y", Json::num(10.0)),
                    ("die", Json::num(1.0)),
                ])]),
            ),
            ("commit", Json::Bool(true)),
        ]);
        let parsed = Request::parse(&eco).unwrap();
        assert!(parsed.is_queued());
        assert_eq!(parsed.case_name(), Some("a"));
        match parsed {
            Request::Eco {
                moves,
                commit,
                trace,
                ..
            } => {
                assert!(commit && !trace);
                assert_eq!(
                    moves,
                    vec![MoveSpec {
                        cell: "u0".into(),
                        x: 35,
                        y: 10,
                        die: Some(1),
                    }]
                );
            }
            other => panic!("wrong variant {other:?}"),
        }

        // load must carry exactly one base source.
        let bad = obj(&[
            ("cmd", Json::Str("load".into())),
            ("name", Json::Str("a".into())),
            ("case", Json::Str("...".into())),
        ]);
        assert!(Request::parse(&bad).is_err());
        let bad = obj(&[("cmd", Json::Str("warp".into()))]);
        assert!(Request::parse(&bad).unwrap_err().contains("unknown cmd"));
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let ok = ok_response(3, vec![("pong".into(), Json::Bool(true))]);
        assert_eq!(request_id(&ok), Some(3));
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            ok.get("result").and_then(|r| r.get("pong")),
            Some(&Json::Bool(true))
        );
        let err = error_response(4, codes::UNKNOWN_CASE, "no such case");
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            err.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str(codes::UNKNOWN_CASE.into()))
        );
    }
}
