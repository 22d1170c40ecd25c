//! The `manimald` client/server wire protocol.
//!
//! Every message is one frame in the task-protocol discipline
//! ([`mr_engine::backend::protocol`], docs/FORMATS.md):
//!
//! ```text
//! [tag u8][payload_len varint][payload bytes][crc32(payload) u32 LE]
//! ```
//!
//! The framing layer (length bound, checksum, clean-EOF semantics) is
//! reused verbatim — the service only defines its own tag space and
//! JSON payloads. Conventions follow `mr-engine/backend/wire.rs`:
//! compact JSON payloads, output pairs as lowercase hex of the
//! self-describing rowcodec value encoding, IR as MR-IR assembly text.
//! Clients send paths as UTF-8 strings; the server resolves them in its
//! own filesystem namespace (daemon and clients share a host).

use std::path::PathBuf;

use mr_ir::value::Value;
use mr_json::{Json, JsonError};
use mr_storage::hex;
use mr_storage::rowcodec::{decode_value, encode_value};

use crate::error::{ManimalError, Result};

/// Client → server: submit a job ([`JobRequest`] payload).
pub const TAG_SUBMIT: u8 = 1;
/// Server → client: the job ran to completion ([`JobReply`] payload).
pub const TAG_RESULT: u8 = 2;
/// Server → client: admission control turned the job away
/// ([`Rejection`] payload) — typed, so clients can back off instead of
/// parsing an error string.
pub const TAG_REJECTED: u8 = 3;
/// Server → client: the job was admitted but failed (payload: the
/// error rendered as UTF-8 text).
pub const TAG_ERROR: u8 = 4;
/// Client → server: request a counter snapshot (empty payload).
pub const TAG_STATS: u8 = 5;
/// Server → client: the counter snapshot as JSON.
pub const TAG_STATS_OK: u8 = 6;
/// Client → server: an input file was regenerated; drop its catalog
/// entries and every cached result over it (payload: `{"input": path}`).
pub const TAG_INVALIDATE: u8 = 7;
/// Server → client: invalidation done (payload: dropped cache entries
/// as `{"dropped": n}`).
pub const TAG_INVALIDATE_OK: u8 = 8;
/// Client → server: stop accepting work, finish in-flight jobs, exit
/// (empty payload).
pub const TAG_SHUTDOWN: u8 = 9;
/// Server → client: shutdown acknowledged; the daemon is draining.
pub const TAG_SHUTDOWN_OK: u8 = 10;

fn bad(what: &str) -> ManimalError {
    ManimalError::Service(format!("malformed service payload: {what}"))
}

/// Parse a `what` payload as JSON and read it with `read`: every
/// failure — bad UTF-8, bad JSON, a missing or mistyped field — is a
/// malformed-payload service error.
pub(crate) fn decode_payload<T>(
    payload: &[u8],
    what: &str,
    read: impl FnOnce(&Json) -> std::result::Result<T, JsonError>,
) -> Result<T> {
    let text = std::str::from_utf8(payload).map_err(|_| bad(&format!("{what} is not UTF-8")))?;
    let j = mr_json::parse(text).map_err(|e| bad(&format!("{what} JSON: {e}")))?;
    read(&j).map_err(|e| bad(&format!("{what}: {e}")))
}

/// One job submission: the program as MR-IR assembly, the input path
/// (resolved server-side; its seqfile header carries the schema), and
/// the execution knobs a remote client may choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Job name (for logs and `JobConfig::name`).
    pub name: String,
    /// The map function as MR-IR assembly text.
    pub program_asm: String,
    /// Input sequence file path, resolved in the server's namespace.
    pub input: PathBuf,
    /// Builtin reducer name (`sum`, `count`, …), ignored when
    /// `reduce_ir` is present.
    pub reducer: String,
    /// Optional compiled IR reduce function (assembly text); the
    /// server's analyzer proves — or declines — its combiner.
    pub reduce_ir: Option<String>,
    /// Build + register the recommended index programs before planning
    /// (deduplicated in-flight across clients).
    pub build_indexes: bool,
    /// Run the unoptimized full-scan baseline instead of the planned
    /// execution.
    pub baseline: bool,
}

impl JobRequest {
    /// Encode as a compact JSON payload.
    pub fn to_payload(&self) -> Result<Vec<u8>> {
        let input = self.input.to_str().ok_or_else(|| {
            ManimalError::Service(format!("non-UTF-8 input path {:?}", self.input))
        })?;
        let doc = Json::obj([
            ("name", Json::str(self.name.clone())),
            ("program_asm", Json::str(self.program_asm.clone())),
            ("input", Json::str(input)),
            ("reducer", Json::str(self.reducer.clone())),
            (
                "reduce_ir",
                match &self.reduce_ir {
                    Some(src) => Json::str(src.clone()),
                    None => Json::Null,
                },
            ),
            ("build_indexes", Json::Bool(self.build_indexes)),
            ("baseline", Json::Bool(self.baseline)),
        ]);
        Ok(doc.to_string_compact().into_bytes())
    }

    /// Decode from a payload.
    pub fn from_payload(payload: &[u8]) -> Result<JobRequest> {
        decode_payload(payload, "request", |j| {
            Ok(JobRequest {
                name: j.str_field("name")?.to_string(),
                program_asm: j.str_field("program_asm")?.to_string(),
                input: PathBuf::from(j.str_field("input")?),
                reducer: j.str_field("reducer")?.to_string(),
                reduce_ir: j.opt_str_field("reduce_ir")?.map(str::to_string),
                build_indexes: j.bool_field("build_indexes")?,
                baseline: j.bool_field("baseline")?,
            })
        })
    }
}

/// A completed job: the plan that ran and the full output, with every
/// key/value hex-encoded through the self-describing rowcodec value
/// codec so results survive the text protocol byte-exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReply {
    /// Human-readable summary of the executed plan.
    pub plan: String,
    /// Applied optimizations (empty for the baseline full scan).
    pub applied: Vec<String>,
    /// The engaged map-side combiner's name, if any.
    pub combiner: Option<String>,
    /// Whether this reply was served from the daemon's result cache.
    pub cache_hit: bool,
    /// Index builds this submission waited out instead of duplicating.
    pub deduped_builds: u64,
    /// Output pairs, each value hex-encoded (rowcodec).
    pub output_hex: Vec<(String, String)>,
}

impl JobReply {
    /// Encode as a compact JSON payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let doc = Json::obj([
            ("plan", Json::str(self.plan.clone())),
            (
                "applied",
                Json::Arr(self.applied.iter().map(Json::str).collect()),
            ),
            (
                "combiner",
                match &self.combiner {
                    Some(name) => Json::str(name.clone()),
                    None => Json::Null,
                },
            ),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("deduped_builds", Json::Int(self.deduped_builds as i64)),
            (
                "output",
                Json::Arr(
                    self.output_hex
                        .iter()
                        .map(|(k, v)| Json::Arr(vec![Json::str(k.clone()), Json::str(v.clone())]))
                        .collect(),
                ),
            ),
        ]);
        doc.to_string_compact().into_bytes()
    }

    /// Decode from a payload.
    pub fn from_payload(payload: &[u8]) -> Result<JobReply> {
        decode_payload(payload, "reply", |j| {
            let output_hex = j
                .arr_field("output")?
                .iter()
                .map(|pair| match pair.as_arr() {
                    Some([k, v]) => match (k.as_str(), v.as_str()) {
                        (Some(k), Some(v)) => Ok((k.to_string(), v.to_string())),
                        _ => Err(JsonError::shape("output pair element is not a string")),
                    },
                    _ => Err(JsonError::shape("output pair is not a 2-array")),
                })
                .collect::<std::result::Result<Vec<_>, _>>()?;
            Ok(JobReply {
                plan: j.str_field("plan")?.to_string(),
                applied: j.str_array_field("applied")?,
                combiner: j.opt_str_field("combiner")?.map(str::to_string),
                cache_hit: j.bool_field("cache_hit")?,
                deduped_builds: j.u64_field("deduped_builds")?,
                output_hex,
            })
        })
    }

    /// Decode the hex output pairs back into values — the client's view
    /// of the job output, byte-identical to a local run.
    pub fn decode_output(&self) -> Result<Vec<(Value, Value)>> {
        self.output_hex
            .iter()
            .map(|(k, v)| Ok((decode_hex_value(k)?, decode_hex_value(v)?)))
            .collect()
    }
}

/// Hex-encode one value through the rowcodec self-describing codec.
pub fn encode_hex_value(v: &Value) -> Result<String> {
    let mut buf = Vec::new();
    encode_value(v, &mut buf)?;
    Ok(hex::encode(&buf))
}

/// Decode one hex rowcodec value.
pub fn decode_hex_value(hex: &str) -> Result<Value> {
    let bytes = hex::decode(hex).map_err(|e| bad(&format!("bad hex in output pair: {e}")))?;
    Ok(decode_value(&bytes)?.0)
}

/// A typed admission rejection: the FIFO queue was full. Carries the
/// live occupancy so clients can report or back off meaningfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Jobs waiting in the queue when this one was turned away.
    pub queued: u64,
    /// The queue bound that was hit.
    pub queue_cap: u64,
    /// Jobs running at that moment.
    pub running: u64,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission queue full ({}/{} queued, {} running); retry later",
            self.queued, self.queue_cap, self.running
        )
    }
}

impl Rejection {
    /// Encode as a compact JSON payload.
    pub fn to_payload(&self) -> Vec<u8> {
        Json::obj([
            ("queued", Json::Int(self.queued as i64)),
            ("queue_cap", Json::Int(self.queue_cap as i64)),
            ("running", Json::Int(self.running as i64)),
        ])
        .to_string_compact()
        .into_bytes()
    }

    /// Decode from a payload.
    pub fn from_payload(payload: &[u8]) -> Result<Rejection> {
        decode_payload(payload, "rejection", |j| {
            Ok(Rejection {
                queued: j.u64_field("queued")?,
                queue_cap: j.u64_field("queue_cap")?,
                running: j.u64_field("running")?,
            })
        })
    }
}

/// Encode an invalidation request.
pub fn invalidate_payload(input: &std::path::Path) -> Result<Vec<u8>> {
    let input = input
        .to_str()
        .ok_or_else(|| ManimalError::Service(format!("non-UTF-8 input path {input:?}")))?;
    Ok(Json::obj([("input", Json::str(input))])
        .to_string_compact()
        .into_bytes())
}

/// Decode an invalidation request.
pub fn parse_invalidate(payload: &[u8]) -> Result<PathBuf> {
    decode_payload(payload, "invalidate", |j| {
        Ok(PathBuf::from(j.str_field("input")?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> JobRequest {
        JobRequest {
            name: "bench1".into(),
            program_asm: "func map(key, value) { ret }".into(),
            input: PathBuf::from("/data/rankings.seq"),
            reducer: "count".into(),
            reduce_ir: None,
            build_indexes: true,
            baseline: false,
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        assert_eq!(
            JobRequest::from_payload(&req.to_payload().unwrap()).unwrap(),
            req
        );
        let mut with_ir = request();
        with_ir.reduce_ir = Some("func reduce(key, values) { ret }".into());
        assert_eq!(
            JobRequest::from_payload(&with_ir.to_payload().unwrap()).unwrap(),
            with_ir
        );
    }

    #[test]
    fn reply_round_trips_with_byte_exact_values() {
        let pairs = vec![
            (Value::str("http://a"), Value::Int(42)),
            (Value::Int(-7), Value::Double(2.5)),
        ];
        let reply = JobReply {
            plan: "full scan".into(),
            applied: vec!["selection".into()],
            combiner: Some("sum".into()),
            cache_hit: false,
            deduped_builds: 1,
            output_hex: pairs
                .iter()
                .map(|(k, v)| (encode_hex_value(k).unwrap(), encode_hex_value(v).unwrap()))
                .collect(),
        };
        let back = JobReply::from_payload(&reply.to_payload()).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.decode_output().unwrap(), pairs);
    }

    #[test]
    fn rejection_round_trips_and_displays() {
        let r = Rejection {
            queued: 4,
            queue_cap: 4,
            running: 2,
        };
        assert_eq!(Rejection::from_payload(&r.to_payload()).unwrap(), r);
        assert!(r.to_string().contains("4/4 queued"), "{r}");
    }

    #[test]
    fn invalidate_round_trips() {
        let p = std::path::Path::new("/data/x.seq");
        assert_eq!(
            parse_invalidate(&invalidate_payload(p).unwrap()).unwrap(),
            p
        );
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        for garbage in [b"not json".as_slice(), b"{}", b"\xff\xfe"] {
            assert!(JobRequest::from_payload(garbage).is_err());
            assert!(JobReply::from_payload(garbage).is_err());
            assert!(Rejection::from_payload(garbage).is_err());
        }
    }
}
