//! Wire-format types for the HTTP serving front-end.
//!
//! A recovery request travels as JSON carrying the *raw* low-sample GPS
//! trajectory (planar metres + seconds, exactly what the sensor reports —
//! Definition 2) and the desired ϵρ target length; the server runs feature
//! extraction and the model, and answers with the recovered `(segment,
//! moving-rate)` sequence. Serialization uses the vendored serde derive;
//! deserialization is explicit [`serde::Value`] walking (the vendored
//! stand-in has no `Deserialize` derive), with field-precise errors that
//! the HTTP layer maps to `400`.

use rntrajrec_geo::XY;
use rntrajrec_synth::{RawPoint, RawTrajectory};
use serde::{Serialize, Value};

/// Hard cap on raw input points per request (defense against abusive
/// bodies; the paper's trajectories are far shorter).
pub const MAX_WIRE_POINTS: usize = 4096;
/// Hard cap on requested recovery steps.
pub const MAX_WIRE_TARGET_LEN: usize = 4096;

/// `POST /v1/recover` body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoverRequest {
    /// Raw GPS observations as `[x_metres, y_metres, t_seconds]` triples;
    /// `t` is relative to the first point and must be non-decreasing.
    pub points: Vec<[f64; 3]>,
    /// Number of ϵρ-interval steps to recover (`l_ρ`).
    pub target_len: usize,
    /// Absolute departure time on the synthetic calendar (seconds; epoch 0
    /// = Monday 00:00). Drives the hour/holiday context features.
    pub depart_epoch_s: f64,
}

/// Why a wire request was rejected (HTTP layer maps these to `400`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A required field is absent.
    Missing(&'static str),
    /// A field is present but malformed.
    Invalid { field: &'static str, reason: String },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Missing(field) => write!(f, "missing field '{field}'"),
            WireError::Invalid { field, reason } => {
                write!(f, "invalid field '{field}': {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn invalid(field: &'static str, reason: impl Into<String>) -> WireError {
    WireError::Invalid {
        field,
        reason: reason.into(),
    }
}

impl RecoverRequest {
    /// Build from a parsed JSON document.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let points_v = v.get("points").ok_or(WireError::Missing("points"))?;
        let rows = points_v
            .as_array()
            .ok_or_else(|| invalid("points", "expected an array of [x, y, t] triples"))?;
        if rows.is_empty() {
            return Err(invalid("points", "at least one GPS point is required"));
        }
        if rows.len() > MAX_WIRE_POINTS {
            return Err(invalid(
                "points",
                format!("{} points exceeds the cap of {MAX_WIRE_POINTS}", rows.len()),
            ));
        }
        let mut points = Vec::with_capacity(rows.len());
        let mut prev_t = f64::NEG_INFINITY;
        for (i, row) in rows.iter().enumerate() {
            let triple = row.as_array().filter(|a| a.len() == 3).ok_or_else(|| {
                invalid("points", format!("point {i} is not an [x, y, t] triple"))
            })?;
            let mut xyz = [0.0f64; 3];
            for (k, item) in triple.iter().enumerate() {
                let f = item.as_f64().filter(|f| f.is_finite()).ok_or_else(|| {
                    invalid("points", format!("point {i} has a non-finite entry"))
                })?;
                xyz[k] = f;
            }
            if xyz[2] < prev_t {
                return Err(invalid(
                    "points",
                    format!("timestamps must be non-decreasing (point {i})"),
                ));
            }
            prev_t = xyz[2];
            points.push(xyz);
        }
        let target_len = v
            .get("target_len")
            .ok_or(WireError::Missing("target_len"))?
            .as_u64()
            .ok_or_else(|| invalid("target_len", "expected a non-negative integer"))?
            as usize;
        if target_len == 0 || target_len > MAX_WIRE_TARGET_LEN {
            return Err(invalid(
                "target_len",
                format!("must be in 1..={MAX_WIRE_TARGET_LEN}"),
            ));
        }
        let depart_epoch_s = match v.get("depart_epoch_s") {
            None => 0.0,
            Some(d) => d
                .as_f64()
                .filter(|f| f.is_finite() && *f >= 0.0)
                .ok_or_else(|| {
                    invalid("depart_epoch_s", "expected a finite non-negative number")
                })?,
        };
        Ok(Self {
            points,
            target_len,
            depart_epoch_s,
        })
    }

    /// Parse straight from a JSON body. Parse errors become a
    /// [`WireError::Invalid`] on a synthetic `body` field.
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = serde_json::from_str(body).map_err(|e| invalid("body", e.to_string()))?;
        Self::from_value(&v)
    }

    /// The raw trajectory this request describes.
    pub fn raw_trajectory(&self) -> RawTrajectory {
        RawTrajectory {
            points: self
                .points
                .iter()
                .map(|&[x, y, t]| RawPoint {
                    xy: XY::new(x, y),
                    t,
                })
                .collect(),
        }
    }

    /// Build a request from a raw trajectory (client-side convenience —
    /// tests, benchmarks, and the example all speak the wire format
    /// through this).
    pub fn from_raw(raw: &RawTrajectory, target_len: usize, depart_epoch_s: f64) -> Self {
        Self {
            points: raw.points.iter().map(|p| [p.xy.x, p.xy.y, p.t]).collect(),
            target_len,
            depart_epoch_s,
        }
    }
}

/// `POST /v1/recover` success body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RecoverResponse {
    /// Engine submission id.
    pub id: u64,
    /// Recovered road-segment index per target step.
    pub segments: Vec<usize>,
    /// Recovered moving rate per target step.
    pub rates: Vec<f32>,
    /// Members of the decode session this request was answered from,
    /// admissions included: its flushed batch plus everyone admitted into
    /// that session mid-decode.
    pub batch_size: usize,
    /// Submit-to-completion latency in milliseconds.
    pub latency_ms: f64,
}

impl RecoverResponse {
    /// Assemble from an engine result path.
    pub fn from_path(id: u64, path: &[(usize, f32)], batch_size: usize, latency_ms: f64) -> Self {
        Self {
            id,
            segments: path.iter().map(|&(s, _)| s).collect(),
            rates: path.iter().map(|&(_, r)| r).collect(),
            batch_size,
            latency_ms,
        }
    }

    /// Parse a response body (client-side: tests/bench verify bit-identity
    /// through this).
    pub fn from_json(body: &str) -> Result<Self, WireError> {
        let v = serde_json::from_str(body).map_err(|e| invalid("body", e.to_string()))?;
        Self::from_value(&v)
    }

    /// Read the five answer fields from a parsed object: a buffered
    /// response body, or a stream's terminal `summary` event.
    pub fn from_value(v: &Value) -> Result<Self, WireError> {
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or(WireError::Missing("id"))?;
        let segments = v
            .get("segments")
            .and_then(Value::as_array)
            .ok_or(WireError::Missing("segments"))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| invalid("segments", "expected integers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rates = v
            .get("rates")
            .and_then(Value::as_array)
            .ok_or(WireError::Missing("rates"))?
            .iter()
            .map(|r| {
                r.as_f64()
                    .map(|f| f as f32)
                    .ok_or_else(|| invalid("rates", "expected numbers"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let batch_size = v
            .get("batch_size")
            .and_then(Value::as_u64)
            .ok_or(WireError::Missing("batch_size"))? as usize;
        let latency_ms = v
            .get("latency_ms")
            .and_then(Value::as_f64)
            .ok_or(WireError::Missing("latency_ms"))?;
        Ok(Self {
            id,
            segments,
            rates,
            batch_size,
            latency_ms,
        })
    }

    /// The engine-path view: zipped `(segment, rate)` pairs.
    pub fn path(&self) -> Vec<(usize, f32)> {
        self.segments
            .iter()
            .copied()
            .zip(self.rates.iter().copied())
            .collect()
    }
}

/// JSON error body shared by every non-2xx response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorBody {
    /// Human-readable reason.
    pub error: String,
    /// The HTTP status code, repeated in-body for log pipelines.
    pub code: u16,
}

impl ErrorBody {
    pub fn new(code: u16, error: impl Into<String>) -> Self {
        Self {
            error: error.into(),
            code,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("error body serializes")
    }
}

/// Version 2 of the wire protocol: the same recovery payload plus an
/// explicit `options` object (deadline, streaming), and
/// the chunked-stream event types for `POST /v2/recover/stream`.
///
/// `/v1` is frozen: v1 types above serve it unchanged, byte-for-byte
/// (pinned by a parity test in the HTTP round-trip suite).
pub mod v2 {
    use super::{invalid, RecoverRequest, Value, WireError};
    use rntrajrec_synth::RawTrajectory;
    use serde::Serialize;

    /// Per-request options (`options` object in a v2 request body). All
    /// fields optional on the wire; defaults are the v1 semantics. Unknown
    /// keys are ignored.
    #[derive(Debug, Clone, Default, PartialEq, Serialize)]
    pub struct RecoverOptions {
        /// Budget for the whole recovery, milliseconds from receipt. It
        /// can only shorten the server's own budget (v1 requests always
        /// get the server's). Past it the answer is `503` and the request
        /// is cut out of its fused batch.
        pub deadline_ms: Option<u64>,
        /// Stream per-step events (`/v2/recover/stream` implies this).
        pub stream: bool,
    }

    impl RecoverOptions {
        /// Parse from the (optional) `options` field of a v2 body.
        pub fn from_value(v: Option<&Value>) -> Result<Self, WireError> {
            let mut opts = Self::default();
            let Some(v) = v else { return Ok(opts) };
            if v.as_object().is_none() {
                return Err(invalid("options", "expected an object"));
            }
            if let Some(d) = v.get("deadline_ms") {
                if !d.is_null() {
                    let ms = d.as_u64().filter(|&ms| ms > 0).ok_or_else(|| {
                        invalid("options.deadline_ms", "expected a positive integer")
                    })?;
                    opts.deadline_ms = Some(ms);
                }
            }
            if let Some(s) = v.get("stream") {
                opts.stream = s
                    .as_bool()
                    .ok_or_else(|| invalid("options.stream", "expected a boolean"))?;
            }
            Ok(opts)
        }
    }

    /// `POST /v2/recover` / `POST /v2/recover/stream` body: the v1
    /// payload fields plus [`RecoverOptions`].
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct RecoverRequestV2 {
        pub points: Vec<[f64; 3]>,
        pub target_len: usize,
        pub depart_epoch_s: f64,
        pub options: RecoverOptions,
    }

    impl RecoverRequestV2 {
        pub fn from_value(v: &Value) -> Result<Self, WireError> {
            let base = RecoverRequest::from_value(v)?;
            let options = RecoverOptions::from_value(v.get("options"))?;
            Ok(Self {
                points: base.points,
                target_len: base.target_len,
                depart_epoch_s: base.depart_epoch_s,
                options,
            })
        }

        pub fn from_json(body: &str) -> Result<Self, WireError> {
            let v = serde_json::from_str(body).map_err(|e| invalid("body", e.to_string()))?;
            Self::from_value(&v)
        }

        pub fn from_raw(
            raw: &RawTrajectory,
            target_len: usize,
            depart_epoch_s: f64,
            options: RecoverOptions,
        ) -> Self {
            let base = RecoverRequest::from_raw(raw, target_len, depart_epoch_s);
            Self {
                points: base.points,
                target_len: base.target_len,
                depart_epoch_s: base.depart_epoch_s,
                options,
            }
        }

        /// The v1 view of the payload (feature extraction is shared).
        pub fn base(&self) -> RecoverRequest {
            RecoverRequest {
                points: self.points.clone(),
                target_len: self.target_len,
                depart_epoch_s: self.depart_epoch_s,
            }
        }
    }

    /// One streamed decode step: a chunk on `/v2/recover/stream` holds
    /// exactly one of these as a JSON line (`event: "step"`).
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct StepEvent {
        /// Always `"step"`.
        pub event: String,
        /// Engine submission id.
        pub id: u64,
        /// 0-based step index; strictly monotonic within a stream.
        pub step: usize,
        /// Predicted road segment for this step.
        pub segment: usize,
        /// Predicted moving rate for this step.
        pub rate: f32,
        /// Log-probability of the chosen segment under the masked head.
        pub logprob: f32,
    }

    impl StepEvent {
        pub fn new(id: u64, step: usize, segment: usize, rate: f32, logprob: f32) -> Self {
            Self {
                event: "step".to_string(),
                id,
                step,
                segment,
                rate,
                logprob,
            }
        }
    }

    /// Terminal success event (`event: "summary"`): the full recovered
    /// path (including steps already streamed) and request accounting —
    /// exactly one terminal event (summary *or* error) ends a stream.
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct SummaryEvent {
        /// Always `"summary"`.
        pub event: String,
        pub id: u64,
        pub segments: Vec<usize>,
        pub rates: Vec<f32>,
        pub batch_size: usize,
        pub latency_ms: f64,
    }

    impl SummaryEvent {
        /// Build the terminal summary from the buffered (v1-shaped)
        /// response, so streamed and un-streamed answers agree field
        /// for field.
        pub fn from_response(resp: &super::RecoverResponse) -> Self {
            Self {
                event: "summary".to_string(),
                id: resp.id,
                segments: resp.segments.clone(),
                rates: resp.rates.clone(),
                batch_size: resp.batch_size,
                latency_ms: resp.latency_ms,
            }
        }
    }

    /// Terminal failure event (`event: "error"`).
    #[derive(Debug, Clone, PartialEq, Serialize)]
    pub struct ErrorEvent {
        /// Always `"error"`.
        pub event: String,
        pub error: String,
        /// The HTTP status this failure would have carried un-streamed
        /// (the stream itself is already committed to `200`).
        pub code: u16,
        /// The failure was a time failure (deadline / watchdog) — safe
        /// to retry.
        pub timed_out: bool,
    }

    impl ErrorEvent {
        pub fn new(error: String, code: u16, timed_out: bool) -> Self {
            Self {
                event: "error".to_string(),
                error,
                code,
                timed_out,
            }
        }
    }

    /// A parsed stream event (client side).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        Step(StepEvent),
        Summary(SummaryEvent),
        Error(ErrorEvent),
    }

    impl Event {
        /// Parse one stream chunk (a JSON line).
        pub fn from_json(line: &str) -> Result<Self, WireError> {
            let v = serde_json::from_str(line).map_err(|e| invalid("body", e.to_string()))?;
            let kind = v
                .get("event")
                .and_then(Value::as_str)
                .ok_or(WireError::Missing("event"))?;
            match kind {
                "step" => Ok(Event::Step(StepEvent {
                    event: kind.to_string(),
                    id: v
                        .get("id")
                        .and_then(Value::as_u64)
                        .ok_or(WireError::Missing("id"))?,
                    step: v
                        .get("step")
                        .and_then(Value::as_u64)
                        .ok_or(WireError::Missing("step"))? as usize,
                    segment: v
                        .get("segment")
                        .and_then(Value::as_u64)
                        .ok_or(WireError::Missing("segment"))?
                        as usize,
                    rate: v
                        .get("rate")
                        .and_then(Value::as_f64)
                        .ok_or(WireError::Missing("rate"))? as f32,
                    logprob: v
                        .get("logprob")
                        .and_then(Value::as_f64)
                        .ok_or(WireError::Missing("logprob"))? as f32,
                })),
                "summary" => Ok(Event::Summary(SummaryEvent::from_response(
                    &super::RecoverResponse::from_value(&v)?,
                ))),
                "error" => Ok(Event::Error(ErrorEvent {
                    event: kind.to_string(),
                    error: v
                        .get("error")
                        .and_then(Value::as_str)
                        .ok_or(WireError::Missing("error"))?
                        .to_string(),
                    code: v
                        .get("code")
                        .and_then(Value::as_u64)
                        .ok_or(WireError::Missing("code"))? as u16,
                    timed_out: v.get("timed_out").and_then(Value::as_bool).unwrap_or(false),
                })),
                other => Err(invalid("event", format!("unknown event kind '{other}'"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        r#"{"points": [[10.0, 20.0, 0.0], [30.0, 25.5, 12.0]], "target_len": 5, "depart_epoch_s": 3600}"#
            .to_string()
    }

    #[test]
    fn parses_a_valid_request() {
        let req = RecoverRequest::from_json(&sample_json()).expect("valid");
        assert_eq!(req.points.len(), 2);
        assert_eq!(req.points[1], [30.0, 25.5, 12.0]);
        assert_eq!(req.target_len, 5);
        assert_eq!(req.depart_epoch_s, 3600.0);
        let raw = req.raw_trajectory();
        assert_eq!(raw.len(), 2);
        assert_eq!(raw.points[0].xy, XY::new(10.0, 20.0));
        assert_eq!(raw.points[1].t, 12.0);
    }

    #[test]
    fn depart_epoch_defaults_to_zero() {
        let req =
            RecoverRequest::from_json(r#"{"points": [[0, 0, 0]], "target_len": 1}"#).expect("ok");
        assert_eq!(req.depart_epoch_s, 0.0);
    }

    #[test]
    fn request_roundtrips_through_serde() {
        let req = RecoverRequest::from_json(&sample_json()).expect("valid");
        let json = serde_json::to_string(&req).expect("serializes");
        assert_eq!(RecoverRequest::from_json(&json).expect("reparses"), req);
    }

    #[test]
    fn rejects_malformed_requests() {
        for (body, field) in [
            ("{", "body"),
            ("[]", "points"),
            (r#"{"target_len": 3}"#, "points"),
            (r#"{"points": [], "target_len": 3}"#, "points"),
            (r#"{"points": [[0, 0]], "target_len": 3}"#, "points"),
            (r#"{"points": [[0, 0, "x"]], "target_len": 3}"#, "points"),
            (
                r#"{"points": [[0, 0, 5], [0, 0, 1]], "target_len": 3}"#,
                "points",
            ),
            (r#"{"points": [[0, 0, 0]]}"#, "target_len"),
            (r#"{"points": [[0, 0, 0]], "target_len": 0}"#, "target_len"),
            (r#"{"points": [[0, 0, 0]], "target_len": -2}"#, "target_len"),
            (
                r#"{"points": [[0, 0, 0]], "target_len": 1, "depart_epoch_s": -5}"#,
                "depart_epoch_s",
            ),
        ] {
            let err = RecoverRequest::from_json(body).expect_err(body);
            let msg = err.to_string();
            assert!(msg.contains(field), "error {msg:?} should name {field:?}");
        }
    }

    #[test]
    fn response_roundtrips_rates_exactly() {
        let path = vec![(3usize, 0.123_456_79_f32), (7, 1.0 / 3.0), (0, 0.0)];
        let resp = RecoverResponse::from_path(9, &path, 4, 1.25);
        let json = serde_json::to_string(&resp).expect("serializes");
        let back = RecoverResponse::from_json(&json).expect("parses");
        assert_eq!(back, resp);
        assert_eq!(back.path(), path);
        for (a, b) in back.rates.iter().zip(&resp.rates) {
            assert_eq!(a.to_bits(), b.to_bits(), "rate corrupted in transit");
        }
    }

    #[test]
    fn error_body_renders() {
        let e = ErrorBody::new(429, "engine queue full");
        let s = e.to_json();
        assert!(s.contains("429") && s.contains("engine queue full"));
    }

    #[test]
    fn v2_request_defaults_match_v1_semantics() {
        let req = v2::RecoverRequestV2::from_json(&sample_json()).expect("valid without options");
        assert_eq!(req.options, v2::RecoverOptions::default());
        assert_eq!(
            req.base(),
            RecoverRequest::from_json(&sample_json()).unwrap()
        );
    }

    #[test]
    fn v2_options_parse_and_roundtrip() {
        let body = r#"{"points": [[0, 0, 0]], "target_len": 3,
            "options": {"deadline_ms": 250, "stream": true}}"#;
        let req = v2::RecoverRequestV2::from_json(body).expect("valid");
        assert_eq!(req.options.deadline_ms, Some(250));
        assert!(req.options.stream);
        let json = serde_json::to_string(&req).expect("serializes");
        assert_eq!(
            v2::RecoverRequestV2::from_json(&json).expect("reparses"),
            req
        );
    }

    #[test]
    fn v2_rejects_bad_options() {
        for (body, field) in [
            (
                r#"{"points": [[0,0,0]], "target_len": 1, "options": 7}"#,
                "options",
            ),
            (
                r#"{"points": [[0,0,0]], "target_len": 1, "options": {"deadline_ms": 0}}"#,
                "deadline_ms",
            ),
            (
                r#"{"points": [[0,0,0]], "target_len": 1, "options": {"stream": 1}}"#,
                "stream",
            ),
        ] {
            let err = v2::RecoverRequestV2::from_json(body).expect_err(body);
            let msg = err.to_string();
            assert!(msg.contains(field), "error {msg:?} should name {field:?}");
        }
    }

    #[test]
    fn v2_stream_events_roundtrip() {
        let step = v2::StepEvent::new(4, 2, 17, 0.75, -0.25);
        let line = serde_json::to_string(&step).expect("serializes");
        let parsed = v2::Event::from_json(&line).expect("parses");
        assert_eq!(parsed, v2::Event::Step(step));

        let summary = v2::SummaryEvent {
            event: "summary".to_string(),
            id: 4,
            segments: vec![17, 3],
            rates: vec![0.75, 0.5],
            batch_size: 2,
            latency_ms: 1.5,
        };
        let line = serde_json::to_string(&summary).expect("serializes");
        let parsed = v2::Event::from_json(&line).expect("parses");
        assert_eq!(parsed, v2::Event::Summary(summary));

        let error = v2::ErrorEvent {
            event: "error".to_string(),
            error: "deadline exceeded mid-decode".to_string(),
            code: 503,
            timed_out: true,
        };
        let line = serde_json::to_string(&error).expect("serializes");
        let parsed = v2::Event::from_json(&line).expect("parses");
        assert_eq!(parsed, v2::Event::Error(error));

        assert!(v2::Event::from_json(r#"{"event": "snack"}"#).is_err());
    }
}
