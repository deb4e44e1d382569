//! The newline-delimited-JSON wire protocol.
//!
//! One request per line, one reply per line. A request is a JSON object
//! with a numeric `id` (echoed verbatim in the reply so clients can
//! pipeline), an `op` string, and per-op fields:
//!
//! ```text
//! {"id":1,"op":"ping"}
//! {"id":2,"op":"artifacts"}
//! {"id":3,"op":"artifact","name":"table2"}
//! {"id":4,"op":"embed","token":"water"}
//! {"id":5,"op":"nn","token":"water","k":10,"int8":false}
//! {"id":6,"op":"classify","s":12,"r":0,"o":44}
//! {"id":7,"op":"bert","s":12,"r":0,"o":44}
//! {"id":8,"op":"stats"}
//! {"id":9,"op":"shutdown"}
//! ```
//!
//! Replies are `{"id":N,"ok":true,...}` on success and
//! `{"id":N,"ok":false,"error":CODE,"message":TEXT}` on failure, where
//! `CODE` is one of `bad_request`, `not_found`, `unavailable`,
//! `too_large` — a request line of more than 64 KiB
//! ([`crate::server::MAX_LINE`]), answered with `id` 0 before the server
//! closes that connection — or, crucially for
//! admission control, `overloaded`, the typed shed reply a client
//! receives instead of a hang when the bounded queue is full.
//!
//! Rendering is centralised here so the batched engine path and the
//! serial reference path emit bytes through the *same* functions: checksum
//! equality between the two in `serve-bench` is then a real byte-identity
//! proof, not a formatting coincidence.
//!
//! The vendored `serde_json` is writer-only, so the request side reads
//! through the workspace's recursive-descent parser
//! ([`kcb_util::json::parse_value`], re-exported here as [`parse_value`]);
//! it builds the same [`Value`] tree the rest of the workspace renders
//! from.

use serde_json::{json, Number, Value};

/// A parsed request: the client's correlation id plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the reply.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// Every operation the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Engine counters, gauges and latency percentiles; answered inline.
    Stats,
    /// Health probe (status + uptime + queue depth); answered inline.
    Health,
    /// Flight-recorder dump (recent + slow request rings); answered inline.
    Flight,
    /// List the ids of the pre-rendered artifacts.
    Artifacts,
    /// One pre-rendered artifact payload by id.
    Artifact {
        /// Artifact id, e.g. `"table2"`.
        name: String,
    },
    /// Embedding-table row for a token.
    Embed {
        /// Query token.
        token: String,
    },
    /// Nearest neighbours of a token (batched across requests).
    Nn {
        /// Query token.
        token: String,
        /// Neighbour count.
        k: usize,
        /// Scan the int8-quantized table instead of f32.
        int8: bool,
    },
    /// Forest probability for one triple (batched across requests).
    Classify {
        /// Subject entity id.
        s: u32,
        /// Relation code.
        r: u8,
        /// Object entity id.
        o: u32,
    },
    /// Mini-BERT probability for one triple (batched across requests).
    Bert {
        /// Subject entity id.
        s: u32,
        /// Relation code.
        r: u8,
        /// Object entity id.
        o: u32,
    },
    /// Stop accepting connections, drain the queue, exit.
    Shutdown,
}

impl Op {
    /// Stable name used in telemetry span labels and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Health => "health",
            Op::Flight => "flight",
            Op::Artifacts => "artifacts",
            Op::Artifact { .. } => "artifact",
            Op::Embed { .. } => "embed",
            Op::Nn { .. } => "nn",
            Op::Classify { .. } => "classify",
            Op::Bert { .. } => "bert",
            Op::Shutdown => "shutdown",
        }
    }

    /// Number of distinct operations — sizes the per-verb counter array.
    pub const COUNT: usize = 11;

    /// [`Op::name`] for each index, in [`Op::index`] order.
    pub const NAMES: [&'static str; Op::COUNT] = [
        "ping", "stats", "health", "flight", "artifacts", "artifact", "embed", "nn", "classify",
        "bert", "shutdown",
    ];

    /// Dense index of this operation into [`Op::NAMES`], used by the
    /// engine's lock-free per-verb request counters.
    pub fn index(&self) -> usize {
        match self {
            Op::Ping => 0,
            Op::Stats => 1,
            Op::Health => 2,
            Op::Flight => 3,
            Op::Artifacts => 4,
            Op::Artifact { .. } => 5,
            Op::Embed { .. } => 6,
            Op::Nn { .. } => 7,
            Op::Classify { .. } => 8,
            Op::Bert { .. } => 9,
            Op::Shutdown => 10,
        }
    }
}

/// Renders a request back to its wire line (no trailing newline). Used by
/// the bench load generator and tests; `parse_request` inverts it.
pub fn render_request(req: &Request) -> String {
    let v = match &req.op {
        Op::Ping | Op::Stats | Op::Health | Op::Flight | Op::Artifacts | Op::Shutdown => {
            json!({"id": req.id, "op": req.op.name()})
        }
        Op::Artifact { name } => json!({"id": req.id, "op": "artifact", "name": name}),
        Op::Embed { token } => json!({"id": req.id, "op": "embed", "token": token}),
        Op::Nn { token, k, int8 } => {
            json!({"id": req.id, "op": "nn", "token": token, "k": *k, "int8": *int8})
        }
        Op::Classify { s, r, o } => {
            json!({"id": req.id, "op": "classify", "s": *s, "r": *r, "o": *o})
        }
        Op::Bert { s, r, o } => json!({"id": req.id, "op": "bert", "s": *s, "r": *r, "o": *o}),
    };
    serde_json::to_string(&v).expect("serializable")
}

/// Parses one request line. On failure returns the request id when one
/// could still be extracted (so the error reply can echo it; 0 otherwise)
/// and a message naming the problem.
pub fn parse_request(line: &str) -> Result<Request, (u64, String)> {
    let v = parse_value(line).map_err(|e| (0, e))?;
    let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
    let fail = |msg: String| (id, msg);
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("missing op".to_string()))?;
    let str_field = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| fail(format!("{op} needs a string `{key}`")))
    };
    let u32_field = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .filter(|&x| x <= u64::from(u32::MAX))
            .map(|x| x as u32)
            .ok_or_else(|| fail(format!("{op} needs a u32 `{key}`")))
    };
    let op = match op {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "health" => Op::Health,
        "flight" => Op::Flight,
        "artifacts" => Op::Artifacts,
        "shutdown" => Op::Shutdown,
        "artifact" => Op::Artifact { name: str_field("name")? },
        "embed" => Op::Embed { token: str_field("token")? },
        "nn" => Op::Nn {
            token: str_field("token")?,
            k: v.get("k").and_then(Value::as_u64).unwrap_or(10) as usize,
            int8: v.get("int8").and_then(Value::as_bool).unwrap_or(false),
        },
        "classify" => {
            let r = u32_field("r")?;
            if r > u32::from(u8::MAX) {
                return Err(fail(format!("relation code {r} out of range")));
            }
            Op::Classify { s: u32_field("s")?, r: r as u8, o: u32_field("o")? }
        }
        "bert" => {
            let r = u32_field("r")?;
            if r > u32::from(u8::MAX) {
                return Err(fail(format!("relation code {r} out of range")));
            }
            Op::Bert { s: u32_field("s")?, r: r as u8, o: u32_field("o")? }
        }
        other => return Err(fail(format!("unknown op `{other}`"))),
    };
    Ok(Request { id, op })
}

// ---------------------------------------------------------------------------
// Reply rendering — the single formatting authority for both serve paths.
// ---------------------------------------------------------------------------

/// `{"id":N,"ok":false,"error":code,"message":msg}` — `code` is a stable
/// machine-readable token (`overloaded` being the admission-control one).
pub fn render_error(id: u64, code: &str, msg: &str) -> String {
    serde_json::to_string(&json!({"id": id, "ok": false, "error": code, "message": msg}))
        .expect("serializable")
}

/// The typed shed reply for a full queue.
pub fn render_overloaded(id: u64) -> String {
    render_error(id, "overloaded", "queue full, retry later")
}

/// `ping` reply.
pub fn render_pong(id: u64) -> String {
    serde_json::to_string(&json!({"id": id, "ok": true, "op": "ping"})).expect("serializable")
}

/// `shutdown` acknowledgement.
pub fn render_shutdown(id: u64) -> String {
    serde_json::to_string(&json!({"id": id, "ok": true, "op": "shutdown"})).expect("serializable")
}

/// Everything the `stats` verb reports: counters, gauges and the
/// end-to-end latency percentiles, all read from the live telemetry plane
/// at the moment of the request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReply {
    /// Requests answered by workers.
    pub served: u64,
    /// Requests shed with an `overloaded` reply.
    pub shed: u64,
    /// Error replies sent (bad request / not found / unavailable).
    pub errors: u64,
    /// Requests currently queued.
    pub queue_depth: i64,
    /// Requests currently being served by workers.
    pub in_flight: i64,
    /// Seconds since the engine started.
    pub uptime_s: f64,
    /// End-to-end latency percentiles, µs (bucketed estimates).
    pub p50_us: u64,
    /// 95th percentile, µs.
    pub p95_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// Slowest request, µs (exact).
    pub max_us: u64,
    /// Per-verb request counts, [`Op::index`] order, zero rows skipped.
    pub verbs: Vec<(&'static str, u64)>,
}

/// `stats` reply.
pub fn render_stats(id: u64, s: &StatsReply) -> String {
    let verbs: Vec<(String, Value)> =
        s.verbs.iter().map(|&(name, n)| (name.to_string(), json!(n))).collect();
    serde_json::to_string(&json!({
        "id": id, "ok": true,
        "served": s.served, "shed": s.shed, "errors": s.errors,
        "queue_depth": s.queue_depth, "in_flight": s.in_flight,
        "uptime_s": s.uptime_s,
        "p50_us": s.p50_us, "p95_us": s.p95_us, "p99_us": s.p99_us, "max_us": s.max_us,
        "verbs": Value::Object(verbs),
    }))
    .expect("serializable")
}

/// `health` reply: liveness plus the two numbers a probe cares about.
pub fn render_health(id: u64, uptime_s: f64, queue_depth: i64) -> String {
    serde_json::to_string(&json!({
        "id": id, "ok": true, "status": "ok",
        "uptime_s": uptime_s, "queue_depth": queue_depth,
    }))
    .expect("serializable")
}

/// `flight` reply: both recorder rings (oldest first) and the slow-request
/// threshold that fills the second one.
pub fn render_flight(id: u64, recent: Vec<Value>, slow: Vec<Value>, slow_us: u64) -> String {
    serde_json::to_string(&json!({
        "id": id, "ok": true, "slow_us": slow_us,
        "recent": recent, "slow": slow,
    }))
    .expect("serializable")
}

/// `artifacts` reply: the sorted id list.
pub fn render_artifact_ids(id: u64, ids: &[&str]) -> String {
    serde_json::to_string(&json!({"id": id, "ok": true, "artifacts": ids})).expect("serializable")
}

/// `artifact` reply: the pre-rendered payload embedded verbatim.
pub fn render_artifact(id: u64, payload: &Value) -> String {
    serde_json::to_string(&json!({"id": id, "ok": true, "artifact": payload.clone()}))
        .expect("serializable")
}

/// `embed` reply. The vector is widened f32 → f64 exactly, so the bytes
/// are a pure function of the table row.
pub fn render_embed(id: u64, vector: &[f32], in_vocab: bool) -> String {
    let vs: Vec<Value> = vector.iter().map(|&x| Value::Number(Number::F(f64::from(x)))).collect();
    serde_json::to_string(&json!({"id": id, "ok": true, "in_vocab": in_vocab, "vector": vs}))
        .expect("serializable")
}

/// `nn` reply: `[[token, similarity], ...]` in rank order.
pub fn render_nn(id: u64, neighbours: &[(String, f32)]) -> String {
    let ns: Vec<Value> = neighbours
        .iter()
        .map(|(t, s)| {
            Value::Array(vec![
                Value::String(t.clone()),
                Value::Number(Number::F(f64::from(*s))),
            ])
        })
        .collect();
    serde_json::to_string(&json!({"id": id, "ok": true, "neighbours": ns})).expect("serializable")
}

/// `classify` / `bert` reply: the positive-class probability.
pub fn render_proba(id: u64, p: f32) -> String {
    serde_json::to_string(&json!({"id": id, "ok": true, "p": f64::from(p)}))
        .expect("serializable")
}

// ---------------------------------------------------------------------------
// The request-side JSON parser.
// ---------------------------------------------------------------------------

/// Parses one complete JSON value (rejecting trailing data), building the
/// workspace's [`Value`] tree. Errors name the byte offset.
///
/// The parser itself lives in [`kcb_util::json`] (the run journal and the
/// `repro runs` query surface read JSON through the same code); this
/// re-export keeps the wire protocol's public surface unchanged.
pub use kcb_util::json::parse_value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let reqs = [
            Request { id: 1, op: Op::Ping },
            Request { id: 2, op: Op::Stats },
            Request { id: 3, op: Op::Artifacts },
            Request { id: 4, op: Op::Artifact { name: "table2".into() } },
            Request { id: 5, op: Op::Embed { token: "water".into() } },
            Request { id: 6, op: Op::Nn { token: "acid".into(), k: 5, int8: true } },
            Request { id: 7, op: Op::Classify { s: 1, r: 2, o: 3 } },
            Request { id: 8, op: Op::Bert { s: 9, r: 0, o: 4 } },
            Request { id: 9, op: Op::Shutdown },
            Request { id: 10, op: Op::Health },
            Request { id: 11, op: Op::Flight },
        ];
        for req in reqs {
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn op_indices_are_dense_and_match_names() {
        let ops = [
            Op::Ping,
            Op::Stats,
            Op::Health,
            Op::Flight,
            Op::Artifacts,
            Op::Artifact { name: "t".into() },
            Op::Embed { token: "t".into() },
            Op::Nn { token: "t".into(), k: 1, int8: false },
            Op::Classify { s: 0, r: 0, o: 0 },
            Op::Bert { s: 0, r: 0, o: 0 },
            Op::Shutdown,
        ];
        assert_eq!(ops.len(), Op::COUNT);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.index(), i, "{}", op.name());
            assert_eq!(Op::NAMES[i], op.name());
        }
    }

    #[test]
    fn nn_defaults_and_field_order_independence() {
        let r = parse_request(r#"{"op":"nn","token":"x","id":3}"#).unwrap();
        assert_eq!(r.id, 3);
        assert_eq!(r.op, Op::Nn { token: "x".into(), k: 10, int8: false });
    }

    #[test]
    fn errors_keep_the_request_id_when_extractable() {
        let (id, msg) = parse_request(r#"{"id":7,"op":"warp"}"#).unwrap_err();
        assert_eq!(id, 7);
        assert!(msg.contains("warp"), "{msg}");
        let (id, msg) = parse_request(r#"{"id":8,"op":"nn"}"#).unwrap_err();
        assert_eq!(id, 8);
        assert!(msg.contains("token"), "{msg}");
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, 0);
        let (_, msg) = parse_request(r#"{"id":1,"op":"classify","s":1,"r":900,"o":2}"#)
            .unwrap_err();
        assert!(msg.contains("900"), "{msg}");
    }

    #[test]
    fn parser_handles_nesting_strings_and_numbers() {
        let v = parse_value(r#"{"a":[1,-2,2.5,"x\n\"y\"",{"b":null},true,false]}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(2.5));
        assert_eq!(a[3].as_str(), Some("x\n\"y\""));
        assert!(a[4].get("b").unwrap().is_null());
        for bad in ["{", "[1,]", "{\"a\":}", "\"oops", "01x", "[1] extra", "{\"a\" 1}"] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rendered_replies_are_valid_json() {
        for reply in [
            render_pong(1),
            render_overloaded(2),
            render_error(3, "bad_request", "missing op"),
            render_stats(
                4,
                &StatsReply {
                    served: 10,
                    shed: 2,
                    queue_depth: 3,
                    p99_us: 840,
                    verbs: vec![("nn", 7), ("ping", 3)],
                    ..StatsReply::default()
                },
            ),
            render_health(11, 1.5, 0),
            render_flight(12, vec![json!({"id": 1})], vec![], 10_000),
            render_artifact_ids(5, &["table2"]),
            render_artifact(6, &json!({"id": "table2"})),
            render_embed(7, &[0.5, -1.25], true),
            render_nn(8, &[("acid".to_string(), 0.75)]),
            render_proba(9, 0.5),
            render_shutdown(10),
        ] {
            let v = parse_value(&reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
            assert!(v.get("id").is_some() && v.get("ok").is_some(), "{reply}");
        }
        assert!(render_overloaded(2).contains(r#""error":"overloaded""#));
    }

    /// Request line fragments, valid and not.
    const FIELDS: &[&str] = &[
        r#""id":7"#,
        r#""id":-1"#,
        r#""id":18446744073709551616"#,
        r#""op":"nn""#,
        r#""op":"classify""#,
        r#""op":"bert""#,
        r#""op":"ping""#,
        r#""op":7"#,
        r#""token":"acid""#,
        r#""token":["#,
        r#""k":3"#,
        r#""k":1e400"#,
        r#""int8":true"#,
        r#""s":4294967296"#,
        r#""r":256"#,
        r#""r":1"#,
        r#""o":0"#,
        r#""name":"table2""#,
        "[[[[",
        "}",
    ];

    fn request(ix: u8, id: u64, text: String, n: u64) -> Request {
        let op = match ix % Op::COUNT as u8 {
            0 => Op::Ping,
            1 => Op::Stats,
            2 => Op::Health,
            3 => Op::Flight,
            4 => Op::Artifacts,
            5 => Op::Artifact { name: text },
            6 => Op::Embed { token: text },
            7 => Op::Nn { token: text, k: n as usize, int8: n % 2 == 1 },
            8 => Op::Classify { s: n as u32, r: (n >> 32) as u8, o: (n >> 40) as u32 },
            9 => Op::Bert { s: (n >> 8) as u32, r: n as u8, o: (n >> 16) as u32 },
            _ => Op::Shutdown,
        };
        Request { id, op }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn parse_request_never_panics(
            picks in proptest::prop::collection::vec(0usize..64, 0..8),
            braces in 0usize..300,
            noise in ".{0,40}",
        ) {
            let fields: Vec<&str> = picks.iter().map(|p| FIELDS[p % FIELDS.len()]).collect();
            let line = format!("{{{}}}", fields.join(","));
            let _ = parse_request(&line);
            let _ = parse_request(&format!("{}{line}", "{\"a\":".repeat(braces)));
            let _ = parse_request(&noise);
        }

        #[test]
        fn rendered_requests_round_trip(
            ix in 0u8..255,
            id in proptest::any::<u64>(),
            text in ".{0,12}",
            n in proptest::any::<u64>(),
        ) {
            let req = request(ix, id, text, n);
            let line = render_request(&req);
            proptest::prop_assert_eq!(parse_request(&line), Ok(req), "{}", line);
        }
    }
}
