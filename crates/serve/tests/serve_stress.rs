//! Serving-path contracts under concurrency and overload.
//!
//! 1. **Snapshot stress**: N threads hammer one frozen snapshot with a
//!    mixed query stream; every reply must be byte-identical to the
//!    single-threaded serial reference. This is the determinism half of
//!    the serving story — shared immutable state, no locks, no drift.
//! 2. **Backpressure**: a zero-worker engine with a tiny queue must shed
//!    exactly the overflow with typed `overloaded` replies and keep memory
//!    bounded (queue never exceeds its cap).
//! 3. **End-to-end socket smoke**: a real TCP server answers the protocol
//!    ops and honours `shutdown` with a graceful drain.
//! 4. **Bounded request lines**: a peer that never sends a newline gets a
//!    typed `too_large` reply and a closed connection, and other
//!    connections are still served; a line nested far past the JSON
//!    reader's bound is an ordinary `bad_request`.

use kcb_core::lab::{Lab, LabConfig};
use kcb_core::snapshot::{Snapshot, SnapshotSpec};
use kcb_serve::bench::{client_workload, fnv64, FNV_OFFSET};
use kcb_serve::engine::{answer_serial, Engine, EngineConfig};
use kcb_serve::protocol::{self, Op, Request};
use kcb_serve::server::{Server, ServerConfig};
use kcb_serve::server::MAX_LINE;
use std::io::{BufRead, BufReader, Write};
use std::sync::{mpsc, Arc};

fn frozen() -> Arc<Snapshot> {
    let lab = Lab::new(LabConfig::tiny());
    Arc::new(Snapshot::freeze(&lab, SnapshotSpec::default()))
}

#[test]
fn concurrent_mixed_queries_are_byte_identical_to_serial() {
    let snap = frozen();
    const THREADS: usize = 8;
    const PER_THREAD: usize = 48;

    // Serial reference, one thread, one request at a time.
    let bert = snap.bert().map(kcb_core::snapshot::BertWeights::instantiate);
    let expected: Vec<Vec<String>> = (0..THREADS)
        .map(|t| {
            let reqs = client_workload(&snap, 99, t, PER_THREAD);
            reqs.iter().map(|r| answer_serial(&snap, bert.as_ref(), r)).collect()
        })
        .collect();

    // The same streams, replayed concurrently against the shared
    // snapshot through an engine with batching enabled.
    let engine = Engine::start(
        Arc::clone(&snap),
        &EngineConfig { workers: 4, queue_cap: 1024, batch_max: 16, ..EngineConfig::default() },
    );
    let got: Vec<Vec<String>> = std::thread::scope(|s| {
        let engine = &engine;
        let snap = &snap;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    client_workload(snap, 99, t, PER_THREAD)
                        .into_iter()
                        .map(|req| {
                            let (tx, rx) = mpsc::channel();
                            engine.submit(req, tx);
                            rx.recv().expect("reply")
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stress thread")).collect()
    });
    let stats = engine.shutdown();

    assert_eq!(stats.shed, 0, "queue was large enough to admit everything");
    assert_eq!(stats.served, (THREADS * PER_THREAD) as u64);
    for (t, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "thread {t} replies differ from the serial reference");
    }
}

#[test]
fn overflow_sheds_typed_replies_and_stays_bounded() {
    let snap = frozen();
    const CAP: usize = 4;
    // Zero workers: nothing drains, so the queue fills deterministically.
    let engine =
        Engine::start(Arc::clone(&snap), &EngineConfig { workers: 0, queue_cap: CAP, batch_max: 8, ..EngineConfig::default() });

    let mut rxs = Vec::new();
    for i in 0..20u64 {
        let (tx, rx) = mpsc::channel();
        engine.submit(Request { id: i, op: Op::Classify { s: 0, r: 0, o: 1 } }, tx);
        rxs.push(rx);
    }
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, CAP, "queue never exceeds its bound");
    assert_eq!(stats.shed, 20 - CAP as u64);

    // Shed requests were answered immediately with the typed reply; the
    // admitted ones are still pending.
    let mut overloaded = 0;
    for (i, rx) in rxs.iter().enumerate() {
        match rx.try_recv() {
            Ok(reply) => {
                assert!(
                    reply.contains(r#""error":"overloaded""#),
                    "request {i} got a non-shed reply: {reply}"
                );
                assert!(reply.contains(&format!(r#""id":{i}"#)), "{reply}");
                overloaded += 1;
            }
            Err(mpsc::TryRecvError::Empty) => {}
            Err(e) => panic!("request {i}: {e}"),
        }
    }
    assert_eq!(overloaded, 20 - CAP);

    // Shutdown with no workers drops the pending jobs: channels close
    // rather than hang.
    let final_stats = engine.shutdown();
    assert_eq!(final_stats.served, 0);
    assert_eq!(final_stats.shed, 20 - CAP as u64);
}

#[test]
fn tcp_server_answers_the_protocol_and_drains_on_shutdown() {
    let lab = Lab::new(LabConfig::tiny());
    let mut snap = Snapshot::freeze(&lab, SnapshotSpec { bert: false, ..SnapshotSpec::default() });
    snap.add_artifact("table2", serde_json::json!({"id": "table2", "rows": 3usize}));
    let server = Server::start(
        Arc::new(snap),
        &ServerConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            socket: None,
            engine: EngineConfig { workers: 2, queue_cap: 64, batch_max: 8, ..EngineConfig::default() },
        },
    )
    .expect("bind");
    let addr = server.tcp_addr.expect("tcp bound");

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let mut ask = |line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply
    };

    assert!(ask(r#"{"id":1,"op":"ping"}"#).contains(r#""ok":true"#));
    assert!(ask(r#"{"id":2,"op":"artifacts"}"#).contains("table2"));
    assert!(ask(r#"{"id":3,"op":"artifact","name":"table2"}"#).contains(r#""rows":3"#));
    assert!(ask(r#"{"id":4,"op":"artifact","name":"nope"}"#).contains("not_found"));
    let nn = ask(r#"{"id":5,"op":"nn","token":"acid","k":3}"#);
    assert!(nn.contains(r#""id":5"#), "{nn}");
    let cls = ask(r#"{"id":6,"op":"classify","s":0,"r":0,"o":1}"#);
    assert!(cls.contains(r#""p":"#), "{cls}");
    // No BERT in this snapshot: typed unavailable, not a crash.
    assert!(ask(r#"{"id":7,"op":"bert","s":0,"r":0,"o":1}"#).contains("unavailable"));
    assert!(ask(r#"{"id":8,"op":"classify","s":0,"r":99,"o":1}"#).contains("bad_request"));
    assert!(ask("not json").contains("bad_request"));
    let stats = ask(r#"{"id":9,"op":"stats"}"#);
    assert!(stats.contains(r#""served":"#), "{stats}");
    assert!(ask(r#"{"id":10,"op":"shutdown"}"#).contains(r#""op":"shutdown""#));

    let final_stats = server.wait();
    assert!(final_stats.served >= 4, "kernel ops were served: {final_stats:?}");
    assert_eq!(final_stats.shed, 0);
}

#[test]
fn workload_generation_is_deterministic_and_fnv_is_stable() {
    let snap = frozen();
    let a = client_workload(&snap, 7, 3, 32);
    let b = client_workload(&snap, 7, 3, 32);
    assert_eq!(a, b);
    let c = client_workload(&snap, 7, 4, 32);
    assert_ne!(a, c, "different clients draw different streams");
    assert_eq!(fnv64(FNV_OFFSET, b""), FNV_OFFSET);
    assert_ne!(fnv64(FNV_OFFSET, b"a"), fnv64(FNV_OFFSET, b"b"));
    // Round-trip every generated request through the wire format.
    for req in &a {
        assert_eq!(protocol::parse_request(&protocol::render_request(req)).unwrap(), *req);
    }
}

#[test]
fn an_overlong_request_line_is_refused_and_only_that_connection_closed() {
    let lab = Lab::new(LabConfig::tiny());
    let snap = Snapshot::freeze(&lab, SnapshotSpec { bert: false, ..SnapshotSpec::default() });
    let server = Server::start(
        Arc::new(snap),
        &ServerConfig { tcp: Some("127.0.0.1:0".to_string()), ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr.expect("tcp bound");
    let timeout = Some(std::time::Duration::from_secs(10));

    // 1 MiB without a newline, written from its own thread: once the
    // server stops reading, the writer may block until it disconnects.
    let flood = std::net::TcpStream::connect(addr).expect("connect");
    flood.set_read_timeout(timeout).unwrap();
    let mut writer = flood.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..16 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(flood);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply before the close");
    assert!(reply.contains(r#""error":"too_large""#), "{reply}");
    assert!(reply.contains(&MAX_LINE.to_string()), "{reply}");
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "the connection must be closed, got {rest:?}"
    );
    sender.join().unwrap();

    // Another connection is still answered.
    let mut other = std::net::TcpStream::connect(addr).expect("connect");
    other.set_read_timeout(timeout).unwrap();
    other.write_all(b"{\"id\":7,\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(other.try_clone().unwrap()).read_line(&mut pong).expect("pong");
    assert!(pong.contains(r#""id":7"#) && pong.contains(r#""ok":true"#), "{pong}");
    other.write_all(b"{\"id\":8,\"op\":\"shutdown\"}\n").unwrap();
    server.wait();
}

#[test]
fn a_deeply_nested_request_line_is_a_bad_request_and_the_daemon_keeps_serving() {
    let lab = Lab::new(LabConfig::tiny());
    let snap = Snapshot::freeze(&lab, SnapshotSpec { bert: false, ..SnapshotSpec::default() });
    let server = Server::start(
        Arc::new(snap),
        &ServerConfig { tcp: Some("127.0.0.1:0".to_string()), ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr.expect("tcp bound");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |line: &str| {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("a reply");
        reply
    };

    // Under the line cap, so it reaches the JSON reader.
    let nested = "[".repeat(60_000);
    assert!(nested.len() < MAX_LINE);
    let reply = ask(&nested);
    assert!(reply.contains(r#""error":"bad_request""#), "{reply}");
    assert!(reply.contains("nesting"), "{reply}");
    // The same connection, and the daemon, keep answering.
    let pong = ask(r#"{"id":2,"op":"ping"}"#);
    assert!(pong.contains(r#""id":2"#) && pong.contains(r#""ok":true"#), "{pong}");
    ask(r#"{"id":3,"op":"shutdown"}"#);
    server.wait();
}
