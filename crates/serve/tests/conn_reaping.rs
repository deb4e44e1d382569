//! A closed connection's thread is joined while the daemon runs, so
//! serving N sequential connections does not keep N thread stacks mapped.
//!
//! Linux only (it counts `/proc/self/maps` lines), and a test binary of its
//! own so no other test's threads change the count.
#![cfg(target_os = "linux")]

use kcb_core::lab::{Lab, LabConfig};
use kcb_core::snapshot::{Snapshot, SnapshotSpec};
use kcb_serve::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("procfs").lines().count()
}

/// One connection: a ping, its pong, then close.
fn ping(addr: SocketAddr, id: u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    writeln!(stream, r#"{{"id":{id},"op":"ping"}}"#).expect("write");
    let mut pong = String::new();
    BufReader::new(&stream).read_line(&mut pong).expect("pong");
    assert!(pong.contains(r#""ok":true"#), "{pong}");
}

#[test]
fn sequential_connections_do_not_accumulate_thread_stacks() {
    let lab = Lab::new(LabConfig::tiny());
    let snap = Snapshot::freeze(&lab, SnapshotSpec { bert: false, ..SnapshotSpec::default() });
    let server = Server::start(
        Arc::new(snap),
        &ServerConfig { tcp: Some("127.0.0.1:0".to_string()), ..ServerConfig::default() },
    )
    .expect("bind");
    let addr = server.tcp_addr.expect("tcp bound");
    // Warm up: the first connections may map allocator arenas.
    for id in 0..10 {
        ping(addr, id);
    }
    std::thread::sleep(Duration::from_millis(100));
    let before = mappings();
    for id in 0..300 {
        ping(addr, id);
    }
    // Let the last connection threads finish and the acceptor reap them.
    std::thread::sleep(Duration::from_millis(200));
    let grown = mappings().saturating_sub(before);
    assert!(grown < 100, "300 closed connections left {grown} new mappings");
    server.stop();
    server.wait();
}
