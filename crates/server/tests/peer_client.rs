//! Framing of the blocking peer client (`replication::PeerClient`)
//! against loopback servers: a pipelined pair sent in one write, a
//! chunked WAL batch read one frame per chunk, and servers that go away
//! mid-exchange, which must surface as `Err`, never as a panic.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use arbitrex_server::json;
use arbitrex_server::replication::PeerClient;
use arbitrex_server::wal::decode_frame;
use arbitrex_server::{spawn, RunningServer, ServerConfig};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn server(state_dir: Option<PathBuf>) -> RunningServer {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        state_dir,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

fn temp_state_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "arbx-peer-client-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

fn body_json(body: &[u8]) -> json::Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("JSON body")
}

#[test]
fn two_requests_in_one_send_are_read_back_in_order() {
    let server = server(None);
    let mut client = PeerClient::connect(&server.addr.to_string()).expect("connect");
    let mut wire = PeerClient::encode(
        "POST",
        "/v1/arbitrate",
        Some(r#"{"psi": "A & !B", "phi": "!A & B"}"#),
        &[],
    );
    wire.extend(PeerClient::encode("GET", "/v1/no-such-endpoint", None, &[]));
    client.send_raw(&wire).expect("send both");

    let first = client.read_response().expect("first response");
    assert_eq!(first.status, 200);
    let answer = body_json(&first.body);
    assert_eq!(
        answer.get("endpoint").and_then(|v| v.as_str()),
        Some("arbitrate")
    );
    // A & !B against !A & B: the two midpoints {} and {A, B}.
    assert_eq!(answer.get("n_models").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(first.chunks, None);

    let second = client.read_response().expect("second response");
    assert_eq!(second.status, 404);

    // Nothing of either response is left over: the connection carries on.
    let third = client.request("GET", "/v1/kbs", None).expect("third");
    assert_eq!(third.status, 200);
    server.stop().expect("stop");
}

#[test]
fn a_chunked_wal_batch_arrives_one_frame_per_chunk() {
    let dir = temp_state_dir();
    let server = server(Some(dir.clone()));
    let mut client = PeerClient::connect(&server.addr.to_string()).expect("connect");
    let mut acked = Vec::new();
    for formula in ["A & B", "A | B", "!A"] {
        let body = format!(r#"{{"action": "put", "formula": "{formula}"}}"#);
        let reply = client
            .request("POST", "/v1/kb/framing", Some(&body))
            .expect("commit");
        assert_eq!(reply.status, 200);
        let rseq: u64 = reply
            .header("x-arbitrex-seq")
            .and_then(|v| v.parse().ok())
            .expect("X-Arbitrex-Seq on a commit ack");
        acked.push(rseq);
    }

    let path = format!("/v1/replication/wal?from_seq={}", acked[0]);
    let reply = client.request("GET", &path, None).expect("WAL batch");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("transfer-encoding"), Some("chunked"));
    let chunks = reply.chunks.as_ref().expect("a chunked body");
    let shipped: Vec<u64> = chunks
        .iter()
        .map(|chunk| {
            decode_frame(chunk)
                .expect("each chunk is one whole frame")
                .rseq
        })
        .collect();
    assert_eq!(shipped, acked);
    assert_eq!(reply.body, chunks.concat());

    // The terminating chunk was consumed: the next exchange lines up.
    let next = client
        .request("GET", "/v1/kbs", None)
        .expect("after chunks");
    assert_eq!(next.status, 200);
    server.stop().expect("stop");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_server_stopped_between_requests_gives_an_err() {
    let server = server(None);
    let mut client = PeerClient::connect(&server.addr.to_string()).expect("connect");
    let reply = client.request("GET", "/v1/kbs", None).expect("first");
    assert_eq!(reply.status, 200);
    server.stop().expect("stop");
    assert!(client.request("GET", "/v1/kbs", None).is_err());
}

#[test]
fn a_response_cut_short_gives_an_err() {
    let cut_responses: [&[u8]; 4] = [
        b"HTTP/1.1 200 OK\r\nContent-Le",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n8\r\nfour",
        b"not http at all\r\n\r\n",
    ];
    for cut in cut_responses {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = [0u8; 256];
            let _ = stream.read(&mut request);
            stream.write_all(cut).expect("write the cut response");
            // Dropping the stream closes it mid-response.
        });
        let mut client = PeerClient::connect(&addr).expect("connect");
        let outcome = client.request("GET", "/v1/kbs", None);
        peer.join().expect("fake peer");
        assert!(
            outcome.is_err(),
            "{:?} must fail, got {outcome:?}",
            String::from_utf8_lossy(cut)
        );
    }
}
