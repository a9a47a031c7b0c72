//! HTTP/1.1 pipelining suite for the event-loop server.
//!
//! Drives the readiness-driven acceptor over real sockets with traffic
//! shapes only a buffering parser meets: several requests in one
//! `write(2)`, one request split across TCP segments, malformed bytes
//! in the middle of a pipeline, deep bursts against the per-connection
//! depth cap, overload 503s answered mid-pipeline with `Retry-After`,
//! and idle keep-alive connections reaped by `--keep-alive-timeout-ms`.
//! Responses must always come back complete, in request order.

use std::io::ErrorKind;
use std::time::{Duration, Instant};

use arbitrex_server::replication::{PeerClient, PeerResponse};
use arbitrex_server::{spawn, RunningServer, ServerConfig};

mod common;
use common::Client;

fn server_with(configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 256,
        timeout_ms: 0,
        ..ServerConfig::default()
    };
    configure(&mut config);
    spawn(config).expect("spawn server")
}

fn connect(server: &RunningServer) -> Client {
    Client::connect_server(server)
}

/// Request bytes, keep-alive unless `close`.
fn raw_request(method: &str, path: &str, body: &str, close: bool) -> String {
    let headers: &[(&str, &str)] = if close {
        &[("Connection", "close")]
    } else {
        &[]
    };
    String::from_utf8(PeerClient::encode(method, path, Some(body), headers)).unwrap()
}

/// One full response off the connection: status, the response (for its
/// headers), the body.
fn read_response(client: &mut Client) -> (u16, PeerResponse, String) {
    let response = client
        .read_response()
        .unwrap_or_else(|e| panic!("read response: {e}"));
    let body = String::from_utf8_lossy(&response.body).into_owned();
    (response.status, response, body)
}

/// Has the peer closed? Distinguishes clean EOF from a timeout.
fn reaches_eof(client: &mut Client, within: Duration) -> bool {
    client.stream.set_read_timeout(Some(within)).unwrap();
    match client.read_response() {
        Ok(response) => panic!("unexpected response {response:?} instead of EOF"),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => true,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => false,
        Err(e) if e.kind() == ErrorKind::ConnectionReset => true,
        Err(e) => panic!("read error waiting for EOF: {e}"),
    }
}

fn seq_of(body: &str) -> u64 {
    // Responses are flat JSON objects; the seq field is an integer.
    let tail = body.split("\"seq\":").nth(1).unwrap_or_else(|| {
        panic!("no seq in {body}");
    });
    tail.trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric seq")
}

// --- pipelining --------------------------------------------------------------

#[test]
fn pipelined_requests_in_one_write_answer_in_order() {
    let server = server_with(|_| {});
    let mut client = connect(&server);

    // Three puts to the same KB in a single write(2): the responses must
    // come back complete and strictly in request order — the seqs they
    // report (1, 2, 3) are the order the server really applied them in.
    let mut batch = String::new();
    for formula in ["A", "A & B", "A & B & C"] {
        batch.push_str(&raw_request(
            "POST",
            "/v1/kb/pipelined",
            &format!(r#"{{"action": "put", "formula": "{formula}"}}"#),
            false,
        ));
    }
    client.send_raw(batch.as_bytes());

    for expected_seq in 1..=3u64 {
        let (status, _head, body) = read_response(&mut client);
        assert_eq!(status, 200, "{body}");
        assert_eq!(seq_of(&body), expected_seq, "{body}");
    }

    server.stop().unwrap();
}

#[test]
fn held_writes_and_a_later_read_survive_a_half_close() {
    let server = server_with(|c| c.threads = 4);
    let mut client = connect(&server);

    // Writes to one KB and a read of it, in one write, then the client
    // half-closes. Each request waits in the server's buffer for the one
    // before it, and the server stops reading while one waits: the last
    // put's padding keeps it and the read partly unread, in the socket,
    // when the half-close arrives. They must still be read and answered.
    let kb = |body: &str| raw_request("POST", "/v1/kb/halfclose", body, false);
    let padding = " ".repeat(64 * 1024);
    let batch = [
        kb(r#"{"action": "put", "formula": "A"}"#),
        kb(r#"{"action": "arbitrate", "formula": "!A", "hold_ms": 200}"#),
        kb(&format!(
            r#"{{"action": "put", "formula": "A & B"}}{padding}"#
        )),
        raw_request("GET", "/v1/kb/halfclose", "", false),
    ]
    .concat();
    client.send_raw(batch.as_bytes());
    client.stream.shutdown(std::net::Shutdown::Write).unwrap();

    for expected_seq in [1, 2, 3, 3] {
        let (status, _head, body) = read_response(&mut client);
        assert_eq!(status, 200, "{body}");
        assert_eq!(seq_of(&body), expected_seq, "{body}");
    }
    assert!(reaches_eof(&mut client, Duration::from_secs(5)));

    server.stop().unwrap();
}

#[test]
fn request_split_across_tcp_segments_is_reassembled() {
    let server = server_with(|_| {});
    let mut client = connect(&server);

    let request = raw_request(
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A & B", "phi": "!A & !B"}"#,
        false,
    );
    let bytes = request.as_bytes();
    // Dribble the request out in three segments with pauses between, so
    // the head and the body each arrive incomplete at least once.
    let cuts = [bytes.len() / 3, 2 * bytes.len() / 3, bytes.len()];
    let mut sent = 0;
    for cut in cuts {
        client.send_raw(&bytes[sent..cut]);
        sent = cut;
        std::thread::sleep(Duration::from_millis(60));
    }

    let (status, _head, body) = read_response(&mut client);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"n_models\""), "{body}");

    server.stop().unwrap();
}

#[test]
fn malformed_request_mid_pipeline_gets_400_without_corrupting_earlier_responses() {
    let server = server_with(|_| {});
    let mut client = connect(&server);

    // A valid request, then garbage, then another valid request — all in
    // one write. The first must succeed untouched, the garbage draws a
    // 400, and the connection closes without answering the third (its
    // bytes are indistinguishable from more garbage).
    let mut batch = raw_request("GET", "/metrics", "", false);
    batch.push_str("THIS IS NOT HTTP\r\n\r\n");
    batch.push_str(&raw_request("GET", "/metrics", "", false));
    client.send_raw(batch.as_bytes());

    let (status, _head, body) = read_response(&mut client);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"telemetry\""), "{body}");

    let (status, head, _body) = read_response(&mut client);
    assert_eq!(status, 400);
    assert_eq!(head.header("connection"), Some("close"), "{head:?}");

    assert!(
        reaches_eof(&mut client, Duration::from_secs(5)),
        "connection must close after the 400"
    );

    server.stop().unwrap();
}

#[test]
fn deep_pipeline_burst_completes_in_order() {
    let server = server_with(|c| c.threads = 4);
    let mut client = connect(&server);

    // 32 pipelined puts in one write — deep enough to exercise slot
    // bookkeeping and out-of-order completion reordering across several
    // workers, while staying under MAX_PIPELINE_DEPTH.
    let mut batch = String::new();
    for i in 0..32 {
        let formula = if i % 2 == 0 { "A | B" } else { "A & B" };
        batch.push_str(&raw_request(
            "POST",
            "/v1/kb/burst",
            &format!(r#"{{"action": "put", "formula": "{formula}"}}"#),
            false,
        ));
    }
    client.send_raw(batch.as_bytes());

    for expected_seq in 1..=32u64 {
        let (status, _head, body) = read_response(&mut client);
        assert_eq!(status, 200, "{body}");
        assert_eq!(seq_of(&body), expected_seq, "{body}");
    }

    server.stop().unwrap();
}

#[test]
fn paused_pipeline_resumes_across_completions_without_dropping() {
    let server = server_with(|_| {});
    let mut client = connect(&server);

    // A held arbitration, then enough fast ones in the same write to
    // fill MAX_PIPELINE_DEPTH: the connection pauses with its output
    // drained while the fast requests complete behind the held one.
    // Every one of those completions must leave the connection
    // registered correctly, so all 141 responses arrive, in order.
    let mut batch = raw_request(
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "H", "phi": "H", "hold_ms": 300}"#,
        false,
    );
    for i in 0..140 {
        batch.push_str(&raw_request(
            "POST",
            "/v1/arbitrate",
            &format!(r#"{{"psi": "V{i}", "phi": "V{i}"}}"#),
            false,
        ));
    }
    client.send_raw(batch.as_bytes());

    for name in std::iter::once("H".to_string()).chain((0..140).map(|i| format!("V{i}"))) {
        let (status, _head, body) = read_response(&mut client);
        assert_eq!(status, 200, "{name}: {body}");
        assert!(body.contains(&format!("[\"{name}\"]")), "{name}: {body}");
    }

    server.stop().unwrap();
}

#[test]
fn slow_reader_gets_every_byte_in_order() {
    let server = server_with(|c| c.threads = 2);
    let mut client = connect(&server);

    // 110 pipelined arbitrations of a 12-variable tautology: each answer
    // lists all 4,096 models (~280 KB), ~30 MB together — far past what
    // the loopback socket buffers hold. Nothing is read until every
    // request is sent and the workers have had time to fill the socket,
    // so their writes hit `WouldBlock` and the rest of the output must
    // go out through the I/O thread's writable interest.
    const REQUESTS: usize = 110;
    let tautology = |i: usize| {
        (0..12)
            .map(|j| format!("(P{i}V{j} | !P{i}V{j})"))
            .collect::<Vec<_>>()
            .join(" & ")
    };
    let mut batch = String::new();
    for i in 0..REQUESTS {
        let t = tautology(i);
        batch.push_str(&raw_request(
            "POST",
            "/v1/arbitrate",
            &format!(r#"{{"psi": "{t}", "phi": "{t}"}}"#),
            false,
        ));
    }
    client.send_raw(batch.as_bytes());
    std::thread::sleep(Duration::from_millis(1500));

    for i in 0..REQUESTS {
        let (status, _head, body) = read_response(&mut client);
        let head = &body[..body.len().min(300)];
        assert_eq!(status, 200, "request {i}: {head}");
        assert!(body.contains("\"n_models\":4096"), "request {i}: {head}");
        assert!(
            body.contains(&format!("[\"P{i}V0\"]")),
            "response {i} out of order: {head}"
        );
    }

    server.stop().unwrap();
}

// --- connection lifecycle ----------------------------------------------------

#[test]
fn a_response_never_reaches_the_wrong_connection() {
    // One worker, so a request that outlives its connection pins it and
    // the next connection's request queues behind it.
    let server = server_with(|c| c.threads = 1);

    // Client A leaves a response unread, then parks a held request and
    // closes: the unread bytes make its close a reset, so the server
    // drops the connection (and frees its token) while the held request
    // is still computing.
    let mut a = connect(&server);
    a.send_raw(raw_request("GET", "/metrics", "", false).as_bytes());
    std::thread::sleep(Duration::from_millis(100));
    a.send_raw(
        raw_request(
            "POST",
            "/v1/arbitrate",
            r#"{"psi": "Aone", "phi": "Aone", "hold_ms": 600}"#,
            false,
        )
        .as_bytes(),
    );
    std::thread::sleep(Duration::from_millis(150));
    drop(a);
    std::thread::sleep(Duration::from_millis(50));

    // Client B connects while A's request computes — it may be given
    // A's token — and must get exactly one response: its own.
    let mut b = connect(&server);
    b.send_raw(
        raw_request(
            "POST",
            "/v1/arbitrate",
            r#"{"psi": "Bone", "phi": "Bone"}"#,
            false,
        )
        .as_bytes(),
    );
    let (status, _head, body) = read_response(&mut b);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#"["Bone"]"#), "{body}");
    assert!(!body.contains("Aone"), "{body}");
    b.stream
        .set_read_timeout(Some(Duration::from_millis(700)))
        .unwrap();
    match b.read_response() {
        Ok(extra) => panic!("a second response reached B: {extra:?}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "{e}"
        ),
    }

    // The one worker survived A's orphaned response and still serves.
    b.stream
        .set_read_timeout(Some(common::READ_TIMEOUT))
        .unwrap();
    b.send_raw(
        raw_request(
            "POST",
            "/v1/arbitrate",
            r#"{"psi": "Btwo", "phi": "Btwo"}"#,
            false,
        )
        .as_bytes(),
    );
    let (status, _head, body) = read_response(&mut b);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#"["Btwo"]"#), "{body}");

    server.stop().unwrap();
}

#[test]
fn shutdown_needs_no_timer() {
    // Stop wakes the loop and every idle worker itself: it waits for no
    // reap tick and no worker wait timeout.
    let limit = Duration::from_millis(200);

    let idle = server_with(|_| {});
    let started = Instant::now();
    idle.stop().unwrap();
    let took = started.elapsed();
    assert!(took < limit, "idle server took {took:?} to stop");

    let kept = server_with(|_| {});
    let mut client = connect(&kept);
    client.send_raw(raw_request("GET", "/metrics", "", false).as_bytes());
    let (status, _head, _body) = read_response(&mut client);
    assert_eq!(status, 200);
    let started = Instant::now();
    kept.stop().unwrap();
    let took = started.elapsed();
    assert!(
        took < limit,
        "server with an idle keep-alive connection took {took:?} to stop"
    );
    assert!(reaches_eof(&mut client, Duration::from_secs(5)));
}

#[test]
fn connection_close_is_honored_after_the_response() {
    let server = server_with(|_| {});
    let mut client = connect(&server);

    client.send_raw(raw_request("GET", "/metrics", "", true).as_bytes());
    let (status, head, _body) = read_response(&mut client);
    assert_eq!(status, 200);
    assert_eq!(head.header("connection"), Some("close"), "{head:?}");
    assert!(
        reaches_eof(&mut client, Duration::from_secs(5)),
        "server must close after Connection: close"
    );

    server.stop().unwrap();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let server = server_with(|c| c.keep_alive_timeout_ms = 200);
    let mut client = connect(&server);

    // The connection works while active...
    client.send_raw(raw_request("GET", "/metrics", "", false).as_bytes());
    let (status, _head, _body) = read_response(&mut client);
    assert_eq!(status, 200);

    // ...then, left idle past the timeout, the server closes it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut reaped = false;
    while Instant::now() < deadline {
        if reaches_eof(&mut client, Duration::from_millis(250)) {
            reaped = true;
            break;
        }
    }
    assert!(reaped, "idle connection was never reaped");

    // A fresh connection still serves: reaping is per-connection.
    let mut fresh = connect(&server);
    fresh.send_raw(raw_request("GET", "/metrics", "", false).as_bytes());
    let (status, _head, _body) = read_response(&mut fresh);
    assert_eq!(status, 200);

    server.stop().unwrap();
}

// --- backpressure ------------------------------------------------------------

#[test]
fn overload_503_carries_retry_after() {
    // One worker, queue depth one: a held request pins the worker, a
    // second fills the queue, and the third is refused straight from the
    // I/O thread — with a Retry-After hint.
    let server = server_with(|c| {
        c.threads = 1;
        c.queue_depth = 1;
    });

    let mut held = connect(&server);
    held.send_raw(
        raw_request(
            "POST",
            "/v1/arbitrate",
            r#"{"psi": "A", "phi": "!A", "hold_ms": 1500}"#,
            false,
        )
        .as_bytes(),
    );
    std::thread::sleep(Duration::from_millis(400)); // worker now sleeping in hold_ms

    let mut queued = connect(&server);
    queued.send_raw(
        raw_request(
            "POST",
            "/v1/arbitrate",
            r#"{"psi": "B", "phi": "!B"}"#,
            false,
        )
        .as_bytes(),
    );
    std::thread::sleep(Duration::from_millis(200)); // event loop has queued it

    let mut refused = connect(&server);
    refused.send_raw(raw_request("GET", "/metrics", "", false).as_bytes());
    let (status, head, body) = read_response(&mut refused);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("overloaded"), "{body}");
    assert_eq!(head.header("retry-after"), Some("1"), "{head:?}");

    // Refusal never corrupts accepted work.
    let (status, _head, _body) = read_response(&mut held);
    assert_eq!(status, 200);
    let (status, _head, _body) = read_response(&mut queued);
    assert_eq!(status, 200);

    server.stop().unwrap();
}
