//! Coordinated-omission accounting of the open-loop generator, against a
//! stub server that stalls once for 200 ms.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use arbitrex_benchmark::loadgen::{parse_response, run_phase, Phase, CONNECTIONS};

const STALL: Duration = Duration::from_millis(200);
const STALLED: usize = 18;

/// Answer every request with `200 {}` in order; before answering the
/// request for `/stall`, sleep for [`STALL`] without reading.
fn stub_server(listener: TcpListener) {
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            let (mut conn, _) = listener.accept().unwrap();
            scope.spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..end]).to_string();
                        buf.drain(..end + 4);
                        if head.starts_with("GET /stall ") {
                            std::thread::sleep(STALL);
                        }
                        let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
                        if conn.write_all(reply).is_err() {
                            return;
                        }
                    }
                    match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
            });
        }
    });
}

#[test]
fn a_stall_is_charged_to_every_request_queued_behind_it() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || stub_server(listener));

    // One request per millisecond; request STALLED (on connection 0) stalls.
    let n = 300;
    let due: Vec<Duration> = (0..n).map(|i| Duration::from_millis(i as u64)).collect();
    let wires: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let path = if i == STALLED { "/stall" } else { "/" };
            format!("GET {path} HTTP/1.1\r\nHost: stub\r\n\r\n").into_bytes()
        })
        .collect();
    let keep_body = vec![false; n];
    let phase = Phase {
        due: &due,
        wires: &wires,
        keep_body: &keep_body,
        drain: Duration::from_secs(5),
    };
    let outcomes = run_phase(addr, &phase, |_| {}).unwrap();
    server.join().unwrap();

    assert!(outcomes.iter().all(|o| o.ok()));
    let stall_ends = due[STALLED] + STALL;
    let queued: Vec<usize> = (STALLED..n)
        .step_by(CONNECTIONS)
        .filter(|&i| due[i] + Duration::from_millis(50) < stall_ends)
        .collect();
    assert!(queued.len() >= 70, "{} queued requests", queued.len());
    for &i in &queued {
        let o = &outcomes[i];
        // Open loop: sent on schedule while the stall was under way...
        let lag = o.sent.unwrap() - o.due;
        assert!(
            lag < Duration::from_millis(40),
            "request {i} sent {lag:?} late"
        );
        // ...and charged from its due time until the stall released it.
        let latency = o.latency().unwrap();
        assert!(
            latency >= stall_ends - o.due,
            "request {i}: latency {latency:?} < {:?}",
            stall_ends - o.due
        );
    }
    // The other connection never stalled.
    let other_p50 = {
        let mut lat: Vec<Duration> = (1..n)
            .step_by(CONNECTIONS)
            .map(|i| outcomes[i].latency().unwrap())
            .collect();
        lat.sort();
        lat[lat.len() / 2]
    };
    assert!(other_p50 < Duration::from_millis(50), "{other_p50:?}");
}

#[test]
fn response_framing_matches_the_server() {
    let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
    let parsed = parse_response(wire).unwrap().unwrap();
    assert_eq!(parsed.status, 200);
    assert_eq!(parsed.consumed, wire.len());
}
