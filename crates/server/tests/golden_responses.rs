//! Golden response bytes: every answer-bearing endpoint, replayed over a
//! real socket, must produce exactly the bodies recorded in
//! `golden_responses.txt`.
//!
//! The bodies were recorded from the tree encoder (a `Json` value per
//! response, the minterm `Formula` rendered through `Display`) before the
//! streaming outcome writer replaced it, so this suite pins the protocol
//! byte for byte: field order, escapes, the `models_truncated` cut at
//! `MAX_LISTED_MODELS`, and the `form(I₁,…,I_k)` text (`false` for no
//! models, `true` at width 0, a bare literal at width 1). Every field of
//! these bodies is deterministic: one connection sends the requests in
//! order, and the kernel's work counters in `spent` depend only on the
//! query.
//!
//! Each line of the golden file is `<status> <body>`, one per entry of
//! [`REQUESTS`], in order.

use arbitrex_server::{spawn, RunningServer, ServerConfig};

mod common;
use common::Client;

/// The fixed request set: `(method, path, body)`.
const REQUESTS: &[(&str, &str, &str)] = &[
    // arbitrate: two queries, then a renaming of the second (the same
    // answer and work, in its own names).
    (
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A & B & !C", "phi": "!A & !B & C"}"#,
    ),
    (
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A & B", "phi": "!A & !B"}"#,
    ),
    (
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "Y & X", "phi": "!X & !Y"}"#,
    ),
    // fit: the default operator, then an explicit one (the `op` field).
    ("POST", "/v1/fit", r#"{"psi": "A & B", "mu": "!A | !B"}"#),
    (
        "POST",
        "/v1/fit",
        r#"{"psi": "A & B", "mu": "!A | !B", "op": "dalal"}"#,
    ),
    // An empty answer: `"formula":"false"`.
    ("POST", "/v1/fit", r#"{"psi": "A", "mu": "B & !B"}"#),
    // A width-0 query: `"formula":"true"`.
    ("POST", "/v1/arbitrate", r#"{"psi": "true", "phi": "true"}"#),
    // One-variable answers: a bare literal, and both literals.
    ("POST", "/v1/fit", r#"{"psi": "A", "mu": "A"}"#),
    ("POST", "/v1/arbitrate", r#"{"psi": "P", "phi": "!P"}"#),
    // 512 models: the lists stop at 256, the formula names every model.
    (
        "POST",
        "/v1/fit",
        r#"{"psi": "true", "mu": "(A | !A) & (B | !B) & (C | !C) & (D | !D) & (E | !E) & (F | !F) & (G | !G) & (H | !H) & (I | !I)"}"#,
    ),
    // A width-12 arbitration of two-minterm sides: 400 models, named by
    // `x0`..`x11`.
    (
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "(x0 & !x1 & x2 & !x3 & x4 & !x5 & x6 & !x7 & x8 & !x9 & x10 & !x11) | (!x0 & x1 & !x2 & x3 & !x4 & x5 & !x6 & x7 & !x8 & x9 & !x10 & x11)", "phi": "(x0 & x1 & x2 & x3 & x4 & x5 & !x6 & !x7 & !x8 & !x9 & !x10 & !x11) | (!x0 & !x1 & !x2 & !x3 & !x4 & !x5 & x6 & x7 & x8 & x9 & x10 & x11)"}"#,
    ),
    (
        "POST",
        "/v1/warbitrate",
        r#"{"psi": "A & B", "phi": "!A & !B", "psi_weight": 3, "phi_weight": 1}"#,
    ),
    // The KB actions, with reads between them.
    (
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "put", "formula": "A & B & C"}"#,
    ),
    ("GET", "/v1/kb/fleet", ""),
    (
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "arbitrate", "formula": "!A & !B & !C"}"#,
    ),
    (
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "fit", "op": "dalal", "formula": "D"}"#,
    ),
    ("GET", "/v1/kb/fleet", ""),
    (
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "fit", "formula": "!A | !D"}"#,
    ),
    (
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "iterate", "formula": "A & D", "max_steps": 16}"#,
    ),
    ("GET", "/v1/kb/fleet", ""),
];

fn server() -> RunningServer {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("spawn server")
}

/// Send [`REQUESTS`] in order on one connection; `(status, body)` each.
fn replay() -> Vec<(u16, String)> {
    let server = server();
    let mut client = Client::connect_server(&server);
    let bodies = REQUESTS
        .iter()
        .map(|(method, path, body)| {
            client.send(method, path, body);
            client.read_response_text()
        })
        .collect();
    server.stop().unwrap();
    bodies
}

#[test]
fn responses_match_the_recorded_bytes() {
    let golden = include_str!("golden_responses.txt");
    let expected: Vec<(u16, &str)> = golden
        .lines()
        .map(|line| {
            let (status, body) = line.split_once(' ').expect("`<status> <body>`");
            (status.parse().expect("status"), body)
        })
        .collect();
    assert_eq!(
        expected.len(),
        REQUESTS.len(),
        "one golden line per request"
    );
    for ((got_status, got), ((want_status, want), request)) in
        replay().iter().zip(expected.iter().zip(REQUESTS))
    {
        assert_eq!(
            (got_status, got.as_str()),
            (want_status, *want),
            "response to {request:?} changed"
        );
    }
}
