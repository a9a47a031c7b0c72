//! Loopback integration suite: every endpoint driven over real sockets
//! against a server on an ephemeral port.
//!
//! Covers the acceptance criteria of the serving layer: happy paths for
//! all four POST endpoints and `/metrics`, answer determinism across
//! repeats and alpha-variant resubmission, queue-overflow backpressure
//! (503), per-request deadlines degrading to typed qualities while the
//! server keeps serving, and malformed-request 400s reusing the byte-soup
//! fuzz corpus from `arbitrex-logic`'s `no_panic` suite. Every test ends
//! with a clean `stop()`, so a worker panic anywhere fails the test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use arbitrex_server::json::{self, Json};
use arbitrex_server::{spawn, RunningServer, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn server_with(configure: impl FnOnce(&mut ServerConfig)) -> RunningServer {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_depth: 16,
        timeout_ms: 0,
        ..ServerConfig::default()
    };
    configure(&mut config);
    spawn(config).expect("spawn server")
}

fn server() -> RunningServer {
    server_with(|_| {})
}

mod common;
use common::{num_of, request, str_of, Client};

// --- happy paths -------------------------------------------------------------

#[test]
fn unbudgeted_arbitrate_reports_metered_work() {
    // No `timeout_ms` and no server default: the kernel still runs on the
    // metered path and reports what the selection cost.
    let server = server();
    let body = r#"{"psi": "A & B & !C", "phi": "!A & !B & C"}"#;
    let (status, resp) = request(&server, "POST", "/v1/arbitrate", body);
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(str_of(&resp, "quality"), "exact");
    assert_eq!(str_of(&resp, "backend"), "kernel");
    let spent = resp.get("spent").expect("spent");
    assert!(
        num_of(spent, "scans") + num_of(spent, "nodes") > 0,
        "{resp:?}"
    );
    server.stop().unwrap();
}

#[test]
fn arbitrate_happy_path_answers_repeats_and_renamings_alike() {
    let server = server();
    let body = r#"{"psi": "A & B", "phi": "!A & !B"}"#;

    let (status, first) = request(&server, "POST", "/v1/arbitrate", body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(str_of(&first, "endpoint"), "arbitrate");
    assert_eq!(str_of(&first, "quality"), "exact");
    assert_eq!(str_of(&first, "backend"), "kernel");
    // ψ Δ φ for opposite corners keeps the two fair compromises {A},{B}.
    assert_eq!(num_of(&first, "n_models"), 2);

    // Identical resubmission: the same answer, the same work.
    let (status, second) = request(&server, "POST", "/v1/arbitrate", body);
    assert_eq!(status, 200);
    assert_eq!(second, first);

    // Alpha-variant (renamed variables, shuffled conjuncts): the same
    // models, named in the variant's own names (Y is its first variable,
    // as A is the original's).
    let variant = r#"{"psi": "Y & X", "phi": "!X & !Y"}"#;
    let (status, third) = request(&server, "POST", "/v1/arbitrate", variant);
    assert_eq!(status, 200);
    let names = |models: &[&str]| {
        Json::Arr(
            models
                .iter()
                .map(|m| Json::Arr(vec![json::s(*m)]))
                .collect(),
        )
    };
    assert_eq!(first.get("models"), Some(&names(&["A", "B"])));
    assert_eq!(third.get("models"), Some(&names(&["Y", "X"])), "{third:?}");
    assert_eq!(third.get("spent"), first.get("spent"));

    server.stop().unwrap();
}

#[test]
fn fit_happy_path_and_operator_selection() {
    let server = server();

    let (status, fit) = request(
        &server,
        "POST",
        "/v1/fit",
        r#"{"psi": "A & B", "mu": "!A | !B"}"#,
    );
    assert_eq!(status, 200, "{fit:?}");
    assert_eq!(str_of(&fit, "endpoint"), "fit");
    assert_eq!(str_of(&fit, "op"), "odist");
    assert_eq!(str_of(&fit, "quality"), "exact");

    let (status, dalal) = request(
        &server,
        "POST",
        "/v1/fit",
        r#"{"psi": "A & B", "mu": "!A | !B", "op": "dalal"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(str_of(&dalal, "op"), "dalal");
    // Dalal revision of {AB} by ¬A∨¬B keeps the two distance-1 models.
    assert_eq!(num_of(&dalal, "n_models"), 2);

    let (status, bad) = request(
        &server,
        "POST",
        "/v1/fit",
        r#"{"psi": "A", "mu": "B", "op": "nonsense"}"#,
    );
    assert_eq!(status, 400);
    assert!(str_of(&bad, "error").contains("unknown operator"));

    server.stop().unwrap();
}

#[test]
fn warbitrate_happy_path_weights_distinguish_queries() {
    let server = server();
    let body = r#"{"psi": "A & B", "phi": "!A & !B", "psi_weight": 3, "phi_weight": 1}"#;

    let (status, first) = request(&server, "POST", "/v1/warbitrate", body);
    assert_eq!(status, 200, "{first:?}");
    assert_eq!(str_of(&first, "endpoint"), "warbitrate");
    assert_eq!(str_of(&first, "quality"), "exact");
    assert!(num_of(&first, "support_size") > 0);

    let (_, second) = request(&server, "POST", "/v1/warbitrate", body);
    assert_eq!(second, first);

    // Same formulas under different weights are a different query: the
    // heavier side wins the other way.
    let reweighted = r#"{"psi": "A & B", "phi": "!A & !B", "psi_weight": 1, "phi_weight": 3}"#;
    let (status, third) = request(&server, "POST", "/v1/warbitrate", reweighted);
    assert_eq!(status, 200);
    assert_ne!(third.get("support"), first.get("support"), "{third:?}");

    // Unsatisfiable sources are refused, not panicked on.
    let (status, unsat) = request(
        &server,
        "POST",
        "/v1/warbitrate",
        r#"{"psi": "A & !A", "phi": "B"}"#,
    );
    assert_eq!(status, 400);
    assert!(str_of(&unsat, "error").contains("unsatisfiable"));

    server.stop().unwrap();
}

#[test]
fn kb_lifecycle_put_arbitrate_iterate_delete() {
    let server = server();
    let mut client = Client::connect_server(&server);

    // put
    let (status, put) = client.request(
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "put", "formula": "A & B & C"}"#,
    );
    assert_eq!(status, 200, "{put:?}");
    assert_eq!(num_of(&put, "seq"), 1);

    // get
    let (status, got) = client.request("GET", "/v1/kb/fleet", "");
    assert_eq!(status, 200);
    assert_eq!(str_of(&got, "name"), "fleet");
    assert_eq!(num_of(&got, "n_vars"), 3);

    // arbitrate in place: conflicting report, exact result commits.
    let (status, arb) = client.request(
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "arbitrate", "formula": "!A & !B & !C"}"#,
    );
    assert_eq!(status, 200, "{arb:?}");
    assert_eq!(str_of(&arb, "quality"), "exact");
    assert_eq!(arb.get("committed"), Some(&Json::Bool(true)));
    assert_eq!(num_of(&arb, "seq"), 2);
    assert_eq!(num_of(&arb, "n_models"), 6);

    // fit action with an explicit operator, mentioning a fresh variable
    // (the signature widens).
    let (status, fit) = client.request(
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "fit", "op": "dalal", "formula": "D"}"#,
    );
    assert_eq!(status, 200, "{fit:?}");
    assert_eq!(num_of(&fit, "seq"), 3);
    assert_eq!(num_of(&fit, "n_vars"), 4);

    // An operator the kernel cannot meter draws the same 400 as on
    // /v1/fit, naming the budgeted operators, and commits nothing.
    let expected = "unknown operator `satoh`; budgeted operators: \
                    dalal, winslett, forbus, odist, lex-odist, gmax, sum";
    let (status, bad) = client.request(
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "fit", "op": "satoh", "formula": "D"}"#,
    );
    assert_eq!(status, 400, "{bad:?}");
    assert_eq!(str_of(&bad, "error"), expected);
    let (status, bad) = client.request(
        "POST",
        "/v1/fit",
        r#"{"psi": "A", "mu": "D", "op": "satoh"}"#,
    );
    assert_eq!(status, 400, "{bad:?}");
    assert_eq!(str_of(&bad, "error"), expected);

    // iterate to a fixpoint.
    let (status, iter) = client.request(
        "POST",
        "/v1/kb/fleet",
        r#"{"action": "iterate", "formula": "A & D", "max_steps": 16}"#,
    );
    assert_eq!(status, 200, "{iter:?}");
    assert_eq!(num_of(&iter, "seq"), 4);
    assert!(iter.get("period").is_some());

    // delete, then the KB is gone.
    let (status, del) = client.request("DELETE", "/v1/kb/fleet", "");
    assert_eq!(status, 200);
    assert_eq!(del.get("deleted"), Some(&Json::Bool(true)));
    let (status, _) = client.request("GET", "/v1/kb/fleet", "");
    assert_eq!(status, 404);

    // Bad names and bad actions are 400s.
    let (status, _) = client.request("GET", "/v1/kb/has%20space", "");
    assert_eq!(status, 400);
    let (status, _) = client.request("POST", "/v1/kb/fleet", r#"{"action": "explode"}"#);
    assert_eq!(status, 400);

    server.stop().unwrap();
}

#[test]
fn metrics_reports_sections_histograms_and_gauges() {
    let server = server();
    // Two arbitrations, so the kernel counters move.
    let body = r#"{"psi": "P & Q", "phi": "!P & !Q"}"#;
    let _ = request(&server, "POST", "/v1/arbitrate", body);
    let _ = request(&server, "POST", "/v1/arbitrate", body);

    let (status, text) = {
        let mut c = Client::connect_server(&server);
        c.send("GET", "/metrics", "");
        c.read_response_text()
    };
    assert_eq!(status, 200);
    for needle in [
        "\"kernel\"",
        "\"weighted\"",
        "\"budget\"",
        "\"sat\"",
        "\"server\"",
        "\"latency_ns\"",
        "\"arbitrate\"",
        "\"warbitrate\"",
        "\"gauges\"",
        "\"kb_count\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in {text}");
    }
    // No result cache: no `cache` section, counters or gauges.
    assert!(!text.contains("\"cache"), "{text}");
    // The document is valid JSON.
    let doc = json::parse(&text).expect("metrics is JSON");
    assert!(doc.get("telemetry").is_some());

    server.stop().unwrap();
}

// --- backpressure ------------------------------------------------------------

#[test]
fn queue_overflow_answers_503() {
    // One worker, queue depth one: a held request pins the worker, the
    // next connection fills the queue, the third must be refused.
    let server = server_with(|c| {
        c.threads = 1;
        c.queue_depth = 1;
    });

    let mut held = Client::connect_server(&server);
    held.send(
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A", "phi": "!A", "hold_ms": 1500}"#,
    );
    std::thread::sleep(Duration::from_millis(400)); // worker is now sleeping in hold_ms

    let mut queued = Client::connect_server(&server);
    queued.send("POST", "/v1/arbitrate", r#"{"psi": "B", "phi": "!B"}"#);
    std::thread::sleep(Duration::from_millis(200)); // acceptor has queued it

    let mut refused = Client::connect_server(&server);
    let (status, body) = refused.request("GET", "/metrics", "");
    assert_eq!(status, 503, "{body:?}");
    assert!(str_of(&body, "error").contains("overloaded"));

    // The held and queued requests still complete: backpressure refuses
    // new work without corrupting accepted work.
    let (status, _) = held.read_response_parsed();
    assert_eq!(status, 200);
    let (status, _) = queued.read_response_parsed();
    assert_eq!(status, 200);

    server.stop().unwrap();
}

#[test]
fn unbounded_queue_flag_starts_a_serving_server() {
    // The work queue grows on demand, so the largest bound the flag
    // accepts allocates nothing up front.
    let server = server_with(|c| c.queue_depth = usize::MAX);
    let (status, resp) = request(
        &server,
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A & B", "phi": "!A & !B"}"#,
    );
    assert_eq!(status, 200, "{resp:?}");
    assert_eq!(num_of(&resp, "n_models"), 2);
    let (status, _) = request(&server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    server.stop().unwrap();
}

// --- deadlines ---------------------------------------------------------------

#[test]
fn deadline_degrades_typed_and_server_keeps_serving() {
    let server = server();
    // 11 variables: 2048 candidate interpretations, beyond one 1024-step
    // meter batch, so a zero deadline reliably trips mid-scan.
    let wide: Vec<String> = (0..11).map(|i| format!("V{i}")).collect();
    let disj = wide.join(" | ");
    let body = format!(r#"{{"psi": "{disj}", "phi": "{disj}", "timeout_ms": 0}}"#);

    let (status, degraded) = request(&server, "POST", "/v1/arbitrate", &body);
    assert_eq!(status, 200, "{degraded:?}");
    let quality = str_of(&degraded, "quality");
    assert!(
        quality == "upper_bound" || quality == "interrupted",
        "expected degraded quality, got {quality}"
    );
    assert_eq!(
        degraded.get("spent").unwrap().get("tripped"),
        Some(&Json::Bool(true))
    );
    // The same query with no deadline: exact, and the same on a repeat,
    // whatever the degraded answer before it held.
    let unlimited = format!(r#"{{"psi": "{disj}", "phi": "{disj}"}}"#);
    let (status, exact) = request(&server, "POST", "/v1/arbitrate", &unlimited);
    assert_eq!(status, 200, "{exact:?}");
    assert_eq!(str_of(&exact, "quality"), "exact");
    assert_eq!(
        exact.get("spent").unwrap().get("tripped"),
        Some(&Json::Bool(false))
    );
    let (_, again) = request(&server, "POST", "/v1/arbitrate", &unlimited);
    assert_eq!(again, exact);

    // The same worker pool still answers exact queries afterwards.
    let (status, after) = request(
        &server,
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A", "phi": "!A"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(str_of(&after, "quality"), "exact");

    server.stop().unwrap();
}

#[test]
fn kb_never_commits_a_degraded_result() {
    let server = server();
    let mut client = Client::connect_server(&server);
    let wide: Vec<String> = (0..11).map(|i| format!("V{i}")).collect();
    let disj = wide.join(" | ");

    let (_, put) = client.request(
        "POST",
        "/v1/kb/wide",
        &format!(r#"{{"action": "put", "formula": "{disj}"}}"#),
    );
    assert_eq!(num_of(&put, "seq"), 1);

    let (status, arb) = client.request(
        "POST",
        "/v1/kb/wide",
        &format!(r#"{{"action": "arbitrate", "formula": "{disj}", "timeout_ms": 0}}"#),
    );
    assert_eq!(status, 200, "{arb:?}");
    assert_eq!(arb.get("committed"), Some(&Json::Bool(false)));
    assert_eq!(num_of(&arb, "seq"), 1, "degraded result must not commit");

    server.stop().unwrap();
}

// --- malformed requests ------------------------------------------------------

#[test]
fn malformed_formulas_get_the_parser_400_text_on_every_query_endpoint() {
    let server = server();
    let (status, _) = request(
        &server,
        "POST",
        "/v1/kb/held",
        r#"{"action": "put", "formula": "A & !B"}"#,
    );
    assert_eq!(status, 200);
    // Texts the cube-cover reader declines, some only after reading part
    // of them, with the parser's error for each: the 400 text they had
    // before the reader existed.
    let bad = [
        ("", 0, "unexpected end of input"),
        ("A &", 3, "unexpected end of input"),
        ("(A & B", 6, "expected `)`"),
        ("A & B)", 5, "unexpected trailing token `)`"),
        ("A @ B", 2, "unexpected character `@`"),
        ("A | & B", 4, "expected a formula, found `&`"),
        ("A -> ", 3, "unexpected end of input"),
    ];
    // (path, extra fields, the malformed field, the other formula field)
    let shapes = [
        ("/v1/arbitrate", "", "psi", Some("phi")),
        ("/v1/arbitrate", "", "phi", Some("psi")),
        ("/v1/fit", "", "psi", Some("mu")),
        ("/v1/fit", "", "mu", Some("psi")),
        ("/v1/warbitrate", "", "psi", Some("phi")),
        ("/v1/warbitrate", "", "phi", Some("psi")),
        ("/v1/kb/held", "arbitrate", "formula", None),
        ("/v1/kb/held", "fit", "formula", None),
        ("/v1/kb/held", "iterate", "formula", None),
    ];
    let fallbacks = arbitrex_server::metrics::FORMULA_FALLBACKS.get();
    let mut sent = 0;
    for (path, action, key, other) in shapes {
        for (text, at, message) in bad {
            // The good side is read as a cover (`A & B`) or parsed
            // (`A -> C`), ahead of or after the bad one.
            for good in ["A & B", "A -> C"] {
                let mut fields = vec![(key, json::s(text))];
                if let Some(other) = other {
                    fields.push((other, json::s(good)));
                }
                if !action.is_empty() {
                    fields.push(("action", json::s(action)));
                }
                let body = json::obj(fields).to_text();
                let (status, resp) = request(&server, "POST", path, &body);
                assert_eq!(status, 400, "{path} {body}: {resp:?}");
                assert_eq!(
                    str_of(&resp, "error"),
                    format!("field `{key}` does not parse: parse error at byte {at}: {message}"),
                    "{path} {body}"
                );
                assert_eq!(num_of(&resp, "code"), 400);
                sent += 1;
            }
        }
    }
    if arbitrex_telemetry::enabled() {
        assert!(arbitrex_server::metrics::FORMULA_FALLBACKS.get() >= fallbacks + sent);
    }
    server.stop().unwrap();
}

#[test]
fn malformed_bodies_are_400_and_never_kill_the_server() {
    let server = server();

    // Fixed malformed shapes: bad JSON, wrong types, missing fields.
    for bad in [
        "",
        "not json",
        "{",
        r#"{"psi": 7, "phi": "A"}"#,
        r#"{"psi": "A"}"#,
        r#"{"psi": "A", "phi": "(("}"#,
        r#"{"psi": "A", "phi": "B", "timeout_ms": "soon"}"#,
    ] {
        let (status, body) = request(&server, "POST", "/v1/arbitrate", bad);
        assert_eq!(status, 400, "input {bad:?} gave {body:?}");
        assert!(body.get("error").is_some());
    }

    // The byte-soup corpus from arbitrex-logic's no_panic suite, spliced
    // into the formula fields: whatever the parser thinks of the soup,
    // the server answers 200 or 400 and stays up.
    const CHARSET: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '_', '\'', '0', '1', '7', '(', ')', '!', '~', '-', '&', '|', '^',
        '<', '>', '=', '/', '\\', ' ', '\t', '\n', '@', '#', '.', ',', '*', '+', '[', ']', '{',
        '}', '"', ';', ':', '?', 'λ', 'ø', '∧', '∨', '¬', '→', '↔',
    ];
    let mut rng = StdRng::seed_from_u64(0xb17e_5009);
    let mut client = Client::connect_server(&server);
    for _ in 0..200 {
        let len = rng.random_range(0..64usize);
        let soup: String = (0..len)
            .map(|_| CHARSET[rng.random_range(0..CHARSET.len())])
            .collect();
        let body = arbitrex_server::json::obj([
            ("psi", arbitrex_server::json::s(soup.clone())),
            ("phi", arbitrex_server::json::s("A")),
        ])
        .to_text();
        let (status, _) = client.request("POST", "/v1/arbitrate", &body);
        assert!(
            status == 200 || status == 400,
            "soup {soup:?} gave status {status}"
        );
    }

    // Raw soup as the whole body too (mostly invalid JSON).
    for _ in 0..100 {
        let len = rng.random_range(0..48usize);
        let soup: String = (0..len)
            .map(|_| CHARSET[rng.random_range(0..CHARSET.len())])
            .collect();
        let (status, _) = request(&server, "POST", "/v1/fit", &soup);
        assert!(status == 200 || status == 400, "status {status}");
    }

    // A formula naming more variables than an interpretation holds is
    // a 400 on every endpoint, not a panic that takes a worker down:
    // more such requests than workers must leave the server answering.
    let wide: Vec<String> = (0..65).map(|i| format!("V{i}")).collect();
    let wide = json::s(wide.join(" & "));
    for path in ["/v1/arbitrate", "/v1/warbitrate", "/v1/fit"] {
        let other = if path == "/v1/fit" { "mu" } else { "phi" };
        let body = json::obj([("psi", wide.clone()), (other, json::s("A"))]).to_text();
        let (status, resp) = request(&server, "POST", path, &body);
        assert_eq!(status, 400, "{path}: {resp:?}");
        assert!(
            str_of(&resp, "error").contains("more than 64 variables"),
            "{resp:?}"
        );
    }

    // Still healthy.
    let (status, after) = request(
        &server,
        "POST",
        "/v1/arbitrate",
        r#"{"psi": "A", "phi": "!A"}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(str_of(&after, "quality"), "exact");

    server.stop().unwrap();
}

#[test]
fn unknown_routes_and_methods() {
    let server = server();
    let (status, _) = request(&server, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = request(&server, "GET", "/v1/arbitrate", "");
    assert_eq!(status, 405);
    let (status, _) = request(&server, "DELETE", "/metrics", "");
    assert_eq!(status, 405);

    // A malformed request *line* gets a 400 before routing.
    let mut raw = TcpStream::connect(server.addr).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    server.stop().unwrap();
}

// --- concurrency -------------------------------------------------------------

#[test]
fn concurrent_mixed_workload_zero_failures() {
    let server = server_with(|c| {
        c.threads = 4;
        c.queue_depth = 64;
    });
    let addr = server.addr;

    let clients: Vec<_> = (0..8)
        .map(|worker| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for round in 0..20 {
                    let (path, body) = match (worker + round) % 3 {
                        0 => (
                            "/v1/arbitrate",
                            r#"{"psi": "A & B", "phi": "!A & !B"}"#.to_string(),
                        ),
                        1 => (
                            "/v1/fit",
                            r#"{"psi": "A & B", "mu": "!A | !B"}"#.to_string(),
                        ),
                        _ => (
                            "/v1/warbitrate",
                            r#"{"psi": "A | B", "phi": "!A", "psi_weight": 2}"#.to_string(),
                        ),
                    };
                    let (status, reply) = client.request("POST", path, &body);
                    assert_eq!(status, 200, "{reply:?}");
                    assert_eq!(str_of(&reply, "quality"), "exact");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // Clean shutdown proves no worker died mid-run.
    server.stop().unwrap();
}
