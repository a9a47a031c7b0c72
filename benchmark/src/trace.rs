//! The traced layer replay: a workload's request stream, run in-process
//! on one thread through the public function of each layer, with a span
//! around every call.
//!
//! `json.parse`, `logic.parse` and `canonical.key` repeat work that
//! `routes.dispatch` also does internally; they are recorded as siblings
//! of the dispatch span, so a request's child spans overlap in cost but
//! not in time. Spans live in memory until the replay ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use arbitrex_logic::{canonicalize_query, parse, Sig};
use arbitrex_server::http::{self, BufferParse, Response};
use arbitrex_server::{json, routes, ServiceState};

use crate::workload::Request;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// The layer call (`request` for the root).
    pub name: &'static str,
    /// For `routes.dispatch`, the path that answered: `cache`, `bdd`,
    /// `kernel`, `kb_read` or `kb_write`.
    pub label: &'static str,
    /// Index of the request in the replayed stream.
    pub request: usize,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Start, nanoseconds from the replay start.
    pub start_ns: u64,
    /// End, nanoseconds from the replay start.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            label: "",
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now();
        }
    }
}

/// What one replay measured.
pub struct Replay {
    /// Wall time of the replayed stream (set-up excluded).
    pub wall: Duration,
    /// The spans, empty for an untraced replay.
    pub spans: Vec<Span>,
}

/// Build a fresh `ServiceState` from the server's own flag parser, run
/// `setup` through it untimed, then replay `requests`, with spans when
/// `traced`.
pub fn replay(
    flags: &[String],
    setup: &[Request],
    requests: &[Request],
    traced: bool,
) -> io::Result<Replay> {
    let config =
        arbitrex_cli::parse_serve_config(flags).map_err(|e| io::Error::other(e.to_string()))?;
    let max_body = config.max_body_bytes;
    let state = ServiceState::new(config)?;
    let setup_wires: Vec<Vec<u8>> = setup.iter().map(Request::wire).collect();
    let mut off = Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    for (i, wire) in setup_wires.iter().enumerate() {
        serve_one(&state, max_body, wire, i, &mut off)?;
    }
    let wires: Vec<Vec<u8>> = requests.iter().map(Request::wire).collect();
    let mut rec = Recorder {
        on: traced,
        epoch: Instant::now(),
        spans: Vec::with_capacity(if traced { wires.len() * 7 } else { 0 }),
    };
    let started = Instant::now();
    for (i, wire) in wires.iter().enumerate() {
        serve_one(&state, max_body, wire, i, &mut rec)?;
    }
    Ok(Replay {
        wall: started.elapsed(),
        spans: rec.spans,
    })
}

fn serve_one(
    state: &ServiceState,
    max_body: usize,
    wire: &[u8],
    i: usize,
    rec: &mut Recorder,
) -> io::Result<()> {
    let root = rec.open("request", i, None);
    let span = rec.open("http.parse", i, root);
    let parsed = http::parse_request_buffer(wire, max_body);
    rec.close(span);
    let BufferParse::Complete { request, .. } = parsed else {
        return Err(io::Error::other(format!("request {i} does not parse")));
    };
    if !request.body.is_empty() {
        let span = rec.open("json.parse", i, root);
        let doc = std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| json::parse(text).ok());
        rec.close(span);
        let doc = doc.ok_or_else(|| io::Error::other(format!("request {i} body is not JSON")))?;
        let span = rec.open("logic.parse", i, root);
        let mut sig = Sig::new();
        let formulas: Vec<_> = ["psi", "phi", "mu", "formula"]
            .iter()
            .filter_map(|key| doc.get(key).and_then(json::Json::as_str))
            .filter_map(|text| parse(&mut sig, text).ok())
            .collect();
        rec.close(span);
        let span = rec.open("canonical.key", i, root);
        let key = canonicalize_query(&formulas.iter().collect::<Vec<_>>(), sig.width());
        rec.close(span);
        std::hint::black_box(key);
    }
    let span = rec.open("routes.dispatch", i, root);
    let response = routes::dispatch(state, &request);
    rec.close(span);
    if let Some(s) = span {
        rec.spans[s].label = backend_label(&request.method, &request.path, &response);
    }
    let span = rec.open("http.encode", i, root);
    let bytes = http::encode_response(&response, false);
    rec.close(span);
    std::hint::black_box(bytes);
    rec.close(root);
    if !(200..300).contains(&response.status) {
        return Err(io::Error::other(format!(
            "request {i} answered {}: {}",
            response.status, response.body
        )));
    }
    Ok(())
}

/// Which path answered: KB reads and writes by method, queries by the
/// response's `backend` field.
fn backend_label(method: &str, path: &str, response: &Response) -> &'static str {
    if path.starts_with("/v1/kb/") {
        return if method == "GET" {
            "kb_read"
        } else {
            "kb_write"
        };
    }
    for label in ["cache", "bdd", "kernel"] {
        if response.body.contains(&format!("\"backend\":\"{label}\"")) {
            return label;
        }
    }
    "other"
}

/// Write `spans` as `{"workload", "spans": [...]}` to `path`.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{}{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            if id == 0 { "" } else { "," },
            s.name,
            s.label,
            s.request,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
