//! A minimal HTTP/1.1 framing layer.
//!
//! Supports exactly what the service protocol needs: request-line +
//! headers + `Content-Length` bodies, keep-alive connections,
//! fixed-length JSON responses, and — for the replication WAL stream —
//! chunked binary responses where each chunk is one WAL frame. No
//! request-side chunked encoding, no TLS, no continuation lines. Limits
//! are hard: oversized headers or bodies fail the parse rather than
//! allocating unboundedly.
//!
//! Requests are parsed by [`parse_request_buffer`] from the front of an
//! in-memory byte buffer — the event loop's per-connection read buffer,
//! where pipelined requests queue up — and responses are serialized by
//! [`encode_response`] for the loop to flush.

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default maximum request body size; servers can lower or raise it per
/// instance (the `max_body` of [`parse_request_buffer`],
/// `--max-body-bytes`).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (no query parsing; the protocol uses none).
    pub path: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Parse a complete head (request line + headers + terminator) into a
/// body-less [`Request`] and the declared `Content-Length`, if any.
fn parse_head(head: &[u8]) -> Result<(Request, Option<usize>), String> {
    let head_text = match std::str::from_utf8(head) {
        Ok(t) => t,
        Err(_) => return Err("non-UTF-8 request head".to_string()),
    };
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if parts.next().is_none() => (m, p, v),
        _ => return Err(format!("bad request line `{request_line}`")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("bad version `{version}`"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => return Err(format!("bad header `{line}`")),
        }
    }

    let content_length = match headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
    {
        None => None,
        Some(Err(_)) => return Err("bad content-length".to_string()),
        Some(Ok(len)) => Some(len),
    };

    Ok((
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

/// Progress of parsing one request from the front of a byte buffer.
#[derive(Debug)]
pub enum BufferParse {
    /// A complete request occupying the first `consumed` bytes; the
    /// caller drains them and may parse again (pipelining).
    Complete {
        /// The parsed request.
        request: Request,
        /// Total bytes (head + body) the request occupied.
        consumed: usize,
    },
    /// The buffer holds a valid prefix of a request; read more bytes.
    Incomplete,
    /// The bytes are not a parseable request; the caller should answer
    /// 400 and close.
    Malformed(String),
    /// The declared `Content-Length` exceeds the body cap. Rejected
    /// before the body is buffered; the caller should answer 413 and
    /// close (the unread body makes the connection unusable).
    TooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The cap it exceeded.
        cap: usize,
    },
}

/// Parse one request from the front of `buf` without consuming it. The
/// head ends at the first CRLFCRLF or LFLF, and a head that exceeds
/// [`MAX_HEAD_BYTES`] before terminating is malformed. A body declared
/// larger than `max_body` is refused before it is buffered.
pub fn parse_request_buffer(buf: &[u8], max_body: usize) -> BufferParse {
    let mut head_len = None;
    for i in 0..buf.len() {
        if i >= MAX_HEAD_BYTES {
            return BufferParse::Malformed("request head too large".to_string());
        }
        let h = &buf[..=i];
        if h.ends_with(b"\r\n\r\n") || h.ends_with(b"\n\n") {
            head_len = Some(i + 1);
            break;
        }
    }
    let head_len = match head_len {
        Some(n) => n,
        None => return BufferParse::Incomplete,
    };

    let (mut request, content_length) = match parse_head(&buf[..head_len]) {
        Ok(parsed) => parsed,
        Err(msg) => return BufferParse::Malformed(msg),
    };

    let body_len = match content_length {
        None => 0,
        Some(len) if len > max_body => {
            return BufferParse::TooLarge {
                declared: len,
                cap: max_body,
            }
        }
        Some(len) => len,
    };

    let total = head_len + body_len;
    if buf.len() < total {
        return BufferParse::Incomplete;
    }
    request.body = buf[head_len..total].to_vec();
    BufferParse::Complete {
        request,
        consumed: total,
    }
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body text (ignored when `chunks` is set).
    pub body: String,
    /// Extra headers beyond the fixed set (e.g. `Retry-After` on 503s).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Binary chunked body: each element becomes one HTTP chunk. Used by
    /// the replication WAL stream (one chunk = one framed record) so the
    /// replica can decode frame-by-frame without buffering the batch.
    pub chunks: Option<Vec<Vec<u8>>>,
    /// Omit the terminating `0\r\n\r\n` chunk (injected connection-drop
    /// fault: the peer sees a mid-stream EOF). Implies `force_close`.
    pub chunk_abort: bool,
    /// Close the connection after this response regardless of what the
    /// client asked for.
    pub force_close: bool,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            extra_headers: Vec::new(),
            chunks: None,
            chunk_abort: false,
            force_close: false,
        }
    }

    /// A chunked binary response; each element of `chunks` is emitted as
    /// one HTTP chunk.
    pub fn binary_chunked(status: u16, chunks: Vec<Vec<u8>>) -> Response {
        Response {
            status,
            body: String::new(),
            extra_headers: Vec::new(),
            chunks: Some(chunks),
            chunk_abort: false,
            force_close: false,
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        412 => "Precondition Failed",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `response` to wire bytes; `close` controls the
/// `Connection` header.
pub fn encode_response(response: &Response, close: bool) -> Vec<u8> {
    use std::fmt::Write as _;
    let close = close || response.force_close || response.chunk_abort;
    if let Some(chunks) = &response.chunks {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/octet-stream\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
            response.status,
            status_text(response.status),
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &response.extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        for chunk in chunks {
            bytes.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            bytes.extend_from_slice(chunk);
            bytes.extend_from_slice(b"\r\n");
        }
        if !response.chunk_abort {
            bytes.extend_from_slice(b"0\r\n\r\n");
        }
        return bytes;
    }
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &response.extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_complete(wire: &[u8], max_body: usize) -> (Request, usize) {
        match parse_request_buffer(wire, max_body) {
            BufferParse::Complete { request, consumed } => (request, consumed),
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn buffer_parse_handles_partial_and_complete() {
        let wire = b"POST /v1/arbitrate HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"psi\":\"A\"}";
        // Every strict prefix is Incomplete; the full message parses.
        for cut in [0, 1, 10, wire.len() - 12, wire.len() - 1] {
            assert!(
                matches!(
                    parse_request_buffer(&wire[..cut], MAX_BODY_BYTES),
                    BufferParse::Incomplete
                ),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = parse_complete(wire, MAX_BODY_BYTES);
        assert_eq!(consumed, wire.len());
        assert_eq!(request.path, "/v1/arbitrate");
        assert_eq!(request.body, b"{\"psi\":\"A\"}");
        // The same message with a header, and exactly at the body cap.
        let wire =
            b"POST /v1/arbitrate HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"psi\":\"A\"}";
        let (request, _) = parse_complete(wire, 11);
        assert_eq!(request.method, "POST");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body, b"{\"psi\":\"A\"}");
        assert!(!request.wants_close());
        // A body short of its Content-Length waits for more bytes.
        assert!(matches!(
            parse_request_buffer(
                b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
                MAX_BODY_BYTES
            ),
            BufferParse::Incomplete
        ));
    }

    #[test]
    fn buffer_parse_reads_get_without_body_and_close_header() {
        let (request, _) = parse_complete(
            b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
            MAX_BODY_BYTES,
        );
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
        assert!(request.wants_close());
    }

    #[test]
    fn buffer_parse_leaves_pipelined_tail_alone() {
        let first = b"GET /metrics HTTP/1.1\r\n\r\n".to_vec();
        let mut wire = first.clone();
        wire.extend_from_slice(b"POST /v1/arbitrate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
        let consumed = match parse_request_buffer(&wire, MAX_BODY_BYTES) {
            BufferParse::Complete { request, consumed } => {
                assert_eq!(request.method, "GET");
                assert_eq!(request.path, "/metrics");
                consumed
            }
            other => panic!("expected complete, got {other:?}"),
        };
        assert_eq!(consumed, first.len());
        match parse_request_buffer(&wire[consumed..], MAX_BODY_BYTES) {
            BufferParse::Complete { request, consumed } => {
                assert_eq!(request.method, "POST");
                assert_eq!(request.body, b"{}");
                assert_eq!(consumed, wire.len() - first.len());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn buffer_parse_flags_malformed_and_oversized() {
        assert!(matches!(
            parse_request_buffer(b"GARBAGE\r\n\r\n", MAX_BODY_BYTES),
            BufferParse::Malformed(_)
        ));
        for bad in [
            "GET /x HTTP/2.0\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
        ] {
            assert!(
                matches!(
                    parse_request_buffer(bad.as_bytes(), MAX_BODY_BYTES),
                    BufferParse::Malformed(_)
                ),
                "expected malformed for {bad:?}"
            );
        }
        assert!(matches!(
            parse_request_buffer(b"POST /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n", 10),
            BufferParse::TooLarge {
                declared: 11,
                cap: 10
            }
        ));
        let head = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse_request_buffer(head.as_bytes(), MAX_BODY_BYTES) {
            BufferParse::TooLarge { declared, cap } => {
                assert_eq!(declared, MAX_BODY_BYTES + 1);
                assert_eq!(cap, MAX_BODY_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // A head that never terminates within the cap is malformed, not
        // buffered forever.
        let endless = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(matches!(
            parse_request_buffer(&endless, MAX_BODY_BYTES),
            BufferParse::Malformed(_)
        ));
    }

    #[test]
    fn response_has_content_length_and_connection() {
        let out = encode_response(&Response::json(200, "{}".to_string()), false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn chunked_responses_frame_each_chunk_and_terminate() {
        let resp = Response::binary_chunked(200, vec![vec![1, 2, 3], vec![0xAB; 16]]);
        let bytes = encode_response(&resp, false);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(bytes.windows(6).any(|w| w == b"3\r\n\x01\x02\x03".as_ref()));
        assert!(bytes.ends_with(b"0\r\n\r\n"));

        // An aborted stream omits the terminator and forces close.
        let mut aborted = Response::binary_chunked(200, vec![vec![1, 2, 3]]);
        aborted.chunk_abort = true;
        let bytes = encode_response(&aborted, false);
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("Connection: close\r\n"));
        assert!(!bytes.ends_with(b"0\r\n\r\n"));
    }

    #[test]
    fn extra_headers_are_emitted_before_the_blank_line() {
        let resp = Response::json(503, "{}".to_string()).with_header("Retry-After", "1");
        let text = String::from_utf8(encode_response(&resp, true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        let head_end = text.find("\r\n\r\n").unwrap();
        assert!(text.find("Retry-After").unwrap() < head_end);
    }
}
