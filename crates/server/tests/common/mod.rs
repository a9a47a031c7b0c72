//! Shared loopback HTTP client for the integration suites.
//!
//! One keep-alive HTTP/1.1 client over a real socket, used by every test
//! binary in this directory. Requests are encoded, sent and read by the
//! server's own [`PeerClient`]; this wrapper adds what the suites need
//! beyond a peer: a bounded connect retry (child-process servers in the
//! kill-9 and replication harnesses print their address before the
//! listener is reliably accepting under load), a read timeout long
//! enough for requests held up to `MAX_HOLD_MS`, transport errors as
//! `Err` for harnesses that expect the server to die mid-exchange, and
//! JSON bodies.
#![allow(dead_code)]

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use arbitrex_server::json::{self, Json};
use arbitrex_server::replication::{PeerClient, PeerResponse};
use arbitrex_server::RunningServer;

/// How long [`Client::connect`] keeps retrying a refused connection.
pub const CONNECT_RETRY: Duration = Duration::from_secs(5);
/// Per-response read timeout on the client socket.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A keep-alive client connection.
pub struct Client {
    peer: PeerClient,
    /// The same socket, for socket-level calls (half-close, read
    /// timeouts) in suites that drive the wire directly.
    pub stream: TcpStream,
}

impl Client {
    /// Connect to `addr`, retrying refused attempts for up to
    /// [`CONNECT_RETRY`] — bounded, so a server that never comes up
    /// still fails the test promptly.
    pub fn connect(addr: SocketAddr) -> Client {
        let deadline = Instant::now() + CONNECT_RETRY;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {addr}: {e}"),
            }
        };
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        Client {
            stream: stream.try_clone().expect("clone socket"),
            peer: PeerClient::from_stream(stream),
        }
    }

    /// Connect to an in-process [`RunningServer`].
    pub fn connect_server(server: &RunningServer) -> Client {
        Client::connect(server.addr)
    }

    /// Send one request and read one response; transport errors surface
    /// as `Err` (the kill-9 harnesses need to survive the server dying
    /// mid-exchange).
    pub fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Json)> {
        self.try_request_with_headers(method, path, &[], body)
    }

    /// [`Client::try_request`] with extra request headers (e.g. the
    /// read-your-writes `X-Arbitrex-Min-Seq`).
    pub fn try_request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<(u16, Json)> {
        let response = self
            .peer
            .request_with_headers(method, path, Some(body), headers)?;
        let value = json_of(&response).map_err(std::io::Error::other)?;
        Ok((response.status, value))
    }

    /// Write one request without reading the response (pipelining and
    /// queue-overflow tests park requests in flight).
    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        self.send_raw(&PeerClient::encode(method, path, Some(body), &[]));
    }

    /// Write wire bytes as they are: one or more encoded requests, part
    /// of one, or deliberate garbage.
    pub fn send_raw(&mut self, wire: &[u8]) {
        self.peer.send_raw(wire).expect("send")
    }

    /// Read the next response off the connection.
    pub fn read_response(&mut self) -> std::io::Result<PeerResponse> {
        self.peer.read_response()
    }

    /// Read one parked response as raw text (status, body).
    pub fn read_response_text(&mut self) -> (u16, String) {
        let response = self.read_response().expect("read response");
        let text = String::from_utf8_lossy(&response.body).into_owned();
        (response.status, text)
    }

    /// Read one parked response as JSON.
    pub fn read_response_parsed(&mut self) -> (u16, Json) {
        let response = self.read_response().expect("read response");
        let value = json_of(&response).unwrap_or_else(|e| panic!("{e}"));
        (response.status, value)
    }

    /// Send one request and panic on any transport or framing error.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Json) {
        self.try_request(method, path, body).expect("request")
    }

    /// [`Client::request`], also returning the whole response (for
    /// asserting headers like `X-Arbitrex-Seq` and `Retry-After` through
    /// [`PeerResponse::header`]).
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> (u16, PeerResponse, Json) {
        let response = self
            .peer
            .request_with_headers(method, path, Some(body), headers)
            .expect("request");
        let value = json_of(&response).unwrap_or_else(|e| panic!("{e}"));
        (response.status, response, value)
    }

    /// [`Client::request`] with extra request headers.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> (u16, Json) {
        self.try_request_with_headers(method, path, headers, body)
            .expect("request")
    }
}

/// The body of `response` as JSON.
fn json_of(response: &PeerResponse) -> Result<Json, String> {
    let text = String::from_utf8_lossy(&response.body);
    json::parse(&text).map_err(|e| format!("bad JSON `{text}`: {e}"))
}

/// One-shot request on a fresh connection.
pub fn request(server: &RunningServer, method: &str, path: &str, body: &str) -> (u16, Json) {
    Client::connect_server(server).request(method, path, body)
}

/// One-shot request against a bare address (child-process servers).
pub fn request_addr(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    Client::connect(addr).request(method, path, body)
}

/// `v[key]` as a string, with a panic message naming the key.
pub fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` not a string in {v:?}"))
}

/// `v[key]` as an integer, with a panic message naming the key.
pub fn num_of(v: &Json, key: &str) -> u64 {
    v.get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {v:?}"))
        .as_u64()
        .unwrap_or_else(|| panic!("`{key}` not an integer in {v:?}"))
}
