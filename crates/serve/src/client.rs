//! A small blocking HTTP/1.1 client for `matchd`, used by the benchmark
//! harness (`perfbench`) and the integration tests.
//!
//! Keeps one keep-alive connection per client and reconnects transparently
//! when the server closed it (e.g. after a `Connection: close` response or
//! an idle timeout).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use serde::{Deserialize, Serialize};

use crate::protocol::ErrorBody;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Response headers, lower-cased names, arrival order.
    pub headers: Vec<(String, String)>,
}

impl ClientResponse {
    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// First value of a response header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == wanted)
            .map(|(_, v)| v.as_str())
    }

    /// Deserializes the body, mapping protocol errors (non-2xx with the
    /// standard error envelope) to an [`io::Error`].
    pub fn json<T: Deserialize>(&self) -> io::Result<T> {
        if !self.is_success() {
            let detail = serde_json::from_str::<ErrorBody>(&self.body)
                .map(|e| e.error)
                .unwrap_or_else(|_| self.body.clone());
            return Err(io::Error::other(format!("HTTP {}: {detail}", self.status)));
        }
        serde_json::from_str(&self.body)
            .map_err(|err| io::Error::other(format!("bad response body: {err}")))
    }
}

/// A blocking keep-alive client for one `matchd` server.
#[derive(Debug)]
pub struct MatchClient {
    addr: SocketAddr,
    connection: Option<BufReader<TcpStream>>,
}

impl MatchClient {
    /// Creates a client for `addr` (connection is opened lazily).
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        Ok(Self {
            addr,
            connection: None,
        })
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn connection(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.connection.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.connection = Some(BufReader::new(stream));
        }
        // Infallible (the slot was just filled), but kept panic-free: the
        // crate denies unwrap/expect outside tests.
        self.connection
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after open"))
    }

    /// Issues one request. **`GET`s** are retried once on a fresh
    /// connection when the keep-alive one turned out to be dead; non-GET
    /// requests are never retried automatically — the server may already
    /// have executed a non-idempotent action (evict, shutdown) even though
    /// the response was lost, and a silent replay would both repeat the
    /// action and report the *second* outcome.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        match self.try_request(method, path, body) {
            Ok(response) => Ok(response),
            Err(err) => {
                self.connection = None;
                if method.eq_ignore_ascii_case("GET") {
                    self.try_request(method, path, body)
                } else {
                    Err(err)
                }
            }
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON-serialized body.
    pub fn post<T: Serialize>(&mut self, path: &str, body: &T) -> io::Result<ClientResponse> {
        let body = serde_json::to_string(body)
            .map_err(|err| io::Error::other(format!("request serialization failed: {err}")))?;
        self.request("POST", path, Some(&body))
    }

    /// `DELETE path` with a JSON-serialized body (never auto-retried, like
    /// every non-GET).
    pub fn delete<T: Serialize>(&mut self, path: &str, body: &T) -> io::Result<ClientResponse> {
        let body = serde_json::to_string(body)
            .map_err(|err| io::Error::other(format!("request serialization failed: {err}")))?;
        self.request("DELETE", path, Some(&body))
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let reader = self.connection()?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: matchd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;
        }
        let response = read_response(reader);
        if response.is_err() {
            self.connection = None;
        } else if let Ok((_, close)) = &response {
            if *close {
                self.connection = None;
            }
        }
        response.map(|(response, _)| response)
    }
}

/// Reads one response; returns it plus whether the server will close the
/// connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(ClientResponse, bool)> {
    let status_line = read_line(reader)?;
    // "HTTP/1.1 200 OK"
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("malformed status line {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut close = false;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::other(format!("malformed header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| io::Error::other(format!("bad Content-Length {value:?}")))?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            close = true;
        }
        headers.push((name, value.to_string()));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::other("response body is not valid UTF-8"))?;
    Ok((
        ClientResponse {
            status,
            body,
            headers,
        },
        close,
    ))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = Vec::new();
    let read = reader.read_until(b'\n', &mut line)?;
    if read == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| io::Error::other("non-UTF-8 response head"))
}
