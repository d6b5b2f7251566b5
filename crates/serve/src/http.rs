//! A minimal hand-rolled HTTP/1.1 layer over `std::net`.
//!
//! Implements exactly the subset `matchd` and its client need: request
//! parsing (request line, headers, `Content-Length` bodies), keep-alive
//! semantics, and JSON responses with correct framing. No chunked encoding,
//! no TLS, no HTTP/2 — the protocol surface is deliberately small enough to
//! audit in one sitting, because the environment has no HTTP crates.

use std::io::{self, BufRead, Read, Write};

/// Hard cap on a request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (e.g. `/align`).
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == wanted)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why reading a request off a connection stopped.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection between requests (clean keep-alive
    /// end) — not an error condition.
    Closed,
    /// I/O failure (includes read timeouts, surfaced as `WouldBlock` /
    /// `TimedOut`).
    Io(io::Error),
    /// The request was malformed or exceeded a limit; respond with this
    /// status and message, then close.
    Bad(u16, String),
}

impl From<io::Error> for RequestError {
    fn from(err: io::Error) -> Self {
        RequestError::Io(err)
    }
}

/// Reads one request from a buffered connection.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let mut head_bytes = 0usize;
    let request_line = match read_line(reader, &mut head_bytes)? {
        Some(line) => line,
        None => return Err(RequestError::Closed),
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v.to_string()),
        _ => {
            return Err(RequestError::Bad(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Bad(
            505,
            format!("unsupported protocol version {version:?}"),
        ));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut head_bytes)? {
            Some(line) => line,
            None => {
                return Err(RequestError::Bad(
                    400,
                    "connection closed mid-headers".to_string(),
                ))
            }
        };
        if line.is_empty() {
            break;
        }
        match line.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
            None => return Err(RequestError::Bad(400, format!("malformed header {line:?}"))),
        }
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    // Only `Content-Length` framing is implemented. A chunked body we
    // silently ignored would desync the request stream (its chunk lines
    // would parse as the next request) — reject it outright.
    if header("transfer-encoding").is_some() {
        return Err(RequestError::Bad(
            501,
            "Transfer-Encoding is not supported; send a Content-Length body".to_string(),
        ));
    }

    let content_length = match header("content-length") {
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| RequestError::Bad(400, format!("bad Content-Length {raw:?}")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::Bad(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target, None),
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// Reads one CRLF (or LF) terminated line; `None` on immediate EOF.
///
/// The read itself is capped at the head budget remaining, so a peer that
/// streams bytes without ever sending a newline cannot buffer more than
/// [`MAX_HEAD_BYTES`] into memory before being rejected.
fn read_line(
    reader: &mut impl BufRead,
    head_bytes: &mut usize,
) -> Result<Option<String>, RequestError> {
    let remaining = (MAX_HEAD_BYTES + 1).saturating_sub(*head_bytes);
    let mut line = Vec::new();
    // UFCS pins `Self = &mut impl BufRead`: plain `reader.take(..)` would
    // auto-deref and try to move the reader itself.
    let mut limited = Read::take(&mut *reader, remaining as u64);
    let read = limited.read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    *head_bytes += read;
    let unterminated_at_cap = read == remaining && line.last() != Some(&b'\n');
    if *head_bytes > MAX_HEAD_BYTES || unterminated_at_cap {
        return Err(RequestError::Bad(
            431,
            format!("request head exceeds the {MAX_HEAD_BYTES} byte limit"),
        ));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| RequestError::Bad(400, "non-UTF-8 request head".to_string()))
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text (JSON for every `matchd` endpoint).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the framing set (e.g. `Retry-After` on a shed
    /// 503). Values must already be valid header text.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// A plain-text response in the Prometheus exposition content type
    /// (`GET /metrics`).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
        }
    }

    /// A JSON error response with the standard `{"error": ...}` envelope.
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&crate::protocol::ErrorBody {
            error: message.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"internal error\"}".to_string());
        Self::json(status, body)
    }

    /// Adds an extra response header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Writes the response with correct framing; `keep_alive` controls the
    /// `Connection` header.
    pub fn write(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let reason = reason_phrase(self.status);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection
        )?;
        for (name, value) in &self.headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            "POST /align?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/align");
        assert_eq!(req.query.as_deref(), Some("verbose=1"));
        assert_eq!(req.body_utf8(), Some("hello world"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn malformed_requests_are_rejected_with_a_status() {
        for (raw, status) in [
            ("nonsense\r\n\r\n", 400),
            ("GET / HTTP/2\r\n\r\n", 505),
            ("GET / HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ] {
            match parse(raw) {
                Err(RequestError::Bad(code, _)) => assert_eq!(code, status, "{raw:?}"),
                other => panic!("{raw:?} parsed as {other:?}"),
            }
        }
        assert!(matches!(parse(""), Err(RequestError::Closed)));
    }

    #[test]
    fn oversized_head_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&raw), Err(RequestError::Bad(431, _))));
    }

    #[test]
    fn endless_unterminated_header_line_is_rejected_at_the_cap() {
        // A peer streaming header bytes without ever sending a newline must
        // be rejected once the head budget is exhausted — not buffered
        // unboundedly. 4× the cap stands in for an endless stream; the
        // reader stops within the budget, never reaching the tail.
        let raw = format!("GET / HTTP/1.1\r\nx: {}", "y".repeat(MAX_HEAD_BYTES * 4));
        assert!(matches!(parse(&raw), Err(RequestError::Bad(431, _))));
        // Same for a request line that never terminates.
        let raw = "G".repeat(MAX_HEAD_BYTES * 4);
        assert!(matches!(parse(&raw), Err(RequestError::Bad(431, _))));
    }

    #[test]
    fn responses_are_framed_with_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");

        let mut out = Vec::new();
        Response::error(404, "unknown route")
            .write(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.contains("unknown route"), "{text}");
    }

    #[test]
    fn keep_alive_reads_consecutive_requests() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(raw.as_bytes());
        let first = read_request(&mut reader).unwrap();
        assert_eq!(first.path, "/a");
        let second = read_request(&mut reader).unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.body_utf8(), Some("hi"));
        assert!(matches!(
            read_request(&mut reader),
            Err(RequestError::Closed)
        ));
    }
}
