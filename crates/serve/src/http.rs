//! A deliberately small HTTP/1.1 parser/encoder.
//!
//! This is not a general HTTP implementation: it understands only what
//! the compilation API needs — a request line, headers, and an optional
//! `Content-Length` body — and enforces hard caps on header and body
//! size so untrusted peers cannot make a worker allocate without bound.
//! Everything outside that envelope is a typed [`HttpError`] the server
//! maps to a 4xx/5xx response and a close. That includes framing it
//! cannot honour (RFC 9112 §6.1, §6.3): any `Transfer-Encoding` is a
//! 501, and a `Content-Length` that is not `1*DIGIT`, or repeated with
//! a different value, is a 400 — so no body is ever cut as the next
//! pipelined request.
//!
//! [`parse_request`] is incremental and allocation-bounded: it looks
//! at a byte buffer, returns `Ok(None)` until a full request is
//! present, and on success reports how many bytes it consumed so the
//! caller can retain pipelined surplus. The keep-alive reactor calls
//! it on every readable connection; nothing in this crate reads a
//! socket on the parser's behalf.
//!
//! Keep-alive negotiation happens at parse time: HTTP/1.1 defaults to
//! persistent, HTTP/1.0 to close, and a `Connection` header overrides
//! either way. The server intersects [`Request::keep_alive`] with its
//! own per-connection budget before answering.

use std::collections::BTreeMap;
use std::fmt;

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Default upper bound on the request body, bytes.
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request path, query string included, undecoded.
    pub path: String,
    /// Header names (lowercased) to values.
    pub headers: BTreeMap<String, String>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// What the peer negotiated: `true` when the connection may serve
    /// another request after this one (HTTP/1.1 default, or an explicit
    /// `Connection: keep-alive` on HTTP/1.0), `false` when the peer
    /// asked to close (or spoke HTTP/1.0 without opting in).
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed (or timed out) before a full head arrived.
    Truncated,
    /// The request line or a header is malformed.
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeded the configured body cap.
    BodyTooLarge(usize),
    /// The HTTP version is not 1.0/1.1.
    BadVersion(String),
    /// A `Transfer-Encoding` header: bodies are framed by
    /// `Content-Length` only.
    TransferEncoding,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge(cap) => write!(f, "request body exceeds {cap} bytes"),
            HttpError::BadVersion(v) => write!(f, "unsupported HTTP version '{v}'"),
            HttpError::TransferEncoding => write!(f, "transfer-encoding is not supported"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The HTTP status code this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Truncated | HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge(_) => 413,
            HttpError::BadVersion(_) => 505,
            HttpError::TransferEncoding => 501,
        }
    }
}

/// Tries to parse one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request
/// (head and body) is present — `consumed` is the byte count to drain
/// from the buffer, and anything after it is pipelined surplus the
/// caller must keep. Returns `Ok(None)` when more bytes are needed.
///
/// # Errors
///
/// Returns [`HttpError`] as soon as the buffered prefix is known to be
/// unservable: an oversized or malformed head does not wait for more
/// bytes, and an oversized `Content-Length` fails before the body
/// arrives.
pub fn parse_request(
    buf: &[u8],
    max_body_bytes: usize,
) -> Result<Option<(Request, usize)>, HttpError> {
    let head_end = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => pos + 4,
        None => {
            if buf.len() >= MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(None);
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    let (mut request, content_length) = parse_head(&buf[..head_end])?;
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge(max_body_bytes));
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    request.body = buf[head_end..total].to_vec();
    Ok(Some((request, total)))
}

/// Parses a complete head (request line + headers + blank line) into a
/// body-less [`Request`] plus the declared `Content-Length`.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadVersion(version.to_string()));
    }
    let mut headers = BTreeMap::new();
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': '{line}'")))?;
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "transfer-encoding" => return Err(HttpError::TransferEncoding),
            "content-length" => {
                let n = Some(value)
                    .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse::<usize>().ok())
                    .ok_or_else(|| HttpError::Malformed(format!("bad content-length '{value}'")))?;
                if content_length.is_some_and(|seen| seen != n) {
                    return Err(HttpError::Malformed(
                        "conflicting content-length headers".to_string(),
                    ));
                }
                content_length = Some(n);
            }
            _ => {}
        }
        headers.insert(name, value.to_string());
    }
    let content_length = content_length.unwrap_or(0);
    let connection = headers.get("connection").map(|v| v.to_ascii_lowercase());
    let has_token = |t: &str| {
        connection
            .as_deref()
            .is_some_and(|v| v.split(',').any(|tok| tok.trim() == t))
    };
    let keep_alive = if version == "HTTP/1.1" {
        !has_token("close")
    } else {
        has_token("keep-alive")
    };
    Ok((
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body: Vec::new(),
            keep_alive,
        },
        content_length,
    ))
}

/// One response to write back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes (JSON for every API endpoint).
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// When set, a `Retry-After: <seconds>` header is emitted (the 503
    /// backpressure hint).
    pub retry_after: Option<u32>,
    /// When `true`, the server begins a graceful shutdown after this
    /// response is written (the `/admin/shutdown` control signal).
    pub shutdown: bool,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            retry_after: None,
            shutdown: false,
        }
    }

    /// The canonical reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        reason(self.status)
    }
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serializes `response` with an explicit `Connection` decision — the
/// reactor's encoder (responses are staged into a per-connection write
/// buffer, never written directly to the socket).
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(seconds) = response.retry_after {
        head.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One complete request, or `Truncated` when the bytes end first
    /// (what the reactor answers on EOF mid-request).
    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        match parse_request(raw, DEFAULT_MAX_BODY_BYTES)? {
            Some((request, _consumed)) => Ok(request),
            None => Err(HttpError::Truncated),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn truncated_head_and_body_are_typed() {
        assert_eq!(parse(b"GET /x HTTP/1.1\r\n"), Err(HttpError::Truncated));
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Truncated)
        );
        assert_eq!(parse(b""), Err(HttpError::Truncated));
    }

    #[test]
    fn malformed_heads_are_rejected() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/9.9\r\n\r\n"),
            Err(HttpError::BadVersion(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn framing_the_parser_cannot_honour_is_refused() {
        // Accepted, each would leave a body to be cut as the next
        // pipelined request, or take `+3` as a length.
        let cases: [(&[u8], u16); 8] = [
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc",
                400,
            ),
            (b"POST /x HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: -3\r\n\r\n", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc", 400),
            (b"POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n", 400),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
                501,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ntransfer-encoding: identity\r\n\r\nabc",
                501,
            ),
            (
                b"GET /x HTTP/1.0\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
                501,
            ),
        ];
        for (raw, status) in cases {
            let err = parse_request(raw, DEFAULT_MAX_BODY_BYTES).unwrap_err();
            assert_eq!(err.status(), status, "{}", String::from_utf8_lossy(raw));
        }
        assert_eq!(reason(501), "Not Implemented");
        // A repeated Content-Length that agrees is one length.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse(raw).unwrap().body, b"abc");
    }

    #[test]
    fn size_caps_hold() {
        let huge_head = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(huge_head.as_bytes()), Err(HttpError::HeadTooLarge));
        let big_body = b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        assert_eq!(
            parse_request(big_body, 10),
            Err(HttpError::BodyTooLarge(10))
        );
    }

    #[test]
    fn incremental_parse_waits_then_consumes_exactly_one_request() {
        let first = b"POST /compile HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let raw = [&first[..], b"GET /next HTTP/1.1\r\n\r\n"].concat();
        // Every strict prefix of the first request: need more bytes.
        for cut in 0..first.len() {
            let verdict = parse_request(&raw[..cut], DEFAULT_MAX_BODY_BYTES).unwrap();
            assert!(verdict.is_none(), "prefix of {cut} bytes parsed early");
        }
        // The full buffer yields the first request and leaves the
        // pipelined second one untouched.
        let (req, consumed) = parse_request(&raw, DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/compile");
        assert_eq!(req.body, b"abcd");
        assert_eq!(&raw[consumed..], b"GET /next HTTP/1.1\r\n\r\n");
        let (second, rest) = parse_request(&raw[consumed..], DEFAULT_MAX_BODY_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(second.path, "/next");
        assert_eq!(rest, raw.len() - consumed);
    }

    #[test]
    fn keep_alive_negotiation_follows_the_version_defaults() {
        assert!(parse(b"GET /x HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            parse(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // Token lists and case both resolve.
        assert!(
            !parse(b"GET /x HTTP/1.1\r\nConnection: TE, Close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn response_round_trips_through_a_buffer() {
        let mut resp = Response::json(503, "{\"error\": \"busy\"}");
        resp.retry_after = Some(1);
        let text = String::from_utf8(encode_response(&resp, false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 17\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\": \"busy\"}"));
    }

    #[test]
    fn encode_response_mirrors_the_keep_alive_decision() {
        let resp = Response::json(200, "{}");
        let keep = String::from_utf8(encode_response(&resp, true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        let close = String::from_utf8(encode_response(&resp, false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
    }

    #[test]
    fn error_statuses_map_sensibly() {
        assert_eq!(HttpError::Truncated.status(), 400);
        assert_eq!(HttpError::HeadTooLarge.status(), 431);
        assert_eq!(HttpError::BodyTooLarge(1).status(), 413);
        assert_eq!(HttpError::BadVersion("HTTP/2".into()).status(), 505);
        assert_eq!(HttpError::TransferEncoding.status(), 501);
    }
}
