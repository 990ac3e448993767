//! Minimal dependency-free HTTP/1.0 GET responder for the monitoring
//! surface (`/metrics`, `/healthz`, `/slowz`).
//!
//! This is deliberately not a web server: one request per connection,
//! `Connection: close`, no keep-alive, no chunked encoding, no request
//! bodies. A scrape agent (Prometheus, curl, a load-balancer health
//! check) sends one GET line plus headers; we parse the request line,
//! ignore the headers, write one `Content-Length`-framed response, and
//! close. That shape slots directly into the existing event loop: the
//! response is queued on the connection's ordinary write buffer and the
//! socket is torn down once it drains.
//!
//! Parsing is incremental — [`parse_request`] is called with whatever
//! bytes have arrived so far and reports [`Parse::Incomplete`] until the
//! blank line terminating the header block shows up. A header block that
//! exceeds [`MAX_HEAD`] without terminating is a malformed client and is
//! rejected rather than buffered forever (mirroring the wire protocol's
//! `MAX_FRAME` bound).

/// Upper bound on the request head (request line + headers). Real
/// monitoring clients send a few hundred bytes; 8 KiB matches the
/// conventional default of mainstream HTTP servers.
pub const MAX_HEAD: usize = 8 << 10;

/// A parsed request line. Headers are intentionally discarded — nothing
/// in the monitoring surface is content-negotiated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method, verbatim (`GET`, `HEAD`, …).
    pub method: String,
    /// The path component of the request target, query string stripped.
    pub path: String,
}

/// Outcome of one incremental parse attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parse {
    /// The header block has not fully arrived; call again with more bytes.
    Incomplete,
    /// The bytes cannot be an acceptable request (malformed request line,
    /// or the head outgrew [`MAX_HEAD`]). The connection should get a 400
    /// and close.
    Bad(&'static str),
    /// A complete request head: the parsed request line plus the number
    /// of buffered bytes it consumed (through the terminating blank line).
    Ok(HttpRequest, usize),
}

/// Incrementally parse an HTTP/1.x request head from `buf`.
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_end) = find_head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            Parse::Bad("request head exceeds MAX_HEAD")
        } else {
            Parse::Incomplete
        };
    };
    if head_end > MAX_HEAD {
        return Parse::Bad("request head exceeds MAX_HEAD");
    }
    let head = &buf[..head_end];
    let line_end = head
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(head.len());
    let Ok(line) = std::str::from_utf8(&head[..line_end]) else {
        return Parse::Bad("request line is not UTF-8");
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parse::Bad("malformed request line");
    };
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return Parse::Bad("malformed request line");
    }
    let path = target.split(['?', '#']).next().unwrap_or(target);
    Parse::Ok(
        HttpRequest {
            method: method.to_string(),
            path: path.to_string(),
        },
        head_end,
    )
}

/// Position one past the `\r\n\r\n` (or bare `\n\n`) terminating the
/// request head, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Build one complete HTTP/1.0 response: status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, then `body`.
pub fn response(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_get() {
        let buf = b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\ntrailing";
        let Parse::Ok(req, used) = parse_request(buf) else {
            panic!("expected complete parse");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(used, buf.len() - "trailing".len());
    }

    #[test]
    fn strips_query_strings_and_accepts_bare_lf() {
        let Parse::Ok(req, _) = parse_request(b"GET /healthz?verbose=1 HTTP/1.1\n\n") else {
            panic!("expected complete parse");
        };
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn incomplete_until_blank_line() {
        assert_eq!(parse_request(b""), Parse::Incomplete);
        assert_eq!(parse_request(b"GET / HTTP/1.0\r\nHost:"), Parse::Incomplete);
    }

    #[test]
    fn response_is_length_framed() {
        let r = response(200, "OK", "text/plain", b"hello");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }
}
