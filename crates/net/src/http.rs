//! Minimal HTTP/1.1 model: GET requests and responses.
//!
//! Only what the measurement flows need: a serialisable GET (whose Host
//! header is what URL-filtering censors key on) and a response container
//! (whose body is what the blockpage detector inspects).

use serde::{Deserialize, Serialize};

/// An HTTP GET request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpRequest {
    /// Host header (the URL's domain — what filtering middleboxes match).
    pub host: String,
    /// Request path.
    pub path: String,
}

impl HttpRequest {
    /// A GET for `host`/`path`.
    pub fn get(host: &str, path: &str) -> Self {
        HttpRequest { host: host.to_string(), path: path.to_string() }
    }

    /// Serialise to wire text.
    pub fn serialize(&self) -> Vec<u8> {
        format!(
            "GET {} HTTP/1.1\r\nHost: {}\r\nUser-Agent: churnlab/0.1\r\nAccept: */*\r\nConnection: close\r\n\r\n",
            self.path, self.host
        )
        .into_bytes()
    }

    /// Parse from wire text (lenient: only the request line and Host header
    /// are required).
    pub fn parse(data: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(data).ok()?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next()?;
        let mut parts = request_line.split(' ');
        if parts.next()? != "GET" {
            return None;
        }
        let path = parts.next()?.to_string();
        let host = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("host"))
            .map(|(_, v)| v.trim().to_string())?;
        Some(HttpRequest { host, path })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpResponse {
    /// Status code (200, 403, 302, …).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers as (name, value) pairs, in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 OK with an HTML body.
    pub fn ok(body: &str) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK".to_string(),
            headers: vec![
                ("Content-Type".to_string(), "text/html".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Serialise to wire text.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (k, v) in &self.headers {
            out.push_str(k);
            out.push_str(": ");
            out.push_str(v);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Parse from wire text (lenient; body is everything after the blank
    /// line).
    pub fn parse(data: &[u8]) -> Option<Self> {
        let split = head_end(data)?;
        let mut resp = Self::parse_head(&data[..split])?;
        resp.body = data[split + 4..].to_vec();
        Some(resp)
    }

    /// Parse a response head — the status line and headers, without the
    /// blank line that ends them — into a response with an empty body.
    pub(crate) fn parse_head(head: &[u8]) -> Option<Self> {
        let head = std::str::from_utf8(head).ok()?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next()?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next()?;
        if !version.starts_with("HTTP/") {
            return None;
        }
        let status: u16 = parts.next()?.parse().ok()?;
        let reason = parts.next().unwrap_or("").to_string();
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        Some(HttpResponse { status, reason, headers, body: Vec::new() })
    }

    /// The `Content-Length` header's value, if present and a number.
    pub(crate) fn content_length(&self) -> Option<usize> {
        self.header("Content-Length").and_then(|v| v.parse().ok())
    }

    /// Body as text (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Value of a header (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Offset of the first `\r\n\r\n` — the blank line ending a message head.
pub(crate) fn head_end(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrip() {
        let r = HttpRequest::get("blocked.example.com", "/news/article.html");
        let back = HttpRequest::parse(&r.serialize()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn request_parse_requires_get_and_host() {
        assert!(HttpRequest::parse(b"POST / HTTP/1.1\r\nHost: x\r\n\r\n").is_none());
        assert!(HttpRequest::parse(b"GET / HTTP/1.1\r\n\r\n").is_none());
        assert!(HttpRequest::parse(b"\xff\xfe").is_none());
    }

    #[test]
    fn response_roundtrip() {
        let r = HttpResponse::ok("<html><body>hello</body></html>");
        let back = HttpResponse::parse(&r.serialize()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn response_header_lookup_case_insensitive() {
        let r = HttpResponse::ok("x");
        assert_eq!(r.header("content-type"), Some("text/html"));
        assert_eq!(r.header("CONTENT-LENGTH"), Some("1"));
        assert_eq!(r.header("x-nope"), None);
    }

    #[test]
    fn response_parse_binary_body() {
        let mut r = HttpResponse::ok("");
        r.body = vec![0, 159, 146, 150];
        let back = HttpResponse::parse(&r.serialize()).unwrap();
        assert_eq!(back.body, r.body);
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(host in "[a-z0-9.-]{1,40}", path in "/[a-zA-Z0-9/._-]{0,40}") {
            let r = HttpRequest::get(&host, &path);
            let back = HttpRequest::parse(&r.serialize()).unwrap();
            prop_assert_eq!(r, back);
        }

        #[test]
        fn prop_response_roundtrip(status in 100u16..600, body in proptest::collection::vec(any::<u8>(), 0..256)) {
            let r = HttpResponse {
                status,
                reason: "Stuff".to_string(),
                headers: vec![("X-Test".to_string(), "yes".to_string())],
                body,
            };
            let back = HttpResponse::parse(&r.serialize()).unwrap();
            prop_assert_eq!(r, back);
        }

        #[test]
        fn prop_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = HttpRequest::parse(&data);
            let _ = HttpResponse::parse(&data);
        }
    }
}
