//! Mutation fuzz of the HTTP head reader behind `serve::start_with`.
//!
//! Real `POST /solve` requests, as `http_request` writes them, are
//! mutated — byte flips, truncations of the head or the body,
//! duplicate and garbage `Content-Length` headers, and size claims
//! above `max_body_bytes` — and sent over loopback one connection at
//! a time. Every connection must get a status line: a normal reply
//! from the route or a structured 4xx, never an empty reply and never
//! a 500 (a panicking handler). Two `Content-Length` headers that
//! differ must be refused with 400 (RFC 9112 §6.3), whichever comes
//! first. A claim above `max_body_bytes` must be refused before any
//! body byte is read: its 413 arrives while the client still holds the
//! body back. The listener must serve a well-formed request afterwards.

use casa_obs::serve::{
    http_get, start_with, valid_request_id, Request, Response, Router, ServeOptions,
};
use casa_obs::Obs;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MAX_BODY: usize = 256;
/// Long enough for a loopback exchange, short enough that a request
/// whose body never completes times out quickly.
const READ_DEADLINE: Duration = Duration::from_millis(400);

/// The `/solve` bodies the mutations start from.
const BODIES: [&str; 3] = [
    r#"{"graph":{"fetches":[900,400],"sizes":[16,24],"edges":[[0,1,120]]},"cache":{"size":1024},"capacity":32,"allocator":"casa-bb"}"#,
    r#"{"workload":{"benchmark":"adpcm"},"capacity":128}"#,
    r#"{"graph":{"fetches":[900,400,700],"sizes":[16,24,8],"edges":[[0,1,120],[1,0,80],[1,2,60]]},"cache":{"size":1024,"line":16,"assoc":1},"capacity":32,"allocator":"casa-bb","v":1}"#,
];

/// A small deterministic generator (xorshift64*), so the cases are the
/// same on every run without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The request head `http_request` writes for a `/solve` POST of a
/// `len`-byte JSON body, with the given `Content-Length` lines.
fn head(addr: &SocketAddr, lengths: &[String]) -> String {
    let mut h = format!(
        "POST /solve HTTP/1.1\r\nHost: {addr}\r\nX-Casa-Request-Id: fuzz-1\r\nContent-Type: application/json\r\n"
    );
    for l in lengths {
        h.push_str(&format!("Content-Length: {l}\r\n"));
    }
    h.push_str("Connection: close\r\n\r\n");
    h
}

/// One mutated request: the bytes to send, the mutation that made
/// them and, where the mutation decides it, the status it must get.
struct Case {
    bytes: Vec<u8>,
    kind: &'static str,
    status: Option<u16>,
}

fn case(rng: &mut Rng, addr: &SocketAddr) -> Case {
    let body = BODIES[rng.below(BODIES.len())].as_bytes();
    let len = body.len().to_string();
    let whole = |lengths: &[String]| {
        let mut b = head(addr, lengths).into_bytes();
        b.extend_from_slice(body);
        b
    };
    match rng.below(7) {
        0 => {
            // Byte flips anywhere in the request.
            let mut b = whole(std::slice::from_ref(&len));
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(b.len());
                b[at] ^= 1 << rng.below(8);
            }
            Case {
                bytes: b,
                kind: "flip",
                status: None,
            }
        }
        1 => {
            // Cut anywhere: inside the request line, a header, the
            // blank line or the body.
            let mut b = whole(std::slice::from_ref(&len));
            b.truncate(rng.below(b.len()));
            Case {
                bytes: b,
                kind: "cut",
                status: None,
            }
        }
        2 => {
            // Duplicate Content-Length, equal or not, the body's own
            // length first or last.
            let other = (body.len() + rng.below(8)).to_string();
            let mut lengths = match rng.below(2) {
                0 => vec![len.clone(), len],
                _ => vec![other, len],
            };
            if rng.below(2) == 0 {
                lengths.reverse();
            }
            let status = (lengths[0] != lengths[1]).then_some(400);
            Case {
                bytes: whole(&lengths),
                kind: "duplicate length",
                status,
            }
        }
        3 => {
            // Garbage Content-Length values.
            let garbage = [
                "",
                "-1",
                "abc",
                "0x10",
                "1e3",
                " 12 3",
                "99999999999999999999999999",
                "+5",
                "\u{1}",
            ];
            let g = garbage[rng.below(garbage.len())].to_string();
            Case {
                bytes: whole(&[g]),
                kind: "garbage length",
                status: None,
            }
        }
        4 => {
            // A claim below the body: the reply uses the prefix.
            let short = rng.below(body.len()).to_string();
            Case {
                bytes: whole(&[short]),
                kind: "short claim",
                status: None,
            }
        }
        5 => {
            // Garbage bytes spliced into the head.
            let mut b = head(addr, std::slice::from_ref(&len)).into_bytes();
            let at = rng.below(b.len());
            let junk: Vec<u8> = (0..1 + rng.below(6)).map(|_| rng.next() as u8).collect();
            b.splice(at..at, junk);
            b.extend_from_slice(body);
            Case {
                bytes: b,
                kind: "spliced head",
                status: None,
            }
        }
        _ => {
            // Header lines without a colon, empty names, bare CRs.
            let mut h = head(addr, std::slice::from_ref(&len));
            let odd = ["X-No-Colon\r\n", ": empty-name\r\n", "X-Cr: a\rb\r\n"];
            let at = h.find("Connection").expect("connection header");
            h.insert_str(at, odd[rng.below(odd.len())]);
            let mut b = h.into_bytes();
            b.extend_from_slice(body);
            Case {
                bytes: b,
                kind: "odd header",
                status: None,
            }
        }
    }
}

/// Send `bytes`, half-close, and return the raw reply.
fn exchange(addr: &SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(5)).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // The server may answer (and close) before reading everything.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

/// The status of a raw reply, if it has a status line.
fn status(raw: &str) -> Option<u16> {
    raw.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

fn server() -> (casa_obs::serve::ServeHandle, SocketAddr) {
    let router: Router = Arc::new(|req: &Request| {
        (req.path == "/solve").then(|| {
            // A stand-in for the solve route: it answers from what the
            // reader handed over, so a wrong body length shows.
            Response::json(200, format!("{{\"bytes\":{}}}", req.body.len()))
        })
    });
    let opts = ServeOptions {
        read_deadline: READ_DEADLINE,
        max_body_bytes: MAX_BODY,
        journal_cap: 0,
        slow_req_ms: None,
        access_log: None,
        ..ServeOptions::default()
    };
    let handle = start_with(&Obs::enabled(), "127.0.0.1:0", opts, Some(router)).expect("bind");
    let addr = handle.local_addr();
    (handle, addr)
}

#[test]
fn mutated_solve_heads_get_a_structured_reply() {
    let (mut handle, addr) = server();
    let mut rng = Rng(0x5eed_f00d);
    let mut statuses = std::collections::BTreeMap::new();
    let mut differing = 0;
    for k in 0..240 {
        let Case {
            bytes,
            kind,
            status: want,
        } = case(&mut rng, &addr);
        let raw = exchange(&addr, &bytes);
        let code = status(&raw).unwrap_or_else(|| {
            panic!(
                "case {k} ({kind}): no status line in {raw:?} for {:?}",
                String::from_utf8_lossy(&bytes)
            )
        });
        assert!(
            (200..300).contains(&code) || (400..500).contains(&code),
            "case {k} ({kind}): status {code} for {:?}",
            String::from_utf8_lossy(&bytes)
        );
        if let Some(want) = want {
            assert_eq!(
                code,
                want,
                "case {k} ({kind}): {:?}",
                String::from_utf8_lossy(&bytes)
            );
            differing += 1;
        }
        if (400..500).contains(&code) {
            // Structured: a reason in the body and the correlation id.
            let (head, body) = raw.split_once("\r\n\r\n").expect("reply head");
            assert!(!body.trim().is_empty(), "case {k} ({kind}): empty reason");
            let id = head
                .lines()
                .find_map(|l| l.strip_prefix("X-Casa-Request-Id: "))
                .unwrap_or_else(|| panic!("case {k} ({kind}): no request id in {head:?}"));
            assert!(valid_request_id(id), "case {k}: {id:?}");
        }
        *statuses.entry(code).or_insert(0) += 1;
    }
    // The mutations reach the reader's refusals, not only the route.
    for code in [200, 400] {
        assert!(statuses.contains_key(&code), "no {code} among {statuses:?}");
    }
    assert!(differing >= 8, "{differing} differing duplicate lengths");
    let (st, body) = http_get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!((st, body.as_str()), (200, "ok\n"));
    handle.shutdown();
}

#[test]
fn oversized_claims_are_refused_before_the_body_is_read() {
    let (mut handle, addr) = server();
    for claim in [MAX_BODY + 1, 4 * MAX_BODY, usize::MAX / 2, usize::MAX] {
        let mut stream =
            TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        // The head only: the body is held back, and the write side
        // stays open, so a reader that waited for it would answer 408
        // after the read deadline instead.
        stream
            .write_all(head(&addr, &[claim.to_string()]).as_bytes())
            .expect("head");
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        assert_eq!(status(&raw), Some(413), "claim {claim}: {raw:?}");
    }
    let (st, _) = http_get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(st, 200);
    handle.shutdown();
}
