//! Wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is `u32 LE payload_len` followed by `payload_len` bytes,
//! capped at [`MAX_FRAME`]. Payloads open with a caller-chosen `u32 LE`
//! tag that the server echoes in the response — responses to pipelined
//! requests on one connection are correlated by tag, not by order (a
//! shed Busy answer can overtake an earlier query still sitting in a
//! micro-batch).
//!
//! Request payload: `tag u32 LE`, op `u8`, body.
//!
//! | op  | body                         | meaning                     |
//! |-----|------------------------------|-----------------------------|
//! | `Q` | one graph, gSpan text (utf8) | containment query           |
//! | `I` | one graph, gSpan text (utf8) | §7.1 insert                 |
//! | `R` | `u32 LE` graph id            | §7.1 remove                 |
//! | `S` | empty                        | live metrics snapshot (admin) |
//! | `X` | empty                        | drain queue and shut down   |
//!
//! Response payload: `tag u32 LE`, status `u8`, body.
//!
//! | status | body                            | meaning                |
//! |--------|---------------------------------|------------------------|
//! | `M`    | `u32 LE` count, count× `u32 LE` | matching graph ids     |
//! | `B`    | empty                           | shed: admission queue full |
//! | `I`    | `u32 LE` new graph id           | insert applied         |
//! | `R`    | `u8` (1 = was active)           | remove applied         |
//! | `S`    | utf8 `treepi.obs/v1` JSON       | live metrics snapshot  |
//! | `X`    | empty                           | shutdown acknowledged  |
//! | `E`    | utf8 message                    | protocol/query error   |
//!
//! **End of file closes the connection.** When a connection's read side
//! ends — a client's `shutdown(Write)` included — the server writes what
//! the socket takes at once and closes it, as Redis and memcached do:
//! answers already written reach the client, and its queued queries are
//! dropped, never answered to it nor to the next client in its slot.

use graph_core::io::{parse_graphs, write_graphs};
use graph_core::Graph;

/// Hard cap on one frame's payload, requests and responses alike. A
/// declared length beyond this is a protocol error and closes the
/// connection — the cap is what bounds per-connection read memory.
pub const MAX_FRAME: usize = 1 << 20;

/// One client request: an echo tag plus the operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Opaque tag echoed verbatim in the response.
    pub tag: u32,
    /// The operation.
    pub body: RequestBody,
}

/// The operation carried by a [`Request`].
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Containment query: which database graphs contain this one?
    Query(Graph),
    /// Insert a graph (§7.1 maintenance).
    Insert(Graph),
    /// Remove a graph by id (§7.1 maintenance).
    Remove(u32),
    /// Admin: snapshot the server's live metrics as `treepi.obs/v1` JSON.
    /// Answered inline from the event loop — never queued, never shed.
    Stats,
    /// Drain pending queries, answer them, then shut the server down.
    Shutdown,
}

/// One server response: the request's tag plus the outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The tag of the request this answers.
    pub tag: u32,
    /// The outcome.
    pub body: ResponseBody,
}

/// The outcome carried by a [`Response`].
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Sorted ids of database graphs containing the query.
    Matches(Vec<u32>),
    /// Shed under overload: the admission queue was full. Retry later.
    Busy,
    /// Insert applied; the new graph's id.
    Inserted(u32),
    /// Remove applied; whether the graph was active.
    Removed(bool),
    /// Live metrics snapshot: a `treepi.obs/v1` JSON document.
    Stats(String),
    /// Shutdown acknowledged; the server exits after draining.
    ShuttingDown,
    /// The request was malformed or unanswerable.
    Error(String),
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn encode_frame(payload: Vec<u8>) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Encode a request as one frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, req.tag);
    match &req.body {
        RequestBody::Query(g) => {
            p.push(b'Q');
            p.extend_from_slice(write_graphs(std::slice::from_ref(g)).as_bytes());
        }
        RequestBody::Insert(g) => {
            p.push(b'I');
            p.extend_from_slice(write_graphs(std::slice::from_ref(g)).as_bytes());
        }
        RequestBody::Remove(gid) => {
            p.push(b'R');
            put_u32(&mut p, *gid);
        }
        RequestBody::Stats => p.push(b'S'),
        RequestBody::Shutdown => p.push(b'X'),
    }
    encode_frame(p)
}

/// Encode a response as one frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, resp.tag);
    match &resp.body {
        ResponseBody::Matches(ids) => {
            p.push(b'M');
            put_u32(&mut p, ids.len() as u32);
            for id in ids {
                put_u32(&mut p, *id);
            }
        }
        ResponseBody::Busy => p.push(b'B'),
        ResponseBody::Inserted(gid) => {
            p.push(b'I');
            put_u32(&mut p, *gid);
        }
        ResponseBody::Removed(was_active) => {
            p.push(b'R');
            p.push(*was_active as u8);
        }
        ResponseBody::Stats(json) => {
            p.push(b'S');
            put_text(&mut p, json);
        }
        ResponseBody::ShuttingDown => p.push(b'X'),
        ResponseBody::Error(msg) => {
            p.push(b'E');
            put_text(&mut p, msg);
        }
    }
    encode_frame(p)
}

/// Append as much of `text` as fits the payload `p` within [`MAX_FRAME`],
/// cut at a char boundary so the body stays utf8. An error message can
/// echo a whole request line, so it can be longer than a frame.
fn put_text(p: &mut Vec<u8>, text: &str) {
    let cap = MAX_FRAME - p.len();
    p.extend_from_slice(&text.as_bytes()[..text.floor_char_boundary(cap)]);
}

fn parse_one_graph(body: &[u8]) -> Result<Graph, String> {
    let text = std::str::from_utf8(body).map_err(|_| "graph body is not utf8".to_string())?;
    let graphs = parse_graphs(text).map_err(|e| e.to_string())?;
    match graphs.len() {
        1 => Ok(graphs.into_iter().next().expect("len checked")),
        n => Err(format!("expected exactly 1 graph per frame, got {n}")),
    }
}

/// Decode a request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let tag = get_u32(payload, 0).ok_or("payload shorter than its tag")?;
    let op = *payload.get(4).ok_or("payload missing op byte")?;
    let body = &payload[5..];
    let body = match op {
        b'Q' => RequestBody::Query(parse_one_graph(body)?),
        b'I' => RequestBody::Insert(parse_one_graph(body)?),
        b'R' => RequestBody::Remove(get_u32(body, 0).ok_or("remove body missing graph id")?),
        b'S' => RequestBody::Stats,
        b'X' => RequestBody::Shutdown,
        other => return Err(format!("unknown request op 0x{other:02x}")),
    };
    Ok(Request { tag, body })
}

/// Decode a response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let tag = get_u32(payload, 0).ok_or("payload shorter than its tag")?;
    let status = *payload.get(4).ok_or("payload missing status byte")?;
    let body = &payload[5..];
    let parsed = match status {
        b'M' => {
            let n = get_u32(body, 0).ok_or("matches body missing count")? as usize;
            let mut ids = Vec::with_capacity(n);
            for i in 0..n {
                ids.push(get_u32(body, 4 + 4 * i).ok_or("matches body truncated")?);
            }
            ResponseBody::Matches(ids)
        }
        b'B' => ResponseBody::Busy,
        b'I' => ResponseBody::Inserted(get_u32(body, 0).ok_or("insert body missing id")?),
        b'R' => ResponseBody::Removed(*body.first().ok_or("remove body missing flag")? != 0),
        b'S' => ResponseBody::Stats(String::from_utf8_lossy(body).into_owned()),
        b'X' => ResponseBody::ShuttingDown,
        b'E' => ResponseBody::Error(String::from_utf8_lossy(body).into_owned()),
        other => return Err(format!("unknown response status 0x{other:02x}")),
    };
    Ok(Response { tag, body: parsed })
}

/// Try to slice one complete frame's payload out of `buf`.
///
/// Returns `Ok(None)` when more bytes are needed, `Ok(Some((payload,
/// consumed)))` when a frame is complete, and `Err` when the declared
/// length exceeds [`MAX_FRAME`] (the caller should drop the connection).
pub fn take_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, String> {
    let Some(len) = get_u32(buf, 0) else {
        return Ok(None);
    };
    let len = len as usize;
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds cap {MAX_FRAME}"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&buf[4..4 + len], 4 + len)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    fn sample() -> Graph {
        graph_from(&[0, 1, 1], &[(0, 1, 0), (1, 2, 2)])
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request {
                tag: 7,
                body: RequestBody::Query(sample()),
            },
            Request {
                tag: u32::MAX,
                body: RequestBody::Insert(sample()),
            },
            Request {
                tag: 0,
                body: RequestBody::Remove(42),
            },
            Request {
                tag: 8,
                body: RequestBody::Stats,
            },
            Request {
                tag: 9,
                body: RequestBody::Shutdown,
            },
        ];
        for req in &reqs {
            let frame = encode_request(req);
            let (payload, used) = take_frame(&frame).unwrap().expect("complete frame");
            assert_eq!(used, frame.len());
            // Graphs come back equal, vertex and edge numbering included:
            // the result cache keys on that numbering.
            assert_eq!(&decode_request(payload).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response {
                tag: 1,
                body: ResponseBody::Matches(vec![0, 3, 17]),
            },
            Response {
                tag: 2,
                body: ResponseBody::Matches(vec![]),
            },
            Response {
                tag: 3,
                body: ResponseBody::Busy,
            },
            Response {
                tag: 4,
                body: ResponseBody::Inserted(8),
            },
            Response {
                tag: 5,
                body: ResponseBody::Removed(true),
            },
            Response {
                tag: 6,
                body: ResponseBody::ShuttingDown,
            },
            Response {
                tag: 7,
                body: ResponseBody::Error("nope".into()),
            },
            Response {
                tag: 8,
                body: ResponseBody::Stats("{\"schema\": \"treepi.obs/v1\"}".into()),
            },
        ];
        for resp in &resps {
            let frame = encode_response(resp);
            let (payload, _) = take_frame(&frame).unwrap().expect("complete frame");
            assert_eq!(&decode_response(payload).unwrap(), resp);
        }
    }

    /// An over-long text body is cut to fit the frame at a char boundary,
    /// even when a multi-byte char straddles the cap.
    #[test]
    fn long_text_bodies_are_cut_at_a_char_boundary() {
        let cap = MAX_FRAME - 5;
        let head = "a".repeat(cap - 1);
        let text = format!("{head}ébc");
        let bodies = [ResponseBody::Error, ResponseBody::Stats];
        for body in bodies {
            let frame = encode_response(&Response {
                tag: 1,
                body: body(text.clone()),
            });
            let (payload, used) = take_frame(&frame).unwrap().expect("complete frame");
            assert_eq!(used, frame.len());
            assert_eq!(payload.len(), MAX_FRAME - 1);
            assert_eq!(decode_response(payload).unwrap().body, body(head.clone()));
        }
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let frame = encode_request(&Request {
            tag: 5,
            body: RequestBody::Query(sample()),
        });
        for cut in 0..frame.len() {
            assert!(take_frame(&frame[..cut]).unwrap().is_none(), "cut {cut}");
        }
        // Two frames back to back: the first slices cleanly.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let (_, used) = take_frame(&two).unwrap().expect("first frame");
        assert_eq!(used, frame.len());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_FRAME + 1) as u32);
        assert!(take_frame(&buf).is_err());
    }

    /// Seeded byte mutation over every parser a peer's bytes reach —
    /// `take_frame`, `decode_request` (and `graph_core::io::parse_graphs`
    /// under it), `decode_response` and `http::parse_request`: each input
    /// is `Ok` or `Err`, never a panic, and every query that decodes is
    /// answered exactly. The fixed inputs are hand-picked malformed cases.
    #[test]
    fn mutated_inputs_decode_or_fail_and_decoded_queries_answer_exactly() {
        use crate::http::{self, Parse, MAX_HEAD};
        use graph_core::io::parse_graphs;
        use rand::{Rng, SeedableRng};
        use treepi::{scan_support, TreePiIndex, TreePiParams};

        let two_graphs = [
            &[0, 0, 0, 0, b'Q'][..],
            write_graphs(&[sample(), sample()]).as_bytes(),
        ]
        .concat();
        let fixed: [&[u8]; 6] = [
            &[],
            &[1, 2, 3, 4],
            &[0, 0, 0, 0, b'Z'],
            &[0, 0, 0, 0, b'Q', 0xFF, 0xFE],
            &[0, 0, 0, 0, b'R'],
            &two_graphs,
        ];
        for payload in fixed {
            assert!(decode_request(payload).is_err(), "{payload:?}");
        }
        assert!(decode_response(&[0, 0, 0, 0, b'M', 9, 0, 0, 0]).is_err());
        let huge = vec![b'a'; MAX_HEAD + 1];
        for head in [&b"GARBAGE\r\n\r\n"[..], b"GET /x NOTHTTP\r\n\r\n", &huge] {
            assert!(matches!(http::parse_request(head), Parse::Bad(_)));
        }

        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            sample(),
        ];
        let index = TreePiIndex::build(db.clone(), TreePiParams::quick());
        let mut seeds: Vec<Vec<u8>> = db
            .iter()
            .flat_map(|g| {
                let req = |body| encode_request(&Request { tag: 3, body })[4..].to_vec();
                [
                    req(RequestBody::Query(g.clone())),
                    req(RequestBody::Insert(g.clone())),
                ]
            })
            .collect();
        seeds.push(encode_request(&Request {
            tag: 1,
            body: RequestBody::Remove(2),
        }));
        seeds.push(encode_response(&Response {
            tag: 2,
            body: ResponseBody::Matches(vec![1, 5]),
        }));
        seeds.push(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n".to_vec());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(51);
        let (mut decoded, mut answered) = (0, 0);
        for _ in 0..50_000 {
            let mut bytes = seeds[rng.gen_range(0..seeds.len())].clone();
            for _ in 0..rng.gen_range(1..=4) {
                let at = rng.gen_range(0..=bytes.len());
                match rng.gen_range(0..4) {
                    0 if at < bytes.len() => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
                    1 => bytes.insert(at, b" 0123456789tve\n#Q"[rng.gen_range(0..17usize)]),
                    2 if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            let _ = (
                take_frame(&bytes),
                decode_response(&bytes),
                http::parse_request(&bytes),
            );
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = parse_graphs(text);
            }
            if let Ok(Request {
                body: RequestBody::Query(q),
                ..
            }) = decode_request(&bytes)
            {
                decoded += 1;
                if q.edge_count() > 0 {
                    answered += 1;
                    assert_eq!(index.query(&q).matches, scan_support(&index, &q), "{q:?}");
                }
            }
        }
        assert!(
            decoded > 500 && answered > 200,
            "{decoded} decoded, {answered} answered"
        );
    }
}
