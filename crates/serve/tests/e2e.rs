//! End-to-end serving tests: a real server thread, real sockets.

use graph_core::{graph_from, Graph};
use obs::{Counter, Gauge, Span};
use serve::protocol::{decode_response, encode_request, Request, RequestBody, ResponseBody};
use serve::{Client, LoadgenConfig, ServeConfig, ServeReport, Server};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;
use treepi::{scan_support, Engine, TreePiIndex, TreePiParams};

fn db() -> Vec<Graph> {
    vec![
        graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
        graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
        graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        graph_from(&[0, 1], &[(0, 1, 1)]),
    ]
}

fn queries() -> Vec<Graph> {
    vec![
        graph_from(&[0, 0], &[(0, 1, 0)]),
        graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
        graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        graph_from(&[9, 9], &[(0, 1, 0)]),
        graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
    ]
}

fn build_index() -> TreePiIndex {
    TreePiIndex::build(db(), TreePiParams::quick())
}

/// Bind on an ephemeral port and run the server on its own thread; the
/// joined result carries the run report, the final metrics, and the
/// engine (for oracle checks against the post-maintenance database).
fn spawn_server(
    config: ServeConfig,
) -> (
    SocketAddr,
    JoinHandle<(ServeReport, obs::MetricSet, Engine)>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::new(build_index(), 2);
        let registry = obs::Registry::new();
        let report = server.run(&engine, &registry).expect("serve");
        (report, registry.drain(), engine)
    });
    (addr, handle)
}

/// Write one query frame with `tag` on a raw socket.
fn send_query(s: &mut std::net::TcpStream, tag: u32, g: &Graph) {
    use std::io::Write;
    let body = RequestBody::Query(g.clone());
    s.write_all(&encode_request(&Request { tag, body }))
        .expect("send");
}

/// Read one response frame off a raw socket.
fn read_response(s: &mut std::net::TcpStream) -> std::io::Result<serve::Response> {
    use std::io::Read;
    let mut len = [0u8; 4];
    s.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    s.read_exact(&mut payload)?;
    Ok(decode_response(&payload).expect("well-formed response"))
}

/// A path of `n` vertices labelled 0, 1, 0, … whose every edge is the
/// fixture's indexed 0-1 edge: the whole pipeline runs on it, for more than
/// 100 ms at 8 000 vertices in a debug build.
fn long_path(n: u32) -> Graph {
    let labels: Vec<u32> = (0..n).map(|i| i % 2).collect();
    let edges: Vec<(u32, u32, u32)> = (1..n).map(|i| (i - 1, i, 0)).collect();
    graph_from(&labels, &edges)
}

fn expect_matches(resp: serve::Response) -> Vec<u32> {
    match resp.body {
        ResponseBody::Matches(ids) => ids,
        other => panic!("expected matches, got {other:?}"),
    }
}

#[test]
fn served_answers_match_the_scan_oracle() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let oracle = build_index();
    for q in queries() {
        let ids = expect_matches(client.query(&q).unwrap());
        assert_eq!(ids, scan_support(&oracle, &q), "query answered wrong");
    }
    // Edgeless queries are a protocol-level error, not a panic.
    let lone = graph_from(&[3], &[]);
    match client.query(&lone).unwrap().body {
        ResponseBody::Error(msg) => assert!(msg.contains("edge"), "{msg}"),
        other => panic!("expected error for edgeless query, got {other:?}"),
    }
    matches!(client.shutdown().unwrap().body, ResponseBody::ShuttingDown)
        .then_some(())
        .expect("shutdown ack");
    let (report, _, _) = handle.join().unwrap();
    assert_eq!(report.queries, queries().len() as u64 + 1);
    assert_eq!(report.errors, 1);
    assert_eq!(report.shed, 0);
    assert!(report.batches >= 1);
}

#[test]
fn oversized_label_is_refused_and_the_connection_survives() {
    // `v 0 4294967295` on the wire: canonical forms offset labels past
    // their tags, so a label above `MAX_LABEL` used to overflow inside the
    // server (killing its thread in debug builds). It is a parse error now,
    // on a vertex and on an edge, and the connection keeps working.
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let hostile = [
        graph_from(&[u32::MAX, 0], &[(0, 1, 0)]),
        graph_from(&[0, 0], &[(0, 1, graph_core::MAX_LABEL + 1)]),
    ];
    for g in &hostile {
        for resp in [client.query(g), client.insert(g)] {
            match resp.unwrap().body {
                ResponseBody::Error(msg) => assert!(msg.contains("label"), "{msg}"),
                other => panic!("expected error for oversized label, got {other:?}"),
            }
        }
    }
    let q = &queries()[0];
    let ids = expect_matches(client.query(q).unwrap());
    assert_eq!(ids, scan_support(&build_index(), q));
    client.shutdown().unwrap();
    let (report, _, _) = handle.join().unwrap();
    assert_eq!(report.errors, 4);
}

/// A one-line query body that fills a whole frame is malformed, and the
/// error echoes the line, so its message is longer than a frame; with a
/// two-byte char straddling the cut, the reply is still an error, and the
/// connection then answers a normal query.
#[test]
fn frame_filling_malformed_line_is_answered_with_an_error() {
    use std::io::Write;
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // The message is "line 1: malformed: " (19 bytes) and the line; the
    // reply's body holds MAX_FRAME - 5 bytes of it, so byte MAX_FRAME - 24
    // of the line is where it is cut.
    let body_len = serve::protocol::MAX_FRAME - 5;
    let cut = body_len - 19;
    let line = format!(
        "z{}é{}",
        "a".repeat(cut - 2),
        "a".repeat(body_len - cut - 1)
    );
    assert_eq!(line.len(), body_len);
    assert!(!line.is_char_boundary(cut));
    let mut frame = ((5 + body_len) as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&7u32.to_le_bytes());
    frame.push(b'Q');
    frame.extend_from_slice(line.as_bytes());
    s.write_all(&frame).expect("send the frame");
    let reply = read_response(&mut s).expect("an answer to the long line");
    assert_eq!(reply.tag, 7);
    match reply.body {
        ResponseBody::Error(msg) => {
            assert!(msg.starts_with("line 1: malformed: zaaa"), "{}", &msg[..40]);
            assert_eq!(msg.len(), cut - 1 + 19);
        }
        other => panic!("expected an error, got {other:?}"),
    }
    let q = &queries()[1];
    send_query(&mut s, 8, q);
    let answer = read_response(&mut s).expect("an answer to the next query");
    assert_eq!(answer.tag, 8);
    assert_eq!(expect_matches(answer), scan_support(&build_index(), q));
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    client.shutdown().unwrap();
    let (report, _, _) = handle.join().unwrap();
    assert_eq!(report.errors, 1);
}

#[test]
fn cache_hits_repeats_and_maintenance_invalidates() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
    let first = expect_matches(client.query(&q).unwrap());
    for _ in 0..3 {
        // The same query as sent — served from cache, same answer.
        assert_eq!(expect_matches(client.query(&q).unwrap()), first);
    }
    // A renumbered isomorph is another cache key: a miss, computed afresh,
    // with the same answer.
    let iso = graph_from(&[1, 0, 0], &[(2, 1, 0), (1, 0, 0)]);
    assert_eq!(expect_matches(client.query(&iso).unwrap()), first);

    // Insert a graph that matches the cached query: the next request
    // must see it — a stale cached answer here is the bug this guards.
    let gid = match client
        .insert(&graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]))
        .unwrap()
        .body
    {
        ResponseBody::Inserted(gid) => gid,
        other => panic!("expected insert ack, got {other:?}"),
    };
    let after_insert = expect_matches(client.query(&q).unwrap());
    assert!(
        after_insert.contains(&gid),
        "cached answer served after insert: {after_insert:?}"
    );
    assert_ne!(after_insert, first);

    // Remove it again: the next answer reverts — no stale positive.
    match client.remove(gid).unwrap().body {
        ResponseBody::Removed(was_active) => assert!(was_active),
        other => panic!("expected remove ack, got {other:?}"),
    }
    assert_eq!(expect_matches(client.query(&q).unwrap()), first);

    client.shutdown().unwrap();
    let (report, metrics, engine) = handle.join().unwrap();
    // Three repeats hit; the renumbered isomorph does not.
    assert!(report.cache_hits >= 3, "repeats must hit: {report}");
    // The pipeline's counts cover the executed queries only, not the hits.
    assert_eq!(report.served + report.cache_hits, 7, "{report}");
    assert_eq!(
        metrics.counter(Counter::FUNNEL_QUERIES.name()),
        report.served
    );
    for span in Span::PIPELINE {
        let count = metrics.span(span.name()).map(|s| s.count);
        assert_eq!(count, Some(report.served), "{}", span.name());
    }
    assert_eq!(engine.maint_stats().applied, 2);
    // The post-churn database agrees with the last answer.
    assert_eq!(scan_support(&engine.pin(), &q), first);
    assert!(metrics.counter(Counter::CACHE_HIT.name()) >= 3);
    assert_eq!(metrics.counter(Counter::CACHE_INVALIDATIONS.name()), 2);
    assert_eq!(metrics.counter(Counter::MAINT_APPLIED.name()), 2);
}

/// A write decoded after a query's admission but before its batch: the
/// batch runs on the written snapshot, and its answer is cached like any
/// other, so a repeat hits.
#[test]
fn a_batch_after_a_write_fills_the_cache() {
    use std::io::Write;
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    // An entry from before the write, for the write to retire.
    send_query(&mut s, 0, &queries()[0]);
    expect_matches(read_response(&mut s).expect("warm answer"));
    // The query and the insert arrive in one segment, so the insert is
    // applied before the query's batch is dispatched.
    let q = &queries()[1];
    let frames: Vec<u8> = [
        (1, RequestBody::Query(q.clone())),
        (2, RequestBody::Insert(q.clone())),
    ]
    .into_iter()
    .flat_map(|(tag, body)| encode_request(&Request { tag, body }))
    .collect();
    s.write_all(&frames).expect("send");
    let mut answers = std::collections::HashMap::new();
    for _ in 0..2 {
        let r = read_response(&mut s).expect("answer");
        answers.insert(r.tag, r.body);
    }
    let Some(ResponseBody::Inserted(gid)) = answers.remove(&2) else {
        panic!("expected an insert ack: {answers:?}");
    };
    let Some(ResponseBody::Matches(first)) = answers.remove(&1) else {
        panic!("expected matches: {answers:?}");
    };
    assert!(
        first.contains(&gid),
        "batch ran before the write: {first:?}"
    );
    send_query(&mut s, 3, q);
    assert_eq!(
        expect_matches(read_response(&mut s).expect("repeat")),
        first
    );

    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    client.shutdown().unwrap();
    let (report, _, _) = handle.join().unwrap();
    assert_eq!(report.cache_hits, 1, "the repeat must hit: {report}");
}

/// Identical queries pipelined in one segment share a batch: every one
/// gets the scan oracle's answer and is accounted for, while the engine
/// runs each distinct query once.
#[test]
fn identical_queries_in_one_batch_run_once() {
    use std::io::Write;
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    let (a, b) = (&queries()[1], &queries()[2]);
    let sent = [a, a, b, a, b, a];
    let frames: Vec<u8> = (0u32..)
        .zip(sent)
        .flat_map(|(tag, q)| {
            let body = RequestBody::Query(q.clone());
            encode_request(&Request { tag, body })
        })
        .collect();
    s.write_all(&frames).expect("send");
    let oracle = build_index();
    for _ in 0..sent.len() {
        let r = read_response(&mut s).expect("answer");
        let q = sent[r.tag as usize];
        assert_eq!(expect_matches(r), scan_support(&oracle, q));
    }

    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    client.shutdown().unwrap();
    let (report, metrics, _) = handle.join().unwrap();
    assert_eq!(report.batches, 1, "one segment, one batch: {report}");
    assert_eq!(report.served, sent.len() as u64, "{report}");
    assert_eq!(report.cache_hits, 0, "{report}");
    assert_eq!(metrics.counter(Counter::FUNNEL_QUERIES.name()), 2);
    for span in [Span::SERVE_REQUEST, Span::SERVE_EXEC_SHARE] {
        let count = metrics.span(span.name()).map(|s| s.count);
        assert_eq!(count, Some(sent.len() as u64), "{}", span.name());
    }
}

/// Send `heavy` on connection A, then one of the fixture's queries on
/// connection B: B is answered within its 2 s read timeout while A's query
/// is in the loop (read timeouts turn a frozen loop into a failure, not a
/// hang), A gets the scan oracle's answer, and the loop reports no stall.
fn assert_loop_stays_responsive(heavy: &Graph) {
    // An unoptimised build takes more than the 100 ms default stall
    // threshold over the 8 000-vertex path; 1 s, below B's 2 s read
    // timeout, still reports a loop held for seconds.
    let (addr, handle) = spawn_server(ServeConfig {
        stall_threshold: Some(Duration::from_secs(1)),
        ..ServeConfig::default()
    });
    let connect = || {
        let s = std::net::TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        s
    };
    let recv = |s: &mut std::net::TcpStream, who: &str| {
        read_response(s).unwrap_or_else(|e| panic!("{who}: no answer within 2 s: {e}"))
    };
    let (warm, q) = (&queries()[0], &queries()[1]);
    // A round trip first, so the loop is up and owns connection A.
    let mut a = connect();
    send_query(&mut a, 0, warm);
    assert_eq!(
        expect_matches(recv(&mut a, "A")),
        scan_support(&build_index(), warm)
    );
    send_query(&mut a, 1, heavy);
    std::thread::sleep(Duration::from_millis(100));
    // B's query is not cached: it runs through the pipeline.
    let mut b = connect();
    send_query(&mut b, 2, q);
    assert_eq!(
        expect_matches(recv(&mut b, "B")),
        scan_support(&build_index(), q)
    );
    assert_eq!(
        expect_matches(recv(&mut a, "A")),
        scan_support(&build_index(), heavy)
    );

    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    client.shutdown().unwrap();
    let (report, metrics, _) = handle.join().unwrap();
    assert_eq!(report.stalls, 0, "{report}");
    assert_eq!(metrics.counter(Counter::SERVE_LOOP_STALL_COUNT.name()), 0);
}

#[test]
fn clique_query_does_not_hold_the_event_loop() {
    // K12 with a vertex label the fixture lacks: the query pipeline stops
    // at its first edge (missing feature), but a general-graph canonical
    // form of it is exponential — n! tied vertex orders. A cache keyed on
    // that form would hold the event loop, and every connection, for
    // minutes; keyed on the query as sent, a second connection is answered
    // at once.
    const N: u32 = 12;
    let edges: Vec<(u32, u32, u32)> = (0..N)
        .flat_map(|u| (u + 1..N).map(move |v| (u, v, 0)))
        .collect();
    assert_loop_stays_responsive(&graph_from(&[9; N as usize], &edges));
}

#[test]
fn long_path_query_does_not_hold_the_event_loop() {
    // An 8 000-vertex path: a frame of ≈ 100 KB, under the frame cap. A
    // partition quadratic or worse in the query's size would hold the
    // event loop, and every connection, for minutes.
    assert_loop_stays_responsive(&long_path(8_000));
}

/// A client that queues a query and disconnects frees its connection slot,
/// and the next client accepted takes that slot. The dead client's answer
/// must not reach the new one: `Client` tags start at 0 like every fresh
/// connection's, so the stray answer would pass for the reply to the new
/// client's first query.
#[test]
fn a_closed_connections_answer_never_reaches_the_next_client() {
    let (addr, buf, handle) = spawn_logged_server(ServeConfig::default());
    let connect = || {
        let s = std::net::TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        s
    };
    // A is accepted while the loop is idle.
    let mut a = connect();
    std::thread::sleep(Duration::from_millis(100));
    // C keeps the loop busy with 30 pipelined heavy queries, each of a
    // different length so none is a cache hit, and says when its first
    // answer is back: from then on the loop is inside a later batch.
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let mut c = connect();
    let flood: Vec<u8> = (0..30)
        .flat_map(|tag| {
            let body = RequestBody::Query(long_path(8_000 - tag));
            encode_request(&Request { tag, body })
        })
        .collect();
    let mut reader = c.try_clone().expect("clone C");
    let flooder = std::thread::spawn(move || {
        read_response(&mut reader).expect("C's first answer");
        first_tx.send(()).expect("signal");
        while read_response(&mut reader).is_ok() {}
    });
    // The server may shut down before it has read all of it.
    std::thread::spawn(move || {
        use std::io::Write;
        let _ = c.write_all(&flood);
    });
    first_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("C's first answer");
    // While that batch runs, A queues a query and goes away, then B
    // connects: the next poll sees A's close before B's connect, so B
    // takes A's slot before A's query is dispatched.
    let q_a = &queries()[0];
    send_query(&mut a, 0, q_a);
    drop(a);
    let mut b = connect();
    let q_b = &queries()[3];
    send_query(&mut b, 0, q_b);
    let first = read_response(&mut b).expect("B's answer");
    assert_eq!(first.tag, 0);
    assert_ne!(
        scan_support(&build_index(), q_a),
        scan_support(&build_index(), q_b)
    );
    assert_eq!(
        expect_matches(first),
        scan_support(&build_index(), q_b),
        "B was sent A's answer"
    );

    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    flooder.join().expect("C");
    // A's query never ran: it is logged as dropped, and it is the only
    // query that is.
    let (raw, records) = buf.records();
    let dropped: Vec<_> = records
        .iter()
        .filter(|r| field(r, "outcome").as_deref() == Some("dropped"))
        .collect();
    assert_eq!(dropped.len(), 1, "{raw}");
    assert_eq!(field(dropped[0], "op").as_deref(), Some("query"), "{raw}");
}

#[test]
fn novel_edge_insert_is_queryable_over_the_wire() {
    // σ(1)=1 under serving-path maintenance: the inserted graph carries
    // an edge (7-7 labeled 3) no database graph has; querying that edge
    // afterwards must find the new graph instead of short-circuiting on
    // a stale missing-feature proof.
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = graph_from(&[7, 7], &[(0, 1, 3)]);
    assert_eq!(expect_matches(client.query(&q).unwrap()), Vec::<u32>::new());
    let gid = match client
        .insert(&graph_from(&[7, 7, 0], &[(0, 1, 3), (1, 2, 0)]))
        .unwrap()
        .body
    {
        ResponseBody::Inserted(gid) => gid,
        other => panic!("expected insert ack, got {other:?}"),
    };
    assert_eq!(expect_matches(client.query(&q).unwrap()), vec![gid]);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn overload_sheds_with_busy_and_the_queue_stays_bounded() {
    // A tiny queue and a flood that arrives in one piece: the whole write
    // is one loopback segment, the server decodes every frame of it in one
    // readable event — before any batch can run — so all but `queue_cap`
    // queries are shed immediately with Busy, and the queue provably never
    // exceeds cap.
    const FLOOD: usize = 20;
    const CAP: usize = 2;
    let (addr, handle) = spawn_server(ServeConfig {
        max_batch: 64,
        queue_cap: CAP,
        cache_cap: 0, // every query must take the admission path
        ..ServeConfig::default()
    });
    use std::io::{Read, Write};
    let q = queries()[0].clone();
    // Shutdown drains the queue and ends the run.
    let bodies = (0..FLOOD)
        .map(|_| RequestBody::Query(q.clone()))
        .chain([RequestBody::Shutdown]);
    let flood: Vec<u8> = (0u32..)
        .zip(bodies)
        .flat_map(|(tag, body)| encode_request(&Request { tag, body }))
        .collect();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(&flood).expect("send the flood");
    let mut recv = || {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("frame length");
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut payload).expect("frame payload");
        decode_response(&payload).expect("well-formed response")
    };
    let (mut busy, mut matched, mut acked) = (0, 0, 0);
    for _ in 0..FLOOD + 1 {
        match recv().body {
            ResponseBody::Busy => busy += 1,
            ResponseBody::Matches(ids) => {
                assert_eq!(ids, scan_support(&build_index(), &q));
                matched += 1;
            }
            ResponseBody::ShuttingDown => acked += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(acked, 1);
    assert_eq!(matched, CAP, "exactly the queued queries are served");
    assert_eq!(busy, FLOOD - CAP, "the rest are shed explicitly");
    let (report, metrics, _) = handle.join().unwrap();
    assert_eq!(report.shed as usize, FLOOD - CAP);
    assert!(
        report.queue_peak <= CAP,
        "admission queue exceeded its bound: {report}"
    );
    assert_eq!(
        metrics.counter(Counter::SERVE_SHED.name()) as usize,
        FLOOD - CAP
    );
}

#[test]
fn loadgen_drives_the_server_and_reports_latency() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let registry = obs::Registry::new();
    let cfg = LoadgenConfig {
        connections: 2,
        requests: 60,
        zipf: 1.2, // skewed: repeats should hit the result cache
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = serve::loadgen::run(&addr.to_string(), &queries(), &cfg, &registry).unwrap();
    assert_eq!(report.sent, 60);
    assert_eq!(report.ok, 60);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latency.count, 60);
    assert!(report.throughput() > 0.0);
    assert!(report.latency.quantile_ns(0.99) >= report.latency.quantile_ns(0.50));
    let rendered = report.to_string();
    assert!(
        rendered.contains("p50=") && rendered.contains("p99="),
        "{rendered}"
    );

    let (server_report, _, _) = handle.join().unwrap();
    assert_eq!(server_report.queries, 60);
    assert!(
        server_report.cache_hits > 0,
        "zipf repeats never hit the cache: {server_report}"
    );
    let m = registry.drain();
    assert_eq!(m.counter(Counter::LOADGEN_OK.name()), 60);
    let span = m.span(Span::LOADGEN_REQUEST.name()).expect("span");
    assert_eq!(span.count, 60);
}

#[test]
fn stats_op_returns_live_parseable_snapshot() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    // Work first, so the live snapshot has counters to show.
    for q in queries() {
        expect_matches(client.query(&q).unwrap());
    }
    let repeat = queries()[0].clone();
    expect_matches(client.query(&repeat).unwrap()); // cache hit
    let json = match client.stats().unwrap().body {
        ResponseBody::Stats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    let snap = obs::json::parse_metric_set(&json).expect("snapshot is valid treepi.obs/v1");
    // Live serve counters — recorded in the loop's shard, which is only
    // absorbed at shutdown: a snapshot built from the registry alone
    // would show zeros here.
    assert_eq!(snap.counter(Counter::SERVE_QUERIES.name()), 6);
    assert!(snap.counter(Counter::CACHE_HIT.name()) >= 1);
    assert_eq!(snap.counter(Counter::SERVE_STATS.name()), 1);
    assert!(
        snap.gauge(Gauge::SERVE_QUEUE_PEAK.name()).is_some(),
        "queue peak gauge missing"
    );
    assert!(
        snap.gauge(Gauge::SERVE_QUEUE_DEPTH.name()).is_some(),
        "queue depth gauge missing"
    );
    // Pipeline spans from executed batches are visible mid-run too.
    assert!(snap.span(Span::QUERY_VERIFY.name()).is_some());

    // The server keeps serving after a snapshot.
    let again = expect_matches(client.query(&repeat).unwrap());
    assert_eq!(again, scan_support(&build_index(), &repeat));
    client.shutdown().unwrap();
    let (report, metrics, _) = handle.join().unwrap();
    assert_eq!(report.requests, 9); // 7 queries + stats + shutdown
                                    // The final drained metrics also carry the stats-op counter.
    assert_eq!(metrics.counter(Counter::SERVE_STATS.name()), 1);
}

#[test]
fn telemetry_captures_slow_queries() {
    use serve::telemetry::ServeTelemetry;

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::new(build_index(), 2);
        let registry = obs::Registry::new();
        let mut telemetry = ServeTelemetry {
            // Zero threshold: every executed query is "slow". Cap 3 keeps
            // the ring bounded below the query count.
            slow: serve::SlowQueryLog::new(Some(Duration::ZERO), 3),
            access: None,
        };
        let report = server
            .run_with_telemetry(&engine, &registry, &mut telemetry)
            .expect("serve");
        (report, registry.drain(), telemetry)
    });
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    for q in queries() {
        expect_matches(client.query(&q).unwrap());
    }
    client.shutdown().unwrap();
    let (report, metrics, telemetry) = handle.join().unwrap();
    assert_eq!(report.served, 5);
    // Every executed query tripped the zero threshold; the ring kept 3.
    assert_eq!(telemetry.slow.seen(), 5);
    assert_eq!(telemetry.slow.len(), 3);
    assert_eq!(metrics.counter(Counter::SERVE_SLOW_QUERIES.name()), 5);
    let doc = telemetry.slow.render_chrome_json();
    let v = obs::json::parse(&doc).expect("slow log renders valid Chrome JSON");
    let slices = v
        .get("traceEvents")
        .and_then(obs::json::Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
        .count();
    let per_capture = 1 + Span::PIPELINE.len();
    assert_eq!(slices, 3 * per_capture, "3 captures × (umbrella + stages)");
}

/// Like [`spawn_server`], but with the HTTP monitoring listener bound on
/// an ephemeral port and a zero-threshold slow-query log (so `/slowz`
/// has content to serve).
fn spawn_http_server(
    config: ServeConfig,
) -> (
    SocketAddr,
    SocketAddr,
    JoinHandle<(ServeReport, obs::MetricSet)>,
) {
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        ..config
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let http = server.http_local_addr().expect("http addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::new(build_index(), 2);
        let registry = obs::Registry::new();
        let mut telemetry = serve::ServeTelemetry {
            slow: serve::SlowQueryLog::new(Some(Duration::ZERO), 4),
            access: None,
        };
        let report = server
            .run_with_telemetry(&engine, &registry, &mut telemetry)
            .expect("serve");
        (report, registry.drain())
    });
    (addr, http, handle)
}

/// One-shot HTTP request against the monitoring listener: (status, body).
fn http_request(addr: &SocketAddr, method: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect http");
    write!(s, "{method} {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// Value of a single-sample line (`name 42`) in Prometheus text.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split(' ').next() == Some(name))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

/// The `+Inf` bucket count of a histogram family in Prometheus text.
fn prom_inf_bucket(text: &str, family: &str) -> Option<f64> {
    let prefix = format!("{family}_bucket{{le=\"+Inf\"}}");
    text.lines()
        .find(|l| l.starts_with(prefix.as_str()))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn http_metrics_agree_with_the_stats_snapshot() {
    let (addr, http, handle) = spawn_http_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    for q in queries() {
        expect_matches(client.query(&q).unwrap());
    }
    // Quiescent now: every query is answered, so the STATS snapshot and
    // the /metrics scrape that follows must agree on request counters.
    let json = match client.stats().unwrap().body {
        ResponseBody::Stats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    let snap = obs::json::parse_metric_set(&json).expect("valid snapshot");

    let (status, metrics) = http_request(&http, "GET", "/metrics");
    assert_eq!(status, 200, "{metrics}");
    assert_eq!(
        prom_value(&metrics, "serve_queries_total"),
        Some(snap.counter(Counter::SERVE_QUERIES.name()) as f64),
        "/metrics and STATS disagree on serve.queries"
    );

    // All four decomposition histograms are exported and internally
    // consistent: the +Inf bucket equals _count. The batch-side three are
    // quiescent between the snapshot and the scrape, so they also agree
    // with STATS exactly; write_wait keeps moving (the STATS response
    // itself is flushed in between), so it only gets the ≥ bound.
    for id in Span::DECOMPOSITION {
        let name = id.name();
        let fam = format!("{}_seconds", name.replace('.', "_"));
        let inf = prom_inf_bucket(&metrics, &fam)
            .unwrap_or_else(|| panic!("{fam} has no +Inf bucket:\n{metrics}"));
        let count = prom_value(&metrics, &format!("{fam}_count")).expect("count sample");
        assert_eq!(inf, count, "{fam}: +Inf bucket must equal _count");
        let span = snap
            .span(name)
            .unwrap_or_else(|| panic!("{name} missing from STATS snapshot"));
        if id == Span::SERVE_WRITE_WAIT {
            assert!(inf >= span.count as f64, "{fam} went backwards");
        } else {
            assert_eq!(inf, span.count as f64, "{fam} disagrees with STATS");
        }
    }
    // The decomposition must fit inside the umbrella: time attributed to
    // queue wait and execution cannot exceed total request time.
    let qw = prom_value(&metrics, "serve_queue_wait_seconds_sum").unwrap();
    let ex = prom_value(&metrics, "serve_exec_share_seconds_sum").unwrap();
    let rq = prom_value(&metrics, "serve_request_seconds_sum").unwrap();
    assert!(
        qw + ex <= rq * (1.0 + 1e-9) + 1e-12,
        "queue_wait ({qw}) + exec ({ex}) exceeds serve.request ({rq})"
    );

    let (status, health) = http_request(&http, "GET", "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\": \"ok\""), "{health}");
    let (status, slowz) = http_request(&http, "GET", "/slowz");
    assert_eq!(status, 200);
    let v = obs::json::parse(&slowz).expect("/slowz is valid JSON");
    assert!(v.get("traceEvents").is_some(), "{slowz}");
    let (status, _) = http_request(&http, "GET", "/nope");
    assert_eq!(status, 404);
    // HEAD must not carry a body, and only GET is served.
    let (status, body) = http_request(&http, "HEAD", "/metrics");
    assert_eq!((status, body.as_str()), (405, "only GET is supported\n"));

    client.shutdown().unwrap();
    let (report, _) = handle.join().unwrap();
    assert!(report.http_requests >= 5, "{report}");
}

#[test]
fn healthz_degrades_under_injected_stall() {
    // A 1 ns threshold makes every event-loop work period a "stall": the
    // watchdog trips on real measurements, no special test hooks.
    let (addr, http, handle) = spawn_http_server(ServeConfig {
        stall_threshold: Some(Duration::from_nanos(1)),
        ..ServeConfig::default()
    });
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    expect_matches(client.query(&queries()[0]).unwrap());
    let (status, body) = http_request(&http, "GET", "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"status\": \"degraded\""), "{body}");
    let (_, metrics) = http_request(&http, "GET", "/metrics");
    let stalls = prom_value(&metrics, "serve_loop_stall_count_total").unwrap_or(0.0);
    assert!(stalls >= 1.0, "no stalls exported:\n{metrics}");
    assert!(
        prom_value(&metrics, "serve_loop_max_stall_us").unwrap_or(0.0) >= 0.0,
        "max-stall gauge missing"
    );

    client.shutdown().unwrap();
    let (report, _) = handle.join().unwrap();
    assert!(report.stalls >= 1, "watchdog never tripped: {report}");
}

/// An in-memory access-log sink the test reads after the run.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    /// The log as written, and each line parsed.
    fn records(&self) -> (String, Vec<obs::json::Value>) {
        let raw = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
        let records = raw
            .lines()
            .map(|l| obs::json::parse(l).expect("each access line is valid JSON"))
            .collect();
        (raw, records)
    }
}

/// A string field of an access record.
fn field(r: &obs::json::Value, name: &str) -> Option<String> {
    r.get(name)
        .and_then(obs::json::Value::as_str)
        .map(String::from)
}

/// Like [`spawn_server`], with an access log written to the returned
/// buffer; the joined result carries the run's telemetry.
fn spawn_logged_server(
    config: ServeConfig,
) -> (
    SocketAddr,
    SharedBuf,
    JoinHandle<(ServeReport, serve::ServeTelemetry)>,
) {
    let buf = SharedBuf::default();
    let sink = buf.clone();
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::new(build_index(), 2);
        let registry = obs::Registry::new();
        let mut telemetry = serve::ServeTelemetry {
            slow: serve::SlowQueryLog::new(None, 0),
            access: Some(serve::AccessLog::to_writer(Box::new(sink))),
        };
        let report = server
            .run_with_telemetry(&engine, &registry, &mut telemetry)
            .expect("serve");
        (report, telemetry)
    });
    (addr, buf, handle)
}

#[test]
fn access_log_writes_one_record_per_request() {
    let (addr, buf, handle) = spawn_logged_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = queries()[1].clone();
    expect_matches(client.query(&queries()[0]).unwrap());
    expect_matches(client.query(&q).unwrap());
    expect_matches(client.query(&q.clone()).unwrap()); // cache hit
    let gid = match client.insert(&q).unwrap().body {
        ResponseBody::Inserted(gid) => gid,
        other => panic!("expected insert ack, got {other:?}"),
    };
    assert!(matches!(
        client.remove(gid).unwrap().body,
        ResponseBody::Removed(true)
    ));
    client.shutdown().unwrap();
    let (_, telemetry) = handle.join().unwrap();
    let access = telemetry.access.expect("access log survives the run");
    assert_eq!(access.lines(), 6, "3 queries + insert + remove + shutdown");
    assert_eq!(access.write_errors(), 0);

    let (raw, records) = buf.records();
    assert_eq!(records.len(), 6);
    let op = |r: &obs::json::Value| field(r, "op");
    assert_eq!(
        records
            .iter()
            .filter(|r| op(r).as_deref() == Some("query"))
            .count(),
        3
    );
    assert_eq!(
        records
            .iter()
            .filter(|r| op(r).as_deref() == Some("shutdown"))
            .count(),
        1
    );
    // Exactly one of the three queries hit the cache; the executed two
    // carry the stage decomposition.
    let hits = records
        .iter()
        .filter(|r| r.get("cache_hit").and_then(obs::json::Value::as_bool) == Some(true))
        .count();
    assert_eq!(hits, 1, "{raw}");
    let staged = records
        .iter()
        .filter(|r| r.get("cache_hit").and_then(obs::json::Value::as_bool) == Some(false))
        .filter(|r| r.get("queue_wait_us").is_some() && r.get("exec_us").is_some())
        .count();
    assert_eq!(
        staged, 2,
        "executed queries must carry stage timings: {raw}"
    );
    // A write is logged under the epoch it published: the build is epoch
    // 0, the insert publishes 1 and the remove 2.
    let epoch_of = |name: &str| {
        let rec = records.iter().find(|r| op(r).as_deref() == Some(name));
        rec.and_then(|r| r.get("epoch")?.as_u64())
    };
    assert_eq!(epoch_of("insert"), Some(1), "{raw}");
    assert_eq!(epoch_of("remove"), Some(2), "{raw}");
}

#[test]
fn access_log_write_failures_are_counted_live() {
    // A full disk under the access log: every write fails. Serving must
    // carry on, and the failures must show in STATS while the server runs,
    // not only in the exit line.
    struct FullDisk;
    impl std::io::Write for FullDisk {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("no space left on device"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::new(build_index(), 2);
        let registry = obs::Registry::new();
        let mut telemetry = serve::ServeTelemetry {
            slow: serve::SlowQueryLog::new(None, 0),
            access: Some(serve::AccessLog::to_writer(Box::new(FullDisk))),
        };
        let report = server
            .run_with_telemetry(&engine, &registry, &mut telemetry)
            .expect("serve");
        (report, registry.drain(), telemetry)
    });
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let oracle = build_index();
    for q in queries() {
        assert_eq!(
            expect_matches(client.query(&q).unwrap()),
            scan_support(&oracle, &q)
        );
    }
    let json = match client.stats().unwrap().body {
        ResponseBody::Stats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    let snap = obs::json::parse_metric_set(&json).expect("valid snapshot");
    // One lost record per query answered before the snapshot.
    assert_eq!(
        snap.counter(Counter::SERVE_ACCESS_LOG_WRITE_ERRORS.name()),
        queries().len() as u64
    );
    client.shutdown().unwrap();
    let (report, metrics, telemetry) = handle.join().unwrap();
    assert_eq!(report.queries, queries().len() as u64);
    // Then the stats and shutdown records are lost too.
    let access = telemetry.access.expect("access log survives the run");
    assert_eq!(access.lines(), 0);
    assert_eq!(access.write_errors(), queries().len() as u64 + 2);
    assert_eq!(
        metrics.counter(Counter::SERVE_ACCESS_LOG_WRITE_ERRORS.name()),
        access.write_errors()
    );
}

#[test]
fn stats_snapshot_and_exit_metrics_agree() {
    // Every serving number has one writer, shared by STATS and shutdown:
    // after the client's last query, a snapshot and the registry drained
    // at exit differ only by the requests sent after the snapshot (the
    // shutdown). A number written twice, or an exit set merged over the
    // registry snapshot, double-counts here.
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = queries()[1].clone();
    expect_matches(client.query(&q).unwrap());
    let gid = match client.insert(&db()[0]).unwrap().body {
        ResponseBody::Inserted(gid) => gid,
        other => panic!("expected insert ack, got {other:?}"),
    };
    // The insert is folded in at this query's admission; the repeat hits.
    assert!(expect_matches(client.query(&q).unwrap()).contains(&gid));
    assert!(expect_matches(client.query(&q).unwrap()).contains(&gid));
    let json = match client.stats().unwrap().body {
        ResponseBody::Stats(json) => json,
        other => panic!("expected stats, got {other:?}"),
    };
    let snap = obs::json::parse_metric_set(&json).expect("valid snapshot");
    client.shutdown().unwrap();
    let (report, exit, engine) = handle.join().unwrap();
    assert_eq!(report.cache_hits, 1, "{report}");
    assert_eq!(engine.maint_stats().applied, 1, "{report}");

    let loop_counters = |set: &obs::MetricSet| -> std::collections::BTreeMap<&str, u64> {
        set.counters()
            .map(|(c, v)| (c.name(), v))
            .filter(|(name, _)| {
                ["serve.", "cache.", "maint."]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .collect()
    };
    let (mut at_snapshot, at_exit) = (loop_counters(&snap), loop_counters(&exit));
    // The shutdown request came after the snapshot.
    *at_snapshot.get_mut(Counter::SERVE_REQUESTS.name()).unwrap() += 1;
    assert_eq!(at_snapshot, at_exit);
    assert_eq!(at_exit[Counter::SERVE_REQUESTS.name()], report.requests);
    assert_eq!(at_exit[Counter::CACHE_HIT.name()], 1);
    assert_eq!(at_exit[Counter::CACHE_INVALIDATIONS.name()], 1);
    assert_eq!(at_exit[Counter::MAINT_APPLIED.name()], 1);
}

#[test]
fn open_loop_rate_paces_the_run() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let registry = obs::Registry::disabled();
    let cfg = LoadgenConfig {
        connections: 1,
        requests: 10,
        rate: Some(200.0), // 10 requests at 200/s ≈ 45ms min wall time
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = serve::loadgen::run(&addr.to_string(), &queries(), &cfg, &registry).unwrap();
    assert_eq!(report.ok, 10);
    assert!(
        report.elapsed >= Duration::from_millis(40),
        "open loop finished too fast: {:?}",
        report.elapsed
    );
    handle.join().unwrap();
}

/// Like [`spawn_server`], but the engine re-mines in the background after
/// `threshold` applied §7.1 ops — the concurrency tests drive swaps from
/// both the apply path and the re-mine thread.
fn spawn_remine_server(
    threshold: u64,
    config: ServeConfig,
) -> (
    SocketAddr,
    JoinHandle<(ServeReport, obs::MetricSet, Engine)>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let engine = Engine::with_remine(build_index(), 2, threshold);
        let registry = obs::Registry::new();
        let report = server.run(&engine, &registry).expect("serve");
        (report, registry.drain(), engine)
    });
    (addr, handle)
}

/// Tentpole acceptance: pipelined queries racing concurrent insert/remove
/// traffic are never blocked and never torn. Every answer must equal the
/// scan oracle of SOME §7.1 prefix state (pre- or post-epoch) — an answer
/// mixing two epochs (e.g. a half-applied batch) matches no prefix and
/// fails. Background re-mining runs throughout (threshold 3 over 12 ops),
/// so swaps come from both the apply path and the re-mine thread.
#[test]
fn concurrent_maintenance_never_tears_or_blocks_queries() {
    const OPS: usize = 12;
    let (addr, handle) = spawn_remine_server(3, ServeConfig::default());
    let q = graph_from(&[0, 0], &[(0, 1, 0)]);
    let extra = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);

    // Enumerate every §7.1 prefix state's oracle answer up front: the op
    // schedule is deterministic (alternating insert/remove of the
    // mutator's own gids, assigned densely from 5), so each prefix k has
    // one well-defined answer.
    let base = scan_support(&build_index(), &q);
    let mut allowed: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut inserted_live: Vec<u32> = Vec::new();
    let mut next_gid = db().len() as u32;
    allowed.insert(base.clone());
    for k in 0..OPS {
        if k % 3 == 2 {
            inserted_live.remove(0);
        } else {
            inserted_live.push(next_gid);
            next_gid += 1;
        }
        let mut ans = base.clone();
        ans.extend(&inserted_live);
        ans.sort_unstable();
        allowed.insert(ans);
    }

    let mutator_addr = addr;
    let mutator_q = q.clone();
    let mutator = std::thread::spawn(move || {
        let q = mutator_q;
        let mut client =
            Client::connect_retry(&mutator_addr.to_string(), Duration::from_secs(5)).unwrap();
        let mut live: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for k in 0..OPS {
            if k % 3 == 2 {
                let gid = live.pop_front().unwrap();
                match client.remove(gid).unwrap().body {
                    ResponseBody::Removed(was) => assert!(was, "gid {gid} should be live"),
                    other => panic!("expected remove ack, got {other:?}"),
                }
                // Read-your-writes across the swap: a stale cache hit
                // would still cite the removed gid.
                let seen = expect_matches(client.query(&q).unwrap());
                assert!(!seen.contains(&gid), "stale answer cites removed {gid}");
            } else {
                let gid = match client.insert(&extra).unwrap().body {
                    ResponseBody::Inserted(gid) => gid,
                    other => panic!("expected insert ack, got {other:?}"),
                };
                live.push_back(gid);
                // Read-your-writes: the very next query must already see
                // the insert, even if a re-mine published in between.
                let seen = expect_matches(client.query(&q).unwrap());
                assert!(seen.contains(&gid), "stale answer misses inserted {gid}");
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    });

    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let mut served = 0u32;
    for _ in 0..60 {
        let ans = expect_matches(client.query(&q).unwrap());
        assert!(
            allowed.contains(&ans),
            "torn answer (matches no §7.1 prefix): {ans:?}"
        );
        served += 1;
    }
    mutator.join().expect("mutator");
    assert_eq!(served, 60, "every concurrent query must be answered");

    client.shutdown().unwrap();
    let (_, metrics, engine) = handle.join().unwrap();
    engine.wait_remine_idle();

    // maint.* counters reconcile with the ops actually sent.
    let stats = engine.maint_stats();
    assert_eq!(stats.applied, OPS as u64, "{stats:?}");
    assert!(
        stats.remine_triggers >= 1,
        "threshold 3 over {OPS} ops never triggered: {stats:?}"
    );
    assert_eq!(stats.remines_completed, stats.remine_triggers);
    // Each op publishes one snapshot and each re-mine one more.
    assert_eq!(
        stats.snapshot_swaps,
        OPS as u64 + stats.remines_completed,
        "{stats:?}"
    );
    assert_eq!(metrics.counter(Counter::MAINT_APPLIED.name()), OPS as u64);
    let span = metrics.span(Span::MAINT_APPLY.name()).expect("apply span");
    assert_eq!(span.count, OPS as u64);

    // The final database agrees with the last prefix oracle.
    let expect_final: Vec<u32> = {
        let mut inserted_live: Vec<u32> = Vec::new();
        let mut next_gid = db().len() as u32;
        for k in 0..OPS {
            if k % 3 == 2 {
                inserted_live.remove(0);
            } else {
                inserted_live.push(next_gid);
                next_gid += 1;
            }
        }
        let mut ans = base;
        ans.extend(&inserted_live);
        ans.sort_unstable();
        ans
    };
    assert_eq!(scan_support(&engine.pin(), &q), expect_final);
}

/// Stale-cache regression at the swap boundary: with re-mining after
/// every single op, each insert/remove is immediately followed by a query
/// whose answer must reflect it — a cache entry surviving any swap
/// (apply or re-mine publication) breaks read-your-writes here.
#[test]
fn no_stale_cache_hits_across_remine_swaps() {
    let (addr, handle) = spawn_remine_server(1, ServeConfig::default());
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let q = graph_from(&[0, 0], &[(0, 1, 0)]);
    let extra = graph_from(&[0, 0], &[(0, 1, 0)]);
    let base = expect_matches(client.query(&q).unwrap());
    for round in 0..4 {
        // Warm the cache, then churn: the repeat after each op must track.
        expect_matches(client.query(&q).unwrap());
        let gid = match client.insert(&extra).unwrap().body {
            ResponseBody::Inserted(gid) => gid,
            other => panic!("expected insert ack, got {other:?}"),
        };
        let with = expect_matches(client.query(&q).unwrap());
        assert!(with.contains(&gid), "round {round}: stale miss of {gid}");
        match client.remove(gid).unwrap().body {
            ResponseBody::Removed(was) => assert!(was),
            other => panic!("expected remove ack, got {other:?}"),
        }
        let without = expect_matches(client.query(&q).unwrap());
        assert_eq!(without, base, "round {round}: stale positive after remove");
    }
    client.shutdown().unwrap();
    let (_, _, engine) = handle.join().unwrap();
    engine.wait_remine_idle();
    let stats = engine.maint_stats();
    assert_eq!(stats.applied, 8);
    assert_eq!(stats.remines_completed, stats.remine_triggers);
    assert!(stats.remine_triggers >= 1, "{stats:?}");
}
