//! End-to-end serving tests: what needs a real server thread, real
//! sockets or the wall clock — the load generator, a loop held by a heavy
//! query, re-mining threads racing the loop, and one smoke run of answers
//! and the HTTP monitoring surface. Protocol behaviour is checked by the
//! seeded simulation of the serving core (`serve::machine`'s tests).

use graph_core::{graph_from, Graph};
use obs::{Counter, Span};
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

/// Bind on an ephemeral port (and the HTTP monitoring port the config
/// names) and run the server on its own thread, its engine re-mining after
/// `remine` applied ops (0 = never) and its slow-query log capturing every
/// query; the joined result carries the run report, the final metrics, and
/// the engine (for oracle checks after maintenance).
fn spawn_server(config: ServeConfig, remine: u64) -> (SocketAddr, Option<SocketAddr>, Served) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let (addr, http) = (server.local_addr().expect("addr"), server.http_local_addr());
    let handle = std::thread::spawn(move || {
        let engine = Engine::with_remine(build_index(), 2, remine);
        let registry = obs::Registry::new();
        let mut telemetry = serve::ServeTelemetry {
            slow: serve::SlowQueryLog::new(Some(Duration::ZERO), 4),
            access: None,
        };
        let report = server.run_with_telemetry(&engine, &registry, &mut telemetry);
        (report.expect("serve"), registry.drain(), engine)
    });
    (addr, http, handle)
}

type Served = JoinHandle<(ServeReport, obs::MetricSet, Engine)>;

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

/// Send `heavy` on connection A, then one of the fixture's queries on
/// connection B: B is answered within its 2 s read timeout while A's query
/// is in the loop (read timeouts turn a frozen loop into a failure, not a
/// hang), A gets the scan oracle's answer, and the loop reports no stall.
fn assert_loop_stays_responsive(heavy: &Graph) {
    // An unoptimised build takes more than the 100 ms default stall
    // threshold over the 8 000-vertex path; 1 s, below B's 2 s read
    // timeout, still reports a loop held for seconds.
    let config = ServeConfig {
        stall_threshold: Some(Duration::from_secs(1)),
        ..ServeConfig::default()
    };
    let (addr, _, handle) = spawn_server(config, 0);
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
    let oracle = |g: &Graph| scan_support(&build_index(), g);
    // A round trip first, so the loop is up and owns connection A.
    let mut a = connect();
    send_query(&mut a, 0, warm);
    assert_eq!(expect_matches(recv(&mut a, "A")), oracle(warm));
    send_query(&mut a, 1, heavy);
    std::thread::sleep(Duration::from_millis(100));
    // B's query is not cached: it runs through the pipeline.
    let mut b = connect();
    send_query(&mut b, 2, q);
    assert_eq!(expect_matches(recv(&mut b, "B")), oracle(q));
    assert_eq!(expect_matches(recv(&mut a, "A")), oracle(heavy));

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

#[test]
fn loadgen_drives_the_server_and_reports_latency() {
    let (addr, _, handle) = spawn_server(ServeConfig::default(), 0);
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
    let shown = report.to_string();
    assert!(shown.contains("p50=") && shown.contains("p99="), "{shown}");

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

/// One-shot HTTP request against the monitoring listener: (status, body).
fn http_request(addr: &SocketAddr, method: &str, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect http");
    write!(s, "{method} {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status = head.split(' ').nth(1).and_then(|c| c.parse().ok());
    (status.expect("status code"), body.to_string())
}

/// Value of a single-sample line (`name 42`) in Prometheus text.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.split(' ').next() == Some(name))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse().ok())
}

/// Answers over a real socket equal the scan oracle, and the HTTP
/// monitoring surface agrees with the STATS snapshot.
#[test]
fn answers_and_http_monitoring_over_real_sockets() {
    let config = ServeConfig {
        http_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let (addr, http, handle) = spawn_server(config, 0);
    let http = http.expect("http addr");
    let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    let oracle = build_index();
    for q in queries() {
        let ids = expect_matches(client.query(&q).unwrap());
        assert_eq!(ids, scan_support(&oracle, &q), "query answered wrong");
    }
    // Quiescent now: every query is answered, so the STATS snapshot and
    // the /metrics scrape that follows must agree on request counters.
    let ResponseBody::Stats(json) = client.stats().unwrap().body else {
        panic!("expected stats")
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
        let inf = prom_value(&metrics, &format!("{fam}_bucket{{le=\"+Inf\"}}"))
            .unwrap_or_else(|| panic!("{fam} has no +Inf bucket:\n{metrics}"));
        let count = prom_value(&metrics, &format!("{fam}_count")).expect("count sample");
        assert_eq!(inf, count, "{fam}: +Inf bucket must equal _count");
        let span = snap.span(name).expect("every decomposition span in STATS");
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
    let (report, _, _) = handle.join().unwrap();
    assert!(report.http_requests >= 5, "{report}");
}

#[test]
fn open_loop_rate_paces_the_run() {
    let (addr, _, handle) = spawn_server(ServeConfig::default(), 0);
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
    let elapsed = report.elapsed;
    assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
    handle.join().unwrap();
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
    let (addr, _, handle) = spawn_server(ServeConfig::default(), 3);
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

    let mutator_q = q.clone();
    let mutator = std::thread::spawn(move || {
        let q = mutator_q;
        let mut client = Client::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
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
    for _ in 0..60 {
        let ans = expect_matches(client.query(&q).unwrap());
        assert!(allowed.contains(&ans), "torn (no §7.1 prefix): {ans:?}");
    }
    mutator.join().expect("mutator");

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
    let mut last = base;
    last.extend(&inserted_live);
    last.sort_unstable();
    assert_eq!(scan_support(&engine.pin(), &q), last);
}

/// Stale-cache regression at the swap boundary: with re-mining after
/// every single op, each insert/remove is immediately followed by a query
/// whose answer must reflect it — a cache entry surviving any swap
/// (apply or re-mine publication) breaks read-your-writes here.
#[test]
fn no_stale_cache_hits_across_remine_swaps() {
    let (addr, _, handle) = spawn_server(ServeConfig::default(), 1);
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
