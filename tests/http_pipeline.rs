//! Deterministic conformance and fairness tests of the HTTP/1.1 front
//! end, driven entirely through the simulated event source
//! ([`SimPoller`]) on a [`VirtualClock`]: scripted connections carry raw
//! HTTP bytes through the full parse → route → admit → weighted-fair
//! batch → execute → respond pipeline. No sockets, no threads, no real
//! sleeps — and the fairness scenario must reproduce bit-for-bit across
//! runs.

use std::sync::Arc;

use pimdl::engine::scheduler::TenantQuota;
use pimdl::engine::shapes::TransformerShape;
use pimdl::serve::reactor::Token;
use pimdl::serve::{
    Clock, EventSource, HttpConfig, HttpServerLoop, Metrics, MetricsSnapshot, ModelRegistry,
    Runtime, ServeConfig, SimExecutor, SimPoller, VirtualClock,
};
use pimdl::sim::{LutWorkload, PlatformConfig};

fn runtime(queue_capacity: usize, deadline_s: f64) -> Runtime {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let mut cfg = ServeConfig::example(); // 2 shards, max_batch 4
    cfg.queue_capacity = queue_capacity;
    cfg.deadline_s = deadline_s;
    Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap()
}

/// Deterministic index payload `k` for workload `w`.
fn indices_for(w: LutWorkload, k: usize) -> Vec<u16> {
    (0..w.n * w.cb)
        .map(|i| ((k * 7 + i * 3) % w.ct) as u16)
        .collect()
}

fn csv(indices: &[u16]) -> String {
    indices
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Raw HTTP/1.1 request bytes.
fn req(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut s = format!("{method} {target} HTTP/1.1\r\nHost: sim\r\n");
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        s.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    s.push_str("\r\n");
    let mut bytes = s.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn infer_req(model: &str, tenant: &str, body: &str) -> Vec<u8> {
    req(
        "POST",
        &format!("/v1/models/{model}/infer"),
        &[("X-Tenant", tenant)],
        body.as_bytes(),
    )
}

/// One parsed server response.
#[derive(Debug, Clone, PartialEq)]
struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parses a byte stream of back-to-back responses (Content-Length and
/// chunked framing).
fn parse_responses(mut bytes: &[u8]) -> Vec<Resp> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let head_end = find(bytes, b"\r\n\r\n").expect("response head terminator");
        let head = std::str::from_utf8(&bytes[..head_end]).expect("ASCII head");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        assert!(status_line.starts_with("HTTP/1.1 "), "bad: {status_line}");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("numeric status");
        let headers: Vec<(String, String)> = lines
            .map(|l| {
                let (k, v) = l.split_once(':').expect("header field");
                (k.trim().to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        bytes = &bytes[head_end + 4..];
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
        let body = if chunked {
            let mut b = Vec::new();
            loop {
                let line_end = find(bytes, b"\r\n").expect("chunk size line");
                let sz = usize::from_str_radix(
                    std::str::from_utf8(&bytes[..line_end]).expect("hex size"),
                    16,
                )
                .expect("hex chunk size");
                bytes = &bytes[line_end + 2..];
                if sz == 0 {
                    break;
                }
                b.extend_from_slice(&bytes[..sz]);
                bytes = &bytes[sz + 2..];
            }
            bytes = &bytes[2..]; // final CRLF after the zero chunk
            b
        } else {
            let len: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .map(|(_, v)| v.parse().expect("numeric length"))
                .unwrap_or(0);
            let b = bytes[..len].to_vec();
            bytes = &bytes[len..];
            b
        };
        out.push(Resp {
            status,
            headers,
            body,
        });
    }
    out
}

/// Everything one scripted run produced.
struct SimRun {
    snapshot: MetricsSnapshot,
    outputs: Vec<Vec<u8>>,
    dispatches: Vec<u64>,
    wakeups: Vec<u64>,
}

/// Runs a scripted HTTP scenario against `models` (name, table-seed
/// pairs) under `http_cfg`. The script gets the poller and returns the
/// connection tokens whose outputs the caller wants back.
fn run_sim(
    rt: &Runtime,
    http_cfg: HttpConfig,
    models: &[(&str, u64)],
    script: &dyn Fn(&mut SimPoller) -> Vec<Token>,
) -> SimRun {
    let mut registry = ModelRegistry::new();
    for &(name, seed) in models {
        registry
            .register(name, rt.build_replica(seed).unwrap())
            .unwrap();
    }
    run_registry(rt, http_cfg, registry, script)
}

/// [`run_sim`] over a caller-built registry (so a test can keep a handle
/// on the replicas it registered).
fn run_registry(
    rt: &Runtime,
    http_cfg: HttpConfig,
    registry: ModelRegistry,
    script: &dyn Fn(&mut SimPoller) -> Vec<Token>,
) -> SimRun {
    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
    let conns = script(&mut poller);
    let mut executor = SimExecutor::new(
        Arc::clone(&clock),
        poller.handle(),
        Arc::clone(&metrics),
        rt.config().num_shards,
    );
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let mut server =
        HttpServerLoop::new(rt, http_cfg, registry, clock_dyn, Arc::clone(&metrics)).unwrap();
    server.run(&mut poller, &mut executor).unwrap();
    SimRun {
        dispatches: server.shards().dispatch_counts().to_vec(),
        wakeups: server.shards().wakeup_counts().to_vec(),
        snapshot: metrics.snapshot_with_reactor(poller.stats().snapshot()),
        outputs: conns.iter().map(|&c| poller.output_of(c)).collect(),
    }
}

#[test]
fn conformance_corpus_scripted_statuses() {
    let rt = runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let oracle = rt.build_replica(101).unwrap();
    let good = csv(&indices_for(w, 0));

    let run = run_sim(
        &rt,
        HttpConfig::default(),
        &[("m-a", 101)],
        &|poller: &mut SimPoller| {
            // Connection A: a pipelined keep-alive conversation that
            // survives a semantic 400 (bad infer body is not a framing
            // error) and keeps answering in order.
            let a = poller.connect_at(0.0);
            poller.send_at(0.001, a, req("GET", "/healthz", &[], b""));
            poller.send_at(0.002, a, infer_req("m-a", "t0", &good));
            poller.send_at(0.003, a, req("GET", "/metrics", &[], b""));
            poller.send_at(0.004, a, req("GET", "/nope", &[], b""));
            poller.send_at(0.005, a, req("DELETE", "/healthz", &[], b""));
            poller.send_at(0.006, a, infer_req("ghost", "t0", &good));
            poller.send_at(0.007, a, infer_req("m-a", "t0", "not,numbers"));
            poller.send_at(0.008, a, req("GET", "/healthz", &[], b""));
            poller.close_at(2.0, a);

            // Connection B: malformed request line → exactly one 400 and a
            // close — the trailing garbage must not produce a kill-loop of
            // further error responses.
            let b = poller.connect_at(0.0);
            poller.send_at(
                0.001,
                b,
                b"GARBAGE\r\n\r\nmore garbage that must stay unanswered\r\n\r\n".to_vec(),
            );
            poller.close_at(2.0, b);

            // Connection C: oversized declared body → 413.
            let c = poller.connect_at(0.0);
            poller.send_at(
                0.001,
                c,
                b"POST /v1/models/m-a/infer HTTP/1.1\r\nContent-Length: 300000\r\n\r\n".to_vec(),
            );
            poller.close_at(2.0, c);

            // Connection D: header flood → 431.
            let d = poller.connect_at(0.0);
            let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
            flood.extend_from_slice(format!("X-Pad: {}\r\n", "x".repeat(9000)).as_bytes());
            flood.extend_from_slice(b"\r\n");
            poller.send_at(0.001, d, flood);
            poller.close_at(2.0, d);

            // Connection E: unsupported version → 505.
            let e = poller.connect_at(0.0);
            poller.send_at(0.001, e, b"GET /healthz HTTP/2.0\r\n\r\n".to_vec());
            poller.close_at(2.0, e);

            // Connection F: request body with Transfer-Encoding → 501.
            let f = poller.connect_at(0.0);
            poller.send_at(
                0.001,
                f,
                b"POST /v1/models/m-a/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                    .to_vec(),
            );
            poller.close_at(2.0, f);

            vec![a, b, c, d, e, f]
        },
    );

    // Connection A: eight in-order responses.
    let a = parse_responses(&run.outputs[0]);
    let statuses: Vec<u16> = a.iter().map(|r| r.status).collect();
    assert_eq!(statuses, [200, 200, 200, 404, 405, 404, 400, 200]);
    assert_eq!(a[0].body, b"ok\n");
    let (correct, bits) = pimdl::serve::http::parse_infer_result(&a[1].body).unwrap();
    assert!(correct, "PIM result must match the host oracle");
    assert_eq!(
        bits,
        oracle.checksum_of(&indices_for(w, 0)).unwrap().to_bits(),
        "served checksum must come from the registered model's table"
    );
    // The /metrics response is chunked Prometheus text: parse and assert.
    assert_eq!(a[2].header("transfer-encoding"), Some("chunked"));
    let prom = std::str::from_utf8(&a[2].body).unwrap();
    let mut samples = 0;
    for line in prom.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        assert!(!line.starts_with('#'), "bad comment line: {line}");
        let (name, value) = line.split_once(' ').expect("sample line");
        assert!(
            name.starts_with("pimdl_")
                && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "bad metric name: {name}"
        );
        let v: f64 = value.parse().expect("numeric sample");
        assert!(v.is_finite());
        samples += 1;
    }
    assert!(samples >= 20, "full metric family expected, got {samples}");
    assert!(prom.contains("pimdl_requests_submitted_total 1\n"));
    assert!(prom.contains("pimdl_reactor_polls_total "));
    assert!(prom.contains("pimdl_reactor_accepts_total 6\n"));

    // Connection B: exactly one 400, marked close, nothing else — no
    // error-response kill-loop on the trailing garbage.
    let b = parse_responses(&run.outputs[1]);
    assert_eq!(b.len(), 1, "one response for a poisoned stream: {b:?}");
    assert_eq!(b[0].status, 400);
    assert_eq!(b[0].header("connection"), Some("close"));
    assert_eq!(
        find(&run.outputs[1], b"HTTP/1.1"),
        Some(0),
        "only one response on the wire"
    );
    assert_eq!(find(&run.outputs[1][1..], b"HTTP/1.1"), None);

    for (idx, want) in [(2usize, 413u16), (3, 431), (4, 505), (5, 501)] {
        let r = parse_responses(&run.outputs[idx]);
        assert_eq!(r.len(), 1, "conn {idx}: {r:?}");
        assert_eq!(r[0].status, want, "conn {idx}");
        assert_eq!(r[0].header("connection"), Some("close"), "conn {idx}");
    }

    // Ledger: exactly one well-formed infer entered (the bad-body and
    // unknown-model ones never reached admission).
    assert_eq!(run.snapshot.submitted, 1);
    assert_eq!(run.snapshot.completed, 1);
    assert_eq!(run.snapshot.rejected, 0);
    assert_eq!(run.snapshot.shard_wakeups, run.snapshot.batches);
    assert_eq!(run.snapshot.reactor.accepts, 6);
}

#[test]
fn pipelined_infers_answer_in_order_across_models() {
    let rt = runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let models: &[(&str, u64)] = &[("m-a", 101), ("m-b", 202)];
    let oracles = [
        rt.build_replica(101).unwrap(),
        rt.build_replica(202).unwrap(),
    ];
    const N: usize = 12;

    let run = run_sim(&rt, HttpConfig::default(), models, &|poller| {
        let a = poller.connect_at(0.0);
        // One write carrying N pipelined infers alternating between the
        // two registered models.
        let mut bytes = Vec::new();
        for k in 0..N {
            let model = models[k % 2].0;
            bytes.extend_from_slice(&infer_req(model, "t0", &csv(&indices_for(w, k))));
        }
        poller.send_at(0.001, a, bytes);
        poller.close_at(2.0, a);
        vec![a]
    });

    let responses = parse_responses(&run.outputs[0]);
    assert_eq!(responses.len(), N, "every pipelined request answered");
    for (k, r) in responses.iter().enumerate() {
        assert_eq!(r.status, 200, "request {k}");
        let (correct, bits) = pimdl::serve::http::parse_infer_result(&r.body).unwrap();
        assert!(correct, "request {k}");
        let want = oracles[k % 2]
            .checksum_of(&indices_for(w, k))
            .unwrap()
            .to_bits();
        assert_eq!(bits, want, "request {k}: in-order response for its model");
    }
    assert_eq!(run.snapshot.submitted, N as u64);
    assert_eq!(run.snapshot.completed, N as u64);
    // Batches are model-uniform, so the 12 alternating requests cannot
    // ride in fewer than 2 model-pure batches.
    assert!(run.snapshot.batches >= 2);
    assert_eq!(run.snapshot.shard_wakeups, run.snapshot.batches);
    assert_eq!(run.dispatches, run.wakeups);
}

#[test]
fn quota_exceeded_tenant_gets_429_while_others_complete() {
    let rt = runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let http_cfg = HttpConfig {
        tenants: vec![
            ("small".to_string(), TenantQuota::new(1, 1).unwrap()),
            ("big".to_string(), TenantQuota::new(1, 16).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };

    let run = run_sim(&rt, http_cfg, &[("m-a", 101)], &|poller| {
        // Tenant "small" (in-flight quota 1) bursts 4 infers; only the
        // first fits, the rest must bounce with 429.
        let s = poller.connect_at(0.0);
        let mut burst = Vec::new();
        for k in 0..4 {
            burst.extend_from_slice(&infer_req("m-a", "small", &csv(&indices_for(w, k))));
        }
        poller.send_at(0.001, s, burst);
        poller.close_at(2.0, s);

        // Tenant "big" (quota 16) sends 4 infers at the same time; all
        // must complete — small's quota trouble is invisible to big.
        let b = poller.connect_at(0.0);
        let mut burst = Vec::new();
        for k in 10..14 {
            burst.extend_from_slice(&infer_req("m-a", "big", &csv(&indices_for(w, k))));
        }
        poller.send_at(0.001, b, burst);
        poller.close_at(2.0, b);

        // An unconfigured tenant with no default quota → 403.
        let u = poller.connect_at(0.0);
        poller.send_at(
            0.001,
            u,
            infer_req("m-a", "nobody", &csv(&indices_for(w, 20))),
        );
        poller.close_at(2.0, u);

        vec![s, b, u]
    });

    let small: Vec<u16> = parse_responses(&run.outputs[0])
        .iter()
        .map(|r| r.status)
        .collect();
    assert_eq!(small, [200, 429, 429, 429], "quota admits exactly one");
    let big: Vec<u16> = parse_responses(&run.outputs[1])
        .iter()
        .map(|r| r.status)
        .collect();
    assert_eq!(big, [200, 200, 200, 200], "big tenant is unaffected");
    let unknown: Vec<u16> = parse_responses(&run.outputs[2])
        .iter()
        .map(|r| r.status)
        .collect();
    assert_eq!(unknown, [403]);

    assert_eq!(run.snapshot.submitted, 9);
    assert_eq!(run.snapshot.completed, 5);
    assert_eq!(run.snapshot.rejected, 4); // three 429s + one 403
    assert_eq!(run.snapshot.deadline_exceeded, 0);
}

/// Overload scenario: two tenants with 3:1 weights flood their own
/// registered models under a tight deadline. Stride scheduling must give
/// the heavy tenant ~3/4 of the completions while the light tenant keeps
/// completing (no starvation).
fn run_weighted_fair() -> (SimRun, usize, usize) {
    let t1 = runtime(64, f64::INFINITY)
        .service_model()
        .batch_service_s(1)
        .unwrap();
    // Deadline ~2 single-request service times: with a standing backlog,
    // a queued job only survives if its tenant's turn comes up quickly, so
    // completions track the stride scheduler's dispatch share rather than
    // the (symmetric) admission-rejection rate.
    let rt = runtime(16, 2.0 * t1);
    let w = rt.replica().workload();
    let http_cfg = HttpConfig {
        tenants: vec![
            ("heavy".to_string(), TenantQuota::new(3, 64).unwrap()),
            ("light".to_string(), TenantQuota::new(1, 64).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };
    const N: usize = 150;

    let run = run_sim(&rt, http_cfg, &[("m-a", 101), ("m-b", 202)], &|poller| {
        // Arrivals 10x faster than service: a standing backlog, so
        // the stride scheduler (not idleness) decides who runs.
        let dt = t1 / 10.0;
        let heavy = poller.connect_at(0.0);
        let light = poller.connect_at(0.0);
        for k in 0..N {
            let t = 0.001 + k as f64 * dt;
            poller.send_at(
                t,
                heavy,
                infer_req("m-a", "heavy", &csv(&indices_for(w, k))),
            );
            poller.send_at(
                t + dt / 3.0,
                light,
                infer_req("m-b", "light", &csv(&indices_for(w, 1000 + k))),
            );
        }
        let t_end = 0.001 + N as f64 * dt + 100.0 * t1;
        poller.close_at(t_end, heavy);
        poller.close_at(t_end, light);
        vec![heavy, light]
    });

    let count_ok = |out: &[u8]| {
        parse_responses(out)
            .iter()
            .filter(|r| r.status == 200)
            .count()
    };
    let heavy_ok = count_ok(&run.outputs[0]);
    let light_ok = count_ok(&run.outputs[1]);
    (run, heavy_ok, light_ok)
}

#[test]
fn weighted_fair_sharing_holds_under_overload() {
    let (run, heavy_ok, light_ok) = run_weighted_fair();

    // Every request terminated exactly one way.
    assert_eq!(run.snapshot.submitted, 300);
    assert_eq!(
        run.snapshot.completed + run.snapshot.rejected + run.snapshot.deadline_exceeded,
        300
    );
    assert_eq!(run.snapshot.completed as usize, heavy_ok + light_ok);
    assert!(
        run.snapshot.rejected + run.snapshot.deadline_exceeded > 0,
        "the scenario must actually overload"
    );

    // The weighted-fair bound: weight-3 tenant gets ~3/4 of completions.
    let share = heavy_ok as f64 / (heavy_ok + light_ok) as f64;
    assert!(
        (0.60..=0.90).contains(&share),
        "heavy share {share:.3} outside the 3:1 weighted-fair bound \
         (heavy {heavy_ok}, light {light_ok})"
    );
    assert!(
        light_ok > 0,
        "the light tenant must keep completing (no starvation)"
    );

    // Reactor invariants carry over to the HTTP front end.
    assert_eq!(run.snapshot.shard_wakeups, run.snapshot.batches);
    assert_eq!(run.dispatches, run.wakeups);
    assert_eq!(run.snapshot.reactor.spurious_wakeups, 0);
}

/// The quiescence contract (shared with `ServerLoop` and the fabric loop,
/// each pinned in its own suite): with no shutdown wake, two pipelined
/// infers — half a batch — from a client that hangs up immediately are
/// still executed when the flush window expires (final drain), the loop
/// exits on quiescence, and accept-error counters recorded on the reactor
/// survive into the final snapshot.
#[test]
fn final_drain_and_accept_errors_reach_the_snapshot() {
    let rt = runtime(64, f64::INFINITY);
    let w = rt.replica().workload();

    let run = run_sim(&rt, HttpConfig::default(), &[("m-a", 101)], &|poller| {
        for _ in 0..2 {
            poller.stats().record_accept_error();
        }
        let a = poller.connect_at(0.0);
        let mut bytes = Vec::new();
        for k in 0..2 {
            bytes.extend_from_slice(&infer_req("m-a", "t0", &csv(&indices_for(w, k))));
        }
        poller.send_at(0.05, a, bytes);
        poller.close_at(0.0501, a);
        vec![a]
    });

    assert_eq!(run.snapshot.submitted, 2);
    assert_eq!(
        run.snapshot.completed, 2,
        "final drain must flush the partial batch"
    );
    assert_eq!(run.snapshot.deadline_exceeded, 0);
    assert_eq!(run.snapshot.batches, 1, "one partial batch of two");
    assert_eq!(run.snapshot.reactor.accept_errors, 2);
}

#[test]
fn weighted_fair_runs_are_bit_identical() {
    let (a, a_heavy, a_light) = run_weighted_fair();
    let (b, b_heavy, b_light) = run_weighted_fair();
    assert_eq!(
        a.snapshot, b.snapshot,
        "metrics snapshots (incl. reactor counters) must be bit-identical"
    );
    assert_eq!(a.outputs, b.outputs, "wire bytes must be identical");
    assert_eq!((a.dispatches, a.wakeups), (b.dispatches, b.wakeups));
    assert_eq!((a_heavy, a_light), (b_heavy, b_light));
}

/// Refuse before paying: 429 (tenant quota), 403 (unknown tenant), 503
/// (queue full) and 400 (index past the codebook) are all decided before
/// the replica runs its reference gather — only the two admitted jobs
/// cost one.
#[test]
fn refused_infers_cost_no_reference_gather() {
    let rt = runtime(2, f64::INFINITY);
    let w = rt.replica().workload();
    let replica = rt.build_replica(101).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("m-a", Arc::clone(&replica)).unwrap();
    let http_cfg = HttpConfig {
        tenants: vec![
            ("small".to_string(), TenantQuota::new(1, 1).unwrap()),
            ("big".to_string(), TenantQuota::new(1, 16).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };

    let run = run_registry(&rt, http_cfg, registry, &|poller| {
        // One write, so every request is handled before the first batch
        // leaves the 2-deep queue.
        let a = poller.connect_at(0.0);
        let mut bytes = Vec::new();
        let tenants = ["small", "small", "nobody", "big", "big", "big"];
        for (k, tenant) in tenants.into_iter().enumerate() {
            bytes.extend_from_slice(&infer_req("m-a", tenant, &csv(&indices_for(w, k))));
        }
        let past_codebook = vec![w.ct as u16; w.n * w.cb];
        bytes.extend_from_slice(&infer_req("m-a", "big", &csv(&past_codebook)));
        poller.send_at(0.001, a, bytes);
        poller.close_at(2.0, a);
        vec![a]
    });

    let statuses: Vec<u16> = parse_responses(&run.outputs[0])
        .iter()
        .map(|r| r.status)
        .collect();
    assert_eq!(statuses, [200, 429, 403, 200, 503, 503, 400]);
    assert_eq!(run.snapshot.submitted, 6);
    assert_eq!(run.snapshot.rejected, 4);
    assert_eq!(run.snapshot.completed, 2);
    assert_eq!(
        replica.reference_gathers(),
        2,
        "one reference gather per admitted job, none per refusal"
    );
}
