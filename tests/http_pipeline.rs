//! Deterministic conformance and fairness tests of the HTTP/1.1 front end
//! (`HttpServerLoop` on simulated `Shards`) through the SimPoller harness in
//! `sim/`: scripted connections carry raw HTTP bytes through the full
//! parse → route → admit → weighted-fair batch → execute → respond
//! pipeline, and the seeded schedule explorer splits, delays and cuts
//! them.

mod sim;

use pimdl::engine::scheduler::TenantQuota;
use pimdl::serve::HttpConfig;
use sim::{http_req, indices_for, infer_req, Front, Kind, Run, Script};

/// Schedules per explorer pass: the default run, and the long one.
const CASES: u64 = 64;
const LONG_CASES: u64 = 2000;

fn statuses(out: &[u8]) -> Vec<u16> {
    sim::responses(out).iter().map(|r| r.status).collect()
}

#[test]
fn conformance_corpus_scripted_statuses() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let front = Front::http(HttpConfig::default(), &[("m-a", 101)]);
    let run = sim::run(&rt, &front, &|s| {
        // Connection A: a pipelined keep-alive conversation that survives
        // a semantic 400 (bad infer body is not a framing error) and keeps
        // answering in order.
        let a = s.connect(0.0);
        s.request(0.001, a, http_req("GET", "/healthz", &[], b""));
        s.query(0.002, a, "t0", Some("m-a"), &indices_for(w, 0));
        s.request(0.003, a, http_req("GET", "/metrics", &[], b""));
        s.request(0.004, a, http_req("GET", "/nope", &[], b""));
        s.request(0.005, a, http_req("DELETE", "/healthz", &[], b""));
        s.query(0.006, a, "t0", Some("ghost"), &indices_for(w, 0));
        s.request(0.007, a, infer_req("m-a", "t0", "not,numbers"));
        s.request(0.008, a, http_req("GET", "/healthz", &[], b""));
        s.close(2.0, a);

        let mut flood = b"GET /healthz HTTP/1.1\r\n".to_vec();
        flood.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "x".repeat(9000)).as_bytes());
        let corpus: [&[u8]; 5] = [
            // B: malformed request line → exactly one 400 and a close —
            // the trailing garbage must not produce a kill-loop of further
            // error responses.
            b"GARBAGE\r\n\r\nmore garbage that must stay unanswered\r\n\r\n",
            // C: oversized declared body → 413.
            b"POST /v1/models/m-a/infer HTTP/1.1\r\nContent-Length: 300000\r\n\r\n",
            // D: header flood → 431.
            &flood,
            // E: unsupported version → 505.
            b"GET /healthz HTTP/2.0\r\n\r\n",
            // F: request body with Transfer-Encoding → 501.
            b"POST /v1/models/m-a/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ];
        for bytes in corpus {
            let c = s.connect(0.0);
            s.request(0.001, c, bytes.to_vec());
            s.close(2.0, c);
        }
    });

    // Connection A: eight in-order responses; the harness checked the
    // infer's checksum against the registered model's table.
    let a = sim::responses(&run.outputs[0]);
    let statuses_a: Vec<u16> = a.iter().map(|r| r.status).collect();
    assert_eq!(statuses_a, [200, 200, 200, 404, 405, 404, 400, 200]);
    assert_eq!(a[0].body, b"ok\n");
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

    // B..F: exactly one response each, marked close — for B no
    // error-response kill-loop on the trailing garbage.
    let b = &run.outputs[1];
    assert_eq!(b.windows(8).filter(|w| w == b"HTTP/1.1").count(), 1);
    for (idx, want) in [(1usize, 400u16), (2, 413), (3, 431), (4, 505), (5, 501)] {
        let r = sim::responses(&run.outputs[idx]);
        assert_eq!(r.len(), 1, "conn {idx}: {r:?}");
        assert_eq!(r[0].status, want, "conn {idx}");
        assert_eq!(r[0].header("connection"), Some("close"), "conn {idx}");
    }

    // Ledger: exactly one well-formed infer entered (the bad-body and
    // unknown-model ones never reached admission).
    assert_eq!(run.snapshot.submitted, 1);
    assert_eq!(run.snapshot.completed, 1);
    assert_eq!(run.snapshot.rejected, 0);
    assert_eq!(run.snapshot.reactor.accepts, 6);
    sim::pin("http conformance", &[&run], 0xB28E_454F_D0D6_A797);
}

#[test]
fn pipelined_infers_answer_in_order_across_models() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let models = ["m-a", "m-b"];
    const N: usize = 12;
    let front = Front::http(HttpConfig::default(), &[("m-a", 101), ("m-b", 202)]);
    let run = sim::run(&rt, &front, &|s| {
        // One write carrying N pipelined infers alternating between the
        // two registered models; the harness checks each in-order 200
        // against its own model's table.
        let a = s.connect(0.0);
        let infers = (0..N).map(|k| ("t0".to_string(), Some(models[k % 2]), indices_for(w, k)));
        s.burst(0.001, a, infers);
        s.close(2.0, a);
    });

    assert_eq!(statuses(&run.outputs[0]), [200; N]);
    assert_eq!(run.snapshot.submitted, N as u64);
    assert_eq!(run.snapshot.completed, N as u64);
    // Batches are model-uniform, so the 12 alternating requests cannot
    // ride in fewer than 2 model-pure batches.
    assert!(run.snapshot.batches >= 2);
    sim::pin("http pipelined", &[&run], 0x4EDB_4B75_EB06_8957);
}

#[test]
fn quota_exceeded_tenant_gets_429_while_others_complete() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    // "small" may have one request in flight, "big" sixteen, and unknown
    // tenants are refused.
    let cfg = HttpConfig {
        tenants: vec![
            ("small".to_string(), TenantQuota::new(1, 1).unwrap()),
            ("big".to_string(), TenantQuota::new(1, 16).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };
    let front = Front::http(cfg, &[("m-a", 101)]);
    let run = sim::run(&rt, &front, &|s| {
        // Tenant "small" (in-flight quota 1) bursts 4 infers; only the
        // first fits, the rest must bounce with 429. Tenant "big" (quota
        // 16) sends 4 at the same time; all must complete — small's quota
        // trouble is invisible to big. An unconfigured tenant with no
        // default quota → 403.
        for (tenant, ks) in [("small", 0..4), ("big", 10..14), ("nobody", 20..21)] {
            let c = s.connect(0.0);
            s.burst(
                0.001,
                c,
                ks.map(|k| (tenant.to_string(), None, indices_for(w, k))),
            );
            s.close(2.0, c);
        }
    });

    assert_eq!(
        statuses(&run.outputs[0]),
        [200, 429, 429, 429],
        "quota admits exactly one"
    );
    assert_eq!(
        statuses(&run.outputs[1]),
        [200; 4],
        "big tenant is unaffected"
    );
    assert_eq!(statuses(&run.outputs[2]), [403]);
    assert_eq!(run.snapshot.submitted, 9);
    assert_eq!(run.snapshot.completed, 5);
    assert_eq!(run.snapshot.rejected, 4); // three 429s + one 403
    assert_eq!(run.snapshot.deadline_exceeded, 0);
    assert_eq!(
        run.gathers, 5,
        "one reference gather per dispatched infer, none per 429 or 403"
    );
    sim::pin("http quota", &[&run], 0xC51C_148C_7DE0_AE86);
}

/// Overload scenario: two tenants with 3:1 weights flood their own
/// registered models under a tight deadline. Stride scheduling must give
/// the heavy tenant ~3/4 of the completions while the light tenant keeps
/// completing (no starvation). Returns the run and each tenant's 200s.
fn run_weighted_fair(drive: sim::Driver) -> (Run, usize, usize) {
    let t1 = sim::runtime(64, f64::INFINITY)
        .service_model()
        .batch_service_s(1)
        .unwrap();
    // Deadline ~2 single-request service times: with a standing backlog,
    // a queued job only survives if its tenant's turn comes up quickly, so
    // completions track the stride scheduler's dispatch share rather than
    // the (symmetric) admission-rejection rate.
    let rt = sim::runtime(16, 2.0 * t1);
    let w = rt.replica().workload();
    let cfg = HttpConfig {
        tenants: vec![
            ("heavy".to_string(), TenantQuota::new(3, 64).unwrap()),
            ("light".to_string(), TenantQuota::new(1, 64).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };
    const N: usize = 150;
    let front = Front::http(cfg, &[("m-a", 101), ("m-b", 202)]);
    let script = |s: &mut Script| {
        // Arrivals 10x faster than service: a standing backlog, so the
        // stride scheduler (not idleness) decides who runs.
        let dt = t1 / 10.0;
        let heavy = s.connect(0.0);
        let light = s.connect(0.0);
        for k in 0..N {
            let t = 0.001 + k as f64 * dt;
            s.query(t, heavy, "heavy", Some("m-a"), &indices_for(w, k));
            s.query(
                t + dt / 3.0,
                light,
                "light",
                Some("m-b"),
                &indices_for(w, 1000 + k),
            );
        }
        let t_end = 0.001 + N as f64 * dt + 100.0 * t1;
        s.close(t_end, heavy);
        s.close(t_end, light);
    };
    let run = drive(&rt, &front, &script);
    let ok = |out: &[u8]| statuses(out).iter().filter(|&&s| s == 200).count();
    let (heavy_ok, light_ok) = (ok(&run.outputs[0]), ok(&run.outputs[1]));
    (run, heavy_ok, light_ok)
}

#[test]
fn weighted_fair_sharing_holds_under_overload() {
    let (run, heavy_ok, light_ok) = run_weighted_fair(sim::run);

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
    assert_eq!(run.snapshot.reactor.spurious_wakeups, 0);
    sim::pin("http weighted fair", &[&run], 0x5DE6_8EBB_B58F_8493);
}

#[test]
fn final_drain_and_accept_errors_reach_the_snapshot() {
    sim::final_drain(
        Front::http(HttpConfig::default(), &[("m-a", 101)]),
        0xF248_40F9_7651_D241,
    );
}

#[test]
fn weighted_fair_runs_are_bit_identical() {
    let (run, _, _) = run_weighted_fair(sim::replay);
    sim::pin("http weighted fair", &[&run], 0x5DE6_8EBB_B58F_8493);
}

#[test]
fn refused_infers_cost_no_reference_gather() {
    sim::refuse_before_paying(
        Front::http(HttpConfig::default(), &[("m-a", 101)]),
        0xC1D3_6E67_8502_1793,
    );
}

#[test]
fn explored_http_schedules_terminate_exactly_once() {
    sim::explore(Kind::Http, CASES, 0x8B80_58E1_074F_2EBB);
}

#[test]
#[ignore = "long explorer pass, run by scripts/check.sh"]
fn explored_http_schedules_long() {
    sim::explore(Kind::Http, LONG_CASES, 0x6B4A_2008_55B8_4BCD);
}
