//! Loopback smoke test of the real epoll reactor behind the HTTP front
//! end.
//!
//! Binds [`Runtime::serve_http`] to `127.0.0.1:0` with two registered
//! models and two named tenants, fires concurrent keep-alive clients
//! through [`HttpClient`], and checks every infer response against a
//! client-side checksum oracle. Runs in tier-1: no `#[ignore]`, and the
//! clock speedup keeps the whole test well under half a second of
//! simulated service time.

use std::net::TcpListener;
use std::sync::Arc;

use pimdl_engine::scheduler::TenantQuota;
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::server::HttpConfig;
use pimdl_serve::{http, HttpClient, ModelRegistry, Runtime, ServeConfig};
use pimdl_sim::PlatformConfig;
use pimdl_tensor::rng::DataRng;

const NUM_CLIENTS: usize = 2;
const PER_CLIENT: usize = 20;

fn csv(indices: &[u16]) -> Vec<u8> {
    indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes()
}

#[test]
fn http_loopback_two_tenants_two_models_match_oracle() {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let cfg = ServeConfig::example();
    let rt = Arc::new(Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap());
    let t1 = rt.service_model().batch_service_s(1).unwrap();
    let speedup = (t1 / 0.5e-3).max(1.0);

    // Two calibrated models from distinct table seeds; keep oracle handles
    // before the registry moves into the server thread.
    let model_a = rt.build_replica(101).unwrap();
    let model_b = rt.build_replica(202).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("m-a", Arc::clone(&model_a)).unwrap();
    registry.register("m-b", Arc::clone(&model_b)).unwrap();

    let http_cfg = HttpConfig {
        tenants: vec![
            ("alpha".to_string(), TenantQuota::new(1, 8).unwrap()),
            ("beta".to_string(), TenantQuota::new(2, 8).unwrap()),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = rt
        .serve_http(listener, speedup, http_cfg, registry)
        .unwrap();
    let addr = handle.addr();
    let w = rt.replica().workload();

    // One keep-alive connection per tenant, each pinned to its own model.
    let clients: Vec<_> = [("alpha", model_a), ("beta", model_b)]
        .into_iter()
        .enumerate()
        .map(|(c, (tenant, model))| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let target = format!("/v1/models/m-{}/infer", if c == 0 { "a" } else { "b" });
                let mut rng = DataRng::new(0x177E + c as u64);
                for k in 0..PER_CLIENT {
                    let indices: Vec<u16> =
                        (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
                    let oracle = model.checksum_of(&indices).unwrap().to_bits();
                    let resp = client
                        .request("POST", &target, &[("X-Tenant", tenant)], &csv(&indices))
                        .unwrap();
                    assert_eq!(resp.status, 200, "{tenant} req {k}: {:?}", resp.body);
                    let (correct, bits) = http::parse_infer_result(&resp.body).unwrap();
                    assert!(correct, "{tenant} req {k}: PIM mismatched the host");
                    assert_eq!(bits, oracle, "{tenant} req {k}: wrong checksum");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    // One more keep-alive connection walks the other routes in sequence.
    let mut probe = HttpClient::connect(addr).unwrap();
    let health = probe.request("GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    // No default quota: an unregistered tenant is refused (the body is
    // well-formed, so refusal happens at admission), keep-alive.
    let ghost_body = csv(&vec![0u16; w.n * w.cb]);
    let ghost = probe
        .request(
            "POST",
            "/v1/models/m-a/infer",
            &[("X-Tenant", "ghost")],
            &ghost_body,
        )
        .unwrap();
    assert_eq!(ghost.status, 403);

    let metrics = probe.request("GET", "/metrics", &[], &[]).unwrap();
    assert_eq!(metrics.status, 200);
    let ctype = metrics.header("content-type").unwrap_or_default();
    assert!(ctype.contains("version=0.0.4"), "content-type {ctype:?}");
    let text = String::from_utf8(metrics.body).unwrap();
    let total = (NUM_CLIENTS * PER_CLIENT) as u64;
    assert!(
        text.contains(&format!("pimdl_requests_completed_total {total}\n")),
        "live /metrics must report {total} completions:\n{text}"
    );

    let snap = handle.shutdown().unwrap();

    // Conservation across the wire: every infer terminated exactly once
    // (the ghost tenant's request is the single rejection).
    assert_eq!(snap.submitted, total + 1);
    assert_eq!(snap.completed, total);
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.deadline_exceeded, 0);

    // The reactor actually carried the traffic.
    assert_eq!(snap.reactor.accepts as usize, NUM_CLIENTS + 1);
    assert!(snap.batches >= total.div_ceil(4));
    assert!(snap.reactor.reads > 0 && snap.reactor.writes > 0);
}
