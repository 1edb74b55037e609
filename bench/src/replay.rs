//! The traced pass of the serving workloads: a fixed sample of the
//! workload's own generated queries replayed, one batch at a time, through
//! the same public layer calls in the order the server makes them —
//! decode → checksum → admission → batcher → service model → execute →
//! encode (plus the frame codec and hash ring on the fabric, the HTTP
//! parser and fair batcher on HTTP) — with a span around each call.
//! Nanosecond-scale calls are also timed in tight loops (trace 0, "the
//! probes"), where two clock reads per call would drown them.

use pimdl_serve::codec::{self, LineBuffer};
use pimdl_serve::fabric::{measure_loopback_rtt, Frame, FrameDecoder};
use pimdl_serve::http::{self, HttpLimits, HttpParser};
use pimdl_serve::{
    AdmissionQueue, ContinuousBatcher, FairBatcher, HashRing, Histogram, MetricsSnapshot,
    ReplicaModel, Request, Runtime, TaggedJob,
};

use crate::serving::{fabric_tables, Inputs, Kind, HTTP_MODELS};
use crate::spec::Metrics;
use crate::trace::Recorder;
use crate::Res;

/// Iterations of each tight-loop probe.
const PROBE_ITERS: u64 = 10_000;

/// Times `f` `PROBE_ITERS` times under one span; ns per call.
fn probe(rec: &mut Recorder, layer: &'static str, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    let timed = rec.timed(layer, PROBE_ITERS as usize, || {
        f(i);
        i += 1;
        Ok::<(), std::convert::Infallible>(())
    });
    timed.unwrap_or_else(|never| match never {})
}

fn dummy_request(id: u64) -> Request {
    Request {
        id,
        arrival_s: 0.0,
        deadline_s: f64::INFINITY,
        indices: Vec::new(),
        expected_checksum: 0.0,
    }
}

pub fn serving(
    kind: Kind,
    inputs: &Inputs,
    rt: &Runtime,
    snap: &MetricsSnapshot,
    client_p50_ms: f64,
    des_p50_ms: f64,
    m: &mut Metrics,
) -> Res<Recorder> {
    let cfg = *rt.config();
    let max_batch = cfg.policy.max_batch;
    let mut rec = Recorder::new();

    // ---- probes (trace 0) -------------------------------------------------
    let mut queue = AdmissionQueue::new(cfg.queue_capacity)?;
    let ns = probe(&mut rec, "serve.admission.op", |i| {
        let _ = queue.try_admit(dummy_request(i));
        std::hint::black_box(queue.pop());
    });
    m.set("serve.admission.op_ns", ns);
    let hist = Histogram::log_time();
    let ns = probe(&mut rec, "serve.metrics.record", |i| {
        hist.record(1e-4 * (1 + i % 100) as f64);
    });
    m.set("serve.metrics.record_ns", ns);
    let tenants: Vec<_> = HTTP_MODELS
        .iter()
        .map(|&(_, _, t)| (t.to_string(), Default::default()))
        .collect();
    let mut fair = FairBatcher::new(cfg.policy, cfg.queue_capacity, &tenants, None)?;
    if kind == Kind::HttpRt {
        let ns = probe(&mut rec, "serve.registry.op", |i| {
            let (model, _, tenant) = HTTP_MODELS[(i % 2) as usize];
            let _ = fair.admit(TaggedJob {
                request: dummy_request(i),
                tenant: tenant.to_string(),
                model: model.to_string(),
            });
            if let Some((_, jobs)) = fair.take_batch() {
                jobs.iter().for_each(|j| fair.release(&j.tenant));
            }
        });
        m.set("serve.registry.op_ns", ns);
    } else {
        let mut batcher = ContinuousBatcher::new(cfg.policy)?;
        let ns = probe(&mut rec, "serve.batcher.op", |i| {
            batcher.push(dummy_request(i));
            if batcher.is_full() {
                std::hint::black_box(batcher.take());
            }
        });
        m.set("serve.batcher.op_ns", ns);
    }
    let tables = fabric_tables();
    if kind == Kind::FabricSmall {
        let mut ring = HashRing::new(pimdl_engine::fabric::DEFAULT_VNODES);
        (0..tables.len() as u32).for_each(|s| ring.add_shard(s));
        let ns = probe(&mut rec, "serve.supervisor.ring_lookup", |i| {
            std::hint::black_box(ring.owner_of(&tables[i as usize % tables.len()].0));
        });
        m.set("serve.supervisor.ring_lookup_ns", ns);
        m.set(
            "serve.fabric.loopback_rtt_us",
            measure_loopback_rtt(64, 500)? * 1e6,
        );
        m.set(
            "serve.fabric.loopback_rtt_64k_us",
            measure_loopback_rtt(64 * 1024, 100)? * 1e6,
        );
    }

    // ---- replay (traces 1..) ----------------------------------------------
    let sample = if kind == Kind::LineLarge { 32 } else { 256 };
    let replica_of = |route: usize| -> &ReplicaModel {
        match kind {
            Kind::LineSmall | Kind::LineLarge => rt.replica(),
            _ => &inputs.oracles[route],
        }
    };
    let mut lines = LineBuffer::new();
    let mut parser = HttpParser::new(HttpLimits::default());
    let mut queue = AdmissionQueue::new(cfg.queue_capacity)?;
    let mut batcher = ContinuousBatcher::new(cfg.policy)?;
    let mut decoder = FrameDecoder::new();
    let mut batches = 0u64;
    // The fabric batches per table and HTTP per model, so the sample is
    // replayed route by route; the line servers have a single route.
    let mut by_route = vec![Vec::new(); inputs.oracles.len()];
    (0..sample).for_each(|k| by_route[inputs.route_of[k]].push(k));
    let groups = by_route
        .iter()
        .enumerate()
        .flat_map(|(route, ks)| ks.chunks(max_batch).map(move |g| (route, g)));
    for (route, group) in groups {
        let replica = replica_of(route);
        let mut tags = Vec::new();
        for &k in group {
            rec.next_trace();
            rec.span("serve", |rec| -> Res<()> {
                let indices = if kind == Kind::HttpRt {
                    rec.span("serve.http.parse", |_| -> Res<Vec<u16>> {
                        parser.push(&inputs.http_pool[k].bytes);
                        let req = parser
                            .next_request()
                            .map_err(|e| e.detail)?
                            .ok_or("replayed HTTP request incomplete")?;
                        std::hint::black_box(http::route(&req.method, &req.target));
                        Ok(http::parse_infer_body(&req.body)?)
                    })?
                } else {
                    let mut wire = format!("Q q{k}").into_bytes();
                    wire.extend_from_slice(&inputs.line_pool[k].suffix);
                    rec.span("serve.codec.parse", |_| -> Res<Vec<u16>> {
                        lines.push(&wire);
                        let line = lines.pop_line()?.ok_or("replayed line incomplete")?;
                        Ok(codec::parse_query(&line)?.indices)
                    })?
                };
                let req = rec.span("serve.shard.checksum", |_| {
                    replica.request_from_indices(k as u64, 0.0, f64::INFINITY, indices)
                })?;
                if kind == Kind::HttpRt {
                    let (model, _, tenant) = HTTP_MODELS[route];
                    rec.span("serve.registry.op", |_| {
                        fair.admit(TaggedJob {
                            request: req,
                            tenant: tenant.to_string(),
                            model: model.to_string(),
                        })
                    })
                    .map_err(|(_, why)| format!("replayed job refused: {why:?}"))?;
                } else {
                    let req = rec.span("serve.admission.op", |_| {
                        let _ = queue.try_admit(req);
                        queue.pop().expect("just admitted")
                    });
                    rec.span("serve.batcher.op", |_| batcher.push(req));
                }
                tags.push(format!("q{k}"));
                Ok(())
            })?;
        }
        batches += 1;
        rec.span("serve", |rec| -> Res<()> {
            let batch: Vec<Request> = if kind == Kind::HttpRt {
                rec.span("serve.registry.op", |_| {
                    let jobs = fair.take_batch().map_or_else(Vec::new, |(_, jobs)| jobs);
                    jobs.iter().for_each(|j| fair.release(&j.tenant));
                    jobs.into_iter().map(|j| j.request).collect()
                })
            } else {
                rec.span("serve.batcher.op", |_| batcher.take())
            };
            let service_s = rec.span("serve.shard.service_model", |_| {
                rt.service_model().batch_service_s(batch.len())
            })?;
            let batch = if kind == Kind::FabricSmall {
                let wire = rec.span("serve.fabric.frame_encode", |_| {
                    Frame::Execute {
                        batch_id: batches,
                        service_s,
                        table: tables[route].0.clone(),
                        requests: batch,
                    }
                    .encode()
                })?;
                let frame = rec.span("serve.fabric.frame_decode", |_| {
                    decoder.push(&wire);
                    decoder.next_frame()
                })?;
                match frame {
                    Some(Frame::Execute { requests, .. }) => requests,
                    other => return Err(format!("replayed frame decoded as {other:?}").into()),
                }
            } else {
                batch
            };
            let flags = rec.span("serve.shard.execute", |_| replica.execute_batch(&batch))?;
            if flags.iter().any(|&f| !f) {
                return Err("replayed batch mismatched its checksum".into());
            }
            if kind == Kind::FabricSmall {
                let wire = rec.span("serve.fabric.frame_encode", |_| {
                    Frame::ExecDone {
                        batch_id: batches,
                        flags: flags.clone(),
                    }
                    .encode()
                })?;
                rec.span("serve.fabric.frame_decode", |_| {
                    decoder.push(&wire);
                    decoder.next_frame()
                })?;
            }
            for (req, tag) in batch.iter().zip(&tags) {
                let bits = req.expected_checksum.to_bits();
                if kind == Kind::HttpRt {
                    rec.span("serve.http.encode", |_| {
                        let body = http::infer_result_body(true, bits);
                        std::hint::black_box(http::encode_response(
                            200,
                            "application/json",
                            &body,
                            true,
                        ));
                    });
                } else {
                    rec.span("serve.codec.encode", |_| {
                        std::hint::black_box(codec::encode_result(tag, true, bits));
                    });
                }
            }
            Ok(())
        })?;
    }

    // ---- ledger -----------------------------------------------------------
    let per_batch_us = |layer: &str| rec.total_self_us(layer) / batches.max(1) as f64;
    if kind == Kind::HttpRt {
        m.set("serve.http.parse_us", rec.mean_self_us("serve.http.parse"));
        m.set(
            "serve.http.encode_us",
            rec.mean_self_us("serve.http.encode"),
        );
    } else {
        m.set(
            "serve.codec.parse_us",
            rec.mean_self_us("serve.codec.parse"),
        );
        m.set(
            "serve.codec.encode_us",
            rec.mean_self_us("serve.codec.encode"),
        );
    }
    m.set(
        "serve.shard.checksum_us",
        rec.mean_self_us("serve.shard.checksum"),
    );
    let execute_batch_us = rec.mean_self_us("serve.shard.execute");
    m.set(
        "serve.shard.execute_us",
        execute_batch_us / max_batch as f64,
    );
    m.set(
        "serve.shard.service_model_us",
        rec.mean_self_us("serve.shard.service_model"),
    );
    if kind == Kind::FabricSmall {
        m.set(
            "serve.fabric.frame_encode_us",
            per_batch_us("serve.fabric.frame_encode"),
        );
        m.set(
            "serve.fabric.frame_decode_us",
            per_batch_us("serve.fabric.frame_decode"),
        );
    }

    // What the replayed layer calls and the modelled waits leave of the
    // client's median: sockets, epoll, wake-ups and queueing behind the
    // other outstanding requests. Internal tracing will later split it.
    let replayed_us = rec
        .spans()
        .iter()
        .filter(|s| s.trace_id > 0 && s.parent == 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .sum::<f64>()
        / sample as f64;
    let modelled_us = if kind == Kind::HttpRt {
        des_p50_ms * 1e3
    } else {
        let batch = (snap.mean_batch.round() as usize).clamp(1, max_batch);
        let service_us = rt.service_model().batch_service_s(batch)? / kind.speedup() * 1e6;
        (service_us - execute_batch_us).max(0.0)
    };
    m.set(
        "serve.unattributed_us",
        client_p50_ms * 1e3 - replayed_us - modelled_us,
    );
    m.set(
        "client.replay_ops_per_s",
        1e6 / replayed_us.max(f64::MIN_POSITIVE),
    );
    Ok(rec)
}
