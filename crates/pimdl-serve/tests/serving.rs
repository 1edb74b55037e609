//! End-to-end tests of the serving runtime. The open-loop run,
//! [`Runtime::run_virtual`], is the single-threaded virtual-clock event
//! loop, with exact batching/latency/shedding behavior, pinned ledgers and
//! configuration validation. The headline acceptance test runs the real
//! multi-threaded runtime instead: the epoll reactor on loopback and one
//! worker thread per shard ([`Shards::threaded`]). The other real-socket runs are `loopback.rs`'s.

mod line_clients;

use std::net::TcpListener;
use std::sync::Arc;

use pimdl_engine::scheduler::BatchingPolicy;
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::reactor::{Waker, WAKE_COMPLETION, WAKE_SHUTDOWN};
use pimdl_serve::runtime::MAX_SHARDS;
use pimdl_serve::{
    EpollPoller, EventSource, Metrics, OpenLoop, Outcome, RealClock, RequestRecord, Runtime,
    ServeConfig, ServeReport, ServerLoop, Shards,
};
use pimdl_sim::PlatformConfig;

fn platform() -> PlatformConfig {
    let mut p = PlatformConfig::upmem();
    p.num_pes = 64;
    p
}

fn runtime(cfg: ServeConfig) -> Runtime {
    Runtime::new(platform(), TransformerShape::tiny(), cfg).unwrap()
}

/// Service rate of a single shard at batch size 1 (requests per second) —
/// the natural unit for picking under/overload arrival rates.
fn single_rate(rt: &Runtime) -> f64 {
    1.0 / rt.service_model().batch_service_s(1).unwrap()
}

/// Wakes the server's shutdown when dropped, so a failing client
/// assertion still stops the server thread the scope then joins.
struct ShutdownOnDrop(Waker);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.wake();
    }
}

#[test]
fn acceptance_threaded_1000_requests_two_shards_zero_lost() {
    // The headline acceptance criterion: the real multi-threaded runtime
    // serves >= 1000 queries from concurrent loopback clients across >= 2
    // shards with zero lost and a metrics snapshot equal to the replies.
    // The queue is deeper than the whole run, so with unbounded deadlines
    // the only possible terminal state is completion — any timing.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 2048;
    assert!(cfg.num_shards >= 2);
    let rt = Arc::new(runtime(cfg));
    let speedup = line_clients::speedup(&rt);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut poller = EpollPoller::new(speedup).unwrap();
    poller.listen(listener).unwrap();
    let shutdown = poller.waker(WAKE_SHUTDOWN);
    let completion = poller.waker(WAKE_COMPLETION);
    let (clients, per_client) = (4, 300);
    let n = clients * per_client;

    let (kinds, snap, dispatches) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let clock = Arc::new(RealClock::accelerated(speedup).unwrap());
            let metrics = Arc::new(Metrics::new());
            let mut shards = Shards::threaded(&rt, &clock, completion).unwrap();
            let mut server = ServerLoop::new(&rt, clock, Arc::clone(&metrics)).unwrap();
            server.run(&mut poller, &mut shards).unwrap();
            assert_eq!(shards.in_flight(), 0, "a batch in flight at exit");
            (metrics.snapshot(), shards.dispatch_counts().to_vec())
        });
        let kinds = {
            let _stop = ShutdownOnDrop(shutdown);
            line_clients::query_concurrently(&rt, addr, clients, per_client)
        };
        let (snap, dispatches) = server.join().unwrap();
        (kinds, snap, dispatches)
    });

    // Every query answered exactly once with the oracle's checksum
    // (checked per reply by the clients), and nothing lost: unbounded
    // deadlines and a deep queue mean everything completes.
    assert_eq!(kinds, [n as u64, 0, 0]);
    // The server's ledger is the clients' replies.
    assert_eq!(snap.submitted, n as u64);
    assert_eq!(
        [snap.completed, snap.rejected, snap.deadline_exceeded],
        kinds
    );
    // Both shards took work.
    assert_eq!(dispatches.iter().sum::<u64>(), snap.batches);
    assert!(
        dispatches.iter().all(|&d| d > 0),
        "batches per shard: {dispatches:?}"
    );
    assert!(snap.batches as usize >= n / cfg.policy.max_batch);
    assert!(snap.p50_latency_s > 0.0);
}

#[test]
fn virtual_run_is_deterministic() {
    let rt = runtime(ServeConfig::example());
    let load = OpenLoop {
        rate_rps: 4.0 * single_rate(&rt),
        num_requests: 400,
        seed: 7,
    };
    let a = rt.run_virtual(&load).unwrap();
    let b = rt.run_virtual(&load).unwrap();
    assert_eq!(a, b, "same seed must give a bit-identical report");
    assert!(a.conserves(400));
    assert!(a.consistent_with_metrics());
    assert!(a.all_completed_correct());

    // A different seed gives a different arrival pattern.
    let c = rt.run_virtual(&OpenLoop { seed: 8, ..load }).unwrap();
    assert_ne!(a, c);
}

#[test]
fn virtual_overload_sheds_on_deadline_and_rejects_on_queue_full() {
    // Saturate: arrivals far above the two shards' combined capacity, a
    // short queue, and a tight deadline. The runtime must shed explicitly
    // (Rejected at admission, DeadlineExceeded in the queue) instead of
    // queueing without bound — and still account for every request.
    let probe = runtime(ServeConfig::example());
    let single = 1.0 / single_rate(&probe);
    // Twelve queued requests in all: three batches of four, the one being
    // formed counted too. A shorter bound lets every queued request leave
    // before a deadline of 1.5 service times.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 12;
    cfg.deadline_s = 1.5 * single;
    let rt = runtime(cfg);
    let n = 600;
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 40.0 * single_rate(&rt),
            num_requests: n,
            seed: 3,
        })
        .unwrap();
    assert!(report.conserves(n));
    assert!(report.consistent_with_metrics());
    assert!(report.all_completed_correct());
    assert!(report.completed() > 0, "some requests are served");
    assert!(
        report.rejected() > 0,
        "a full bounded queue must reject: {:?}",
        report.metrics
    );
    assert!(
        report.deadline_exceeded() > 0,
        "tight deadlines under overload must shed: {:?}",
        report.metrics
    );
    // The queue never grew past its bound.
    assert!(report.metrics.queue_depth_peak <= 12);
}

#[test]
fn virtual_light_load_flushes_on_max_wait_with_small_batches() {
    // Far below capacity: batches flush on the max_wait window, stay
    // small, and latency hugs the single-request floor.
    let rt = runtime(ServeConfig::example());
    let single = 1.0 / single_rate(&rt);
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 0.3 * single_rate(&rt),
            num_requests: 200,
            seed: 11,
        })
        .unwrap();
    assert!(report.conserves(200));
    assert_eq!(report.completed(), 200);
    assert!(
        report.metrics.mean_batch < 2.0,
        "light load forms small batches: {}",
        report.metrics.mean_batch
    );
    // Latency = wait window + service; well under 4 single-request times.
    let max_wait = rt.config().policy.max_wait_s;
    for r in &report.records {
        if let Outcome::Completed { latency_s, .. } = r.outcome {
            assert!(
                latency_s <= max_wait + 4.0 * single,
                "latency {latency_s} too high for light load"
            );
        }
    }
}

#[test]
fn virtual_heavy_load_flushes_on_max_batch() {
    // Above single-shard capacity: the backlog keeps batches pinned at
    // max_batch (flush-on-full dominates flush-on-window). The queue is
    // deeper than the run, so nothing is rejected.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 1000;
    let rt = runtime(cfg);
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 12.0 * single_rate(&rt),
            num_requests: 500,
            seed: 5,
        })
        .unwrap();
    assert!(report.conserves(500));
    assert_eq!(report.completed(), 500, "no deadline: everything serves");
    assert!(
        report.metrics.mean_batch > 3.0,
        "overload forms full batches: {}",
        report.metrics.mean_batch
    );
    assert_quantiles_read_the_ledger(&report);

    // Overload with a short queue and a tight deadline: the completed
    // latencies crowd into a narrow band (before the log-linear sketch,
    // all three quantiles read one bucket edge here).
    let probe = runtime(ServeConfig::example());
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 8;
    cfg.deadline_s = 1.5 / single_rate(&probe);
    let rt = runtime(cfg);
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 40.0 * single_rate(&rt),
            num_requests: 600,
            seed: 3,
        })
        .unwrap();
    assert!(report.conserves(600));
    assert!(report.rejected() > 0, "a full queue rejects");
    assert_quantiles_read_the_ledger(&report);
}

/// Holds each snapshot quantile to the ledger: with `x` the nearest-rank
/// order statistic (`ceil(n·q)`) of the completed latencies, the snapshot
/// reads `x ≤ q ≤ x·65/64`. Exact, because the pipeline records in the
/// histogram the same `latency_s` it puts in the ledger.
fn assert_quantiles_read_the_ledger(report: &ServeReport) {
    let mut latencies: Vec<f64> = report
        .records
        .iter()
        .filter_map(|r| match r.outcome {
            Outcome::Completed { latency_s, .. } => Some(latency_s),
            _ => None,
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let n = latencies.len();
    assert!(n > 0, "the run completes requests");
    let m = &report.metrics;
    for (q, read) in [
        (0.50, m.p50_latency_s),
        (0.95, m.p95_latency_s),
        (0.99, m.p99_latency_s),
    ] {
        let x = latencies[((n as f64 * q).ceil() as usize).clamp(1, n) - 1];
        assert!(
            x <= read && read <= x * 65.0 / 64.0,
            "p{}: snapshot {read} against ledger {x} ({n} completed)",
            q * 100.0
        );
    }
}

#[test]
fn virtual_sharding_balances_load() {
    // Four shards under sustained load: least-loaded routing keeps the
    // per-shard batch counts within a tight band.
    let mut cfg = ServeConfig::example();
    cfg.num_shards = 4;
    let rt = runtime(cfg);
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 10.0 * single_rate(&rt),
            num_requests: 800,
            seed: 13,
        })
        .unwrap();
    assert!(report.conserves(800));
    let mut per_shard = vec![0usize; 4];
    for r in &report.records {
        if let Outcome::Completed { shard, .. } = r.outcome {
            per_shard[shard] += 1;
        }
    }
    let max = *per_shard.iter().max().unwrap();
    let min = *per_shard.iter().min().unwrap();
    assert!(min > 0, "every shard serves work: {per_shard:?}");
    assert!(
        max <= 2 * min.max(1),
        "load imbalance too high: {per_shard:?}"
    );
}

#[test]
fn virtual_runs_gather_each_reference_once_on_its_shard() {
    // The reference checksum is gathered on the shard a request's batch is
    // dispatched to, once: N requests with none refused or shed gather N
    // times, and under overload only the completed ones gather.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 1000;
    let rt = runtime(cfg);
    let gathers = || rt.replica().reference_gathers();
    let n = 300;
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 2.0 * single_rate(&rt),
            num_requests: n,
            seed: 9,
        })
        .unwrap();
    assert_eq!(report.completed(), n);
    assert!(report.all_completed_correct());
    assert_eq!(gathers(), n as u64, "one gather per request");

    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 12;
    cfg.deadline_s = 1.5 / single_rate(&rt);
    let rt = runtime(cfg);
    let report = rt
        .run_virtual(&OpenLoop {
            rate_rps: 40.0 * single_rate(&rt),
            num_requests: n,
            seed: 3,
        })
        .unwrap();
    assert!(report.rejected() > 0 && report.deadline_exceeded() > 0);
    assert!(report.all_completed_correct());
    assert_eq!(
        rt.replica().reference_gathers(),
        report.completed() as u64,
        "a refused or shed request never gathers"
    );
}

#[test]
fn degenerate_configs_are_rejected_up_front() {
    let shape = TransformerShape::tiny();
    let mut cfg = ServeConfig::example();
    cfg.policy = BatchingPolicy {
        max_batch: 0,
        max_wait_s: 0.01,
    };
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());

    let mut cfg = ServeConfig::example();
    cfg.policy.max_wait_s = f64::NAN;
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());

    let mut cfg = ServeConfig::example();
    cfg.base.batch = 0;
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());

    let mut cfg = ServeConfig::example();
    cfg.num_shards = 0;
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());
    cfg.num_shards = MAX_SHARDS;
    assert!(cfg.validate().is_ok());
    cfg.num_shards = MAX_SHARDS + 1;
    assert!(cfg.validate().is_err());

    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 0;
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());

    let mut cfg = ServeConfig::example();
    cfg.deadline_s = -1.0;
    assert!(Runtime::new(platform(), shape.clone(), cfg).is_err());

    let rt = runtime(ServeConfig::example());
    assert!(rt
        .run_virtual(&OpenLoop {
            rate_rps: 0.0,
            num_requests: 10,
            seed: 0
        })
        .is_err());
    assert!(rt
        .run_virtual(&OpenLoop {
            rate_rps: 10.0,
            num_requests: 0,
            seed: 0
        })
        .is_err());
}

/// FNV-1a over every field of every ledger record, floats by their bits.
fn ledger_digest(records: &[RequestRecord]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.id);
        eat(r.arrival_s.to_bits());
        match r.outcome {
            Outcome::Completed {
                latency_s,
                shard,
                batch_size,
                correct,
            } => {
                eat(0);
                eat(latency_s.to_bits());
                eat(shard as u64);
                eat(batch_size as u64);
                eat(u64::from(correct));
            }
            Outcome::Rejected { at_s } => {
                eat(1);
                eat(at_s.to_bits());
            }
            Outcome::DeadlineExceeded { at_s } => {
                eat(2);
                eat(at_s.to_bits());
            }
        }
    }
    h
}

#[test]
fn virtual_ledgers_are_pinned() {
    // The virtual-clock ledgers of four loads, digested bit for bit. A
    // change to the driver, the pipeline, the batcher or the cost model
    // that moves one record's time by one ulp fails here; re-record only
    // for a change that means to move them.
    let single = 1.0 / single_rate(&runtime(ServeConfig::example()));
    let run = |cfg: ServeConfig, rate_x: f64, num_requests: usize, seed: u64| {
        let load = OpenLoop {
            rate_rps: rate_x / single,
            num_requests,
            seed,
        };
        let report = runtime(cfg).run_virtual(&load).unwrap();
        assert!(report.conserves(num_requests));
        report
    };

    let light = run(ServeConfig::example(), 0.3, 200, 11);
    assert_eq!(ledger_digest(&light.records), 0xb4ba_cc59_da47_b334);

    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 1000;
    let heavy = run(cfg, 12.0, 500, 5);
    assert_eq!(ledger_digest(&heavy.records), 0xad47_0d65_5f2d_e9cc);

    let mut cfg = ServeConfig::example();
    cfg.deadline_s = 3.0 * single;
    let mid = run(cfg, 6.0, 600, 9);
    assert_eq!(ledger_digest(&mid.records), 0x0f23_43ad_ae45_56ef);

    // The bound counts the batch being formed: 12 is a batch of 4 being
    // formed with 8 queued behind it, enough to shed on this deadline.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 12;
    cfg.deadline_s = 1.5 * single;
    let overload = run(cfg, 40.0, 600, 3);
    assert_eq!(
        (
            overload.completed(),
            overload.rejected(),
            overload.deadline_exceeded()
        ),
        (124, 448, 28)
    );
    // Re-recorded when `run_virtual` moved onto the connection core (the
    // counts above did not move): a queued request is shed a hair past its
    // deadline, as in every server, not at the next unrelated event.
    assert_eq!(ledger_digest(&overload.records), 0x032c_9710_be18_2428);
    for r in &overload.records {
        if let Outcome::DeadlineExceeded { at_s } = r.outcome {
            let late_s = at_s - (r.arrival_s + cfg.deadline_s);
            assert!(
                late_s > 0.0 && late_s <= 2e-9,
                "request {} shed {late_s} s past its deadline",
                r.id
            );
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in words {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn line_large_gathers_are_pinned() {
    // Both host gathers of a `line_large`-shaped request (n 32, CB 192,
    // CT 16, F 768), digested bit for bit: the reference checksum
    // (`checksum_of`) and every output element of the simulated-PE kernel
    // (`run_lut_kernel`), over the serving replica's seeded table and over
    // a saturated one whose columns sum to the INT8 extremes. Integer sums
    // are exact, so a gather rewrite must not move either digest.
    use pimdl_engine::pipeline::PimDlEngine;
    use pimdl_lutnn::kernels::lut_checksum_quant;
    use pimdl_lutnn::lut::QuantLutTable;
    use pimdl_serve::ReplicaModel;
    use pimdl_sim::exec::{run_lut_kernel, LutKernelData};
    use pimdl_sim::LutWorkload;
    use pimdl_tensor::quant::QuantMatrix;
    use pimdl_tensor::rng::DataRng;

    let w = LutWorkload {
        n: 32,
        cb: 192,
        ct: 16,
        f: 768,
    };
    let engine = PimDlEngine::new(platform());
    let mapping = engine.mapping_for(&w).unwrap();
    let replica = ReplicaModel::build(&engine, w, ServeConfig::example().table_seed).unwrap();
    let saturated = {
        let codes = (0..w.cb * w.ct * w.f)
            .map(|i| {
                let (k, j) = (i / w.f % w.ct, i % w.f);
                match j % 3 {
                    0 => -128,
                    1 => 127,
                    _ if k % 2 == 0 => 127,
                    _ => -127,
                }
            })
            .collect();
        let qm = QuantMatrix::from_codes(w.cb * w.ct, w.f, 0.05, codes).unwrap();
        QuantLutTable::from_parts(w.cb, w.ct, w.f, qm).unwrap()
    };
    let mut sums = Vec::new();
    let mut outputs = Vec::new();
    for seed in 1..=3u64 {
        let mut rng = DataRng::new(seed);
        let req = replica.make_request(seed, 0.0, 1.0, &mut rng).unwrap();
        sums.push(req.expected_checksum.to_bits());
        sums.push(replica.checksum_of(&req.indices).unwrap().to_bits());
        sums.push(
            lut_checksum_quant(w.n, &req.indices, &saturated)
                .unwrap()
                .to_bits(),
        );
        for table in [replica.table(), &saturated] {
            let data = LutKernelData {
                indices: &req.indices,
                table: table.table().codes(),
                scale: table.table().scale(),
            };
            let (out, _) = run_lut_kernel(engine.platform(), &w, &mapping, data).unwrap();
            outputs.extend(out.as_slice().iter().map(|v| u64::from(v.to_bits())));
        }
    }
    assert_eq!(sums[0], sums[1], "request checksum is checksum_of's");
    assert_eq!(
        (fnv(sums), fnv(outputs)),
        (0x8248_f54f_a2b9_ec50, 0x391c_c780_96e0_f3dd)
    );
}
