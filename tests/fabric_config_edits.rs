//! Every field of a `FabricConfig`, edited to hostile values: each edited
//! config is refused by `FabricServerLoop::new` with a typed error, or
//! serves a scripted run on the virtual fabric (`sim::run`, whose
//! per-schedule check must pass). No edit may panic, abort or hang. The
//! walk is deterministic: a fixed list of edits per field, the integer
//! edits of `pimdl-serve`'s `lut_edits.rs` and, for the float, also NaN,
//! ±inf, 1e38, 1e-300 and −1. No edit goes through `Runtime::serve_fabric`,
//! which spawns one OS process per shard.

mod sim;

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pimdl::engine::fabric::FabricConfig;
use pimdl::serve::{FabricServerLoop, Metrics, Runtime, ServeError, VirtualClock};
use sim::{indices_for, tables, Front};

/// How long one edit may take before it counts as a hang (a served edit
/// runs in well under a second in a debug build).
const EDIT_TIMEOUT: Duration = Duration::from_secs(60);

/// The edits of an integer field holding `n`: 0, 1, n ± 1, 2n and large
/// powers of two up to the type's maximum.
fn edits(n: usize) -> [usize; 8] {
    [0, 1, n - 1, n + 1, 2 * n, 1 << 20, 1 << 40, usize::MAX]
}

/// The edits of a float field holding `x`: the integer edits as floats,
/// then NaN, ±inf, 1e38, 1e-300 and −1.
fn float_edits(x: f64) -> [f64; 14] {
    [
        0.0,
        1.0,
        x - 1.0,
        x + 1.0,
        2.0 * x,
        (1u64 << 20) as f64,
        (1u64 << 40) as f64,
        usize::MAX as f64,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e38,
        1e-300,
        -1.0,
    ]
}

/// Every edit of the walk, labelled: one field of the example config set
/// to one hostile value.
fn walk() -> Vec<(String, FabricConfig)> {
    let base = FabricConfig::example();
    let mut out = Vec::new();
    for num_shards in edits(base.num_shards) {
        let cfg = FabricConfig { num_shards, ..base };
        out.push((format!("num_shards = {num_shards}"), cfg));
    }
    for hello_timeout_s in float_edits(base.hello_timeout_s) {
        let cfg = FabricConfig {
            hello_timeout_s,
            ..base
        };
        out.push((format!("hello_timeout_s = {hello_timeout_s:e}"), cfg));
    }
    out
}

/// What happened to one edited config that did not hang or panic.
#[derive(Debug)]
enum Edit {
    /// `FabricServerLoop::new` refused it.
    Refused(ServeError),
    /// Every worker said `Hello` and a client's queries over both tables
    /// were each answered once.
    Served,
}

/// Builds the loop on `fabric`, and if it is accepted serves every worker
/// and one client with six queries across two tables.
fn run(rt: &Runtime, fabric: FabricConfig) -> Edit {
    let tables = tables(&["t-0", "t-1"], 40);
    let clock = Arc::new(VirtualClock::new());
    let metrics = Arc::new(Metrics::new());
    if let Err(e) = FabricServerLoop::new(rt, fabric, &tables, clock, metrics) {
        return Edit::Refused(e);
    }
    let w = rt.replica().workload();
    let front = Front::Fabric {
        fabric,
        tables,
        net: None,
    };
    sim::run(rt, &front, &|s| {
        s.workers(0.0);
        let c = s.connect(0.0);
        for k in 0..6 {
            let route = s.routes()[k % 2];
            s.query(0.05, c, &format!("q{k}"), Some(route), &indices_for(w, k));
        }
        s.close(1.0, c);
    });
    Edit::Served
}

#[test]
fn every_fabric_config_edit_is_refused_or_serves_a_virtual_fabric() {
    let rt = Arc::new(sim::runtime(64, f64::INFINITY));
    let edits = walk();
    let mut failures = Vec::new();
    let mut refused = Vec::new();
    for (label, fabric) in &edits {
        // On its own thread, so that a hang is reported rather than waited
        // out (a hung edit's thread is left behind) and a panic is a
        // dropped sender.
        let (tx, rx) = mpsc::channel();
        let (rt, fabric) = (Arc::clone(&rt), *fabric);
        thread::spawn(move || tx.send(run(&rt, fabric)));
        match rx.recv_timeout(EDIT_TIMEOUT) {
            Err(RecvTimeoutError::Timeout) => {
                failures.push(format!("{label}: no answer in {EDIT_TIMEOUT:?}"));
            }
            Err(RecvTimeoutError::Disconnected) => failures.push(format!("{label}: panicked")),
            Ok(Edit::Served) => {}
            Ok(Edit::Refused(ServeError::Engine(_) | ServeError::Config { .. })) => {
                refused.push(label.as_str());
            }
            Ok(other) => failures.push(format!("{label}: {other:?}")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    // Before their cap, 2^40 shards became 0 after a `u32` cast, and
    // 2^64 − 1 shards looped over 2^32 − 1 ids.
    for capped in [
        "num_shards = 1099511627776",
        "num_shards = 18446744073709551615",
    ] {
        assert!(refused.contains(&capped), "{capped} was not refused");
    }
    // 13 edits serve: 1 to 4 shards, and every finite positive timeout.
    assert_eq!((edits.len(), edits.len() - refused.len()), (22, 13));
}
