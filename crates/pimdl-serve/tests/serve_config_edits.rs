//! Every numeric field of a `ServeConfig`, edited to hostile values: each
//! edited config is refused by `Runtime::new` with a typed error, or builds
//! a runtime whose `run_virtual` finishes a 20-request open loop with every
//! record terminal. No edit may panic, abort or hang. The walk is
//! deterministic: a fixed list of edits per field, the integer edits of
//! `lut_edits.rs` and, for floats, also NaN, ±inf, 1e38, 1e-300 and −1.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::{OpenLoop, Runtime, ServeConfig, ServeError};
use pimdl_sim::PlatformConfig;

/// How long one edit may take before it counts as a hang (a debug build
/// builds a runtime in well under a second).
const EDIT_TIMEOUT: Duration = Duration::from_secs(60);

const REQUESTS: usize = 20;

type IntField = (&'static str, fn(&mut ServeConfig) -> &mut usize);
type FloatField = (&'static str, fn(&mut ServeConfig) -> &mut f64);

/// The `usize` fields of a config, nested ones by their path (the `u64`
/// `table_seed` is walked apart).
fn int_fields() -> [IntField; 11] {
    [
        ("policy.max_batch", |c| &mut c.policy.max_batch),
        ("base.batch", |c| &mut c.base.batch),
        ("base.seq_len", |c| &mut c.base.seq_len),
        ("base.v", |c| &mut c.base.v),
        ("base.ct", |c| &mut c.base.ct),
        ("lut.n", |c| &mut c.lut.n),
        ("lut.cb", |c| &mut c.lut.cb),
        ("lut.ct", |c| &mut c.lut.ct),
        ("lut.f", |c| &mut c.lut.f),
        ("num_shards", |c| &mut c.num_shards),
        ("queue_capacity", |c| &mut c.queue_capacity),
    ]
}

/// The float fields of a config.
fn float_fields() -> [FloatField; 2] {
    [
        ("policy.max_wait_s", |c| &mut c.policy.max_wait_s),
        ("deadline_s", |c| &mut c.deadline_s),
    ]
}

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
fn walk() -> Vec<(String, ServeConfig)> {
    let base = ServeConfig::example();
    let mut out = Vec::new();
    for (name, slot) in int_fields() {
        for value in edits(*slot(&mut base.clone())) {
            let mut cfg = base;
            *slot(&mut cfg) = value;
            out.push((format!("{name} = {value}"), cfg));
        }
    }
    for value in edits(base.table_seed as usize) {
        let cfg = ServeConfig {
            table_seed: value as u64,
            ..base
        };
        out.push((format!("table_seed = {value}"), cfg));
    }
    for (name, slot) in float_fields() {
        for value in float_edits(*slot(&mut base.clone())) {
            let mut cfg = base;
            *slot(&mut cfg) = value;
            out.push((format!("{name} = {value:e}"), cfg));
        }
    }
    out
}

/// What happened to one edited config.
#[derive(Debug)]
enum Run {
    /// `Runtime::new` refused it.
    Refused(ServeError),
    /// The open loop ran; whether every request ended in one terminal
    /// record.
    Served(Result<bool, ServeError>),
    Panicked,
}

fn run(cfg: ServeConfig) -> Run {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let served = catch_unwind(AssertUnwindSafe(|| {
        let rt = match Runtime::new(platform, TransformerShape::tiny(), cfg) {
            Ok(rt) => rt,
            Err(e) => return Run::Refused(e),
        };
        let load = OpenLoop {
            rate_rps: 1000.0,
            num_requests: REQUESTS,
            seed: 3,
        };
        Run::Served(rt.run_virtual(&load).map(|r| r.conserves(REQUESTS)))
    }));
    served.unwrap_or(Run::Panicked)
}

/// A refusal is a configuration error, the engine's (its own validation,
/// or the tuner finding no legal mapping) or the simulator's workload check.
fn typed(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Config { .. } | ServeError::Engine(_) | ServeError::Sim(_)
    )
}

#[test]
fn every_serve_config_edit_is_refused_or_serves_an_open_loop() {
    let edits = walk();
    let mut failures = Vec::new();
    let mut refused = Vec::new();
    for (label, cfg) in &edits {
        // On its own thread, so that a hang is reported rather than waited
        // out; a hung edit's thread is left behind.
        let (tx, rx) = mpsc::channel();
        let cfg = *cfg;
        thread::spawn(move || tx.send(run(cfg)));
        match rx.recv_timeout(EDIT_TIMEOUT) {
            Err(_) => failures.push(format!("{label}: no answer in {EDIT_TIMEOUT:?}")),
            Ok(Run::Served(Ok(true))) => {}
            Ok(Run::Refused(e)) if typed(&e) => refused.push(label.as_str()),
            Ok(other) => failures.push(format!("{label}: {other:?}")),
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    // Before their caps, the first of these priced a million batch sizes
    // and the second aborted allocating per-shard state.
    for capped in ["policy.max_batch = 1048576", "num_shards = 1099511627776"] {
        assert!(refused.contains(&capped), "{capped} was not refused");
    }
    // 70 edits serve: every seed, every nonzero `base.batch` (each dispatch
    // overrides it) and each in-range value of the other fields.
    assert_eq!((edits.len(), edits.len() - refused.len()), (124, 70));
}
