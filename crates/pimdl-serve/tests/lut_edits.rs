//! Every field of a fabric worker's LUT shape (`WorkerSpec.lut`), edited to
//! hostile values: each edited spec is refused with a typed error (on
//! load, or when the replica is built) or builds a replica that answers one
//! query, without a panic. Both ways a shape arrives are walked: the JSON
//! argv a worker decodes and a struct literal, which skips
//! `LutWorkload::new`. The walk is deterministic: a fixed list of edits per
//! field.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pimdl_engine::pipeline::PimDlEngine;
use pimdl_engine::EngineError;
use pimdl_serve::{ReplicaModel, ServeConfig, ServeError, WorkerSpec};
use pimdl_sim::{LutWorkload, PlatformConfig, SimError};
use pimdl_tensor::rng::DataRng;

type Field = (&'static str, fn(&mut LutWorkload) -> &mut usize);

/// The four dimensions of a LUT shape.
fn fields() -> [Field; 4] {
    [
        ("n", |w| &mut w.n),
        ("cb", |w| &mut w.cb),
        ("ct", |w| &mut w.ct),
        ("f", |w| &mut w.f),
    ]
}

/// The edits of a field holding `n`: 0, 1, n ± 1, 2n and large powers of
/// two up to the type's maximum.
fn edits(n: usize) -> [usize; 8] {
    [0, 1, n - 1, n + 1, 2 * n, 1 << 20, 1 << 40, usize::MAX]
}

/// The spec as the front end writes it to a worker's argv, with the LUT
/// shape written out by hand so that any value reaches the decoder.
fn spec_json(platform: &PlatformConfig, w: &LutWorkload) -> String {
    let platform = serde_json::to_string(platform).unwrap();
    format!(
        r#"{{"platform":{platform},"lut":{{"n":{},"cb":{},"ct":{},"f":{}}}}}"#,
        w.n, w.cb, w.ct, w.f
    )
}

/// What a worker does with a shape once it loads: build the replica and
/// answer one synthesized query. `Ok(true)` when the query ran and matched
/// its reference; a refusal must be one of the typed errors.
fn build_and_query(engine: &PimDlEngine, w: LutWorkload) -> Result<bool, ServeError> {
    let replica = ReplicaModel::build(engine, w, 17)?;
    let req = replica.make_request(0, 0.0, f64::INFINITY, &mut DataRng::new(5))?;
    Ok(replica.execute_batch(&[req])? == [true])
}

/// A refusal is one of three: the simulator's workload check, the
/// replica's size cap, or the tuner (no legal mapping: Eq. 5).
fn typed(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Sim(SimError::WorkloadMismatch { .. })
            | ServeError::Config { .. }
            | ServeError::Engine(EngineError::Tune(_))
    )
}

#[test]
fn every_lut_shape_edit_is_refused_or_serves_one_query() {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let engine = PimDlEngine::new(platform.clone());
    let base = ServeConfig::example().lut;
    let mut failures = Vec::new();
    let (mut walked, mut ran) = (0, 0);
    for (name, slot) in fields() {
        for value in edits(*slot(&mut base.clone())) {
            let mut literal = base;
            *slot(&mut literal) = value;
            walked += 1;
            let decoded = serde_json::from_str::<WorkerSpec>(&spec_json(&platform, &literal));
            // A zero or overflowing dimension never loads.
            if literal.validate().is_err() {
                if decoded.is_ok() {
                    failures.push(format!("{name} = {value}: loaded"));
                }
            } else {
                match decoded {
                    Ok(spec) if spec.lut == literal => {}
                    other => failures.push(format!("{name} = {value}: decoded as {other:?}")),
                }
            }
            // The literal reaches the build either way: the check must
            // hold without the decoder.
            let run = catch_unwind(AssertUnwindSafe(|| build_and_query(&engine, literal)));
            match run {
                Err(_) => failures.push(format!("{name} = {value}: panicked")),
                Ok(Ok(true)) => ran += 1,
                Ok(Ok(false)) => failures.push(format!("{name} = {value}: wrong result")),
                Ok(Err(e)) if typed(&e) => {}
                Ok(Err(e)) => failures.push(format!("{name} = {value}: refused as {e:?}")),
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    // Ten edits serve: n = 16, f = 64, and every CB and CT edit from 1 to
    // 2n. The others are zero, overflow, past the replica cap or leave
    // Eq. 5 unsolvable on 64 PEs.
    assert_eq!((walked, ran), (32, 10));
}
