//! Host-kernel benchmark trajectory: the CCS+LUT kernels from scalar
//! two-pass, through the interleaved-layout two-pass, to the fused tiled
//! kernel and the fused kernel over the persistent worker pool — measured
//! as end-to-end rows/s at a serving-realistic shape.
//!
//! Every variant computes the identical result (`lookup(encode(x))`,
//! bit-for-bit); only the layouts, fusion, and parallelism differ. The
//! output checksum is cross-checked here so the reported numbers cannot
//! silently drift onto different math.

use std::time::Instant;

use serde::Serialize;

use pimdl_lutnn::kernels::{lut_linear_fused, lut_linear_fused_parallel};
use pimdl_lutnn::lut::LutTable;
use pimdl_lutnn::pq::ProductQuantizer;
use pimdl_lutnn::LutError;
use pimdl_tensor::pool::WorkerPool;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;

use crate::report::TextTable;

/// The AMM shape a variant is measured at.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KernelShape {
    /// Input rows (tokens) per call.
    pub n: usize,
    /// Hidden (input feature) dimension.
    pub h: usize,
    /// Sub-vector length.
    pub v: usize,
    /// Centroids per codebook.
    pub ct: usize,
    /// Output features.
    pub f: usize,
}

impl KernelShape {
    /// Serving-realistic default: a BERT-base-like projection
    /// (N=256, H=768, V=4, CT=16, F=768).
    pub fn serving() -> Self {
        KernelShape {
            n: 256,
            h: 768,
            v: 4,
            ct: 16,
            f: 768,
        }
    }

    /// Cut-down shape for smoke runs in CI.
    pub fn smoke() -> Self {
        KernelShape {
            n: 64,
            h: 256,
            v: 4,
            ct: 16,
            f: 256,
        }
    }
}

/// One measured kernel variant.
#[derive(Debug, Clone, Serialize)]
pub struct KernelVariant {
    /// Variant name.
    pub name: String,
    /// Best-of-reps wall time for one full call, seconds.
    pub best_s: f64,
    /// Input rows processed per second at the best time.
    pub rows_per_s: f64,
    /// Speedup over the scalar two-pass baseline.
    pub speedup_vs_scalar: f64,
}

/// Full benchmark result.
#[derive(Debug, Clone, Serialize)]
pub struct KernelBenchResult {
    /// Shape measured.
    pub shape: KernelShape,
    /// Timed repetitions per variant (best is kept).
    pub reps: usize,
    /// Worker-pool width used by the `fused+pool` variant.
    pub pool_threads: usize,
    /// Output checksum (identical across variants by construction).
    pub checksum: f64,
    /// Measured variants, in trajectory order.
    pub variants: Vec<KernelVariant>,
}

impl KernelBenchResult {
    /// Rows/s of a named variant (panics if absent — variants are fixed).
    pub fn rows_per_s(&self, name: &str) -> f64 {
        self.variants
            .iter()
            .find(|v| v.name == name)
            .map(|v| v.rows_per_s)
            .expect("known variant name")
    }
}

fn time_best<F: FnMut() -> Matrix>(reps: usize, mut f: F) -> (f64, Matrix) {
    let mut out = f(); // warm-up (also the checksum witness)
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

fn checksum(m: &Matrix) -> f64 {
    m.as_slice().iter().map(|&v| f64::from(v)).sum()
}

/// Runs the four-variant trajectory at `shape`, `reps` timed repetitions
/// each (best kept), with the `fused+pool` variant spanning the global
/// worker pool (sized to the machine's available parallelism).
///
/// # Errors
///
/// Propagates LUT-NN configuration errors (impossible for the built-in
/// shapes) and panics if any variant's output diverges bit-wise from the
/// scalar reference.
pub fn run(shape: &KernelShape, reps: usize) -> Result<KernelBenchResult, LutError> {
    run_with_pool(shape, reps, WorkerPool::global().threads())
}

/// [`run`] with an explicit worker-pool width for the `fused+pool`
/// variant, so the multi-threaded point can be pinned to a known number
/// of physical cores instead of whatever the global pool auto-sized to.
///
/// # Errors
///
/// Rejects `pool_threads == 0`; otherwise as [`run`].
pub fn run_with_pool(
    shape: &KernelShape,
    reps: usize,
    pool_threads: usize,
) -> Result<KernelBenchResult, LutError> {
    if pool_threads == 0 {
        return Err(LutError::Config {
            op: "bench_kernels::run_with_pool",
            detail: "pool_threads must be >= 1".to_string(),
        });
    }
    let KernelShape { n, h, v, ct, f } = *shape;
    let cb = h / v;
    let mut rng = DataRng::new(42);
    let x = rng.normal_matrix(n, h, 0.0, 1.0);
    let centroids = rng.normal_matrix(cb * ct, v, 0.0, 1.0);
    let weight = rng.normal_matrix(h, f, 0.0, 0.05);
    let pq = ProductQuantizer::from_centroids(centroids, v, ct)?;
    let lut = LutTable::build(&pq, &weight)?;
    let cbs = pq.interleaved();

    let (scalar_s, reference) = time_best(reps, || {
        lut.lookup(&pq.encode(&x).expect("shape checked"))
            .expect("indices in range")
    });
    // "blocked" = the layout stage alone: interleaved CCS feeding the
    // row-major gather, still two passes with a materialized IndexMatrix.
    // (Row-major is the only table layout: pimdl-serve's integrity check
    // streams it too, through the fused INT8 gather.)
    let (blocked_s, blocked_out) = time_best(reps, || {
        lut.lookup(&cbs.encode(&x).expect("shape checked"))
            .expect("indices in range")
    });
    let (fused_s, fused_out) = time_best(reps, || {
        lut_linear_fused(&x, &cbs, &lut).expect("shape checked")
    });
    let (pool_s, pool_out) = time_best(reps, || {
        lut_linear_fused_parallel(&x, &cbs, &lut, pool_threads).expect("shape checked")
    });

    for (name, out) in [
        ("blocked", &blocked_out),
        ("fused", &fused_out),
        ("fused+pool", &pool_out),
    ] {
        assert_eq!(
            reference.as_slice(),
            out.as_slice(),
            "{name} output diverged bit-wise from the scalar reference"
        );
    }

    let rows = n as f64;
    let mk = |name: &str, best_s: f64| KernelVariant {
        name: name.to_string(),
        best_s,
        rows_per_s: rows / best_s.max(f64::MIN_POSITIVE),
        speedup_vs_scalar: scalar_s / best_s.max(f64::MIN_POSITIVE),
    };
    Ok(KernelBenchResult {
        shape: *shape,
        reps,
        pool_threads,
        checksum: checksum(&reference),
        variants: vec![
            mk("scalar", scalar_s),
            mk("blocked", blocked_s),
            mk("fused", fused_s),
            mk("fused+pool", pool_s),
        ],
    })
}

/// Renders the trajectory table.
pub fn render(result: &KernelBenchResult) -> String {
    let mut t = TextTable::new(vec!["Variant", "Best (ms)", "Rows/s", "vs scalar"]);
    for v in &result.variants {
        t.row(vec![
            v.name.clone(),
            format!("{:.3}", v.best_s * 1e3),
            format!("{:.0}", v.rows_per_s),
            format!("{:.2}x", v.speedup_vs_scalar),
        ]);
    }
    let s = result.shape;
    format!(
        "Host CCS+LUT kernel trajectory — N={} H={} V={} CT={} F={} \
         ({} reps, pool width {})\n\n{}",
        s.n,
        s.h,
        s.v,
        s.ct,
        s.f,
        result.reps,
        result.pool_threads,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_pool_width_is_recorded_and_zero_is_rejected() {
        let r = run_with_pool(&KernelShape::smoke(), 1, 2).unwrap();
        assert_eq!(r.pool_threads, 2);
        assert!(run_with_pool(&KernelShape::smoke(), 1, 0).is_err());
    }

    #[test]
    fn smoke_shape_runs_and_reports_all_variants() {
        let r = run(&KernelShape::smoke(), 1).unwrap();
        assert_eq!(r.variants.len(), 4);
        assert!(r.variants.iter().all(|v| v.rows_per_s > 0.0));
        assert!(r.checksum.is_finite());
        let s = render(&r);
        assert!(s.contains("scalar"));
        assert!(s.contains("fused+pool"));
    }
}
