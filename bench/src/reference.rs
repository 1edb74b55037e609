//! The machine-speed reference, and the slices every measured window is
//! cut into.
//!
//! This benchmark runs on a few virtual CPUs of a shared host. Measured
//! here: the same binary is 20–45 % slower for minutes at a time while a
//! neighbour is busy, and no statistic taken inside a run removes that —
//! median, mean, upper quartile and best slice all move together. What
//! does remove it is a reference measured *beside* the work: two fixed
//! kernels of the benchmark's own, one bound by the core and one by the
//! shared cache and memory, are timed between the slices of every window,
//! and each slice's times are divided by how much slower than nominal the
//! reference ran around it. A result is therefore in *nominal-machine*
//! milliseconds: what the run would have read with the reference at its
//! nominal speed. The kernels never change with the code under test, so a
//! change to that code moves the result exactly as it moves wall time.

use std::sync::OnceLock;
use std::time::Instant;

use crate::spec::Metrics;
use crate::util::{iqr_share, median};

/// What the two kernels read on this class of machine in its usual state.
/// They only fix the scale of normalised results; `host.speed_factor` says
/// how far a run was from them.
const NOMINAL_CORE_MS: f64 = 2.4;
const NOMINAL_STREAM_MS: f64 = 3.9;

/// Words of the streamed buffer: 32 MiB, eight times a core's L2, so the
/// stream is served by the cache and memory the neighbours share.
const STREAM_WORDS: usize = 4 << 20;

/// Rounds of the core kernel over its two small arrays.
const CORE_ROUNDS: u32 = 8000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// One reading of the reference.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Multiply-adds and shifts over two arrays that fit the L1 cache: how
    /// many instructions per second the core gives this thread.
    pub core_ms: f64,
    /// One pass of additions over the 32 MiB buffer: the shared cache and
    /// memory.
    pub stream_ms: f64,
}

impl Reading {
    /// How much slower than nominal the machine is for work that spends
    /// `core_share` of its time bound by the core and the rest by memory.
    pub fn factor(self, core_share: f64) -> f64 {
        core_share * self.core_ms / NOMINAL_CORE_MS
            + (1.0 - core_share) * self.stream_ms / NOMINAL_STREAM_MS
    }

    fn mean(a: Reading, b: Reading) -> Reading {
        Reading {
            core_ms: (a.core_ms + b.core_ms) / 2.0,
            stream_ms: (a.stream_ms + b.stream_ms) / 2.0,
        }
    }
}

pub struct Reference {
    buf: Vec<u64>,
}

impl Reference {
    /// The process's one reference. First use fills the buffer, so it is
    /// first used before anything is timed.
    pub fn global() -> &'static Reference {
        static REFERENCE: OnceLock<Reference> = OnceLock::new();
        REFERENCE.get_or_init(|| {
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            Reference {
                buf: (0..STREAM_WORDS).map(|_| xorshift(&mut x)).collect(),
            }
        })
    }

    /// Resident size of the buffer, which `peak_rss_mb` leaves out.
    pub fn resident_mib() -> f64 {
        (STREAM_WORDS * 8) as f64 / (1 << 20) as f64
    }

    /// Times both kernels once: ≈ 7 ms. Call it only while the system
    /// under test is idle, or the two share the processor and both read
    /// wrong. One reading is rough (an interrupt lengthens it); a window
    /// has tens of them and reports a median over its slices.
    pub fn read(&self) -> Reading {
        let core_ms = timed_ms(|| {
            // Independent lanes, not one dependent chain: a chain keeps
            // its speed when the core's other hardware thread is busy,
            // and real code does not.
            let mut f = [1.0f32; 2048];
            let mut i = [0x9E37_79B9u32; 1024];
            for _ in 0..CORE_ROUNDS {
                for x in f.iter_mut() {
                    *x = *x * 0.999 + 0.001;
                }
                for x in i.iter_mut() {
                    *x ^= *x << 13;
                    *x ^= *x >> 17;
                    *x ^= *x << 5;
                }
            }
            std::hint::black_box((f, i));
        });
        let stream_ms = timed_ms(|| {
            let sum = self.buf.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            std::hint::black_box(sum);
        });
        Reading { core_ms, stream_ms }
    }

    /// The component-wise median of three readings, ≈ 20 ms: for set-up,
    /// where a workload that sets up three times has only four readings
    /// to lean on.
    pub fn read_steady(&self) -> Reading {
        let three = [self.read(), self.read(), self.read()];
        Reading {
            core_ms: median(&three.map(|r| r.core_ms)),
            stream_ms: median(&three.map(|r| r.stream_ms)),
        }
    }
}

/// One slice of a measured window, with the reference read just before
/// and just after it.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Verified operations the rate was taken over.
    pub ops: f64,
    /// Wall seconds per operation (the inverse of the slice's rate).
    pub s_per_op: f64,
    /// CPU of the process tree per operation, µs.
    pub cpu_us_per_op: f64,
    /// Median latency of the slice's operations, ms.
    pub p50_ms: f64,
    pub before: Reading,
    pub after: Reading,
}

impl Slice {
    pub fn factor(&self, core_share: f64) -> f64 {
        Reading::mean(self.before, self.after).factor(core_share)
    }
}

/// Sets the reference's own metrics from every reading of a run.
pub fn fill_host(m: &mut Metrics, readings: &[Reading], core_share: f64) {
    let of = |f: fn(&Reading) -> f64| median(&readings.iter().map(f).collect::<Vec<_>>());
    let typical = Reading {
        core_ms: of(|r| r.core_ms),
        stream_ms: of(|r| r.stream_ms),
    };
    m.set("host.calib_spin_ms", typical.core_ms);
    m.set("host.calib_mem_ms", typical.stream_ms);
    m.set("host.speed_factor", typical.factor(core_share));
}

/// Sets the three timed end-to-end metrics from a window's slices: each
/// the median over slices of the slice's value in nominal-machine time.
pub fn fill_timed(m: &mut Metrics, slices: &[Slice], core_share: f64) {
    let over = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> {
        slices
            .iter()
            .filter(|s| s.ops > 0.0)
            .map(|s| f(s) / s.factor(core_share))
            .collect()
    };
    // A rate is the inverse of a time: `wall ÷ factor` under the fraction.
    let per_op_s = over(&|s| s.s_per_op);
    let rates: Vec<f64> = per_op_s.iter().map(|t| 1.0 / t).collect();
    m.set("goodput_per_s", median(&rates));
    m.set("latency_p50_ms", median(&over(&|s| s.p50_ms)));
    m.set("cpu_us_per_op", median(&over(&|s| s.cpu_us_per_op)));
    m.set("client.slice_iqr_share", iqr_share(&rates));
    let readings: Vec<Reading> = slices.iter().flat_map(|s| [s.before, s.after]).collect();
    fill_host(m, &readings, core_share);
}

/// One `# slice` line per slice, for the reader and for refitting a
/// workload's `core_share`.
pub fn slice_notes(slices: &[Slice]) -> Vec<String> {
    slices
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let r = Reading::mean(s.before, s.after);
            format!(
                "slice {k}: ops {} s_per_op {:.6e} cpu_us_per_op {:.3} p50_ms {:.4} core_ms {:.4} stream_ms {:.4}",
                s.ops, s.s_per_op, s.cpu_us_per_op, s.p50_ms, r.core_ms, r.stream_ms
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(core_ms: f64, stream_ms: f64) -> Reading {
        Reading { core_ms, stream_ms }
    }

    #[test]
    fn nominal_machine_has_factor_one_whatever_the_share() {
        let nominal = reading(NOMINAL_CORE_MS, NOMINAL_STREAM_MS);
        for share in [0.0, 0.5, 1.0] {
            assert!((nominal.factor(share) - 1.0).abs() < 1e-12);
        }
        // Twice as slow a core, for work that is all core: twice the time.
        let slow = reading(2.0 * NOMINAL_CORE_MS, NOMINAL_STREAM_MS);
        assert!((slow.factor(1.0) - 2.0).abs() < 1e-12);
        assert!((slow.factor(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_slice_taken_on_a_slow_machine_reads_as_on_the_nominal_one() {
        let slice = |slower: f64| Slice {
            ops: 100.0,
            s_per_op: 0.01 * slower,
            cpu_us_per_op: 5000.0 * slower,
            p50_ms: 80.0 * slower,
            before: reading(NOMINAL_CORE_MS * slower, NOMINAL_STREAM_MS),
            after: reading(NOMINAL_CORE_MS * slower, NOMINAL_STREAM_MS),
        };
        let mut m = Metrics::default();
        fill_timed(&mut m, &[slice(1.0), slice(1.5), slice(2.0)], 1.0);
        let close = |name: &str, want: f64| {
            let got = m.get(name).unwrap();
            assert!((got - want).abs() < 1e-9 * want, "{name}: {got} vs {want}");
        };
        close("goodput_per_s", 100.0);
        close("latency_p50_ms", 80.0);
        close("cpu_us_per_op", 5000.0);
        close("host.speed_factor", 1.5);
        assert!(m.get("client.slice_iqr_share").unwrap() < 1e-9);
    }
}
