//! Time sources for the runtime: a wall clock (optionally accelerated so
//! simulated service times compress into short real sleeps) and a virtual
//! clock for deterministic single-threaded tests.
//!
//! All runtime components measure time in **simulated seconds** — the same
//! unit the engine's cost model emits — and go through [`Clock`], so the
//! identical admission/batching/routing state machines run under either
//! source.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::Result;

/// A monotone time source in simulated seconds.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time (simulated seconds since the clock's origin).
    fn now(&self) -> f64;

    /// Blocks for `dur_s` simulated seconds (no-op for `dur_s <= 0`).
    fn sleep(&self, dur_s: f64);
}

/// Wall clock mapping real time to simulated time at a fixed `speedup`
/// (simulated seconds per real second).
///
/// With `speedup = 1.0` simulated and real seconds coincide; tests use
/// large speedups so cost-model service times in the milliseconds range
/// run in microseconds of wall time.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    origin: Instant,
    speedup: f64,
}

impl RealClock {
    /// A real-time clock (`speedup = 1`).
    pub fn new() -> Self {
        RealClock {
            origin: Instant::now(),
            speedup: 1.0,
        }
    }

    /// A clock running `speedup` simulated seconds per real second.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] unless `speedup` is finite and
    /// positive.
    pub fn accelerated(speedup: f64) -> Result<Self> {
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(ServeError::Config {
                detail: format!("clock speedup must be finite and > 0, got {speedup}"),
            });
        }
        Ok(RealClock {
            origin: Instant::now(),
            speedup,
        })
    }

    /// Real-time duration corresponding to `sim_s` simulated seconds
    /// (zero for non-positive or non-finite inputs, capped at one hour).
    pub fn real_duration(&self, sim_s: f64) -> Duration {
        if !sim_s.is_finite() || sim_s <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64((sim_s / self.speedup).min(3600.0))
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * self.speedup
    }

    fn sleep(&self, dur_s: f64) {
        std::thread::sleep(self.real_duration(dur_s));
    }
}

/// A manually advanced clock for deterministic tests.
///
/// [`crate::reactor::SimPoller`]'s [`wait`](crate::reactor::EventSource::wait) advances it to the next scripted
/// instant or timeout — under [`crate::runtime::Runtime::run_virtual`] as
/// under the scripted server tests. `sleep` advances time immediately: the
/// one thread driving the loop is the only waiter, so there is nothing to
/// block on.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_s: Mutex<f64>,
}

impl VirtualClock {
    /// A virtual clock at t = 0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances time to `t` (ignored if `t` is in the past — the clock is
    /// monotone).
    pub fn advance_to(&self, t: f64) {
        let mut now = self.now_s.lock().unwrap_or_else(PoisonError::into_inner);
        if t > *now {
            *now = t;
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> f64 {
        *self.now_s.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sleep(&self, dur_s: f64) {
        if dur_s > 0.0 && dur_s.is_finite() {
            let mut now = self.now_s.lock().unwrap_or_else(PoisonError::into_inner);
            *now += dur_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_to(2.5);
        assert_eq!(c.now(), 2.5);
        c.advance_to(1.0); // backwards: ignored
        assert_eq!(c.now(), 2.5);
        c.sleep(0.5);
        assert_eq!(c.now(), 3.0);
        c.sleep(-1.0); // no-op
        assert_eq!(c.now(), 3.0);
    }

    #[test]
    fn real_clock_scales_simulated_time() {
        let c = RealClock::accelerated(1000.0).unwrap();
        let t0 = c.now();
        c.sleep(1.0); // 1 simulated second = 1 real millisecond
        let dt = c.now() - t0;
        assert!(dt >= 1.0, "simulated elapsed {dt}");
        assert!(RealClock::accelerated(0.0).is_err());
        assert!(RealClock::accelerated(f64::NAN).is_err());
        assert!(RealClock::accelerated(-2.0).is_err());
    }

    #[test]
    fn real_duration_clamps_what_duration_cannot_hold() {
        // `sleep` goes through this conversion, so a span like the
        // inter-arrival gap of `OpenLoop { rate_rps: 1e-25, .. }` must come
        // out capped, not panic inside `Duration::from_secs_f64`.
        let c = RealClock::accelerated(1e-3).unwrap();
        let hour = Duration::from_secs(3600);
        assert_eq!(c.real_duration(1e300), hour);
        assert_eq!(c.real_duration(f64::MAX), hour);
        assert_eq!(c.real_duration(f64::INFINITY), Duration::ZERO);
        assert_eq!(c.real_duration(f64::NAN), Duration::ZERO);
        assert_eq!(c.real_duration(-1.0), Duration::ZERO);
        assert_eq!(c.real_duration(2e-3), Duration::from_secs(2));
    }
}
