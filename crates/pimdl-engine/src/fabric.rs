//! Shard-fabric configuration (DESIGN.md §13).
//!
//! The distributed fabric in `pimdl-serve` runs shard workers as separate
//! OS processes and places LUT tables on them by consistent hashing. Its
//! knobs are validated here, next to the other serving-contract types
//! ([`crate::scheduler::BatchingPolicy`], `TenantQuota`), because the
//! engine is where every serving configuration is priced and checked
//! before a runtime is built around it.

use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::Result;

/// Virtual nodes per shard on the consistent-hash ring. Enough to spread
/// a handful of tables evenly over a handful of shards; small enough that
/// the ring stays trivially cheap to rebuild on membership change.
pub const DEFAULT_VNODES: usize = 32;

/// Largest `vnodes` a [`FabricConfig`] accepts: the supervisor hashes
/// `num_shards × vnodes` ring points whenever it rebuilds the ring.
pub const MAX_VNODES: usize = 1024;

/// Largest shard count a serving configuration accepts, in-process or
/// fabric: a shard is a worker thread under `pimdl-serve`'s line and HTTP
/// front ends and a worker process under its fabric, and every shipped
/// configuration runs at most 4.
pub const MAX_SHARDS: usize = 64;

/// Configuration of the multi-process shard fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Worker processes to place tables on, in `1..=MAX_SHARDS`.
    pub num_shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring, in
    /// `1..=MAX_VNODES`.
    pub vnodes: usize,
    /// How long the supervisor waits for a worker's `Hello` (and for a
    /// `TableReady` after a `LoadTable`) before declaring it dead and
    /// re-placing its tables (seconds). Must be finite and > 0.
    pub hello_timeout_s: f64,
}

impl FabricConfig {
    /// A small two-shard fabric with a generous worker timeout — the
    /// starting point the examples and tests mutate.
    pub fn example() -> Self {
        FabricConfig {
            num_shards: 2,
            vnodes: DEFAULT_VNODES,
            hello_timeout_s: 10.0,
        }
    }

    /// Checks the fabric configuration for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `num_shards` is outside
    /// `1..=MAX_SHARDS` or `vnodes` outside `1..=MAX_VNODES`, or
    /// `hello_timeout_s` is non-finite or non-positive (the supervisor
    /// could never detect a silent worker).
    pub fn validate(&self) -> Result<()> {
        for (name, value, max) in [
            ("num_shards", self.num_shards, MAX_SHARDS),
            ("vnodes", self.vnodes, MAX_VNODES),
        ] {
            if !(1..=max).contains(&value) {
                return Err(EngineError::Config {
                    detail: format!("fabric {name} must be in 1..={max}, got {value}"),
                });
            }
        }
        if !self.hello_timeout_s.is_finite() || self.hello_timeout_s <= 0.0 {
            return Err(EngineError::Config {
                detail: format!(
                    "fabric hello_timeout_s must be finite and > 0, got {}",
                    self.hello_timeout_s
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_validates_and_round_trips_json() {
        let cfg = FabricConfig::example();
        cfg.validate().unwrap();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FabricConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let ok = FabricConfig::example();
        for bad in [
            FabricConfig {
                num_shards: 0,
                ..ok
            },
            FabricConfig { vnodes: 0, ..ok },
            FabricConfig {
                num_shards: MAX_SHARDS + 1,
                ..ok
            },
            FabricConfig {
                vnodes: MAX_VNODES + 1,
                ..ok
            },
            FabricConfig {
                hello_timeout_s: 0.0,
                ..ok
            },
            FabricConfig {
                hello_timeout_s: -1.0,
                ..ok
            },
            FabricConfig {
                hello_timeout_s: f64::NAN,
                ..ok
            },
            FabricConfig {
                hello_timeout_s: f64::INFINITY,
                ..ok
            },
        ] {
            assert!(bad.validate().is_err(), "accepted {bad:?}");
        }
    }
}
