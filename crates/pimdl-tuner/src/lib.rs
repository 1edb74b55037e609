//! PIM-DL Auto-Tuner (paper §5.3, Algorithm 1).
//!
//! Given a LUT workload shape `(N, CB, CT, F)` and a target platform, the
//! tuner searches the four-dimensional mapping space —
//!
//! * **P1** sub-LUT tiling factors `(N_s-tile, F_s-tile)`,
//! * **P2** micro-kernel tiling factors `(N_m, F_m, CB_m)`,
//! * **P3** tile traversal order,
//! * **P4** LUT load scheme (static / coarse-grain / fine-grain),
//!
//! — scoring each candidate with the **analytical model** of Eqs. 3–10
//! ([`model`]): an idealised pricing of the cost terms `pimdl_sim::cost`
//! derives. It deliberately knows less than the simulator (no per-access
//! overheads, no index-repeat reuse): comparing its predictions against
//! `pimdl_sim::cost`, term by term, reproduces the §6.6 model-error
//! analysis.
//!
//! # Example
//!
//! ```rust
//! use pimdl_sim::{LutWorkload, PlatformConfig};
//! use pimdl_tuner::tune;
//!
//! let mut platform = PlatformConfig::upmem();
//! platform.num_pes = 64;
//! let workload = LutWorkload::new(512, 16, 16, 256)?;
//! let result = tune(&platform, &workload)?;
//! assert!(result.predicted_total_s > 0.0);
//! # Ok::<(), pimdl_tuner::TuneError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;

pub mod alloc;
pub mod bnb;
pub mod ktile;
pub mod model;
pub mod space;
pub mod tuner;

pub use error::TuneError;
pub use model::{analytical_cost, hierarchical_cost, HierBreakdown};
pub use tuner::{tune, tune_with_options, SearchStrategy, TuneOptions, TuningResult};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TuneError>;
