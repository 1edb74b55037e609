//! Commodity DRAM-PIM simulator for the PIM-DL reproduction.
//!
//! Implements the architecture abstraction of the paper's §5.1 / Fig. 7: a
//! host processor drives PIM modules over a constrained memory bus; each
//! module contains distributed compute nodes (PE + local memory banks); PEs
//! have no direct inter-PE datapath.
//!
//! Three platform models ([`config`]):
//!
//! * **UPMEM PIM-DIMM** — 8 DIMMs, 1024 DPU-style PEs @ 350 MHz, 64 KB WRAM.
//! * **Samsung HBM-PIM** — 4 cubes, 512 FP16 MAC PEs, 2 TB/s per cube.
//! * **SK-Hynix AiM** — 16 GDDR6 chips, 512 BF16 MAC PEs, 1 TB/s per chip.
//!
//! The simulator executes the LUT micro-kernel **functionally** (every
//! output element is really gathered and accumulated from the INT8 tables:
//! band by band in [`exec::run_lut_kernel`], PE by PE through the compiled
//! instruction stream in [`exec::run_lut_kernel_compiled`]) and
//! layers a cycle-cost model on the same code path ([`cost`]). [`cost`] is
//! also the one place every latency term is derived: the auto-tuner's
//! analytical model prices the same stream counts without the two
//! second-order effects the simulator adds (per-access instruction
//! overhead, index-stream row-hit correlation), which is what produces the
//! small model-vs-measured gap the paper reports in §6.6.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;

pub mod config;
pub mod cost;
pub mod energy;
pub mod exec;
pub mod interp;
pub mod isa;
pub mod mapping;
pub mod net;
pub mod trace;

pub use config::{LocalMemModel, MemHierarchy, PlatformConfig, PlatformKind, TransferModel};
pub use cost::{CostReport, TimeBreakdown};
pub use error::SimError;
pub use mapping::{LoadScheme, LutWorkload, Mapping, MicroKernel, TraversalOrder};
pub use net::NetworkModel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
