//! Experiment harness for the PIM-DL reproduction.
//!
//! Every table and figure of the paper's evaluation section has a module
//! under [`experiments`]; the `reproduce` binary dispatches to them and
//! renders text tables (optionally writing JSON artifacts for
//! EXPERIMENTS.md). Every experiment is a pure function of fixed seeds:
//! nothing here reads a clock. Wall-clock measurement of the real host
//! kernels and the serving stack is the `bench/` package's job.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
