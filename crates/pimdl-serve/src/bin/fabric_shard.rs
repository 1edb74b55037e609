//! Thin entry point for a fabric shard worker process.
//!
//! Spawned by [`pimdl_serve::Runtime::serve_fabric`] (or any caller
//! passing a worker argv) as:
//!
//! ```text
//! fabric_shard <addr> <shard_id> <speedup> <worker-spec-json>
//! ```
//!
//! All logic lives in [`pimdl_serve::fabric::worker_entry`]; this binary
//! only maps its two failure classes to exit codes (2: malformed argv,
//! 1: the worker failed) so integration tests can point
//! `CARGO_BIN_EXE_fabric_shard` at a real process.

use pimdl_serve::fabric::worker_entry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 4 {
        eprintln!("usage: fabric_shard <addr> <shard_id> <speedup> <worker-spec-json>");
        std::process::exit(2);
    }
    match worker_entry(&args) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("fabric_shard: {e}");
            std::process::exit(1);
        }
        Err(usage) => {
            eprintln!("fabric_shard: {usage}");
            std::process::exit(2);
        }
    }
}
