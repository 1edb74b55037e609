//! L3 fixture: `Relaxed` counters only — no ordering protocol, so it
//! passes with no allowlist entry.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

pub fn read_counter(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}
