//! L3 fixture: a Release store read with an Acquire load. Correct code,
//! but a memory-ordering protocol all the same: it fails until
//! lint-allow.toml excuses each site with a windowed, justified entry.

use std::sync::atomic::{AtomicBool, Ordering};

pub fn publish(ready: &AtomicBool) {
    ready.store(true, Ordering::Release);
}

pub fn consume(ready: &AtomicBool) -> bool {
    ready.load(Ordering::Acquire)
}
