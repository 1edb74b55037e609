//! L3 fixture: `ready` is published with `Release` (and read with
//! `Relaxed`, which cannot see what the store publishes). The `Release`
//! store has no allowlist entry, so it fails.

use std::sync::atomic::{AtomicBool, Ordering};

pub fn publish(ready: &AtomicBool) {
    ready.store(true, Ordering::Release);
}

pub fn consume(ready: &AtomicBool) -> bool {
    ready.load(Ordering::Relaxed)
}
