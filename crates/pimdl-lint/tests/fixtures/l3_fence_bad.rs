//! L3 fixture: `flag` is published with `fence(Release)` followed by a
//! Relaxed store, but read bare-Relaxed with no Acquire fence. The fence
//! has no allowlist entry, so it fails.

use std::sync::atomic::{fence, AtomicBool, Ordering};

pub fn publish(flag: &AtomicBool) {
    fence(Ordering::Release);
    flag.store(true, Ordering::Relaxed);
}

pub fn consume(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed)
}
