//! L3 fixture: fence-to-fence synchronization — a Relaxed store after
//! `fence(Release)`, a Relaxed load before `fence(Acquire)`. It fails
//! until lint-allow.toml excuses both fences with a windowed, justified
//! entry.

use std::sync::atomic::{fence, AtomicBool, Ordering};

pub fn publish(flag: &AtomicBool) {
    fence(Ordering::Release);
    flag.store(true, Ordering::Relaxed);
}

pub fn consume(flag: &AtomicBool) -> bool {
    let seen = flag.load(Ordering::Relaxed);
    fence(Ordering::Acquire);
    seen
}
