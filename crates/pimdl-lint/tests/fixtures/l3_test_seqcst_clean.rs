//! L3 fixture: `SeqCst` and a fence in `#[cfg(test)]` code only — test
//! code is out of the rule's scope, so it passes with no allowlist entry.

pub fn answer() -> u64 {
    42
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{fence, AtomicU64, Ordering};

    #[test]
    fn counts() {
        let hits = AtomicU64::new(0);
        hits.fetch_add(super::answer(), Ordering::SeqCst);
        fence(Ordering::SeqCst);
        assert_eq!(hits.load(Ordering::SeqCst), 42);
    }
}
