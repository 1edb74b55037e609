//! Lock-census fixture: two lock fields and a `let` that constructs a
//! lock are counted; a plain field, a struct-literal initializer and
//! test-only code are not.

use std::sync::{Arc, Mutex, RwLock};

pub struct Shared {
    pub queue: Mutex<Vec<u32>>,
    pub table: Arc<RwLock<Vec<u8>>>,
    pub len: usize,
}

pub fn build() -> Shared {
    let table = Arc::new(RwLock::new(Vec::new()));
    Shared {
        queue: Mutex::new(Vec::new()),
        table,
        len: 0,
    }
}

#[cfg(test)]
mod tests {
    pub struct Probe {
        pub m: std::sync::Mutex<u8>,
    }

    #[test]
    fn probe() {
        let m = std::sync::Mutex::new(0u8);
        drop(m);
    }
}
