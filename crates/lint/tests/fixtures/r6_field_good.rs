//! R6 good twin, receiver chain: the same call through
//! `self.inner.get(…)`, but the field type's `get` checks its index.

struct Slots {
    slots: Vec<u8>,
}

impl Slots {
    fn get(&self, i: usize) -> u8 {
        self.slots.get(i).copied().unwrap_or(0)
    }
}

struct Handler {
    inner: Slots,
}

impl Handler {
    // ENTRYPOINT: per-connection request handler driven by untrusted input.
    pub fn handle(&self, i: usize) -> u8 {
        self.inner.get(i)
    }

    fn get(&self) -> u8 {
        0
    }
}
