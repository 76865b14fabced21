//! R6 bad twin, receiver chain: the handler calls `self.inner.get(…)`,
//! which is the field type's `get` and indexes without a check. The
//! caller's own type also has a `get`; that one must not hide the
//! field's.

struct Slots {
    slots: Vec<u8>,
}

impl Slots {
    fn get(&self, i: usize) -> u8 {
        self.slots[i]
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
