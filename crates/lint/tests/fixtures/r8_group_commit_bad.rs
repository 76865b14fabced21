//! R8 bad twin, group commit: the batch is applied to the in-memory map
//! before the WAL sync — a crash between the two serves supports the
//! log cannot recover.

impl DurableMap {
    pub fn commit(&mut self, record: &[u8], aggregate: Aggregate) -> io::Result<()> {
        self.wal.append_no_sync(record)?;
        self.inner.append_aggregate(aggregate);
        self.wal.sync()?;
        Ok(())
    }
}
