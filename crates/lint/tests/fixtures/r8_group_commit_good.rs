//! R8 good twin, group commit: stage the record, sync the WAL, and only
//! then apply the batch in memory.

impl DurableMap {
    pub fn commit(&mut self, record: &[u8], aggregate: Aggregate) -> io::Result<()> {
        self.wal.append_no_sync(record)?;
        self.wal.sync()?;
        self.inner.append_aggregate(aggregate);
        Ok(())
    }
}
