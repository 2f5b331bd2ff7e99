//! Crash consistency for PMO data: undo-log transactions.
//!
//! Section II lists crash consistency among the properties a PMO must
//! support: "a PMO \[must\] remain in a consistent state even upon software
//! crashes or system power failures". This module provides the classic
//! undo-logging discipline used by persistent-memory libraries (PMDK-style
//! `pmemobj` transactions):
//!
//! 1. [`Transaction::begin`] opens a transaction on one pool;
//! 2. every range about to be mutated is logged first
//!    ([`Transaction::write`] captures the before-image, then applies the
//!    new bytes);
//! 3. [`Transaction::commit`] seals the transaction and discards the log;
//! 4. a crash before commit leaves the log in place —
//!    [`recover`] rolls every logged range back to its before-image.
//!
//! Crashes are *simulated*: [`Transaction::crash`] abandons the transaction
//! exactly as a power failure would (log persisted, data possibly
//! half-written), letting tests exercise recovery deterministically. The
//! undo log itself lives in the pool's data area (allocated with `pmalloc`)
//! so it is "persistent" under the same model as the data it protects.

use serde::{Deserialize, Serialize};

use crate::error::PmoError;
use crate::id::PmoId;
use crate::pool::Pmo;

/// Maximum bytes of one logged range (keeps log records bounded).
pub const MAX_RANGE: usize = 4096;

/// One undo record: a range's offset and its before-image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct UndoRecord {
    offset: u64,
    before: Vec<u8>,
}

/// The persistent transaction descriptor for one pool.
///
/// The log layout in pool bytes: `[state(1) | count(4) | records...]`, each
/// record `[offset(8) | len(4) | bytes(len)]`. State 1 = active (must be
/// rolled back on recovery), 0 = idle/committed.
#[derive(Debug)]
pub struct Transaction<'p> {
    pool: &'p mut Pmo,
    log_base: u64,
    records: Vec<UndoRecord>,
    committed: bool,
}

/// Size reserved for the log area.
const LOG_AREA: u64 = 64 * 1024;

const MAGIC: &[u8; 8] = b"TERPTXN1";

/// Finds the pool's existing log area without allocating one.
///
/// # Errors
///
/// Propagates pool read failures.
pub fn find_log_area(pool: &Pmo) -> Result<Option<u64>, PmoError> {
    // Convention: the log area is the allocation of `LOG_AREA` bytes tagged
    // by a magic header at its start. Only a block of that length is read:
    // recovery asks this of every pool, and a pool that never ran a
    // transaction can hold tens of thousands of live blocks.
    for (off, _) in pool
        .allocator()
        .live_blocks()
        .filter(|&(_, len)| len == LOG_AREA)
    {
        let mut head = [0u8; 8];
        pool.read_bytes(off, &mut head)?;
        if &head == MAGIC {
            return Ok(Some(off));
        }
    }
    Ok(None)
}

/// Allocates (once) the pool's log area and returns its base offset.
///
/// # Errors
///
/// Propagates allocation failures from the pool.
pub fn ensure_log_area(pool: &mut Pmo) -> Result<u64, PmoError> {
    if let Some(off) = find_log_area(pool)? {
        return Ok(off);
    }
    let oid = pool.pmalloc(LOG_AREA)?;
    pool.write_bytes(oid.offset(), MAGIC)?;
    // state = 0, count = 0.
    pool.write_bytes(oid.offset() + 8, &[0u8; 5])?;
    Ok(oid.offset())
}

impl<'p> Transaction<'p> {
    /// Begins a transaction on `pool`.
    ///
    /// # Errors
    ///
    /// [`PmoError`] if the log area cannot be allocated, or if an aborted
    /// transaction is pending (run [`recover`] first).
    pub fn begin(pool: &'p mut Pmo) -> Result<Self, PmoError> {
        let log_base = ensure_log_area(pool)?;
        let mut state = [0u8; 1];
        pool.read_bytes(log_base + 8, &mut state)?;
        if state[0] != 0 {
            // An interrupted transaction's log is still live.
            return Err(PmoError::OutOfBounds {
                pmo: pool.id(),
                offset: log_base,
            });
        }
        // Mark active.
        pool.write_bytes(log_base + 8, &[1])?;
        pool.write_bytes(log_base + 9, &0u32.to_le_bytes())?;
        Ok(Transaction {
            pool,
            log_base,
            records: Vec::new(),
            committed: false,
        })
    }

    /// The pool this transaction mutates.
    pub fn pmo(&self) -> PmoId {
        self.pool.id()
    }

    /// Transactionally writes `data` at `offset`: the before-image is
    /// persisted to the undo log before the mutation is applied.
    ///
    /// # Errors
    ///
    /// [`PmoError::OutOfBounds`] for bad ranges; [`PmoError::InvalidSize`]
    /// for ranges beyond [`MAX_RANGE`].
    pub fn write(&mut self, offset: u64, data: &[u8]) -> Result<(), PmoError> {
        if data.len() > MAX_RANGE {
            return Err(PmoError::InvalidSize(data.len() as u64));
        }
        if data.is_empty() {
            // No bytes change, so no undo record: zero-length log records
            // are reserved as a torn-write signature for [`recover`].
            return Ok(());
        }
        let mut before = vec![0u8; data.len()];
        self.pool.read_bytes(offset, &mut before)?;
        // Persist the undo record first (write-ahead).
        self.append_record(offset, &before)?;
        self.pool.write_bytes(offset, data)?;
        self.records.push(UndoRecord { offset, before });
        Ok(())
    }

    fn append_record(&mut self, offset: u64, before: &[u8]) -> Result<(), PmoError> {
        // Compute the append position from the in-memory record list (the
        // persistent count field tracks it).
        let mut pos = self.log_base + 13;
        for r in &self.records {
            pos += 12 + r.before.len() as u64;
        }
        self.pool.write_bytes(pos, &offset.to_le_bytes())?;
        self.pool
            .write_bytes(pos + 8, &(before.len() as u32).to_le_bytes())?;
        self.pool.write_bytes(pos + 12, before)?;
        let count = (self.records.len() + 1) as u32;
        self.pool
            .write_bytes(self.log_base + 9, &count.to_le_bytes())?;
        Ok(())
    }

    /// Commits: the mutations become permanent and the log is discarded.
    ///
    /// # Errors
    ///
    /// Propagates pool write failures.
    pub fn commit(mut self) -> Result<(), PmoError> {
        // Clearing the state byte is the commit point (single atomic byte).
        self.pool.write_bytes(self.log_base + 8, &[0])?;
        self.pool
            .write_bytes(self.log_base + 9, &0u32.to_le_bytes())?;
        self.committed = true;
        Ok(())
    }

    /// Simulates a crash: the transaction is abandoned with its log intact
    /// and its data writes possibly applied — exactly the state a power
    /// failure would leave. Use [`recover`] afterwards.
    pub fn crash(mut self) {
        self.committed = true; // suppress the drop-abort; the log stays live
    }

    /// Explicitly aborts, rolling back in memory immediately.
    ///
    /// # Errors
    ///
    /// Propagates pool write failures during rollback.
    pub fn abort(mut self) -> Result<(), PmoError> {
        for r in self.records.iter().rev() {
            self.pool.write_bytes(r.offset, &r.before)?;
        }
        self.pool.write_bytes(self.log_base + 8, &[0])?;
        self.pool
            .write_bytes(self.log_base + 9, &0u32.to_le_bytes())?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.committed {
            // Dropping without commit = abort (best effort; errors ignored
            // per C-DTOR-FAIL — use `abort()` for checked teardown).
            for r in self.records.iter().rev() {
                let _ = self.pool.write_bytes(r.offset, &r.before);
            }
            let _ = self.pool.write_bytes(self.log_base + 8, &[0]);
            let _ = self
                .pool
                .write_bytes(self.log_base + 9, &0u32.to_le_bytes());
        }
    }
}

/// Recovers a pool after a (simulated) crash: if an active undo log is
/// found, every logged range is rolled back (newest first) and the log is
/// cleared. Returns the number of ranges rolled back.
///
/// Idempotent and lenient, so replay layers (e.g. `terp-persist`) can call
/// it unconditionally on every pool they reconstruct:
///
/// * a pool with no log area (transactions never used) is a no-op — no log
///   area is allocated as a side effect;
/// * a partially-written final undo record — a header pointing past the log
///   area, an oversized length, or a target range outside the pool, all
///   states a crash mid-`append_record` can leave — *truncates* the log at
///   the last fully-written record instead of erroring, and the valid
///   prefix is still rolled back;
/// * recovering an already-consistent pool is a no-op.
///
/// # Errors
///
/// Propagates pool read/write failures (these indicate a broken pool, not a
/// torn log).
pub fn recover(pool: &mut Pmo) -> Result<usize, PmoError> {
    let Some(log_base) = find_log_area(pool)? else {
        return Ok(0);
    };
    let mut state = [0u8; 1];
    pool.read_bytes(log_base + 8, &mut state)?;
    if state[0] == 0 {
        return Ok(0);
    }
    let mut count_raw = [0u8; 4];
    pool.read_bytes(log_base + 9, &mut count_raw)?;
    let count = u32::from_le_bytes(count_raw) as usize;
    let log_end = log_base + LOG_AREA;

    // Read records forward, stopping at the first record the crash tore:
    // only the fully-written prefix is rolled back.
    let mut records = Vec::new();
    let mut pos = log_base + 13;
    for _ in 0..count.min((LOG_AREA / 12) as usize) {
        if pos + 12 > log_end {
            break; // header itself runs past the log area: torn
        }
        let mut head = [0u8; 12];
        pool.read_bytes(pos, &mut head)?;
        let offset = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes")) as usize;
        let intact = len > 0
            && len <= MAX_RANGE
            && pos + 12 + len as u64 <= log_end
            && offset
                .checked_add(len as u64)
                .is_some_and(|e| e <= pool.size());
        if !intact {
            break; // partially-written final record: truncate, don't error
        }
        let mut before = vec![0u8; len];
        pool.read_bytes(pos + 12, &mut before)?;
        records.push(UndoRecord { offset, before });
        pos += 12 + len as u64;
    }
    for r in records.iter().rev() {
        pool.write_bytes(r.offset, &r.before)?;
    }
    pool.write_bytes(log_base + 8, &[0])?;
    pool.write_bytes(log_base + 9, &0u32.to_le_bytes())?;
    Ok(records.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::OpenMode;
    use crate::registry::PmoRegistry;
    use proptest::prelude::*;

    fn pool() -> (PmoRegistry, PmoId) {
        let mut reg = PmoRegistry::new();
        let id = reg.create("tx", 1 << 20, OpenMode::ReadWrite).unwrap();
        (reg, id)
    }

    #[test]
    fn committed_transaction_persists() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), b"committed!").unwrap();
            tx.commit().unwrap();
        }
        let mut buf = [0u8; 10];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed!");
        // Recovery after a clean commit is a no-op.
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
    }

    #[test]
    fn crash_before_commit_rolls_back_on_recovery() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(data.offset(), b"original")
            .unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), b"mutated!").unwrap();
            tx.crash(); // power failure before commit
        }
        // The torn write is visible pre-recovery...
        let mut buf = [0u8; 8];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"mutated!");
        // ...and rolled back by recovery.
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 1);
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"original");
    }

    #[test]
    fn drop_without_commit_aborts() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(data.offset(), b"keepme__")
            .unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), b"droppped").unwrap();
            // tx dropped here without commit.
        }
        let mut buf = [0u8; 8];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"keepme__");
    }

    #[test]
    fn begin_is_refused_while_aborted_log_pending() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), b"x").unwrap();
            tx.crash();
        }
        assert!(Transaction::begin(reg.pool_mut(id).unwrap()).is_err());
        recover(reg.pool_mut(id).unwrap()).unwrap();
        assert!(Transaction::begin(reg.pool_mut(id).unwrap()).is_ok());
    }

    #[test]
    fn multi_range_rollback_restores_everything_in_order() {
        let (mut reg, id) = pool();
        let a = reg.pool_mut(id).unwrap().pmalloc(32).unwrap();
        let b = reg.pool_mut(id).unwrap().pmalloc(32).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(a.offset(), b"AAAA")
            .unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(b.offset(), b"BBBB")
            .unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(a.offset(), b"1111").unwrap();
            tx.write(b.offset(), b"2222").unwrap();
            tx.write(a.offset(), b"3333").unwrap(); // same range twice
            tx.crash();
        }
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 3);
        let mut buf = [0u8; 4];
        reg.pool(id)
            .unwrap()
            .read_bytes(a.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"AAAA");
        reg.pool(id)
            .unwrap()
            .read_bytes(b.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"BBBB");
    }

    #[test]
    fn recover_on_virgin_pool_is_a_no_op_without_allocating() {
        let (mut reg, id) = pool();
        let live_before = reg.pool(id).unwrap().allocator().live_count();
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
        assert_eq!(
            reg.pool(id).unwrap().allocator().live_count(),
            live_before,
            "recovery must not allocate a log area as a side effect"
        );
    }

    #[test]
    fn recover_is_idempotent_after_rollback() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(data.offset(), b"original")
            .unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), b"mutated!").unwrap();
            tx.crash();
        }
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 1);
        // Second (and third) recovery: nothing left to do, nothing breaks.
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
        let mut buf = [0u8; 8];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"original");
    }

    /// Regression: a torn final undo record (count bumped past the written
    /// records, as a persist-layer replay of a truncated WAL can produce)
    /// must truncate, roll back the intact prefix, and leave the pool
    /// consistent — not error out.
    #[test]
    fn recover_tolerates_partially_written_final_record() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(data.offset(), b"original")
            .unwrap();
        let log_base = {
            let pool = reg.pool_mut(id).unwrap();
            let mut tx = Transaction::begin(pool).unwrap();
            tx.write(data.offset(), b"mutated!").unwrap();
            tx.crash();
            find_log_area(reg.pool(id).unwrap()).unwrap().unwrap()
        };
        // Simulate the tear: claim a second record that was never written
        // (its header reads as zeros — the torn-write signature).
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(log_base + 9, &2u32.to_le_bytes())
            .unwrap();
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 1);
        let mut buf = [0u8; 8];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"original", "the intact prefix still rolls back");
        // The log is cleared: a new transaction can begin and recovery is
        // idempotent.
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
        assert!(Transaction::begin(reg.pool_mut(id).unwrap()).is_ok());
    }

    /// Regression: an undo record whose header survived but whose length or
    /// target range is garbage (oversized length, range past the pool end)
    /// is treated as torn, not applied.
    #[test]
    fn recover_rejects_garbage_record_headers() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        reg.pool_mut(id)
            .unwrap()
            .write_bytes(data.offset(), b"keepsafe")
            .unwrap();
        let log_base = ensure_log_area(reg.pool_mut(id).unwrap()).unwrap();
        // Forge an active log whose only record has an absurd length.
        let pool = reg.pool_mut(id).unwrap();
        pool.write_bytes(log_base + 8, &[1]).unwrap();
        pool.write_bytes(log_base + 9, &1u32.to_le_bytes()).unwrap();
        pool.write_bytes(log_base + 13, &data.offset().to_le_bytes())
            .unwrap();
        pool.write_bytes(log_base + 21, &(u32::MAX).to_le_bytes())
            .unwrap();
        assert_eq!(recover(pool).unwrap(), 0, "garbage record is truncated");
        let mut buf = [0u8; 8];
        reg.pool(id)
            .unwrap()
            .read_bytes(data.offset(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"keepsafe");
    }

    #[test]
    fn empty_write_is_a_no_op() {
        let (mut reg, id) = pool();
        let data = reg.pool_mut(id).unwrap().pmalloc(64).unwrap();
        {
            let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
            tx.write(data.offset(), &[]).unwrap();
            tx.write(data.offset(), b"real").unwrap();
            tx.crash();
        }
        // Only the real write produced an undo record.
        assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 1);
    }

    #[test]
    fn oversized_range_rejected() {
        let (mut reg, id) = pool();
        let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
        let big = vec![0u8; MAX_RANGE + 1];
        assert!(matches!(tx.write(0, &big), Err(PmoError::InvalidSize(_))));
        tx.commit().unwrap();
    }

    proptest! {
        /// Any prefix of transactional writes followed by a crash recovers
        /// to the exact pre-transaction state.
        #[test]
        fn crash_recovery_restores_pretx_state(
            writes in proptest::collection::vec((0u64..2048, proptest::collection::vec(any::<u8>(), 1..64)), 1..12),
        ) {
            let (mut reg, id) = pool();
            let base = reg.pool_mut(id).unwrap().pmalloc(4096).unwrap().offset();
            // Seed deterministic original content.
            let original: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            reg.pool_mut(id).unwrap().write_bytes(base, &original).unwrap();

            {
                let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
                for (off, data) in &writes {
                    let off = base + (off % (4096 - data.len() as u64));
                    tx.write(off, data).unwrap();
                }
                tx.crash();
            }
            recover(reg.pool_mut(id).unwrap()).unwrap();
            let mut buf = vec![0u8; 4096];
            reg.pool(id).unwrap().read_bytes(base, &mut buf).unwrap();
            prop_assert_eq!(buf, original);
        }

        /// Committed transactions keep exactly their final writes.
        #[test]
        fn commit_keeps_final_state(
            writes in proptest::collection::vec((0u64..1024, any::<u8>()), 1..16),
        ) {
            let (mut reg, id) = pool();
            let base = reg.pool_mut(id).unwrap().pmalloc(2048).unwrap().offset();
            let mut expected = vec![0u8; 2048];
            {
                let mut tx = Transaction::begin(reg.pool_mut(id).unwrap()).unwrap();
                for (off, byte) in &writes {
                    tx.write(base + off, &[*byte]).unwrap();
                    expected[*off as usize] = *byte;
                }
                tx.commit().unwrap();
            }
            prop_assert_eq!(recover(reg.pool_mut(id).unwrap()).unwrap(), 0);
            let mut buf = vec![0u8; 2048];
            reg.pool(id).unwrap().read_bytes(base, &mut buf).unwrap();
            prop_assert_eq!(buf, expected);
        }
    }
}
