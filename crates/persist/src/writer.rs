//! Pipelined asynchronous log writer: submit/durable split with a
//! durability watermark.
//!
//! This is the log writer behind [`crate::Visibility::Submit`]. The inline
//! [`crate::WalWriter`] makes its caller pay the fsync before the operation
//! returns; this module decouples *submission* from *durability*:
//!
//! * [`AsyncWalWriter::append`] assigns the record's sequence number and
//!   encodes its frame *directly into a shared batch buffer* (no per-record
//!   allocation, no queue node) — the caller returns immediately at
//!   **submit**.
//! * The writer thread owns the file. It double-buffers: swap the
//!   accumulated batch out under a brief lock, then write it with one
//!   `write(2)` + one fsync while the next batch accumulates in the other
//!   buffer, and publish the new [`DurabilityGate`] watermark. Batches are
//!   naturally **adaptive**: a batch is exactly what arrived while the
//!   previous one was on media, so it grows under load and shrinks to
//!   single records when idle.
//! * Callers that need durability — not just submission — wait on the
//!   watermark: [`DurabilityGate::wait_for`] blocks until every record up
//!   to a sequence number is fsynced.
//!
//! The effect is classic pipelining: while batch *n* is inside fsync,
//! batch *n + 1* accumulates in the submit buffer, so the fsync cost is
//! amortized over however many records arrived meanwhile — without any
//! caller holding a lock across the fsync. The TERP resealing argument is
//! unchanged because durability still advances in strict log order: the
//! watermark is monotonic, so "seq `s` durable" implies every earlier
//! record is durable, which is exactly the prefix property crash recovery
//! replays.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::error::PersistError;
use crate::record::WalRecord;
use crate::wal::{WalStats, WalWriter};

/// The shared durability watermark: the synchronization point between log
/// submitters, the background writer, and anyone who must not act before a
/// record is on media.
///
/// `watermark()` is the count of durable records: every record with
/// `seq < watermark()` is fsynced. It only ever grows, and it grows in log
/// order — durability of a record implies durability of its whole prefix.
#[derive(Debug)]
pub struct DurabilityGate {
    /// First sequence number that is *not* yet durable.
    durable: AtomicU64,
    /// Fast-path mirror of "an error is stored": submitters poll this on
    /// every append, so the check must not take the mutex.
    poisoned: AtomicBool,
    /// Error slot (the writer thread's first I/O failure) doubling as the
    /// condvar's mutex. Once set, the gate is poisoned: every wait returns
    /// the error instead of blocking on durability that will never come.
    err: Mutex<Option<String>>,
    cvar: Condvar,
}

impl DurabilityGate {
    pub(crate) fn at(watermark: u64) -> Arc<Self> {
        Arc::new(DurabilityGate {
            durable: AtomicU64::new(watermark),
            poisoned: AtomicBool::new(false),
            err: Mutex::new(None),
            cvar: Condvar::new(),
        })
    }

    /// The current watermark: every record with `seq < watermark()` is
    /// durable. Monotonic; readable without any lock.
    pub fn watermark(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Whether the record with sequence number `seq` is durable.
    pub fn is_durable(&self, seq: u64) -> bool {
        self.watermark() > seq
    }

    /// Blocks until the record with sequence number `seq` is durable (or
    /// returns immediately if it already is).
    ///
    /// # Errors
    ///
    /// The background writer's stored I/O error, if it failed: the record
    /// will never become durable.
    pub fn wait_for(&self, seq: u64) -> Result<(), PersistError> {
        if self.is_durable(seq) {
            return Ok(());
        }
        let mut slot = self.err.lock().expect("gate mutex");
        loop {
            if let Some(msg) = slot.as_ref() {
                return Err(PersistError::WriterFailed(msg.clone()));
            }
            if self.is_durable(seq) {
                return Ok(());
            }
            slot = self.cvar.wait(slot).expect("gate mutex");
        }
    }

    /// Returns the stored writer error, if the pipeline failed. Lock-free
    /// in the healthy case — this runs on every submit.
    pub(crate) fn check(&self) -> Result<(), PersistError> {
        if !self.poisoned.load(Ordering::Acquire) {
            return Ok(());
        }
        let slot = self.err.lock().expect("gate mutex");
        match slot.as_ref() {
            Some(msg) => Err(PersistError::WriterFailed(msg.clone())),
            None => Ok(()),
        }
    }

    /// Raises the watermark to `durable_through` (monotonic max) and wakes
    /// every waiter.
    pub(crate) fn advance(&self, durable_through: u64) {
        let mut cur = self.durable.load(Ordering::Relaxed);
        while cur < durable_through {
            match self.durable.compare_exchange_weak(
                cur,
                durable_through,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        // Take the mutex so a waiter between its watermark check and its
        // cvar.wait cannot miss this notification.
        let _slot = self.err.lock().expect("gate mutex");
        self.cvar.notify_all();
    }

    /// Poisons the gate with the writer's I/O error and wakes every waiter.
    pub(crate) fn fail(&self, msg: String) {
        let mut slot = self.err.lock().expect("gate mutex");
        slot.get_or_insert(msg);
        self.poisoned.store(true, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// What a submitter gets once the writer thread has exited without
/// storing an error.
fn gone() -> PersistError {
    PersistError::WriterFailed("wal writer thread gone".into())
}

/// Submit-side backpressure: `append` blocks while the accumulating batch
/// buffer holds this many bytes (the writer thread has fallen a full
/// buffer behind), bounding memory instead of queue depth.
const HIGH_WATER: usize = 4 << 20;

/// Adaptive coalescing bounds: when the writer comes back from a flush and
/// finds the next batch already started (sustained load), it dwells this
/// long before swapping so the batch keeps filling — each doubling halves
/// the fsync rate. An idle cycle (the writer actually waited for work)
/// resets the dwell to zero, so request/response traffic pays exactly one
/// fsync of latency and no dwell.
const COALESCE_MIN: std::time::Duration = std::time::Duration::from_micros(100);
const COALESCE_MAX: std::time::Duration = std::time::Duration::from_micros(3_000);

/// The submit/writer rendezvous: a double-buffered batch. Submitters
/// encode frames onto `buf` under the mutex; the writer thread swaps the
/// whole buffer out (O(1)) and flushes it while the next batch accumulates.
#[derive(Debug, Default)]
struct PipeState {
    /// Encoded frames accumulated since the last swap.
    buf: Vec<u8>,
    /// Records in `buf`.
    count: u64,
    /// Highest sequence number in `buf` (meaningful when `count > 0`).
    last_seq: u64,
    /// Submission handle dropped: flush what remains, then exit.
    closed: bool,
    /// A truncation request is pending (ordered after `buf`'s records).
    truncate: bool,
    /// The head the log the pending truncation empties opens with.
    trunc_head: Vec<u8>,
    /// The writer's answer to the pending truncation.
    trunc_result: Option<Result<(), String>>,
    /// The writer thread died (I/O failure): stop blocking on it.
    dead: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// Writer thread waits here for work.
    work: Condvar,
    /// Submitters wait here for backpressure / truncation completion.
    space: Condvar,
}

#[derive(Debug, Default)]
struct SharedStats {
    appended: AtomicU64,
    flushes: AtomicU64,
    syncs: AtomicU64,
    bytes: AtomicU64,
    extensions: AtomicU64,
}

/// The submission handle of a pipelined log: owns the sequence counter and
/// the channel to the background writer thread that owns the file.
///
/// Appends are serialized by `&mut self` (in practice: the shard lock),
/// which is what makes submit-side sequence assignment race-free; the
/// *fsync* is what moves off the caller's thread.
#[derive(Debug)]
pub struct AsyncWalWriter {
    pipe: Arc<Pipe>,
    gate: Arc<DurabilityGate>,
    stats: Arc<SharedStats>,
    next_seq: u64,
    handle: Option<JoinHandle<()>>,
}

impl AsyncWalWriter {
    /// Wraps an opened [`WalWriter`] (positioned after the last valid
    /// record) in a background writer thread. Everything already in the
    /// file counts as durable: the initial watermark is `wal.next_seq()`.
    pub fn spawn(wal: WalWriter) -> Self {
        let next_seq = wal.next_seq();
        let gate = DurabilityGate::at(next_seq);
        let stats = Arc::new(SharedStats::default());
        let pipe = Arc::new(Pipe::default());
        let thread_pipe = Arc::clone(&pipe);
        let thread_gate = Arc::clone(&gate);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("terp-wal-writer".into())
            .spawn(move || writer_loop(wal, thread_pipe, thread_gate, thread_stats))
            .expect("spawn wal writer thread");
        AsyncWalWriter {
            pipe,
            gate,
            stats,
            next_seq,
            handle: Some(handle),
        }
    }

    /// Submits one record and returns its sequence number immediately; the
    /// record is durable once [`DurabilityGate::watermark`] passes it.
    /// The frame is encoded straight into the shared batch buffer — no
    /// per-record allocation or queue node. Blocks only when the batch
    /// buffer is a full flush behind (backpressure) — never on fsync.
    ///
    /// # Errors
    ///
    /// The writer thread's stored I/O error: once the pipeline failed, no
    /// further submission can become durable, so accepting it would lie.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, PersistError> {
        self.gate.check()?;
        let seq = self.next_seq;
        let mut st = self.pipe.state.lock().expect("pipe mutex");
        while st.buf.len() >= HIGH_WATER && !st.dead {
            st = self.pipe.space.wait(st).expect("pipe mutex");
        }
        if st.dead {
            drop(st);
            self.gate.check()?;
            return Err(gone());
        }
        record.encode_into(seq, &mut st.buf);
        st.count += 1;
        st.last_seq = seq;
        if st.count == 1 {
            self.pipe.work.notify_one();
        }
        drop(st);
        self.next_seq += 1;
        Ok(seq)
    }

    /// Blocks until everything submitted so far is durable; refused once
    /// the writer thread failed, also when that was before the last append.
    pub fn sync(&self) -> Result<(), PersistError> {
        self.gate.check()?;
        match self.next_seq.checked_sub(1) {
            Some(last) => self.gate.wait_for(last),
            None => Ok(()),
        }
    }

    /// Truncates the log file (checkpoint) down to `head`, synchronously:
    /// returns once the writer thread has flushed everything submitted
    /// before this call and then emptied the file. Sequence numbers keep
    /// increasing, mirroring [`WalWriter::truncate`].
    pub fn truncate(&mut self, head: &[u8]) -> Result<(), PersistError> {
        let mut st = self.pipe.state.lock().expect("pipe mutex");
        if st.dead {
            drop(st);
            self.gate.check()?;
            return Err(gone());
        }
        st.truncate = true;
        st.trunc_head = head.to_vec();
        self.pipe.work.notify_one();
        loop {
            if let Some(res) = st.trunc_result.take() {
                drop(st);
                return match res {
                    Ok(()) => {
                        // Records flushed before the truncation were
                        // checkpointed; waiters on them must not hang.
                        self.gate.advance(self.next_seq);
                        Ok(())
                    }
                    Err(msg) => Err(PersistError::WriterFailed(msg)),
                };
            }
            if st.dead {
                drop(st);
                self.gate.check()?;
                return Err(gone());
            }
            st = self.pipe.space.wait(st).expect("pipe mutex");
        }
    }

    /// The shared durability gate (watermark + completion notification).
    pub fn gate(&self) -> Arc<DurabilityGate> {
        Arc::clone(&self.gate)
    }

    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Activity counters, mirrored from the writer thread.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.stats.appended.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            syncs: self.stats.syncs.load(Ordering::Relaxed),
            bytes: self.stats.bytes.load(Ordering::Relaxed),
            extensions: self.stats.extensions.load(Ordering::Relaxed),
        }
    }
}

impl Drop for AsyncWalWriter {
    /// Clean shutdown: mark the pipe closed, then join the writer thread,
    /// which flushes and fsyncs everything still in flight before exiting.
    /// Nothing submitted is lost on an orderly drop.
    fn drop(&mut self) {
        {
            let mut st = self.pipe.state.lock().expect("pipe mutex");
            st.closed = true;
            self.pipe.work.notify_one();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The background writer: swap the accumulated batch out under the lock,
/// one write + one fsync per swap, watermark published after the fsync —
/// never before.
fn writer_loop(
    mut wal: WalWriter,
    pipe: Arc<Pipe>,
    gate: Arc<DurabilityGate>,
    stats: Arc<SharedStats>,
) {
    // The writer's side of the double buffer: swapped with the submit
    // buffer each cycle, so neither side ever reallocates in steady state.
    let mut batch: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut dwell = std::time::Duration::ZERO;
    loop {
        let (count, last_seq, trunc) = {
            let mut st = pipe.state.lock().expect("pipe mutex");
            let mut idled = false;
            while st.count == 0 && !st.truncate && !st.closed {
                st = pipe.work.wait(st).expect("pipe mutex");
                idled = true;
            }
            if st.count == 0 && !st.truncate && st.closed {
                return;
            }
            // Adapt the coalescing dwell to the arrival pattern: work
            // already waiting after a flush means we are the bottleneck —
            // dwell (and keep doubling) so batches amortize more per fsync.
            // Having slept on the condvar means the pipe is keeping pace —
            // flush eagerly for latency.
            dwell = if idled {
                std::time::Duration::ZERO
            } else if dwell.is_zero() {
                COALESCE_MIN
            } else {
                (dwell * 2).min(COALESCE_MAX)
            };
            if !dwell.is_zero() && !st.truncate && !st.closed && st.buf.len() < HIGH_WATER / 2 {
                drop(st);
                std::thread::sleep(dwell);
                st = pipe.state.lock().expect("pipe mutex");
            }
            batch.clear();
            std::mem::swap(&mut st.buf, &mut batch);
            let count = std::mem::take(&mut st.count);
            let trunc =
                std::mem::take(&mut st.truncate).then(|| std::mem::take(&mut st.trunc_head));
            // Backpressured submitters can refill the (now empty) buffer.
            pipe.space.notify_all();
            (count, st.last_seq, trunc)
        };

        if count > 0 {
            if let Err(e) = wal.append_frames(&batch, count) {
                let msg = e.to_string();
                gate.fail(msg.clone());
                let mut st = pipe.state.lock().expect("pipe mutex");
                st.dead = true;
                if trunc.is_some() {
                    st.trunc_result = Some(Err(msg));
                }
                pipe.space.notify_all();
                return;
            }
            // Counters first: whoever the watermark wakes may read them.
            stats.appended.fetch_add(count, Ordering::Relaxed);
            stats.flushes.fetch_add(1, Ordering::Relaxed);
            stats.syncs.fetch_add(1, Ordering::Relaxed);
            stats.bytes.fetch_add(batch.len() as u64, Ordering::Relaxed);
            stats
                .extensions
                .store(wal.stats().extensions, Ordering::Relaxed);
            gate.advance(last_seq + 1);
        }

        if let Some(head) = trunc {
            // Ordered after the flush above: everything submitted before
            // the truncation request is on media (and checkpointed by the
            // caller) before the file empties.
            let res = wal.truncate(&head).map_err(|e| e.to_string());
            let failed = res.is_err();
            match &res {
                Ok(()) => {
                    stats.syncs.fetch_add(1, Ordering::Relaxed);
                }
                Err(msg) => gate.fail(msg.clone()),
            }
            let mut st = pipe.state.lock().expect("pipe mutex");
            st.trunc_result = Some(res);
            if failed {
                st.dead = true;
            }
            pipe.space.notify_all();
            if failed {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::read_log;
    use std::path::PathBuf;
    use terp_pmo::PmoId;

    fn rec(n: u64) -> WalRecord {
        WalRecord::DataWrite {
            pmo: PmoId::new(1).unwrap(),
            offset: n,
            data: vec![n as u8; 24],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("terp-awal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appends_return_at_submit_and_sync_waits_for_all() {
        let dir = temp_dir("submit");
        let path = dir.join("wal.log");
        let (wal, _) = WalWriter::open(&path).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        for n in 0..100 {
            assert_eq!(w.append(&rec(n)).unwrap(), n);
        }
        w.sync().unwrap();
        assert!(w.gate().is_durable(99));
        assert_eq!(w.gate().watermark(), 100);
        let decoded = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(decoded.records.len(), 100);
        assert!(decoded.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn watermark_is_monotonic_and_every_wait_completes() {
        let dir = temp_dir("ticket");
        let (wal, _) = WalWriter::open(&dir.join("wal.log")).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        let gate = w.gate();
        let mut last = gate.watermark();
        let mut seqs = Vec::new();
        for n in 0..256 {
            seqs.push(w.append(&rec(n)).unwrap());
            let now = gate.watermark();
            assert!(now >= last, "watermark must never retreat");
            last = now;
        }
        for seq in seqs {
            gate.wait_for(seq).unwrap();
            assert!(gate.is_durable(seq));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_drains_the_pipeline() {
        let dir = temp_dir("drain");
        let path = dir.join("wal.log");
        {
            let (wal, _) = WalWriter::open(&path).unwrap();
            let mut w = AsyncWalWriter::spawn(wal);
            for n in 0..50 {
                w.append(&rec(n)).unwrap();
            }
            // No sync: Drop must close the queue and join the writer, which
            // flushes everything still in flight.
        }
        let decoded = read_log(&std::fs::read(&path).unwrap());
        assert_eq!(decoded.records.len(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_is_synchronous_and_seq_keeps_increasing() {
        let dir = temp_dir("trunc");
        let path = dir.join("wal.log");
        let (wal, _) = WalWriter::open(&path).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        for n in 0..10 {
            w.append(&rec(n)).unwrap();
        }
        w.truncate(&[]).unwrap();
        let emptied = read_log(&std::fs::read(&path).unwrap());
        assert!(
            emptied.records.is_empty() && emptied.is_clean(),
            "reads as empty"
        );
        let seq = w.append(&rec(99)).unwrap();
        assert_eq!(seq, 10, "sequence numbers survive truncation");
        w.sync().unwrap();
        assert_eq!(read_log(&std::fs::read(&path).unwrap()).records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Over a sink that fails one write, or one sync, and would then
    /// succeed: the pipeline refuses everything after, with the typed error.
    #[test]
    fn a_failed_write_or_sync_refuses_every_later_call() {
        for (writes, syncs) in [(1, 0), (0, 1)] {
            let mut w = AsyncWalWriter::spawn(WalWriter::failing(writes, syncs));
            assert_eq!(w.append(&rec(0)).unwrap(), 0, "accepted at submit");
            w.sync().unwrap_err();
            let typed = |r: Result<(), PersistError>| {
                assert!(matches!(r, Err(PersistError::WriterFailed(_))), "{r:?}")
            };
            typed(w.sync());
            typed(w.append(&rec(1)).map(drop));
            typed(w.truncate(&[]));
            typed(w.gate().wait_for(0));
            assert_eq!(w.gate().watermark(), 0, "nothing was vouched for");
        }
    }

    #[test]
    fn reopen_resumes_after_async_writes() {
        let dir = temp_dir("reopen");
        let path = dir.join("wal.log");
        {
            let (wal, _) = WalWriter::open(&path).unwrap();
            let mut w = AsyncWalWriter::spawn(wal);
            for n in 0..20 {
                w.append(&rec(n)).unwrap();
            }
        }
        let (wal, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 20);
        let w = AsyncWalWriter::spawn(wal);
        assert_eq!(w.next_seq(), 20);
        assert_eq!(w.gate().watermark(), 20, "on-disk prefix counts durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_waiters_all_release() {
        let dir = temp_dir("waiters");
        let (wal, _) = WalWriter::open(&dir.join("wal.log")).unwrap();
        let mut w = AsyncWalWriter::spawn(wal);
        let gate = w.gate();
        let mut seqs = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for n in 0..64 {
                let seq = w.append(&rec(n)).unwrap();
                seqs.push(seq);
                let g = Arc::clone(&gate);
                joins.push(scope.spawn(move || g.wait_for(seq).is_ok()));
            }
            for j in joins {
                assert!(j.join().unwrap());
            }
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
