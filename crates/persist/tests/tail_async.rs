//! TailReader vs. the pipelined async store (ISSUE 10, satellite 6).
//!
//! A replication leader tails the very file the background log writer is
//! appending to with large coalesced `write(2)`s. The reader must treat
//! every torn observation as `NeedMore` — never a CRC error — and must
//! survive a checkpoint truncating the log out from under it with a clean
//! `Truncated` + restart-from-zero, not corruption.

use terp_persist::{
    read_log, DurableStore, TailReader, TailStatus, Visibility, WalRecord, WAL_FILE,
};
use terp_pmo::{OpenMode, PmoId, PmoRegistry};

fn rec(n: u64) -> WalRecord {
    WalRecord::DataWrite {
        pmo: PmoId::new(1).unwrap(),
        offset: n * 64,
        data: vec![n as u8; 24],
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-tail-async-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn tail_reader_over_live_async_writer_sees_no_errors_and_survives_truncation() {
    let dir = temp_dir("race");
    let (mut store, _, _) = DurableStore::open(&dir, Visibility::Submit).unwrap();
    let wal = dir.join(WAL_FILE);
    let total: u64 = 400;

    // Phase 1: poll concurrently with the background writer's coalesced
    // batches. Every poll must be CaughtUp or NeedMore — a torn tail is
    // "not yet", never corruption — and the records arrive in order,
    // exactly once.
    let mut tail = TailReader::new(&wal);
    let mut store = std::thread::scope(|scope| {
        let appender = scope.spawn(move || {
            for n in 0..total {
                store.log(&rec(n)).unwrap();
                if n % 17 == 0 {
                    std::thread::yield_now();
                }
            }
            store.sync().unwrap();
            store
        });

        let mut seen: Vec<u64> = Vec::new();
        while seen.len() < total as usize {
            let chunk = tail
                .poll()
                .expect("poll must never error under a live writer");
            assert_ne!(chunk.status, TailStatus::Truncated, "no checkpoint ran yet");
            seen.extend(read_log(&chunk.bytes).records.iter().map(|(seq, _)| *seq));
            if chunk.frames == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(
            seen,
            (0..total).collect::<Vec<_>>(),
            "in order, exactly once"
        );
        appender.join().unwrap()
    });

    // Phase 2: a checkpoint truncates the WAL beneath the
    // reader. The poll after the truncation reports Truncated and resets to
    // offset zero; subsequent appends read cleanly from the top.
    let mut reg = PmoRegistry::new();
    let p = reg
        .create("tail-ckpt", 1 << 16, OpenMode::ReadWrite)
        .unwrap();
    let pool = reg.pool_mut(p).unwrap();
    let oid = pool.pmalloc(64).unwrap();
    pool.write_bytes(oid.offset(), b"dirty page").unwrap();
    store
        .checkpoint(std::iter::once(reg.pool_mut(p).unwrap()), &[])
        .unwrap();

    let chunk = tail.poll().expect("truncation is a status, not an error");
    assert_eq!(chunk.status, TailStatus::Truncated);
    assert_eq!(chunk.frames, 0);
    assert_eq!(tail.offset(), 0, "reader restarts from the top");

    // The log from the top opens with the checkpoint's marker.
    store.log(&rec(999)).unwrap();
    store.sync().unwrap();
    let chunk = tail.poll().unwrap();
    let (seq, _) = chunk.marker.expect("the log opens with the marker");
    assert_eq!((chunk.frames, chunk.last_seq), (2, Some(seq + 1)));
    assert!(matches!(
        read_log(&chunk.bytes).records[..],
        [(s, WalRecord::Checkpoint { .. }), (next, _)] if s == seq && next == seq + 1
    ));
    assert_eq!(chunk.status, TailStatus::CaughtUp);
    // The shipped bytes are verbatim the post-checkpoint file prefix; what
    // the file holds behind them is its reservation, all zeros.
    let file = std::fs::read(&wal).unwrap();
    let (prefix, reservation) = file.split_at(chunk.bytes.len());
    assert_eq!(chunk.bytes, prefix);
    assert!(reservation.iter().all(|&b| b == 0));

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
