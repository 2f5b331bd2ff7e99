//! The reserved write-ahead log: *valid frames, then zeros*.
//!
//! `wal.log` is written into blocks that were zero-filled and synced ahead
//! of the records, and truncated by zeroing, so every crash leaves a state
//! the old append-only file could not be in: zeros where a frame stopped,
//! whole frames of an earlier generation behind a gap, a reservation whose
//! length says nothing. Each test builds such a state as a byte image and
//! holds [`DurableStore::open`], [`WalWriter::open`] and [`TailReader`] to
//! exact counts — no timing anywhere:
//!
//! 1. a finished log cut at every byte of its last frame;
//! 2. the recycled-log trap: a truncation interrupted with one 4 KiB block
//!    left un-zeroed, near the head or far behind it, then a new generation
//!    whose last frame ends exactly where a stale frame begins (or began);
//! 3. a torn multi-frame write with intact frames behind the damaged one,
//!    and one whose first sector is simply missing;
//! 4. interrupted extensions and odd file lengths;
//! 5. what a reopen reads and decodes, and when the file extends;
//! 6. the tail reader under a zeroed head and in front of debris;
//! 7. arbitrary bytes behind a valid prefix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use terp_persist::record::MAX_PAYLOAD;
use terp_persist::{
    load_checkpoint, read_log, DurableStore, TailReader, TailStatus, Visibility, WalRecord,
    WalWriter, CKPT_FILE, WAL_FILE, WAL_RESERVE,
};
use terp_pmo::{OpenMode, PmoId};

/// The largest single allocation this test binary ever asked for: test 7's
/// bound on what a garbage length field can make a reader allocate.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only records the requested size.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

const BOTH: [Visibility; 2] = [Visibility::Durable, Visibility::Submit];
const POOL_SIZE: u64 = 1 << 18;
/// Data bytes of one [`write`] record; its frame is `FRAME` bytes.
const DATA: usize = 100;
const FRAME: usize = 31 + DATA;
/// Bytes of a `Checkpoint` frame: the marker a checkpoint's truncation
/// leaves at the head of the log.
const MARKER: usize = 25;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-reserved-log-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn pool() -> PmoId {
    PmoId::new(1).unwrap()
}

fn create() -> WalRecord {
    WalRecord::PoolCreate {
        id: pool(),
        name: "reserved".into(),
        size: POOL_SIZE,
        mode: OpenMode::ReadWrite,
    }
}

/// A write of `len` bytes of `fill` at cell `n` of the pool.
fn write_of(n: u64, fill: u8, len: usize) -> WalRecord {
    WalRecord::DataWrite {
        pmo: pool(),
        offset: (n % 64) * 1024,
        data: vec![fill; len],
    }
}

fn write(n: u64, fill: u8) -> WalRecord {
    write_of(n, fill, DATA)
}

fn open(dir: &Path, visibility: Visibility) -> (DurableStore, terp_persist::RecoveryReport) {
    let (store, _, report) = DurableStore::open(dir, visibility).unwrap();
    (store, report)
}

/// The bytes of `dir`'s `wal.log`, and how many of them are log.
fn wal_image(dir: &Path) -> (Vec<u8>, usize) {
    let image = fs::read(dir.join(WAL_FILE)).unwrap();
    let log = read_log(&image);
    assert!(log.is_clean(), "a finished log ends cleanly");
    (image, log.consumed)
}

/// Start offsets of the frames in `log`, and the end of the last.
fn frame_bounds(log: &[u8]) -> Vec<usize> {
    let mut bounds = vec![0];
    let mut pos = 0;
    while pos + 8 <= log.len() && log[pos..pos + 8] != [0; 8] {
        pos += 8 + u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        bounds.push(pos);
    }
    bounds
}

fn assert_zero_from(image: &[u8], from: usize, what: &str) {
    assert!(
        image[from..].iter().all(|&b| b == 0),
        "{what}: bytes behind {from} are not all zero"
    );
}

/// (i) Cut at every byte of the last frame, zeros behind the cut.
#[test]
fn a_log_cut_anywhere_in_its_last_frame_recovers_its_prefix_once() {
    for visibility in BOTH {
        let dir = temp_dir(&format!("cut-{visibility:?}"));
        let records = 6u64;
        {
            let (mut store, _) = open(&dir, visibility);
            store.log(&create()).unwrap();
            for n in 1..records {
                store.log(&write(n, n as u8 + 1)).unwrap();
            }
            store.sync().unwrap();
        }
        let (image, used) = wal_image(&dir);
        assert_eq!(image.len() as u64, WAL_RESERVE);
        let bounds = frame_bounds(&image[..used]);
        assert_eq!(bounds.len() as u64, records + 1);
        let last = bounds[bounds.len() - 2];

        for cut in last + 1..used {
            let mut torn = image.clone();
            torn[cut..].fill(0);
            fs::write(dir.join(WAL_FILE), &torn).unwrap();
            // Zeros inside the frame's own tail are not "dropped" bytes: the
            // debris ends at the last byte that is not zero.
            let debris = torn[last..cut].iter().rposition(|&b| b != 0).unwrap() + 1;

            let (mut store, report) = open(&dir, visibility);
            let what = format!("{visibility:?}, cut at {cut}");
            assert!(report.torn_tail, "{what}");
            assert_eq!(report.bytes_dropped, debris, "{what}");
            assert_eq!(report.frames_decoded, records - 1, "{what}");
            assert_eq!(store.next_seq(), records - 1, "{what}");
            let zeroed = fs::read(dir.join(WAL_FILE)).unwrap();
            assert_eq!(zeroed[..last], image[..last], "{what}: prefix kept");
            assert_zero_from(&zeroed, last, &what);
            assert_eq!(
                zeroed.len(),
                image.len(),
                "{what}: the file kept its blocks"
            );

            // The next append lands on the boundary the tear left.
            store.log(&write(records - 1, records as u8)).unwrap();
            store.sync().unwrap();
            assert_eq!(store.stats().extensions, 0, "{what}: no new reservation");
            drop(store);
            let (after, used_after) = wal_image(&dir);
            assert_eq!(after, image, "{what}: the same log as the uncut one");
            assert_eq!(used_after, used);

            let (_, again) = open(&dir, visibility);
            assert!(!again.torn_tail, "{what}: reported once");
            assert_eq!(again.bytes_dropped, 0);
            assert_eq!(again.frames_decoded, records);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store with one generation of `frames` equal-sized records, then
/// checkpointed: returns the generation's log bytes as they stood when the
/// truncation began — the checkpoint's marker last — and the marker.
fn one_generation_checkpointed(
    dir: &Path,
    visibility: Visibility,
    frames: u64,
) -> (Vec<u8>, Vec<u8>) {
    let (mut store, _) = open(dir, visibility);
    let mut reg = terp_pmo::PmoRegistry::new();
    reg.create("reserved", POOL_SIZE, OpenMode::ReadWrite)
        .unwrap();
    store.log(&create()).unwrap();
    for n in 0..frames {
        reg.pool_mut(pool())
            .unwrap()
            .write_bytes((n % 64) * 1024, &[0xA1; DATA])
            .unwrap();
        store.log(&write(n, 0xA1)).unwrap();
    }
    store.sync().unwrap();
    let (image, used) = wal_image(dir);
    store.checkpoint(reg.iter_mut(), &[]).unwrap();
    let (after, left) = wal_image(dir);
    assert_eq!(
        left, MARKER,
        "the checkpoint zeroed the log behind its marker"
    );
    let marker = after[..MARKER].to_vec();
    ([&image[..used], &marker[..]].concat(), marker)
}

/// How far behind its position the first write of an open looks for what a
/// torn write left, and zeroes it (`wal.rs`: `WRITE_SPAN`).
const SCRUBBED: usize = 256 << 10;

/// (ii) The recycled-log trap. The truncation writes the marker over block
/// 0 and zeros behind it, and its blocks land in any order. A stale frame
/// within [`SCRUBBED`] bytes of the log's end is zeroed before generation 2
/// lands; one further on stays until generation 2 runs into it, where its
/// sequence number gives it away.
#[test]
fn stale_frames_behind_an_interrupted_zeroing_are_never_reached() {
    for visibility in BOTH {
        let home = temp_dir(&format!("trap-home-{visibility:?}"));
        let dir = temp_dir(&format!("trap-{visibility:?}"));
        let (generation1, marker) = one_generation_checkpointed(&home, visibility, 2_600);
        let image_records = load_checkpoint(&home).unwrap().pools.len();
        let stale_bounds = frame_bounds(&generation1);
        let blocks = generation1.len().div_ceil(4096);
        assert!(blocks > SCRUBBED / 4096 + 8, "{blocks} blocks");

        // What the interrupted truncation left: nothing written, everything
        // written, or everything but one block — the head, near it, on either
        // side of what the first write scrubs, at the end. And one state no
        // truncation leaves: zeros from byte 0, the marker lost with block 0.
        let truncated = {
            let mut all = vec![0u8; generation1.len()];
            all[..MARKER].copy_from_slice(&marker);
            all
        };
        let mut states: Vec<(String, Vec<u8>)> = vec![
            ("none written".into(), generation1.clone()),
            ("all written".into(), truncated.clone()),
            ("all zeroed, no marker".into(), Vec::new()),
        ];
        for block in [0, 1, 2, 9, 62, 63, 64, 65, 71, blocks - 1] {
            let (from, to) = (block * 4096, ((block + 1) * 4096).min(generation1.len()));
            let mut left = truncated.clone();
            left[from..to].copy_from_slice(&generation1[from..to]);
            states.push((format!("block {block} left"), left));
        }

        for (label, left) in states {
            let what = format!("{visibility:?}, {label}");
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            fs::copy(home.join(CKPT_FILE), dir.join(CKPT_FILE)).unwrap();
            let mut image = left.clone();
            image.resize(WAL_RESERVE as usize, 0);
            fs::write(dir.join(WAL_FILE), &image).unwrap();

            // The restart after the interrupted truncation. Whatever of
            // generation 1 is reachable from byte 0 is superseded and goes.
            let (mut store, report) = open(&dir, visibility);
            assert_eq!(
                report.records_replayed, image_records,
                "{what}: the image only"
            );
            let floor = store.next_seq();
            assert_eq!(floor, 2_602, "{what}: past the marker, whatever survived");
            let reopened = fs::read(dir.join(WAL_FILE)).unwrap();
            assert_eq!(
                &reopened[..MARKER + 8],
                &truncated[..MARKER + 8],
                "{what}: the log starts over behind the marker"
            );

            // Generation 2 ends exactly where the first whole stale frame
            // still in the file begins (anywhere, if none is).
            let target = stale_bounds
                .windows(2)
                .map(|w| (w[0], w[1]))
                .find(|&(from, to)| from >= FRAME && reopened[from..to] == generation1[from..to])
                .map_or(5 * FRAME, |(from, _)| from);
            let stale_ahead = reopened[target..target + 8] != [0; 8];
            assert_eq!(
                stale_ahead,
                label.starts_with("block") && label != "block 0 left",
                "{what}: a stale frame waits at {target}"
            );
            // Within the first write's reach it is zeroed before anything
            // lands; further on, generation 2 runs into it.
            let met = stale_ahead && target >= SCRUBBED;
            let mut appended = Vec::new();
            let mut remaining = target - MARKER;
            while remaining > 0 {
                let len = if remaining >= 2 * FRAME {
                    DATA
                } else {
                    remaining - 31
                };
                let n = appended.len() as u64;
                appended.push((store.log(&write_of(n, 0xB2, len)).unwrap(), len));
                remaining -= 31 + len;
                if appended.len() % 500 == 0 {
                    store.sync().unwrap();
                }
            }
            store.sync().unwrap();
            let seqs: Vec<u64> = appended.iter().map(|(seq, _)| *seq).collect();
            assert_eq!(seqs[0], floor);

            // Nobody who reads the file sees a frame of generation 1.
            let file = fs::read(dir.join(WAL_FILE)).unwrap();
            assert_eq!(file[target..target + 8] != [0; 8], met, "{what}");
            let log = read_log(&file);
            assert_eq!(log.consumed, target, "{what}");
            let seqs: Vec<u64> = [floor - 1].into_iter().chain(seqs).collect();
            assert_eq!(
                log.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                seqs,
                "{what}: read_log"
            );
            assert_eq!(log.is_clean(), !met, "{what}");
            let mut tail = TailReader::new(&dir.join(WAL_FILE));
            let mut shipped = Vec::new();
            let mut bytes = Vec::new();
            for _ in 0..3 {
                let chunk = tail.poll().unwrap();
                assert_ne!(chunk.status, TailStatus::Truncated, "{what}");
                let records = read_log(&chunk.bytes).records;
                assert_eq!(records.len(), chunk.frames, "{what}");
                shipped.extend(records.iter().map(|(s, _)| *s));
                bytes.extend_from_slice(&chunk.bytes);
            }
            assert_eq!(shipped, seqs, "{what}: shipped");
            assert_eq!(bytes, file[..target], "{what}: shipped bytes");
            assert_eq!(tail.offset(), target as u64);
            drop(store);

            let (store, report) = open(&dir, visibility);
            assert_eq!(report.frames_decoded, seqs.len() as u64, "{what}");
            assert_eq!(
                report.records_replayed,
                image_records + seqs.len() - 1,
                "{what}: the marker is not replayed"
            );
            assert_eq!(report.records_skipped, 0, "{what}");
            assert_eq!(store.next_seq(), seqs.last().unwrap() + 1, "{what}");
            assert_eq!(report.torn_tail, met, "{what}");
            // A stale frame that was met is debris now, and gone.
            assert_zero_from(&fs::read(dir.join(WAL_FILE)).unwrap(), target, &what);
            drop(store);
            let (_, state, again) = DurableStore::open(&dir, visibility).unwrap();
            assert!(!again.torn_tail, "{what}: reported once");
            // Generation 2's bytes, not generation 1's, in every cell it wrote.
            let recovered = state.registry.pool(pool()).unwrap();
            for (n, (_, len)) in appended.iter().enumerate().rev().take(64) {
                let mut cell = vec![0u8; *len];
                recovered
                    .read_bytes((n as u64 % 64) * 1024, &mut cell)
                    .unwrap();
                assert_eq!(cell, vec![0xB2; *len], "{what}: cell of write {n}");
            }
        }
        fs::remove_dir_all(&home).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (iii) Five frames in one write; the second is damaged, the rest intact.
#[test]
fn intact_frames_behind_a_damaged_one_are_dropped_and_gone() {
    for visibility in BOTH {
        let dir = temp_dir(&format!("five-{visibility:?}"));
        let base = 4u64;
        {
            let (mut store, _) = open(&dir, visibility);
            store.log(&create()).unwrap();
            for n in 1..base {
                store.log(&write(n, 1)).unwrap();
            }
            store.sync().unwrap();
            for n in 0..5 {
                store.log(&write(n, 2)).unwrap();
            }
            store.sync().unwrap();
        }
        let (mut image, used) = wal_image(&dir);
        let bounds = frame_bounds(&image[..used]);
        let (second, third) = (bounds[base as usize + 1], bounds[base as usize + 2]);
        image[second + FRAME / 2] ^= 0x10;
        fs::write(dir.join(WAL_FILE), &image).unwrap();
        assert_eq!(read_log(&image[third..used]).records.len(), 3, "3-5 intact");

        let (store, report) = open(&dir, visibility);
        assert!(report.torn_tail);
        assert_eq!(report.frames_decoded, base + 1);
        assert_eq!(report.bytes_dropped, used - second);
        assert_eq!(store.next_seq(), base + 1);
        assert_zero_from(&fs::read(dir.join(WAL_FILE)).unwrap(), second, "five");
        drop(store);
        let (_, again) = open(&dir, visibility);
        assert!(!again.torn_tail);
        assert_eq!(again.frames_decoded, base + 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (iii-b) Five frames in one write; the sector holding the *first* frame's
/// header never reached the disk and reads as zeros, the other four frames
/// did. The log ends cleanly in front of them, so their sequence numbers are
/// assigned again — and the new frames, equal in size, end exactly where the
/// first survivor begins. Strictly increasing sequence numbers cannot reject
/// it (it is a successor by number); it must be gone before anything lands.
#[test]
fn intact_frames_behind_a_lost_first_sector_are_never_reached() {
    for visibility in BOTH {
        let dir = temp_dir(&format!("lost-head-{visibility:?}"));
        let base = 4u64;
        {
            let (mut store, _) = open(&dir, visibility);
            store.log(&create()).unwrap();
            for n in 1..base {
                store.log(&write(n, 1)).unwrap();
            }
            store.sync().unwrap();
            for n in 0..5 {
                store.log(&write(n, 2)).unwrap();
            }
            store.sync().unwrap();
        }
        let (mut image, used) = wal_image(&dir);
        let bounds = frame_bounds(&image[..used]);
        let (first, second) = (bounds[base as usize], bounds[base as usize + 1]);
        image[first..second].fill(0);
        fs::write(dir.join(WAL_FILE), &image).unwrap();
        let survivors = read_log(&image[second..used]);
        assert_eq!(
            survivors
                .records
                .iter()
                .map(|(s, _)| *s)
                .collect::<Vec<_>>(),
            [base + 1, base + 2, base + 3, base + 4],
            "whole frames behind the zeros"
        );

        // The restart sees a clean end and numbers on from the last frame
        // it could reach; a reader of the file sees no more than it did.
        let (mut store, report) = open(&dir, visibility);
        assert!(!report.torn_tail);
        assert_eq!(report.bytes_dropped, 0);
        assert_eq!(report.frames_decoded, base);
        assert_eq!(store.next_seq(), base);
        let mut tail = TailReader::new(&dir.join(WAL_FILE));
        assert_eq!(tail.poll().unwrap().frames, base as usize);
        assert_eq!(tail.offset(), first as u64);

        // One record of the lost one's size: it ends where the survivor
        // with the very next sequence number begins.
        let seq = store.log(&write(0, 3)).unwrap();
        assert_eq!(seq, base);
        store.sync().unwrap();
        assert_eq!(store.stats().extensions, 0);
        let file = fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(file[..first], image[..first], "the prefix stands");
        assert_zero_from(&file, second, "behind the new frame");
        let log = read_log(&file);
        assert_eq!(log.consumed, second);
        assert_eq!(log.last_seq(), Some(base));
        assert!(log.is_clean());
        for _ in 0..2 {
            let chunk = tail.poll().unwrap();
            assert!(chunk.last_seq.is_none_or(|s| s == base) && chunk.frames <= 1);
            assert_eq!(chunk.status, TailStatus::CaughtUp);
        }
        assert_eq!(tail.offset(), second as u64, "shipped the new frame only");
        drop(store);

        let (store, state, report) = DurableStore::open(&dir, visibility).unwrap();
        assert_eq!(report.frames_decoded, base + 1);
        assert!(!report.torn_tail);
        assert_eq!(store.next_seq(), base + 1, "no stale frame was counted");
        // The acknowledged write's bytes, not the unacknowledged ones'.
        let mut cell = [0u8; DATA];
        let recovered = state.registry.pool(pool()).unwrap();
        recovered.read_bytes(0, &mut cell).unwrap();
        assert_eq!(cell, [3; DATA]);
        recovered.read_bytes(1024, &mut cell).unwrap();
        assert_eq!(cell, [1; DATA], "write 1 of the lost batch never happened");
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (iv) An extension interrupted after its zeros and before its `sync_all`
/// leaves a file of any length; none of them is a torn log.
#[test]
fn interrupted_extensions_and_odd_lengths_open_clean() {
    for visibility in BOTH {
        let dir = temp_dir(&format!("lengths-{visibility:?}"));
        let records = 5u64;
        {
            let (mut store, _) = open(&dir, visibility);
            store.log(&create()).unwrap();
            for n in 1..records {
                store.log(&write(n, 3)).unwrap();
            }
            store.sync().unwrap();
        }
        let (image, used) = wal_image(&dir);
        let reserve = WAL_RESERVE as usize;
        for len in [
            used,
            used + 1,
            used + 7,
            used + 300 * 1024,
            reserve - 1,
            reserve + 123,
            2 * reserve,
        ] {
            let what = format!("{visibility:?}, {len} bytes");
            let mut file = image.clone();
            file.resize(len, 0);
            fs::write(dir.join(WAL_FILE), &file).unwrap();

            let (mut store, report) = open(&dir, visibility);
            assert!(!report.torn_tail, "{what}");
            assert_eq!(report.bytes_dropped, 0, "{what}");
            assert_eq!(report.frames_decoded, records, "{what}");
            assert!(
                report.wal_bytes_read <= (used + (64 << 10)) as u64,
                "{what}"
            );
            store.log(&write(records, 4)).unwrap();
            store.sync().unwrap();
            // Only a file too short for the record extends.
            let extends = len < used + FRAME;
            assert_eq!(store.stats().extensions, u64::from(extends), "{what}");
            drop(store);
            let grown = fs::metadata(dir.join(WAL_FILE)).unwrap().len() as usize;
            assert_eq!(grown, if extends { reserve } else { len }, "{what}");

            let (_, again) = open(&dir, visibility);
            assert!(!again.torn_tail, "{what}");
            assert_eq!(again.frames_decoded, records + 1, "{what}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (v) What a reopen costs, in counts: every frame decoded once, the
/// reservation never read; and when the file extends.
#[test]
fn a_reopen_reads_the_written_prefix_once_and_the_steady_state_never_extends() {
    for visibility in BOTH {
        let dir = temp_dir(&format!("counts-{visibility:?}"));
        let written = {
            let (mut store, fresh) = open(&dir, visibility);
            assert_eq!((fresh.frames_decoded, fresh.wal_bytes_read), (0, 0));
            store.log(&create()).unwrap();
            for n in 1..100 {
                store.log(&write(n, 5)).unwrap();
            }
            store.sync().unwrap();
            assert_eq!(store.stats().extensions, 1, "reserved once, up front");
            store.stats().bytes
        };
        assert_eq!(
            fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            WAL_RESERVE,
            "100 records in a 1 MiB reservation"
        );
        let (mut store, report) = open(&dir, visibility);
        assert_eq!(report.frames_decoded, 100, "each frame decoded once");
        assert_eq!(report.records_replayed, 100);
        assert!(
            report.wal_bytes_read >= written && report.wal_bytes_read <= written + (64 << 10),
            "{} bytes read for {written} written",
            report.wal_bytes_read
        );

        // Steady state: generations that fit the reservation reuse it.
        let mut reg = terp_pmo::PmoRegistry::new();
        reg.create("reserved", POOL_SIZE, OpenMode::ReadWrite)
            .unwrap();
        for generation in 0..3u8 {
            for n in 0..2_000 {
                store.log(&write(n, generation)).unwrap();
            }
            store.sync().unwrap();
            store.checkpoint(reg.iter_mut(), &[]).unwrap();
            assert_eq!(wal_image(&dir).1, MARKER, "zeroed, not shrunk");
        }
        assert_eq!(
            store.stats().extensions,
            0,
            "no extension between checkpoints: the file kept its blocks"
        );
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), WAL_RESERVE);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// (vi) The tail reader: a zeroed head while it stands mid-log is a
/// truncation, and no poll returns a byte past the last validated frame.
#[test]
fn tail_reader_sees_a_zeroed_head_as_truncation_and_stops_at_debris() {
    let dir = temp_dir("tail");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(WAL_FILE);
    let (mut w, _) = WalWriter::open(&path).unwrap();
    for n in 0..4 {
        w.append(&write(n, 6)).unwrap();
    }
    w.sync().unwrap();
    let mut tail = TailReader::new(&path);
    assert_eq!(tail.poll().unwrap().frames, 4);
    let mid = tail.offset();
    assert_eq!(mid, 4 * FRAME as u64);

    // More records arrive, but the head has been zeroed since: the bytes at
    // the reader's offset belong to no log it knows.
    w.append(&write(4, 6)).unwrap();
    w.sync().unwrap();
    let mut image = fs::read(&path).unwrap();
    let intact = image.clone();
    image[..16].fill(0);
    fs::write(&path, &image).unwrap();
    let chunk = tail.poll().unwrap();
    assert_eq!(chunk.status, TailStatus::Truncated);
    assert!(chunk.frames == 0 && chunk.bytes.is_empty());
    assert_eq!(tail.offset(), 0);
    // From the top the zeroed head is an empty log, not generation 0.
    let chunk = tail.poll().unwrap();
    assert_eq!(chunk.status, TailStatus::CaughtUp);
    assert_eq!(chunk.frames, 0);

    // Debris behind valid frames: a cut frame, then whole frames behind it.
    let mut debris = intact.clone();
    debris[2 * FRAME + 40..3 * FRAME].fill(0);
    fs::write(&path, &debris).unwrap();
    let mut tail = TailReader::new(&path);
    for _ in 0..2 {
        let chunk = tail.poll().unwrap();
        assert_eq!(chunk.status, TailStatus::NeedMore);
        assert_eq!(
            tail.offset(),
            2 * FRAME as u64,
            "never past the last valid frame"
        );
        assert!(chunk.bytes.len() <= 2 * FRAME);
    }

    // A stale whole frame right behind the reader's position: not a successor.
    let mut recycled = vec![0u8; intact.len()];
    let newer = [write(0, 7).encode(10), write(1, 7).encode(11)].concat();
    recycled[..newer.len()].copy_from_slice(&newer);
    recycled[2 * FRAME..5 * FRAME].copy_from_slice(&intact[2 * FRAME..5 * FRAME]);
    fs::write(&path, &recycled).unwrap();
    let mut tail = TailReader::new(&path);
    let chunk = tail.poll().unwrap();
    assert_eq!((chunk.frames, chunk.last_seq), (2, Some(11)));
    assert_eq!(chunk.bytes, newer);
    // …nor on the next poll, which starts at the stale frame with no
    // predecessor in hand but the one it remembers.
    let chunk = tail.poll().unwrap();
    assert!(chunk.frames == 0 && chunk.bytes.is_empty());
    assert_eq!(tail.offset(), newer.len() as u64);
    drop(w);
    fs::remove_dir_all(&dir).unwrap();
}

fn valid_prefix(frames: usize) -> Vec<u8> {
    let mut log = create().encode(0);
    for n in 1..frames as u64 {
        log.extend_from_slice(&write(n, n as u8).encode(n));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (vii) A valid prefix followed by arbitrary bytes: the image decoder
    /// and the file opener agree, stop at the first failure, never panic,
    /// and never allocate for what a length field merely claims.
    #[test]
    fn arbitrary_bytes_behind_a_valid_prefix_end_the_log(
        frames in 1usize..8,
        claimed in prop_oneof![Just(0u32), Just(9), Just(MAX_PAYLOAD as u32), Just(u32::MAX), any::<u32>()],
        tail in collection::vec(any::<u8>(), 0..600),
        zeros in 0usize..200_000,
    ) {
        let prefix = valid_prefix(frames);
        let mut image = prefix.clone();
        // A header claiming `claimed` bytes, whatever follows it.
        image.extend_from_slice(&claimed.to_le_bytes());
        image.extend_from_slice(&tail);
        image.resize(image.len() + zeros, 0);

        let log = read_log(&image);
        prop_assert_eq!(log.records.len(), frames, "decoding stops at the first failure");
        prop_assert_eq!(log.consumed, prefix.len());
        let debris = image[prefix.len()..].iter().rposition(|&b| b != 0).map_or(0, |at| at + 1);
        prop_assert_eq!(log.dropped, debris);

        let dir = temp_dir(&format!("arbitrary-{frames}-{claimed}-{}-{zeros}", tail.len()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        fs::write(&path, &image).unwrap();
        let (w, contents) = WalWriter::open(&path).unwrap();
        prop_assert_eq!(&contents.records, &log.records);
        prop_assert_eq!((contents.consumed, contents.dropped), (log.consumed, log.dropped));
        prop_assert_eq!(w.next_seq(), frames as u64);
        drop(w);
        let cleaned = fs::read(&path).unwrap();
        prop_assert_eq!(&cleaned[..prefix.len()], &prefix[..]);
        prop_assert!(cleaned[prefix.len()..].iter().all(|&b| b == 0));
        let mut tailer = TailReader::new(&path);
        prop_assert_eq!(tailer.poll().unwrap().frames, frames);
        fs::remove_dir_all(&dir).unwrap();
        prop_assert!(LARGEST.load(Ordering::Relaxed) < MAX_PAYLOAD);
    }
}

/// The bound of (vii), over everything this binary did: images of up to
/// 2 MiB were read whole by the tests themselves, and no reader ever asked
/// for a buffer the size a header claimed.
#[test]
fn no_reader_allocates_what_a_length_field_claims() {
    let dir = temp_dir("claims");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(WAL_FILE);
    for claimed in [
        MAX_PAYLOAD as u32,
        MAX_PAYLOAD as u32 - 1,
        u32::MAX,
        1 << 30,
    ] {
        let mut image = valid_prefix(3);
        image.extend_from_slice(&claimed.to_le_bytes());
        image.extend_from_slice(&[0xEE; 40]);
        fs::write(&path, &image).unwrap();
        let (_, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.dropped, 44);
        fs::write(&path, &image).unwrap();
        assert_eq!(TailReader::new(&path).poll().unwrap().frames, 3);
    }
    assert!(
        LARGEST.load(Ordering::Relaxed) < MAX_PAYLOAD,
        "an allocation of {} bytes",
        LARGEST.load(Ordering::Relaxed)
    );
    fs::remove_dir_all(&dir).unwrap();
}
