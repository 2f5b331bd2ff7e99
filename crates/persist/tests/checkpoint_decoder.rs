//! The checkpoint decoder as a property: whatever `ckpt.log` holds, and
//! whatever the WAL opens with, [`CheckpointImage::decode`] — and
//! [`load_checkpoint`] / [`DurableStore::open`] over the same files —
//! returns an error or an image that is a committed prefix of its input.
//! It never panics, and what it allocates is bounded by the input's length
//! and one read chunk (it streams), never by what a length field claims.
//!
//! Inputs: arbitrary bytes; and a real `ckpt.log` of three batches (one
//! compacting checkpoint, two appending ones) cut anywhere, flipped
//! anywhere, or with debris behind it — each with no WAL head, with the
//! real one, and with an arbitrary one. With the real head the whole log
//! must decode: every cut and every flip is an error.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use terp_persist::{
    load_checkpoint, read_log, CheckpointImage, DurableStore, Visibility, WalRecord, CKPT_FILE,
    WAL_FILE,
};
use terp_pmo::{OpenMode, PmoId, PmoRegistry};

/// Records the largest single allocation the current thread asks for.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only records the requested size in a thread-local without a
// destructor, which allocates nothing.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

fn pool() -> PmoId {
    PmoId::new(1).unwrap()
}

/// A real `ckpt.log`, the marker its store's WAL opens with, and where each
/// of its batches ends.
struct Real {
    ckpt: Vec<u8>,
    head: (u64, u64),
    closings: Vec<usize>,
}

fn real() -> &'static Real {
    static REAL: OnceLock<Real> = OnceLock::new();
    REAL.get_or_init(|| {
        let dir = temp_dir("real");
        let (mut store, _, _) = DurableStore::open(&dir, Visibility::Durable).unwrap();
        let mut reg = PmoRegistry::new();
        reg.create("decoded", 1 << 16, OpenMode::ReadWrite).unwrap();
        store
            .log(&WalRecord::PoolCreate {
                id: pool(),
                name: "decoded".into(),
                size: 1 << 16,
                mode: OpenMode::ReadWrite,
            })
            .unwrap();
        let open = [WalRecord::WindowOpen { pmo: pool() }];
        for round in 0..3u64 {
            // Four pages for the image, one more for each appended batch:
            // the log stays short of twice the image, where it would compact.
            for page in if round == 0 {
                0..4
            } else {
                3 + round..4 + round
            } {
                let data = vec![round as u8 + 1; 100];
                reg.pool_mut(pool())
                    .unwrap()
                    .write_bytes(page * 4096, &data)
                    .unwrap();
                store
                    .log(&WalRecord::DataWrite {
                        pmo: pool(),
                        offset: page * 4096,
                        data,
                    })
                    .unwrap();
            }
            // The first checkpoint compacts; the trigger forces the others,
            // which append.
            while round > 0 && !store.checkpoint_due() {
                let oid = 0x0040_0000_0000_0000 | store.next_seq();
                let root = WalRecord::RootSet {
                    pmo: pool(),
                    key: 1,
                    oid,
                };
                store.log(&root).unwrap();
            }
            store.checkpoint(reg.iter_mut(), &open).unwrap();
        }
        drop(store);
        let ckpt = fs::read(dir.join(CKPT_FILE)).unwrap();
        let wal = fs::read(dir.join(WAL_FILE)).unwrap();
        let head = match read_log(&wal).records[..] {
            [(seq, WalRecord::Checkpoint { ckpt_len })] => (seq, ckpt_len),
            ref other => panic!("a drained WAL holds {other:?}"),
        };
        let mut closings = Vec::new();
        let mut pos = 0;
        while pos < ckpt.len() {
            let end = pos + 8 + u32::from_le_bytes(ckpt[pos..pos + 4].try_into().unwrap()) as usize;
            if let [(_, WalRecord::Checkpoint { .. })] = read_log(&ckpt[pos..end]).records[..] {
                closings.push(end);
            }
            pos = end;
        }
        assert_eq!(closings.len(), 3, "three batches");
        assert_eq!(closings.last(), Some(&ckpt.len()));
        fs::remove_dir_all(&dir).unwrap();
        Real {
            ckpt,
            head,
            closings,
        }
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-ckpt-decoder-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

type Image = (
    Option<u64>,
    u64,
    Vec<(u64, WalRecord)>,
    Vec<(u64, WalRecord)>,
);

fn parts(image: CheckpointImage) -> Image {
    (image.seq, image.ckpt_len, image.pools, image.protection)
}

/// Decodes `bytes` against `head`, holding the decoder to its allocation
/// bound on the way: the records it returns, and a read buffer of at most
/// twice one 64 KiB chunk.
fn decode(bytes: &[u8], head: Option<(u64, u64)>) -> Option<Image> {
    LARGEST.with(|largest| largest.set(0));
    let result = CheckpointImage::decode(bytes, head);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 8 * bytes.len() + (128 << 10),
        "{largest} bytes asked for, decoding {}",
        bytes.len()
    );
    result.ok().map(parts)
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_decoder_returns_an_error_or_a_committed_prefix(
        kind in 0u8..4,
        at in any::<u64>(),
        flip in 1u8..=255,
        junk in collection::vec(any::<u8>(), 0..700),
        head_kind in 0u8..3,
        any_head in (any::<u64>(), any::<u64>()),
    ) {
        let real = real();
        let (bytes, from_real) = match kind {
            0 => (junk.clone(), false),
            1 => (real.ckpt[..at as usize % (real.ckpt.len() + 1)].to_vec(), true),
            2 => {
                let mut flipped = real.ckpt.clone();
                flipped[at as usize % real.ckpt.len()] ^= flip;
                (flipped, true)
            }
            _ => ([&real.ckpt[..], &junk[..]].concat(), true),
        };
        let head = match head_kind {
            0 => None,
            1 => Some(real.head),
            _ => Some(any_head),
        };

        let decoded = decode(&bytes, head);
        if let Some(image) = &decoded {
            // A committed prefix of the input: decoding just that prefix,
            // with nothing to vouch for it, gives the same image.
            let len = image.1 as usize;
            prop_assert!(len <= bytes.len());
            prop_assert_eq!(decode(&bytes[..len], None).as_ref(), Some(image));
            if from_real {
                // …and of the real log: one of its batches' ends.
                prop_assert!(len == 0 || real.closings.contains(&len), "ends at {}", len);
                prop_assert_eq!(decode(&real.ckpt[..len], None).as_ref(), Some(image));
            }
        }
        if head == Some(real.head) && from_real {
            // The real head vouches for the whole log: only an input that
            // still holds all of it decodes.
            let intact = bytes.len() >= real.ckpt.len() && bytes[..real.ckpt.len()] == real.ckpt[..];
            prop_assert_eq!(decoded.is_some(), intact);
        }
        if head.is_none() && kind == 1 {
            // Without one, a cut log keeps the batches before the cut.
            let kept = real.closings.iter().rev().find(|&&end| end <= bytes.len());
            prop_assert_eq!(decoded.as_ref().map(|image| image.1 as usize), Some(kept.copied().unwrap_or(0)));
        }

        // The same bytes on disk, behind the front door.
        let dir = temp_dir(&format!("case-{}", CASE.fetch_add(1, Ordering::Relaxed)));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CKPT_FILE), &bytes).unwrap();
        if let Some((seq, ckpt_len)) = head {
            fs::write(dir.join(WAL_FILE), WalRecord::Checkpoint { ckpt_len }.encode(seq)).unwrap();
        }
        let loaded = load_checkpoint(&dir).ok().map(parts);
        prop_assert_eq!(&loaded, &decoded);
        let opened = DurableStore::open(&dir, Visibility::Durable);
        prop_assert_eq!(opened.is_ok(), decoded.is_some(), "{:?}", opened.err());
        drop(opened);
        fs::remove_dir_all(&dir).unwrap();
    }
}
