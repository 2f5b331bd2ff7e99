//! The checkpoint protocol at every crash step, and the bound it buys.
//!
//! A scripted history — three pools, two exposure windows left open, a
//! root, one transaction abandoned in flight — runs
//! against a real [`DurableStore`] while every record it logs is also kept,
//! un-truncated, as the *uncheckpointed reference*. Then a checkpoint runs,
//! and from the directory before and after it the test materialises every
//! on-disk state the protocol passes through:
//!
//! 1. the `Checkpoint` marker synced to the WAL;
//! 2. the checkpoint's batch cut at every [`enumerate_crash_points`]
//!    position, its closing frame included — appended to `ckpt.log`, or in
//!    the temp file of a compacting checkpoint (empty, torn, whole); the
//!    closing frame durable while an earlier 4 KiB block of its batch is
//!    not; the batch whole — appended, or the temp file renamed — with the
//!    WAL whole, or damaged anywhere (it is redundant by now);
//! 3. the WAL's truncation interrupted: any one 4 KiB block of the used
//!    prefix written, or all but one — block 0 either old or already holding
//!    the marker at the head; then the WAL truncated: the marker, then
//!    zeros.
//!
//! At each one, [`DurableStore::open`] must recover byte-identically to the
//! reference — pages, allocator, roots — and reseal exactly the windows the
//! reference has open: a checkpoint never changes what a crash recovers to.
//! Both page sets (the compacting one and the appending one on top of it,
//! one appending checkpoint with no page at all among them), both
//! [`Visibility`] values.
//!
//! The second test states bounded recovery in counts, not times.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use terp_persist::{
    enumerate_crash_points, inject, load_checkpoint, read_log, recover, DurableStore,
    RecoveredState, Visibility, WalRecord, CHECKPOINT_TRIGGER, CKPT_FILE, WAL_FILE, WAL_RESERVE,
};
use terp_pmo::{OpenMode, PmoId, PmoRegistry, Transaction, PAGE_SIZE};

const POOL_SIZE: u64 = 1 << 18;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-ckpt-steps-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A live registry and its store, as a durable service pairs them, plus
/// the reference: every record ever logged, never truncated.
struct Leader {
    reg: PmoRegistry,
    store: DurableStore,
    reference: Vec<u8>,
}

impl Leader {
    fn open(dir: &Path, visibility: Visibility) -> Self {
        let (store, _, _) = DurableStore::open(dir, visibility).unwrap();
        Leader {
            reg: PmoRegistry::new(),
            store,
            reference: Vec::new(),
        }
    }

    fn log(&mut self, record: WalRecord) {
        let seq = self.store.log(&record).unwrap();
        self.reference.extend_from_slice(&record.encode(seq));
    }

    fn create(&mut self, name: &str) -> PmoId {
        let id = self
            .reg
            .create(name, POOL_SIZE, OpenMode::ReadWrite)
            .unwrap();
        self.log(WalRecord::PoolCreate {
            id,
            name: name.into(),
            size: POOL_SIZE,
            mode: OpenMode::ReadWrite,
        });
        id
    }

    fn alloc(&mut self, pmo: PmoId, size: u64) -> u64 {
        let offset = self
            .reg
            .pool_mut(pmo)
            .unwrap()
            .pmalloc(size)
            .unwrap()
            .offset();
        self.log(WalRecord::Alloc { pmo, size, offset });
        offset
    }

    fn write(&mut self, pmo: PmoId, offset: u64, data: &[u8]) {
        self.reg
            .pool_mut(pmo)
            .unwrap()
            .write_bytes(offset, data)
            .unwrap();
        self.log(WalRecord::DataWrite {
            pmo,
            offset,
            data: data.to_vec(),
        });
    }

    /// Runs an opaque mutation (a transaction) and logs its physical
    /// footprint: new live blocks as `Alloc`s, changed pages as whole-page
    /// `DataWrite`s, both in address order.
    fn mirrored(&mut self, pmo: PmoId, mutate: impl FnOnce(&mut terp_pmo::Pmo)) {
        let snapshot = |reg: &PmoRegistry| {
            let pool = reg.pool(pmo).unwrap();
            let live: Vec<(u64, u64)> = pool.allocator().live_blocks().collect();
            let pages: Vec<(u64, Vec<u8>)> =
                pool.export_pages().map(|(i, b)| (i, b.to_vec())).collect();
            (live, pages)
        };
        let (live_before, pages_before) = snapshot(&self.reg);
        mutate(self.reg.pool_mut(pmo).unwrap());
        let (live, pages) = snapshot(&self.reg);
        for (offset, size) in live.into_iter().filter(|b| !live_before.contains(b)) {
            self.log(WalRecord::Alloc { pmo, size, offset });
        }
        for (idx, bytes) in pages {
            if !pages_before.contains(&(idx, bytes.clone())) {
                self.log(WalRecord::DataWrite {
                    pmo,
                    offset: idx * PAGE_SIZE,
                    data: bytes,
                });
            }
        }
    }

    /// Rewrites one root slot of `pmo` until the store's trigger fires, so
    /// that the next checkpoint is a forced one and appends. A root dirties
    /// no page; the fingerprint holds the slot's last value.
    fn fill_to_trigger(&mut self, pmo: PmoId) {
        while !self.store.checkpoint_due() {
            let cell = 64 * (self.store.next_seq() % 16);
            self.log(WalRecord::RootSet {
                pmo,
                key: 2,
                oid: terp_pmo::ObjectId::new(pmo, cell).to_packed(),
            });
        }
    }
}

type PoolPrint = (u16, String, Vec<(u64, u64)>, Vec<(u64, Vec<u8>)>);
type Roots = Vec<((PmoId, u32), u64)>;

/// Everything recovery rebuilds, byte for byte.
fn fingerprint(state: &RecoveredState) -> (Vec<PoolPrint>, Roots) {
    let pools = state
        .registry
        .iter()
        .map(|p| {
            (
                p.id().raw(),
                p.name().to_string(),
                p.allocator().live_blocks().collect(),
                p.export_pages().map(|(i, b)| (i, b.to_vec())).collect(),
            )
        })
        .collect();
    (pools, state.roots.iter().map(|(k, v)| (*k, *v)).collect())
}

/// The files of one store directory (absent = `None`). `wal` is the log
/// proper — what `wal.log` holds in front of its zeros — and goes back to
/// disk inside a zero-filled reservation, as the store keeps it.
#[derive(Clone, Default)]
struct Files {
    wal: Vec<u8>,
    ckpt: Option<Vec<u8>>,
    ckpt_tmp: Option<Vec<u8>>,
}

impl Files {
    fn read(dir: &Path) -> Files {
        let mut wal = fs::read(dir.join(WAL_FILE)).unwrap_or_default();
        assert_eq!(wal.len() as u64 % WAL_RESERVE, 0, "wal.log is reserved");
        let log = read_log(&wal);
        assert!(log.is_clean());
        wal.truncate(log.consumed);
        Files {
            wal,
            ckpt: fs::read(dir.join(CKPT_FILE)).ok(),
            ckpt_tmp: None,
        }
    }

    fn write(&self, dir: &Path) {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).unwrap();
        let mut wal = self.wal.clone();
        wal.resize(wal.len().next_multiple_of(WAL_RESERVE as usize), 0);
        fs::write(dir.join(WAL_FILE), &wal).unwrap();
        for (name, bytes) in [
            (CKPT_FILE.to_string(), &self.ckpt),
            (format!("{CKPT_FILE}.tmp"), &self.ckpt_tmp),
        ] {
            if let Some(bytes) = bytes {
                fs::write(dir.join(name), bytes).unwrap();
            }
        }
    }
}

const BLOCK: usize = 4096;

/// Every on-disk state between `before` and `after` one checkpoint, in
/// protocol order, labelled.
fn protocol_states(before: &Files, after: &Files) -> Vec<(String, Files)> {
    let old_ckpt = before.ckpt.clone().unwrap_or_default();
    let new_ckpt = after.ckpt.clone().unwrap();
    // The truncated WAL is the very frame step 1 appended, and it closes
    // the batch, committing exactly the new length.
    let marker = after.wal.clone();
    assert!(matches!(
        read_log(&marker).records[..],
        [(_, WalRecord::Checkpoint { ckpt_len })] if ckpt_len == new_ckpt.len() as u64
    ));
    assert!(new_ckpt.ends_with(&marker));
    let appended = before.ckpt.is_some() && new_ckpt.starts_with(&old_ckpt);
    let batch = new_ckpt[if appended { old_ckpt.len() } else { 0 }..].to_vec();
    // The file `batch` goes to, holding `bytes` of it.
    let landed = |at: &Files, bytes: Vec<u8>| {
        let mut at = at.clone();
        if appended {
            at.ckpt = Some([&old_ckpt[..], &bytes[..]].concat());
        } else {
            at.ckpt_tmp = Some(bytes);
        }
        at
    };

    let mut states = vec![("before".to_string(), before.clone())];
    let mut at = before.clone();
    at.wal.extend_from_slice(&marker);
    states.push(("1: marker synced".into(), at.clone()));
    for point in enumerate_crash_points(&batch) {
        let cut = inject(&batch, point);
        states.push((format!("2: batch {}", point.describe()), landed(&at, cut)));
    }
    // The block holding the closing frame reached the disk, an earlier one
    // of the batch did not (it holds what it held: nothing, past the end).
    let first = if appended { old_ckpt.len() } else { 0 };
    let closing_block = (new_ckpt.len() - 1) / BLOCK;
    let blocks: Vec<usize> = (first / BLOCK..closing_block).collect();
    for &block in blocks.iter().step_by(blocks.len() / 12 + 1) {
        let mut holed = new_ckpt.clone();
        holed[(block * BLOCK).max(first)..(block + 1) * BLOCK].fill(0);
        states.push((
            format!("2: closing frame durable, block @{} not", block * BLOCK),
            landed(&at, holed[first..].to_vec()),
        ));
    }
    if !appended {
        states.push(("2: temp file whole".into(), landed(&at, batch.clone())));
    }
    at.ckpt = Some(new_ckpt);
    states.push(("2: batch committed".into(), at.clone()));
    // From here on the WAL is redundant, so damage to it must change
    // nothing: what survives of it lies below the checkpoint's watermarks
    // — the protection records too, or a surviving `WindowClose` would
    // unseal a window that a lost `WindowOpen` behind it reopened.
    let points = enumerate_crash_points(&at.wal);
    for point in points.iter().step_by(points.len() / 24 + 1) {
        let mut torn = at.clone();
        torn.wal = inject(&at.wal, *point);
        states.push((format!("2: committed, WAL {}", point.describe()), torn));
    }
    // The truncation: the marker over the head, zeros behind it; the 4 KiB
    // blocks reach the disk in any order.
    let mut truncated = vec![0u8; at.wal.len()];
    truncated[..marker.len()].copy_from_slice(&marker);
    let blocks: Vec<_> = (0..at.wal.len()).step_by(BLOCK).collect();
    for &block in blocks.iter().step_by(blocks.len() / 12 + 1) {
        let end = (block + BLOCK).min(at.wal.len());
        let mut only = at.clone();
        only.wal[block..end].copy_from_slice(&truncated[block..end]);
        states.push((format!("3: only block @{block} of the WAL written"), only));
        let mut all_but = at.clone();
        all_but.wal = truncated.clone();
        all_but.wal[block..end].copy_from_slice(&at.wal[block..end]);
        states.push((format!("3: all but block @{block} written"), all_but));
    }
    at.wal = marker;
    states.push(("3: WAL truncated".into(), at.clone()));
    assert_eq!(at.wal, after.wal);
    assert_eq!(at.ckpt, after.ckpt);
    states
}

/// How many states have the closing frame durable and a block before it
/// not.
fn holes(states: &[(String, Files)]) -> usize {
    states
        .iter()
        .filter(|(label, _)| label.contains("closing frame durable"))
        .count()
}

/// Opens every state and holds it to the reference.
fn check_states(
    scratch: &Path,
    visibility: Visibility,
    what: &str,
    states: &[(String, Files)],
    reference: &[u8],
) {
    let (expected, expected_report) = recover(reference).unwrap();
    let expected_open: BTreeSet<PmoId> = expected.resealed.iter().copied().collect();
    assert_eq!(expected_open.len(), 2, "the script leaves two windows open");
    assert!(expected_report.txns_rolled_back > 0, "and one transaction");
    for (label, files) in states {
        files.write(scratch);
        let (store, state, _) = DurableStore::open(scratch, visibility)
            .unwrap_or_else(|e| panic!("{what} / {label}: {e}"));
        assert_eq!(
            fingerprint(&state),
            fingerprint(&expected),
            "{what} / {label}: recovered state differs from the uncheckpointed reference"
        );
        let resealed: BTreeSet<PmoId> = state.resealed.iter().copied().collect();
        assert_eq!(resealed, expected_open, "{what} / {label}: resealed set");
        for pool in state.registry.iter() {
            assert_eq!(
                pool.attach_generation() > 0,
                expected_open.contains(&pool.id()),
                "{what} / {label}: attach generation of {:?}",
                pool.id()
            );
        }
        // The store is left as the protocol's own files and nothing else,
        // and numbers its next record past everything it has seen.
        drop(store);
        let names: Vec<_> = fs::read_dir(scratch)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n != WAL_FILE)
            .collect();
        let mut allowed = vec![CKPT_FILE];
        allowed.retain(|n| names.iter().any(|have| have == n));
        assert_eq!(names, allowed, "{what} / {label}: debris left behind");
        // …with an uncommitted batch cut off, so that the next checkpoint
        // appends where the committed image ends.
        let image = load_checkpoint(scratch).unwrap();
        assert_eq!(
            fs::metadata(scratch.join(CKPT_FILE)).map_or(0, |m| m.len()),
            image.ckpt_len,
            "{what} / {label}: ckpt.log keeps bytes nobody committed"
        );
        // The log the next appends will follow opens with the commit, and
        // holds no record the checkpoint superseded: an interrupted
        // truncation was finished.
        let left = read_log(&fs::read(scratch.join(WAL_FILE)).unwrap());
        let newer = match image.seq {
            Some(seq) => {
                let marker = WalRecord::Checkpoint {
                    ckpt_len: image.ckpt_len,
                };
                assert_eq!(
                    left.records.first(),
                    Some(&(seq, marker)),
                    "{what} / {label}: the WAL does not open with the commit"
                );
                &left.records[1..]
            }
            None => &left.records[..],
        };
        assert!(
            left.is_clean() && newer.iter().all(|(seq, _)| Some(*seq) > image.seq),
            "{what} / {label}: dead records left in front of the log"
        );
        let (store, _, again) = DurableStore::open(scratch, visibility).unwrap();
        assert_eq!(again.windows_resealed, 2, "{what} / {label}: reopen");
        assert!(
            !again.torn_tail,
            "{what} / {label}: a torn tail is reported once"
        );
        // Every state but the first holds the marker, one past the
        // reference's last record.
        assert_eq!(
            store.next_seq(),
            read_log(reference).last_seq().unwrap() + 1 + u64::from(label != "before"),
            "{what} / {label}: seq continues past everything on disk"
        );
    }
}

#[test]
fn every_step_of_a_checkpoint_recovers_to_the_uncheckpointed_reference() {
    for visibility in [Visibility::Submit, Visibility::Durable] {
        let dir = temp_dir(&format!("live-{visibility:?}"));
        let scratch = temp_dir(&format!("state-{visibility:?}"));
        let mut l = Leader::open(&dir, visibility);

        // Pools A and B keep their windows open; C's closes. A holds a root
        // and, at the end, a transaction that never commits.
        let a = l.create("steps-a");
        let b = l.create("steps-b");
        let c = l.create("steps-c");
        l.mirrored(a, |pool| {
            terp_pmo::txn::ensure_log_area(pool).unwrap();
        });
        let cell = l.alloc(a, 64);
        l.write(a, cell, b"committed value");
        l.log(WalRecord::RootSet {
            pmo: a,
            key: 1,
            oid: terp_pmo::ObjectId::new(a, cell).to_packed(),
        });
        for pmo in [a, b, c] {
            l.log(WalRecord::WindowOpen { pmo });
        }
        let far = l.alloc(b, 3 * PAGE_SIZE);
        l.write(b, far + 2 * PAGE_SIZE, b"a second page of b");
        // B's window closes here and reopens below: whoever replays the
        // close without the reopen leaves an open window unsealed.
        l.log(WalRecord::WindowClose { pmo: b });
        let gone = l.alloc(c, 128);
        l.write(c, gone, b"freed before the checkpoint");
        l.reg
            .pool_mut(c)
            .unwrap()
            .pfree(terp_pmo::ObjectId::new(c, gone))
            .unwrap();
        l.log(WalRecord::Free {
            pmo: c,
            offset: gone,
        });
        l.log(WalRecord::WindowClose { pmo: c });
        l.write(c, 64, b"between b's close and its reopening");
        l.log(WalRecord::WindowOpen { pmo: b });
        l.mirrored(a, |pool| {
            let mut tx = Transaction::begin(pool).unwrap();
            tx.write(cell, b"never committed").unwrap();
            tx.crash();
        });
        l.store.sync().unwrap();

        let protection = [
            WalRecord::WindowOpen { pmo: a },
            WalRecord::WindowOpen { pmo: b },
        ];

        // The compacting page set: nobody forced this checkpoint.
        let before = Files::read(&dir);
        let reference = l.reference.clone();
        l.store.checkpoint(l.reg.iter_mut(), &protection).unwrap();
        let after = Files::read(&dir);
        let states = protocol_states(&before, &after);
        assert!(states.len() > 40, "{} states", states.len());
        assert!(holes(&states) > 0);
        check_states(&scratch, visibility, "compacting", &states, &reference);

        // The appending page set, on top of that image: more writes, the
        // trigger fires, only the dirty pages go out.
        l.write(b, far, b"after the first checkpoint");
        l.write(a, cell + 32, b"beside the cell");
        l.fill_to_trigger(b);
        l.store.sync().unwrap();
        let before = Files::read(&dir);
        let reference = l.reference.clone();
        l.store.checkpoint(l.reg.iter_mut(), &protection).unwrap();
        let after = Files::read(&dir);
        assert!(
            after.ckpt.as_ref().unwrap().len() > before.ckpt.as_ref().unwrap().len(),
            "a forced checkpoint appends"
        );
        let states = protocol_states(&before, &after);
        assert!(holes(&states) > 0);
        check_states(&scratch, visibility, "appending", &states, &reference);

        // A forced checkpoint with nothing dirty: its batch is the
        // protection snapshot and the closing frame, no page.
        l.fill_to_trigger(a);
        l.store.sync().unwrap();
        let before = Files::read(&dir);
        let reference = l.reference.clone();
        assert_eq!(
            l.store.checkpoint(l.reg.iter_mut(), &protection).unwrap(),
            0
        );
        let after = Files::read(&dir);
        let states = protocol_states(&before, &after);
        check_states(&scratch, visibility, "no page", &states, &reference);

        // A compacting one again, now replacing an existing image.
        l.write(c, 0, b"c is dirty again");
        l.store.sync().unwrap();
        let before = Files::read(&dir);
        let reference = l.reference.clone();
        l.store.checkpoint(l.reg.iter_mut(), &protection).unwrap();
        let after = Files::read(&dir);
        assert!(after.ckpt.as_ref().unwrap().len() < before.ckpt.as_ref().unwrap().len());
        let states = protocol_states(&before, &after);
        check_states(&scratch, visibility, "re-compacting", &states, &reference);

        drop(l);
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }
}

/// Bounded recovery, as counts: overwrite a fixed working set for eight
/// triggers' worth of records, checkpointing whenever the store says so.
/// What a restart replays, and what the checkpoint log weighs, stay where
/// they were after the first trigger.
#[test]
fn recovery_work_is_bounded_by_the_trigger_and_the_image() {
    let dir = temp_dir("bound");
    let mut l = Leader::open(&dir, Visibility::Durable);
    let pools: Vec<PmoId> = (0..4).map(|i| l.create(&format!("bound-{i}"))).collect();
    let cells: Vec<(PmoId, u64)> = pools
        .iter()
        .flat_map(|&p| (0..4).map(move |_| p))
        .map(|p| (p, l.alloc(p, PAGE_SIZE)))
        .collect();

    let mut checkpoints = 0;
    let mut largest_batch = 0u64;
    let mut largest_log = 0u64;
    let ckpt_len = |dir: &Path| fs::metadata(dir.join(CKPT_FILE)).map_or(0, |m| m.len());
    for n in 0..8 * CHECKPOINT_TRIGGER {
        let (pmo, cell) = cells[n as usize % cells.len()];
        l.write(pmo, cell, &n.to_le_bytes());
        if l.store.checkpoint_due() {
            let before = ckpt_len(&dir);
            l.store.checkpoint(l.reg.iter_mut(), &[]).unwrap();
            let after = ckpt_len(&dir);
            if after > before {
                largest_batch = largest_batch.max(after - before);
            }
            largest_log = largest_log.max(after);
            checkpoints += 1;
        }
    }
    assert!(checkpoints >= 7, "{checkpoints} checkpoints");
    l.store.sync().unwrap();
    let reference = l.reference.clone();
    drop(l);

    // Kill, restart: the replay is the committed image plus less than one
    // trigger of WAL, not the 65 536 records of history.
    let image_records = load_checkpoint(&dir).unwrap().pools.len();
    let (mut store, state, report) = DurableStore::open(&dir, Visibility::Durable).unwrap();
    assert!(
        report.records_replayed <= CHECKPOINT_TRIGGER as usize + image_records,
        "{} records replayed, image holds {image_records}",
        report.records_replayed
    );
    let (expected, _) = recover(&reference).unwrap();
    assert_eq!(fingerprint(&state), fingerprint(&expected));

    // The size of the image proper is what a compacting checkpoint writes.
    let mut reg = state.registry;
    store.checkpoint(reg.iter_mut(), &[]).unwrap();
    let image = ckpt_len(&dir);
    assert!(
        largest_log <= 2 * image + largest_batch,
        "ckpt.log reached {largest_log} bytes; image {image}, batch {largest_batch}"
    );
    assert!(largest_batch <= image, "a batch is part of the working set");
    fs::remove_dir_all(&dir).unwrap();
}
