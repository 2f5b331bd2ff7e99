//! Persist units on a durable service: one `fdatasync` per structure
//! operation, and no acknowledgement ahead of it.
//!
//! The structure-level twin of the service's
//! `async_watermark_acked_effects_survive_every_crash_point`: a stack, a
//! queue and a map share one pool of a one-shard `visibility = durable`
//! service and are driven through [`ServiceMem`], whose [`DsMem::unit`]
//! commits each operation's records once, before the operation returns.
//!
//! * **Live** — after every acked operation `wal.log` on disk already
//!   decodes, cleanly, to every record the service has appended; the
//!   operation's own records hold its `PENDING` descriptor, then its commit
//!   CAS, then its `DONE` descriptor. A memory that skips the commit fails
//!   this audit (the mutation check).
//! * **Post-mortem** — for every crash point the persist harness enumerates
//!   over the final image, a restart plus each structure's `recover()`
//!   yields exactly the operations whose commit CAS survived: every
//!   operation acked while that prefix was durable, never half of one.
//! * **Two clients** — B builds on a CAS of A's that is not on media yet;
//!   B's ack implies A's records are (same pool, same log, prefix order).
//! * **Accounting** — `ServiceReport.wal.syncs` moves by exactly one per
//!   mutating operation and per `create`, by zero for reads and misses.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use terp_core::config::Scheme;
use terp_persist::{enumerate_crash_points, inject, read_log, WalRecord, WAL_FILE};
use terp_pmo::{ObjectId, OpenMode, Permission, PmoId};
use terp_service::{ClientId, PmoService, ServiceConfig, Visibility};
use terp_structures::desc::DESC_SLOT;
use terp_structures::{
    Descriptor, DsError, DsMem, HashMap, LocalMem, OpKind, Queue, ServiceMem, Stack, OP_STATE_DONE,
    OP_STATE_PENDING,
};

const STACK_KEY: u32 = 1;
const QUEUE_KEY: u32 = 2;
const MAP_KEY: u32 = 3;
/// Descriptor slots per structure: clients A and B.
const SLOTS: u32 = 2;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("terp-ds-units-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> ServiceConfig {
    ServiceConfig::for_tests(Scheme::terp_full())
        .with_shards(1)
        .with_visibility(Visibility::Durable)
        .with_durable(dir)
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("shard-0").join(WAL_FILE)
}

/// The records `wal.log` holds right now; the image must decode cleanly.
fn on_disk(wal: &Path) -> Vec<WalRecord> {
    let log = read_log(&std::fs::read(wal).unwrap_or_default());
    assert_eq!(log.dropped, 0, "a commit left a torn image");
    log.records.into_iter().map(|(_, r)| r).collect()
}

fn syncs(svc: &PmoService) -> u64 {
    svc.report().wal.expect("durable service").syncs
}

fn appended(svc: &PmoService) -> usize {
    svc.report().wal.expect("durable service").appended as usize
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Enq(u64),
    Deq,
    Ins(u64, u64),
    Rem(u64),
    Get(u64),
}

/// The sequential model of the three structures.
#[derive(Debug, Default, Clone, PartialEq)]
struct Model {
    /// Bottom first.
    stack: Vec<u64>,
    queue: VecDeque<u64>,
    /// Per-key LIFO, like the map's chains.
    map: BTreeMap<u64, Vec<u64>>,
}

impl Model {
    /// Applies `op`; returns its answer and, when it mutates, the
    /// `(kind, value)` its descriptor records.
    fn apply(&mut self, op: Op) -> (Option<u64>, Option<(OpKind, u64)>) {
        match op {
            Op::Push(v) => {
                self.stack.push(v);
                (None, Some((OpKind::Push, v)))
            }
            Op::Pop => {
                let got = self.stack.pop();
                (got, got.map(|v| (OpKind::Pop, v)))
            }
            Op::Enq(v) => {
                self.queue.push_back(v);
                (None, Some((OpKind::Enqueue, v)))
            }
            Op::Deq => {
                let got = self.queue.pop_front();
                (got, got.map(|v| (OpKind::Dequeue, v)))
            }
            Op::Ins(k, v) => {
                self.map.entry(k).or_default().push(v);
                (None, Some((OpKind::Insert, k)))
            }
            Op::Rem(k) => {
                let got = self.map.get_mut(&k).and_then(Vec::pop);
                self.map.retain(|_, vs| !vs.is_empty());
                (got, got.map(|_| (OpKind::Remove, k)))
            }
            Op::Get(k) => (self.map.get(&k).and_then(|v| v.last().copied()), None),
        }
    }
}

#[derive(Clone, Copy)]
struct Ds {
    stack: Stack,
    queue: Queue,
    map: HashMap,
}

impl Ds {
    fn apply(&self, mem: &impl DsMem, c: u32, op: Op) -> Result<Option<u64>, DsError> {
        Ok(match op {
            Op::Push(v) => self.stack.push(mem, c, v).map(|_| None)?,
            Op::Pop => self.stack.pop(mem, c)?.value,
            Op::Enq(v) => self.queue.enqueue(mem, c, v).map(|_| None)?,
            Op::Deq => self.queue.dequeue(mem, c)?.value,
            Op::Ins(k, v) => self.map.insert(mem, c, k, v).map(|_| None)?,
            Op::Rem(k) => self.map.remove(mem, c, k)?.value,
            Op::Get(k) => self.map.get(mem, k)?,
        })
    }

    /// What the structures hold, in the model's shape.
    fn contents(&self, mem: &impl DsMem) -> Model {
        let mut stack = self.stack.items(mem).unwrap();
        stack.reverse();
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // `items` lists a chain newest first; the model keeps oldest first.
        for (k, v) in self.map.items(mem).unwrap().into_iter().rev() {
            map.entry(k).or_default().push(v);
        }
        Model {
            stack,
            queue: self.queue.items(mem).unwrap().into(),
            map,
        }
    }
}

/// A descriptor image among `records`, if `r` is one.
fn as_descriptor(r: &WalRecord) -> Option<Descriptor> {
    match r {
        WalRecord::DataWrite { data, .. } if data.len() == DESC_SLOT as usize => {
            Some(Descriptor::decode(data.as_slice().try_into().expect("48")))
        }
        _ => None,
    }
}

/// One acknowledged operation of the live run.
#[derive(Debug, Clone, Copy)]
struct Ack {
    op: Op,
    /// Records on media when the operation returned.
    durable: usize,
    /// Log index of the commit CAS, for operations that committed one.
    commit: Option<usize>,
}

/// Drives `script` as client/slot `c` through `mem` and audits the disk
/// after every ack. `Err` names the first acknowledgement that outran the
/// medium.
fn live_audit(
    svc: &PmoService,
    wal: &Path,
    mem: &impl DsMem,
    ds: &Ds,
    c: u32,
    script: &[Op],
    model: &mut Model,
) -> Result<Vec<Ack>, String> {
    let mut acks = Vec::new();
    for &op in script {
        let before = on_disk(wal).len();
        let (want, descriptor) = model.apply(op);
        let got = ds.apply(mem, c, op).expect("structure op");
        assert_eq!(got, want, "{op:?} answered wrongly");

        // The ack came after the fsync: everything is on media *now*.
        let log = on_disk(wal);
        if log.len() != appended(svc) {
            return Err(format!(
                "{op:?} acked with {} of {} records on media",
                log.len(),
                appended(svc)
            ));
        }
        let own = &log[before.min(log.len())..];
        let Some((kind, value)) = descriptor else {
            assert!(own.is_empty(), "{op:?} logged {own:?}");
            acks.push(Ack {
                op,
                durable: log.len(),
                commit: None,
            });
            continue;
        };
        let is = |r: &WalRecord, state: u64| {
            as_descriptor(r)
                .is_some_and(|d| d.state == state && d.op == Some(kind) && d.value == value)
        };
        // Single-threaded: the first 8-byte write after PENDING is the
        // commit CAS (nobody to help, no CAS to lose).
        let pending = own.iter().position(|r| is(r, OP_STATE_PENDING));
        let commit = pending.and_then(|p| {
            own[p..]
                .iter()
                .position(|r| matches!(r, WalRecord::DataWrite { data, .. } if data.len() == 8))
                .map(|i| p + i)
        });
        let done = commit.and_then(|k| own[k..].iter().position(|r| is(r, OP_STATE_DONE)));
        let (Some(commit), Some(_)) = (commit, done) else {
            return Err(format!(
                "{op:?} acked without PENDING, commit CAS and DONE on media: {own:?}"
            ));
        };
        acks.push(Ack {
            op,
            durable: log.len(),
            commit: Some(before + commit),
        });
    }
    Ok(acks)
}

fn script() -> Vec<Op> {
    use Op::*;
    vec![
        Push(1),
        Ins(10, 100),
        Enq(7),
        Get(10),
        Push(2),
        Deq,
        Deq,
        Ins(10, 101),
        Ins(11, 110),
        Pop,
        Rem(10),
        Rem(12),
        Enq(8),
        Enq(9),
        Push(3),
        Get(10),
        Deq,
        Pop,
        Pop,
        Pop,
        Rem(11),
        Ins(12, 120),
        Enq(10),
        Push(4),
    ]
}

/// Live and post-mortem legs (module docs).
#[test]
fn acked_structure_ops_are_on_media_and_survive_every_crash_point() {
    let dir = tmp_dir("audit");
    let wal = wal_path(&dir);
    let pool;
    let mut created = [0usize; 3];
    let acks;
    {
        let svc = PmoService::try_new(durable(&dir)).unwrap();
        pool = svc.create_pool("ds", 1 << 18, OpenMode::ReadWrite).unwrap();
        svc.attach(0, pool, Permission::ReadWrite).unwrap();
        let mem = ServiceMem::new(&svc, 0);
        let stack = Stack::create(&mem, pool, SLOTS, STACK_KEY).unwrap();
        created[0] = on_disk(&wal).len();
        let queue = Queue::create(&mem, pool, SLOTS, QUEUE_KEY).unwrap();
        created[1] = on_disk(&wal).len();
        let map = HashMap::create(&mem, pool, SLOTS, 4, MAP_KEY).unwrap();
        created[2] = on_disk(&wal).len();
        assert_eq!(created[2], appended(&svc), "a create acked ahead of media");
        let ds = Ds { stack, queue, map };
        acks = live_audit(&svc, &wal, &mem, &ds, 0, &script(), &mut Model::default())
            .unwrap_or_else(|e| panic!("live audit: {e}"));
        // Dropped with the window open and no drain: a crash.
    }

    let image = std::fs::read(&wal).unwrap();
    let points = enumerate_crash_points(&image);
    assert!(points.len() > 500, "{} crash points", points.len());
    let rdir = tmp_dir("audit-replay");
    for point in points {
        let what = point.describe();
        let damaged = inject(&image, point);
        let k = read_log(&damaged).records.len();

        let _ = std::fs::remove_dir_all(&rdir);
        std::fs::create_dir_all(rdir.join("shard-0")).unwrap();
        std::fs::write(wal_path(&rdir), &damaged).unwrap();
        let svc = PmoService::try_new(
            ServiceConfig::for_tests(Scheme::terp_full())
                .with_shards(1)
                .with_durable(&rdir),
        )
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        if svc.attach(9, pool, Permission::ReadWrite).is_err() {
            assert!(k < created[0], "{what}: the pool is gone");
            continue;
        }
        let mem = ServiceMem::new(&svc, 9);

        // A structure exists iff its root registration survived; one whose
        // create was acked inside this prefix must.
        let stack = Stack::attach(&mem, pool, STACK_KEY);
        let queue = Queue::attach(&mem, pool, QUEUE_KEY);
        let map = HashMap::attach(&mem, pool, MAP_KEY);
        assert!(stack.is_ok() || k < created[0], "{what}: stack lost");
        assert!(queue.is_ok() || k < created[1], "{what}: queue lost");
        assert!(map.is_ok() || k < created[2], "{what}: map lost");
        let (Ok(stack), Ok(queue), Ok(map)) = (stack, queue, map) else {
            continue;
        };
        let ds = Ds { stack, queue, map };

        // Exactly the operations whose commit CAS is in the prefix — which
        // covers every operation acked while the prefix was durable — and
        // each of them whole.
        let mut want = Model::default();
        for ack in acks.iter().filter(|a| a.commit.is_some_and(|at| at < k)) {
            want.apply(ack.op);
        }
        assert!(
            acks.iter()
                .all(|a| a.durable > k || a.commit.is_none_or(|at| at < k)),
            "{what}: an acked operation is not in the prefix"
        );
        ds.stack.recover(&mem).unwrap();
        ds.queue.recover(&mem).unwrap();
        ds.map.recover(&mem).unwrap();
        assert_eq!(ds.contents(&mem), want, "{what}");
        let idle = Default::default();
        assert_eq!(ds.stack.recover(&mem).unwrap(), idle, "{what}");
        assert_eq!(ds.queue.recover(&mem).unwrap(), idle, "{what}");
        assert_eq!(ds.map.recover(&mem).unwrap(), idle, "{what}");
        assert_eq!(ds.contents(&mem), want, "{what}: second pass");
    }
    std::fs::remove_dir_all(&rdir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A memory that journals like [`ServiceMem`] but never commits: what a
/// unit that skips its commit looks like from outside.
struct NeverCommits<'a> {
    svc: &'a PmoService,
    client: ClientId,
}

impl DsMem for NeverCommits<'_> {
    fn alloc(&self, pmo: PmoId, size: u64) -> Result<ObjectId, DsError> {
        let mut batch = self.svc.batch();
        Ok(batch.alloc(self.client, pmo, size)?)
    }
    fn free(&self, oid: ObjectId) -> Result<(), DsError> {
        let mut batch = self.svc.batch();
        Ok(batch.free(self.client, oid)?)
    }
    fn read(&self, oid: ObjectId, buf: &mut [u8]) -> Result<(), DsError> {
        Ok(self.svc.read_into(self.client, oid, buf)?)
    }
    fn write(&self, oid: ObjectId, data: &[u8]) -> Result<(), DsError> {
        let mut batch = self.svc.batch();
        Ok(batch.write(self.client, oid, data)?)
    }
    fn cas_u64(&self, oid: ObjectId, expected: u64, new: u64) -> Result<u64, DsError> {
        let mut batch = self.svc.batch();
        Ok(batch.cas_u64(self.client, oid, expected, new)?)
    }
    fn set_root(&self, pmo: PmoId, key: u32, oid: Option<ObjectId>) -> Result<(), DsError> {
        let mut batch = self.svc.batch();
        Ok(batch.set_root(self.client, pmo, key, oid)?)
    }
    fn root(&self, pmo: PmoId, key: u32) -> Result<Option<ObjectId>, DsError> {
        Ok(self.svc.root(pmo, key)?)
    }
}

/// The mutation check: the live audit is not vacuous — take the commit away
/// and the very first mutating ack is caught short of the medium.
#[test]
fn the_live_audit_fails_a_memory_that_skips_the_commit() {
    let dir = tmp_dir("mutant");
    let wal = wal_path(&dir);
    let svc = PmoService::try_new(durable(&dir)).unwrap();
    let pool = svc.create_pool("ds", 1 << 18, OpenMode::ReadWrite).unwrap();
    svc.attach(0, pool, Permission::ReadWrite).unwrap();
    let honest = ServiceMem::new(&svc, 0);
    let ds = Ds {
        stack: Stack::create(&honest, pool, SLOTS, STACK_KEY).unwrap(),
        queue: Queue::create(&honest, pool, SLOTS, QUEUE_KEY).unwrap(),
        map: HashMap::create(&honest, pool, SLOTS, 4, MAP_KEY).unwrap(),
    };
    let mutant = NeverCommits {
        svc: &svc,
        client: 0,
    };
    for op in [Op::Push(1), Op::Enq(1), Op::Ins(1, 1)] {
        // Settle the log first so the shortfall is this operation's own.
        svc.detach(0, pool).unwrap();
        svc.attach(0, pool, Permission::ReadWrite).unwrap();
        let mut model = ds.contents(&honest);
        let err = live_audit(&svc, &wal, &mutant, &ds, 0, &[op], &mut model)
            .expect_err("an uncommitted ack passed the audit");
        assert!(err.contains("records on media"), "{err}");
    }
    // The same operations through the real memory pass.
    svc.detach(0, pool).unwrap();
    svc.attach(0, pool, Permission::ReadWrite).unwrap();
    let mut model = ds.contents(&honest);
    live_audit(&svc, &wal, &honest, &ds, 0, &script(), &mut model).unwrap();
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// B's operation reads A's commit CAS while A's unit is still open — A's
/// records are in the log buffer, not on media. B's own commit is a sync of
/// that same log, so when B is acked A's records are durable too, in order,
/// and a crash right there recovers both operations whole.
#[test]
fn a_client_building_on_an_uncommitted_cas_commits_it_first() {
    let dir = tmp_dir("two");
    let wal = wal_path(&dir);
    let svc = PmoService::try_new(durable(&dir)).unwrap();
    let pool = svc.create_pool("ds", 1 << 18, OpenMode::ReadWrite).unwrap();
    svc.attach(0, pool, Permission::ReadWrite).unwrap();
    svc.attach(1, pool, Permission::ReadWrite).unwrap();
    let (a, b) = (ServiceMem::new(&svc, 0), ServiceMem::new(&svc, 1));
    let stack = Stack::create(&a, pool, SLOTS, STACK_KEY).unwrap();

    let settled = on_disk(&wal).len();
    let syncs_before = syncs(&svc);
    a.unit(|a_view| {
        // A's push joins A's open unit: journaled, visible, not synced.
        stack.push(a_view, 0, 11)?;
        assert_eq!(syncs(&svc), syncs_before, "a nested unit synced");
        assert_eq!(on_disk(&wal).len(), settled, "A's push reached media early");
        assert!(appended(&svc) > settled);

        // B pops the value A pushed.
        assert_eq!(stack.pop(&b, 1)?.value, Some(11));
        assert_eq!(syncs(&svc), syncs_before + 1, "B's pop is one sync");
        let log = on_disk(&wal);
        assert_eq!(log.len(), appended(&svc), "B acked ahead of media");
        let states: Vec<(OpKind, u64)> = log[settled..]
            .iter()
            .filter_map(as_descriptor)
            .map(|d| (d.op.expect("op"), d.state))
            .collect();
        assert_eq!(
            states,
            [
                (OpKind::Push, OP_STATE_PENDING),
                (OpKind::Push, OP_STATE_DONE),
                (OpKind::Pop, OP_STATE_PENDING),
                (OpKind::Pop, OP_STATE_DONE),
            ],
            "A's records precede B's on media"
        );
        Ok(())
    })
    .unwrap();
    assert_eq!(syncs(&svc), syncs_before + 1, "A had nothing left to sync");
    drop(svc);

    // Crash here: both operations are whole.
    let svc = PmoService::try_new(durable(&dir)).unwrap();
    svc.attach(9, pool, Permission::ReadWrite).unwrap();
    let mem = ServiceMem::new(&svc, 9);
    let stack = Stack::attach(&mem, pool, STACK_KEY).unwrap();
    assert_eq!(stack.recover(&mem).unwrap(), Default::default());
    assert_eq!(stack.items(&mem).unwrap(), Vec::<u64>::new());
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// One fsync per mutating operation, read off `ServiceReport.wal`.
#[test]
fn one_fsync_per_mutating_operation_and_none_for_reads_and_misses() {
    let dir = tmp_dir("syncs");
    let svc = PmoService::try_new(durable(&dir)).unwrap();
    let pool = svc.create_pool("ds", 1 << 18, OpenMode::ReadWrite).unwrap();
    svc.attach(0, pool, Permission::ReadWrite).unwrap();
    let mem = ServiceMem::new(&svc, 0);
    let delta = |what: &str, want: u64, f: &mut dyn FnMut()| {
        let (s0, a0) = (syncs(&svc), appended(&svc));
        f();
        assert_eq!(syncs(&svc) - s0, want, "{what}: fsyncs");
        assert_eq!(appended(&svc) > a0, want > 0, "{what}: records");
    };

    let (mut stack, mut queue, mut map) = (None, None, None);
    delta("Stack::create", 1, &mut || {
        stack = Some(Stack::create(&mem, pool, SLOTS, STACK_KEY).unwrap());
    });
    delta("Queue::create", 1, &mut || {
        queue = Some(Queue::create(&mem, pool, SLOTS, QUEUE_KEY).unwrap());
    });
    delta("HashMap::create", 1, &mut || {
        map = Some(HashMap::create(&mem, pool, SLOTS, 4, MAP_KEY).unwrap());
    });
    let (stack, queue, map) = (stack.unwrap(), queue.unwrap(), map.unwrap());

    delta("pop on empty", 0, &mut || {
        assert_eq!(stack.pop(&mem, 0).unwrap().value, None);
    });
    delta("dequeue on empty", 0, &mut || {
        assert_eq!(queue.dequeue(&mem, 0).unwrap().value, None);
    });
    delta("remove miss", 0, &mut || {
        assert_eq!(map.remove(&mem, 0, 5).unwrap().value, None);
    });
    delta("get miss", 0, &mut || {
        assert_eq!(map.get(&mem, 5).unwrap(), None);
    });
    for round in 0..3u64 {
        delta("push", 1, &mut || {
            stack.push(&mem, 0, round).unwrap();
        });
        delta("enqueue", 1, &mut || {
            queue.enqueue(&mem, 0, round).unwrap();
        });
        delta("insert", 1, &mut || {
            map.insert(&mem, 0, 5, round).unwrap();
        });
        delta("get hit", 0, &mut || {
            assert_eq!(map.get(&mem, 5).unwrap(), Some(round));
        });
    }
    for round in (0..3u64).rev() {
        delta("pop hit", 1, &mut || {
            assert_eq!(stack.pop(&mem, 0).unwrap().value, Some(round));
        });
        delta("dequeue hit", 1, &mut || {
            assert_eq!(queue.dequeue(&mem, 0).unwrap().value, Some(2 - round));
        });
        delta("remove hit", 1, &mut || {
            assert_eq!(map.remove(&mem, 0, 5).unwrap().value, Some(round));
        });
    }
    // Operations called on a unit's view join it: N operations, one sync.
    delta("a unit of three operations", 1, &mut || {
        mem.unit(|view| {
            stack.push(view, 0, 7)?;
            queue.enqueue(view, 0, 7)?;
            map.insert(view, 0, 7, 7)
        })
        .unwrap();
    });
    // A recovery pass with work to do (the map's three dead nodes) is one
    // unit; one with none logs nothing.
    delta("map recovery compacting", 1, &mut || {
        map.recover(&mem).unwrap();
    });
    delta("stack recovery, nothing to do", 0, &mut || {
        stack.recover(&mem).unwrap();
    });
    // A plain call outside any unit is still a batch of one.
    delta("plain write", 1, &mut || {
        let oid = mem.root(pool, STACK_KEY).unwrap().unwrap();
        let mut word = [0u8; 8];
        mem.read(oid, &mut word).unwrap();
        mem.write(oid, &word).unwrap();
    });
    // The closure's error wins, and what it logged is committed anyway.
    delta("a failing unit", 1, &mut || {
        let err = mem.unit(|view| {
            view.alloc(pool, 64)?;
            view.free(ObjectId::new(pool, 8)).map(|_| ())
        });
        assert!(matches!(err, Err(DsError::Service(_))), "{err:?}");
    });
    drop(svc);
    std::fs::remove_dir_all(&dir).ok();
}

/// Not `terp_persist::crc32`: that kernel changed with the units, and the pin
/// must not lean on it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// [`LocalMem`] keeps the provided `unit` (run the closure as is): the
/// record stream of a fixed workload is byte for byte what it was before
/// units existed — length and hash pinned at the parent commit — so the
/// crash-point suite keeps enumerating the same log.
#[test]
fn local_mem_record_stream_is_unchanged_by_units() {
    let mem = LocalMem::new();
    let pool = mem.create_pool("pinned", 1 << 18).unwrap();
    let ds = Ds {
        stack: Stack::create(&mem, pool, SLOTS, STACK_KEY).unwrap(),
        queue: Queue::create(&mem, pool, SLOTS, QUEUE_KEY).unwrap(),
        map: HashMap::create(&mem, pool, SLOTS, 4, MAP_KEY).unwrap(),
    };
    let mut model = Model::default();
    for (i, op) in script().into_iter().enumerate() {
        let (want, _) = model.apply(op);
        assert_eq!(ds.apply(&mem, (i % 2) as u32, op).unwrap(), want);
    }
    ds.map.recover(&mem).unwrap();
    ds.queue.recover(&mem).unwrap();
    ds.stack.recover(&mem).unwrap();
    assert_eq!(ds.contents(&mem), model);
    let log = mem.durable_bytes();
    // First with every frame's checksum masked out: that pin was taken from
    // the stream as it was under the previous polynomial, so passing it
    // shows the records themselves did not move when the checksum did.
    let mut masked = log.clone();
    let mut pos = 0;
    while pos < masked.len() {
        let len = u32::from_le_bytes(masked[pos..pos + 4].try_into().unwrap()) as usize;
        masked[pos + 4..pos + 8].fill(0);
        pos += 8 + len;
    }
    assert_eq!(
        (masked.len(), fnv1a(&masked)),
        (PINNED_LEN, PINNED_MASKED_FNV),
        "LocalMem's records changed"
    );
    assert_eq!(
        (log.len(), fnv1a(&log)),
        (PINNED_LEN, PINNED_FNV),
        "LocalMem's record stream changed"
    );
}

const PINNED_LEN: usize = 6892;
/// Checksums masked: the same value under CRC-32 (IEEE, where it was taken)
/// and CRC-32C.
const PINNED_MASKED_FNV: u64 = 11_747_266_425_367_158_267;
/// Re-pinned once, when the frame checksum became CRC-32C.
const PINNED_FNV: u64 = 11_874_383_279_556_977_374;
