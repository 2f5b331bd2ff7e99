//! A persistent Michael-Scott queue with detectable dequeues.
//!
//! Layout:
//!
//! ```text
//! root:  [magic][nclients][descs packed][head tagged][tail tagged][grave packed]
//! node:  [next packed u64][value u64][owner u64]
//! ```
//!
//! * **enqueue** — allocate and fill the node, persist the descriptor,
//!   commit with one CAS on the tail node's `next` (null → node); swinging
//!   the tail pointer is cleanup that any operation helps with. A fresh
//!   node's null link carries the enqueuer's stamp in its offset bits
//!   (pool bits zero still parse as null), so it too is unique per node
//!   incarnation: an enqueuer that read the tail's link, validated the
//!   tail, and was then preempted while that node was dequeued, freed and
//!   reallocated, loses its CAS instead of chaining behind a stranger.
//! * **dequeue** — Friedman-et-al. style detectability: the commit is a
//!   CAS on the *candidate node's* `owner` word (the enqueuer's
//!   `UNCLAIMED` mark → the client's [`crate::desc::stamp`]), not on the
//!   head. Advancing the head past owner-marked nodes is helped cleanup;
//!   the node it passes becomes the new dummy. The unclaimed mark carries
//!   the enqueuer's stamp, so it is unique per node *incarnation*: a
//!   dequeuer that read a node, was preempted while the node was claimed,
//!   freed and reallocated, and then resumes, loses its CAS instead of
//!   claiming the stranger (and returning the stale value it read).
//!
//! Reclamation is deferred one generation through the `grave` cell: the
//! thread that advances the head buries the old dummy, freeing the
//! *previous* grave occupant. A node is thus freed only two dequeues
//! after it left the logical queue; the tagged head/tail words close the
//! classic ABA on the pointers themselves, and the per-incarnation null
//! link and unclaimed mark (above) make a stale reference to a reused
//! node lose its commit CAS (DESIGN.md §15).
//!
//! Recovery: a `PENDING` enqueue committed iff its node is chain-
//! reachable; a `PENDING` dequeue committed iff its target's `owner`
//! equals the stamp the descriptor recorded. The pass then normalizes the
//! head past committed dequeues, re-derives the tail, empties the grave,
//! and orphan-sweeps.

use std::collections::BTreeSet;

use terp_pmo::{ObjectId, PmoId};

use crate::desc::{
    stamp, Descriptor, OpKind, DESC_SLOT, OP_STATE_DONE, OP_STATE_IDLE, OP_STATE_PENDING,
};
use crate::mem::{read_u64, write_u64, DsMem};
use crate::stack::sweep_orphans;
use crate::tagged::TaggedOid;
use crate::{DsError, OpResult, RecoveryOutcome, DS_MAGIC};

/// Kind byte mixed into the root magic.
pub const KIND_QUEUE: u64 = 2;
const ROOT_SIZE: u64 = 48;
const NODE_SIZE: u64 = 24;
const WALK_LIMIT: usize = 1 << 22;
/// Top bit of a node's `owner` word while no dequeuer has claimed it; the
/// low bits are the enqueuer's stamp. Dequeuer stamps never set it, and the
/// all-zero initial dummy reads as claimed.
const UNCLAIMED: u64 = 1 << 63;

fn claimed(owner: u64) -> bool {
    owner & UNCLAIMED == 0
}

/// Offset bits of a packed link: with the pool bits zero the word parses as
/// null whatever these hold, which is where a fresh node keeps its nonce.
const NULL_NONCE: u64 = (1 << 54) - 1;

/// Handle to a persistent Michael-Scott queue.
#[derive(Debug, Clone, Copy)]
pub struct Queue {
    pmo: PmoId,
    root: ObjectId,
    descs: ObjectId,
    clients: u32,
}

impl Queue {
    /// Creates a queue in `pmo` for up to `clients` clients, registered
    /// under root-directory slot `key`.
    pub fn create(mem: &impl DsMem, pmo: PmoId, clients: u32, key: u32) -> Result<Queue, DsError> {
        mem.unit(|mem| {
            let descs = mem.alloc(pmo, u64::from(clients) * DESC_SLOT)?;
            mem.write(descs, &vec![0u8; (clients as usize) * DESC_SLOT as usize])?;
            let dummy = mem.alloc(pmo, NODE_SIZE)?;
            mem.write(dummy, &[0u8; NODE_SIZE as usize])?;
            let root = mem.alloc(pmo, ROOT_SIZE)?;
            let seeded = TaggedOid {
                oid: Some(dummy),
                tag: 0,
            }
            .pack();
            let mut image = [0u8; ROOT_SIZE as usize];
            image[0..8].copy_from_slice(&(DS_MAGIC | KIND_QUEUE).to_le_bytes());
            image[8..16].copy_from_slice(&u64::from(clients).to_le_bytes());
            image[16..24].copy_from_slice(&descs.to_packed().to_le_bytes());
            image[24..32].copy_from_slice(&seeded.to_le_bytes());
            image[32..40].copy_from_slice(&seeded.to_le_bytes());
            mem.write(root, &image)?;
            mem.set_root(pmo, key, Some(root))?;
            Ok(Queue {
                pmo,
                root,
                descs,
                clients,
            })
        })
    }

    /// Re-opens the queue registered under `key`.
    pub fn attach(mem: &impl DsMem, pmo: PmoId, key: u32) -> Result<Queue, DsError> {
        let root = mem
            .root(pmo, key)?
            .ok_or_else(|| DsError::Corrupt(format!("no queue root under key {key}")))?;
        let magic = read_u64(mem, root)?;
        if magic != DS_MAGIC | KIND_QUEUE {
            return Err(DsError::Corrupt(format!(
                "queue root magic mismatch: {magic:#x}"
            )));
        }
        let clients = read_u64(mem, root.wrapping_add(8))? as u32;
        let descs = ObjectId::from_packed(read_u64(mem, root.wrapping_add(16))?)
            .ok_or_else(|| DsError::Corrupt("queue descriptor area is null".into()))?;
        Ok(Queue {
            pmo,
            root,
            descs,
            clients,
        })
    }

    /// The pool this queue lives in.
    pub fn pmo(&self) -> PmoId {
        self.pmo
    }

    /// Maximum client id this queue was created for.
    pub fn clients(&self) -> u32 {
        self.clients
    }

    fn head_cell(&self) -> ObjectId {
        self.root.wrapping_add(24)
    }

    fn tail_cell(&self) -> ObjectId {
        self.root.wrapping_add(32)
    }

    fn grave_cell(&self) -> ObjectId {
        self.root.wrapping_add(40)
    }

    fn read_node(&self, mem: &impl DsMem, node: ObjectId) -> Result<(u64, u64, u64), DsError> {
        let mut image = [0u8; NODE_SIZE as usize];
        mem.read(node, &mut image)?;
        let word = |i: usize| u64::from_le_bytes(image[i * 8..i * 8 + 8].try_into().expect("8"));
        Ok((word(0), word(1), word(2)))
    }

    /// Swaps `node` into the grave, freeing the previous occupant — the
    /// one-generation reclamation deferral.
    fn bury(&self, mem: &impl DsMem, node: ObjectId) -> Result<(), DsError> {
        loop {
            let g = read_u64(mem, self.grave_cell())?;
            if mem.cas_u64(self.grave_cell(), g, node.to_packed())? == g {
                if let Some(old) = ObjectId::from_packed(g) {
                    let _ = mem.free(old);
                }
                return Ok(());
            }
        }
    }

    /// Enqueues `value` as client `c`.
    pub fn enqueue(&self, mem: &impl DsMem, c: u32, value: u64) -> Result<OpResult<()>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            let node = mem.alloc(self.pmo, NODE_SIZE)?;
            let mut image = [0u8; NODE_SIZE as usize];
            image[0..8].copy_from_slice(&(stamp(c, seq) & NULL_NONCE).to_le_bytes());
            image[8..16].copy_from_slice(&value.to_le_bytes());
            image[16..24].copy_from_slice(&(UNCLAIMED | stamp(c, seq)).to_le_bytes());
            mem.write(node, &image)?;
            Descriptor {
                seq,
                state: OP_STATE_PENDING,
                op: Some(OpKind::Enqueue),
                target: node.to_packed(),
                value,
                aux: 0,
            }
            .store(mem, self.descs, c)?;
            let commit_mark = loop {
                let tail = TaggedOid::unpack(read_u64(mem, self.tail_cell())?);
                let t_node = tail
                    .oid
                    .ok_or_else(|| DsError::Corrupt("queue tail is null".into()))?;
                let next = read_u64(mem, t_node)?;
                // Re-validate: dequeuers never pass the node the tail cell
                // names, so an unmoved tail means the link just read belongs to
                // the incarnation that is the tail right now.
                if read_u64(mem, self.tail_cell())? != tail.pack() {
                    continue;
                }
                match ObjectId::from_packed(next) {
                    None => {
                        if mem.cas_u64(t_node, next, node.to_packed())? == next {
                            let mark = mem.mark();
                            // Tail swing is cleanup; losing the race is fine.
                            let _ = mem.cas_u64(
                                self.tail_cell(),
                                tail.pack(),
                                tail.next(Some(node)).pack(),
                            )?;
                            break mark;
                        }
                    }
                    // Tail lags; help it forward.
                    Some(n) => {
                        let _ =
                            mem.cas_u64(self.tail_cell(), tail.pack(), tail.next(Some(n)).pack())?;
                    }
                }
            };
            Descriptor {
                seq,
                state: OP_STATE_DONE,
                op: Some(OpKind::Enqueue),
                target: node.to_packed(),
                value,
                aux: 0,
            }
            .store(mem, self.descs, c)?;
            Ok(OpResult {
                value: (),
                commit_mark,
            })
        })
    }

    /// Dequeues the front value as client `c`; `None` on empty.
    pub fn dequeue(&self, mem: &impl DsMem, c: u32) -> Result<OpResult<Option<u64>>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            let st = stamp(c, seq);
            loop {
                let head = TaggedOid::unpack(read_u64(mem, self.head_cell())?);
                let h_node = head
                    .oid
                    .ok_or_else(|| DsError::Corrupt("queue head is null".into()))?;
                let tail = TaggedOid::unpack(read_u64(mem, self.tail_cell())?);
                let next_packed = read_u64(mem, h_node)?;
                let next = ObjectId::from_packed(next_packed);
                let front = next.map(|n| self.read_node(mem, n));
                // Re-validate: the head must not have moved while we read the
                // dummy's link and the node behind it. A node is freed only
                // after the head has passed it, so an unmoved head means both
                // reads saw the incarnations that are in the queue right now.
                if read_u64(mem, self.head_cell())? != head.pack() {
                    continue;
                }
                let (Some(next), Some((_, value, owner))) = (next, front.transpose()?) else {
                    return Ok(OpResult {
                        value: None,
                        commit_mark: 0,
                    });
                };
                if tail.oid == Some(h_node) {
                    // Tail lags behind a non-empty queue; help before claiming.
                    let _ =
                        mem.cas_u64(self.tail_cell(), tail.pack(), tail.next(Some(next)).pack())?;
                    continue;
                }
                if claimed(owner) {
                    // Someone committed this dequeue; help advance and retry.
                    if mem.cas_u64(self.head_cell(), head.pack(), head.next(Some(next)).pack())?
                        == head.pack()
                    {
                        self.bury(mem, h_node)?;
                    }
                    continue;
                }
                Descriptor {
                    seq,
                    state: OP_STATE_PENDING,
                    op: Some(OpKind::Dequeue),
                    target: next.to_packed(),
                    value,
                    aux: st,
                }
                .store(mem, self.descs, c)?;
                // The commit: claim the node by stamping its owner word — only
                // if it still is the incarnation whose value was just read.
                if mem.cas_u64(next.wrapping_add(16), owner, st)? != owner {
                    continue;
                }
                let commit_mark = mem.mark();
                if mem.cas_u64(self.head_cell(), head.pack(), head.next(Some(next)).pack())?
                    == head.pack()
                {
                    self.bury(mem, h_node)?;
                }
                Descriptor {
                    seq,
                    state: OP_STATE_DONE,
                    op: Some(OpKind::Dequeue),
                    target: next.to_packed(),
                    value,
                    aux: st,
                }
                .store(mem, self.descs, c)?;
                return Ok(OpResult {
                    value: Some(value),
                    commit_mark,
                });
            }
        })
    }

    /// Collects the queue contents, front first (owner-marked nodes are
    /// committed dequeues awaiting cleanup and are excluded).
    pub fn items(&self, mem: &impl DsMem) -> Result<Vec<u64>, DsError> {
        let mut out = Vec::new();
        let head = TaggedOid::unpack(read_u64(mem, self.head_cell())?);
        let dummy = head
            .oid
            .ok_or_else(|| DsError::Corrupt("queue head is null".into()))?;
        let mut cur = ObjectId::from_packed(read_u64(mem, dummy)?);
        while let Some(node) = cur {
            if out.len() >= WALK_LIMIT {
                return Err(DsError::Corrupt("queue chain exceeds walk limit".into()));
            }
            let (next, value, owner) = self.read_node(mem, node)?;
            if !claimed(owner) {
                out.push(value);
            }
            cur = ObjectId::from_packed(next);
        }
        Ok(out)
    }

    /// Offsets of every node in the chain, dummy included — the crash
    /// suite checks this set against the allocator's live blocks.
    pub fn reachable(&self, mem: &impl DsMem) -> Result<BTreeSet<u64>, DsError> {
        let mut seen = BTreeSet::new();
        let mut cur = TaggedOid::unpack(read_u64(mem, self.head_cell())?).oid;
        while let Some(node) = cur {
            if !seen.insert(node.offset()) {
                return Err(DsError::Corrupt("queue chain is cyclic".into()));
            }
            cur = ObjectId::from_packed(read_u64(mem, node)?);
        }
        Ok(seen)
    }

    /// Post-crash pass (single-threaded): decides every `PENDING`
    /// descriptor, normalizes head/tail/grave, and orphan-sweeps.
    pub fn recover(&self, mem: &impl DsMem) -> Result<RecoveryOutcome, DsError> {
        mem.unit(|mem| {
            let mut out = RecoveryOutcome::default();

            // Normalize the head: advance past committed dequeues, freeing the
            // dummies it passes (recovery empties the grave separately).
            loop {
                let head = TaggedOid::unpack(read_u64(mem, self.head_cell())?);
                let dummy = head
                    .oid
                    .ok_or_else(|| DsError::Corrupt("queue head is null".into()))?;
                let next_packed = read_u64(mem, dummy)?;
                let Some(next) = ObjectId::from_packed(next_packed) else {
                    break;
                };
                let (_, _, owner) = self.read_node(mem, next)?;
                if !claimed(owner) {
                    break;
                }
                write_u64(mem, self.head_cell(), head.next(Some(next)).pack())?;
                let _ = mem.free(dummy);
            }

            // Empty the grave: its occupant left the queue two dequeues ago.
            let grave = read_u64(mem, self.grave_cell())?;
            if let Some(old) = ObjectId::from_packed(grave) {
                let _ = mem.free(old);
                write_u64(mem, self.grave_cell(), 0)?;
            }

            // Re-derive the tail: last node of the chain.
            let reachable = self.reachable(mem)?;
            let mut last = TaggedOid::unpack(read_u64(mem, self.head_cell())?)
                .oid
                .ok_or_else(|| DsError::Corrupt("queue head is null".into()))?;
            while let Some(next) = ObjectId::from_packed(read_u64(mem, last)?) {
                last = next;
            }
            let tail = TaggedOid::unpack(read_u64(mem, self.tail_cell())?);
            write_u64(mem, self.tail_cell(), tail.next(Some(last)).pack())?;

            for c in 0..self.clients {
                let d = Descriptor::load(mem, self.descs, c)?;
                if d.state != OP_STATE_PENDING {
                    continue;
                }
                let node = ObjectId::from_packed(d.target).ok_or_else(|| {
                    DsError::Corrupt("pending descriptor with null target".into())
                })?;
                match d.op {
                    Some(OpKind::Enqueue) => {
                        if reachable.contains(&node.offset()) {
                            Descriptor {
                                state: OP_STATE_DONE,
                                ..d
                            }
                            .store(mem, self.descs, c)?;
                            out.completed += 1;
                        } else {
                            let _ = mem.free(node);
                            Descriptor {
                                state: OP_STATE_IDLE,
                                ..d
                            }
                            .store(mem, self.descs, c)?;
                            out.rolled_back += 1;
                        }
                    }
                    Some(OpKind::Dequeue) => {
                        // Committed iff the owner word carries this op's stamp.
                        // The target may already be a freed old dummy; freed
                        // bytes persist, so the stamp check still decides.
                        let mut owner_buf = [0u8; 8];
                        mem.read(node.wrapping_add(16), &mut owner_buf)?;
                        if u64::from_le_bytes(owner_buf) == d.aux {
                            Descriptor {
                                state: OP_STATE_DONE,
                                ..d
                            }
                            .store(mem, self.descs, c)?;
                            out.completed += 1;
                        } else {
                            Descriptor {
                                state: OP_STATE_IDLE,
                                ..d
                            }
                            .store(mem, self.descs, c)?;
                            out.rolled_back += 1;
                        }
                    }
                    other => {
                        return Err(DsError::Corrupt(format!(
                            "queue descriptor records foreign op {other:?}"
                        )))
                    }
                }
            }

            out.orphans_freed = sweep_orphans(
                mem,
                self.pmo,
                &[self.root.offset(), self.descs.offset()],
                &self.reachable(mem)?,
            )?;
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::LocalMem;

    fn fresh() -> (LocalMem, Queue) {
        let mem = LocalMem::new();
        let pid = mem.create_pool("queue", 1 << 18).unwrap();
        let q = Queue::create(&mem, pid, 4, 2).unwrap();
        (mem, q)
    }

    #[test]
    fn enqueue_dequeue_is_fifo() {
        let (mem, q) = fresh();
        for v in 1..=5 {
            q.enqueue(&mem, 0, v).unwrap();
        }
        assert_eq!(q.items(&mem).unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue(&mem, 1).unwrap().value, Some(1));
        assert_eq!(q.dequeue(&mem, 2).unwrap().value, Some(2));
        assert_eq!(q.items(&mem).unwrap(), vec![3, 4, 5]);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let (mem, q) = fresh();
        assert_eq!(q.dequeue(&mem, 0).unwrap().value, None);
        q.enqueue(&mem, 0, 9).unwrap();
        assert_eq!(q.dequeue(&mem, 0).unwrap().value, Some(9));
        assert_eq!(q.dequeue(&mem, 0).unwrap().value, None);
    }

    #[test]
    fn attach_reopens_via_root_directory() {
        let (mem, q) = fresh();
        q.enqueue(&mem, 0, 3).unwrap();
        let again = Queue::attach(&mem, q.pmo(), 2).unwrap();
        assert_eq!(again.items(&mem).unwrap(), vec![3]);
    }

    #[test]
    fn reclamation_is_bounded_by_the_grave() {
        let (mem, q) = fresh();
        let base = mem.live_blocks(q.pmo()).unwrap().len();
        for v in 0..20 {
            q.enqueue(&mem, 0, v).unwrap();
            q.dequeue(&mem, 0).unwrap();
        }
        // Steady state: at most the dummy + one grave occupant linger
        // beyond the empty-queue baseline.
        assert!(mem.live_blocks(q.pmo()).unwrap().len() <= base + 1);
        q.recover(&mem).unwrap();
        assert_eq!(q.items(&mem).unwrap(), Vec::<u64>::new());
    }
}
