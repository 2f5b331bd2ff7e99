//! A persistent Treiber stack with detectable recovery.
//!
//! Layout (all links packed ObjectIDs, the head a [`TaggedOid`] word):
//!
//! ```text
//! root:  [magic u64][nclients u64][descs packed u64][head tagged u64]
//! node:  [next packed u64][value u64]
//! ```
//!
//! * **push** — allocate node, persist the descriptor (`PENDING`,
//!   target=node), link `node.next` to the current head, then the commit:
//!   one CAS swinging the head to the node (tag bumped). Seal `DONE`.
//! * **pop** — read the head node, persist the descriptor, commit by
//!   CASing the head to `node.next` (tag bumped — the tag is what makes a
//!   freed-and-reused offset unmistakable), seal `DONE`, free the node.
//!
//! Recovery ([`Stack::recover`]): a `PENDING` push committed iff its node
//! is reachable from the head; a `PENDING` pop committed iff its node is
//! *not*. Completed ops get their cleanup finished (`DONE`, node freed),
//! uncommitted ones roll back (node freed, slot reset). The orphan sweep
//! then frees every allocation that is neither structural nor reachable,
//! restoring *reachable set == committed-op set* exactly.

use std::collections::BTreeSet;

use terp_pmo::{ObjectId, PmoId};

use crate::desc::{Descriptor, OpKind, DESC_SLOT, OP_STATE_DONE, OP_STATE_IDLE, OP_STATE_PENDING};
use crate::mem::{read_u64, DsMem};
use crate::tagged::TaggedOid;
use crate::{DsError, OpResult, RecoveryOutcome, DS_MAGIC};

/// Kind byte mixed into the root magic.
pub const KIND_STACK: u64 = 1;
/// Root area size.
const ROOT_SIZE: u64 = 32;
/// Node size.
const NODE_SIZE: u64 = 16;
/// Chain-walk cycle guard.
const WALK_LIMIT: usize = 1 << 22;

/// Handle to a persistent Treiber stack. Copyable and shareable across
/// threads: all state lives in pool bytes.
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    pmo: PmoId,
    root: ObjectId,
    descs: ObjectId,
    clients: u32,
}

impl Stack {
    /// Creates a stack in `pmo` for up to `clients` concurrent clients and
    /// registers its root under directory slot `key`.
    pub fn create(mem: &impl DsMem, pmo: PmoId, clients: u32, key: u32) -> Result<Stack, DsError> {
        mem.unit(|mem| {
            let descs = mem.alloc(pmo, u64::from(clients) * DESC_SLOT)?;
            // The allocator reuses freed blocks, so the area must be zeroed
            // explicitly — stale bytes would read as live descriptors.
            mem.write(descs, &vec![0u8; (clients as usize) * DESC_SLOT as usize])?;
            let root = mem.alloc(pmo, ROOT_SIZE)?;
            let mut image = [0u8; ROOT_SIZE as usize];
            image[0..8].copy_from_slice(&(DS_MAGIC | KIND_STACK).to_le_bytes());
            image[8..16].copy_from_slice(&u64::from(clients).to_le_bytes());
            image[16..24].copy_from_slice(&descs.to_packed().to_le_bytes());
            image[24..32].copy_from_slice(&TaggedOid::null().pack().to_le_bytes());
            mem.write(root, &image)?;
            mem.set_root(pmo, key, Some(root))?;
            Ok(Stack {
                pmo,
                root,
                descs,
                clients,
            })
        })
    }

    /// Re-opens the stack whose root is registered under `key` — the
    /// post-recovery entry point.
    pub fn attach(mem: &impl DsMem, pmo: PmoId, key: u32) -> Result<Stack, DsError> {
        let root = mem
            .root(pmo, key)?
            .ok_or_else(|| DsError::Corrupt(format!("no stack root under key {key}")))?;
        let magic = read_u64(mem, root)?;
        if magic != DS_MAGIC | KIND_STACK {
            return Err(DsError::Corrupt(format!(
                "stack root magic mismatch: {magic:#x}"
            )));
        }
        let clients = read_u64(mem, root.wrapping_add(8))? as u32;
        let descs = ObjectId::from_packed(read_u64(mem, root.wrapping_add(16))?)
            .ok_or_else(|| DsError::Corrupt("stack descriptor area is null".into()))?;
        Ok(Stack {
            pmo,
            root,
            descs,
            clients,
        })
    }

    /// The pool this stack lives in.
    pub fn pmo(&self) -> PmoId {
        self.pmo
    }

    /// Maximum client id this stack was created for.
    pub fn clients(&self) -> u32 {
        self.clients
    }

    fn head_cell(&self) -> ObjectId {
        self.root.wrapping_add(24)
    }

    /// Pushes `value` as client `c`.
    pub fn push(&self, mem: &impl DsMem, c: u32, value: u64) -> Result<OpResult<()>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            let node = mem.alloc(self.pmo, NODE_SIZE)?;
            Descriptor {
                seq,
                state: OP_STATE_PENDING,
                op: Some(OpKind::Push),
                target: node.to_packed(),
                value,
                aux: 0,
            }
            .store(mem, self.descs, c)?;
            let commit_mark = loop {
                let head = TaggedOid::unpack(read_u64(mem, self.head_cell())?);
                let mut image = [0u8; NODE_SIZE as usize];
                image[0..8].copy_from_slice(&head.oid.map_or(0, ObjectId::to_packed).to_le_bytes());
                image[8..16].copy_from_slice(&value.to_le_bytes());
                mem.write(node, &image)?;
                let want = head.next(Some(node)).pack();
                if mem.cas_u64(self.head_cell(), head.pack(), want)? == head.pack() {
                    break mem.mark();
                }
            };
            Descriptor {
                seq,
                state: OP_STATE_DONE,
                op: Some(OpKind::Push),
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

    /// Pops the top value as client `c`; `None` on empty.
    pub fn pop(&self, mem: &impl DsMem, c: u32) -> Result<OpResult<Option<u64>>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            loop {
                let head = TaggedOid::unpack(read_u64(mem, self.head_cell())?);
                let Some(node) = head.oid else {
                    return Ok(OpResult {
                        value: None,
                        commit_mark: 0,
                    });
                };
                let mut image = [0u8; NODE_SIZE as usize];
                mem.read(node, &mut image)?;
                let next = u64::from_le_bytes(image[0..8].try_into().expect("8"));
                let value = u64::from_le_bytes(image[8..16].try_into().expect("8"));
                Descriptor {
                    seq,
                    state: OP_STATE_PENDING,
                    op: Some(OpKind::Pop),
                    target: node.to_packed(),
                    value,
                    aux: 0,
                }
                .store(mem, self.descs, c)?;
                let want = head.next(ObjectId::from_packed(next)).pack();
                if mem.cas_u64(self.head_cell(), head.pack(), want)? != head.pack() {
                    continue;
                }
                let commit_mark = mem.mark();
                Descriptor {
                    seq,
                    state: OP_STATE_DONE,
                    op: Some(OpKind::Pop),
                    target: node.to_packed(),
                    value,
                    aux: value,
                }
                .store(mem, self.descs, c)?;
                mem.free(node)?;
                return Ok(OpResult {
                    value: Some(value),
                    commit_mark,
                });
            }
        })
    }

    /// Collects the stack contents, top first.
    pub fn items(&self, mem: &impl DsMem) -> Result<Vec<u64>, DsError> {
        let mut out = Vec::new();
        let mut cur = TaggedOid::unpack(read_u64(mem, self.head_cell())?).oid;
        while let Some(node) = cur {
            if out.len() >= WALK_LIMIT {
                return Err(DsError::Corrupt("stack chain exceeds walk limit".into()));
            }
            let mut image = [0u8; NODE_SIZE as usize];
            mem.read(node, &mut image)?;
            out.push(u64::from_le_bytes(image[8..16].try_into().expect("8")));
            cur = ObjectId::from_packed(u64::from_le_bytes(image[0..8].try_into().expect("8")));
        }
        Ok(out)
    }

    /// Offsets of every node reachable from the head — the crash suite
    /// checks this set against the allocator's live blocks.
    pub fn reachable(&self, mem: &impl DsMem) -> Result<BTreeSet<u64>, DsError> {
        let mut seen = BTreeSet::new();
        let mut cur = TaggedOid::unpack(read_u64(mem, self.head_cell())?).oid;
        while let Some(node) = cur {
            if !seen.insert(node.offset()) {
                return Err(DsError::Corrupt("stack chain is cyclic".into()));
            }
            cur = ObjectId::from_packed(read_u64(mem, node)?);
        }
        Ok(seen)
    }

    /// Post-crash pass: decides every `PENDING` descriptor, finishes or
    /// rolls back its operation, and sweeps orphaned allocations. Must run
    /// single-threaded, before the structure takes traffic again.
    pub fn recover(&self, mem: &impl DsMem) -> Result<RecoveryOutcome, DsError> {
        mem.unit(|mem| {
            let mut out = RecoveryOutcome::default();
            let reachable = self.reachable(mem)?;
            for c in 0..self.clients {
                let d = Descriptor::load(mem, self.descs, c)?;
                if d.state != OP_STATE_PENDING {
                    continue;
                }
                let node = ObjectId::from_packed(d.target).ok_or_else(|| {
                    DsError::Corrupt("pending descriptor with null target".into())
                })?;
                let committed = match d.op {
                    Some(OpKind::Push) => reachable.contains(&node.offset()),
                    Some(OpKind::Pop) => !reachable.contains(&node.offset()),
                    other => {
                        return Err(DsError::Corrupt(format!(
                            "stack descriptor records foreign op {other:?}"
                        )))
                    }
                };
                if committed {
                    // Finish the cleanup the crash interrupted: a committed pop
                    // still owns its unlinked node.
                    if d.op == Some(OpKind::Pop) {
                        let _ = mem.free(node);
                    }
                    Descriptor {
                        state: OP_STATE_DONE,
                        aux: d.value,
                        ..d
                    }
                    .store(mem, self.descs, c)?;
                    out.completed += 1;
                } else {
                    // Roll back: an uncommitted push owns its never-linked
                    // node; an uncommitted pop touched nothing.
                    if d.op == Some(OpKind::Push) {
                        let _ = mem.free(node);
                    }
                    Descriptor {
                        state: OP_STATE_IDLE,
                        ..d
                    }
                    .store(mem, self.descs, c)?;
                    out.rolled_back += 1;
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

/// Frees every live allocation in `pmo` that is neither structural
/// (`keep`) nor in `reachable`. No-op (returns 0) under memories that
/// cannot enumerate live blocks.
pub(crate) fn sweep_orphans(
    mem: &impl DsMem,
    pmo: PmoId,
    keep: &[u64],
    reachable: &BTreeSet<u64>,
) -> Result<usize, DsError> {
    let Some(blocks) = mem.live_blocks(pmo) else {
        return Ok(0);
    };
    let mut freed = 0;
    for (off, _) in blocks {
        if keep.contains(&off) || reachable.contains(&off) {
            continue;
        }
        mem.free(ObjectId::new(pmo, off))?;
        freed += 1;
    }
    Ok(freed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::LocalMem;

    fn fresh() -> (LocalMem, Stack) {
        let mem = LocalMem::new();
        let pid = mem.create_pool("stack", 1 << 18).unwrap();
        let st = Stack::create(&mem, pid, 4, 1).unwrap();
        (mem, st)
    }

    #[test]
    fn push_pop_is_lifo() {
        let (mem, st) = fresh();
        for v in 1..=5 {
            st.push(&mem, 0, v).unwrap();
        }
        assert_eq!(st.items(&mem).unwrap(), vec![5, 4, 3, 2, 1]);
        assert_eq!(st.pop(&mem, 1).unwrap().value, Some(5));
        assert_eq!(st.pop(&mem, 2).unwrap().value, Some(4));
        assert_eq!(st.items(&mem).unwrap(), vec![3, 2, 1]);
    }

    #[test]
    fn empty_pop_is_none_and_commits_nothing() {
        let (mem, st) = fresh();
        let r = st.pop(&mem, 0).unwrap();
        assert_eq!(r.value, None);
        assert_eq!(r.commit_mark, 0);
    }

    #[test]
    fn attach_reopens_via_root_directory() {
        let (mem, st) = fresh();
        st.push(&mem, 0, 9).unwrap();
        let again = Stack::attach(&mem, st.pmo(), 1).unwrap();
        assert_eq!(again.items(&mem).unwrap(), vec![9]);
        assert!(Stack::attach(&mem, st.pmo(), 99).is_err(), "unknown key");
    }

    #[test]
    fn pops_free_their_nodes() {
        let (mem, st) = fresh();
        let base = mem.live_blocks(st.pmo()).unwrap().len();
        st.push(&mem, 0, 1).unwrap();
        st.push(&mem, 0, 2).unwrap();
        st.pop(&mem, 0).unwrap();
        st.pop(&mem, 0).unwrap();
        assert_eq!(mem.live_blocks(st.pmo()).unwrap().len(), base);
    }
}
