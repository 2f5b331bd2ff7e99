//! A persistent fixed-bucket hash map with detectable removes.
//!
//! Layout:
//!
//! ```text
//! root:   [magic][nclients][descs packed][nbuckets] [bucket tagged]*nbuckets
//! node:   [next packed u64][key u64][value u64][state u64]
//! ```
//!
//! Each bucket is an intrusive chain CAS'd at its tagged head word, so an
//! **insert** commits with exactly one CAS (bucket head → new node) — the
//! same Treiber discipline as the stack. Duplicate keys are allowed: the
//! chain acts as a per-key LIFO and lookups hit the *first live* match,
//! i.e. the most recent insert. A **remove** commits by CAS'ing the
//! victim's `state` word from 0 (live) to the client's
//! [`crate::desc::stamp`] — a logical delete; physical unlinking is lazy
//! and deferred to [`HashMap::recover`], which compacts every chain.
//!
//! Recovery: a `PENDING` insert committed iff its node is reachable in
//! its key's bucket; a `PENDING` remove committed iff the target's state
//! word equals the recorded stamp.

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
pub const KIND_MAP: u64 = 3;
const HDR_SIZE: u64 = 32;
const NODE_SIZE: u64 = 32;
const WALK_LIMIT: usize = 1 << 22;

/// Handle to a persistent fixed-bucket hash map.
#[derive(Debug, Clone, Copy)]
pub struct HashMap {
    pmo: PmoId,
    root: ObjectId,
    descs: ObjectId,
    clients: u32,
    buckets: u32,
}

fn bucket_of(key: u64, buckets: u32) -> u32 {
    // Fibonacci scrambling, then a plain mod — buckets need not be 2^k.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % u64::from(buckets)) as u32
}

impl HashMap {
    /// Creates a map with `buckets` fixed buckets in `pmo`, registered
    /// under root-directory slot `key`.
    pub fn create(
        mem: &impl DsMem,
        pmo: PmoId,
        clients: u32,
        buckets: u32,
        key: u32,
    ) -> Result<HashMap, DsError> {
        mem.unit(|mem| {
            assert!(buckets > 0, "a map needs at least one bucket");
            let descs = mem.alloc(pmo, u64::from(clients) * DESC_SLOT)?;
            mem.write(descs, &vec![0u8; (clients as usize) * DESC_SLOT as usize])?;
            let root = mem.alloc(pmo, HDR_SIZE + 8 * u64::from(buckets))?;
            let mut image = vec![0u8; (HDR_SIZE + 8 * u64::from(buckets)) as usize];
            image[0..8].copy_from_slice(&(DS_MAGIC | KIND_MAP).to_le_bytes());
            image[8..16].copy_from_slice(&u64::from(clients).to_le_bytes());
            image[16..24].copy_from_slice(&descs.to_packed().to_le_bytes());
            image[24..32].copy_from_slice(&u64::from(buckets).to_le_bytes());
            mem.write(root, &image)?;
            mem.set_root(pmo, key, Some(root))?;
            Ok(HashMap {
                pmo,
                root,
                descs,
                clients,
                buckets,
            })
        })
    }

    /// Re-opens the map registered under `key`.
    pub fn attach(mem: &impl DsMem, pmo: PmoId, key: u32) -> Result<HashMap, DsError> {
        let root = mem
            .root(pmo, key)?
            .ok_or_else(|| DsError::Corrupt(format!("no map root under key {key}")))?;
        let magic = read_u64(mem, root)?;
        if magic != DS_MAGIC | KIND_MAP {
            return Err(DsError::Corrupt(format!(
                "map root magic mismatch: {magic:#x}"
            )));
        }
        let clients = read_u64(mem, root.wrapping_add(8))? as u32;
        let descs = ObjectId::from_packed(read_u64(mem, root.wrapping_add(16))?)
            .ok_or_else(|| DsError::Corrupt("map descriptor area is null".into()))?;
        let buckets = read_u64(mem, root.wrapping_add(24))? as u32;
        if buckets == 0 {
            return Err(DsError::Corrupt("map root records zero buckets".into()));
        }
        Ok(HashMap {
            pmo,
            root,
            descs,
            clients,
            buckets,
        })
    }

    /// The pool this map lives in.
    pub fn pmo(&self) -> PmoId {
        self.pmo
    }

    /// Number of fixed buckets.
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    fn bucket_cell(&self, b: u32) -> ObjectId {
        self.root.wrapping_add(HDR_SIZE + 8 * u64::from(b))
    }

    fn read_node(&self, mem: &impl DsMem, node: ObjectId) -> Result<(u64, u64, u64, u64), DsError> {
        let mut image = [0u8; NODE_SIZE as usize];
        mem.read(node, &mut image)?;
        let word = |i: usize| u64::from_le_bytes(image[i * 8..i * 8 + 8].try_into().expect("8"));
        Ok((word(0), word(1), word(2), word(3)))
    }

    /// Inserts `(key, value)` as client `c`. Duplicate keys shadow older
    /// entries (per-key LIFO).
    pub fn insert(
        &self,
        mem: &impl DsMem,
        c: u32,
        key: u64,
        value: u64,
    ) -> Result<OpResult<()>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            let node = mem.alloc(self.pmo, NODE_SIZE)?;
            Descriptor {
                seq,
                state: OP_STATE_PENDING,
                op: Some(OpKind::Insert),
                target: node.to_packed(),
                value: key,
                aux: value,
            }
            .store(mem, self.descs, c)?;
            let cell = self.bucket_cell(bucket_of(key, self.buckets));
            let commit_mark = loop {
                let head = TaggedOid::unpack(read_u64(mem, cell)?);
                let mut image = [0u8; NODE_SIZE as usize];
                image[0..8].copy_from_slice(&head.oid.map_or(0, ObjectId::to_packed).to_le_bytes());
                image[8..16].copy_from_slice(&key.to_le_bytes());
                image[16..24].copy_from_slice(&value.to_le_bytes());
                mem.write(node, &image)?;
                if mem.cas_u64(cell, head.pack(), head.next(Some(node)).pack())? == head.pack() {
                    break mem.mark();
                }
            };
            Descriptor {
                seq,
                state: OP_STATE_DONE,
                op: Some(OpKind::Insert),
                target: node.to_packed(),
                value: key,
                aux: value,
            }
            .store(mem, self.descs, c)?;
            Ok(OpResult {
                value: (),
                commit_mark,
            })
        })
    }

    /// Looks up the most recent live entry for `key`.
    pub fn get(&self, mem: &impl DsMem, key: u64) -> Result<Option<u64>, DsError> {
        let cell = self.bucket_cell(bucket_of(key, self.buckets));
        let mut cur = TaggedOid::unpack(read_u64(mem, cell)?).oid;
        let mut steps = 0usize;
        while let Some(node) = cur {
            steps += 1;
            if steps > WALK_LIMIT {
                return Err(DsError::Corrupt("map chain exceeds walk limit".into()));
            }
            let (next, k, v, state) = self.read_node(mem, node)?;
            if k == key && state == 0 {
                return Ok(Some(v));
            }
            cur = ObjectId::from_packed(next);
        }
        Ok(None)
    }

    /// Removes the most recent live entry for `key` as client `c`,
    /// returning its value; `None` (with mark 0) when absent.
    pub fn remove(
        &self,
        mem: &impl DsMem,
        c: u32,
        key: u64,
    ) -> Result<OpResult<Option<u64>>, DsError> {
        mem.unit(|mem| {
            let seq = Descriptor::load(mem, self.descs, c)?.seq + 1;
            let st = stamp(c, seq);
            let cell = self.bucket_cell(bucket_of(key, self.buckets));
            'rescan: loop {
                let mut cur = TaggedOid::unpack(read_u64(mem, cell)?).oid;
                let mut steps = 0usize;
                while let Some(node) = cur {
                    steps += 1;
                    if steps > WALK_LIMIT {
                        return Err(DsError::Corrupt("map chain exceeds walk limit".into()));
                    }
                    let (next, k, v, state) = self.read_node(mem, node)?;
                    if k == key && state == 0 {
                        Descriptor {
                            seq,
                            state: OP_STATE_PENDING,
                            op: Some(OpKind::Remove),
                            target: node.to_packed(),
                            value: key,
                            aux: st,
                        }
                        .store(mem, self.descs, c)?;
                        // The commit: logical delete by stamping the state word.
                        if mem.cas_u64(node.wrapping_add(24), 0, st)? == 0 {
                            let commit_mark = mem.mark();
                            Descriptor {
                                seq,
                                state: OP_STATE_DONE,
                                op: Some(OpKind::Remove),
                                target: node.to_packed(),
                                value: key,
                                aux: st,
                            }
                            .store(mem, self.descs, c)?;
                            return Ok(OpResult {
                                value: Some(v),
                                commit_mark,
                            });
                        }
                        // Lost the race for this node; rescan the chain.
                        continue 'rescan;
                    }
                    cur = ObjectId::from_packed(next);
                }
                return Ok(OpResult {
                    value: None,
                    commit_mark: 0,
                });
            }
        })
    }

    /// Collects every live `(key, value)` pair, bucket by bucket, chain
    /// order (most recent insert first within a bucket).
    pub fn items(&self, mem: &impl DsMem) -> Result<Vec<(u64, u64)>, DsError> {
        let mut out = Vec::new();
        for b in 0..self.buckets {
            let mut cur = TaggedOid::unpack(read_u64(mem, self.bucket_cell(b))?).oid;
            let mut steps = 0usize;
            while let Some(node) = cur {
                steps += 1;
                if steps > WALK_LIMIT {
                    return Err(DsError::Corrupt("map chain exceeds walk limit".into()));
                }
                let (next, k, v, state) = self.read_node(mem, node)?;
                if state == 0 {
                    out.push((k, v));
                }
                cur = ObjectId::from_packed(next);
            }
        }
        Ok(out)
    }

    /// Offsets of every chained node (live and logically deleted) — the
    /// crash suite checks this set against the allocator's live blocks.
    pub fn reachable(&self, mem: &impl DsMem) -> Result<BTreeSet<u64>, DsError> {
        let mut seen = BTreeSet::new();
        for b in 0..self.buckets {
            let mut cur = TaggedOid::unpack(read_u64(mem, self.bucket_cell(b))?).oid;
            while let Some(node) = cur {
                if !seen.insert(node.offset()) {
                    return Err(DsError::Corrupt("map chain is cyclic".into()));
                }
                cur = ObjectId::from_packed(read_u64(mem, node)?);
            }
        }
        Ok(seen)
    }

    /// Post-crash pass (single-threaded): decides every `PENDING`
    /// descriptor, compacts dead nodes out of every chain, and
    /// orphan-sweeps.
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
                    Some(OpKind::Insert) => reachable.contains(&node.offset()),
                    Some(OpKind::Remove) => {
                        let mut buf = [0u8; 8];
                        mem.read(node.wrapping_add(24), &mut buf)?;
                        u64::from_le_bytes(buf) == d.aux
                    }
                    other => {
                        return Err(DsError::Corrupt(format!(
                            "map descriptor records foreign op {other:?}"
                        )))
                    }
                };
                if committed {
                    Descriptor {
                        state: OP_STATE_DONE,
                        ..d
                    }
                    .store(mem, self.descs, c)?;
                    out.completed += 1;
                } else {
                    if d.op == Some(OpKind::Insert) {
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

            // Compact: rebuild every chain without its logically deleted
            // nodes (plain writes — recovery is single-threaded), free them.
            for b in 0..self.buckets {
                let cell = self.bucket_cell(b);
                let head = TaggedOid::unpack(read_u64(mem, cell)?);
                let mut live = Vec::new();
                let mut dead = Vec::new();
                let mut cur = head.oid;
                while let Some(node) = cur {
                    let (next, _, _, state) = self.read_node(mem, node)?;
                    if state == 0 {
                        live.push(node);
                    } else {
                        dead.push(node);
                    }
                    cur = ObjectId::from_packed(next);
                }
                if dead.is_empty() {
                    continue;
                }
                // Relink survivors in order, then swing the head (tag bumped).
                let mut next_packed = 0u64;
                for node in live.iter().rev() {
                    write_u64(mem, *node, next_packed)?;
                    next_packed = node.to_packed();
                }
                write_u64(mem, cell, head.next(live.first().copied()).pack())?;
                for node in dead {
                    let _ = mem.free(node);
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

    fn fresh() -> (LocalMem, HashMap) {
        let mem = LocalMem::new();
        let pid = mem.create_pool("map", 1 << 18).unwrap();
        let m = HashMap::create(&mem, pid, 4, 8, 3).unwrap();
        (mem, m)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let (mem, m) = fresh();
        for k in 0..32u64 {
            m.insert(&mem, 0, k, k * 10).unwrap();
        }
        assert_eq!(m.get(&mem, 7).unwrap(), Some(70));
        assert_eq!(m.remove(&mem, 1, 7).unwrap().value, Some(70));
        assert_eq!(m.get(&mem, 7).unwrap(), None);
        assert_eq!(m.remove(&mem, 1, 7).unwrap().value, None);
        assert_eq!(m.items(&mem).unwrap().len(), 31);
    }

    #[test]
    fn duplicate_keys_shadow_like_a_per_key_stack() {
        let (mem, m) = fresh();
        m.insert(&mem, 0, 5, 100).unwrap();
        m.insert(&mem, 1, 5, 200).unwrap();
        assert_eq!(m.get(&mem, 5).unwrap(), Some(200));
        assert_eq!(m.remove(&mem, 2, 5).unwrap().value, Some(200));
        assert_eq!(m.get(&mem, 5).unwrap(), Some(100));
        assert_eq!(m.remove(&mem, 2, 5).unwrap().value, Some(100));
        assert_eq!(m.get(&mem, 5).unwrap(), None);
    }

    #[test]
    fn attach_reopens_via_root_directory() {
        let (mem, m) = fresh();
        m.insert(&mem, 0, 1, 11).unwrap();
        let again = HashMap::attach(&mem, m.pmo(), 3).unwrap();
        assert_eq!(again.get(&mem, 1).unwrap(), Some(11));
        assert!(HashMap::attach(&mem, m.pmo(), 99).is_err());
    }

    #[test]
    fn recover_compacts_dead_nodes() {
        let (mem, m) = fresh();
        for k in 0..16u64 {
            m.insert(&mem, 0, k, k).unwrap();
        }
        for k in 0..8u64 {
            m.remove(&mem, 0, k).unwrap();
        }
        let before = mem.live_blocks(m.pmo()).unwrap().len();
        m.recover(&mem).unwrap();
        let after = mem.live_blocks(m.pmo()).unwrap().len();
        assert_eq!(before - after, 8, "eight dead nodes reclaimed");
        for k in 8..16u64 {
            assert_eq!(m.get(&mem, k).unwrap(), Some(k));
        }
        assert_eq!(m.items(&mem).unwrap().len(), 8);
    }
}
