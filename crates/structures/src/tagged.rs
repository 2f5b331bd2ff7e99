//! Tagged ObjectID words: the ABA armor for CAS roots.
//!
//! A plain packed [`ObjectId`] is `[pool:10 | offset:54]`. A structure's
//! *root* cells (stack head, queue head/tail, bucket heads) are CAS
//! targets, and a pool allocator happily reuses a freed offset — the
//! classic ABA hazard. Root words therefore trade 22 offset bits for a
//! monotone tag that every successful CAS bumps:
//!
//! ```text
//! root word := [pool:10 | tag:22 | offset:32]
//! ```
//!
//! Node-to-node links are *not* CAS'd against reuse the same way (their
//! containing node is unlinked before it is freed), so they stay full
//! 54-bit packed ObjectIDs. The 32-bit offset field caps root-reachable
//! structures at 4 GiB pools — far above anything this workspace drives —
//! and [`TaggedOid::pack`] asserts it.
//!
//! The null word keeps its tag: an empty→non-empty transition still bumps,
//! so `pop; push` of the same node cannot satisfy a stale comparand.

use terp_pmo::{ObjectId, PmoId};

/// Bits of the CAS tag.
pub const TAG_BITS: u32 = 22;
/// Bits of the offset in a tagged word.
pub const OFF_BITS: u32 = 32;
/// Mask for the tag field.
pub const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
/// Mask for the offset field.
pub const OFF_MASK: u64 = (1 << OFF_BITS) - 1;

/// A decoded root word: the referenced object (if any) and the CAS tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedOid {
    /// Referenced object; `None` encodes the null root (pool id 0).
    pub oid: Option<ObjectId>,
    /// Monotone (wrapping) CAS tag.
    pub tag: u32,
}

impl TaggedOid {
    /// The all-zero word: null, tag 0.
    pub fn null() -> Self {
        TaggedOid { oid: None, tag: 0 }
    }

    /// Decodes a root word.
    pub fn unpack(word: u64) -> Self {
        let pool = (word >> (TAG_BITS + OFF_BITS)) as u16;
        let tag = ((word >> OFF_BITS) & TAG_MASK) as u32;
        let offset = word & OFF_MASK;
        TaggedOid {
            oid: PmoId::new(pool).map(|pmo| ObjectId::new(pmo, offset)),
            tag,
        }
    }

    /// Encodes this value back into a root word.
    ///
    /// # Panics
    ///
    /// Panics if the offset does not fit 32 bits (pool too large for a
    /// tagged root).
    pub fn pack(&self) -> u64 {
        let tag = u64::from(self.tag) & TAG_MASK;
        match self.oid {
            None => tag << OFF_BITS,
            Some(oid) => {
                assert!(
                    oid.offset() <= OFF_MASK,
                    "offset {:#x} exceeds the 32-bit tagged-root field",
                    oid.offset()
                );
                (u64::from(oid.pmo().raw()) << (TAG_BITS + OFF_BITS))
                    | (tag << OFF_BITS)
                    | oid.offset()
            }
        }
    }

    /// The word that follows this one after a successful CAS: new target,
    /// tag bumped (wrapping within its 22 bits).
    pub fn next(&self, oid: Option<ObjectId>) -> TaggedOid {
        TaggedOid {
            oid,
            tag: ((u64::from(self.tag) + 1) & TAG_MASK) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(pool: u16, off: u64) -> ObjectId {
        ObjectId::new(PmoId::new(pool).unwrap(), off)
    }

    #[test]
    fn round_trips_and_distinguishes_reused_offsets() {
        let a = TaggedOid {
            oid: Some(oid(9, 0x1234)),
            tag: 7,
        };
        assert_eq!(TaggedOid::unpack(a.pack()), a);

        // Same offset, different tag: different word — the ABA defense.
        let b = a.next(Some(oid(9, 0x1234)));
        assert_ne!(a.pack(), b.pack());
        assert_eq!(b.tag, 8);
    }

    #[test]
    fn null_keeps_its_tag() {
        let n = TaggedOid { oid: None, tag: 41 };
        let w = n.pack();
        assert_eq!(TaggedOid::unpack(w), n);
        assert_ne!(w, TaggedOid::null().pack());
        // Emptying and refilling still bumps.
        assert_eq!(n.next(Some(oid(1, 64))).tag, 42);
    }

    #[test]
    fn tag_wraps_within_its_field() {
        let t = TaggedOid {
            oid: None,
            tag: TAG_MASK as u32,
        };
        assert_eq!(t.next(None).tag, 0);
    }
}
