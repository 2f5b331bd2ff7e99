//! Seeded input generation: the only source of the operations the system
//! under test sees. Same seed ⇒ same streams, byte for byte.

/// xorshift64* — small, fast, and good enough to pick keys and mixes.
#[derive(Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // Scramble so seeds 1, 2, 3 do not start in neighbouring states; the
        // state must never be 0.
        let s = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        XorShift(if s == 0 { 0x2545_F491_4F6C_DD1D } else { s })
    }

    /// An independent stream for worker `lane` of workload seed `seed`.
    pub fn lane(seed: u64, lane: u64) -> Self {
        Self::new(seed ^ lane.wrapping_add(1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// One service-level operation of a window workload. `pool` and `obj` index
/// the driver's own tables; `seq` is the per-object write sequence stamped
/// into the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Attach { pool: u32 },
    Read { pool: u32, obj: u32 },
    Write { pool: u32, obj: u32, seq: u32 },
    Detach { pool: u32 },
}

/// What goes inside each attach…detach window.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// `len` data ops, each a write with this probability (percent).
    WritePct { len: u32, pct: u32 },
    /// One write then `reads` reads.
    WriteThenReads { reads: u32 },
}

/// Endless stream of windows `attach, data ops…, detach` over `pools` pools
/// of `objects` objects each.
pub struct WindowGen {
    rng: XorShift,
    pools: u32,
    objects: u32,
    mix: Mix,
    /// Next write sequence per (pool, object); 0 is the set-up prefill.
    seqs: Vec<u32>,
    pool: u32,
    /// Position inside the current window: 0 = attach next.
    pos: u32,
}

impl WindowGen {
    pub fn new(seed: u64, lane: u64, pools: u32, objects: u32, mix: Mix) -> Self {
        WindowGen {
            rng: XorShift::lane(seed, lane),
            pools,
            objects,
            mix,
            seqs: vec![0; (pools * objects) as usize],
            pool: 0,
            pos: 0,
        }
    }

    /// Operations per window, attach and detach included.
    pub fn window_len(&self) -> u32 {
        2 + match self.mix {
            Mix::WritePct { len, .. } => len,
            Mix::WriteThenReads { reads } => 1 + reads,
        }
    }

    fn write(&mut self, obj: u32) -> Op {
        let slot = &mut self.seqs[(self.pool * self.objects + obj) as usize];
        *slot += 1;
        Op::Write {
            pool: self.pool,
            obj,
            seq: *slot,
        }
    }
}

impl Iterator for WindowGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let last = self.window_len() - 1;
        let pos = self.pos;
        self.pos = if pos == last { 0 } else { pos + 1 };
        Some(if pos == 0 {
            self.pool = self.rng.below(self.pools);
            Op::Attach { pool: self.pool }
        } else if pos == last {
            Op::Detach { pool: self.pool }
        } else {
            let obj = self.rng.below(self.objects);
            let is_write = match self.mix {
                Mix::WritePct { pct, .. } => self.rng.below(100) < pct,
                Mix::WriteThenReads { .. } => pos == 1,
            };
            if is_write {
                self.write(obj)
            } else {
                Op::Read {
                    pool: self.pool,
                    obj,
                }
            }
        })
    }
}

/// Fills `buf` with the payload of write `seq` to `(pool, obj)`: a 12-byte
/// stamp then a pattern derived from it, so a read can be checked against
/// the last write with no stored copy.
pub fn fill_payload(buf: &mut [u8], pool: u32, obj: u32, seq: u32) {
    let mut stamp = [0u8; 12];
    stamp[0..4].copy_from_slice(&pool.to_le_bytes());
    stamp[4..8].copy_from_slice(&obj.to_le_bytes());
    stamp[8..12].copy_from_slice(&seq.to_le_bytes());
    let salt = (seq.wrapping_mul(31) ^ obj) as u8;
    for (i, b) in buf.iter_mut().enumerate() {
        *b = if i < 12 {
            stamp[i]
        } else {
            salt.wrapping_add(i as u8)
        };
    }
}

/// One key-value / queue operation of the `kv_durable` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Get(u64),
    Insert(u64, u64),
    Remove(u64),
    Enqueue(u64),
    Dequeue,
}

/// 50 % get / 20 % insert / 10 % remove / 10 % enqueue / 10 % dequeue over
/// the keys `lo..lo + n`, 90 % of key picks landing in the first tenth.
pub struct KvGen {
    rng: XorShift,
    lo: u64,
    n: u32,
}

impl KvGen {
    pub fn new(seed: u64, lane: u64, lo: u64, n: u32) -> Self {
        KvGen {
            rng: XorShift::lane(seed, lane),
            lo,
            n,
        }
    }

    fn key(&mut self) -> u64 {
        let hot = (self.n / 10).max(1);
        let k = if self.rng.below(100) < 90 {
            self.rng.below(hot)
        } else {
            hot + self.rng.below((self.n - hot).max(1))
        };
        self.lo + u64::from(k.min(self.n - 1))
    }
}

impl Iterator for KvGen {
    type Item = KvOp;

    fn next(&mut self) -> Option<KvOp> {
        let r = self.rng.below(100);
        Some(match r {
            0..=49 => KvOp::Get(self.key()),
            50..=69 => KvOp::Insert(self.key(), self.rng.next_u64() | 1),
            70..=79 => KvOp::Remove(self.key()),
            80..=89 => KvOp::Enqueue(self.rng.next_u64() | 1),
            _ => KvOp::Dequeue,
        })
    }
}

/// FNV-1a over the debug rendering of the first `n` items: a cheap
/// fingerprint of a generated stream.
#[cfg(test)]
pub fn stream_hash<T: std::fmt::Debug>(stream: impl Iterator<Item = T>, n: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for item in stream.take(n) {
        for b in format!("{item:?};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: Mix = Mix::WritePct { len: 8, pct: 50 };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let h = |seed, lane| stream_hash(WindowGen::new(seed, lane, 4, 256, WIRE), 5000);
        assert_eq!(h(1, 0), h(1, 0));
        assert_ne!(h(1, 0), h(2, 0));
        assert_ne!(h(1, 0), h(1, 1), "lanes of one seed are independent");
        let k = |seed| stream_hash(KvGen::new(seed, 0, 0, 8192), 5000);
        assert_eq!(k(1), k(1));
        assert_ne!(k(1), k(2));
    }

    #[test]
    fn windows_are_well_formed() {
        let mut g = WindowGen::new(3, 0, 4, 16, WIRE);
        let len = g.window_len() as usize;
        assert_eq!(len, 10);
        let mut seqs = std::collections::HashMap::new();
        let (mut reads, mut writes) = (0, 0);
        for _ in 0..500 {
            let w: Vec<Op> = g.by_ref().take(len).collect();
            let Op::Attach { pool } = w[0] else {
                panic!("window starts with attach: {w:?}")
            };
            assert_eq!(w[len - 1], Op::Detach { pool });
            for op in &w[1..len - 1] {
                match *op {
                    Op::Read { pool: p, obj } => {
                        assert!(p == pool && obj < 16);
                        reads += 1;
                    }
                    Op::Write { pool: p, obj, seq } => {
                        assert!(p == pool && obj < 16);
                        let last = seqs.entry((p, obj)).or_insert(0);
                        assert_eq!(seq, *last + 1, "sequences count up per object");
                        *last = seq;
                        writes += 1;
                    }
                    other => panic!("attach/detach inside a window: {other:?}"),
                }
            }
        }
        let share = f64::from(writes) / f64::from(reads + writes);
        assert!((0.45..0.55).contains(&share), "write share {share}");

        let hot: Vec<Op> = WindowGen::new(3, 0, 32, 8, Mix::WriteThenReads { reads: 7 })
            .take(10)
            .collect();
        assert!(matches!(hot[1], Op::Write { .. }));
        assert!(hot[2..9].iter().all(|o| matches!(o, Op::Read { .. })));
    }

    #[test]
    fn kv_mix_and_skew() {
        let (mut gets, mut hot, mut keyed) = (0, 0, 0);
        for op in KvGen::new(9, 1, 8192, 8192).take(20_000) {
            let key = match op {
                KvOp::Get(k) => {
                    gets += 1;
                    Some(k)
                }
                KvOp::Insert(k, v) => {
                    assert_ne!(v, 0);
                    Some(k)
                }
                KvOp::Remove(k) => Some(k),
                KvOp::Enqueue(_) | KvOp::Dequeue => None,
            };
            if let Some(k) = key {
                assert!((8192..16384).contains(&k));
                keyed += 1;
                hot += u32::from(k < 8192 + 819);
            }
        }
        assert!((9_500..10_500).contains(&gets), "gets {gets}");
        let share = f64::from(hot) / f64::from(keyed);
        assert!((0.88..0.92).contains(&share), "hot share {share}");
    }

    #[test]
    fn payload_identifies_its_write() {
        let (mut a, mut b) = ([0u8; 64], [0u8; 64]);
        fill_payload(&mut a, 1, 7, 3);
        fill_payload(&mut b, 1, 7, 3);
        assert_eq!(a, b);
        fill_payload(&mut b, 1, 7, 4);
        assert_ne!(a, b);
        fill_payload(&mut b, 1, 8, 3);
        assert_ne!(a, b);
    }
}
