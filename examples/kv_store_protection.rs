//! A persistent key-value store on PMOs, protected by TERP.
//!
//! Demonstrates the paper's motivating scenario end-to-end:
//!
//! 1. a pointer-rich persistent data structure (a hash table with chained
//!    entries) lives in one PMO, addressed by relocatable ObjectIDs;
//! 2. the store survives detach/re-attach at a *different randomized
//!    address* — the relocation TERP's per-window randomization relies on;
//! 3. the in-process service gates every access by EW-conscious windows;
//! 4. the WHISPER-like `echo` workload is run under MERR (MM) and TERP (TT)
//!    to show the protection/overhead trade-off on a realistic KV mix.
//!
//! ```sh
//! cargo run --example kv_store_protection
//! ```

use terp_service::{PmoService, ServiceConfig, ServiceError};
use terp_suite::prelude::*;
use terp_suite::terp_workloads::whisper;

const BUCKETS: u64 = 64;
const ENTRY_SIZE: u64 = 64; // key(8) + value(40) + next(8) + len(8)

/// A tiny persistent hash map: bucket array of packed ObjectIDs, chained
/// entries. All pointers are packed ObjectIDs, so the structure survives
/// relocation.
struct PersistentKv {
    pmo: PmoId,
    table: ObjectId,
}

impl PersistentKv {
    fn create(reg: &mut PmoRegistry, pmo: PmoId) -> Result<Self, terp_pmo::PmoError> {
        let table = reg.pool_mut(pmo)?.pmalloc(BUCKETS * 8)?;
        Ok(PersistentKv { pmo, table })
    }

    fn bucket_slot(&self, key: u64) -> u64 {
        self.table.offset() + (key % BUCKETS) * 8
    }

    fn put(&self, reg: &mut PmoRegistry, key: u64, value: &[u8]) -> Result<(), terp_pmo::PmoError> {
        assert!(value.len() <= 40, "demo values are small");
        let pool = reg.pool_mut(self.pmo)?;
        // Read the bucket head (packed ObjectID or 0 = null).
        let mut head = [0u8; 8];
        pool.read_bytes(self.bucket_slot(key), &mut head)?;
        let entry = pool.pmalloc(ENTRY_SIZE)?;
        // entry layout: key | next | len | value...
        pool.write_bytes(entry.offset(), &key.to_le_bytes())?;
        pool.write_bytes(entry.offset() + 8, &head)?;
        pool.write_bytes(entry.offset() + 16, &(value.len() as u64).to_le_bytes())?;
        pool.write_bytes(entry.offset() + 24, value)?;
        pool.write_bytes(self.bucket_slot(key), &entry.to_packed().to_le_bytes())?;
        Ok(())
    }

    fn get(&self, reg: &PmoRegistry, key: u64) -> Result<Option<Vec<u8>>, terp_pmo::PmoError> {
        let pool = reg.pool(self.pmo)?;
        let mut cursor = {
            let mut head = [0u8; 8];
            pool.read_bytes(self.bucket_slot(key), &mut head)?;
            ObjectId::from_packed(u64::from_le_bytes(head))
        };
        while let Some(entry) = cursor {
            let mut buf = [0u8; 24];
            pool.read_bytes(entry.offset(), &mut buf)?;
            let k = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes"));
            let next = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")) as usize;
            if k == key {
                let mut value = vec![0u8; len];
                pool.read_bytes(entry.offset() + 24, &mut value)?;
                return Ok(Some(value));
            }
            cursor = ObjectId::from_packed(next);
        }
        Ok(None)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Build the persistent KV store. ---
    let mut reg = PmoRegistry::new();
    let pmo = reg.create("kv-store", 1 << 22, OpenMode::ReadWrite)?;
    let kv = PersistentKv::create(&mut reg, pmo)?;
    for i in 0..200u64 {
        kv.put(&mut reg, i, format!("value-{i}").as_bytes())?;
    }
    println!(
        "stored 200 keys; get(42) = {:?}",
        String::from_utf8(kv.get(&reg, 42)?.expect("key 42 present"))?
    );

    // --- 2. Relocation: attach at two different randomized addresses; the
    //        ObjectID-based structure is oblivious to the move. ---
    let mut space = ProcessAddressSpace::with_seed(7);
    let h1 = space.attach(reg.pool_mut(pmo)?, Permission::ReadWrite)?;
    space.detach(reg.pool_mut(pmo)?)?;
    let h2 = space.attach(reg.pool_mut(pmo)?, Permission::ReadWrite)?;
    println!(
        "mapped at {:#x}, then re-mapped at {:#x} (moved {} MiB); lookups still work: get(7) = {:?}",
        h1.base_va(),
        h2.base_va(),
        (h2.base_va().abs_diff(h1.base_va())) >> 20,
        String::from_utf8(kv.get(&reg, 7)?.expect("key 7 present"))?
    );
    space.detach(reg.pool_mut(pmo)?)?;

    // --- 3. The adoptable API: the same kind of store behind the
    //        in-process PmoService, where every read/write is gated by
    //        EW-conscious windows. No sweeper thread: we wait past the EW
    //        target and sweep ourselves. ---
    {
        let svc = PmoService::new(
            ServiceConfig::for_tests(Scheme::terp_full()).with_ew_target_us(10_000),
        );
        let spmo = svc.create_pool("kv-guarded", 1 << 22, OpenMode::ReadWrite)?;
        // Inside a window: normal operation.
        svc.attach(0, spmo, Permission::ReadWrite)?;
        let slot = svc.alloc(0, spmo, 32)?;
        svc.write(0, slot, b"gated")?;
        let value = svc.read(0, slot, 5)?;
        svc.detach(0, spmo)?;
        // The session is closed: the client is refused even while the
        // delayed detach keeps the pool mapped for window combining.
        assert!(matches!(
            svc.read(0, slot, 5).unwrap_err(),
            ServiceError::PermissionDenied { .. }
        ));
        // Past the EW target the sweep unmaps it: a read is a segfault,
        // exactly as if detached.
        std::thread::sleep(std::time::Duration::from_millis(20));
        svc.sweep_all();
        assert_eq!(
            svc.read(0, slot, 5).unwrap_err(),
            ServiceError::Substrate(terp_pmo::PmoError::NotAttached(spmo))
        );
        println!(
            "PmoService: value {:?} only reachable inside a window; outside it reads fault",
            std::str::from_utf8(&value)?
        );
    }

    // --- 4. Run the echo KV workload under MM and TT. ---
    println!("\nWHISPER echo under MERR (MM) vs TERP (TT):");
    let workload = whisper::echo(whisper::WhisperScale::test());
    for (scheme, variant) in [
        (Scheme::Merr, Variant::Manual),
        (
            Scheme::terp_full(),
            Variant::Auto {
                let_threshold: 4400,
            },
        ),
    ] {
        let mut wreg = workload.build_registry();
        let traces = workload.traces(variant, 42);
        let config = ProtectionConfig::new(scheme, 40.0, 2.0);
        let report = Executor::new(SimParams::default(), config).run(&mut wreg, traces)?;
        println!("{report}\n");
    }
    Ok(())
}
