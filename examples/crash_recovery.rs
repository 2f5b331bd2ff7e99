//! Crash consistency meets temporal protection: a persistent bank ledger
//! updated transactionally inside TERP windows, with a simulated power
//! failure and recovery.
//!
//! PMOs need *both* properties (paper Section II): crash consistency so a
//! failure cannot corrupt the structure, and temporal protection so an
//! attacker cannot corrupt it while it is exposed. This example exercises
//! the undo-log transactions of `terp_pmo::txn` alongside a protected run.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use terp_suite::prelude::*;
use terp_suite::terp_pmo::txn::{recover, Transaction};

const ACCOUNTS: u64 = 4;

/// Reads the ledger: `ACCOUNTS` little-endian `u64` balances at `accounts`.
fn balances(reg: &PmoRegistry, pmo: PmoId, accounts: u64) -> Vec<u64> {
    let pool = reg.pool(pmo).expect("pool");
    (0..ACCOUNTS)
        .map(|i| {
            let mut buf = [0u8; 8];
            pool.read_bytes(accounts + 8 * i, &mut buf).expect("read");
            u64::from_le_bytes(buf)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A ledger of 4 accounts in one PMO.
    let mut reg = PmoRegistry::new();
    let pmo = reg.create("ledger", 1 << 20, OpenMode::ReadWrite)?;
    let accounts = reg.pool_mut(pmo)?.pmalloc(8 * ACCOUNTS)?.offset();
    let slot = |account: u64| accounts + 8 * account;
    for (account, initial) in [100u64, 250, 40, 900].into_iter().enumerate() {
        reg.pool_mut(pmo)?
            .write_bytes(slot(account as u64), &initial.to_le_bytes())?;
    }
    println!("initial balances: {:?}", balances(&reg, pmo, accounts));

    // A committed transfer: move 50 from account 3 to account 2. Both slot
    // writes go through one undo-log transaction, so the pair is atomic.
    {
        let (from, to) = (3usize, 2usize);
        let now = balances(&reg, pmo, accounts);
        let mut tx = Transaction::begin(reg.pool_mut(pmo)?)?;
        tx.write(slot(from as u64), &(now[from] - 50).to_le_bytes())?;
        tx.write(slot(to as u64), &(now[to] + 50).to_le_bytes())?;
        tx.commit()?;
    }
    println!(
        "after committed transfer: {:?}",
        balances(&reg, pmo, accounts)
    );

    // A transfer interrupted by power failure mid-update: the debit is
    // applied, the credit never happens — without the log, money would
    // vanish. Recovery rolls the half-applied transfer back.
    let before = balances(&reg, pmo, accounts);
    {
        let mut tx = Transaction::begin(reg.pool_mut(pmo)?)?;
        tx.write(slot(0), &(before[0] - 75).to_le_bytes())?; // debit applied
        tx.crash(); // ...power failure before the credit and the commit
    }
    println!(
        "after crash (torn transfer visible): {:?}",
        balances(&reg, pmo, accounts)
    );
    let rolled_back = recover(reg.pool_mut(pmo)?)?;
    println!(
        "recovery rolled back {rolled_back} range(s): {:?}",
        balances(&reg, pmo, accounts)
    );
    assert_eq!(before, balances(&reg, pmo, accounts));

    // The same ledger under temporal protection: ledger operations as a
    // protected trace (windows around each transfer burst).
    let mut trace = ThreadTrace::new();
    for round in 0..100u64 {
        trace.push(TraceOp::Attach {
            pmo,
            perm: Permission::ReadWrite,
        });
        for i in 0..4 {
            trace.push(TraceOp::PmoAccess {
                oid: ObjectId::new(pmo, 64 * ((round + i) % 16)),
                kind: if i % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                tag: None,
            });
        }
        trace.push(TraceOp::Detach { pmo });
        trace.push(TraceOp::Compute { instrs: 30_000 });
    }
    let report = Executor::new(SimParams::default(), ProtectionConfig::terp_default())
        .run(&mut reg, vec![trace])?;
    println!("\nledger under TERP:\n{report}");
    println!(
        "\nconsistency AND exposure control: {:.0}% of protection ops lowered to silent \
         thread-permission updates, undo logging keeps every transfer atomic",
        report.silent_fraction() * 100.0
    );
    Ok(())
}
