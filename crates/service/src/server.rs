//! The server wrapper: service + sweeper with a clean shutdown protocol.
//!
//! Shutdown runs in three ordered steps (DESIGN.md §9):
//!
//! 1. **Refuse** — `begin_shutdown` flags the service; new sessions get
//!    [`crate::ServiceError::ShuttingDown`] and blocked Basic-semantics
//!    waiters wake with the same error.
//! 2. **Stop the sweeper** — flag, unpark, join. After this no thread
//!    mutates shard state concurrently with the drain.
//! 3. **Drain** — force-close every window (circular buffers, mappings,
//!    client grants) and finalize window statistics.
//!
//! The returned [`ServiceReport`] is therefore complete: every window that
//! ever opened has closed and been accounted.

use std::sync::Arc;

use crate::config::ServiceConfig;
use crate::metrics::ServiceReport;
use crate::service::PmoService;
use crate::sweeper::Sweeper;

/// A running PMO server: the shared service plus its background sweeper.
#[derive(Debug)]
pub struct PmoServer {
    service: Arc<PmoService>,
    sweeper: Option<Sweeper>,
}

impl PmoServer {
    /// Starts the service and, unless `config.sweep_period_us == 0`, its
    /// sweeper thread.
    ///
    /// # Panics
    ///
    /// In durable mode, panics if a shard store fails to open or recover;
    /// use [`Self::try_start`] to handle those errors.
    pub fn start(config: ServiceConfig) -> Self {
        Self::try_start(config).expect("durable store open/recovery failed")
    }

    /// Fallible start: in durable mode the service recovers every shard
    /// store before the sweeper spins up (see
    /// [`PmoService::try_new`]).
    ///
    /// # Errors
    ///
    /// [`crate::ServiceError::Persist`] on store open/recovery failure.
    pub fn try_start(config: ServiceConfig) -> Result<Self, crate::ServiceError> {
        let period = config.sweep_period_us;
        let service = Arc::new(PmoService::try_new(config)?);
        let sweeper = if period > 0 {
            Some(Sweeper::spawn(Arc::clone(&service), period))
        } else {
            None
        };
        Ok(PmoServer { service, sweeper })
    }

    /// The shared service handle; clone it into worker threads.
    pub fn service(&self) -> Arc<PmoService> {
        Arc::clone(&self.service)
    }

    /// Promotes a warm standby to leader (terp-repl failover): mutations
    /// are accepted from here on. See [`PmoService::promote`].
    pub fn promote(&self) {
        self.service.promote();
    }

    /// Runs the shutdown protocol and returns the final merged report.
    pub fn shutdown(self) -> ServiceReport {
        self.service.begin_shutdown();
        drop(self.sweeper); // flag, unpark, join
        self.service.drain();
        self.service.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terp_core::config::Scheme;
    use terp_pmo::{OpenMode, Permission};

    #[test]
    fn server_lifecycle_produces_complete_report() {
        let server = PmoServer::start(
            ServiceConfig::for_tests(Scheme::terp_full()).with_sweep_period_us(500),
        );
        let svc = server.service();
        let p = svc.create_pool("a", 1 << 16, OpenMode::ReadWrite).unwrap();
        svc.attach(0, p, Permission::ReadWrite).unwrap();
        let oid = svc.alloc(0, p, 64).unwrap();
        svc.write(0, oid, b"durable").unwrap();
        svc.detach(0, p).unwrap();

        let report = server.shutdown();
        assert_eq!(report.ops.attaches, 1);
        assert_eq!(report.ops.writes, 1);
        assert!(report.ew.count >= 1, "every window closed by shutdown");
        assert_eq!(svc.attached_total(), 0);
        assert!(svc.is_shutting_down());
        // The Arc survives shutdown for post-mortem probes, but new work is
        // refused.
        assert!(svc.attach(1, p, Permission::Read).is_err());
    }

    #[test]
    fn server_without_sweeper_still_shuts_down() {
        let server = PmoServer::start(ServiceConfig::for_tests(Scheme::Merr));
        let svc = server.service();
        let p = svc.create_pool("a", 1 << 12, OpenMode::ReadWrite).unwrap();
        svc.attach(7, p, Permission::ReadWrite).unwrap();
        let report = server.shutdown();
        assert_eq!(report.attach_syscalls, 1);
        assert_eq!(svc.attached_total(), 0, "drain force-detached the owner");
    }
}
