//! Service-boundary errors.

use terp_pmo::{AccessKind, PmoError, PmoId};

use crate::ClientId;

/// Errors returned by [`crate::PmoService`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The pool id is not served by this service instance.
    UnknownPmo(PmoId),
    /// The client already holds a session on the pool.
    AlreadyAttached {
        /// The requesting client.
        client: ClientId,
        /// The pool.
        pmo: PmoId,
    },
    /// The client holds no session on the pool.
    NotAttached {
        /// The requesting client.
        client: ClientId,
        /// The pool.
        pmo: PmoId,
    },
    /// The access was denied by the mapping's process permission or by the
    /// permission the client holds the pool with (none, for a client that
    /// holds no session on it).
    PermissionDenied {
        /// The requesting client.
        client: ClientId,
        /// The pool.
        pmo: PmoId,
        /// The denied access kind.
        kind: AccessKind,
    },
    /// The service is shutting down; no new sessions are admitted and
    /// blocked waiters are released with this error.
    ShuttingDown,
    /// An error surfaced by the PMO substrate (registry, pool, or address
    /// space).
    Substrate(PmoError),
    /// A durable-store failure (WAL append, checkpoint, or recovery). The
    /// underlying [`terp_persist::PersistError`] is rendered to a string so
    /// this enum stays `Clone + PartialEq`.
    Persist(String),
    /// A substrate error relayed over the network boundary (terp-net): the
    /// structured [`PmoError`] was rendered to a string at the protocol
    /// layer, so only its message survives the wire.
    RemoteSubstrate(String),
    /// A wire-protocol violation on a network connection (terp-net): bad
    /// framing, CRC mismatch, unknown opcode, or a version/handshake
    /// failure. Always connection-fatal.
    Protocol(String),
    /// The network transport failed (terp-net): the peer closed the
    /// connection or a socket I/O error interrupted a request in flight.
    Disconnected(String),
    /// The service is a warm standby (terp-repl): it applies replicated
    /// state but refuses every client mutation until promoted to leader.
    ReadOnly,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownPmo(p) => write!(f, "service: unknown pool {p}"),
            ServiceError::AlreadyAttached { client, pmo } => {
                write!(f, "service: client {client} already attached to {pmo}")
            }
            ServiceError::NotAttached { client, pmo } => {
                write!(f, "service: client {client} not attached to {pmo}")
            }
            ServiceError::PermissionDenied { client, pmo, kind } => {
                write!(f, "service: {kind:?} on {pmo} denied for client {client}")
            }
            ServiceError::ShuttingDown => write!(f, "service: shutting down"),
            ServiceError::Substrate(e) => write!(f, "service: {e}"),
            ServiceError::Persist(msg) => write!(f, "service: durable store: {msg}"),
            ServiceError::RemoteSubstrate(msg) => write!(f, "service (remote): {msg}"),
            ServiceError::Protocol(msg) => write!(f, "net: protocol violation: {msg}"),
            ServiceError::Disconnected(msg) => write!(f, "net: disconnected: {msg}"),
            ServiceError::ReadOnly => {
                write!(f, "service: standby is read-only until promoted")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Substrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmoError> for ServiceError {
    fn from(e: PmoError) -> Self {
        ServiceError::Substrate(e)
    }
}

impl From<terp_persist::PersistError> for ServiceError {
    fn from(e: terp_persist::PersistError) -> Self {
        ServiceError::Persist(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parties() {
        let pmo = PmoId::new(3).unwrap();
        let e = ServiceError::PermissionDenied {
            client: 7,
            pmo,
            kind: AccessKind::Write,
        };
        let s = e.to_string();
        assert!(s.contains("client 7") && s.contains("denied"));
        assert_eq!(
            ServiceError::from(PmoError::NotAttached(pmo)),
            ServiceError::Substrate(PmoError::NotAttached(pmo))
        );
    }
}
