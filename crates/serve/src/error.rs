//! Typed serving errors: every way a request can fail has a distinct
//! variant, because the whole robustness contract is "every admitted
//! request receives a *typed* reply".

use std::fmt;

/// A serving failure, delivered either synchronously from
/// [`crate::Service::submit`] (admission control) or asynchronously
/// through a [`crate::Ticket`] (execution failures).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The shard queue is full: explicit backpressure instead of unbounded
    /// growth. Retry later or slow down.
    Overloaded {
        /// Shard whose queue rejected the request.
        shard: usize,
        /// Queue depth at rejection (== the configured capacity).
        depth: usize,
    },
    /// The tenant's circuit breaker is open: its recent error rate tripped
    /// the threshold and its traffic is being shed while the breaker
    /// cools down.
    CircuitOpen {
        /// The shedding tenant.
        tenant: u32,
    },
    /// The request's deadline expired before a worker could serve it.
    TimedOut {
        /// Time the request spent queued, in microseconds.
        waited_us: u64,
    },
    /// A worker failed the request's batch (injected chaos panic, a
    /// shape the model rejects, int8 requested from a session with no
    /// quantized engine). The session is deterministic, so the batch is
    /// not retried: the same call would fail the same way.
    WorkerFailed {
        /// Human-readable failure cause.
        reason: String,
    },
    /// The payload failed ingress validation (empty / zero-dim /
    /// non-finite input, or a shape the service's tenants do not use).
    InvalidInput {
        /// What was wrong with the payload.
        reason: String,
    },
    /// The service is draining and no longer admits new requests.
    ShuttingDown,
    /// Tenant id outside the configured tenant table.
    UnknownTenant {
        /// The offending id.
        tenant: u32,
        /// Exclusive upper bound on valid tenant ids.
        max: u32,
    },
    /// Invalid [`crate::ServeConfig`].
    BadConfig(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { shard, depth } => {
                write!(f, "shard {shard} overloaded (queue depth {depth})")
            }
            ServeError::CircuitOpen { tenant } => {
                write!(f, "circuit breaker open for tenant {tenant}")
            }
            ServeError::TimedOut { waited_us } => {
                write!(f, "deadline expired after waiting {waited_us} us")
            }
            ServeError::WorkerFailed { reason } => write!(f, "worker failed: {reason}"),
            ServeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::UnknownTenant { tenant, max } => {
                write!(f, "unknown tenant {tenant} (configured for {max} tenants)")
            }
            ServeError::BadConfig(m) => write!(f, "invalid serve config: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful classification reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Predicted class index.
    pub class: usize,
    /// Worker (== shard) that served the request.
    pub worker: usize,
    /// Size of the coalesced batch the request rode in.
    pub batch_size: usize,
}

/// What a [`crate::Ticket`] resolves to.
pub type Reply = Result<Verdict, ServeError>;

/// Result alias for service operations.
pub type ServeResult<T> = Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        for (e, needle) in [
            (
                ServeError::Overloaded {
                    shard: 1,
                    depth: 64,
                },
                "overloaded",
            ),
            (ServeError::CircuitOpen { tenant: 3 }, "breaker"),
            (ServeError::TimedOut { waited_us: 5 }, "deadline"),
            (
                ServeError::WorkerFailed {
                    reason: "boom".into(),
                },
                "boom",
            ),
            (
                ServeError::InvalidInput {
                    reason: "NaN".into(),
                },
                "NaN",
            ),
            (ServeError::ShuttingDown, "shutting down"),
            (ServeError::UnknownTenant { tenant: 9, max: 4 }, "tenant 9"),
            (ServeError::BadConfig("x".into()), "config"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
        assert_send_sync::<Reply>();
    }
}
