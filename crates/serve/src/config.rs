//! Service configuration, set in code.
//!
//! Every setting is a [`ServeConfig`] field; the defaults are tuned for
//! the repo's tiny-CNN scale.

use crate::error::{ServeError, ServeResult};
use leca_core::Precision;

/// Per-tenant circuit-breaker policy.
///
/// Outcomes are recorded in a sliding window of the last
/// [`BreakerConfig::window`] requests; once at least
/// [`BreakerConfig::min_volume`] outcomes are present and the failure
/// fraction exceeds [`BreakerConfig::trip_ratio`], the breaker opens for
/// [`BreakerConfig::cooldown_us`] and sheds the tenant's traffic at
/// admission. After the cooldown it half-opens, letting
/// [`BreakerConfig::half_open_probes`] probe requests through: one
/// success closes it, one failure re-opens it.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Sliding-window length (outcomes per tenant).
    pub window: usize,
    /// Minimum outcomes before the breaker may trip.
    pub min_volume: usize,
    /// Failure fraction (0..=1]; the breaker trips when the windowed failure fraction exceeds it.
    pub trip_ratio: f64,
    /// How long an open breaker sheds load, in microseconds.
    pub cooldown_us: u64,
    /// Probe requests admitted in the half-open state.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            min_volume: 16,
            trip_ratio: 0.5,
            cooldown_us: 20_000,
            half_open_probes: 2,
        }
    }
}

/// Full service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker shards; each owns a bounded queue and one pinned session.
    pub shards: usize,
    /// Dynamic-batcher flush size (requests per `classify_batch`).
    pub max_batch: usize,
    /// Bounded queue capacity per shard; a full queue rejects with
    /// [`ServeError::Overloaded`] instead of growing.
    pub queue_cap: usize,
    /// Default per-request deadline, microseconds (overridable per
    /// submit).
    pub deadline_us: u64,
    /// How long a partially filled batch lingers for co-tenant requests
    /// before flushing, microseconds.
    pub linger_us: u64,
    /// Tenant-table size; tenant ids are `0..max_tenants`.
    pub max_tenants: u32,
    /// Per-tenant circuit-breaker policy.
    pub breaker: BreakerConfig,
    /// When set, each worker warms its session (and re-warms after a
    /// rebuild) with two throwaway batches of this shape.
    pub warm_shape: Option<Vec<usize>>,
    /// Numeric precision for tenants without an entry in
    /// [`ServeConfig::tenant_precision`]. Serving at
    /// [`Precision::Int8`] requires the session factory to return
    /// sessions with a compiled quantized engine
    /// ([`leca_core::InferenceSession::enable_int8`]); a shard whose
    /// session cannot serve int8 fails such batches with a typed
    /// [`ServeError::WorkerFailed`](crate::ServeError::WorkerFailed)
    /// instead of silently falling back to f32.
    pub default_precision: Precision,
    /// Per-tenant precision overrides, `(tenant, precision)`. The last
    /// matching entry wins; tenants absent here use
    /// [`ServeConfig::default_precision`]. Batches never mix tenants, so
    /// each coalesced batch runs at exactly one precision.
    pub tenant_precision: Vec<(u32, Precision)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            max_batch: 8,
            queue_cap: 64,
            deadline_us: 50_000,
            linger_us: 200,
            max_tenants: 16,
            breaker: BreakerConfig::default(),
            warm_shape: None,
            default_precision: Precision::F32,
            tenant_precision: Vec::new(),
        }
    }
}

impl ServeConfig {
    /// The precision `tenant`'s batches run at: the last matching entry
    /// in [`ServeConfig::tenant_precision`], else
    /// [`ServeConfig::default_precision`].
    pub fn precision_for(&self, tenant: u32) -> Precision {
        self.tenant_precision
            .iter()
            .rev()
            .find(|(t, _)| *t == tenant)
            .map_or(self.default_precision, |(_, p)| *p)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for unusable values.
    pub fn validate(&self) -> ServeResult<()> {
        if self.shards == 0 {
            return Err(ServeError::BadConfig("shards must be >= 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::BadConfig("max_batch must be >= 1".into()));
        }
        if self.queue_cap < self.max_batch {
            return Err(ServeError::BadConfig(format!(
                "queue_cap ({}) must be >= max_batch ({})",
                self.queue_cap, self.max_batch
            )));
        }
        if self.max_tenants == 0 {
            return Err(ServeError::BadConfig("max_tenants must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.breaker.trip_ratio) || self.breaker.trip_ratio == 0.0 {
            return Err(ServeError::BadConfig(
                "breaker.trip_ratio must be in (0, 1]".into(),
            ));
        }
        if self.breaker.window == 0 || self.breaker.min_volume == 0 {
            return Err(ServeError::BadConfig(
                "breaker window/min_volume must be >= 1".into(),
            ));
        }
        if self.breaker.min_volume > self.breaker.window {
            return Err(ServeError::BadConfig(format!(
                "breaker.min_volume ({}) must be <= window ({})",
                self.breaker.min_volume, self.breaker.window
            )));
        }
        if let Some((t, _)) = self
            .tenant_precision
            .iter()
            .find(|(t, _)| *t >= self.max_tenants)
        {
            return Err(ServeError::BadConfig(format!(
                "tenant_precision names tenant {t} outside the tenant table (max_tenants {})",
                self.max_tenants
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_values_rejected() {
        for f in [
            |c: &mut ServeConfig| c.shards = 0,
            |c: &mut ServeConfig| c.max_batch = 0,
            |c: &mut ServeConfig| c.queue_cap = 0,
            |c: &mut ServeConfig| c.max_tenants = 0,
            |c: &mut ServeConfig| c.breaker.trip_ratio = 0.0,
            |c: &mut ServeConfig| c.breaker.trip_ratio = 1.5,
            |c: &mut ServeConfig| c.breaker.window = 0,
            |c: &mut ServeConfig| c.breaker.min_volume = c.breaker.window + 1,
            |c: &mut ServeConfig| {
                c.tenant_precision = vec![(c.max_tenants, Precision::Int8)];
            },
        ] {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            assert!(matches!(
                cfg.validate().unwrap_err(),
                ServeError::BadConfig(_)
            ));
        }
    }

    #[test]
    fn precision_for_prefers_the_last_matching_override() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.precision_for(3), Precision::F32);
        cfg.default_precision = Precision::Int8;
        assert_eq!(cfg.precision_for(3), Precision::Int8);
        cfg.tenant_precision = vec![
            (3, Precision::F32),
            (5, Precision::Int8),
            (3, Precision::Int8),
        ];
        assert_eq!(cfg.precision_for(3), Precision::Int8, "last entry wins");
        assert_eq!(cfg.precision_for(5), Precision::Int8);
        assert_eq!(cfg.precision_for(0), Precision::Int8, "default applies");
        cfg.default_precision = Precision::F32;
        assert_eq!(cfg.precision_for(0), Precision::F32);
        cfg.validate().unwrap();
    }
}
