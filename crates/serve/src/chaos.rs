//! Seeded, deterministic chaos injection for the serving layer.
//!
//! A [`ChaosPlan`] is to the service what [`leca_circuit::fault::FaultPlan`] is
//! to the sensor: a *replayable* population of failures, parameterized by
//! per-domain rates and a seed. Every decision — "does batch `seq` on
//! worker `w` panic?", "is request `id`'s payload NaN-poisoned?" — is a
//! pure function of `(seed, domain, site)` via the same SplitMix64
//! finalizer, so a chaos run is reproducible bit-for-bit: same seed, same
//! storm. That is what lets the chaos suite assert exact accounting
//! invariants instead of "it probably survived".
//!
//! Three domains:
//!
//! * **worker panics** — the worker panics mid-batch before calling the
//!   model; the supervisor must catch it, answer every batched request
//!   with a typed error, rebuild the session, and keep serving.
//! * **latency spikes** — the worker stalls before serving a batch,
//!   pushing queued requests toward their deadlines.
//! * **NaN poisoning** — a traffic generator consults
//!   [`ChaosPlan::poison_request`] to corrupt payloads, exercising
//!   ingress validation.

const DOMAIN_PANIC: u64 = 0x5041_4e49;
const DOMAIN_LATENCY: u64 = 0x4c41_5445;
const DOMAIN_NAN: u64 = 0x4e41_4e50;

/// SplitMix64 finalizer (same mixer as `leca_circuit::fault`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from the top 53 bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, deterministic population of serving-layer failures.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    seed: u64,
    panic_rate: f64,
    latency_rate: f64,
    latency_spike_us: u64,
    nan_rate: f64,
}

impl ChaosPlan {
    /// A plan with the given seed and every domain disabled; enable
    /// domains with the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency_spike_us: 0,
            nan_rate: 0.0,
        }
    }

    /// The canonical no-chaos plan (what a production service carries).
    pub fn none() -> Self {
        ChaosPlan::new(0)
    }

    /// Sets the per-batch probability that the worker panics mid-batch.
    #[must_use]
    pub fn with_worker_panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-batch probability of a latency spike, and the spike
    /// duration in microseconds.
    #[must_use]
    pub fn with_latency_spikes(mut self, rate: f64, spike_us: u64) -> Self {
        self.latency_rate = rate.clamp(0.0, 1.0);
        self.latency_spike_us = spike_us;
        self
    }

    /// Sets the per-request probability that a traffic generator poisons
    /// the payload with a NaN.
    #[must_use]
    pub fn with_nan_inputs(mut self, rate: f64) -> Self {
        self.nan_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no domain can inject anything.
    pub fn is_none(&self) -> bool {
        self.panic_rate == 0.0 && self.latency_rate == 0.0 && self.nan_rate == 0.0
    }

    /// Per-site hash: deterministic in `(seed, domain, a, b)`.
    fn site(&self, domain: u64, a: u64, b: u64) -> u64 {
        mix(mix(mix(self.seed ^ domain) ^ a) ^ b)
    }

    /// Does batch number `seq` on worker `worker` panic mid-batch?
    pub fn worker_panics(&self, worker: usize, seq: u64) -> bool {
        self.panic_rate > 0.0 && unit(self.site(DOMAIN_PANIC, worker as u64, seq)) < self.panic_rate
    }

    /// Latency spike (microseconds) injected before batch `seq` on
    /// `worker`, if any.
    pub fn latency_spike(&self, worker: usize, seq: u64) -> Option<u64> {
        if self.latency_rate == 0.0 || self.latency_spike_us == 0 {
            return None;
        }
        let h = self.site(DOMAIN_LATENCY, worker as u64, seq);
        if unit(h) < self.latency_rate {
            Some(self.latency_spike_us)
        } else {
            None
        }
    }

    /// Should request `id`'s payload be NaN-poisoned at the generator?
    /// When yes, returns the payload element index to poison (generators
    /// reduce it modulo the payload length).
    pub fn poison_request(&self, id: u64) -> Option<usize> {
        if self.nan_rate == 0.0 {
            return None;
        }
        let h = self.site(DOMAIN_NAN, id, 0);
        if unit(h) < self.nan_rate {
            Some(mix(h) as usize)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_injects_nothing() {
        let plan = ChaosPlan::none();
        assert!(plan.is_none());
        for i in 0..1000u64 {
            assert!(!plan.worker_panics(0, i));
            assert_eq!(plan.latency_spike(0, i), None);
            assert_eq!(plan.poison_request(i), None);
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = ChaosPlan::new(42)
            .with_worker_panics(0.1)
            .with_latency_spikes(0.2, 500)
            .with_nan_inputs(0.05);
        let b = a.clone();
        for w in 0..4 {
            for i in 0..500u64 {
                assert_eq!(a.worker_panics(w, i), b.worker_panics(w, i));
                assert_eq!(a.latency_spike(w, i), b.latency_spike(w, i));
            }
        }
        for i in 0..500u64 {
            assert_eq!(a.poison_request(i), b.poison_request(i));
        }
    }

    #[test]
    fn different_seeds_give_different_storms() {
        let a = ChaosPlan::new(1).with_worker_panics(0.3);
        let b = ChaosPlan::new(2).with_worker_panics(0.3);
        let diff = (0..2000u64)
            .filter(|&i| a.worker_panics(0, i) != b.worker_panics(0, i))
            .count();
        assert!(diff > 200, "only {diff} sites differ between seeds");
    }

    #[test]
    fn domains_are_independent() {
        // A panic decision at a site says nothing about the latency
        // decision at the same site.
        let plan = ChaosPlan::new(7)
            .with_worker_panics(0.5)
            .with_latency_spikes(0.5, 100);
        let both = (0..4000u64)
            .filter(|&i| plan.worker_panics(0, i) && plan.latency_spike(0, i).is_some())
            .count();
        // Independent 0.5/0.5 → ~25%; wildly off means correlated hashes.
        assert!((800..1200).contains(&both), "joint count {both}");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let plan = ChaosPlan::new(9).with_worker_panics(0.05);
        let n = 20_000u64;
        let hits = (0..n).filter(|&i| plan.worker_panics(3, i)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "measured rate {rate}");
    }

    #[test]
    fn poison_returns_usable_indices() {
        let plan = ChaosPlan::new(11).with_nan_inputs(1.0);
        for id in 0..100u64 {
            let idx = plan.poison_request(id).expect("rate 1.0 always poisons");
            // Any usize is usable modulo a payload length.
            let _ = idx % 64;
        }
    }
}
