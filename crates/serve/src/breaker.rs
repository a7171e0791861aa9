//! Per-tenant circuit breakers.
//!
//! One misbehaving tenant (malformed payloads, a fault pattern that
//! panics workers, pathological shapes) must not eat the worker time of
//! everyone else. Each tenant gets a classic three-state breaker over a
//! fixed sliding window of outcomes; tripped tenants are shed at
//! admission with [`crate::ServeError::CircuitOpen`] until a cooldown
//! passes and probe traffic proves the tenant healthy again.
//!
//! Storage is preallocated at service start (`max_tenants` entries, each
//! with a fixed-size outcome ring), so recording outcomes on the warm
//! path never allocates.

// The request path answers with errors, never panics (DESIGN.md "Lints").
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::unimplemented)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::config::BreakerConfig;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen { probes_left: u32 },
}

#[derive(Debug)]
struct TenantState {
    state: State,
    /// Outcome ring: `true` = failure. Fixed capacity `window`.
    ring: Vec<bool>,
    next: usize,
    filled: usize,
    failures: usize,
}

impl TenantState {
    fn new(window: usize) -> Self {
        TenantState {
            state: State::Closed,
            ring: vec![false; window],
            next: 0,
            filled: 0,
            failures: 0,
        }
    }

    fn clear(&mut self) {
        self.ring.fill(false);
        self.next = 0;
        self.filled = 0;
        self.failures = 0;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`next` is only ever assigned `% ring.len()`, and the ring is non-empty (config validates `window >= 1`), so `next < ring.len()`"
    )]
    fn push(&mut self, failure: bool) {
        if self.filled == self.ring.len() {
            if self.ring[self.next] {
                self.failures -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.ring[self.next] = failure;
        if failure {
            self.failures += 1;
        }
        self.next = (self.next + 1) % self.ring.len();
    }
}

/// The breaker bank: one breaker per tenant id in `0..max_tenants`.
#[derive(Debug)]
pub struct Breakers {
    cfg: BreakerConfig,
    tenants: Vec<Mutex<TenantState>>,
}

/// Admission decision from the breaker bank's `admit` check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Traffic flows normally.
    Allowed,
    /// Half-open probe: allowed through, but the tenant is on notice.
    Probe,
    /// Shed: the breaker is open.
    Shed,
}

impl Breakers {
    /// A bank of closed breakers for `max_tenants` tenants.
    pub fn new(max_tenants: u32, cfg: BreakerConfig) -> Self {
        Breakers {
            tenants: (0..max_tenants)
                .map(|_| Mutex::new(TenantState::new(cfg.window)))
                .collect(),
            cfg,
        }
    }

    /// Admission check at `now` for `tenant` (caller bounds the id).
    pub fn admit(&self, tenant: u32, now: Instant) -> Admission {
        #[expect(
            clippy::indexing_slicing,
            reason = "admission rejects `tenant >= max_tenants` before this call, and the bank holds exactly `max_tenants` entries"
        )]
        let mut t = self.tenants[tenant as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match t.state {
            State::Closed => Admission::Allowed,
            State::Open { until } => {
                if now < until {
                    Admission::Shed
                } else {
                    t.state = State::HalfOpen {
                        probes_left: self.cfg.half_open_probes,
                    };
                    t.clear();
                    self.take_probe(&mut t)
                }
            }
            State::HalfOpen { .. } => self.take_probe(&mut t),
        }
    }

    fn take_probe(&self, t: &mut TenantState) -> Admission {
        if let State::HalfOpen { probes_left } = &mut t.state {
            if *probes_left > 0 {
                *probes_left -= 1;
                return Admission::Probe;
            }
        }
        Admission::Shed
    }

    /// Records a request outcome for `tenant` at `now` and runs the state
    /// machine. Only worker-level failures (`WorkerFailed`) count toward
    /// tripping — timeouts and sheds are load symptoms the backpressure
    /// path already handles, so the caller must not report them here.
    pub fn record(&self, tenant: u32, failure: bool, now: Instant) {
        #[expect(
            clippy::indexing_slicing,
            reason = "outcomes are only recorded for requests that passed admission, which bounds `tenant` below `max_tenants`"
        )]
        let mut t = self.tenants[tenant as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match t.state {
            State::HalfOpen { .. } => {
                if failure {
                    // A failed probe re-opens immediately.
                    t.state = State::Open {
                        until: now + Duration::from_micros(self.cfg.cooldown_us),
                    };
                    t.clear();
                } else {
                    t.state = State::Closed;
                    t.clear();
                }
            }
            State::Closed => {
                t.push(failure);
                // Strictly greater: a window at *exactly* the trip ratio
                // stays closed, so a small min_volume cannot trip on the
                // first borderline burst.
                let tripped = t.filled >= self.cfg.min_volume
                    && t.failures as f64 > self.cfg.trip_ratio * t.filled as f64;
                if tripped {
                    t.state = State::Open {
                        until: now + Duration::from_micros(self.cfg.cooldown_us),
                    };
                    t.clear();
                }
            }
            // Late outcomes from requests admitted before the trip: the
            // breaker is already open, nothing to learn.
            State::Open { .. } => {}
        }
    }

    /// True when `tenant`'s breaker is currently open (test hook).
    #[cfg(test)]
    pub fn is_open(&self, tenant: u32, now: Instant) -> bool {
        let t = self.tenants[tenant as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        matches!(t.state, State::Open { until } if now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_volume: 4,
            trip_ratio: 0.5,
            cooldown_us: 2_000,
            half_open_probes: 2,
        }
    }

    #[test]
    fn trips_after_error_spike_and_sheds() {
        let b = Breakers::new(2, cfg());
        let t0 = Instant::now();
        for _ in 0..4 {
            assert_eq!(b.admit(0, t0), Admission::Allowed);
            b.record(0, true, t0);
        }
        assert!(b.is_open(0, t0));
        assert_eq!(b.admit(0, t0), Admission::Shed);
        // Tenant 1 is unaffected.
        assert_eq!(b.admit(1, t0), Admission::Allowed);
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = Breakers::new(1, cfg());
        let t0 = Instant::now();
        for _ in 0..4 {
            b.record(0, true, t0);
        }
        let later = t0 + Duration::from_micros(3_000);
        assert_eq!(b.admit(0, later), Admission::Probe);
        b.record(0, false, later);
        assert_eq!(b.admit(0, later), Admission::Allowed);
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let b = Breakers::new(1, cfg());
        let t0 = Instant::now();
        for _ in 0..4 {
            b.record(0, true, t0);
        }
        let later = t0 + Duration::from_micros(3_000);
        assert_eq!(b.admit(0, later), Admission::Probe);
        b.record(0, true, later);
        assert!(b.is_open(0, later));
        assert_eq!(b.admit(0, later), Admission::Shed);
    }

    #[test]
    fn probe_budget_is_bounded() {
        let b = Breakers::new(1, cfg());
        let t0 = Instant::now();
        for _ in 0..4 {
            b.record(0, true, t0);
        }
        let later = t0 + Duration::from_micros(3_000);
        assert_eq!(b.admit(0, later), Admission::Probe);
        assert_eq!(b.admit(0, later), Admission::Probe);
        assert_eq!(b.admit(0, later), Admission::Shed);
    }

    #[test]
    fn mixed_traffic_below_ratio_stays_closed() {
        let b = Breakers::new(1, cfg());
        let t0 = Instant::now();
        for i in 0..32 {
            b.record(0, i % 3 == 0, t0); // ~33% failures < 50% trip ratio
        }
        assert!(!b.is_open(0, t0));
        assert_eq!(b.admit(0, t0), Admission::Allowed);
    }

    #[test]
    fn window_slides_old_failures_out() {
        let b = Breakers::new(1, cfg());
        let t0 = Instant::now();
        // 2 failures, then 8 successes: the window (length 8) forgets
        // them entirely.
        for _ in 0..2 {
            b.record(0, true, t0);
        }
        for _ in 0..8 {
            b.record(0, false, t0);
        }
        // 3 fresh failures → window holds 3/8 failures; had the early
        // two not slid out, a cumulative 5/8 would trip here.
        for _ in 0..3 {
            b.record(0, true, t0);
            assert!(!b.is_open(0, t0));
        }
        // Two more push the window to 5/8 > 50%: now it trips.
        b.record(0, true, t0);
        b.record(0, true, t0);
        assert!(b.is_open(0, t0));
    }
}
