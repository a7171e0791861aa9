//! A clock that runs at the host's speed.
//!
//! On a shared host the same single-threaded code runs up to about twice
//! as slow while other tenants load the core, in episodes that last
//! seconds, so a window's wall-clock figures follow how much of it was
//! slow. The benchmark therefore times on a second clock as well: it runs
//! a fixed reference kernel, the benchmark's own code and never the
//! library's, before each closed-loop call and every few milliseconds of
//! an open loop, on the core the program runs on. The kernel's time over
//! its time on an idle core ([`REF_KERNEL_NS`]) is the host's slowness at
//! that moment, and an interval's reference length is its wall length
//! divided by the slowness in force during it. Every call and request of
//! the window still counts; only the unit of time changes. A program that
//! stalls or slows on its own is not excused, because the kernel does not
//! slow with it.

use std::time::Instant;

/// The reference kernel's time on an idle core of the 2-vCPU x86-64 host
/// the benchmark was tuned on. Figures in reference time equal wall-clock
/// figures on a core that runs the kernel this fast.
pub const REF_KERNEL_NS: f64 = 77_000.0;

/// The kernel streams over a buffer of this many `f32`s (256 KiB, about a
/// core's L2), like the pipelines' activations: a kernel confined to L1
/// slowed less than the workloads under the same load.
const KERNEL_LEN: usize = 1 << 16;
const KERNEL_PASSES: usize = 8;

/// One probe: when it ran (ns after the clock's origin) and the host's
/// slowness then.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Mark {
    at_ns: u64,
    slowness: f64,
}

#[derive(Debug)]
pub struct HostClock {
    origin: Instant,
    marks: Vec<Mark>,
    /// Reference ns from the origin to each mark.
    tau_at_mark: Vec<f64>,
    buf: Vec<f32>,
}

impl HostClock {
    /// A clock whose time starts at `origin`, with room for `capacity`
    /// probes reserved up front.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        HostClock {
            origin,
            marks: Vec::with_capacity(capacity),
            tau_at_mark: Vec::with_capacity(capacity),
            buf: vec![0.5; KERNEL_LEN],
        }
    }

    /// Runs the reference kernel and records the host's slowness from now
    /// until the next probe. Returns that slowness.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..KERNEL_PASSES {
            // Converges to 0.5 and stays a normal number.
            for v in self.buf.iter_mut() {
                *v = *v * 0.5 + 0.25;
            }
            std::hint::black_box(&mut self.buf);
        }
        let end = Instant::now();
        let slowness = (end - t).as_nanos() as f64 / REF_KERNEL_NS;
        let at_ns = self.ns(end);
        let tau = self.tau_ns(at_ns);
        self.marks.push(Mark { at_ns, slowness });
        self.tau_at_mark.push(tau);
        slowness
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reference nanoseconds from the origin to `at_ns` wall nanoseconds
    /// after it. The slowness of a probe holds until the next one; before
    /// the first probe the first one's holds, and with no probe at all
    /// reference time is wall time.
    pub fn tau_ns(&self, at_ns: u64) -> f64 {
        let Some(first) = self.marks.first() else {
            return at_ns as f64;
        };
        let k = self.marks.partition_point(|m| m.at_ns <= at_ns);
        if k == 0 {
            return self.tau_at_mark[0] - (first.at_ns - at_ns) as f64 / first.slowness;
        }
        let m = self.marks[k - 1];
        self.tau_at_mark[k - 1] + (at_ns - m.at_ns) as f64 / m.slowness
    }

    /// Reference microseconds between two instants.
    pub fn ref_us(&self, from: Instant, to: Instant) -> f64 {
        self.ref_us_ns(self.ns(from), self.ns(to))
    }

    /// Reference microseconds between two times given in wall nanoseconds
    /// after the origin.
    pub fn ref_us_ns(&self, from_ns: u64, to_ns: u64) -> f64 {
        (self.tau_ns(to_ns) - self.tau_ns(from_ns)) / 1e3
    }

    /// The recorded slowness values, in probe order.
    pub fn slowness(&self) -> impl Iterator<Item = f64> + '_ {
        self.marks.iter().map(|m| m.slowness)
    }

    /// Median recorded slowness, 1 with no probe.
    pub fn median_slowness(&self) -> f64 {
        let mut v: Vec<f64> = self.slowness().collect();
        crate::stats::sort(&mut v);
        crate::stats::nearest_rank(&v, 0.5).map_or(1.0, |q| q.value)
    }

    pub fn probes(&self) -> usize {
        self.marks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(marks: &[(u64, f64)]) -> HostClock {
        let mut c = HostClock::new(Instant::now(), marks.len());
        for &(at_ns, slowness) in marks {
            let tau = c.tau_ns(at_ns);
            c.marks.push(Mark { at_ns, slowness });
            c.tau_at_mark.push(tau);
        }
        c
    }

    #[test]
    fn reference_time_divides_wall_time_by_the_slowness_in_force() {
        // Idle until 1000 ns, twice as slow until 3000 ns, then idle.
        let c = clock(&[(0, 1.0), (1_000, 2.0), (3_000, 1.0)]);
        assert_eq!(c.tau_ns(500), 500.0);
        assert_eq!(c.tau_ns(1_000), 1_000.0);
        assert_eq!(c.tau_ns(2_000), 1_500.0);
        assert_eq!(c.tau_ns(3_000), 2_000.0);
        assert_eq!(c.tau_ns(4_000), 3_000.0);
        assert_eq!(c.ref_us_ns(1_000, 4_000), 2.0);
    }

    #[test]
    fn the_first_probe_covers_the_time_before_it() {
        let c = clock(&[(1_000, 2.0)]);
        assert_eq!(c.tau_ns(0), 500.0);
        assert_eq!(c.ref_us_ns(0, 3_000), 1.5);
        assert_eq!(clock(&[]).tau_ns(700), 700.0);
    }

    #[test]
    fn the_same_work_reads_the_same_on_a_slow_stretch() {
        // A call that takes 1000 ns on an idle core takes 1700 ns while
        // the host is 1.7x slow; both read 1000 reference ns.
        let c = clock(&[(0, 1.0), (10_000, 1.7)]);
        assert_eq!(c.ref_us_ns(2_000, 3_000), 1.0);
        assert!((c.ref_us_ns(12_000, 13_700) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_stall_of_the_program_still_counts() {
        // The host stays idle while the program stalls for 5000 ns: the
        // stall is reference time like any other.
        let c = clock(&[(0, 1.0), (1_000, 1.0)]);
        assert_eq!(c.ref_us_ns(1_000, 6_000), 5.0);
    }

    #[test]
    fn a_probe_measures_a_positive_slowness() {
        let mut c = HostClock::new(Instant::now(), 4);
        for _ in 0..3 {
            let s = c.probe();
            assert!(s.is_finite() && s > 0.0);
        }
        assert_eq!(c.probes(), 3);
        assert!(c.median_slowness() > 0.0);
    }
}
