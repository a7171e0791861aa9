//! The benchmark's own statistics: exact quantiles over raw samples, the
//! failure tally behind `fail_ratio`, and the stage-sum tolerance check.

/// The tail percentile the benchmark aims for.
pub const TAIL_TARGET: f64 = 0.99;
/// A reported tail quantile must have at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// One quantile read from sorted samples: its value, the quantile it
/// really is, and how many samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub q: f64,
    pub n: usize,
}

/// Nearest-rank quantile `q` of ascending `sorted` samples.
///
/// Returns `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

/// The highest nearest-rank quantile, at most [`TAIL_TARGET`], that still
/// has [`TAIL_MIN_BEYOND`] samples above it. With 1000 samples this is
/// p99; with fewer it is a lower percentile, reported as such.
///
/// Returns `None` when there are not more than `TAIL_MIN_BEYOND` samples.
pub fn tail(sorted: &[f64]) -> Option<Quantile> {
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let target = (TAIL_TARGET * n as f64).ceil() as usize;
    let rank = target.min(n - TAIL_MIN_BEYOND).max(1);
    Some(Quantile {
        value: sorted[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

/// Sorts raw samples in place (NaN-free by construction: every sample is
/// a measured duration).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The mean of the values left after dropping a quarter (rounded down)
/// from each end; `None` for no values.
///
/// On a host whose speed switches between levels, this follows the share
/// of time spent at each level smoothly, where a median jumps between
/// them.
pub fn interquartile_mean(mut v: Vec<f64>) -> Option<f64> {
    sort(&mut v);
    let cut = v.len() / 4;
    let mid = v.get(cut..v.len() - cut).filter(|m| !m.is_empty())?;
    Some(mid.iter().sum::<f64>() / mid.len() as f64)
}

/// One answered call or request of a measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    pub lat_us: f64,
    /// Images answered with their reference class.
    pub correct: u32,
    /// Of those, images answered within the workload's latency limit.
    pub good: u32,
}

/// End-to-end figures of a whole measured window: rates are images over
/// the window's length, latencies are quantiles of every sample in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub throughput: f64,
    pub goodput: f64,
    pub p50: Quantile,
    pub tail: Quantile,
}

/// Summarizes a window of `window_s` seconds; `None` when it is empty or
/// too sparse to give a tail.
pub fn summarize(samples: &[Sample], window_s: f64) -> Option<Summary> {
    if window_s <= 0.0 {
        return None;
    }
    let mut lat: Vec<f64> = samples.iter().map(|s| s.lat_us).collect();
    sort(&mut lat);
    let images = |f: fn(&Sample) -> u32| samples.iter().map(|s| f64::from(f(s))).sum::<f64>();
    Some(Summary {
        throughput: images(|s| s.correct) / window_s,
        goodput: images(|s| s.good) / window_s,
        p50: nearest_rank(&lat, 0.5)?,
        tail: tail(&lat)?,
    })
}

/// Outcome counts of one measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Images the workload tried to get classified.
    pub attempted: u64,
    /// Answered with the reference class.
    pub correct: u64,
    /// Answered with another class than the reference.
    pub wrong_class: u64,
    /// Refused at admission (queue full, breaker open, draining).
    pub shed: u64,
    /// Answered `TimedOut`.
    pub timed_out: u64,
    /// Answered `WorkerFailed`, or any other error reply.
    pub worker_failed: u64,
}

impl Tally {
    /// Everything that did not end in a correct answer.
    pub fn failures(&self) -> u64 {
        self.shed + self.timed_out + self.worker_failed + self.wrong_class
    }

    /// `(shed + timed out + worker failed + wrong class) / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failures() as f64 / self.attempted as f64
    }

    /// True when every attempt ended in exactly one recorded outcome.
    pub fn balanced(&self) -> bool {
        self.attempted == self.correct + self.failures()
    }
}

/// The stage-sum rule of the traced run: the staged self times must add
/// up to the untraced per-batch latency within this share of it.
pub const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// `stage_sum / untraced`, and whether it lies within
/// [`STAGE_SUM_TOLERANCE`] of 1.
pub fn stage_sum_check(stage_sum: f64, untraced: f64) -> (f64, bool) {
    if untraced <= 0.0 {
        return (f64::NAN, false);
    }
    let ratio = stage_sum / untraced;
    (ratio, (ratio - 1.0).abs() <= STAGE_SUM_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let s = ramp(1000);
        let t = tail(&s).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.q, 0.99);
        assert_eq!(t.n, 1000);
        // Exactly ten samples lie beyond it.
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_keeps_ten_beyond_on_small_samples() {
        for n in [11usize, 50, 330, 999] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
            assert!(t.q <= TAIL_TARGET + 1e-12, "n={n}: q={}", t.q);
            assert_eq!(beyond, TAIL_MIN_BEYOND, "n={n}: highest such rank");
        }
        assert!(tail(&ramp(10)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_is_capped_at_p99_on_large_samples() {
        let s = ramp(5000);
        let t = tail(&s).unwrap();
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.q, 0.99);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(nearest_rank(&ramp(4), 0.5).unwrap().value, 2.0);
        assert_eq!(nearest_rank(&ramp(5), 0.5).unwrap().value, 3.0);
        assert_eq!(nearest_rank(&[7.0], 0.5).unwrap().value, 7.0);
        assert!(nearest_rank(&[], 0.5).is_none());
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(vec![1.0]), Some(1.0));
        assert_eq!(interquartile_mean(vec![1.0, 3.0]), Some(2.0));
        assert_eq!(interquartile_mean(vec![100.0, 2.0, 4.0, -50.0]), Some(3.0));
        assert_eq!(interquartile_mean(Vec::new()), None);
        // Two speed levels: the figure moves with their shares.
        let mix = |slow: usize| {
            let v = (0..16).map(|i| if i < slow { 1.7 } else { 1.0 }).collect();
            interquartile_mean(v).unwrap()
        };
        assert!(mix(6) < mix(8) && mix(8) < mix(10));
    }

    fn sample(lat_us: f64, correct: u32, good: u32) -> Sample {
        Sample {
            lat_us,
            correct,
            good,
        }
    }

    #[test]
    fn summary_covers_the_whole_window() {
        // 1000 calls of 8 images in 10 s; every tenth call is slow, answers
        // one image wrong and misses the latency limit.
        let v: Vec<Sample> = (0..1000)
            .map(|i| {
                if i % 10 == 9 {
                    sample(5_000.0 + i as f64, 7, 0)
                } else {
                    sample(1_000.0 + i as f64, 8, 8)
                }
            })
            .collect();
        let s = summarize(&v, 10.0).unwrap();
        assert_eq!(s.throughput, (900.0 * 8.0 + 100.0 * 7.0) / 10.0);
        assert_eq!(s.goodput, 900.0 * 8.0 / 10.0);
        assert_eq!((s.p50.value, s.p50.n), (1_000.0 + 554.0, 1000));
        // The slow tenth is the tail: p99 reads it.
        assert_eq!(s.tail.q, 0.99);
        assert_eq!(s.tail.value, 5_000.0 + 899.0);
    }

    #[test]
    fn a_stalled_second_moves_the_figures() {
        // Ten seconds of 100 calls each; in one of them the program stalls
        // and answers only 20, slowly. The rate and the tail see it.
        let steady: Vec<Sample> = (0..1000)
            .map(|i| sample(1_000.0 + (i % 100) as f64, 1, 1))
            .collect();
        let mut stalled = steady[..900].to_vec();
        stalled.extend((0..20).map(|i| sample(90_000.0 + i as f64, 1, 1)));
        let a = summarize(&steady, 10.0).unwrap();
        let b = summarize(&stalled, 10.0).unwrap();
        assert_eq!((a.throughput, b.throughput), (100.0, 92.0));
        assert_eq!((a.tail.value, b.tail.value), (1_098.0, 90_009.0));
        assert!(
            summarize(&steady[..5], 10.0).is_none(),
            "too few for a tail"
        );
        assert!(summarize(&[], 10.0).is_none());
        assert!(summarize(&steady, 0.0).is_none());
    }

    #[test]
    fn sort_orders_samples() {
        let mut s = vec![3.0, 1.0, 2.0];
        sort(&mut s);
        assert_eq!(s, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn fail_ratio_counts_every_failure_kind() {
        let t = Tally {
            attempted: 20,
            correct: 10,
            wrong_class: 1,
            shed: 4,
            timed_out: 3,
            worker_failed: 2,
        };
        assert_eq!(t.failures(), 10);
        assert_eq!(t.fail_ratio(), 0.5);
        assert!(t.balanced());
        let lost = Tally { attempted: 21, ..t };
        assert!(!lost.balanced(), "an unanswered attempt breaks the books");
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn stage_sum_tolerance_is_two_sided() {
        assert!(stage_sum_check(100.0, 100.0).1);
        assert!(stage_sum_check(109.0, 100.0).1);
        assert!(stage_sum_check(91.0, 100.0).1);
        assert!(!stage_sum_check(111.0, 100.0).1);
        assert!(!stage_sum_check(89.0, 100.0).1);
        assert!(!stage_sum_check(1.0, 0.0).1);
    }
}
