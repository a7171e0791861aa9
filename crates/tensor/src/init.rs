//! Random draws: standard normals, one at a time or in batches, and
//! weight initializers.
//!
//! Everything takes the RNG by `&mut` so callers control determinism:
//! every experiment in the reproduction runs from fixed seeds.

use crate::backend::{self, transcendental};
use crate::Tensor;
use rand::Rng;

/// Draws one standard-normal sample using the Box–Muller transform.
///
/// Exposed for reuse by noise models elsewhere in the workspace. Draws
/// `u1 = 1 − u` (in `(0, 1]`, so `ln` never sees zero), then `u2 = u`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    transcendental::box_muller(u1, u2)
}

/// Normals a [`NormalStream`] draws per refill. Its two uniform buffers
/// and its normal buffer take 12 KiB, well inside a 32 KiB L1.
const CHUNK: usize = 1024;

/// A cursor over a fixed number of standard normals, drawn in batches.
///
/// It yields the values `count` calls to [`standard_normal`] would return,
/// in the same order, and advances the generator exactly as they would:
/// each refill draws the uniforms of the next (at most 1024) normals
/// serially, `1 − u` then `u` pair by pair, and then transforms the whole
/// chunk with the [`backend::box_muller`] kernel, which runs 8 wide on the
/// AVX2 backend. It never draws past `count`, so after the last normal is
/// taken the generator stands where the serial draws would have left it.
///
/// Normals come one at a time ([`NormalStream::draw`]) or a run at a time
/// as a slice ([`NormalStream::take_lanes`]); either way they are the
/// stream's next normals in order.
///
/// # Panics
///
/// [`NormalStream::draw`] and [`NormalStream::take_lanes`] panic when more
/// than `count` normals are taken, and `take_lanes` while normals `draw`
/// has already transformed are still untaken.
pub struct NormalStream<'a, R: Rng + ?Sized> {
    rng: &'a mut R,
    /// Normals whose uniforms are still in the generator.
    undrawn: usize,
    buf: [f32; CHUNK],
    pos: usize,
    len: usize,
    /// [`NormalStream::take_lanes`]'s uniforms and normals, grown to the
    /// largest run it has served.
    lane_u1: Vec<f32>,
    lane_u2: Vec<f32>,
    lane_out: Vec<f32>,
}

impl<'a, R: Rng + ?Sized> NormalStream<'a, R> {
    /// A stream of exactly `count` normals from `rng`. Draws nothing yet.
    pub fn new(rng: &'a mut R, count: usize) -> Self {
        NormalStream {
            rng,
            undrawn: count,
            buf: [0.0; CHUNK],
            pos: 0,
            len: 0,
            lane_u1: Vec::new(),
            lane_u2: Vec::new(),
            lane_out: Vec::new(),
        }
    }

    /// Takes the stream's next `lanes * per_lane` normals as `lanes` runs
    /// of `per_lane` and returns them interleaved `width` wide: normal `j`
    /// of run `l` is at `[j * width + l]`, and lanes `lanes..width` read
    /// zero. The uniforms are drawn serially in stream order, each written
    /// to its interleaved slot, and the whole slice is transformed by one
    /// [`backend::box_muller`] call, so interleaving costs no extra pass.
    ///
    /// # Panics
    ///
    /// Panics when `lanes > width`, when fewer than `lanes * per_lane`
    /// normals remain, or when normals [`NormalStream::draw`] transformed
    /// are still untaken.
    pub fn take_lanes(&mut self, lanes: usize, per_lane: usize, width: usize) -> &[f32] {
        assert!(
            lanes <= width,
            "NormalStream::take_lanes: {lanes} runs in a {width}-wide row"
        );
        assert!(
            self.pos == self.len,
            "NormalStream::take_lanes: draw() left normals untaken"
        );
        let count = lanes * per_lane;
        assert!(
            count <= self.undrawn,
            "NormalStream: every drawn normal was already taken"
        );
        let size = per_lane * width;
        // Slots no draw fills transform `(1, 0)`, which gives zero.
        self.lane_u1.clear();
        self.lane_u1.resize(size, 1.0);
        self.lane_u2.clear();
        self.lane_u2.resize(size, 0.0);
        self.lane_out.resize(size, 0.0);
        for l in 0..lanes {
            for j in 0..per_lane {
                self.lane_u1[j * width + l] = 1.0 - self.rng.gen::<f32>();
                self.lane_u2[j * width + l] = self.rng.gen();
            }
        }
        self.undrawn -= count;
        backend::box_muller(&self.lane_u1, &self.lane_u2, &mut self.lane_out);
        &self.lane_out
    }

    /// The next standard normal.
    ///
    /// # Panics
    ///
    /// Panics when the stream's `count` normals have all been taken.
    #[inline]
    pub fn draw(&mut self) -> f32 {
        if self.pos == self.len {
            self.refill();
        }
        let z = self.buf[self.pos];
        self.pos += 1;
        z
    }

    /// Normals not yet taken.
    pub fn remaining(&self) -> usize {
        self.undrawn + (self.len - self.pos)
    }

    #[cold]
    fn refill(&mut self) {
        let n = self.undrawn.min(CHUNK);
        assert!(n > 0, "NormalStream: every drawn normal was already taken");
        let mut u1 = [0.0f32; CHUNK];
        let mut u2 = [0.0f32; CHUNK];
        for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
            *a = 1.0 - self.rng.gen::<f32>();
            *b = self.rng.gen();
        }
        backend::box_muller(&u1[..n], &u2[..n], &mut self.buf[..n]);
        self.undrawn -= n;
        self.pos = 0;
        self.len = n;
    }
}

/// Kaiming (He) uniform initialization for a weight tensor.
///
/// `fan_in` is the number of input connections per output unit; the values
/// are drawn from `U(-b, b)` with `b = sqrt(6 / fan_in)`, the standard choice
/// for ReLU networks.
pub fn kaiming_uniform<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    let bound = (6.0 / fan_in.max(1) as f32).sqrt();
    Tensor::rand_uniform(shape, -bound, bound, rng)
}

/// Kaiming (He) normal initialization: `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(shape, 0.0, std, rng)
}

/// Xavier/Glorot uniform initialization over `U(-b, b)` with
/// `b = sqrt(6 / (fan_in + fan_out))`; used for non-ReLU layers.
pub fn xavier_uniform<R: Rng + ?Sized>(
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut R,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Tensor::rand_uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_stream_matches_serial_draws_and_leaves_the_rng_in_step() {
        // Counts below, at and across the chunk size.
        for count in [0, 1, 7, CHUNK, CHUNK + 1, 2 * CHUNK + 5] {
            let mut serial_rng = StdRng::seed_from_u64(9);
            let serial: Vec<u32> = (0..count)
                .map(|_| standard_normal(&mut serial_rng).to_bits())
                .collect();
            let mut rng = StdRng::seed_from_u64(9);
            let mut stream = NormalStream::new(&mut rng, count);
            let batched: Vec<u32> = (0..count).map(|_| stream.draw().to_bits()).collect();
            assert_eq!(stream.remaining(), 0);
            assert_eq!(batched, serial, "count {count}");
            assert_eq!(rng.gen::<u32>(), serial_rng.gen::<u32>(), "count {count}");
        }
    }

    #[test]
    fn take_lanes_interleaves_the_serial_draws() {
        // Takes after whole chunks of draws or none, run counts and
        // lengths, and row widths with padding lanes.
        for (drawn, lanes, per_lane, width) in [
            (0, 1, 5, 1),
            (0, 3, 7, 8),
            (0, 8, 100, 8),
            (CHUNK, 2, 9, 4),
            (0, 0, 4, 8),
        ] {
            let count = drawn + lanes * per_lane;
            let mut serial_rng = StdRng::seed_from_u64(4);
            let serial: Vec<f32> = (0..count)
                .map(|_| standard_normal(&mut serial_rng))
                .collect();
            let mut rng = StdRng::seed_from_u64(4);
            let mut stream = NormalStream::new(&mut rng, count + 1);
            for want in &serial[..drawn] {
                assert_eq!(stream.draw().to_bits(), want.to_bits());
            }
            let got = stream.take_lanes(lanes, per_lane, width).to_vec();
            assert_eq!(got.len(), per_lane * width);
            for j in 0..per_lane {
                for l in 0..width {
                    let want = if l < lanes {
                        serial[drawn + l * per_lane + j]
                    } else {
                        0.0
                    };
                    let case = (drawn, lanes, per_lane, width);
                    assert_eq!(got[j * width + l], want, "case {case:?}");
                }
            }
            assert_eq!(stream.remaining(), 1);
            let last = stream.draw();
            assert_eq!(last.to_bits(), standard_normal(&mut serial_rng).to_bits());
            assert_eq!(rng.gen::<u32>(), serial_rng.gen::<u32>());
        }
    }

    #[test]
    #[should_panic(expected = "left normals untaken")]
    fn take_lanes_refuses_to_skip_drawn_normals() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut stream = NormalStream::new(&mut rng, 10);
        stream.draw();
        stream.take_lanes(1, 3, 1);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn take_lanes_refuses_to_overdraw() {
        let mut rng = StdRng::seed_from_u64(0);
        NormalStream::new(&mut rng, 5).take_lanes(2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn normal_stream_refuses_to_overdraw() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut stream = NormalStream::new(&mut rng, 3);
        for _ in 0..4 {
            stream.draw();
        }
    }

    #[test]
    fn kaiming_uniform_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = kaiming_uniform(&[64, 9], 9, &mut rng);
        let bound = (6.0f32 / 9.0).sqrt();
        assert!(t.max() <= bound && t.min() >= -bound);
        // Should actually use the range, not collapse near zero.
        assert!(t.max() > bound * 0.8);
    }

    #[test]
    fn kaiming_normal_std() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = kaiming_normal(&[10_000], 8, &mut rng);
        let std = t.norm_sq() / t.len() as f32;
        assert!((std - 0.25).abs() < 0.02, "var {std}");
    }

    #[test]
    fn xavier_uniform_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = xavier_uniform(&[100], 10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(t.max() <= bound && t.min() >= -bound);
    }

    #[test]
    fn zero_fan_in_does_not_divide_by_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = kaiming_uniform(&[4], 0, &mut rng);
        assert!(t.as_slice().iter().all(|x| x.is_finite()));
    }
}
