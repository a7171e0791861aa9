//! Int8 convolution over i16-pair packed operands.
//!
//! The quantized twin of the f32 forward convolution in [`super::conv`],
//! with three differences:
//!
//! * **Weights are packed once at model-build time** into [`PackedQMat`]
//!   — per-call work is the padded copy of each image and the panel copy.
//! * Operands are **zero-point-corrected i16 pairs** along the reduction
//!   axis (layouts documented on [`backend::qmicrokernel`]). Each image is
//!   copied once into the channel-pair-interleaved, stride-phase-split
//!   i16 layout `(⌈C/2⌉, ny, nx, Hq, Wq, 2)` of [`PhaseSplit`], an odd `C`
//!   padded by a zero channel. Padding — spatial and the extra channel —
//!   is `0`, which *is* the corrected representation of the real value
//!   zero, so no correction terms are needed anywhere. A reduction pair
//!   `(channel pair, ky, kx)` over the outputs of one output row is then
//!   one contiguous run of 2·`NR` i16: an in-row panel copies it, a panel
//!   straddling output rows gathers it pixel by pixel.
//! * Tile rows land in a per-thread i32 stage holding one image's
//!   accumulator planes; the caller's epilogue (requantize or dequantize)
//!   then runs once per output-channel plane, straight into the NCHW
//!   output, so every backend call covers a whole plane.
//!
//! Each i32 accumulator is one chain over strictly increasing pair index,
//! threads split disjoint image × output-channel tiles, and integer
//! arithmetic has no rounding at all — the quantized path is
//! bit-deterministic across `LECA_THREADS` *and* `LECA_BACKEND` by
//! construction (the parity suite still proves the latter).

use super::conv::{gather_panel, PhaseSplit};
use super::gemm::with_rows;
use crate::backend::{self, MR, NR};
use crate::parallel::par_blocks_mut;
use std::cell::RefCell;

thread_local! {
    /// Per-thread `kp2 x NR` i16-pair panel of [`qconv`], followed by the
    /// padded pair copy of the current image (one per pool worker and one
    /// for the calling thread).
    static PANEL: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
    /// Per-thread i32 stage of [`qconv`]: the current image's accumulator
    /// planes for the chunk's output-channel tiles.
    static STAGE: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// A weight matrix `(m, k)` quantized per row, packed for the quantized
/// microkernel: [`MR`]-row tiles of i16 pairs,
/// `tile[p2 * MR * 2 + i * 2 + r] = w[i0 + i, 2*p2 + r]` (zero beyond the
/// logical row/reduction extent). Weights are symmetric (`zero_point = 0`),
/// so codes widen to i16 unchanged.
#[derive(Debug, Clone)]
pub struct PackedQMat {
    rows: usize,
    kp2: usize,
    data: Vec<i16>,
    scales: Vec<f32>,
}

impl PackedQMat {
    /// Packs a row-major `(m, k)` i8 matrix with per-row scales.
    ///
    /// # Panics
    ///
    /// Panics when `qw.len() != m * k` or `scales.len() != m`.
    pub fn pack(qw: &[i8], m: usize, k: usize, scales: &[f32]) -> PackedQMat {
        assert_eq!(qw.len(), m * k, "PackedQMat: weight buffer mismatch");
        assert_eq!(scales.len(), m, "PackedQMat: one scale per row");
        let kp2 = k.div_ceil(2);
        let tiles = m.div_ceil(MR).max(1);
        let mut data = vec![0i16; tiles * kp2 * MR * 2];
        for (t, tile) in data.chunks_exact_mut(kp2 * MR * 2).enumerate() {
            let i0 = t * MR;
            let im = MR.min(m.saturating_sub(i0));
            for i in 0..im {
                let row = &qw[(i0 + i) * k..(i0 + i + 1) * k];
                for (p, &q) in row.iter().enumerate() {
                    tile[(p / 2) * MR * 2 + i * 2 + (p % 2)] = q as i16;
                }
            }
        }
        PackedQMat {
            rows: m,
            kp2,
            data,
            scales: scales.to_vec(),
        }
    }

    /// Logical row count (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-row quantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Geometry of an i8 NCHW batch as the input of [`qconv`]: the virtual
/// im2col matrix of each image, with padding reading as the real value
/// zero (i16 `0` after zero-point correction).
///
/// Reduction rows are served in `(channel pair, ky, kx)` order, each pair
/// holding channels `2·cp` and `2·cp + 1` at one tap, an odd `C` padded by
/// a zero channel: row `p = ((cp·kh + ky)·kw + kx)·2 + r` reads channel
/// `2·cp + r`. The matching [`PackedQMat`] must be packed in the same
/// order (`qlayers` permutes conv weights at build time); the i32
/// accumulation is exact under any reduction permutation, so results are
/// identical to the natural order.
#[derive(Clone, Copy)]
pub struct QIm2col<'a> {
    /// i8 codes, NCHW.
    pub data: &'a [i8],
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// The activation grid's zero point.
    pub zp: i32,
}

/// Int8 convolution of the NCHW code batch `x` (`n` images) with the
/// prepacked weights `a`, `⌈C/2⌉·kh·kw` reduction pairs in [`QIm2col`]'s
/// order: for every image and output channel `o`, calls
/// `epilogue(o, acc, dst)` once with the channel's `oh*ow` i32
/// accumulators `acc[oy*ow + ox] = Σ_p a[o, p] · (im2col(x)[p, (oy, ox)] - zp)`
/// and its `(oy, ox)` plane `dst` of the `(n, m, oh, ow)` output `out`. The
/// epilogue must write all of `dst`.
///
/// Per image, the padded pair copy is made once per worker, with `NR`
/// pairs of slack. Each `NR`-column panel of output positions is then
/// copied (inside one output row) or gathered (straddling output rows)
/// from it into a thread-local buffer that stays in L1, and every weight
/// tile's microkernel consumes it at once. Lanes past the panel's width
/// hold whatever the copy read; the store drops them. Work is split over
/// image × output-channel tile; which thread computes a plane never
/// changes how.
///
/// # Panics
///
/// Panics when `a`'s pair depth is not `⌈C/2⌉·kh·kw`, or `x.data` or `out`
/// has the wrong size.
pub fn qconv<T, F>(a: &PackedQMat, x: &QIm2col, n: usize, out: &mut [T], epilogue: F)
where
    T: Send,
    F: Fn(usize, &[i32], &mut [T]) + Sync,
{
    let (m, kp2) = (a.rows, a.kp2);
    let (ohw, cp) = (x.oh * x.ow, x.c.div_ceil(2));
    assert_eq!(kp2, cp * x.kh * x.kw, "qconv weight depth mismatch");
    assert_eq!(
        x.data.len(),
        n * x.c * x.h * x.w,
        "qconv input buffer mismatch"
    );
    assert_eq!(out.len(), n * m * ohw, "qconv output buffer mismatch");
    if out.is_empty() {
        return;
    }
    let mtiles = m.div_ceil(MR);
    let tile_len = kp2 * MR * 2;
    let be = backend::active();
    let ph = PhaseSplit::new(x.h, x.w, x.kh, x.kw, x.stride, x.pad);
    let taps = (0..cp).flat_map(|c2| {
        (0..x.kh)
            .flat_map(move |ky| (0..x.kw).map(move |kx| (c2 * ph.block() + ph.tap(ky, kx)) * 2))
    });
    let padded_len = (cp * ph.block() + NR) * 2;
    with_rows(taps, |taps| {
        par_blocks_mut(out, n, m, MR, ohw, 1, |units, base, chunk| {
            PANEL.with(|pc| {
                STAGE.with(|sc| {
                    let mut scratch = pc.borrow_mut();
                    if scratch.len() < kp2 * NR * 2 + padded_len {
                        scratch.resize(kp2 * NR * 2 + padded_len, 0);
                    }
                    let (panel, padded) = scratch.split_at_mut(kp2 * NR * 2);
                    let padded = &mut padded[..padded_len];
                    let mut stage = sc.borrow_mut();
                    let mut u = units.start;
                    while u < units.end {
                        let img = u / mtiles;
                        let (t0, t1) = (u % mtiles, mtiles.min(units.end - img * mtiles));
                        if stage.len() < (t1 - t0) * MR * ohw {
                            stage.resize((t1 - t0) * MR * ohw, 0);
                        }
                        pad_pairs(x, &ph, img, padded);
                        for j0 in (0..ohw).step_by(NR) {
                            let jn = NR.min(ohw - j0);
                            let (oy, ox) = (j0 / x.ow, j0 % x.ow);
                            if ox + jn <= x.ow {
                                let at = ph.at(oy, ox) * 2;
                                for (d, &r) in panel.chunks_exact_mut(NR * 2).zip(taps) {
                                    d.copy_from_slice(&padded[at + r..][..NR * 2]);
                                }
                            } else {
                                gather_panel::<_, 2>(padded, taps, &ph.cols(x.ow, j0, jn), panel);
                            }
                            for t in t0..t1 {
                                let mut acc = [[0i32; NR]; MR];
                                be.qmicrokernel(
                                    kp2,
                                    &a.data[t * tile_len..(t + 1) * tile_len],
                                    panel,
                                    &mut acc,
                                );
                                for (i, row) in acc.iter().enumerate().take(MR.min(m - t * MR)) {
                                    let r = (t - t0) * MR + i;
                                    stage[r * ohw + j0..][..jn].copy_from_slice(&row[..jn]);
                                }
                            }
                        }
                        for o in t0 * MR..m.min(t1 * MR) {
                            let at = (img * m + o) * ohw - base;
                            let acc = &stage[(o - t0 * MR) * ohw..][..ohw];
                            epilogue(o, acc, &mut chunk[at..at + ohw]);
                        }
                        u += t1 - t0;
                    }
                });
            });
        });
    });
}

/// Copies image `img` into `dst` as zero-point-corrected i16 channel
/// pairs: pair `cp`'s [`PhaseSplit`] block holds
/// `(code - zp, code' - zp)` of channels `2·cp` and `2·cp + 1` per pixel,
/// `0` for padding and for the missing partner of an odd last channel,
/// followed by zeros to the end of `dst` (the slack past the last block).
fn pad_pairs(x: &QIm2col, ph: &PhaseSplit, img: usize, dst: &mut [i16]) {
    let plane = x.h * x.w;
    let (blocks, slack) = dst.split_at_mut(x.c.div_ceil(2) * ph.block() * 2);
    for (cp, block) in blocks.chunks_exact_mut(ph.block() * 2).enumerate() {
        let ci = img * x.c + 2 * cp;
        let src0 = &x.data[ci * plane..(ci + 1) * plane];
        // An odd last channel pairs with itself, and its partner lane is
        // zeroed below.
        let odd = 2 * cp + 1 == x.c;
        let src1 = if odd {
            src0
        } else {
            &x.data[(ci + 1) * plane..(ci + 2) * plane]
        };
        ph.fill(block, 2, 0, |y, x0, run| {
            let (r0, r1) = (&src0[y * x.w + x0..], &src1[y * x.w + x0..]);
            put_pairs(run, r0, r1, x.stride, x.zp);
        });
        if odd {
            for pair in block.chunks_exact_mut(2) {
                pair[1] = 0;
            }
        }
    }
    slack.fill(0);
}

/// Interleaves codes `r0[q * s]` and `r1[q * s]` as the corrected pair
/// `q` of `run`, with the networks' strides 1 and 2 compiled as constants.
fn put_pairs(run: &mut [i16], r0: &[i8], r1: &[i8], s: usize, zp: i32) {
    #[inline(always)]
    fn every(run: &mut [i16], r0: &[i8], r1: &[i8], s: usize, zp: i32) {
        let n = (run.len() / 2 - 1) * s + 1;
        let (r0, r1) = (&r0[..n], &r1[..n]);
        for (q, d) in run.chunks_exact_mut(2).enumerate() {
            d[0] = (r0[q * s] as i32 - zp) as i16;
            d[1] = (r1[q * s] as i32 - zp) as i16;
        }
    }
    match s {
        1 => every(run, r0, r1, 1, zp),
        2 => every(run, r0, r1, 2, zp),
        s => every(run, r0, r1, s, zp),
    }
}
