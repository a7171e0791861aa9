//! Int8 convolution over i16-pair packed operands.
//!
//! The quantized twin of the f32 forward convolution in [`super::conv`],
//! with three differences:
//!
//! * **Weights are packed once at model-build time** into [`PackedQMat`]
//!   — per-call work is only the im2col panel pack.
//! * Operands are **zero-point-corrected i16 pairs** along the reduction
//!   axis (layouts documented on [`backend::qmicrokernel`]); padding —
//!   both the odd-`k` pair tail and the spatial padding — packs as `0`,
//!   which *is* the corrected representation of the real value zero, so no
//!   correction terms are needed anywhere.
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

use crate::backend::{self, MR, NR};
use crate::parallel::par_blocks_mut;
use std::cell::RefCell;

thread_local! {
    /// Per-thread `kp2 x NR` i16-pair im2col panel of [`qconv`] (one per
    /// pool worker and one for the calling thread).
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
    k: usize,
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
            k,
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

/// Geometry of the virtual im2col matrix `(kh*kw*C, oh*ow)` of each image
/// of an i8 NCHW batch; mirror of the f32 `Im2colView`, with padding
/// reading as the real value zero (i16 `0` after zero-point correction).
///
/// Reduction rows are served in `(ky, kx, ci)` order — channel fastest —
/// so that adjacent rows (which the packed format pairs) share one bounds
/// geometry. The matching [`PackedQMat`] must be packed in the same order
/// (`qlayers` permutes conv weights at build time); the i32 accumulation
/// is exact under any reduction permutation, so results are identical to
/// the natural order.
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

impl QIm2col<'_> {
    #[inline]
    fn sample(&self, img: usize, ci: usize, iy: usize, ix: usize) -> i16 {
        match (iy.checked_sub(self.pad), ix.checked_sub(self.pad)) {
            (Some(y), Some(x)) if y < self.h && x < self.w => {
                let q = self.data[((img * self.c + ci) * self.h + y) * self.w + x];
                (q as i32 - self.zp) as i16
            }
            _ => 0,
        }
    }
}

/// Int8 convolution of the NCHW code batch `x` (`n` images) with the
/// prepacked `(m, C*kh*kw)` weights `a`: for every image and output
/// channel `o`, calls `epilogue(o, acc, dst)` once with the channel's
/// `oh*ow` i32 accumulators
/// `acc[oy*ow + ox] = Σ_p a[o, p] · (im2col(x)[p, (oy, ox)] - zp)` and
/// its `(oy, ox)` plane `dst` of the `(n, m, oh, ow)` output `out`. The
/// epilogue must write all of `dst`.
///
/// Per image, each `NR`-column panel of output positions is packed once
/// into a thread-local buffer that stays in L1 and every weight tile's
/// microkernel consumes it at once. Work is split over image ×
/// output-channel tile; which thread computes a plane never changes how.
///
/// # Panics
///
/// Panics when `a`'s depth is not `C*kh*kw`, or `x.data` or `out` has the
/// wrong size.
pub fn qconv<T, F>(a: &PackedQMat, x: &QIm2col, n: usize, out: &mut [T], epilogue: F)
where
    T: Send,
    F: Fn(usize, &[i32], &mut [T]) + Sync,
{
    let (m, kp2) = (a.rows, a.kp2);
    let ohw = x.oh * x.ow;
    assert_eq!(a.k, x.c * x.kh * x.kw, "qconv weight depth mismatch");
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
    par_blocks_mut(out, n, m, MR, ohw, 1, |units, base, chunk| {
        PANEL.with(|pc| {
            STAGE.with(|sc| {
                let mut panel = pc.borrow_mut();
                if panel.len() < kp2 * NR * 2 {
                    panel.resize(kp2 * NR * 2, 0);
                }
                let panel = &mut panel[..kp2 * NR * 2];
                let mut stage = sc.borrow_mut();
                let mut u = units.start;
                while u < units.end {
                    let img = u / mtiles;
                    let (t0, t1) = (u % mtiles, mtiles.min(units.end - img * mtiles));
                    if stage.len() < (t1 - t0) * MR * ohw {
                        stage.resize((t1 - t0) * MR * ohw, 0);
                    }
                    for j0 in (0..ohw).step_by(NR) {
                        let jn = NR.min(ohw - j0);
                        pack_panel(x, img, j0, jn, panel);
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
}

/// Packs output positions `j0 .. j0 + jn` of image `img` (a run of its
/// row-major `oh x ow` grid, `jn <= NR`) into the i16-pair panel
/// `dst[p2 * NR * 2 + jj * 2 + r]`, overwriting **every** slot — columns
/// past `jn` and the odd-`k` pair tail are written as zero (the corrected
/// representation of the real value zero), so the caller never
/// pre-zeroes the scratch.
///
/// A panel that stays inside one output row of an even-channel input takes
/// [`pack_row_panel`]; any other falls back to the defining per-element
/// walk. Both produce identical bytes — packing is pure data movement, so
/// this never perturbs the bit-pinned goldens.
fn pack_panel(v: &QIm2col, img: usize, j0: usize, jn: usize, dst: &mut [i16]) {
    if v.c.is_multiple_of(2) && j0 % v.ow + jn <= v.ow {
        pack_row_panel(v, img, j0, jn, dst);
        return;
    }
    dst.fill(0);
    let mut cols = [(0usize, 0usize); NR];
    for (jj, slot) in cols.iter_mut().take(jn).enumerate() {
        let j = j0 + jj;
        *slot = ((j / v.ow) * v.stride, (j % v.ow) * v.stride);
    }
    let (mut ci, mut ky, mut kx) = (0usize, 0usize, 0usize);
    for p in 0..v.c * v.kh * v.kw {
        let base = (p / 2) * NR * 2 + (p % 2);
        for (jj, &(ybase, xbase)) in cols.iter().take(jn).enumerate() {
            dst[base + jj * 2] = v.sample(img, ci, ybase + ky, xbase + kx);
        }
        ci += 1;
        if ci == v.c {
            ci = 0;
            kx += 1;
            if kx == v.kw {
                kx = 0;
                ky += 1;
            }
        }
    }
}

/// Interleaves one reduction pair of corrected row slices into its packed
/// slot `d[jj * 2 + r]`: columns `jn..NR` are written as zero. The rows
/// must be contiguous i8 runs of length `jn`, which is what makes this the
/// hot path — the convert-subtract-interleave loop is branch-free and
/// auto-vectorizes.
#[inline]
fn store_pair(d: &mut [i16], r0: &[i8], r1: &[i8], jn: usize, zp: i32) {
    for jj in 0..jn {
        d[jj * 2] = (r0[jj] as i32 - zp) as i16;
        d[jj * 2 + 1] = (r1[jj] as i32 - zp) as i16;
    }
    for jj in jn..NR {
        d[jj * 2] = 0;
        d[jj * 2 + 1] = 0;
    }
}

/// [`pack_panel`] fast path for a panel whose columns all live in one
/// output row, with an even channel count. In the `(ky, kx, ci)`
/// reduction order each `(ky, kx)` block is `c` channel rows sharing one
/// bounds geometry — row validity depends only on `ky`, the valid x-run
/// only on `kx` — so bounds resolve once per block and every packed pair
/// is two channel-adjacent rows with identical shape: the inner loops are
/// branch-free interleaved copies. Produces the exact bytes of the
/// defining `QIm2col::sample` walk over the same row order.
fn pack_row_panel(v: &QIm2col, img: usize, j0: usize, jn: usize, dst: &mut [i16]) {
    let ybase = (j0 / v.ow) * v.stride;
    let x0 = ((j0 % v.ow) * v.stride) as isize;
    let (h, w, pad) = (v.h as isize, v.w as isize, v.pad as isize);
    let stride1 = v.stride == 1;

    let chw = v.h * v.w;
    let img_base = img * v.c * chw;
    let cpairs = v.c / 2;
    let mut p2 = 0usize;
    for ky in 0..v.kh {
        let iy = (ybase + ky) as isize - pad;
        let y_ok = iy >= 0 && iy < h;
        for kx in 0..v.kw {
            let block = &mut dst[p2 * NR * 2..(p2 + cpairs) * NR * 2];
            p2 += cpairs;
            let sx = x0 + kx as isize - pad;
            if !y_ok || sx >= w {
                block.fill(0);
                continue;
            }
            // Valid jj range: 0 <= sx + jj * stride < w.
            let (lo, hi) = if stride1 {
                ((-sx).max(0) as usize, ((w - sx) as usize).min(jn))
            } else if sx >= 0 {
                (0, (((w - 1 - sx) as usize) / v.stride + 1).min(jn))
            } else {
                let lo = ((-sx) as usize).div_ceil(v.stride);
                (lo, (((w - 1 - sx) as usize) / v.stride + 1).min(jn))
            };
            if lo >= hi {
                block.fill(0);
                continue;
            }
            let row0 = img_base + iy as usize * v.w + (sx + (lo * v.stride) as isize) as usize;
            if stride1 && lo == 0 && hi == jn {
                for (cp, d) in block.chunks_exact_mut(NR * 2).enumerate() {
                    let base = row0 + 2 * cp * chw;
                    store_pair(
                        d,
                        &v.data[base..][..jn],
                        &v.data[base + chw..][..jn],
                        jn,
                        v.zp,
                    );
                }
            } else {
                for (cp, d) in block.chunks_exact_mut(NR * 2).enumerate() {
                    let base = row0 + 2 * cp * chw;
                    d[..lo * 2].fill(0);
                    for off in 0..hi - lo {
                        let q0 = v.data[base + off * v.stride];
                        let q1 = v.data[base + chw + off * v.stride];
                        d[(lo + off) * 2] = (q0 as i32 - v.zp) as i16;
                        d[(lo + off) * 2 + 1] = (q1 as i32 - v.zp) as i16;
                    }
                    d[hi * 2..].fill(0);
                }
            }
        }
    }
}
