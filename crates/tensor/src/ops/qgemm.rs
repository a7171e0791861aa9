//! Cache-blocked int8 GEMM over i16-pair packed operands.
//!
//! Mirror of [`super::gemm`] for the quantized tier, with two structural
//! differences:
//!
//! * **A (weights) is packed once at model-build time** into
//!   [`PackedQMat`] — per-call work is only the B pack. Tiles are
//!   [`MR`]-row aligned, so the output accumulator is sized in whole tiles
//!   (`tiles * MR * n`; rows past the logical `m` are scratch).
//! * Operands are **zero-point-corrected i16 pairs** along the reduction
//!   axis (layouts documented on [`backend::qmicrokernel_with`]); padding —
//!   both the odd-`k` pair tail and conv's spatial padding — packs as `0`,
//!   which *is* the corrected representation of the real value zero, so no
//!   correction terms are needed anywhere.
//!
//! The reduction order discipline of the f32 core carries over: each i32
//! accumulator is one chain over strictly increasing pair index, threads
//! split disjoint output tiles, and integer arithmetic has no rounding at
//! all — the quantized path is bit-deterministic across `LECA_THREADS`
//! *and* `LECA_BACKEND` by construction (the parity suite still proves
//! the latter).

use crate::backend::{self, MR, NR};
use crate::parallel::par_rows_mut;
use std::cell::RefCell;

/// Minimum output row-tiles handed to one pool worker (tiles of [`MR`]
/// rows; matches the f32 core's `MC = 32` rows).
const QMC_TILES: usize = 4;

thread_local! {
    /// Per-thread packed-B scratch (i16 pairs), reused across [`qgemm`]
    /// calls so the steady state allocates nothing.
    static QB_SCRATCH: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
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

    /// Logical reduction depth.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of [`MR`]-row tiles ([`qgemm`]'s accumulator is sized
    /// `tiles() * MR * n`).
    pub fn tiles(&self) -> usize {
        self.data.len() / (self.kp2 * MR * 2)
    }

    /// Per-row quantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Geometry of a virtual im2col matrix `(kh*kw*C, N*oh*ow)` over an i8
/// NCHW batch; mirror of the f32 `Im2colView`, with padding reading as the
/// real value zero (i16 `0` after zero-point correction).
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

/// A read-only `(k, n)` i8 matrix operand for the B side of [`qgemm`];
/// every element is corrected by its grid's zero point during packing.
pub enum QOperand<'a> {
    /// `get(p, j) = data[p * rs + j * cs] - zp`.
    Strided {
        /// i8 codes.
        data: &'a [i8],
        /// Row stride.
        rs: usize,
        /// Column stride.
        cs: usize,
        /// The grid's zero point.
        zp: i32,
    },
    /// An NCHW code batch viewed as the channel-major `(C, N*H*W)` matrix:
    /// `get(ci, img * hw + pos) = data[(img * c + ci) * hw + pos] - zp`
    /// (the ConvTranspose input layout).
    Nchw {
        /// i8 codes, NCHW.
        data: &'a [i8],
        /// Channels (the row count).
        c: usize,
        /// Spatial extent `H * W` per image.
        hw: usize,
        /// The grid's zero point.
        zp: i32,
    },
    /// The virtual im2col matrix of an i8 NCHW batch.
    Im2col(QIm2col<'a>),
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

/// Same as [`store_pair`] with the second row all zero (odd-`k` tail).
#[inline]
fn store_pair_tail(d: &mut [i16], r0: &[i8], jn: usize, zp: i32) {
    for jj in 0..jn {
        d[jj * 2] = (r0[jj] as i32 - zp) as i16;
        d[jj * 2 + 1] = 0;
    }
    for jj in jn..NR {
        d[jj * 2] = 0;
        d[jj * 2 + 1] = 0;
    }
}

/// Packs columns `j0 .. j0+jn` of operand `b` (logical shape `k x n`) into
/// the i16-pair panel `dst[p2 * NR * 2 + jj * 2 + r]`, overwriting **every**
/// slot — columns past `jn` and reduction rows past `k` are written as zero
/// (the corrected representation of the real value zero), so the caller
/// never pre-zeroes the scratch.
///
/// Each operand kind has a contiguous-run fast path for the panel shapes
/// the conv/linear layers actually produce (unit column stride; a panel
/// that stays inside one image / one output row) and falls back to the
/// defining per-element walk otherwise. Both paths produce identical
/// bytes — packing is pure data movement, so this never perturbs the
/// bit-pinned goldens.
fn pack_qb_panel(b: &QOperand, j0: usize, jn: usize, k: usize, dst: &mut [i16]) {
    match b {
        QOperand::Strided {
            data,
            rs,
            cs: 1,
            zp,
        } => {
            for p2 in 0..k / 2 {
                let r0 = &data[2 * p2 * rs + j0..][..jn];
                let r1 = &data[(2 * p2 + 1) * rs + j0..][..jn];
                store_pair(&mut dst[p2 * NR * 2..(p2 + 1) * NR * 2], r0, r1, jn, *zp);
            }
            if k % 2 == 1 {
                let p2 = k / 2;
                let r0 = &data[(k - 1) * rs + j0..][..jn];
                store_pair_tail(&mut dst[p2 * NR * 2..(p2 + 1) * NR * 2], r0, jn, *zp);
            }
        }
        QOperand::Strided { data, rs, cs, zp } => {
            dst.fill(0);
            for p in 0..k {
                let row = p * rs + j0 * cs;
                let base = (p / 2) * NR * 2 + (p % 2);
                for jj in 0..jn {
                    dst[base + jj * 2] = (data[row + jj * cs] as i32 - zp) as i16;
                }
            }
        }
        QOperand::Nchw { data, c, hw, zp } if j0 % hw + jn <= *hw => {
            // The whole panel sits inside one image, so every reduction
            // row is one contiguous `hw` run.
            let (img, pos) = (j0 / hw, j0 % hw);
            for p2 in 0..k / 2 {
                let r0 = &data[(img * c + 2 * p2) * hw + pos..][..jn];
                let r1 = &data[(img * c + 2 * p2 + 1) * hw + pos..][..jn];
                store_pair(&mut dst[p2 * NR * 2..(p2 + 1) * NR * 2], r0, r1, jn, *zp);
            }
            if k % 2 == 1 {
                let p2 = k / 2;
                let r0 = &data[(img * c + k - 1) * hw + pos..][..jn];
                store_pair_tail(&mut dst[p2 * NR * 2..(p2 + 1) * NR * 2], r0, jn, *zp);
            }
        }
        QOperand::Nchw { data, c, hw, zp } => {
            dst.fill(0);
            for p in 0..k {
                debug_assert!(p < *c);
                let base = (p / 2) * NR * 2 + (p % 2);
                for jj in 0..jn {
                    let col = j0 + jj;
                    let (img, pos) = (col / hw, col % hw);
                    let q = data[(img * c + p) * hw + pos];
                    dst[base + jj * 2] = (q as i32 - zp) as i16;
                }
            }
        }
        QOperand::Im2col(v)
            if v.c % 2 == 0
                && k == v.c * v.kh * v.kw
                && (j0 % (v.oh * v.ow)) % v.ow + jn <= v.ow =>
        {
            pack_im2col_row_panel(v, j0, jn, dst);
        }
        QOperand::Im2col(v) => {
            dst.fill(0);
            let mut cols = [(0usize, 0usize, 0usize); NR];
            for (jj, slot) in cols.iter_mut().take(jn).enumerate() {
                let col = j0 + jj;
                let img = col / (v.oh * v.ow);
                let rem = col % (v.oh * v.ow);
                *slot = (img, (rem / v.ow) * v.stride, (rem % v.ow) * v.stride);
            }
            let (mut ci, mut ky, mut kx) = (0usize, 0usize, 0usize);
            for p in 0..k {
                let base = (p / 2) * NR * 2 + (p % 2);
                for (jj, &(img, ybase, xbase)) in cols.iter().take(jn).enumerate() {
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
    }
}

/// Im2col fast path for a panel whose columns all live in one output row
/// of one image, with an even channel count. In the `(ky, kx, ci)`
/// reduction order each `(ky, kx)` block is `c` channel rows sharing one
/// bounds geometry — row validity depends only on `ky`, the valid x-run
/// only on `kx` — so bounds resolve once per block and every packed pair
/// is two channel-adjacent rows with identical shape: the inner loops are
/// branch-free interleaved copies. Produces the exact bytes of the
/// defining `QIm2col::sample` walk over the same row order.
fn pack_im2col_row_panel(v: &QIm2col, j0: usize, jn: usize, dst: &mut [i16]) {
    let opix = v.oh * v.ow;
    let img = j0 / opix;
    let rem0 = j0 % opix;
    let ybase = (rem0 / v.ow) * v.stride;
    let x0 = ((rem0 % v.ow) * v.stride) as isize;
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

/// `acc = A · B'` where `A` is the prepacked `(m, k)` weight matrix, `B`
/// is a `(k, n)` [`QOperand`], and `B'` its zero-point-corrected value
/// matrix. `acc` must hold `a.tiles() * MR * n` i32 elements (whole-tile
/// rows; rows `m..tiles*MR` are scratch). Every element of `acc` is
/// overwritten.
///
/// # Panics
///
/// Panics when `acc` has the wrong size.
pub fn qgemm(a: &PackedQMat, b: &QOperand, n: usize, acc: &mut [i32]) {
    let tiles = a.tiles();
    assert_eq!(
        acc.len(),
        tiles * MR * n,
        "qgemm accumulator must cover whole tiles"
    );
    if n == 0 || a.rows == 0 {
        return;
    }
    let (k, kp2) = (a.k, a.kp2);
    let npanels = n.div_ceil(NR);
    let tile_len = kp2 * MR * 2;

    QB_SCRATCH.with(|cell| {
        // Pack all of B once into the thread-local scratch. Grow-only: the
        // panel packer overwrites every slot of its panel (padding
        // included), so stale contents from a previous geometry never leak
        // and the warm path neither reallocates nor re-zeroes ~half a
        // megabyte per call.
        let mut packed_b = cell.borrow_mut();
        let needed = npanels * kp2 * NR * 2;
        if packed_b.len() < needed {
            packed_b.resize(needed, 0);
        }
        let packed_b = &mut packed_b[..needed];
        if k > 0 {
            par_rows_mut(packed_b, npanels, kp2 * NR * 2, 1, |range, chunk| {
                for (local, jp) in range.enumerate() {
                    let j0 = jp * NR;
                    pack_qb_panel(
                        b,
                        j0,
                        NR.min(n - j0),
                        k,
                        &mut chunk[local * kp2 * NR * 2..(local + 1) * kp2 * NR * 2],
                    );
                }
            });
        }

        // Compute over disjoint whole-tile row ranges; the weight tiles
        // are already packed, so workers go straight to the microkernel.
        let be = backend::active();
        let packed_b = &*packed_b;
        par_rows_mut(acc, tiles, MR * n, QMC_TILES, |tile_range, chunk| {
            for (local, t) in tile_range.enumerate() {
                let ap = &a.data[t * tile_len..(t + 1) * tile_len];
                let crows = &mut chunk[local * MR * n..(local + 1) * MR * n];
                for jp in 0..npanels {
                    let j0 = jp * NR;
                    let jn = NR.min(n - j0);
                    let mut tile_acc = [[0i32; NR]; MR];
                    backend::qmicrokernel_with(
                        be,
                        kp2,
                        ap,
                        &packed_b[jp * kp2 * NR * 2..(jp + 1) * kp2 * NR * 2],
                        &mut tile_acc,
                    );
                    for (i, arow) in tile_acc.iter().enumerate() {
                        crows[i * n + j0..i * n + j0 + jn].copy_from_slice(&arow[..jn]);
                    }
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::super::reference::qmatmul_naive as naive;
    use super::*;

    #[test]
    fn qgemm_matches_direct_definition() {
        for &(m, n, k, zp) in &[(1, 1, 1, 0), (3, 5, 7, -4), (8, 8, 16, 3), (13, 21, 9, 127)] {
            let w: Vec<i8> = (0..m * k).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let b: Vec<i8> = (0..k * n).map(|i| ((i * 53 + 5) % 251) as i8).collect();
            let scales = vec![1.0f32; m];
            let packed = PackedQMat::pack(&w, m, k, &scales);
            let mut acc = vec![0i32; packed.tiles() * MR * n];
            qgemm(
                &packed,
                &QOperand::Strided {
                    data: &b,
                    rs: n,
                    cs: 1,
                    zp,
                },
                n,
                &mut acc,
            );
            let want = naive(&w, m, k, &b, n, zp);
            for i in 0..m {
                assert_eq!(
                    &acc[i * n..(i + 1) * n],
                    &want[i * n..(i + 1) * n],
                    "row {i} of {m}x{n}x{k} zp={zp}"
                );
            }
        }
    }

    #[test]
    fn nchw_operand_matches_strided_equivalent() {
        let (n_imgs, c, hw) = (2usize, 3usize, 4usize);
        let data: Vec<i8> = (0..n_imgs * c * hw)
            .map(|i| (i as i8).wrapping_mul(7))
            .collect();
        // Channel-major equivalent (C x N*HW) materialized by hand.
        let cols = n_imgs * hw;
        let mut mat = vec![0i8; c * cols];
        for img in 0..n_imgs {
            for ch in 0..c {
                for p in 0..hw {
                    mat[ch * cols + img * hw + p] = data[(img * c + ch) * hw + p];
                }
            }
        }
        let w: Vec<i8> = (0..2 * c).map(|i| i as i8 + 1).collect();
        let packed = PackedQMat::pack(&w, 2, c, &[1.0, 1.0]);
        let mut a1 = vec![0i32; packed.tiles() * MR * cols];
        let mut a2 = a1.clone();
        qgemm(
            &packed,
            &QOperand::Nchw {
                data: &data,
                c,
                hw,
                zp: -3,
            },
            cols,
            &mut a1,
        );
        qgemm(
            &packed,
            &QOperand::Strided {
                data: &mat,
                rs: cols,
                cs: 1,
                zp: -3,
            },
            cols,
            &mut a2,
        );
        assert_eq!(a1, a2);
    }

    #[test]
    fn im2col_operand_matches_materialized_matrix() {
        // Covers both panel kinds: geometries with ow >= NR take the
        // blocked same-output-row fast path (even c, full and partial
        // x-runs), the rest (ow < NR, odd c) fall back to the per-element
        // walk. The oracle materializes the im2col matrix by the defining
        // `(ky, kx, ci)`-ordered sample walk and runs the Strided path.
        for &(n_imgs, c, h, w, kh, kw, stride, pad) in &[
            (
                2usize, 4usize, 9usize, 16usize, 3usize, 3usize, 1usize, 1usize,
            ),
            (1, 6, 16, 16, 3, 3, 2, 1),
            (2, 3, 8, 8, 3, 3, 1, 1),
            (1, 4, 7, 5, 2, 2, 1, 0),
            (1, 2, 16, 16, 5, 5, 1, 2),
        ] {
            let (oh, ow) = (
                (h + 2 * pad - kh) / stride + 1,
                (w + 2 * pad - kw) / stride + 1,
            );
            let (k, n) = (c * kh * kw, n_imgs * oh * ow);
            let data: Vec<i8> = (0..n_imgs * c * h * w)
                .map(|i| ((i * 89 + 31) % 255) as i8)
                .collect();
            let zp = -5;
            let view = QIm2col {
                data: &data,
                c,
                h,
                w,
                kh,
                kw,
                stride,
                pad,
                oh,
                ow,
                zp,
            };
            // Materialize B by the defining walk (zero-point folded back
            // in so the Strided oracle re-applies it identically).
            let mut mat = vec![0i8; k * n];
            for (p, row) in mat.chunks_exact_mut(n).enumerate() {
                let ci = p % c;
                let (ky, kx) = ((p / c) / kw, (p / c) % kw);
                for (j, slot) in row.iter_mut().enumerate() {
                    let img = j / (oh * ow);
                    let rem = j % (oh * ow);
                    let (iy, ix) = ((rem / ow) * stride + ky, (rem % ow) * stride + kx);
                    *slot = (i32::from(view.sample(img, ci, iy, ix)) + zp) as i8;
                }
            }
            let wts: Vec<i8> = (0..10 * k).map(|i| ((i * 23 + 7) % 253) as i8).collect();
            let packed = PackedQMat::pack(&wts, 10, k, &[1.0f32; 10]);
            let mut got = vec![0i32; packed.tiles() * MR * n];
            let mut want = got.clone();
            qgemm(&packed, &QOperand::Im2col(view), n, &mut got);
            qgemm(
                &packed,
                &QOperand::Strided {
                    data: &mat,
                    rs: n,
                    cs: 1,
                    zp,
                },
                n,
                &mut want,
            );
            assert_eq!(
                got, want,
                "im2col {n_imgs}x{c}x{h}x{w} k{kh}x{kw} s{stride} p{pad}"
            );
        }
    }
}
