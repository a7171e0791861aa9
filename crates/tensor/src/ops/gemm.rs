//! Cache-blocked, register-tiled GEMM core.
//!
//! Every matmul variant ([`super::matmul`], [`super::matmul_bt`],
//! [`super::matmul_at`]) and the fused-im2col convolution kernels in
//! [`super::conv`] lower onto [`gemm`] here. The structure is the classic
//! packed-panel design:
//!
//! * B is packed into panel-major storage: panels of [`NR`] columns, each
//!   laid out `bp[p * NR + j]` so the microkernel streams it sequentially.
//!   Packing is where operand layout is absorbed — a panel source can be a
//!   strided matrix, a strided transpose, or the *virtual* im2col matrix
//!   of an NCHW image batch (never materialized).
//! * A is packed per [`MR`]-row tile as `ap[p * MR + i]`, also sequential
//!   in the k loop.
//! * The microkernel keeps an `MR x NR` accumulator block in registers and
//!   performs one rank-1 update per k step.
//!
//! The schedule is fixed: all of B is packed once, every tile walks the
//! full reduction, and workers take [`MC`]-row chunks of the output.
//!
//! # Reduction order is load-bearing
//!
//! Each output element is accumulated in a **single chain over strictly
//! increasing `k`** — there is no split-k reassociation and no `mul_add`
//! (FMA rounds differently). Threads only ever divide the output into
//! disjoint row ranges. Consequently results are bit-exact across
//! `LECA_THREADS` settings, which is what the determinism test suite pins
//! down.

use crate::backend::{self, MR, NR};
use crate::parallel::par_rows_mut;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packed-B scratch, reused across [`gemm`] calls so the
    /// steady state allocates nothing. Distinct from [`A_SCRATCH`] because
    /// the calling thread holds this borrow across the compute stage while
    /// also participating in the worker pool.
    static B_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-A tile scratch (one per pool worker and one for
    /// the calling thread).
    static A_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Geometry of a virtual im2col matrix `(C*kh*kw, N*oh*ow)` over an NCHW
/// batch. Element `(r, col)` with `r = (ci*kh + ky)*kw + kx` and
/// `col = (img*oh + oy)*ow + ox` reads
/// `data[img, ci, oy*stride + ky - pad, ox*stride + kx - pad]`, or zero
/// when that lands in the padding.
#[derive(Clone, Copy)]
pub(crate) struct Im2colView<'a> {
    pub data: &'a [f32],
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

impl Im2colView<'_> {
    #[inline]
    fn sample(&self, img: usize, ci: usize, iy: usize, ix: usize) -> f32 {
        // iy/ix arrive pre-offset by the kernel position but not yet by
        // padding; anything outside the image reads as zero.
        match (iy.checked_sub(self.pad), ix.checked_sub(self.pad)) {
            (Some(y), Some(x)) if y < self.h && x < self.w => {
                self.data[((img * self.c + ci) * self.h + y) * self.w + x]
            }
            _ => 0.0,
        }
    }

    /// [`Im2colView::sample`] with the padding branch hoisted out: valid
    /// only when `pad == 0`, where the output geometry proves every sample
    /// in-bounds (`(oh-1)*stride + kh - 1 <= h - 1` and likewise for
    /// width), so the bounds check per element disappears.
    #[inline]
    fn sample_unpadded(&self, img: usize, ci: usize, iy: usize, ix: usize) -> f32 {
        debug_assert_eq!(self.pad, 0);
        debug_assert!(iy < self.h && ix < self.w);
        self.data[((img * self.c + ci) * self.h + iy) * self.w + ix]
    }
}

/// A read-only `(rows, cols)` matrix operand for the B side of [`gemm`].
pub(crate) enum Operand<'a> {
    /// `get(i, j) = data[i * rs + j * cs]`.
    Strided {
        data: &'a [f32],
        rs: usize,
        cs: usize,
    },
    /// The virtual im2col matrix of `view` (shape `C*kh*kw x N*oh*ow`).
    Im2col(Im2colView<'a>),
    /// The transpose of [`Operand::Im2col`] (shape `N*oh*ow x C*kh*kw`).
    Im2colT(Im2colView<'a>),
}

/// Packs columns `j0 .. j0+jn` of operand `b` (logical shape `k x n`) into
/// `dst[p * NR + jj]`. Columns beyond `jn` stay zero (caller pre-zeroes).
fn pack_b_panel(b: &Operand, j0: usize, jn: usize, k: usize, dst: &mut [f32]) {
    match b {
        Operand::Strided { data, rs, cs } => {
            for p in 0..k {
                let row = p * rs + j0 * cs;
                let d = &mut dst[p * NR..p * NR + jn];
                if *cs == 1 {
                    d.copy_from_slice(&data[row..row + jn]);
                } else {
                    for (jj, v) in d.iter_mut().enumerate() {
                        *v = data[row + jj * cs];
                    }
                }
            }
        }
        Operand::Im2col(v) => {
            // Rows iterate (ci, ky, kx); the panel's columns are fixed
            // output positions (img, oy, ox), precomputed once.
            let mut cols = [(0usize, 0usize, 0usize); NR];
            for (jj, slot) in cols.iter_mut().take(jn).enumerate() {
                let col = j0 + jj;
                let img = col / (v.oh * v.ow);
                let rem = col % (v.oh * v.ow);
                *slot = (img, (rem / v.ow) * v.stride, (rem % v.ow) * v.stride);
            }
            let (mut ci, mut ky, mut kx) = (0, 0, 0);
            for p in 0..k {
                let d = &mut dst[p * NR..p * NR + jn];
                if v.pad == 0 {
                    // Padding branch hoisted: zero-pad geometry can never
                    // sample outside the image (see `sample_unpadded`).
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (img, ybase, xbase) = cols[jj];
                        *v2 = v.sample_unpadded(img, ci, ybase + ky, xbase + kx);
                    }
                } else {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (img, ybase, xbase) = cols[jj];
                        *v2 = v.sample(img, ci, ybase + ky, xbase + kx);
                    }
                }
                kx += 1;
                if kx == v.kw {
                    kx = 0;
                    ky += 1;
                    if ky == v.kh {
                        ky = 0;
                        ci += 1;
                    }
                }
            }
        }
        Operand::Im2colT(v) => {
            // Rows iterate output positions (img, oy, ox); columns are
            // fixed kernel taps (ci, ky, kx), precomputed once.
            let mut taps = [(0usize, 0usize, 0usize); NR];
            for (jj, slot) in taps.iter_mut().take(jn).enumerate() {
                let r = j0 + jj;
                *slot = (r / (v.kh * v.kw), (r / v.kw) % v.kh, r % v.kw);
            }
            let (mut img, mut oy, mut ox) = (0, 0, 0);
            for p in 0..k {
                let (ybase, xbase) = (oy * v.stride, ox * v.stride);
                let d = &mut dst[p * NR..p * NR + jn];
                if v.pad == 0 {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (ci, ky, kx) = taps[jj];
                        *v2 = v.sample_unpadded(img, ci, ybase + ky, xbase + kx);
                    }
                } else {
                    for (jj, v2) in d.iter_mut().enumerate() {
                        let (ci, ky, kx) = taps[jj];
                        *v2 = v.sample(img, ci, ybase + ky, xbase + kx);
                    }
                }
                ox += 1;
                if ox == v.ow {
                    ox = 0;
                    oy += 1;
                    if oy == v.oh {
                        oy = 0;
                        img += 1;
                    }
                }
            }
        }
    }
}

/// Packs rows `i0 .. i0+im`, all `k` reduction columns, of the strided A
/// operand into `ap[p * MR + i]`, zero-filling the `im..MR`
/// padding rows.
///
/// The edge-tile padding branch is hoisted out of the per-element loop:
/// each column is a `0..im` copy body plus an explicit `im..MR` zero-fill
/// tail. With `rs == 1` (a transposed-A view, where rows are contiguous)
/// the body collapses to a `copy_from_slice`.
fn pack_a_tile(data: &[f32], rs: usize, cs: usize, i0: usize, im: usize, k: usize, ap: &mut [f32]) {
    if rs == 1 {
        for p in 0..k {
            let src = i0 + p * cs;
            let d = &mut ap[p * MR..(p + 1) * MR];
            let (body, tail) = d.split_at_mut(im);
            body.copy_from_slice(&data[src..src + im]);
            tail.fill(0.0);
        }
    } else {
        for p in 0..k {
            let col = p * cs;
            let d = &mut ap[p * MR..(p + 1) * MR];
            let (body, tail) = d.split_at_mut(im);
            for (i, v) in body.iter_mut().enumerate() {
                *v = data[(i0 + i) * rs + col];
            }
            tail.fill(0.0);
        }
    }
}

/// Minimum rows of A (and of the output) per parallel worker chunk.
const MC: usize = 32;

/// `out = A · B` where `A` is the strided `(m, k)` view
/// `a_data[i * a_rs + p * a_cs]` and `B` is any [`Operand`] of shape
/// `(k, n)`. `out` must be an `m * n` row-major buffer (every element is
/// overwritten, with zeros when `k == 0`).
#[allow(clippy::too_many_arguments)] // flat (dims, strides) signature keeps call sites allocation-free
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a_data: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &Operand,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "gemm output buffer mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let npanels = n.div_ceil(NR);

    // The backend handle is hoisted here, once per gemm call, and threaded
    // into the microkernel loop (all registered backends are bit-identical
    // — see `crate::backend`).
    let be = backend::active();

    B_SCRATCH.with(|cell| {
        let mut packed_b = cell.borrow_mut();
        // Pack all of B into the thread-local scratch: clear + resize-zero
        // reproduces a fresh `vec![0.0; ..]` bit for bit (pack_b_panel
        // relies on zeroed padding beyond edge panels) without reallocating
        // once warm.
        packed_b.clear();
        packed_b.resize(npanels * k * NR, 0.0);
        if k > 0 {
            par_rows_mut(&mut packed_b, npanels, k * NR, 1, |range, chunk| {
                for (local, jp) in range.enumerate() {
                    let j0 = jp * NR;
                    pack_b_panel(
                        b,
                        j0,
                        NR.min(n - j0),
                        k,
                        &mut chunk[local * k * NR..(local + 1) * k * NR],
                    );
                }
            });
        }

        // Compute over disjoint output row ranges; each worker packs its
        // own A tiles (per-thread scratch; pack_a_tile overwrites every
        // element including the zero padding, so no re-zeroing is needed).
        // Tile edges only change *which* worker computes an element, never
        // its reduction order, so any split is bit-identical. With `k == 0`
        // the microkernel runs no steps and the zeroed `acc` is stored.
        let packed_b = &*packed_b;
        par_rows_mut(out, m, n, MC, |rows, chunk| {
            A_SCRATCH.with(|apc| {
                let mut ap = apc.borrow_mut();
                if ap.len() < k * MR {
                    ap.resize(k * MR, 0.0);
                }
                let (r0, r1) = (rows.start, rows.end);
                let mut i0 = r0;
                while i0 < r1 {
                    let im = MR.min(r1 - i0);
                    pack_a_tile(a_data, a_rs, a_cs, i0, im, k, &mut ap);
                    for jp in 0..npanels {
                        let j0 = jp * NR;
                        let jn = NR.min(n - j0);
                        let mut acc = [[0.0f32; NR]; MR];
                        backend::microkernel_with(
                            be,
                            k,
                            &ap,
                            &packed_b[jp * k * NR..(jp + 1) * k * NR],
                            &mut acc,
                        );
                        for (i, arow) in acc.iter().enumerate().take(im) {
                            let row = (i0 - r0 + i) * n + j0;
                            chunk[row..row + jn].copy_from_slice(&arow[..jn]);
                        }
                    }
                    i0 += im;
                }
            });
        });
    });
}
