//! im2col-based 2-D convolution (forward + both gradients) and the
//! transposed convolution, which is its adjoint.
//!
//! Layouts follow the PyTorch convention:
//!
//! * activations: `(N, C, H, W)`
//! * `conv2d` weights: `(O, C, kh, kw)`
//! * `conv_transpose2d` weights: `(C_in, O, kh, kw)`
//!
//! The im2col matrix has shape `(C*kh*kw, N*oh*ow)` with column index
//! `n*oh*ow + oy*ow + ox`, so one matrix multiplication covers the whole
//! batch.
//!
//! A conv weight `(O, C, kh, kw)` read as a transposed-conv weight has
//! `C_in = O` and `O = C`, and under that role swap
//! `conv_transpose2d(x, w)` *is* `conv2d_grad_input(x, w)`, its input
//! gradient is `conv2d(g, w)` and its weight gradient is
//! `conv2d_grad_weight(g, x)`. So every op here runs on three drivers:
//!
//! * [`conv_nchw`] (forward) never materializes the im2col matrix: the
//!   weights are packed into `MR`-row tiles once per call; then, per
//!   image, every weight tile's microkernel runs on one `NR`-column panel
//!   of output positions at a time, and each accumulator row is stored
//!   straight into the `(N, O, oh, ow)` output with the bias fused as
//!   `acc + b`. Each image is first copied once into a zero-padded copy
//!   split by stride phase ([`PhaseSplit`]), so one tap's panel row over
//!   the outputs of one output row is a contiguous run at every stride,
//!   found through a per-call table of row offsets. A panel inside one
//!   output row is read in place from that copy; a panel straddling
//!   output rows is gathered from it into a thread-local `(ci, ky, kx) x
//!   NR` block that stays in L1. Padding is decided only when the copy is
//!   made. Work is split over image × output-channel tile.
//! * [`scatter_nchw`] (input gradient, transposed forward) multiplies the
//!   channel-major input by `Wᵀ` on the blocked GEMM in [`super::gemm`]
//!   into a thread-local column matrix, then scatter-adds it into NCHW.
//! * [`conv2d_grad_weight`] hands that GEMM a *virtual* transposed im2col
//!   view.
//!
//! The standalone [`im2col`] remains as the tests' oracle.

use super::gemm::{gemm, pack_a_tile, with_rows, Im2colView, Operand};
use crate::backend::{self, MR, NR};
use crate::parallel::{par_blocks_mut, par_rows_mut};
use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Scratch for the `(C, N*H*W)` channel-major matrix of
    /// [`with_channel_major`], reused across calls so the steady state
    /// allocates nothing.
    static MAT_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Scratch for the `(O*kh*kw, N*H*W)` column matrix of
    /// [`scatter_nchw`]; distinct from [`MAT_SCRATCH`] because both are
    /// live at once.
    static COLS_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The calling thread's packed weight tiles for [`conv_nchw`], held
    /// across the parallel region while this thread also packs panels.
    static WEIGHT_TILES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread zero-padded, phase-split copy of the current image for
    /// [`conv_nchw`], followed by its `k x NR` gathered panel (one per pool
    /// worker and one for the calling thread).
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Spatial geometry shared by the convolution kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same for both axes).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Output height/width of a forward convolution with this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel exceeds the
    /// padded input or the stride is zero.
    pub fn out_dims(&self) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "stride must be non-zero".into(),
            ));
        }
        let ph = self.in_h + 2 * self.pad;
        let pw = self.in_w + 2 * self.pad;
        if self.kh == 0 || self.kw == 0 || self.kh > ph || self.kw > pw {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} larger than padded input {}x{}",
                self.kh, self.kw, ph, pw
            )));
        }
        Ok((
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        ))
    }
}

fn expect_rank4(op: &'static str, t: &Tensor) -> Result<[usize; 4]> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.rank(),
        });
    }
    let d = t.shape();
    Ok([d[0], d[1], d[2], d[3]])
}

/// Runs `f` on the rank-4 `x: (N, C, H, W)` permuted into the `(C, N*H*W)`
/// channel-major matrix, staged in [`MAT_SCRATCH`].
fn with_channel_major<R>(x: &Tensor, f: impl FnOnce(&[f32]) -> R) -> R {
    let (n, c, hw) = (x.shape()[0], x.shape()[1], x.shape()[2] * x.shape()[3]);
    let src = x.as_slice();
    MAT_SCRATCH.with(|cell| {
        let mut dst = cell.borrow_mut();
        dst.clear();
        dst.resize(c * n * hw, 0.0);
        for ci in 0..c {
            for ni in 0..n {
                let s = &src[(ni * c + ci) * hw..(ni * c + ci + 1) * hw];
                dst[ci * n * hw + ni * hw..ci * n * hw + (ni + 1) * hw].copy_from_slice(s);
            }
        }
        f(&dst)
    })
}

/// Builds the virtual im2col view of `x` for panel packing,
/// validating the geometry. Returns the view and the output grid.
fn im2col_view(
    x: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(Im2colView<'_>, usize, usize)> {
    let [_, c, h, w] = expect_rank4("im2col", x)?;
    let geom = Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    };
    let (oh, ow) = geom.out_dims()?;
    Ok((
        Im2colView {
            data: x.as_slice(),
            c,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        },
        oh,
        ow,
    ))
}

/// Unfolds `x: (N, C, H, W)` into the im2col matrix `(C*kh*kw, N*oh*ow)`.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Errors
///
/// Returns an error for non-rank-4 input or invalid geometry.
pub fn im2col(x: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Result<Tensor> {
    let [n, c, h, w] = expect_rank4("im2col", x)?;
    let (_, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    let rows = c * kh * kw;
    let cols_per_sample = oh * ow;
    let row_len = n * cols_per_sample;
    let mut cols = Tensor::zeros(&[rows, row_len]);
    let src = x.as_slice();
    par_rows_mut(cols.as_mut_slice(), rows, row_len, 4, |range, chunk| {
        for (local, r) in range.enumerate() {
            let ci = r / (kh * kw);
            let ky = (r / kw) % kh;
            let kx = r % kw;
            let dst = &mut chunk[local * row_len..(local + 1) * row_len];
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    let iy = match iy.checked_sub(pad) {
                        Some(v) if v < h => v,
                        _ => continue,
                    };
                    for ox in 0..ow {
                        let ix = ox * stride + kx;
                        let ix = match ix.checked_sub(pad) {
                            Some(v) if v < w => v,
                            _ => continue,
                        };
                        dst[ni * cols_per_sample + oy * ow + ox] = src[base + iy * w + ix];
                    }
                }
            }
        }
    });
    Ok(cols)
}

/// Forward 2-D convolution: `x (N,C,H,W) * w (O,C,kh,kw) [+ bias (O)]`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(&conv2d_out_shape(x, weight, stride, pad)?);
    conv2d_into(x, weight, bias, stride, pad, &mut out)?;
    Ok(out)
}

/// Output shape `(N, O, oh, ow)` of [`conv2d`] for these operands.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-rank-4 `x` or `weight`
/// and [`TensorError::InvalidGeometry`] as [`Conv2dGeometry::out_dims`].
pub fn conv2d_out_shape(
    x: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<[usize; 4]> {
    let [n, _, _, _] = expect_rank4("conv2d", x)?;
    let [o, _, kh, kw] = expect_rank4("conv2d", weight)?;
    let (_, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    Ok([n, o, oh, ow])
}

/// [`conv2d`] writing into the caller-provided `(N, O, oh, ow)` tensor
/// `out`, bit-identical to the allocating variant. Tiles are stored
/// straight into `out`, and the packed weights and im2col panels live in
/// thread-local scratch, so a warm call allocates nothing.
///
/// # Errors
///
/// As [`conv2d`], plus [`TensorError::ShapeMismatch`] when `out` has the
/// wrong shape.
pub fn conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<()> {
    let [n, c, _, _] = expect_rank4("conv2d", x)?;
    let [o, wc, kh, kw] = expect_rank4("conv2d", weight)?;
    if wc != c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let (view, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    if out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d bias",
                lhs: b.shape().to_vec(),
                rhs: vec![o],
            });
        }
    }
    conv_nchw(
        &view,
        n,
        weight.as_slice(),
        o,
        bias.map(Tensor::as_slice),
        out.as_mut_slice(),
    );
    Ok(())
}

/// Forward driver of [`conv2d_into`]: with `a` the row-major
/// `(m, C*kh*kw)` weight matrix, writes
/// `out[img, o, oy, ox] = Σ_p a[o, p] · im2col(v)[p, (img, oy, ox)]`, plus
/// `bias[o]`, into the `(n, m, oh, ow)` buffer `out`.
///
/// Each image is first copied once per worker into its zero-padded,
/// stride-phase-split [`PhaseSplit`] form in [`PANEL`], with `NR` floats
/// of zero slack. Panel row `(ci, ky, kx)` at output `(oy, ox..ox + jn)`
/// is then the run starting at `taps[p] + at(oy, ox)`, with `taps` the
/// per-call table of [`PhaseSplit::tap`] offsets. The microkernel takes B
/// as `(b, rows)`, panel row `p` at `b[rows[p]..]`, from one of two
/// sources:
///
/// * **In place (a panel inside one output row), at every stride.** `b`
///   is the padded copy from `at(oy, ox)` on and `rows` is `taps`. A
///   partial panel at the end of the last plane reads up to `NR - 1`
///   floats past it, into the slack, for lanes the store drops.
/// * **Gathered (a panel straddling output rows).** [`gather_panel`]
///   writes the `k x NR` block `padded[taps[p] + cols[jj]]` and
///   `rows[p] = p·NR`.
///
/// Both sources hold the same values, image or `0.0` padding, so every
/// output element is one microkernel chain over increasing `p`
/// (`(ci, ky, kx)` order) starting from `0.0`, followed by the single
/// rounding `acc + b` when there is a bias. Tiling, the B source and the
/// thread split only decide *who* computes an element and from where it
/// reads, never how, so results are bit-identical across `LECA_THREADS`
/// and the bit-exact backends, and every element is overwritten.
fn conv_nchw(v: &Im2colView, n: usize, a: &[f32], m: usize, bias: Option<&[f32]>, out: &mut [f32]) {
    let k = v.c * v.kh * v.kw;
    let ohw = v.oh * v.ow;
    assert_eq!(a.len(), m * k, "conv weight matrix mismatch");
    assert_eq!(out.len(), n * m * ohw, "conv output buffer mismatch");
    if out.is_empty() {
        return;
    }
    let mtiles = m.div_ceil(MR);
    let be = backend::active();
    let ph = PhaseSplit::new(v.h, v.w, v.kh, v.kw, v.stride, v.pad);
    let packed_rows = (0..k).map(|p| p * NR);
    let taps = (0..v.c).flat_map(|ci| {
        (0..v.kh).flat_map(move |ky| (0..v.kw).map(move |kx| ci * ph.block() + ph.tap(ky, kx)))
    });
    let padded_len = v.c * ph.block() + NR;
    WEIGHT_TILES.with(|cell| {
        let mut tiles = cell.borrow_mut();
        if tiles.len() < mtiles * k * MR {
            tiles.resize(mtiles * k * MR, 0.0);
        }
        // pack_a_tile overwrites whole tiles, zero padding rows included.
        for t in 0..mtiles {
            let tile = &mut tiles[t * k * MR..(t + 1) * k * MR];
            pack_a_tile(a, k, 1, t * MR, MR.min(m - t * MR), k, tile);
        }
        let tiles = &tiles[..mtiles * k * MR];
        with_rows(packed_rows.chain(taps), |rows| {
            let (packed_rows, taps) = rows.split_at(k);
            par_blocks_mut(out, n, m, MR, ohw, 1, |units, base, chunk| {
                PANEL.with(|pc| {
                    let mut scratch = pc.borrow_mut();
                    if scratch.len() < k * NR + padded_len {
                        scratch.resize(k * NR + padded_len, 0.0);
                    }
                    let (padded, panel) = scratch.split_at_mut(padded_len);
                    let panel = &mut panel[..k * NR];
                    let mut u = units.start;
                    while u < units.end {
                        let img = u / mtiles;
                        let (t0, t1) = (u % mtiles, mtiles.min(units.end - img * mtiles));
                        pad_image(v, &ph, img, padded);
                        for j0 in (0..ohw).step_by(NR) {
                            let jn = NR.min(ohw - j0);
                            let (oy, ox) = (j0 / v.ow, j0 % v.ow);
                            let (b, b_rows): (&[f32], &[usize]) = if ox + jn <= v.ow {
                                (&padded[ph.at(oy, ox)..], taps)
                            } else {
                                gather_panel::<_, 1>(padded, taps, &ph.cols(v.ow, j0, jn), panel);
                                (panel, packed_rows)
                            };
                            for t in t0..t1 {
                                let mut acc = [[0.0f32; NR]; MR];
                                be.microkernel(
                                    k,
                                    &tiles[t * k * MR..(t + 1) * k * MR],
                                    b,
                                    b_rows,
                                    &mut acc,
                                );
                                for (i, row) in acc.iter().enumerate().take(MR.min(m - t * MR)) {
                                    let o = t * MR + i;
                                    let at = (img * m + o) * ohw + j0 - base;
                                    let dst = &mut chunk[at..at + jn];
                                    match bias {
                                        Some(b) => {
                                            for (d, &x) in dst.iter_mut().zip(&row[..jn]) {
                                                *d = x + b[o];
                                            }
                                        }
                                        None => dst.copy_from_slice(&row[..jn]),
                                    }
                                }
                            }
                        }
                        u += t1 - t0;
                    }
                });
            });
        });
    });
}

/// The zero-padded, stride-phase-split copy of one conv input image that
/// both forward drivers read, [`conv_nchw`] (f32) and
/// [`super::qconv::qconv`] (int8 channel pairs).
///
/// Padded pixel `(y, x)` of a channel, image pixel `(y - pad, x - pad)` or
/// zero, is stored in phase plane `(y % s, x % s)` at `(y / s, x / s)`.
/// A channel's block is `(ny, nx, hq, wq)` with `hq = ⌈Hp/s⌉` and
/// `wq = ⌈Wp/s⌉`; it holds the `ny = min(s, kh)` by `nx = min(s, kw)`
/// phases a kernel tap reads (all `s x s` for a 3×3 kernel at stride 2 or
/// 3, only the first for a 1×1 stride-2 shortcut). At stride 1 this is the
/// plain `(Hp, Wp)` padded plane.
///
/// Tap `(ky, kx)` at output `(oy, ox + jj)` reads pixel
/// `tap(ky, kx) + at(oy, ox) + jj`: for a fixed tap, outputs along one
/// output row are one contiguous run at every stride.
#[derive(Clone, Copy)]
pub(crate) struct PhaseSplit {
    h: usize,
    w: usize,
    pad: usize,
    s: usize,
    ny: usize,
    nx: usize,
    hq: usize,
    wq: usize,
    block: usize,
}

impl PhaseSplit {
    pub(crate) fn new(h: usize, w: usize, kh: usize, kw: usize, s: usize, pad: usize) -> Self {
        let (hq, wq) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
        let (ny, nx) = (s.min(kh), s.min(kw));
        PhaseSplit {
            h,
            w,
            pad,
            s,
            ny,
            nx,
            hq,
            wq,
            block: ny * nx * hq * wq,
        }
    }

    /// Pixels in one channel's block.
    pub(crate) fn block(&self) -> usize {
        self.block
    }

    /// Offset of kernel tap `(ky, kx)` within a channel's block, at output
    /// `(0, 0)`.
    pub(crate) fn tap(&self, ky: usize, kx: usize) -> usize {
        let phase = (ky % self.s) * self.nx + kx % self.s;
        (phase * self.hq + ky / self.s) * self.wq + kx / self.s
    }

    /// Offset of output `(oy, ox)` added to every tap offset.
    pub(crate) fn at(&self, oy: usize, ox: usize) -> usize {
        oy * self.wq + ox
    }

    /// [`PhaseSplit::at`] of outputs `j0 .. j0 + jn` of a row-major grid
    /// `ow` wide, and `0` (any valid offset) for the lanes past `jn`.
    pub(crate) fn cols(&self, ow: usize, j0: usize, jn: usize) -> [usize; NR] {
        let mut cols = [0; NR];
        for (jj, c) in cols.iter_mut().take(jn).enumerate() {
            *c = self.at((j0 + jj) / ow, (j0 + jj) % ow);
        }
        cols
    }

    /// Writes one channel's block into `dst` (`block() * lanes` elements,
    /// `lanes` per pixel). Every pixel outside the image is `zero`; each
    /// run of in-image pixels along a phase row is handed to
    /// `copy(y, x0, run)`, which fills it from image row `y`, columns
    /// `x0, x0 + s, ...`. This is the only place that decides padding.
    pub(crate) fn fill<T: Copy>(
        &self,
        dst: &mut [T],
        lanes: usize,
        zero: T,
        mut copy: impl FnMut(usize, usize, &mut [T]),
    ) {
        let mut rows = dst.chunks_exact_mut(self.wq * lanes);
        for py in 0..self.ny {
            for px in 0..self.nx {
                // Phase columns lo..hi hold image columns x0, x0 + s, ...
                let lo = self.pad.saturating_sub(px).div_ceil(self.s);
                let hi = (self.pad + self.w).saturating_sub(px).div_ceil(self.s);
                for qy in 0..self.hq {
                    let d = rows.next().expect("a block holds ny·nx·hq rows");
                    match (qy * self.s + py).checked_sub(self.pad) {
                        Some(y) if y < self.h && lo < hi => {
                            let (left, rest) = d.split_at_mut(lo * lanes);
                            let (run, right) = rest.split_at_mut((hi - lo) * lanes);
                            for e in left.iter_mut().chain(right) {
                                *e = zero;
                            }
                            copy(y, lo * self.s + px - self.pad, run);
                        }
                        _ => d.fill(zero),
                    }
                }
            }
        }
    }
}

/// Copies image `img` into `dst` as its [`PhaseSplit`] channel blocks,
/// followed by zeros to the end of `dst` (the slack past the last block).
fn pad_image(v: &Im2colView, ph: &PhaseSplit, img: usize, dst: &mut [f32]) {
    let plane = v.h * v.w;
    let (blocks, slack) = dst.split_at_mut(v.c * ph.block());
    for (ci, block) in blocks.chunks_exact_mut(ph.block()).enumerate() {
        let src = &v.data[(img * v.c + ci) * plane..(img * v.c + ci + 1) * plane];
        ph.fill(block, 1, 0.0, |y, x0, run| {
            copy_strided(run, &src[y * v.w + x0..(y + 1) * v.w], v.stride);
        });
    }
    slack.fill(0.0);
}

/// `run[q] = row[q * s]`, with the networks' strides 1 and 2 compiled as
/// constants: a copy and a de-interleave.
fn copy_strided(run: &mut [f32], row: &[f32], s: usize) {
    #[inline(always)]
    fn every(run: &mut [f32], row: &[f32], s: usize) {
        let row = &row[..(run.len() - 1) * s + 1];
        for (q, e) in run.iter_mut().enumerate() {
            *e = row[q * s];
        }
    }
    match s {
        1 => run.copy_from_slice(&row[..run.len()]),
        2 => every(run, row, 2),
        s => every(run, row, s),
    }
}

/// Gathers a panel straddling output rows from the padded image: panel
/// row `p` (`NR * L` elements) holds, for each lane `jj`, the `L`-wide
/// pixel at `padded[taps[p] + cols[jj] * L]`.
pub(crate) fn gather_panel<T: Copy, const L: usize>(
    padded: &[T],
    taps: &[usize],
    cols: &[usize; NR],
    panel: &mut [T],
) {
    for (d, &r) in panel.chunks_exact_mut(NR * L).zip(taps) {
        for (px, &c) in d.chunks_exact_mut(L).zip(cols) {
            px.copy_from_slice(&padded[r + c * L..][..L]);
        }
    }
}

/// Gradient of [`conv2d`] with respect to its input.
///
/// `x_shape` is the `(N, C, H, W)` shape of the original input. Input
/// positions no window reaches (trailing rows or columns a strided
/// convolution drops) get `+0.0`.
///
/// # Errors
///
/// Returns an error for rank mismatches or invalid geometry, and
/// [`TensorError::ShapeMismatch`] when `weight` does not fit `grad_out`,
/// or when `x_shape` is not `(N, C, H, W)` with `grad_out`'s `N`,
/// `weight`'s `C` and an `H x W` grid that convolves to `grad_out`'s.
pub fn conv2d_grad_input(
    grad_out: &Tensor,
    weight: &Tensor,
    x_shape: &[usize],
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let [n, o, oh, ow] = expect_rank4("conv2d_grad_input", grad_out)?;
    let [wo, c, kh, kw] = expect_rank4("conv2d_grad_input", weight)?;
    if wo != o {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_input",
            lhs: grad_out.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let x_mismatch = || TensorError::ShapeMismatch {
        op: "conv2d_grad_input x_shape",
        lhs: x_shape.to_vec(),
        rhs: grad_out.shape().to_vec(),
    };
    let &[xn, xc, in_h, in_w] = x_shape else {
        return Err(x_mismatch());
    };
    let geom = Conv2dGeometry {
        in_h,
        in_w,
        kh,
        kw,
        stride,
        pad,
    };
    if (xn, xc) != (n, c) || geom.out_dims()? != (oh, ow) {
        return Err(x_mismatch());
    }
    let mut gx = Tensor::zeros(x_shape);
    scatter_nchw(grad_out, weight.as_slice(), c, &geom, gx.as_mut_slice());
    Ok(gx)
}

/// Scatter driver of [`conv2d_grad_input`] and [`conv_transpose2d_into`]:
/// the adjoint of [`conv_nchw`]. With `a` the row-major `(Ci, O*kh*kw)`
/// weight matrix and `x: (N, Ci, gh, gw)` on the output grid of `geom`,
/// writes `col2im(aᵀ · x_mat)` into the `(N, O, geom.in_h, geom.in_w)`
/// buffer `out`, `x_mat` being `x`'s `(Ci, N*gh*gw)` channel-major matrix.
///
/// Each column entry is one GEMM chain over increasing `ci`. The scatter
/// then adds, per image, rows `(o, ky, kx)` in order, each over its grid in
/// row-major order, onto `0.0`; only images are split across threads, so
/// the result is bit-identical across `LECA_THREADS` and the bit-exact
/// backends, and every element of `out` is overwritten.
fn scatter_nchw(x: &Tensor, a: &[f32], o: usize, geom: &Conv2dGeometry, out: &mut [f32]) {
    let (n, ci, gh, gw) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let Conv2dGeometry {
        in_h: h,
        in_w: w,
        kh,
        kw,
        stride,
        pad,
    } = *geom;
    debug_assert_eq!(geom.out_dims().ok(), Some((gh, gw)), "scatter grid");
    let (okk, ngrid, chw) = (o * kh * kw, n * gh * gw, o * h * w);
    with_channel_major(x, |xmat| {
        COLS_SCRATCH.with(|cc| {
            let mut cols = cc.borrow_mut();
            cols.clear();
            cols.resize(okk * ngrid, 0.0);
            // cols = Wᵀ · xmat with W the (Ci, O*kh*kw) weight matrix,
            // expressed as a strided view exactly like `matmul_at`.
            gemm(
                okk,
                ngrid,
                ci,
                a,
                1,
                okk,
                &Operand::Strided {
                    data: xmat,
                    rs: ngrid,
                    cs: 1,
                },
                &mut cols,
            );
            out.fill(0.0);
            let cols = &*cols;
            // Parallel over samples: each worker owns a disjoint set of images.
            par_rows_mut(out, n, chw, 1, |range, chunk| {
                for (local, ni) in range.enumerate() {
                    let img = &mut chunk[local * chw..(local + 1) * chw];
                    for r in 0..okk {
                        let oi = r / (kh * kw);
                        let ky = (r / kw) % kh;
                        let kx = r % kw;
                        let srow = &cols[r * ngrid + ni * gh * gw..];
                        for oy in 0..gh {
                            let iy = oy * stride + ky;
                            let iy = match iy.checked_sub(pad) {
                                Some(v) if v < h => v,
                                _ => continue,
                            };
                            for ox in 0..gw {
                                let ix = ox * stride + kx;
                                let ix = match ix.checked_sub(pad) {
                                    Some(v) if v < w => v,
                                    _ => continue,
                                };
                                img[(oi * h + iy) * w + ix] += srow[oy * gw + ox];
                            }
                        }
                    }
                }
            });
        });
    });
}

/// Gradient of [`conv2d`] with respect to its weight: the weight-gradient
/// driver, `dW = dY_mat · im2col(x)ᵀ` on the blocked GEMM with the
/// transposed im2col consumed virtually by panel packing.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv2d_grad_weight(
    x: &Tensor,
    grad_out: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let [n, c, _, _] = expect_rank4("conv2d_grad_weight", x)?;
    let [gn, o, goh, gow] = expect_rank4("conv2d_grad_weight", grad_out)?;
    let (view, oh, ow) = im2col_view(x, kh, kw, stride, pad)?;
    if gn != n || (goh, gow) != (oh, ow) {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_grad_weight",
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    let (ckk, nohw) = (c * kh * kw, n * oh * ow);
    let mut grad_w = Tensor::zeros(&[o, c, kh, kw]);
    with_channel_major(grad_out, |gmat| {
        gemm(
            o,
            ckk,
            nohw,
            gmat,
            nohw,
            1,
            &Operand::Im2colT(view),
            grad_w.as_mut_slice(),
        );
    });
    Ok(grad_w)
}

/// Forward transposed convolution: `x (N,Ci,H,W) * w (Ci,O,kh,kw)`.
///
/// Output spatial size is `(H-1)*stride + k - 2*pad`; with `stride == k` and
/// `pad == 0` this is the exact K× upsampling used by the LeCA decoder.
/// It is the adjoint of [`conv2d`]: reading `w` as a conv weight
/// `(O', C', kh, kw)` with `O' = Ci` and `C' = O`, it equals
/// [`conv2d_grad_input`] (plus the bias), so its input gradient is
/// [`conv2d`]`(g, w)` and its weight gradient
/// [`conv2d_grad_weight`]`(g, x)`.
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or invalid geometry.
pub fn conv_transpose2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut out = Tensor::zeros(&conv_transpose2d_out_shape(x, weight, stride, pad)?);
    conv_transpose2d_into(x, weight, bias, stride, pad, &mut out)?;
    Ok(out)
}

/// Output shape `(N, O, oh, ow)` of [`conv_transpose2d`] for these
/// operands.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-rank-4 `x` or `weight`
/// and [`TensorError::InvalidGeometry`] for a zero stride, an empty input
/// grid or kernel, or a padding larger than the output.
pub fn conv_transpose2d_out_shape(
    x: &Tensor,
    weight: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<[usize; 4]> {
    let [n, _, h, w] = expect_rank4("conv_transpose2d", x)?;
    let [_, o, kh, kw] = expect_rank4("conv_transpose2d", weight)?;
    if stride == 0 || h == 0 || w == 0 || kh == 0 || kw == 0 {
        return Err(TensorError::InvalidGeometry(format!(
            "transposed conv: stride {stride}, input {h}x{w} and kernel {kh}x{kw} must be non-zero"
        )));
    }
    // (H-1)*s + k - 2*pad
    let too_large = || TensorError::InvalidGeometry("padding too large".into());
    let oh = ((h - 1) * stride + kh)
        .checked_sub(2 * pad)
        .ok_or_else(too_large)?;
    let ow = ((w - 1) * stride + kw)
        .checked_sub(2 * pad)
        .ok_or_else(too_large)?;
    Ok([n, o, oh, ow])
}

/// [`conv_transpose2d`] writing into the caller-provided `(N, O, oh, ow)`
/// tensor `out`, bit-identical to the allocating variant. It runs the
/// scatter driver, then adds the bias. The channel-major input matrix and
/// the scatter columns live in thread-local scratch, so a warm call
/// allocates nothing.
///
/// # Errors
///
/// As [`conv_transpose2d`], plus [`TensorError::ShapeMismatch`] when `out`
/// has the wrong shape.
pub fn conv_transpose2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<()> {
    let [_, ci, _, _] = expect_rank4("conv_transpose2d", x)?;
    let [wci, _, kh, kw] = expect_rank4("conv_transpose2d", weight)?;
    if wci != ci {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d",
            lhs: x.shape().to_vec(),
            rhs: weight.shape().to_vec(),
        });
    }
    let [n, o, oh, ow] = conv_transpose2d_out_shape(x, weight, stride, pad)?;
    if out.shape() != [n, o, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv_transpose2d_into",
            lhs: out.shape().to_vec(),
            rhs: vec![n, o, oh, ow],
        });
    }
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                op: "conv_transpose2d bias",
                lhs: b.shape().to_vec(),
                rhs: vec![o],
            });
        }
    }
    let geom = Conv2dGeometry {
        in_h: oh,
        in_w: ow,
        kh,
        kw,
        stride,
        pad,
    };
    scatter_nchw(x, weight.as_slice(), o, &geom, out.as_mut_slice());
    if let Some(b) = bias {
        let hw = oh * ow;
        let data = out.as_mut_slice();
        for ni in 0..n {
            for (oi, &bv) in b.as_slice().iter().enumerate() {
                crate::backend::add_scalar_inplace(
                    &mut data[(ni * o + oi) * hw..(ni * o + oi + 1) * hw],
                    bv,
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_conv2d(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Tensor {
        crate::ops::reference::conv2d_naive(x, w, stride, pad).unwrap()
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn geometry_out_dims() {
        let g = Conv2dGeometry {
            in_h: 8,
            in_w: 8,
            kh: 2,
            kw: 2,
            stride: 2,
            pad: 0,
        };
        assert_eq!(g.out_dims().unwrap(), (4, 4));
        let g = Conv2dGeometry {
            in_h: 5,
            in_w: 7,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_dims().unwrap(), (5, 7));
        let bad = Conv2dGeometry {
            in_h: 2,
            in_w: 2,
            kh: 5,
            kw: 5,
            stride: 1,
            pad: 0,
        };
        assert!(bad.out_dims().is_err());
        let bad = Conv2dGeometry {
            in_h: 2,
            in_w: 2,
            kh: 1,
            kw: 1,
            stride: 0,
            pad: 0,
        };
        assert!(bad.out_dims().is_err());
    }

    #[test]
    fn conv2d_matches_naive_stride1_pad1() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = Tensor::rand_uniform(&[2, 3, 6, 5], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 3, 3, 3], -1.0, 1.0, &mut rng);
        let got = conv2d(&x, &w, None, 1, 1).unwrap();
        assert_close(&got, &naive_conv2d(&x, &w, 1, 1), 1e-4);
    }

    #[test]
    fn conv2d_matches_naive_stride2_nonoverlapping() {
        // The LeCA encoder geometry: K x K kernel with stride K, no padding.
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[8, 3, 2, 2], -1.0, 1.0, &mut rng);
        let got = conv2d(&x, &w, None, 2, 0).unwrap();
        assert_eq!(got.shape(), &[1, 8, 4, 4]);
        assert_close(&got, &naive_conv2d(&x, &w, 2, 0), 1e-4);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]).unwrap();
        let out = conv2d(&x, &w, Some(&b), 1, 0).unwrap();
        assert_eq!(out.at4(0, 0, 1, 1), 1.5);
        assert_eq!(out.at4(0, 1, 0, 0), -2.0);
    }

    #[test]
    fn conv2d_channel_mismatch_errors() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[2, 4, 2, 2]);
        assert!(conv2d(&x, &w, None, 1, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel stride 1 makes im2col a pure permutation.
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let cols = im2col(&x, 1, 1, 1, 0).unwrap();
        assert_eq!(cols.shape(), &[3, 8]);
        assert_eq!(cols.at(&[1, 0]), x.at4(0, 1, 0, 0));
        assert_eq!(cols.at(&[2, 7]), x.at4(1, 2, 1, 1));
    }

    #[test]
    fn grad_input_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(14);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        // Loss = sum(conv(x, w)); dL/dx via kernel vs finite differences.
        let gout = Tensor::ones(&[1, 3, 2, 2]);
        let gx = conv2d_grad_input(&gout, &w, x.shape(), 2, 0).unwrap();
        let eps = 1e-3;
        for idx in [0usize, 5, 17, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv2d(&xp, &w, None, 2, 0).unwrap().sum();
            let fm = conv2d(&xm, &w, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn grad_weight_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(15);
        let x = Tensor::rand_uniform(&[2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[2, 3, 4, 4]);
        let gw = conv2d_grad_weight(&x, &gout, 3, 3, 1, 1).unwrap();
        assert_eq!(gw.shape(), w.shape());
        let eps = 1e-3;
        for idx in [0usize, 10, 25, 53] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fp = conv2d(&x, &wp, None, 1, 1).unwrap().sum();
            let fm = conv2d(&x, &wm, None, 1, 1).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 2e-2, "idx {idx}");
        }
    }

    #[test]
    fn conv_transpose_upsamples_by_stride() {
        // Single input pixel with value v produces a kxk block of v * kernel.
        let mut x = Tensor::zeros(&[1, 1, 2, 2]);
        x.set4(0, 0, 1, 0, 2.0);
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let out = conv_transpose2d(&x, &w, None, 2, 0).unwrap();
        assert_eq!(out.shape(), &[1, 1, 4, 4]);
        assert_eq!(out.at4(0, 0, 2, 0), 2.0);
        assert_eq!(out.at4(0, 0, 2, 1), 4.0);
        assert_eq!(out.at4(0, 0, 3, 0), 6.0);
        assert_eq!(out.at4(0, 0, 3, 1), 8.0);
        assert_eq!(out.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x, w), y> == <x, convT(y, w')> with w' the (O,C)->(C,O) swap.
        let mut rng = StdRng::seed_from_u64(16);
        let x = Tensor::rand_uniform(&[1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[3, 2, 2, 2], -1.0, 1.0, &mut rng);
        let y = Tensor::rand_uniform(&[1, 3, 3, 3], -1.0, 1.0, &mut rng);
        let lhs = conv2d(&x, &w, None, 2, 0).unwrap().mul(&y).unwrap().sum();
        // A conv weight (O,C,kh,kw) is a convT weight with Ci=O, O=C, so the
        // same tensor implements the adjoint operator directly.
        let rhs = conv_transpose2d(&y, &w, None, 2, 0)
            .unwrap()
            .mul(&x)
            .unwrap()
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_transpose_grad_input_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[1, 3, 6, 6]);
        // The transposed conv's input gradient is the forward conv.
        let gx = conv2d(&gout, &w, None, 2, 0).unwrap();
        assert_eq!(gx.shape(), x.shape());
        let eps = 1e-3;
        for idx in [0usize, 7, 12] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv_transpose2d(&xp, &w, None, 2, 0).unwrap().sum();
            let fm = conv_transpose2d(&xm, &w, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gx.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn conv_transpose_grad_weight_finite_difference() {
        let mut rng = StdRng::seed_from_u64(18);
        let x = Tensor::rand_uniform(&[1, 2, 3, 3], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[2, 3, 2, 2], -1.0, 1.0, &mut rng);
        let gout = Tensor::ones(&[1, 3, 6, 6]);
        // Its weight gradient is conv2d's with input and gradient swapped.
        let gw = conv2d_grad_weight(&gout, &x, 2, 2, 2, 0).unwrap();
        assert_eq!(gw.shape(), w.shape());
        let eps = 1e-3;
        for idx in [0usize, 5, 11, 23] {
            let mut wp = w.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fp = conv_transpose2d(&x, &wp, None, 2, 0).unwrap().sum();
            let fm = conv_transpose2d(&x, &wm, None, 2, 0).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gw.as_slice()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }

    #[test]
    fn grad_input_rejects_x_shape_that_does_not_convolve_to_grad_out() {
        let gout = Tensor::ones(&[1, 3, 2, 2]);
        let w = Tensor::ones(&[3, 2, 2, 2]);
        // 5x5 at k2 s2 also convolves to 2x2.
        let gx = conv2d_grad_input(&gout, &w, &[1, 2, 5, 5], 2, 0).unwrap();
        assert_eq!(gx.shape(), &[1, 2, 5, 5]);
        for bad in [
            &[2, 2, 4, 4][..],
            &[1, 3, 4, 4],
            &[1, 2, 6, 6],
            &[1, 2, 4, 8],
            &[1, 2, 4],
        ] {
            assert!(
                matches!(
                    conv2d_grad_input(&gout, &w, bad, 2, 0),
                    Err(TensorError::ShapeMismatch { .. })
                ),
                "x_shape {bad:?}"
            );
        }
    }

    #[test]
    fn conv_transpose_rejects_empty_input_grid() {
        let w = Tensor::ones(&[2, 3, 2, 2]);
        for shape in [[1, 2, 0, 3], [1, 2, 3, 0], [0, 2, 0, 0]] {
            let x = Tensor::zeros(&shape);
            for r in [
                conv_transpose2d_out_shape(&x, &w, 2, 0).map(|_| ()),
                conv_transpose2d(&x, &w, None, 2, 0).map(|_| ()),
            ] {
                assert!(
                    matches!(r, Err(TensorError::InvalidGeometry(_))),
                    "{shape:?}"
                );
            }
        }
        // An empty batch over a non-empty grid is still a valid call.
        let y = conv_transpose2d(&Tensor::zeros(&[0, 2, 3, 3]), &w, None, 2, 0).unwrap();
        assert_eq!(y.shape(), &[0, 3, 6, 6]);
    }

    #[test]
    fn conv_transpose_bias() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[1, 2, 2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let out = conv_transpose2d(&x, &w, Some(&b), 2, 0).unwrap();
        assert_eq!(out.at4(0, 0, 3, 3), 0.5);
        assert_eq!(out.at4(0, 1, 0, 0), -0.5);
    }
}
