//! The closed set of kernel backends, enum-dispatched and bit-exact.
//!
//! Every compute kernel in the workspace is a method on [`Backend`], a
//! `Copy` enum with one variant per body set: [`Backend::Scalar`] runs the
//! portable reference bodies in [`scalar`] (the *semantic definitions* —
//! every bit-exact backend must reproduce them bit for bit),
//! [`Backend::Avx2`] runs them compiled for runtime-detected AVX2, and
//! [`Backend::FastMath`] is the opt-in relaxed-precision FMA tier. Each
//! kernel also has a free function of the same name that runs it on
//! [`active`], the process-wide selection. That selection is made **once**
//! and cached, mirroring `LECA_THREADS` /
//! [`crate::parallel::num_threads`]: the `LECA_BACKEND` environment
//! variable (`scalar` | `avx2` | `fastmath` | `auto`) pins a backend for
//! CI and debugging, and [`refresh_backend`] is the in-process test hook.
//!
//! Each kernel has **one source**, its scalar body. A vector variant with
//! no hand-written body runs that scalar body compiled under
//! `#[target_feature(enable = "avx2")]`, where the compiler vectorizes it
//! at 8 lanes. Hand-written intrinsic bodies remain only where the compiler
//! loses: the f32 `microkernel` (`avx2`, and its FMA twin in `fastmath`),
//! and the int8 `qmicrokernel`, `quantize_q8` and `requant_i32` (`qavx2`;
//! their round-to-even conversion does not vectorize).
//!
//! # Selection and availability
//!
//! [`Backend::ALL`] lists the variants in ascending preference order. A
//! backend is [available](Backend::available) when the host has its ISA
//! (AVX2; AVX2 + FMA for fastmath); off `x86_64` and under Miri only
//! scalar is. `auto` (and unset) picks the most-preferred available
//! **bit-exact** backend, and requesting an unavailable backend by name
//! degrades to auto rather than erroring — bit-exact backends are
//! bit-identical, so this is a perf choice, not an error.
//!
//! Every kernel method asserts its slice-length preconditions before it
//! dispatches, and a vector variant checks its CPU features on every call
//! (running the scalar body when they are absent), so any [`Backend`] is
//! sound to call on any host with any arguments. The one bound checked
//! inside the bodies instead is [`Backend::microkernel`]'s per-row B
//! offset, tested as each row is read, in release builds too.
//!
//! # The fast-math tier
//!
//! [`Backend::FastMath`] ([`Backend::bit_exact`] = `false`) trades the
//! bit-exactness contract in exactly one body, the FMA-contracted GEMM
//! [`microkernel`]. Every other kernel runs a bit-exact body on it, and the
//! conformance suite holds those bit for bit to scalar. It never wins
//! auto-selection: it runs only when requested by name
//! (`LECA_BACKEND=fastmath`). Its own body is held to a relative-error
//! bound against the scalar oracle, and the determinism goldens exclude
//! it.
//!
//! # Why every bit-exact backend is bit-identical
//!
//! The hand-written GEMM bodies only parallelize across **independent
//! outputs** — the [`NR`] columns of the register tile — and each output
//! element still sees exactly the scalar sequence of IEEE-754 operations
//! (same order, no FMA contraction: `_mm256_mul_ps` + `_mm256_add_ps` round
//! identically to `a * b` then `+`). The compiled bodies get the same
//! property from the compiler: Rust never contracts `a * b + c` into an
//! FMA or reassociates float adds, so enabling AVX2 changes only the
//! vector width, never an element's operation sequence or its NaN and
//! signed-zero outcome. Loops with a *sequential* float dependence chain
//! (the softmax `exp`/sum pass, f64 plane reductions) therefore stay
//! sequential even when compiled for AVX2 — vectorizing them would
//! reassociate the reduction and break the determinism goldens. The one
//! reduction the compiler does vectorize is [`row_max`]'s `f32::max` fold,
//! whose result is the same in any order except for the sign of a `±0.0`
//! tie; the scalar body returns a zero maximum as `+0.0`, so it is the
//! same at every vector width.
//!
//! # Adding a kernel
//!
//! Add one entry to the `backend_kernels!` table below (doc, `[scalar,
//! scalar]` body tags, signature, preconditions) and an `#[inline]` body
//! of the same name in [`scalar`]. That is all a new kernel needs: both
//! vector variants run the scalar body compiled for AVX2. A hand-written
//! vector body replaces the compiled one only with a recorded win over it,
//! measured where the library calls the kernel (a caller-level row in
//! `leca-bench`, not only the kernel in isolation); it then carries its
//! own `unsafe` bound arguments. The conformance suite
//! (`crates/tensor/tests/backend_conformance.rs`) holds each available
//! backend to the scalar oracle.

pub mod scalar;
pub mod transcendental;

// Miri interprets portable Rust only — the hand-written AVX2 bodies and
// the compiled AVX2 variants are compiled out under it (and
// `Backend::Avx2` reports unavailable, running the scalar bodies), so
// `cargo miri test` checks the whole crate through the scalar path, which
// the parity suite proves bit-identical to the vector one.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2;

// Int8-tier AVX2 bodies (`_mm256_madd_epi16` GEMM core plus the
// quantize and requantize passes); same Miri/non-x86 story as `avx2`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod qavx2;

// Relaxed-precision body (the fused-multiply-add GEMM core); same
// Miri/non-x86 story as `avx2`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod fastmath;

use crate::runtime_env;

// Under `--cfg loom` the selection cache uses the loom shim's atomics so
// the model-checking suite (`crates/tensor/tests/loom_backend.rs`) can
// explore every interleaving of concurrent first-touch initialization.
#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Microkernel tile height (output rows held in registers).
pub const MR: usize = 8;
/// Microkernel tile width (output columns held in registers; one AVX2
/// `f32x8` vector).
pub const NR: usize = 8;

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Non-x86 targets never have AVX2; under Miri the vector bodies are not
/// even compiled, so detection reports unavailable and every kernel runs
/// its scalar body.
#[cfg(any(not(target_arch = "x86_64"), miri))]
fn avx2_available() -> bool {
    false
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn fastmath_available() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

/// The fast-math tier needs both AVX2 and FMA; absent either (or under
/// Miri / off x86), it is never available.
#[cfg(any(not(target_arch = "x86_64"), miri))]
fn fastmath_available() -> bool {
    false
}

/// The host CPU feature set relevant to backend selection, as a stable
/// string (`"avx2+fma"` / `"avx2"` / `"portable"`). Run provenance: bench
/// and benchmark reports record it next to the backend name, so a number
/// can be traced to the ISA level it was measured on.
pub fn cpu_features() -> &'static str {
    if fastmath_available() {
        "avx2+fma"
    } else if avx2_available() {
        "avx2"
    } else {
        "portable"
    }
}

/// One compute backend. Every variant exists on every target; whether it
/// can run its own bodies here is [`Backend::available`].
///
/// Kernel semantics (NaN behavior, operation order, rounding) are
/// specified on the kernel methods and defined by the [`scalar`] bodies;
/// bit-exact backends reproduce them bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar bodies: always available, the bit-exactness oracle
    /// for every other backend.
    Scalar,
    /// The scalar bodies compiled for AVX2, plus the hand-written AVX2
    /// GEMM and int8 bodies (`x86_64` with runtime-detected AVX2).
    Avx2,
    /// Opt-in relaxed-precision tier (`x86_64` with runtime-detected
    /// AVX2 + FMA): a fused-multiply-add GEMM core; every other kernel is
    /// bit-exact. Not bit-exact with the scalar oracle as a whole — see
    /// the module docs for the selection and testing contract.
    FastMath,
}

impl Backend {
    /// Every backend, in **ascending preference order**: `auto` selection
    /// picks the last available *bit-exact* entry. Scalar comes first so
    /// selection can never fail.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::FastMath];

    /// Short lowercase name (`"scalar"` / `"avx2"` / `"fastmath"`), used
    /// in env selection, logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::FastMath => "fastmath",
        }
    }

    /// Whether this backend reproduces the [`scalar`] bodies bit for bit.
    /// Only [`Backend::FastMath`] does not (it contracts FMAs in the
    /// microkernel), which excludes it from auto-selection and from the
    /// determinism suites — its microkernel is covered by a tolerance
    /// test instead.
    pub fn bit_exact(self) -> bool {
        self != Backend::FastMath
    }

    /// Whether the host can run this backend's own bodies. An unavailable
    /// backend still computes every kernel — through the scalar bodies.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx2 => avx2_available(),
            Backend::FastMath => fastmath_available(),
        }
    }
}

/// Runs one vector variant of a kernel: the hand-written body in the named
/// module, or, when the module is `scalar`, the scalar body compiled with
/// AVX2 enabled. The scalar bodies are `#[inline]` so they inline into that
/// `#[target_feature]` wrapper and vectorize at 8 lanes; a call that is not
/// inlined runs at the baseline SSE2 width.
#[cfg(all(target_arch = "x86_64", not(miri)))]
macro_rules! vector_body {
    (scalar, $name:ident($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {{
        #[target_feature(enable = "avx2")]
        fn compiled($($arg: $ty),*) $(-> $ret)? {
            scalar::$name($($arg),*)
        }
        compiled($($arg),*)
    }};
    ($vmod:ident, $name:ident($($arg:ident : $ty:ty),*) $(-> $ret:ty)?) => {
        $vmod::$name($($arg),*)
    };
}

/// Declares every kernel **once**: its doc, its vector bodies, its
/// signature and, after `where`, its argument preconditions. The bracket
/// names the module holding the [`Backend::Avx2`] body, then the one holding
/// the [`Backend::FastMath`] body; `scalar` there means no hand-written body
/// (see `vector_body!`). Each entry expands to a [`Backend`] method — assert
/// the preconditions, then run the variant's body — and a free function of
/// the same name that runs the method on [`active`].
macro_rules! backend_kernels {
    ($(
        $(#[$meta:meta])*
        [$avx:ident, $fm:ident] fn $name:ident($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?
            $(where $($pre:expr),+)?;
    )*) => {
        impl Backend {
            $(
                $(#[$meta])*
                #[inline]
                pub fn $name(self $(, $arg: $ty)*) $(-> $ret)? {
                    $($(
                        assert!($pre, "backend::{}: `{}` violated", stringify!($name), stringify!($pre));
                    )+)?
                    match self {
                        // SAFETY: every body here is a safe `#[target_feature]`
                        // fn enabling AVX2 only (a compiled scalar body or an
                        // `avx2`/`qavx2` one), so the one obligation is that
                        // the host really has AVX2 — checked by
                        // `avx2_available()` on this very call (std caches the
                        // CPUID probe, so the guard is a load, not a CPUID,
                        // after the first call). The preconditions asserted
                        // above keep the hand bodies' raw loads in bounds in
                        // release builds too.
                        #[cfg(all(target_arch = "x86_64", not(miri)))]
                        Backend::Avx2 if avx2_available() => unsafe {
                            vector_body!($avx, $name($($arg: $ty),*) $(-> $ret)?)
                        },
                        // SAFETY: these bodies enable AVX2, or AVX2 and FMA
                        // (`fastmath`); `fastmath_available()` on this very
                        // call confirms the host has both features.
                        #[cfg(all(target_arch = "x86_64", not(miri)))]
                        Backend::FastMath if fastmath_available() => unsafe {
                            vector_body!($fm, $name($($arg: $ty),*) $(-> $ret)?)
                        },
                        _ => scalar::$name($($arg),*),
                    }
                }
            )*
        }

        $(
            $(#[$meta])*
            #[inline]
            pub fn $name($($arg: $ty),*) $(-> $ret)? {
                active().$name($($arg),*)
            }
        )*
    };
}

backend_kernels! {
    /// `MR x NR` register-tile update `acc += A_tile · B_panel`.
    ///
    /// `ap` is the packed A tile, `ap[p * MR + i]` for `p < k`. B is given as
    /// `(b, rows)`: its row `p` is `b[rows[p] .. rows[p] + NR]`, so one body
    /// serves both B sources. A packed panel passes `rows[p] = p * NR`; the
    /// forward conv passes a table of row offsets into its zero-padded,
    /// phase-split image and reads each row in place. The kernel loads and stores `acc`, so a
    /// driver may split the reduction into chunks and call this repeatedly
    /// on the same tile: each output element still accumulates through one
    /// in-order chain, keeping chunked and unchunked results bit-identical.
    ///
    /// # Panics
    ///
    /// Panics when `ap` is shorter than `k` tiles, `rows` shorter than `k`
    /// or any of its first `k` rows reaches past the end of `b`. Each body
    /// checks a row's bound as it reads the row, release builds included:
    /// a separate pass over `rows` before the call would cost up to a
    /// quarter of the call itself.
    [avx2, fastmath] fn microkernel(k: usize, ap: &[f32], b: &[f32], rows: &[usize], acc: &mut [[f32; NR]; MR])
        where ap.len() >= k * MR, rows.len() >= k;
    /// Quantized `MR x NR` register-tile update.
    ///
    /// Operands are zero-point-corrected i16 values packed in **pairs** along
    /// the reduction axis: `kp2 = k.div_ceil(2)` pair steps with layouts
    /// `ap[p2 * MR * 2 + i * 2 + r]` and `bp[p2 * NR * 2 + j * 2 + r]`
    /// (`r ∈ {0, 1}`; odd `k` zero-padded). Accumulation is exact i32 per pair
    /// and two's-complement on the running sum, identical on every backend —
    /// see the `qavx2` module docs for the saturation-freedom argument.
    ///
    /// # Panics
    ///
    /// Panics when a packed operand is shorter than `kp2` tiles.
    [qavx2, qavx2] fn qmicrokernel(kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR])
        where ap.len() >= kp2 * MR * 2, bp.len() >= kp2 * NR * 2;
    /// f32 → i8 quantize: `out[i] = clamp(rne(src[i] * inv) + zp, -127, 127)`
    /// with round-ties-to-even. Inputs must be finite (callers that cannot
    /// guarantee it validate via `quant::check_finite` first).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [qavx2, qavx2] fn quantize_q8(src: &[f32], inv: f32, zp: i32, out: &mut [i8])
        where src.len() == out.len();
    /// i32 accumulator → i8 requantize with fused bias and optional ReLU:
    /// `clamp(rne(acc[i] as f32 * m + b) + zp, -127, 127)`, then `max(·, zp)`
    /// when `relu`.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [qavx2, qavx2] fn requant_i32(acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8])
        where acc.len() == out.len();
    /// i32 accumulator → f32 dequantize with fused bias:
    /// `out[i] = acc[i] as f32 * m + b` (cvt, mul, add — no FMA).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn dequant_i32(acc: &[i32], m: f32, b: f32, out: &mut [f32])
        where acc.len() == out.len();
    /// `out[i] = a[i] + b[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn add(a: &[f32], b: &[f32], out: &mut [f32])
        where a.len() == b.len(), a.len() == out.len();
    /// `dst[i] += src[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn add_assign(dst: &mut [f32], src: &[f32])
        where dst.len() == src.len();
    /// `dst[i] += s * src[i]` (axpy; `s * src` first, matching the scalar
    /// `add_scaled`).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn axpy(dst: &mut [f32], src: &[f32], s: f32)
        where dst.len() == src.len();
    /// `dst[i] *= s` in place (the softmax normalize pass).
    [scalar, scalar] fn scale_inplace(dst: &mut [f32], s: f32);
    /// `out[i] = src[i] + s`.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn add_scalar(src: &[f32], s: f32, out: &mut [f32])
        where src.len() == out.len();
    /// `dst[i] += s` in place (the convolution bias pass).
    [scalar, scalar] fn add_scalar_inplace(dst: &mut [f32], s: f32);
    /// `out[i] = src[i].clamp(lo, hi)` with `f32::clamp` semantics (NaN
    /// propagates; equal-zero ties keep the input's sign).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ or `lo > hi` / either bound is NaN
    /// (matching `f32::clamp`).
    [scalar, scalar] fn clamp(src: &[f32], lo: f32, hi: f32, out: &mut [f32])
        where src.len() == out.len(), lo <= hi;
    /// NaN-preserving in-place ReLU: `dst[i]` is kept when it is `> 0` **or
    /// NaN**, else set to `0.0` — a poisoned activation must stay poisoned
    /// (the trainer's divergence detector relies on it).
    [scalar, scalar] fn relu_inplace(dst: &mut [f32]);
    /// Writes the activation mask: `mask[i] = 1.0` when `src[i] > 0.0`, else
    /// `0.0` (NaN counts as not-positive, matching the `v > 0.0` bool mask the
    /// activations historically collected).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn relu_mask(src: &[f32], mask: &mut [f32])
        where src.len() == mask.len();
    /// Masked ReLU backward: `out[i] = g[i]` where `mask[i] != 0.0`, else
    /// `0.0`. A **select**, not `g * mask` — a NaN gradient at a masked-off
    /// position must become exactly `0.0`, not NaN.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn relu_backward(mask: &[f32], g: &[f32], out: &mut [f32])
        where mask.len() == g.len(), mask.len() == out.len();
    /// BatchNorm affine pass: `out[i] = g * ((src[i] - mean) * inv_std) + b`,
    /// exactly that operation sequence (sub, mul, mul, add — no fusing, no
    /// precomputed `g * inv_std`, which would round differently).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn bn_affine(src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32)
        where src.len() == out.len();
    /// Fused in-place exponential + sum — the softmax core: `dst[i] =
    /// dst[i].exp()`, returning the sum of the results.
    ///
    /// This is **exactly** the historical sequential softmax chain (`*v =
    /// v.exp(); z += *v;` element by element, libm `exp`) on every
    /// backend, so the determinism goldens are unchanged. A NaN element
    /// poisons the returned sum.
    [scalar, scalar] fn exp_sum(dst: &mut [f32]) -> f32;
    /// NaN-skipping maximum (`f32::max` fold semantics): NaN elements are
    /// ignored; an empty or all-NaN slice yields `f32::NEG_INFINITY`. The
    /// softmax row-max pass. A zero maximum is returned as `+0.0`, whatever
    /// the signs of the zeros, so the result does not depend on the order
    /// in which a vectorized fold meets them.
    [scalar, scalar] fn row_max(xs: &[f32]) -> f32;
    /// Box–Muller transform: `out[i] = √(−2 ln u1[i]) · cos(2π u2[i])`,
    /// one standard normal per uniform pair, with `u1[i] ∈ (0, 1]` and
    /// `u2[i] ∈ [0, 1)`. `ln` and `cos` are the owned ports in
    /// [`transcendental`], bit-identical to glibc's `logf`/`cosf` there, so
    /// every backend returns the bits the serial `f32::ln`/`f32::cos` chain
    /// returns on a glibc host. Outside that domain the result is
    /// unspecified (but still the same on every bit-exact backend).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths differ.
    [scalar, scalar] fn box_muller(u1: &[f32], u2: &[f32], out: &mut [f32])
        where u1.len() == out.len(), u2.len() == out.len();
}

/// How many B row starts a `b_len`-float operand has: row `r` lies inside
/// it, `b[r .. r + NR]`, iff `r < row_starts(b_len)`.
#[inline]
fn row_starts(b_len: usize) -> usize {
    (b_len + 1).saturating_sub(NR)
}

/// The panic of a [`Backend::microkernel`] B row that runs past the end of
/// `b`.
#[cold]
#[inline(never)]
fn row_out_of_bounds(r: usize, b_len: usize) -> ! {
    panic!("backend::microkernel: a B row at offset {r} runs past the end of the {b_len}-float b")
}

/// Cached index into [`Backend::ALL`]; `usize::MAX` = not yet selected.
static ACTIVE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Returns the backend the process dispatches to.
///
/// Honors `LECA_BACKEND=scalar` (or `off`/`0`) to force the scalar
/// backend, `LECA_BACKEND=avx2` (any backend name, including
/// `fastmath`) to request one, and `auto`/unset to auto-detect; a request
/// for an unavailable backend degrades to auto-detection rather than
/// erroring, so the same invocation works on any host. The
/// relaxed-precision tier runs only when requested as
/// `LECA_BACKEND=fastmath`; auto-detection never picks it.
///
/// # Semantics
///
/// Computed **once per process** on first use and cached — later env
/// changes are ignored (same contract as [`crate::parallel::num_threads`]).
/// Tests that flip backends within one process must call
/// [`refresh_backend`] after changing the variable.
pub fn active() -> Backend {
    match Backend::ALL.get(ACTIVE.load(Ordering::Relaxed)) {
        Some(&be) => be,
        None => refresh_backend(),
    }
}

/// Re-arms the not-yet-selected state (loom models only). Loom statics
/// keep their value across model iterations, so each iteration must reset
/// the cache explicitly before spawning its racing initializers.
#[cfg(loom)]
pub fn reset_backend_cache() {
    ACTIVE.store(usize::MAX, Ordering::Relaxed);
}

/// Re-reads `LECA_BACKEND`, replaces the cached selection and returns
/// the new backend — the test hook for the once-per-process caching of
/// [`active`] (the parity and determinism suites flip `scalar`/`avx2`
/// inside one process).
pub fn refresh_backend() -> Backend {
    let idx = select_index();
    ACTIVE.store(idx, Ordering::Relaxed);
    Backend::ALL[idx]
}

/// Highest-preference available **bit-exact** backend (falls back to
/// scalar, which is always available). Non-bit-exact tiers are never
/// auto-selected: silently relaxing precision because the host happens to
/// have FMA would break the determinism contract behind users' backs.
fn auto_index() -> usize {
    Backend::ALL
        .iter()
        .rposition(|be| be.bit_exact() && be.available())
        .unwrap_or(0)
}

fn select_index() -> usize {
    let request = runtime_env::raw("LECA_BACKEND")
        .ok()
        .map(|v| v.to_ascii_lowercase());
    match request.as_deref() {
        Some("scalar") => 0,
        Some("auto") | None => auto_index(),
        Some(name) => Backend::ALL
            .iter()
            .position(|be| be.name() == name && be.available())
            // Requesting a backend the host lacks (or an unknown name)
            // degrades to auto-detection: bit-exact backends are
            // bit-identical, so this is a perf choice, not an error.
            .unwrap_or_else(auto_index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    /// `LECA_BACKEND` is process-global state; serialize the tests that
    /// flip it.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_backend_env<T>(backend: Option<&str>, body: impl FnOnce() -> T) -> T {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old = std::env::var("LECA_BACKEND").ok();
        let set = |v: Option<&str>| match v {
            Some(v) => std::env::set_var("LECA_BACKEND", v),
            None => std::env::remove_var("LECA_BACKEND"),
        };
        set(backend);
        refresh_backend();
        let out = body();
        set(old.as_deref());
        refresh_backend();
        out
    }

    fn auto_name() -> &'static str {
        if avx2_available() {
            "avx2"
        } else {
            "scalar"
        }
    }

    #[test]
    fn scalar_spellings_force_scalar() {
        with_backend_env(Some("scalar"), || {
            assert_eq!(active().name(), "scalar");
        });
    }

    #[test]
    fn avx2_honored_only_when_available() {
        with_backend_env(Some("avx2"), || {
            assert_eq!(active().name(), auto_name());
        });
    }

    #[test]
    fn unset_and_auto_detect() {
        with_backend_env(None, || {
            assert_eq!(active().name(), auto_name());
        });
        with_backend_env(Some("auto"), || {
            assert_eq!(active().name(), auto_name());
        });
        for unknown in ["no-such-backend", "off"] {
            with_backend_env(Some(unknown), || {
                assert_eq!(active().name(), auto_name());
            });
        }
    }

    fn fastmath_name_when_available() -> &'static str {
        if fastmath_available() {
            "fastmath"
        } else {
            // Hosts without FMA degrade the request to bit-exact auto.
            auto_name()
        }
    }

    #[test]
    fn fastmath_by_name_and_never_by_auto() {
        // Requestable via LECA_BACKEND like any other backend.
        with_backend_env(Some("fastmath"), || {
            assert_eq!(active().name(), fastmath_name_when_available());
        });
        // Auto-selection never picks a non-bit-exact backend, no matter
        // how capable the host is.
        with_backend_env(None, || {
            assert!(active().bit_exact());
        });
        assert!(Backend::ALL[auto_index()].bit_exact());
    }

    #[test]
    fn cached_until_refreshed() {
        with_backend_env(Some("scalar"), || {
            assert_eq!(active().name(), "scalar");
            // A bare env change must NOT be visible...
            std::env::set_var("LECA_BACKEND", "avx2");
            assert_eq!(active().name(), "scalar");
            // ...until refreshed.
            let refreshed = refresh_backend();
            assert_eq!(active(), refreshed);
            std::env::set_var("LECA_BACKEND", "scalar");
            refresh_backend();
        });
    }

    #[test]
    fn scalar_comes_first_and_is_always_available() {
        assert_eq!(Backend::ALL[0], Backend::Scalar);
        assert!(Backend::Scalar.available());
    }

    /// One violating call per precondition shape, on every available
    /// backend: each must panic, naming its kernel, before any out-of-bounds
    /// read — release builds included, where the vector bodies'
    /// `debug_assert!`s are gone. The microkernel's B row offsets are
    /// checked in the bodies themselves, so its third call reaches them.
    #[test]
    fn kernels_check_preconditions_on_every_backend() {
        const ROWS: [usize; 4] = [0, NR, 2 * NR, 3 * NR];
        let mut out = [0.0f32; 4];
        add(&[1.0; 4], &[2.0; 4], &mut out);
        assert_eq!(out, [3.0; 4]);
        for be in Backend::ALL.into_iter().filter(|be| be.available()) {
            let calls: [(&str, &dyn Fn()); 11] = [
                ("add", &|| be.add(&[0.0; 64], &[0.0; 1], &mut [0.0; 64])),
                ("relu_mask", &|| be.relu_mask(&[0.0; 9], &mut [0.0; 8])),
                ("axpy", &|| be.axpy(&mut [0.0; 16], &[0.0; 15], 2.0)),
                // First clause holds, second fails: a short `out`.
                ("relu_backward", &|| {
                    be.relu_backward(&[0.0; 16], &[0.0; 16], &mut [0.0; 15])
                }),
                ("microkernel", &|| {
                    be.microkernel(
                        4,
                        &[0.0; 3 * MR],
                        &[0.0; 4 * NR],
                        &ROWS,
                        &mut [[0.0; NR]; MR],
                    )
                }),
                ("microkernel", &|| {
                    be.microkernel(
                        4,
                        &[0.0; 4 * MR],
                        &[0.0; 4 * NR],
                        &ROWS[..3],
                        &mut [[0.0; NR]; MR],
                    )
                }),
                // One row offset reaching past the end of B.
                ("microkernel", &|| {
                    let rows = [0, NR, 3 * NR + 1, 2 * NR];
                    be.microkernel(
                        4,
                        &[0.0; 4 * MR],
                        &[0.0; 4 * NR],
                        &rows,
                        &mut [[0.0; NR]; MR],
                    )
                }),
                ("qmicrokernel", &|| {
                    be.qmicrokernel(4, &[0; 4 * MR * 2], &[0; 3 * NR * 2], &mut [[0; NR]; MR])
                }),
                ("quantize_q8", &|| {
                    be.quantize_q8(&[0.0; 16], 1.0, 0, &mut [0; 8])
                }),
                ("requant_i32", &|| {
                    be.requant_i32(&[0; 16], 1.0, 0.0, 0, false, &mut [0; 17])
                }),
                ("dequant_i32", &|| {
                    be.dequant_i32(&[0; 7], 1.0, 0.0, &mut [0.0; 8])
                }),
            ];
            for (kernel, call) in calls {
                let ctx = format!("{}/{kernel}", be.name());
                let payload = catch_unwind(AssertUnwindSafe(call))
                    .expect_err(&format!("{ctx}: precondition violation must panic"));
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(
                    msg.contains(&format!("backend::{kernel}:")),
                    "{ctx}: panic message `{msg}` does not name the kernel"
                );
            }
        }
    }
}
