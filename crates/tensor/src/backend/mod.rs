//! Pluggable kernel backends, trait-dispatched and bit-exact.
//!
//! Every compute kernel in the workspace dispatches through the
//! [`KernelBackend`] trait: [`ScalarBackend`] carries the portable
//! reference bodies in [`scalar`] (the *semantic definitions* — every
//! bit-exact backend must reproduce them bit for bit), [`Avx2Backend`] the
//! runtime-detected AVX2 bodies, and [`FastMathBackend`] the opt-in
//! relaxed-precision FMA tier. The process-wide selection is made
//! **once** and cached, mirroring `LECA_THREADS` /
//! [`crate::parallel::num_threads`]: the `LECA_BACKEND` environment
//! variable (`scalar` | `avx2` | `fastmath` | `auto`) pins a backend for
//! CI and debugging, and [`refresh_backend`] is the in-process test hook.
//!
//! # Registry semantics
//!
//! [`registered`] lists every compiled-in backend in ascending preference
//! order. A backend is *dispatchable* when [`dispatchable`] confirms its
//! availability probe and its CPU-complete kernel surface; `auto` (and
//! unset) picks the most-preferred dispatchable **bit-exact** backend, and
//! requesting an unavailable backend by name degrades to auto rather than
//! erroring — bit-exact backends are bit-identical, so this is a perf
//! choice, not an error. Incomplete backends return typed
//! [`BackendError::Unsupported`] from every kernel they do not implement
//! and are therefore never auto-selected.
//!
//! # The fast-math tier
//!
//! [`FastMathBackend`] ([`KernelBackend::bit_exact`] = `false`) trades the
//! bit-exactness contract for FMA contraction and a vectorized polynomial
//! `exp`. It never wins auto-selection: it runs only when explicitly
//! requested, either by name (`LECA_BACKEND=fastmath`) or via the
//! dedicated opt-in knob (`LECA_FASTMATH=fma`, consulted only when
//! `LECA_BACKEND` is unset or `auto` — an explicit backend request always
//! wins, which is what keeps backend-pinning test suites meaningful on CI
//! legs that export `LECA_FASTMATH`). Its outputs are held to
//! relative-error bounds against the scalar oracle by tolerance-based
//! parity tests instead of the bit-exact conformance battery, and the
//! determinism goldens exclude it.
//!
//! # Why every bit-exact backend is bit-identical
//!
//! The vector kernels only ever parallelize across **independent
//! outputs** — the [`NR`] columns of the GEMM register tile, or disjoint
//! elements of an elementwise map. Each output element still sees exactly
//! the scalar sequence of IEEE-754 operations (same order, same
//! intermediates, no FMA contraction: `_mm256_mul_ps` + `_mm256_add_ps`
//! round identically to `a * b` then `+`), so every lane reproduces the
//! scalar result bit for bit. Loops with a *sequential* dependence chain
//! (the softmax `exp`/sum pass, f64 plane reductions) deliberately stay
//! scalar — vectorizing them would reassociate the reduction and break the
//! determinism goldens.
//!
//! The one documented wobble: an all-`±0.0` maximum tie in [`row_max`] may
//! differ from `f32::max` in the *sign* of the returned zero (IEEE leaves
//! it unspecified). Its only in-tree consumer, `softmax_rows`, erases the
//! sign via `exp(x - m)`, so softmax outputs remain bit-identical.
//!
//! # Registering a new backend
//!
//! Implement [`KernelBackend`] (override `name` plus every kernel the
//! backend supports; unimplemented kernels inherit the `Unsupported`
//! default), add a `static` instance, and append it to [`registered`] at
//! its preference position. The conformance suite
//! (`crates/tensor/tests/backend_conformance.rs`) automatically exercises
//! every registered backend against the scalar oracle.

pub mod autotune;
pub mod scalar;

// Miri interprets portable Rust only — the AVX2 bodies are compiled out
// under it (and the registry never offers `Avx2Backend`), so `cargo miri
// test` checks the whole crate through the scalar path, which the parity
// suite proves bit-identical to the vector one.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2;

// Int8-tier AVX2 bodies (`_mm256_madd_epi16` GEMM core plus the
// quantize/requantize/dequantize passes); same Miri/non-x86 story as
// `avx2`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod qavx2;

// Relaxed-precision FMA bodies (fused-multiply-add GEMM core, vectorized
// polynomial `exp`, FMA elementwise epilogues); same Miri/non-x86 story
// as `avx2`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod fastmath;

use crate::runtime_env;
use std::fmt;

// Under `--cfg loom` the registry cache uses the loom shim's atomics so
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

/// Typed failure from a [`KernelBackend`] kernel call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend does not implement this kernel (or its hardware
    /// prerequisite is absent on this host). Incomplete backends are never
    /// auto-selected; this surfaces only when calling one directly.
    Unsupported {
        /// `KernelBackend::name()` of the failing backend.
        backend: &'static str,
        /// Kernel method name.
        kernel: &'static str,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unsupported { backend, kernel } => {
                write!(f, "backend `{backend}` does not support kernel `{kernel}`")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Result of one backend kernel call.
pub type KernelResult<T = ()> = Result<T, BackendError>;

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn avx2_available() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// Non-x86 targets never have AVX2; under Miri the vector bodies are not
/// even compiled, so detection reports unavailable and every kernel runs
/// its scalar twin.
#[cfg(any(not(target_arch = "x86_64"), miri))]
#[allow(dead_code)]
fn avx2_available() -> bool {
    false
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn fastmath_available() -> bool {
    std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
}

/// The fast-math tier needs both AVX2 and FMA; absent either (or under
/// Miri / off x86), it is never dispatchable.
#[cfg(any(not(target_arch = "x86_64"), miri))]
#[allow(dead_code)]
fn fastmath_available() -> bool {
    false
}

/// The host CPU feature set relevant to backend selection, as a stable
/// string (`"avx2+fma"` / `"avx2"` / `"portable"`). Keyed into the
/// autotune profile so a blocking tuned on one ISA level is never applied
/// on another (and so copying a profile between machines invalidates it
/// rather than silently mis-tuning).
pub fn cpu_features() -> &'static str {
    if fastmath_available() {
        "avx2+fma"
    } else if avx2_available() {
        "avx2"
    } else {
        "portable"
    }
}

/// Declares the [`KernelBackend`] trait (every kernel defaulting to a
/// typed [`BackendError::Unsupported`]) together with the complete
/// [`ScalarBackend`] and [`Avx2Backend`] implementations, so the three
/// surfaces can never drift apart. The `[module]` tag names the AVX2 body
/// module (`avx2` for the f32 tier, `qavx2` for the int8 tier).
macro_rules! backend_kernels {
    ($( $(#[$meta:meta])* [$vmod:ident] fn $name:ident ( &self $(, $arg:ident : $ty:ty)* $(,)? ) $(-> $ret:ty)? ; )*) => {
        /// One compute backend: a complete (or partial) set of kernel
        /// bodies, bit-exact with the [`scalar`] reference definitions.
        ///
        /// Kernel semantics (NaN behavior, operation order, rounding) are
        /// specified on the free dispatch wrappers in this module and
        /// defined by the [`scalar`] bodies; implementations must
        /// reproduce them bit for bit. Unimplemented kernels inherit a
        /// default body returning [`BackendError::Unsupported`].
        pub trait KernelBackend: Send + Sync {
            /// Short lowercase name (`"scalar"` / `"avx2"`), used in env
            /// selection, logs and bench output.
            fn name(&self) -> &'static str;

            /// Whether this backend upholds the bit-exactness contract
            /// (reproduces the [`scalar`] bodies bit for bit). Defaults to
            /// `true`; relaxed-precision tiers ([`FastMathBackend`])
            /// override it to `false`, which excludes them from
            /// auto-selection and from the bit-exact conformance and
            /// determinism suites — they are covered by tolerance-based
            /// parity tests instead.
            fn bit_exact(&self) -> bool {
                true
            }

            $(
                $(#[$meta])*
                fn $name(&self $(, $arg: $ty)*) -> KernelResult$(<$ret>)? {
                    $( let _ = $arg; )*
                    Err(BackendError::Unsupported {
                        backend: self.name(),
                        kernel: stringify!($name),
                    })
                }
            )*
        }

        impl KernelBackend for ScalarBackend {
            fn name(&self) -> &'static str {
                "scalar"
            }

            $(
                #[inline]
                fn $name(&self $(, $arg: $ty)*) -> KernelResult$(<$ret>)? {
                    Ok(scalar::$name($($arg),*))
                }
            )*
        }

        #[cfg(all(target_arch = "x86_64", not(miri)))]
        impl KernelBackend for Avx2Backend {
            fn name(&self) -> &'static str {
                "avx2"
            }

            $(
                #[inline]
                fn $name(&self $(, $arg: $ty)*) -> KernelResult$(<$ret>)? {
                    if !avx2_available() {
                        return Err(BackendError::Unsupported {
                            backend: self.name(),
                            kernel: stringify!($name),
                        });
                    }
                    // SAFETY: the AVX2 bodies are safe `#[target_feature]`
                    // fns, so the only obligation is that the host really
                    // has AVX2 — checked by `avx2_available()` directly
                    // above (std caches the CPUID probe, so the guard is a
                    // load, not a CPUID, on every call after the first).
                    Ok(unsafe { $vmod::$name($($arg),*) })
                }
            )*
        }

        #[cfg(all(target_arch = "x86_64", not(miri)))]
        impl KernelBackend for FastMathBackend {
            fn name(&self) -> &'static str {
                "fastmath"
            }

            /// The fast-math tier contracts FMAs and vectorizes `exp`, so
            /// it does **not** reproduce the scalar bodies bit for bit.
            fn bit_exact(&self) -> bool {
                false
            }

            $(
                #[inline]
                fn $name(&self $(, $arg: $ty)*) -> KernelResult$(<$ret>)? {
                    if !fastmath_available() {
                        return Err(BackendError::Unsupported {
                            backend: self.name(),
                            kernel: stringify!($name),
                        });
                    }
                    // SAFETY: the fastmath bodies are safe
                    // `#[target_feature(enable = "avx2", enable = "fma")]`
                    // fns; `fastmath_available()` directly above confirms
                    // the host has both features.
                    Ok(unsafe { fastmath::$name($($arg),*) })
                }
            )*
        }
    };
}

/// Portable scalar backend: always compiled, always dispatchable, the
/// bit-exactness oracle for every other backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarBackend;

/// AVX2 backend (`x86_64` with runtime-detected AVX2 only). Compiled out
/// under Miri and on non-x86 targets.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[derive(Debug, Default, Clone, Copy)]
pub struct Avx2Backend;

/// Opt-in relaxed-precision backend (`x86_64` with runtime-detected
/// AVX2 + FMA): fused-multiply-add GEMM core, vectorized polynomial `exp`
/// driving the fused softmax pass, and FMA elementwise epilogues. Not
/// bit-exact with the scalar oracle — see the module docs for the
/// selection and testing contract.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[derive(Debug, Default, Clone, Copy)]
pub struct FastMathBackend;

backend_kernels! {
    /// `MR x NR` register-tile update `acc += A_tile · B_panel` over packed
    /// operands (`ap[p * MR + i]`, `bp[p * NR + j]` for `p < k`). Loading
    /// and storing `acc` means a driver may continue accumulation across
    /// reduction chunks without changing any per-element FP chain.
    [avx2] fn microkernel(&self, k: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]);
    /// Quantized `MR x NR` register-tile update over i16-pair packed
    /// operands (`kp2` pair steps; see [`qmicrokernel`]).
    [qavx2] fn qmicrokernel(&self, kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR]);
    /// f32 → i8 quantize pass (see [`quantize_q8`]).
    [qavx2] fn quantize_q8(&self, src: &[f32], inv: f32, zp: i32, out: &mut [i8]);
    /// i32 → i8 requantize pass with fused bias / optional ReLU (see
    /// [`requant_i32`]).
    [qavx2] fn requant_i32(&self, acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8]);
    /// i32 → f32 dequantize pass with fused bias (see [`dequant_i32`]).
    [qavx2] fn dequant_i32(&self, acc: &[i32], m: f32, b: f32, out: &mut [f32]);
    /// `out[i] = a[i] + b[i]`.
    [avx2] fn add(&self, a: &[f32], b: &[f32], out: &mut [f32]);
    /// `out[i] = a[i] - b[i]`.
    [avx2] fn sub(&self, a: &[f32], b: &[f32], out: &mut [f32]);
    /// `out[i] = a[i] * b[i]`.
    [avx2] fn mul(&self, a: &[f32], b: &[f32], out: &mut [f32]);
    /// `dst[i] += src[i]`.
    [avx2] fn add_assign(&self, dst: &mut [f32], src: &[f32]);
    /// `dst[i] += s * src[i]` (`s * src` first).
    [avx2] fn axpy(&self, dst: &mut [f32], src: &[f32], s: f32);
    /// `out[i] = src[i] * s`.
    [avx2] fn scale(&self, src: &[f32], s: f32, out: &mut [f32]);
    /// `dst[i] *= s`.
    [avx2] fn scale_inplace(&self, dst: &mut [f32], s: f32);
    /// `out[i] = src[i] + s`.
    [avx2] fn add_scalar(&self, src: &[f32], s: f32, out: &mut [f32]);
    /// `dst[i] += s`.
    [avx2] fn add_scalar_inplace(&self, dst: &mut [f32], s: f32);
    /// `out[i] = src[i].clamp(lo, hi)` (callers assert `lo <= hi`).
    [avx2] fn clamp(&self, src: &[f32], lo: f32, hi: f32, out: &mut [f32]);
    /// NaN-preserving ReLU (see [`relu`]).
    [avx2] fn relu(&self, src: &[f32], out: &mut [f32]);
    /// In-place NaN-preserving ReLU.
    [avx2] fn relu_inplace(&self, dst: &mut [f32]);
    /// Leaky ReLU: `v > 0 ? v : a * v`.
    [avx2] fn leaky_relu(&self, src: &[f32], a: f32, out: &mut [f32]);
    /// In-place leaky ReLU.
    [avx2] fn leaky_relu_inplace(&self, dst: &mut [f32], a: f32);
    /// `mask[i] = 1.0` where `src[i] > 0.0`, else `0.0`.
    [avx2] fn relu_mask(&self, src: &[f32], mask: &mut [f32]);
    /// Masked ReLU backward: a select, never `g * mask` (see
    /// [`relu_backward`]).
    [avx2] fn relu_backward(&self, mask: &[f32], g: &[f32], out: &mut [f32]);
    /// Masked leaky-ReLU backward (see [`leaky_relu_backward`]).
    [avx2] fn leaky_relu_backward(&self, mask: &[f32], g: &[f32], a: f32, out: &mut [f32]);
    /// BatchNorm affine pass: `g * ((x - mean) * inv_std) + b`, exactly
    /// that operation sequence.
    [avx2] fn bn_affine(&self, src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32);
    /// Elementwise `out[i] = src[i].exp()`. Bit-exact backends call libm
    /// per element; the fast-math tier substitutes its polynomial
    /// approximation (see [`exp`]).
    [avx2] fn exp(&self, src: &[f32], out: &mut [f32]);
    /// Fused in-place exponential + sum: `dst[i] = dst[i].exp()`,
    /// returning the running sum (see [`exp_sum`] — the softmax core).
    [avx2] fn exp_sum(&self, dst: &mut [f32]) -> f32;
    /// NaN-skipping maximum (`f32::max` fold from `NEG_INFINITY`).
    [avx2] fn row_max(&self, xs: &[f32]) -> f32;
    /// Fused 2x2 average-pool row pass (see [`avg_pool_k2`]).
    [avx2] fn avg_pool_k2(&self, r0: &[f32], r1: &[f32], out: &mut [f32], inv: f32);
    /// Fused 2x2 max-pool row pass (see [`max_pool_k2`]).
    [avx2] fn max_pool_k2(&self, r0: &[f32], r1: &[f32], out: &mut [f32]);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

static SCALAR_BACKEND: ScalarBackend = ScalarBackend;
#[cfg(all(target_arch = "x86_64", not(miri)))]
static AVX2_BACKEND: Avx2Backend = Avx2Backend;
#[cfg(all(target_arch = "x86_64", not(miri)))]
static FASTMATH_BACKEND: FastMathBackend = FastMathBackend;

/// Every compiled-in backend, in **ascending preference order**: `auto`
/// selection picks the highest-indexed dispatchable *bit-exact* entry.
/// Scalar sits at index 0 so selection can never fail.
pub fn registered() -> &'static [&'static dyn KernelBackend] {
    static ALL: &[&dyn KernelBackend] = &[
        &SCALAR_BACKEND,
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        &AVX2_BACKEND,
        // Listed above avx2 but screened out of auto-selection by its
        // `bit_exact() == false`: fastmath runs only on explicit request.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        &FASTMATH_BACKEND,
    ];
    ALL
}

/// True when `be` can serve the full CPU kernel surface on this host:
/// probes trivial (`k = 0`) microkernel calls on both tiers, which fail
/// with [`BackendError::Unsupported`] on absent hardware or unimplemented
/// kernels. Registered CPU backends implement all kernels or none, so the
/// two probes decide the whole surface.
pub fn dispatchable(be: &dyn KernelBackend) -> bool {
    let mut acc = [[0.0f32; NR]; MR];
    let mut qacc = [[0i32; NR]; MR];
    be.microkernel(0, &[], &[], &mut acc).is_ok() && be.qmicrokernel(0, &[], &[], &mut qacc).is_ok()
}

/// Cached index into [`registered`]; `usize::MAX` = not yet selected.
static ACTIVE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Returns the backend the process dispatches to.
///
/// Honors `LECA_BACKEND=scalar` (or `off`/`0`) to force the scalar
/// backend, `LECA_BACKEND=avx2` (any registered name, including
/// `fastmath`) to request one, and `auto`/unset to auto-detect; a request
/// for an unavailable backend degrades to auto-detection rather than
/// erroring, so the same invocation works on any host. When
/// `LECA_BACKEND` is unset or `auto`, `LECA_FASTMATH=fma` opts into the
/// relaxed-precision tier if the host supports it — an explicit backend
/// name always wins over the fastmath knob.
///
/// # Semantics
///
/// Computed **once per process** on first use and cached — later env
/// changes are ignored (same contract as [`crate::parallel::num_threads`]).
/// Tests that flip backends within one process must call
/// [`refresh_backend`] after changing the variable.
pub fn active() -> &'static dyn KernelBackend {
    let reg = registered();
    match ACTIVE.load(Ordering::Relaxed) {
        idx if idx < reg.len() => reg[idx],
        _ => refresh_backend(),
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
pub fn refresh_backend() -> &'static dyn KernelBackend {
    let idx = select_index();
    ACTIVE.store(idx, Ordering::Relaxed);
    registered()[idx]
}

/// Highest-preference dispatchable **bit-exact** backend (falls back to
/// scalar, which is always dispatchable). Non-bit-exact tiers are never
/// auto-selected: silently relaxing precision because the host happens to
/// have FMA would break the determinism contract behind users' backs.
fn auto_index() -> usize {
    let reg = registered();
    (0..reg.len())
        .rev()
        .find(|&i| reg[i].bit_exact() && dispatchable(reg[i]))
        .unwrap_or(0)
}

/// True when `LECA_FASTMATH=fma` opts into the relaxed-precision tier.
/// `off`/`0` (and unset) decline; anything else is treated as off (the
/// usual garbage-degrades-to-default contract).
fn fastmath_requested() -> bool {
    matches!(
        runtime_env::choice("LECA_FASTMATH", &["fma", "off", "0"]),
        Ok("fma")
    )
}

/// Selection when no explicit backend name decides: `LECA_FASTMATH=fma`
/// picks the fastmath tier if the host can dispatch it, otherwise plain
/// bit-exact auto-detection.
fn default_index() -> usize {
    if fastmath_requested() {
        let reg = registered();
        if let Some(i) = reg
            .iter()
            .position(|be| be.name() == "fastmath" && dispatchable(*be))
        {
            return i;
        }
    }
    auto_index()
}

fn select_index() -> usize {
    let request = runtime_env::raw("LECA_BACKEND")
        .ok()
        .map(|v| v.to_ascii_lowercase());
    match request.as_deref() {
        Some("scalar") | Some("off") | Some("0") => 0,
        Some("auto") | None => default_index(),
        Some(name) => registered()
            .iter()
            .position(|be| be.name() == name && dispatchable(*be))
            // Requesting a backend the host lacks (or an unknown name)
            // degrades to auto-detection: bit-exact backends are
            // bit-identical, so this is a perf choice, not an error.
            .unwrap_or_else(default_index),
    }
}

// ---------------------------------------------------------------------
// Infallible dispatch wrappers
// ---------------------------------------------------------------------
//
// The active backend is dispatchable by construction, so kernel calls on
// it cannot fail; these wrappers keep every call site free of `Result`
// plumbing (and of backend names). Each wrapper also carries the
// kernel's cross-backend semantic contract and the slice-length asserts.

#[inline]
fn expect<T>(r: KernelResult<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => kernel_dispatch_failed(e),
    }
}

#[cold]
#[inline(never)]
fn kernel_dispatch_failed(e: BackendError) -> ! {
    panic!("active backend failed a CPU-complete kernel: {e}")
}

fn check_pair(op: &'static str, a: usize, b: usize) {
    assert_eq!(a, b, "{op}: slice length mismatch");
}

/// `MR x NR` register-tile update `acc += A_tile · B_panel` on an explicit
/// backend — the GEMM driver hoists [`active`] out of its tile loops and
/// passes it here.
///
/// `ap`/`bp` are the packed operands (`ap[p * MR + i]`, `bp[p * NR + j]`
/// for `p < k`). The kernel loads and stores `acc`, so a driver may split
/// the reduction into chunks and call this repeatedly on the same tile:
/// each output element still accumulates through one in-order chain,
/// keeping chunked and unchunked results bit-identical.
///
/// # Panics
///
/// Panics when a packed operand is shorter than `k` tiles.
#[inline]
pub fn microkernel_with(
    be: &dyn KernelBackend,
    k: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    assert!(ap.len() >= k * MR, "packed A shorter than k tiles");
    assert!(bp.len() >= k * NR, "packed B shorter than k panels");
    expect(be.microkernel(k, ap, bp, acc));
}

/// [`microkernel_with`] on the process-wide [`active`] backend.
#[inline]
pub fn microkernel(k: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    microkernel_with(active(), k, ap, bp, acc);
}

/// Quantized `MR x NR` register-tile update on an explicit backend.
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
#[inline]
pub fn qmicrokernel_with(
    be: &dyn KernelBackend,
    kp2: usize,
    ap: &[i16],
    bp: &[i16],
    acc: &mut [[i32; NR]; MR],
) {
    assert!(ap.len() >= kp2 * MR * 2, "packed A shorter than kp2 tiles");
    assert!(bp.len() >= kp2 * NR * 2, "packed B shorter than kp2 panels");
    expect(be.qmicrokernel(kp2, ap, bp, acc));
}

/// [`qmicrokernel_with`] on the process-wide [`active`] backend.
#[inline]
pub fn qmicrokernel(kp2: usize, ap: &[i16], bp: &[i16], acc: &mut [[i32; NR]; MR]) {
    qmicrokernel_with(active(), kp2, ap, bp, acc);
}

/// f32 → i8 quantize: `out[i] = clamp(rne(src[i] * inv) + zp, -127, 127)`
/// with round-ties-to-even. Inputs must be finite (callers that cannot
/// guarantee it validate via `quant::check_finite` first).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn quantize_q8(src: &[f32], inv: f32, zp: i32, out: &mut [i8]) {
    check_pair("backend::quantize_q8", src.len(), out.len());
    expect(active().quantize_q8(src, inv, zp, out));
}

/// i32 accumulator → i8 requantize with fused bias and optional ReLU:
/// `clamp(rne(acc[i] as f32 * m + b) + zp, -127, 127)`, then `max(·, zp)`
/// when `relu`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn requant_i32(acc: &[i32], m: f32, b: f32, zp: i32, relu: bool, out: &mut [i8]) {
    check_pair("backend::requant_i32", acc.len(), out.len());
    expect(active().requant_i32(acc, m, b, zp, relu, out));
}

/// i32 accumulator → f32 dequantize with fused bias:
/// `out[i] = acc[i] as f32 * m + b` (cvt, mul, add — no FMA).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn dequant_i32(acc: &[i32], m: f32, b: f32, out: &mut [f32]) {
    check_pair("backend::dequant_i32", acc.len(), out.len());
    expect(active().dequant_i32(acc, m, b, out));
}

/// `out[i] = a[i] + b[i]`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn add(a: &[f32], b: &[f32], out: &mut [f32]) {
    check_pair("backend::add", a.len(), b.len());
    check_pair("backend::add", a.len(), out.len());
    expect(active().add(a, b, out));
}

/// `out[i] = a[i] - b[i]`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn sub(a: &[f32], b: &[f32], out: &mut [f32]) {
    check_pair("backend::sub", a.len(), b.len());
    check_pair("backend::sub", a.len(), out.len());
    expect(active().sub(a, b, out));
}

/// `out[i] = a[i] * b[i]`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    check_pair("backend::mul", a.len(), b.len());
    check_pair("backend::mul", a.len(), out.len());
    expect(active().mul(a, b, out));
}

/// `dst[i] += src[i]`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    check_pair("backend::add_assign", dst.len(), src.len());
    expect(active().add_assign(dst, src));
}

/// `dst[i] += s * src[i]` (axpy; `s * src` first, matching the scalar
/// `add_scaled`).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn axpy(dst: &mut [f32], src: &[f32], s: f32) {
    check_pair("backend::axpy", dst.len(), src.len());
    expect(active().axpy(dst, src, s));
}

/// `out[i] = src[i] * s`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn scale(src: &[f32], s: f32, out: &mut [f32]) {
    check_pair("backend::scale", src.len(), out.len());
    expect(active().scale(src, s, out));
}

/// `dst[i] *= s` in place (the softmax normalize pass).
pub fn scale_inplace(dst: &mut [f32], s: f32) {
    expect(active().scale_inplace(dst, s));
}

/// `out[i] = src[i] + s`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn add_scalar(src: &[f32], s: f32, out: &mut [f32]) {
    check_pair("backend::add_scalar", src.len(), out.len());
    expect(active().add_scalar(src, s, out));
}

/// `dst[i] += s` in place (the convolution bias pass).
pub fn add_scalar_inplace(dst: &mut [f32], s: f32) {
    expect(active().add_scalar_inplace(dst, s));
}

/// `out[i] = src[i].clamp(lo, hi)` with `f32::clamp` semantics (NaN
/// propagates; equal-zero ties keep the input's sign).
///
/// # Panics
///
/// Panics when the slice lengths differ or `lo > hi` / either bound is NaN
/// (matching `f32::clamp`).
pub fn clamp(src: &[f32], lo: f32, hi: f32, out: &mut [f32]) {
    check_pair("backend::clamp", src.len(), out.len());
    assert!(lo <= hi, "backend::clamp: lo > hi (or NaN bound)");
    expect(active().clamp(src, lo, hi, out));
}

/// NaN-preserving ReLU: `out[i] = src[i]` when `src[i] > 0` **or is NaN**,
/// else `0.0` — a poisoned activation must stay poisoned (the trainer's
/// divergence detector relies on it).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn relu(src: &[f32], out: &mut [f32]) {
    check_pair("backend::relu", src.len(), out.len());
    expect(active().relu(src, out));
}

/// In-place [`relu`].
pub fn relu_inplace(dst: &mut [f32]) {
    expect(active().relu_inplace(dst));
}

/// Leaky ReLU: `out[i] = src[i]` when `src[i] > 0`, else `a * src[i]`
/// (NaN falls through to `a * NaN = NaN`).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn leaky_relu(src: &[f32], a: f32, out: &mut [f32]) {
    check_pair("backend::leaky_relu", src.len(), out.len());
    expect(active().leaky_relu(src, a, out));
}

/// In-place [`leaky_relu`].
pub fn leaky_relu_inplace(dst: &mut [f32], a: f32) {
    expect(active().leaky_relu_inplace(dst, a));
}

/// Writes the activation mask: `mask[i] = 1.0` when `src[i] > 0.0`, else
/// `0.0` (NaN counts as not-positive, matching the `v > 0.0` bool mask the
/// activations historically collected).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn relu_mask(src: &[f32], mask: &mut [f32]) {
    check_pair("backend::relu_mask", src.len(), mask.len());
    expect(active().relu_mask(src, mask));
}

/// Masked ReLU backward: `out[i] = g[i]` where `mask[i] != 0.0`, else
/// `0.0`. A **select**, not `g * mask` — a NaN gradient at a masked-off
/// position must become exactly `0.0`, not NaN.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn relu_backward(mask: &[f32], g: &[f32], out: &mut [f32]) {
    check_pair("backend::relu_backward", mask.len(), g.len());
    check_pair("backend::relu_backward", mask.len(), out.len());
    expect(active().relu_backward(mask, g, out));
}

/// Masked leaky-ReLU backward: `out[i] = g[i]` where `mask[i] != 0.0`,
/// else `g[i] * a` (select + scaled pass-through, same NaN discipline as
/// [`relu_backward`]).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn leaky_relu_backward(mask: &[f32], g: &[f32], a: f32, out: &mut [f32]) {
    check_pair("backend::leaky_relu_backward", mask.len(), g.len());
    check_pair("backend::leaky_relu_backward", mask.len(), out.len());
    expect(active().leaky_relu_backward(mask, g, a, out));
}

/// BatchNorm affine pass: `out[i] = g * ((src[i] - mean) * inv_std) + b`,
/// exactly that operation sequence (sub, mul, mul, add — no fusing, no
/// precomputed `g * inv_std`, which would round differently).
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn bn_affine(src: &[f32], out: &mut [f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    check_pair("backend::bn_affine", src.len(), out.len());
    expect(active().bn_affine(src, out, mean, inv_std, g, b));
}

/// Elementwise exponential: `out[i] = src[i].exp()`.
///
/// Bit-exact backends compute libm `exp` per element. The fast-math tier
/// substitutes a vectorized polynomial approximation: a few ULP of
/// relative error on normal results, exact `+inf`/`0.0` saturation at the
/// overflow/underflow boundaries (results in the denormal range may flush
/// to zero), and NaN in → NaN out.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn exp(src: &[f32], out: &mut [f32]) {
    check_pair("backend::exp", src.len(), out.len());
    expect(active().exp(src, out));
}

/// Fused in-place exponential + sum — the softmax core: `dst[i] =
/// dst[i].exp()`, returning the sum of the results.
///
/// On bit-exact backends this is **exactly** the historical sequential
/// softmax chain (`*v = v.exp(); z += *v;` element by element), so the
/// determinism goldens are unchanged. The fast-math tier vectorizes both
/// the exponential (polynomial, see [`exp`]) and the sum (eight partial
/// lane sums folded at the end), trading bit-exactness for throughput. A
/// NaN element poisons the returned sum on every backend.
pub fn exp_sum(dst: &mut [f32]) -> f32 {
    expect(active().exp_sum(dst))
}

/// NaN-skipping maximum (`f32::max` fold semantics): NaN elements are
/// ignored; an empty or all-NaN slice yields `f32::NEG_INFINITY`. The
/// softmax row-max pass.
///
/// An all-`±0.0` tie may return either zero sign (see module docs).
pub fn row_max(xs: &[f32]) -> f32 {
    expect(active().row_max(xs))
}

/// Fused 2x2 average-pool row pass over two input rows: `out[j]` is the
/// in-order window sum `((r0[2j] + r0[2j+1]) + r1[2j]) + r1[2j+1]` times
/// `inv`.
///
/// # Panics
///
/// Panics unless `r0.len() == r1.len() == 2 * out.len()`.
pub fn avg_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32], inv: f32) {
    check_pair("backend::avg_pool_k2", r0.len(), r1.len());
    check_pair("backend::avg_pool_k2", r0.len(), out.len() * 2);
    expect(active().avg_pool_k2(r0, r1, out, inv));
}

/// Fused 2x2 max-pool row pass: `out[j]` is the running `if v > best`
/// maximum over `r0[2j], r0[2j+1], r1[2j], r1[2j+1]` starting from
/// `NEG_INFINITY` (NaN never wins, matching the scalar comparison).
///
/// # Panics
///
/// Panics unless `r0.len() == r1.len() == 2 * out.len()`.
pub fn max_pool_k2(r0: &[f32], r1: &[f32], out: &mut [f32]) {
    check_pair("backend::max_pool_k2", r0.len(), r1.len());
    check_pair("backend::max_pool_k2", r0.len(), out.len() * 2);
    expect(active().max_pool_k2(r0, r1, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `LECA_BACKEND`/`LECA_FASTMATH` are process-global
    /// state; serialize the tests that flip them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_selection_env<T>(
        backend: Option<&str>,
        fastmath: Option<&str>,
        body: impl FnOnce() -> T,
    ) -> T {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old_backend = std::env::var("LECA_BACKEND").ok();
        let old_fastmath = std::env::var("LECA_FASTMATH").ok();
        let set = |key: &str, v: Option<&str>| match v {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        };
        set("LECA_BACKEND", backend);
        set("LECA_FASTMATH", fastmath);
        refresh_backend();
        let out = body();
        set("LECA_BACKEND", old_backend.as_deref());
        set("LECA_FASTMATH", old_fastmath.as_deref());
        refresh_backend();
        out
    }

    fn with_backend_env<T>(backend: Option<&str>, body: impl FnOnce() -> T) -> T {
        // Ambient `LECA_FASTMATH` (the fastmath CI legs) must not leak
        // into selection tests that reason about the bit-exact tiers.
        with_selection_env(backend, None, body)
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
        for v in ["scalar", "off", "0"] {
            with_backend_env(Some(v), || {
                assert_eq!(active().name(), "scalar");
            });
        }
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
        with_backend_env(Some("no-such-backend"), || {
            assert_eq!(active().name(), auto_name());
        });
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
    fn fastmath_knob_opts_in_only_without_explicit_backend() {
        // LECA_FASTMATH=fma with LECA_BACKEND unset or `auto` selects the
        // relaxed tier (when the host can dispatch it)...
        with_selection_env(None, Some("fma"), || {
            assert_eq!(active().name(), fastmath_name_when_available());
        });
        with_selection_env(Some("auto"), Some("fma"), || {
            assert_eq!(active().name(), fastmath_name_when_available());
        });
        // ...but an explicit backend name always wins — this is what lets
        // backend-pinning suites stay meaningful on fastmath CI legs.
        for pinned in ["scalar", "avx2"] {
            with_selection_env(Some(pinned), Some("fma"), || {
                assert!(active().bit_exact(), "explicit {pinned} must win");
            });
        }
        // Off spellings and garbage decline the opt-in.
        for v in ["off", "0", "definitely-not-a-mode"] {
            with_selection_env(None, Some(v), || {
                assert_eq!(active().name(), auto_name());
            });
        }
    }

    #[test]
    fn fastmath_by_name_and_never_by_auto() {
        // Requestable via LECA_BACKEND like any registered backend.
        with_selection_env(Some("fastmath"), None, || {
            assert_eq!(active().name(), fastmath_name_when_available());
        });
        // Auto-selection never picks a non-bit-exact backend, no matter
        // how capable the host is.
        with_selection_env(None, None, || {
            assert!(active().bit_exact());
        });
        let reg = registered();
        assert!(reg[auto_index()].bit_exact());
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
            assert_eq!(active().name(), refreshed.name());
            std::env::set_var("LECA_BACKEND", "scalar");
            refresh_backend();
        });
    }

    #[test]
    fn registry_lists_scalar_first_and_dispatchable() {
        let reg = registered();
        assert_eq!(reg[0].name(), "scalar");
        assert!(dispatchable(reg[0]), "scalar is always dispatchable");
    }

    #[test]
    fn unsupported_error_is_typed_and_printable() {
        // A bare trait impl with no kernels overridden: every kernel must
        // report `Unsupported`, so it is never dispatchable.
        struct Hollow;
        impl KernelBackend for Hollow {
            fn name(&self) -> &'static str {
                "hollow"
            }
        }
        let mut acc = [[0.0f32; NR]; MR];
        let err = Hollow.microkernel(0, &[], &[], &mut acc).unwrap_err();
        assert_eq!(
            err,
            BackendError::Unsupported {
                backend: "hollow",
                kernel: "microkernel"
            }
        );
        assert!(err.to_string().contains("hollow"));
        assert!(!dispatchable(&Hollow));
    }

    #[test]
    fn wrappers_check_lengths() {
        let a = [1.0f32; 4];
        let b = [2.0f32; 4];
        let mut out = [0.0f32; 4];
        add(&a, &b, &mut out);
        assert_eq!(out, [3.0; 4]);
        let r = std::panic::catch_unwind(|| {
            let mut short = [0.0f32; 3];
            add(&a, &b, &mut short);
        });
        assert!(r.is_err(), "length mismatch must panic");
    }
}
