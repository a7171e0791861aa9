//! Owned `ln` and `cos` for the Box–Muller transform, bit-identical to
//! glibc's `logf` and `cosf` on the transform's domain.
//!
//! `f32::ln` and `f32::cos` call the host libm one element at a time, so a
//! batch of normals cannot be drawn wider than one lane, and the result
//! depends on which libm the process links. These are ports of the two
//! routines glibc (2.28 and later) ships, which come from Arm's
//! optimized-routines (`math/logf.c`, `math/cosf.c`, `math/sincosf.h`, MIT
//! licensed): the same table, the same polynomials, the same operation
//! order, in `f64` with no fused multiply-add, rounded once to `f32` at the
//! end. The constants equal the ones in the sources and in
//! `__logf_data` / `__sincosf_table` of an installed `libm.so.6`.
//!
//! Only the inputs Box–Muller feeds them are supported, and there the
//! bodies are branch-free (selects only), so the compiler vectorizes them:
//!
//! * [`ln`] on `(0, 1]` (positive normal floats in general). Zero,
//!   subnormals, negatives, infinities and NaN are outside its domain.
//! * [`cos`] on `[0, 120)`. Box–Muller passes `2π·u2 ∈ [0, 2π)`. Negative
//!   arguments, the large-argument reduction and NaN are outside its
//!   domain.
//!
//! `crates/tensor/tests/transcendental_grid.rs` checks both against std
//! on every input the uniform generator can produce (2^24 each), bit for
//! bit, and pins a host-independent hash of their outputs.

/// `log(2)` in `f64` (`__logf_data.ln2`).
const LN2: f64 = f64::from_bits(0x3FE6_2E42_FEFA_39EF);

/// `ln` table: `x = 2^k · z` with `z` in `[OFF, 2·OFF)` split into 16
/// subintervals; entry `i` holds `1/c` and `log(c)` for a `c` near the
/// centre of subinterval `i` (`__logf_data.tab`).
const LOGF_OFF: u32 = 0x3f33_0000;
const LOGF_INVC: [f64; 16] = [
    f64::from_bits(0x3FF6_61EC_79F8_F3BE),
    f64::from_bits(0x3FF5_71ED_4AAF_883D),
    f64::from_bits(0x3FF4_9539_F0F0_10B0),
    f64::from_bits(0x3FF3_C995_B0B8_0385),
    f64::from_bits(0x3FF3_0D19_0C88_64A5),
    f64::from_bits(0x3FF2_5E22_7B0B_8EA0),
    f64::from_bits(0x3FF1_BB4A_4A1A_343F),
    f64::from_bits(0x3FF1_2358_F08A_E5BA),
    f64::from_bits(0x3FF0_953F_4199_00A7),
    f64::from_bits(0x3FF0_0000_0000_0000),
    f64::from_bits(0x3FEE_608C_FD9A_47AC),
    f64::from_bits(0x3FEC_A4B3_1F02_6AA0),
    f64::from_bits(0x3FEB_2036_576A_FCE6),
    f64::from_bits(0x3FE9_C2D1_63A1_AA2D),
    f64::from_bits(0x3FE8_86E6_0378_41ED),
    f64::from_bits(0x3FE7_67DC_F553_4862),
];
const LOGF_LOGC: [f64; 16] = [
    f64::from_bits(0xBFD5_7BF7_808C_AADE),
    f64::from_bits(0xBFD2_BEF0_A7C0_6DDB),
    f64::from_bits(0xBFD0_1EAE_7F51_3A67),
    f64::from_bits(0xBFCB_31D8_A682_24E9),
    f64::from_bits(0xBFC6_574F_0AC0_7758),
    f64::from_bits(0xBFC1_AA2B_C79C_8100),
    f64::from_bits(0xBFBA_4E76_CE8C_0E5E),
    f64::from_bits(0xBFB1_973C_5A61_1CCC),
    f64::from_bits(0xBFA2_52F4_38E1_0C1E),
    0.0,
    f64::from_bits(0x3FAA_A5AA_5DF2_5984),
    f64::from_bits(0x3FBC_5E53_AA36_2EB4),
    f64::from_bits(0x3FC5_26E5_7720_DB08),
    f64::from_bits(0x3FCB_C286_0D22_4770),
    f64::from_bits(0x3FD1_058B_C8A0_7EE1),
    f64::from_bits(0x3FD4_0430_57B6_EE09),
];
/// `log1p(r)` polynomial, `A[0..3]` of `__logf_data.poly`.
const LOGF_A: [f64; 3] = [
    f64::from_bits(0xBFD0_0EA3_48B8_8334),
    f64::from_bits(0x3FD5_575B_0BE0_0B6A),
    f64::from_bits(0xBFDF_FFFE_F20A_4123),
];

/// `2/π · 2^24`: the quadrant lands in bits 24..31 of the product
/// (`__sincosf_table[0].hpi_inv` on targets without round-to-int
/// intrinsics, x86_64 among them).
const HPI_INV: f64 = f64::from_bits(0x4164_5F30_6DC9_C883);
/// `π/2`.
const HPI: f64 = f64::from_bits(0x3FF9_21FB_5444_2D18);
/// `2^52`: adding it to an integer-valued `f64` below `2^52` moves the
/// integer into the low mantissa bits, exactly.
const TWO52: f64 = 4_503_599_627_370_496.0;
/// Cosine polynomial `c0..c4` and sine polynomial `s1..s3`.
const C0: f64 = 1.0;
const C1: f64 = f64::from_bits(0xBFDF_FFFF_FD0C_621C);
const C2: f64 = f64::from_bits(0x3FA5_5553_E106_8F19);
const C3: f64 = f64::from_bits(0xBF56_C087_E89A_359D);
const C4: f64 = f64::from_bits(0x3EF9_9343_027B_F8C3);
const S1: f64 = f64::from_bits(0xBFC5_5554_5995_A603);
const S2: f64 = f64::from_bits(0x3F81_1076_0523_0BC4);
const S3: f64 = f64::from_bits(0xBF29_94EB_3774_CF24);

/// Natural logarithm, glibc `logf` bit for bit on positive normal floats.
///
/// `x = 2^k · z` with `z` in `[0x3f330000, 2 · 0x3f330000)` exact, then
/// `ln x = log1p(z/c − 1) + log c + k·ln 2` with a degree-3 polynomial for
/// `log1p`. glibc's `x == 1` special case (it fixes the sign of zero under
/// downward rounding) falls out of the table under the default rounding:
/// `c = 1`, `log c = 0`, `r = 0`, result `+0.0`.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LOGF_OFF);
    let i = ((tmp >> (23 - 4)) % 16) as usize;
    let k = (tmp as i32) >> 23;
    let iz = ix.wrapping_sub(tmp & 0xff80_0000);
    let z = f32::from_bits(iz) as f64;
    let r = z * LOGF_INVC[i] - 1.0;
    let y0 = LOGF_LOGC[i] + k as f64 * LN2;
    let r2 = r * r;
    let y = LOGF_A[1] * r + LOGF_A[2];
    let y = LOGF_A[0] * r2 + y;
    let y = y * r2 + (y0 + r);
    y as f32
}

/// Cosine, glibc `cosf` bit for bit on `[0, 120)`.
///
/// glibc evaluates arguments below `0x1.8p-1` (its `abstop12` cut) with
/// the cosine polynomial directly and returns `1.0` below `2^-12`; for
/// every argument under 120 it otherwise reduces with `reduce_fast`. On
/// `[0, 0x1.8p-1)` that reduction yields quadrant 0 and the argument
/// unchanged (`x − 0·π/2 = x`), so the direct branch computes the same
/// bits; below `2^-12` the polynomial is `1 − x²/2 + …` with `x²/2 <
/// 2^-25`, which rounds to `1.0`. One path therefore covers the domain.
///
/// Quadrant `n` picks the polynomial: even `n` the cosine one (its
/// coefficients negated when `n & 2`, i.e. the result negated), odd `n`
/// the sine one on `±x`. Negation is exact, so `s · c` and `sin(s · x)`
/// are glibc's bits.
///
/// glibc takes the scaled quotient's integer part with a saturating
/// `f64 → i32` conversion, which the compiler keeps scalar. On the domain
/// the quotient `q` lies in `[0, 2^31)`, so the body reads the integer
/// out of the mantissa of `q + 2^52` instead (which rounds `q` to nearest)
/// and steps it down by one where that rounded up: the same integer part,
/// and so the same `n`, in integer and float ops that vectorize and need
/// no round-to-int instruction on the scalar backend.
#[inline(always)]
pub fn cos(y: f32) -> f32 {
    let x = y as f64;
    // reduce_fast: the scaled quotient's integer part, rounded to the
    // nearest quadrant by the 2^23 bias.
    let q = x * HPI_INV;
    let r = q + TWO52;
    let t = r.to_bits() - u64::from(r - TWO52 > q);
    let n = ((t + 0x80_0000) >> 24) & 0xff;
    let x = x - (f64::from_bits(TWO52.to_bits() | n) - TWO52) * HPI;
    // `sign[n & 3]` = {1, -1, -1, 1}.
    let s = if (n + 1) & 2 != 0 { -1.0 } else { 1.0 };
    let x2 = x * x;
    // Cosine polynomial (sinf_poly, odd branch).
    let x4 = x2 * x2;
    let c2 = C3 + x2 * C4;
    let c1 = C0 + x2 * C1;
    let x6 = x4 * x2;
    let c = c1 + x4 * C2;
    let c = c + x6 * c2;
    // Sine polynomial (sinf_poly, even branch) on `s · x`.
    let xs = x * s;
    let x3 = xs * x2;
    let s1 = S2 + x2 * S3;
    let x7 = x3 * x2;
    let sn = xs + x3 * S1;
    let sn = sn + x7 * s1;
    (if n & 1 == 0 { s * c } else { sn }) as f32
}

/// One standard normal from two uniforms, `u1 ∈ (0, 1]` and
/// `u2 ∈ [0, 1)`: `√(−2 ln u1) · cos(2π u2)`, the Box–Muller transform in
/// exactly the operation order the workspace has always used, with the
/// owned [`ln`] and [`cos`] in place of libm's.
///
/// Always inlined, with [`ln`] and [`cos`]: the AVX2 backend runs this
/// body inside a `#[target_feature]` wrapper, and a call out of that
/// wrapper would compile for the baseline ISA, one element at a time.
#[inline(always)]
pub fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * ln(u1)).sqrt() * cos(2.0 * std::f32::consts::PI * u2)
}
