//! The owned `ln` and `cos` against std on the whole Box–Muller grid.
//!
//! The uniform generator returns `k · 2^-24` for `k < 2^24`, so Box–Muller
//! can feed `ln` exactly the 2^24 values `1 − k · 2^-24 ∈ (0, 1]` and `cos`
//! exactly the 2^24 values `2π · k · 2^-24 ∈ [0, 2π)`. For each grid this
//! suite checks three things:
//!
//! 1. the port matches `f32::ln` / `f32::cos` (the host libm: glibc's
//!    `logf`/`cosf`, in their FMA build on an FMA host) bit for bit;
//! 2. the port with every multiply-add glibc's FMA build could contract
//!    fused (`f64::mul_add`) still returns the same bits, so the port
//!    agrees with both glibc builds whichever one the host runs;
//! 3. a hash of the port's outputs equals a pinned constant, which holds
//!    on any host, whatever its libm.
//!
//! Each grid takes under a second at the workspace's test `opt-level`.

use leca_tensor::backend::transcendental::{cos, ln};

const GRID: u32 = 1 << 24;

/// FNV-1a over the port's output bit patterns, in grid order.
const LN_HASH: u64 = 0x2591_401d_6872_4e51;
const COS_HASH: u64 = 0x8a43_abb6_1b10_ba81;

/// `k · 2^-24`, the generator's `k`-th uniform.
fn uniform(k: u32) -> f32 {
    k as f32 * (1.0 / GRID as f32)
}

fn fnv(h: u64, x: f32) -> u64 {
    (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
}

/// [`ln`] with every multiply-add fused.
fn ln_fused(x: f32) -> f32 {
    const LN2: f64 = f64::from_bits(0x3FE6_2E42_FEFA_39EF);
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(0x3f33_0000);
    let i = ((tmp >> 19) % 16) as usize;
    let k = (tmp as i32) >> 23;
    let z = f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)) as f64;
    let (invc, logc, a) = table(i);
    let r = z.mul_add(invc, -1.0);
    let y0 = (k as f64).mul_add(LN2, logc);
    let r2 = r * r;
    let y = a[1].mul_add(r, a[2]);
    let y = a[0].mul_add(r2, y);
    y.mul_add(r2, y0 + r) as f32
}

/// Entry `i` of the `ln` table (`1/c`, `log c`) and the polynomial,
/// restated from `__logf_data`.
fn table(i: usize) -> (f64, f64, [f64; 3]) {
    const INVC: [u64; 16] = [
        0x3FF6_61EC_79F8_F3BE,
        0x3FF5_71ED_4AAF_883D,
        0x3FF4_9539_F0F0_10B0,
        0x3FF3_C995_B0B8_0385,
        0x3FF3_0D19_0C88_64A5,
        0x3FF2_5E22_7B0B_8EA0,
        0x3FF1_BB4A_4A1A_343F,
        0x3FF1_2358_F08A_E5BA,
        0x3FF0_953F_4199_00A7,
        0x3FF0_0000_0000_0000,
        0x3FEE_608C_FD9A_47AC,
        0x3FEC_A4B3_1F02_6AA0,
        0x3FEB_2036_576A_FCE6,
        0x3FE9_C2D1_63A1_AA2D,
        0x3FE8_86E6_0378_41ED,
        0x3FE7_67DC_F553_4862,
    ];
    const LOGC: [u64; 16] = [
        0xBFD5_7BF7_808C_AADE,
        0xBFD2_BEF0_A7C0_6DDB,
        0xBFD0_1EAE_7F51_3A67,
        0xBFCB_31D8_A682_24E9,
        0xBFC6_574F_0AC0_7758,
        0xBFC1_AA2B_C79C_8100,
        0xBFBA_4E76_CE8C_0E5E,
        0xBFB1_973C_5A61_1CCC,
        0xBFA2_52F4_38E1_0C1E,
        0,
        0x3FAA_A5AA_5DF2_5984,
        0x3FBC_5E53_AA36_2EB4,
        0x3FC5_26E5_7720_DB08,
        0x3FCB_C286_0D22_4770,
        0x3FD1_058B_C8A0_7EE1,
        0x3FD4_0430_57B6_EE09,
    ];
    const A: [u64; 3] = [
        0xBFD0_0EA3_48B8_8334,
        0x3FD5_575B_0BE0_0B6A,
        0xBFDF_FFFE_F20A_4123,
    ];
    (
        f64::from_bits(INVC[i]),
        f64::from_bits(LOGC[i]),
        A.map(f64::from_bits),
    )
}

/// [`cos`] with every multiply-add fused.
fn cos_fused(y: f32) -> f32 {
    let [hpi_inv, hpi, c1, c2, c3, c4, s1, s2, s3] = [
        0x4164_5F30_6DC9_C883u64,
        0x3FF9_21FB_5444_2D18,
        0xBFDF_FFFF_FD0C_621C,
        0x3FA5_5553_E106_8F19,
        0xBF56_C087_E89A_359D,
        0x3EF9_9343_027B_F8C3,
        0xBFC5_5554_5995_A603,
        0x3F81_1076_0523_0BC4,
        0xBF29_94EB_3774_CF24,
    ]
    .map(f64::from_bits);
    let x = y as f64;
    let n = ((x * hpi_inv) as i32 + 0x80_0000) >> 24;
    let x = (-(n as f64)).mul_add(hpi, x);
    let s = if (n + 1) & 2 != 0 { -1.0 } else { 1.0 };
    let x2 = x * x;
    let x4 = x2 * x2;
    let cc2 = x2.mul_add(c4, c3);
    let cc1 = x2.mul_add(c1, 1.0);
    let x6 = x4 * x2;
    let c = x4.mul_add(c2, cc1);
    let c = x6.mul_add(cc2, c);
    let xs = x * s;
    let x3 = xs * x2;
    let ss1 = x2.mul_add(s3, s2);
    let x7 = x3 * x2;
    let sn = x3.mul_add(s1, xs);
    let sn = x7.mul_add(ss1, sn);
    (if n & 1 == 0 { s * c } else { sn }) as f32
}

/// Walks one grid: port vs std, port vs fused port, and the port's hash.
fn check(
    name: &str,
    input: impl Fn(u32) -> f32,
    port: fn(f32) -> f32,
    fused: fn(f32) -> f32,
    reference: fn(f32) -> f32,
    hash: u64,
) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut vs_std, mut vs_fused) = (0u32, 0u32);
    let mut first = None;
    for k in 0..GRID {
        let x = input(k);
        let got = port(x);
        let want = reference(x);
        if got.to_bits() != want.to_bits() {
            vs_std += 1;
            first.get_or_insert((x, got, want));
        }
        if fused(x).to_bits() != got.to_bits() {
            vs_fused += 1;
        }
        h = fnv(h, got);
    }
    assert_eq!(
        (vs_std, vs_fused),
        (0, 0),
        "{name}: {vs_std} mismatches against std and {vs_fused} against the fused port \
         over the grid; first against std {first:?}"
    );
    assert_eq!(h, hash, "{name}: the port's output hash is {h:#018x}");
}

#[test]
fn ln_matches_std_on_every_box_muller_input() {
    check("ln", |k| 1.0 - uniform(k), ln, ln_fused, f32::ln, LN_HASH);
}

#[test]
fn cos_matches_std_on_every_box_muller_input() {
    check(
        "cos",
        |k| 2.0 * std::f32::consts::PI * uniform(k),
        cos,
        cos_fused,
        f32::cos,
        COS_HASH,
    );
}
