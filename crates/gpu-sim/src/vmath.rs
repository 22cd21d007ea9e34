//! The simulator's one `exp`.
//!
//! The interpreter's fast path and the engine's exp micro-ops both run
//! the lane kernel `lanes::exp`, whose body is `exp_poly`: a
//! table-driven polynomial (range-reduce by `ln2/16`, a 16-entry
//! `2^(j/16)` table, degree-7 Taylor/Horner in `mul_add`, scale by `2^e`
//! with a single final rounding). `lane_kernel!` compiles that body at
//! the baseline target, under AVX2+FMA (4 wide) and under AVX-512
//! (8 wide), and picks one by CPUID.
//!
//! Bit-exactness discipline: the body uses only exactly rounded
//! operations (`+`, `-`, `*`, `mul_add`, compares, bit moves, table
//! loads), so every compilation gives the same bits on every host, and
//! the two executors agree bit for bit by construction. On an x86 host
//! without FMA the baseline compilation's `mul_add` is a call to
//! software `fma`: the same bits, slower. The result is
//! within a few ulp of libm's `exp`, which the CPU reference keeps.

use crate::lanes::{self, Lanes};
use crate::WARP_SIZE;

/// Always `true`: the table-driven polynomial is the simulator's only
/// `exp`. Kept so a run's record can still say which `exp` produced it.
#[inline(always)]
pub fn vexp_active() -> bool {
    true
}

/// `out[i] = exp(xs[i])` for every element, one warp chunk at a time
/// through `lanes::exp` (a short tail is padded to a chunk).
///
/// Position independence: `exp` is a pure per-element function, so
/// `exp_slice(xs)[i] == exp1(xs[i])` bitwise regardless of slice length
/// or alignment.
pub fn exp_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "exp_slice operand/result length mismatch");
    for (x, o) in xs.chunks(WARP_SIZE).zip(out.chunks_mut(WARP_SIZE)) {
        match (<&Lanes>::try_from(x), <&mut Lanes>::try_from(&mut *o)) {
            (Ok(x), Ok(o)) => lanes::exp(x, o),
            _ => {
                let mut a = [0.0; WARP_SIZE];
                a[..x.len()].copy_from_slice(x);
                let mut r = [0.0; WARP_SIZE];
                lanes::exp(&a, &mut r);
                o.copy_from_slice(&r[..x.len()]);
            }
        }
    }
}

/// Single-value `exp`: [`exp_slice`] on one element.
pub fn exp1(x: f64) -> f64 {
    let mut out = [0.0];
    exp_slice(&[x], &mut out);
    out[0]
}

/// Bits of `2^(j/16)` correctly rounded, `j = 0..16` — the classic
/// 16-entry exp table (the same values glibc's `exp` tables carry).
const EXP_TAB: [u64; 16] = [
    0x3FF0_0000_0000_0000, // 2^(0/16)
    0x3FF0_B558_6CF9_890F,
    0x3FF1_72B8_3C7D_517B,
    0x3FF2_387A_6E75_6238,
    0x3FF3_06FE_0A31_B715,
    0x3FF3_DEA6_4C12_3422,
    0x3FF4_BFDA_D536_2A27,
    0x3FF5_AB07_DD48_5429,
    0x3FF6_A09E_667F_3BCD, // 2^(8/16) = sqrt(2)
    0x3FF7_A114_73EB_0187,
    0x3FF8_ACE5_422A_A0DB,
    0x3FF9_C491_82A3_F090,
    0x3FFA_E89F_995A_D3AD,
    0x3FFC_199B_DD85_529C,
    0x3FFD_5818_DCFB_A487,
    0x3FFE_A4AF_A2A4_90DA, // 2^(15/16)
];

/// `16/ln2`, `1.5·2^52` (the branch-free nearest-integer magic), the
/// Cody–Waite split of `ln2/16` (HI has 27 trailing zero bits, so
/// `k·LN2_16_HI` is exact for the full `|k| < 2^15` range reached by
/// finite-exp arguments), and the saturation thresholds.
const INVLN2_16: f64 = f64::from_bits(0x4037_1547_652B_82FE);
const MAGIC: f64 = 6_755_399_441_055_744.0;
const LN2_16_HI: f64 = f64::from_bits(0x3FA6_2E42_F800_0000);
const LN2_16_LO: f64 = f64::from_bits(0x3E0B_E8E7_BCD5_E4F2);
const OVER: f64 = 709.782712893384;
const UNDER: f64 = -745.1332191019412;

/// Table-driven polynomial `exp`: `x = k·(ln2/16) + r` with
/// `|r| ≤ ln2/32`, `exp(r)` by a degree-7 Taylor series in
/// Horner/`mul_add` form (truncation ~1.2e-18 relative over the reduced
/// range), `2^(j/16)` from [`EXP_TAB`] with `j = k mod 16`, and the
/// remaining `2^e` scale applied in two exact power-of-two multiplies
/// (the split keeps the subnormal underflow range and the overflow edge
/// correct with a single final rounding).
///
/// Every operation is exactly rounded and rounding-mode-independent in
/// practice (the process never leaves round-to-nearest-even), so the
/// baseline, AVX2 and AVX-512 compilations of this body are
/// bit-identical. Accuracy is a few ulp: *not* correctly rounded and
/// *not* equal to libm.
#[inline(always)]
pub(crate) fn exp_poly(x: f64) -> f64 {
    let kf = x.mul_add(INVLN2_16, MAGIC);
    let k = kf - MAGIC;
    // Two's-complement k sits in the low mantissa bits of kf. Garbage
    // for |x| out of range — harmless, those lanes are selected away.
    let ki = (kf.to_bits() & 0xffff_ffff) as u32 as i32;
    let r = k.mul_add(-LN2_16_HI, x);
    let r = k.mul_add(-LN2_16_LO, r);

    // exp(r) ≈ Σ r^n / n! for n = 0..=7 over |r| ≤ ln2/32.
    let mut p: f64 = 1.0 / 5_040.0; // 1/7!
    p = p.mul_add(r, 1.0 / 720.0); // 1/6!
    p = p.mul_add(r, 1.0 / 120.0); // 1/5!
    p = p.mul_add(r, 1.0 / 24.0); // 1/4!
    p = p.mul_add(r, 1.0 / 6.0); // 1/3!
    p = p.mul_add(r, 0.5);
    p = p.mul_add(r, 1.0);
    p = p.mul_add(r, 1.0);

    let m = p * f64::from_bits(EXP_TAB[(ki & 15) as usize]);
    // 2^e in two halves: each factor stays a normal power of two for
    // every reachable e (e in [-1075, 1025] → halves in [-538, 513]),
    // `m·s1` stays normal (|m| ∈ (2^-1, 2^1.1)) so the first multiply
    // is exact, and the second rounds once — into the subnormal range
    // when e is deeply negative, to +inf past the overflow threshold.
    let e = ki >> 4;
    let e1 = e >> 1;
    let e2 = e - e1;
    let s1 = f64::from_bits(((1023i64 + e1 as i64) as u64) << 52);
    let s2 = f64::from_bits(((1023i64 + e2 as i64) as u64) << 52);
    let v = (m * s1) * s2;

    // Ordered selects, if-converted to blends under AVX2. NaN inputs
    // pass through with their payload; out-of-range inputs saturate.
    if x.is_nan() {
        x
    } else if x > OVER {
        f64::INFINITY
    } else if x < UNDER {
        0.0
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit patterns that exercise every special-value class, mirroring
    /// the differential corpus in `tests/engine_prop.rs`.
    const SPECIALS: [u64; 13] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x8000_0000_0000_0001, // -smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x7fef_ffff_ffff_ffff, // f64::MAX
        0xffef_ffff_ffff_ffff, // -f64::MAX
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff8_dead_beef_0001, // NaN with payload
        0x3ff0_0000_0000_0000, // 1.0
        0x7e37_e43c_8800_759c, // 1e300
    ];

    fn corpus() -> Vec<f64> {
        let mut v: Vec<f64> = SPECIALS.iter().map(|&b| f64::from_bits(b)).collect();
        v.extend_from_slice(&[
            0.5, -0.5, 1.0, -1.0, 3.75, -3.75, 88.7, -88.7, 350.0, -350.0, 700.1, -700.1,
            709.78, 710.0, -708.4, -745.0, -745.2, -746.0, 1e-300, -1e-300, 6.25e-3, 1e3,
        ]);
        v
    }

    #[test]
    fn exp_slice_matches_exp1_elementwise() {
        // Position independence: slices of every length and offset give
        // the same bits as the single-value entry point.
        let xs = corpus();
        for len in [1, 2, 3, WARP_SIZE - 1, WARP_SIZE, 2 * WARP_SIZE + 5] {
            let buf: Vec<f64> = xs.iter().cycle().take(len).copied().collect();
            let mut out = vec![0.0; len];
            exp_slice(&buf, &mut out);
            for (i, (&x, &o)) in buf.iter().zip(&out).enumerate() {
                assert_eq!(
                    o.to_bits(),
                    exp1(x).to_bits(),
                    "len {len} elem {i} x={x:e}"
                );
            }
        }
    }

    /// The dense sweep: pseudo-random arguments over the finite-exp
    /// range and its under/overflow edges, plus raw bit patterns.
    fn sweep() -> Vec<f64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no dev-dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        (0..4096)
            .map(|i| {
                let u = next();
                if i % 4 == 0 {
                    f64::from_bits(u) // raw bits: NaNs, infs, subnormals, huge
                } else {
                    // Uniform over [-760, 730]: spans under/overflow edges
                    // and the entire finite-result range.
                    (u >> 11) as f64 / (1u64 << 53) as f64 * 1490.0 - 760.0
                }
            })
            .collect()
    }

    #[test]
    fn special_values_behave() {
        // exp(NaN) is NaN, exp(+inf)=+inf, exp(-inf)=0, exp(±0)=1,
        // overflow saturates to +inf, deep underflow to +0.
        assert!(exp1(f64::NAN).is_nan());
        assert_eq!(exp1(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp1(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp1(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp1(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp1(1000.0), f64::INFINITY);
        assert_eq!(exp1(-1000.0).to_bits(), 0.0f64.to_bits());
        // Subnormal arguments: exp(x) ≈ 1.
        assert_eq!(exp1(f64::from_bits(1)).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn every_compiled_tier_gives_the_same_bits() {
        // The dispatcher runs only the widest compilation the host has, so
        // each one this host can run is called directly here and held to
        // the scalar body on the corpus and the dense sweep.
        let xs: Vec<f64> = corpus().into_iter().chain(sweep()).collect();
        for chunk in xs.chunks(WARP_SIZE) {
            let mut a = [0.0; WARP_SIZE];
            a[..chunk.len()].copy_from_slice(chunk);
            let mut want = [0.0; WARP_SIZE];
            lanes::exp::body(&a, &mut want);
            let mut got = vec![("dispatched", [0.0; WARP_SIZE])];
            lanes::exp(&a, &mut got[0].1);
            #[cfg(target_arch = "x86_64")]
            {
                let mut out = [0.0; WARP_SIZE];
                if lanes::simd_ok() {
                    // SAFETY: `simd_ok` verified AVX2+FMA via CPUID.
                    unsafe { lanes::exp::avx2(&a, &mut out) };
                    got.push(("avx2", out));
                }
                if lanes::simd512_ok() {
                    // SAFETY: `simd512_ok` verified AVX-512 via CPUID.
                    unsafe { lanes::exp::avx512(&a, &mut out) };
                    got.push(("avx512", out));
                }
            }
            for (tier, out) in &got {
                for l in 0..WARP_SIZE {
                    assert_eq!(out[l].to_bits(), want[l].to_bits(), "{tier} x={:e}", a[l]);
                }
            }
        }
    }

    #[test]
    fn stays_within_four_ulp_of_libm() {
        // The polynomial differs from libm, but only by a few ulp on
        // normal finite results.
        let xs: Vec<f64> = corpus().into_iter().chain(sweep()).collect();
        let mut out = vec![0.0; xs.len()];
        exp_slice(&xs, &mut out);
        for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
            let want = x.exp();
            if want.is_finite() && want.is_normal() {
                let ulps = (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
                assert!(ulps <= 4, "elem {i} x={x:e} got={got:e} want={want:e} ulps={ulps}");
            }
        }
    }
}
