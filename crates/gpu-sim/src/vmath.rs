//! Batched vector math for the transcendental floor.
//!
//! After the PR 6 lane kernels, ~75% of the DME-viscosity engine CTA is
//! serialized scalar libm `exp` calls. This module gives the engine and
//! interpreter one shared `exp` implementation with two selectable
//! numerics, chosen **once per process**:
//!
//! * **default** — every element goes through `f64::exp` (libm), exactly
//!   as the interpreter always has. With the `vexp` cargo feature off
//!   this is the *only* path, so default builds are bit-identical to
//!   pre-vmath behavior.
//! * **`vexp` feature + SIMD hardware** — a table-driven polynomial exp
//!   (range-reduce by `ln2/16`, a 16-entry `2^(j/16)` table, degree-7
//!   Taylor/Horner in `mul_add`, scale by `2^e` with a single final
//!   rounding). On AVX-512 machines a hand-written 8-wide intrinsics
//!   mirror runs (`exp_slice_avx512`: `vpermi2pd` keeps the whole
//!   table in two zmm registers, `vscalefpd` does the final scale);
//!   AVX2-only machines get the same scalar body autovectorized 4 wide.
//!   Dispatch follows the `lane_kernel!` pattern: CPUID `OnceLock`
//!   checks (`lanes::simd_ok` / `lanes::simd512_ok`)
//!   and a per-process veto via `SINGE_VEXP=0`.
//!
//! Bit-exactness discipline: the polynomial body uses only exactly
//! rounded operations (`+`, `-`, `*`, `mul_add`, compares, bit moves,
//! table loads), so the baseline compilation, the AVX2 compilation, and
//! the AVX-512 intrinsics mirror of the same algorithm produce
//! identical bits — which implementation *family* is active changes the
//! numerics, but within a process every `exp` call site (interpreter
//! fast path, engine exp uop) agrees bit for bit. That is
//! what keeps the engine-vs-interpreter differential suite green by
//! construction with the feature on or off.

use crate::lanes::Lanes;

/// Whether the polynomial exp is active for this process. `false`
/// whenever the `vexp` feature is off; otherwise requires AVX2+FMA and
/// honors a `SINGE_VEXP=0` veto. Decided once — lowered engine programs
/// and cached results must not see the numerics change mid-process.
#[inline(always)]
pub fn vexp_active() -> bool {
    #[cfg(feature = "vexp")]
    {
        use std::sync::OnceLock;
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            crate::lanes::simd_ok() && std::env::var("SINGE_VEXP").as_deref() != Ok("0")
        })
    }
    #[cfg(not(feature = "vexp"))]
    false
}

/// `out[i] = exp(xs[i])` for every element, through the process-wide
/// implementation.
///
/// Position independence: `exp_slice` applies a pure per-element
/// function, so `exp_slice(xs)[i] == exp1(xs[i])` bitwise regardless of
/// slice length or alignment.
#[inline]
pub fn exp_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "exp_slice operand/result length mismatch");
    #[cfg(all(feature = "vexp", target_arch = "x86_64"))]
    if vexp_active() {
        if crate::lanes::simd512_ok() {
            // SAFETY: `simd512_ok` verified AVX-512 F+DQ via CPUID.
            unsafe { exp_slice_avx512(xs, out) };
            return;
        }
        // SAFETY: `vexp_active` verified AVX2+FMA via CPUID.
        unsafe { exp_slice_avx(xs, out) };
        return;
    }
    for (o, x) in out.iter_mut().zip(xs) {
        *o = x.exp();
    }
}

/// One warp chunk of `exp`, for the interpreter's `UnKind::Exp` fast
/// path and the engine's exp uops.
#[inline(always)]
pub(crate) fn exp_lanes(a: &Lanes, out: &mut Lanes) {
    exp_slice(a, out);
}

/// Single-value `exp` through the process-wide implementation: the
/// element-wise reference [`exp_slice`] is tested against.
#[inline]
pub fn exp1(x: f64) -> f64 {
    #[cfg(feature = "vexp")]
    if vexp_active() {
        // Outside the target_feature wrapper `mul_add` may fall back to
        // libm `fma`, which is the same correctly-rounded operation —
        // identical bits, just slower.
        return exp_poly(x);
    }
    x.exp()
}

/// The AVX2+FMA compilation of the element loop, for AVX-512-less
/// hardware. Keeping the loop in a small standalone `#[target_feature]`
/// function is what lets LLVM vectorize it 4 lanes wide (see the
/// `lane_kernel!` notes in [`crate::lanes`]).
#[cfg(all(feature = "vexp", target_arch = "x86_64"))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp_slice_avx(xs: &[f64], out: &mut [f64]) {
    for (o, x) in out.iter_mut().zip(xs) {
        *o = exp_poly(*x);
    }
}

/// Hand-written 8-wide AVX-512 mirror of [`exp_poly`], instruction for
/// instruction:
///
/// * the float ops are the same exactly rounded fma/mul/sub sequence;
/// * the `vpermi2pd` two-register lookup returns exactly
///   `EXP_TAB[ki & 15]` (the index uses the low 4 bits of each lane,
///   which equal the scalar path's `(low 32 bits) & 15`);
/// * `e = ki >> 4` is a 64-bit `slli 32` + `srai 36`, reproducing the
///   scalar path's sign-extended arithmetic shift of the low 32 bits;
/// * `vscalefpd(m, e)` computes `round(m·2^e)` with a single rounding —
///   exactly the scalar path's `(m·s1)·s2`, whose first multiply is
///   exact (see [`exp_poly`]). Overflow → +inf and gradual subnormal
///   underflow agree because both are single-rounded.
///
/// Lanes where the two disagree on intermediate garbage (|x| large
/// enough that the magic-trick `ki` differs from the float-side `e`,
/// NaN) are exactly the lanes both paths overwrite with the same
/// saturation blends, so observable results stay bit-identical.
#[cfg(all(feature = "vexp", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn exp_slice_avx512(xs: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;

    let tab_lo = _mm512_loadu_si512(EXP_TAB.as_ptr() as *const _);
    let tab_hi = _mm512_loadu_si512(EXP_TAB.as_ptr().add(8) as *const _);
    let invln2 = _mm512_set1_pd(INVLN2_16);
    let magic = _mm512_set1_pd(MAGIC);
    let nln2hi = _mm512_set1_pd(-LN2_16_HI);
    let nln2lo = _mm512_set1_pd(-LN2_16_LO);
    let one = _mm512_set1_pd(1.0);
    let over = _mm512_set1_pd(OVER);
    let under = _mm512_set1_pd(UNDER);
    let inf = _mm512_set1_pd(f64::INFINITY);
    let zero = _mm512_setzero_pd();
    let fifteen = _mm512_set1_epi64(15);

    let n = xs.len();
    let mut i = 0;
    while i + 8 <= n {
        let x = _mm512_loadu_pd(xs.as_ptr().add(i));
        let kf = _mm512_fmadd_pd(x, invln2, magic);
        let k = _mm512_sub_pd(kf, magic);
        let kbits = _mm512_castpd_si512(kf);
        let r = _mm512_fmadd_pd(k, nln2hi, x);
        let r = _mm512_fmadd_pd(k, nln2lo, r);

        let mut p = _mm512_set1_pd(1.0 / 5_040.0);
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 720.0));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 120.0));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 24.0));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 6.0));
        p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
        p = _mm512_fmadd_pd(p, r, one);
        p = _mm512_fmadd_pd(p, r, one);

        let j = _mm512_and_epi64(kbits, fifteen);
        let t = _mm512_castsi512_pd(_mm512_permutex2var_epi64(tab_lo, j, tab_hi));
        let m = _mm512_mul_pd(p, t);
        let e = _mm512_srai_epi64::<36>(_mm512_slli_epi64::<32>(kbits));
        let v = _mm512_scalef_pd(m, _mm512_cvtepi64_pd(e));

        let nan_m = _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(x, x);
        let over_m = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(x, over);
        let under_m = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, under);
        let v = _mm512_mask_blend_pd(over_m, v, inf);
        let v = _mm512_mask_blend_pd(under_m, v, zero);
        let v = _mm512_mask_blend_pd(nan_m, v, x);
        _mm512_storeu_pd(out.as_mut_ptr().add(i), v);
        i += 8;
    }
    while i < n {
        *out.get_unchecked_mut(i) = exp_poly(*xs.get_unchecked(i));
        i += 1;
    }
}

/// Bits of `2^(j/16)` correctly rounded, `j = 0..16` — the classic
/// 16-entry exp table (the same values glibc's `exp` tables carry).
/// 16 entries is the sweet spot for the AVX-512 path: the whole table
/// fits in two zmm registers, so the lookup is one `vpermi2pd` with no
/// memory gather.
#[cfg(feature = "vexp")]
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
#[cfg(feature = "vexp")]
const INVLN2_16: f64 = f64::from_bits(0x4037_1547_652B_82FE);
#[cfg(feature = "vexp")]
const MAGIC: f64 = 6_755_399_441_055_744.0;
#[cfg(feature = "vexp")]
const LN2_16_HI: f64 = f64::from_bits(0x3FA6_2E42_F800_0000);
#[cfg(feature = "vexp")]
const LN2_16_LO: f64 = f64::from_bits(0x3E0B_E8E7_BCD5_E4F2);
#[cfg(feature = "vexp")]
const OVER: f64 = 709.782712893384;
#[cfg(feature = "vexp")]
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
/// baseline and AVX2 compilations of this body — and the hand-written
/// AVX-512 mirror in [`exp_slice_avx512`] — are bit-identical. Accuracy
/// is a few ulp — *not* correctly rounded and *not* equal to libm,
/// which is why the whole family is feature-gated and process-global.
#[cfg(feature = "vexp")]
#[inline(always)]
fn exp_poly(x: f64) -> f64 {
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
    // One exact multiply + one rounding of `m·2^e` is precisely what
    // AVX-512 `vscalefpd` computes, so the mirror stays bit-identical.
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
    use crate::WARP_SIZE;

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

    #[test]
    fn exp_lanes_matches_exp_slice() {
        let xs = corpus();
        let mut a = [0.0; WARP_SIZE];
        for (l, slot) in a.iter_mut().enumerate() {
            *slot = xs[l % xs.len()];
        }
        let mut chunk = [0.0; WARP_SIZE];
        let mut flat = [0.0; WARP_SIZE];
        exp_lanes(&a, &mut chunk);
        exp_slice(&a, &mut flat);
        for l in 0..WARP_SIZE {
            assert_eq!(chunk[l].to_bits(), flat[l].to_bits(), "lane {l}");
        }
    }

    #[test]
    fn special_values_behave() {
        // Whatever family is active: exp(NaN) is NaN, exp(+inf)=+inf,
        // exp(-inf)=0, exp(±0)=1, overflow saturates to +inf, deep
        // underflow to +0.
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
    fn dense_sweep_slice_matches_scalar_and_stays_close_to_libm() {
        // The AVX-512 mirror is hand-written intrinsics, so exercise it
        // (or whichever path dispatch picked) against the scalar body on
        // a dense pseudo-random sweep of the finite-exp argument range
        // plus raw bit patterns, all lengths crossing the 8-wide blocks.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64* — deterministic, no dev-dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut xs = Vec::with_capacity(4096);
        for i in 0..4096 {
            let u = next();
            let x = if i % 4 == 0 {
                f64::from_bits(u) // raw bits: NaNs, infs, subnormals, huge
            } else {
                // Uniform over [-760, 730]: spans under/overflow edges
                // and the entire finite-result range.
                (u >> 11) as f64 / (1u64 << 53) as f64 * 1490.0 - 760.0
            };
            xs.push(x);
        }
        let mut out = vec![0.0; xs.len()];
        exp_slice(&xs, &mut out);
        for (i, (&x, &o)) in xs.iter().zip(&out).enumerate() {
            assert_eq!(o.to_bits(), exp1(x).to_bits(), "elem {i} x={x:e}");
            let want = x.exp();
            if vexp_active() {
                if want.is_finite() && want.is_normal() {
                    let ulps = (o.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
                    assert!(ulps <= 4, "elem {i} x={x:e} got={o:e} want={want:e} ulps={ulps}");
                }
            } else {
                assert_eq!(o.to_bits(), want.to_bits(), "elem {i} x={x:e}");
            }
        }
    }

    #[test]
    fn close_to_libm_when_active() {
        // The polynomial family is allowed to differ from libm, but only
        // by a few ulp on finite results; the libm family must be exact.
        for &x in &corpus() {
            let got = exp1(x);
            let want = x.exp();
            if vexp_active() {
                if want.is_finite() && want > 0.0 && want.is_normal() {
                    let ulps = (got.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
                    assert!(ulps <= 4, "x={x:e} got={got:e} want={want:e} ulps={ulps}");
                }
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "x={x:e}");
            }
        }
    }
}
