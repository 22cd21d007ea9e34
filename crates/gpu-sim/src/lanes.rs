//! Fixed-size 32-lane chunk kernels for the SIMT inner loops.
//!
//! Both the interpreter's fast path ([`crate::interp::exec_fast`]) and the
//! segment-compiled engine ([`crate::engine`]) execute every instruction
//! over all 32 lanes of a warp. This module gives those loops one shared,
//! autovectorization-friendly shape:
//!
//! * every kernel works on `[f64; WARP_SIZE]` chunks (the *lane chunk*),
//!   so LLVM sees exact trip counts and needs no bounds checks or runtime
//!   alias analysis inside the loop;
//! * on x86-64 each kernel also has AVX2+FMA and AVX-512 specializations
//!   (the same scalar body compiled under `#[target_feature]`, so
//!   `a.mul_add(b, c)` lowers to `vfmadd` instead of a libm call and the
//!   elementwise loops vectorize 4 or 8 lanes wide), selected by a
//!   runtime-CPUID branch per call.
//!   Keeping each specialization a small standalone function is load-
//!   bearing: an experiment that instead compiled the entire dispatch
//!   loops under `#[target_feature]` (to remove the per-call branch) made
//!   LLVM fully unroll the lane loops to *scalar* code — the noalias facts
//!   carried by the `&Lanes` parameters are what let the vectorizer work;
//! * results are **bit-identical** between the scalar and vector paths:
//!   only IEEE-exact operations (+, -, *, /, sqrt, fused multiply-add,
//!   negation, compares, selects, copies, bit moves, table loads) are
//!   specialized, [`exp`](fn@exp) included, which is built from nothing
//!   else. Operations whose vectorized lowering is *not* pinned down to
//!   the bit (`max`/`min` signed-zero ordering) live in `#[inline(never)]`
//!   helpers so every caller shares one machine-code copy; libm calls
//!   (`powf`, `ln`, `log10`, `cbrt`) stay scalar in the callers.
//!
//! Operand order is preserved exactly as written in each kernel body:
//! IEEE addition is commutative in value but x86 propagates the *first*
//! operand's payload when both inputs are NaN, so callers that need
//! `c + p` rather than `p + c` get their own kernel variant.

use crate::isa::Cmp;
use crate::WARP_SIZE;

/// One warp's worth of f64 lanes — the unit every kernel operates on.
pub(crate) type Lanes = [f64; WARP_SIZE];

/// Whether the AVX2+FMA compilations are usable on this machine.
/// Detected once; a relaxed atomic read afterwards.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn simd_ok() -> bool {
    use std::sync::OnceLock;
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    })
}

/// Whether the AVX-512 compilations (F and DQ) are usable on this
/// machine. Same once-detected pattern as [`simd_ok`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(crate) fn simd512_ok() -> bool {
    use std::sync::OnceLock;
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| {
        std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
    })
}

/// Define one lane kernel: a single scalar body, compiled three times —
/// at the crate's baseline target features, under AVX2+FMA, and under
/// AVX-512 (8-wide f64, halving the trip count of every lane loop) —
/// with a runtime dispatch on the detected CPU. The compilations are
/// bit-identical for the exactly rounded operations this module
/// restricts itself to (vector width never changes an exactly rounded
/// elementwise result), so the dispatch is invisible to differential
/// tests. The compilations stay callable one by one as `$name::body`,
/// `$name::avx2` and `$name::avx512`, so a test can hold them to each
/// other on any host that runs them. This is the crate's only CPUID
/// dispatch and its only `#[target_feature]` code.
macro_rules! lane_kernel {
    ($(#[$meta:meta])* $name:ident, ($($p:ident : $t:ty),*), $body:block) => {
        $(#[$meta])*
        #[inline]
        pub(crate) fn $name($($p: $t),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if simd512_ok() {
                    // SAFETY: `simd512_ok` verified AVX-512 via CPUID.
                    return unsafe { $name::avx512($($p),*) };
                }
                if simd_ok() {
                    // SAFETY: `simd_ok` verified AVX2+FMA via CPUID.
                    return unsafe { $name::avx2($($p),*) };
                }
            }
            $name::body($($p),*)
        }

        /// The compilations of the lane kernel of the same name.
        pub(crate) mod $name {
            use super::*;

            #[inline(always)]
            pub(crate) fn body($($p: $t),*) $body

            /// # Safety
            /// The CPU must have AVX2 and FMA ([`simd_ok`](super::simd_ok)).
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(crate) unsafe fn avx2($($p: $t),*) {
                body($($p),*)
            }

            /// # Safety
            /// The CPU must have AVX-512 F and DQ
            /// ([`simd512_ok`](super::simd512_ok)).
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f", enable = "avx512dq")]
            pub(crate) unsafe fn avx512($($p: $t),*) {
                body($($p),*)
            }
        }
    };
}

lane_kernel!(add, (a: &Lanes, b: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = a[l] + b[l];
    }
});

lane_kernel!(sub, (a: &Lanes, b: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = a[l] - b[l];
    }
});

lane_kernel!(mul, (a: &Lanes, b: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = a[l] * b[l];
    }
});

lane_kernel!(div, (a: &Lanes, b: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = a[l] / b[l];
    }
});

lane_kernel!(
    /// Fused multiply-add (single rounding), as `f64::mul_add`.
    fma,
    (a: &Lanes, b: &Lanes, c: &Lanes, out: &mut Lanes),
    {
        for l in 0..WARP_SIZE {
            out[l] = a[l].mul_add(b[l], c[l]);
        }
    }
);

lane_kernel!(sqrt, (a: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = a[l].sqrt();
    }
});

lane_kernel!(neg, (a: &Lanes, out: &mut Lanes), {
    for l in 0..WARP_SIZE {
        out[l] = -a[l];
    }
});

lane_kernel!(
    /// Branch-free select: `out[l] = if pred[l] != 0.0 { a[l] } else { b[l] }`.
    sel,
    (pred: &Lanes, a: &Lanes, b: &Lanes, out: &mut Lanes),
    {
        for l in 0..WARP_SIZE {
            out[l] = if pred[l] != 0.0 { a[l] } else { b[l] };
        }
    }
);

lane_kernel!(
    /// `out[l] = exp(a[l])` by [`crate::vmath`]'s table-driven
    /// polynomial: the simulator's only `exp`.
    exp,
    (a: &Lanes, out: &mut Lanes),
    {
        for l in 0..WARP_SIZE {
            out[l] = crate::vmath::exp_poly(a[l]);
        }
    }
);

/// Arithmetic kind for the in-place binary kernels, mirroring the
/// IEEE-exact subset of the decoded `BinKind` (the ±0-sensitive
/// `max`/`min` and libm `pow` stay on the snapshotting path).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArithKind {
    Add,
    Sub,
    Mul,
    Div,
}

lane_kernel!(
    /// `d[l] = d[l] <op> b[l]` — the accumulator shape `d = d op x`.
    /// Register chunks are WARP_SIZE-aligned, so an operand chunk either
    /// *is* the destination chunk or is disjoint from it; these in-place
    /// forms replace the 256-byte operand snapshot the generic path
    /// takes when the left operand aliases the destination. Identical
    /// IEEE ops in identical order — bit-identical to snapshot-then-op.
    bin_in_a,
    (kind: ArithKind, d: &mut Lanes, b: &Lanes),
    {
        macro_rules! arm {
            ($op:tt) => {{
                // Not `d[l] $op= b[l]`: the compound form changes the
                // LLVM IR shape enough that release codegen commutes the
                // operands of the (mathematically commutative) add/mul,
                // which flips NaN-payload propagation and breaks the
                // engine-vs-interpreter bit-identity proptests. Keep the
                // exact expression the snapshot path evaluates.
                #[allow(clippy::assign_op_pattern)]
                for l in 0..WARP_SIZE {
                    d[l] = d[l] $op b[l];
                }
            }};
        }
        match kind {
            ArithKind::Add => arm!(+),
            ArithKind::Sub => arm!(-),
            ArithKind::Mul => arm!(*),
            ArithKind::Div => arm!(/),
        }
    }
);

lane_kernel!(
    /// `d[l] = a[l] <op> d[l]` — the right operand aliases the
    /// destination. Operand order is preserved (x86 NaN-payload
    /// propagation follows the first operand), so this is not
    /// [`bin_in_a`](fn@bin_in_a) with arguments swapped.
    bin_in_b,
    (kind: ArithKind, a: &Lanes, d: &mut Lanes),
    {
        macro_rules! arm {
            ($op:tt) => {{
                // Not an `op=`: the lint's rewrite would swap operand
                // order, which changes NaN-payload propagation.
                #[allow(clippy::assign_op_pattern)]
                for l in 0..WARP_SIZE {
                    d[l] = a[l] $op d[l];
                }
            }};
        }
        match kind {
            ArithKind::Add => arm!(+),
            ArithKind::Sub => arm!(-),
            ArithKind::Mul => arm!(*),
            ArithKind::Div => arm!(/),
        }
    }
);

lane_kernel!(
    /// `d[l] = d[l] <op> d[l]` — both operands alias the destination.
    bin_in_aa,
    (kind: ArithKind, d: &mut Lanes),
    {
        macro_rules! arm {
            ($op:tt) => {
                for l in 0..WARP_SIZE {
                    d[l] = d[l] $op d[l];
                }
            };
        }
        match kind {
            ArithKind::Add => arm!(+),
            ArithKind::Sub => arm!(-),
            ArithKind::Mul => arm!(*),
            ArithKind::Div => arm!(/),
        }
    }
);

lane_kernel!(
    /// `d[l] = fma(a[l], b[l], d[l])` — the multiply-accumulate shape
    /// with the addend aliasing the destination.
    fma_in_c,
    (a: &Lanes, b: &Lanes, d: &mut Lanes),
    {
        for l in 0..WARP_SIZE {
            d[l] = a[l].mul_add(b[l], d[l]);
        }
    }
);

lane_kernel!(
    /// `d[l] = fma(d[l], b[l], c[l])` — the first factor aliases the
    /// destination.
    fma_in_a,
    (d: &mut Lanes, b: &Lanes, c: &Lanes),
    {
        for l in 0..WARP_SIZE {
            d[l] = d[l].mul_add(b[l], c[l]);
        }
    }
);

/// IEEE maxNum per lane. `#[inline(never)]`: `f64::max` lowers to an LLVM
/// intrinsic whose vectorized form may order +0.0/-0.0 differently from
/// the scalar form, so the engine's AVX2-compiled loop and the
/// interpreter's baseline loop must share this single machine-code copy to
/// stay bit-identical on signed-zero operands.
#[inline(never)]
pub(crate) fn max(a: &Lanes, b: &Lanes, out: &mut Lanes) {
    for l in 0..WARP_SIZE {
        out[l] = a[l].max(b[l]);
    }
}

/// IEEE minNum per lane; see [`max`] for why this is `#[inline(never)]`.
#[inline(never)]
pub(crate) fn min(a: &Lanes, b: &Lanes, out: &mut Lanes) {
    for l in 0..WARP_SIZE {
        out[l] = a[l].min(b[l]);
    }
}

lane_kernel!(
    /// Compare producing 0.0/1.0 per lane. The kind match sits outside the
    /// lane loop so each arm is an independently vectorizable loop.
    cmp,
    (kind: Cmp, a: &Lanes, b: &Lanes, out: &mut Lanes),
    {
        macro_rules! arm {
            ($op:tt) => {
                for l in 0..WARP_SIZE {
                    out[l] = if a[l] $op b[l] { 1.0 } else { 0.0 };
                }
            };
        }
        match kind {
            Cmp::Lt => arm!(<),
            Cmp::Le => arm!(<=),
            Cmp::Gt => arm!(>),
            Cmp::Ge => arm!(>=),
            Cmp::Eq => arm!(==),
            Cmp::Ne => arm!(!=),
        }
    }
);

/// Two-rounding fused micro-op shapes for the engine's mul→add/sub fusion
/// (see `crate::engine`): the product `p = a*b` rounds once, then the
/// second operation rounds again — exactly the two instructions the
/// interpreter would execute, just without the dispatch in between.
/// Operand order encodes x86 NaN-payload propagation: `AddPC` is `p + c`,
/// `AddCP` is `c + p`, and likewise for subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedBin {
    AddPC,
    AddCP,
    SubPC,
    SubCP,
}

lane_kernel!(
    /// `t[l] = a[l]*b[l]; d[l] = t[l] <op> c[l]` with separate roundings,
    /// writing both the intermediate product chunk and the result chunk
    /// (the product register stays architecturally visible).
    mul_then_bin_both,
    (kind: FusedBin, a: &Lanes, b: &Lanes, c: &Lanes, t: &mut Lanes, d: &mut Lanes),
    {
        macro_rules! arm {
            (|$p:ident, $cv:ident| $e:expr) => {
                for l in 0..WARP_SIZE {
                    let $p = a[l] * b[l];
                    t[l] = $p;
                    let $cv = c[l];
                    d[l] = $e;
                }
            };
        }
        match kind {
            FusedBin::AddPC => arm!(|p, cv| p + cv),
            FusedBin::AddCP => arm!(|p, cv| cv + p),
            FusedBin::SubPC => arm!(|p, cv| p - cv),
            FusedBin::SubCP => arm!(|p, cv| cv - p),
        }
    }
);

lane_kernel!(
    /// [`mul_then_bin_both`](fn@mul_then_bin_both) for the case where the
    /// product register and the result register are the same chunk: the
    /// intermediate write is immediately overwritten, so only the final
    /// value lands.
    mul_then_bin_same,
    (kind: FusedBin, a: &Lanes, b: &Lanes, c: &Lanes, d: &mut Lanes),
    {
        macro_rules! arm {
            (|$p:ident, $cv:ident| $e:expr) => {
                for l in 0..WARP_SIZE {
                    let $p = a[l] * b[l];
                    let $cv = c[l];
                    d[l] = $e;
                }
            };
        }
        match kind {
            FusedBin::AddPC => arm!(|p, cv| p + cv),
            FusedBin::AddCP => arm!(|p, cv| cv + p),
            FusedBin::SubPC => arm!(|p, cv| p - cv),
            FusedBin::SubCP => arm!(|p, cv| cv - p),
        }
    }
);

/// A resolved operand: either a shared reference to a live register chunk
/// (proven disjoint from every destination chunk of the current op) or to a
/// constant-tail chunk, or an owned snapshot of an operand that aliases a
/// destination.
/// The size gap between the variants is the point: `Own` keeps the
/// snapshot on the stack of the op being executed — boxing it would put a
/// heap allocation on the hottest path in the simulator.
#[allow(clippy::large_enum_variant)]
pub(crate) enum OpLanes<'a> {
    Ref(&'a Lanes),
    Own(Lanes),
}

impl OpLanes<'_> {
    #[inline(always)]
    pub(crate) fn get(&self) -> &Lanes {
        match self {
            OpLanes::Ref(r) => r,
            OpLanes::Own(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(off: f64) -> Lanes {
        std::array::from_fn(|l| off + l as f64 * 0.5)
    }

    #[test]
    fn kernels_match_scalar_reference() {
        let a = seq(1.0);
        let b = seq(-3.0);
        let c = seq(0.25);
        let mut out = [0.0; WARP_SIZE];

        add(&a, &b, &mut out);
        for l in 0..WARP_SIZE {
            assert_eq!(out[l].to_bits(), (a[l] + b[l]).to_bits());
        }
        fma(&a, &b, &c, &mut out);
        for l in 0..WARP_SIZE {
            assert_eq!(out[l].to_bits(), a[l].mul_add(b[l], c[l]).to_bits());
        }
        cmp(Cmp::Lt, &a, &b, &mut out);
        for l in 0..WARP_SIZE {
            assert_eq!(out[l], if a[l] < b[l] { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn fused_double_rounding_matches_two_ops() {
        // The fused kernels must round twice — NOT like mul_add.
        let a = seq(1.0e8);
        let b = seq(3.0e-9);
        let c = seq(1.0);
        let mut t = [0.0; WARP_SIZE];
        let mut d = [0.0; WARP_SIZE];
        mul_then_bin_both(FusedBin::AddPC, &a, &b, &c, &mut t, &mut d);
        for l in 0..WARP_SIZE {
            let p = a[l] * b[l];
            assert_eq!(t[l].to_bits(), p.to_bits());
            assert_eq!(d[l].to_bits(), (p + c[l]).to_bits());
        }
        let mut d2 = [0.0; WARP_SIZE];
        mul_then_bin_same(FusedBin::SubCP, &a, &b, &c, &mut d2);
        for l in 0..WARP_SIZE {
            assert_eq!(d2[l].to_bits(), (c[l] - a[l] * b[l]).to_bits());
        }
    }

    #[test]
    fn special_values_roundtrip_bitwise() {
        // NaN / Inf / denormal / negative zero flow through unchanged
        // between the scalar and (when available) vector paths — both run
        // the same IEEE ops, so comparing against inline scalar compute
        // covers whichever path dispatched.
        let mut a = seq(0.0);
        a[0] = f64::NAN;
        a[1] = f64::INFINITY;
        a[2] = f64::NEG_INFINITY;
        a[3] = -0.0;
        a[4] = f64::MIN_POSITIVE / 2.0; // denormal
        let b = seq(1.0);
        let mut out = [0.0; WARP_SIZE];
        mul(&a, &b, &mut out);
        for l in 0..WARP_SIZE {
            assert_eq!(out[l].to_bits(), (a[l] * b[l]).to_bits(), "lane {l}");
        }
        sub(&a, &a, &mut out);
        assert!(out[0].is_nan());
        assert!(out[1].is_nan()); // inf - inf
        assert_eq!(out[3].to_bits(), (-0.0f64 - -0.0f64).to_bits());
    }
}
