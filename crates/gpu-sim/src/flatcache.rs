//! Process-wide memoization of [`crate::interp::flatten`] and of the
//! segment-compiled engine lowering (`crate::engine`).
//!
//! Sweep-style workloads (autotuning, the figure harness, the verifier
//! sweep) launch the same kernel many times; re-flattening on every launch
//! re-expands every loop and rebuilds the pre-decoded side tables each
//! time. This cache keys a shared [`FlatProgram`] on a structural
//! fingerprint of the kernel, so repeated launches reuse one flatten.
//! Lowered engine programs are memoized by the same fingerprint (lowering
//! is arch/grid/CTA independent), so every CTA of every launch of one
//! kernel replays a single compiled artifact.
//!
//! The fingerprint covers every kernel field (f64s by bit pattern) and is
//! two independent 64-bit hashes, making accidental collisions between the
//! handful of kernels alive in one process vanishingly unlikely. The cache
//! is bounded: when it exceeds `MAX_ENTRIES` it is cleared wholesale
//! (sweeps churn through distinct kernels; LRU bookkeeping is not worth
//! the locking).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, OnceLock};

use crate::engine::EngineProgram;
use crate::interp::{flatten, FlatProgram};
use crate::isa::*;

const MAX_ENTRIES: usize = 256;

/// One memo slot per fingerprint. Concurrent requests for the same kernel
/// all block on a single flatten/lower via `OnceLock::get_or_init` instead
/// of racing to do the work N times (parallel CTA workers hit a new
/// kernel's slot simultaneously on the first launch).
type Slot<T> = Arc<OnceLock<Arc<T>>>;
type MemoCache<T> = Mutex<HashMap<(u64, u64), Slot<T>>>;

static CACHE: OnceLock<MemoCache<FlatProgram>> = OnceLock::new();

/// Claim (or join) `key`'s slot under the lock, then run `make` outside it.
fn memoized<T>(
    cache: &'static OnceLock<MemoCache<T>>,
    key: (u64, u64),
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let slot = {
        let mut g = cache
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("kernel memo cache poisoned");
        if g.len() >= MAX_ENTRIES && !g.contains_key(&key) {
            g.clear();
        }
        g.entry(key).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(make())).clone()
}

/// Flatten `kernel`, reusing a cached [`FlatProgram`] when an identical
/// kernel was flattened before in this process.
pub fn flatten_cached(kernel: &Kernel) -> Arc<FlatProgram> {
    memoized(&CACHE, fingerprint(kernel), || flatten(kernel))
}

/// Lower `kernel` for the segment-compiled engine. The lowered program is
/// cached *on the flattening itself* (a `OnceLock` field of
/// [`FlatProgram`]): lowering is a pure function of the kernel, the
/// flattening is already memoized by kernel fingerprint, and keying a
/// second memo by fingerprint would re-hash the whole kernel body on every
/// `run_cta` call — measured at ~80 ns per body instruction, which
/// dominated engine dispatch. Tying the artifact to its flattening also
/// makes staleness impossible by construction: new lowering output always
/// rides a new `FlatProgram`.
pub(crate) fn engine_cached(kernel: &Kernel, prog: &FlatProgram) -> Arc<EngineProgram> {
    prog.engine.get_or_init(|| Arc::new(crate::engine::lower(kernel, prog))).clone()
}

/// Lowering-time statistics of the engine program for `kernel` (uop
/// counts, exp batching coverage, exp-chain rewrite ledger). Lowers and
/// caches the program if this is the first request. This is the public
/// window the benchmark harnesses use to report the per-op exp mix
/// without reaching into the engine internals.
pub fn engine_stats(kernel: &Kernel, prog: &FlatProgram) -> crate::engine::EngineStats {
    engine_cached(kernel, prog).stats().clone()
}

/// Digest of the lowered engine program for `kernel` (segments, micro-ops,
/// arenas, stats — see `EngineProgram::digest`): equal digests mean the
/// engine replays the same program, so tests pin it across optimizer
/// changes that claim identical lowering output.
pub fn engine_digest(kernel: &Kernel, prog: &FlatProgram) -> u64 {
    engine_cached(kernel, prog).digest()
}

/// Two independent structural hashes of the kernel, salted with
/// [`crate::engine::LOWERING_VERSION`]. Public so other deterministic
/// per-kernel memos (e.g. the schedule verifier's) can share one identity
/// scheme instead of re-walking the IR their own way.
///
/// Folding the lowering version in means a semantics bump changes every
/// fingerprint, so stale flattened/lowered programs can never be replayed
/// from either the in-memory memos here or the serve layer's on-disk
/// artifact cache (which keys files by this same fingerprint).
pub fn fingerprint(k: &Kernel) -> (u64, u64) {
    fingerprint_versioned(k, crate::engine::LOWERING_VERSION)
}

/// [`fingerprint`] at an explicit lowering version. Exists so tests (and
/// migration tooling) can prove that a version bump misses every cache
/// keyed on the fingerprint; production callers always want
/// [`fingerprint`].
pub fn fingerprint_versioned(k: &Kernel, lowering_version: u32) -> (u64, u64) {
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    // Distinct prefixes decorrelate the two hash streams.
    h1.write_u8(0x51);
    h2.write_u8(0xa7);
    h1.write_u32(lowering_version);
    h2.write_u32(lowering_version);
    hash_kernel(k, &mut h1);
    hash_kernel(k, &mut h2);
    (h1.finish(), h2.finish())
}

fn hash_kernel(k: &Kernel, h: &mut impl Hasher) {
    h.write(k.name.as_bytes());
    h.write_usize(k.warps_per_cta);
    h.write_usize(k.points_per_cta);
    h.write_usize(k.dregs_per_thread);
    h.write_usize(k.iregs_per_thread);
    h.write_usize(k.shared_words);
    h.write_usize(k.local_words_per_thread);
    h.write_usize(k.barriers_used);
    h.write_usize(k.spilled_bytes_per_thread);
    h.write_u8(k.exp_const_from_registers as u8);
    h.write_usize(k.const_banks.len());
    for b in &k.const_banks {
        h.write_usize(b.len());
        for v in b {
            h.write_u64(v.to_bits());
        }
    }
    h.write_usize(k.iconst_banks.len());
    for b in &k.iconst_banks {
        h.write_usize(b.len());
        for v in b {
            h.write_u32(*v);
        }
    }
    h.write_usize(k.global_arrays.len());
    for a in &k.global_arrays {
        h.write(a.name.as_bytes());
        h.write_usize(a.rows);
        h.write_u8(a.output as u8);
    }
    h.write_usize(k.body.len());
    hash_nodes(&k.body, h);
}

fn hash_nodes(nodes: &[Node], h: &mut impl Hasher) {
    for n in nodes {
        match n {
            Node::Op(i) => {
                h.write_u8(0);
                hash_instr(i, h);
            }
            Node::WarpIf { mask, body } => {
                h.write_u8(1);
                h.write_u64(*mask);
                h.write_usize(body.len());
                hash_nodes(body, h);
            }
            Node::WarpSwitch { case_of_warp, cases } => {
                h.write_u8(2);
                h.write_usize(case_of_warp.len());
                for c in case_of_warp {
                    h.write_usize(*c);
                }
                h.write_usize(cases.len());
                for c in cases {
                    h.write_usize(c.len());
                    hash_nodes(c, h);
                }
            }
            Node::Loop { count, body } => {
                h.write_u8(3);
                h.write_u32(*count);
                h.write_usize(body.len());
                hash_nodes(body, h);
            }
            Node::PointLoop { iters, body } => {
                h.write_u8(4);
                h.write_u32(*iters);
                h.write_usize(body.len());
                hash_nodes(body, h);
            }
        }
    }
}

fn hash_op(o: &Op, h: &mut impl Hasher) {
    match o {
        Op::Reg(r) => {
            h.write_u8(0);
            h.write_u16(*r);
        }
        Op::Imm(v) => {
            h.write_u8(1);
            h.write_u64(v.to_bits());
        }
    }
}

fn hash_iop(o: &IdxOp, h: &mut impl Hasher) {
    match o {
        IdxOp::Imm(v) => {
            h.write_u8(0);
            h.write_u32(*v);
        }
        IdxOp::Reg(r) => {
            h.write_u8(1);
            h.write_u16(*r);
        }
    }
}

fn hash_gaddr(a: &GAddr, h: &mut impl Hasher) {
    h.write_usize(a.array.0);
    hash_iop(&a.row, h);
    match &a.point {
        PointRef::Lane => h.write_u8(0),
        PointRef::Thread => h.write_u8(1),
        PointRef::Reg(r) => {
            h.write_u8(2);
            h.write_u16(*r);
        }
    }
}

fn hash_saddr(a: &SAddr, h: &mut impl Hasher) {
    match a.base {
        None => h.write_u8(0),
        Some(r) => {
            h.write_u8(1);
            h.write_u16(r);
        }
    }
    h.write_u32(a.imm);
    h.write_u32(a.lane_stride);
}

fn hash_cmp(c: &Cmp, h: &mut impl Hasher) {
    h.write_u8(match c {
        Cmp::Lt => 0,
        Cmp::Le => 1,
        Cmp::Gt => 2,
        Cmp::Ge => 3,
        Cmp::Eq => 4,
        Cmp::Ne => 5,
    });
}

fn hash_instr(i: &Instr, h: &mut impl Hasher) {
    match i {
        Instr::DMov { dst, src } => {
            h.write_u8(0);
            h.write_u16(*dst);
            hash_op(src, h);
        }
        Instr::DAdd { dst, a, b } => {
            h.write_u8(1);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DSub { dst, a, b } => {
            h.write_u8(2);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DMul { dst, a, b } => {
            h.write_u8(3);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DFma { dst, a, b, c, const_c } => {
            h.write_u8(4);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
            hash_op(c, h);
            h.write_u8(*const_c as u8);
        }
        Instr::DDiv { dst, a, b } => {
            h.write_u8(5);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DSqrt { dst, a } => {
            h.write_u8(6);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DExp { dst, a } => {
            h.write_u8(7);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DLog { dst, a } => {
            h.write_u8(8);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DLog10 { dst, a } => {
            h.write_u8(9);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DCbrt { dst, a } => {
            h.write_u8(10);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DPow { dst, a, b } => {
            h.write_u8(11);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DMax { dst, a, b } => {
            h.write_u8(12);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DMin { dst, a, b } => {
            h.write_u8(13);
            h.write_u16(*dst);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DNeg { dst, a } => {
            h.write_u8(14);
            h.write_u16(*dst);
            hash_op(a, h);
        }
        Instr::DSel { dst, pred, a, b } => {
            h.write_u8(15);
            h.write_u16(*dst);
            h.write_u16(*pred);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::DCmp { dst, cmp, a, b } => {
            h.write_u8(16);
            h.write_u16(*dst);
            hash_cmp(cmp, h);
            hash_op(a, h);
            hash_op(b, h);
        }
        Instr::LdGlobal { dst, addr, ldg } => {
            h.write_u8(17);
            h.write_u16(*dst);
            hash_gaddr(addr, h);
            h.write_u8(*ldg as u8);
        }
        Instr::StGlobal { src, addr } => {
            h.write_u8(18);
            hash_op(src, h);
            hash_gaddr(addr, h);
        }
        Instr::LdShared { dst, addr } => {
            h.write_u8(19);
            h.write_u16(*dst);
            hash_saddr(addr, h);
        }
        Instr::StShared { src, addr, lane_pred } => {
            h.write_u8(20);
            hash_op(src, h);
            hash_saddr(addr, h);
            match lane_pred {
                None => h.write_u8(0),
                Some(p) => {
                    h.write_u8(1);
                    h.write_u8(*p);
                }
            }
        }
        Instr::LdConst { dst, bank, idx } => {
            h.write_u8(21);
            h.write_u16(*dst);
            h.write_u16(*bank);
            hash_iop(idx, h);
        }
        Instr::LdLocal { dst, slot } => {
            h.write_u8(22);
            h.write_u16(*dst);
            h.write_u32(*slot);
        }
        Instr::StLocal { src, slot } => {
            h.write_u8(23);
            hash_op(src, h);
            h.write_u32(*slot);
        }
        Instr::Shfl { dst, src, lane } => {
            h.write_u8(24);
            h.write_u16(*dst);
            h.write_u16(*src);
            h.write_u8(*lane);
        }
        Instr::Idx(ii) => {
            h.write_u8(25);
            match ii {
                IdxInstr::Mov { dst, src } => {
                    h.write_u8(0);
                    h.write_u16(*dst);
                    hash_iop(src, h);
                }
                IdxInstr::Add { dst, a, b } => {
                    h.write_u8(1);
                    h.write_u16(*dst);
                    hash_iop(a, h);
                    hash_iop(b, h);
                }
                IdxInstr::Mul { dst, a, b } => {
                    h.write_u8(2);
                    h.write_u16(*dst);
                    hash_iop(a, h);
                    hash_iop(b, h);
                }
                IdxInstr::LaneId { dst } => {
                    h.write_u8(3);
                    h.write_u16(*dst);
                }
                IdxInstr::WarpId { dst } => {
                    h.write_u8(4);
                    h.write_u16(*dst);
                }
                IdxInstr::LdConst { dst, bank, idx } => {
                    h.write_u8(5);
                    h.write_u16(*dst);
                    h.write_u16(*bank);
                    hash_iop(idx, h);
                }
                IdxInstr::Shfl { dst, src, lane } => {
                    h.write_u8(6);
                    h.write_u16(*dst);
                    h.write_u16(*src);
                    h.write_u8(*lane);
                }
                IdxInstr::PipeOff { dst, k, stride } => {
                    h.write_u8(7);
                    h.write_u16(*dst);
                    h.write_u8(*k);
                    h.write_u32(*stride);
                }
            }
        }
        Instr::BarArrive { bar, warps } => {
            h.write_u8(26);
            h.write_u8(*bar);
            h.write_u16(*warps);
        }
        Instr::BarSync { bar, warps } => {
            h.write_u8(27);
            h.write_u8(*bar);
            h.write_u16(*warps);
        }
        Instr::BarArriveStage { base, k, warps } => {
            h.write_u8(28);
            h.write_u8(*base);
            h.write_u8(*k);
            h.write_u16(*warps);
        }
        Instr::BarSyncStage { base, k, warps } => {
            h.write_u8(29);
            h.write_u8(*base);
            h.write_u8(*k);
            h.write_u16(*warps);
        }
        Instr::CpAsync { addr, array, row, point } => {
            h.write_u8(30);
            hash_saddr(addr, h);
            hash_gaddr(&GAddr { array: *array, row: *row, point: *point }, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(imm: f64) -> Kernel {
        Kernel {
            name: "fc".into(),
            body: vec![Node::Op(Instr::DMov { dst: 0, src: Op::Imm(imm) })],
            warps_per_cta: 1,
            points_per_cta: 32,
            dregs_per_thread: 2,
            iregs_per_thread: 1,
            shared_words: 0,
            local_words_per_thread: 0,
            const_banks: vec![],
            iconst_banks: vec![],
            barriers_used: 0,
            global_arrays: vec![],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    #[test]
    fn identical_kernels_share_one_flatten() {
        let a = flatten_cached(&kernel(1.25));
        let b = flatten_cached(&kernel(1.25));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn different_kernels_do_not_collide() {
        let a = flatten_cached(&kernel(1.25));
        let b = flatten_cached(&kernel(2.5));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(fingerprint(&kernel(1.25)), fingerprint(&kernel(2.5)));
    }

    #[test]
    fn lowering_version_bump_misses_the_cache() {
        // The memo tables key on `fingerprint`, so proving the fingerprint
        // changes under a version bump proves a bump can never replay a
        // stale in-memory (or on-disk) entry lowered under old semantics.
        let k = kernel(3.5);
        let v = crate::engine::LOWERING_VERSION;
        assert_eq!(fingerprint(&k), fingerprint_versioned(&k, v));
        assert_ne!(
            fingerprint_versioned(&k, v),
            fingerprint_versioned(&k, v + 1),
            "a LOWERING_VERSION bump must change every kernel fingerprint"
        );
        // And the live cache entry for the current version is keyed by the
        // salted fingerprint (same kernel, same version => same slot).
        let a = flatten_cached(&k);
        let b = flatten_cached(&k);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fingerprint_covers_flags_and_banks() {
        let base = kernel(0.0);
        let mut k2 = kernel(0.0);
        k2.exp_const_from_registers = true;
        assert_ne!(fingerprint(&base), fingerprint(&k2));
        let mut k3 = kernel(0.0);
        k3.const_banks = vec![vec![1.0]];
        assert_ne!(fingerprint(&base), fingerprint(&k3));
    }
}
