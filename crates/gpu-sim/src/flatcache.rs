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
use crate::isa::codec::{encode_kernel, Sink};
use crate::isa::Kernel;

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
/// [`crate::engine::LOWERING_VERSION`]: the hash of the kernel's
/// [`crate::isa::codec`] bytes, so it covers exactly what an encoded
/// artifact carries. Public so other deterministic per-kernel memos (e.g.
/// the schedule verifier's) can share one identity scheme instead of
/// re-walking the IR their own way.
///
/// Folding the lowering version in means a semantics bump changes every
/// fingerprint, so stale flattened/lowered programs can never be replayed
/// from the in-memory memos here. (The serve layer's on-disk cache does not
/// key on this: `ArtifactKey::derive` hashes the request identity and folds
/// the same version in itself.)
pub fn fingerprint(k: &Kernel) -> (u64, u64) {
    fingerprint_versioned(k, crate::engine::LOWERING_VERSION)
}

/// [`fingerprint`] at an explicit lowering version. Exists so tests (and
/// migration tooling) can prove that a version bump misses every cache
/// keyed on the fingerprint; production callers always want
/// [`fingerprint`].
pub fn fingerprint_versioned(k: &Kernel, lowering_version: u32) -> (u64, u64) {
    let mut h = (DefaultHasher::new(), DefaultHasher::new());
    // Distinct prefixes decorrelate the two hash streams.
    h.0.write_u8(0x51);
    h.1.write_u8(0xa7);
    h.u32(lowering_version);
    encode_kernel(k, &mut h);
    (h.0.finish(), h.1.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Node, Op};

    fn kernel(imm: f64) -> Kernel {
        Kernel {
            name: "fc".into(),
            body: vec![Node::Op(Instr::mov(0, Op::Imm(imm)))],
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
