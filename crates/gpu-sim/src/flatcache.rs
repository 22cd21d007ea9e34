//! Process-wide memoization of [`crate::interp::flatten`] and of the
//! segment-compiled engine lowering (`crate::engine`).
//!
//! Sweep-style workloads (autotuning, the figure harness, the verifier
//! sweep) launch the same kernel many times; re-flattening on every launch
//! re-walks the body and rebuilds the pre-decoded side tables each time. This cache keys a shared [`FlatProgram`] on a structural
//! fingerprint of the kernel, so repeated launches reuse one flatten.
//! Lowered engine programs ride on the flattening (lowering is
//! arch/grid/CTA independent), so every CTA of every launch of one kernel
//! replays a single compiled artifact. An entry holds the kernel's streams
//! and micro-ops once per warp class and per loop body, not once per warp
//! or per trip — [`FlatProgram::heap_bytes`] is what it retains,
//! [`resident_bytes`] the sum over the memo, [`lowering_shape`] the
//! micro-ops stored as against executed.
//!
//! The fingerprint covers every kernel field (f64s by bit pattern) and is
//! two independent 64-bit hashes, making accidental collisions between the
//! handful of kernels alive in one process vanishingly unlikely. It is the
//! one identity of a kernel: a [`FlatProgram`] records the fingerprint it
//! was filed under, so whoever holds the flattening holds the key of every
//! other per-kernel memo and never hashes the kernel again. The cache
//! is bounded: when it exceeds `MAX_ENTRIES` it is cleared wholesale
//! (sweeps churn through distinct kernels; LRU bookkeeping is not worth
//! the locking).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::engine::EngineProgram;
use crate::interp::{flatten_as, FlatProgram};
use crate::isa::codec::encode_kernel;
use crate::isa::Kernel;

const MAX_ENTRIES: usize = 256;

/// One memo slot per fingerprint. Concurrent requests for the same kernel
/// all block on a single flatten/lower via `OnceLock::get_or_init` instead
/// of racing to do the work N times (parallel CTA workers hit a new
/// kernel's slot simultaneously on the first launch).
type Slot<T> = Arc<OnceLock<Arc<T>>>;
type MemoCache<T> = Mutex<HashMap<(u64, u64), Slot<T>>>;

static CACHE: OnceLock<MemoCache<FlatProgram>> = OnceLock::new();

// Statistics only: each counter publishes nothing but itself.
static FINGERPRINTS: AtomicU64 = AtomicU64::new(0);
static FLATTEN_HITS: AtomicU64 = AtomicU64::new(0);
static FLATTEN_MISSES: AtomicU64 = AtomicU64::new(0);

/// How often this process has paid for a kernel's identity, since it
/// started: see [`identity_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentityCounts {
    /// Kernels encoded and hashed ([`fingerprint`] calls, direct or through
    /// [`flatten_cached`]).
    pub fingerprints: u64,
    /// [`flatten_cached`] calls answered by an existing [`FlatProgram`].
    pub flatten_hits: u64,
    /// [`flatten_cached`] calls that flattened.
    pub flatten_misses: u64,
}

/// The process-wide identity counters. Compiling and scoring a new kernel
/// should move them by one fingerprint and one miss; a test reads them
/// before and after to hold the compile path to that.
pub fn identity_counts() -> IdentityCounts {
    IdentityCounts {
        fingerprints: FINGERPRINTS.load(Ordering::Relaxed),
        flatten_hits: FLATTEN_HITS.load(Ordering::Relaxed),
        flatten_misses: FLATTEN_MISSES.load(Ordering::Relaxed),
    }
}

/// Heap bytes the memo retains right now: Σ [`FlatProgram::heap_bytes`]
/// over the flattenings it holds, each with its lowered program if it has
/// one. A count from lengths and sizes, so it repeats exactly — the
/// deterministic counterpart of a resident-set reading. (Not a field of
/// [`IdentityCounts`]: those only grow, this falls when the memo clears.)
pub fn resident_bytes() -> u64 {
    let Some(cache) = CACHE.get() else { return 0 };
    let g = cache.lock().expect("kernel memo cache poisoned");
    g.values().filter_map(|slot| slot.get()).map(|p| p.heap_bytes() as u64).sum()
}

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
/// kernel was flattened before in this process. One [`fingerprint`] per
/// call; the program returned carries it ([`FlatProgram::fingerprint`]).
pub fn flatten_cached(kernel: &Kernel) -> Arc<FlatProgram> {
    let key = fingerprint(kernel);
    let mut missed = false;
    let prog = memoized(&CACHE, key, || {
        missed = true;
        flatten_as(kernel, Some(key))
    });
    let counter = if missed { &FLATTEN_MISSES } else { &FLATTEN_HITS };
    counter.fetch_add(1, Ordering::Relaxed);
    prog
}

/// Lower `kernel` for the segment-compiled engine. The lowered program is
/// cached *on the flattening itself* (a `OnceLock` field of
/// [`FlatProgram`]): lowering is a pure function of the kernel, the
/// flattening is already memoized by kernel fingerprint, and keying a
/// second memo by fingerprint would re-encode and re-hash the whole kernel
/// body on every `run_cta` call (one [`fingerprint`] per CTA, ~20 ns per
/// body instruction, where dispatch itself is a pointer load). Tying the
/// artifact to its flattening also
/// makes staleness impossible by construction: new lowering output always
/// rides a new `FlatProgram`.
pub(crate) fn engine_cached(kernel: &Kernel, prog: &FlatProgram) -> Arc<EngineProgram> {
    prog.engine.get_or_init(|| Arc::new(crate::engine::lower(kernel, prog))).clone()
}

/// The op mix of the engine program for `kernel` (micro-ops, `exp`s, async
/// copies). Lowers and caches the program if this is the first request.
/// This is the public window the benchmark uses to report the lowered
/// program's shape without reaching into the engine internals.
pub fn engine_stats(kernel: &Kernel, prog: &FlatProgram) -> crate::engine::EngineStats {
    engine_cached(kernel, prog).stats().clone()
}

/// What the engine program for `kernel` stores, as against executes: the
/// micro-ops kept, and how many multi-trip runs were lowered as one rolled
/// period or trip after trip. Lowers and caches like [`engine_stats`].
pub fn lowering_shape(kernel: &Kernel, prog: &FlatProgram) -> crate::engine::LoweringShape {
    engine_cached(kernel, prog).shape()
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
/// re-walking the IR their own way — though a caller that holds the
/// kernel's [`FlatProgram`] already holds this value.
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
///
/// The value is one [`encode_kernel`] into a per-thread buffer, reused from
/// call to call, and one pass over those bytes by two 64-bit lanes. Each
/// lane starts from its own constant xor the lowering version, absorbs the
/// bytes as little-endian 64-bit words (the last one zero-padded) by
/// `h = (rotl(h, R) ^ word) * K` with its own odd `K` and rotation `R`, and
/// finishes by xoring in the byte length and applying the MurmurHash3
/// 64-bit finalizer.
///
/// Every step is a bijection of the lane for a fixed word and of the word
/// for a fixed lane, and so is the finish: two encodings of one length
/// that differ in a single word differ in both halves, always. Anything
/// else collides with the usual 2^-64 per half.
pub fn fingerprint_versioned(k: &Kernel, lowering_version: u32) -> (u64, u64) {
    thread_local! {
        static ENCODING: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    FINGERPRINTS.fetch_add(1, Ordering::Relaxed);
    ENCODING.with_borrow_mut(|bytes| {
        bytes.clear();
        encode_kernel(k, bytes);
        hash_words(bytes, lowering_version)
    })
}

/// The two-lane word hash [`fingerprint_versioned`] documents, of an
/// encoding at a lowering version.
fn hash_words(bytes: &[u8], lowering_version: u32) -> (u64, u64) {
    const K: (u64, u64) = (0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f);
    let step = |h: (u64, u64), w: u64| {
        ((h.0.rotate_left(5) ^ w).wrapping_mul(K.0), (h.1.rotate_left(23) ^ w).wrapping_mul(K.1))
    };
    let version = u64::from(lowering_version);
    let mut h = (K.1 ^ version, K.0 ^ version);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(last));
    }
    let finish = |mut x: u64| {
        x ^= bytes.len() as u64;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    };
    (finish(h.0), finish(h.1))
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
    fn fingerprint_is_the_word_hash_of_the_encoding() {
        let mut k = kernel(1.25);
        k.const_banks = vec![vec![0.5, -0.0, f64::NAN]];
        k.body.push(Node::Loop { count: 3, body: vec![Node::Op(Instr::mov(1, Op::Reg(0)))] });
        let mut bytes = Vec::new();
        encode_kernel(&k, &mut bytes);
        let v = crate::engine::LOWERING_VERSION;
        let print = fingerprint(&k);
        assert_eq!(print, hash_words(&bytes, v));
        assert_ne!(print.0, print.1, "the halves are two hashes, not one twice");
        // The flattening is filed under, and carries, the same value.
        assert_eq!(flatten_cached(&k).fingerprint(), Some(print));
        assert_eq!(crate::interp::flatten(&k).fingerprint(), None, "a bare flatten never hashes");
        // Every byte of the encoding counts, in both halves, and so do its
        // length and the version it is salted with.
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut other = bytes.clone();
                other[at] ^= flip;
                let moved = hash_words(&other, v);
                assert!(moved.0 != print.0 && moved.1 != print.1, "byte {at} ^ {flip:#x}");
            }
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(hash_words(&longer, v), print);
        assert_ne!(hash_words(&bytes, v + 1), print);
    }

    #[test]
    fn identity_counters_count_fingerprints_hits_and_misses() {
        // Other tests of this process move the counters too: they only grow.
        let before = identity_counts();
        let k = kernel(77.125);
        fingerprint(&k);
        flatten_cached(&k);
        flatten_cached(&k);
        let after = identity_counts();
        assert!(after.fingerprints >= before.fingerprints + 3);
        assert!(after.flatten_misses > before.flatten_misses);
        assert!(after.flatten_hits > before.flatten_hits);
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
