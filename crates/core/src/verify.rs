//! Independent static verifier for emitted kernels.
//!
//! The scheduler (`sync.rs`) *constructs* barrier protocols that are safe
//! by Theorem 1; this module *re-checks* the emitted artifact without
//! trusting any of that machinery. It abstractly interprets each warp's
//! flattened instruction stream (the same `flatten` the simulator uses,
//! via the read-only [`gpu_sim::interp::FlatStep`] view) and checks three
//! property families:
//!
//! * **Deadlock freedom** — warps are co-executed under the same
//!   round-robin discipline as the simulator; a full round with every
//!   live warp blocked on a `bar.sync` is reported with the complete
//!   blocked-warp/barrier picture. Because the flattened streams are
//!   straight-line (all control flow is static), the round-robin schedule
//!   is representative: a barrier either completes under *every*
//!   schedule or under none, so detection is sound and complete.
//! * **Shared-memory race freedom** — a FastTrack-style vector-clock
//!   analysis over shared words. `bar.arrive` is a release (the arriving
//!   warp publishes its clock into the barrier), `bar.sync` is a release
//!   *and* an acquire (the waking warp joins the merged clock of the
//!   generation that released it). Reads require a happens-before edge
//!   from the last write (RW), writes from the last write (WW) *and*
//!   from every read since it (WAR — this is what catches slot-recycling
//!   hazards across `PointLoop` generations: iteration *i+1*'s producer
//!   store must be ordered after iteration *i*'s consumer loads).
//! * **Resource limits** — barrier ids must fit the architecture's named
//!   barrier file, expected-warp counts must not exceed the CTA, shared
//!   addresses must stay inside `shared_words`, and the CTA's shared
//!   footprint must fit the SM.
//!
//! Shared addresses are resolved by concrete per-lane constant
//! propagation over the index ISA. Every `IdxInstr` source is
//! compile-time deterministic (immediates, lane id, warp id, integer
//! constant banks, intra-warp shuffles), so the abstract domain
//! `[u32; 32]` per register loses nothing; if resolution ever fails the
//! verifier refuses to certify ([`ViolationKind::Unresolved`]) rather
//! than guessing.

use crate::config::CompileOptions;
use crate::{CResult, CompileError};
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::flatten_cached;
use gpu_sim::interp::FlatProgram;
use gpu_sim::isa::{IdxInstr, IdxOp, Instr, Kernel, SAddr};
use gpu_sim::WARP_SIZE;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// How much verification [`enforce`] performs after codegen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No verification.
    Off,
    /// Verify every kernel except those compiled with the deliberate
    /// §6.2 `unsafe_remove_barriers` ablation (which exists to measure
    /// the cost of the barriers it strips, and is racy by construction).
    #[default]
    Basic,
    /// Verify everything; the §6.2 ablation output is rejected.
    Strict,
}

/// What kind of property a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// No warp can make progress; circular or mismatched waits.
    Deadlock,
    /// Disagreeing expected-warp counts or unmatched arrivals on a
    /// barrier id.
    BarrierMismatch,
    /// A shared-memory access pair with no happens-before edge.
    Race,
    /// A declared or referenced resource exceeds the architecture.
    Resource,
    /// The verifier could not statically resolve an address and refuses
    /// to certify the kernel.
    Unresolved,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::BarrierMismatch => "barrier-mismatch",
            ViolationKind::Race => "race",
            ViolationKind::Resource => "resource",
            ViolationKind::Unresolved => "unresolved",
        };
        f.write_str(s)
    }
}

/// One verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Property family.
    pub kind: ViolationKind,
    /// Human-readable description with warp/address context.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.msg)
    }
}

/// A failed verification as a structured error: the kernel name plus the
/// complete violation list. This is what
/// [`CompileError::Verification`] wraps, and it is reachable through
/// `std::error::Error::source` for callers that walk error chains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFailure {
    /// Name of the kernel that failed verification.
    pub kernel: String,
    /// Every violation found (not just the first).
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel '{}' failed schedule verification ({} violation{}):",
            self.kernel,
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        )?;
        for v in self.violations.iter().take(8) {
            write!(f, "\n  {v}")?;
        }
        if self.violations.len() > 8 {
            write!(f, "\n  ... and {} more", self.violations.len() - 8)?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyFailure {}

/// Statistics from a successful verification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Warps analyzed.
    pub warps: usize,
    /// Dynamic barrier operations (arrive + sync) executed.
    pub barrier_ops: usize,
    /// Dynamic shared-memory accesses checked for races.
    pub shared_accesses: usize,
    /// Distinct barrier ids observed.
    pub barrier_ids: usize,
    /// Barrier generations completed (protocol "rounds").
    pub generations: u64,
}

/// What a verdict is a function of: the kernel, and every [`GpuArch`] field
/// the verifier reads — the limits it checks against and the name its
/// messages quote. `GpuArch` has public fields, so two architectures of one
/// name need not share limits.
type VerifyKey = ((u64, u64), &'static str, usize, usize);
type Verdict = Result<VerifyReport, Vec<Violation>>;
type VerifyMemo = Mutex<HashMap<VerifyKey, Verdict>>;

fn verify_memo() -> &'static VerifyMemo {
    static CACHE: OnceLock<VerifyMemo> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Bound for the verify memo; cleared wholesale when full (sweeps churn
/// through distinct kernels, LRU bookkeeping is not worth the locking).
const VERIFY_MEMO_MAX: usize = 256;

/// Verify `kernel` against `arch`. Returns statistics on success or the
/// full list of violations (not just the first) on failure.
///
/// Memoized per (kernel fingerprint, arch limits): verification is
/// deterministic, and the same kernel is typically verified twice — once by
/// [`enforce`] right after codegen and again by the `report verify` sweep.
pub fn verify_kernel(kernel: &Kernel, arch: &GpuArch) -> Verdict {
    verify_flat(kernel, arch).1
}

/// [`verify_kernel`], also handing back the flattening it checked. The one
/// `flatten_cached` call is the one pass over the kernel: the memo is keyed
/// off the fingerprint the flattening carries. The flattening comes first
/// because a compile wants it whatever the memo says; the price is that a
/// memo hit on a kernel the flat cache has since dropped (it clears after
/// 256 kernels) flattens it again.
fn verify_flat(kernel: &Kernel, arch: &GpuArch) -> (Arc<FlatProgram>, Verdict) {
    let prog = flatten_cached(kernel);
    let print = prog.fingerprint().expect("flatten_cached files a program under its fingerprint");
    let key = (print, arch.name, arch.shared_per_sm, arch.named_barriers_per_sm);
    let memo_poisoned = "verify memo poisoned";
    if let Some(hit) = verify_memo().lock().expect(memo_poisoned).get(&key) {
        return (prog, hit.clone());
    }
    // Verify outside the lock: the dynamic protocol run is the expensive
    // part, and parallel sweep workers must not serialize on it.
    let mut v = Verifier::new(kernel, arch, &prog);
    v.check_static();
    v.run();
    let result =
        if v.violations.is_empty() { Ok(v.report) } else { Err(v.violations) };
    let mut memo = verify_memo().lock().expect(memo_poisoned);
    if memo.len() >= VERIFY_MEMO_MAX {
        memo.clear();
    }
    let verdict = memo.entry(key).or_insert(result).clone();
    (prog, verdict)
}

/// Whether a compile with `options` runs the verifier on what it emits.
/// The one spelling of [`VerifyLevel`]'s policy: the compilers ask it before
/// they call [`enforce`], and whoever wants to know afterwards reads
/// [`Compiled::verdict`], which is `Some` exactly when this said yes.
///
/// [`Compiled::verdict`]: crate::codegen::Compiled::verdict
pub fn runs_for(options: &CompileOptions) -> bool {
    match options.verify {
        VerifyLevel::Off => false,
        VerifyLevel::Basic => !options.unsafe_remove_barriers,
        VerifyLevel::Strict => true,
    }
}

/// What [`enforce`] found of a kernel that passed.
#[derive(Debug, Clone)]
pub struct Verified {
    /// The flattening the verifier checked, for [`Compiled::flat`].
    ///
    /// [`Compiled::flat`]: crate::codegen::Compiled::flat
    pub flat: Arc<FlatProgram>,
    /// The verifier's statistics, for [`Compiled::verdict`].
    ///
    /// [`Compiled::verdict`]: crate::codegen::Compiled::verdict
    pub report: VerifyReport,
}

/// [`verify_kernel`] as the compilers run it (when [`runs_for`] their
/// options): violations become a hard [`CompileError::Verification`], and a
/// kernel that passed comes back with the flattening the verifier made of it
/// and the report it wrote, so nobody hashes the kernel again to ask for
/// either.
pub fn enforce(kernel: &Kernel, arch: &GpuArch) -> CResult<Verified> {
    match verify_flat(kernel, arch) {
        (flat, Ok(report)) => Ok(Verified { flat, report }),
        (_, Err(violations)) => Err(CompileError::Verification(VerifyFailure {
            kernel: kernel.name.clone(),
            violations,
        })),
    }
}

/// Vector clock over warps.
#[derive(Debug, Clone, PartialEq)]
struct VClock(Vec<u64>);

impl VClock {
    fn new(n: usize) -> VClock {
        VClock(vec![0; n])
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Does the event `(warp, epoch)` happen before a warp holding this
    /// clock?
    fn ordered_after(&self, warp: usize, epoch: u64) -> bool {
        self.0[warp] >= epoch
    }
}

/// Abstract named-barrier state, mirroring the simulator's semantics
/// plus per-generation release clocks for the happens-before analysis.
#[derive(Debug, Clone)]
struct AbsBarrier {
    arrived: u16,
    expected: Option<u16>,
    generation: u64,
    /// Merged clocks of the arrivals in the current (incomplete)
    /// generation.
    pending: VClock,
    /// Release clock of each completed generation; a warp that blocked
    /// during generation `g` acquires `releases[g]` when it wakes.
    releases: Vec<VClock>,
}

/// Per-shared-word access history, struct-of-arrays over
/// `shared_words x warps`: the verifier touches millions of (word, warp)
/// pairs on big kernels, so read tracking must be O(1) per word with no
/// per-slot heap structures. Reads keep one entry per warp (the latest
/// epoch subsumes earlier ones for the WAR check; epoch 0 = no read,
/// real epochs start at 1).
struct SlotTable {
    n_warps: usize,
    last_write: Vec<Option<(usize, u64, u32)>>,
    read_epoch: Vec<u64>,
    read_addr: Vec<u32>,
}

impl SlotTable {
    fn new(shared_words: usize, n_warps: usize) -> SlotTable {
        SlotTable {
            n_warps,
            last_write: vec![None; shared_words],
            read_epoch: vec![0; shared_words * n_warps],
            read_addr: vec![0; shared_words * n_warps],
        }
    }
}

/// Per-warp abstract state.
struct WarpAbs {
    pc: usize,
    iregs: Vec<Option<[u32; WARP_SIZE]>>,
    clock: VClock,
    /// `(barrier, generation at block time)` if blocked on a sync.
    blocked_on: Option<(usize, u64)>,
}

struct Verifier<'a> {
    kernel: &'a Kernel,
    arch: &'a GpuArch,
    prog: &'a FlatProgram,
    warps: Vec<WarpAbs>,
    barriers: Vec<AbsBarrier>,
    slots: SlotTable,
    violations: Vec<Violation>,
    /// Deduplication of repeated violations from unrolled code: one
    /// report per (kind, static address).
    reported: BTreeSet<(u8, u32)>,
    report: VerifyReport,
    barrier_ids: BTreeSet<usize>,
}

impl<'a> Verifier<'a> {
    fn new(kernel: &'a Kernel, arch: &'a GpuArch, prog: &'a FlatProgram) -> Verifier<'a> {
        let n = prog.n_warps();
        let n_barriers = arch.named_barriers_per_sm.max(kernel.barriers_used);
        Verifier {
            kernel,
            arch,
            prog,
            warps: (0..n)
                .map(|_| WarpAbs {
                    pc: 0,
                    iregs: vec![Some([0; WARP_SIZE]); kernel.iregs_per_thread],
                    clock: VClock::new(n),
                    blocked_on: None,
                })
                .collect(),
            barriers: vec![
                AbsBarrier {
                    arrived: 0,
                    expected: None,
                    generation: 0,
                    pending: VClock::new(n),
                    releases: Vec::new(),
                };
                n_barriers
            ],
            slots: SlotTable::new(kernel.shared_words, n),
            violations: Vec::new(),
            reported: BTreeSet::new(),
            report: VerifyReport { warps: n, ..VerifyReport::default() },
            barrier_ids: BTreeSet::new(),
        }
    }

    fn flag(&mut self, kind: ViolationKind, addr: u32, msg: String) {
        let key = (kind as u8, addr);
        if self.reported.insert(key) {
            self.violations.push(Violation { kind, msg });
        }
    }

    /// Whole-kernel resource checks that need no interpretation.
    fn check_static(&mut self) {
        if self.kernel.shared_bytes() > self.arch.shared_per_sm {
            self.flag(
                ViolationKind::Resource,
                u32::MAX,
                format!(
                    "shared memory footprint {} B exceeds the SM's {} B on {}",
                    self.kernel.shared_bytes(),
                    self.arch.shared_per_sm,
                    self.arch.name
                ),
            );
        }
        if self.kernel.barriers_used > self.arch.named_barriers_per_sm {
            self.flag(
                ViolationKind::Resource,
                u32::MAX - 1,
                format!(
                    "kernel declares {} named barriers but {} has only {}",
                    self.kernel.barriers_used, self.arch.name, self.arch.named_barriers_per_sm
                ),
            );
        }
    }

    /// Validate a barrier operand pair; returns false if the id is
    /// unusable (out of the architecture's barrier file).
    fn check_barrier_operands(&mut self, addr: u32, bar: u8, warps: u16) -> bool {
        let id = usize::from(bar);
        if id >= self.arch.named_barriers_per_sm {
            self.flag(
                ViolationKind::Resource,
                addr,
                format!(
                    "barrier id {} at addr {} exceeds {}'s named-barrier file of {}",
                    bar, addr, self.arch.name, self.arch.named_barriers_per_sm
                ),
            );
            return false;
        }
        if warps == 0 || usize::from(warps) > self.kernel.warps_per_cta {
            self.flag(
                ViolationKind::BarrierMismatch,
                addr,
                format!(
                    "barrier {} at addr {} expects {} warps but the CTA has {}",
                    bar, addr, warps, self.kernel.warps_per_cta
                ),
            );
            return false;
        }
        self.barrier_ids.insert(id);
        true
    }

    /// Record an arrival on `bar` from warp `w`. Returns the generation
    /// the arrival belongs to (what a sync must wait past).
    fn arrive(&mut self, w: usize, addr: u32, bar: usize, warps: u16) -> u64 {
        self.report.barrier_ops += 1;
        let n = self.warps.len();
        // Release: bump our epoch past the events published so far, then
        // publish our clock into the barrier's pending generation.
        self.warps[w].clock.0[w] += 1;
        let b = &mut self.barriers[bar];
        if let Some(e) = b.expected {
            if e != warps {
                let msg = format!(
                    "barrier {} at addr {}: warp {} expects {} warps, earlier participants expected {}",
                    bar, addr, w, warps, e
                );
                self.flag(ViolationKind::BarrierMismatch, addr, msg);
            }
        } else {
            self.barriers[bar].expected = Some(warps);
        }
        let clock = self.warps[w].clock.clone();
        let b = &mut self.barriers[bar];
        b.pending.join(&clock);
        b.arrived += 1;
        let gen = b.generation;
        if u32::from(b.arrived) >= u32::from(b.expected.unwrap_or(warps)) {
            // Generation completes: archive the release clock. The
            // expected count resets too — hardware named barriers are
            // recycled across sync points with different warp groups.
            let released = std::mem::replace(&mut b.pending, VClock::new(n));
            debug_assert_eq!(b.releases.len() as u64, b.generation);
            b.releases.push(released);
            b.arrived = 0;
            b.expected = None;
            b.generation += 1;
            self.report.generations += 1;
        }
        gen
    }

    /// Resolve an index operand to per-lane values.
    fn idx_val(&self, w: usize, op: IdxOp) -> Option<[u32; WARP_SIZE]> {
        match op {
            IdxOp::Imm(v) => Some([v; WARP_SIZE]),
            IdxOp::Reg(r) => self.warps[w].iregs.get(usize::from(r)).copied().flatten(),
        }
    }

    /// Constant-propagate an index instruction for warp `w`. `pset` is
    /// the executing point set: pipeline offsets rotate against it.
    fn exec_idx(&mut self, w: usize, addr: u32, i: IdxInstr, pset: u32) {
        let set = |this: &mut Verifier<'a>, dst: u16, v: Option<[u32; WARP_SIZE]>| {
            if let Some(slot) = this.warps[w].iregs.get_mut(usize::from(dst)) {
                *slot = v;
            }
        };
        match i {
            IdxInstr::Mov { dst, src } => {
                let v = self.idx_val(w, src);
                set(self, dst, v);
            }
            IdxInstr::Add { dst, a, b } => {
                let v = match (self.idx_val(w, a), self.idx_val(w, b)) {
                    (Some(x), Some(y)) => {
                        let mut out = [0u32; WARP_SIZE];
                        for l in 0..WARP_SIZE {
                            out[l] = x[l].wrapping_add(y[l]);
                        }
                        Some(out)
                    }
                    _ => None,
                };
                set(self, dst, v);
            }
            IdxInstr::Mul { dst, a, b } => {
                let v = match (self.idx_val(w, a), self.idx_val(w, b)) {
                    (Some(x), Some(y)) => {
                        let mut out = [0u32; WARP_SIZE];
                        for l in 0..WARP_SIZE {
                            out[l] = x[l].wrapping_mul(y[l]);
                        }
                        Some(out)
                    }
                    _ => None,
                };
                set(self, dst, v);
            }
            IdxInstr::LaneId { dst } => {
                let mut out = [0u32; WARP_SIZE];
                for (l, o) in out.iter_mut().enumerate() {
                    *o = l as u32;
                }
                set(self, dst, Some(out));
            }
            IdxInstr::WarpId { dst } => set(self, dst, Some([w as u32; WARP_SIZE])),
            IdxInstr::LdConst { dst, bank, idx } => {
                let v = self.idx_val(w, idx).and_then(|idxs| {
                    let bank = self.kernel.iconst_banks.get(usize::from(bank))?;
                    let mut out = [0u32; WARP_SIZE];
                    for l in 0..WARP_SIZE {
                        out[l] = *bank.get(idxs[l] as usize)?;
                    }
                    Some(out)
                });
                if v.is_none() {
                    self.flag(
                        ViolationKind::Unresolved,
                        addr,
                        format!(
                            "warp {}: integer-constant load at addr {} reads outside its bank",
                            w, addr
                        ),
                    );
                }
                set(self, dst, v);
            }
            IdxInstr::Shfl { dst, src, lane } => {
                let v = self.warps[w]
                    .iregs
                    .get(usize::from(src))
                    .copied()
                    .flatten()
                    .map(|x| [x[usize::from(lane) % WARP_SIZE]; WARP_SIZE]);
                set(self, dst, v);
            }
            IdxInstr::PipeOff { dst, k, stride } => {
                let v = (pset % u32::from(k.max(1))).wrapping_mul(stride);
                set(self, dst, Some([v; WARP_SIZE]));
            }
        }
    }

    /// Resolve a shared address to the set of distinct words it touches,
    /// restricted to `lane_pred` if given. `None` = unresolvable.
    fn saddr_words(
        &mut self,
        w: usize,
        addr: u32,
        s: &SAddr,
        lane_pred: Option<u8>,
    ) -> Option<Vec<u32>> {
        let base = match s.base {
            None => [0u32; WARP_SIZE],
            Some(r) => match self.warps[w].iregs.get(usize::from(r)).copied().flatten() {
                Some(v) => v,
                None => {
                    self.flag(
                        ViolationKind::Unresolved,
                        addr,
                        format!(
                            "warp {}: shared address at addr {} depends on an index register \
                             the verifier could not resolve; refusing to certify",
                            w, addr
                        ),
                    );
                    return None;
                }
            },
        };
        let (lane_lo, lane_hi) = match lane_pred {
            Some(p) => {
                let l = usize::from(p) % WARP_SIZE;
                (l, l + 1)
            }
            None => (0, WARP_SIZE),
        };
        // Stack-buffered sort+dedup: this runs once per shared access
        // (tens of thousands per kernel), so no per-access heap sets.
        let mut words = [0u32; WARP_SIZE];
        let mut n = 0usize;
        for l in lane_lo..lane_hi {
            let word = base[l].wrapping_add(s.imm).wrapping_add(s.lane_stride * l as u32);
            if word as usize >= self.kernel.shared_words {
                self.flag(
                    ViolationKind::Resource,
                    addr,
                    format!(
                        "warp {} lane {}: shared access at addr {} touches word {} but the \
                         kernel declares {} words",
                        w, l, addr, word, self.kernel.shared_words
                    ),
                );
                continue;
            }
            words[n] = word;
            n += 1;
        }
        let words = &mut words[..n];
        words.sort_unstable();
        let mut out = Vec::with_capacity(n);
        for &word in words.iter() {
            if out.last() != Some(&word) {
                out.push(word);
            }
        }
        Some(out)
    }

    fn shared_read(&mut self, w: usize, addr: u32, s: &SAddr) {
        self.warps[w].clock.0[w] += 1;
        let epoch = self.warps[w].clock.0[w];
        if let Some(words) = self.saddr_words(w, addr, s, None) {
            self.report.shared_accesses += 1;
            for word in words {
                let wi = word as usize;
                if let Some((ww, we, waddr)) = self.slots.last_write[wi] {
                    if ww != w && !self.warps[w].clock.ordered_after(ww, we) {
                        let msg = format!(
                            "shared word {}: read by warp {} at addr {} is not barrier-ordered \
                             after the write by warp {} at addr {}",
                            word, w, addr, ww, waddr
                        );
                        self.flag(ViolationKind::Race, addr, msg);
                    }
                }
                let idx = wi * self.slots.n_warps + w;
                self.slots.read_epoch[idx] = epoch;
                self.slots.read_addr[idx] = addr;
            }
        }
    }

    fn shared_write(&mut self, w: usize, addr: u32, s: &SAddr, lane_pred: Option<u8>) {
        self.warps[w].clock.0[w] += 1;
        let epoch = self.warps[w].clock.0[w];
        if let Some(words) = self.saddr_words(w, addr, s, lane_pred) {
            self.report.shared_accesses += 1;
            for word in words {
                let wi = word as usize;
                if let Some((ww, we, waddr)) = self.slots.last_write[wi] {
                    if ww != w && !self.warps[w].clock.ordered_after(ww, we) {
                        let msg = format!(
                            "shared word {}: write by warp {} at addr {} is not barrier-ordered \
                             after the write by warp {} at addr {}",
                            word, w, addr, ww, waddr
                        );
                        self.flag(ViolationKind::Race, addr, msg);
                    }
                }
                let n = self.slots.n_warps;
                let base = wi * n;
                for rw in 0..n {
                    let re = self.slots.read_epoch[base + rw];
                    if re != 0 && rw != w && !self.warps[w].clock.ordered_after(rw, re) {
                        let raddr = self.slots.read_addr[base + rw];
                        let msg = format!(
                            "shared word {}: write by warp {} at addr {} recycles the slot before \
                             the read by warp {} at addr {} is barrier-ordered (write-after-read \
                             across generations)",
                            word, w, addr, rw, raddr
                        );
                        self.flag(ViolationKind::Race, addr, msg);
                    }
                }
                self.slots.read_epoch[base..base + n].fill(0);
                self.slots.last_write[wi] = Some((w, epoch, addr));
            }
        }
    }

    /// Run warp `w` until it blocks or finishes. Returns true if it made
    /// progress.
    ///
    /// `pc` indexes the synchronization-relevant substream: arithmetic
    /// ops cannot affect index registers, shared memory, or barrier state,
    /// so the protocol run skips them wholesale.
    fn run_warp(&mut self, w: usize) -> bool {
        let start = self.warps[w].pc;
        while self.warps[w].pc < self.prog.sync_stream_len(w) {
            let (addr, pset, instr) = self.prog.sync_step(w, self.warps[w].pc);
            // Stage-rotated barriers resolve to a concrete id against the
            // executing point set before the ordinary arrive/sync logic.
            let instr = match *instr {
                Instr::BarArriveStage { base, k, warps } => Instr::BarArrive {
                    bar: base + (pset % u32::from(k.max(1))) as u8,
                    warps,
                },
                Instr::BarSyncStage { base, k, warps } => Instr::BarSync {
                    bar: base + (pset % u32::from(k.max(1))) as u8,
                    warps,
                },
                _ => instr.clone(),
            };
            match instr {
                Instr::Idx(i) => self.exec_idx(w, addr, i, pset),
                Instr::LdShared { addr: s, .. } => self.shared_read(w, addr, &s),
                Instr::StShared { addr: s, lane_pred, .. } => {
                    self.shared_write(w, addr, &s, lane_pred)
                }
                // An async copy writes global data into shared memory: for
                // the race analysis it is a shared write (the global side
                // is read-only input and cannot race).
                Instr::CpAsync { addr: s, .. } => self.shared_write(w, addr, &s, None),
                Instr::BarArrive { bar, warps }
                    if self.check_barrier_operands(addr, bar, warps) => {
                        self.arrive(w, addr, usize::from(bar), warps);
                    }
                Instr::BarSync { bar, warps }
                    if self.check_barrier_operands(addr, bar, warps) => {
                        let bar = usize::from(bar);
                        let gen = self.arrive(w, addr, bar, warps);
                        if self.barriers[bar].generation > gen {
                            // Completed immediately (we were the last
                            // arrival): acquire the release clock.
                            let release = self.barriers[bar].releases[gen as usize].clone();
                            self.warps[w].clock.join(&release);
                        } else {
                            self.warps[w].blocked_on = Some((bar, gen));
                            self.warps[w].pc += 1;
                            return true;
                        }
                    }
                _ => {}
            }
            self.warps[w].pc += 1;
        }
        self.warps[w].pc > start
    }

    /// Round-robin co-execution of all warps, mirroring the simulator's
    /// scheduler; reports deadlock when a full round makes no progress.
    fn run(&mut self) {
        let n = self.warps.len();
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for w in 0..n {
                if let Some((bar, gen)) = self.warps[w].blocked_on {
                    if self.barriers[bar].generation > gen {
                        let release = self.barriers[bar].releases[gen as usize].clone();
                        self.warps[w].clock.join(&release);
                        self.warps[w].blocked_on = None;
                        progressed = true;
                    } else {
                        all_done = false;
                        continue;
                    }
                }
                if self.warps[w].pc < self.prog.sync_stream_len(w) {
                    if self.run_warp(w) {
                        progressed = true;
                    }
                    if self.warps[w].pc < self.prog.sync_stream_len(w)
                        || self.warps[w].blocked_on.is_some()
                    {
                        all_done = false;
                    }
                }
            }
            if all_done {
                break;
            }
            if !progressed {
                let blocked: Vec<String> = (0..n)
                    .filter_map(|w| {
                        self.warps[w].blocked_on.map(|(bar, _)| {
                            let b = &self.barriers[bar];
                            format!(
                                "warp {} waits on barrier {} ({}/{} arrived)",
                                w,
                                bar,
                                b.arrived,
                                b.expected.map(u32::from).unwrap_or(0)
                            )
                        })
                    })
                    .collect();
                self.flag(
                    ViolationKind::Deadlock,
                    u32::MAX - 2,
                    format!(
                        "no warp can make progress; circular or mismatched waits: {}",
                        blocked.join("; ")
                    ),
                );
                return;
            }
        }
        // Protocol completeness: every arrival must have been consumed by
        // a completed generation (a dangling arrive means the expected
        // count never filled — a latent deadlock for any warp that would
        // sync on it).
        for (id, b) in self.barriers.iter().enumerate() {
            if b.arrived > 0 {
                let msg = format!(
                    "barrier {}: kernel ends with {} unmatched arrival(s) of {} expected",
                    id,
                    b.arrived,
                    b.expected.map(u32::from).unwrap_or(0)
                );
                self.violations
                    .push(Violation { kind: ViolationKind::BarrierMismatch, msg });
            }
        }
        self.report.barrier_ids = self.barrier_ids.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::{Node, Op};

    fn arch() -> GpuArch {
        GpuArch::kepler_k20c()
    }

    fn two_warp_kernel(body: Vec<Node>, shared_words: usize, barriers_used: usize) -> Kernel {
        Kernel {
            name: "test".into(),
            body,
            warps_per_cta: 2,
            points_per_cta: 32,
            dregs_per_thread: 4,
            iregs_per_thread: 2,
            shared_words,
            local_words_per_thread: 0,
            const_banks: vec![],
            iconst_banks: vec![],
            barriers_used,
            global_arrays: vec![],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    fn st(imm: u32) -> Node {
        Node::Op(Instr::StShared { src: Op::Imm(1.0), addr: SAddr::lane(imm), lane_pred: None })
    }

    fn ld(imm: u32) -> Node {
        Node::Op(Instr::LdShared { dst: 0, addr: SAddr::lane(imm) })
    }

    /// Figure 2's protocol: producer stores then arrives; consumer syncs
    /// then loads. Verifies clean.
    #[test]
    fn figure2_protocol_is_clean() {
        let k = two_warp_kernel(
            vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![st(0), Node::Op(Instr::BarArrive { bar: 0, warps: 2 })],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 }), ld(0)],
                },
            ],
            32,
            1,
        );
        let r = verify_kernel(&k, &arch()).expect("clean");
        assert_eq!(r.warps, 2);
        assert!(r.generations >= 1);
    }

    /// The same exchange without the barrier is a race.
    #[test]
    fn unordered_read_is_a_race() {
        let k = two_warp_kernel(
            vec![
                Node::WarpIf { mask: 0b01, body: vec![st(0)] },
                Node::WarpIf { mask: 0b10, body: vec![ld(0)] },
            ],
            32,
            0,
        );
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Race), "{errs:?}");
    }

    /// Cross-waiting syncs (each warp waits on a barrier only the other
    /// would complete) deadlock.
    #[test]
    fn circular_wait_deadlocks() {
        let k = two_warp_kernel(
            vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                        Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
                    ],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                        Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                    ],
                },
            ],
            0,
            2,
        );
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Deadlock), "{errs:?}");
    }

    /// Disagreeing expected-warp counts on one barrier id.
    #[test]
    fn expected_count_disagreement_is_flagged() {
        let k = two_warp_kernel(
            vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![Node::Op(Instr::BarArrive { bar: 0, warps: 2 })],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![Node::Op(Instr::BarArrive { bar: 0, warps: 1 })],
                },
            ],
            0,
            1,
        );
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(
            errs.iter().any(|v| v.kind == ViolationKind::BarrierMismatch),
            "{errs:?}"
        );
    }

    /// Barrier id beyond the architecture's named-barrier file.
    #[test]
    fn barrier_id_overflow_is_flagged() {
        let k = two_warp_kernel(
            vec![Node::Op(Instr::BarSync { bar: 16, warps: 2 })],
            0,
            17,
        );
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Resource), "{errs:?}");
    }

    /// PointLoop slot recycling: the consumer signals the producer's
    /// buffer-free barrier *before* actually loading the slot, so the
    /// next generation's store is unordered with the previous
    /// generation's load (write-after-read). All barriers still complete
    /// — this is a pure race, not a deadlock.
    #[test]
    fn generation_recycling_race_is_flagged() {
        let body = vec![Node::PointLoop {
            iters: 2,
            body: vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        st(0),
                        Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                        Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                    ],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                        // Bug: frees the buffer before reading it.
                        Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
                        ld(0),
                    ],
                },
            ],
        }];
        let k = two_warp_kernel(body, 32, 2);
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Race), "{errs:?}");
        assert!(!errs.iter().any(|v| v.kind == ViolationKind::Deadlock), "{errs:?}");
    }

    /// Swapping the load before the buffer-free arrive repairs the
    /// protocol.
    #[test]
    fn generation_recycling_fixed_order_is_clean() {
        let body = vec![Node::PointLoop {
            iters: 2,
            body: vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![
                        st(0),
                        Node::Op(Instr::BarArrive { bar: 0, warps: 2 }),
                        Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
                    ],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![
                        Node::Op(Instr::BarSync { bar: 0, warps: 2 }),
                        ld(0),
                        Node::Op(Instr::BarArrive { bar: 1, warps: 2 }),
                    ],
                },
            ],
        }];
        let k = two_warp_kernel(body, 32, 2);
        verify_kernel(&k, &arch()).expect("clean");
    }

    /// The same loop with the full-CTA barrier at the end of each
    /// iteration is clean — the §4.2 protocol.
    #[test]
    fn generation_recycling_with_full_barrier_is_clean() {
        let body = vec![Node::PointLoop {
            iters: 2,
            body: vec![
                Node::WarpIf {
                    mask: 0b01,
                    body: vec![st(0), Node::Op(Instr::BarArrive { bar: 0, warps: 2 })],
                },
                Node::WarpIf {
                    mask: 0b10,
                    body: vec![Node::Op(Instr::BarSync { bar: 0, warps: 2 }), ld(0)],
                },
                Node::Op(Instr::BarSync { bar: 1, warps: 2 }),
            ],
        }];
        let k = two_warp_kernel(body, 32, 2);
        verify_kernel(&k, &arch()).expect("clean");
    }

    /// Shared footprint beyond the SM.
    #[test]
    fn shared_overflow_is_flagged() {
        let k = two_warp_kernel(vec![st(0)], 7000, 0);
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Resource), "{errs:?}");
    }

    /// Out-of-bounds shared word (address past `shared_words`).
    #[test]
    fn shared_oob_is_flagged() {
        let k = two_warp_kernel(vec![st(100)], 64, 0);
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(errs.iter().any(|v| v.kind == ViolationKind::Resource), "{errs:?}");
    }

    /// An arrive whose expected count never fills is an unmatched
    /// arrival.
    #[test]
    fn dangling_arrival_is_flagged() {
        let k = two_warp_kernel(
            vec![Node::WarpIf {
                mask: 0b01,
                body: vec![Node::Op(Instr::BarArrive { bar: 0, warps: 2 })],
            }],
            0,
            1,
        );
        let errs = verify_kernel(&k, &arch()).unwrap_err();
        assert!(
            errs.iter().any(|v| v.kind == ViolationKind::BarrierMismatch),
            "{errs:?}"
        );
    }
}
