//! Independent static verifier for emitted kernels.
//!
//! The scheduler (`sync.rs`) *constructs* barrier protocols that are safe
//! by Theorem 1; this module *re-checks* the emitted artifact without
//! trusting any of that machinery. It abstractly interprets each warp's
//! flattened instruction stream (the same `flatten` the simulator uses,
//! via the read-only [`gpu_sim::interp::SyncRun`] view) and checks three
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
//!
//! Two things keep the cost at the kernel's structure rather than its
//! lanes and trips, without changing a verdict, a report or a message:
//!
//! * **Slots, not words.** The access history is kept per 32-word block
//!   while every word of the block would hold the same entry, which is
//!   what a whole-slot access leaves; such an access is then one check, not
//!   32. A partial access splits the block into per-word entries first
//!   (`SlotTable`).
//! * **One period per loop.** At each new trip of the lowest unfinished
//!   warp the walk takes a snapshot of its state with every warp's epochs
//!   replaced by their ranks. When a snapshot equals an earlier one, the
//!   trips between them are a period of the protocol, and the walk skips
//!   the repetitions that follow, leaving the last trip to walk
//!   (`Verifier::skip_periods`, which states why that is sound).

use crate::config::CompileOptions;
use crate::{CResult, CompileError};
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::flatten_cached;
use gpu_sim::interp::{FlatProgram, SyncRun};
use gpu_sim::isa::{IdxInstr, IdxOp, Instr, Kernel, SAddr};
use gpu_sim::WARP_SIZE;
use std::collections::BTreeSet;
use std::fmt;
use gpu_sim::memo::Memo;
use std::sync::Arc;

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

/// Verdicts by [`VerifyKey`]: sweep workers that meet one kernel at once
/// verify it once, outside the memo's lock.
static VERDICTS: Memo<VerifyKey, Verdict> = Memo::new();

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
    let verdict = VERDICTS.get_or_make(key, || Verifier::new(kernel, arch, &prog, true).verdict());
    (prog, verdict)
}

/// [`verify_kernel`] walking every trip of every loop, unmemoized: the
/// verdict the period proof must reproduce, kept as the oracle tests hold
/// it to.
#[doc(hidden)]
pub fn verify_kernel_walked(kernel: &Kernel, arch: &GpuArch) -> Verdict {
    Verifier::new(kernel, arch, &flatten_cached(kernel), false).verdict()
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

/// The last write of a shared word: warp, epoch, static address.
type LastWrite = (usize, u64, u32);

/// Shared-memory access history, struct-of-arrays over *entries* x warps:
/// the verifier touches millions of (word, warp) pairs on big kernels, so
/// read tracking must be O(1) per entry with no per-slot heap structures.
/// An entry is the last write and, per warp, the latest read since it (the
/// latest epoch subsumes earlier ones for the WAR check; epoch 0 = no read,
/// real epochs start at 1).
///
/// There is an entry per word and one per full 32-word block. While a block
/// is *uniform* its block entry is authoritative for all 32 words — each of
/// them would hold that very entry — and their word entries are stale. A
/// whole-block access keeps the block uniform; an access to part of it
/// first splits it, copying the block entry into its words; a whole-block
/// write makes it uniform again. Words past the last full block (a
/// `shared_words` that is not a multiple of 32) only have word entries.
struct SlotTable {
    n_warps: usize,
    shared_words: usize,
    /// Per full block: whether its block entry stands for its words.
    uniform: Vec<bool>,
    /// Per entry: the words' entries, then the full blocks'.
    last_write: Vec<Option<LastWrite>>,
    /// Per entry and warp.
    read_epoch: Vec<u64>,
    /// Per entry and warp, meaningful where `read_epoch` is not 0.
    read_addr: Vec<u32>,
    /// Keep every block split: the per-word history, as the reference the
    /// block entries are tested against.
    #[cfg(test)]
    per_word: bool,
}

impl SlotTable {
    fn new(shared_words: usize, n_warps: usize) -> SlotTable {
        let blocks = shared_words / WARP_SIZE;
        let entries = shared_words + blocks;
        SlotTable {
            n_warps,
            shared_words,
            uniform: vec![true; blocks],
            last_write: vec![None; entries],
            read_epoch: vec![0; entries * n_warps],
            read_addr: vec![0; entries * n_warps],
            #[cfg(test)]
            per_word: false,
        }
    }

    /// The entry of full block `b`.
    fn block_entry(&self, b: usize) -> usize {
        self.shared_words + b
    }

    /// The full block `words` (ascending, distinct) cover exactly, if any.
    fn whole_block(&self, words: &[u32]) -> Option<usize> {
        #[cfg(test)]
        if self.per_word {
            return None;
        }
        let (first, last) = (*words.first()? as usize, *words.last()? as usize);
        let b = first / WARP_SIZE;
        let whole = words.len() == WARP_SIZE && first % WARP_SIZE == 0 && last == first + WARP_SIZE - 1;
        (whole && b < self.uniform.len()).then_some(b)
    }

    /// Give the block holding `word` word entries of its own, copies of its
    /// block entry, if it was uniform.
    fn split(&mut self, word: usize) {
        let b = word / WARP_SIZE;
        if !self.uniform.get(b).is_some_and(|&u| u) {
            return;
        }
        self.uniform[b] = false;
        let (from, n) = (self.block_entry(b), self.n_warps);
        for to in b * WARP_SIZE..(b + 1) * WARP_SIZE {
            self.last_write[to] = self.last_write[from];
            self.read_epoch.copy_within(from * n..(from + 1) * n, to * n);
            self.read_addr.copy_within(from * n..(from + 1) * n, to * n);
        }
    }

    /// Block `b` was written whole: its block entry is that write, with no
    /// read since, and stands for its words again.
    fn unify(&mut self, b: usize, write: LastWrite) {
        let (at, n) = (self.block_entry(b), self.n_warps);
        self.uniform[b] = true;
        self.last_write[at] = Some(write);
        self.read_epoch[at * n..(at + 1) * n].fill(0);
    }
}

/// Per-warp abstract state.
struct WarpAbs {
    /// The next op: run (of the warp's `Verifier::runs`), trip, and offset
    /// into the trip. `run` is past the last run once the warp is through.
    run: usize,
    trip: u32,
    off: usize,
    iregs: Vec<Option<[u32; WARP_SIZE]>>,
    clock: VClock,
    /// `(barrier, generation at block time)` if blocked on a sync.
    blocked_on: Option<(usize, u64)>,
}

impl WarpAbs {
    /// On past the op at the cursor, an op of `run`.
    fn advance(&mut self, run: &SyncRun<'_>) {
        self.off += 1;
        if self.off == run.len() {
            self.off = 0;
            self.trip += 1;
            if self.trip == run.trips() {
                self.trip = 0;
                self.run += 1;
            }
        }
    }
}

/// A snapshot of the walk at the top of a round: the state with every
/// warp's epochs replaced by their ranks, and what a skip needs besides.
struct Snapshot {
    /// The normalized state, compared in full.
    state: Vec<u64>,
    /// Each warp's trip of its current run.
    trips: Vec<u32>,
    /// `barrier_ops`, `shared_accesses` and `generations` so far.
    counts: [u64; 3],
}

/// Snapshots kept per run of the lowest unfinished warp: enough for any
/// ring depth the search proposes and its warm-up.
const MAX_SNAPSHOTS: usize = 16;

/// Encodes a [`Verifier`]'s state for a [`Snapshot`], prefix-free: epochs
/// are written raw and ranked per warp once the state is in.
struct Encoder {
    state: Vec<u64>,
    /// Per warp, the nonzero epochs written.
    epochs: Vec<Vec<u64>>,
    /// Where each nonzero epoch sits in `state`, and whose it is.
    at: Vec<(usize, usize)>,
}

impl Encoder {
    fn word(&mut self, x: u64) {
        self.state.push(x);
    }

    fn epoch(&mut self, warp: usize, e: u64) {
        if e != 0 {
            self.at.push((self.state.len(), warp));
            self.epochs[warp].push(e);
        }
        self.state.push(e);
    }

    fn clock(&mut self, c: &VClock) {
        for (u, &e) in c.0.iter().enumerate() {
            self.epoch(u, e);
        }
    }

    /// One access-history entry.
    fn entry(&mut self, slots: &SlotTable, at: usize) {
        match slots.last_write[at] {
            None => self.word(0),
            Some((ww, we, waddr)) => {
                self.word(1 + ww as u64);
                self.epoch(ww, we);
                self.word(u64::from(waddr));
            }
        }
        let n = slots.n_warps;
        for rw in 0..n {
            let re = slots.read_epoch[at * n + rw];
            self.epoch(rw, re);
            if re != 0 {
                self.word(u64::from(slots.read_addr[at * n + rw]));
            }
        }
    }

    /// The state, each epoch replaced by its rank among its warp's (0, no
    /// event, staying 0).
    fn finish(mut self) -> Vec<u64> {
        for e in &mut self.epochs {
            e.sort_unstable();
            e.dedup();
        }
        for (at, u) in self.at {
            let rank = self.epochs[u].binary_search(&self.state[at]).expect("written above");
            self.state[at] = rank as u64 + 1;
        }
        self.state
    }
}

struct Verifier<'a> {
    kernel: &'a Kernel,
    arch: &'a GpuArch,
    /// Each warp's synchronization-relevant stream, as its runs that hold
    /// an op, with each run's period.
    runs: Vec<Vec<(SyncRun<'a>, u32)>>,
    warps: Vec<WarpAbs>,
    barriers: Vec<AbsBarrier>,
    slots: SlotTable,
    violations: Vec<Violation>,
    /// Deduplication of repeated violations from unrolled code: one
    /// report per (kind, static address).
    reported: BTreeSet<(u8, u32)>,
    report: VerifyReport,
    barrier_ids: BTreeSet<usize>,
    /// Whether [`Verifier::skip_periods`] may skip repetitions; if not,
    /// every trip is walked.
    prove: bool,
    /// The lowest unfinished warp, its run and its trip at the last
    /// snapshot.
    marker: Option<(usize, usize, u32)>,
    /// The snapshots taken in the marker's run.
    snapshots: Vec<Snapshot>,
    /// Synchronization-relevant ops walked.
    #[cfg(test)]
    steps: u64,
}

impl<'a> Verifier<'a> {
    /// A verifier of `kernel`, flattened as `prog`; `prove` lets the walk
    /// skip proven repetitions.
    fn new(kernel: &'a Kernel, arch: &'a GpuArch, prog: &'a FlatProgram, prove: bool) -> Verifier<'a> {
        let n = prog.n_warps();
        let n_barriers = arch.named_barriers_per_sm.max(kernel.barriers_used);
        let runs = (0..n)
            .map(|w| prog.sync_runs(w).filter(|r| !r.is_empty()).map(|r| (r, r.period())).collect())
            .collect();
        Verifier {
            kernel,
            arch,
            runs,
            warps: (0..n)
                .map(|_| WarpAbs {
                    run: 0,
                    trip: 0,
                    off: 0,
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
            prove,
            marker: None,
            snapshots: Vec::new(),
            #[cfg(test)]
            steps: 0,
        }
    }

    /// Check everything.
    fn verdict(&mut self) -> Verdict {
        self.check_static();
        self.run();
        if self.violations.is_empty() {
            Ok(self.report.clone())
        } else {
            Err(std::mem::take(&mut self.violations))
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
        match self.barriers[bar].expected {
            Some(e) if e != warps => {
                let msg = format!(
                    "barrier {} at addr {}: warp {} expects {} warps, earlier participants expected {}",
                    bar, addr, w, warps, e
                );
                self.flag(ViolationKind::BarrierMismatch, addr, msg);
            }
            Some(_) => {}
            None => self.barriers[bar].expected = Some(warps),
        }
        let b = &mut self.barriers[bar];
        b.pending.join(&self.warps[w].clock);
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

    /// Warp `w` wakes from generation `gen` of `bar`, which completed:
    /// acquire its release clock.
    fn acquire(&mut self, w: usize, bar: usize, gen: u64) {
        self.warps[w].clock.join(&self.barriers[bar].releases[gen as usize]);
    }

    /// A `bar.arrive` (or, if `sync`, a `bar.sync`) on `bar` expecting
    /// `warps` warps, by warp `w`; true if it blocked.
    fn barrier(&mut self, w: usize, addr: u32, bar: u8, warps: u16, sync: bool) -> bool {
        if !self.check_barrier_operands(addr, bar, warps) {
            return false;
        }
        let bar = usize::from(bar);
        let gen = self.arrive(w, addr, bar, warps);
        if !sync {
            return false;
        }
        if self.barriers[bar].generation > gen {
            // Completed immediately (we were the last arrival).
            self.acquire(w, bar, gen);
            false
        } else {
            self.warps[w].blocked_on = Some((bar, gen));
            true
        }
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

    /// Resolve a shared address to the distinct words it touches,
    /// ascending, restricted to `lane_pred` if given: the first `n` of the
    /// array. `None` = unresolvable.
    fn saddr_words(
        &mut self,
        w: usize,
        addr: u32,
        s: &SAddr,
        lane_pred: Option<u8>,
    ) -> Option<([u32; WARP_SIZE], usize)> {
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
        words[..n].sort_unstable();
        let mut distinct = 0;
        for i in 0..n {
            if distinct == 0 || words[i] != words[distinct - 1] {
                words[distinct] = words[i];
                distinct += 1;
            }
        }
        Some((words, distinct))
    }

    /// A shared access by warp `w`: a read, or a write (a store or an async
    /// copy).
    fn shared_access(&mut self, w: usize, addr: u32, s: &SAddr, lane_pred: Option<u8>, write: bool) {
        self.warps[w].clock.0[w] += 1;
        let epoch = self.warps[w].clock.0[w];
        let Some((words, n)) = self.saddr_words(w, addr, s, lane_pred) else { return };
        let words = &words[..n];
        self.report.shared_accesses += 1;
        if let Some(b) = self.slots.whole_block(words) {
            if self.slots.uniform[b] {
                // One check for the 32 equal entries: it reads as the
                // first word's would, and the rest would only repeat its
                // (kind, addr).
                let at = self.slots.block_entry(b);
                self.check_entry(w, addr, at, words[0], epoch, write);
                return;
            }
            if write {
                for &word in words {
                    self.check_entry(w, addr, word as usize, word, epoch, true);
                }
                self.slots.unify(b, (w, epoch, addr));
                return;
            }
        }
        for &word in words {
            self.slots.split(word as usize);
            self.check_entry(w, addr, word as usize, word, epoch, write);
        }
    }

    /// Check an access by warp `w` to `word` against its history, held at
    /// entry `at`, and record it there. A read needs a happens-before edge
    /// from the last write; a write from the last write and from every read
    /// since.
    fn check_entry(&mut self, w: usize, addr: u32, at: usize, word: u32, epoch: u64, write: bool) {
        if let Some((ww, we, waddr)) = self.slots.last_write[at] {
            if ww != w && !self.warps[w].clock.ordered_after(ww, we) {
                let msg = format!(
                    "shared word {}: {} by warp {} at addr {} is not barrier-ordered after the \
                     write by warp {} at addr {}",
                    word,
                    if write { "write" } else { "read" },
                    w,
                    addr,
                    ww,
                    waddr
                );
                self.flag(ViolationKind::Race, addr, msg);
            }
        }
        let n = self.slots.n_warps;
        let reads = at * n..(at + 1) * n;
        if !write {
            self.slots.read_epoch[at * n + w] = epoch;
            self.slots.read_addr[at * n + w] = addr;
            return;
        }
        for rw in 0..n {
            let re = self.slots.read_epoch[at * n + rw];
            if re != 0 && rw != w && !self.warps[w].clock.ordered_after(rw, re) {
                let raddr = self.slots.read_addr[at * n + rw];
                let msg = format!(
                    "shared word {}: write by warp {} at addr {} recycles the slot before \
                     the read by warp {} at addr {} is barrier-ordered (write-after-read \
                     across generations)",
                    word, w, addr, rw, raddr
                );
                self.flag(ViolationKind::Race, addr, msg);
            }
        }
        self.slots.read_epoch[reads].fill(0);
        self.slots.last_write[at] = Some((w, epoch, addr));
    }

    /// Run warp `w` until it blocks or finishes. Returns true if it made
    /// progress.
    ///
    /// The walk is over the synchronization-relevant substream: arithmetic
    /// ops cannot affect index registers, shared memory, or barrier state,
    /// so the protocol run skips them wholesale.
    fn run_warp(&mut self, w: usize) -> bool {
        let mut ran = false;
        while let Some(&(run, _)) = self.runs[w].get(self.warps[w].run) {
            let pset = run.pset(self.warps[w].trip);
            let (addr, instr) = run.step(self.warps[w].off);
            self.warps[w].advance(&run);
            ran = true;
            #[cfg(test)]
            {
                self.steps += 1;
            }
            // Stage-rotated barriers resolve to a concrete id against the
            // executing point set.
            let stage = |base: u8, k: u8| base.wrapping_add((pset % u32::from(k.max(1))) as u8);
            let blocked = match *instr {
                Instr::BarArrive { bar, warps } => self.barrier(w, addr, bar, warps, false),
                Instr::BarSync { bar, warps } => self.barrier(w, addr, bar, warps, true),
                Instr::BarArriveStage { base, k, warps } => {
                    self.barrier(w, addr, stage(base, k), warps, false)
                }
                Instr::BarSyncStage { base, k, warps } => self.barrier(w, addr, stage(base, k), warps, true),
                _ => false,
            };
            if blocked {
                return true;
            }
            match *instr {
                Instr::Idx(i) => self.exec_idx(w, addr, i, pset),
                Instr::LdShared { addr: s, .. } => self.shared_access(w, addr, &s, None, false),
                Instr::StShared { addr: s, lane_pred, .. } => {
                    self.shared_access(w, addr, &s, lane_pred, true)
                }
                // An async copy writes global data into shared memory: for
                // the race analysis it is a shared write (the global side
                // is read-only input and cannot race).
                Instr::CpAsync { addr: s, .. } => self.shared_access(w, addr, &s, None, true),
                _ => {}
            }
        }
        ran
    }

    /// Whether warp `w` is through its stream and not blocked at its end.
    fn finished(&self, w: usize) -> bool {
        self.warps[w].run == self.runs[w].len() && self.warps[w].blocked_on.is_none()
    }

    /// Round-robin co-execution of all warps, mirroring the simulator's
    /// scheduler; reports deadlock when a full round makes no progress.
    fn run(&mut self) {
        let n = self.warps.len();
        loop {
            if self.prove {
                self.skip_periods();
            }
            let mut progressed = false;
            let mut all_done = true;
            for w in 0..n {
                if let Some((bar, gen)) = self.warps[w].blocked_on {
                    if self.barriers[bar].generation > gen {
                        self.acquire(w, bar, gen);
                        self.warps[w].blocked_on = None;
                        progressed = true;
                    } else {
                        all_done = false;
                        continue;
                    }
                }
                if self.warps[w].run < self.runs[w].len() {
                    if self.run_warp(w) {
                        progressed = true;
                    }
                    if !self.finished(w) {
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

    /// The period proof, at the top of a round: when the lowest unfinished
    /// warp has started a new trip of a loop, snapshot the state, and if it
    /// equals a snapshot taken earlier in that loop, skip the repetitions
    /// of what was walked in between.
    ///
    /// Why a skip is sound. A snapshot holds each warp's position as (run,
    /// offset into the trip, trip mod the run's period), its blocked
    /// generation relative to the barrier's, its index registers, the
    /// barriers' arrival counts, and every vector-clock epoch of the state
    /// — clocks, pending and live release clocks, access history — replaced
    /// by its rank among the epochs of the same warp. The walk only ever
    /// raises a warp's own epoch to a new maximum, takes maxima and compares
    /// epochs of one warp with `>=`, so two states of equal snapshots have
    /// the same future for as long as the warps execute the same
    /// instructions; and equal positions modulo the period are the same
    /// instructions at point sets no stage ring tells apart. So if snapshot
    /// B equals an earlier A, and each warp advanced `d` trips from A to B,
    /// the walk from B repeats A→B — the same accesses, barrier operations
    /// and generations, and violations whose (kind, address) were all
    /// flagged between A and B already — as long as every warp's `d` more
    /// trips stay in its run. Skipping `m` repetitions therefore changes
    /// nothing but the three counters, which gain `m` times their A→B
    /// difference. At least one trip of each advancing warp's run is left
    /// to walk, so the walk leaves the loop as it would have.
    fn skip_periods(&mut self) {
        let n = self.warps.len();
        let Some(u) = (0..n).find(|&w| !self.finished(w)) else { return };
        let (run, trip) = (self.warps[u].run, self.warps[u].trip);
        // A skip needs two snapshots `d` trips apart and `d` more trips.
        if self.runs[u].get(run).is_none_or(|(r, _)| r.trips() < 3) {
            return;
        }
        match self.marker {
            Some(m) if m == (u, run, trip) => return,
            Some((mu, mrun, _)) if (mu, mrun) == (u, run) => {}
            _ => self.snapshots.clear(),
        }
        self.marker = Some((u, run, trip));
        let now = self.snapshot();
        let Some(then) = self.snapshots.iter().rev().find(|s| s.state == now.state) else {
            if self.snapshots.len() < MAX_SNAPSHOTS {
                self.snapshots.push(now);
            }
            return;
        };
        // Equal positions: a warp that advanced is in the run it was in,
        // by a multiple of its period.
        let advance: Vec<u32> = (0..n).map(|w| now.trips[w] - then.trips[w]).collect();
        let reps = (0..n)
            .filter(|&w| advance[w] > 0)
            .map(|w| {
                let left = self.runs[w][self.warps[w].run].0.trips() - 1 - self.warps[w].trip;
                left / advance[w]
            })
            .min()
            .expect("the lowest unfinished warp advanced");
        if reps == 0 {
            return;
        }
        for (warp, d) in self.warps.iter_mut().zip(&advance) {
            warp.trip += reps * d;
        }
        let delta = |i: usize| u64::from(reps) * (now.counts[i] - then.counts[i]);
        self.report.barrier_ops += delta(0) as usize;
        self.report.shared_accesses += delta(1) as usize;
        self.report.generations += delta(2);
        self.snapshots.clear();
        self.marker = Some((u, run, self.warps[u].trip));
    }

    /// The walk's state, normalized for [`Verifier::skip_periods`].
    fn snapshot(&self) -> Snapshot {
        let n = self.warps.len();
        let mut enc = Encoder { state: Vec::new(), epochs: vec![Vec::new(); n], at: Vec::new() };
        for (w, warp) in self.warps.iter().enumerate() {
            let period = self.runs[w].get(warp.run).map_or(1, |&(_, p)| p);
            enc.word(warp.run as u64);
            enc.word(warp.off as u64);
            enc.word(u64::from(warp.trip % period));
            match warp.blocked_on {
                None => enc.word(0),
                Some((bar, gen)) => {
                    let b = &self.barriers[bar];
                    enc.word(1 + bar as u64);
                    enc.word(b.generation - gen);
                    if gen < b.generation {
                        enc.clock(&b.releases[gen as usize]);
                    }
                }
            }
            for r in &warp.iregs {
                match r {
                    None => enc.word(0),
                    Some(lanes) => {
                        enc.word(1);
                        for pair in lanes.chunks_exact(2) {
                            enc.word(u64::from(pair[0]) << 32 | u64::from(pair[1]));
                        }
                    }
                }
            }
            enc.clock(&warp.clock);
        }
        for b in &self.barriers {
            enc.word(u64::from(b.arrived));
            enc.word(b.expected.map_or(0, |e| 1 + u64::from(e)));
            if b.arrived > 0 {
                enc.clock(&b.pending);
            }
        }
        let slots = &self.slots;
        for (b, &uniform) in slots.uniform.iter().enumerate() {
            enc.word(u64::from(uniform));
            if uniform {
                enc.entry(slots, slots.block_entry(b));
            } else {
                (b * WARP_SIZE..(b + 1) * WARP_SIZE).for_each(|word| enc.entry(slots, word));
            }
        }
        (slots.uniform.len() * WARP_SIZE..slots.shared_words).for_each(|word| enc.entry(slots, word));
        Snapshot {
            state: enc.finish(),
            trips: self.warps.iter().map(|w| w.trip).collect(),
            counts: [
                self.report.barrier_ops as u64,
                self.report.shared_accesses as u64,
                self.report.generations,
            ],
        }
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

    /// Verify `k` with slot entries or the per-word history, proving loop
    /// periods or walking every trip: the verdict, the sync ops walked, and
    /// whether the slot table ended with block 0 uniform.
    fn run_as(k: &Kernel, per_word: bool, prove: bool) -> (Verdict, u64, bool) {
        let (arch, prog) = (arch(), gpu_sim::interp::flatten(k));
        let mut v = Verifier::new(k, &arch, &prog, prove);
        if per_word {
            v.slots.per_word = true;
            v.slots.uniform.fill(false);
        }
        let verdict = v.verdict();
        (verdict, v.steps, v.slots.uniform.first().is_some_and(|&u| u))
    }

    /// The production verdict of `k`, held to the per-word reference and to
    /// the full walk: the same verdict, report and violations.
    fn checked(k: &Kernel) -> Verdict {
        let (got, _, _) = run_as(k, false, true);
        assert_eq!(got, run_as(k, true, false).0, "against the per-word history");
        assert_eq!(got, run_as(k, false, false).0, "against the full walk");
        got
    }

    fn only(warp: u64, body: Vec<Node>) -> Node {
        Node::WarpIf { mask: 1 << warp, body }
    }

    fn arrive(bar: u8) -> Node {
        Node::Op(Instr::BarArrive { bar, warps: 2 })
    }

    fn sync(bar: u8) -> Node {
        Node::Op(Instr::BarSync { bar, warps: 2 })
    }

    /// A store of lane `lane` alone into the slot at `imm`.
    fn st_lane(imm: u32, lane: u8) -> Node {
        Node::Op(Instr::StShared { src: Op::Imm(1.0), addr: SAddr::lane(imm), lane_pred: Some(lane) })
    }

    /// Warp 1 signals, then reads; warp 0 waits for the signal, then runs
    /// `after`: whatever `after` writes races the read.
    fn read_then(read: Node, after: Vec<Node>) -> Kernel {
        let mut warp0 = vec![sync(0)];
        warp0.extend(after);
        two_warp_kernel(vec![only(0, warp0), only(1, vec![arrive(0), read])], 64, 1)
    }

    #[test]
    fn a_single_lane_store_into_a_block_read_whole_splits_it() {
        let errs = checked(&read_then(ld(0), vec![st_lane(0, 5)])).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].msg.starts_with("shared word 5: write by warp 0"), "{}", errs[0].msg);
        assert!(errs[0].msg.contains("write-after-read"), "{}", errs[0].msg);
    }

    #[test]
    fn a_whole_slot_read_after_a_partial_write_checks_every_word() {
        // Only word 3 was written; the read of the slot races that word
        // alone, and says so.
        let k = two_warp_kernel(vec![only(0, vec![st_lane(0, 3)]), only(1, vec![ld(0)])], 64, 0);
        let errs = checked(&k).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].msg.starts_with("shared word 3: read by warp 1"), "{}", errs[0].msg);
    }

    #[test]
    fn a_whole_write_makes_a_split_block_uniform_again() {
        let split_then_whole = |sync_read: bool| {
            let mut reader = vec![ld(0)];
            if sync_read {
                reader.insert(0, sync(0));
            }
            let writer = vec![st_lane(0, 7), st(0), arrive(0)];
            two_warp_kernel(vec![only(0, writer), only(1, reader)], 64, 1)
        };
        let ordered = split_then_whole(true);
        assert!(checked(&ordered).is_ok());
        assert!(run_as(&ordered, false, true).2, "the whole write left the block split");
        // Unordered, the read races the whole write at the slot's first word.
        let errs = checked(&split_then_whole(false)).unwrap_err();
        assert!(errs[0].msg.starts_with("shared word 0: read by warp 1"), "{}", errs[0].msg);
        assert!(errs[0].msg.ends_with(&format!("write by warp 0 at addr {}", 2)), "{}", errs[0].msg);
    }

    #[test]
    fn a_war_race_on_a_uniform_block_reads_as_the_per_word_history() {
        let k = read_then(ld(0), vec![st(0)]);
        let (errs, _, uniform) = run_as(&k, false, true);
        assert!(uniform, "a whole read and a whole write keep the block uniform");
        let errs = errs.unwrap_err();
        assert_eq!(errs, run_as(&k, true, false).0.unwrap_err());
        assert_eq!(
            errs[0].msg,
            "shared word 0: write by warp 0 at addr 2 recycles the slot before the read by \
             warp 1 at addr 5 is barrier-ordered (write-after-read across generations)"
        );
    }

    /// A two-warp point loop of `iters` trips, each ending at a CTA-wide
    /// barrier: warp 1 reads slot 1 every trip; warp 0 writes the slot of
    /// `slots` an index register selects, one that counts trips if `count`
    /// and one that stays 0 if not.
    fn indexed_writer(iters: u32, slots: Vec<u32>, count: bool) -> Kernel {
        let step = IdxOp::Imm(u32::from(count));
        let bump = Instr::Idx(IdxInstr::Add { dst: 0, a: IdxOp::Reg(0), b: step });
        let pick = Instr::Idx(IdxInstr::LdConst { dst: 1, bank: 0, idx: IdxOp::Reg(0) });
        let write = Instr::StShared { src: Op::Imm(1.0), addr: SAddr::dyn_lane(1, 0), lane_pred: None };
        let body = vec![
            only(0, vec![Node::Op(pick), Node::Op(write), Node::Op(bump)]),
            only(1, vec![ld(32)]),
            sync(0),
        ];
        let mut k = two_warp_kernel(vec![Node::PointLoop { iters, body }], 64, 1);
        k.iconst_banks = vec![slots];
        k
    }

    #[test]
    fn a_race_in_the_last_trip_alone_is_caught() {
        // Slot 0 in every trip but one, slot 1 — warp 1's — in that one:
        // the eighth, and (which a skip that left only the last trip to
        // walk would miss) the seventh. The trip counter keeps any two
        // trips' states apart, so every trip is walked.
        for racy_trip in [7, 6] {
            let mut slots = vec![0; 8];
            slots[racy_trip] = 32;
            let k = indexed_writer(8, slots, true);
            let errs = checked(&k).unwrap_err();
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert!(errs[0].msg.starts_with("shared word 32: "), "{}", errs[0].msg);
            let (_, proved, _) = run_as(&k, false, true);
            let (_, walked, _) = run_as(&k, false, false);
            assert_eq!(proved, walked, "no two trips of a trip-counting loop are alike");
        }
    }

    #[test]
    fn trips_a_stage_ring_tells_apart_are_not_one_period() {
        // Each trip, each warp arrives alone at a barrier rotating over ids
        // 10 to 16 on a 16-entry file, then at a CTA-wide one. The seventh
        // stage's id is out of the file, in trip 6 of 13 alone — after the
        // state first recurs but for the ring's stage (by trip 5, two trips
        // apart) and before the last trips. Every barrier is idle between
        // trips, so only the stage tells those trips apart: the period is
        // seven trips, which 13 trips never show twice.
        let ring = Node::Op(Instr::BarArriveStage { base: 10, k: 7, warps: 1 });
        let body = vec![ring, Node::Op(Instr::BarSync { bar: 0, warps: 2 })];
        let k = two_warp_kernel(vec![Node::PointLoop { iters: 13, body }], 0, 16);
        let errs = checked(&k).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].msg.starts_with("barrier id 16 at addr 0 exceeds"), "{}", errs[0].msg);
    }

    #[test]
    fn a_periodic_loop_is_walked_until_it_recurs_and_then_its_last_trip() {
        // The same loop with a register that counts nothing: the state
        // recurs from the second trip on.
        let k = indexed_writer(40, vec![0], false);
        let verdict = checked(&k);
        let report = verdict.expect("slot 0 is warp 0's alone");
        assert_eq!((report.barrier_ops, report.generations), (80, 40));
        assert_eq!(report.shared_accesses, 80);
        let (_, proved, _) = run_as(&k, false, true);
        let (_, walked, _) = run_as(&k, false, false);
        assert!(proved * 4 < walked, "walked {proved} of {walked} sync ops");
    }

    /// A small random kernel from `seed`: two to four warps over one to
    /// three shared slots (sometimes cut short by `shared_words`), a
    /// prologue phase and a point loop of phases. A phase is accesses by
    /// one writing warp alone, reads by every warp, or — now and then —
    /// anything by anyone; the accesses are whole slots, single lanes,
    /// uniform words, strided and misaligned ranges, some through a
    /// pipeline offset or a trip-counting register. Most phases close at a
    /// CTA-wide barrier.
    fn random_kernel(seed: u64) -> Kernel {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let warps = 2 + next(3) as usize;
        let slots = 1 + next(3) as u32;
        let shared_words = (slots * 32) as usize - if next(4) == 0 { 1 + next(31) as usize } else { 0 };
        let iters = 1 + next(12) as u32;
        let counts = next(2) as u32;
        let access = |next: &mut dyn FnMut(u64) -> u64, writes: bool| -> Node {
            let slot = next(u64::from(slots)) as u32 * 32;
            let addr = match next(8) {
                0 => SAddr::uniform(slot + next(32) as u32),
                1 => SAddr { base: None, imm: slot, lane_stride: 2 },
                2 => SAddr::lane(slot + 16),
                3 => SAddr::dyn_lane(0, slot),
                4 => SAddr::dyn_lane(1, 0),
                _ => SAddr::lane(slot),
            };
            Node::Op(match next(if writes { 3 } else { 1 }) {
                0 => Instr::LdShared { dst: 0, addr },
                1 => Instr::StShared { src: Op::Imm(1.0), addr, lane_pred: None },
                _ => {
                    let lane_pred = (next(3) == 0).then(|| next(32) as u8);
                    Instr::StShared { src: Op::Imm(1.0), addr, lane_pred }
                }
            })
        };
        let phase = |next: &mut dyn FnMut(u64) -> u64, body: &mut Vec<Node>| {
            let kind = next(6);
            let writer = next(warps as u64) as usize;
            for w in 0..warps {
                let (acts, writes) = match kind {
                    0 => (true, true),
                    1 | 2 => (true, false),
                    _ => (w == writer, true),
                };
                let n = if acts { next(4) } else { 0 };
                let ops = (0..n).map(|_| access(next, writes)).collect();
                body.push(Node::WarpIf { mask: 1 << w, body: ops });
            }
            if next(6) != 0 {
                body.push(Node::Op(Instr::BarSync { bar: 0, warps: warps as u16 }));
            }
        };
        // Register 0 rotates over two slots with the point set; register 1
        // steps through the bank, a slot a trip, if register 2 counts trips.
        let mut all = Vec::new();
        phase(&mut next, &mut all);
        let mut body = vec![
            Node::Op(Instr::Idx(IdxInstr::PipeOff { dst: 0, k: 2, stride: 32 })),
            Node::Op(Instr::Idx(IdxInstr::LdConst { dst: 1, bank: 0, idx: IdxOp::Reg(2) })),
            Node::Op(Instr::Idx(IdxInstr::Add { dst: 2, a: IdxOp::Reg(2), b: IdxOp::Imm(counts) })),
        ];
        for _ in 0..1 + next(3) {
            phase(&mut next, &mut body);
        }
        let bank: Vec<u32> = (0..iters).map(|_| next(u64::from(slots)) as u32 * 32).collect();
        all.push(Node::PointLoop { iters, body });
        let mut k = two_warp_kernel(all, shared_words, 1);
        k.warps_per_cta = warps;
        k.iregs_per_thread = 3;
        k.iconst_banks = vec![bank];
        k
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Slot entries and the period proof against the per-word history
        /// walked trip by trip: the same verdict, report and violations, in
        /// order.
        #[test]
        fn slots_and_periods_verify_as_the_per_word_walk(seed in 0u64..u64::MAX) {
            let k = random_kernel(seed);
            let got = run_as(&k, false, true).0;
            proptest::prop_assert_eq!(&got, &run_as(&k, true, false).0);
            proptest::prop_assert_eq!(&got, &run_as(&k, false, false).0);
        }
    }

    #[test]
    fn random_kernels_reach_every_path() {
        // What the property above draws: clean and racy kernels, blocks
        // split and blocks uniform at the end, and loops the proof shortens.
        let (mut clean, mut racy, mut uniform, mut split, mut shortened) = (0, 0, 0, 0, 0);
        for seed in 0..400 {
            let k = random_kernel(seed);
            let (verdict, proved, ends_uniform) = run_as(&k, false, true);
            let walked = run_as(&k, false, false).1;
            match verdict {
                Ok(_) => clean += 1,
                Err(errs) => racy += usize::from(errs.iter().any(|v| v.kind == ViolationKind::Race)),
            }
            if ends_uniform {
                uniform += 1;
            } else {
                split += 1;
            }
            shortened += usize::from(proved < walked);
        }
        for (what, n) in [("clean", clean), ("racy", racy), ("uniform", uniform), ("split", split), ("shortened", shortened)] {
            assert!(n >= 20, "{n} of 400 random kernels {what}");
        }
    }

}
