//! What a CTA *is*, stated once for everything that runs one.
//!
//! A CTA is a set of warps around a file of named barriers, a shared
//! memory, output buffers and a constant cache. Three things run one — the
//! interpreter an instruction at a time, the engine a lowered segment at a
//! time, the model a costed segment at a time — and each is a *stepper*:
//! "run warp `w` until it blocks or its stream ends". Everything else lives
//! here:
//!
//! - [`Schedule`] is the protocol the paper's correctness rests on (§4.2):
//!   `bar.arrive`/`bar.sync` generations over the barrier file
//!   ([`Schedule::barrier`], the one definition of an arrival), and the
//!   cooperative round-robin that drives the steppers ([`Schedule::run`]):
//!   each unfinished warp in turn, a blocked one released once its barrier's
//!   generation has moved on, and a full round without progress reported as
//!   the deadlock Theorem 1's discipline rules out. A stepper is a closure,
//!   so the drive is monomorphized per stepper; the profiler hooks of the
//!   protocol fire here, for whichever stepper carries a profiler.
//! - [`CtaMem`] is the memory side: the three global-memory lane loops
//!   ([`CtaMem::ld_global`], [`CtaMem::st_global`], [`CtaMem::cp_async`])
//!   with their per-lane check order and typed errors, shared-memory
//!   addressing and bank accounting, constant loads and the lines they
//!   touch, and the collect-time epilogue ([`CtaMem::finish`]).
//!
//! The interpreter and the engine are therefore identical by construction
//! at the protocol and at the memory boundary; what stays differential
//! between them is what should be — dynamic evaluation against static
//! lowering, the optimizer, bulk counts and rolled bodies.

use crate::arch::GpuArch;
use crate::ccache::ConstCache;
use crate::counts::EventCounts;
use crate::error::{SimError, SimResult};
use crate::icache::interleaved_fetch_profile;
use crate::interp::FlatProgram;
use crate::isa::{BarOp, IdxFile, IdxOp, Kernel, SAddr};
use crate::profile::Profiler;
use crate::WARP_SIZE;

/// Result of running one CTA.
#[derive(Debug)]
pub struct CtaResult {
    /// Per-output-array buffers (`rows x points_per_cta`), parallel to
    /// `kernel.global_arrays` (empty vec for inputs).
    pub out_buffers: Vec<Vec<f64>>,
    /// Event counts (only populated when collection was requested).
    pub counts: EventCounts,
}

/// Named-barrier state. `generation` increments on every completion so a
/// warp blocked on one use of the barrier is not confused by a subsequent
/// reuse (barriers are recycled constantly in multi-pass kernels).
#[derive(Debug, Clone, Default)]
struct BarrierState {
    arrived: u16,
    expected: Option<u16>,
    generation: u64,
}

/// One warp, as the round-robin sees it.
#[derive(Debug, Clone, Copy, Default)]
struct WarpSched {
    done: bool,
    /// Blocked on `(barrier id, the generation it joined)`.
    blocked: Option<(u8, u64)>,
}

/// Barriers in a CTA's file: what the kernel declares, and never fewer than
/// the 16 the hardware has.
pub(crate) fn barrier_file_len(kernel: &Kernel) -> usize {
    kernel.barriers_used.max(16)
}

/// The named-barrier file of a CTA and the cooperative schedule of its
/// warps over it.
pub(crate) struct Schedule<'p> {
    barriers: Vec<BarrierState>,
    warps: Vec<WarpSched>,
    /// Cycle attribution, when the stepper carries one: the protocol's
    /// hooks fire from here, the stepper charges what it executes.
    pub(crate) profiler: Option<&'p mut Profiler>,
    stall_switches: u64,
}

impl<'p> Schedule<'p> {
    pub(crate) fn new(kernel: &Kernel, profiler: Option<&'p mut Profiler>) -> Schedule<'p> {
        Schedule {
            barriers: vec![BarrierState::default(); barrier_file_len(kernel)],
            warps: vec![WarpSched::default(); kernel.warps_per_cta],
            profiler,
            stall_switches: 0,
        }
    }

    /// Times a warp blocked on a `bar.sync` and the schedule moved on.
    pub(crate) fn stall_switches(&self) -> u64 {
        self.stall_switches
    }

    /// Warp `w` executes barrier operation `op`: register its arrival, and
    /// complete the barrier's generation if it was the last one expected.
    /// Returns whether `w` blocked — a `bar.sync` whose own arrival did not
    /// complete the generation it joined.
    #[inline]
    pub(crate) fn barrier(&mut self, w: usize, op: BarOp) -> SimResult<bool> {
        let BarOp { bar, expected, sync } = op;
        let b = self
            .barriers
            .get_mut(bar as usize)
            .ok_or(SimError::BarrierMismatch { bar, msg: "barrier id out of range".into() })?;
        match b.expected {
            Some(e) if e != expected => {
                return Err(SimError::BarrierMismatch {
                    bar,
                    msg: format!("expected-count mismatch: {e} vs {expected}"),
                });
            }
            _ => b.expected = Some(expected),
        }
        b.arrived += 1;
        let completed = b.arrived >= expected;
        if completed {
            *b = BarrierState { generation: b.generation + 1, ..BarrierState::default() };
        }
        let generation = b.generation;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.on_barrier_op(w, bar, sync);
            if completed {
                p.on_barrier_complete(bar, generation);
            }
        }
        let blocks = sync && !completed;
        if blocks {
            self.warps[w].blocked = Some((bar, generation));
            self.stall_switches += 1;
            if let Some(p) = self.profiler.as_deref_mut() {
                p.on_block(w, bar);
            }
        }
        Ok(blocks)
    }

    /// Warp `w` ran off the end of its stream.
    #[inline]
    pub(crate) fn finish(&mut self, w: usize) {
        self.warps[w].done = true;
        if let Some(p) = self.profiler.as_deref_mut() {
            p.on_warp_done(w);
        }
    }

    /// Run CTA `cta`'s warps to completion, round-robin. `step(self, w)`
    /// runs warp `w` until it blocks ([`Schedule::barrier`] said so) or its
    /// stream ends (it calls [`Schedule::finish`]), and returns whether it
    /// executed anything. A round in which no warp did ends the run: with
    /// every warp finished normally, and otherwise as the deadlock it is.
    pub(crate) fn run(
        &mut self,
        cta: usize,
        mut step: impl FnMut(&mut Self, usize) -> SimResult<bool>,
    ) -> SimResult<()> {
        loop {
            let mut progressed = false;
            for w in 0..self.warps.len() {
                let WarpSched { done, blocked } = self.warps[w];
                if done {
                    continue;
                }
                // A blocked warp is released once the barrier's generation
                // has advanced past the one it joined.
                if let Some((bar, gen)) = blocked {
                    if self.barriers[bar as usize].generation == gen {
                        continue;
                    }
                    self.warps[w].blocked = None;
                    if let Some(p) = self.profiler.as_deref_mut() {
                        p.on_release(w, bar, gen);
                    }
                }
                progressed |= step(self, w)?;
            }
            if !progressed {
                // Nothing ran. Either no warp is left — the last ones
                // finished a round ago, on a barrier that completed — or
                // the ones left cannot move.
                let blocked: Vec<(usize, u8)> = self
                    .warps
                    .iter()
                    .enumerate()
                    .filter(|(_, ws)| !ws.done)
                    .map(|(w, ws)| (w, ws.blocked.map_or(255, |(bar, _)| bar)))
                    .collect();
                return if blocked.is_empty() {
                    Ok(())
                } else {
                    Err(SimError::Deadlock { cta, blocked })
                };
            }
        }
    }
}

/// Instructions the fetch unit streams ahead of a warp before the
/// scheduler rotates (paper §5.1: the prefetcher copes with divergence for
/// regions up to a few hundred instructions).
const PREFETCH_RUN: usize = 128;

/// The instruction-cache term of a CTA: the interleaved fetch simulation
/// over `prog`'s per-warp address streams, into `counts` and, per warp,
/// into the profiler.
pub(crate) fn fetch_profile(
    prog: &FlatProgram,
    arch: &GpuArch,
    counts: &mut EventCounts,
    profiler: Option<&mut Profiler>,
) {
    let fp = interleaved_fetch_profile(
        &mut prog.fetch_streams(),
        arch.instr_bytes,
        arch.icache_bytes,
        arch.icache_line_bytes,
        arch.icache_assoc,
        PREFETCH_RUN,
    );
    counts.icache_fetches = fp.fetches;
    counts.icache_misses = fp.misses;
    if let Some(p) = profiler {
        p.add_icache_misses(&fp.per_warp_misses);
    }
}

/// Where the lanes of a global access take their points from.
#[derive(Clone, Copy)]
pub(crate) enum Points<'a> {
    /// Lane `l` addresses point `l` of the 32 that start `.0` points into
    /// the CTA's range.
    Cta(usize),
    /// Absolute point indices, one per lane.
    Abs(&'a [u32]),
}

/// Where a global array's reads come from, resolved once per access: an
/// input's words, or this CTA's buffer of an output being read back.
#[derive(Clone, Copy)]
struct Source<'m> {
    /// The space an out-of-range read is reported in.
    space: &'static str,
    words: &'m [f64],
    output: bool,
}

impl<'m> Source<'m> {
    /// Over the fields it reads, so a copy can write shared memory while it
    /// holds one.
    #[inline]
    fn of(k: &Kernel, inputs: &[&'m [f64]], outs: &'m [Vec<f64>], array: usize) -> Source<'m> {
        if k.global_arrays[array].output {
            Source { space: "global-out", words: &outs[array], output: true }
        } else {
            Source { space: "global", words: inputs[array], output: false }
        }
    }
}

/// The memory of one CTA — shared memory, output buffers, constant cache —
/// with its place in the grid, and the event counts of the run.
pub(crate) struct CtaMem<'a> {
    kernel: &'a Kernel,
    inputs: &'a [&'a [f64]],
    total_points: usize,
    base_point: usize,
    pub(crate) shared: Vec<f64>,
    out_buffers: Vec<Vec<f64>>,
    pub(crate) ccache: ConstCache,
    /// Whether events are counted.
    pub(crate) collect: bool,
    pub(crate) counts: EventCounts,
}

impl<'a> CtaMem<'a> {
    /// CTA `cta` of a grid of `total_points` points. `inputs` is parallel
    /// to `kernel.global_arrays`: full `rows * total_points` slices for
    /// input arrays, anything for outputs.
    pub(crate) fn new(
        kernel: &'a Kernel,
        inputs: &'a [&'a [f64]],
        total_points: usize,
        cta: usize,
        collect: bool,
        arch: &GpuArch,
    ) -> CtaMem<'a> {
        let out_buffers = kernel
            .global_arrays
            .iter()
            .map(|a| if a.output { vec![0.0; a.rows * kernel.points_per_cta] } else { Vec::new() })
            .collect();
        CtaMem {
            kernel,
            inputs,
            total_points,
            base_point: cta * kernel.points_per_cta,
            shared: vec![0.0; kernel.shared_words],
            out_buffers,
            ccache: ConstCache::new(arch.const_cache_bytes),
            collect,
            counts: EventCounts::default(),
        }
    }

    /// Flat SoA element index of each lane: `row * total_points + point`.
    #[inline]
    pub(crate) fn global_indices(&self, rows: &[u32], pts: Points<'_>) -> [usize; WARP_SIZE] {
        let row = |l: usize| rows[l] as usize * self.total_points;
        match pts {
            Points::Cta(off) => {
                let first = self.base_point + off;
                std::array::from_fn(|l| row(l) + first + l)
            }
            Points::Abs(pts) => std::array::from_fn(|l| row(l) + pts[l] as usize),
        }
    }

    /// Translate a global SoA element index into a CTA output-buffer index.
    fn local_out_index(&self, idx: usize) -> SimResult<usize> {
        let (row, point) = (idx / self.total_points, idx % self.total_points);
        let points = self.base_point..self.base_point + self.kernel.points_per_cta;
        if !points.contains(&point) {
            return Err(SimError::OutOfBounds { space: "cta-point", addr: point, limit: points.end });
        }
        Ok(row * self.kernel.points_per_cta + (point - self.base_point))
    }

    /// One lane's global read from `src`, an output's index translated into
    /// this CTA's part of it.
    #[inline]
    fn read_global(&self, src: Source<'_>, idx: usize) -> SimResult<f64> {
        let Source { space, words, output } = src;
        let at = if output { self.local_out_index(idx)? } else { idx };
        words.get(at).copied().ok_or(SimError::OutOfBounds { space, addr: at, limit: words.len() })
    }

    /// Count the 128-byte transactions of one global access.
    fn count_global(&mut self, idxs: &[usize; WARP_SIZE]) {
        if self.collect {
            let tx = coalesce(idxs);
            self.counts.global_transactions += tx;
            self.counts.global_bytes += tx * 128;
        }
    }

    /// Count the bank transactions of one shared-memory access.
    pub(crate) fn count_shared(&mut self, addrs: &[usize; WARP_SIZE], lane_pred: Option<u8>) {
        if self.collect {
            let (tx, conf) = bank_transactions(addrs, lane_pred);
            self.counts.shared_accesses += tx;
            self.counts.shared_conflicts += conf;
        }
    }

    /// Global load: `out[l] = array[idxs[l]]`, lane by lane; the first lane
    /// out of range is the error.
    #[inline]
    pub(crate) fn ld_global(
        &mut self,
        array: usize,
        idxs: &[usize; WARP_SIZE],
        out: &mut [f64],
    ) -> SimResult<()> {
        let src = Source::of(self.kernel, self.inputs, &self.out_buffers, array);
        for (out, &idx) in out.iter_mut().zip(idxs) {
            *out = self.read_global(src, idx)?;
        }
        self.count_global(idxs);
        Ok(())
    }

    /// The error a store to `array` is, unless it is an output.
    pub(crate) fn check_store(kernel: &Kernel, array: usize) -> SimResult<()> {
        let decl = &kernel.global_arrays[array];
        if decl.output {
            Ok(())
        } else {
            Err(SimError::BadLaunch(format!("store to non-output array '{}'", decl.name)))
        }
    }

    /// Global store: `array[idxs[l]] = vals[l]`, lane by lane, into this
    /// CTA's part of the output. Every NaN is stored as [`f64::NAN`]: which
    /// operand's sign and payload an arithmetic NaN carries is not something
    /// Rust promises (LLVM may commute an `fadd`), no instruction lets
    /// either reach a non-NaN value, and so the store is where the two
    /// executors' NaNs are made one.
    #[inline]
    pub(crate) fn st_global(
        &mut self,
        array: usize,
        idxs: &[usize; WARP_SIZE],
        vals: &[f64; WARP_SIZE],
    ) -> SimResult<()> {
        for (&idx, &v) in idxs.iter().zip(vals) {
            let local = self.local_out_index(idx)?;
            let buf = &mut self.out_buffers[array];
            let limit = buf.len();
            *buf.get_mut(local).ok_or(SimError::OutOfBounds {
                space: "global-out",
                addr: local,
                limit,
            })? = if v.is_nan() { f64::NAN } else { v };
        }
        self.count_global(idxs);
        Ok(())
    }

    /// Async copy: `shared[saddr(l)] = array[idxs[l]]`, one value per lane,
    /// global → shared without touching a register. Functionally immediate;
    /// costed as one coalesced global read (the shared side is the
    /// caller's, who knows whether it is counted per access or in bulk).
    /// Per lane the global read is checked before the shared store, so the
    /// first failing lane reports the side that failed first.
    #[inline]
    pub(crate) fn cp_async(
        &mut self,
        array: usize,
        idxs: &[usize; WARP_SIZE],
        saddr: impl Fn(usize) -> usize,
    ) -> SimResult<()> {
        let src = Source::of(self.kernel, self.inputs, &self.out_buffers, array);
        for (l, &idx) in idxs.iter().enumerate() {
            let v = self.read_global(src, idx)?;
            let limit = self.shared.len();
            *self.shared.get_mut(saddr(l)).ok_or(SimError::OutOfBounds {
                space: "shared",
                addr: saddr(l),
                limit,
            })? = v;
        }
        self.count_global(idxs);
        Ok(())
    }

    /// The run is over: fill in what is only known at its end — barrier
    /// stall switches, constant-cache totals, the instruction-cache
    /// simulation — and hand back the outputs.
    pub(crate) fn finish(
        mut self,
        sched: Schedule<'_>,
        prog: &FlatProgram,
        arch: &GpuArch,
    ) -> CtaResult {
        if self.collect {
            self.counts.barrier_stall_switches = sched.stall_switches;
            self.counts.const_hits = self.ccache.hits();
            self.counts.const_misses = self.ccache.misses();
            fetch_profile(prog, arch, &mut self.counts, sched.profiler);
        }
        CtaResult { out_buffers: self.out_buffers, counts: self.counts }
    }
}

/// The word each lane of a shared-memory access addresses, every active
/// lane's in range of the `limit` words there are. A predicate naming a lane
/// outside the warp is a typed error, checked before the address walk; the
/// lanes a predicate excludes are not bounds-checked.
pub(crate) fn shared_addrs(
    addr: &SAddr,
    lane_pred: Option<u8>,
    file: &mut impl IdxFile,
    limit: usize,
) -> SimResult<[usize; WARP_SIZE]> {
    if let Some(p) = lane_pred.filter(|&p| p as usize >= WARP_SIZE) {
        return Err(SimError::OutOfBounds { space: "lane-pred", addr: p as usize, limit: WARP_SIZE });
    }
    let addrs = addr.lanes(file)?;
    let active = |l: &usize| lane_pred.is_none_or(|p| p as usize == *l);
    match (0..WARP_SIZE).filter(active).map(|l| addrs[l]).find(|&a| a >= limit) {
        Some(a) => Err(SimError::OutOfBounds { space: "shared", addr: a, limit }),
        None => Ok(addrs),
    }
}

/// Byte offset of each double constant bank within constant space: the
/// constant cache is addressed across banks.
pub(crate) fn const_bank_bases(kernel: &Kernel) -> Vec<u64> {
    kernel
        .const_banks
        .iter()
        .scan(0u64, |off, b| {
            let base = *off;
            *off += (b.len() * 8) as u64;
            Some(base)
        })
        .collect()
}

/// What one `LdConst` resolves to: each lane's value, and the constant-cache
/// lines the warp touches.
pub(crate) struct ConstLoad {
    pub(crate) vals: [f64; WARP_SIZE],
    lines: [u64; WARP_SIZE],
    n_lines: usize,
}

impl ConstLoad {
    /// One cache access per distinct 64-byte line, in first-touch order
    /// (lanes reading the same constant broadcast).
    pub(crate) fn lines(&self) -> &[u64] {
        &self.lines[..self.n_lines]
    }
}

/// Resolve `LdConst bank[idx]` for a warp. Faults in order: the bank, the
/// index register, the first lane whose element is outside the bank.
pub(crate) fn ld_const(
    kernel: &Kernel,
    bank_base: &[u64],
    bank: u16,
    idx: IdxOp,
    file: &mut impl IdxFile,
) -> SimResult<ConstLoad> {
    let bankv = kernel.const_banks.get(bank as usize).ok_or(SimError::OutOfBounds {
        space: "const-bank",
        addr: bank as usize,
        limit: kernel.const_banks.len(),
    })?;
    let idx = idx.lanes(file)?;
    let mut load = ConstLoad { vals: [0.0; WARP_SIZE], lines: [0; WARP_SIZE], n_lines: 0 };
    for (l, &i) in idx.iter().enumerate() {
        let i = i as usize;
        load.vals[l] = *bankv.get(i).ok_or(SimError::OutOfBounds {
            space: "const",
            addr: i,
            limit: bankv.len(),
        })?;
        let line = (bank_base[bank as usize] + (i * 8) as u64) / 64;
        if !load.lines().contains(&line) {
            load.lines[load.n_lines] = line;
            load.n_lines += 1;
        }
    }
    Ok(load)
}

/// 128-byte global transactions of 32 lane element indices (8-byte words):
/// the distinct segments they fall in. Allocation-free, like
/// [`bank_transactions`] — every counted global access calls it.
pub(crate) fn coalesce(idxs: &[usize; WARP_SIZE]) -> u64 {
    let mut segs = idxs.map(|i| i / 16);
    segs.sort_unstable();
    1 + segs.windows(2).filter(|w| w[0] != w[1]).count() as u64
}

/// Shared-memory bank transactions: 32 banks, 8-byte words; the number of
/// replays is the maximum number of *distinct* addresses mapping to one
/// bank (same-address access broadcasts). Returns `(transactions,
/// conflict_replays)`. Allocation-free — lowering, the interpreter's slow
/// path and the profiler call it once per shared access.
pub(crate) fn bank_transactions(addrs: &[usize; WARP_SIZE], lane_pred: Option<u8>) -> (u64, u64) {
    if lane_pred.is_some() {
        // At most one lane is active: one transaction, nothing to replay.
        return (1, 0);
    }
    // Sorting a stack copy makes equal addresses adjacent, so one walk
    // counts each bank's distinct addresses.
    let mut sorted = *addrs;
    sorted.sort_unstable();
    let mut per_bank = [0u8; 32];
    let mut prev = None;
    for a in sorted {
        if prev != Some(a) {
            per_bank[a % 32] += 1;
            prev = Some(a);
        }
    }
    let max = u64::from(per_bank.into_iter().max().unwrap_or(0).max(1));
    (max, max - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ArrayDecl;

    fn kernel(warps: usize) -> Kernel {
        Kernel {
            name: "cta-t".into(),
            body: vec![],
            warps_per_cta: warps,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 4,
            shared_words: 128,
            local_words_per_thread: 0,
            const_banks: vec![vec![0.5; 5], (0..40).map(f64::from).collect()],
            iconst_banks: vec![],
            barriers_used: 4,
            global_arrays: vec![
                ArrayDecl { name: "in".into(), rows: 2, output: false },
                ArrayDecl { name: "out".into(), rows: 1, output: true },
            ],
            spilled_bytes_per_thread: 0,
            exp_const_from_registers: false,
        }
    }

    fn mismatch(bar: u8, msg: &str) -> SimError {
        SimError::BarrierMismatch { bar, msg: msg.into() }
    }

    #[test]
    fn a_deadlock_report_lists_every_unfinished_warp() {
        // Warp 0 finishes, warp 1 blocks on a sync nobody completes, and
        // warp 2 neither blocks nor finishes nor runs anything: both are
        // reported, the unblocked one against barrier 255.
        let mut sched = Schedule::new(&kernel(3), None);
        let mut stepped = [0; 3];
        let err = sched
            .run(7, |sched, w| {
                stepped[w] += 1;
                match w {
                    0 => sched.finish(0),
                    1 => assert!(sched.barrier(1, BarOp { bar: 3, expected: 2, sync: true })?),
                    _ => return Ok(false),
                }
                Ok(true)
            })
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock { cta: 7, blocked: vec![(1, 3), (2, 255)] });
        // A finished warp and a blocked one are not stepped again.
        assert_eq!(stepped, [1, 1, 2]);
        assert_eq!(sched.stall_switches(), 1);
    }

    #[test]
    fn barrier_misuse_is_a_typed_mismatch() {
        let mut sched = Schedule::new(&kernel(2), None);
        assert_eq!(sched.barrier(0, BarOp { bar: 1, expected: 2, sync: false }), Ok(false));
        assert_eq!(
            sched.barrier(1, BarOp { bar: 1, expected: 3, sync: true }),
            Err(mismatch(1, "expected-count mismatch: 2 vs 3"))
        );
        // Four barriers declared, sixteen in the file. A sync past them is
        // the same typed error an arrive is (it used to index the file for
        // the generation first).
        for sync in [false, true] {
            assert_eq!(sched.barrier(0, BarOp { bar: 15, expected: 3, sync }), Ok(sync));
            assert_eq!(
                sched.barrier(0, BarOp { bar: 16, expected: 1, sync }),
                Err(mismatch(16, "barrier id out of range"))
            );
        }
    }

    #[test]
    fn a_stream_ending_on_a_completed_barrier_ends_the_cta() {
        // Warp 0's last op is a sync that blocks; warp 1's arrival
        // completes it. Released a round later, warp 0 has nothing left to
        // run: a round without progress, and not a deadlock.
        let mut sched = Schedule::new(&kernel(2), None);
        let mut ops_left = [1, 1];
        let mut rounds = 0;
        sched
            .run(0, |sched, w| {
                rounds += usize::from(w == 0);
                if std::mem::take(&mut ops_left[w]) == 0 {
                    sched.finish(w);
                    return Ok(false);
                }
                if !sched.barrier(w, BarOp { bar: 0, expected: 2, sync: w == 0 })? {
                    sched.finish(w);
                }
                Ok(true)
            })
            .unwrap();
        assert_eq!((rounds, sched.stall_switches()), (2, 1));
    }

    #[test]
    fn global_lane_loops_check_lane_by_lane_and_store_one_nan() {
        // The second CTA of a 64-point grid: points 32..64 are its own.
        let k = kernel(1);
        let input: Vec<f64> = (0..128).map(f64::from).collect();
        let inputs: [&[f64]; 2] = [&input, &[]];
        let mut mem = CtaMem::new(&k, &inputs, 64, 1, true, &GpuArch::kepler_k20c());
        let oob = |space, addr, limit| Err(SimError::OutOfBounds { space, addr, limit });

        // `row * total_points + point`, from the CTA's base or absolute.
        let own = mem.global_indices(&[1; 32], Points::Cta(0));
        assert_eq!(own, std::array::from_fn(|l| 64 + 32 + l));
        let abs = mem.global_indices(&[0; 32], Points::Abs(&[9; 32]));
        assert_eq!(abs, [9; 32]);

        let mut out = [0.0; WARP_SIZE];
        mem.ld_global(0, &own, &mut out).unwrap();
        assert_eq!(out, std::array::from_fn(|l| (96 + l) as f64));
        // The first lane out of range is the error; lanes before it loaded.
        let mut past = own;
        (past[3], past[7]) = (128, 500);
        assert_eq!(mem.ld_global(0, &past, &mut out), oob("global", 128, 128));

        // A store keeps every value's bits but a NaN's, which is the NaN.
        let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_dead_beef_0001)];
        let keep = [-0.0, f64::INFINITY, f64::MIN_POSITIVE / 4.0, -1.5];
        let vals: [f64; WARP_SIZE] =
            std::array::from_fn(|l| if l < 3 { nans[l] } else { keep[l % 4] });
        let row0 = mem.global_indices(&[0; 32], Points::Cta(0));
        mem.st_global(1, &row0, &vals).unwrap();
        mem.ld_global(1, &row0, &mut out).unwrap();
        for l in 0..WARP_SIZE {
            let want = if l < 3 { f64::NAN } else { vals[l] };
            assert_eq!(out[l].to_bits(), want.to_bits(), "lane {l}");
        }
        // Another CTA's point, and a row the array does not have.
        assert_eq!(mem.st_global(1, &[31; 32], &vals), oob("cta-point", 31, 64));
        assert_eq!(mem.st_global(1, &[64 + 40; 32], &vals), oob("global-out", 32 + 8, 32));
        assert_eq!(mem.ld_global(1, &[64 + 40; 32], &mut out), oob("global-out", 32 + 8, 32));
        assert!(CtaMem::check_store(&k, 1).is_ok());
        assert!(matches!(CtaMem::check_store(&k, 0), Err(SimError::BadLaunch(_))));

        // An async copy checks a lane's global read before its shared
        // store, and an earlier lane before a later one.
        mem.cp_async(0, &own, |l| 64 + l).unwrap();
        assert_eq!(mem.shared[64..96], input[96..128]);
        assert_eq!(mem.cp_async(0, &past, |_| 128), oob("shared", 128, 128));
        assert_eq!(mem.cp_async(0, &past, |l| if l < 3 { l } else { 128 }), oob("global", 128, 128));

        // Two 128-byte transactions a 32-double access, counted for the
        // four that completed.
        assert_eq!((mem.counts.global_transactions, mem.counts.global_bytes), (8, 1024));
    }

    /// Seeded xorshift vectors of `range`-bounded values.
    fn random_lanes(x: &mut u64, range: usize) -> [usize; WARP_SIZE] {
        std::array::from_fn(|_| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x as usize % range
        })
    }

    #[test]
    fn coalescing_and_constant_lines_match_their_definitions() {
        // The definitions, spelled out with the allocations the counted
        // path no longer makes: the distinct 128-byte segments of 32
        // 8-byte elements, and the distinct 64-byte lines of 32 constants
        // in the order the lanes first touch them.
        fn segments(idxs: &[usize; WARP_SIZE]) -> u64 {
            let mut segs: Vec<usize> = idxs.iter().map(|i| i * 8 / 128).collect();
            segs.sort_unstable();
            segs.dedup();
            segs.len() as u64
        }
        let mut cases: Vec<[usize; WARP_SIZE]> = vec![
            [7; WARP_SIZE],                      // one element: one segment
            std::array::from_fn(|l| l),          // 32 consecutive doubles: two
            std::array::from_fn(|l| 5 + l),      // unaligned: three
            std::array::from_fn(|l| 16 * l),     // a segment a lane
            std::array::from_fn(|l| 1000 - 3 * l), // descending
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for range in [4usize, 40, 1 << 10, 1 << 40] {
            cases.extend((0..64).map(|_| random_lanes(&mut x, range)));
        }
        for idxs in &cases {
            assert_eq!(coalesce(idxs), segments(idxs), "{idxs:?}");
        }
        assert_eq!(coalesce(&cases[1]), 2);

        let k = kernel(1);
        let bases = const_bank_bases(&k);
        assert_eq!(bases, [0, 40]);
        for _ in 0..64 {
            // Bank 1 starts 40 bytes into constant space, so its elements
            // straddle lines differently than their indices suggest.
            let mut file: Vec<u32> = random_lanes(&mut x, 40).map(|i| i as u32).to_vec();
            let idx = file.clone();
            let load = ld_const(&k, &bases, 1, IdxOp::Reg(0), &mut file).unwrap();
            let mut lines: Vec<u64> = Vec::new();
            for (l, &i) in idx.iter().enumerate() {
                assert_eq!(load.vals[l], f64::from(i));
                let line = (40 + u64::from(i) * 8) / 64;
                if !lines.contains(&line) {
                    lines.push(line);
                }
            }
            assert_eq!(load.lines(), lines);
        }
        // An immediate index is one line; faults are typed, bank first.
        let none = &mut Vec::new();
        assert_eq!(ld_const(&k, &bases, 0, IdxOp::Imm(4), none).unwrap().lines(), [0]);
        for (bank, idx, space) in [
            (2, IdxOp::Reg(9), "const-bank"),
            (0, IdxOp::Reg(9), "ireg"),
            (0, IdxOp::Imm(5), "const"),
        ] {
            let err = ld_const(&k, &bases, bank, idx, none).map(|_| ()).unwrap_err();
            assert!(matches!(err, SimError::OutOfBounds { space: s, .. } if s == space), "{err}");
        }
    }

    #[test]
    fn bank_transactions_match_their_definition() {
        // The definition, spelled out: per bank, the list of distinct
        // addresses of the active lanes; replays = the fullest bank.
        fn model(addrs: &[usize; WARP_SIZE], lane_pred: Option<u8>) -> (u64, u64) {
            let mut per_bank: [Vec<usize>; 32] = Default::default();
            for (l, &a) in addrs.iter().enumerate() {
                if lane_pred.is_some_and(|p| p as usize != l) {
                    continue;
                }
                if !per_bank[a % 32].contains(&a) {
                    per_bank[a % 32].push(a);
                }
            }
            let max = per_bank.iter().map(|v| v.len()).max().unwrap_or(0).max(1);
            (max as u64, (max - 1) as u64)
        }
        let preds = || std::iter::once(None).chain((0..=u8::MAX).map(Some));
        let mut cases: Vec<[usize; WARP_SIZE]> = vec![
            [7; WARP_SIZE],                          // stride 0: one broadcast
            std::array::from_fn(|l| l),              // stride 1: conflict-free
            std::array::from_fn(|l| 3 + 32 * l),     // stride 32: 32-way conflict
            std::array::from_fn(|l| 2 * l),          // stride 2: 2-way
            std::array::from_fn(|l| usize::MAX - l), // saturated (unchecked lanes)
        ];
        // Seeded xorshift address vectors over a few ranges, so duplicates
        // and bank collisions both occur.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for range in [4usize, 40, 1 << 10, 1 << 40] {
            for _ in 0..64 {
                cases.push(std::array::from_fn(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as usize % range
                }));
            }
        }
        for addrs in &cases {
            for p in preds() {
                assert_eq!(bank_transactions(addrs, p), model(addrs, p), "{addrs:?} pred {p:?}");
            }
        }
    }
}
