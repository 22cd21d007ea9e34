//! Per-warp cycle-attribution profiler.
//!
//! The executors are functional, not cycle-stepped, so the profiler keeps
//! an *attribution timeline*: each warp owns a local cycle clock advanced
//! by the static issue cost of every operation it executes, and every
//! advance is charged to exactly one reason from a closed set
//! ([`WarpCycles`]). Named-barrier waits are reconstructed from arrival
//! times — a barrier generation completes at the maximum local clock among
//! its arrivals, and a warp blocked on that generation is charged the gap
//! between its own arrival and the completion as `barrier_wait[bar]`,
//! then fast-forwarded to the completion time. After the run, per-warp
//! instruction-cache miss penalties are added, the CTA total is the
//! maximum busy time over warps, and each warp's shortfall is charged to
//! `idle` (idle-after-exit). By construction — and checked by
//! [`CtaProfile::check_attribution`] — the sum of a warp's reasons equals
//! the CTA total for *every* warp.
//!
//! A warp's clock is *read* at four points only: its barrier operations,
//! the block and the release of a `bar.sync`, and the end of its stream.
//! Those are exactly the boundaries of the engine's segments
//! (`crate::engine`), which a warp never leaves part way. So the engine
//! charges a segment's issue slots, branch headers and constant replays in
//! one `Profiler::on_segment` at its entry, and the clock reads the same
//! value at every read as when the interpreter charges the same cycles op
//! by op (`crate::interp::run_cta_profiled`, kept as the reference that
//! the differential tests hold the engine to). A profiled launch runs on
//! the engine; the model's replay charges its estimated segments the same
//! way.
//!
//! All counters are integers fed only by the deterministic single-threaded
//! execution of CTA 0, so breakdowns are bit-stable across runs, worker
//! counts, and platforms, and can be golden-tested like
//! `BENCH_report.json`.
//!
//! With event collection on, the profiler additionally records a
//! structured stream of warp phase spans (exec / barrier-wait) and
//! barrier arrive/sync edges, exportable as Chrome `chrome://tracing`
//! JSON via [`chrome_trace_json`].

use std::collections::HashMap;

use crate::arch::GpuArch;

/// Hard cap on recorded trace events; [`CtaProfile::events_truncated`]
/// reports when the stream was cut (counters are never truncated).
pub const MAX_TRACE_EVENTS: usize = 200_000;

/// Cycles attributed to one warp, split by reason. The reasons form a
/// closed set: `issue + barrier_wait + icache_miss + const_replay +
/// overhead + idle` accounts for every cycle of the CTA critical path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WarpCycles {
    /// Instruction issue (static issue slots of executed ops).
    pub issue: u64,
    /// Blocked on `bar.sync`, split by barrier id.
    pub barrier_wait: Vec<u64>,
    /// Instruction-cache miss penalties (per-warp share of the
    /// interleaved fetch trace).
    pub icache_miss: u64,
    /// Constant-cache replays: extra cycles for multi-line `LdConst`
    /// broadcasts plus miss latency.
    pub const_replay: u64,
    /// Operand/scheduling overhead: warp-branch headers and the
    /// architectural cost of executing barrier instructions.
    pub overhead: u64,
    /// Idle after exit (or behind the slowest warp) until CTA completion.
    pub idle: u64,
}

impl WarpCycles {
    fn new(n_barriers: usize) -> WarpCycles {
        WarpCycles { barrier_wait: vec![0; n_barriers], ..Default::default() }
    }

    /// Total cycles waiting on named barriers (all ids).
    pub fn barrier_wait_total(&self) -> u64 {
        self.barrier_wait.iter().sum()
    }

    /// Cycles this warp was doing something (everything but `idle`).
    pub fn busy(&self) -> u64 {
        self.issue + self.barrier_wait_total() + self.icache_miss + self.const_replay
            + self.overhead
    }

    /// Sum over the full closed reason set. Equals the CTA total for every
    /// warp of a finalized profile.
    pub fn total(&self) -> u64 {
        self.busy() + self.idle
    }

    /// Element-wise accumulate (for CTA-level aggregation).
    pub fn accumulate(&mut self, o: &WarpCycles) {
        self.issue += o.issue;
        if self.barrier_wait.len() < o.barrier_wait.len() {
            self.barrier_wait.resize(o.barrier_wait.len(), 0);
        }
        for (b, v) in o.barrier_wait.iter().enumerate() {
            self.barrier_wait[b] += v;
        }
        self.icache_miss += o.icache_miss;
        self.const_replay += o.const_replay;
        self.overhead += o.overhead;
        self.idle += o.idle;
    }
}

/// Span vs instant event (maps to Chrome trace phases `X` / `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration (`ph: "X"`).
    Span,
    /// A point event (`ph: "i"`).
    Instant,
}

/// One structured trace event. `ts`/`dur` are in simulated cycles for
/// interpreter events and in microseconds for compiler stage spans; Chrome
/// tracing renders both as its microsecond timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Display name ("exec", "wait b3", "arrive b0", "mapping", ...).
    pub name: String,
    /// Category ("warp", "barrier", "compile").
    pub cat: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Start timestamp.
    pub ts: u64,
    /// Duration (0 for instants).
    pub dur: u64,
    /// Track id (warp id for interpreter events, 0 for compile stages).
    pub tid: u32,
}

/// Finalized per-CTA profile: one [`WarpCycles`] per warp plus the CTA
/// total and the optional event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtaProfile {
    /// Per-warp attribution tables.
    pub warps: Vec<WarpCycles>,
    /// CTA critical-path cycles (max busy time over warps).
    pub total_cycles: u64,
    /// Structured event stream (empty unless event collection was on).
    pub events: Vec<TraceEvent>,
    /// True if the event stream hit [`MAX_TRACE_EVENTS`].
    pub events_truncated: bool,
}

impl CtaProfile {
    /// Verify the closed-set invariant: for every warp, the sum of all
    /// attributed reasons equals the CTA total.
    pub fn check_attribution(&self) -> Result<(), String> {
        for (w, wc) in self.warps.iter().enumerate() {
            if wc.total() != self.total_cycles {
                return Err(format!(
                    "warp {}: attributed {} cycles != CTA total {}",
                    w,
                    wc.total(),
                    self.total_cycles
                ));
            }
        }
        Ok(())
    }

    /// Reason totals summed over all warps.
    pub fn totals(&self) -> WarpCycles {
        let mut t = WarpCycles::default();
        for w in &self.warps {
            t.accumulate(w);
        }
        t
    }
}

/// Integer per-event costs derived from a [`GpuArch`]; the attribution
/// model works in whole cycles so breakdowns stay bit-stable.
#[derive(Debug, Clone, Copy)]
struct ProfCosts {
    icache_miss: u64,
    const_miss: u64,
    barrier_op: u64,
}

/// Online cycle-attribution state, finalized with [`Profiler::finish`]. The
/// barrier protocol (`crate::cta::Schedule`) fires the barrier, block,
/// release and warp-end hooks for whichever stepper runs the CTA; the
/// stepper charges what it executes — the engine a segment at a time
/// (`Profiler::on_segment`), the interpreter an instruction at a time.
#[derive(Debug)]
pub struct Profiler {
    costs: ProfCosts,
    collect_events: bool,
    /// Per-warp local clocks.
    t: Vec<u64>,
    warps: Vec<WarpCycles>,
    /// Start of the current exec span per warp (event stream only).
    span_start: Vec<u64>,
    /// Per barrier: max arrival clock within the current generation.
    arrival_max: Vec<u64>,
    /// Per barrier: completion clock keyed by the generation value the
    /// completion advanced the barrier *to*.
    completions: Vec<HashMap<u64, u64>>,
    events: Vec<TraceEvent>,
    truncated: bool,
}

impl Profiler {
    /// Profiler for a CTA of `n_warps` warps and `n_barriers` named
    /// barriers. `collect_events` additionally records the span/edge
    /// stream (counters are always collected).
    pub fn new(n_warps: usize, n_barriers: usize, collect_events: bool, arch: &GpuArch) -> Profiler {
        Profiler {
            costs: ProfCosts {
                icache_miss: arch.icache_miss_penalty as u64,
                const_miss: arch.const_miss_latency as u64,
                barrier_op: arch.barrier_sync_cycles as u64,
            },
            collect_events,
            t: vec![0; n_warps],
            warps: vec![WarpCycles::new(n_barriers); n_warps],
            span_start: vec![0; n_warps],
            arrival_max: vec![0; n_barriers],
            completions: vec![HashMap::new(); n_barriers],
            events: Vec::new(),
            truncated: false,
        }
    }

    fn push_event(&mut self, ev: TraceEvent) {
        if self.events.len() >= MAX_TRACE_EVENTS {
            self.truncated = true;
            return;
        }
        self.events.push(ev);
    }

    /// Flush the warp's open exec span `[span_start, t)` to the stream.
    fn flush_exec(&mut self, w: usize) {
        if !self.collect_events {
            return;
        }
        let (start, end) = (self.span_start[w], self.t[w]);
        if end > start {
            self.push_event(TraceEvent {
                name: "exec".into(),
                cat: "warp",
                kind: EventKind::Span,
                ts: start,
                dur: end - start,
                tid: w as u32,
            });
        }
        self.span_start[w] = end;
    }

    /// Charge `slots` issue cycles to warp `w`.
    pub(crate) fn on_issue(&mut self, w: usize, slots: u64) {
        self.t[w] += slots;
        self.warps[w].issue += slots;
    }

    /// Charge scheduling/operand overhead cycles (branch headers).
    pub(crate) fn on_overhead(&mut self, w: usize, cycles: u64) {
        self.t[w] += cycles;
        self.warps[w].overhead += cycles;
    }

    /// Charge a multi-line `LdConst` broadcast: `lines` distinct cache
    /// lines touched (first is part of issue; extras replay) of which
    /// `misses` missed.
    pub(crate) fn on_const_replay(&mut self, w: usize, lines: u64, misses: u64) {
        self.on_segment(w, 0, 0, lines.saturating_sub(1), misses);
    }

    /// Charge a stretch of warp `w`'s stream that no barrier operation
    /// interrupts, in bulk: `issue` slots, `overhead` branch-header cycles,
    /// and the constant replays of its loads — `replay_lines` lines past
    /// each load's first, `const_misses` misses. The sum of what
    /// [`Profiler::on_issue`], [`Profiler::on_overhead`] and
    /// [`Profiler::on_const_replay`] charge op by op, and as exact: no clock
    /// read falls inside such a stretch (see the module docs).
    pub(crate) fn on_segment(
        &mut self,
        w: usize,
        issue: u64,
        overhead: u64,
        replay_lines: u64,
        const_misses: u64,
    ) {
        let replay = replay_lines + const_misses * self.costs.const_miss;
        self.t[w] += issue + overhead + replay;
        let wc = &mut self.warps[w];
        wc.issue += issue;
        wc.overhead += overhead;
        wc.const_replay += replay;
    }

    /// A barrier instruction executed on warp `w`: charge the
    /// architectural barrier overhead and record the arrival.
    pub(crate) fn on_barrier_op(&mut self, w: usize, bar: u8, sync: bool) {
        self.t[w] += self.costs.barrier_op;
        self.warps[w].overhead += self.costs.barrier_op;
        let b = bar as usize;
        if b < self.arrival_max.len() {
            self.arrival_max[b] = self.arrival_max[b].max(self.t[w]);
        }
        if self.collect_events {
            let ev = TraceEvent {
                name: format!("{} b{}", if sync { "sync" } else { "arrive" }, bar),
                cat: "barrier",
                kind: EventKind::Instant,
                ts: self.t[w],
                dur: 0,
                tid: w as u32,
            };
            self.push_event(ev);
        }
    }

    /// The arrival on `bar` completed a generation, advancing the barrier
    /// to `new_gen`: snapshot the completion clock.
    pub(crate) fn on_barrier_complete(&mut self, bar: u8, new_gen: u64) {
        let b = bar as usize;
        if b >= self.arrival_max.len() {
            return;
        }
        let at = self.arrival_max[b];
        self.completions[b].insert(new_gen, at);
        self.arrival_max[b] = 0;
    }

    /// Warp `w` blocked on a `bar.sync`; close its exec span.
    pub(crate) fn on_block(&mut self, w: usize, _bar: u8) {
        self.flush_exec(w);
    }

    /// Warp `w`, blocked at generation `gen` of `bar`, is released: charge
    /// the wait and fast-forward its clock to the completion.
    pub(crate) fn on_release(&mut self, w: usize, bar: u8, gen: u64) {
        let b = bar as usize;
        if b >= self.completions.len() {
            return;
        }
        // The completion that released this warp advanced the generation
        // from `gen` to `gen + 1`.
        let complete = self.completions[b].get(&(gen + 1)).copied().unwrap_or(self.t[w]);
        let wait = complete.saturating_sub(self.t[w]);
        let start = self.t[w];
        self.t[w] += wait;
        self.warps[w].barrier_wait[b] += wait;
        if self.collect_events && wait > 0 {
            self.push_event(TraceEvent {
                name: format!("wait b{bar}"),
                cat: "warp",
                kind: EventKind::Span,
                ts: start,
                dur: wait,
                tid: w as u32,
            });
        }
        self.span_start[w] = self.t[w];
    }

    /// Warp `w` ran off the end of its stream.
    pub(crate) fn on_warp_done(&mut self, w: usize) {
        self.flush_exec(w);
    }

    /// Add per-warp instruction-cache miss penalties (from the interleaved
    /// fetch trace, available after the functional run).
    pub(crate) fn add_icache_misses(&mut self, per_warp_misses: &[u64]) {
        for (w, &m) in per_warp_misses.iter().enumerate() {
            if w < self.warps.len() {
                self.warps[w].icache_miss += m * self.costs.icache_miss;
            }
        }
    }

    /// Finalize: the CTA total is the max busy time over warps; every
    /// warp's shortfall becomes `idle`, making the closed-set sum equal
    /// for all warps.
    pub fn finish(mut self) -> CtaProfile {
        let total = self.warps.iter().map(WarpCycles::busy).max().unwrap_or(0);
        for wc in &mut self.warps {
            wc.idle = total - wc.busy();
        }
        CtaProfile {
            warps: self.warps,
            total_cycles: total,
            events: self.events,
            events_truncated: self.truncated,
        }
    }
}

/// Serialize event groups as Chrome `chrome://tracing` JSON (load via
/// `chrome://tracing` or <https://ui.perfetto.dev>). Each group becomes
/// one named "process" (`pid` = group index); event `tid`s are the
/// tracks within it.
pub fn chrome_trace_json(groups: &[(&str, &[TraceEvent])]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, s: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&s);
    };
    for (pid, (name, events)) in groups.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
            &mut first,
        );
        for ev in *events {
            let s = match ev.kind {
                EventKind::Span => format!(
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{pid},\"tid\":{}}}",
                    json_string(&ev.name),
                    ev.cat,
                    ev.ts,
                    ev.dur,
                    ev.tid
                ),
                EventKind::Instant => format!(
                    "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                     \"pid\":{pid},\"tid\":{}}}",
                    json_string(&ev.name),
                    ev.cat,
                    ev.ts,
                    ev.tid
                ),
            };
            push(&mut out, s, &mut first);
        }
    }
    out.push_str("\n]}\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> GpuArch {
        GpuArch::kepler_k20c()
    }

    #[test]
    fn issue_and_idle_balance() {
        let mut p = Profiler::new(2, 16, false, &arch());
        p.on_issue(0, 100);
        p.on_issue(1, 60);
        p.on_warp_done(0);
        p.on_warp_done(1);
        let prof = p.finish();
        assert_eq!(prof.total_cycles, 100);
        assert_eq!(prof.warps[1].idle, 40);
        prof.check_attribution().unwrap();
    }

    #[test]
    fn barrier_wait_charged_to_blocked_warp() {
        let a = arch();
        let bar_op = a.barrier_sync_cycles as u64;
        let mut p = Profiler::new(2, 16, false, &a);
        // Warp 0 syncs early and blocks; warp 1 works 500 cycles then
        // arrives, completing generation 0 -> 1.
        p.on_issue(0, 10);
        p.on_barrier_op(0, 3, true);
        p.on_block(0, 3);
        p.on_issue(1, 500);
        p.on_barrier_op(1, 3, true);
        p.on_barrier_complete(3, 1);
        p.on_release(0, 3, 0);
        p.on_warp_done(0);
        p.on_warp_done(1);
        let prof = p.finish();
        // Warp 0 waited from (10 + bar_op) until warp 1's arrival at
        // (500 + bar_op).
        assert_eq!(prof.warps[0].barrier_wait[3], 490);
        assert_eq!(prof.warps[0].idle, 0);
        assert_eq!(prof.warps[1].barrier_wait_total(), 0);
        assert_eq!(prof.total_cycles, 500 + bar_op);
        prof.check_attribution().unwrap();
    }

    #[test]
    fn const_replay_counts_lines_and_misses() {
        let a = arch();
        let mut p = Profiler::new(1, 16, false, &a);
        p.on_const_replay(0, 4, 2);
        let extra = 3 + 2 * a.const_miss_latency as u64;
        assert_eq!(p.warps[0].const_replay, extra);
    }

    #[test]
    fn events_record_spans_and_edges() {
        let mut p = Profiler::new(1, 16, true, &arch());
        p.on_issue(0, 50);
        p.on_barrier_op(0, 1, false);
        p.on_warp_done(0);
        let prof = p.finish();
        assert!(prof.events.iter().any(|e| e.name == "exec" && e.kind == EventKind::Span));
        assert!(prof.events.iter().any(|e| e.name == "arrive b1" && e.kind == EventKind::Instant));
        let json = chrome_trace_json(&[("test", &prof.events)]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn totals_accumulate_across_warps() {
        let mut p = Profiler::new(2, 4, false, &arch());
        p.on_issue(0, 10);
        p.on_issue(1, 30);
        let prof = p.finish();
        let t = prof.totals();
        assert_eq!(t.issue, 40);
        assert_eq!(t.idle, 20); // warp 0 idles 20 behind warp 1
    }
}
