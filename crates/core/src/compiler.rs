//! The unified compiler front door.
//!
//! Historically each kernel flavor had its own free function with
//! copy-pasted option plumbing. [`Compiler`] replaces all three:
//!
//! ```
//! use singe::{Compiler, CompileOptions, Variant};
//! use gpu_sim::GpuArch;
//! # use singe::dfg::Dfg;
//! # fn demo(dfg: &Dfg) -> singe::CResult<()> {
//! let arch = GpuArch::kepler_k20c();
//! let compiled = Compiler::new(&arch)
//!     .options(CompileOptions::builder().warps(8).build())
//!     .compile(dfg, Variant::WarpSpecialized)?;
//! # let _ = compiled; Ok(())
//! # }
//! ```

use crate::baseline::baseline_impl;
use crate::codegen::{self, Compiled};
use crate::config::CompileOptions;
use crate::dfg::Dfg;
use crate::naive::naive_impl;
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::profile::{EventKind, TraceEvent};

/// Which kernel flavor to emit — the three columns of the paper's §6
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Warp-specialized Singe output (§3–§5).
    WarpSpecialized,
    /// Optimized purely data-parallel baseline (§6's comparison point).
    Baseline,
    /// Warp specialization via a naïve top-level warp switch — no
    /// overlaying (Figure 9's strawman).
    Naive,
}

impl Variant {
    /// Stable display name (report tables, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Variant::WarpSpecialized => "warp-specialized",
            Variant::Baseline => "baseline",
            Variant::Naive => "naive",
        }
    }
}

/// Unified front door over the three kernel compilers: configure once,
/// compile any [`Variant`].
#[derive(Debug, Clone)]
pub struct Compiler {
    arch: GpuArch,
    options: CompileOptions,
}

impl Compiler {
    /// A compiler targeting `arch` with default [`CompileOptions`].
    pub fn new(arch: &GpuArch) -> Compiler {
        Compiler { arch: arch.clone(), options: CompileOptions::default() }
    }

    /// Replace the options (builder-style; returns the configured
    /// compiler).
    #[must_use = "Compiler::options returns the configured compiler"]
    pub fn options(mut self, options: CompileOptions) -> Compiler {
        self.options = options;
        self
    }

    /// The options this compiler will use.
    pub fn options_ref(&self) -> &CompileOptions {
        &self.options
    }

    /// The architecture this compiler targets.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Compile `dfg` as `variant`.
    ///
    /// All variants return the unified [`Compiled`]; for
    /// [`Variant::Baseline`] the kernel has no mapping/overlay stages, so
    /// only the spill statistic is populated. The two warp-specialized
    /// variants share the front half (map, schedule, barrier allocation)
    /// and the three share the register side of emission and its epilogue.
    pub fn compile(&self, dfg: &Dfg, variant: Variant) -> CResult<Compiled> {
        self.compile_inner(dfg, variant, None)
    }

    /// [`Compiler::compile`], also recording one wall-clock timing span
    /// per pipeline stage (Figure 8's stages; for [`Variant::Naive`] the
    /// same, with `naive` in place of `emit`; for [`Variant::Baseline`]
    /// `baseline`, then `verify`) in the same event format the simulator profiler uses, so compile and simulate
    /// phases can land in one Chrome trace. Spans are diagnostics — their
    /// durations are not deterministic, unlike the profiler's cycle
    /// counters.
    pub fn compile_traced(
        &self,
        dfg: &Dfg,
        variant: Variant,
    ) -> CResult<(Compiled, Vec<TraceEvent>)> {
        let mut spans = Vec::new();
        let compiled = self.compile_inner(dfg, variant, Some(&mut spans))?;
        Ok((compiled, spans))
    }

    /// Predict a compiled kernel's performance for a `grid_points`-point
    /// launch on this compiler's architecture using the static analytical
    /// model ([`crate::perfmodel`]) — no interpretation. The returned
    /// report's `seconds()` is directly comparable to a simulated probe.
    pub fn predict(
        &self,
        kernel: &gpu_sim::isa::Kernel,
        grid_points: usize,
    ) -> CResult<crate::perfmodel::ModelReport> {
        crate::perfmodel::predict(kernel, &self.arch, grid_points)
    }

    /// The tuner ([`crate::search`]) for this compiler's architecture,
    /// seeded at its options: candidates are scored by
    /// [`Compiler::predict`]'s model and only the top-K survivors are
    /// simulated as the oracle.
    pub fn search(&self) -> crate::search::Tuner {
        crate::search::Tuner::new(self)
    }

    fn compile_inner(
        &self,
        dfg: &Dfg,
        variant: Variant,
        spans: Option<&mut Vec<TraceEvent>>,
    ) -> CResult<Compiled> {
        let (options, arch) = (&self.options, &self.arch);
        let mut timer = StageTimer::new(spans);
        let (compiled, verify) = match variant {
            Variant::Baseline => {
                let compiled = baseline_impl(dfg, options, arch)?;
                timer.mark("baseline");
                (compiled, crate::verify::runs_for(options))
            }
            Variant::WarpSpecialized | Variant::Naive => {
                let facts = dfg.facts()?;
                timer.mark("validate");
                let plan = codegen::plan(dfg, options, arch, &mut timer)?;
                if variant == Variant::WarpSpecialized {
                    return codegen::finish(dfg, &facts, &plan, arch, &mut timer);
                }
                let compiled = naive_impl(dfg, &facts, &plan, arch)?;
                timer.mark("naive");
                (compiled, plan.flags.verify)
            }
        };
        codegen::check_emitted(compiled, verify, arch, &mut timer)
    }
}

/// Records one wall-clock span per pipeline stage into a [`TraceEvent`]
/// vector (the same format the simulator profiler emits, `cat:
/// "compile"`, timestamps in microseconds since compile start). With no
/// sink attached every call is a no-op.
pub(crate) struct StageTimer<'a> {
    spans: Option<&'a mut Vec<TraceEvent>>,
    start: std::time::Instant,
    prev_us: u64,
}

impl<'a> StageTimer<'a> {
    pub(crate) fn new(spans: Option<&'a mut Vec<TraceEvent>>) -> StageTimer<'a> {
        StageTimer { spans, start: std::time::Instant::now(), prev_us: 0 }
    }

    /// Close the span for the stage that just finished, named `name`.
    pub(crate) fn mark(&mut self, name: &'static str) {
        let Some(spans) = self.spans.as_deref_mut() else { return };
        let now_us = self.start.elapsed().as_micros() as u64;
        spans.push(TraceEvent {
            name: name.into(),
            cat: "compile",
            kind: EventKind::Span,
            ts: self.prev_us,
            dur: now_us.saturating_sub(self.prev_us),
            tid: 0,
        });
        self.prev_us = now_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::viscosity::viscosity_dfg;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::synth;

    fn small_dfg() -> Dfg {
        let m = synth::via_text(&synth::SynthConfig {
            name: "ctest".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 42,
        });
        viscosity_dfg(&ViscosityTables::build(&m), 4)
    }

    #[test]
    fn front_door_compiles_all_variants() {
        let arch = GpuArch::kepler_k20c();
        let dfg = small_dfg();
        let c = Compiler::new(&arch).options(CompileOptions::builder().warps(4).build());
        for variant in [Variant::WarpSpecialized, Variant::Baseline, Variant::Naive] {
            let out = c.compile(&dfg, variant).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
            assert!(!out.kernel.body.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn traced_compile_reports_figure8_stages() {
        let arch = GpuArch::kepler_k20c();
        let dfg = small_dfg();
        let c = Compiler::new(&arch).options(CompileOptions::with_warps(4));
        // Both warp-specialized emitters run the one front half; every
        // variant ends in the one verify epilogue.
        let front = ["validate", "mapping", "schedule", "schedule-verify", "barrier-alloc"];
        for (variant, back) in [
            (Variant::WarpSpecialized, &["emit", "verify"][..]),
            (Variant::Naive, &["naive", "verify"]),
            (Variant::Baseline, &["baseline", "verify"]),
        ] {
            let (_, spans) = c.compile_traced(&dfg, variant).unwrap();
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            let want = match variant {
                Variant::Baseline => back.to_vec(),
                _ => [&front[..], back].concat(),
            };
            assert_eq!(names, want, "{variant:?}");
            assert!(spans.iter().all(|s| s.cat == "compile" && s.kind == EventKind::Span));
            // Spans tile the timeline: each starts where the previous ended.
            for pair in spans.windows(2) {
                assert_eq!(pair[0].ts + pair[0].dur, pair[1].ts, "{variant:?}");
            }
        }
    }

    #[test]
    fn a_compile_carries_its_verdict_exactly_when_the_verifier_ran() {
        use crate::verify::{verify_kernel, VerifyLevel};
        let arch = GpuArch::kepler_k20c();
        let dfg = small_dfg();
        let compiler = |verify, unsafe_remove_barriers| {
            let options =
                CompileOptions { verify, unsafe_remove_barriers, ..CompileOptions::with_warps(4) };
            Compiler::new(&arch).options(options)
        };
        for variant in [Variant::WarpSpecialized, Variant::Baseline, Variant::Naive] {
            // Verified: the report is the verifier's own.
            let out = compiler(VerifyLevel::Basic, false).compile(&dfg, variant).unwrap();
            let own = verify_kernel(&out.kernel, &arch).expect("it passed");
            assert_eq!(out.verdict(), Some(&own), "{variant:?}");
            // Not verified: switched off, or the §6.2 ablation under Basic.
            let off = compiler(VerifyLevel::Off, false).compile(&dfg, variant).unwrap();
            assert!(off.verdict().is_none(), "{variant:?}");
            let ablated = compiler(VerifyLevel::Basic, true).compile(&dfg, variant).unwrap();
            assert!(ablated.verdict().is_none(), "{variant:?}");
        }
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(Variant::WarpSpecialized.name(), "warp-specialized");
        assert_eq!(Variant::Baseline.name(), "baseline");
        assert_eq!(Variant::Naive.name(), "naive");
    }
}
