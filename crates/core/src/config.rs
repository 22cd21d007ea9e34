//! Compiler options — the command-line surface of the paper's Figure 8
//! compiler, which the brute-force autotuner drives (§4).

pub use crate::verify::VerifyLevel;

/// How cross-warp dataflow values use shared memory (§4.1's three modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// *Store*: every communicated value gets its own shared slot for its
    /// whole lifetime (viscosity).
    Store,
    /// *Buffer*: values stay in producer registers; shared memory is a
    /// small recycled buffer written just before consumers read
    /// (chemistry). The payload is the slot-pool size in 32-word slots.
    Buffer(usize),
    /// *Mixed*: like Store, but the slot pool is bounded, forcing recycling
    /// through pass barriers when pressure is high (diffusion).
    Mixed(usize),
}

/// Options for one compilation — every knob is autotunable (§4: "it is
/// valuable for a warp-specializing compiler to generate correct code for
/// any number of warps and choice of mapping decisions").
///
/// Construct with [`CompileOptions::default`], [`CompileOptions::builder`],
/// or [`CompileOptions::with_warps`]; the struct is `#[non_exhaustive]`
/// so new knobs can be added without breaking downstream code.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompileOptions {
    /// Warps per CTA to target.
    pub warps: usize,
    /// Streaming point-sets per CTA (the constant-amortization loop, §5.2).
    pub point_iters: u32,
    /// Desired CTAs per SM (bounds shared memory and registers, §4.1).
    pub target_ctas_per_sm: usize,
    /// Mapping metric weight: computational load (FLOPs).
    pub w_flops: f64,
    /// Mapping metric weight: per-warp register balance.
    pub w_regs: f64,
    /// Mapping metric weight: locality (cross-warp edges).
    pub w_locality: f64,
    /// Shared-memory usage mode.
    pub placement: Placement,
    /// Read shared-placed values from shared memory even in their producer
    /// warp (the §3.2 "working set moved to shared memory" discipline —
    /// frees producer registers and keeps overlaid code identical across
    /// warps). Automatically disabled for `Placement::Buffer`.
    pub uniform_shared_reads: bool,
    /// §6.1 ablation: keep the exp Taylor-series constants in registers.
    pub exp_const_from_registers: bool,
    /// §6.2 ablation: unsafely drop all named-barrier synchronization
    /// (results become undefined — timing studies only).
    pub unsafe_remove_barriers: bool,
    /// Post-codegen schedule verification (independent re-check of the
    /// barrier protocol, shared-memory ordering, and resource limits).
    pub verify: VerifyLevel,
    /// Pipeline depth K: how many point-set generations may be in flight
    /// in the shared-memory ring at once. K = 1 is the classic §4.2
    /// single-buffered protocol; K > 1 multi-buffers every communicated
    /// slot and rotates per-stage full/empty barriers so producers run
    /// ahead of consumers (Hopper-style async pipelines). Clamped to
    /// `point_iters`; falls back to 1 when the schedule needs full-CTA
    /// rendezvous or barriers are ablated away.
    pub pipeline_depth: usize,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            warps: 8,
            point_iters: 4,
            target_ctas_per_sm: 2,
            w_flops: 1.0,
            w_regs: 0.5,
            w_locality: 0.25,
            placement: Placement::Store,
            uniform_shared_reads: true,
            exp_const_from_registers: false,
            unsafe_remove_barriers: false,
            verify: VerifyLevel::Basic,
            pipeline_depth: 1,
        }
    }
}

impl CompileOptions {
    /// Convenience: default options with a given warp count.
    pub fn with_warps(warps: usize) -> CompileOptions {
        CompileOptions { warps, ..Default::default() }
    }

    /// Start a fluent builder over the defaults:
    /// `CompileOptions::builder().warps(12).verify(VerifyLevel::Strict).build()`.
    pub fn builder() -> CompileOptionsBuilder {
        CompileOptionsBuilder::default()
    }
}

/// Fluent builder for [`CompileOptions`]. Every setter overrides one field
/// of the defaults; finish with [`CompileOptionsBuilder::build`].
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct CompileOptionsBuilder {
    opts: CompileOptions,
}

impl CompileOptionsBuilder {
    /// Warps per CTA to target.
    pub fn warps(mut self, warps: usize) -> Self {
        self.opts.warps = warps;
        self
    }

    /// Streaming point-sets per CTA (§5.2 constant amortization).
    pub fn point_iters(mut self, point_iters: u32) -> Self {
        self.opts.point_iters = point_iters;
        self
    }

    /// Desired CTAs per SM.
    pub fn target_ctas_per_sm(mut self, n: usize) -> Self {
        self.opts.target_ctas_per_sm = n;
        self
    }

    /// Mapping metric weight: computational load (FLOPs).
    pub fn w_flops(mut self, w: f64) -> Self {
        self.opts.w_flops = w;
        self
    }

    /// Mapping metric weight: per-warp register balance.
    pub fn w_regs(mut self, w: f64) -> Self {
        self.opts.w_regs = w;
        self
    }

    /// Mapping metric weight: locality (cross-warp edges).
    pub fn w_locality(mut self, w: f64) -> Self {
        self.opts.w_locality = w;
        self
    }

    /// Shared-memory usage mode.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.opts.placement = placement;
        self
    }

    /// §3.2 uniform-shared-reads discipline.
    pub fn uniform_shared_reads(mut self, on: bool) -> Self {
        self.opts.uniform_shared_reads = on;
        self
    }

    /// §6.1 ablation: keep exp Taylor constants in registers.
    pub fn exp_const_from_registers(mut self, on: bool) -> Self {
        self.opts.exp_const_from_registers = on;
        self
    }

    /// §6.2 ablation: unsafely drop named-barrier synchronization.
    pub fn unsafe_remove_barriers(mut self, on: bool) -> Self {
        self.opts.unsafe_remove_barriers = on;
        self
    }

    /// Post-codegen schedule verification level.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.opts.verify = level;
        self
    }

    /// Pipeline depth K (multi-buffered producer/consumer generations).
    pub fn pipeline_depth(mut self, k: usize) -> Self {
        self.opts.pipeline_depth = k;
        self
    }

    /// Finish, yielding the configured [`CompileOptions`].
    pub fn build(self) -> CompileOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = CompileOptions::default();
        assert!(o.warps >= 2);
        assert!(o.point_iters >= 1);
        assert!(!o.unsafe_remove_barriers);
        assert_eq!(o.pipeline_depth, 1);
    }

    #[test]
    fn builder_sets_pipeline_depth() {
        let o = CompileOptions::builder().pipeline_depth(3).build();
        assert_eq!(o.pipeline_depth, 3);
    }

    #[test]
    fn with_warps_overrides_only_warps() {
        let o = CompileOptions::with_warps(12);
        assert_eq!(o.warps, 12);
        assert_eq!(o.target_ctas_per_sm, CompileOptions::default().target_ctas_per_sm);
    }

    #[test]
    fn builder_overrides_compose() {
        let o = CompileOptions::builder()
            .warps(16)
            .point_iters(2)
            .placement(Placement::Buffer(96))
            .w_locality(1.0)
            .verify(VerifyLevel::Strict)
            .build();
        assert_eq!(o.warps, 16);
        assert_eq!(o.point_iters, 2);
        assert_eq!(o.placement, Placement::Buffer(96));
        assert_eq!(o.w_locality, 1.0);
        assert_eq!(o.verify, VerifyLevel::Strict);
        // Untouched knobs keep their defaults.
        let d = CompileOptions::default();
        assert_eq!(o.uniform_shared_reads, d.uniform_shared_reads);
        assert_eq!(o.w_flops, d.w_flops);
    }
}
