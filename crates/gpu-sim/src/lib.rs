//! `gpu-sim` — a simulated SIMT GPU substrate for the Singe reproduction.
//!
//! The paper evaluates Singe on NVIDIA Tesla C2070 (Fermi) and Tesla K20c
//! (Kepler) GPUs. This crate substitutes those with a two-part model:
//!
//! 1. a **functional interpreter** for a structured kernel IR: cooperative
//!    thread arrays of 32-lane warps executing in lock step, PTX-style
//!    named barriers (`bar.arrive` / `bar.sync`) with deadlock detection,
//!    shared memory with bank-conflict accounting, per-thread registers,
//!    constant banks, and local (spill) memory — producing bit-exact
//!    numerical results that are checked against CPU references;
//! 2. an **analytic timing model** parameterized by the paper's published
//!    hardware characteristics (SM counts and clocks, double-precision
//!    issue rates, the 8 KB constant cache, instruction-cache capacity,
//!    30-cycle shared-memory latency, DRAM and local-memory bandwidths,
//!    occupancy rules including named barriers as a conserved resource),
//!    fed by event counts gathered during interpretation.
//!
//! Every performance mechanism the paper's evaluation relies on — register
//! spilling, constant-cache overflow, instruction-cache thrashing under
//! divergent warp-specialized code, named-barrier straggler stalls, and
//! shared-memory latency at low occupancy — is modeled explicitly, so the
//! qualitative shapes of the paper's figures emerge from the same causes.

// Indexed `for i in 0..n` loops over parallel arrays are the prevailing
// idiom in the numeric kernels here; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod arch;
pub mod ccache;
pub mod counts;
pub(crate) mod cta;
pub(crate) mod engine;
pub mod error;
pub mod flatcache;
pub mod icache;
pub mod interp;
pub mod isa;
pub(crate) mod lanes;
pub mod launch;
pub mod model;
pub mod occupancy;
pub mod pool;
pub mod profile;
pub mod timing;
pub mod vmath;

pub use arch::GpuArch;
pub use counts::EventCounts;
pub use engine::{EngineStats, LoweringShape, LOWERING_VERSION, UOP_BYTES};
pub use flatcache::flatten_cached;
pub use error::{SimError, SimResult};
pub use isa::{
    ArrayDecl, BinOp, GAddr, GlobalId, IdxInstr, IdxOp, Instr, Kernel, Node, Op, PointRef, Reg,
    SAddr, UnOp,
};
pub use launch::{launch, launch_with_config, LaunchConfig, LaunchInputs, LaunchMode, LaunchOutput};
pub use model::{ModelProfile, OpMix, WarpGroup};
pub use occupancy::Occupancy;
pub use profile::{chrome_trace_json, CtaProfile, Profiler, TraceEvent, WarpCycles};
pub use timing::{SimReport, TimingBreakdown};

/// Number of lanes in a warp. All modeled architectures use 32.
pub const WARP_SIZE: usize = 32;
