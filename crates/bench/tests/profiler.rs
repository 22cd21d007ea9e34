//! Golden tests for the per-warp cycle-attribution profiler as surfaced
//! through the bench harness: the breakdown is deterministic (bit-stable
//! across worker-pool widths), every warp's reasons sum exactly to the
//! CTA total, and the warp-specialized variant actually exhibits the
//! named-barrier waits the paper's protocol implies.

use chemkin::synth;
use gpu_sim::arch::GpuArch;
use singe::config::CompileOptions;
use singe_bench::{
    build_with_options, profile_built, profile_row, Kind, ProfileRow,
    Variant,
};

fn small_mech() -> chemkin::Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: "prof".into(),
        n_species: 8,
        n_reactions: 12,
        n_qssa: 2,
        n_stiff: 2,
        seed: 17,
    })
}

fn small_opts(kind: Kind, n_species: usize, arch: &GpuArch) -> CompileOptions {
    let mut opts = singe_bench::ws_options(kind, n_species, arch);
    opts.warps = opts.warps.min(4);
    opts
}

const VARIANTS: [Variant; 3] = [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive];

/// Every variant's profile satisfies the closed-set invariant: for every
/// warp, issue + barrier_wait + icache_miss + const_replay + overhead +
/// idle == total_cycles. Checked both through `check_attribution` and by
/// summing the public counters directly.
#[test]
fn every_attributed_cycle_sums_to_the_total() {
    let m = small_mech();
    let arch = GpuArch::kepler_k20c();
    for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
        let opts = small_opts(kind, m.n_transported(), &arch);
        for variant in VARIANTS {
            let built = build_with_options(kind, &m, &arch, variant, &opts)
                .unwrap_or_else(|e| panic!("{kind:?} {variant:?}: {e}"));
            let prof = profile_built(&built, &arch, false);
            prof.check_attribution()
                .unwrap_or_else(|e| panic!("{kind:?} {variant:?}: {e}"));
            assert!(prof.total_cycles > 0, "{kind:?} {variant:?}: empty profile");
            for (w, wc) in prof.warps.iter().enumerate() {
                let sum = wc.issue
                    + wc.barrier_wait.iter().sum::<u64>()
                    + wc.icache_miss
                    + wc.const_replay
                    + wc.overhead
                    + wc.idle;
                assert_eq!(
                    sum, prof.total_cycles,
                    "{kind:?} {variant:?} warp {w}: reasons do not sum to total"
                );
            }
        }
    }
}

/// Golden determinism: profiling the same kernel twice — including the
/// structured event stream — yields identical results, and running the
/// per-variant profiles on worker pools of width 1 and 8 produces
/// byte-identical serialized rows (the `report profile --jobs N`
/// guarantee).
#[test]
fn breakdown_is_bit_stable_across_runs_and_jobs() {
    let m = small_mech();
    let arch = GpuArch::kepler_k20c();
    let opts = small_opts(Kind::Diffusion, m.n_transported(), &arch);
    let built =
        build_with_options(Kind::Diffusion, &m, &arch, Variant::WarpSpecialized, &opts).unwrap();
    let first = profile_built(&built, &arch, true);
    let second = profile_built(&built, &arch, true);
    assert_eq!(first, second, "repeated profiled launches must match exactly");

    let rows_at = |jobs: usize| -> String {
        let rows: Vec<ProfileRow> = singe::pool::run_ordered(jobs, VARIANTS.len(), |i| {
            let variant = VARIANTS[i];
            let b = build_with_options(Kind::Diffusion, &m, &arch, variant, &opts).unwrap();
            let prof = profile_built(&b, &arch, false);
            profile_row(Kind::Diffusion, &m.name, &arch, variant, &prof)
        });
        rows.iter().map(|r| r.to_json().line()).collect()
    };
    assert_eq!(rows_at(1), rows_at(8), "profile rows must not depend on pool width");
}

/// The warp-specialized diffusion kernel runs the paper's named-barrier
/// protocol, so some warp must be attributed barrier-wait cycles — and
/// the baseline (no named barriers beyond none at all) must not be.
#[test]
fn warp_specialized_waits_on_named_barriers() {
    let m = small_mech();
    let arch = GpuArch::fermi_c2070();
    let opts = small_opts(Kind::Diffusion, m.n_transported(), &arch);
    let ws =
        build_with_options(Kind::Diffusion, &m, &arch, Variant::WarpSpecialized, &opts).unwrap();
    let r = profile_row(Kind::Diffusion, &m.name, &arch, Variant::WarpSpecialized,
        &profile_built(&ws, &arch, false));
    assert!(r.barrier_wait > 0, "warp-specialized diffusion should wait on barriers");
    assert!(r.attribution_ok);
    assert!(!r.barrier_wait_by_id.is_empty());
    assert_eq!(r.barrier_wait_by_id.iter().sum::<u64>(), r.barrier_wait);

    let base = build_with_options(Kind::Diffusion, &m, &arch, Variant::Baseline, &opts).unwrap();
    let rb = profile_row(Kind::Diffusion, &m.name, &arch, Variant::Baseline,
        &profile_built(&base, &arch, false));
    assert_eq!(rb.barrier_wait, 0, "data-parallel baseline uses no named barriers");
}

/// The structured event stream carries the warp phase spans and the
/// named-barrier arrive/sync edges the Chrome trace visualizes.
#[test]
fn event_stream_records_barrier_edges() {
    let m = small_mech();
    let arch = GpuArch::kepler_k20c();
    let opts = small_opts(Kind::Diffusion, m.n_transported(), &arch);
    let built =
        build_with_options(Kind::Diffusion, &m, &arch, Variant::WarpSpecialized, &opts).unwrap();
    let prof = profile_built(&built, &arch, true);
    assert!(!prof.events.is_empty());
    assert!(prof.events.iter().any(|e| e.name == "exec"));
    assert!(prof.events.iter().any(|e| e.name.starts_with("arrive b")));
    assert!(prof.events.iter().any(|e| e.name.starts_with("wait b")));
    // The export is valid, non-empty Chrome-trace JSON.
    let json = gpu_sim::chrome_trace_json(&[("diffusion/ws", &prof.events)]);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ph\":\"i\""));
}
