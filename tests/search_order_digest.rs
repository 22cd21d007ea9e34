//! Golden enumeration-order digests for the schedule search's candidate
//! lists, in the style of `lowering_digest.rs`.
//!
//! Every tuner breaks ties first-best-wins, so the order candidates are
//! enumerated in is part of the result. The values were recorded at commit
//! 0d96aa3 (PR 13); a change that moves one moves a winner somewhere.

use gpu_sim::arch::GpuArch;
use singe::config::{CompileOptions, Placement};
use singe::search::{depth_menu, grid_options, SearchSpace};
use singe_serve::wire::fnv1a;

/// FNV-1a over the candidates' dedup keys, one per line, in order.
fn digest(candidates: &[CompileOptions]) -> u64 {
    let keys: Vec<String> = candidates.iter().map(SearchSpace::key).collect();
    fnv1a(keys.join("\n").as_bytes())
}

#[test]
fn seed_and_grid_enumeration_order_is_pinned() {
    let golden = [
        (GpuArch::fermi_c2070(), 0xf0f3_3bdb_c5f1_31cf_u64, 0x2d20_46d3_2596_6151_u64),
        (GpuArch::kepler_k20c(), 0xf0f3_3bdb_c5f1_31cf, 0x2d20_46d3_2596_6151),
        (GpuArch::hopper(), 0x9a8a_8eb7_d734_3759, 0x32c5_6dba_3b0e_66cb),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (arch, seeds, grid) in &golden {
        got.push(digest(&SearchSpace::for_arch(arch).seeds(&CompileOptions::default())));
        // The committed-grid baseline of `report search`: the extended
        // grid followed by the pipelined one.
        let mut cands = grid_options(Placement::Store, &[1, 2, 4], &[1]);
        cands.extend(grid_options(Placement::Store, &[1, 4], depth_menu(arch)));
        got.push(digest(&cands));
        want.extend([*seeds, *grid]);
    }
    assert_eq!(got, want, "enumeration order moved; digests now {got:#018x?}");
}
