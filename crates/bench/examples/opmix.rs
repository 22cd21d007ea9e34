//! Ad-hoc probe: per-op engine cost on synthetic single-op kernels plus
//! the end-to-end bench kernel. Not part of the committed bench suite.

use chemkin::state::{GridDims, GridState};
use gpu_sim::arch::GpuArch;
use gpu_sim::flatten_cached;
use gpu_sim::interp::run_cta;
use gpu_sim::isa::*;
use singe::kernels::launch_arrays;
use singe_bench::{build, Kind, Variant};
use std::time::Instant;

const N_OPS: usize = 4000;

fn base_kernel(name: &str) -> Kernel {
    Kernel {
        name: name.into(),
        body: vec![],
        warps_per_cta: 1,
        points_per_cta: 32,
        dregs_per_thread: 8,
        iregs_per_thread: 4,
        shared_words: 64,
        local_words_per_thread: 2,
        const_banks: vec![(0..64).map(|i| i as f64 * 0.5).collect()],
        iconst_banks: vec![],
        barriers_used: 1,
        global_arrays: vec![
            ArrayDecl { name: "in".into(), rows: 2, output: false },
            ArrayDecl { name: "out".into(), rows: 1, output: true },
        ],
        spilled_bytes_per_thread: 0,
        exp_const_from_registers: false,
    }
}

fn time_kernel(name: &str, body: Vec<Node>, input: &[f64]) -> f64 {
    let mut k = base_kernel(name);
    k.body = body;
    let prog = flatten_cached(&k);
    let arch = GpuArch::kepler_k20c();
    let inputs: Vec<&[f64]> = vec![input, &[]];
    for _ in 0..3 {
        run_cta(&k, &prog, &inputs, 32, 0, false, &arch).unwrap();
    }
    let n = 50;
    let t = Instant::now();
    for _ in 0..n {
        run_cta(&k, &prog, &inputs, 32, 0, false, &arch).unwrap();
    }
    t.elapsed().as_secs_f64() / n as f64
}

fn main() {
    let input: Vec<f64> = (0..64).map(|i| 0.001 + i as f64 * 0.01).collect();
    let ld = Node::Op(Instr::LdGlobal {
        dst: 0,
        addr: GAddr { array: GlobalId(0), row: IdxOp::Imm(0), point: PointRef::Lane },
        ldg: false,
    });
    let st = Node::Op(Instr::StGlobal {
        src: Op::Reg(1),
        addr: GAddr { array: GlobalId(1), row: IdxOp::Imm(0), point: PointRef::Lane },
    });

    let mk = |op: &dyn Fn(usize) -> Instr| -> Vec<Node> {
        let mut b = vec![ld.clone()];
        for i in 0..N_OPS {
            b.push(Node::Op(op(i)));
        }
        b.push(st.clone());
        b
    };

    let empty = time_kernel("empty", vec![ld.clone(), st.clone()], &input);
    // Every case is a serial chain through reg 1 (the stored register) so
    // dead-code elimination cannot remove any of the timed ops.
    let cases: Vec<(&str, Vec<Node>)> = vec![
        ("DAdd    ", mk(&|_| Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(0) })),
        ("DAddImm ", mk(&|_| Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Imm(1.25) })),
        ("DMul    ", mk(&|_| Instr::Bin { op: BinOp::Mul, dst: 1, a: Op::Reg(1), b: Op::Reg(0) })),
        ("MulAdd  ", mk(&|i| if i % 2 == 0 {
            Instr::Bin { op: BinOp::Mul, dst: 2, a: Op::Reg(1), b: Op::Reg(0) }
        } else {
            Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(2), b: Op::Reg(0) }
        })),
        ("DFma    ", mk(&|_| Instr::DFma { dst: 1, a: Op::Reg(1), b: Op::Reg(0), c: Op::Reg(2), const_c: false })),
        ("DExp    ", mk(&|_| Instr::Un { op: UnOp::Exp, dst: 1, a: Op::Reg(1) })),
        ("Shfl+Add", mk(&|i| if i % 2 == 0 {
            Instr::Shfl { dst: 2, src: 0, lane: (i % 32) as u8 }
        } else {
            Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(2) }
        })),
        ("LdSh+Add", mk(&|i| if i % 2 == 0 {
            Instr::LdShared { dst: 2, addr: SAddr::lane(0) }
        } else {
            Instr::Bin { op: BinOp::Add, dst: 1, a: Op::Reg(1), b: Op::Reg(2) }
        })),
    ];
    println!("empty kernel: {:.1} us", empty * 1e6);
    for (name, body) in cases {
        let t = time_kernel(name, body, &input);
        println!("{name}: {:7.2} ns/op", (t - empty) / N_OPS as f64 * 1e9);
    }

    // End-to-end bench kernel.
    let mech = chemkin::synth::dme();
    let arch = GpuArch::kepler_k20c();
    let built = build(Kind::Viscosity, &mech, &arch, Variant::WarpSpecialized);
    let prog = flatten_cached(&built.kernel);
    let points = built.kernel.points_per_cta;
    let grid = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, built.n_species, 1234);
    let arrays = launch_arrays(&built.kernel.global_arrays, &grid).expect("arrays");
    for _ in 0..3 {
        run_cta(&built.kernel, &prog, &arrays, points, 0, false, &arch).unwrap();
    }
    let mut best = f64::INFINITY;
    for _ in 0..30 {
        let t = Instant::now();
        run_cta(&built.kernel, &prog, &arrays, points, 0, false, &arch).unwrap();
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("engine CTA (min of 30): {:.3} ms", best * 1e3);
}
