//! Binary wire format for on-disk compiled-kernel artifacts.
//!
//! The workspace is fully offline (no serde), so the format is hand-rolled
//! little-endian with explicit tags. The kernel IR's bytes — and the
//! [`W`]/[`R`] primitives everything here is written with — belong to
//! [`gpu_sim::isa::codec`], the one encoder/decoder of the ISA (the same
//! walk that `gpu_sim::flatcache::fingerprint` hashes); this module adds
//! the [`CompileStats`] codec and the container checksum. Design rules:
//!
//! * **Exactness**: `f64` travels as its bit pattern, so a decoded kernel
//!   is bit-identical to the encoded one — the durability tests pin warm
//!   (disk) and cold (fresh compile) kernels to byte-identical simulation
//!   outputs and [`gpu_sim::EventCounts`].
//! * **Corruption tolerance**: every read is bounds-checked and every tag
//!   validated; any mismatch yields a [`WireError`], which the artifact
//!   store treats as a cache miss (recompile), never a service error.
//!   A whole-payload FNV-1a checksum in the container header catches
//!   bit-flips that still decode cleanly.
//! * **Versioning**: the container header carries
//!   [`crate::artifact::WIRE_FORMAT_VERSION`],
//!   [`gpu_sim::LOWERING_VERSION`] and [`singe::CODEGEN_VERSION`]; any of
//!   them mismatching the running binary is a miss.

pub use gpu_sim::isa::codec::{DecodeError as WireError, Reader as R, Sink};
use singe::codegen::CompileStats;

type WResult<T> = Result<T, WireError>;

/// Little-endian byte writer: a plain buffer driven through [`Sink`].
pub type W = Vec<u8>;

/// FNV-1a 64-bit over a byte slice (the container checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Encode [`CompileStats`] (every field; the struct is plain-old-data).
pub fn enc_stats(w: &mut W, s: &CompileStats) {
    w.usize(s.sync_points);
    w.usize(s.merged_syncs);
    w.usize(s.barriers_used);
    w.usize(s.shared_slots);
    w.usize(s.const_regs_per_thread);
    w.usize(s.overlay_groups);
    w.usize(s.solo_groups);
    w.usize(s.spilled_vars);
    w.usize(s.const_array_len);
    w.f64(s.flop_imbalance);
    w.usize(s.pipeline_depth);
    w.usize(s.full_barriers);
}

/// Decode [`CompileStats`].
pub fn dec_stats(r: &mut R) -> WResult<CompileStats> {
    Ok(CompileStats {
        sync_points: r.usize()?,
        merged_syncs: r.usize()?,
        barriers_used: r.usize()?,
        shared_slots: r.usize()?,
        const_regs_per_thread: r.usize()?,
        overlay_groups: r.usize()?,
        solo_groups: r.usize()?,
        spilled_vars: r.usize()?,
        const_array_len: r.usize()?,
        flop_imbalance: r.f64()?,
        pipeline_depth: r.usize()?,
        full_barriers: r.usize()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::codec::{decode_kernel, encode_kernel};
    use gpu_sim::isa::*;

    fn sample_kernel() -> Kernel {
        Kernel {
            name: "wire-test".into(),
            body: vec![
                Node::Op(Instr::DFma {
                    dst: 0,
                    a: Op::Reg(1),
                    b: Op::Imm(-0.0),
                    c: Op::Imm(f64::NAN),
                    const_c: true,
                }),
                Node::WarpIf {
                    mask: 0b1010,
                    body: vec![Node::Op(Instr::StShared {
                        src: Op::Reg(2),
                        addr: SAddr::dyn_lane(1, 7),
                        lane_pred: Some(3),
                    })],
                },
                Node::WarpSwitch {
                    case_of_warp: vec![0, 1, 0, 1],
                    cases: vec![
                        vec![Node::Op(Instr::Idx(IdxInstr::LaneId { dst: 0 }))],
                        vec![Node::PointLoop {
                            iters: 4,
                            body: vec![Node::Op(Instr::LdGlobal {
                                dst: 3,
                                addr: GAddr {
                                    array: GlobalId(1),
                                    row: IdxOp::Reg(2),
                                    point: PointRef::Lane,
                                },
                                ldg: true,
                            })],
                        }],
                    ],
                },
                Node::Op(Instr::BarSync { bar: 2, warps: 4 }),
                // The pipelined-schedule instructions: stage barrier
                // pairs, the per-iteration ring offset, and async copy.
                Node::Op(Instr::Idx(IdxInstr::PipeOff { dst: 5, k: 3, stride: 2880 })),
                Node::Op(Instr::BarArriveStage { base: 4, k: 2, warps: 3 }),
                Node::Op(Instr::BarSyncStage { base: 6, k: 2, warps: 1 }),
                Node::Op(Instr::CpAsync {
                    addr: SAddr::dyn_lane(1, 7),
                    array: GlobalId(0),
                    row: IdxOp::Reg(2),
                    point: PointRef::Lane,
                }),
            ],
            warps_per_cta: 4,
            points_per_cta: 32,
            dregs_per_thread: 8,
            iregs_per_thread: 4,
            shared_words: 128,
            local_words_per_thread: 2,
            const_banks: vec![vec![1.5, f64::INFINITY, -0.0], vec![]],
            iconst_banks: vec![vec![7, 0, u32::MAX]],
            barriers_used: 8,
            global_arrays: vec![
                ArrayDecl { name: "in".into(), rows: 5, output: false },
                ArrayDecl { name: "out".into(), rows: 2, output: true },
            ],
            spilled_bytes_per_thread: 16,
            exp_const_from_registers: true,
        }
    }

    #[test]
    fn kernel_roundtrips_bit_exactly() {
        let k = sample_kernel();
        let mut bytes = W::new();
        encode_kernel(&k, &mut bytes);
        let mut r = R::new(&bytes);
        let k2 = decode_kernel(&mut r).expect("decodes");
        assert!(r.exhausted());
        // Debug formatting covers every field; NaN prints identically.
        assert_eq!(format!("{k:?}"), format!("{k2:?}"));
        // And the structural fingerprint (the cache identity) agrees,
        // proving f64 payloads survived by bit pattern.
        assert_eq!(
            gpu_sim::flatcache::fingerprint(&k),
            gpu_sim::flatcache::fingerprint(&k2)
        );
    }

    #[test]
    fn truncation_and_tag_corruption_fail_cleanly() {
        let k = sample_kernel();
        let mut bytes = W::new();
        encode_kernel(&k, &mut bytes);
        // Every prefix must fail to decode (or decode without consuming
        // all input — also treated as failure by callers).
        for cut in 0..bytes.len() {
            let mut r = R::new(&bytes[..cut]);
            if let Ok(_k) = decode_kernel(&mut r) {
                assert!(!r.exhausted() || cut == bytes.len(), "truncated decode at {cut}");
            }
        }
        // Flipping any single byte must never panic (it may still decode:
        // a flipped f64 bit is valid data — the container checksum exists
        // for that).
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0xff;
            let mut r = R::new(&m);
            let _ = decode_kernel(&mut r);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let s = CompileStats {
            sync_points: 9,
            merged_syncs: 2,
            barriers_used: 3,
            shared_slots: 44,
            const_regs_per_thread: 21,
            overlay_groups: 5,
            solo_groups: 1,
            spilled_vars: 0,
            const_array_len: 160,
            flop_imbalance: 1.25,
            pipeline_depth: 2,
            full_barriers: 0,
        };
        let mut bytes = W::new();
        enc_stats(&mut bytes, &s);
        let s2 = dec_stats(&mut R::new(&bytes)).unwrap();
        assert_eq!(format!("{s:?}"), format!("{s2:?}"));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
