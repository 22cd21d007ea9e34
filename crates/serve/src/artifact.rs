//! Persistent, content-addressed artifact cache.
//!
//! An **artifact** is everything the service needs to answer a
//! [`crate::CompileRequest`] without re-running the compiler: the compiled
//! [`Kernel`] (exact, f64s by bit pattern), the compile statistics, the
//! verifier's verdict, and human-readable metadata about how it was built.
//!
//! What is deliberately *not* stored: the lowered `EngineProgram`. Engine
//! lowering is deterministic from the `Kernel`, memoized process-wide by
//! `gpu_sim::flatcache`, and microseconds of work next to the
//! milliseconds of codegen + verification — while its semantics change
//! every time the lowering optimizer learns a trick. Persisting only the
//! ISA and folding [`gpu_sim::LOWERING_VERSION`] into both the artifact
//! key and the container header makes a stale lowering *unrepresentable*
//! rather than merely unlikely. [`singe::CODEGEN_VERSION`] rides beside it
//! for the same reason one stage earlier: the stored kernel is what the
//! code generator emitted, so a cache directory must not outlive the code
//! generator that filled it.
//!
//! ## Key anatomy
//!
//! [`ArtifactKey`] is two independent 64-bit hashes (the same
//! double-stream trick as `flatcache::fingerprint`) over the full request
//! identity:
//!
//! ```text
//! (mechanism content fingerprint, kernel id, variant, arch name,
//!  dfg warp count, CompileOptions debug form,
//!  WIRE_FORMAT_VERSION, LOWERING_VERSION, CODEGEN_VERSION)
//! ```
//!
//! The key is derived from the *request*, never the compiled output, so a
//! warm lookup costs a hash and a file read. Note `CompileOptions` enters
//! via its `Debug` form — the same choice the bench memo made, so any new
//! option field automatically changes the key.
//!
//! ## Corruption policy
//!
//! A cache entry that is truncated, bit-flipped, from an older format, or
//! from a different lowering or code-generator version is a **miss**:
//! [`Store::load`] returns `None` and the caller recompiles. (An entry
//! written under other versions also has another key, so in practice it
//! is never looked at; the header check covers a file put under the wrong
//! name.) The only errors this module
//! surfaces are session-root problems (cannot create the directory).

use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gpu_sim::isa::codec::{decode_kernel, encode_kernel};
use gpu_sim::isa::Kernel;
use singe::codegen::CompileStats;

use crate::wire::{self, Sink, WireError, R, W};

/// Bump when the byte layout of anything in this file, `wire.rs` or
/// `gpu_sim::isa::codec` changes. Old files become misses, never decode
/// errors.
pub const WIRE_FORMAT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"SNGEART1";

/// Content address of an artifact: two independent 64-bit request hashes.
/// Collisions need both independent streams to collide simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    k1: u64,
    k2: u64,
}

impl ArtifactKey {
    /// Derive the key from the request identity. `mech_fingerprint` is the
    /// session registry's content hash of the mechanism (so two ids bound
    /// to identical chemistry share artifacts, and re-registering changed
    /// chemistry under the same id can never alias).
    pub fn derive(
        mech_fingerprint: u64,
        kernel: &str,
        variant: &str,
        arch: &str,
        dfg_warps: usize,
        options_debug: &str,
    ) -> ArtifactKey {
        Self::derive_versioned(
            mech_fingerprint,
            kernel,
            variant,
            arch,
            dfg_warps,
            options_debug,
            singe::CODEGEN_VERSION,
        )
    }

    /// [`ArtifactKey::derive`] as a binary whose code generator is at
    /// `codegen_version` derives it: what a cache directory filled by an
    /// older (or newer) compiler holds its entries under.
    pub fn derive_versioned(
        mech_fingerprint: u64,
        kernel: &str,
        variant: &str,
        arch: &str,
        dfg_warps: usize,
        options_debug: &str,
        codegen_version: u32,
    ) -> ArtifactKey {
        let feed = |salt: u8| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            h.write_u8(salt);
            h.write_u32(WIRE_FORMAT_VERSION);
            h.write_u32(gpu_sim::LOWERING_VERSION);
            h.write_u32(codegen_version);
            h.write_u64(mech_fingerprint);
            kernel.hash(&mut h);
            variant.hash(&mut h);
            arch.hash(&mut h);
            h.write_u64(dfg_warps as u64);
            options_debug.hash(&mut h);
            h.finish()
        };
        ArtifactKey { k1: feed(0x5e), k2: feed(0xc4) }
    }

    /// The content-addressed file name under the cache root.
    pub fn file_name(&self) -> String {
        format!("{:016x}{:016x}.art", self.k1, self.k2)
    }
}

/// The verifier's verdict, persisted so a warm load can report the same
/// protocol statistics the cold compile did without re-running the
/// dynamic verifier.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct VerifyVerdict {
    /// Whether the kernel was verified at compile time (false when the
    /// request disabled verification — the verdict then carries zeros).
    pub verified: bool,
    /// Warps analyzed.
    pub warps: usize,
    /// Dynamic barrier operations executed during verification.
    pub barrier_ops: usize,
    /// Dynamic shared-memory accesses checked for races.
    pub shared_accesses: usize,
    /// Distinct barrier ids observed.
    pub barrier_ids: usize,
    /// Barrier generations completed.
    pub generations: u64,
}

/// How an artifact came to be — for humans (cache inspection), not for
/// cache identity, which lives in [`ArtifactKey`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ArtifactMeta {
    /// Mechanism id the artifact was compiled for.
    pub mechanism: String,
    /// Kernel id ("viscosity" / "diffusion" / "chemistry").
    pub kernel: String,
    /// Compiler variant name ("ws" / "baseline" / "naive").
    pub variant: String,
    /// Architecture name.
    pub arch: String,
    /// Warp count the dfg was built at.
    pub dfg_warps: usize,
    /// `CompileOptions` debug form at compile time.
    pub options: String,
    /// Wall-clock nanoseconds the cold compile took.
    pub compile_nanos: u64,
    /// Lowering version the artifact was produced under.
    pub lowering_version: u32,
}

/// A cached compile result.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The compiled kernel, bit-exact.
    pub kernel: Kernel,
    /// Warp-specialization statistics (`None` for baseline builds, which
    /// deliberately don't carry them — see the bench harness).
    pub stats: Option<CompileStats>,
    /// Verifier verdict at compile time.
    pub verdict: VerifyVerdict,
    /// Provenance.
    pub meta: ArtifactMeta,
}

fn enc_verdict(w: &mut W, v: &VerifyVerdict) {
    w.bool(v.verified);
    w.usize(v.warps);
    w.usize(v.barrier_ops);
    w.usize(v.shared_accesses);
    w.usize(v.barrier_ids);
    w.u64(v.generations);
}

fn dec_verdict(r: &mut R) -> Result<VerifyVerdict, WireError> {
    Ok(VerifyVerdict {
        verified: r.bool()?,
        warps: r.usize()?,
        barrier_ops: r.usize()?,
        shared_accesses: r.usize()?,
        barrier_ids: r.usize()?,
        generations: r.u64()?,
    })
}

fn enc_meta(w: &mut W, m: &ArtifactMeta) {
    w.str(&m.mechanism);
    w.str(&m.kernel);
    w.str(&m.variant);
    w.str(&m.arch);
    w.usize(m.dfg_warps);
    w.str(&m.options);
    w.u64(m.compile_nanos);
    w.u32(m.lowering_version);
}

fn dec_meta(r: &mut R) -> Result<ArtifactMeta, WireError> {
    Ok(ArtifactMeta {
        mechanism: r.str()?,
        kernel: r.str()?,
        variant: r.str()?,
        arch: r.str()?,
        dfg_warps: r.usize()?,
        options: r.str()?,
        compile_nanos: r.u64()?,
        lowering_version: r.u32()?,
    })
}

/// Serialize an artifact into its on-disk container bytes.
pub fn encode(a: &Artifact) -> Vec<u8> {
    let mut payload = W::new();
    encode_kernel(&a.kernel, &mut payload);
    match &a.stats {
        None => payload.u8(0),
        Some(s) => {
            payload.u8(1);
            wire::enc_stats(&mut payload, s);
        }
    }
    enc_verdict(&mut payload, &a.verdict);
    enc_meta(&mut payload, &a.meta);

    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&WIRE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&gpu_sim::LOWERING_VERSION.to_le_bytes());
    out.extend_from_slice(&singe::CODEGEN_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&wire::fnv1a(&payload).to_le_bytes());
    out
}

/// Decode container bytes back into an [`Artifact`]. Any defect — bad
/// magic, version skew, truncation, checksum mismatch, trailing garbage —
/// is a [`WireError`].
pub fn decode(bytes: &[u8]) -> Result<Artifact, WireError> {
    let mut r = R::new(bytes);
    let mut magic = [0u8; 8];
    for m in &mut magic {
        *m = r.u8()?;
    }
    if &magic != MAGIC {
        return Err(WireError("bad magic"));
    }
    if r.u32()? != WIRE_FORMAT_VERSION {
        return Err(WireError("wire format version skew"));
    }
    if r.u32()? != gpu_sim::LOWERING_VERSION {
        return Err(WireError("lowering version skew"));
    }
    if r.u32()? != singe::CODEGEN_VERSION {
        return Err(WireError("code generator version skew"));
    }
    let payload_len = r.usize()?;
    // Re-slice so the checksum covers exactly the payload.
    let header: usize = 8 + 4 + 4 + 4 + 8;
    let payload_end =
        header.checked_add(payload_len).ok_or(WireError("length overflow"))?;
    if payload_end + 8 != bytes.len() {
        return Err(WireError("container length mismatch"));
    }
    let payload = &bytes[header..payload_end];
    let stored = u64::from_le_bytes(bytes[payload_end..].try_into().unwrap());
    if wire::fnv1a(payload) != stored {
        return Err(WireError("checksum mismatch"));
    }
    let mut r = R::new(payload);
    let kernel = decode_kernel(&mut r)?;
    let stats = match r.u8()? {
        0 => None,
        1 => Some(wire::dec_stats(&mut r)?),
        _ => return Err(WireError("bad stats tag")),
    };
    let verdict = dec_verdict(&mut r)?;
    let meta = dec_meta(&mut r)?;
    if !r.exhausted() {
        return Err(WireError("trailing bytes"));
    }
    Ok(Artifact { kernel, stats, verdict, meta })
}

/// The on-disk store: a flat directory of `<32 hex>.art` files.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: &Path) -> std::io::Result<Store> {
        fs::create_dir_all(root)?;
        Ok(Store { root: root.to_path_buf() })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join(key.file_name())
    }

    /// Load the artifact for `key`, or `None` on any miss — absent file,
    /// unreadable file, or a file that fails to decode (stale format,
    /// corruption). `was_corrupt` is set when a file *existed* but did not
    /// decode, so the session can count corruption-triggered recompiles
    /// separately from plain cold misses.
    pub fn load(&self, key: &ArtifactKey, was_corrupt: &mut bool) -> Option<Artifact> {
        *was_corrupt = false;
        let bytes = fs::read(self.path_for(key)).ok()?;
        match decode(&bytes) {
            Ok(a) => Some(a),
            Err(_) => {
                *was_corrupt = true;
                // Best-effort removal so the next miss is a clean one.
                let _ = fs::remove_file(self.path_for(key));
                None
            }
        }
    }

    /// Persist `artifact` under `key`: write to a sibling temp file, then
    /// rename into place, so concurrent readers only ever observe complete
    /// containers. Failure is reported but callers treat it as advisory —
    /// a compile that cannot be cached is still a successful compile.
    pub fn save(&self, key: &ArtifactKey, artifact: &Artifact) -> std::io::Result<()> {
        let bytes = encode(artifact);
        let final_path = self.path_for(key);
        let tmp_path = self.root.join(format!(
            ".{}.tmp.{}",
            key.file_name(),
            std::process::id()
        ));
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        match fs::rename(&tmp_path, &final_path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp_path);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::{Instr, Node, Op};

    fn tiny_artifact() -> Artifact {
        Artifact {
            kernel: Kernel {
                name: "t".into(),
                body: vec![Node::Op(Instr::mov(0, Op::Imm(2.5)))],
                warps_per_cta: 1,
                points_per_cta: 32,
                dregs_per_thread: 1,
                iregs_per_thread: 0,
                shared_words: 0,
                local_words_per_thread: 0,
                const_banks: vec![],
                iconst_banks: vec![],
                barriers_used: 0,
                global_arrays: vec![],
                spilled_bytes_per_thread: 0,
                exp_const_from_registers: false,
            },
            stats: None,
            verdict: VerifyVerdict { verified: true, warps: 1, ..Default::default() },
            meta: ArtifactMeta {
                mechanism: "dme".into(),
                kernel: "viscosity".into(),
                variant: "ws".into(),
                arch: "Tesla K20c".into(),
                dfg_warps: 1,
                options: "opts".into(),
                compile_nanos: 12345,
                lowering_version: gpu_sim::LOWERING_VERSION,
            },
        }
    }

    #[test]
    fn container_roundtrip() {
        let a = tiny_artifact();
        let bytes = encode(&a);
        let b = decode(&bytes).expect("decodes");
        assert_eq!(format!("{:?}", a.kernel), format!("{:?}", b.kernel));
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.meta, b.meta);
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_harmless() {
        let bytes = encode(&tiny_artifact());
        let mut undetected_payload_mutations = 0;
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x01;
            if decode(&m).is_ok() {
                undetected_payload_mutations += 1;
            }
        }
        // The FNV checksum catches payload flips; header flips fail magic
        // or version checks; checksum-byte flips mismatch the payload.
        assert_eq!(undetected_payload_mutations, 0);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&tiny_artifact());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "accepted truncation at {cut}");
        }
    }

    #[test]
    fn store_roundtrip_and_corruption_fallback() {
        let dir = std::env::temp_dir().join(format!("singe-serve-store-{}", std::process::id()));
        let store = Store::open(&dir).unwrap();
        let key = ArtifactKey::derive(1, "viscosity", "ws", "Tesla K20c", 7, "opts");
        let mut corrupt = false;
        assert!(store.load(&key, &mut corrupt).is_none());
        assert!(!corrupt);

        let a = tiny_artifact();
        store.save(&key, &a).unwrap();
        let b = store.load(&key, &mut corrupt).expect("warm hit");
        assert!(!corrupt);
        assert_eq!(format!("{:?}", a.kernel), format!("{:?}", b.kernel));

        // Truncate the file in place: next load is a miss flagged corrupt,
        // and the bad entry is removed.
        let path = dir.join(key.file_name());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load(&key, &mut corrupt).is_none());
        assert!(corrupt);
        assert!(!path.exists());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_depends_on_every_request_field() {
        let base = ArtifactKey::derive(1, "viscosity", "ws", "k20c", 7, "o");
        assert_ne!(base, ArtifactKey::derive(2, "viscosity", "ws", "k20c", 7, "o"));
        assert_ne!(base, ArtifactKey::derive(1, "diffusion", "ws", "k20c", 7, "o"));
        assert_ne!(base, ArtifactKey::derive(1, "viscosity", "baseline", "k20c", 7, "o"));
        assert_ne!(base, ArtifactKey::derive(1, "viscosity", "ws", "c2070", 7, "o"));
        assert_ne!(base, ArtifactKey::derive(1, "viscosity", "ws", "k20c", 8, "o"));
        assert_ne!(base, ArtifactKey::derive(1, "viscosity", "ws", "k20c", 7, "p"));
        assert_eq!(base, ArtifactKey::derive(1, "viscosity", "ws", "k20c", 7, "o"));
        // ... and on the code generator that would fill it.
        let at = |v| ArtifactKey::derive_versioned(1, "viscosity", "ws", "k20c", 7, "o", v);
        assert_eq!(base, at(singe::CODEGEN_VERSION));
        assert_ne!(base, at(singe::CODEGEN_VERSION - 1));
        assert_ne!(base, at(singe::CODEGEN_VERSION + 1));
    }

    #[test]
    fn a_container_of_another_code_generator_does_not_decode() {
        // Offset 16: 8-byte magic, wire-format version, lowering version.
        let mut bytes = encode(&tiny_artifact());
        assert_eq!(bytes[16..20], singe::CODEGEN_VERSION.to_le_bytes());
        bytes[16..20].copy_from_slice(&(singe::CODEGEN_VERSION + 1).to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err().0, "code generator version skew");
    }
}
