//! Typed identifiers for the request surface.
//!
//! Everything a [`crate::CompileRequest`] names used to be a bare string
//! somewhere in the bench harness: kernel kinds, mechanism names,
//! architecture names. Each now has a newtype with `FromStr` + `Display`,
//! and an unknown name parses into a typed error that *lists the valid
//! ids* — a CLI typo produces an actionable message instead of a panic or
//! a silently skipped sweep row.

use std::fmt;
use std::str::FromStr;

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use singe::kernels::{chemistry, diffusion, viscosity};

/// A name failed to parse as an id. Carries the id family, the rejected
/// input, and every valid spelling, so `Display` is self-explanatory at
/// the CLI boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct UnknownIdError {
    /// Which id family was being parsed ("kernel", "arch", "mechanism").
    pub family: &'static str,
    /// The rejected input.
    pub requested: String,
    /// Valid spellings (for registry-backed families: the registered ids
    /// at the time of the lookup).
    pub valid: Vec<String>,
}

impl UnknownIdError {
    pub(crate) fn new(family: &'static str, requested: &str, valid: &[&str]) -> UnknownIdError {
        UnknownIdError {
            family,
            requested: requested.to_string(),
            valid: valid.iter().map(|s| s.to_string()).collect(),
        }
    }
}

impl fmt::Display for UnknownIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} id '{}' (valid: {})",
            self.family,
            self.requested,
            if self.valid.is_empty() { "<none registered>".into() } else { self.valid.join(", ") }
        )
    }
}

impl std::error::Error for UnknownIdError {}

/// Which of the paper's kernels to compile — the typed replacement for the
/// stringly `"viscosity" | "diffusion" | "chemistry"` selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// §3.2 viscosity.
    Viscosity,
    /// §3.3 diffusion.
    Diffusion,
    /// §3.4 chemistry.
    Chemistry,
}

impl KernelId {
    /// Every kernel id, in display order.
    pub const ALL: [KernelId; 3] = [KernelId::Viscosity, KernelId::Diffusion, KernelId::Chemistry];

    /// Stable display name (report tables, JSON, artifact metadata).
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Viscosity => "viscosity",
            KernelId::Diffusion => "diffusion",
            KernelId::Chemistry => "chemistry",
        }
    }

    /// This kernel's dataflow graph for `mech`, partitioned across `warps`
    /// warps: the compiler's input, and the tuner's.
    pub fn dfg(self, mech: &Mechanism, warps: usize) -> singe::Dfg {
        match self {
            KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), warps),
            KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), warps),
            KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), warps),
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelId {
    type Err = UnknownIdError;

    fn from_str(s: &str) -> Result<KernelId, UnknownIdError> {
        KernelId::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| UnknownIdError::new("kernel", s, &["viscosity", "diffusion", "chemistry"]))
    }
}

/// A simulated architecture by name. The session API keys artifacts by the
/// arch's display name; this enum is the CLI-facing spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchId {
    /// Fermi-class (Tesla C2070).
    Fermi,
    /// Kepler-class (Tesla K20c).
    Kepler,
    /// Hopper-class (H100): async copy, a 64-entry named-barrier file,
    /// and the K-stage pipeline schedules that exploit both.
    Hopper,
}

impl ArchId {
    /// Every arch id, in display order.
    pub const ALL: [ArchId; 3] = [ArchId::Fermi, ArchId::Kepler, ArchId::Hopper];

    /// Short name used in CLIs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ArchId::Fermi => "fermi",
            ArchId::Kepler => "kepler",
            ArchId::Hopper => "hopper",
        }
    }

    /// The full simulated architecture description.
    pub fn arch(self) -> GpuArch {
        match self {
            ArchId::Fermi => GpuArch::fermi_c2070(),
            ArchId::Kepler => GpuArch::kepler_k20c(),
            ArchId::Hopper => GpuArch::hopper(),
        }
    }
}

impl fmt::Display for ArchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ArchId {
    type Err = UnknownIdError;

    fn from_str(s: &str) -> Result<ArchId, UnknownIdError> {
        ArchId::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| UnknownIdError::new("arch", s, &["fermi", "kepler", "hopper"]))
    }
}

/// A registered mechanism's name: lowercase alphanumerics plus `-_.`,
/// non-empty, at most 64 bytes (it becomes part of artifact-file metadata
/// and log lines). Parsing validates the *syntax* only; whether the id is
/// registered is a session-level question answered by
/// [`crate::ServeError::UnknownMechanism`], which lists the registered
/// ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MechanismId(String);

impl MechanismId {
    /// The id as a string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MechanismId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for MechanismId {
    type Err = UnknownIdError;

    fn from_str(s: &str) -> Result<MechanismId, UnknownIdError> {
        let ok = !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_.".contains(c));
        if ok {
            Ok(MechanismId(s.to_string()))
        } else {
            Err(UnknownIdError::new(
                "mechanism",
                s,
                &["<non-empty, <=64 bytes of [a-z0-9-_.]>"],
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ids_roundtrip() {
        for k in KernelId::ALL {
            assert_eq!(k.name().parse::<KernelId>().unwrap(), k);
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn unknown_kernel_lists_valid_ids() {
        let e = "viscoity".parse::<KernelId>().unwrap_err();
        assert_eq!(e.family, "kernel");
        let msg = e.to_string();
        assert!(msg.contains("viscoity"), "{msg}");
        for valid in ["viscosity", "diffusion", "chemistry"] {
            assert!(msg.contains(valid), "{msg}");
        }
    }

    #[test]
    fn arch_ids_roundtrip_and_resolve() {
        for a in ArchId::ALL {
            assert_eq!(a.name().parse::<ArchId>().unwrap(), a);
        }
        assert_eq!(ArchId::Kepler.arch().name, GpuArch::kepler_k20c().name);
        assert!("maxwell".parse::<ArchId>().unwrap_err().to_string().contains("kepler"));
    }

    #[test]
    fn mechanism_id_syntax() {
        assert!("dme".parse::<MechanismId>().is_ok());
        assert!("synth-8.2".parse::<MechanismId>().is_ok());
        assert!("".parse::<MechanismId>().is_err());
        assert!("DME".parse::<MechanismId>().is_err());
        assert!("a b".parse::<MechanismId>().is_err());
        let long = "x".repeat(65);
        assert!(long.parse::<MechanismId>().is_err());
    }
}
