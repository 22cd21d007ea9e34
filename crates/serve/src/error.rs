//! The service error surface.
//!
//! [`ServeError`] is `#[non_exhaustive]` and `Clone` — clonability is
//! load-bearing: in-flight dedup hands the *same* compile result (success
//! or failure) to every joined waiter, so errors must be shareable. The
//! `Display` + `Error::source` chain follows the
//! `CompileError::Verification` pattern: a compile failure's source is the
//! full structured [`singe::CompileError`], whose own source is the
//! verifier's violation list.

use std::fmt;
use std::time::Duration;

use crate::ids::UnknownIdError;
use singe::{CompileError, Variant};

/// Errors the serve layer can return.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// failure classes (e.g. future remote-backend errors) can be added
/// without a breaking change.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying compiler rejected the request. Source-chains to the
    /// structured [`CompileError`] (and through it to any
    /// [`singe::VerifyFailure`]).
    Compile(CompileError),
    /// The request named a mechanism the session's registry does not
    /// know. Lists the registered ids, like the typed id-parse errors.
    UnknownMechanism {
        /// The id that failed to resolve.
        requested: String,
        /// Every registered mechanism id at lookup time.
        known: Vec<String>,
    },
    /// A mechanism id is already registered with different content.
    MechanismConflict {
        /// The contested id.
        id: String,
    },
    /// An id failed syntactic validation (see [`UnknownIdError`]).
    InvalidId(UnknownIdError),
    /// Filesystem trouble while opening the session or persisting an
    /// artifact. (A *corrupt or stale artifact* is never an error — the
    /// cache falls back to recompiling; this variant is for the session
    /// root being unusable.)
    Io {
        /// Path involved.
        path: String,
        /// Stringified `std::io::Error` (kept as text so the variant
        /// stays `Clone`).
        message: String,
    },
    /// The scheduler's bounded queue is beyond its high-water mark. The
    /// client should retry no sooner than `retry_after` — an estimate
    /// from the current backlog and recent per-job service time.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after: Duration,
        /// Jobs queued when the submission was rejected.
        queued: usize,
        /// The queue's capacity (the session's `queue_depth`).
        capacity: usize,
    },
    /// The session is shutting down; no further jobs are accepted.
    ShuttingDown,
    /// A tune request named a variant the tuner does not search: it
    /// tunes warp-specialized schedules only.
    Untunable(Variant),
    /// A probe launch failed in the simulator (message from
    /// [`gpu_sim::SimError`]).
    Launch(String),
    /// An invariant broke inside the service (e.g. a scheduled job
    /// panicked). Never expected in normal operation.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Compile(e) => write!(f, "compile failed: {e}"),
            ServeError::UnknownMechanism { requested, known } => write!(
                f,
                "unknown mechanism id '{requested}' (registered: {})",
                if known.is_empty() { "<none>".into() } else { known.join(", ") }
            ),
            ServeError::MechanismConflict { id } => {
                write!(f, "mechanism id '{id}' already registered with different content")
            }
            ServeError::InvalidId(e) => write!(f, "invalid id: {e}"),
            ServeError::Io { path, message } => write!(f, "io error at {path}: {message}"),
            ServeError::Overloaded { retry_after, queued, capacity } => write!(
                f,
                "server overloaded ({queued}/{capacity} jobs queued); retry after {:?}",
                retry_after
            ),
            ServeError::ShuttingDown => write!(f, "session is shutting down"),
            ServeError::Untunable(v) => {
                write!(f, "only warp-specialized schedules are tuned, not {}", v.name())
            }
            ServeError::Launch(m) => write!(f, "probe launch failed: {m}"),
            ServeError::Internal(m) => write!(f, "internal service error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Compile(e) => Some(e),
            ServeError::InvalidId(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> ServeError {
        ServeError::Compile(e)
    }
}

impl From<UnknownIdError> for ServeError {
    fn from(e: UnknownIdError) -> ServeError {
        ServeError::InvalidId(e)
    }
}

/// Result alias for the serve layer.
pub type ServeResult<T> = Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn compile_errors_source_chain() {
        let e = ServeError::Compile(CompileError::Internal("boom".into()));
        assert!(e.to_string().contains("boom"));
        let src = e.source().expect("compile errors chain to CompileError");
        assert!(src.to_string().contains("boom"));
    }

    #[test]
    fn unknown_mechanism_lists_known_ids() {
        let e = ServeError::UnknownMechanism {
            requested: "dm".into(),
            known: vec!["dme".into(), "heptane".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("'dm'") && msg.contains("dme") && msg.contains("heptane"), "{msg}");
    }

    #[test]
    fn overloaded_reports_backoff() {
        let e = ServeError::Overloaded {
            retry_after: Duration::from_millis(15),
            queued: 64,
            capacity: 64,
        };
        let msg = e.to_string();
        assert!(msg.contains("64/64") && msg.contains("retry"), "{msg}");
    }
}
