//! Rule implementations, one module per rule.
//!
//! Token rules (phase 1, per file): [`determinism`], [`quorum`],
//! [`catchall`], [`decode`], [`seam`], [`charge`]. They see one file's
//! `#[cfg(test)]`-stripped token stream and report purely lexical
//! violations.
//!
//! Model rules (phase 2, cross-file): [`handler`], [`timer`], [`span`],
//! [`invariant`], [`counter`], [`layering`]. They run over the
//! assembled [`crate::model::WorkspaceModel`] and check properties no
//! single file can witness: dispatch coverage, timer and span pairing,
//! invariant/counter coverage, and the core↔sim layering boundary.

pub mod catchall;
pub mod charge;
pub mod counter;
pub mod decode;
pub mod determinism;
pub mod handler;
pub mod invariant;
pub mod layering;
pub mod quorum;
pub mod seam;
pub mod span;
pub mod timer;

/// The enum whose dispatch must be exhaustive (catch-all rule) and
/// whose variants need handlers (handler-coverage rule).
pub(crate) const DISPATCH_ENUM: &str = "Msg";
