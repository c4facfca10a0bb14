#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The benchmark harness behind the `suite` binary: one measuring system
//! for the whole evaluation.
//!
//! [`suite`] holds the `BENCH_*.json` document schema and the `--compare`
//! regression gate used by the `suite` binary and CI. [`paper`] is the
//! suite's `paper` family: every figure, §4.4 text claim and ablation of
//! the paper as gated rows, and the claims table that turns the paper's
//! shapes into a hard pass/fail over those rows.

pub mod paper;
pub mod suite;
