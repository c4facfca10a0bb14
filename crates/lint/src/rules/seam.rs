//! Rule: seam-flags — a carved feature's `Config` fields are read by its
//! module.
//!
//! Read leases live in `lease.rs`, admission control in `admission.rs`
//! and the view change in `viewchange.rs`; each module's constructor
//! reads its own `Config` fields and the replica drives the state it
//! returns. A replica that names such a field again has started to grow
//! the feature back into itself.

use crate::lexer::{Kind, Token};
use crate::{Finding, RULE_SEAM};

/// The `Config` fields whose features have their own module.
const SEAM_FLAGS: &[(&str, &str)] = &[
    ("read_leases", "lease.rs"),
    ("admission_control", "admission.rs"),
    ("view_change_timeout_ns", "viewchange.rs"),
    ("view_change_timeout_max_ns", "viewchange.rs"),
];

pub(crate) fn run(
    file: &str,
    toks: &[Token],
    snippet: &dyn Fn(u32) -> String,
    findings: &mut Vec<Finding>,
) {
    for tok in toks.iter().filter(|t| t.kind == Kind::Ident) {
        if let Some((flag, module)) = SEAM_FLAGS.iter().find(|(flag, _)| tok.text == *flag) {
            findings.push(Finding {
                file: file.to_string(),
                line: tok.line,
                rule: RULE_SEAM,
                message: format!(
                    "`{flag}` named in the replica; `{module}` reads its own `Config` \
                     fields and the replica drives the state it returns"
                ),
                snippet: snippet(tok.line),
            });
        }
    }
}
