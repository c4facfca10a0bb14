//! Rule: seam-flags — a carved feature's flag is read by its module.
//!
//! Read leases live in `lease.rs` and admission control in
//! `admission.rs`; each module's `armed` constructor reads its own
//! `Config` flag and the replica holds `Option<Module>`. A replica that
//! names a flag again has started to grow the feature back into itself.

use crate::lexer::{Kind, Token};
use crate::{Finding, RULE_SEAM};

/// The flags whose features have their own module.
const SEAM_FLAGS: &[(&str, &str)] = &[
    ("read_leases", "lease.rs"),
    ("admission_control", "admission.rs"),
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
                    "`{flag}` named in the replica; `{module}` reads its own flag and the \
                     replica holds `Option` of its state"
                ),
                snippet: snippet(tok.line),
            });
        }
    }
}
