//! Rule: charge-sites — digest and MAC time is charged where it is
//! modelled: `messages.rs` (`PacketKeys`) and, for state digests,
//! `checkpoint.rs`. Any other protocol module that charges or prices a
//! digest or MAC writes out a second copy of the cost rule.

use crate::lexer::Token;
use crate::{Finding, RULE_CHARGE};

/// Token triples that charge or price digest and MAC time.
const CHARGES: &[[&str; 3]] = &[
    ["CostKind", "::", "Digest"],
    ["CostKind", "::", "Mac"],
    ["cost", ".", "digest"],
    ["cost", ".", "digest_fixed_ns"],
    ["cost", ".", "mac"],
    ["cost", ".", "authenticator"],
    ["cost", ".", "partitioned_digest"],
];

pub(crate) fn run(
    file: &str,
    toks: &[Token],
    snippet: &dyn Fn(u32) -> String,
    findings: &mut Vec<Finding>,
) {
    for w in toks.windows(3) {
        if CHARGES.iter().any(|c| (0..3).all(|i| w[i].text == c[i])) {
            findings.push(Finding {
                file: file.to_string(),
                line: w[0].line,
                rule: RULE_CHARGE,
                message: format!(
                    "`{}{}{}` outside `messages.rs` / `checkpoint.rs`; call the function \
                     that hashes or MACs, which charges it",
                    w[0].text, w[1].text, w[2].text
                ),
                snippet: snippet(w[0].line),
            });
        }
    }
}
