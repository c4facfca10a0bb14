//! Rule: handler-coverage — every `Msg` variant is dispatched.
//!
//! The catch-all rule bans `_ =>` wildcards in `Msg` dispatch, so a
//! variant is handled iff the dispatch file names it; this rule closes
//! the remaining gap: a variant added to `messages.rs` must be named —
//! handled or explicitly rejected — in *both* dispatchers, including the
//! one whose author never thought about it.
//!
//! The wire maps need no policing: `Msg` is one `wire_enum!` table of
//! `Variant(Payload) = tag` rows, so `tag()`, encode and decode cannot
//! skew, a reused tag does not compile, and a `const` assertion ties
//! `Msg::TAG_COUNT` to `bft_sim::health::TAG_COUNT`. What the table
//! must stay is a literal `pub enum Msg { … }` the item model can see;
//! if it stops being one (file renamed, enum generated wholesale) the
//! rule says so instead of silently checking nothing.

use crate::model::WorkspaceModel;
use crate::rules::DISPATCH_ENUM;
use crate::{Finding, RULE_HANDLER};

/// The file declaring the `Msg` table.
const MESSAGES: &str = "crates/core/src/messages.rs";
/// The files that must dispatch every variant.
const DISPATCHERS: &[&str] = &["crates/core/src/replica.rs", "crates/core/src/client.rs"];

pub(crate) fn run(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    let dispatchers = || DISPATCHERS.iter().filter_map(|path| model.file(path));
    let msgs = model.file(MESSAGES);
    let Some((msgs, def)) = msgs.and_then(|m| Some((m, m.enum_def(DISPATCH_ENUM)?))) else {
        let why = match msgs {
            None => format!("{MESSAGES} is not in the model"),
            Some(_) => format!("{MESSAGES} declares no literal `enum {DISPATCH_ENUM}`"),
        };
        // Only a file that names `Msg::…` is dispatching: fixture sets
        // for other rules reuse the dispatcher paths and stay quiet.
        for df in dispatchers() {
            let Some((_, line, _)) = df.variant_refs(DISPATCH_ENUM).into_iter().next() else {
                continue;
            };
            findings.push(Finding {
                file: df.path.clone(),
                line,
                rule: RULE_HANDLER,
                message: format!(
                    "dispatch coverage is off: {} dispatches `{DISPATCH_ENUM}::…` but {why}; \
                     keep the `{DISPATCH_ENUM}` table a literal enum in that file",
                    df.path
                ),
                snippet: df.snippet(line),
            });
        }
        return;
    };

    // Each variant must be named in each dispatcher present in the model
    // (`#[cfg(test)]`-only variants are scaffolding and exempt, like all
    // cfg(test) code).
    for df in dispatchers() {
        let named = df.variant_ref_names(DISPATCH_ENUM);
        for variant in def.variants.iter().filter(|v| !v.cfg_test) {
            if !named.contains(&variant.name) {
                findings.push(Finding {
                    file: msgs.path.clone(),
                    line: variant.line,
                    rule: RULE_HANDLER,
                    message: format!(
                        "`{DISPATCH_ENUM}::{}` has no dispatch arm in {}; every \
                         variant must be handled (or rejected) explicitly",
                        variant.name, df.path
                    ),
                    snippet: msgs.snippet(variant.line),
                });
            }
        }
    }
}
