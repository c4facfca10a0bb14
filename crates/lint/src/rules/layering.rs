//! Rule: layering — protocol modules in `crates/core` may name only
//! the sanctioned `bft_sim` surface.
//!
//! ROADMAP item 2 (runtime-agnostic replica core + a real async
//! transport) requires the replica/client protocol logic to depend on
//! an abstract host interface, not the simulator. Today that interface
//! is, de facto, the `Context` surface plus the observer vocabulary
//! (trace/health/metrics *types*, not their engines). This rule makes
//! the boundary explicit: protocol modules may reference the allowlist
//! below — everything a future `Host` trait would have to provide —
//! and nothing else from `bft_sim`. Engine, network, chaos, and
//! registry types are the simulator's own business; naming them from a
//! protocol module deepens exactly the coupling the split must undo.
//! The harness modules (`lib.rs`, `cluster.rs`, `fuzz.rs`) assemble
//! simulations on purpose and are exempt, as is `#[cfg(test)]` code.

use crate::lexer::Kind;
use crate::model::WorkspaceModel;
use crate::{Finding, RULE_LAYERING};
use std::collections::BTreeSet;

/// The simulator crate whose surface is restricted.
const SIM_CRATE: &str = "bft_sim";

/// Items a protocol module may name: the `Context`/`Node` host surface,
/// identity and time scalars, and the observer vocabulary types.
const ALLOWED_ITEMS: &[&str] = &[
    "Context",
    "Node",
    "TimerId",
    "NodeId",
    "SimTime",
    "CostModel",
    "CostKind",
    "SpanEdge",
    "TraceMeta",
    "TracePhase",
    "Counter",
    "Metrics",
    "HealthSnapshot",
    "Role",
    "tag_name",
    "TAG_COUNT",
    "dur",
];

/// Modules whose whole subtree is sanctioned (pure vocabulary, no
/// engine state): the clock and the CPU cost model.
const ALLOWED_MODULES: &[&str] = &["time", "cost"];

/// Harness modules that assemble simulations by design.
const HARNESS: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/fuzz.rs",
];

pub(crate) fn run(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    for file in model.src_files("crates/core/src/") {
        if HARNESS.contains(&file.path.as_str()) {
            continue;
        }

        // `use bft_sim::…` edges (flattened, aliases resolved).
        let mut use_lines: BTreeSet<u32> = BTreeSet::new();
        for edge in &file.uses {
            if edge.path.first().map(String::as_str) != Some(SIM_CRATE) {
                continue;
            }
            use_lines.insert(edge.line);
            let Some(second) = edge.path.get(1) else {
                continue;
            };
            if !sanctioned(second) {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: edge.line,
                    rule: RULE_LAYERING,
                    message: format!(
                        "protocol module imports `{}` from {SIM_CRATE}; only the \
                         sanctioned Context surface ({}) may cross the core↔sim \
                         boundary (see DESIGN.md §5.16)",
                        edge.path[1..].join("::"),
                        ALLOWED_ITEMS.join(", "),
                    ),
                    snippet: file.snippet(edge.line),
                });
            }
        }

        // Inline `bft_sim::X` paths outside use statements.
        let toks = &file.tokens;
        for i in 0..toks.len().saturating_sub(2) {
            if toks[i].kind == Kind::Ident
                && toks[i].text == SIM_CRATE
                && toks[i + 1].text == "::"
                && toks[i + 2].kind == Kind::Ident
                && !use_lines.contains(&toks[i].line)
            {
                let name = &toks[i + 2].text;
                if !sanctioned(name) {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: toks[i].line,
                        rule: RULE_LAYERING,
                        message: format!(
                            "protocol module names `{SIM_CRATE}::{name}`; only the \
                             sanctioned Context surface may cross the core↔sim boundary \
                             (see DESIGN.md §5.16)"
                        ),
                        snippet: file.snippet(toks[i].line),
                    });
                }
            }
        }
    }
}

fn sanctioned(name: &str) -> bool {
    ALLOWED_ITEMS.contains(&name) || ALLOWED_MODULES.contains(&name)
}
