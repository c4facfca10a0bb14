//! Rule: counter-coverage — every counter registered in `health.rs` is
//! bumped somewhere in non-test code: protocol code, but also the
//! simulator engine (network and CPU-queue drops) and the workloads
//! (direct clients' completions).
//!
//! The health observatory reports whatever the registry declares; a
//! `Counter` variant that nothing ever emits reads as a
//! permanently-zero statistic, which is worse than no statistic — it
//! looks like "this never happened" when the truth is "nothing counts
//! it". A bump is a `Counter::X` among the arguments of a `count(..)` or
//! `count_add(..)` call; reads (`total(Counter::X)`) and `health.rs`
//! itself do not count.

use crate::model::{call_arg_ranges, WorkspaceModel};
use crate::{Finding, RULE_COUNTER};
use std::collections::BTreeSet;

/// The file declaring the counter registry.
const HEALTH: &str = "crates/sim/src/health.rs";
/// The registry enum.
const COUNTER_ENUM: &str = "Counter";
/// The calls that bump a counter.
const BUMPS: [&str; 2] = ["count", "count_add"];

pub(crate) fn run(model: &WorkspaceModel, findings: &mut Vec<Finding>) {
    let Some(health) = model.file(HEALTH) else {
        return;
    };
    let Some(def) = health.enum_def(COUNTER_ENUM) else {
        return;
    };
    let emitters: Vec<_> = model.src_files("").filter(|f| f.path != HEALTH).collect();
    if emitters.is_empty() {
        return; // no code in the model to search for emissions
    }

    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for file in emitters {
        let bumps: Vec<(usize, usize)> = BUMPS
            .iter()
            .flat_map(|callee| call_arg_ranges(&file.tokens, callee))
            .collect();
        for (name, _, idx) in file.variant_refs(COUNTER_ENUM) {
            if bumps.iter().any(|&(a, b)| a <= idx && idx < b) {
                emitted.insert(name);
            }
        }
    }

    for variant in &def.variants {
        if !emitted.contains(&variant.name) {
            findings.push(Finding {
                file: health.path.clone(),
                line: variant.line,
                rule: RULE_COUNTER,
                message: format!(
                    "`{COUNTER_ENUM}::{}` is registered in health.rs but no non-test \
                     code bumps it; a permanently-zero counter misreports \"never happened\"",
                    variant.name
                ),
                snippet: health.snippet(variant.line),
            });
        }
    }
}
