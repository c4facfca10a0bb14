//! Fixture-based tests: each rule catches its seeded violation, the
//! clean fixture passes every rule, pragmas suppress only when
//! justified, and the workspace scope map matches DESIGN.md §5.11.

use bft_lint::{
    check_source, scope_for, Scope, RULE_CATCHALL, RULE_CHARGE, RULE_DECODE, RULE_DETERMINISM,
    RULE_PRAGMA, RULE_QUORUM, RULE_SEAM,
};

const DETERMINISM_FIXTURE: &str = include_str!("fixtures/determinism_violation.rs");
const QUORUM_FIXTURE: &str = include_str!("fixtures/quorum_violation.rs");
const FASTQUORUM_FIXTURE: &str = include_str!("fixtures/fastquorum_violation.rs");
const CATCHALL_FIXTURE: &str = include_str!("fixtures/catchall_violation.rs");
const DECODE_FIXTURE: &str = include_str!("fixtures/decode_violation.rs");
const SEAM_FIXTURE: &str = include_str!("fixtures/seam_violation.rs");
const SEAM_VIEWCHANGE_FIXTURE: &str = include_str!("fixtures/seam_viewchange_violation.rs");
const CHARGE_FIXTURE: &str = include_str!("fixtures/charge_violation.rs");
const CLEAN_FIXTURE: &str = include_str!("fixtures/clean.rs");

fn lines_for(findings: &[bft_lint::Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|fnd| fnd.rule == rule)
        .map(|fnd| fnd.line)
        .collect()
}

#[test]
fn determinism_rule_catches_hash_iteration() {
    let findings = check_source("fixture.rs", DETERMINISM_FIXTURE, Scope::all());
    let lines = lines_for(&findings, RULE_DETERMINISM);
    // `slot.prepares.iter()`, `for &peer in peers`, `.values()`.
    assert_eq!(lines.len(), 3, "findings: {findings:#?}");
    assert!(lines.contains(&10), "iter() on the struct field");
    assert!(lines.contains(&13), "for-in over the HashSet param");
    assert!(lines.contains(&20), "values() on the struct field");
    // The point lookup must not be flagged.
    assert!(!lines.contains(&25));
}

#[test]
fn quorum_rule_catches_inline_thresholds() {
    let findings = check_source("fixture.rs", QUORUM_FIXTURE, Scope::all());
    let lines = lines_for(&findings, RULE_QUORUM);
    assert!(lines.contains(&15), "2 * cfg.f as usize + 1: {findings:#?}");
    assert!(lines.contains(&19), "3 * f + 1");
    assert!(lines.contains(&23), "cfg.f() as usize + 1");
    // Comments mentioning 2f+1 and `frames` arithmetic stay clean.
    assert!(!lines.contains(&2));
    assert!(!lines.contains(&28));
}

#[test]
fn quorum_rule_catches_inline_fast_quorum() {
    let findings = check_source("fixture.rs", FASTQUORUM_FIXTURE, Scope::all());
    let lines = lines_for(&findings, RULE_QUORUM);
    assert!(lines.contains(&21), "cfg.n as usize - cfg.f: {findings:#?}");
    assert!(lines.contains(&25), "cfg.n() - cfg.f()");
    assert!(lines.contains(&29), "bare n - f");
    // `len - f` and `n - skipped` stay clean, as do the comments.
    assert!(!lines.contains(&34), "findings: {findings:#?}");
    assert!(!lines.contains(&39), "findings: {findings:#?}");
    assert!(!lines.contains(&3));
}

#[test]
fn catchall_rule_flags_msg_wildcards_only() {
    let findings = check_source("fixture.rs", CATCHALL_FIXTURE, Scope::all());
    let lines = lines_for(&findings, RULE_CATCHALL);
    assert_eq!(lines, vec![13], "findings: {findings:#?}");
}

#[test]
fn decode_rule_flags_panicking_decoders() {
    let findings = check_source("fixture.rs", DECODE_FIXTURE, Scope::all());
    let lines = lines_for(&findings, RULE_DECODE);
    // Indexing on line 15, indexing + expect on line 16.
    assert!(lines.contains(&15), "findings: {findings:#?}");
    assert!(lines.contains(&16));
    // The assert! in encode() is outside any decoder.
    assert!(!lines.contains(&25));
}

#[test]
fn seam_rule_flags_carved_flags_named_in_code() {
    let findings = check_source("fixture.rs", SEAM_FIXTURE, Scope::all());
    // The two struct fields and the two reads; not the comments on
    // lines 1–2 and 14, nor the `#[cfg(test)]` module.
    assert_eq!(
        lines_for(&findings, RULE_SEAM),
        vec![5, 6, 10, 11],
        "findings: {findings:#?}"
    );
}

#[test]
fn seam_rule_flags_view_change_timeouts_named_in_code() {
    let findings = check_source("fixture.rs", SEAM_VIEWCHANGE_FIXTURE, Scope::all());
    // The two struct fields and the two reads; not the module comment.
    assert_eq!(
        lines_for(&findings, RULE_SEAM),
        vec![5, 6, 10, 14],
        "findings: {findings:#?}"
    );
    assert!(findings[0]
        .message
        .contains("`viewchange.rs` reads its own `Config` fields"));
}

#[test]
fn seam_rule_binds_only_the_replica() {
    let replica = "crates/core/src/replica.rs";
    assert!(scope_for(replica).seam);
    for file in ["crates/core/src/lease.rs", "crates/core/src/admission.rs"] {
        let findings = check_source(file, SEAM_FIXTURE, scope_for(file));
        assert!(
            lines_for(&findings, RULE_SEAM).is_empty(),
            "{file}: {findings:#?}"
        );
    }
}

#[test]
fn charge_rule_flags_digest_and_mac_charges_and_prices() {
    let findings = check_source("fixture.rs", CHARGE_FIXTURE, Scope::all());
    // Both kinds and both prices on lines 5–6 (one finding a line), the
    // fixed digest price on line 11; not the comment, the `Net` charge,
    // `cost.send`, a request's own `digest()`, nor the `#[cfg(test)]`
    // module.
    assert_eq!(
        lines_for(&findings, RULE_CHARGE),
        vec![5, 6, 11],
        "findings: {findings:#?}"
    );
}

#[test]
fn charge_rule_spares_the_two_modules_that_charge() {
    for file in ["crates/core/src/replica.rs", "crates/core/src/client.rs"] {
        assert!(scope_for(file).charge, "{file}");
    }
    for file in [
        "crates/core/src/messages.rs",
        "crates/core/src/checkpoint.rs",
        "crates/sim/src/cost.rs",
        "crates/bench/src/paper.rs",
    ] {
        assert!(!scope_for(file).charge, "{file}");
    }
}

#[test]
fn clean_fixture_passes_every_rule() {
    let findings = check_source("fixture.rs", CLEAN_FIXTURE, Scope::all());
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn justified_pragma_suppresses_same_line_and_next_line() {
    let src = "\
pub fn size(f: u32) -> u32 {
    // bft-lint: allow(quorum-math) -- fixture exercises the pragma path
    3 * f + 1
}
pub fn size2(f: u32) -> u32 {
    3 * f + 1 // bft-lint: allow(quorum-math) -- trailing form
}
";
    let findings = check_source("fixture.rs", src, Scope::all());
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn unjustified_pragma_suppresses_nothing_and_is_reported() {
    let src = "\
pub fn size(f: u32) -> u32 {
    // bft-lint: allow(quorum-math)
    3 * f + 1
}
";
    let findings = check_source("fixture.rs", src, Scope::all());
    assert_eq!(lines_for(&findings, RULE_QUORUM), vec![3]);
    assert_eq!(lines_for(&findings, RULE_PRAGMA), vec![2]);
}

#[test]
fn pragma_for_the_wrong_rule_does_not_suppress() {
    let src = "\
pub fn size(f: u32) -> u32 {
    // bft-lint: allow(decode-panic) -- wrong rule entirely
    3 * f + 1
}
";
    let findings = check_source("fixture.rs", src, Scope::all());
    assert_eq!(lines_for(&findings, RULE_QUORUM), vec![3]);
}

#[test]
fn unknown_rule_in_pragma_is_reported() {
    let src = "// bft-lint: allow(made-up-rule) -- nope\n";
    let findings = check_source("fixture.rs", src, Scope::all());
    assert_eq!(lines_for(&findings, RULE_PRAGMA), vec![1]);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let src = "\
pub fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn scaffolding(f: u32) {
        let m: HashMap<u32, u32> = HashMap::new();
        for (_, _) in m.iter() {}
        let _ = 3 * f + 1;
    }
}
";
    let findings = check_source("fixture.rs", src, Scope::all());
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

/// A test-only method inside a production `impl` is exempt however far
/// its body's `{` sits from the attribute; without the attribute the
/// same method is production code and is flagged.
#[test]
fn cfg_test_methods_are_exempt_whatever_their_signature() {
    let method = "\
use std::collections::{BTreeSet, HashMap};
pub struct Bodies {
    held: HashMap<u64, u64>,
}
impl Bodies {
    ATTR
    pub(crate) fn holding_slots(&self) -> BTreeSet<u64> {
        self.held.values().copied().collect()
    }
    pub fn len(&self) -> usize {
        self.held.len()
    }
}
";
    let gated = check_source(
        "fixture.rs",
        &method.replace("ATTR", "#[cfg(test)]"),
        Scope::all(),
    );
    assert!(gated.is_empty(), "findings: {gated:#?}");
    let plain = check_source("fixture.rs", &method.replace("ATTR", ""), Scope::all());
    assert_eq!(
        lines_for(&plain, RULE_DETERMINISM),
        vec![8],
        "findings: {plain:#?}"
    );
}

#[test]
fn scope_map_matches_design() {
    // types.rs is the one blessed home of quorum arithmetic.
    let types = scope_for("crates/core/src/types.rs");
    assert!(!types.quorum);
    assert!(types.determinism);

    // Observer-only subsystems are outside the determinism scope.
    assert!(!scope_for("crates/sim/src/trace.rs").determinism);
    assert!(!scope_for("crates/sim/src/metrics.rs").determinism);
    assert!(scope_for("crates/sim/src/engine.rs").determinism);
    assert!(scope_for("crates/core/src/replica.rs").determinism);

    // Dispatch and decode scopes.
    assert!(scope_for("crates/core/src/replica.rs").catchall);
    assert!(scope_for("crates/core/src/client.rs").catchall);
    assert!(!scope_for("crates/core/src/messages.rs").catchall);
    assert!(scope_for("crates/core/src/wire.rs").decode);
    assert!(scope_for("crates/core/src/messages.rs").decode);

    // Quorum math is policed everywhere else, including non-protocol
    // crates (keychain.rs regression) and the root package.
    assert!(scope_for("crates/crypto/src/keychain.rs").quorum);
    assert!(scope_for("src/lib.rs").quorum);
    assert!(!scope_for("crates/crypto/src/keychain.rs").determinism);

    // Non-src files are out of scope entirely.
    assert!(scope_for("crates/core/tests/prop.rs").is_empty());
    assert!(scope_for("crates/bench/benches/ablation_view_change.rs").is_empty());
}
