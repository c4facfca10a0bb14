//! Fixture-based tests for the phase-2 (cross-file model) rules: each
//! rule catches its seeded violation when the fixtures are mapped onto
//! the anchor paths the rule pairs against, and the clean fixtures pass.

use bft_lint::{
    check_source, check_sources, Finding, Phase, Scope, RULE_COUNTER, RULE_HANDLER, RULE_INVARIANT,
    RULE_LAYERING, RULE_PRAGMA, RULE_SPAN, RULE_TIMER,
};

const MESSAGES: &str = include_str!("fixtures/model/handler_messages.rs");
const REPLICA: &str = include_str!("fixtures/model/handler_replica.rs");
const REPLICA_MISSING: &str = include_str!("fixtures/model/handler_replica_missing.rs");
const CLIENT: &str = include_str!("fixtures/model/handler_client.rs");
const TIMER_VIOLATION: &str = include_str!("fixtures/model/timer_violation.rs");
const TIMER_CLEAN: &str = include_str!("fixtures/model/timer_clean.rs");
const SPAN_TRACE: &str = include_str!("fixtures/model/span_trace.rs");
const SPAN_VIOLATION: &str = include_str!("fixtures/model/span_violation.rs");
const SPAN_CLEAN: &str = include_str!("fixtures/model/span_clean.rs");
const INV_VIOLATION: &str = include_str!("fixtures/model/inv_invariants_violation.rs");
const INV_CLEAN: &str = include_str!("fixtures/model/inv_invariants_clean.rs");
const INV_TESTS: &str = include_str!("fixtures/model/inv_tests.rs");
const COUNTER_HEALTH: &str = include_str!("fixtures/model/counter_health.rs");
const COUNTER_VIOLATION: &str = include_str!("fixtures/model/counter_core_violation.rs");
const COUNTER_CLEAN: &str = include_str!("fixtures/model/counter_core_clean.rs");
const COUNTER_ENGINE: &str = include_str!("fixtures/model/counter_engine.rs");
const LAYERING_VIOLATION: &str = include_str!("fixtures/model/layering_violation.rs");
const LAYERING_CLEAN: &str = include_str!("fixtures/model/layering_clean.rs");

const MESSAGES_PATH: &str = "crates/core/src/messages.rs";
const REPLICA_PATH: &str = "crates/core/src/replica.rs";
const CLIENT_PATH: &str = "crates/core/src/client.rs";
const HEALTH_PATH: &str = "crates/sim/src/health.rs";
const TRACE_PATH: &str = "crates/sim/src/trace.rs";
const INVARIANTS_PATH: &str = "crates/core/src/invariants.rs";

fn check(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    check_sources(&owned, Phase::Model)
}

fn rule_findings<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// --- handler-coverage ---------------------------------------------------

#[test]
fn handler_clean_fixture_set_passes() {
    let findings = check(&[
        (MESSAGES_PATH, MESSAGES),
        (REPLICA_PATH, REPLICA),
        (CLIENT_PATH, CLIENT),
    ]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn handler_missing_dispatch_arm_is_caught() {
    let findings = check(&[
        (MESSAGES_PATH, MESSAGES),
        (REPLICA_PATH, REPLICA_MISSING),
        (CLIENT_PATH, CLIENT),
    ]);
    let hits = rule_findings(&findings, RULE_HANDLER);
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("`Msg::Pong` has no dispatch arm"));
    assert!(hits[0].message.contains(REPLICA_PATH));
    // The finding anchors on the variant declaration in messages.rs.
    assert_eq!(hits[0].file, MESSAGES_PATH);
    assert_eq!(hits[0].line, 10);
}

#[test]
fn handler_cfg_test_variant_is_exempt_from_dispatch() {
    // `Msg::Probe` is #[cfg(test)]-only and appears in no dispatcher;
    // the clean set above passing already proves the exemption, but
    // pin it explicitly against a lone dispatcher too.
    let findings = check(&[(MESSAGES_PATH, MESSAGES), (REPLICA_PATH, REPLICA)]);
    assert!(
        !findings.iter().any(|f| f.message.contains("Probe")),
        "findings: {findings:#?}"
    );
}

/// A dispatcher with no `Msg` table to check against is a finding, not
/// a silent pass: renaming `messages.rs` or generating the enum
/// wholesale must not switch dispatch coverage off without a word.
#[test]
fn handler_blindness_is_a_finding() {
    for (files, why) in [
        (vec![(REPLICA_PATH, REPLICA)], "is not in the model"),
        (
            vec![(MESSAGES_PATH, "pub struct Ping;\n"), (CLIENT_PATH, CLIENT)],
            "declares no literal `enum Msg`",
        ),
    ] {
        let findings = check(&files);
        let hits = rule_findings(&findings, RULE_HANDLER);
        assert_eq!(hits.len(), 1, "findings: {findings:#?}");
        assert!(hits[0].message.contains("dispatch coverage is off"));
        assert!(hits[0].message.contains(why), "{}", hits[0].message);
        // Anchored on the dispatcher's first `Msg::` arm.
        assert_eq!(hits[0].file, files.last().expect("non-empty").0);
        assert_eq!(hits[0].line, 5);
    }
}

// --- timer-pairing ------------------------------------------------------

#[test]
fn timer_violations_are_caught() {
    let findings = check(&[(REPLICA_PATH, TIMER_VIOLATION)]);
    let hits = rule_findings(&findings, RULE_TIMER);
    assert_eq!(hits.len(), 3, "findings: {findings:#?}");
    assert!(hits.iter().any(|f| f
        .message
        .contains("`TIMER_DEAD` is declared but never armed")
        && f.line == 9));
    assert!(hits.iter().any(|f| f
        .message
        .contains("`TIMER_ORPHAN` is armed via set_timer but no code inspects")
        && f.line == 19));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("never calls cancel_timer") && f.line == 20));
}

#[test]
fn timer_clean_fixture_passes() {
    let findings = check(&[(REPLICA_PATH, TIMER_CLEAN)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn timer_cross_file_reference_suppresses_pairing() {
    // A token referenced from another file is outside the file-local
    // pairing argument (re-exported base constants).
    let other = "pub fn peek() { let _ = TIMER_ORPHAN; let _ = TIMER_DEAD; }\n";
    let findings = check(&[(REPLICA_PATH, TIMER_VIOLATION), (CLIENT_PATH, other)]);
    let hits = rule_findings(&findings, RULE_TIMER);
    // Only the stored-without-cancel finding remains.
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("cancel_timer"));
}

// --- span-pairing -------------------------------------------------------

#[test]
fn span_violations_are_caught() {
    let findings = check(&[(TRACE_PATH, SPAN_TRACE), (REPLICA_PATH, SPAN_VIOLATION)]);
    let hits = rule_findings(&findings, RULE_SPAN);
    assert_eq!(hits.len(), 2, "findings: {findings:#?}");
    assert!(
        hits.iter()
            .any(|f| f.message.contains("`TracePhase::Request`")
                && f.message.contains("never closed"))
    );
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`TracePhase::Commit`") && f.message.contains("never opened")));
}

#[test]
fn span_clean_fixture_passes_including_variable_phase() {
    // `exec_phase(tentative)` computes the phase; the rule attributes
    // the variable-phase trace calls through the one-hop helper.
    let findings = check(&[(TRACE_PATH, SPAN_TRACE), (REPLICA_PATH, SPAN_CLEAN)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

// --- invariant-coverage -------------------------------------------------

#[test]
fn invariant_coverage_holes_are_caught() {
    let findings = check(&[
        (INVARIANTS_PATH, INV_VIOLATION),
        ("crates/core/tests/violations.rs", INV_TESTS),
    ]);
    let hits = rule_findings(&findings, RULE_INVARIANT);
    assert_eq!(hits.len(), 3, "findings: {findings:#?}");
    // Beta appears only in Display: never constructed and never tested.
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`Violation::Beta` is never constructed")));
    assert!(hits.iter().any(|f| f
        .message
        .contains("`Violation::Beta` is not referenced by any test")));
    // Gamma is referenced by the test file but no checker constructs it.
    assert!(hits.iter().any(|f| f
        .message
        .contains("`Violation::Gamma` is never constructed")));
    assert!(!hits
        .iter()
        .any(|f| f.message.contains("`Violation::Gamma` is not referenced")));
    // Alpha is fully covered (constructed in check(), tested in cfg(test)).
    assert!(!hits.iter().any(|f| f.message.contains("Alpha")));
}

#[test]
fn invariant_clean_fixture_passes() {
    let findings = check(&[
        (INVARIANTS_PATH, INV_CLEAN),
        ("crates/core/tests/violations.rs", INV_TESTS),
    ]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

// --- counter-coverage ---------------------------------------------------

#[test]
fn counter_without_emission_site_is_caught() {
    let findings = check(&[
        (HEALTH_PATH, COUNTER_HEALTH),
        (CLIENT_PATH, COUNTER_VIOLATION),
    ]);
    let hits = rule_findings(&findings, RULE_COUNTER);
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("`Counter::Retries`"));
    // Neither the registry's own mention in health.rs nor a read
    // (`total(Counter::Retries)`) is an emission site.
    assert_eq!(hits[0].file, HEALTH_PATH);
    assert_eq!(hits[0].line, 5);
}

#[test]
fn counter_clean_fixture_passes() {
    let findings = check(&[(HEALTH_PATH, COUNTER_HEALTH), (CLIENT_PATH, COUNTER_CLEAN)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn counter_emitted_only_outside_core_is_covered() {
    let findings = check(&[
        (HEALTH_PATH, COUNTER_HEALTH),
        (CLIENT_PATH, COUNTER_VIOLATION),
        ("crates/sim/src/engine.rs", COUNTER_ENGINE),
    ]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

// --- layering -----------------------------------------------------------

#[test]
fn layering_violations_are_caught() {
    let findings = check(&[(REPLICA_PATH, LAYERING_VIOLATION)]);
    let hits = rule_findings(&findings, RULE_LAYERING);
    assert_eq!(hits.len(), 3, "findings: {findings:#?}");
    let lines: Vec<u32> = hits.iter().map(|f| f.line).collect();
    assert!(lines.contains(&9), "use bft_sim::network::NetConfig");
    assert!(lines.contains(&10), "Simulation in the use tree");
    assert!(lines.contains(&16), "inline bft_sim::Network path");
    // The sanctioned `Context` import must not fire.
    assert!(!hits.iter().any(|f| f.message.contains("`Context`")));
}

#[test]
fn layering_clean_fixture_passes() {
    let findings = check(&[(REPLICA_PATH, LAYERING_CLEAN)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn layering_harness_modules_are_exempt() {
    // cluster.rs is a sanctioned harness module and may drive the
    // simulator directly.
    let findings = check(&[("crates/core/src/cluster.rs", LAYERING_VIOLATION)]);
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn layering_cfg_test_files_are_exempt() {
    // An out-of-line test module (a reference model beside the code it
    // checks) says so with an inner attribute and may drive the
    // simulator like any inline `#[cfg(test)] mod tests`.
    let gated = format!("#![cfg(test)]\n{LAYERING_VIOLATION}");
    let path = "crates/core/src/invariants/reference.rs";
    assert!(check(&[(path, &gated)]).is_empty());
    let hits = check(&[(path, LAYERING_VIOLATION)]);
    assert_eq!(rule_findings(&hits, RULE_LAYERING).len(), 3);
}

// --- pragmas across phases ----------------------------------------------

#[test]
fn justified_pragma_suppresses_model_finding() {
    let patched = LAYERING_VIOLATION.replace(
        "use bft_sim::network::NetConfig;",
        "// bft-lint: allow(layering) -- fixture exercises the pragma path\n\
         use bft_sim::network::NetConfig;",
    );
    let findings = check(&[(REPLICA_PATH, &patched)]);
    let hits = rule_findings(&findings, RULE_LAYERING);
    // The NetConfig import is excused; Simulation and Network still fire.
    assert_eq!(hits.len(), 2, "findings: {findings:#?}");
    assert!(rule_findings(&findings, RULE_PRAGMA).is_empty());
}

#[test]
fn stale_pragma_is_reported_when_rule_ran_clean() {
    let patched = LAYERING_CLEAN.replace(
        "use bft_sim::time::dur;",
        "// bft-lint: allow(layering) -- excused a ref that has since been removed\n\
         use bft_sim::time::dur;",
    );
    let findings = check(&[(REPLICA_PATH, &patched)]);
    let hits = rule_findings(&findings, RULE_PRAGMA);
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0].message.contains("stale pragma"));
}

#[test]
fn pragma_for_unexecuted_phase_is_not_stale() {
    // In a token-phase run the layering rule never executes, so a
    // layering pragma cannot be judged stale.
    let src = "// bft-lint: allow(layering) -- waiting on the host split\n\
               pub fn quiet() {}\n";
    let findings = check_source("crates/core/src/replica.rs", src, Scope::all());
    assert!(findings.is_empty(), "findings: {findings:#?}");
}
