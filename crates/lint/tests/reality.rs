//! Reality-anchored tests: the cross-file rules are exercised against
//! the actual workspace sources, not just fixtures. These pin three
//! things the fixture suite cannot: the item-model extractor parses
//! every real file, the workspace is currently clean under all twelve
//! rules, and handler-coverage genuinely fires when a real dispatch
//! arm is deleted (the rule watches reality, not a toy grammar).

use bft_lint::lexer::lex;
use bft_lint::model::FileModel;
use bft_lint::{check_sources, check_workspace, Phase};
use std::path::{Path, PathBuf};

/// The repository root, two levels up from crates/lint.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn workspace_files() -> Vec<(String, String)> {
    let root = workspace_root();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let krate = entry.expect("dir entry").path();
        for sub in ["src", "tests"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut files);
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .expect("workspace-relative path")
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&p).expect("readable source");
            (rel, src)
        })
        .collect()
}

fn read_rel(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("readable workspace file")
}

/// The model extractor round-trips every workspace file: the lexer's
/// delimiter stream balances and extraction never panics or bails.
#[test]
fn model_extractor_round_trips_every_workspace_file() {
    let files = workspace_files();
    assert!(
        files.len() > 20,
        "workspace scan looks wrong: only {} files",
        files.len()
    );
    let mut unbalanced = Vec::new();
    for (rel, src) in &files {
        let lexed = lex(src);
        let model = FileModel::build(rel, src, lexed.tokens, lexed.comments);
        if !model.balanced {
            unbalanced.push(rel.clone());
        }
    }
    assert!(unbalanced.is_empty(), "unbalanced files: {unbalanced:?}");
}

/// The anchor files the cross-file rules pair against actually yield
/// the items the rules look up — a rename would silently disarm them.
#[test]
fn anchor_items_exist_in_the_real_sources() {
    let files = workspace_files();
    let model_of = |rel: &str| {
        let (path, src) = files
            .iter()
            .find(|(p, _)| p == rel)
            .unwrap_or_else(|| panic!("{rel} missing from workspace scan"));
        let lexed = lex(src);
        FileModel::build(path, src, lexed.tokens, lexed.comments)
    };
    let msgs = model_of("crates/core/src/messages.rs");
    let msg = msgs.enum_def("Msg").expect("Msg enum in messages.rs");
    assert!(msg.variants.len() >= 20, "Msg should be a large enum");
    let inv = model_of("crates/core/src/invariants.rs");
    assert!(inv.enum_def("Violation").is_some());
    let trace = model_of("crates/sim/src/trace.rs");
    assert!(trace.enum_def("TracePhase").is_some());
    let health = model_of("crates/sim/src/health.rs");
    assert!(health.enum_def("Counter").is_some());
}

/// The workspace is clean under all twelve rules. This is the same check
/// CI runs via `bft-lint --check`; keeping it as a test means `cargo
/// test` alone catches a regression.
#[test]
fn workspace_is_clean_under_all_rules() {
    let findings = check_workspace(&workspace_root(), Phase::All).expect("workspace scan");
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

/// Directed regression: delete a real dispatch arm from the real
/// client.rs and handler-coverage must fire, naming the variant. The
/// client's explicit-rejection arm is the variant's ONLY mention in
/// that file, so deleting it is exactly the forgotten-arm scenario the
/// rule exists for. This pins the rule against reality — if the
/// dispatch idiom drifts away from what the scanner recognizes, this
/// test fails before the rule silently goes blind.
#[test]
fn handler_coverage_fires_when_a_real_dispatch_arm_is_deleted() {
    let messages = read_rel("crates/core/src/messages.rs");
    let replica = read_rel("crates/core/src/replica.rs");
    let client = read_rel("crates/core/src/client.rs");
    let health = read_rel("crates/sim/src/health.rs");

    const ARM: &str = "| Msg::PrePrepare(_)";
    assert!(
        client.contains(ARM),
        "expected the PrePrepare rejection arm in client.rs; update ARM if it moved"
    );

    let baseline = check_sources(
        &[
            ("crates/core/src/messages.rs".into(), messages.clone()),
            ("crates/core/src/replica.rs".into(), replica.clone()),
            ("crates/core/src/client.rs".into(), client.clone()),
            ("crates/sim/src/health.rs".into(), health.clone()),
        ],
        Phase::Model,
    );
    let baseline_handler: Vec<_> = baseline
        .iter()
        .filter(|f| f.rule == "handler-coverage")
        .collect();
    assert!(
        baseline_handler.is_empty(),
        "real sources should be clean: {baseline_handler:#?}"
    );

    let broken = client.replace(ARM, "");
    let findings = check_sources(
        &[
            ("crates/core/src/messages.rs".into(), messages),
            ("crates/core/src/replica.rs".into(), replica),
            ("crates/core/src/client.rs".into(), broken),
            ("crates/sim/src/health.rs".into(), health),
        ],
        Phase::Model,
    );
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "handler-coverage")
        .collect();
    assert_eq!(hits.len(), 1, "findings: {findings:#?}");
    assert!(hits[0]
        .message
        .contains("`Msg::PrePrepare` has no dispatch arm"));
    assert!(hits[0].message.contains("client.rs"));
}

/// A `#[cfg(test)]`-only variant added to the real Msg enum is test
/// scaffolding: handler-coverage must not demand dispatch arms for it.
#[test]
fn cfg_test_only_msg_variant_stays_exempt() {
    let messages = read_rel("crates/core/src/messages.rs");
    let replica = read_rel("crates/core/src/replica.rs");
    let client = read_rel("crates/core/src/client.rs");
    let health = read_rel("crates/sim/src/health.rs");

    const FIRST_VARIANT: &str = "pub enum Msg {";
    assert!(messages.contains(FIRST_VARIANT));
    let patched = messages.replace(
        FIRST_VARIANT,
        "pub enum Msg {\n    #[cfg(test)]\n    FaultProbe(Status),",
    );

    let findings = check_sources(
        &[
            ("crates/core/src/messages.rs".into(), patched),
            ("crates/core/src/replica.rs".into(), replica),
            ("crates/core/src/client.rs".into(), client),
            ("crates/sim/src/health.rs".into(), health),
        ],
        Phase::Model,
    );
    assert!(
        !findings.iter().any(|f| f.message.contains("FaultProbe")),
        "cfg(test) variant must be exempt: {findings:#?}"
    );
}
