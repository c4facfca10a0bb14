//! `bft-lint`: protocol-aware static analysis for the BFT workspace.
//!
//! The correctness argument of the protocol (Castro & Liskov, DSN 2001)
//! leans on invariants that ordinary type checking cannot see. The
//! linter enforces them in two phases.
//!
//! **Phase 1 — token rules** (per file, purely lexical):
//!
//! 1. **determinism** — replicas are deterministic state machines, and
//!    the seed-replayable simulator assumes it; iterating a
//!    `HashMap`/`HashSet` in a protocol path lets hasher randomness
//!    reach message emission order.
//! 2. **quorum-math** — every quorum threshold (`2f+1`, `3f+1`, `f+1`,
//!    and participation bounds like `n - f`) must come from
//!    `bft_core::types::Quorums`; inline re-derivations are where
//!    off-by-one safety bugs hide.
//! 3. **catch-all** — replica/client dispatch over the `Msg` enum must
//!    be exhaustive, so adding a message variant forces every handler
//!    to make an explicit decision.
//! 4. **decode-panic** — `wire.rs` decoders consume untrusted network
//!    bytes; `unwrap`/`expect`/slice-indexing turn a Byzantine payload
//!    into a crash instead of an `Err`.
//!
//! **Phase 2 — model rules** (cross-file, over the [`model`] item
//! model):
//!
//! 5. **handler-coverage** — every `Msg` variant has a dispatch arm in
//!    `replica.rs`/`client.rs` (wire-tag agreement needs no rule: the
//!    `Msg` table declares each tag once).
//! 6. **timer-pairing** — every armed `TIMER_*` token has a fire
//!    handler; stored one-shot timers have a cancel site.
//! 7. **span-pairing** — every `TracePhase` opened is closed.
//! 8. **invariant-coverage** — every `Violation` variant is constructed
//!    by a checker and referenced by at least one test.
//! 9. **counter-coverage** — every registered health counter is bumped
//!    (`count` / `count_add`) somewhere in non-test code.
//! 10. **layering** — protocol modules in `crates/core` name only the
//!     sanctioned `bft_sim` surface (the future `Host` boundary).
//!
//! A finding may be suppressed with a *justified* pragma on the same
//! line or the line above:
//!
//! ```text
//! // bft-lint: allow(determinism) -- membership set, never iterated
//! ```
//!
//! A pragma without a `-- reason` suppresses nothing and is itself
//! reported; a justified pragma that suppresses zero findings is a
//! *stale* pragma and also reported, so the exemption list can only
//! shrink as code is fixed.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod rules;

use lexer::{Comment, Lexed, Token};
use model::matching;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, as used in pragmas and reports.
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_QUORUM: &str = "quorum-math";
pub const RULE_CATCHALL: &str = "catch-all";
pub const RULE_DECODE: &str = "decode-panic";
pub const RULE_HANDLER: &str = "handler-coverage";
pub const RULE_TIMER: &str = "timer-pairing";
pub const RULE_SPAN: &str = "span-pairing";
pub const RULE_INVARIANT: &str = "invariant-coverage";
pub const RULE_COUNTER: &str = "counter-coverage";
pub const RULE_LAYERING: &str = "layering";
pub const RULE_PRAGMA: &str = "pragma";

/// Phase-1 rules: per-file, token-level.
pub const TOKEN_RULES: &[&str] = &[RULE_DETERMINISM, RULE_QUORUM, RULE_CATCHALL, RULE_DECODE];

/// Phase-2 rules: cross-file, over the item model.
pub const MODEL_RULES: &[&str] = &[
    RULE_HANDLER,
    RULE_TIMER,
    RULE_SPAN,
    RULE_INVARIANT,
    RULE_COUNTER,
    RULE_LAYERING,
];

/// All suppressible rules.
pub const RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_QUORUM,
    RULE_CATCHALL,
    RULE_DECODE,
    RULE_HANDLER,
    RULE_TIMER,
    RULE_SPAN,
    RULE_INVARIANT,
    RULE_COUNTER,
    RULE_LAYERING,
];

/// Which analysis phases to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-file token rules only.
    Token,
    /// Cross-file model rules only.
    Model,
    /// Both phases (the default).
    All,
}

impl Phase {
    fn token(self) -> bool {
        matches!(self, Phase::Token | Phase::All)
    }
    fn model(self) -> bool {
        matches!(self, Phase::Model | Phase::All)
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed offending source line.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            out,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(out, "    {}", self.snippet)
    }
}

/// Which token rules apply to a given file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    pub determinism: bool,
    pub quorum: bool,
    pub catchall: bool,
    pub decode: bool,
}

impl Scope {
    pub fn all() -> Scope {
        Scope {
            determinism: true,
            quorum: true,
            catchall: true,
            decode: true,
        }
    }

    pub fn is_empty(&self) -> bool {
        *self == Scope::default()
    }
}

/// Maps a workspace-relative path to the token rules that apply there.
///
/// - `determinism`: the protocol paths — all of `crates/core/src` and
///   `crates/sim/src`, minus the observer-only subsystems (`trace.rs`,
///   `metrics.rs`, `health.rs`), which post-process events and never
///   feed state back into the protocol.
/// - `quorum-math`: every `src/` file in the workspace except
///   `crates/core/src/types.rs`, the one blessed home of the
///   arithmetic.
/// - `catch-all`: the two message-dispatch sites, `replica.rs` and
///   `client.rs`.
/// - `decode-panic`: the untrusted-byte decoders, `wire.rs` and
///   `messages.rs`.
///
/// Model rules are not scoped per file: each anchors on the workspace
/// files it names (see [`rules`]).
pub fn scope_for(rel_path: &str) -> Scope {
    let path = rel_path.replace('\\', "/");
    if !path.ends_with(".rs") {
        return Scope::default();
    }
    let in_src = path.contains("/src/") || path.starts_with("src/");
    if !in_src {
        return Scope::default();
    }

    let observer = path.ends_with("/trace.rs")
        || path.ends_with("/metrics.rs")
        || path.ends_with("/health.rs");
    let protocol_crate =
        path.starts_with("crates/core/src/") || path.starts_with("crates/sim/src/");

    Scope {
        determinism: protocol_crate && !observer,
        quorum: path != "crates/core/src/types.rs",
        catchall: path == "crates/core/src/replica.rs" || path == "crates/core/src/client.rs",
        decode: path == "crates/core/src/wire.rs" || path == "crates/core/src/messages.rs",
    }
}

/// Lints one file's source under the given scope (token rules only —
/// cross-file rules need [`check_sources`]). `rel_path` is used only
/// for reporting.
pub fn check_source(rel_path: &str, source: &str, scope: Scope) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let (toks, _) = split_cfg_test(&lexed);
    let lines: Vec<&str> = source.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };

    let mut findings = Vec::new();
    run_token_rules(rel_path, &toks, scope, &snippet, &mut findings);
    findings.sort_by_key(|fnd| (fnd.line, fnd.rule));
    findings.dedup_by_key(|fnd| (fnd.line, fnd.rule));

    let executed = executed_rules(scope, true, false);
    apply_pragmas(rel_path, &lexed.comments, findings, &snippet, &executed)
}

/// Lints a set of in-memory sources as one workspace: builds the item
/// model over all of them, runs the requested phases, and applies
/// pragmas per file. Paths containing a `tests/` component are test
/// files: they feed the model's test-reference checks but no rules or
/// pragma checks run on them.
pub fn check_sources(files: &[(String, String)], phase: Phase) -> Vec<Finding> {
    let mut work = model::WorkspaceModel::default();
    for (path, source) in files {
        let rel = path.replace('\\', "/");
        let lexed = lexer::lex(source);
        let is_test = rel.contains("/tests/") || rel.starts_with("tests/");
        let (active, stripped) = if is_test {
            (lexed.tokens.clone(), Vec::new())
        } else {
            split_cfg_test(&lexed)
        };
        let mut fm = model::FileModel::build(&rel, source, active, lexed.comments);
        fm.cfg_test_tokens = stripped;
        work.files.push(fm);
    }
    work.files.sort_by(|a, b| a.path.cmp(&b.path));

    let mut findings: Vec<Finding> = Vec::new();
    if phase.token() {
        for fm in work.files.iter().filter(|f| !f.is_test) {
            let scope = scope_for(&fm.path);
            if scope.is_empty() {
                continue;
            }
            let snippet = |line: u32| fm.snippet(line);
            run_token_rules(&fm.path, &fm.tokens, scope, &snippet, &mut findings);
        }
    }
    if phase.model() {
        rules::handler::run(&work, &mut findings);
        rules::timer::run(&work, &mut findings);
        rules::span::run(&work, &mut findings);
        rules::invariant::run(&work, &mut findings);
        rules::counter::run(&work, &mut findings);
        rules::layering::run(&work, &mut findings);
    }

    let mut by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for fnd in findings {
        by_file.entry(fnd.file.clone()).or_default().push(fnd);
    }
    let mut out = Vec::new();
    for fm in work.files.iter().filter(|f| !f.is_test) {
        let mut fnds = by_file.remove(&fm.path).unwrap_or_default();
        fnds.sort_by_key(|f| (f.line, f.rule));
        // Distinct defects can anchor on the same line (e.g. a variant
        // both unconstructed and untested), so dedup on the message too.
        fnds.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);
        let executed = executed_rules(scope_for(&fm.path), phase.token(), phase.model());
        let snippet = |line: u32| fm.snippet(line);
        out.extend(apply_pragmas(
            &fm.path,
            &fm.comments,
            fnds,
            &snippet,
            &executed,
        ));
    }
    // Findings attributed to unmodeled or test files pass through.
    for fnds in by_file.into_values() {
        out.extend(fnds);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Lints the workspace rooted at `root`: every `src/` tree for the
/// token rules, plus `tests/` trees (fixture directories excluded) for
/// the model's test-reference checks.
pub fn check_workspace(root: &Path, phase: Phase) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let krate = entry?.path();
            for sub in ["src", "tests"] {
                let dir = krate.join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }
    for sub in ["src", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    Ok(check_sources(&sources, phase))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // Fixture trees hold deliberate violations and stand-in
            // files; they are test data, not workspace code.
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn run_token_rules(
    file: &str,
    toks: &[Token],
    scope: Scope,
    snippet: &dyn Fn(u32) -> String,
    findings: &mut Vec<Finding>,
) {
    if scope.determinism {
        rules::determinism::run(file, toks, snippet, findings);
    }
    if scope.quorum {
        rules::quorum::run(file, toks, snippet, findings);
    }
    if scope.catchall {
        rules::catchall::run(file, toks, snippet, findings);
    }
    if scope.decode {
        rules::decode::run(file, toks, snippet, findings);
    }
}

/// The rule ids actually executed against a file, for stale-pragma
/// accounting: a pragma is only "stale" if every rule it names ran and
/// still suppressed nothing.
fn executed_rules(scope: Scope, token_phase: bool, model_phase: bool) -> Vec<&'static str> {
    let mut out = Vec::new();
    if token_phase {
        if scope.determinism {
            out.push(RULE_DETERMINISM);
        }
        if scope.quorum {
            out.push(RULE_QUORUM);
        }
        if scope.catchall {
            out.push(RULE_CATCHALL);
        }
        if scope.decode {
            out.push(RULE_DECODE);
        }
    }
    if model_phase {
        out.extend(MODEL_RULES);
    }
    out
}

// ---------------------------------------------------------------------
// Token preprocessing
// ---------------------------------------------------------------------

/// Splits the token stream into (production tokens, `#[cfg(test)]`
/// tokens). The lint targets production protocol code; test modules,
/// inline or a whole file under `#![cfg(test)]`, may build whatever
/// scaffolding they like — but their tokens still count as test
/// references for coverage rules.
fn split_cfg_test(lexed: &Lexed) -> (Vec<Token>, Vec<Token>) {
    let toks = &lexed.tokens;
    // A file that opens with `#![cfg(test)]` is test code throughout
    // (an out-of-line test module, e.g. a reference model).
    let opening = toks.iter().take(8).map(|t| t.text.as_str());
    if opening.eq(["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
        return (Vec::new(), toks.clone());
    }
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let close = matching(toks, i + 1, "[", "]");
            let attr = &toks[i + 2..close.min(toks.len())];
            let is_cfg_test =
                attr.iter().any(|t| t.text == "cfg") && attr.iter().any(|t| t.text == "test");
            if is_cfg_test {
                // Skip from the attribute through the gated item's body.
                // Only applied when the item introduces a block (mod/fn),
                // which is every use in this workspace.
                let mut j = close + 1;
                let mut saw_item = false;
                while j < toks.len() && j < close + 8 {
                    if toks[j].text == "mod" || toks[j].text == "fn" {
                        saw_item = true;
                    }
                    if toks[j].text == "{" {
                        break;
                    }
                    j += 1;
                }
                if saw_item && j < toks.len() && toks[j].text == "{" {
                    let body_close = matching(toks, j, "{", "}");
                    for flag in skip.iter_mut().take(body_close + 1).skip(i) {
                        *flag = true;
                    }
                    i = body_close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    let mut active = Vec::new();
    let mut stripped = Vec::new();
    for (tok, skipped) in toks.iter().zip(&skip) {
        if *skipped {
            stripped.push(tok.clone());
        } else {
            active.push(tok.clone());
        }
    }
    (active, stripped)
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Pragma {
    line: u32,
    rules: Vec<String>,
    justified: bool,
}

fn parse_pragmas(comments: &[Comment]) -> (Vec<Pragma>, Vec<(u32, String)>) {
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    for comment in comments {
        let Some(at) = comment.text.find("bft-lint:") else {
            continue;
        };
        let rest = comment.text[at + "bft-lint:".len()..].trim();
        let Some(inner) = rest
            .strip_prefix("allow")
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('('))
            .and_then(|s| s.split_once(')'))
        else {
            malformed.push((
                comment.line,
                "malformed pragma; expected `bft-lint: allow(<rule>) -- <reason>`".to_string(),
            ));
            continue;
        };
        let (rule_list, tail) = inner;
        let rules: Vec<String> = rule_list
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .collect();
        if rules.is_empty() || !unknown.is_empty() {
            malformed.push((
                comment.line,
                format!(
                    "pragma names unknown rule(s) {:?}; known rules: {:?}",
                    unknown, RULES
                ),
            ));
            continue;
        }
        let justified = tail
            .trim_start()
            .strip_prefix("--")
            .map(|reason| !reason.trim().is_empty())
            .unwrap_or(false);
        pragmas.push(Pragma {
            line: comment.line,
            rules,
            justified,
        });
    }
    (pragmas, malformed)
}

fn apply_pragmas(
    file: &str,
    comments: &[Comment],
    findings: Vec<Finding>,
    snippet: &dyn Fn(u32) -> String,
    executed: &[&'static str],
) -> Vec<Finding> {
    let (pragmas, malformed) = parse_pragmas(comments);
    let mut used = vec![false; pragmas.len()];
    let mut out: Vec<Finding> = Vec::new();
    'next: for fnd in findings {
        for (pi, p) in pragmas.iter().enumerate() {
            if p.justified
                && (p.line == fnd.line || p.line + 1 == fnd.line)
                && p.rules.iter().any(|r| r == fnd.rule)
            {
                used[pi] = true;
                continue 'next;
            }
        }
        out.push(fnd);
    }
    for (pi, pragma) in pragmas.iter().enumerate() {
        if !pragma.justified {
            out.push(Finding {
                file: file.to_string(),
                line: pragma.line,
                rule: RULE_PRAGMA,
                message: format!(
                    "allow({}) pragma without a `-- <reason>` justification suppresses nothing",
                    pragma.rules.join(", ")
                ),
                snippet: snippet(pragma.line),
            });
        } else if !used[pi] && pragma.rules.iter().all(|r| executed.iter().any(|e| e == r)) {
            out.push(Finding {
                file: file.to_string(),
                line: pragma.line,
                rule: RULE_PRAGMA,
                message: format!(
                    "stale pragma: allow({}) suppresses no findings — the code it excused \
                     is fixed or gone, remove the pragma",
                    pragma.rules.join(", ")
                ),
                snippet: snippet(pragma.line),
            });
        }
    }
    for (line, message) in malformed {
        out.push(Finding {
            file: file.to_string(),
            line,
            rule: RULE_PRAGMA,
            message,
            snippet: snippet(line),
        });
    }
    out.sort_by_key(|fnd| (fnd.line, fnd.rule));
    out
}
