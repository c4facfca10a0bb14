//! Rule: quorum-math — thresholds come from `Quorums`, nowhere else.
//!
//! Every quorum threshold (`2f+1`, `3f+1`, `f+1`, and participation
//! bounds like `n - f`) must come from `bft_core::types::Quorums`;
//! inline re-derivations are where off-by-one safety bugs hide.

use crate::lexer::{Kind, Token};
use crate::{Finding, RULE_QUORUM};

pub(crate) fn run(
    file: &str,
    toks: &[Token],
    snippet: &dyn Fn(u32) -> String,
    findings: &mut Vec<Finding>,
) {
    let num_is = |tok: &Token, value: &[&str]| -> bool {
        if tok.kind != Kind::Num {
            return false;
        }
        let digits: String = tok
            .text
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        value.contains(&digits.as_str())
    };

    let mut hit = |line: u32, shape: &str| {
        findings.push(Finding {
            file: file.to_string(),
            line,
            rule: RULE_QUORUM,
            message: format!(
                "inline quorum arithmetic ({shape}); thresholds must come from \
                 `bft_core::types::Quorums`"
            ),
            snippet: snippet(line),
        });
    };

    // `2 * f…`, `3 * f…` and `1 + f…` (forward forms).
    for i in 0..toks.len() {
        if num_is(&toks[i], &["2", "3"])
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("*")
            && f_path_forward(toks, i + 2).is_some()
        {
            hit(toks[i].line, "k * f");
        }
        if num_is(&toks[i], &["1"])
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("+")
            && f_path_forward(toks, i + 2).is_some()
        {
            hit(toks[i].line, "1 + f");
        }
    }

    // Backward forms anchored on a terminal `f`: `f… * k`, `f… + 1`,
    // allowing a call `()` and `as <ty>` casts in between.
    for i in 0..toks.len() {
        if !(toks[i].kind == Kind::Ident && toks[i].text == "f") {
            continue;
        }
        // Terminal: not a path segment (`f.something`).
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some(".") {
            continue;
        }
        let mut end = i;
        if toks.get(end + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(end + 2).map(|t| t.text.as_str()) == Some(")")
        {
            end += 2;
        }
        while toks.get(end + 1).map(|t| t.text.as_str()) == Some("as")
            && toks.get(end + 2).map(|t| t.kind) == Some(Kind::Ident)
        {
            end += 2;
        }
        let next = toks.get(end + 1).map(|t| t.text.as_str());
        if next == Some("+") && toks.get(end + 2).is_some_and(|t| num_is(t, &["1"])) {
            hit(toks[i].line, "f + 1");
        }
        if next == Some("*") && toks.get(end + 2).is_some_and(|t| num_is(t, &["2", "3"])) {
            hit(toks[i].line, "f * k");
        }
    }

    // `n… - f…`: a participation threshold derived by hand. Whether a
    // threshold is safe turns on how it intersects the 2f+1 quorums —
    // `n - f` voters can meet a view-change quorum in a single (possibly
    // Byzantine) replica — so the argument belongs beside the one
    // `Quorums` method that names the threshold, and any `n - f` outside
    // `Quorums` is a finding. Anchored on a terminal `n` (not a path segment),
    // allowing a call `()` and `as <ty>` casts before the `-`.
    for i in 0..toks.len() {
        if !(toks[i].kind == Kind::Ident && toks[i].text == "n") {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some(".") {
            continue;
        }
        let mut end = i;
        if toks.get(end + 1).map(|t| t.text.as_str()) == Some("(")
            && toks.get(end + 2).map(|t| t.text.as_str()) == Some(")")
        {
            end += 2;
        }
        while toks.get(end + 1).map(|t| t.text.as_str()) == Some("as")
            && toks.get(end + 2).map(|t| t.kind) == Some(Kind::Ident)
        {
            end += 2;
        }
        if toks.get(end + 1).map(|t| t.text.as_str()) == Some("-")
            && f_path_forward(toks, end + 2).is_some()
        {
            hit(toks[i].line, "n - f");
        }
    }
}

/// If the tokens starting at `start` form a dotted path whose terminal
/// identifier is `f` (e.g. `f`, `self.f`, `cfg.f()`), returns the index
/// of that terminal token.
fn f_path_forward(toks: &[Token], start: usize) -> Option<usize> {
    let mut k = start;
    loop {
        let tok = toks.get(k)?;
        if tok.kind != Kind::Ident {
            return None;
        }
        if toks.get(k + 1).map(|t| t.text.as_str()) == Some(".") {
            k += 2;
            continue;
        }
        return if tok.text == "f" { Some(k) } else { None };
    }
}
