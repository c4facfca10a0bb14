//! Phase 1 of the analyzer: a lightweight, cross-file *item model*.
//!
//! The token rules of PR 4 see one file at a time, so they cannot know
//! that a `Msg` variant has no dispatch arm, that a timer is armed but
//! never handled, or that `crates/core` quietly leaks a dependency on
//! the simulator's engine types. This module parses every workspace
//! file (with the same hand-rolled lexer — still dependency-free) into
//! just enough structure for those questions:
//!
//! - enums with their variants (`Msg`, `TracePhase`, `Violation`,
//!   `Counter` are the ones the rules care about),
//! - functions with their body token ranges (so rules can scan call
//!   sites, match arms, and literal references per function),
//! - `impl` blocks (so `impl Display for Violation` can be excluded
//!   from "is this variant ever constructed?"),
//! - `const` items (timer tokens), and
//! - flattened `use` edges (the layering rule's raw material).
//!
//! The extractor is deliberately *lexical*: it never fails, but it
//! records whether the file's delimiters balanced (`balanced`) so a
//! self-check test can assert the model round-trips the real workspace
//! without falling off the rails.

use crate::lexer::{Comment, Kind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One enum variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant's declaration.
    pub line: u32,
    /// True when the variant carries a `#[cfg(test)]` attribute —
    /// test-only scaffolding exempt from coverage rules.
    pub cfg_test: bool,
}

/// An `enum` item.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variants in declaration order.
    pub variants: Vec<Variant>,
    /// Token range of the enum body, inclusive of both braces.
    pub body: (usize, usize),
}

impl EnumDef {
    /// Looks up a variant by name.
    pub fn variant(&self, name: &str) -> Option<&Variant> {
        self.variants.iter().find(|v| v.name == name)
    }
}

/// A `fn` item (free function, method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, inclusive of both braces. `None` for
    /// bodiless trait signatures.
    pub body: Option<(usize, usize)>,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Last path segment of the implemented trait (`Display` for
    /// `impl fmt::Display for Violation`), or `None` for inherent
    /// impls.
    pub trait_name: Option<String>,
    /// First path segment of the implementing type.
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token range of the impl body, inclusive of both braces.
    pub body: (usize, usize),
}

/// A `const` item.
#[derive(Debug, Clone)]
pub struct ConstDef {
    /// Constant name.
    pub name: String,
    /// 1-based line.
    pub line: u32,
}

/// One flattened `use` leaf: `use a::b::{c, d::e}` yields
/// `[a, b, c]` and `[a, b, d, e]`.
#[derive(Debug, Clone)]
pub struct UseEdge {
    /// Path segments, aliases resolved to the *original* item name.
    pub path: Vec<String>,
    /// 1-based line of the leaf segment.
    pub line: u32,
}

/// The item model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The analyzed token stream (`#[cfg(test)]` items stripped for
    /// `src/` files, kept verbatim for test files).
    pub tokens: Vec<Token>,
    /// Comments, for the pragma engine.
    pub comments: Vec<Comment>,
    /// Source lines, for finding snippets.
    pub lines: Vec<String>,
    /// Enum items.
    pub enums: Vec<EnumDef>,
    /// Function items.
    pub fns: Vec<FnDef>,
    /// Impl blocks.
    pub impls: Vec<ImplDef>,
    /// Const items.
    pub consts: Vec<ConstDef>,
    /// Flattened use edges.
    pub uses: Vec<UseEdge>,
    /// Tokens of `#[cfg(test)]` regions stripped from `tokens` (empty
    /// for test files, whose `tokens` are kept verbatim). Used by the
    /// test-reference side of invariant-coverage.
    pub cfg_test_tokens: Vec<Token>,
    /// Whether every `{`/`(`/`[` matched during extraction. A false
    /// value means the lexical model is unreliable for this file.
    pub balanced: bool,
    /// True when the file lives under a `tests/` directory (test files
    /// feed only the test-reference checks, never the rules).
    pub is_test: bool,
}

impl FileModel {
    /// Builds the model for one file. `tokens` must already have
    /// `#[cfg(test)]` regions stripped where appropriate.
    pub fn build(
        path: &str,
        source: &str,
        tokens: Vec<Token>,
        comments: Vec<Comment>,
    ) -> FileModel {
        let mut model = FileModel {
            path: path.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            comments,
            is_test: path.contains("/tests/") || path.starts_with("tests/"),
            balanced: check_balance(&tokens),
            ..FileModel::default()
        };
        extract_items(&tokens, &mut model);
        model.tokens = tokens;
        model
    }

    /// The trimmed source line, for finding snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }

    /// Looks up an enum by name.
    pub fn enum_def(&self, name: &str) -> Option<&EnumDef> {
        self.enums.iter().find(|e| e.name == name)
    }

    /// All `Enum::Variant` path references in the file, as
    /// `(variant name, line, token index of the variant ident)`.
    pub fn variant_refs(&self, enum_name: &str) -> Vec<(String, u32, usize)> {
        variant_refs_in(&self.tokens, enum_name)
    }

    /// The distinct variant names referenced as `Enum::Variant`.
    pub fn variant_ref_names(&self, enum_name: &str) -> BTreeSet<String> {
        self.variant_refs(enum_name)
            .into_iter()
            .map(|(name, _, _)| name)
            .collect()
    }

    /// The functions whose body contains token index `idx`.
    /// (Innermost last, but rules only care about membership.)
    pub fn enclosing_fns(&self, idx: usize) -> Vec<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(a, b)| a <= idx && idx <= b))
            .collect()
    }

    /// Token index ranges covered by `impl <trait> for <type>` blocks
    /// matching the given trait/type names.
    pub fn impl_ranges(&self, trait_name: &str, type_name: &str) -> Vec<(usize, usize)> {
        self.impls
            .iter()
            .filter(|im| im.type_name == type_name && im.trait_name.as_deref() == Some(trait_name))
            .map(|im| im.body)
            .collect()
    }
}

/// The assembled model of every analyzed file — phase 2's input.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// All file models, sorted by path.
    pub files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Looks up a file by exact workspace-relative path.
    pub fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Source files (non-test) whose path starts with `prefix`.
    pub fn src_files<'m>(&'m self, prefix: &'m str) -> impl Iterator<Item = &'m FileModel> {
        self.files
            .iter()
            .filter(move |f| !f.is_test && f.path.starts_with(prefix))
    }

    /// Test files across the whole workspace.
    pub fn test_files(&self) -> impl Iterator<Item = &FileModel> {
        self.files.iter().filter(|f| f.is_test)
    }
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

fn check_balance(toks: &[Token]) -> bool {
    let mut stack: Vec<&str> = Vec::new();
    for tok in toks {
        match tok.text.as_str() {
            "{" => stack.push("}"),
            "(" => stack.push(")"),
            "[" => stack.push("]"),
            "}" | ")" | "]" if stack.pop() != Some(tok.text.as_str()) => {
                return false;
            }
            _ => {}
        }
    }
    stack.is_empty()
}

/// Index of the token matching the opener at `open`. Returns the last
/// index if unbalanced.
pub fn matching(toks: &[Token], open: usize, open_text: &str, close_text: &str) -> usize {
    let mut depth = 0usize;
    for (j, tok) in toks.iter().enumerate().skip(open) {
        if tok.text == open_text {
            depth += 1;
        } else if tok.text == close_text {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Finds the `{` opening an item body, scanning from `start` and
/// skipping over parenthesized/bracketed groups (parameter lists,
/// where-clause bounds). Stops at a top-level `;` (bodiless item).
fn find_body_open(toks: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

fn extract_items(toks: &[Token], model: &mut FileModel) {
    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        if tok.kind != Kind::Ident {
            i += 1;
            continue;
        }
        match tok.text.as_str() {
            "enum" if is_item_keyword(toks, i) => {
                if let Some(def) = parse_enum(toks, i) {
                    i = def.body.1 + 1;
                    model.enums.push(def);
                    continue;
                }
            }
            "fn" if toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident) => {
                let name = toks[i + 1].text.clone();
                let body = find_body_open(toks, i + 2).map(|open| {
                    let close = matching(toks, open, "{", "}");
                    (open, close)
                });
                model.fns.push(FnDef {
                    name,
                    line: tok.line,
                    body,
                });
                // Do not skip the body: nested fns are items too.
            }
            // `*const T` and `const` in fn qualifiers are filtered by
            // requiring `NAME :` after the keyword.
            "const"
                if is_item_keyword(toks, i)
                    && toks.get(i + 1).is_some_and(|t| t.kind == Kind::Ident)
                    && toks.get(i + 2).is_some_and(|t| t.text == ":") =>
            {
                model.consts.push(ConstDef {
                    name: toks[i + 1].text.clone(),
                    line: toks[i + 1].line,
                });
            }
            "impl" => {
                if let Some(def) = parse_impl(toks, i) {
                    model.impls.push(def);
                    // Do not skip the body: it holds fns and consts.
                }
            }
            "use" if is_item_keyword(toks, i) => {
                let consumed = parse_use(toks, i + 1, &mut model.uses);
                i = consumed;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
}

/// True when the keyword at `i` starts an item (not `.const`, a macro
/// fragment, or a path segment).
fn is_item_keyword(toks: &[Token], i: usize) -> bool {
    i == 0 || !matches!(toks[i - 1].text.as_str(), "." | "::" | "*" | "&")
}

fn parse_enum(toks: &[Token], kw: usize) -> Option<EnumDef> {
    let name_tok = toks.get(kw + 1)?;
    if name_tok.kind != Kind::Ident {
        return None;
    }
    let open = find_body_open(toks, kw + 2)?;
    let close = matching(toks, open, "{", "}");
    let mut variants = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Skip attributes on the variant, noting a `#[cfg(test)]` gate.
        let mut cfg_test = false;
        while j < close && toks[j].text == "#" && toks.get(j + 1).is_some_and(|t| t.text == "[") {
            let attr_close = matching(toks, j + 1, "[", "]");
            let attr = &toks[j + 2..attr_close.min(toks.len())];
            if attr.iter().any(|t| t.text == "cfg") && attr.iter().any(|t| t.text == "test") {
                cfg_test = true;
            }
            j = attr_close + 1;
        }
        if j >= close {
            break;
        }
        if toks[j].kind == Kind::Ident {
            variants.push(Variant {
                name: toks[j].text.clone(),
                line: toks[j].line,
                cfg_test,
            });
        }
        // Advance to the comma ending this variant (skipping payload
        // groups), then past it.
        let mut depth = 0i32;
        while j < close {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    Some(EnumDef {
        name: name_tok.text.clone(),
        line: toks[kw].line,
        variants,
        body: (open, close),
    })
}

fn parse_impl(toks: &[Token], kw: usize) -> Option<ImplDef> {
    let open = find_body_open(toks, kw + 1)?;
    let close = matching(toks, open, "{", "}");
    let header: &[Token] = &toks[kw + 1..open];
    // Split on a top-level `for` (generic params may nest one).
    let mut depth = 0i32;
    let mut for_at = None;
    for (j, tok) in header.iter().enumerate() {
        match tok.text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "for" if depth <= 0 && tok.kind == Kind::Ident => {
                for_at = Some(j);
                break;
            }
            _ => {}
        }
    }
    let (trait_part, type_part) = match for_at {
        Some(at) => (&header[..at], &header[at + 1..]),
        None => (&header[..0], header),
    };
    // Trait name: the last ident of the trait path before any `<`.
    let trait_name = trait_part
        .iter()
        .take_while(|t| t.text != "<")
        .filter(|t| t.kind == Kind::Ident)
        .last()
        .map(|t| t.text.clone());
    // Type name: the first ident after skipping leading `&`/lifetimes/
    // generic-parameter groups.
    let mut k = 0usize;
    while k < type_part.len() && type_part[k].text == "<" {
        // Skip a leading generic group (rare: `impl<T> <T as X>::Y`).
        let mut d = 0i32;
        while k < type_part.len() {
            match type_part[k].text.as_str() {
                "<" => d += 1,
                ">" => d -= 1,
                _ => {}
            }
            k += 1;
            if d == 0 {
                break;
            }
        }
    }
    let type_name = type_part
        .iter()
        .skip(k)
        .find(|t| t.kind == Kind::Ident)
        .map(|t| t.text.clone())?;
    Some(ImplDef {
        trait_name,
        type_name,
        line: toks[kw].line,
        body: (open, close),
    })
}

/// Parses a `use` tree starting after the keyword; returns the index
/// just past the terminating `;`.
fn parse_use(toks: &[Token], start: usize, out: &mut Vec<UseEdge>) -> usize {
    fn walk(toks: &[Token], mut j: usize, prefix: &[String], out: &mut Vec<UseEdge>) -> usize {
        let mut path: Vec<String> = prefix.to_vec();
        loop {
            let Some(tok) = toks.get(j) else { return j };
            match tok.text.as_str() {
                "{" => {
                    let close = matching(toks, j, "{", "}");
                    let mut k = j + 1;
                    while k < close {
                        k = walk(toks, k, &path, out);
                        // Skip the comma between group entries.
                        if toks.get(k).is_some_and(|t| t.text == ",") {
                            k += 1;
                        }
                    }
                    return close + 1;
                }
                "::" => j += 1,
                ";" | "," | "}" => {
                    if !path.is_empty() && path.len() > prefix.len() {
                        out.push(UseEdge {
                            path,
                            line: toks[j.saturating_sub(1)].line,
                        });
                    }
                    return j;
                }
                "as" => {
                    // Alias: keep the original name, skip the alias.
                    j += 2;
                }
                "*" => {
                    path.push("*".to_string());
                    j += 1;
                }
                _ if tok.kind == Kind::Ident => {
                    path.push(tok.text.clone());
                    j += 1;
                }
                _ => return j + 1,
            }
        }
    }
    let mut j = walk(toks, start, &[], out);
    // Consume through the `;`.
    while j < toks.len() && toks[j].text != ";" {
        j += 1;
    }
    j + 1
}

// ---------------------------------------------------------------------
// Shared scanning helpers for the cross-file rules
// ---------------------------------------------------------------------

/// All `Enum::Variant` path references in a token stream, as
/// `(variant name, line, token index of the variant ident)`.
pub fn variant_refs_in(toks: &[Token], enum_name: &str) -> Vec<(String, u32, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind == Kind::Ident
            && toks[i].text == enum_name
            && toks[i + 1].text == "::"
            && toks[i + 2].kind == Kind::Ident
        {
            out.push((toks[i + 2].text.clone(), toks[i + 2].line, i + 2));
        }
    }
    out
}

/// Token index ranges of the arguments of every call to `callee`
/// (`callee(...)` or `recv.callee(...)`), exclusive of the parens.
pub fn call_arg_ranges(toks: &[Token], callee: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == Kind::Ident
            && toks[i].text == callee
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            let close = matching(toks, i + 1, "(", ")");
            out.push((i + 2, close));
        }
    }
    out
}

/// Splits a call-argument token range into top-level argument
/// sub-ranges (split on depth-0 commas).
pub fn split_args(toks: &[Token], range: (usize, usize)) -> Vec<(usize, usize)> {
    let (start, end) = range;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    let mut j = start;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((arg_start, j));
                arg_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if arg_start < end {
        out.push((arg_start, end));
    }
    out
}

/// If the tokens in `range` begin with `Head::Tail`, returns `Tail`.
pub fn leading_path_tail(toks: &[Token], range: (usize, usize), head: &str) -> Option<String> {
    let (start, end) = range;
    if end.saturating_sub(start) >= 3
        && toks[start].kind == Kind::Ident
        && toks[start].text == head
        && toks[start + 1].text == "::"
        && toks[start + 2].kind == Kind::Ident
    {
        return Some(toks[start + 2].text.clone());
    }
    None
}

/// The names called inside a token range: idents directly followed by
/// `(`, excluding control-flow keywords.
pub fn called_names(toks: &[Token], range: (usize, usize)) -> BTreeSet<String> {
    const NOT_CALLS: &[&str] = &[
        "if", "while", "for", "match", "return", "fn", "loop", "in", "let", "move",
    ];
    let mut out = BTreeSet::new();
    for j in range.0..range.1.min(toks.len()) {
        if toks[j].kind == Kind::Ident
            && !NOT_CALLS.contains(&toks[j].text.as_str())
            && toks.get(j + 1).is_some_and(|t| t.text == "(")
        {
            out.insert(toks[j].text.clone());
        }
    }
    out
}

/// Per-function map of `fn name -> set of `Enum::Variant` names the
/// body mentions`, unioned across same-named functions (conservative).
pub fn fn_variant_mentions(
    file: &FileModel,
    enum_name: &str,
) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, _, idx) in file.variant_refs(enum_name) {
        for f in file.enclosing_fns(idx) {
            out.entry(f.name.clone()).or_default().insert(name.clone());
        }
    }
    out
}
