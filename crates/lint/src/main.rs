//! CLI entry point: `cargo run -p bft-lint -- --check`
//!
//! Scans every `src/` tree in the workspace (plus `tests/` trees for
//! the model's test-reference checks), prints each finding, and (with
//! `--check`) exits nonzero if any unjustified finding remains.
//!
//! Output formats: `text` (default, `file:line: [rule] message` plus
//! the offending snippet), `json` (machine-readable, hand-rolled — the
//! crate stays dependency-free), and `github` (`::error …` workflow
//! commands so findings annotate PR diffs inline).

#![forbid(unsafe_code)]

use bft_lint::{Finding, Phase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut check = false;
    let mut root: Option<PathBuf> = None;
    let mut phase = Phase::All;
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--phase" => match args.next().as_deref() {
                Some("token") => phase = Phase::Token,
                Some("model") => phase = Phase::Model,
                Some("all") => phase = Phase::All,
                other => {
                    eprintln!("--phase must be token, model, or all (got {other:?})");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!("--format must be text, json, or github (got {other:?})");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("bft-lint: protocol-aware static analysis");
                println!();
                println!(
                    "USAGE: bft-lint [--check] [--root <workspace>] [--phase <p>] [--format <f>]"
                );
                println!();
                println!("  --check    exit nonzero if any unjustified finding remains");
                println!("  --root     workspace root (default: auto-detected)");
                println!("  --phase    token | model | all (default: all)");
                println!("             token: per-file lexical rules");
                println!("             model: cross-file rules over the item model");
                println!("  --format   text | json | github (default: text)");
                println!();
                println!("Token rules: {}", bft_lint::TOKEN_RULES.join(", "));
                println!("Model rules: {}", bft_lint::MODEL_RULES.join(", "));
                println!("Suppress with: // bft-lint: allow(<rule>) -- <reason>");
                println!("(a justified pragma that suppresses nothing is itself a finding)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(root) => root,
        None => {
            eprintln!("could not locate the workspace root; pass --root");
            return ExitCode::from(2);
        }
    };

    let findings = match bft_lint::check_workspace(&root, phase) {
        Ok(findings) => findings,
        Err(err) => {
            eprintln!("bft-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Text => {
            for finding in &findings {
                println!("{finding}");
            }
            if findings.is_empty() {
                println!("bft-lint: clean ({} rules)", bft_lint::RULES.len());
            } else {
                println!("bft-lint: {} finding(s)", findings.len());
            }
        }
        Format::Json => println!("{}", to_json(&findings)),
        Format::Github => {
            for finding in &findings {
                println!(
                    "::error file={},line={},title=bft-lint [{}]::{}",
                    finding.file,
                    finding.line,
                    finding.rule,
                    github_escape(&finding.message)
                );
            }
            eprintln!("bft-lint: {} finding(s)", findings.len());
        }
    }

    if findings.is_empty() || !check {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Serializes findings as JSON by hand; the crate is deliberately
/// dependency-free.
fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, fnd) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \
             \"snippet\": \"{}\"}}",
            json_escape(&fnd.file),
            fnd.line,
            json_escape(fnd.rule),
            json_escape(&fnd.message),
            json_escape(&fnd.snippet)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// GitHub workflow-command escaping for the message portion.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Walks up from the current directory looking for a `Cargo.toml` that
/// declares a `[workspace]`; falls back to the location this crate was
/// built from (two levels above its manifest).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if is_workspace_root(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2)?;
    is_workspace_root(baked).then(|| baked.to_path_buf())
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|s| s.contains("[workspace]"))
        .unwrap_or(false)
}
