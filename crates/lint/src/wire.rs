//! Wire-strictness lint for the JSON protocol layer.
//!
//! Every message parsed off the wire must reject unknown fields by name
//! — that is what catches the `objctives`-typo class at the sender
//! instead of as a silent default at the receiver. The service declares
//! its messages in a `wire!` schema whose generated decoders do this by
//! construction; this lint keeps hand-written decoders in the wire files
//! (`protocol.rs`, `journal.rs`, `wire.rs`) to the same rule. Two lints
//! enforce the pattern:
//!
//! - `WIRE_STRICT` — a string-literal match arm (or an arm-less
//!   `parse`/`from_value` body) extracts fields without calling
//!   `reject_unknown(..)` and without delegating to another
//!   `::from_value`/`::parse`. Arms that neither read fields nor
//!   delegate still need the rejection call: `{"op":"stats","x":1}`
//!   must be an error, not a stats request.
//! - `WIRE_FIELD` — a field key is read (via the accessor helpers or
//!   `.get("key")`) but does not appear in any of the arm's
//!   `reject_unknown` known-field lists, so a message *using* the
//!   field would be rejected as unknown — the lists and the reads have
//!   drifted apart.

use crate::lexer::{Tok, TokKind};
use crate::source::{Diagnostic, SourceFile};

/// Field-accessor helpers and the 0-based argument index holding the
/// key literal. `u` is the per-arm closure alias for `get_u64` used in
/// `protocol.rs`.
const ACCESSORS: &[(&str, usize)] = &[
    ("get_str", 1),
    ("get_u64", 1),
    ("get_f64", 1),
    ("get_bool", 1),
    ("u", 0),
    ("get", 0),
    ("u64_array", 2),
    ("opt_u64_array", 2),
    ("f64_array", 2),
];

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("parse") || t.is_ident("from_value"))
        {
            if let Some((start, end)) = body_range(toks, i + 2) {
                check_parse_fn(file, &toks[i + 1], start, end, out);
                i = end;
                continue;
            }
        }
        i += 1;
    }
}

fn check_parse_fn(
    file: &SourceFile,
    name_tok: &Tok,
    start: usize,
    end: usize,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.toks;
    // Only fns that demonstrably handle JSON objects are in scope: a
    // plain string-enum `parse` (match on `&str`, no field accessors,
    // no `reject_unknown`) has no unknown *fields* to reject.
    let json_ish = (start..end).any(|i| {
        let t = &toks[i];
        (t.is_ident("reject_unknown") || ACCESSORS.iter().any(|(n, _)| t.is_ident(n)))
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
    });
    if !json_ish {
        return;
    }
    let arms = collect_arms(toks, start, end);
    if arms.is_empty() {
        // Arm-less extractor: the whole body is one region.
        analyze_region(
            file,
            &format!("fn {}", name_tok.text),
            name_tok.line,
            start,
            end,
            out,
        );
        return;
    }
    for arm in arms {
        analyze_region(file, &arm.label, arm.line, arm.start, arm.end, out);
    }
}

struct Arm {
    label: String,
    line: u32,
    /// Token range of the arm body (after `=>`).
    start: usize,
    end: usize,
}

/// Collect `"lit" => body` (and `"a" | "b" => body`) arms anywhere in
/// the region. A braced body runs to its matching `}`; an unbraced one
/// to the `,` (or `}`) at the arm's own depth.
fn collect_arms(toks: &[Tok], start: usize, end: usize) -> Vec<Arm> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].kind == TokKind::Str {
            let first = i;
            let mut labels = vec![toks[i].text.clone()];
            let mut j = i + 1;
            while j + 1 < end && toks[j].is_punct('|') && toks[j + 1].kind == TokKind::Str {
                labels.push(toks[j + 1].text.clone());
                j += 2;
            }
            if j + 1 < end && toks[j].is_punct('=') && toks[j + 1].is_punct('>') {
                let body_start = j + 2;
                let body_end = arm_body_end(toks, body_start, end);
                out.push(Arm {
                    label: format!("arm \"{}\"", labels.join("\" | \"")),
                    line: toks[first].line,
                    start: body_start,
                    end: body_end,
                });
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn arm_body_end(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut i = start;
    let mut depth = 0i32;
    while i < end {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                return i;
            }
            depth -= 1;
            if depth == 0 && t.is_punct('}') && toks[start].is_punct('{') {
                return i + 1;
            }
        } else if t.is_punct(',') && depth == 0 {
            return i;
        }
        i += 1;
    }
    end
}

fn analyze_region(
    file: &SourceFile,
    label: &str,
    line: u32,
    start: usize,
    end: usize,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &file.toks;
    // Known-field lists: every string literal inside the `&[..]` args
    // of `reject_unknown(..)` calls in the region.
    let mut known: Vec<String> = Vec::new();
    let mut has_reject = false;
    let mut has_delegation = false;
    // (key, line) of every accessor read.
    let mut accessed: Vec<(String, u32)> = Vec::new();

    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_ident("reject_unknown") && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            has_reject = true;
            let close = call_end(toks, i + 1, end);
            let mut bracket = 0i32;
            for tok in toks.iter().take(close).skip(i + 2) {
                if tok.is_punct('[') {
                    bracket += 1;
                } else if tok.is_punct(']') {
                    bracket -= 1;
                } else if bracket > 0 && tok.kind == TokKind::Str {
                    known.push(tok.text.clone());
                }
            }
            i = close;
            continue;
        }
        if (t.is_ident("from_value") || t.is_ident("parse"))
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            has_delegation = true;
        }
        if t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            if let Some(&(_, pos)) = ACCESSORS.iter().find(|(n, _)| t.is_ident(n)) {
                if let Some(key) = call_arg_str(toks, i + 1, end, pos) {
                    accessed.push((key, t.line));
                }
            }
        }
        i += 1;
    }

    if !has_reject {
        if !(has_delegation && accessed.is_empty()) {
            out.push(Diagnostic::new(
                &file.rel,
                line,
                "WIRE_STRICT",
                format!(
                    "{label} parses a wire message without `reject_unknown(..)` — unknown fields must be errors"
                ),
            ));
        }
        return;
    }
    for (key, key_line) in accessed {
        if !known.contains(&key) {
            out.push(Diagnostic::new(
                &file.rel,
                key_line,
                "WIRE_FIELD",
                format!(
                    "{label} reads field {key:?} but no `reject_unknown` known-field list names it"
                ),
            ));
        }
    }
}

/// Index one past the matching `)` of the `(` at `open`.
fn call_end(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].is_punct('(') || toks[i].is_punct('[') || toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct(')') || toks[i].is_punct(']') || toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// The string literal at 0-based top-level argument `pos` of the call
/// whose `(` is at `open`; `None` when that argument is not a literal.
fn call_arg_str(toks: &[Tok], open: usize, end: usize, pos: usize) -> Option<String> {
    let close = call_end(toks, open, end);
    let mut depth = 0i32;
    let mut arg = 0usize;
    let mut i = open + 1;
    let mut current: Option<String> = None;
    while i < close.saturating_sub(1) {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            if arg == pos {
                return current;
            }
            arg += 1;
            current = None;
        } else if depth == 0 && arg == pos && t.kind == TokKind::Str && current.is_none() {
            current = Some(t.text.clone());
        }
        i += 1;
    }
    if arg == pos {
        current
    } else {
        None
    }
}

/// Body `{..}` range of a fn whose signature starts at `i`.
fn body_range(toks: &[Tok], mut i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
            depth -= 1;
        } else if depth <= 0 && t.is_punct(';') {
            return None;
        } else if depth <= 0 && t.is_punct('{') {
            let start = i + 1;
            let mut b = 1i32;
            let mut j = start;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    b += 1;
                } else if toks[j].is_punct('}') {
                    b -= 1;
                    if b == 0 {
                        return Some((start, j));
                    }
                }
                j += 1;
            }
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_text("t.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn strict_arm_passes() {
        let src = r#"
fn parse(v: &Value) -> Result<R, E> {
    match get_str(v, "op")? {
        "load" => {
            reject_unknown(v, "load", &["op", "path", "data"])?;
            let path = get_str(v, "path")?;
            Ok(R::Load(path))
        }
        other => Err(unknown(other)),
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn missing_rejection_fires_on_the_arm_line() {
        let src = "fn parse(v: &V) -> R {\n    match get_str(v, \"op\")? {\n        \"stats\" => Ok(R::Stats),\n        _ => todo!(),\n    }\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, "WIRE_STRICT");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn accessed_key_missing_from_known_list_fires() {
        let src = r#"
fn parse(v: &V) -> R {
    match get_str(v, "op")? {
        "load" => {
            reject_unknown(v, "load", &["op", "path"])?;
            let data = get_str(v, "data")?;
            Ok(R::Load(data))
        }
        _ => todo!(),
    }
}
"#;
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, "WIRE_FIELD");
        assert!(d[0].message.contains("\"data\""));
    }

    #[test]
    fn pure_delegation_arm_is_fine() {
        let src = r#"
fn parse(v: &V) -> R {
    match get_str(v, "op")? {
        "submit" => Ok(R::Submit(JobRequest::from_value(v)?)),
        _ => todo!(),
    }
}
"#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn armless_extractor_without_rejection_fires() {
        let src = "fn from_value(v: &V) -> R {\n    let parts = get_u64(v, \"parts\")?;\n    Ok(R { parts })\n}\n";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, "WIRE_STRICT");
        assert_eq!(d[0].line, 1);
    }
}
