//! The lint rules and the per-file analysis context they run over.
//!
//! Every rule reports [`Finding`]s with a stable rule name, a file, a
//! 1-based line, and a message. Suppression is per-line and explicit:
//! a `// lint:allow(<rule>, <reason>)` comment on the offending line (or
//! directly above it) silences exactly one line's findings for that rule
//! — and the reason is mandatory, because an invariant exception without
//! a recorded justification is how invariants rot. Unused or reasonless
//! allows are themselves findings, so the escape hatch cannot drift.

use crate::config::AllocZone;
use crate::lexer::{Lexed, Tok, TokKind};

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule name (`panic`, `alloc`, `ordering`, `unsafe`,
    /// `wire-registry`, `dead-pub`, `allow-hygiene`).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `lint:allow(rule, reason)` escape, bound to the line of code
/// it covers.
#[derive(Debug)]
pub(crate) struct Allow {
    /// The rule name inside the parentheses.
    pub rule: String,
    /// The justification after the comma (may be empty — that is itself
    /// reported).
    pub reason: String,
    /// The line of the comment that carries the allow.
    pub comment_line: u32,
    /// The code line this allow covers.
    pub target_line: u32,
    /// Set when some finding was suppressed by this allow.
    pub used: std::cell::Cell<bool>,
}

/// A `fn` item's span in the token stream and the source.
#[derive(Debug)]
pub(crate) struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub tok_start: usize,
    /// Token index one past the body's closing brace.
    pub tok_end: usize,
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path.
    pub path: String,
    /// The token stream and comments.
    pub lexed: Lexed,
    /// Per-token flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// All `fn` items (including nested and test ones).
    pub(crate) fns: Vec<FnSpan>,
    /// Parsed `lint:allow` escapes.
    pub(crate) allows: Vec<Allow>,
}

impl FileCtx {
    /// Lexes and indexes one file.
    pub fn new(path: String, src: &str) -> Self {
        let lexed = crate::lexer::lex(src);
        let in_test = mark_cfg_test(&lexed.toks);
        let fns = find_fns(&lexed.toks);
        let allows = parse_allows(&lexed);
        Self {
            path,
            lexed,
            in_test,
            fns,
            allows,
        }
    }

    /// Reports `finding` unless a matching allow covers its line (in
    /// which case the allow is marked used).
    fn push(&self, out: &mut Vec<Finding>, rule: &str, line: u32, message: String) {
        for allow in &self.allows {
            if allow.rule == rule && allow.target_line == line && !allow.reason.is_empty() {
                allow.used.set(true);
                return;
            }
        }
        out.push(Finding {
            file: self.path.clone(),
            line,
            rule: rule.to_string(),
            message,
        });
    }

    /// True when `line` (or an adjacent preceding comment run, up to
    /// `window` non-blank lines back, never crossing a `fn` boundary)
    /// carries a comment containing `needle`.
    fn has_justifying_comment(&self, line: u32, needle: &str) -> bool {
        if self
            .lexed
            .comments_on_line(line)
            .any(|c| c.text.contains(needle))
        {
            return true;
        }
        let fn_lines: Vec<u32> = self
            .fns
            .iter()
            .filter_map(|f| self.lexed.toks.get(f.tok_start).map(|t| t.line))
            .collect();
        let mut l = line;
        for _ in 0..8 {
            if l <= 1 {
                break;
            }
            l -= 1;
            if fn_lines.contains(&l) {
                break;
            }
            let has_code = self.lexed.line_has_code(l);
            let has_comment = self.lexed.line_has_comment(l);
            if !has_code && !has_comment {
                break; // blank line: paragraph boundary
            }
            if self
                .lexed
                .comments_on_line(l)
                .any(|c| c.text.contains(needle))
            {
                return true;
            }
        }
        false
    }
}

/// Marks tokens inside `#[cfg(test)]` items (mods, fns, impls): the
/// production-code rules skip them — tests are allowed to panic.
fn mark_cfg_test(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let attr = toks[i].is_punct(b'#')
            && toks[i + 1].is_punct(b'[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct(b'(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(b')')
            && toks[i + 6].is_punct(b']');
        if !attr {
            i += 1;
            continue;
        }
        // Skip the attributed item: to the matching `}` of its first
        // brace, or to a `;` if one comes first (e.g. `use` gated items).
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut opened = false;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'{') => {
                    depth += 1;
                    opened = true;
                }
                TokKind::Punct(b'}') => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokKind::Punct(b';') if !opened => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for slot in mask.iter_mut().take(j).skip(i) {
            *slot = true;
        }
        i = j;
    }
    mask
}

/// Finds every `fn name … { … }` span (body brace-matched).
fn find_fns(toks: &[Tok]) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            // Body: first `{` after the signature, brace-matched. Trait
            // method *declarations* end in `;` before any `{` — skip.
            let mut j = i + 2;
            let mut body_start = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'{') => {
                        body_start = Some(j);
                        break;
                    }
                    TokKind::Punct(b';') => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(start) = body_start {
                let mut depth = 0usize;
                let mut k = start;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct(b'{') => depth += 1,
                        TokKind::Punct(b'}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                out.push(FnSpan {
                    name,
                    tok_start: i,
                    tok_end: (k + 1).min(toks.len()),
                });
            }
        }
        i += 1;
    }
    out
}

/// Extracts `lint:allow(rule, reason)` escapes from the comments. The
/// escape covers its own line when it trails code, otherwise the next
/// code-bearing line below the comment run.
fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    let max_line = lexed
        .toks
        .iter()
        .map(|t| t.line)
        .chain(lexed.comments.iter().map(|c| c.line_end))
        .max()
        .unwrap_or(0);
    for c in &lexed.comments {
        let Some((rule, reason)) = parse_allow_text(&c.text) else {
            continue;
        };
        let target_line = if lexed.line_has_code(c.line_start) {
            c.line_start
        } else {
            // First code line after the comment run.
            let mut l = c.line_end + 1;
            while l <= max_line && !lexed.line_has_code(l) {
                l += 1;
            }
            l
        };
        out.push(Allow {
            rule,
            reason,
            comment_line: c.line_start,
            target_line,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

/// Parses `lint:allow(rule, reason)` out of one comment's text.
fn parse_allow_text(text: &str) -> Option<(String, String)> {
    let start = text.find("lint:allow(")?;
    let body = &text[start + "lint:allow(".len()..];
    let end = body.rfind(')')?;
    let body = &body[..end];
    match body.split_once(',') {
        Some((rule, reason)) => Some((rule.trim().to_string(), reason.trim().to_string())),
        None => Some((body.trim().to_string(), String::new())),
    }
}

/// Identifiers that may legitimately precede `[` without forming an index
/// expression (array literals/types after a keyword).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "return", "break", "in", "as", "const", "static", "else", "match", "if", "while",
    "dyn", "move", "box", "for", "where", "impl", "type", "let", "use", "pub", "fn", "unsafe",
    "await", "yield",
];

/// Macro names whose invocation panics.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Rule `panic`: no panicking constructs in the zone file's non-test
/// code — `.unwrap()` / `.expect()`, panicking macros, slice indexing.
pub fn rule_panic(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        // `.unwrap(` / `.expect(`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct(b'.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'('))
        {
            ctx.push(
                out,
                "panic",
                t.line,
                format!(
                    ".{}() can panic in a panic-free zone; return a typed error \
                     or add `// lint:allow(panic, reason)`",
                    t.text
                ),
            );
        }
        // `panic!(`, `unreachable!(`, ...
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
        {
            ctx.push(
                out,
                "panic",
                t.line,
                format!(
                    "{}! panics in a panic-free zone; return a typed error \
                     or add `// lint:allow(panic, reason)`",
                    t.text
                ),
            );
        }
        // Slice/array indexing `expr[…]`: a `[` directly after an
        // identifier, `)`, or `]` is an index expression (keywords that
        // start array literals/types are excluded).
        if t.is_punct(b'[') && i > 0 {
            let prev = &toks[i - 1];
            let is_index = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct(b')') | TokKind::Punct(b']') => true,
                _ => false,
            };
            if is_index {
                ctx.push(
                    out,
                    "panic",
                    t.line,
                    format!(
                        "indexing `{}[…]` can panic on out-of-bounds; use .get()/\
                         split_at or add `// lint:allow(panic, reason)`",
                        prev.text
                    ),
                );
            }
        }
    }
}

/// Allocation constructs banned inside alloc-free functions, as
/// `(receiver-path, method)` pairs: `Some(path)` matches `path::method`,
/// `None` matches `.method(` calls.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("String", "new"),
    ("String", "from"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
];

const ALLOC_METHODS: &[&str] = &["to_vec", "collect", "clone", "to_string", "to_owned"];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Rule `alloc`: no allocation in the bodies of the zone's functions.
pub fn rule_alloc(ctx: &FileCtx, zone: &AllocZone, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.toks;
    let mut covered = vec![false; toks.len()];
    let mut seen_any = false;
    for f in &ctx.fns {
        if zone.functions.iter().any(|n| n == &f.name) {
            seen_any = true;
            for slot in covered.iter_mut().take(f.tok_end).skip(f.tok_start) {
                *slot = true;
            }
        }
    }
    if !seen_any {
        out.push(Finding {
            file: ctx.path.clone(),
            line: 1,
            rule: "alloc".into(),
            message: format!(
                "lint.toml lists alloc-free functions {:?} but none were found in this file \
                 (stale zone config?)",
                zone.functions
            ),
        });
        return;
    }
    for i in 0..toks.len() {
        if !covered[i] || ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `Type::method` constructors.
        if toks.get(i + 1).is_some_and(|a| a.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(b':'))
        {
            if let Some(m) = toks.get(i + 3) {
                if ALLOC_PATHS
                    .iter()
                    .any(|(p, me)| t.text == *p && m.text == *me)
                {
                    ctx.push(
                        out,
                        "alloc",
                        t.line,
                        format!(
                            "{}::{} allocates inside an alloc-free function; hoist it to \
                             construction/scratch or add `// lint:allow(alloc, reason)`",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `.method(` calls.
        if ALLOC_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].is_punct(b'.')
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct(b'(') || n.is_punct(b':'))
        {
            ctx.push(
                out,
                "alloc",
                t.line,
                format!(
                    ".{}() allocates inside an alloc-free function; reuse scratch \
                     buffers or add `// lint:allow(alloc, reason)`",
                    t.text
                ),
            );
        }
        // `vec![…]` / `format!(…)`.
        if ALLOC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'))
        {
            ctx.push(
                out,
                "alloc",
                t.line,
                format!(
                    "{}! allocates inside an alloc-free function; reuse scratch \
                     buffers or add `// lint:allow(alloc, reason)`",
                    t.text
                ),
            );
        }
    }
}

/// Atomic `Ordering` variants (the `cmp::Ordering` variants are distinct,
/// so sort comparators never trip this rule).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule `ordering`: every atomic `Ordering::X` use needs an adjacent
/// `// ordering:` comment saying why that ordering is sufficient.
pub fn rule_ordering(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.toks;
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(b':'))
            && toks
                .get(i + 3)
                .is_some_and(|v| ATOMIC_ORDERINGS.contains(&v.text.as_str()))
        {
            let variant = &toks[i + 3].text;
            if !ctx.has_justifying_comment(t.line, "ordering:") {
                ctx.push(
                    out,
                    "ordering",
                    t.line,
                    format!(
                        "Ordering::{variant} without an adjacent `// ordering:` comment \
                         justifying why this memory ordering is sufficient"
                    ),
                );
            }
        }
    }
}

/// Rule `unsafe`: every `unsafe` keyword needs an adjacent `// SAFETY:`
/// comment, and crate roots listed in lint.toml must forbid unsafe code
/// outright.
pub fn rule_unsafe(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.toks {
        if t.is_ident("unsafe") && !ctx.has_justifying_comment(t.line, "SAFETY:") {
            ctx.push(
                out,
                "unsafe",
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            );
        }
    }
}

/// Rule `unsafe` (confinement): `unsafe` may only appear in the files
/// lint.toml declares as the unsafe zone (`[unsafe] allowed_files`). In
/// every other file a `// SAFETY:` comment does not help — the fix is to
/// move the code into the zone or extend the zone deliberately.
pub fn rule_unsafe_confined(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for t in &ctx.lexed.toks {
        if t.is_ident("unsafe") {
            ctx.push(
                out,
                "unsafe",
                t.line,
                "`unsafe` outside the declared unsafe zone ([unsafe] allowed_files in \
                 lint.toml); move the code into the zone or extend the zone deliberately"
                    .to_string(),
            );
        }
    }
}

/// Checks that a crate-root file opens with `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.toks;
    let mut found = false;
    for i in 0..toks.len().saturating_sub(6) {
        if toks[i].is_punct(b'#')
            && toks[i + 1].is_punct(b'!')
            && toks[i + 2].is_punct(b'[')
            && toks[i + 3].is_ident("forbid")
            && toks[i + 4].is_punct(b'(')
            && toks[i + 5].is_ident("unsafe_code")
        {
            found = true;
            break;
        }
    }
    if !found {
        out.push(Finding {
            file: ctx.path.clone(),
            line: 1,
            rule: "unsafe".into(),
            message: "crate root is listed in lint.toml [unsafe] forbid_crate_roots but does \
                      not carry #![forbid(unsafe_code)]"
                .into(),
        });
    }
}

/// Reports allow-hygiene findings: reasonless allows, and allows that
/// suppressed nothing (for the rules that ran on this file).
pub fn rule_allow_hygiene(ctx: &FileCtx, active_rules: &[&str], out: &mut Vec<Finding>) {
    for allow in &ctx.allows {
        if !active_rules.contains(&allow.rule.as_str()) {
            continue;
        }
        if allow.reason.is_empty() {
            out.push(Finding {
                file: ctx.path.clone(),
                line: allow.comment_line,
                rule: "allow-hygiene".into(),
                message: format!(
                    "lint:allow({}) has no reason — escapes must record why the \
                     invariant does not apply",
                    allow.rule
                ),
            });
        } else if !allow.used.get() {
            out.push(Finding {
                file: ctx.path.clone(),
                line: allow.comment_line,
                rule: "allow-hygiene".into(),
                message: format!(
                    "unused lint:allow({}) — the line it covers no longer violates \
                     the rule; remove the escape",
                    allow.rule
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("test.rs".into(), src)
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let c =
            ctx("fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }");
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn fn_spans_cover_nested_bodies() {
        let c = ctx("fn outer() { fn inner() {} if x { y() } }\nfn other() {}");
        assert_eq!(c.fns.len(), 3);
        assert_eq!(c.fns[0].name, "outer");
        assert!(c.fns[0].tok_end > c.fns[1].tok_end, "outer encloses inner");
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let c = ctx("fn f() {\n    // lint:allow(panic, index is masked to table length)\n    let x = t[i];\n}");
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert!(c.allows[0].used.get());
        let mut hy = Vec::new();
        rule_allow_hygiene(&c, &["panic"], &mut hy);
        assert!(hy.is_empty(), "{hy:?}");
    }

    #[test]
    fn reasonless_allow_is_a_finding() {
        let c = ctx("fn f() {\n    let x = t[i]; // lint:allow(panic)\n}");
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        assert_eq!(out.len(), 1, "reasonless allow must not suppress: {out:?}");
        let mut hy = Vec::new();
        rule_allow_hygiene(&c, &["panic"], &mut hy);
        assert_eq!(hy.len(), 1, "{hy:?}");
        assert!(hy[0].message.contains("no reason"));
    }

    #[test]
    fn unused_allow_is_a_finding() {
        let c = ctx("fn f() {\n    // lint:allow(panic, stale reason)\n    let x = safe();\n}");
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        rule_allow_hygiene(&c, &["panic"], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("unused"));
    }

    #[test]
    fn indexing_heuristic_spares_types_attrs_and_macros() {
        let src = "fn f(a: [u8; 4], b: &[u8]) -> Vec<[u8; 2]> {\n\
                   #[derive(Debug)]\n\
                   struct X;\n\
                   let v = vec![0u8; 4];\n\
                   let w = &mut [1, 2];\n\
                   v\n}";
        let c = ctx(src);
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn indexing_is_flagged() {
        let c = ctx("fn f() { let x = buf[0]; let y = call()[1]; }");
        let mut out = Vec::new();
        rule_panic(&c, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn ordering_comment_windows() {
        let covered = "fn f() {\n\
            // ordering: relaxed — independent counter\n\
            c.fetch_add(1, Ordering::Relaxed);\n\
            d.load(Ordering::SeqCst); // ordering: gate flag\n\
        }";
        let c = ctx(covered);
        let mut out = Vec::new();
        rule_ordering(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let uncovered = "fn f() { c.fetch_add(1, Ordering::Relaxed); }";
        let c = ctx(uncovered);
        let mut out = Vec::new();
        rule_ordering(&c, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cmp_ordering_is_ignored() {
        let c = ctx("fn f() { match a.cmp(&b) { Ordering::Less => {} _ => {} } }");
        let mut out = Vec::new();
        rule_ordering(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn alloc_zone_scopes_to_named_functions() {
        let src = "fn build() -> Vec<u32> { Vec::new() }\n\
                   fn kernel(s: &mut S) { s.buf.push(1); let d = x.clone(); }";
        let c = ctx(src);
        let zone = AllocZone {
            path: "test.rs".into(),
            functions: vec!["kernel".into()],
        };
        let mut out = Vec::new();
        rule_alloc(&c, &zone, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("clone"));
    }

    #[test]
    fn stale_alloc_zone_is_reported() {
        let c = ctx("fn other() {}");
        let zone = AllocZone {
            path: "test.rs".into(),
            functions: vec!["gone".into()],
        };
        let mut out = Vec::new();
        rule_alloc(&c, &zone, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("stale"));
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let c = ctx("fn f() { unsafe { g() } }");
        let mut out = Vec::new();
        rule_unsafe(&c, &mut out);
        assert_eq!(out.len(), 1);

        let c = ctx("fn f() {\n    // SAFETY: g has no preconditions here\n    unsafe { g() }\n}");
        let mut out = Vec::new();
        rule_unsafe(&c, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn forbid_attr_detection() {
        let c = ctx("#![forbid(unsafe_code)]\nfn f() {}");
        let mut out = Vec::new();
        check_forbid_unsafe(&c, &mut out);
        assert!(out.is_empty());
        let c = ctx("fn f() {}");
        let mut out = Vec::new();
        check_forbid_unsafe(&c, &mut out);
        assert_eq!(out.len(), 1);
    }
}
