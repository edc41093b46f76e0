//! Rule `dead-pub`: public items nothing calls.
//!
//! A `pub` free function, type, const, static, trait or module of a
//! library crate is dead when its name occurs, token-wise, in no file but
//! the one that defines it. Every other file counts as a caller: the lint
//! roots (other modules, `tests/`, `examples/`, benches) and the
//! caller-only roots, which are read but never linted. Methods are out of
//! scope — names like `new` or `len` collide token-wise, so a name count
//! says nothing about them — and so are `pub(crate)` / `pub(super)` items,
//! which are not public API.
//!
//! A name is a token, not a path: an unrelated identifier of the same
//! spelling elsewhere keeps an item alive, so the rule errs towards
//! missing dead code rather than reporting live code. The one exception is
//! a name inside a `pub use … ;`: a re-export passes a name on without
//! calling it, so a crate root re-exporting an item nobody uses does not
//! keep it alive.
//!
//! What a crate deliberately exports without calling it — a type that
//! only appears in a public signature, say — goes on the `[dead_pub]
//! allow` list in `lint.toml` with its reason. An entry that no longer
//! suppresses anything is itself a finding, so the list cannot rot.

use crate::lexer::{Tok, TokKind};
use crate::rules::{FileCtx, Finding};
use std::collections::{HashMap, HashSet};

/// A `[dead_pub] allow` entry: `"name, reason"` in `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The item name the entry keeps.
    pub name: String,
    /// Why the item is public with no caller.
    pub reason: String,
}

/// Runs the rule. `linted` are the files under the lint roots; their
/// library files are checked and every file is a caller. `callers` are
/// read as callers only. Both are `(workspace-relative path, source)`.
pub fn check(
    linted: &[(String, String)],
    callers: &[(String, String)],
    allow: &[AllowEntry],
) -> Vec<Finding> {
    let paths: HashSet<&str> = linted.iter().map(|(p, _)| p.as_str()).collect();
    // Each identifier, with the indices of the files that contain it.
    let mut named_in: HashMap<String, Vec<usize>> = HashMap::new();
    let mut defs: Vec<(usize, &str, PubItem)> = Vec::new();
    for (idx, (path, src)) in linted.iter().chain(callers).enumerate() {
        let ctx = FileCtx::new(path.clone(), src);
        for t in naming_idents(&ctx.lexed.toks) {
            let files = named_in.entry(t.text.clone()).or_default();
            if files.last() != Some(&idx) {
                files.push(idx);
            }
        }
        if idx < linted.len() && is_library_file(path, &paths) {
            for item in module_level_pub_items(&ctx) {
                defs.push((idx, path.as_str(), item));
            }
        }
    }

    let mut used_allows = vec![false; allow.len()];
    let mut out = Vec::new();
    for (idx, path, item) in defs {
        if named_in[&item.name].iter().any(|&f| f != idx) {
            continue;
        }
        if let Some(a) = allow.iter().position(|a| a.name == item.name) {
            used_allows[a] = true;
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line: item.line,
            rule: "dead-pub".into(),
            message: format!(
                "pub {} `{}` is named in no other file; delete it, make it private, \
                 or allow-list it in lint.toml [dead_pub] with a reason",
                item.kind, item.name
            ),
        });
    }
    for (entry, used) in allow.iter().zip(used_allows) {
        if !used {
            out.push(Finding {
                file: "lint.toml".into(),
                line: 1,
                rule: "dead-pub".into(),
                message: format!(
                    "[dead_pub] allow entry `{}` suppresses nothing (the item has a \
                     caller or is gone); remove the entry",
                    entry.name
                ),
            });
        }
    }
    out
}

/// The identifiers of a file that name an item for this rule: all of them
/// except those inside a `pub use … ;`, which passes a name on without
/// calling it.
fn naming_idents(toks: &[Tok]) -> impl Iterator<Item = &Tok> {
    let mut in_reexport = false;
    toks.iter().enumerate().filter_map(move |(i, t)| {
        if in_reexport {
            in_reexport = !t.is_punct(b';');
            return None;
        }
        if t.is_ident("pub") && toks.get(i + 1).is_some_and(|next| next.is_ident("use")) {
            in_reexport = true;
            return None;
        }
        (t.kind == TokKind::Ident).then_some(t)
    })
}

/// One `pub` item at module level.
#[derive(Debug)]
struct PubItem {
    kind: &'static str,
    name: String,
    line: u32,
}

/// Whether `path` belongs to a library crate: it sits under a `src/`
/// directory that has a `lib.rs`, and is not a binary target
/// (`src/main.rs`, `src/bin/`).
fn is_library_file(path: &str, paths: &HashSet<&str>) -> bool {
    let src_dir = if path.starts_with("src/") {
        "src/"
    } else {
        match path.find("/src/") {
            Some(at) => &path[..at + "/src/".len()],
            None => return false,
        }
    };
    let rest = &path[src_dir.len()..];
    rest != "main.rs"
        && !rest.starts_with("bin/")
        && paths.contains(format!("{src_dir}lib.rs").as_str())
}

/// The `pub` items declared directly in a module body (the file itself or
/// an inline `mod name { … }`), outside `#[cfg(test)]` code.
fn module_level_pub_items(ctx: &FileCtx) -> Vec<PubItem> {
    let toks = &ctx.lexed.toks;
    // One flag per open brace: whether it opens an inline `mod` body.
    let mut scopes: Vec<bool> = Vec::new();
    let mut items = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Punct(b'{') => {
                scopes.push(i >= 2 && toks[i - 2].is_ident("mod"));
            }
            TokKind::Punct(b'}') => {
                scopes.pop();
            }
            TokKind::Ident if t.text == "pub" && !ctx.in_test[i] && scopes.iter().all(|&m| m) => {
                items.extend(pub_item_at(toks, i + 1));
            }
            _ => {}
        }
    }
    items
}

/// The item a `pub` whose next token is `toks[j]` introduces, if it is one
/// the rule covers.
fn pub_item_at(toks: &[Tok], mut j: usize) -> Option<PubItem> {
    let mut saw_const = false;
    loop {
        let t = toks.get(j)?;
        let kind = match (t.kind, t.text.as_str()) {
            // `extern "C" fn`
            (TokKind::Str, _) | (TokKind::Ident, "unsafe" | "async" | "extern") => None,
            (TokKind::Ident, "const") => {
                saw_const = true;
                None
            }
            (TokKind::Ident, "fn") => Some("fn"),
            (TokKind::Ident, "struct" | "enum" | "union" | "type") => Some("type"),
            (TokKind::Ident, "static") => Some("static"),
            (TokKind::Ident, "trait") => Some("trait"),
            (TokKind::Ident, "mod") => Some("mod"),
            // `pub const NAME: …`
            (TokKind::Ident, _) if saw_const => {
                return Some(PubItem {
                    kind: "const",
                    name: t.text.clone(),
                    line: t.line,
                })
            }
            // `pub(crate)`, `pub(super)`, `pub use`: not public items
            _ => return None,
        };
        j += 1;
        if let Some(kind) = kind {
            let mut name = toks.get(j)?;
            if name.is_ident("mut") {
                // `pub static mut NAME`
                name = toks.get(j + 1)?;
            }
            return (name.kind == TokKind::Ident).then(|| PubItem {
                kind,
                name: name.text.clone(),
                line: name.line,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> Vec<(&'static str, String)> {
        let ctx = FileCtx::new("x.rs".into(), src);
        module_level_pub_items(&ctx)
            .into_iter()
            .map(|i| (i.kind, i.name))
            .collect()
    }

    #[test]
    fn only_module_level_items_count() {
        let src = "pub fn f() {}\n\
                   pub const fn g() {}\n\
                   pub const K: u8 = 1;\n\
                   pub static mut S: u8 = 0;\n\
                   pub(crate) fn hidden() {}\n\
                   pub use a::B;\n\
                   pub struct T { pub field: u8 }\n\
                   impl T { pub fn method(&self) {} }\n\
                   pub trait Tr { fn m(&self); }\n\
                   pub mod inner { pub enum E {} fn f() { pub struct Local; } }\n\
                   #[cfg(test)]\nmod tests { pub fn helper() {} }";
        assert_eq!(
            items(src),
            [
                ("fn", "f"),
                ("fn", "g"),
                ("const", "K"),
                ("static", "S"),
                ("type", "T"),
                ("trait", "Tr"),
                ("mod", "inner"),
                ("type", "E"),
            ]
            .map(|(k, n)| (k, n.to_string()))
        );
    }

    #[test]
    fn library_files_are_told_from_binaries() {
        let paths: HashSet<&str> =
            ["src/lib.rs", "crates/a/src/lib.rs", "crates/b/src/main.rs"].into();
        assert!(is_library_file("src/lib.rs", &paths));
        assert!(is_library_file("crates/a/src/deep/mod.rs", &paths));
        assert!(!is_library_file("crates/a/src/bin/tool.rs", &paths));
        assert!(!is_library_file("crates/b/src/args.rs", &paths));
        assert!(!is_library_file("tests/suite.rs", &paths));
    }
}
