#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! `islabel-lint`: a codebase-aware static analysis pass for this
//! workspace's hand-enforced invariants.
//!
//! The workspace carries invariants that `rustc` and `clippy` cannot see:
//! the wire decoder must never panic on untrusted bytes, the dense query
//! kernel must not allocate per query, wire error codes are frozen once
//! shipped, atomic memory orderings need written justification, and
//! `unsafe` needs a `// SAFETY:` contract, and public API that nothing
//! calls should not exist ([`dead_pub`]). Until now those lived in
//! review discipline and a handful of proptest/counting-allocator tests;
//! this crate turns them into machine-checked rules gated in CI.
//!
//! Design constraints, in order:
//! - **Zero dependencies.** The analyzer is a hand-rolled token scanner
//!   (`lexer`), not a `syn` AST walk — the build environment is offline
//!   and the vendor tree stays small. The token level is enough for every
//!   rule here because the rules are about *lexical* facts (a call name,
//!   an adjacent comment, a const value), not types.
//! - **Config over code.** Which files are in which zone is declared in
//!   the repo-root `lint.toml` ([`config`]), so the zone map is reviewable
//!   and extendable without recompiling the analyzer.
//! - **Escapes carry reasons.** `// lint:allow(rule, reason)` suppresses
//!   one line; a missing reason or an unused escape is itself a finding
//!   ([`rules::rule_allow_hygiene`]).
//!
//! Run it as `cargo run -p islabel-lint --` from anywhere in the repo;
//! exit status is nonzero when any finding is reported. See the README
//! "Static analysis" section for the rule table.

pub mod config;
pub mod dead_pub;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod toml;

pub use config::LintConfig;
pub use rules::Finding;

use std::path::{Path, PathBuf};

/// Roots read as callers by the `dead-pub` rule and never linted: the
/// standalone `benchmark/` package calls the library crates from outside
/// the workspace.
const CALLER_ONLY_ROOTS: &[&str] = &["benchmark"];

/// Recursively collects `.rs` files under `dir`, returning
/// workspace-relative paths with `/` separators. Build output (`target`
/// directories) is skipped.
fn walk_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let ty = entry
            .file_type()
            .map_err(|e| format!("file_type {}: {e}", path.display()))?;
        if ty.is_dir() {
            if entry.file_name() != "target" {
                walk_rs(root, &path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Runs every rule over the workspace rooted at `root` (the directory
/// holding `lint.toml`). Returns all findings, sorted by file then line.
pub fn run(root: &Path, cfg: &LintConfig) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for r in &cfg.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk_rs(root, &dir, &mut files)?;
        }
    }
    files.sort();
    files.retain(|f| !cfg.is_excluded(f));

    let read = |rel: String| -> Result<(String, String), String> {
        let src =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        Ok((rel, src))
    };
    let linted = files.into_iter().map(read).collect::<Result<Vec<_>, _>>()?;

    let mut findings = Vec::new();
    for (rel, src) in &linted {
        findings.extend(check_file(rel, src, cfg));
    }

    let mut caller_files = Vec::new();
    for r in CALLER_ONLY_ROOTS {
        let dir = root.join(r);
        if dir.is_dir() {
            walk_rs(root, &dir, &mut caller_files)?;
        }
    }
    let callers = caller_files
        .into_iter()
        .map(read)
        .collect::<Result<Vec<_>, _>>()?;
    findings.extend(dead_pub::check(&linted, &callers, &cfg.dead_pub_allow));

    // Zones must point at real files: a renamed module silently dropping
    // out of its zone would defeat the whole gate.
    for zoned in cfg
        .panic_free
        .iter()
        .chain(cfg.alloc_free.iter().map(|z| &z.path))
        .chain(cfg.forbid_unsafe_roots.iter())
        .chain(cfg.unsafe_allowed_files.iter())
    {
        if !linted.iter().any(|(f, _)| f == zoned) {
            findings.push(Finding {
                file: "lint.toml".into(),
                line: 1,
                rule: "zone-config".into(),
                message: format!(
                    "zoned file {zoned} does not exist under the scanned roots; \
                     update lint.toml to follow the rename"
                ),
            });
        }
    }

    findings.extend(registry_findings(root, cfg)?);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(findings)
}

/// Runs the per-file rules on one source file (no registry diff). Public
/// so fixture tests can lint single files without a workspace.
pub fn check_file(rel: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let ctx = rules::FileCtx::new(rel.to_string(), src);
    let mut active: Vec<&str> = Vec::new();

    if cfg.panic_free.iter().any(|p| p == rel) {
        active.push("panic");
        rules::rule_panic(&ctx, &mut findings);
    }
    for zone in cfg.alloc_free.iter().filter(|z| z.path == rel) {
        if !active.contains(&"alloc") {
            active.push("alloc");
        }
        rules::rule_alloc(&ctx, zone, &mut findings);
    }
    if cfg.in_ordering_zone(rel) {
        active.push("ordering");
        rules::rule_ordering(&ctx, &mut findings);
    }
    // Unsafe hygiene is workspace-wide: any unsafe block anywhere needs a
    // SAFETY contract (the workspace denies unsafe_code by default, so
    // the few sites that opt in are exactly the ones worth documenting),
    // and outside the declared unsafe zone `unsafe` is not allowed at all
    // even with one — confinement is what keeps the zone auditable.
    active.push("unsafe");
    rules::rule_unsafe(&ctx, &mut findings);
    if !cfg.unsafe_allowed_files.is_empty() && !cfg.unsafe_allowed_files.iter().any(|p| p == rel) {
        rules::rule_unsafe_confined(&ctx, &mut findings);
    }
    if cfg.forbid_unsafe_roots.iter().any(|p| p == rel) {
        rules::check_forbid_unsafe(&ctx, &mut findings);
    }

    rules::rule_allow_hygiene(&ctx, &active, &mut findings);
    findings
}

/// Extracts wire constants from the configured sources and diffs them
/// against the checked-in registry.
pub fn registry_findings(root: &Path, cfg: &LintConfig) -> Result<Vec<Finding>, String> {
    if cfg.registry_path.is_empty() {
        return Ok(Vec::new());
    }
    let read = |rel: &str| -> Result<String, String> {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))
    };
    let proto_src = read(&cfg.protocol_path)?;
    let wal_src = read(&cfg.wal_path)?;
    let reg_src = read(&cfg.registry_path)?;
    let mut extracted = registry::extract_protocol(&proto_src);
    registry::extract_wal(&wal_src, &mut extracted);
    if !cfg.store_path.is_empty() {
        let store_src = read(&cfg.store_path)?;
        registry::extract_store(&store_src, &mut extracted);
    }
    if !cfg.obs_path.is_empty() {
        let obs_src = read(&cfg.obs_path)?;
        registry::extract_metric_names(&obs_src, &mut extracted);
    }
    let reg =
        registry::Registry::parse(&reg_src).map_err(|e| format!("{}: {e}", cfg.registry_path))?;
    Ok(registry::diff(
        &extracted,
        &reg,
        &cfg.protocol_path,
        &cfg.wal_path,
        &cfg.store_path,
        &cfg.obs_path,
        &cfg.registry_path,
    ))
}

/// Walks upward from `start` to the directory containing `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("lint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
