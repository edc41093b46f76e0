//! `lint.toml`: the zone map that makes the rules codebase-aware.
//!
//! Rules never hard-code paths; everything they check is declared here so
//! adding a file to a zone (or a new zone) is a config edit, not a code
//! change. See the repo-root `lint.toml` for the live configuration and
//! the README "Static analysis" section for the rule-by-rule contract.

use crate::dead_pub::AllowEntry;
use crate::toml;
use std::path::Path;

/// An alloc-free zone: a file plus the functions inside it whose bodies
/// must not allocate. (Whole files are never alloc-free — constructors
/// legitimately allocate; the steady-state query path must not.)
#[derive(Debug, Clone)]
pub struct AllocZone {
    /// Workspace-relative path of the zoned file.
    pub path: String,
    /// Names of the functions whose bodies are in the zone. Every
    /// function with a listed name in the file is covered, including
    /// trait-impl methods.
    pub functions: Vec<String>,
}

/// Everything `lint.toml` declares.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Directory roots to walk for the workspace-wide rules.
    pub roots: Vec<String>,
    /// Path prefixes excluded from every rule (fixtures, vendor, target).
    pub exclude: Vec<String>,
    /// Files whose non-test code must be panic-free.
    pub panic_free: Vec<String>,
    /// Function-scoped alloc-free zones.
    pub alloc_free: Vec<AllocZone>,
    /// Path prefixes where atomic `Ordering::*` uses need an
    /// `// ordering:` justification.
    pub ordering_paths: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub forbid_unsafe_roots: Vec<String>,
    /// The only files allowed to contain `unsafe` at all (the workspace's
    /// declared unsafe zone); an `unsafe` token anywhere else is a
    /// finding even when it carries a `// SAFETY:` comment.
    pub unsafe_allowed_files: Vec<String>,
    /// The checked-in registry file (workspace-relative).
    pub registry_path: String,
    /// The protocol source the registry is extracted from.
    pub protocol_path: String,
    /// The WAL source the registry's record kinds are extracted from.
    pub wal_path: String,
    /// The store format source the registry's artifact version and
    /// section kinds are extracted from (empty = store diff disabled).
    pub store_path: String,
    /// The observability metric-name source the registry's
    /// `[metric_names]` section is extracted from (empty = obs diff
    /// disabled).
    pub obs_path: String,
    /// Items the `dead-pub` rule keeps although nothing names them.
    pub dead_pub_allow: Vec<AllowEntry>,
}

impl LintConfig {
    /// Parses the `lint.toml` text.
    pub fn parse(src: &str) -> Result<Self, String> {
        let doc = toml::parse(src)?;
        let mut cfg = LintConfig::default();
        if let Some(files) = doc.table("files") {
            if let Some(v) = files.get("roots") {
                cfg.roots = v.str_items();
            }
            if let Some(v) = files.get("exclude") {
                cfg.exclude = v.str_items();
            }
        }
        if let Some(t) = doc.table("panic_free") {
            if let Some(v) = t.get("paths") {
                cfg.panic_free = v.str_items();
            }
        }
        for t in doc.tables_of("alloc_free") {
            let path = t
                .get("path")
                .and_then(|v| v.as_str())
                .ok_or("alloc_free zone missing 'path'")?
                .to_string();
            let functions = t
                .get("functions")
                .map(|v| v.str_items())
                .unwrap_or_default();
            if functions.is_empty() {
                return Err(format!("alloc_free zone {path} lists no functions"));
            }
            cfg.alloc_free.push(AllocZone { path, functions });
        }
        if let Some(t) = doc.table("ordering") {
            if let Some(v) = t.get("paths") {
                cfg.ordering_paths = v.str_items();
            }
        }
        if let Some(t) = doc.table("unsafe") {
            if let Some(v) = t.get("forbid_crate_roots") {
                cfg.forbid_unsafe_roots = v.str_items();
            }
            if let Some(v) = t.get("allowed_files") {
                cfg.unsafe_allowed_files = v.str_items();
            }
        }
        if let Some(t) = doc.table("wire_registry") {
            for (key, slot) in [
                ("registry", &mut cfg.registry_path),
                ("protocol", &mut cfg.protocol_path),
                ("wal", &mut cfg.wal_path),
                ("store", &mut cfg.store_path),
                ("obs", &mut cfg.obs_path),
            ] {
                if let Some(v) = t.get(key).and_then(|v| v.as_str()) {
                    *slot = v.to_string();
                }
            }
        }
        if let Some(t) = doc.table("dead_pub") {
            for entry in t.get("allow").map(|v| v.str_items()).unwrap_or_default() {
                let (name, reason) = entry.split_once(',').unwrap_or((&entry, ""));
                if reason.trim().is_empty() {
                    return Err(format!(
                        "[dead_pub] allow entry `{entry}` has no reason; write \"name, reason\""
                    ));
                }
                cfg.dead_pub_allow.push(AllowEntry {
                    name: name.trim().to_string(),
                    reason: reason.trim().to_string(),
                });
            }
        }
        if cfg.roots.is_empty() {
            return Err("lint.toml declares no [files] roots".into());
        }
        Ok(cfg)
    }

    /// Loads and parses `<root>/lint.toml`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("lint.toml");
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&src)
    }

    /// True when the workspace-relative `path` is excluded from scanning.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// True when `path` falls under one of the ordering-zone prefixes.
    pub fn in_ordering_zone(&self, path: &str) -> bool {
        self.ordering_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}
