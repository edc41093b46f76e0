//! Integration suite for `islabel-lint`: fixture files must trip their
//! rules at the expected lines, clean twins must pass, the wire-registry
//! diff must catch drift, and — the point of the whole crate — the real
//! workspace must lint clean (so CI can block on it).

use islabel_lint::dead_pub::{self, AllowEntry};
use islabel_lint::{check_file, registry, rules::Finding, LintConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has two ancestors")
        .to_path_buf()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A config that puts exactly `path` into the zones named by `zones`.
fn zone_cfg(path: &str, zones: &[&str]) -> LintConfig {
    let mut toml = String::from("[files]\nroots = [\"fixtures\"]\n");
    if zones.contains(&"panic") {
        toml.push_str(&format!("[panic_free]\npaths = [\"{path}\"]\n"));
    }
    if zones.contains(&"alloc") {
        toml.push_str(&format!(
            "[[alloc_free]]\npath = \"{path}\"\nfunctions = [\"hot\"]\n"
        ));
    }
    if zones.contains(&"ordering") {
        toml.push_str(&format!("[ordering]\npaths = [\"{path}\"]\n"));
    }
    if zones.contains(&"unsafe_root") {
        toml.push_str(&format!("[unsafe]\nforbid_crate_roots = [\"{path}\"]\n"));
    }
    LintConfig::parse(&toml).expect("fixture config parses")
}

fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    let mut v: Vec<u32> = findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn panic_fixture_trips_every_construct() {
    let cfg = zone_cfg("f.rs", &["panic"]);
    let findings = check_file("f.rs", &fixture("panic_violating.rs"), &cfg);
    // unwrap, expect, panic!, unreachable!, buf[0], and buf[1] (the
    // reasonless allow must not suppress it); test-module panics masked.
    assert_eq!(lines_of(&findings, "panic"), vec![7, 8, 9, 10, 11, 13]);
    assert_eq!(
        lines_of(&findings, "allow-hygiene"),
        vec![12],
        "reasonless allow is itself a finding: {findings:?}"
    );
}

#[test]
fn panic_clean_fixture_passes() {
    let cfg = zone_cfg("f.rs", &["panic"]);
    let findings = check_file("f.rs", &fixture("panic_clean.rs"), &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn alloc_fixture_trips_only_zoned_function() {
    let cfg = zone_cfg("f.rs", &["alloc"]);
    let findings = check_file("f.rs", &fixture("alloc_violating.rs"), &cfg);
    // Six allocation sites inside `hot`; `build`'s Vec::new is unzoned.
    assert_eq!(lines_of(&findings, "alloc"), vec![11, 12, 13, 14, 15, 16]);
}

#[test]
fn alloc_clean_fixture_passes() {
    let cfg = zone_cfg("f.rs", &["alloc"]);
    let findings = check_file("f.rs", &fixture("alloc_clean.rs"), &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn ordering_fixture_trips_unjustified_atomics() {
    let cfg = zone_cfg("f.rs", &["ordering"]);
    let findings = check_file("f.rs", &fixture("ordering_violating.rs"), &cfg);
    assert_eq!(lines_of(&findings, "ordering"), vec![8, 9, 13]);
}

#[test]
fn ordering_clean_fixture_passes() {
    let cfg = zone_cfg("f.rs", &["ordering"]);
    let findings = check_file("f.rs", &fixture("ordering_clean.rs"), &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unsafe_fixture_trips_block_and_missing_forbid() {
    let cfg = zone_cfg("f.rs", &["unsafe_root"]);
    let findings = check_file("f.rs", &fixture("unsafe_violating.rs"), &cfg);
    // The naked unsafe block, plus the missing #![forbid(unsafe_code)].
    assert_eq!(lines_of(&findings, "unsafe"), vec![1, 5]);
}

#[test]
fn unsafe_clean_fixture_passes() {
    let cfg = zone_cfg("f.rs", &["unsafe_root"]);
    let findings = check_file("f.rs", &fixture("unsafe_clean.rs"), &cfg);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Runs `dead-pub` over a one-crate workspace: the fixture as the crate's
/// `lib.rs`, an integration test naming `called` and `Kept`, and a
/// caller-only `benchmark/` naming `from_bench` — whose own uncalled
/// `pub fn` must never be reported, because caller-only files are never
/// linted.
fn dead_pub_findings(fixture_name: &str, allow: &[&str]) -> Vec<Finding> {
    let linted = [
        ("crates/demo/src/lib.rs", fixture(fixture_name)),
        (
            "crates/demo/tests/api.rs",
            "use demo::{called, Kept};".to_string(),
        ),
    ];
    let callers = [(
        "benchmark/src/lib.rs",
        "pub fn never_linted() { demo::from_bench(); }".to_string(),
    )];
    let owned = |files: &[(&str, String)]| -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.clone()))
            .collect()
    };
    let allow: Vec<AllowEntry> = allow
        .iter()
        .map(|name| AllowEntry {
            name: name.to_string(),
            reason: "appears in a public signature".into(),
        })
        .collect();
    dead_pub::check(&owned(&linted), &owned(&callers), &allow)
}

#[test]
fn dead_pub_fixture_trips_every_uncalled_item() {
    let findings = dead_pub_findings("dead_pub_violating.rs", &[]);
    assert!(
        findings.iter().all(|f| f.file == "crates/demo/src/lib.rs"),
        "{findings:?}"
    );
    assert_eq!(
        lines_of(&findings, "dead-pub"),
        vec![9, 12, 14, 16, 18, 20, 21]
    );
    assert!(
        findings[0].message.contains("pub fn `orphan`"),
        "{findings:?}"
    );
}

#[test]
fn dead_pub_reexport_is_not_a_caller() {
    let linted: Vec<(String, String)> = [
        (
            "crates/demo/src/lib.rs",
            "mod inner;\npub use inner::{Called, FromRoot, Reexported}; \
             pub fn root() -> FromRoot { FromRoot }\n"
                .to_string(),
        ),
        (
            "crates/demo/src/inner.rs",
            fixture("dead_pub_reexported.rs"),
        ),
        (
            "crates/demo/tests/api.rs",
            "use demo::{root, Called};".to_string(),
        ),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s))
    .collect();
    let findings = dead_pub::check(&linted, &[], &[]);
    assert!(
        findings
            .iter()
            .all(|f| f.file == "crates/demo/src/inner.rs"),
        "{findings:?}"
    );
    assert_eq!(lines_of(&findings, "dead-pub"), vec![10]);
    assert!(
        findings[0].message.contains("pub type `Reexported`"),
        "{findings:?}"
    );
}

#[test]
fn dead_pub_clean_fixture_passes() {
    let findings = dead_pub_findings("dead_pub_clean.rs", &["Signature"]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dead_pub_allow_entries_need_a_reason_and_a_use() {
    // An entry that suppresses nothing is itself a finding...
    let findings = dead_pub_findings("dead_pub_clean.rs", &["Signature", "Kept"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].file, "lint.toml");
    assert!(findings[0].message.contains("`Kept`"), "{findings:?}");
    // ...and one without a reason does not load.
    let toml = "[files]\nroots = [\"src\"]\n[dead_pub]\nallow = [\"Signature\"]\n";
    let err = LintConfig::parse(toml).expect_err("a reasonless entry is refused");
    assert!(err.contains("no reason"), "{err}");
    let toml = "[files]\nroots = [\"src\"]\n[dead_pub]\nallow = [\"Signature, in a signature\"]\n";
    let cfg = LintConfig::parse(toml).expect("entry with a reason loads");
    assert_eq!(
        cfg.dead_pub_allow,
        vec![AllowEntry {
            name: "Signature".into(),
            reason: "in a signature".into()
        }]
    );
}

#[test]
fn unused_allow_in_zone_is_flagged() {
    let cfg = zone_cfg("f.rs", &["panic"]);
    let src = "// lint:allow(panic, stale justification)\npub fn safe() -> u8 { 0 }\n";
    let findings = check_file("f.rs", src, &cfg);
    assert_eq!(lines_of(&findings, "allow-hygiene"), vec![1]);
}

/// Renumbering one wire error code in the registry must produce exactly
/// one finding naming that constant with both values — driven by the
/// REAL protocol source, so extraction is tested against the code it
/// actually gates.
#[test]
fn registry_drift_reports_exactly_the_mutated_constant() {
    let root = repo_root();
    let cfg = LintConfig::load(&root).expect("repo lint.toml loads");
    let reg_src = std::fs::read_to_string(root.join(&cfg.registry_path)).expect("registry reads");

    // Sanity: unmutated registry agrees with the code.
    assert!(
        islabel_lint::registry_findings(&root, &cfg)
            .expect("registry diff runs")
            .is_empty(),
        "workspace registry must match the code before mutation"
    );

    // Mutate one error code in a copy and diff manually.
    let mutated = reg_src.replace("StaleIndex = 2", "StaleIndex = 9");
    assert_ne!(mutated, reg_src, "fixture assumption: StaleIndex = 2");
    let proto = std::fs::read_to_string(root.join(&cfg.protocol_path)).expect("protocol reads");
    let wal = std::fs::read_to_string(root.join(&cfg.wal_path)).expect("wal reads");
    let store = std::fs::read_to_string(root.join(&cfg.store_path)).expect("store format reads");
    let obs = std::fs::read_to_string(root.join(&cfg.obs_path)).expect("obs names read");
    let mut extracted = registry::extract_protocol(&proto);
    registry::extract_wal(&wal, &mut extracted);
    registry::extract_store(&store, &mut extracted);
    registry::extract_metric_names(&obs, &mut extracted);
    let reg = registry::Registry::parse(&mutated).expect("mutated registry parses");
    let findings = registry::diff(
        &extracted,
        &reg,
        &cfg.protocol_path,
        &cfg.wal_path,
        &cfg.store_path,
        &cfg.obs_path,
        &cfg.registry_path,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "wire-registry");
    assert!(f.message.contains("StaleIndex"), "{f}");
    assert!(
        f.message.contains('2') && f.message.contains('9'),
        "both values must appear: {f}"
    );
    assert_eq!(
        f.file, cfg.protocol_path,
        "points at the code, not the toml"
    );
}

/// Extraction must see the full real constant surface — if the protocol
/// module moves, this fails before the diff starts silently passing on
/// empty sets.
#[test]
fn registry_extraction_covers_the_real_surface() {
    let root = repo_root();
    let cfg = LintConfig::load(&root).expect("repo lint.toml loads");
    let proto = std::fs::read_to_string(root.join(&cfg.protocol_path)).expect("protocol reads");
    let wal = std::fs::read_to_string(root.join(&cfg.wal_path)).expect("wal reads");
    let obs = std::fs::read_to_string(root.join(&cfg.obs_path)).expect("obs names read");
    let mut extracted = registry::extract_protocol(&proto);
    registry::extract_wal(&wal, &mut extracted);
    registry::extract_metric_names(&obs, &mut extracted);
    assert_eq!(extracted.opcodes.len(), 8, "{:?}", extracted.opcodes);
    assert_eq!(
        extracted.error_codes.len(),
        11,
        "{:?}",
        extracted.error_codes
    );
    assert_eq!(extracted.wal_kinds.len(), 3, "{:?}", extracted.wal_kinds);
    assert!(extracted.protocol_version.is_some());
    assert!(extracted.wal_version.is_some());
    // Every exported metric family name must be extracted; the count is
    // pinned so adding a METRIC_ constant forces a registry update here
    // too, keeping this guard honest.
    assert_eq!(
        extracted.metric_names.len(),
        29,
        "{:?}",
        extracted.metric_names
    );
    assert!(extracted
        .metric_names
        .iter()
        .all(|m| m.value.starts_with("islabel_")));
}

/// THE self-check: the shipped workspace lints clean. Every rule runs
/// over the real sources with the real lint.toml; any regression — a new
/// unwrap in the decoder, an unjustified ordering, a renumbered wire
/// code — fails this test (and the standalone CI job).
#[test]
fn workspace_lints_clean() {
    let root = repo_root();
    let cfg = LintConfig::load(&root).expect("repo lint.toml loads");
    let findings = islabel_lint::run(&root, &cfg).expect("lint runs");
    assert!(
        findings.is_empty(),
        "workspace must lint clean; findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The binary contract CI relies on: exit 0 + "0 findings" on the real
/// workspace, nonzero with file:line diagnostics on a violating tree.
#[test]
fn binary_exit_codes_and_diagnostics() {
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_islabel-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run islabel-lint");
    assert!(
        out.status.success(),
        "workspace run must exit 0; stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // A violating mini-workspace: a panic zone seeded with an unwrap.
    let dir = std::env::temp_dir().join(format!(
        "islabel-lint-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).expect("mkdir");
    std::fs::write(
        dir.join("lint.toml"),
        "[files]\nroots = [\"src\"]\n[panic_free]\npaths = [\"src/decode.rs\"]\n",
    )
    .expect("write lint.toml");
    std::fs::write(
        dir.join("src/decode.rs"),
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
    )
    .expect("write decode.rs");

    let out = Command::new(env!("CARGO_BIN_EXE_islabel-lint"))
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run islabel-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "violation must exit nonzero");
    assert!(
        stdout.contains("src/decode.rs:1: [panic]"),
        "diagnostic must be file:line: [rule]; got:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zone paths that stop existing must fail the lint, not silently narrow
/// its coverage.
#[test]
fn stale_zone_path_is_reported() {
    let root = repo_root();
    let mut cfg = LintConfig::load(&root).expect("repo lint.toml loads");
    cfg.panic_free.push("crates/net/src/renamed_away.rs".into());
    let findings = islabel_lint::run(&root, &cfg).expect("lint runs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "zone-config");
    assert!(findings[0].message.contains("renamed_away.rs"));
}
