//! Pins each pass against the checked-in fixture corpus: every bad
//! snippet must fail with exactly its lint, every clean snippet must pass
//! — both through the library API and through the shipped binary.

use std::path::PathBuf;
use std::process::Command;

use pimdl_lint::allow::AllowList;
use pimdl_lint::{lint_paths, LintConfig};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints one fixture. The L2 fixtures are configured as hot paths (the
/// l4/l6 ones must not be: their `.lock().unwrap()` chains are lock
/// material, not L2 material), `fixtures/reactor.rs` as the syscall
/// shim, the l6 fixtures as the lockset scope, and the l7 fixtures as
/// the taint scope, so L2/L5/L6/L7 apply to the corpus the way they
/// apply to the real modules.
fn lint_fixture(name: &str, allow_toml: &str) -> pimdl_lint::diag::Report {
    let cfg = LintConfig {
        hot_paths: vec!["l2_bad.rs".to_string(), "l2_clean.rs".to_string()],
        syscall_files: vec!["fixtures/reactor.rs".to_string()],
        lockset_paths: vec!["l6_bad.rs".to_string(), "l6_clean.rs".to_string()],
        taint_paths: vec![
            "l7_bad.rs".to_string(),
            "l7_clean.rs".to_string(),
            "l8_bad.rs".to_string(),
            "l8_clean.rs".to_string(),
        ],
    };
    let allow = AllowList::parse(allow_toml);
    lint_paths(&[fixture(name)], &allow, &cfg).expect("fixture must be readable")
}

fn lints_hit(report: &pimdl_lint::diag::Report) -> Vec<&str> {
    let mut lints: Vec<&str> = report.diagnostics.iter().map(|d| d.lint.as_str()).collect();
    lints.dedup();
    lints
}

#[test]
fn bad_fixtures_fail_with_exactly_their_lint() {
    for (name, lint) in [
        ("l1_bad.rs", "L1-SAFETY"),
        ("l2_bad.rs", "L2-PANIC"),
        ("l3_bad.rs", "L3-ATOMIC"),
        ("l3_fence_bad.rs", "L3-ATOMIC"),
        ("l4_bad.rs", "L4-LOCK-ORDER"),
        ("l4_alias_bad.rs", "L4-LOCK-ORDER"),
        ("l5_bad.rs", "L5-SYSCALL"),
        ("l6_bad.rs", "L6-LOCKSET"),
        ("l8_bad.rs", "L8-OVERFLOW"),
    ] {
        let report = lint_fixture(name, "");
        assert!(report.failed(), "{name} must fail");
        assert_eq!(lints_hit(&report), vec![lint], "{name} diagnostics");
    }
}

#[test]
fn clean_fixtures_pass() {
    for name in [
        "l1_clean.rs",
        "l2_clean.rs",
        "l3_clean.rs",
        "l3_fence_clean.rs",
        "l4_clean.rs",
        "l4_alias_clean.rs",
        "l6_clean.rs",
        "l7_clean.rs",
        "l8_clean.rs",
        "reactor.rs",
    ] {
        let report = lint_fixture(name, "");
        assert!(
            !report.failed(),
            "{name} must pass, got:\n{}",
            report.render_human()
        );
    }
}

/// The bad L7 fixture seeds one flow per sink kind (plus the
/// interprocedural and `vec!` forms); the pass must report exactly that
/// (code, line) set — no misses, no extras.
#[test]
fn l7_bad_fixture_reports_every_seeded_flow() {
    let report = lint_fixture("l7_bad.rs", "");
    let got: Vec<(&str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.lint.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("L7-ALLOC", 27), // decode_alloc: Vec::with_capacity(n)
            ("L7-LOOP", 36),  // decode_loop: for _ in 0..count
            ("L7-INDEX", 45), // decode_index: payload[at]
            ("L7-TRUNC", 51), // decode_trunc: len as u16
            ("L7-ALLOC", 55), // scratch: with_capacity(len) via summary
            ("L7-ALLOC", 56), // scratch: buf.resize(len, 0)
            ("L7-ALLOC", 69), // decode_vec_macro: vec![0u8; len]
            ("L7-ALLOC", 77), // decode_var_min: .min(cap_hint) is not a clamp
        ],
        "got:\n{}",
        report.render_human()
    );
    assert!(report.taint_sources > 0, "source sites counted");
    assert!(report.taint_sinks > 0, "sink sites counted");
}

/// The bad L8 fixture seeds one overflowing flow per operator shape
/// (`*`, `+`, `<<`); the pass must report exactly that (code, line) set.
#[test]
fn l8_bad_fixture_reports_every_seeded_flow() {
    let report = lint_fixture("l8_bad.rs", "");
    let got: Vec<(&str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.lint.as_str(), d.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("L8-OVERFLOW", 36), // frame_bytes: len * count
            ("L8-OVERFLOW", 45), // advance: pos + len
            ("L8-OVERFLOW", 52), // scaled: n << 8
        ],
        "got:\n{}",
        report.render_human()
    );
}

#[test]
fn l1_inventory_lists_documented_and_undocumented_sites() {
    let bad = lint_fixture("l1_bad.rs", "");
    assert_eq!(bad.unsafe_inventory.len(), 2);
    assert!(bad.unsafe_inventory.iter().all(|s| !s.documented));

    let clean = lint_fixture("l1_clean.rs", "");
    assert_eq!(clean.unsafe_inventory.len(), 3);
    assert!(clean.unsafe_inventory.iter().all(|s| s.documented));
}

#[test]
fn allowlist_excuses_a_justified_site_and_flags_stale_entries() {
    let allow = r#"
[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "unwrap"
justification = "fixture test: demonstrate a justified exemption"

[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "expect"
justification = "fixture test"

[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "panic"
justification = "fixture test"
"#;
    let report = lint_fixture("l2_bad.rs", allow);
    assert!(!report.failed(), "all three sites excused");

    // The same allowlist against the clean fixture: every entry is stale,
    // and stale entries are findings.
    let report = lint_fixture("l2_clean.rs", allow);
    assert!(report.failed());
    assert_eq!(lints_hit(&report), vec!["LINT-ALLOW"]);
}

#[test]
fn unjustified_allow_entry_is_a_finding() {
    let allow = r#"
[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "unwrap"
justification = ""
"#;
    let report = lint_fixture("l2_bad.rs", allow);
    assert!(report.failed());
    assert!(lints_hit(&report).contains(&"LINT-ALLOW"));
}

/// Drives the shipped binary the way check.sh does: nonzero exit on every
/// bad fixture, zero on the clean set, JSON mode parseable enough to
/// carry the lint IDs.
#[test]
fn binary_exit_codes_match_fixture_corpus() {
    let bin = env!("CARGO_BIN_EXE_pimdl-lint");
    for (name, lint) in [
        ("l1_bad.rs", "L1-SAFETY"),
        ("l2_bad.rs", "L2-PANIC"),
        ("l3_bad.rs", "L3-ATOMIC"),
        ("l3_fence_bad.rs", "L3-ATOMIC"),
        ("l4_bad.rs", "L4-LOCK-ORDER"),
        ("l4_alias_bad.rs", "L4-LOCK-ORDER"),
        ("l5_bad.rs", "L5-SYSCALL"),
        ("l6_bad.rs", "L6-LOCKSET"),
        ("l7_bad.rs", "L7-ALLOC"),
        ("l8_bad.rs", "L8-OVERFLOW"),
    ] {
        let out = Command::new(bin)
            .args([
                "--json",
                "--hot",
                "l2_bad.rs",
                "--syscall-file",
                "fixtures/reactor.rs",
                "--lockset",
                "l6_bad.rs",
                "--taint",
                "l7_bad.rs",
                "--taint",
                "l8_bad.rs",
                "--file",
            ])
            .arg(fixture(name))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let json = String::from_utf8(out.stdout).expect("json is utf-8");
        assert!(json.contains(lint), "{name} JSON names {lint}: {json}");
    }

    let mut clean = Command::new(bin);
    clean.args([
        "--hot",
        "l2_clean.rs",
        "--syscall-file",
        "fixtures/reactor.rs",
        "--lockset",
        "l6_clean.rs",
        "--taint",
        "l7_clean.rs",
        "--taint",
        "l8_clean.rs",
    ]);
    for name in [
        "l1_clean.rs",
        "l2_clean.rs",
        "l3_clean.rs",
        "l3_fence_clean.rs",
        "l4_clean.rs",
        "l4_alias_clean.rs",
        "l6_clean.rs",
        "l7_clean.rs",
        "l8_clean.rs",
        "reactor.rs",
    ] {
        clean.arg("--file").arg(fixture(name));
    }
    let out = clean.output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean corpus must exit 0");
}

/// A windowed L6 allow entry excuses exactly its site: with the window
/// over the bare read the fixture passes; with the window elsewhere the
/// race is still reported and the entry is flagged stale.
#[test]
fn l6_allow_entry_with_line_window_excuses_only_its_site() {
    let allow = r#"
[[allow]]
lint = "L6-LOCKSET"
file = "l6_bad.rs"
func = "*"
callee = "Racy::hits"
lines = "26-28"
justification = "fixture test: counter staleness is benign here"
"#;
    let report = lint_fixture("l6_bad.rs", allow);
    assert!(
        !report.failed(),
        "windowed entry excuses the read, got:\n{}",
        report.render_human()
    );

    let moved = allow.replace("26-28", "40-50");
    let report = lint_fixture("l6_bad.rs", &moved);
    assert!(report.failed(), "a window that misses excuses nothing");
    let lints = lints_hit(&report);
    assert!(
        lints.contains(&"L6-LOCKSET") && lints.contains(&"LINT-ALLOW"),
        "race reported and entry stale: {lints:?}"
    );
}

/// `--explain` prints the rationale for a known code and lists the known
/// codes for an unknown one; `--format github` emits workflow commands.
#[test]
fn binary_explain_and_github_format() {
    let bin = env!("CARGO_BIN_EXE_pimdl-lint");

    let out = Command::new(bin)
        .args(["--explain", "L6-LOCKSET"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("lockset") && text.contains("Allowlist policy"));

    let out = Command::new(bin)
        .args(["--explain", "L7-ALLOC"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("allocation") && text.contains("MAX_"));

    let out = Command::new(bin)
        .args(["--explain", "L8-OVERFLOW"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("checked_") && text.contains("wrap"));

    let out = Command::new(bin)
        .args(["--explain", "L9-NOPE"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown code is a usage error");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("L6-LOCKSET"), "lists known codes: {err}");

    let out = Command::new(bin)
        .args(["--format", "github", "--hot", "l2_bad.rs", "--file"])
        .arg(fixture("l2_bad.rs"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        text.contains("::error file=") && text.contains("title=L2-PANIC"),
        "github annotations: {text}"
    );
}

/// `--inventory` writes the unsafe-site and lock-identity inventories.
#[test]
fn binary_writes_inventory_json() {
    let bin = env!("CARGO_BIN_EXE_pimdl-lint");
    let path = std::env::temp_dir().join("pimdl_lint_inventory_test.json");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(bin)
        .arg("--inventory")
        .arg(&path)
        .args(["--lockset", "l6_clean.rs", "--file"])
        .arg(fixture("l6_clean.rs"))
        .arg("--file")
        .arg(fixture("l1_clean.rs"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&path).expect("inventory written");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"unsafe_sites\""), "{json}");
    assert!(json.contains("Guarded::m"), "lock identity listed: {json}");
    assert!(json.contains("\"taint_sources\""), "{json}");
    assert!(json.contains("\"taint_sinks\""), "{json}");
}
