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
/// l4 ones must not be: their `.lock().unwrap()` chains are lock
/// material, not L2 material) and the l7/l8 fixtures as the taint scope,
/// so L2/L7/L8 apply to the corpus the way they apply to the real
/// modules.
fn lint_fixture(name: &str, allow_toml: &str) -> pimdl_lint::diag::Report {
    let cfg = LintConfig {
        hot_paths: vec!["l2_bad.rs".to_string(), "l2_clean.rs".to_string()],
        taint_paths: vec![
            "l7_bad.rs".to_string(),
            "l7_clean.rs".to_string(),
            "l8_bad.rs".to_string(),
            "l8_clean.rs".to_string(),
            "l7_seams.rs".to_string(),
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
        "l7_clean.rs",
        "l8_clean.rs",
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
/// (code, line) set — no misses, no extras. The seam fixture pins the
/// statement forms the resolver and the dataflow walker both parse.
#[test]
fn l7_bad_fixture_reports_every_seeded_flow() {
    let pins: [(&str, Vec<(&str, u32)>); 2] = [
        (
            "l7_bad.rs",
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
        ),
        (
            "l7_seams.rs",
            vec![
                // seam_while (line 34): no L7-LOOP, `while i < n` bounds are
                // invisible (DESIGN §10, L7-TAINT false-negative row).
                // seam_inverse_guard (45): `MAX_LEN < n` guard sanitizes.
                // seam_field (50): no finding, a struct-literal field value
                // is not resolved, so `c.u32()?` there carries no taint
                // (L7-TAINT false-negative row: struct fields).
                ("L7-ALLOC", 55), // seam_turbofish_path: Vec::<u8>::with_capacity(n)
                ("L8-OVERFLOW", 60), // seam_parse_turbofish: `.parse::<u16>()` width
                ("L7-ALLOC", 67), // seam_variant: let Some(x) = ..
                // seam_variant_path (74): no finding, a path-qualified
                // `let Frame::Execute(x)` binds nothing (L7-TAINT
                // false-negative row: path-qualified variant patterns).
                ("L7-ALLOC", 79), // seam_tuple: let (a, b) = (c.u32()?, 4)
                // seam_slice_let: the walk goes on past a slice pattern
                // `let [count] = args else {..}` to the rest of the fn.
                ("L7-ALLOC", 87),
            ],
        ),
    ];
    for (name, want) in pins {
        let report = lint_fixture(name, "");
        let got: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.lint.as_str(), d.line))
            .collect();
        assert_eq!(got, want, "{name} got:\n{}", report.render_human());
        assert!(report.taint_sources > 0, "{name}: source sites counted");
        assert!(report.taint_sinks > 0, "{name}: sink sites counted");
    }
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

/// Drives the shipped binary the way check.sh does — no scope flags, the
/// default configuration — on the fixtures whose pass needs no scope:
/// exit 1 naming the lint on every bad one, 0 on the clean set, 2 on a
/// usage error.
#[test]
fn binary_exit_codes_match_fixture_corpus() {
    let bin = env!("CARGO_BIN_EXE_pimdl-lint");
    for (name, lint) in [
        ("l1_bad.rs", "L1-SAFETY"),
        ("l3_bad.rs", "L3-ATOMIC"),
        ("l3_fence_bad.rs", "L3-ATOMIC"),
        ("l4_bad.rs", "L4-LOCK-ORDER"),
        ("l4_alias_bad.rs", "L4-LOCK-ORDER"),
    ] {
        let out = Command::new(bin)
            .arg("--file")
            .arg(fixture(name))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1");
        let text = String::from_utf8(out.stdout).expect("report is utf-8");
        assert!(text.contains(lint), "{name} report names {lint}: {text}");
    }

    let mut clean = Command::new(bin);
    for name in [
        "l1_clean.rs",
        "l3_clean.rs",
        "l3_fence_clean.rs",
        "l4_clean.rs",
        "l4_alias_clean.rs",
    ] {
        clean.arg("--file").arg(fixture(name));
    }
    let out = clean.output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean corpus must exit 0");

    let out = Command::new(bin)
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
}

/// A windowed allow entry excuses exactly its site: with the window over
/// the `expect` the fixture passes; with the window elsewhere the site is
/// still reported and the entry is flagged stale.
#[test]
fn allow_entry_with_line_window_excuses_only_its_site() {
    let allow = r#"
[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "unwrap"
lines = "5"
justification = "fixture test"

[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "lookup"
callee = "expect"
lines = "8-10"
justification = "fixture test: the key is inserted by the caller"

[[allow]]
lint = "L2-PANIC"
file = "l2_bad.rs"
func = "*"
callee = "panic"
justification = "fixture test"
"#;
    let report = lint_fixture("l2_bad.rs", allow);
    assert!(
        !report.failed(),
        "windowed entries excuse their sites, got:\n{}",
        report.render_human()
    );

    let moved = allow.replace("8-10", "40-50");
    let report = lint_fixture("l2_bad.rs", &moved);
    assert!(report.failed(), "a window that misses excuses nothing");
    let got: Vec<(&str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.lint.as_str(), d.line))
        .collect();
    assert!(
        got.contains(&("L2-PANIC", 9)) && lints_hit(&report).contains(&"LINT-ALLOW"),
        "site reported and entry stale: {got:?}"
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
        .arg("--file")
        .arg(fixture("l4_clean.rs"))
        .arg("--file")
        .arg(fixture("l1_clean.rs"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&path).expect("inventory written");
    let _ = std::fs::remove_file(&path);
    assert!(json.contains("\"unsafe_sites\""), "{json}");
    assert!(
        json.contains("State::queue"),
        "lock identity listed: {json}"
    );
    assert!(json.contains("\"taint_sources\""), "{json}");
    assert!(json.contains("\"taint_sinks\""), "{json}");
}
