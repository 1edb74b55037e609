//! pimdl-lint — the workspace static-analysis gate.
//!
//! Four passes over every crate's source, built on a comment/string-aware
//! token scanner (no rustc, no deps, fully offline). The token rules run
//! per file; the dataflow passes run over a *resolution layer*
//! ([`resolve`]) that builds a per-crate symbol table and a
//! method-resolved call graph:
//!
//! * **L1-SAFETY** — every `unsafe` site carries a `// SAFETY:` comment.
//! * **L2-PANIC** — no `unwrap()/expect()/panic!` on serving hot paths.
//! * **L3-ATOMIC** — no `Acquire`/`Release`/`AcqRel`/`SeqCst` ordering and
//!   no `fence` in non-test code without a windowed allowlist entry.
//! * **L7-TAINT** — no wire-decoded value at an allocation, index, loop
//!   bound, or narrowing cast without a sanitizer: a `.min`/`.clamp`
//!   against a constant-like bound, a bound-and-bail guard, or a checked
//!   conversion ([`passes::taint`]).
//!
//! Beside them, a lock census ([`passes::lock_census`]) lists every
//! `Mutex`/`RwLock` field and constructing `let` for the inventory's
//! `lock_count`, which `scripts/check.sh` holds against its baseline.
//!
//! The resolver and the L7 dataflow walker read function bodies
//! through one statement cursor (`cursor`), which returns syntax only.
//!
//! DESIGN.md §10 ("Static analysis") is the full account: what each pass
//! checks, its known approximations, its real catches, and the allowlist
//! policy.

pub mod allow;
mod cursor;
pub mod diag;
pub mod hir;
pub mod lexer;
pub mod model;
pub mod passes;
pub mod resolve;

use std::path::{Path, PathBuf};

use allow::AllowList;
use diag::{Diagnostic, Report};
use model::SourceFile;

/// Pass configuration: which sources are hot paths (L2), and which
/// protocol modules the taint pass (L7) treats as untrusted-input
/// sources. One matching rule for both ([`allow::in_scope`]): an entry
/// ending in `.rs` is a component-guarded path suffix, anything else a
/// directory matched as a substring.
#[derive(Debug, Clone)]
pub struct LintConfig {
    pub hot_paths: Vec<String>,
    pub taint_paths: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_paths: [
                "crates/pimdl-serve/src",
                "crates/pimdl-tuner/src",
                "crates/pimdl-tensor/src/pool.rs",
                // The cost terms the tuner's model and bounds are made of.
                "crates/pimdl-sim/src/cost.rs",
                "crates/pimdl-sim/src/config.rs",
            ]
            .map(String::from)
            .to_vec(),
            taint_paths: [
                "crates/pimdl-serve/src/http.rs",
                "crates/pimdl-serve/src/codec.rs",
                "crates/pimdl-serve/src/fabric.rs",
                "crates/pimdl-serve/src/supervisor.rs",
                "crates/pimdl-serve/src/registry.rs",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

/// Directories under the workspace root that hold first-party sources.
/// `vendor/` is excluded by design: the vendored crates are offline
/// stand-ins for external deps, not code this workspace owns, and
/// `tests/fixtures/` holds pimdl-lint's own deliberately-bad snippets.
const SCAN_ROOTS: [&str; 3] = ["src", "tests", "crates"];
const EXCLUDE_COMPONENTS: [&str; 3] = ["fixtures", "target", "vendor"];

/// Recursively collects `.rs` files under the workspace roots, sorted for
/// deterministic reports.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in SCAN_ROOTS {
        let p = root.join(dir);
        if p.is_dir() {
            walk(&p, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDE_COMPONENTS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every pass over `files` and returns the aggregated report,
/// including allowlist hygiene findings (parse errors, entries with no
/// justification, entries that excused nothing).
pub fn run_lints(files: &[SourceFile], allow: &AllowList, cfg: &LintConfig) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Allowlist hygiene first: a malformed allowlist must fail the gate.
    for (line, msg) in &allow.errors {
        report.diagnostics.push(Diagnostic::new(
            "LINT-ALLOW",
            Path::new("lint-allow.toml"),
            *line,
            format!("allowlist parse error: {msg}"),
        ));
    }
    for e in &allow.entries {
        let problem = if e.justification.trim().is_empty() {
            "has no justification — every exemption must say why the site is sound"
        } else if e.lint == passes::memory_order::LINT && e.line_lo.is_none() {
            "has no `lines` window — a memory-ordering exemption must pin its audited site"
        } else {
            continue;
        };
        report.diagnostics.push(Diagnostic::new(
            "LINT-ALLOW",
            Path::new("lint-allow.toml"),
            e.decl_line,
            format!(
                "entry ({} {} {} {}) {problem}",
                e.lint, e.file, e.func, e.callee
            ),
        ));
    }

    // Timed per-pass loops: each pass runs to completion over every file
    // so the summary line reports honest per-pass findings and wall time.
    let timed = |name: &str, report: &mut Report, f: &mut dyn FnMut(&mut Report)| {
        let before = report.diagnostics.len();
        let t0 = std::time::Instant::now();
        f(report);
        report.pass_stats.push(diag::PassStat {
            name: name.to_string(),
            findings: report.diagnostics.len() - before,
            micros: t0.elapsed().as_micros(),
        });
    };

    timed("L1-SAFETY", &mut report, &mut |r| {
        for file in files {
            passes::unsafe_audit::run(file, r);
        }
    });
    timed("L2-PANIC", &mut report, &mut |r| {
        for file in files {
            let path = file.path.display().to_string().replace('\\', "/");
            if allow::in_scope(&path, &cfg.hot_paths) {
                passes::panic_path::run(file, allow, r);
            }
        }
    });

    timed("L3-ATOMIC", &mut report, &mut |r| {
        for file in files {
            passes::memory_order::run(file, allow, r);
        }
    });

    // Resolution layer: each file's item model (whose structs the lock
    // census reads too), symbol table, call graph.
    let t0 = std::time::Instant::now();
    let hirs: Vec<hir::FileHir> = files.iter().map(hir::build).collect();
    let ws = resolve::build(files, &hirs);
    report.pass_stats.push(diag::PassStat {
        name: "resolve".to_string(),
        findings: 0,
        micros: t0.elapsed().as_micros(),
    });
    timed("lock-census", &mut report, &mut |r| {
        for (file, h) in files.iter().zip(&hirs) {
            passes::lock_census::run(file, h, r);
        }
    });

    timed("L7-TAINT", &mut report, &mut |r| {
        passes::taint::run(&ws, files, &cfg.taint_paths, allow, r);
    });

    // Stale exemptions are findings: the allowlist may only shrink.
    for e in &allow.entries {
        if !e.used.get() && !e.justification.trim().is_empty() {
            report.diagnostics.push(Diagnostic::new(
                "LINT-ALLOW",
                Path::new("lint-allow.toml"),
                e.decl_line,
                format!(
                    "stale entry ({} {} {} {}): no site matches it any more — delete it",
                    e.lint, e.file, e.func, e.callee
                ),
            ));
        }
    }

    report.sort();
    report
}

/// Convenience: lint a set of paths with the given allowlist text.
pub fn lint_paths(
    paths: &[PathBuf],
    allow: &AllowList,
    cfg: &LintConfig,
) -> std::io::Result<Report> {
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        files.push(SourceFile::read(p)?);
    }
    Ok(run_lints(&files, allow, cfg))
}
