//! `pimdl-lint` binary: the pre-merge static-analysis gate.
//!
//! ```text
//! pimdl-lint [--format human|json|github] [--root DIR] [--file F]...
//!            [--hot SUFFIX]... [--syscall-file SUFFIX]... [--lockset PATH]...
//!            [--taint PATH]... [--inventory PATH]
//!            [--explain CODE]
//! ```
//!
//! With no `--file` arguments it scans the whole workspace (`src/`,
//! `tests/`, `crates/*`; `vendor/` and fixture dirs excluded) against
//! `<root>/lint-allow.toml`. `--json` is shorthand for `--format json`;
//! `--format github` emits `::error` workflow annotations. `--inventory`
//! writes the unsafe-site and lock-identity inventories as JSON.
//! `--explain CODE` prints the lint's rationale and exits. Exit codes:
//! 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pimdl_lint::allow::AllowList;
use pimdl_lint::{discover_files, explain, lint_paths, LintConfig};

const USAGE: &str = "usage: pimdl-lint [--format human|json|github] [--root DIR] \
                     [--file F]... [--hot SUFFIX]... [--syscall-file SUFFIX]... \
                     [--lockset PATH]... [--taint PATH]... \
                     [--inventory PATH] [--explain CODE]";

enum Format {
    Human,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut hot: Vec<String> = Vec::new();
    let mut syscall_files: Vec<String> = Vec::new();
    let mut lockset: Vec<String> = Vec::new();
    let mut taint: Vec<String> = Vec::new();
    let mut inventory: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("pimdl-lint: {flag} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match take("--format").as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                Some(other) => {
                    eprintln!("pimdl-lint: unknown format `{other}` (human|json|github)");
                    return ExitCode::from(2);
                }
                None => return ExitCode::from(2),
            },
            "--explain" => match take("--explain") {
                Some(code) => return explain_code(&code),
                None => return ExitCode::from(2),
            },
            "--root" => match take("--root") {
                Some(v) => root = PathBuf::from(v),
                None => return ExitCode::from(2),
            },
            "--file" => match take("--file") {
                Some(v) => files.push(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--hot" => match take("--hot") {
                Some(v) => hot.push(v),
                None => return ExitCode::from(2),
            },
            "--syscall-file" => match take("--syscall-file") {
                Some(v) => syscall_files.push(v),
                None => return ExitCode::from(2),
            },
            "--lockset" => match take("--lockset") {
                Some(v) => lockset.push(v),
                None => return ExitCode::from(2),
            },
            "--taint" => match take("--taint") {
                Some(v) => taint.push(v),
                None => return ExitCode::from(2),
            },
            "--inventory" => match take("--inventory") {
                Some(v) => inventory = Some(PathBuf::from(v)),
                None => return ExitCode::from(2),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pimdl-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let mut cfg = LintConfig::default();
    if !hot.is_empty() {
        cfg.hot_paths = hot;
    }
    if !syscall_files.is_empty() {
        cfg.syscall_files = syscall_files;
    }
    if !lockset.is_empty() {
        cfg.lockset_paths = lockset;
    }
    if !taint.is_empty() {
        cfg.taint_paths = taint;
    }

    let allow = AllowList::load(&root.join("lint-allow.toml"));
    let paths = if files.is_empty() {
        match discover_files(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pimdl-lint: scanning {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        files
    };
    if paths.is_empty() {
        eprintln!("pimdl-lint: no .rs files found under {}", root.display());
        return ExitCode::from(2);
    }

    let report = match lint_paths(&paths, &allow, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pimdl-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = inventory {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(e) = std::fs::write(&path, report.render_inventory_json()) {
            eprintln!("pimdl-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Github => print!("{}", report.render_github()),
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn explain_code(code: &str) -> ExitCode {
    match explain::lookup(code) {
        Some(e) => {
            print!("{}", e.render());
            ExitCode::SUCCESS
        }
        None => {
            let known: Vec<&str> = explain::all().iter().map(|e| e.code).collect();
            eprintln!(
                "pimdl-lint: unknown lint code `{code}` — known codes: {}",
                known.join(", ")
            );
            ExitCode::from(2)
        }
    }
}
