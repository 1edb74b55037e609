//! `pimdl-lint` binary: the pre-merge static-analysis gate.
//!
//! ```text
//! pimdl-lint [--root DIR] [--file F]... [--inventory PATH]
//! ```
//!
//! With no `--file` arguments it scans the whole workspace (`src/`,
//! `tests/`, `crates/*`; `vendor/` and fixture dirs excluded) against
//! `<root>/lint-allow.toml` under the default [`LintConfig`].
//! `--inventory` writes the unsafe-site, lock-census, and taint
//! source/sink inventories as JSON. Exit codes: 0 clean, 1 findings,
//! 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use pimdl_lint::allow::AllowList;
use pimdl_lint::{discover_files, lint_paths, LintConfig};

const USAGE: &str = "usage: pimdl-lint [--root DIR] [--file F]... [--inventory PATH]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut inventory: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if matches!(arg.as_str(), "--help" | "-h") {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        if !matches!(arg.as_str(), "--root" | "--file" | "--inventory") {
            eprintln!("pimdl-lint: unknown argument `{arg}`\n{USAGE}");
            return ExitCode::from(2);
        }
        let Some(value) = args.next().map(PathBuf::from) else {
            eprintln!("pimdl-lint: {arg} needs a value");
            return ExitCode::from(2);
        };
        match arg.as_str() {
            "--root" => root = value,
            "--file" => files.push(value),
            _ => inventory = Some(value),
        }
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

    let report = match lint_paths(&paths, &allow, &LintConfig::default()) {
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

    print!("{}", report.render_human());
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
