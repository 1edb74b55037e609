//! Lock census: one site per non-test struct field whose type is or wraps
//! a `Mutex`/`RwLock`, plus one per non-test `let` whose initializer
//! constructs one (`Mutex::new(..)`, `RwLock::default()`, ..). There is no
//! identity resolution: a lock shared by two structs counts once per
//! field. The count is the inventory's `lock_count`, which `check.sh`'s
//! drift gate holds against the committed baseline, so a new lock arrives
//! as a reviewed diff.

use crate::cursor::{self, Pat};
use crate::diag::{LockSite, Report};
use crate::hir::FileHir;
use crate::model::SourceFile;
use crate::passes::{path_sep, stmt_end};

pub fn run(file: &SourceFile, hir: &FileHir, report: &mut Report) {
    let path = file.path.display().to_string();
    for s in &hir.structs {
        if file.in_test(s.tok) {
            continue;
        }
        for f in &s.fields {
            if let Some(lock) = f.ty.lock() {
                report.lock_inventory.push(LockSite {
                    file: path.clone(),
                    line: f.line,
                    site: format!("{}::{}", s.name, f.name),
                    kind: lock.name.clone(),
                });
            }
        }
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].ident() != Some("let") || file.in_test(i) || file.in_attr(i) {
            continue;
        }
        let l = cursor::let_head(file, i, toks.len());
        if !l.has_init(toks) {
            continue;
        }
        let in_cond = toks
            .get(i.wrapping_sub(1))
            .is_some_and(|t| matches!(t.ident(), Some("if" | "while")));
        let end = stmt_end(toks, l.eq + 1, toks.len(), in_cond);
        let ctor = (l.eq + 1..end).find_map(|k| {
            let kind = toks[k]
                .ident()
                .filter(|k| matches!(*k, "Mutex" | "RwLock"))?;
            path_sep(toks, k + 1).then_some(kind)
        });
        if let Some(kind) = ctor {
            let name = match l.pat {
                Pat::Name(n) => n,
                _ => "_".to_string(),
            };
            report.lock_inventory.push(LockSite {
                file: path.clone(),
                line: toks[i].line,
                site: format!("let {name}"),
                kind: kind.to_string(),
            });
        }
    }
}
