//! L5 — syscall confinement: raw syscall entry points (`asm!` /
//! `global_asm!` invocations and calls to `syscall*` functions) are
//! allowed only in the reactor's syscall shim. Everything else must go
//! through `std` types, so the unsafe surface that talks to the kernel
//! stays in one reviewed file.

use crate::allow::in_scope;
use crate::diag::{Diagnostic, Report};
use crate::model::SourceFile;
use crate::passes::is_macro_call;

pub const LINT: &str = "L5-SYSCALL";

pub fn run(file: &SourceFile, allowed_files: &[String], report: &mut Report) {
    let path = file.path.display().to_string().replace('\\', "/");
    if in_scope(&path, allowed_files) {
        return;
    }
    for (idx, tok) in file.tokens.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if file.in_attr(idx) {
            continue;
        }
        let is_asm = (name == "asm" || name == "global_asm") && is_macro_call(&file.tokens, idx);
        let is_syscall_call = name.starts_with("syscall")
            && file.tokens.get(idx + 1).is_some_and(|t| t.is_punct('('));
        if is_asm || is_syscall_call {
            let what = if is_asm {
                format!("`{name}!` invocation")
            } else {
                format!("raw syscall call `{name}(..)`")
            };
            report.diagnostics.push(Diagnostic::new(
                LINT,
                &file.path,
                tok.line,
                format!(
                    "{what} outside the confined syscall shim ({}): route kernel \
                     access through the reactor",
                    allowed_files.join(", "),
                ),
            ));
        }
    }
}
