//! L3 — memory-ordering audit, a token rule: in non-test code every
//! `Ordering::{Acquire, Release, AcqRel, SeqCst}` and every `fence(..)` /
//! `compiler_fence(..)` call is a finding unless a justified `lint-allow.toml`
//! entry with a `lines` window excuses it. The workspace synchronizes
//! through locks, channels and `Relaxed` counters, so a new memory-ordering
//! protocol arrives as a reviewed allowlist diff, not as code a pass has to
//! prove right.
//!
//! Known approximation (DESIGN.md): an ordering imported bare
//! (`use Ordering::Release;` and then `Release`) is not seen.

use crate::allow::AllowList;
use crate::diag::{Diagnostic, Report};
use crate::model::SourceFile;
use crate::passes::path_sep;

pub const LINT: &str = "L3-ATOMIC";

const ORDERINGS: [&str; 4] = ["Acquire", "Release", "AcqRel", "SeqCst"];
const FENCES: [&str; 2] = ["fence", "compiler_fence"];

pub fn run(file: &SourceFile, allow: &AllowList, report: &mut Report) {
    let path = file.path.display().to_string();
    let toks = &file.tokens;
    // A fence's own ordering argument is part of the fence's finding.
    let mut inside_fence = 0;
    for (idx, tok) in toks.iter().enumerate() {
        let Some(name) = tok.ident() else { continue };
        if idx < inside_fence || file.in_test(idx) || file.in_attr(idx) {
            continue;
        }
        let what = if ORDERINGS.contains(&name)
            && idx >= 3
            && path_sep(toks, idx - 2)
            && toks[idx - 3].ident() == Some("Ordering")
        {
            format!("`Ordering::{name}`")
        } else if FENCES.contains(&name)
            && toks.get(idx + 1).is_some_and(|t| t.is_punct('('))
            && !toks
                .get(idx.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('.') || t.ident() == Some("fn"))
        {
            inside_fence = file.skip_balanced(idx + 1);
            format!("`{name}(..)`")
        } else {
            continue;
        };
        let func = file.enclosing_fn(idx);
        if allow.permits(LINT, &path, func, name, tok.line) {
            continue;
        }
        let in_fn = func.map_or(String::new(), |f| format!(" in fn {f}"));
        report.diagnostics.push(Diagnostic::new(
            LINT,
            &file.path,
            tok.line,
            format!(
                "{what}{in_fn}: the workspace synchronizes through locks, channels and \
                 Relaxed counters; a memory-ordering protocol needs a lint-allow.toml \
                 entry with a `lines` window and a justification"
            ),
        ));
    }
}
