//! Real-tree mutation pins. The fixture corpus proves each pass fires on
//! a toy; these prove it still sees the workspace's *real* code: each
//! case reads a real source file, checks it lints clean under the default
//! configuration, then seeds one bug that names real items
//! (`ReactorStats::polls`, `fabric::Cursor`) and asserts exactly the
//! expected code fires on the seeded lines. A refactor of the resolver or
//! the dataflow walker that silently stops seeing those items fails here,
//! not in production. The lock census gets the same treatment: a seeded
//! lock field in `reactor.rs` must grow `lock_count` by one.

use std::path::PathBuf;

use pimdl_lint::allow::AllowList;
use pimdl_lint::diag::Report;
use pimdl_lint::model::SourceFile;
use pimdl_lint::{run_lints, LintConfig};

const FABRIC: &str = "crates/pimdl-serve/src/fabric.rs";
const REACTOR: &str = "crates/pimdl-serve/src/reactor.rs";
const CONN: &str = "crates/pimdl-serve/src/conn.rs";

/// One seeded bug: `file`'s real text, with `append` added at the end,
/// must report `code` and nothing else, with every string in `names`
/// appearing in the messages.
struct Case {
    file: &'static str,
    append: &'static str,
    code: &'static str,
    names: &'static [&'static str],
}

const CASES: [Case; 5] = [
    Case {
        file: REACTOR,
        append: "fn seeded(p: *const u8) -> u8 { unsafe { *p } }\n",
        code: "L1-SAFETY",
        names: &["fn seeded"],
    },
    Case {
        file: CONN,
        append: "fn seeded(x: Option<u8>) -> u8 { x.unwrap() }\n",
        code: "L2-PANIC",
        names: &[".unwrap() in fn seeded"],
    },
    Case {
        file: REACTOR,
        append: "impl ReactorStats {\n    \
                 fn seeded_publish(&self) { self.polls.store(1, Ordering::Release); }\n}\n",
        code: "L3-ATOMIC",
        names: &["`Ordering::Release` in fn seeded_publish"],
    },
    Case {
        file: FABRIC,
        append: "fn seeded(c: &mut Cursor<'_>) -> std::result::Result<Vec<u8>, FrameError> {\n    \
                 let n = c.u32()? as usize;\n    Ok(Vec::<u8>::with_capacity(n))\n}\n",
        code: "L7-ALLOC",
        names: &["`from_le_bytes` at crates/pimdl-serve/src/fabric.rs"],
    },
    Case {
        file: FABRIC,
        append: "fn seeded(c: &mut Cursor<'_>) -> std::result::Result<u32, FrameError> {\n    \
                 let k = c.u32()?;\n    Ok(k * 2)\n}\n",
        code: "L8-OVERFLOW",
        names: &["`u32` multiplication", "`from_le_bytes` at"],
    },
];

fn read_real(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn lint_in_memory(path: &str, source: &str) -> Report {
    let file = SourceFile::parse(path, source);
    run_lints(&[file], &AllowList::default(), &LintConfig::default())
}

#[test]
fn each_kept_pass_fires_on_a_bug_seeded_into_the_real_sources() {
    for case in &CASES {
        let source = read_real(case.file);
        let clean = lint_in_memory(case.file, &source);
        assert!(
            !clean.failed(),
            "{} must lint clean unmutated, got:\n{}",
            case.file,
            clean.render_human()
        );

        let seeded_from = source.lines().count() as u32;
        let report = lint_in_memory(case.file, &(source + case.append));
        let mut codes: Vec<&str> = report.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        codes.dedup();
        assert_eq!(
            codes,
            vec![case.code],
            "{} seeded into {}:\n{}",
            case.code,
            case.file,
            report.render_human()
        );
        assert!(
            report.diagnostics.iter().all(|d| d.line > seeded_from),
            "{}: every finding sits in the seeded lines:\n{}",
            case.code,
            report.render_human()
        );
        let text = report.render_human();
        for name in case.names {
            assert!(text.contains(name), "{} names `{name}`:\n{text}", case.code);
        }
    }
}

#[test]
fn a_lock_field_seeded_into_the_real_sources_grows_the_census() {
    let source = read_real(REACTOR);
    let before = lint_in_memory(REACTOR, &source).lock_inventory;
    let seeded_at = source.lines().count() as u32 + 2;
    let seeded = source + "\nstruct Seeded {\n    gate: Arc<Mutex<u64>>,\n}\n";
    let after = lint_in_memory(REACTOR, &seeded).lock_inventory;
    assert_eq!(after.len(), before.len() + 1, "{after:?}");
    let new: Vec<(&str, u32)> = after
        .iter()
        .filter(|l| !before.contains(l))
        .map(|l| (l.site.as_str(), l.line))
        .collect();
    assert_eq!(new, [("Seeded::gate", seeded_at + 1)]);
}
