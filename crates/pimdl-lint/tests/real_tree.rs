//! Real-tree mutation pins. The fixture corpus proves each pass fires on
//! a toy; these prove it still sees the workspace's *real* code: each
//! case reads a real source file, checks it lints clean under the default
//! configuration, then seeds one bug and asserts exactly the expected
//! (code, line) set. A seed either appends a bug that names real items
//! (`ReactorStats::polls`, `fabric::Cursor`), or deletes a real guard to
//! re-inject a bug the lint caught when it was written: the fabric
//! `Execute` decoder's request count and the HTTP client's chunk-size and
//! Content-Length allocations. A refactor of the resolver or the dataflow
//! walker that silently stops seeing those items fails here, not in
//! production. The lock census gets the same treatment: a seeded lock
//! field in `reactor.rs` must grow `lock_count` by one. Last, the whole
//! tree lints clean and its inventory stays within the committed one.

use std::path::{Path, PathBuf};

use pimdl_lint::allow::AllowList;
use pimdl_lint::diag::Report;
use pimdl_lint::model::SourceFile;
use pimdl_lint::{discover_files, run_lints, LintConfig};

const FABRIC: &str = "crates/pimdl-serve/src/fabric.rs";
const HTTP: &str = "crates/pimdl-serve/src/http.rs";
const REACTOR: &str = "crates/pimdl-serve/src/reactor.rs";
const CONN: &str = "crates/pimdl-serve/src/conn.rs";

/// How a case mutates the real file.
enum Seed {
    /// Text added at the end of the file.
    Append(&'static str),
    /// An exact span, which must occur exactly once, cut out of the file.
    Delete(&'static str),
}

/// One seeded bug: `file`'s real text, mutated by `seed`, must report
/// exactly `want` — each `(code, offset)` a finding `offset` lines below
/// the first seeded line (the first appended line, or the line that now
/// stands where the deleted span began) — with every string in `names`
/// appearing in the messages.
struct Case {
    file: &'static str,
    seed: Seed,
    want: &'static [(&'static str, u32)],
    names: &'static [&'static str],
}

const CASES: [Case; 7] = [
    Case {
        file: REACTOR,
        seed: Seed::Append("fn seeded(p: *const u8) -> u8 { unsafe { *p } }\n"),
        want: &[("L1-SAFETY", 0)],
        names: &["fn seeded"],
    },
    Case {
        file: CONN,
        seed: Seed::Append("fn seeded(x: Option<u8>) -> u8 { x.unwrap() }\n"),
        want: &[("L2-PANIC", 0)],
        names: &[".unwrap() in fn seeded"],
    },
    Case {
        file: REACTOR,
        seed: Seed::Append(
            "impl ReactorStats {\n    \
             fn seeded_publish(&self) { self.polls.store(1, Ordering::Release); }\n}\n",
        ),
        want: &[("L3-ATOMIC", 1)],
        names: &["`Ordering::Release` in fn seeded_publish"],
    },
    Case {
        file: FABRIC,
        seed: Seed::Append(
            "fn seeded(c: &mut Cursor<'_>) -> std::result::Result<Vec<u8>, FrameError> {\n    \
             let n = c.u32()? as usize;\n    Ok(Vec::<u8>::with_capacity(n))\n}\n",
        ),
        want: &[("L7-ALLOC", 2)],
        names: &["`from_le_bytes` at crates/pimdl-serve/src/fabric.rs"],
    },
    // The `Execute` decoder without its request-count guard: the wire
    // count sizes the request vector and bounds the decode loop.
    Case {
        file: FABRIC,
        seed: Seed::Delete(
            r#"            if n > MAX_EXECUTE_REQUESTS {
                return Err(FrameError::new(format!(
                    "request count {n} exceeds MAX_EXECUTE_REQUESTS"
                )));
            }
"#,
        ),
        want: &[("L7-ALLOC", 0), ("L7-LOOP", 1)],
        names: &["`from_le_bytes` at crates/pimdl-serve/src/fabric.rs"],
    },
    // The HTTP client without its chunk-size guard: a hex size line
    // sizes the chunk buffer.
    Case {
        file: HTTP,
        seed: Seed::Delete(
            r#"            if size > MAX_CLIENT_CHUNK_BYTES {
                return Err(ServeError::Io {
                    detail: format!("chunk of {size} bytes exceeds MAX_CLIENT_CHUNK_BYTES"),
                });
            }
"#,
        ),
        want: &[("L7-ALLOC", 0)],
        names: &["`from_str_radix` at crates/pimdl-serve/src/http.rs"],
    },
    // The HTTP client without its Content-Length guard: the header's
    // value sizes the body buffer.
    Case {
        file: HTTP,
        seed: Seed::Delete(
            r#"        if len > MAX_CLIENT_BODY_BYTES {
            return Err(ServeError::Io {
                detail: format!("body of {len} bytes exceeds MAX_CLIENT_BODY_BYTES"),
            });
        }
"#,
        ),
        want: &[("L7-ALLOC", 0)],
        names: &["`parse` at crates/pimdl-serve/src/http.rs"],
    },
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_real(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn lint_in_memory(path: &str, source: &str) -> Report {
    let file = SourceFile::parse(path, source);
    run_lints(&[file], &AllowList::default(), &LintConfig::default())
}

/// The mutated text, and the 1-based line its first seeded line sits on.
fn seeded(source: &str, seed: &Seed) -> (String, u32) {
    match seed {
        Seed::Append(text) => (format!("{source}{text}"), source.lines().count() as u32 + 1),
        Seed::Delete(span) => {
            let hits: Vec<usize> = source.match_indices(span).map(|(at, _)| at).collect();
            assert_eq!(
                hits.len(),
                1,
                "the deleted span must occur exactly once, found {}:\n{span}",
                hits.len()
            );
            let at = hits[0];
            let line = source[..at].matches('\n').count() as u32 + 1;
            (
                format!("{}{}", &source[..at], &source[at + span.len()..]),
                line,
            )
        }
    }
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

        let (text, first) = seeded(&source, &case.seed);
        let report = lint_in_memory(case.file, &text);
        let got: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.lint.as_str(), d.line))
            .collect();
        let want: Vec<(&str, u32)> = case.want.iter().map(|&(c, off)| (c, first + off)).collect();
        assert_eq!(
            got,
            want,
            "seeded into {}:\n{}",
            case.file,
            report.render_human()
        );
        let text = report.render_human();
        for name in case.names {
            assert!(text.contains(name), "{} names `{name}`:\n{text}", case.file);
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

/// The integer a `"key": N` line of the inventory JSON holds.
fn inventory_count(json: &str, key: &str) -> usize {
    let tag = format!("\"{key}\": ");
    let at = json
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in inventory"))
        + tag.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or_else(|e| panic!("{key}: {e}"))
}

/// The gate `scripts/check.sh` runs, in tier-1: the whole workspace,
/// read under the same `./`-relative paths the binary sees from the repo
/// root and linted against the repo's allowlist, reports no finding, and
/// its unsafe, lock and taint-sink counts stay within the committed
/// `results/lint_inventory.json` (growth must arrive as a reviewed
/// re-commit of that file).
#[test]
fn the_whole_tree_lints_clean_within_the_committed_inventory() {
    let root = repo_root();
    let paths = discover_files(&root).expect("workspace is readable");
    let files: Vec<SourceFile> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("discovered under the root");
            let text = std::fs::read_to_string(p).expect("source is readable");
            SourceFile::parse(Path::new(".").join(rel), &text)
        })
        .collect();
    let allow = AllowList::load(&root.join("lint-allow.toml"));
    let report = run_lints(&files, &allow, &LintConfig::default());
    assert!(
        !report.failed(),
        "the tree must lint clean:\n{}",
        report.render_human()
    );

    let committed = read_real("results/lint_inventory.json");
    let counts = [
        ("unsafe_count", report.unsafe_inventory.len()),
        ("lock_count", report.lock_inventory.len()),
        ("taint_sinks", report.taint_sinks),
    ];
    for (key, now) in counts {
        let base = inventory_count(&committed, key);
        assert!(
            now <= base,
            "{key} grew {base} -> {now}: review the new sites and re-commit \
             results/lint_inventory.json"
        );
    }
}
