//! `lint-allow.toml` — the checked-in escape hatch for the panic-path pass.
//!
//! Policy (see DESIGN.md): every entry names one lint, one file, one
//! enclosing function, one callee, and a non-empty `justification`
//! stating why the site is provably infallible or must panic. Entries
//! that go unused or lack a justification are themselves hard findings, so
//! the list can only shrink or stay honest.
//!
//! The parser covers exactly the TOML subset the file uses — `[[allow]]`
//! array-of-tables headers and `key = "string"` pairs — because the gate
//! must stay std-only.

use std::cell::Cell;
use std::path::Path;

/// One allowlist entry.
#[derive(Debug, Clone, Default)]
pub struct AllowEntry {
    pub lint: String,
    /// Guarded path suffix (`crates/x/src/y.rs` or bare `y.rs`).
    pub file: String,
    /// Enclosing function name; `*` matches any (module-level sites).
    pub func: String,
    /// The forbidden callee/macro being excused (`unwrap`, `expect`,
    /// `panic`, ...).
    pub callee: String,
    pub justification: String,
    /// Optional line window (`lines = "A-B"` or `lines = "A"`): the entry
    /// only excuses findings inside it, so it cannot silently swallow a
    /// *new* finding of the same code elsewhere in the same file.
    pub line_lo: Option<u32>,
    pub line_hi: Option<u32>,
    /// Source line of the entry header, for diagnostics about the entry.
    pub decl_line: u32,
    /// Whether any site matched this entry during the run.
    pub used: Cell<bool>,
}

impl AllowEntry {
    fn line_in_window(&self, line: u32) -> bool {
        match (self.line_lo, self.line_hi) {
            (Some(lo), Some(hi)) => lo <= line && line <= hi,
            (Some(lo), None) => lo == line,
            _ => true,
        }
    }
}

/// Parsed allowlist.
#[derive(Debug, Default)]
pub struct AllowList {
    pub entries: Vec<AllowEntry>,
    /// Parse-level problems (malformed lines, unknown keys).
    pub errors: Vec<(u32, String)>,
}

impl AllowList {
    /// Parses allowlist text. Unknown top-level tables and keys are
    /// errors: a typo must not silently disable an exemption.
    pub fn parse(text: &str) -> AllowList {
        let mut list = AllowList::default();
        let mut current: Option<AllowEntry> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = (i + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    list.entries.push(e);
                }
                current = Some(AllowEntry {
                    decl_line: lineno,
                    ..AllowEntry::default()
                });
                continue;
            }
            if line.starts_with('[') {
                list.errors
                    .push((lineno, format!("unknown table header `{line}`")));
                current = None;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                list.errors
                    .push((lineno, format!("expected `key = \"value\"`, got `{line}`")));
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let Some(value) = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(|v| v.replace("\\\"", "\"").replace("\\\\", "\\"))
            else {
                list.errors
                    .push((lineno, format!("value for `{key}` must be a quoted string")));
                continue;
            };
            let Some(entry) = current.as_mut() else {
                list.errors
                    .push((lineno, format!("`{key}` outside an [[allow]] entry")));
                continue;
            };
            match key {
                "lint" => entry.lint = value,
                "file" => entry.file = value,
                "func" => entry.func = value,
                "callee" => entry.callee = value,
                "justification" => entry.justification = value,
                "lines" => {
                    let (lo, hi) = match value.split_once('-') {
                        Some((a, b)) => (a.trim().parse().ok(), b.trim().parse().ok()),
                        None => (value.trim().parse().ok(), None),
                    };
                    if lo.is_none() || (value.contains('-') && hi.is_none()) {
                        list.errors.push((
                            lineno,
                            format!("`lines` must be \"N\" or \"N-M\", got \"{value}\""),
                        ));
                    } else {
                        entry.line_lo = lo;
                        entry.line_hi = hi;
                    }
                }
                other => list
                    .errors
                    .push((lineno, format!("unknown key `{other}` in [[allow]] entry"))),
            }
        }
        if let Some(e) = current.take() {
            list.entries.push(e);
        }
        list
    }

    /// Loads `lint-allow.toml` from `path`; a missing file is an empty
    /// (valid) allowlist.
    pub fn load(path: &Path) -> AllowList {
        match std::fs::read_to_string(path) {
            Ok(text) => AllowList::parse(&text),
            Err(_) => AllowList::default(),
        }
    }

    /// Finds a matching entry for a flagged site and marks it used. `line`
    /// is checked against the entry's optional `lines` window.
    pub fn permits(
        &self,
        lint: &str,
        file: &str,
        func: Option<&str>,
        callee: &str,
        line: u32,
    ) -> bool {
        for e in &self.entries {
            if e.lint == lint
                && e.callee == callee
                && suffix_match(file, &e.file)
                && (e.func == "*" || Some(e.func.as_str()) == func)
                && e.line_in_window(line)
                && !e.justification.trim().is_empty()
            {
                e.used.set(true);
                return true;
            }
        }
        false
    }
}

/// Path-component-guarded suffix match: `pat` matches `path` only when it
/// is the whole path or aligned on a `/` boundary, so `reactor.rs` cannot
/// be impersonated by `not_the_reactor.rs`.
pub fn suffix_match(path: &str, pat: &str) -> bool {
    path == pat
        || path
            .strip_suffix(pat)
            .is_some_and(|prefix| prefix.ends_with('/'))
}

/// Whether `path` is inside a configured scope: an entry ending in `.rs`
/// is a component-guarded suffix ([`suffix_match`]), anything else a
/// directory matched as a substring (`crates/pimdl-serve/src`).
pub fn in_scope(path: &str, scope: &[String]) -> bool {
    scope.iter().any(|p| {
        if p.ends_with(".rs") {
            suffix_match(path, p)
        } else {
            path.contains(p.as_str())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[[allow]]
lint = "L2-PANIC"
file = "crates/pimdl-tensor/src/pool.rs"
func = "run_chunks"
callee = "panic"
justification = "re-raises a worker panic"

[[allow]]
lint = "L2-PANIC"
file = "x.rs"
func = "*"
callee = "unwrap"
justification = ""
"#;

    #[test]
    fn parses_entries_and_matches_with_justification_required() {
        let list = AllowList::parse(SAMPLE);
        assert!(list.errors.is_empty(), "{:?}", list.errors);
        assert_eq!(list.entries.len(), 2);
        assert!(list.permits(
            "L2-PANIC",
            "crates/pimdl-tensor/src/pool.rs",
            Some("run_chunks"),
            "panic",
            10
        ));
        assert!(list.entries[0].used.get());
        // Empty justification never matches.
        assert!(!list.permits("L2-PANIC", "a/x.rs", Some("f"), "unwrap", 1));
    }

    #[test]
    fn line_window_limits_what_an_entry_excuses() {
        let list = AllowList::parse(
            "[[allow]]\nlint = \"L2-PANIC\"\nfile = \"m.rs\"\nfunc = \"*\"\n\
             callee = \"expect\"\nlines = \"10-20\"\njustification = \"infallible here\"\n",
        );
        assert!(list.errors.is_empty(), "{:?}", list.errors);
        assert!(list.permits("L2-PANIC", "a/m.rs", Some("f"), "expect", 15));
        assert!(!list.permits("L2-PANIC", "a/m.rs", Some("f"), "expect", 42));
        let single = AllowList::parse(
            "[[allow]]\nlint = \"X\"\nfile = \"m.rs\"\nfunc = \"*\"\ncallee = \"c\"\n\
             lines = \"7\"\njustification = \"j\"\n",
        );
        assert!(single.permits("X", "m.rs", None, "c", 7));
        assert!(!single.permits("X", "m.rs", None, "c", 8));
        let bad = AllowList::parse("[[allow]]\nlines = \"x-y\"\n");
        assert_eq!(bad.errors.len(), 1);
    }

    #[test]
    fn suffix_match_is_component_guarded() {
        assert!(suffix_match("crates/a/src/reactor.rs", "reactor.rs"));
        assert!(suffix_match("reactor.rs", "reactor.rs"));
        assert!(!suffix_match(
            "crates/a/src/not_the_reactor.rs",
            "reactor.rs"
        ));
    }

    #[test]
    fn unknown_keys_are_errors() {
        let list = AllowList::parse("[[allow]]\nreason = \"x\"\n");
        assert_eq!(list.errors.len(), 1);
    }
}
