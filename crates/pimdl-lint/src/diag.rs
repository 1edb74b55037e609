//! Diagnostics, the report aggregate, and the hand-rolled JSON encoding
//! of the inventory (the crate is std-only by design: the gate must build
//! with zero deps).

use std::fmt::Write as _;
use std::path::Path;

/// One finding: `file:line: LINT-ID message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub lint: String,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Diagnostic {
    pub fn new(lint: &str, file: &Path, line: u32, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint: lint.to_string(),
            file: file.display().to_string(),
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// One `unsafe` site recorded by the L1 inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// Enclosing function, or `<module>` for impl-level / item-level sites.
    pub context: String,
    /// Whether the site carries a `// SAFETY:` / `# Safety` annotation.
    pub documented: bool,
}

/// Per-pass finding count and wall time.
#[derive(Debug, Clone)]
pub struct PassStat {
    pub name: String,
    pub findings: usize,
    pub micros: u128,
}

/// One resolved lock identity: its canonical display name, kind, and the
/// identity keys (with declaration sites) the union-find merged into it.
#[derive(Debug, Clone)]
pub struct LockGroup {
    pub display: String,
    pub kind: String,
    pub members: Vec<String>,
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub unsafe_inventory: Vec<UnsafeSite>,
    pub lock_inventory: Vec<LockGroup>,
    pub pass_stats: Vec<PassStat>,
    pub files_scanned: usize,
    /// Distinct (file, line) sites where L7 recognized a taint source.
    pub taint_sources: usize,
    /// Distinct (file, line) sites L7 checked as sinks (tainted or not).
    pub taint_sinks: usize,
}

impl Report {
    /// Whether the gate should fail.
    pub fn failed(&self) -> bool {
        !self.diagnostics.is_empty()
    }

    /// Stable ordering: by file, then line, then lint id.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));
        self.unsafe_inventory
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Human-readable report (diagnostics plus the unsafe inventory).
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        if !self.pass_stats.is_empty() {
            let summary: Vec<String> = self
                .pass_stats
                .iter()
                .map(|p| format!("{} {} in {}µs", p.name, p.findings, p.micros))
                .collect();
            let _ = writeln!(out, "pimdl-lint passes: {}", summary.join(" | "));
        }
        let _ = writeln!(
            out,
            "pimdl-lint: {} file(s) scanned, {} finding(s), {} unsafe site(s) ({} documented)",
            self.files_scanned,
            self.diagnostics.len(),
            self.unsafe_inventory.len(),
            self.unsafe_inventory
                .iter()
                .filter(|s| s.documented)
                .count(),
        );
        out
    }

    /// The drift-reviewable inventory file (`results/lint_inventory.json`):
    /// unsafe sites, resolved lock identities, and taint source/sink
    /// counts — no diagnostics.
    pub fn render_inventory_json(&self) -> String {
        let mut out = String::from("{\n  \"unsafe_sites\": [");
        for (i, s) in self.unsafe_inventory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"context\": {}, \"documented\": {}}}",
                json_str(&s.file),
                s.line,
                json_str(&s.context),
                s.documented,
            );
        }
        if !self.unsafe_inventory.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"lock_identities\": [");
        for (i, g) in self.lock_inventory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let members: Vec<String> = g.members.iter().map(|m| json_str(m)).collect();
            let _ = write!(
                out,
                "\n    {{\"lock\": {}, \"kind\": {}, \"members\": [{}]}}",
                json_str(&g.display),
                json_str(&g.kind),
                members.join(", "),
            );
        }
        if !self.lock_inventory.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"unsafe_count\": {},\n  \"lock_count\": {},\n  \
             \"taint_sources\": {},\n  \"taint_sinks\": {}\n}}\n",
            self.unsafe_inventory.len(),
            self.lock_inventory.len(),
            self.taint_sources,
            self.taint_sinks,
        );
        out
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_json_escapes_and_counts() {
        let mut r = Report::default();
        r.unsafe_inventory.push(UnsafeSite {
            file: "a/b.rs".to_string(),
            line: 7,
            context: "fn say \"no\"".to_string(),
            documented: true,
        });
        let json = r.render_inventory_json();
        assert!(json.contains(r#""file": "a/b.rs", "line": 7"#));
        assert!(json.contains(r#"\"no\""#));
        assert!(json.contains(r#""unsafe_count": 1"#));
    }
}
