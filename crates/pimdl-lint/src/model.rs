//! Per-file source model shared by every pass: the token stream, comment
//! map, attribute spans, `#[cfg(test)]`/`#[test]` regions, function
//! spans, and the structural index (matching closers, owning
//! functions), all computed once per file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, Tok, TokKind};

/// A lexed source file plus the derived structure the passes query.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as given to the scanner (kept relative for stable diagnostics).
    pub path: PathBuf,
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
    /// For each token index, whether it lies inside an attribute (`#[...]`).
    attr_tok: Vec<bool>,
    /// For each token index, whether it lies inside test-only code.
    test_tok: Vec<bool>,
    /// Function spans, in source order (outer functions before nested ones).
    fns: Vec<FnSpan>,
    /// For each `(`/`[`/`{` token, the index of its matching closer;
    /// `tokens.len()` for unmatched openers and every other token.
    close_of: Vec<usize>,
    /// For each token, the index (into `fns`) of the innermost fn whose
    /// body contains it.
    owner: Vec<Option<usize>>,
    /// Per fn, the `(fn_tok, end)` token ranges of the fn items nested
    /// inside it (the walkers analyze those as functions of their own).
    nested: Vec<Vec<(usize, usize)>>,
    /// Comment text accumulated per line (a line may carry several).
    comment_by_line: HashMap<u32, String>,
    /// Lines that contain at least one non-attribute code token.
    code_lines: HashMap<u32, bool>,
    /// Lines fully covered by a (possibly multi-line) comment.
    comment_only_capable: HashMap<u32, bool>,
}

/// One `fn` item: its name and the token range of its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the body `{` (== `end` when the fn has no body).
    pub body_start: usize,
    /// Token index one past the matching `}` (or the `;`).
    pub end: usize,
}

impl SourceFile {
    /// Lexes and models `source` under the given display path.
    pub fn parse(path: impl Into<PathBuf>, source: &str) -> SourceFile {
        let lexed = lex(source);
        let tokens = lexed.tokens;
        let comments = lexed.comments;
        let attr_tok = mark_attributes(&tokens);
        let close_of = match_braces(&tokens);
        let test_tok = mark_test_regions(&tokens, &attr_tok, &close_of);
        let fns = find_fns(&tokens, &close_of);
        let owner = owner_map(&fns, tokens.len());
        let nested = fns
            .iter()
            .map(|outer| {
                fns.iter()
                    .filter(|f| f.fn_tok > outer.fn_tok && f.end <= outer.end)
                    .map(|f| (f.fn_tok, f.end))
                    .collect()
            })
            .collect();

        let mut comment_by_line: HashMap<u32, String> = HashMap::new();
        let mut comment_only_capable: HashMap<u32, bool> = HashMap::new();
        for c in &comments {
            for line in c.line_start..=c.line_end {
                comment_by_line.entry(line).or_default().push_str(&c.text);
                comment_only_capable.insert(line, true);
            }
        }
        let mut code_lines: HashMap<u32, bool> = HashMap::new();
        for (idx, t) in tokens.iter().enumerate() {
            if !attr_tok[idx] {
                code_lines.insert(t.line, true);
            }
        }

        SourceFile {
            path: path.into(),
            tokens,
            comments,
            attr_tok,
            test_tok,
            fns,
            close_of,
            owner,
            nested,
            comment_by_line,
            code_lines,
            comment_only_capable,
        }
    }

    /// Reads and models the file at `path`.
    pub fn read(path: &Path) -> std::io::Result<SourceFile> {
        let source = std::fs::read_to_string(path)?;
        Ok(SourceFile::parse(path, &source))
    }

    /// Whether token `idx` lies in test-only code (`#[cfg(test)]` item or
    /// `#[test]` function).
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_tok.get(idx).copied().unwrap_or(false)
    }

    /// Whether token `idx` lies inside an attribute.
    pub fn in_attr(&self, idx: usize) -> bool {
        self.attr_tok.get(idx).copied().unwrap_or(false)
    }

    /// Name of the innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.owner(idx).map(|fi| self.fns[fi].name.as_str())
    }

    /// All modeled function spans, in source order.
    pub fn fns(&self) -> &[FnSpan] {
        &self.fns
    }

    /// Index of the closer matching the `(`/`[`/`{` at `open`;
    /// `tokens.len()` when the group never closes.
    pub fn close_of(&self, open: usize) -> usize {
        self.close_of
            .get(open)
            .copied()
            .unwrap_or(self.tokens.len())
    }

    /// Index one past the balanced group opened at `open`.
    pub fn skip_balanced(&self, open: usize) -> usize {
        (self.close_of(open) + 1).min(self.tokens.len())
    }

    /// Index (into `fns()`) of the innermost fn whose body contains `idx`.
    pub fn owner(&self, idx: usize) -> Option<usize> {
        self.owner.get(idx).copied().flatten()
    }

    /// `(fn_tok, end)` ranges of the fn items nested inside `fns()[fn_idx]`.
    pub fn nested_fns(&self, fn_idx: usize) -> &[(usize, usize)] {
        &self.nested[fn_idx]
    }

    /// Whether a `// SAFETY:` (or doc `# Safety`) comment immediately
    /// precedes `line`: the contiguous preamble of comment-only and
    /// attribute-only lines directly above, or a comment on `line` itself.
    /// A blank or code line ends the preamble.
    pub fn has_safety_preamble(&self, line: u32) -> bool {
        if self
            .comment_by_line
            .get(&line)
            .is_some_and(|t| is_safety_text(t))
        {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let has_code = self.code_lines.get(&l).copied().unwrap_or(false);
            let has_comment = self.comment_only_capable.get(&l).copied().unwrap_or(false);
            let has_attr = self
                .tokens
                .iter()
                .enumerate()
                .any(|(i, t)| t.line == l && self.attr_tok[i]);
            if has_code {
                return false;
            }
            if has_comment {
                if self
                    .comment_by_line
                    .get(&l)
                    .is_some_and(|t| is_safety_text(t))
                {
                    return true;
                }
            } else if !has_attr {
                // Blank line (no code, no comment, no attribute).
                return false;
            }
            if l == 1 {
                return false;
            }
            l -= 1;
        }
        false
    }
}

/// Whether comment text documents a safety invariant.
fn is_safety_text(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

/// Marks every token inside `#[...]` / `#![...]` attribute groups.
fn mark_attributes(tokens: &[Tok]) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let mut j = i + 1;
            if j < tokens.len() && tokens[j].is_punct('!') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('[') {
                let mut depth = 0i32;
                let start = i;
                while j < tokens.len() {
                    if tokens[j].is_punct('[') {
                        depth += 1;
                    } else if tokens[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for m in &mut marked[start..=(j.min(tokens.len() - 1))] {
                    *m = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    marked
}

/// For each `(`/`[`/`{` token index, the index of its matching closer
/// (`tokens.len()` everywhere else). Each bracket kind nests on its own
/// stack, so a stray closer of one kind never unbalances another.
fn match_braces(tokens: &[Tok]) -> Vec<usize> {
    let mut close_of = vec![tokens.len(); tokens.len()];
    let mut stacks: [Vec<usize>; 3] = Default::default();
    let kind = |c: char| match c {
        '(' | ')' => 0,
        '[' | ']' => 1,
        _ => 2,
    };
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Punct(c @ ('(' | '[' | '{')) => stacks[kind(c)].push(i),
            TokKind::Punct(c @ (')' | ']' | '}')) => {
                if let Some(open) = stacks[kind(c)].pop() {
                    close_of[open] = i;
                }
            }
            _ => {}
        }
    }
    close_of
}

/// For each of `n` tokens, the index of the innermost fn whose body
/// contains it (the smallest span wins, the first on a tie).
fn owner_map(fns: &[FnSpan], n: usize) -> Vec<Option<usize>> {
    let mut out: Vec<Option<usize>> = vec![None; n];
    let mut best: Vec<usize> = vec![usize::MAX; n];
    for (fi, f) in fns.iter().enumerate() {
        let size = f.end - f.body_start;
        for i in (f.body_start + 1)..f.end.saturating_sub(1).min(n) {
            if size < best[i] {
                best[i] = size;
                out[i] = Some(fi);
            }
        }
    }
    out
}

/// Marks tokens covered by test-only items: an attribute group containing
/// the ident `test` (and not `not`, so `#[cfg(not(test))]` code stays
/// linted) applies to the item whose body `{...}` follows it, or up to the
/// terminating `;` for body-less items.
fn mark_test_regions(tokens: &[Tok], attr_tok: &[bool], close_of: &[usize]) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && attr_tok[i] {
            // Collect this attribute group.
            let mut j = i;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && attr_tok[j] {
                // Stop at the start of a *new* group (another `#`) after i.
                if j > i && tokens[j].is_punct('#') {
                    break;
                }
                match tokens[j].ident() {
                    Some("test") => has_test = true,
                    Some("not") => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                let k = item_open(tokens, j, tokens.len());
                let end = if k < tokens.len() && tokens[k].is_punct('{') {
                    close_of[k].min(tokens.len() - 1)
                } else {
                    k.min(tokens.len() - 1)
                };
                for m in &mut marked[i..=end] {
                    *m = true;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    marked
}

/// Index of the first `{` or `;` outside every `()`/`[]` group in
/// `[from, end)` — an item's body or its end — or `end`.
pub(crate) fn item_open(tokens: &[Tok], from: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().take(end).skip(from) {
        match &t.kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{' | ';') if depth == 0 => return k,
            _ => {}
        }
    }
    end
}

/// Finds every `fn NAME` item and the token range of its body.
fn find_fns(tokens: &[Tok], close_of: &[usize]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        // The body `{`, or the `;` of a body-less declaration.
        let k = item_open(tokens, i + 2, tokens.len());
        let (body_start, end) = if k < tokens.len() && tokens[k].is_punct('{') {
            (k, close_of[k].min(tokens.len() - 1) + 1)
        } else {
            (k, k)
        };
        fns.push(FnSpan {
            name: name.to_string(),
            fn_tok: i,
            body_start,
            end,
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mods_and_test_fns() {
        let src = r#"
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
}
#[test]
fn case() { z.unwrap(); }
#[cfg(not(test))]
fn also_live() { w.unwrap(); }
"#;
        let f = SourceFile::parse("t.rs", src);
        let flags: Vec<(String, bool)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ident() == Some("unwrap"))
            .map(|(i, t)| (format!("line{}", t.line), f.in_test(i)))
            .collect();
        assert_eq!(
            flags,
            [
                ("line2".to_string(), false),
                ("line5".to_string(), true),
                ("line8".to_string(), true),
                ("line10".to_string(), false),
            ]
        );
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() { fn inner() { marker(); } }";
        let f = SourceFile::parse("t.rs", src);
        let idx = f
            .tokens
            .iter()
            .position(|t| t.ident() == Some("marker"))
            .unwrap();
        assert_eq!(f.enclosing_fn(idx), Some("inner"));
    }

    #[test]
    fn safety_preamble_walks_over_attributes_and_doc_comments() {
        let src = r#"
/// Raw syscall.
///
/// # Safety
///
/// Caller checks everything.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6() {}
"#;
        let f = SourceFile::parse("t.rs", src);
        assert!(f.has_safety_preamble(8));
    }

    #[test]
    fn safety_preamble_stops_at_code_and_blank_lines() {
        let src = "// SAFETY: fine\nlet a = 1;\nlet b = unsafe { x() };\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.has_safety_preamble(3), "code line breaks the preamble");
        let src2 = "// SAFETY: fine\n\nlet b = unsafe { x() };\n";
        let f2 = SourceFile::parse("t.rs", src2);
        assert!(!f2.has_safety_preamble(3), "blank line breaks the preamble");
        let src3 = "// SAFETY: fine\nlet b = unsafe { x() };\n";
        let f3 = SourceFile::parse("t.rs", src3);
        assert!(f3.has_safety_preamble(2));
    }
}
