//! The statement-level syntax of a function body, written once under the
//! two statement walkers: `resolve::Walker` (the call graph) and
//! `taint::Analyzer` (the L7 dataflow). Everything here returns syntax
//! only — token indices, names, ranges; what a binding or
//! a chain *means* stays with each walker.

use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;
use crate::passes::{is_arrow, path_sep, skip_angle};

/// Keywords that never start a value chain.
pub(crate) const KEYWORDS: [&str; 37] = [
    "let", "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn",
    "struct", "enum", "impl", "trait", "mod", "use", "pub", "unsafe", "move", "ref", "mut", "as",
    "in", "where", "type", "const", "static", "dyn", "async", "await", "crate", "super", "box",
    "yield", "true", "false",
];

/// Where a walk over `fns()[fn_idx]`'s body resumes when token `i` is not
/// that fn's own code: past a nested fn item (analyzed as a function of
/// its own), or past one attribute token. `None` for the fn's own tokens.
pub(crate) fn foreign(file: &SourceFile, fn_idx: usize, i: usize) -> Option<usize> {
    let mut nested = file.nested_fns(fn_idx).iter();
    match nested.find(|&&(s, e)| s <= i && i < e) {
        Some(&(_, end)) => Some(end),
        None => file.in_attr(i).then_some(i + 1),
    }
}

/// End (exclusive) of the comma-separated element starting at `from`: the
/// next `,` outside every `()`/`[]`/`{}`/`<>` group, or `cap`.
pub(crate) fn element_end(toks: &[Tok], from: usize, cap: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(cap).skip(from) {
        match &t.kind {
            TokKind::Punct('(' | '[' | '{' | '<') => depth += 1,
            TokKind::Punct(')' | ']' | '}') => depth -= 1,
            TokKind::Punct('>') if depth > 0 && !is_arrow(toks, j) => depth -= 1,
            TokKind::Punct(',') if depth == 0 => return j,
            _ => {}
        }
    }
    cap
}

/// The non-empty comma-separated elements of `[s, e)`.
pub(crate) fn elements(toks: &[Tok], s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut k = s;
    while k < e {
        let end = element_end(toks, k, e);
        if k < end {
            out.push((k, end));
        }
        k = end + 1;
    }
    out
}

/// An assignment at the ident `i`: `x = ..` (op `None`) or `x op= ..`,
/// never `==` or `=>`. Returns the operator and the index of the
/// right-hand side.
pub(crate) fn assignment(toks: &[Tok], i: usize) -> Option<(Option<char>, usize)> {
    let is = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    match toks.get(i + 1)?.kind {
        TokKind::Punct('=') if !is(i + 2, '=') && !is(i + 2, '>') => Some((None, i + 2)),
        TokKind::Punct(op @ ('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')) if is(i + 2, '=') => {
            Some((Some(op), i + 3))
        }
        _ => None,
    }
}

/// The binding shape of a `let` pattern.
pub(crate) enum Pat {
    /// `[mut] name`.
    Name(String),
    /// `(..)`: its names when every element is `[mut] ident`.
    Tuple(Option<Vec<String>>),
    /// `Variant(..)`: its names when every element is `[mut] ident`.
    Variant(Option<Vec<String>>),
    /// Paths, struct patterns, slices, references.
    Other,
}

/// One `let [mut] PAT [: TY] = INIT` head.
pub(crate) struct Let {
    pub pat: Pat,
    /// Index one past the pattern (an annotation's `:` when there is one).
    pub pat_end: usize,
    /// The `=` before the initializer, or where the search stopped: a
    /// `;` or `{` outside every group (no initializer), or the cap.
    pub eq: usize,
}

impl Let {
    /// Whether the search found the initializer's `=`.
    pub fn has_init(&self, toks: &[Tok]) -> bool {
        toks.get(self.eq).is_some_and(|t| t.is_punct('='))
    }
}

/// Parses the `let` at `let_idx`, searching for its `=` up to `end`.
pub(crate) fn let_head(file: &SourceFile, let_idx: usize, end: usize) -> Let {
    let toks = &file.tokens;
    let mut j = let_idx + 1;
    if toks.get(j).is_some_and(|t| t.ident() == Some("mut")) {
        j += 1;
    }
    let is = |k: usize, c: char| toks.get(k).is_some_and(|t| t.is_punct(c));
    let (pat, pat_end) = match toks.get(j).map(|t| &t.kind) {
        Some(TokKind::Ident(_)) if is(j + 1, '(') => {
            let close = file.skip_balanced(j + 1);
            (Pat::Variant(flat_names(toks, j + 2, close - 1)), close)
        }
        Some(TokKind::Ident(n)) if !is(j + 1, '{') && !path_sep(toks, j + 1) => {
            (Pat::Name(n.clone()), j + 1)
        }
        Some(TokKind::Punct('(')) => {
            let close = file.skip_balanced(j);
            (Pat::Tuple(flat_names(toks, j + 1, close - 1)), close)
        }
        _ => (Pat::Other, j),
    };
    let mut depth = 0i32;
    let mut eq = pat_end;
    while eq < end {
        match &toks[eq].kind {
            TokKind::Punct('<' | '(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('>') if depth > 0 && !is_arrow(toks, eq) => depth -= 1,
            TokKind::Punct('=') if depth == 0 && !is(eq + 1, '=') => break,
            TokKind::Punct(';' | '{') if depth == 0 => break,
            _ => {}
        }
        eq += 1;
    }
    Let {
        pat,
        pat_end,
        eq: eq.min(end),
    }
}

/// The names of `[s, e)` when it is a comma-separated list of
/// `[mut] ident` elements (a trailing comma allowed).
fn flat_names(toks: &[Tok], s: usize, e: usize) -> Option<Vec<String>> {
    let mut names = Vec::new();
    for (a, b) in elements(toks, s, e) {
        let a = if toks[a].ident() == Some("mut") {
            a + 1
        } else {
            a
        };
        names.push(toks[a].ident().filter(|_| a + 1 == b)?.to_string());
    }
    Some(names)
}

/// A chain's head: an ident and its `::seg` / `::<T>` continuations.
pub(crate) struct Head {
    /// The last ident segment (the head itself for a bare name).
    pub last: usize,
    /// Ident segments, the head included.
    pub segs: usize,
    /// Whether a `::` follows the head.
    pub path: bool,
    /// Whether the path carries a `::<..>` turbofish.
    pub generic: bool,
    /// The `(` of a call directly after the path.
    pub call: Option<usize>,
    /// Index one past the path (the `(` of a call).
    pub next: usize,
}

/// Parses the chain head at the ident `base`.
pub(crate) fn head(file: &SourceFile, base: usize) -> Head {
    let toks = &file.tokens;
    let (mut last, mut segs, mut cur, mut generic) = (base, 1, base + 1, false);
    while path_sep(toks, cur) {
        if toks.get(cur + 2).is_some_and(|t| t.is_punct('<')) {
            cur = skip_angle(file, cur + 2, toks.len()) + 1;
            generic = true;
        } else if toks.get(cur + 2).is_some_and(|t| t.ident().is_some()) {
            (last, segs, cur) = (cur + 2, segs + 1, cur + 3);
        } else {
            break;
        }
    }
    Head {
        last,
        segs,
        path: path_sep(toks, base + 1),
        generic,
        call: toks
            .get(cur)
            .is_some_and(|t| t.is_punct('('))
            .then_some(cur),
        next: cur,
    }
}

/// One postfix segment of a chain.
pub(crate) enum Seg {
    /// `?`.
    Try,
    /// `[..]`, opened at the index.
    Index(usize),
    /// `.name` or `.0`, at the name's index.
    Field(usize),
    /// `.name(..)` / `.name::<T>(..)`: the name's index and the `(`.
    Method(usize, usize),
    /// `as T`, at the type's index.
    Cast(usize),
}

/// The postfix segment at `cur` (before `end`) and the index one past it;
/// `None` where the chain ends.
pub(crate) fn postfix(file: &SourceFile, cur: usize, end: usize) -> Option<(Seg, usize)> {
    let toks = &file.tokens;
    if cur >= end {
        return None;
    }
    match &toks[cur].kind {
        TokKind::Punct('?') => Some((Seg::Try, cur + 1)),
        TokKind::Punct('[') => Some((Seg::Index(cur), file.skip_balanced(cur))),
        TokKind::Punct('.') => {
            let seg = cur + 1;
            match toks.get(seg).map(|t| &t.kind) {
                Some(TokKind::Ident(_)) => {
                    let mut open = seg + 1;
                    if path_sep(toks, open) {
                        open = if toks.get(open + 2).is_some_and(|t| t.is_punct('<')) {
                            skip_angle(file, open + 2, toks.len()) + 1
                        } else {
                            open + 2
                        };
                    }
                    if toks.get(open).is_some_and(|t| t.is_punct('(')) {
                        Some((Seg::Method(seg, open), file.skip_balanced(open)))
                    } else {
                        Some((Seg::Field(seg), seg + 1))
                    }
                }
                Some(TokKind::Literal) => Some((Seg::Field(seg), seg + 1)),
                _ => None,
            }
        }
        TokKind::Ident(k) if k == "as" => {
            let ty = toks.get(cur + 1).and_then(|t| t.ident());
            ty.map(|_| (Seg::Cast(cur + 1), cur + 2))
        }
        _ => None,
    }
}
