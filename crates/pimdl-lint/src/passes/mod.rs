//! The analysis passes and the token-walking helpers they share.

pub mod lock_census;
pub mod memory_order;
pub mod panic_path;
pub mod taint;
pub mod unsafe_audit;

use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;

/// Index of the ident of the chain segment before the `.seg` at
/// `seg_idx`, past that segment's trailing `(..)`/`[..]` groups: `busy`
/// for `self.busy[sid].store`. `None` at the chain's head.
pub(crate) fn prev_segment(toks: &[Tok], seg_idx: usize) -> Option<usize> {
    let dot = seg_idx.checked_sub(1)?;
    if !toks[dot].is_punct('.') {
        return None;
    }
    let mut k = dot.checked_sub(1)?;
    while toks[k].is_punct(')') || toks[k].is_punct(']') {
        let (open, close) = if toks[k].is_punct(']') {
            ('[', ']')
        } else {
            ('(', ')')
        };
        let mut depth = 0i32;
        loop {
            if toks[k].is_punct(close) {
                depth += 1;
            } else if toks[k].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
    }
    toks[k].ident().map(|_| k)
}

/// Whether the ident at `idx` is a method call: preceded by `.` and
/// followed by `(`.
pub(crate) fn is_method_call(tokens: &[Tok], idx: usize) -> bool {
    idx > 0 && tokens[idx - 1].is_punct('.') && tokens.get(idx + 1).is_some_and(|t| t.is_punct('('))
}

/// Whether the ident at `idx` is a macro invocation (`name!`).
pub(crate) fn is_macro_call(tokens: &[Tok], idx: usize) -> bool {
    tokens.get(idx + 1).is_some_and(|t| t.is_punct('!'))
}

/// Whether tokens `i`, `i + 1` are the two `:` puncts of a `::`.
pub(crate) fn path_sep(tokens: &[Tok], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
}

/// Whether the punct at `k` is the `>` of a `->` arrow (so it closes no
/// angle group).
pub(crate) fn is_arrow(tokens: &[Tok], k: usize) -> bool {
    tokens[k].is_punct('>') && k > 0 && tokens[k - 1].is_punct('-')
}

/// Index of the `>` matching the `<` at `open_idx` (arrow-aware, paren
/// and bracket groups skipped whole), or `end` when it never closes.
pub(crate) fn skip_angle(file: &SourceFile, open_idx: usize, end: usize) -> usize {
    let toks = &file.tokens;
    let mut depth = 0i32;
    let mut j = open_idx;
    while j < end {
        match &toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !is_arrow(toks, j) => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            TokKind::Punct('(') | TokKind::Punct('[') => j = file.skip_balanced(j) - 1,
            _ => {}
        }
        j += 1;
    }
    end
}

/// End of the statement or initializer starting at `from`: the `;` at
/// depth 0, or the closer that ends the enclosing group, capped at `cap`.
/// With `in_cond` (an `if let`/`while let` head) the body `{` at depth 0
/// ends it instead.
pub(crate) fn stmt_end(tokens: &[Tok], from: usize, cap: usize, in_cond: bool) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().take(cap).skip(from) {
        match &t.kind {
            TokKind::Punct('{') if in_cond && depth == 0 => return j,
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            TokKind::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn receiver_walks_over_index_groups() {
        let toks = lex("self.busy[sid + 1].store(true, Ordering::Release)").tokens;
        let store = toks
            .iter()
            .position(|t| t.ident() == Some("store"))
            .unwrap();
        let recv = prev_segment(&toks, store).and_then(|k| toks[k].ident());
        assert_eq!(recv, Some("busy"));
    }

    #[test]
    fn receiver_of_simple_field_chain() {
        let toks = lex("self.sink.pending.lock()").tokens;
        let lock = toks.iter().position(|t| t.ident() == Some("lock")).unwrap();
        let recv = prev_segment(&toks, lock).and_then(|k| toks[k].ident());
        assert_eq!(recv, Some("pending"));
    }
}
