//! L7 — untrusted-input taint/dataflow pass over the network protocol
//! surface. Values produced by wire decoding (`from_le_bytes`,
//! `from_str_radix`, `.parse()` in the configured protocol modules) are
//! *untrusted*: an attacker chooses them. The engine propagates that
//! taint through `let` bindings, assignments, arithmetic, `as` casts,
//! and — via caller→callee summaries over the resolved call graph —
//! function returns and parameters, then reports flows into sinks where
//! an unclamped wire value becomes a remote allocation bomb or a panic:
//!
//! * **L7-ALLOC** — `Vec::with_capacity` / `reserve` / `resize` /
//!   `vec![x; n]` sized by a tainted value;
//! * **L7-INDEX** — slice/array indexing (`buf[n]`, `buf[..n]`) with a
//!   tainted index (use `.get(..)` or bounds-check first);
//! * **L7-LOOP** — `for _ in a..n` with a tainted upper bound;
//! * **L7-TRUNC** — an `as u8/u16/u32/i8/i16/i32` cast of a tainted value
//!   (silent wrap-around; use `try_into` with error handling).
//!
//! Sanitizers are syntactic, and each kills the taint outright:
//! `.min(BOUND)` / `.clamp(.., BOUND)` with a constant-like bound (a
//! literal, an UPPER_SNAKE const, a `len()`, or a `max`/`limit`/`cap`
//! field or path segment — never a bare variable), a bound-and-bail
//! guard (`if n > BOUND { return .. }`), and `checked_*` / `try_into` /
//! `try_from` (the caller must handle the failure). The pass trusts the
//! bound's form, not its value.
//!
//! Known approximations (DESIGN.md §10): taint through struct fields,
//! collections, and closure captures is invisible (false negatives), as
//! are `while i < n` bounds and inverse guards (`if ok {..} else
//! {return}`). Kills are flow-approximate: a guard applies from the end
//! of the `if` block to the end of the function, which over-trusts
//! re-assignment inside loops.

use std::collections::{BTreeSet, HashMap};

use crate::allow::{in_scope, AllowList};
use crate::cursor::{self, Pat, Seg, KEYWORDS};
use crate::diag::{Diagnostic, Report};
use crate::hir::SelfKind;
use crate::lexer::{Tok, TokKind};
use crate::model::{item_open, SourceFile};
use crate::passes::{is_macro_call, stmt_end};
use crate::resolve::Workspace;

pub const ALLOC: &str = "L7-ALLOC";
pub const INDEX: &str = "L7-INDEX";
pub const LOOP: &str = "L7-LOOP";
pub const TRUNC: &str = "L7-TRUNC";

/// Calls whose *result* is attacker-controlled when they appear in a
/// configured protocol module: byte-level decoders and string parsers.
const SOURCES: [&str; 5] = [
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    "from_str_radix",
    "parse",
];

/// Methods that bound their receiver.
const CLAMP_SANITIZERS: [&str; 2] = ["min", "clamp"];

/// Allocation sinks: the argument at index 0 is an element count.
const ALLOC_SINKS: [&str; 5] = [
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
];

/// Integer types an `as` cast can silently truncate a wire value into.
const NARROW_CASTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Where a tainted value came from, threaded through propagation so the
/// diagnostic can name the original wire read.
#[derive(Debug, Clone)]
struct Taint {
    what: String,
    file: String,
    line: u32,
}

impl Taint {
    fn describe(&self) -> String {
        format!("`{}` at {}:{}", self.what, self.file, self.line)
    }
}

/// Interprocedural facts about one function, grown monotonically to
/// fixpoint: does it return wire-derived data, and which of its
/// parameters do callers pass wire-derived data into. Each fact goes
/// from `None` to `Some` at most once, so the fixpoint terminates.
#[derive(Debug, Clone)]
struct Summary {
    ret: Option<Taint>,
    params: Vec<Option<Taint>>,
}

/// Records `t` in `slot` if it is still empty; whether it changed.
fn learn(slot: &mut Option<Taint>, t: Taint) -> bool {
    let empty = slot.is_none();
    if empty {
        *slot = Some(t);
    }
    empty
}

/// One finding, pre-diagnostic (so the fixpoint rounds stay silent).
struct Finding {
    code: &'static str,
    line: u32,
    callee: String,
    message: String,
}

/// Everything the per-function walker needs that outlives one round.
struct FnCtx<'a> {
    file: &'a SourceFile,
    /// Body token range (inside the braces).
    start: usize,
    end: usize,
    /// Call-site token index -> resolved target fn indices.
    calls: HashMap<usize, Vec<usize>>,
    /// Flattened resolved callees, for the fixpoint relevance gate.
    callees: Vec<usize>,
    /// Index of this fn in `file.fns()`.
    fn_idx: usize,
    sources_active: bool,
    params: &'a [String],
    name: &'a str,
    path: &'a str,
}

/// The L7 dataflow, run once: builds the per-function contexts, iterates
/// the interprocedural summaries to fixpoint, then replays the in-scope
/// functions and reports their L7-* findings.
pub fn run(
    ws: &Workspace,
    files: &[SourceFile],
    scope: &[String],
    allow: &AllowList,
    report: &mut Report,
) {
    // Functions without a body or in test regions are skipped entirely
    // (decoding in tests is the test's business); nested fns are
    // analyzed as their own entries.
    let mut ctxs: Vec<Option<FnCtx>> = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        let file = &files[f.file_idx];
        let span = &file.fns()[f.span_idx];
        if span.body_start >= span.end || file.in_test(span.fn_tok) {
            ctxs.push(None);
            continue;
        }
        let mut calls: HashMap<usize, Vec<usize>> = HashMap::new();
        for c in &f.calls {
            calls
                .entry(c.tok)
                .or_default()
                .extend(c.targets.iter().copied());
        }
        let callees: Vec<usize> = calls.values().flatten().copied().collect();
        ctxs.push(Some(FnCtx {
            file,
            start: span.body_start + 1,
            end: span.end.saturating_sub(1),
            calls,
            callees,
            fn_idx: f.span_idx,
            sources_active: in_scope(&f.file, scope),
            params: &f.params,
            name: &f.name,
            path: &f.file,
        }));
    }
    let summaries = fixpoint(ws, &ctxs);

    // Reporting round: same analysis, findings kept. Only in-scope
    // functions report — the scope files ARE the trust boundary, and
    // the lint enforces that they validate wire values before handing
    // them downstream; sinks past the boundary are out of scope by
    // design (documented FN, DESIGN.md §10).
    let mut source_sites: BTreeSet<(&str, u32)> = BTreeSet::new();
    let mut sink_sites: BTreeSet<(&str, u32)> = BTreeSet::new();
    let mut seen: BTreeSet<(&str, u32, &'static str)> = BTreeSet::new();
    for (gi, ctx) in ctxs.iter().enumerate() {
        let Some(ctx) = ctx else { continue };
        if !ctx.sources_active {
            continue;
        }
        let mut a = Analyzer::new(ctx, ws, &summaries, gi, true);
        a.walk_fn();
        for t in a.source_toks {
            source_sites.insert((ctx.path, ctx.file.tokens[t].line));
        }
        for t in a.sink_toks {
            sink_sites.insert((ctx.path, ctx.file.tokens[t].line));
        }
        for f in a.findings {
            if !seen.insert((ctx.path, f.line, f.code))
                || allow.permits(f.code, ctx.path, Some(ctx.name), &f.callee, f.line)
            {
                continue;
            }
            report.diagnostics.push(Diagnostic::new(
                f.code,
                std::path::Path::new(ctx.path),
                f.line,
                f.message,
            ));
        }
    }
    report.taint_sources = source_sites.len();
    report.taint_sinks = sink_sites.len();
}

/// Caller→callee fixpoint: each round analyzes every function with the
/// current summaries; argument taints are pushed into callee parameter
/// slots and return taints recorded. Slots only ever fill, so this
/// terminates.
fn fixpoint(ws: &Workspace, ctxs: &[Option<FnCtx>]) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = ws
        .fns
        .iter()
        .map(|f| Summary {
            ret: None,
            params: vec![None; f.params.len()],
        })
        .collect();
    loop {
        let mut changed = false;
        for (gi, ctx) in ctxs.iter().enumerate() {
            let Some(ctx) = ctx else { continue };
            // Relevance gate: a function can only produce or forward
            // taint if it hosts sources, received a tainted parameter,
            // or calls something whose return is tainted. Everything
            // else is skipped — this is what keeps the fixpoint cheap
            // on a workspace where taint lives in a handful of files.
            let relevant = ctx.sources_active
                || summaries[gi].params.iter().any(Option::is_some)
                || ctx.callees.iter().any(|&g| summaries[g].ret.is_some());
            if !relevant {
                continue;
            }
            let mut a = Analyzer::new(ctx, ws, &summaries, gi, false);
            a.walk_fn();
            let (ret, pushes) = (a.ret, a.pushes);
            if let Some(t) = ret {
                changed |= learn(&mut summaries[gi].ret, t);
            }
            for (g, p, t) in pushes {
                if let Some(slot) = summaries[g].params.get_mut(p) {
                    changed |= learn(slot, t);
                }
            }
        }
        if !changed {
            return summaries;
        }
    }
}

struct Analyzer<'a> {
    ctx: &'a FnCtx<'a>,
    ws: &'a Workspace,
    summaries: &'a [Summary],
    /// Tainted locals -> where their taint came from. A name missing
    /// here is trusted.
    vars: HashMap<String, Taint>,
    /// Guard kills pending: once the walk passes the token index, the
    /// variable is trusted.
    kills: Vec<(usize, String)>,
    ret: Option<Taint>,
    /// (callee fn index, param index, taint) facts for the driver.
    pushes: Vec<(usize, usize, Taint)>,
    findings: Vec<Finding>,
    /// Token indices of recognized source / checked sink sites.
    source_toks: BTreeSet<usize>,
    sink_toks: BTreeSet<usize>,
    reporting: bool,
}

impl<'a> Analyzer<'a> {
    fn new(
        ctx: &'a FnCtx<'a>,
        ws: &'a Workspace,
        summaries: &'a [Summary],
        gi: usize,
        reporting: bool,
    ) -> Analyzer<'a> {
        let vars = summaries[gi]
            .params
            .iter()
            .zip(ctx.params)
            .filter_map(|(slot, pname)| Some((pname.clone(), slot.clone()?)))
            .collect();
        Analyzer {
            ctx,
            ws,
            summaries,
            vars,
            kills: Vec::new(),
            ret: None,
            pushes: Vec::new(),
            findings: Vec::new(),
            source_toks: BTreeSet::new(),
            sink_toks: BTreeSet::new(),
            reporting,
        }
    }

    fn toks(&self) -> &'a [Tok] {
        &self.ctx.file.tokens
    }

    /// Binds `name` to a value carrying `taint` (or to a trusted one).
    fn bind(&mut self, name: String, taint: Option<Taint>) {
        match taint {
            Some(t) => self.vars.insert(name, t),
            None => self.vars.remove(&name),
        };
    }

    /// Keeps the first tainted return-site value as the function's
    /// return fact.
    fn note_ret(&mut self, t: Option<Taint>) {
        if self.ret.is_none() {
            self.ret = t;
        }
    }

    /// Top-level statement walk over the function body, tracking the
    /// trailing expression for return facts.
    fn walk_fn(&mut self) {
        let end = self.ctx.end;
        let mut stmt_start = self.ctx.start;
        let mut depth = 0i32;
        let mut i = self.ctx.start;
        while i < end {
            self.apply_kills(i);
            if let Some(next) = cursor::foreign(self.ctx.file, self.ctx.fn_idx, i) {
                i = next;
                stmt_start = i;
                continue;
            }
            if self.ctx.file.in_test(i) {
                i += 1;
                continue;
            }
            match &self.toks()[i].kind {
                TokKind::Punct('(' | '[' | '{') => depth += 1,
                // Blocks entered via handle_if/handle_for leave their `}`
                // unmatched here; clamp so `;` boundary detection stays at
                // depth 0 afterwards.
                TokKind::Punct(')' | ']' | '}') => depth = (depth - 1).max(0),
                TokKind::Punct(';') if depth == 0 => stmt_start = i + 1,
                TokKind::Ident(_) => {
                    i = self.stmt(i).0;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        // Tail expression: whatever follows the last top-level `;` is the
        // function's return value (approximate — covers the `Ok(..)` tail
        // the decoders use).
        if stmt_start < end {
            let t = self.eval(stmt_start, end);
            self.note_ret(t);
        }
    }

    /// The statement form at the ident `i`, run through its handler:
    /// returns where the walk resumes and, for a plain value chain, its
    /// taint. Block expressions (`match` arms, `if`/`for` bodies inside a
    /// `let` init) carry full statements, so `walk_fn` and `eval` share
    /// this one dispatch.
    fn stmt(&mut self, i: usize) -> (usize, Option<Taint>) {
        let toks = self.toks();
        let next = match toks[i].ident().unwrap_or("") {
            _ if is_chain_seg(toks, i) => i + 1,
            "let" => self.handle_let(i),
            "if" => self.handle_if(i),
            "for" => self.handle_for(i),
            "while" | "match" => self.eval_head(i + 1),
            "return" => {
                let e = self.stmt_end(i + 1);
                let t = self.eval(i + 1, e);
                self.note_ret(t);
                e
            }
            n if KEYWORDS.contains(&n) => i + 1,
            "vec" if is_macro_call(toks, i) => self.handle_macro(i),
            _ if is_macro_call(toks, i) => self.skip_macro(i),
            _ => match cursor::assignment(toks, i) {
                Some((op, rhs)) => self.assign(i, op.is_some(), rhs),
                None => {
                    let (next, t) = self.eval_chain(i);
                    return (next.max(i + 1), t);
                }
            },
        };
        (next.max(i + 1), None)
    }

    fn apply_kills(&mut self, now: usize) {
        let vars = &mut self.vars;
        self.kills.retain(|(at, name)| {
            let due = *at <= now;
            if due {
                vars.remove(name);
            }
            !due
        });
    }

    /// `vec![elem; len]` is an allocation sink; every other macro body is
    /// skipped whole (format!/assert! interiors are noise, not dataflow).
    fn handle_macro(&mut self, i: usize) -> usize {
        let toks = self.toks();
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('[')) {
            return self.skip_macro(i);
        }
        let close = self.ctx.file.skip_balanced(i + 2);
        // Find the `;` separating element from count, at depth 1.
        let mut d = 0i32;
        for j in i + 2..close.saturating_sub(1) {
            match &toks[j].kind {
                TokKind::Punct('(' | '[' | '{') => d += 1,
                TokKind::Punct(')' | ']' | '}') => d -= 1,
                TokKind::Punct(';') if d == 1 => {
                    let (ls, le) = (j + 1, close - 1);
                    if range_has_ident(toks, ls, le) {
                        self.sink_toks.insert(i);
                    }
                    if let Some(t) = self.eval(ls, le) {
                        self.finding(
                            ALLOC,
                            toks[i].line,
                            "vec!",
                            format!(
                                "`vec![..; n]` sized by untrusted input ({}) — clamp \
                                 against a named MAX_* bound before allocating",
                                t.describe(),
                            ),
                        );
                    }
                    break;
                }
                _ => {}
            }
        }
        close
    }

    fn skip_macro(&self, i: usize) -> usize {
        match self.toks().get(i + 2).map(|t| &t.kind) {
            Some(TokKind::Punct('(' | '[' | '{')) => self.ctx.file.skip_balanced(i + 2),
            _ => i + 2,
        }
    }

    /// `let PAT [: TY] = INIT` binds the pattern's names — a plain name,
    /// a single-name `Variant(x)`, or every name of a flat tuple — to the
    /// initializer's taint.
    fn handle_let(&mut self, let_idx: usize) -> usize {
        let l = cursor::let_head(self.ctx.file, let_idx, self.ctx.end);
        if !l.has_init(self.toks()) {
            return l.eq;
        }
        let names = match l.pat {
            Pat::Name(name) => vec![name],
            Pat::Variant(Some(names)) if names.len() == 1 => names,
            Pat::Tuple(Some(names)) => names,
            _ => Vec::new(),
        };
        let init_end = self.stmt_end(l.eq + 1);
        let t = self.eval(l.eq + 1, init_end);
        for name in names {
            self.bind(name, t.clone());
        }
        init_end
    }

    /// `if COND {` — recognizes the bound-guard sanitizer
    /// (`if n > MAX_* { return/break/continue .. }` trusts `n`
    /// afterwards) and `if let PAT = EXPR` bindings; the condition itself
    /// is evaluated for sinks. Returns the index just past the `{`, so
    /// the block body is walked as statements.
    fn handle_if(&mut self, if_idx: usize) -> usize {
        let toks = self.toks();
        if toks
            .get(if_idx + 1)
            .is_some_and(|t| t.ident() == Some("let"))
        {
            return self.handle_let(if_idx + 1);
        }
        let Some(brace) = self.find_block_open(if_idx + 1) else {
            return if_idx + 1;
        };
        self.eval(if_idx + 1, brace);
        let close = self.ctx.file.close_of(brace);
        if close < toks.len() && block_diverges(toks, brace, close) {
            // Split the condition on top-level `||`: every disjunct that
            // is a plain upper-bound comparison trusts its variable once
            // the guard block is behind us.
            for (cs, ce) in split_on_or(toks, if_idx + 1, brace) {
                if let Some(name) = upper_bound_guard(toks, cs, ce, &self.vars) {
                    self.kills.push((close, name));
                }
            }
        }
        brace + 1
    }

    /// `for PAT in RANGE {` — a tainted range upper bound is a sink: the
    /// attacker picks the iteration count.
    fn handle_for(&mut self, for_idx: usize) -> usize {
        let toks = self.toks();
        let Some(brace) = self.find_block_open(for_idx + 1) else {
            return for_idx + 1;
        };
        let Some(in_idx) = (for_idx + 1..brace).find(|&j| toks[j].ident() == Some("in")) else {
            return brace + 1;
        };
        let Some((dots, upper)) = range_dots(toks, in_idx + 1, brace) else {
            self.eval(in_idx + 1, brace);
            return brace + 1;
        };
        self.eval(in_idx + 1, dots);
        if range_has_ident(toks, upper, brace) {
            self.sink_toks.insert(for_idx);
        }
        if let Some(t) = self.eval(upper, brace) {
            self.finding(
                LOOP,
                toks[for_idx].line,
                "for",
                format!(
                    "loop upper bound flows from untrusted input ({}) — reject \
                     counts above a named MAX_* bound before iterating",
                    t.describe(),
                ),
            );
        }
        brace + 1
    }

    /// Evaluates a `while`/`match` head up to its `{` and enters the block.
    fn eval_head(&mut self, from: usize) -> usize {
        let Some(brace) = self.find_block_open(from) else {
            return from;
        };
        self.eval(from, brace);
        brace + 1
    }

    /// `x = RHS` rebinds `x`; a compound `x op= RHS` keeps `x`'s own
    /// taint too, so `total += len` accumulates it.
    fn assign(&mut self, i: usize, compound: bool, rhs: usize) -> usize {
        let name = self.toks()[i].ident().unwrap_or("").to_string();
        let e = self.stmt_end(rhs);
        let mut t = self.eval(rhs, e);
        if compound {
            t = self.vars.get(&name).cloned().or(t);
        }
        self.bind(name, t);
        e
    }

    /// Scans `[s, e)` left to right, running every statement, chain and
    /// parenthesized or bracketed group (with its postfix tail); returns
    /// the first taint found — the provenance of the whole expression.
    /// Operators are transparent: a value computed from wire data is
    /// wire data.
    fn eval(&mut self, s: usize, e: usize) -> Option<Taint> {
        let mut out: Option<Taint> = None;
        let mut i = s;
        while i < e {
            self.apply_kills(i);
            if let Some(next) = cursor::foreign(self.ctx.file, self.ctx.fn_idx, i) {
                i = next;
                continue;
            }
            let (next, t) = match &self.toks()[i].kind {
                TokKind::Punct('(' | '[') => {
                    let close = self.ctx.file.skip_balanced(i);
                    let inner = self.eval(i + 1, close.saturating_sub(1));
                    self.chain_tail(inner, close)
                }
                TokKind::Ident(_) => self.stmt(i),
                _ => (i + 1, None),
            };
            out = out.or(t);
            i = next.max(i + 1);
        }
        out
    }

    /// Evaluates one chain starting at the ident `base`: path or method
    /// calls, field/tuple segments, indexing (an L7-INDEX sink when the
    /// index is tainted), `?`, and trailing `as` casts (an L7-TRUNC sink
    /// when narrowing). A bare ident is tainted when its local is.
    fn eval_chain(&mut self, base: usize) -> (usize, Option<Taint>) {
        let toks = self.toks();
        let head = cursor::head(self.ctx.file, base);
        if let Some(open) = head.call {
            // The resolver records path calls at the *head* token.
            let close = self.ctx.file.skip_balanced(open);
            let last = toks[head.last].ident().unwrap_or("");
            let t = self.handle_call(last, base, open, close, None, head.path);
            return self.chain_tail(t, close);
        }
        // A path (`u32::MAX`, `Limits::CAP`) is a constant.
        let t = if head.path {
            None
        } else {
            toks[base].ident().and_then(|n| self.vars.get(n)).cloned()
        };
        self.chain_tail(t, head.next)
    }

    /// The postfix tail shared by ident chains and groups: `?`, indexing,
    /// `.seg`/`.m(..)` segments, and `as` casts. A field or element of a
    /// tainted value is tainted.
    fn chain_tail(&mut self, mut t: Option<Taint>, mut cur: usize) -> (usize, Option<Taint>) {
        let toks = self.toks();
        while let Some((seg, next)) = cursor::postfix(self.ctx.file, cur, self.ctx.end) {
            match seg {
                Seg::Try | Seg::Field(_) => {}
                Seg::Index(open) => {
                    if range_has_ident(toks, open + 1, next - 1) {
                        self.sink_toks.insert(open);
                    }
                    self.index_sink(open + 1, next - 1, toks[open].line);
                }
                Seg::Method(seg, open) => {
                    let m = toks[seg].ident().unwrap_or("");
                    t = self.handle_call(m, seg, open, next, t, false);
                }
                Seg::Cast(ty) => self.cast(&t, toks[ty].ident().unwrap_or(""), toks[cur].line),
            }
            cur = next;
        }
        (cur, t)
    }

    /// An `as ty` cast: an L7-TRUNC sink when a tainted value narrows.
    /// The taint survives the cast.
    fn cast(&mut self, t: &Option<Taint>, ty: &str, line: u32) {
        if let Some(t) = t.as_ref().filter(|_| NARROW_CASTS.contains(&ty)) {
            let message = format!(
                "narrowing `as {ty}` cast of untrusted input ({}) wraps \
                 silently — use `try_into()` and handle the error",
                t.describe(),
            );
            self.finding(TRUNC, line, "as", message);
        }
    }

    /// An indexing group interior `[s, e)`: splits a top-level `..` /
    /// `..=` range and checks each endpoint as an L7-INDEX sink.
    fn index_sink(&mut self, s: usize, e: usize, line: u32) {
        let parts = match range_dots(self.toks(), s, e) {
            Some((dots, upper)) => vec![(s, dots), (upper, e)],
            None => vec![(s, e)],
        };
        for (ps, pe) in parts {
            if ps >= pe {
                continue;
            }
            if let Some(t) = self.eval(ps, pe) {
                self.finding(
                    INDEX,
                    line,
                    "[]",
                    format!(
                        "slice index/range derived from untrusted input ({}) — \
                         bounds-check it against the buffer or use `.get(..)`",
                        t.describe(),
                    ),
                );
                return;
            }
        }
    }

    /// One call at the token `at` (a method segment, or a path or free
    /// call's head): sources, sanitizers, summaries, arg pushes, and
    /// allocation sinks. `recv` is the receiver's taint for method
    /// segments; `path_call` marks `A::b(..)` forms (where a
    /// `self`-taking callee's first argument is the receiver).
    fn handle_call(
        &mut self,
        m: &str,
        at: usize,
        open: usize,
        close: usize,
        recv: Option<Taint>,
        path_call: bool,
    ) -> Option<Taint> {
        let toks = self.toks();
        let args = cursor::elements(toks, open + 1, close - 1);
        // Sanitizers first: their arguments are bounds, not payloads.
        if CLAMP_SANITIZERS.contains(&m) {
            return self.handle_clamp(m, &args, recv);
        }
        let arg_taints: Vec<Option<Taint>> = args.iter().map(|&(s, e)| self.eval(s, e)).collect();
        if m == "try_into" || m == "try_from" || m.starts_with("checked_") {
            // The caller must handle the Err/None: the taint dies.
            return None;
        }

        // A method of wire data computes wire data.
        let mut out = recv;
        if self.ctx.sources_active && SOURCES.contains(&m) {
            self.source_toks.insert(at);
            out = out.or_else(|| {
                Some(Taint {
                    what: m.to_string(),
                    file: self.ctx.path.to_string(),
                    line: toks[at].line,
                })
            });
        }

        if let Some(targets) = self.ctx.calls.get(&at) {
            for &g in targets {
                if out.is_none() {
                    out = self.summaries[g].ret.clone();
                }
                let callee = &self.ws.fns[g];
                let skip_recv = path_call && callee.self_kind != SelfKind::None;
                for (j, t) in arg_taints.iter().enumerate() {
                    let (Some(t), Some(p)) = (t, j.checked_sub(usize::from(skip_recv))) else {
                        continue;
                    };
                    if p < callee.params.len() {
                        self.pushes.push((g, p, t.clone()));
                    }
                }
            }
        } else if out.is_none() {
            // Unresolved callee: a value computed from wire data is wire
            // data.
            out = arg_taints.iter().flatten().next().cloned();
        }

        if ALLOC_SINKS.contains(&m) {
            if args
                .first()
                .is_some_and(|&(s, e)| range_has_ident(toks, s, e))
            {
                self.sink_toks.insert(at);
            }
            if let Some(Some(t)) = arg_taints.first() {
                self.finding(
                    ALLOC,
                    toks[at].line,
                    m,
                    format!(
                        "allocation sized by untrusted input ({}) reaches `{m}` — \
                         reject sizes above a named MAX_* bound first",
                        t.describe(),
                    ),
                );
            }
        }
        out
    }

    /// `.min(..)` / `.clamp(..)`: an untainted, constant-like bound kills
    /// the receiver's taint. The bound must pass the const-argument
    /// matcher: a bare `cap_hint` variable is not a clamp.
    fn handle_clamp(
        &mut self,
        m: &str,
        args: &[(usize, usize)],
        recv: Option<Taint>,
    ) -> Option<Taint> {
        let taints: Vec<Option<Taint>> = args.iter().map(|&(s, e)| self.eval(s, e)).collect();
        let b = if m == "clamp" {
            args.len().saturating_sub(1)
        } else {
            0
        };
        let bounded = taints.get(b).is_some_and(Option::is_none)
            && args
                .get(b)
                .is_some_and(|&(s, e)| const_like(self.toks(), s, e, &self.vars, false));
        if bounded {
            return None;
        }
        // `.min(other_tainted)` keeps the smaller taint.
        recv.or_else(|| taints.into_iter().flatten().next())
    }

    fn finding(&mut self, code: &'static str, line: u32, callee: &str, message: String) {
        if self.reporting {
            self.findings.push(Finding {
                code,
                line,
                callee: callee.to_string(),
                message,
            });
        }
    }

    /// First `{` at bracket depth 0 after `from` (a block opener, not a
    /// struct literal — good enough for `if`/`for`/`while`/`match` heads,
    /// where the walker treats a struct-literal `{` identically).
    fn find_block_open(&self, from: usize) -> Option<usize> {
        let k = item_open(self.toks(), from, self.ctx.end);
        (k < self.ctx.end && self.toks()[k].is_punct('{')).then_some(k)
    }

    /// End of the statement starting at `from`, capped at the body's end.
    fn stmt_end(&self, from: usize) -> usize {
        stmt_end(self.toks(), from, self.ctx.end, false)
    }
}

/// Whether the ident at `i` continues a chain already being evaluated:
/// a `.seg` method/field segment (but not a `..`-range endpoint, where
/// the previous two tokens are both dots) or a `::seg` path segment
/// (but not a single `:` — struct-literal field values start chains).
fn is_chain_seg(toks: &[Tok], i: usize) -> bool {
    let Some(p1) = i.checked_sub(1) else {
        return false;
    };
    if toks[p1].is_punct('.') {
        return !p1.checked_sub(1).is_some_and(|p2| toks[p2].is_punct('.'));
    }
    toks[p1].is_punct(':') && p1.checked_sub(1).is_some_and(|p2| toks[p2].is_punct(':'))
}

fn range_has_ident(toks: &[Tok], s: usize, e: usize) -> bool {
    toks[s.min(toks.len())..e.min(toks.len())]
        .iter()
        .any(|t| t.ident().is_some())
}

/// Whether `[s, e)` is a constant-like bound: it must contain an anchor
/// (a literal, an UPPER_SNAKE const, a `len()` call, or an ident naming
/// a max/limit/cap) and no currently-tainted ident. Guards pass
/// `bare_names`; the `.min(..)`/`.clamp(..)` matcher does not, so there
/// a max/limit/cap name only anchors as a field or path segment
/// (`limits.max_body_bytes`) — `.min(cap_hint)` with an unvalidated
/// parameter is not a clamp.
fn const_like(
    toks: &[Tok],
    s: usize,
    e: usize,
    vars: &HashMap<String, Taint>,
    bare_names: bool,
) -> bool {
    let mut anchor = false;
    for i in s.min(toks.len())..e.min(toks.len()) {
        match &toks[i].kind {
            TokKind::Literal => anchor = true,
            TokKind::Ident(id) => {
                if vars.contains_key(id) {
                    return false;
                }
                let upper = id.len() > 1
                    && id
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                    && id.chars().any(|c| c.is_ascii_uppercase());
                let lower = id.to_ascii_lowercase();
                let named = ["max", "limit", "cap"].iter().any(|w| lower.contains(w));
                let segment = i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
                if upper || id == "len" || (named && (bare_names || segment)) {
                    anchor = true;
                }
            }
            _ => {}
        }
    }
    anchor
}

/// The top-level `..` / `..=` of a range in `[s, e)`: the index of its
/// first `.` and of the upper bound's first token.
fn range_dots(toks: &[Tok], s: usize, e: usize) -> Option<(usize, usize)> {
    let mut d = 0i32;
    for j in s..e.saturating_sub(1) {
        match &toks[j].kind {
            TokKind::Punct('(' | '[' | '{') => d += 1,
            TokKind::Punct(')' | ']' | '}') => d -= 1,
            TokKind::Punct('.') if d == 0 && toks[j + 1].is_punct('.') => {
                let eq = toks.get(j + 2).is_some_and(|t| t.is_punct('='));
                return Some((j, j + 2 + usize::from(eq)));
            }
            _ => {}
        }
    }
    None
}

/// Whether the block `{ .. }` opened at `brace` diverges (contains an
/// early exit), making a preceding bound comparison a real guard.
fn block_diverges(toks: &[Tok], brace: usize, close: usize) -> bool {
    toks[brace..=close.min(toks.len() - 1)]
        .iter()
        .any(|t| matches!(t.ident(), Some("return" | "break" | "continue")))
}

/// Splits a condition on top-level `||`.
fn split_on_or(toks: &[Tok], s: usize, e: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut d = 0i32;
    let mut start = s;
    let mut j = s;
    while j < e {
        match &toks[j].kind {
            TokKind::Punct('(' | '[' | '{') => d += 1,
            TokKind::Punct(')' | ']' | '}') => d -= 1,
            TokKind::Punct('|') if d == 0 && toks.get(j + 1).is_some_and(|t| t.is_punct('|')) => {
                out.push((start, j));
                start = j + 2;
                j += 1;
            }
            _ => {}
        }
        j += 1;
    }
    out.push((start, e));
    out
}

/// Recognizes `NAME > BOUND` / `NAME >= BOUND` / `BOUND < NAME` /
/// `BOUND <= NAME` with a constant-like bound; returns the variable the
/// guard bounds.
fn upper_bound_guard(
    toks: &[Tok],
    s: usize,
    e: usize,
    vars: &HashMap<String, Taint>,
) -> Option<String> {
    // `NAME > BOUND` form.
    if let Some(name) = toks.get(s).and_then(|t| t.ident()) {
        if toks.get(s + 1).is_some_and(|t| t.is_punct('>')) {
            let bs = if toks.get(s + 2).is_some_and(|t| t.is_punct('=')) {
                s + 3
            } else {
                s + 2
            };
            if bs < e && const_like(toks, bs, e, vars, true) {
                return Some(name.to_string());
            }
        }
    }
    // `BOUND < NAME` form: the comparison is the last two/three tokens.
    let lt = e.checked_sub(2)?;
    let name = toks.get(e - 1)?.ident()?;
    let cmp_at = if toks.get(lt).is_some_and(|t| t.is_punct('=')) && lt > s {
        lt - 1
    } else {
        lt
    };
    let guard = toks.get(cmp_at).is_some_and(|t| t.is_punct('<'))
        && cmp_at > s
        && const_like(toks, s, cmp_at, vars, true)
        && !toks.get(e - 2).is_some_and(|t| t.is_punct('.'));
    guard.then(|| name.to_string())
}
