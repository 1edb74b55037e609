//! L7 — untrusted-input taint/dataflow pass over the network protocol
//! surface, and L8 — overflow detection on the same dataflow. Values
//! produced by wire decoding (`from_le_bytes`, `from_str_radix`,
//! `.parse()` in the configured protocol modules) are *untrusted*: an
//! attacker chooses them. The engine propagates that taint — now paired
//! with an interval `[lo, hi]` from `passes::range` — through `let`
//! bindings, assignments, arithmetic, `as` casts, and — via
//! caller→callee summaries over the resolved call graph — function
//! returns and parameters, then reports flows into sinks where an
//! unclamped wire value becomes a remote allocation bomb or a panic:
//!
//! * **L7-ALLOC** — `Vec::with_capacity` / `reserve` / `resize` /
//!   `vec![x; n]` sized by a tainted value;
//! * **L7-INDEX** — slice/array indexing (`buf[n]`, `buf[..n]`) with a
//!   tainted index (use `.get(..)` or bounds-check first);
//! * **L7-LOOP** — `for _ in a..n` with a tainted upper bound;
//! * **L7-TRUNC** — a narrowing `as` cast of a tainted value (silent
//!   wrap-around; use `try_into` with error handling);
//! * **L8-OVERFLOW** — `+`/`*`/`<<` on a tainted `u8`/`u16`/`u32`
//!   operand whose proved interval exceeds the type's range: the
//!   release-mode wrap silently fabricates a new (attacker-influenced)
//!   value before any downstream bounds check sees it.
//!
//! A sanitizer only discharges a sink when the *proved* interval fits:
//! `.min(MAX)`/`.clamp(..)` narrow the interval
//! and keep the taint, and the sink checks `hi <= capacity` (or a
//! symbolic `len()` bound). `checked_*`/`try_into`/`try_from` still
//! kill taint outright (the caller must handle the failure), as does a
//! recognized guard whose bound cannot be folded to a number.
//!
//! Known approximations (DESIGN.md §10): taint through struct fields,
//! collections, and closure captures is invisible (false negatives), as
//! are `while i < n` bounds and inverse guards (`if ok {..} else
//! {return}`). Kills/refinements are flow-approximate: a guard applies
//! from the end of the `if` block to the end of the function, which
//! over-trusts re-assignment inside loops. The interval domain is
//! unsigned; signed arithmetic degrades to unknown.

use std::collections::{BTreeSet, HashMap};

use crate::allow::{in_scope, AllowList};
use crate::cursor::{self, Pat, Seg, KEYWORDS};
use crate::diag::{Diagnostic, Report};
use crate::hir::SelfKind;
use crate::lexer::{Tok, TokKind};
use crate::model::{item_open, SourceFile};
use crate::passes::range::{self, cast_bound, Ival, Width};
use crate::passes::{is_macro_call, peek_arith_op, stmt_end};
use crate::resolve::{Event, Workspace};

pub const ALLOC: &str = "L7-ALLOC";
pub const INDEX: &str = "L7-INDEX";
pub const LOOP: &str = "L7-LOOP";
pub const TRUNC: &str = "L7-TRUNC";
pub const OVERFLOW: &str = "L8-OVERFLOW";

/// Largest interval upper bound that counts as *proved sanitized* at an
/// allocation/loop/index sink: 1 << 24 (16 MiB of bytes, 16M
/// iterations) — the ceiling of the named caps in the serving crate. A
/// clamp against a bigger bound is taint-theater and still reports.
pub(crate) const MAX_PROVED_CAPACITY: u128 = 1 << 24;

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

/// The abstract value the analyzer tracks per local: taint provenance,
/// an unsigned interval, the operand type width when known, and an
/// optional symbolic `len()` bound (value proved `<=` some buffer's
/// length — acceptable at allocation-shaped sinks).
#[derive(Debug, Clone)]
struct Val {
    taint: Option<Taint>,
    iv: Ival,
    w: Option<Width>,
    sym: Option<String>,
}

impl Val {
    fn unknown() -> Val {
        Val::tainted(None)
    }

    /// A value of unknown magnitude carrying `taint`.
    fn tainted(taint: Option<Taint>) -> Val {
        Val {
            taint,
            iv: Ival::TOP,
            w: None,
            sym: None,
        }
    }

    fn constant(v: u128) -> Val {
        Val {
            iv: Ival::point(v),
            ..Val::unknown()
        }
    }
}

/// Interprocedural facts about one function, grown monotonically to
/// fixpoint: does it return wire-derived data (and in what interval),
/// and which of its parameters do callers pass wire-derived data into.
#[derive(Debug, Clone)]
struct Summary {
    ret: Slot,
    params: Vec<Slot>,
}

/// One summary fact: the join of the tainted values seen there (`None`
/// until the first), and how often its interval grew.
#[derive(Debug, Clone, Default)]
struct Slot {
    val: Option<Val>,
    grow: u8,
}

impl Slot {
    /// Joins a tainted observation `v`. The first observation sets
    /// interval and width outright; later ones plain-join for two
    /// growths, then widen, so cross-round joins terminate. Returns
    /// whether anything grew (drives the fixpoint `changed` flag).
    fn join(&mut self, v: &Val) -> bool {
        let Some(cur) = &mut self.val else {
            self.val = Some(Val {
                sym: None,
                ..v.clone()
            });
            return true;
        };
        let joined = if self.grow >= 2 {
            cur.iv.widen(&cur.iv.join(&v.iv))
        } else {
            cur.iv.join(&v.iv)
        };
        let w = match (cur.w, v.w) {
            (Some(a), Some(b)) => Some(a.wider(b)),
            _ => None,
        };
        if joined != cur.iv {
            self.grow = self.grow.saturating_add(1);
        }
        let changed = joined != cur.iv || w != cur.w;
        (cur.iv, cur.w) = (joined, w);
        changed
    }
}

/// One finding, pre-diagnostic (so the fixpoint rounds stay silent).
struct Finding {
    code: &'static str,
    line: u32,
    callee: String,
    message: String,
}

/// A pending guard refinement: once the walk passes the token index,
/// the named variable is either fully trusted (`Kill`, the fallback
/// for unfoldable bounds) or keeps its taint
/// with the interval capped at the proved bound.
enum Refine {
    Kill,
    /// Proved numeric upper bound, plus the symbolic `len()` marker when
    /// the guard compared against a buffer length.
    Bound(u128, Option<String>),
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

/// The shared L7/L8 dataflow, run once: builds the per-function
/// contexts, iterates the interprocedural summaries to fixpoint, then
/// replays the in-scope functions and reports their L7-* and
/// L8-OVERFLOW findings.
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
        for e in &f.events {
            if let Event::Call { targets, tok, .. } = e {
                calls
                    .entry(*tok)
                    .or_default()
                    .extend(targets.iter().copied());
            }
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
/// current summaries; argument facts are pushed into callee parameter
/// slots and return facts recorded. Taint slots go None→Some and
/// intervals widen after two growths, so this terminates.
fn fixpoint(ws: &Workspace, ctxs: &[Option<FnCtx>]) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = ws
        .fns
        .iter()
        .map(|f| Summary {
            ret: Slot::default(),
            params: vec![Slot::default(); f.params.len()],
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
                || summaries[gi].params.iter().any(|p| p.val.is_some())
                || ctx.callees.iter().any(|&g| summaries[g].ret.val.is_some());
            if !relevant {
                continue;
            }
            let (ret, pushes) = {
                let mut a = Analyzer::new(ctx, ws, &summaries, gi, false);
                a.walk_fn();
                (a.ret_val.take(), std::mem::take(&mut a.pushes))
            };
            if let Some(rv) = ret.filter(|rv| rv.taint.is_some()) {
                changed |= summaries[gi].ret.join(&rv);
            }
            for (g, p, v) in pushes {
                if let Some(slot) = summaries[g].params.get_mut(p) {
                    changed |= slot.join(&v);
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
    /// Local variable -> abstract value.
    vars: HashMap<String, Val>,
    /// Guard refinements pending: once the walk passes the token index,
    /// the variable is proven bounded (or fully trusted).
    refines: Vec<(usize, String, Refine)>,
    ret_val: Option<Val>,
    /// (callee fn index, param index, value) facts for the driver.
    pushes: Vec<(usize, usize, Val)>,
    findings: Vec<Finding>,
    /// Token indices of recognized source / checked sink sites.
    source_toks: BTreeSet<usize>,
    sink_toks: BTreeSet<usize>,
    reporting: bool,
    /// Re-evaluation of an already-walked range (guard bounds): suppress
    /// findings and summary pushes.
    quiet: bool,
}

impl<'a> Analyzer<'a> {
    fn new(
        ctx: &'a FnCtx<'a>,
        ws: &'a Workspace,
        summaries: &'a [Summary],
        gi: usize,
        reporting: bool,
    ) -> Analyzer<'a> {
        let mut vars = HashMap::new();
        for (slot, pname) in summaries[gi].params.iter().zip(ctx.params) {
            if let Some(v) = &slot.val {
                vars.insert(pname.clone(), v.clone());
            }
        }
        Analyzer {
            ctx,
            ws,
            summaries,
            vars,
            refines: Vec::new(),
            ret_val: None,
            pushes: Vec::new(),
            findings: Vec::new(),
            source_toks: BTreeSet::new(),
            sink_toks: BTreeSet::new(),
            reporting,
            quiet: false,
        }
    }

    fn toks(&self) -> &'a [Tok] {
        &self.ctx.file.tokens
    }

    /// Whether `v` is proved small enough (or symbolically bounded by a
    /// buffer length) to discharge an allocation/loop/index sink.
    fn proved(&self, v: &Val) -> bool {
        v.iv.hi <= MAX_PROVED_CAPACITY || v.sym.is_some()
    }

    /// Joins a return-site value into the function's return fact. Values
    /// with no information (untainted, unbounded) are skipped so error
    /// paths (`return Err(..)`) don't poison the Ok-value interval.
    fn note_ret(&mut self, v: Val) {
        if v.taint.is_none() && v.iv.is_top() {
            return;
        }
        match &mut self.ret_val {
            None => self.ret_val = Some(v),
            Some(cur) => {
                if cur.taint.is_none() {
                    cur.taint = v.taint;
                }
                cur.iv = cur.iv.join(&v.iv);
                cur.w = match (cur.w, v.w) {
                    (Some(a), Some(b)) => Some(a.wider(b)),
                    _ => None,
                };
                cur.sym = None;
            }
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
            self.apply_refines(i);
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
            let v = self.eval_arith(stmt_start, end);
            self.note_ret(v);
        }
    }

    /// The statement form at the ident `i`, run through its handler:
    /// returns where the walk resumes and, for a plain value chain, its
    /// value. Block expressions (`match` arms, `if`/`for` bodies inside a
    /// `let` init) carry full statements, so `walk_fn` and `eval_expr`
    /// share this one dispatch.
    fn stmt(&mut self, i: usize) -> (usize, Option<Val>) {
        let toks = self.toks();
        let next = match toks[i].ident().unwrap_or("") {
            _ if is_chain_seg(toks, i) => i + 1,
            "let" => self.handle_let(i),
            "if" => self.handle_if(i),
            "for" => self.handle_for(i),
            "while" | "match" => self.eval_head(i + 1),
            "return" => {
                let e = self.stmt_end(i + 1);
                let v = self.eval_arith(i + 1, e);
                self.note_ret(v);
                e
            }
            n if KEYWORDS.contains(&n) => i + 1,
            "vec" if is_macro_call(toks, i) => self.handle_macro(i),
            _ if is_macro_call(toks, i) => self.skip_macro(i),
            _ => match cursor::assignment(toks, i) {
                Some((op, rhs)) => self.assign(i, op, rhs),
                None => {
                    let (v, next) = self.eval_chain(i);
                    return (next.max(i + 1), Some(v));
                }
            },
        };
        (next.max(i + 1), None)
    }

    fn apply_refines(&mut self, now: usize) {
        let mut k = 0;
        while k < self.refines.len() {
            if self.refines[k].0 <= now {
                let (_, name, refine) = self.refines.remove(k);
                // A guard can name something that was never bound locally
                // (a const, a field): seed the entry from the const table
                // so the refinement narrows the real value instead of
                // shadowing it with an unknown.
                let seed = self
                    .ws
                    .consts
                    .get(&name)
                    .map(|&v| Val::constant(v))
                    .unwrap_or_else(Val::unknown);
                let entry = self.vars.entry(name).or_insert(seed);
                match refine {
                    Refine::Kill => entry.taint = None,
                    Refine::Bound(b, sym) => {
                        entry.iv = Ival::new(entry.iv.lo.min(b), entry.iv.hi.min(b));
                        if entry.sym.is_none() {
                            entry.sym = sym;
                        }
                    }
                }
            } else {
                k += 1;
            }
        }
    }

    /// `vec![elem; len]` is an allocation sink; every other macro body is
    /// skipped whole (format!/assert! interiors are noise, not dataflow).
    fn handle_macro(&mut self, i: usize) -> usize {
        let toks = self.toks();
        if toks.get(i + 2).is_some_and(|t| t.is_punct('[')) {
            let close = self.ctx.file.skip_balanced(i + 2);
            // Find the `;` separating element from count, at depth 1.
            let mut d = 0i32;
            for j in i + 2..close.saturating_sub(1) {
                match &toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
                    TokKind::Punct(';') if d == 1 => {
                        let (ls, le) = (j + 1, close - 1);
                        if range_has_ident(toks, ls, le) {
                            self.sink_toks.insert(i);
                        }
                        let v = self.eval_arith(ls, le);
                        if let Some(t) = v.taint.clone() {
                            if !self.proved(&v) {
                                self.finding(
                                    ALLOC,
                                    toks[i].line,
                                    "vec!",
                                    format!(
                                        "`vec![..; n]` sized by untrusted input ({}){} — clamp \
                                         against a named MAX_* bound before allocating",
                                        t.describe(),
                                        self.range_note(&v),
                                    ),
                                );
                            }
                        }
                        break;
                    }
                    _ => {}
                }
            }
            close
        } else {
            self.skip_macro(i)
        }
    }

    fn skip_macro(&self, i: usize) -> usize {
        let toks = self.toks();
        match toks.get(i + 2).map(|t| &t.kind) {
            Some(TokKind::Punct('(' | '[' | '{')) => self.ctx.file.skip_balanced(i + 2),
            _ => i + 2,
        }
    }

    /// Suffix for range-aware messages: the proved interval, when it is
    /// tighter than unknown.
    fn range_note(&self, v: &Val) -> String {
        if !v.iv.is_top() {
            format!(" despite proved range [{}, {}]", v.iv.lo, v.iv.hi)
        } else {
            String::new()
        }
    }

    /// `let PAT [: TY] = INIT` binds the pattern's names — a plain name,
    /// a single-name `Variant(x)`, or every name of a flat tuple — to the
    /// initializer's value.
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
        let v = self.eval_arith(l.eq + 1, init_end);
        for name in names {
            self.vars.insert(name, v.clone());
        }
        init_end
    }

    /// `if COND {` — recognizes the bound-guard sanitizer
    /// (`if n > MAX_* { return/break/continue .. }` proves `n <= MAX_*`
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
        self.eval_expr(if_idx + 1, brace);
        let close = self.ctx.file.close_of(brace);
        if close < toks.len() && block_diverges(toks, brace, close) {
            // Split the condition on top-level `||`: every disjunct that
            // is a plain upper-bound comparison refines its variable once
            // the guard block is behind us. A bound that folds to a
            // number caps the interval (taint retained — the sinks check
            // the proof); anything constant-like but unfoldable kills the
            // taint.
            for (cs, ce) in split_on_or(toks, if_idx + 1, brace) {
                if let Some((name, bs, be)) = upper_bound_guard(toks, cs, ce, &self.vars) {
                    let q = std::mem::replace(&mut self.quiet, true);
                    let b = self.eval_arith(bs, be);
                    self.quiet = q;
                    let refine = if b.taint.is_none() && (b.iv.hi < u128::MAX || b.sym.is_some()) {
                        Refine::Bound(b.iv.hi, b.sym)
                    } else {
                        Refine::Kill
                    };
                    self.refines.push((close, name, refine));
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
            self.eval_expr(in_idx + 1, brace);
            return brace + 1;
        };
        self.eval_expr(in_idx + 1, dots);
        if range_has_ident(toks, upper, brace) {
            self.sink_toks.insert(for_idx);
        }
        let v = self.eval_arith(upper, brace);
        if let Some(t) = v.taint.clone() {
            if !self.proved(&v) {
                self.finding(
                    LOOP,
                    toks[for_idx].line,
                    "for",
                    format!(
                        "loop upper bound flows from untrusted input ({}){} — reject \
                         counts above a named MAX_* bound before iterating",
                        t.describe(),
                        self.range_note(&v),
                    ),
                );
            }
        }
        brace + 1
    }

    /// Evaluates a `while`/`match` head up to its `{` and enters the block.
    fn eval_head(&mut self, from: usize) -> usize {
        let Some(brace) = self.find_block_open(from) else {
            return from;
        };
        self.eval_expr(from, brace);
        brace + 1
    }

    /// `x = RHS` rebinds `x`; `x op= RHS` applies the operator's transfer
    /// function, so `total += len` accumulation runs through the L8 check.
    fn assign(&mut self, i: usize, op: Option<char>, rhs: usize) -> usize {
        let toks = self.toks();
        let name = toks[i].ident().unwrap_or("").to_string();
        let e = self.stmt_end(rhs);
        let mut v = self.eval_arith(rhs, e);
        if let Some(op) = op {
            let cur = self.vars.get(&name).cloned().unwrap_or_else(Val::unknown);
            v = self.apply_op(op, cur, v, toks[i + 1].line);
        }
        self.vars.insert(name, v);
        e
    }

    /// Scans `[s, e)` left to right, running every statement and chain;
    /// returns the first chain taint found (provenance of the whole
    /// expression).
    fn eval_expr(&mut self, s: usize, e: usize) -> Option<Taint> {
        let mut out: Option<Taint> = None;
        let mut i = s;
        while i < e {
            self.apply_refines(i);
            if let Some(next) = cursor::foreign(self.ctx.file, self.ctx.fn_idx, i) {
                i = next;
                continue;
            }
            if self.toks()[i].ident().is_none() {
                i += 1;
                continue;
            }
            let (next, v) = self.stmt(i);
            if out.is_none() {
                out = v.and_then(|v| v.taint);
            }
            i = next;
        }
        out
    }

    /// Interval-aware expression evaluation over `[s, e)`: a precedence
    /// parser over `* / % + - << >> & ^ |` whose atoms are chains,
    /// literals, and parenthesized subexpressions. Anything structurally
    /// outside that grammar (comparisons, ranges, blocks, closures)
    /// falls back to the plain `eval_expr` scan, preserving taint with
    /// an unknown interval — precision degrades, soundness doesn't.
    fn eval_arith(&mut self, s: usize, e: usize) -> Val {
        if s >= e {
            return Val::unknown();
        }
        let mut pos = s;
        match self.parse_arith(&mut pos, e, 0) {
            Some(v) if pos >= e => v,
            Some(v) => {
                // Trailing structure (comparison, `..`, struct literal):
                // scan the rest for sinks; the interval no longer applies.
                let rest = self.eval_expr(pos, e);
                Val::tainted(v.taint.or(rest))
            }
            None => Val::tainted(self.eval_expr(s, e)),
        }
    }

    /// Precedence climbing over the arithmetic operators; `None` means
    /// the shape was not arithmetic and the caller should fall back.
    fn parse_arith(&mut self, pos: &mut usize, e: usize, min_bp: u8) -> Option<Val> {
        let mut lhs = self.parse_atom(pos, e)?;
        loop {
            let Some((bp, op, width_toks)) = peek_arith_op(self.toks(), *pos, e) else {
                return Some(lhs);
            };
            if bp < min_bp {
                return Some(lhs);
            }
            let line = self.toks()[*pos].line;
            *pos += width_toks;
            let rhs = self.parse_arith(pos, e, bp + 1)?;
            lhs = self.apply_op(op, lhs, rhs, line);
        }
    }

    /// One operand: a prefix (`& * - !`), a literal, a parenthesized
    /// subexpression, an array literal, or an ident chain — each with
    /// its postfix tail (`.m(..)`, `[..]`, `?`, `as T`).
    fn parse_atom(&mut self, pos: &mut usize, e: usize) -> Option<Val> {
        if *pos >= e {
            return None;
        }
        let toks = self.toks();
        match &toks[*pos].kind {
            TokKind::Punct('&') => {
                *pos += 1;
                if toks.get(*pos).is_some_and(|t| t.ident() == Some("mut")) {
                    *pos += 1;
                }
                self.parse_atom(pos, e)
            }
            TokKind::Punct('*') => {
                *pos += 1;
                self.parse_atom(pos, e)
            }
            TokKind::Punct('-') | TokKind::Punct('!') => {
                *pos += 1;
                let v = self.parse_atom(pos, e)?;
                // Negation leaves the unsigned domain; keep the taint.
                Some(Val {
                    w: v.w,
                    ..Val::tainted(v.taint)
                })
            }
            TokKind::Punct('(') => {
                let close = self.ctx.file.skip_balanced(*pos);
                let v = self.eval_arith(*pos + 1, close.saturating_sub(1));
                let (v, next) = self.chain_tail(v, close);
                *pos = next.max(close);
                Some(v)
            }
            TokKind::Punct('[') => {
                let close = self.ctx.file.skip_balanced(*pos);
                let taint = self.eval_expr(*pos + 1, close.saturating_sub(1));
                let (v, next) = self.chain_tail(Val::tainted(taint), close);
                *pos = next.max(close);
                Some(v)
            }
            TokKind::Literal => {
                let v = Val {
                    iv: toks[*pos].num.map(Ival::point).unwrap_or(Ival::TOP),
                    ..Val::unknown()
                };
                let (v, next) = self.chain_tail(v, *pos + 1);
                *pos = next.max(*pos + 1);
                Some(v)
            }
            TokKind::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) || is_macro_call(toks, *pos) {
                    return None; // Statement-shaped: let eval_expr handle it.
                }
                let (v, next) = self.eval_chain(*pos);
                *pos = next.max(*pos + 1);
                Some(v)
            }
            _ => None,
        }
    }

    /// One binary transfer-function application, running the L8 overflow
    /// check: if the operand type is a narrow unsigned width and the
    /// pre-wrap interval exceeds it, tainted operands mean an attacker
    /// can steer the wrap.
    fn apply_op(&mut self, op: char, a: Val, b: Val, line: u32) -> Val {
        let taint = a.taint.clone().or_else(|| b.taint.clone());
        let w = match (a.w, b.w) {
            (Some(x), Some(y)) => Some(x.wider(y)),
            (Some(x), None) => Some(x),
            (None, y) => y,
        };
        // The runtime operands are bounded by their type even when the
        // abstract interval isn't; clamp before the math so the pre-wrap
        // magnitude is the mathematical result of in-type operands.
        let (ai, bi) = match w {
            Some(w) => (range::cast(&a.iv, w), range::cast(&b.iv, w)),
            None => (a.iv, b.iv),
        };
        let raw = match op {
            '+' => range::add(&ai, &bi),
            '-' => range::sub(&ai, &bi),
            '*' => range::mul(&ai, &bi),
            '/' => range::div(&ai, &bi),
            '%' => range::rem(&ai, &bi),
            '«' => range::shl(&ai, &bi),
            '»' => range::shr(&ai, &bi),
            '&' => range::bitand(&ai, &bi),
            '|' => range::bitor(&ai, &bi),
            '^' => range::bitxor(&ai, &bi),
            _ => Ival::TOP,
        };
        // Shrinking ops keep a symbolic `<= len` bound; growing ops lose it.
        let sym = match op {
            '-' | '/' | '%' | '»' | '&' => a.sym.clone(),
            _ => None,
        };
        let mut iv = raw;
        if let Some(w) = w {
            if w < Width::W64 && matches!(op, '+' | '*' | '«') && raw.hi > w.max() {
                if let Some(t) = &taint {
                    let ty = match w {
                        Width::W8 => "u8",
                        Width::W16 => "u16",
                        _ => "u32",
                    };
                    // `saturating_shl` does not exist in std, so the shift
                    // suggestion names `checked_shl` alone.
                    let (opname, fix) = match op {
                        '+' => ("addition", "`checked_add`/`saturating_add`"),
                        '*' => ("multiplication", "`checked_mul`/`saturating_mul`"),
                        _ => ("shift", "`checked_shl`"),
                    };
                    self.finding(
                        OVERFLOW,
                        line,
                        &op.to_string(),
                        format!(
                            "`{ty}` {opname} on untrusted input ({}) can reach {} and wrap \
                             past {ty}::MAX in release mode — use {fix} \
                             or widen to u64 before the arithmetic",
                            t.describe(),
                            raw.hi,
                        ),
                    );
                }
            }
            iv = range::cast(&raw, w);
        }
        Val { taint, iv, w, sym }
    }

    /// Evaluates one chain starting at the ident `base`: path or method
    /// calls, field/tuple segments, indexing (an L7-INDEX sink when the
    /// index is tainted), `?`, and trailing `as` casts (an L7-TRUNC sink
    /// when the interval exceeds the target). Bare idents resolve
    /// against locals first, then the workspace const table.
    fn eval_chain(&mut self, base: usize) -> (Val, usize) {
        let toks = self.toks();
        let name = toks[base].ident().unwrap_or("");
        let head = cursor::head(self.ctx.file, base);
        let last = toks[head.last].ident().unwrap_or("");
        let val = if let Some(open) = head.call {
            // The resolver records path calls at the *head* token.
            let close = self.ctx.file.skip_balanced(open);
            let v = self.handle_call(last, base, base, open, close, Val::unknown(), head.path);
            return self.chain_tail(v, close);
        } else if head.path {
            // Path constant: `u32::MAX`, `Limits::CAP`, `Ordering::..`.
            match (Width::of_type(name), last) {
                (Some(w), "MAX") => Val {
                    iv: Ival::point(w.max()),
                    w: Some(w),
                    ..Val::unknown()
                },
                (Some(w), "MIN") => Val {
                    iv: Ival::point(0),
                    w: Some(w),
                    ..Val::unknown()
                },
                _ => self.constant(last).unwrap_or_else(Val::unknown),
            }
        } else {
            let local = self.vars.get(name).cloned();
            local
                .or_else(|| self.constant(name))
                .unwrap_or_else(Val::unknown)
        };
        self.chain_tail(val, head.next)
    }

    /// The workspace const `name`, as a value.
    fn constant(&self, name: &str) -> Option<Val> {
        self.ws.consts.get(name).map(|&v| Val::constant(v))
    }

    /// The postfix tail shared by ident chains and parenthesized atoms:
    /// `?`, indexing, `.seg`/`.m(..)` segments, and `as` casts.
    fn chain_tail(&mut self, mut val: Val, mut cur: usize) -> (Val, usize) {
        let toks = self.toks();
        while let Some((seg, next)) = cursor::postfix(self.ctx.file, cur, self.ctx.end) {
            match seg {
                Seg::Try => {}
                Seg::Index(open) => {
                    if range_has_ident(toks, open + 1, next - 1) {
                        self.sink_toks.insert(open);
                    }
                    self.index_sink(open + 1, next - 1, toks[open].line);
                    // The element of a tainted container is tainted; its
                    // magnitude is unknown.
                    val = Val::tainted(val.taint);
                }
                // A field of a tainted value stays tainted; its magnitude
                // is unknown.
                Seg::Field(_) => val = Val::tainted(val.taint),
                Seg::Method(seg, open) => {
                    let m = toks[seg].ident().unwrap_or("");
                    val = self.handle_call(m, seg, seg, open, next, val, false);
                }
                Seg::Cast(ty) => {
                    val = self.cast(val, toks[ty].ident().unwrap_or(""), toks[cur].line)
                }
            }
            cur = next;
        }
        (val, cur)
    }

    /// An `as ty` cast: an L7-TRUNC sink when a tainted interval exceeds
    /// a narrow target, then the interval and width of the target type.
    fn cast(&mut self, mut val: Val, ty: &str, line: u32) -> Val {
        if let Some(t) = val.taint.clone() {
            if val.sym.is_none() && cast_bound(ty).is_some_and(|b| val.iv.hi > b) {
                self.finding(
                    TRUNC,
                    line,
                    "as",
                    format!(
                        "narrowing `as {ty}` cast of untrusted input ({}){} wraps \
                         silently — use `try_into()` and handle the error",
                        t.describe(),
                        self.range_note(&val),
                    ),
                );
            }
        }
        if let Some(w) = Width::of_type(ty) {
            if val.iv.hi > w.max() {
                val.sym = None; // A wrapped value outruns its bound.
            }
            val.iv = range::cast(&val.iv, w);
            val.w = Some(w);
        } else {
            match cast_bound(ty) {
                Some(b) if val.iv.hi <= b => val.w = None, // Fits signed.
                Some(_) => val = Val::tainted(val.taint),
                None => val.w = None, // u128/f64/pointer: lossless or non-integer.
            }
        }
        val
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
            let v = self.eval_arith(ps, pe);
            if let Some(t) = v.taint.clone() {
                if !self.proved(&v) {
                    self.finding(
                        INDEX,
                        line,
                        "[]",
                        format!(
                            "slice index/range derived from untrusted input ({}){} — \
                             bounds-check it against the buffer or use `.get(..)`",
                            t.describe(),
                            self.range_note(&v),
                        ),
                    );
                    return;
                }
            }
        }
    }

    /// One call segment: sources, sanitizers, summaries, arg pushes, and
    /// allocation sinks. `recv` is the receiver's value for method
    /// segments; `path_call` marks `A::b(..)` forms (where a `self`-taking
    /// callee's first argument is the receiver).
    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        m: &str,
        name_tok: usize,
        call_tok: usize,
        open: usize,
        close: usize,
        recv: Val,
        path_call: bool,
    ) -> Val {
        let toks = self.toks();
        let args = cursor::elements(toks, open + 1, close - 1);
        // Sanitizers first: they bound (or kill) the receiver's taint,
        // and their arguments are bounds, not payloads.
        if CLAMP_SANITIZERS.contains(&m) {
            return self.handle_clamp(m, &args, recv);
        }
        if m == "try_into" || m == "try_from" || m.starts_with("checked_") {
            for &(s, e) in &args {
                self.eval_arith(s, e);
            }
            // The caller must handle the Err/None, so the surviving
            // value fits its type: taint dies, the width bounds the
            // interval.
            return Val {
                iv: recv.w.map(|w| Ival::new(0, w.max())).unwrap_or(Ival::TOP),
                w: recv.w,
                ..Val::unknown()
            };
        }

        let arg_vals: Vec<Val> = args.iter().map(|&(s, e)| self.eval_arith(s, e)).collect();

        // The default call result: unknown value, receiver taint flows
        // through (a method of wire data computes wire data).
        let mut out = Val::tainted(recv.taint.clone());
        if self.ctx.sources_active && SOURCES.contains(&m) {
            self.source_toks.insert(name_tok);
            let w = source_width(toks, name_tok, open, path_call);
            if out.taint.is_none() {
                out.taint = Some(Taint {
                    what: m.to_string(),
                    file: self.ctx.path.to_string(),
                    line: toks[name_tok].line,
                });
            }
            out.iv = w.map(|w| Ival::new(0, w.max())).unwrap_or(Ival::TOP);
            out.w = w;
        }

        if let Some(targets) = self.ctx.calls.get(&call_tok) {
            for &g in targets {
                if out.taint.is_none() {
                    if let Some(rv) = &self.summaries[g].ret.val {
                        out = rv.clone();
                    }
                }
                let callee = &self.ws.fns[g];
                let skip_recv = path_call && callee.self_kind != SelfKind::None;
                for (j, av) in arg_vals.iter().enumerate() {
                    if av.taint.is_none() {
                        continue;
                    }
                    let pj = if skip_recv {
                        match j.checked_sub(1) {
                            Some(p) => p,
                            None => continue,
                        }
                    } else {
                        j
                    };
                    if pj < callee.params.len() && !self.quiet {
                        self.pushes.push((g, pj, av.clone()));
                    }
                }
            }
        } else {
            // Unresolved callee: a handful of std identities preserve
            // the value (and its interval); everything else propagates
            // taint with an unknown result — a value computed from wire
            // data is wire data.
            match m {
                "Ok" | "Some" => {
                    if let Some(a0) = arg_vals.first() {
                        out = a0.clone();
                    }
                }
                "from" if path_call => {
                    // `u64::from(x)` / `usize::from(x)`: lossless widen.
                    if let Some(a0) = arg_vals.first() {
                        out = a0.clone();
                        if let Some(w) = toks[name_tok].ident().and_then(Width::of_type) {
                            out.w = Some(w);
                            out.iv = range::cast(&out.iv, w);
                        }
                    }
                }
                "into" | "unwrap" | "expect" | "clone" | "copied" | "to_owned"
                    if args.is_empty() || m == "expect" =>
                {
                    out = recv.clone();
                }
                "len" if args.is_empty() && !path_call => {
                    out = Val {
                        taint: recv.taint.clone(),
                        iv: Ival::new(0, u64::MAX as u128),
                        w: Some(Width::W64),
                        sym: Some("len".to_string()),
                    };
                }
                "max" if !path_call => {
                    if let Some(a0) = arg_vals.first() {
                        out = Val {
                            taint: recv.taint.clone().or_else(|| a0.taint.clone()),
                            iv: range::max_(&recv.iv, &a0.iv),
                            w: recv.w,
                            sym: None,
                        };
                    }
                }
                _ if m.starts_with("saturating_") => {
                    let a0 = arg_vals.first().cloned().unwrap_or_else(Val::unknown);
                    let raw = match &m["saturating_".len()..] {
                        "add" => range::add(&recv.iv, &a0.iv),
                        "sub" => range::sub(&recv.iv, &a0.iv),
                        "mul" => range::mul(&recv.iv, &a0.iv),
                        _ => Ival::TOP,
                    };
                    let w = recv.w.or(a0.w);
                    out = Val {
                        taint: recv.taint.clone().or(a0.taint),
                        iv: w.map(|w| range::cast(&raw, w)).unwrap_or(raw),
                        w,
                        sym: None,
                    };
                }
                _ if m.starts_with("wrapping_") => {
                    let a0 = arg_vals.first().cloned().unwrap_or_else(Val::unknown);
                    out = Val {
                        taint: recv.taint.clone().or(a0.taint),
                        iv: recv.w.map(|w| Ival::new(0, w.max())).unwrap_or(Ival::TOP),
                        w: recv.w,
                        sym: None,
                    };
                }
                _ => {
                    if out.taint.is_none() {
                        out.taint = arg_vals.iter().find_map(|v| v.taint.clone());
                    }
                }
            }
        }

        if ALLOC_SINKS.contains(&m) {
            if args
                .first()
                .is_some_and(|&(s, e)| range_has_ident(toks, s, e))
            {
                self.sink_toks.insert(name_tok);
            }
            if let Some(v) = arg_vals.first() {
                if let Some(t) = v.taint.clone() {
                    if !self.proved(v) {
                        self.finding(
                            ALLOC,
                            toks[name_tok].line,
                            m,
                            format!(
                                "allocation sized by untrusted input ({}){} reaches `{m}` — \
                                 reject sizes above a named MAX_* bound first",
                                t.describe(),
                                self.range_note(v),
                            ),
                        );
                    }
                }
            }
        }
        out
    }

    /// `.min(..)` / `.clamp(..)`: the interval narrows via the exact
    /// transfer function and the taint survives with it — the sink
    /// checks whether the proof is good enough. The syntactic kill is
    /// kept only for constant-like bounds the folder cannot resolve
    /// (cross-crate consts, `limits.max_*` fields); the bound must pass
    /// the tightened const-argument matcher (a bare `cap_hint` variable
    /// is not a clamp — the fix for the old matcher's substring hole).
    fn handle_clamp(&mut self, m: &str, args: &[(usize, usize)], recv: Val) -> Val {
        let toks = self.toks();
        let arg_vals: Vec<Val> = args.iter().map(|&(s, e)| self.eval_arith(s, e)).collect();
        let bound_idx = if m == "clamp" {
            arg_vals.len().saturating_sub(1)
        } else {
            0
        };
        let bval = arg_vals.get(bound_idx);
        let mut iv = recv.iv;
        if m == "clamp" && arg_vals.len() == 2 {
            iv = range::clamp(&recv.iv, &arg_vals[0].iv, &arg_vals[1].iv);
        } else if let Some(b) = arg_vals.first() {
            iv = range::min_(&recv.iv, &b.iv);
        }
        let sym = recv
            .sym
            .clone()
            .or_else(|| bval.and_then(|b| b.sym.clone()));
        let bound_tainted = bval.is_some_and(|b| b.taint.is_some());
        let proved = bval.is_some_and(|b| b.iv.hi < u128::MAX) || sym.is_some();
        let taint = if !bound_tainted && proved {
            recv.taint
        } else if !bound_tainted
            && args
                .get(bound_idx)
                .is_some_and(|&(s, e)| const_like(toks, s, e, &self.vars, false))
        {
            None
        } else {
            // Unproved bound: `.min(other_tainted)` keeps the smaller taint.
            let arg_taint = || arg_vals.iter().find_map(|v| v.taint.clone());
            recv.taint.or_else(arg_taint)
        };
        Val {
            taint,
            iv,
            w: recv.w,
            sym,
        }
    }

    fn finding(&mut self, code: &'static str, line: u32, callee: &str, message: String) {
        if self.reporting && !self.quiet {
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

/// Width of a wire-decode source: the path head type
/// (`u32::from_le_bytes`) or a turbofish (`.parse::<u16>()`).
fn source_width(toks: &[Tok], name_tok: usize, open: usize, path_call: bool) -> Option<Width> {
    if path_call {
        if let Some(w) = toks[name_tok].ident().and_then(Width::of_type) {
            return Some(w);
        }
    }
    toks[name_tok + 1..open.min(toks.len())]
        .iter()
        .find_map(|t| t.ident().and_then(Width::of_type))
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
    vars: &HashMap<String, Val>,
    bare_names: bool,
) -> bool {
    let mut anchor = false;
    for i in s.min(toks.len())..e.min(toks.len()) {
        match &toks[i].kind {
            TokKind::Literal => anchor = true,
            TokKind::Ident(id) => {
                if vars.get(id).is_some_and(|v| v.taint.is_some()) {
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
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => d += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => d -= 1,
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
/// guard proves an upper bound for, plus the bound's token range (so
/// the interval layer can try to fold it to a number).
fn upper_bound_guard(
    toks: &[Tok],
    s: usize,
    e: usize,
    vars: &HashMap<String, Val>,
) -> Option<(String, usize, usize)> {
    // `NAME > BOUND` form.
    if let Some(name) = toks.get(s).and_then(|t| t.ident()) {
        if toks.get(s + 1).is_some_and(|t| t.is_punct('>')) {
            let bs = if toks.get(s + 2).is_some_and(|t| t.is_punct('=')) {
                s + 3
            } else {
                s + 2
            };
            if bs < e && const_like(toks, bs, e, vars, true) {
                return Some((name.to_string(), bs, e));
            }
        }
    }
    // `BOUND < NAME` form: the comparison is the last two/three tokens.
    if e >= 2 {
        if let Some(name) = toks.get(e - 1).and_then(|t| t.ident()) {
            let lt = e - 2;
            let cmp_at = if toks.get(lt).is_some_and(|t| t.is_punct('=')) && lt > s {
                lt - 1
            } else {
                lt
            };
            if toks.get(cmp_at).is_some_and(|t| t.is_punct('<'))
                && cmp_at > s
                && const_like(toks, s, cmp_at, vars, true)
                && !toks.get(e - 2).is_some_and(|t| t.is_punct('.'))
            {
                return Some((name.to_string(), s, cmp_at));
            }
        }
    }
    None
}
