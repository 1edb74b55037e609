//! Resolution layer: turns the per-file token streams + HIR into the
//! workspace model the taint pass (L7) consumes.
//!
//! * **Symbol table** — structs keyed `crate::Name`, their fields with
//!   parsed types, and a method table `crate::Ty::m -> fn`.
//! * **Call graph** — per function, in source order, every call that
//!   resolves to workspace functions: `.m(..)` on a receiver whose struct
//!   is known (`self`, a typed parameter or local, a field, a lock's
//!   guard), `Ty::m(..)` / `Self::m(..)` paths, and free functions by name.
//!
//! The statement syntax (`let` heads, assignments, chain heads and
//! segments) comes from [`crate::cursor`], shared with the taint walker;
//! what a binding or a chain means is decided here. Known approximations
//! are documented in DESIGN.md §10: closure parameters are untyped
//! (chains through them do not resolve), destructuring `let` patterns do
//! not bind, generic calls (`f::<T>(..)`) stay unresolved, and free-call
//! fallback resolution is by name over free functions only.

use std::collections::{BTreeMap, HashMap};

use crate::cursor::{self, Pat, Seg, KEYWORDS};
use crate::hir::{self, FieldDef, FileHir, SelfKind, Type};
use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;
use crate::passes::{is_macro_call, path_sep, prev_segment, stmt_end};

/// A call that resolves to workspace functions.
#[derive(Debug, Clone)]
pub struct Call {
    /// Indices into `Workspace::fns`.
    pub targets: Vec<usize>,
    /// The call's base ident (free or path call) or method name.
    pub tok: usize,
}

/// One function: its resolved calls plus the signature facts the taint
/// pass reads.
#[derive(Debug)]
pub struct FnInfo {
    /// Unique key `file#index`.
    pub key: String,
    pub file: String,
    pub name: String,
    pub self_kind: SelfKind,
    /// Index into the `files` slice `build` was called with.
    pub file_idx: usize,
    /// Index into that file's `fns()` span list.
    pub span_idx: usize,
    /// Typed value-parameter names, in declaration order (`self` excluded)
    /// — positionally parallel to call-site arguments, which is what the
    /// taint pass needs to push caller facts into callees.
    pub params: Vec<String>,
    /// Resolved calls, in source order.
    pub calls: Vec<Call>,
}

/// The resolved workspace model.
#[derive(Debug, Default)]
pub struct Workspace {
    pub fns: Vec<FnInfo>,
}

/// Crate a path belongs to: the component after `crates/`, else the root
/// crate `pimdl`.
pub fn crate_of(path: &str) -> String {
    let comps: Vec<&str> = path.split('/').collect();
    for (i, c) in comps.iter().enumerate() {
        if *c == "crates" && i + 1 < comps.len() {
            return comps[i + 1].to_string();
        }
    }
    "pimdl".to_string()
}

/// Symbol tables shared by every function walker.
#[derive(Default)]
struct Symbols {
    /// `crate::Name -> fields`.
    structs: BTreeMap<String, Vec<FieldDef>>,
    /// Bare name -> defining crates (for cross-crate fallback).
    crates_of: HashMap<String, Vec<String>>,
    /// `crate::Ty::m -> fn indices`.
    methods: HashMap<String, Vec<usize>>,
    /// Free functions by bare name.
    free: HashMap<String, Vec<usize>>,
}

impl Symbols {
    /// Resolves a bare struct name seen from `krate` to its key.
    fn resolve_struct(&self, name: &str, krate: &str) -> Option<String> {
        let local = format!("{krate}::{name}");
        if self.structs.contains_key(&local) {
            return Some(local);
        }
        match self.crates_of.get(name) {
            Some(cs) if cs.len() == 1 => Some(format!("{}::{}", cs[0], name)),
            _ => None,
        }
    }

    fn field<'a>(&'a self, st: &str, field: &str) -> Option<&'a FieldDef> {
        self.structs.get(st)?.iter().find(|f| f.name == field)
    }
}

/// Resolves `files`, whose item models `hirs` are (one per file, in
/// order).
pub fn build(files: &[SourceFile], hirs: &[FileHir]) -> Workspace {
    let mut sym = Symbols::default();

    // Pass 1: symbol tables + the global fn list (indices are stable).
    let mut fn_meta: Vec<(usize, usize)> = Vec::new(); // (file idx, fn idx)
    for (fi, (file, h)) in files.iter().zip(hirs).enumerate() {
        let path = file.path.display().to_string().replace('\\', "/");
        let krate = crate_of(&path);
        for s in &h.structs {
            let key = format!("{krate}::{}", s.name);
            sym.crates_of
                .entry(s.name.clone())
                .or_default()
                .push(krate.clone());
            sym.structs.entry(key).or_insert_with(|| s.fields.clone());
        }
        for (si, (span, sig)) in file.fns().iter().zip(&h.sigs).enumerate() {
            let gidx = fn_meta.len();
            fn_meta.push((fi, si));
            match &sig.impl_ty {
                Some(ty) => {
                    sym.methods
                        .entry(format!("{krate}::{ty}::{}", span.name))
                        .or_default()
                        .push(gidx);
                }
                None => {
                    sym.free.entry(span.name.clone()).or_default().push(gidx);
                }
            }
        }
    }
    // Dedup crates_of so "defined once" checks work.
    for v in sym.crates_of.values_mut() {
        v.sort();
        v.dedup();
    }

    // Pass 2: walk every function body, resolving its calls.
    let mut fns: Vec<FnInfo> = Vec::new();
    for &(fi, si) in &fn_meta {
        let file = &files[fi];
        let path = file.path.display().to_string().replace('\\', "/");
        let span = &file.fns()[si];
        let sig = &hirs[fi].sigs[si];
        let krate = crate_of(&path);
        let mut w = Walker {
            file,
            toks: &file.tokens,
            sym: &sym,
            impl_key: sig.impl_ty.as_ref().map(|ty| format!("{krate}::{ty}")),
            krate,
            locals: HashMap::new(),
            pending: Vec::new(),
            calls: Vec::new(),
            my_fn: si,
        };
        for (pname, pty) in &sig.params {
            let b = w.of_type(pty);
            if !matches!(b, Bind::Unknown) {
                w.locals.insert(pname.clone(), b);
            }
        }
        if span.body_start < span.end {
            w.walk(span.body_start + 1, span.end.saturating_sub(1));
        }
        fns.push(FnInfo {
            key: format!("{path}#{si}"),
            file: path,
            name: span.name.clone(),
            self_kind: sig.self_kind,
            file_idx: fi,
            span_idx: si,
            params: sig.params.iter().map(|(n, _)| n.clone()).collect(),
            calls: w.calls,
        });
    }

    Workspace { fns }
}

/// What a local name is bound to, and what a chain folds to.
#[derive(Debug, Clone)]
enum Bind {
    /// A `Mutex`/`RwLock` (through `Arc`/`Box`/..) and the struct it
    /// guards, if known.
    Lock(Option<String>),
    /// A guard over a known struct (or the `LockResult` around one).
    Guard(String),
    Struct(String),
    Unknown,
}

struct Walker<'a> {
    file: &'a SourceFile,
    toks: &'a [Tok],
    sym: &'a Symbols,
    krate: String,
    /// Resolved `crate::Ty` of the enclosing impl, if any.
    impl_key: Option<String>,
    locals: HashMap<String, Bind>,
    /// Bindings applied once the cursor passes `apply_at`:
    /// `(apply_at, name, binding)`.
    pending: Vec<(usize, String, Bind)>,
    calls: Vec<Call>,
    /// Index of this fn in `file.fns()`; nested fns' tokens are not its.
    my_fn: usize,
}

impl<'a> Walker<'a> {
    /// What a value of type `ty` is: a lock, a known struct, or unknown.
    fn of_type(&self, ty: &Type) -> Bind {
        match ty.lock() {
            Some(lock) => Bind::Lock(lock.args.first().and_then(|t| self.struct_of(t))),
            None => self.struct_of(ty).map_or(Bind::Unknown, Bind::Struct),
        }
    }

    /// The struct key of `ty`'s element type, if it is a known struct.
    fn struct_of(&self, ty: &Type) -> Option<String> {
        self.sym.resolve_struct(&ty.innermost().name, &self.krate)
    }

    /// Main token loop over `[start, end)`.
    fn walk(&mut self, start: usize, end: usize) {
        let toks = self.toks;
        let mut i = start;
        while i < end {
            self.apply_pending(i);
            if let Some(next) = cursor::foreign(self.file, self.my_fn, i) {
                i = next;
                continue;
            }
            let Some(name) = toks[i].ident() else {
                i += 1;
                continue;
            };
            if name == "let" {
                self.handle_let(i, end);
                i += 1;
                continue;
            }
            // Skip keywords, path continuations, method/field segments
            // and macro names.
            let prev = i.checked_sub(1).map(|j| &toks[j].kind);
            if KEYWORDS.contains(&name)
                || matches!(prev, Some(TokKind::Punct('.' | ':')))
                || is_macro_call(toks, i)
            {
                i += 1;
                continue;
            }
            // Assignment rebinding at a statement head: `g = CHAIN;`.
            let at_stmt_head = matches!(prev, None | Some(TokKind::Punct(';' | '{' | '}')));
            if let (true, Some((None, init_start))) = (at_stmt_head, cursor::assignment(toks, i)) {
                let init_end = stmt_end(toks, init_start, end, false);
                let b = self.classify_init(init_start, init_end, None);
                self.pending.push((init_end, name.to_string(), b));
                i += 2;
                continue;
            }
            self.resolve_chain(i, true);
            i += 1;
        }
        self.apply_pending(usize::MAX);
    }

    fn apply_pending(&mut self, now: usize) {
        while let Some(pos) = self.pending.iter().position(|(at, ..)| *at <= now) {
            let (_, name, b) = self.pending.remove(pos);
            if matches!(b, Bind::Unknown) {
                self.locals.remove(&name);
            } else {
                self.locals.insert(name, b);
            }
        }
    }

    /// Queues the binding of `let [mut] NAME [: TY] = INIT;`, and of a flat
    /// tuple `let (a, b) = (x, y);` element by element. Other patterns
    /// (`let Some(x) = ..`) bind nothing.
    fn handle_let(&mut self, let_idx: usize, end: usize) {
        let toks = self.toks;
        let l = cursor::let_head(self.file, let_idx, end);
        if !l.has_init(toks) {
            return;
        }
        match l.pat {
            Pat::Name(name) => {
                let annot = match l.eq - l.pat_end {
                    0 => None,
                    _ if toks[l.pat_end].is_punct(':') => {
                        Some(hir::parse_type(self.file, l.pat_end + 1, l.eq).0)
                    }
                    _ => return,
                };
                let in_cond = toks
                    .get(let_idx.wrapping_sub(1))
                    .is_some_and(|t| matches!(t.ident(), Some("if" | "while")));
                let init_end = stmt_end(toks, l.eq + 1, end, in_cond);
                let b = self.classify_init(l.eq + 1, init_end, annot.as_ref());
                self.pending.push((init_end, name, b));
            }
            Pat::Tuple(Some(names))
                if l.eq == l.pat_end && toks.get(l.eq + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                let iclose = self.file.skip_balanced(l.eq + 1) - 1;
                let exprs = cursor::elements(toks, l.eq + 2, iclose);
                if exprs.len() == names.len() {
                    for (n, (s, e)) in names.into_iter().zip(exprs) {
                        let b = self.classify_init(s, e, None);
                        self.pending.push((iclose + 1, n, b));
                    }
                }
            }
            _ => {}
        }
    }

    /// Classifies what `[start, end)` evaluates to for binding purposes.
    fn classify_init(&mut self, start: usize, end: usize, annot: Option<&Type>) -> Bind {
        let toks = self.toks;
        // 1. A zero-arg `.lock()/.read()/.write()` anywhere in the init
        //    binds its guard (covers `lock_recover(x.lock(), s)`).
        if let Some(m) = (start + 1..end).find(|&m| is_lock_call(toks, m)) {
            let mut base = Some(m);
            while let Some(b) = base.filter(|&b| toks[b - 1].is_punct('.')) {
                base = prev_segment(toks, b);
            }
            return match base.map(|b| self.resolve_chain(b, false).0) {
                Some(guard @ Bind::Guard(_)) => guard,
                _ => Bind::Unknown,
            };
        }
        let mut s = start;
        while s < end
            && (toks[s].is_punct('&') || toks[s].is_punct('*') || toks[s].ident() == Some("mut"))
        {
            s += 1;
        }
        if s >= end {
            return Bind::Unknown;
        }
        // 2. `Arc::clone(&x)` / `Rc::clone(&x)` is `x`.
        if matches!(toks[s].ident(), Some("Arc" | "Rc"))
            && path_sep(toks, s + 1)
            && toks.get(s + 3).is_some_and(|t| t.ident() == Some("clone"))
            && toks.get(s + 4).is_some_and(|t| t.is_punct('('))
        {
            let close = self.file.skip_balanced(s + 4) - 1;
            return self.classify_init(s + 5, close, None);
        }
        // 3. Known-struct construction: `Ty { .. }` / `Ty::m(..)` / `Self ..`.
        if let Some(base) = toks[s].ident() {
            let st = if base == "Self" {
                self.impl_key.clone()
            } else {
                self.sym.resolve_struct(base, &self.krate)
            };
            if let Some(st) = st {
                if toks.get(s + 1).is_some_and(|t| t.is_punct('{')) || path_sep(toks, s + 1) {
                    return Bind::Struct(st);
                }
            }
        }
        // 4. Plain chain: whatever it resolves to.
        if toks[s].ident().is_some() {
            let (res, chain_end) = self.resolve_chain(s, false);
            let whole = chain_end >= end || toks.get(chain_end).is_some_and(|t| t.is_punct('?'));
            if whole && !matches!(res, Bind::Unknown) {
                return res;
            }
        }
        // 5. Fall back to the annotation.
        annot.map_or(Bind::Unknown, |ty| self.of_type(ty))
    }

    /// Resolves and (with `emit`) records the calls of the chain whose
    /// base ident sits at `base`. Returns the final result and the index
    /// one past the chain.
    fn resolve_chain(&mut self, base: usize, emit: bool) -> (Bind, usize) {
        let toks = self.toks;
        let name = toks[base].ident().unwrap_or("");
        let head = cursor::head(self.file, base);
        let mut cur = base + 1;
        let mut res = if name == "self" {
            self.impl_key.clone().map_or(Bind::Unknown, Bind::Struct)
        } else if let Some(b) = self.locals.get(name) {
            b.clone()
        } else if head.path {
            // Path base: `Ty::m(..)`, `Self::m(..)`, or `module::f(..)`.
            return self.resolve_path(base, &head, emit);
        } else if let Some(open) = head.call {
            // Free call `f(..)`.
            if emit && name != "drop" {
                let targets = self.sym.free.get(name).cloned().unwrap_or_default();
                if !targets.is_empty() {
                    self.calls.push(Call { targets, tok: base });
                }
            }
            cur = self.file.skip_balanced(open);
            Bind::Unknown
        } else if let Some(st) = self.sym.resolve_struct(name, &self.krate) {
            if toks.get(cur).is_some_and(|t| t.is_punct('{')) && !self.in_pattern_position(base) {
                return (Bind::Struct(st), cur);
            }
            Bind::Struct(st)
        } else {
            Bind::Unknown
        };

        // Fold the `.field` / `.m(..)` / `[..]` / `?` segments.
        while let Some((seg, next)) = cursor::postfix(self.file, cur, toks.len()) {
            match seg {
                Seg::Try | Seg::Index(_) => {}
                Seg::Cast(_) => break,
                Seg::Method(seg_idx, _) => res = self.method(res, seg_idx, emit),
                Seg::Field(seg_idx) => res = self.field(&res, toks[seg_idx].ident()),
            }
            cur = next;
        }
        (res, cur)
    }

    /// One `.m(..)` segment over `res`: a lock's guard, or a method call
    /// resolved through the receiver's struct.
    fn method(&mut self, res: Bind, seg_idx: usize, emit: bool) -> Bind {
        if is_lock_call(self.toks, seg_idx) {
            return match res {
                Bind::Lock(Some(st)) => Bind::Guard(st),
                _ => Bind::Unknown,
            };
        }
        match (self.toks[seg_idx].ident().unwrap_or(""), res) {
            ("unwrap" | "expect" | "unwrap_or_else", guard @ Bind::Guard(_)) => guard,
            ("unwrap" | "expect" | "unwrap_or_else", _) => Bind::Unknown,
            ("clone", res) => res,
            (m, Bind::Struct(st) | Bind::Guard(st)) => {
                if emit {
                    if let Some(targets) = self.sym.methods.get(&format!("{st}::{m}")) {
                        self.calls.push(Call {
                            targets: targets.clone(),
                            tok: seg_idx,
                        });
                    }
                }
                Bind::Unknown
            }
            _ => Bind::Unknown,
        }
    }

    /// The `.field` segment `seg` (`None` for a tuple index) of a struct
    /// or of a guard's struct.
    fn field(&self, res: &Bind, seg: Option<&str>) -> Bind {
        let (Bind::Struct(st) | Bind::Guard(st)) = res else {
            return Bind::Unknown;
        };
        match seg.and_then(|seg| self.sym.field(st, seg)) {
            Some(fd) => self.of_type(&fd.ty),
            None => Bind::Unknown,
        }
    }

    /// `Ty::m(..)` / `Self::m(..)` / `module::f(..)` bases.
    fn resolve_path(&mut self, base: usize, head: &cursor::Head, emit: bool) -> (Bind, usize) {
        let toks = self.toks;
        let first = toks[base].ident().unwrap_or("");
        let last = toks[head.last].ident().unwrap_or("");
        // A generic path (`f::<T>(..)`, `Vec::<T>::new()`) stays unresolved.
        let Some(open) = head.call.filter(|_| !head.generic) else {
            return (Bind::Unknown, head.next);
        };
        let close = self.file.skip_balanced(open);
        let head_struct = if first == "Self" {
            self.impl_key.clone()
        } else {
            self.sym.resolve_struct(first, &self.krate)
        };
        let mut ret = Bind::Unknown;
        let targets: Vec<usize> = match &head_struct {
            Some(st) if head.segs == 2 => {
                let t = self
                    .sym
                    .methods
                    .get(&format!("{st}::{last}"))
                    .cloned()
                    .unwrap_or_default();
                if !t.is_empty() {
                    ret = Bind::Struct(st.clone());
                }
                t
            }
            Some(_) => Vec::new(),
            // Type-like heads we don't know stay unresolved (std types);
            // lowercase module paths fall back to free functions by name.
            None if first.chars().next().is_some_and(char::is_lowercase) => {
                self.sym.free.get(last).cloned().unwrap_or_default()
            }
            None => Vec::new(),
        };
        if emit && !targets.is_empty() {
            self.calls.push(Call { targets, tok: base });
        }
        // Constructor returns the type only if some target is a ctor; the
        // common `Ty::new(..)` case. Keep the Struct result regardless —
        // mis-typing a non-Self return only makes later lookups miss.
        (ret, close)
    }

    /// Whether the known-struct ident at `base` sits in pattern position
    /// (`match` arm / `if let` pattern), where `Ty { .. }` destructures
    /// instead of constructing.
    fn in_pattern_position(&self, base: usize) -> bool {
        let mut j = base;
        while j > 0 {
            j -= 1;
            match &self.toks[j].kind {
                TokKind::Punct('|') => continue,
                TokKind::Ident(s) if s == "let" => return true,
                TokKind::Punct('>') if j > 0 && self.toks[j - 1].is_punct('=') => return true,
                _ => return false,
            }
        }
        false
    }
}

/// Whether the ident at `m` is a zero-argument `.lock()` / `.read()` /
/// `.write()` call.
fn is_lock_call(toks: &[Tok], m: usize) -> bool {
    matches!(toks[m].ident(), Some("lock" | "read" | "write"))
        && toks[m - 1].is_punct('.')
        && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(m + 2).is_some_and(|t| t.is_punct(')'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_all(files: &[SourceFile]) -> Workspace {
        let hirs: Vec<FileHir> = files.iter().map(hir::build).collect();
        build(files, &hirs)
    }

    fn ws_of(src: &str) -> Workspace {
        build_all(&[SourceFile::parse("crates/demo/src/lib.rs", src)])
    }

    fn fn_by_name<'a>(ws: &'a Workspace, name: &str) -> &'a FnInfo {
        ws.fns.iter().find(|f| f.name == name).unwrap()
    }

    /// The names of the functions `name`'s calls resolve to, in order.
    fn callees(ws: &Workspace, name: &str) -> Vec<String> {
        fn_by_name(ws, name)
            .calls
            .iter()
            .flat_map(|c| c.targets.iter().map(|&t| ws.fns[t].name.clone()))
            .collect()
    }

    #[test]
    fn field_locks_resolve_through_self_and_params() {
        // A guard over a known struct resolves that struct's fields and
        // methods, whether the lock is reached through `self` or a
        // typed parameter.
        let src = r#"
struct Queue { items: Vec<u32> }
impl Queue { fn push(&mut self, v: u32) {} }
struct State { queue: Mutex<Queue>, inner: Arc<RwLock<Inner>> }
struct Inner { queue: Queue }
impl State {
    fn via_self(&self) { self.queue.lock().unwrap().push(1); }
}
fn via_param(s: &State) {
    let mut g = s.inner.write().unwrap();
    g.queue.push(2);
}
"#;
        let ws = ws_of(src);
        assert_eq!(callees(&ws, "via_self"), ["push"]);
        assert_eq!(callees(&ws, "via_param"), ["push"]);
    }

    #[test]
    fn guard_acquired_inside_wrapper_call_lives_to_block_end() {
        // The `lock_recover(x.lock(), ..)` idiom: the acquisition sits
        // inside an enclosing call's argument list, but the guard binds
        // to the `let` for the rest of the block.
        let src = r#"
struct Inner { n: u64 }
impl Inner { fn touch(&self) {} }
struct S { m: Mutex<Inner> }
impl S {
    fn locked(&self) {
        let mut g = recover(self.m.lock(), 0);
        if g.n > 0 {
            g.touch();
        }
        g.touch();
    }
}
"#;
        let ws = ws_of(src);
        assert_eq!(callees(&ws, "locked"), ["touch", "touch"]);
    }

    #[test]
    fn calls_resolve_methods_and_free_fns() {
        let src = r#"
struct S { m: Mutex<u32> }
impl S {
    fn outer(&self) { self.inner(); helper(); S::make(); }
    fn inner(&self) { let g = self.m.lock().unwrap(); }
    fn make() -> S { S { m: Mutex::new(0) } }
}
fn helper() {}
"#;
        let ws = ws_of(src);
        assert_eq!(callees(&ws, "outer"), ["inner", "helper", "make"]);
        assert!(callees(&ws, "inner").is_empty());
    }

    #[test]
    fn tuple_let_pairs_clones_elementwise() {
        let src = r#"
struct Done;
impl Done { fn finish(&self) {} }
struct Busy;
impl Busy { fn mark(&self) {} }
struct E { done: Arc<Done>, busy: Busy }
fn spawn(e: &E) {
    let (d, b) = (Arc::clone(&e.done), e.busy.clone());
    d.finish();
    b.mark();
}
"#;
        let ws = ws_of(src);
        assert_eq!(callees(&ws, "spawn"), ["finish", "mark"]);
    }
}
