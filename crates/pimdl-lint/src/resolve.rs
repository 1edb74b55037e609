//! Resolution layer: turns the per-file token streams + HIR into a
//! workspace-level model the concurrency passes (L3/L4) and the taint
//! engine (L7/L8) consume.
//!
//! * **Symbol table** — structs keyed `crate::Name`, their fields with
//!   parsed guard types, and a method table `crate::Ty::m -> fn`.
//! * **Lock/atomic identities** — a union-find over identity keys:
//!   `field:crate::Ty::f` for struct fields, `local:file#i::name` for
//!   per-function locals (so two locals named `guard` never merge), and
//!   `aname:crate::name` for atomics that only ever appear as `&Atomic*`
//!   parameters. `Arc::clone(&x)` / `.clone()` aliases and struct-literal
//!   field inits (`SimHandle { state: self.state.clone() }`) union their
//!   operands, so a lock created in `new()` and cloned into a twin struct
//!   keeps one identity.
//! * **Per-function events** — in source order: lock acquisitions with
//!   guard scopes, resolved calls, atomic operations with their
//!   `Ordering`, and `fence(..)` calls.
//!
//! The statement syntax (`let` heads, assignments, chain heads and
//! segments) comes from [`crate::cursor`], shared with the taint walker;
//! what a binding or a chain means is decided here. Known approximations
//! are documented in DESIGN.md §10: closure parameters are untyped
//! (chains through them do not resolve), destructuring `let` patterns do
//! not bind, generic calls (`f::<T>(..)`) stay unresolved, and free-call
//! fallback resolution is by name over free functions only.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::cursor::{self, Pat, Seg, KEYWORDS};
use crate::hir::{self, FieldDef, FileHir, SelfKind, Type};
use crate::lexer::{Tok, TokKind};
use crate::model::SourceFile;
use crate::passes::{is_macro_call, path_sep, peek_arith_op, prev_segment, stmt_end};

/// What a resolved lock/atomic identity is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdKind {
    Mutex,
    RwLock,
    Atomic,
    Unknown,
}

/// Union-find over identity keys with display names and provenance.
#[derive(Debug, Default)]
pub struct Identities {
    by_key: HashMap<String, u32>,
    keys: Vec<String>,
    parent: Vec<u32>,
    display: Vec<String>,
    kind: Vec<IdKind>,
    site: Vec<(String, u32)>,
    /// Filled by `finalize`: fully-resolved root per id.
    canon_of: Vec<u32>,
}

impl Identities {
    pub fn intern(&mut self, key: &str, display: &str, kind: IdKind, file: &str, line: u32) -> u32 {
        if let Some(&id) = self.by_key.get(key) {
            if self.kind[id as usize] == IdKind::Unknown && kind != IdKind::Unknown {
                self.kind[id as usize] = kind;
            }
            return id;
        }
        let id = self.keys.len() as u32;
        self.by_key.insert(key.to_string(), id);
        self.keys.push(key.to_string());
        self.parent.push(id);
        self.display.push(display.to_string());
        self.kind.push(kind);
        self.site.push((file.to_string(), line));
        id
    }

    fn root(&mut self, mut a: u32) -> u32 {
        while self.parent[a as usize] != a {
            let gp = self.parent[self.parent[a as usize] as usize];
            self.parent[a as usize] = gp;
            a = gp;
        }
        a
    }

    pub fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.root(a), self.root(b));
        if ra == rb {
            return;
        }
        // Lower-priority root attaches to higher so finalize is stable.
        if id_priority(&self.keys[ra as usize]) <= id_priority(&self.keys[rb as usize]) {
            self.parent[rb as usize] = ra;
        } else {
            self.parent[ra as usize] = rb;
        }
    }

    /// Resolves every id to its representative and picks canonical
    /// displays (field-keyed ids win over locals).
    pub fn finalize(&mut self) {
        let n = self.keys.len();
        self.canon_of = (0..n as u32).map(|i| self.root(i)).collect();
        let mut best: HashMap<u32, u32> = HashMap::new();
        for i in 0..n as u32 {
            let r = self.canon_of[i as usize];
            let e = best.entry(r).or_insert(i);
            let (pe, pi) = (
                id_priority(&self.keys[*e as usize]),
                id_priority(&self.keys[i as usize]),
            );
            if (pi, &self.display[i as usize]) < (pe, &self.display[*e as usize]) {
                *e = i;
            }
        }
        for i in 0..n as u32 {
            let r = self.canon_of[i as usize];
            let b = best[&r];
            self.canon_of[i as usize] = b;
            if self.kind[b as usize] == IdKind::Unknown {
                self.kind[b as usize] = self.kind[i as usize];
            }
        }
    }

    /// Canonical representative of `id` (call after `finalize`).
    pub fn canon(&self, id: u32) -> u32 {
        self.canon_of.get(id as usize).copied().unwrap_or(id)
    }

    pub fn display(&self, id: u32) -> &str {
        &self.display[self.canon(id) as usize]
    }

    pub fn kind(&self, id: u32) -> IdKind {
        self.kind[self.canon(id) as usize]
    }

    /// Lock identities grouped by canonical representative:
    /// `(display, kind, members as key@file:line)`, deterministic order.
    pub fn lock_groups(&self) -> Vec<(String, IdKind, Vec<String>)> {
        let mut groups: BTreeMap<String, (IdKind, Vec<String>)> = BTreeMap::new();
        for i in 0..self.keys.len() as u32 {
            let c = self.canon(i);
            let kind = self.kind[c as usize];
            if !matches!(kind, IdKind::Mutex | IdKind::RwLock) {
                continue;
            }
            let (file, line) = &self.site[i as usize];
            groups
                .entry(self.display[c as usize].clone())
                .or_insert_with(|| (kind, Vec::new()))
                .1
                .push(format!("{}@{}:{}", self.keys[i as usize], file, line));
        }
        groups
            .into_iter()
            .map(|(d, (k, mut m))| {
                m.sort();
                (d, k, m)
            })
            .collect()
    }
}

/// Display/merge priority of an identity key (lower wins).
fn id_priority(key: &str) -> u8 {
    if key.starts_with("field:") {
        0
    } else if key.starts_with("aname:") {
        1
    } else if key.starts_with("fresh:") {
        2
    } else {
        3
    }
}

/// One event inside a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// `.lock()` / `.read()` / `.write()` producing a guard held until
    /// token `held_until` (exclusive).
    Acquire {
        lock: u32,
        line: u32,
        tok: usize,
        held_until: usize,
    },
    /// Call that resolves to workspace functions (indices into
    /// `Workspace::fns`).
    Call {
        targets: Vec<usize>,
        line: u32,
        tok: usize,
    },
    /// Atomic operation with an explicit `Ordering::X` argument.
    Atomic {
        id: u32,
        method: String,
        ordering: String,
        line: u32,
        tok: usize,
        in_test: bool,
    },
    /// `fence(Ordering::X)`.
    Fence {
        ordering: String,
        tok: usize,
        in_test: bool,
    },
}

impl Event {
    pub fn tok(&self) -> usize {
        match self {
            Event::Acquire { tok, .. }
            | Event::Call { tok, .. }
            | Event::Atomic { tok, .. }
            | Event::Fence { tok, .. } => *tok,
        }
    }
}

/// All events of one function plus the signature facts passes filter on.
#[derive(Debug)]
pub struct FnEvents {
    /// Unique key `file#index`.
    pub key: String,
    /// Human name `file::fn`.
    pub display: String,
    pub file: String,
    pub name: String,
    pub krate: String,
    pub self_kind: SelfKind,
    /// Index into the `files` slice `build` was called with.
    pub file_idx: usize,
    /// Index into that file's `fns()` span list.
    pub span_idx: usize,
    /// Typed value-parameter names, in declaration order (`self` excluded)
    /// — positionally parallel to call-site arguments, which is what the
    /// taint pass needs to push caller facts into callees.
    pub params: Vec<String>,
    pub events: Vec<Event>,
}

impl FnEvents {
    /// Raw (non-canonical) lock ids held when event `idx` happens.
    pub fn held_at(&self, idx: usize) -> Vec<u32> {
        let at = self.events[idx].tok();
        self.events[..idx]
            .iter()
            .filter_map(|e| match e {
                Event::Acquire {
                    lock, held_until, ..
                } if *held_until > at => Some(*lock),
                _ => None,
            })
            .collect()
    }
}

/// One struct definition with its defining file.
struct StructInfo {
    file: String,
    fields: Vec<FieldDef>,
}

/// The resolved workspace model.
#[derive(Debug, Default)]
pub struct Workspace {
    pub fns: Vec<FnEvents>,
    pub ids: Identities,
    /// Integer `const NAME: TY = ..;` values resolved across the
    /// workspace (bare name -> value). Simple arithmetic and references
    /// to other consts are folded; a name defined twice with different
    /// values is dropped as ambiguous. Feeds the interval domain in
    /// `passes::range` — a guard against `MAX_X` can only narrow a value
    /// numerically if `MAX_X` resolves here.
    pub consts: HashMap<String, u128>,
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
    /// `crate::Name -> struct`.
    structs: BTreeMap<String, StructInfo>,
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
        self.structs
            .get(st)?
            .fields
            .iter()
            .find(|f| f.name == field)
    }
}

pub fn build(files: &[SourceFile]) -> Workspace {
    let hirs: Vec<FileHir> = files.iter().map(hir::build).collect();
    let mut sym = Symbols::default();

    // Pass 1: symbol tables + the global fn list (indices are stable).
    let mut fn_meta: Vec<(usize, usize)> = Vec::new(); // (file idx, fn idx)
    for (fi, (file, h)) in files.iter().zip(&hirs).enumerate() {
        let path = file.path.display().to_string().replace('\\', "/");
        let krate = crate_of(&path);
        for s in &h.structs {
            let key = format!("{krate}::{}", s.name);
            sym.crates_of
                .entry(s.name.clone())
                .or_default()
                .push(krate.clone());
            sym.structs.entry(key).or_insert_with(|| StructInfo {
                file: path.clone(),
                fields: s.fields.clone(),
            });
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

    // Pass 2: walk every function body, emitting events.
    let mut ids = Identities::default();
    let mut fns: Vec<FnEvents> = Vec::new();
    for &(fi, si) in &fn_meta {
        let file = &files[fi];
        let h = &hirs[fi];
        let path = file.path.display().to_string().replace('\\', "/");
        let span = &file.fns()[si];
        let sig = &h.sigs[si];
        let krate = crate_of(&path);
        let key = format!("{path}#{si}");
        let impl_key = sig.impl_ty.as_ref().map(|ty| format!("{krate}::{ty}"));
        let mut w = Walker {
            file,
            toks: &file.tokens,
            sym: &sym,
            ids: &mut ids,
            fnkey: key.clone(),
            krate: krate.clone(),
            impl_key,
            locals: HashMap::new(),
            pending: Vec::new(),
            guard_acq: HashMap::new(),
            events: Vec::new(),
            my_fn: si,
        };
        for (pname, pty) in &sig.params {
            let b = w.of_type(pname, pty);
            if !matches!(b, Bind::Unknown) {
                w.locals.insert(pname.clone(), b);
            }
        }
        if span.body_start < span.end {
            w.walk(span.body_start + 1, span.end.saturating_sub(1));
        }
        fns.push(FnEvents {
            key,
            display: format!("{path}::{}", span.name),
            file: path,
            name: span.name.clone(),
            krate,
            self_kind: sig.self_kind,
            file_idx: fi,
            span_idx: si,
            params: sig.params.iter().map(|(n, _)| n.clone()).collect(),
            events: w.events,
        });
    }

    ids.finalize();
    Workspace {
        fns,
        ids,
        consts: build_consts(files),
    }
}

/// Scans every `const NAME: TY = EXPR;` item (top-level or associated)
/// and folds integer initializers — literals, `+ - * / % << >> | & ^`,
/// parens, `as` casts (wrap-exact), `uN::MAX`, and references to other
/// consts by bare name. Iterates a few rounds so const-to-const chains
/// (`const B: usize = A;`) resolve; a name declared twice with different
/// values is dropped as ambiguous rather than guessed.
fn build_consts(files: &[SourceFile]) -> HashMap<String, u128> {
    // (name, file idx, init token range).
    let mut decls: Vec<(String, usize, usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].ident() != Some("const") || file.in_attr(i) {
                continue;
            }
            // `const NAME: TY = EXPR;` has the shape of a `let` head;
            // `const fn`, `const { .. }` and `*const T` do not.
            let l = cursor::let_head(file, i, toks.len());
            if !toks.get(l.pat_end).is_some_and(|t| t.is_punct(':')) || !l.has_init(toks) {
                continue;
            }
            let Pat::Name(name) = l.pat else { continue };
            let end = stmt_end(toks, l.eq + 1, toks.len(), false);
            if l.eq + 1 < end {
                decls.push((name, fi, l.eq + 1, end));
            }
        }
    }

    let mut env: HashMap<String, u128> = HashMap::new();
    let mut poisoned: HashSet<String> = HashSet::new();
    for _ in 0..4 {
        let mut changed = false;
        for (name, fi, es, ee) in &decls {
            if poisoned.contains(name) {
                continue;
            }
            let Some(v) = const_expr(&files[*fi].tokens, *es, *ee, &env) else {
                continue;
            };
            match env.get(name) {
                None => {
                    env.insert(name.clone(), v);
                    changed = true;
                }
                Some(&old) if old != v => {
                    env.remove(name);
                    poisoned.insert(name.clone());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    env
}

/// Evaluates a const initializer over `[s, e)`; `None` on anything the
/// folder does not model (calls, floats, negatives, unknown names).
fn const_expr(toks: &[Tok], s: usize, e: usize, env: &HashMap<String, u128>) -> Option<u128> {
    let mut p = ConstParser {
        toks,
        pos: s,
        end: e,
        env,
    };
    let v = p.expr(0)?;
    (p.pos >= e).then_some(v)
}

struct ConstParser<'a> {
    toks: &'a [Tok],
    pos: usize,
    end: usize,
    env: &'a HashMap<String, u128>,
}

impl ConstParser<'_> {
    /// Precedence climbing; `min_bp` is the lowest binding power this
    /// level may consume.
    fn expr(&mut self, min_bp: u8) -> Option<u128> {
        let mut lhs = self.atom()?;
        loop {
            let Some((bp, op, width)) = peek_arith_op(self.toks, self.pos, self.end) else {
                return Some(lhs);
            };
            if bp < min_bp {
                return Some(lhs);
            }
            self.pos += width;
            let rhs = self.expr(bp + 1)?;
            lhs = match op {
                '+' => lhs.checked_add(rhs)?,
                '-' => lhs.checked_sub(rhs)?,
                '*' => lhs.checked_mul(rhs)?,
                '/' => lhs.checked_div(rhs)?,
                '%' => lhs.checked_rem(rhs)?,
                '«' => lhs.checked_shl(u32::try_from(rhs).ok()?)?,
                '»' => lhs.checked_shr(u32::try_from(rhs).ok()?)?,
                '&' => lhs & rhs,
                '^' => lhs ^ rhs,
                '|' => lhs | rhs,
                _ => return None,
            };
        }
    }

    fn atom(&mut self) -> Option<u128> {
        if self.pos >= self.end {
            return None;
        }
        let mut v = match &self.toks[self.pos].kind {
            TokKind::Literal => {
                let v = self.toks[self.pos].num?;
                self.pos += 1;
                v
            }
            TokKind::Punct('(') => {
                self.pos += 1;
                let v = self.expr(0)?;
                if !self.toks.get(self.pos).is_some_and(|t| t.is_punct(')')) {
                    return None;
                }
                self.pos += 1;
                v
            }
            TokKind::Ident(name) => {
                // `uN::MAX` / `Ty::CONST` paths resolve by last segment;
                // a bare name looks up the const table.
                let mut head = name.clone();
                let mut last = name.clone();
                self.pos += 1;
                while self.pos + 1 < self.end
                    && self.toks[self.pos].is_punct(':')
                    && self.toks[self.pos + 1].is_punct(':')
                {
                    let seg = self.toks.get(self.pos + 2).and_then(|t| t.ident())?;
                    head = last;
                    last = seg.to_string();
                    self.pos += 3;
                }
                match (type_bits(&head), last.as_str()) {
                    (Some(bits), "MAX") => mask_bits(bits),
                    (Some(_), "MIN") => 0,
                    _ => *self.env.get(&last)?,
                }
            }
            _ => return None,
        };
        // `as uN` casts wrap exactly.
        while self
            .pos
            .checked_add(1)
            .filter(|&p| p < self.end)
            .is_some_and(|_| self.toks[self.pos].ident() == Some("as"))
        {
            let ty = self.toks.get(self.pos + 1).and_then(|t| t.ident())?;
            let bits = type_bits(ty)?;
            if bits < 128 {
                v &= mask_bits(bits);
            }
            self.pos += 2;
        }
        Some(v)
    }
}

/// Bit width of an unsigned integer type name (`usize` counts as 64 —
/// the lint targets 64-bit hosts).
fn type_bits(name: &str) -> Option<u32> {
    match name {
        "u8" => Some(8),
        "u16" => Some(16),
        "u32" => Some(32),
        "u64" | "usize" => Some(64),
        "u128" => Some(128),
        _ => None,
    }
}

fn mask_bits(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

/// What a local name is bound to, and what a chain folds to.
#[derive(Debug, Clone)]
enum Bind {
    Lock { id: u32, inner: Option<String> },
    Guard { lock: u32, inner: Option<String> },
    Atomic(u32),
    Struct(String),
    Unknown,
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
];

struct Walker<'a> {
    file: &'a SourceFile,
    toks: &'a [Tok],
    sym: &'a Symbols,
    ids: &'a mut Identities,
    fnkey: String,
    krate: String,
    /// Resolved `crate::Ty` of the enclosing impl, if any.
    impl_key: Option<String>,
    locals: HashMap<String, Bind>,
    /// Bindings applied once the cursor passes `apply_at`:
    /// `(apply_at, name, binding, init_start, init_end)`.
    pending: Vec<(usize, String, Bind, usize, usize)>,
    /// Guard-binding name -> index of its Acquire event (for `drop(g)`).
    guard_acq: HashMap<String, usize>,
    events: Vec<Event>,
    /// Index of this fn in `file.fns()`; nested fns' tokens are not its.
    my_fn: usize,
}

impl<'a> Walker<'a> {
    /// What a value of type `ty` named `name` is: an atomic, a lock, a
    /// known struct, or unknown.
    fn of_type(&mut self, name: &str, ty: &Type) -> Bind {
        if ty.is_atomic() {
            Bind::Atomic(self.intern_aname(name))
        } else if let Some(kind) = ty.guard_kind() {
            let id = self.intern_local(name, lock_kind(kind));
            Bind::Lock {
                id,
                inner: self.inner_struct_of(ty),
            }
        } else {
            let st = self.sym.resolve_struct(&ty.innermost().name, &self.krate);
            st.map_or(Bind::Unknown, Bind::Struct)
        }
    }

    /// The struct key guarded by a lock type, if resolvable.
    fn inner_struct_of(&self, ty: &Type) -> Option<String> {
        let inner = ty.guarded_inner()?;
        self.sym
            .resolve_struct(&inner.innermost().name, &self.krate)
    }

    fn intern_local(&mut self, name: &str, kind: IdKind) -> u32 {
        let key = format!("local:{}::{name}", self.fnkey);
        let display = format!("{name} (local)");
        let (f, l) = self.site_here();
        self.ids.intern(&key, &display, kind, &f, l)
    }

    fn intern_aname(&mut self, name: &str) -> u32 {
        let key = format!("aname:{}::{name}", self.krate);
        let (f, l) = self.site_here();
        self.ids.intern(&key, name, IdKind::Atomic, &f, l)
    }

    fn intern_field(&mut self, st: &str, field: &FieldDef) -> u32 {
        let key = format!("field:{st}::{}", field.name);
        let ty_name = st.rsplit("::").next().unwrap_or(st);
        let display = format!("{ty_name}::{}", field.name);
        let kind = match field.ty.guard_kind() {
            Some(k) => lock_kind(k),
            None if field.ty.is_atomic() => IdKind::Atomic,
            None => IdKind::Unknown,
        };
        let info = self.sym.structs.get(st);
        let (f, l) = info
            .map(|i| (i.file.clone(), field.line))
            .unwrap_or_else(|| self.site_here());
        self.ids.intern(&key, &display, kind, &f, l)
    }

    fn site_here(&self) -> (String, u32) {
        (self.file.path.display().to_string().replace('\\', "/"), 0)
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
            // `drop(g)` ends a guard's scope early.
            if name == "drop"
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                if let Some(g) = toks.get(i + 2).and_then(|t| t.ident()) {
                    if matches!(self.locals.get(g), Some(Bind::Guard { .. })) {
                        if let Some(&ev) = self.guard_acq.get(g) {
                            if let Event::Acquire { held_until, .. } = &mut self.events[ev] {
                                *held_until = i;
                            }
                        }
                        self.locals.remove(g);
                        i += 4;
                        continue;
                    }
                }
                i += 1;
                continue;
            }
            // Assignment rebinding at a statement head: `g = CHAIN;`.
            let at_stmt_head = matches!(prev, None | Some(TokKind::Punct(';' | '{' | '}')));
            if let (true, Some((None, init_start))) = (at_stmt_head, cursor::assignment(toks, i)) {
                let init_end = stmt_end(toks, init_start, end, false);
                let b = self.classify_init(name, init_start, init_end, None);
                self.pending
                    .push((init_end, name.to_string(), b, init_start, init_end));
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
            let (_, name, b, init_start, init_end) = self.pending.remove(pos);
            if let Bind::Guard { .. } = &b {
                // Associate the binding with the Acquire its init emitted.
                let acq = self
                    .events
                    .iter()
                    .rposition(|e| matches!(e, Event::Acquire { tok, .. } if *tok >= init_start && *tok < init_end));
                if let Some(idx) = acq {
                    self.guard_acq.insert(name.clone(), idx);
                }
            }
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
                let b = self.classify_init(&name, l.eq + 1, init_end, annot.as_ref());
                self.pending.push((init_end, name, b, l.eq + 1, init_end));
            }
            Pat::Tuple(Some(names))
                if l.eq == l.pat_end && toks.get(l.eq + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                let iclose = self.file.skip_balanced(l.eq + 1) - 1;
                let exprs = cursor::elements(toks, l.eq + 2, iclose);
                if exprs.len() == names.len() {
                    for (n, (s, e)) in names.into_iter().zip(exprs) {
                        let b = self.classify_init(&n, s, e, None);
                        self.pending.push((iclose + 1, n, b, s, e));
                    }
                }
            }
            _ => {}
        }
    }

    /// Classifies what `[start, end)` evaluates to for binding purposes.
    fn classify_init(
        &mut self,
        name: &str,
        start: usize,
        end: usize,
        annot: Option<&Type>,
    ) -> Bind {
        let toks = self.toks;
        // 1. A zero-arg `.lock()/.read()/.write()` anywhere in the init
        //    makes this a guard binding (covers `lock_recover(x.lock(), s)`).
        for m in start..end {
            if matches!(toks[m].ident(), Some("lock" | "read" | "write"))
                && m > start
                && toks[m - 1].is_punct('.')
                && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(m + 2).is_some_and(|t| t.is_punct(')'))
            {
                let mut base = Some(m);
                while let Some(b) = base.filter(|&b| toks[b - 1].is_punct('.')) {
                    base = prev_segment(toks, b);
                }
                if let Some(base) = base {
                    if let Bind::Guard { lock, inner } = self.resolve_chain(base, false).0 {
                        return Bind::Guard { lock, inner };
                    }
                }
                // Unresolvable receiver: per-function fallback identity.
                let recv = prev_segment(toks, m).and_then(|k| toks[k].ident());
                let id = self.intern_local(recv.unwrap_or(name), IdKind::Unknown);
                return Bind::Guard {
                    lock: id,
                    inner: None,
                };
            }
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
        // 2. `Arc::clone(&x)` / `Rc::clone(&x)` aliases x.
        if matches!(toks[s].ident(), Some("Arc" | "Rc"))
            && path_sep(toks, s + 1)
            && toks.get(s + 3).is_some_and(|t| t.ident() == Some("clone"))
            && toks.get(s + 4).is_some_and(|t| t.is_punct('('))
        {
            let close = self.file.skip_balanced(s + 4) - 1;
            return self.classify_init(name, s + 5, close, None);
        }
        // 3. Trailing `.clone()` aliases the prefix.
        if end >= 4
            && toks[end - 1].is_punct(')')
            && toks[end - 2].is_punct('(')
            && toks[end - 3].ident() == Some("clone")
            && toks[end - 4].is_punct('.')
        {
            return self.classify_init(name, s, end - 4, None);
        }
        // 4. Fresh lock / atomic constructors.
        for m in s..end.saturating_sub(3) {
            let Some(id) = toks[m].ident() else { continue };
            if !(path_sep(toks, m + 1)
                && toks.get(m + 3).is_some_and(|t| t.ident() == Some("new"))
                && toks.get(m + 4).is_some_and(|t| t.is_punct('(')))
            {
                continue;
            }
            match id {
                "Mutex" | "RwLock" => {
                    let key = format!("fresh:{}:{m}", self.fnkey);
                    let (f, _) = self.site_here();
                    let display = format!("{name} (local {})", id.to_lowercase());
                    let fid = self
                        .ids
                        .intern(&key, &display, lock_kind(id), &f, toks[m].line);
                    return Bind::Lock {
                        id: fid,
                        inner: None,
                    };
                }
                a if a.starts_with("Atomic") => return Bind::Atomic(self.intern_aname(name)),
                _ => {}
            }
        }
        // 5. Known-struct construction: `Ty { .. }` / `Ty::m(..)` / `Self ..`.
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
        // 6. Plain chain: whatever it resolves to.
        if toks[s].ident().is_some() {
            let (res, chain_end) = self.resolve_chain(s, false);
            let whole = chain_end >= end || toks.get(chain_end).is_some_and(|t| t.is_punct('?'));
            if whole && !matches!(res, Bind::Unknown) {
                return res;
            }
        }
        // 7. Fall back to the annotation.
        match annot {
            Some(ty) => self.of_type(name, ty),
            None => Bind::Unknown,
        }
    }

    /// Resolves and (with `emit`) records the events of the chain whose
    /// base ident sits at `base`. Returns the final result and the index
    /// one past the chain.
    fn resolve_chain(&mut self, base: usize, emit: bool) -> (Bind, usize) {
        let toks = self.toks;
        let name = toks[base].ident().unwrap_or("");
        let head = cursor::head(self.file, base);
        let mut last_name = name.to_string();
        let mut cur = base + 1;
        let mut res = if name == "self" {
            self.impl_key.clone().map_or(Bind::Unknown, Bind::Struct)
        } else if let Some(b) = self.locals.get(name) {
            b.clone()
        } else if name == "fence" && head.call.is_some() {
            let close = self.file.skip_balanced(cur);
            if emit {
                self.emit_fence(base, cur, close - 1);
            }
            return (Bind::Unknown, close);
        } else if head.path {
            // Path base: `Ty::m(..)`, `Self::m(..)`, or `module::f(..)`.
            return self.resolve_path(base, &head, emit);
        } else if let Some(open) = head.call {
            // Free call `f(..)`.
            if emit && name != "drop" {
                let targets = self.sym.free.get(name).cloned().unwrap_or_default();
                if !targets.is_empty() {
                    self.events.push(Event::Call {
                        targets,
                        line: toks[base].line,
                        tok: base,
                    });
                }
            }
            cur = self.file.skip_balanced(open);
            Bind::Unknown
        } else if let Some(st) = self.sym.resolve_struct(name, &self.krate) {
            if toks.get(cur).is_some_and(|t| t.is_punct('{')) && !self.in_pattern_position(base) {
                if emit {
                    self.scan_struct_literal(&st, cur);
                }
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
                Seg::Method(seg_idx, open) => {
                    res = self.method(res, &last_name, seg_idx, open, next, emit);
                }
                Seg::Field(seg_idx) => match toks[seg_idx].ident() {
                    Some(seg) => {
                        res = self.field(&res, seg);
                        last_name = seg.to_string();
                    }
                    // Tuple-field access `x.0`.
                    None => res = Bind::Unknown,
                },
            }
            cur = next;
        }
        (res, cur)
    }

    /// One `.m(..)` segment over `res` (`recv` names the receiver): guard
    /// acquisitions, atomic operations, and resolved method calls.
    fn method(
        &mut self,
        res: Bind,
        recv: &str,
        seg_idx: usize,
        open: usize,
        close: usize,
        emit: bool,
    ) -> Bind {
        let toks = self.toks;
        let m = toks[seg_idx].ident().unwrap_or("");
        let zero_arg = toks.get(open + 1).is_some_and(|t| t.is_punct(')'));
        match m {
            "lock" | "read" | "write" if zero_arg => {
                let (lock, inner) = match res {
                    Bind::Lock { id, inner } => (id, inner),
                    _ => (self.intern_local(recv, IdKind::Unknown), None),
                };
                if emit {
                    let held_until = guard_scope_end(self.file, seg_idx);
                    self.events.push(Event::Acquire {
                        lock,
                        line: toks[seg_idx].line,
                        tok: seg_idx,
                        held_until,
                    });
                }
                Bind::Guard { lock, inner }
            }
            "unwrap" | "expect" | "unwrap_or_else" if matches!(res, Bind::Guard { .. }) => res,
            "unwrap" | "expect" | "unwrap_or_else" => Bind::Unknown,
            "clone" => res,
            m if ATOMIC_METHODS.contains(&m) => {
                let id = match res {
                    Bind::Atomic(id) => Some(id),
                    Bind::Unknown | Bind::Struct(_) => {
                        let has_ord = (open..close).any(|x| toks[x].ident() == Some("Ordering"));
                        has_ord.then(|| self.intern_aname(recv))
                    }
                    _ => None,
                };
                if let (Some(id), true) = (id, emit) {
                    self.emit_atomic(id, m, seg_idx, open, close - 1);
                }
                Bind::Unknown
            }
            m => {
                if let (Bind::Struct(st), true) = (&res, emit) {
                    if let Some(targets) = self.sym.methods.get(&format!("{st}::{m}")) {
                        self.events.push(Event::Call {
                            targets: targets.clone(),
                            line: toks[seg_idx].line,
                            tok: seg_idx,
                        });
                    }
                }
                Bind::Unknown
            }
        }
    }

    /// The `.field` segment `seg` of a struct (or of a guard's struct).
    fn field(&mut self, res: &Bind, seg: &str) -> Bind {
        let st = match res {
            Bind::Struct(st)
            | Bind::Guard {
                inner: Some(st), ..
            } => st,
            _ => return Bind::Unknown,
        };
        let Some(fd) = self.sym.field(st, seg).cloned() else {
            return Bind::Unknown;
        };
        if fd.ty.guard_kind().is_some() {
            Bind::Lock {
                id: self.intern_field(st, &fd),
                inner: self.inner_struct_of(&fd.ty),
            }
        } else if fd.ty.is_atomic() {
            Bind::Atomic(self.intern_field(st, &fd))
        } else if fd.ty.is_sync_primitive() {
            Bind::Unknown
        } else {
            let inner = self
                .sym
                .resolve_struct(&fd.ty.innermost().name, &self.krate);
            inner.map_or(Bind::Unknown, Bind::Struct)
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
        if last == "fence" {
            if emit {
                self.emit_fence(head.last, open, close - 1);
            }
            return (Bind::Unknown, close);
        }
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
            self.events.push(Event::Call {
                targets,
                line: toks[base].line,
                tok: base,
            });
        }
        // Constructor returns the type only if some target is a ctor; the
        // common `Ty::new(..)` case. Keep the Struct result regardless —
        // mis-typing a non-Self return only makes later lookups miss.
        (ret, close)
    }

    fn emit_fence(&mut self, at: usize, open: usize, close: usize) {
        let in_test = self.file.in_test(at);
        for ord in orderings_in(self.toks, open, close) {
            self.events.push(Event::Fence {
                ordering: ord,
                tok: at,
                in_test,
            });
        }
    }

    fn emit_atomic(&mut self, id: u32, method: &str, at: usize, open: usize, close: usize) {
        let in_test = self.file.in_test(at);
        for ord in orderings_in(self.toks, open, close) {
            self.events.push(Event::Atomic {
                id,
                method: method.to_string(),
                ordering: ord,
                line: self.toks[at].line,
                tok: at,
                in_test,
            });
        }
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

    /// Unions lock/atomic-typed field inits of a struct literal with the
    /// field identity: `SimHandle { state: self.state.clone() }` makes
    /// `SimHandle::state` and `SimPoller::state` one lock.
    fn scan_struct_literal(&mut self, st: &str, open: usize) {
        let toks = self.toks;
        let close = self.file.close_of(open);
        let mut i = open + 1;
        while i < close {
            let Some(name) = toks[i].ident() else {
                i += 1;
                continue;
            };
            // Only depth-1 field positions: previous token is `{` or `,`.
            let prev_ok = toks
                .get(i.wrapping_sub(1))
                .is_some_and(|t| t.is_punct('{') || t.is_punct(','));
            if !prev_ok {
                i += 1;
                continue;
            }
            let Some(fd) = self.sym.field(st, name).cloned() else {
                i += 1;
                continue;
            };
            let interesting = fd.ty.guard_kind().is_some() || fd.ty.is_atomic();
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':')) && !path_sep(toks, i + 1) {
                let expr_start = i + 2;
                let expr_end = cursor::element_end(toks, expr_start, close);
                if interesting {
                    let fid = self.intern_field(st, &fd);
                    if let Some(id) = self.value_id(expr_start, expr_end) {
                        self.ids.union(fid, id);
                    }
                }
                i = expr_end + 1;
            } else if interesting
                && toks
                    .get(i + 1)
                    .is_some_and(|t| t.is_punct(',') || t.is_punct('}'))
            {
                // Shorthand `field,` — union with the same-named local.
                let fid = self.intern_field(st, &fd);
                let id = match self.locals.get(name) {
                    Some(Bind::Lock { id, .. }) | Some(Bind::Atomic(id)) => Some(*id),
                    _ => None,
                };
                if let Some(id) = id {
                    self.ids.union(fid, id);
                }
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    /// The lock/atomic identity of a value expression, if it has one.
    fn value_id(&mut self, start: usize, end: usize) -> Option<u32> {
        match self.classify_init("<expr>", start, end, None) {
            Bind::Lock { id, .. } | Bind::Atomic(id) => Some(id),
            _ => None,
        }
    }
}

fn lock_kind(k: &str) -> IdKind {
    if k == "RwLock" {
        IdKind::RwLock
    } else {
        IdKind::Mutex
    }
}

/// Every `Ordering::X` argument between `open` and `close` (inclusive).
fn orderings_in(toks: &[Tok], open: usize, close: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = open;
    while i + 3 <= close {
        if toks[i].ident() == Some("Ordering") && path_sep(toks, i + 1) {
            if let Some(o) = toks.get(i + 3).and_then(|t| t.ident()) {
                out.push(o.to_string());
            }
            i += 4;
        } else {
            i += 1;
        }
    }
    out
}

/// Token index one past which the guard acquired at `idx` is dead:
/// `let`-bound, assigned, or condition-head acquisitions live to the end
/// of the enclosing block; bare statements die at their `;`.
fn guard_scope_end(file: &SourceFile, idx: usize) -> usize {
    let tokens = &file.tokens;
    let mut head = 0usize;
    let mut depth = 0i32;
    for j in (0..idx).rev() {
        match &tokens[j].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => depth += 1,
            // An unmatched opener means the acquisition sits inside an
            // enclosing call's argument list (`helper(x.lock(), ..)`);
            // the statement head is further back at that context's depth.
            TokKind::Punct('(') | TokKind::Punct('[') => depth = (depth - 1).max(0),
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') if depth == 0 => {
                head = j + 1;
                break;
            }
            _ => {}
        }
    }
    let block_scoped = match tokens.get(head).map(|t| &t.kind) {
        Some(TokKind::Ident(s))
            if matches!(s.as_str(), "let" | "if" | "while" | "for" | "match") =>
        {
            true
        }
        Some(TokKind::Ident(_))
            if tokens.get(head + 1).is_some_and(|t| t.is_punct('='))
                && !tokens.get(head + 2).is_some_and(|t| t.is_punct('=')) =>
        {
            true
        }
        _ => false,
    };
    if block_scoped {
        return file
            .enclosing_block(idx)
            .map_or(tokens.len(), |open| file.close_of(open));
    }
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(idx) {
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            // Leaving an enclosing argument list: back to statement depth.
            TokKind::Punct(')') | TokKind::Punct(']') => depth = (depth - 1).max(0),
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(src: &str) -> Workspace {
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        build(&[f])
    }

    fn fn_by_name<'a>(ws: &'a Workspace, name: &str) -> &'a FnEvents {
        ws.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn field_locks_resolve_through_self_and_params() {
        let src = r#"
struct State { queue: Mutex<Vec<u32>>, stats: Mutex<u64> }
impl State {
    fn via_self(&self) { let g = self.queue.lock().unwrap(); }
}
fn via_param(s: &State) { let g = s.queue.lock().unwrap(); }
"#;
        let ws = ws_of(src);
        let a = fn_by_name(&ws, "via_self");
        let b = fn_by_name(&ws, "via_param");
        let la = match a.events[0] {
            Event::Acquire { lock, .. } => lock,
            _ => panic!("expected acquire"),
        };
        let lb = match b.events[0] {
            Event::Acquire { lock, .. } => lock,
            _ => panic!("expected acquire"),
        };
        assert_eq!(ws.ids.canon(la), ws.ids.canon(lb));
        assert_eq!(ws.ids.display(la), "State::queue");
        assert_eq!(ws.ids.kind(la), IdKind::Mutex);
    }

    #[test]
    fn arc_clones_and_ctor_literals_merge_same_named_locals_stay_apart() {
        let src = r#"
struct Hub { m: Arc<Mutex<u32>> }
struct Twin { m: Arc<Mutex<u32>> }
impl Hub {
    fn twin(&self) -> Twin { Twin { m: Arc::clone(&self.m) } }
}
fn use_clone(h: &Hub) {
    let mm = Arc::clone(&h.m);
    let g = mm.lock().unwrap();
}
fn one() { let pair = Mutex::new(0u32); let g = pair.lock().unwrap(); }
fn two() { let pair = Mutex::new(0u32); let g = pair.lock().unwrap(); }
"#;
        let ws = ws_of(src);
        // Twin::m and Hub::m merged through the ctor literal.
        let groups = ws.ids.lock_groups();
        let merged = groups
            .iter()
            .find(|(_, _, members)| members.iter().any(|m| m.contains("Hub::m")))
            .expect("Hub::m group");
        assert!(
            merged.2.iter().any(|m| m.contains("Twin::m")),
            "ctor literal must union Twin::m with Hub::m: {groups:?}"
        );
        // use_clone's acquisition is the same lock as the field.
        let uc = fn_by_name(&ws, "use_clone");
        let l = match uc.events[0] {
            Event::Acquire { lock, .. } => lock,
            _ => panic!("expected acquire"),
        };
        assert_eq!(ws.ids.display(l), "Hub::m");
        // Same-named fresh locals in different fns stay distinct.
        let l1 = match fn_by_name(&ws, "one").events[0] {
            Event::Acquire { lock, .. } => lock,
            _ => panic!(),
        };
        let l2 = match fn_by_name(&ws, "two").events[0] {
            Event::Acquire { lock, .. } => lock,
            _ => panic!(),
        };
        assert_ne!(ws.ids.canon(l1), ws.ids.canon(l2));
    }

    /// Indices of the `Call` events of `f`, in source order.
    fn call_events(f: &FnEvents) -> Vec<usize> {
        (0..f.events.len())
            .filter(|&i| matches!(f.events[i], Event::Call { .. }))
            .collect()
    }

    #[test]
    fn guard_acquired_inside_wrapper_call_lives_to_block_end() {
        // The `lock_recover(x.lock(), ..)` idiom: the acquisition sits
        // inside an enclosing call's argument list, but the guard binds
        // to the `let` and must be held for the rest of the block.
        let src = r#"
struct S { m: Mutex<u64> }
impl S {
    fn touch(&self) {}
    fn locked(&self) {
        let mut g = recover(self.m.lock(), 0);
        if *g > 0 {
            self.touch();
        }
        self.touch();
    }
}
"#;
        let ws = ws_of(src);
        let f = fn_by_name(&ws, "locked");
        let calls = call_events(f);
        assert_eq!(calls.len(), 2, "{:?}", f.events);
        for &i in &calls {
            assert!(
                !f.held_at(i).is_empty(),
                "guard must span the whole block, lost at event {i}: {:?}",
                f.events
            );
        }
    }

    #[test]
    fn guard_scope_ends_at_drop() {
        let src = r#"
struct S { m: Mutex<u64> }
impl S {
    fn touch(&self) {}
    fn locked(&self) {
        let mut g = self.m.lock().unwrap();
        self.touch();
        drop(g);
        self.touch();
    }
}
"#;
        let ws = ws_of(src);
        let f = fn_by_name(&ws, "locked");
        let calls = call_events(f);
        assert_eq!(calls.len(), 2, "{:?}", f.events);
        assert!(!f.held_at(calls[0]).is_empty(), "guard held at first call");
        assert!(
            f.held_at(calls[1]).is_empty(),
            "drop(g) must end the guard before the second call: {:?}",
            f.events
        );
    }

    #[test]
    fn atomics_and_fences_emit_events() {
        let src = r#"
struct C { flag: AtomicBool }
impl C {
    fn publish(&self) {
        fence(Ordering::Release);
        self.flag.store(true, Ordering::Relaxed);
    }
}
fn read_param(ready: &AtomicBool) -> bool { ready.load(Ordering::Relaxed) }
"#;
        let ws = ws_of(src);
        let p = fn_by_name(&ws, "publish");
        assert!(matches!(
            &p.events[0],
            Event::Fence { ordering, .. } if ordering == "Release"
        ));
        assert!(matches!(
            &p.events[1],
            Event::Atomic { method, ordering, .. } if method == "store" && ordering == "Relaxed"
        ));
        let r = fn_by_name(&ws, "read_param");
        assert!(matches!(
            &r.events[0],
            Event::Atomic { method, .. } if method == "load"
        ));
    }

    #[test]
    fn calls_resolve_methods_and_free_fns() {
        let src = r#"
struct S { m: Mutex<u32> }
impl S {
    fn outer(&self) { self.inner(); helper(); }
    fn inner(&self) { let g = self.m.lock().unwrap(); }
}
fn helper() {}
"#;
        let ws = ws_of(src);
        let outer = fn_by_name(&ws, "outer");
        let calls: Vec<&Event> = outer
            .events
            .iter()
            .filter(|e| matches!(e, Event::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 2);
        if let Event::Call { targets, .. } = calls[0] {
            assert_eq!(ws.fns[targets[0]].name, "inner");
        }
        if let Event::Call { targets, .. } = calls[1] {
            assert_eq!(ws.fns[targets[0]].name, "helper");
        }
    }

    #[test]
    fn tuple_let_pairs_clones_elementwise() {
        let src = r#"
struct E { done: Arc<Mutex<u32>>, busy: Arc<Mutex<u32>> }
fn spawn(e: &E) {
    let (d, b) = (Arc::clone(&e.done), Arc::clone(&e.busy));
    let g = d.lock().unwrap();
    let h = b.lock().unwrap();
}
"#;
        let ws = ws_of(src);
        let f = fn_by_name(&ws, "spawn");
        let locks: Vec<u32> = f
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(locks.len(), 2);
        assert_eq!(ws.ids.display(locks[0]), "E::done");
        assert_eq!(ws.ids.display(locks[1]), "E::busy");
    }

    #[test]
    fn const_table_folds_integer_items() {
        let src = r#"
const HEADER_LEN: usize = 4 + 2;
const MAX_BODY: usize = 16 * 1024 * 1024;
const SHIFTED: u32 = 1 << 20;
const CHAIN: usize = MAX_BODY / 2;
const WIDE: u64 = u32::MAX as u64 + 1;
const HEXY: u16 = 0xFF_u16 | 0x0F;
pub struct Caps;
impl Caps {
    pub const LIMIT: usize = HEADER_LEN + 10;
}
const NOT_INT: &str = "nope";
const FROM_CALL: u64 = compute();
fn generic<const N: usize>(x: [u8; N]) {}
"#;
        let ws = ws_of(src);
        assert_eq!(ws.consts.get("HEADER_LEN"), Some(&6));
        assert_eq!(ws.consts.get("MAX_BODY"), Some(&(16 * 1024 * 1024)));
        assert_eq!(ws.consts.get("SHIFTED"), Some(&(1 << 20)));
        assert_eq!(ws.consts.get("CHAIN"), Some(&(8 * 1024 * 1024)));
        assert_eq!(ws.consts.get("WIDE"), Some(&(1u128 << 32)));
        assert_eq!(ws.consts.get("HEXY"), Some(&0xFF));
        assert_eq!(ws.consts.get("LIMIT"), Some(&16));
        assert_eq!(ws.consts.get("NOT_INT"), None);
        assert_eq!(ws.consts.get("FROM_CALL"), None);
        assert_eq!(ws.consts.get("N"), None);
    }

    #[test]
    fn const_table_drops_ambiguous_names() {
        let a = SourceFile::parse("crates/a/src/lib.rs", "const CAP: usize = 8;");
        let b = SourceFile::parse("crates/b/src/lib.rs", "const CAP: usize = 16;");
        let ws = build(&[a, b]);
        assert_eq!(ws.consts.get("CAP"), None);
    }
}
