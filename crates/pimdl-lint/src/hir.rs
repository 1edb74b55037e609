//! Per-file item model above the token stream: struct definitions with
//! parsed field types, impl blocks, and function signatures (receiver
//! kind, typed parameters). This is the "HIR" the
//! resolution layer (`resolve.rs`) builds its symbol table from — still
//! token-derived, no rustc, but enough structure to give locks and
//! atomics stable identities (`Type::field`) instead of bare receiver
//! names.

use crate::cursor::{element_end, elements};
use crate::lexer::TokKind;
use crate::model::SourceFile;
use crate::passes::skip_angle;

/// A parsed type expression, reduced to a path tail plus generic
/// arguments: `std::sync::Arc<Mutex<Vec<T>>>` becomes
/// `Arc -> [Mutex -> [Vec -> [T]]]`. References, lifetimes, `dyn`,
/// `impl`, and `mut` are stripped; tuples become `"(tuple)"`, slices
/// `"[slice]"`, pointers `"*ptr"`, `Fn(..)` trait sugar `"Fn"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Type {
    pub name: String,
    pub args: Vec<Type>,
}

impl Type {
    pub fn leaf(name: &str) -> Type {
        Type {
            name: name.to_string(),
            args: Vec::new(),
        }
    }

    /// Strips smart-pointer wrappers (`Arc`, `Rc`, `Box`, `Pin`) that do
    /// not change what the value *is* for aliasing purposes.
    pub fn strip_wrappers(&self) -> &Type {
        let mut t = self;
        while matches!(t.name.as_str(), "Arc" | "Rc" | "Box" | "Pin") && t.args.len() == 1 {
            t = &t.args[0];
        }
        t
    }

    /// Strips wrappers *and* containers (`Vec`, `Option`, slices, ...):
    /// the innermost element type, used to classify `Arc<Vec<AtomicBool>>`
    /// as atomic storage and `Vec<Shard>` as `Shard` storage.
    pub fn innermost(&self) -> &Type {
        let mut t = self;
        loop {
            let next = match t.name.as_str() {
                "Arc" | "Rc" | "Box" | "Pin" | "Vec" | "VecDeque" | "Option" | "[slice]"
                | "*ptr" | "ManuallyDrop" | "Cell" | "RefCell" | "UnsafeCell"
                    if !t.args.is_empty() =>
                {
                    &t.args[0]
                }
                _ => return t,
            };
            t = next;
        }
    }

    /// `Some(Mutex | RwLock)` when this type (through wrappers) is a lock.
    pub fn guard_kind(&self) -> Option<&'static str> {
        match self.strip_wrappers().name.as_str() {
            "Mutex" => Some("Mutex"),
            "RwLock" => Some("RwLock"),
            _ => None,
        }
    }

    /// The `T` of `Mutex<T>` / `RwLock<T>` (through wrappers), if any.
    pub fn guarded_inner(&self) -> Option<&Type> {
        let t = self.strip_wrappers();
        if matches!(t.name.as_str(), "Mutex" | "RwLock") {
            t.args.first()
        } else {
            None
        }
    }

    /// Whether this is atomic storage: the innermost element type is an
    /// `Atomic*` (so `AtomicU64`, `Arc<Vec<AtomicBool>>`, ... all count).
    pub fn is_atomic(&self) -> bool {
        self.innermost().name.starts_with("Atomic")
    }

    /// Whether this is a synchronization primitive itself (a lock, a
    /// condvar, a once cell) rather than guarded data.
    pub fn is_sync_primitive(&self) -> bool {
        matches!(
            self.strip_wrappers().name.as_str(),
            "Mutex" | "RwLock" | "Condvar" | "OnceLock" | "Once" | "Barrier"
        )
    }
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    pub ty: Type,
    pub line: u32,
}

/// One `struct Name { ... }` definition (tuple and unit structs carry an
/// empty field list).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
}

/// Receiver kind of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfKind {
    None,
    Ref,
    RefMut,
    Owned,
}

/// Signature-level facts about one `fn` item, indexed parallel to
/// `SourceFile::fns()`.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Enclosing `impl` type name, if the fn is a method/assoc fn.
    pub impl_ty: Option<String>,
    pub self_kind: SelfKind,
    /// Typed value parameters (`name: Type`), patterns skipped.
    pub params: Vec<(String, Type)>,
}

/// Everything hir-level extracted from one file.
#[derive(Debug, Default)]
pub struct FileHir {
    pub structs: Vec<StructDef>,
    /// One entry per `SourceFile::fns()` span, same order.
    pub sigs: Vec<FnSig>,
}

/// Builds the per-file item model.
pub fn build(file: &SourceFile) -> FileHir {
    let mut out = FileHir {
        structs: collect_structs(file),
        sigs: Vec::with_capacity(file.fns().len()),
    };
    let impls = collect_impls(file);
    for span in file.fns() {
        let impl_ty = impls
            .iter()
            .filter(|(s, e, _)| *s < span.fn_tok && span.fn_tok < *e)
            .min_by_key(|(s, e, _)| e - s)
            .map(|(_, _, name)| name.clone());
        out.sigs
            .push(parse_sig(file, span.fn_tok, span.body_start, impl_ty));
    }
    out
}

/// Finds `impl [Trait for] Type { ... }` blocks: `(body_open, body_close,
/// type_name)`.
fn collect_impls(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for idx in 0..toks.len() {
        if toks[idx].ident() != Some("impl") || file.in_attr(idx) {
            continue;
        }
        // Skip generics after `impl`.
        let mut j = skip_angle_group(file, idx + 1);
        // Scan to the body `{`, remembering the last path-tail ident seen
        // at angle depth 0 — for `impl Trait for Type` that is `Type`'s
        // tail, for an inherent impl it is the type's tail.
        let mut ty_name = String::new();
        let mut depth = 0i32;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') if depth > 0 => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Ident(s) if depth == 0 => {
                    if s == "for" {
                        ty_name.clear();
                    } else if !matches!(
                        s.as_str(),
                        "dyn" | "mut" | "const" | "where" | "Send" | "Sync"
                    ) && !toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        // Path tail: keep the last segment (overwritten as
                        // `a::b::C` unwinds). `where`-clause bounds are cut
                        // off by the `:`-lookahead.
                        ty_name = s.clone();
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') || ty_name.is_empty() {
            continue;
        }
        out.push((j, file.skip_balanced(j) - 1, ty_name));
    }
    out
}

/// Finds `struct Name { fields }` items and parses the field types.
fn collect_structs(file: &SourceFile) -> Vec<StructDef> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for idx in 0..toks.len() {
        if toks[idx].ident() != Some("struct") || file.in_attr(idx) {
            continue;
        }
        let Some(name) = toks.get(idx + 1).and_then(|t| t.ident()) else {
            continue;
        };
        let mut j = skip_angle_group(file, idx + 2);
        // Skip a `where` clause up to the body.
        let mut depth = 0i32;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') if depth > 0 => depth -= 1,
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct(';') if depth == 0 => {
                    break
                }
                _ => {}
            }
            j += 1;
        }
        let mut def = StructDef {
            name: name.to_string(),
            fields: Vec::new(),
        };
        if j < toks.len() && toks[j].is_punct('{') {
            parse_fields(file, j + 1, file.skip_balanced(j) - 1, &mut def.fields);
        }
        out.push(def);
    }
    out
}

/// Parses `name: Type,` pairs between `start` and `end` (exclusive).
fn parse_fields(file: &SourceFile, start: usize, end: usize, out: &mut Vec<FieldDef>) {
    let toks = &file.tokens;
    let mut i = start;
    while i < end {
        // Skip attributes on the field (`#[...]` tokens were not stripped
        // from the stream, only flagged — walk over them structurally).
        if toks[i].is_punct('#') {
            i += 1;
            if i < end && toks[i].is_punct('[') {
                i = file.skip_balanced(i);
            }
            continue;
        }
        let Some(ident) = toks[i].ident() else {
            i += 1;
            continue;
        };
        if ident == "pub" {
            i += 1;
            if i < end && toks[i].is_punct('(') {
                i = file.skip_balanced(i);
            }
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            || toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            i += 1;
            continue;
        }
        // `name : TYPE` up to the comma at depth 0.
        let k = element_end(toks, i + 2, end);
        let (ty, _) = parse_type(file, i + 2, k);
        out.push(FieldDef {
            name: ident.to_string(),
            ty,
            line: toks[i].line,
        });
        i = k + 1;
    }
}

/// Parses a type expression from `[start, end)`; returns the type and the
/// index one past it (a `+` bound list consumes only the first bound).
pub fn parse_type(file: &SourceFile, start: usize, end: usize) -> (Type, usize) {
    let toks = &file.tokens;
    let mut i = start;
    // Strip prefixes that don't change identity.
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('&') | TokKind::Punct('\'') => i += 1,
            TokKind::Lifetime => i += 1,
            TokKind::Ident(s) if matches!(s.as_str(), "mut" | "dyn" | "impl" | "const") => i += 1,
            _ => break,
        }
    }
    if i >= end {
        return (Type::leaf("?"), end);
    }
    match &toks[i].kind {
        TokKind::Punct('*') => {
            // `*const T` / `*mut T`.
            let (inner, next) = parse_type(file, i + 1, end);
            (
                Type {
                    name: "*ptr".to_string(),
                    args: vec![inner],
                },
                next,
            )
        }
        TokKind::Punct('(') => {
            let close = file.skip_balanced(i) - 1;
            let mut args = Vec::new();
            let mut k = i + 1;
            while k < close {
                let (t, next) = parse_type(file, k, close);
                args.push(t);
                k = element_end(toks, next, close) + 1;
            }
            if args.len() == 1 {
                // Parenthesized grouping, e.g. `*const (dyn Fn() + Sync)`.
                let only = args.pop().expect("len checked");
                (only, close + 1)
            } else {
                (
                    Type {
                        name: "(tuple)".to_string(),
                        args,
                    },
                    close + 1,
                )
            }
        }
        TokKind::Punct('[') => {
            let close = file.skip_balanced(i) - 1;
            let (inner, _) = parse_type(file, i + 1, close);
            (
                Type {
                    name: "[slice]".to_string(),
                    args: vec![inner],
                },
                close + 1,
            )
        }
        TokKind::Ident(_) => {
            // Path `a :: b :: C`, keep the tail.
            let mut name = String::new();
            let mut k = i;
            while k < end {
                if let Some(s) = toks[k].ident() {
                    name = s.to_string();
                    k += 1;
                    if k + 1 < end && toks[k].is_punct(':') && toks[k + 1].is_punct(':') {
                        k += 2;
                        continue;
                    }
                }
                break;
            }
            if name.starts_with("Fn") && k < end && toks[k].is_punct('(') {
                // `Fn(args) -> Ret` sugar: skip it whole.
                k = file.skip_balanced(k);
                if k + 1 < end && toks[k].is_punct('-') && toks[k + 1].is_punct('>') {
                    let (_, next) = parse_type(file, k + 2, end);
                    k = next;
                }
                return (Type::leaf("Fn"), k);
            }
            let mut args = Vec::new();
            if k < end && toks[k].is_punct('<') {
                let close = skip_angle(file, k, end);
                let mut a = k + 1;
                while a < close {
                    if toks[a].kind == TokKind::Lifetime {
                        a = element_end(toks, a + 1, close) + 1;
                        continue;
                    }
                    let (t, next) = parse_type(file, a, close);
                    args.push(t);
                    a = element_end(toks, next, close) + 1;
                }
                k = close + 1;
            }
            (Type { name, args }, k)
        }
        _ => (Type::leaf("?"), i + 1),
    }
}

/// If `j` sits on `<`, index one past the matching `>`; otherwise `j`.
fn skip_angle_group(file: &SourceFile, j: usize) -> usize {
    let toks = &file.tokens;
    if j < toks.len() && toks[j].is_punct('<') {
        skip_angle(file, j, toks.len()) + 1
    } else {
        j
    }
}

/// Parses the signature between the `fn` keyword and the body `{`.
fn parse_sig(
    file: &SourceFile,
    fn_tok: usize,
    body_start: usize,
    impl_ty: Option<String>,
) -> FnSig {
    let toks = &file.tokens;
    let mut sig = FnSig {
        impl_ty,
        self_kind: SelfKind::None,
        params: Vec::new(),
    };
    // Find the parameter list `(` (skipping `fn name <generics>`).
    let mut j = skip_angle_group(file, fn_tok + 2);
    while j < body_start && !toks[j].is_punct('(') {
        j += 1;
    }
    if j >= body_start {
        return sig;
    }
    let close = file.skip_balanced(j) - 1;
    for (n, (k, item_end)) in elements(toks, j + 1, close).into_iter().enumerate() {
        let mut p = k;
        while p < item_end && (toks[p].is_punct('&') || toks[p].kind == TokKind::Lifetime) {
            p += 1;
        }
        let mut is_mut = false;
        if p < item_end && toks[p].ident() == Some("mut") {
            is_mut = true;
            p += 1;
        }
        if n == 0 && p < item_end && toks[p].ident() == Some("self") {
            sig.self_kind = if toks[k].is_punct('&') {
                if is_mut {
                    SelfKind::RefMut
                } else {
                    SelfKind::Ref
                }
            } else {
                SelfKind::Owned
            };
        } else if let Some(name) = toks.get(p).and_then(|t| t.ident()) {
            if toks.get(p + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(p + 2).is_some_and(|t| t.is_punct(':'))
            {
                let (ty, _) = parse_type(file, p + 2, item_end);
                sig.params.push((name.to_string(), ty));
            }
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hir_of(src: &str) -> (SourceFile, FileHir) {
        let f = SourceFile::parse("t.rs", src);
        let h = build(&f);
        (f, h)
    }

    #[test]
    fn struct_fields_parse_nested_generics() {
        let (_, h) = hir_of(
            "pub struct S { pub done: Arc<Mutex<Vec<BatchDone>>>, busy: Arc<Vec<AtomicBool>>, \
             n: usize, cb: Box<dyn Fn(Range<usize>) -> u32 + Sync>, }",
        );
        let s = &h.structs[0];
        assert_eq!(s.name, "S");
        let done = &s.fields[0];
        assert_eq!(done.name, "done");
        assert_eq!(done.ty.guard_kind(), Some("Mutex"));
        assert_eq!(done.ty.guarded_inner().unwrap().name, "Vec");
        let busy = &s.fields[1];
        assert!(busy.ty.is_atomic());
        assert_eq!(s.fields[2].ty.name, "usize");
        assert_eq!(s.fields[3].name, "cb");
    }

    #[test]
    fn impl_blocks_and_self_kinds_resolve() {
        let src = r#"
struct W { x: u32 }
impl W {
    fn new(n: usize, tag: &str) -> W { W { x: 0 } }
    fn get(&self) -> u32 { self.x }
    fn set(&mut self, v: u32) { self.x = v; }
}
impl Drop for W {
    fn drop(&mut self) {}
}
fn free(pool: &Mutex<u64>) {}
"#;
        let (f, h) = hir_of(src);
        let by_name: Vec<(&str, &FnSig)> = f
            .fns()
            .iter()
            .zip(&h.sigs)
            .map(|(s, g)| (s.name.as_str(), g))
            .collect();
        let new = by_name.iter().find(|(n, _)| *n == "new").unwrap().1;
        assert_eq!(new.impl_ty.as_deref(), Some("W"));
        assert_eq!(new.self_kind, SelfKind::None);
        assert_eq!(new.params[0].0, "n");
        let get = by_name.iter().find(|(n, _)| *n == "get").unwrap().1;
        assert_eq!(get.self_kind, SelfKind::Ref);
        let set = by_name.iter().find(|(n, _)| *n == "set").unwrap().1;
        assert_eq!(set.self_kind, SelfKind::RefMut);
        let drop_fn = by_name.iter().find(|(n, _)| *n == "drop").unwrap().1;
        assert_eq!(drop_fn.impl_ty.as_deref(), Some("W"));
        let free = by_name.iter().find(|(n, _)| *n == "free").unwrap().1;
        assert!(free.impl_ty.is_none());
        assert_eq!(free.params[0].1.guard_kind(), Some("Mutex"));
    }

    #[test]
    fn innermost_and_sync_primitives_classify() {
        let (_, h) = hir_of("struct T { a: Arc<Vec<Shard>>, b: Condvar, c: Arc<RwLock<Map>> }");
        let s = &h.structs[0];
        assert_eq!(s.fields[0].ty.innermost().name, "Shard");
        assert!(s.fields[1].ty.is_sync_primitive());
        assert_eq!(s.fields[2].ty.guard_kind(), Some("RwLock"));
    }
}
