//! Per-file item model above the token stream: struct definitions with
//! parsed field types, impl blocks, and function signatures (receiver
//! kind, typed parameters). This is the "HIR" the
//! resolution layer (`resolve.rs`) builds its symbol table from, and the
//! lock census (`passes::lock_census`) reads struct fields from — still
//! token-derived, no rustc, but enough structure to resolve a method
//! call through its receiver's type.

use crate::cursor::{element_end, elements};
use crate::lexer::TokKind;
use crate::model::SourceFile;
use crate::passes::{is_arrow, skip_angle};

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
    /// the innermost element type, so a method called on an element of a
    /// `Vec<Shard>` field resolves against `Shard`.
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

    /// The `Mutex`/`RwLock` this type is, through smart-pointer
    /// wrappers (`Arc<Mutex<T>>` gives the `Mutex<T>`).
    pub fn lock(&self) -> Option<&Type> {
        let t = self.strip_wrappers();
        matches!(t.name.as_str(), "Mutex" | "RwLock").then_some(t)
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
    /// Token index of the `struct` keyword.
    pub tok: usize,
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

/// Scans the header of an item from `from` (just past `impl` or a
/// struct's name): skips a generic parameter list, then walks to the body
/// `{` at angle depth 0, skipping `(..)` / `[..]` groups whole. Returns the
/// idents seen at angle depth 0 before any `where`, and the body `{`
/// (`None` for an item that ends at a `;` first).
fn item_header(file: &SourceFile, from: usize) -> (Vec<usize>, Option<usize>) {
    let toks = &file.tokens;
    let mut j = skip_angle_group(file, from);
    let (mut idents, mut depth, mut in_where) = (Vec::new(), 0i32, false);
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if depth > 0 && !is_arrow(toks, j) => depth -= 1,
            TokKind::Punct('(' | '[') => j = file.skip_balanced(j) - 1,
            TokKind::Punct('{') if depth == 0 => return (idents, Some(j)),
            TokKind::Punct(';') if depth == 0 => break,
            TokKind::Ident(s) if depth == 0 => {
                in_where |= s == "where";
                if !in_where {
                    idents.push(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (idents, None)
}

/// Finds `impl [Trait for] Type { ... }` blocks: `(body_open, body_close,
/// type_name)`. The type name is the last path-tail ident of the header —
/// for `impl Trait for Type` that is `Type`'s tail, for an inherent impl
/// the type's tail.
fn collect_impls(file: &SourceFile) -> Vec<(usize, usize, String)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for idx in 0..toks.len() {
        if toks[idx].ident() != Some("impl") || file.in_attr(idx) {
            continue;
        }
        let (idents, Some(open)) = item_header(file, idx + 1) else {
            continue;
        };
        let mut ty_name = "";
        for j in idents {
            match toks[j].ident().unwrap_or("") {
                "for" => ty_name = "",
                "dyn" | "mut" | "const" | "Send" | "Sync" => {}
                // A path segment (`a::b::C` keeps `C`).
                _ if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) => {}
                s => ty_name = s,
            }
        }
        if !ty_name.is_empty() {
            out.push((open, file.skip_balanced(open) - 1, ty_name.to_string()));
        }
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
        let mut def = StructDef {
            name: name.to_string(),
            tok: idx,
            fields: Vec::new(),
        };
        if let (_, Some(open)) = item_header(file, idx + 2) {
            parse_fields(
                file,
                open + 1,
                file.skip_balanced(open) - 1,
                &mut def.fields,
            );
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
        let lock = done.ty.lock().unwrap();
        assert_eq!(
            (lock.name.as_str(), lock.args[0].name.as_str()),
            ("Mutex", "Vec")
        );
        let busy = &s.fields[1];
        assert_eq!(busy.ty.innermost().name, "AtomicBool");
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
impl<F> std::fmt::Debug for Wrap<F> where F: Fn(u32) -> u32 {
    fn fmt(&self) {}
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
        let fmt = by_name.iter().find(|(n, _)| *n == "fmt").unwrap().1;
        assert_eq!(fmt.impl_ty.as_deref(), Some("Wrap"), "where-clause idents");
        let free = by_name.iter().find(|(n, _)| *n == "free").unwrap().1;
        assert!(free.impl_ty.is_none());
        assert_eq!(
            free.params[0].1.lock().map(|t| t.name.as_str()),
            Some("Mutex")
        );
    }

    #[test]
    fn innermost_and_sync_primitives_classify() {
        let (_, h) = hir_of("struct T { a: Arc<Vec<Shard>>, b: Condvar, c: Arc<RwLock<Map>> }");
        let s = &h.structs[0];
        assert_eq!(s.fields[0].ty.innermost().name, "Shard");
        assert!(s.fields[1].ty.lock().is_none(), "a Condvar is not a lock");
        let rw = s.fields[2].ty.lock().map(|t| t.name.as_str());
        assert_eq!(rw, Some("RwLock"));
    }
}
