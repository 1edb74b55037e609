//! `--explain CODE`: per-lint rationale, known approximations, and the
//! allowlist policy. This table is the runtime twin of the pass tables in
//! DESIGN.md §10 — when a pass's semantics change, both move together.

/// Everything the gate can say about one lint code.
pub struct Explanation {
    pub code: &'static str,
    pub title: &'static str,
    pub rationale: &'static str,
    pub approximations: &'static str,
    pub allow_policy: &'static str,
}

/// All codes the gate can emit, in report order.
pub fn all() -> &'static [Explanation] {
    &EXPLANATIONS
}

/// Looks up one code, case-insensitively.
pub fn lookup(code: &str) -> Option<&'static Explanation> {
    EXPLANATIONS
        .iter()
        .find(|e| e.code.eq_ignore_ascii_case(code))
}

impl Explanation {
    /// Renders the explanation the way `--explain` prints it.
    pub fn render(&self) -> String {
        format!(
            "{} — {}\n\nWhy this is checked:\n  {}\n\nKnown approximations:\n  {}\n\nAllowlist policy:\n  {}\n",
            self.code, self.title, self.rationale, self.approximations, self.allow_policy
        )
    }
}

static EXPLANATIONS: [Explanation; 12] = [
    Explanation {
        code: "L1-SAFETY",
        title: "every unsafe site carries a SAFETY justification",
        rationale: "An `unsafe` block is a proof obligation discharged by a human. \
                    The comment is where the proof lives; an undocumented site is an \
                    unreviewed claim of soundness. Every site, documented or not, is \
                    also recorded in the inventory so drift is reviewable.",
        approximations: "Token-level: a `// SAFETY:` comment within the two lines \
                    above the `unsafe` token (or a `# Safety` doc section on the \
                    enclosing fn) counts. A justification that is present but wrong \
                    is invisible to this pass.",
        allow_policy: "No allowlist escape — write the comment. If the site is \
                    genuinely self-evident, the comment is one line.",
    },
    Explanation {
        code: "L2-PANIC",
        title: "no unwrap/expect/panic in serving hot paths",
        rationale: "A panic in the reactor or a worker tears down a connection (or \
                    poisons a lock) instead of degrading a single request. Hot-path \
                    modules must return errors; callers decide what is fatal.",
        approximations: "Only files configured as hot paths are scanned; test code \
                    (`#[cfg(test)]`, `#[test]`) is exempt. Indexing/arithmetic \
                    panics are out of scope — this pass sees explicit calls only.",
        allow_policy: "A `lint-allow.toml` entry with lint/file/func/callee, a \
                    non-empty justification, and preferably a `lines` window pinning \
                    it to the audited site. Stale or unjustified entries are \
                    themselves findings.",
    },
    Explanation {
        code: "L3-ATOMIC",
        title: "Relaxed loads must not consume Release publications",
        rationale: "If any code publishes an atomic with Release/AcqRel ordering \
                    (or fence(Release) + a Relaxed store), the ordering is \
                    load-bearing: readers that want the data written before the \
                    store need Acquire. A Relaxed load of such an atomic is either \
                    a race on the published data or an accident waiting for a \
                    refactor.",
        approximations: "Identities come from the resolution layer (struct fields \
                    resolve to `Type::field`; bare `&Atomic*` params fall back to a \
                    crate-scoped name — same-named params in one crate alias). \
                    Fence pairing is per-function: a fence in a helper called \
                    before/after the access is invisible. SeqCst-everywhere \
                    protocols are out of scope.",
        allow_policy: "No allowlist escape — use `Ordering::Acquire` on the load or \
                    add `fence(Ordering::Acquire)` after it; both silence the pass \
                    because both are correct.",
    },
    Explanation {
        code: "L4-LOCK-ORDER",
        title: "no cycles in the cross-function lock-acquisition graph",
        rationale: "Two threads taking the same pair of locks in opposite orders \
                    deadlock. The pass replays each function's acquisitions (with \
                    locks still held propagated through resolved calls) into one \
                    workspace lock graph and fails on any cycle.",
        approximations: "Lock identity is resolved: struct fields are `Type::field` \
                    merged across `Arc::clone`/constructor aliasing; locals are \
                    per-function (same-named locals in different fns are distinct \
                    locks). Guard lifetimes are scope-heuristic (`let` guard lives \
                    to end of block, temporary guard to end of statement, `drop(g)` \
                    ends it early); non-lexical guard drops are over-approximated.",
        allow_policy: "No allowlist escape — a real cycle is a deadlock; break it \
                    by ordering the acquisitions. If identities merged spuriously, \
                    fix the resolution layer, not the report.",
    },
    Explanation {
        code: "L5-SYSCALL",
        title: "raw syscalls only inside the reactor's syscall shim",
        rationale: "Every raw `syscall`/`asm!` site is a portability and audit \
                    hazard; confining them to one shim keeps the unsafe surface \
                    enumerable and mockable.",
        approximations: "Matches `asm!` and `syscall*` call tokens; indirect \
                    invocation through libc wrappers is out of scope (those are \
                    safe-ish and auditable via L1).",
        allow_policy: "No allowlist escape — move the call into the shim.",
    },
    Explanation {
        code: "L6-LOCKSET",
        title: "lockset race heuristic for shared struct fields",
        rationale: "A field of a thread-shared struct that is written under a lock \
                    in one place and read with no lock elsewhere is the classic \
                    data-race shape (Eraser/RacerD): either the lock is load-bearing \
                    and the bare access races, or the lock is theater and should go. \
                    Each access site's lockset is what it holds locally plus the \
                    entry lockset — the intersection over all resolved callers of \
                    what they hold at the call.",
        approximations: "Only structs defined in the configured concurrent modules \
                    and observed shared (wrapped in Arc/Mutex/RwLock somewhere, \
                    transitively) are candidates. Accesses via `&mut self`/owned \
                    `self` and inside `-> Self` constructors are exempt (exclusive \
                    access / immutable-after-spawn). Closure-captured accesses are \
                    invisible (false negatives); an unrelated same-named free fn \
                    can empty an entry lockset (false positives).",
        allow_policy: "A `lint-allow.toml` entry with `callee = \"Type::field\"`, a \
                    justification naming the synchronization argument (e.g. a \
                    monotonic counter where staleness is benign), and a `lines` \
                    window so the entry cannot excuse future bare accesses.",
    },
    Explanation {
        code: "L7-ALLOC",
        title: "no allocations sized by unvalidated wire input",
        rationale: "A length or count decoded from the network is attacker-chosen: \
                    passing it to `Vec::with_capacity`/`reserve`/`resize`/`vec![..; n]` \
                    lets one frame demand gigabytes before any payload arrives — a \
                    remote allocation bomb. Every wire size must be rejected against \
                    a named MAX_* bound (or clamped) before it reaches an allocator.",
        approximations: "Taint starts at byte/string decoders (`from_le_bytes`, \
                    `from_str_radix`, `.parse()`, ...) in the configured protocol \
                    modules and flows through lets, assignments, arithmetic, casts, \
                    and resolved calls (return and parameter summaries to fixpoint), \
                    paired with an interval [lo, hi] per value. A sink only accepts \
                    a sanitizer whose bound is *proved*: `.min(MAX)`/`.clamp(..)` \
                    and `if n > MAX {..}` guards narrow the interval, and the sink \
                    checks hi <= 2^24 (or a symbolic `<= buf.len()` bound) — \
                    `.min(HUGE)` taint-theater still fires. Struct fields, \
                    collections, closures, and `while` bounds are invisible (false \
                    negatives); `checked_*`/`try_into` kill taint even when they \
                    bound overflow rather than magnitude.",
        allow_policy: "No allowlist escape by default — add the bounds check; the \
                    guard `if n > MAX_X { return Err(..) }` is recognized and is \
                    also the real fix.",
    },
    Explanation {
        code: "L7-INDEX",
        title: "no slice indexing by unvalidated wire input",
        rationale: "`buf[n]` or `buf[..n]` with an attacker-chosen `n` panics on \
                    the first malformed frame — a remote denial of service through \
                    the panic path L2 keeps out of hot modules. Use `.get(..)` or \
                    compare against the buffer length and bail first.",
        approximations: "Same dataflow engine as L7-ALLOC. Indexing through a \
                    method return (`foo().1[n]`) or a struct field index expression \
                    may be missed; `get(..)` is always clean by construction.",
        allow_policy: "No allowlist escape by default — bounds-check or `.get()`.",
    },
    Explanation {
        code: "L7-LOOP",
        title: "no loop bounds from unvalidated wire input",
        rationale: "`for _ in 0..n` with a wire-decoded `n` lets a 12-byte frame \
                    buy u32::MAX iterations of decode work (and usually that many \
                    pushes) — asymmetric CPU/memory cost an attacker controls. \
                    Reject the count against a protocol MAX_* before iterating.",
        approximations: "Only `for` range upper bounds are checked; `while i < n` \
                    and iterator combinators (`take(n)`, `chunks(n)`) are out of \
                    scope for now (false negatives).",
        allow_policy: "No allowlist escape by default — validate the count first.",
    },
    Explanation {
        code: "L7-TRUNC",
        title: "no narrowing casts of unvalidated wire input",
        rationale: "`len as u16` silently wraps when the wire value exceeds the \
                    target type, so a later bounds check validates the wrong \
                    number — the classic length-truncation smuggling bug. Use \
                    `try_into()` and treat failure as a protocol error.",
        approximations: "Fires when the value's *proved* interval exceeds the \
                    cast target's range (u8/u16/u32/i8/i16/i32 targets); casts to \
                    usize/u64 propagate taint but do not fire. Interval tracking \
                    knows source widths, so `u8::from_le_bytes(..) as u16` is \
                    clean and a clamped value casts cleanly below its bound; a \
                    symbolically bounded value (`<= buf.len()`) is trusted not to \
                    truncate (false negative on 32-bit-address hosts).",
        allow_policy: "No allowlist escape by default — `try_into` with error \
                    handling both fixes and silences it.",
    },
    Explanation {
        code: "L8-OVERFLOW",
        title: "no wrapping arithmetic on unvalidated wire input",
        rationale: "`length * count` frame math in release mode wraps silently: a \
                    u32 multiply of two attacker-chosen 16-bit values can exceed \
                    u32::MAX, so the wrapped product passes every later bounds \
                    check while the attacker keeps the real (huge) value in mind — \
                    offset smuggling through arithmetic. The same applies to \
                    accumulating offsets (`pos += len`) and shifts. Use \
                    `checked_*`/`saturating_*` or widen to u64 before the math.",
        approximations: "Fires on `+`, `*`, `<<` (and their `op=` forms) where a \
                    tainted operand's proved interval exceeds the u8/u16/u32 \
                    operand type; u64/usize arithmetic is exempt (a 64-bit wrap \
                    needs ~2^32 iterations of accumulation, and unknown-width \
                    operands would drown the report in noise — false negatives). \
                    Operand types come from source widths, `as` casts, and \
                    `uN::from` widenings; untyped literals adopt the other \
                    operand's width.",
        allow_policy: "No allowlist escape by default — `checked_mul`/`u64::from` \
                    both fix and silence it.",
    },
    Explanation {
        code: "LINT-ALLOW",
        title: "the allowlist itself must stay sound",
        rationale: "Exemptions rot: entries outlive the code they excused, or land \
                    without a reason. Parse errors, empty justifications, and stale \
                    entries (matching no current site) are all findings, so the \
                    allowlist can only shrink over time.",
        approximations: "Staleness is per-run: an entry for a file outside the \
                    scanned set looks stale. Run the gate on the whole workspace \
                    before trusting a stale report.",
        allow_policy: "Not applicable — fix or delete the entry.",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emittable_code_has_an_explanation() {
        for code in [
            "L1-SAFETY",
            "L2-PANIC",
            "L3-ATOMIC",
            "L4-LOCK-ORDER",
            "L5-SYSCALL",
            "L6-LOCKSET",
            "L7-ALLOC",
            "L7-INDEX",
            "L7-LOOP",
            "L7-TRUNC",
            "L8-OVERFLOW",
            "LINT-ALLOW",
        ] {
            let e = lookup(code).unwrap_or_else(|| panic!("{code} missing"));
            assert!(!e.rationale.is_empty() && !e.approximations.is_empty());
            assert!(e.render().contains(code));
        }
        assert!(lookup("l7-alloc").is_some(), "case-insensitive lookup");
        assert!(lookup("L9-NOPE").is_none());
    }
}
