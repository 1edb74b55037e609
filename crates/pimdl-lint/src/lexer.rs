//! Comment- and string-aware Rust token scanner.
//!
//! The passes in this crate work on a token stream, not an AST: they must
//! never mistake the word `unsafe` inside a doc comment or a diagnostic
//! string for the keyword, and they need the comments themselves (for the
//! `// SAFETY:` audit) alongside the code. The scanner handles line and
//! nested block comments, plain/raw/byte string literals, char literals
//! vs. lifetimes, and numeric literals; everything else becomes an ident
//! or a single-character punct token tagged with its 1-based line.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
    /// String/char/numeric literal (contents irrelevant to the passes).
    Literal,
    /// Lifetime such as `'a` (kept so backward walks skip it cleanly).
    Lifetime,
}

/// A token plus its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
}

impl Tok {
    fn new(kind: TokKind, line: u32) -> Tok {
        Tok { kind, line }
    }

    /// The identifier text, if this token is an ident.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punct `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment (line or block) with the lines it spans and its text.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line_start: u32,
    pub line_end: u32,
    pub text: String,
}

/// Scanner output: the token stream and every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Tokenizes `source`, separating code tokens from comments and skipping
/// literal contents. Unterminated literals/comments end at EOF rather than
/// erroring: a lint scanner must degrade gracefully on malformed input.
pub fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i;
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line_start: line,
                    line_end: line,
                    text: bytes[start..i].iter().collect(),
                });
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                let start = i;
                let line_start = line;
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == '/' && i + 1 < n && bytes[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == '*' && i + 1 < n && bytes[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line_start,
                    line_end: line,
                    text: bytes[start..i].iter().collect(),
                });
            }
            '"' | 'r' | 'b' if c == '"' || starts_string_prefix(&bytes, i) => {
                let end = if c == '"' {
                    skip_quoted(&bytes, i + 1, '"')
                } else {
                    skip_prefixed_string(&bytes, i)
                };
                line += count_lines(&bytes[i..end]);
                out.tokens.push(Tok::new(TokKind::Literal, line));
                i = end;
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if i + 1 < n
                    && (bytes[i + 1].is_alphabetic() || bytes[i + 1] == '_')
                    && !(i + 2 < n && bytes[i + 2] == '\'')
                {
                    out.tokens.push(Tok::new(TokKind::Lifetime, line));
                    i = word_end(&bytes, i + 1);
                } else {
                    out.tokens.push(Tok::new(TokKind::Literal, line));
                    i = skip_quoted(&bytes, i + 1, '\'');
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = word_end(&bytes, i + 1);
                // Fractional part only when a digit follows the dot, so
                // `0..n` stays two puncts and `1.5` stays one literal.
                if j + 1 < n && bytes[j] == '.' && bytes[j + 1].is_ascii_digit() {
                    j = word_end(&bytes, j + 1);
                }
                out.tokens.push(Tok::new(TokKind::Literal, line));
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let j = word_end(&bytes, i + 1);
                out.tokens
                    .push(Tok::new(TokKind::Ident(bytes[i..j].iter().collect()), line));
                i = j;
            }
            c => {
                out.tokens.push(Tok::new(TokKind::Punct(c), line));
                i += 1;
            }
        }
    }
    out
}

/// Index of the first char at or after `j` that cannot continue an
/// identifier.
fn word_end(bytes: &[char], mut j: usize) -> usize {
    while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
        j += 1;
    }
    j
}

/// Whether position `i` starts a raw/byte string prefix (`r"`, `r#`, `b"`,
/// `br"`, `rb` is not valid Rust, `b'` is handled as a char elsewhere).
fn starts_string_prefix(bytes: &[char], i: usize) -> bool {
    let n = bytes.len();
    match bytes[i] {
        'r' => i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '#'),
        'b' => match bytes.get(i + 1) {
            Some('"' | '\'') => true,
            Some('r') => i + 2 < n && (bytes[i + 2] == '"' || bytes[i + 2] == '#'),
            _ => false,
        },
        _ => false,
    }
}

/// Index past the closing `q` of a quoted literal whose body starts at
/// `from`, honoring backslash escapes (the end of input if unterminated).
fn skip_quoted(bytes: &[char], from: usize, q: char) -> usize {
    let mut j = from;
    while j < bytes.len() && bytes[j] != q {
        if bytes[j] == '\\' {
            j += 1;
        }
        j += 1;
    }
    (j + 1).min(bytes.len())
}

/// Skips a prefixed (`r`, `b`, `br`) string or byte-char literal starting
/// at `i`; returns the index past it.
fn skip_prefixed_string(bytes: &[char], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i;
    let mut raw = false;
    while j < n && (bytes[j] == 'r' || bytes[j] == 'b') {
        if bytes[j] == 'r' {
            raw = true;
        }
        j += 1;
    }
    if j < n && bytes[j] == '\'' {
        // b'x' byte-char literal.
        return skip_quoted(bytes, j + 1, '\'');
    }
    if !raw {
        return skip_quoted(bytes, j + 1, '"');
    }
    let mut hashes = 0usize;
    while j < n && bytes[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j >= n || bytes[j] != '"' {
        return j;
    }
    j += 1;
    while j < n {
        if bytes[j] == '"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && bytes[k] == '#' && seen < hashes {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        j += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("// unsafe unwrap\nlet x = 1; /* panic! */");
        assert_eq!(
            idents("// unsafe unwrap\nlet x = 1; /* panic! */"),
            ["let", "x"]
        );
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("unsafe"));
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents(r#"let s = "unsafe unwrap()";"#), ["let", "s"]);
        assert_eq!(idents(r##"let s = r#"panic!()"#;"##), ["let", "s"]);
        assert_eq!(idents(r#"let s = b"unsafe";"#), ["let", "s"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let l = lex("/* outer /* inner */ still */ fn f() {}");
        assert_eq!(
            l.tokens
                .iter()
                .filter_map(|t| t.ident())
                .collect::<Vec<_>>(),
            ["fn", "f"]
        );
    }

    #[test]
    fn ranges_are_not_floats() {
        let l = lex("for i in 0..total { let x = 1.5e3; }");
        let puncts = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(puncts, 2, "0..total keeps both dots: {:?}", l.tokens);
    }

    #[test]
    fn lines_are_tracked() {
        let l = lex("a\nb\n  c");
        let lines: Vec<u32> = l.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }
}
