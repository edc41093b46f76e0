//! A comment- and string-aware Rust token scanner.
//!
//! This is not a parser: it produces a flat token stream plus a separate
//! comment list, which is exactly the granularity the lint rules need.
//! The scanner understands the lexical constructs that would otherwise
//! produce false positives — line and (nested) block comments, string /
//! raw-string / byte-string literals, char literals vs. lifetimes, raw
//! identifiers — so a `panic!` inside a string or a doc comment is never
//! mistaken for code.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `Ordering`, ...).
    Ident,
    /// A single punctuation byte (`.`, `[`, `!`, ...).
    Punct(u8),
    /// Numeric literal (`42`, `0xFF`, `1.5e3`, `8usize`).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One code token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token's kind.
    pub kind: TokKind,
    /// The token's text (identifier name, literal spelling, punct char).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True when this token is the punctuation byte `p`.
    pub fn is_punct(&self, p: u8) -> bool {
        self.kind == TokKind::Punct(p)
    }
}

/// One comment (line or block) with the lines it spans.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// Comment text, including the `//` / `/*` markers.
    pub text: String,
    /// 1-based first line.
    pub line_start: u32,
    /// 1-based last line (equal to `line_start` for line comments).
    pub line_end: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order, separate from the token stream.
    pub(crate) comments: Vec<Comment>,
}

impl Lexed {
    /// True when `line` carries at least one code token.
    pub fn line_has_code(&self, line: u32) -> bool {
        // Tokens are in line order; a binary search would work, but files
        // are small enough that a scan per query never shows up.
        self.toks.iter().any(|t| t.line == line)
    }

    /// True when `line` is inside (or carries) at least one comment.
    pub fn line_has_comment(&self, line: u32) -> bool {
        self.comments
            .iter()
            .any(|c| c.line_start <= line && line <= c.line_end)
    }

    /// All comments that touch `line`.
    pub(crate) fn comments_on_line(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.comments
            .iter()
            .filter(move |c| c.line_start <= line && line <= c.line_end)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// constructs are consumed to end-of-file (the real compiler will reject
/// the file anyway; the linter stays robust on any input).
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! count_newlines {
        ($range:expr) => {
            line += b[$range].iter().filter(|&&c| c == b'\n').count() as u32
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line_start: line,
                    line_end: line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let line_start = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: src[start..i].to_string(),
                    line_start,
                    line_end: line,
                });
            }
            b'"' => {
                let (end, tok_line) = (scan_string(b, i), line);
                count_newlines!(i..end);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: src[i..end].to_string(),
                    line: tok_line,
                });
                i = end;
            }
            b'\'' => {
                // Lifetime or char literal. `'\…'` and `'x'` are chars;
                // `'ident` not followed by a closing quote is a lifetime.
                let (end, kind) = scan_quote(b, i);
                out.toks.push(Tok {
                    kind,
                    text: src[i..end].to_string(),
                    line,
                });
                count_newlines!(i..end);
                i = end;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    if is_ident_cont(b[i]) {
                        i += 1;
                    } else if b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        i += 2;
                    } else {
                        break;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                i += 1;
                while i < b.len() && is_ident_cont(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // String-literal prefixes: r"…", r#"…"#, b"…", br#"…"#,
                // b'…'; and raw identifiers r#name.
                if matches!(word, "r" | "b" | "br") && i < b.len() {
                    if let Some(end) = scan_prefixed_literal(b, word, i) {
                        let tok_line = line;
                        count_newlines!(start..end);
                        let kind = if b[i] == b'\'' {
                            TokKind::Char
                        } else {
                            TokKind::Str
                        };
                        out.toks.push(Tok {
                            kind,
                            text: src[start..end].to_string(),
                            line: tok_line,
                        });
                        i = end;
                        continue;
                    }
                    if word == "r" && b[i] == b'#' && i + 1 < b.len() && is_ident_start(b[i + 1]) {
                        // Raw identifier r#name: token is the bare name.
                        let name_start = i + 1;
                        i += 2;
                        while i < b.len() && is_ident_cont(b[i]) {
                            i += 1;
                        }
                        out.toks.push(Tok {
                            kind: TokKind::Ident,
                            text: src[name_start..i].to_string(),
                            line,
                        });
                        continue;
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: word.to_string(),
                    line,
                });
            }
            other => {
                out.toks.push(Tok {
                    kind: TokKind::Punct(other),
                    text: (other as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Scans a normal `"…"` string starting at `b[i] == b'"'`; returns the
/// index one past the closing quote (or EOF).
fn scan_string(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

/// Scans a raw string `#*"…"#*` starting at `b[i]` (which is `#` or `"`);
/// returns the index one past the closing delimiter, or `None` if this is
/// not actually a raw-string opener.
fn scan_raw_string(b: &[u8], i: usize) -> Option<usize> {
    let mut hashes = 0usize;
    let mut j = i;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return None;
    }
    j += 1;
    while j < b.len() {
        if b[j] == b'"'
            && b.len() - (j + 1) >= hashes
            && b[j + 1..j + 1 + hashes].iter().all(|&c| c == b'#')
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(b.len())
}

/// Scans the literal following a `r` / `b` / `br` prefix ending at `i`.
/// Returns the end index, or `None` when the prefix is just an identifier.
fn scan_prefixed_literal(b: &[u8], word: &str, i: usize) -> Option<usize> {
    match (word, b[i]) {
        ("r" | "br", b'"' | b'#') => scan_raw_string(b, i),
        ("b", b'"') => Some(scan_string(b, i)),
        ("b", b'\'') => {
            let (end, _) = scan_quote(b, i);
            Some(end)
        }
        _ => None,
    }
}

/// Scans from a `'` at `b[i]`: distinguishes char literals from lifetimes.
fn scan_quote(b: &[u8], i: usize) -> (usize, TokKind) {
    let mut j = i + 1;
    if j >= b.len() {
        return (j, TokKind::Lifetime);
    }
    if b[j] == b'\\' {
        // Escaped char literal: consume to the closing quote.
        j += 2;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return ((j + 1).min(b.len()), TokKind::Char);
    }
    if is_ident_start(b[j]) {
        // `'x'` is a char; `'x` followed by more ident chars or a
        // non-quote is a lifetime.
        let mut k = j + 1;
        while k < b.len() && is_ident_cont(b[k]) {
            k += 1;
        }
        if k < b.len() && b[k] == b'\'' && k == j + 1 {
            return (k + 1, TokKind::Char);
        }
        // Multi-byte chars like 'é': ident-cont covers bytes >= 0x80, so a
        // quote right after the run still closes a char literal.
        if k < b.len() && b[k] == b'\'' && b[j] >= 0x80 {
            return (k + 1, TokKind::Char);
        }
        return (k, TokKind::Lifetime);
    }
    // Punctuation char literal like '(' or '0'.
    if j + 1 < b.len() && b[j + 1] == b'\'' {
        return (j + 2, TokKind::Char);
    }
    (j + 1, TokKind::Lifetime)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_not_code() {
        let l = lex("let x = 1; // unwrap() here is prose\n/* panic! */ let y;");
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
        assert_eq!(l.comments.len(), 2);
        assert!(l.comments[0].text.contains("unwrap"));
    }

    #[test]
    fn strings_are_single_tokens() {
        let l = lex(r###"let s = "a.unwrap() \" quote"; let t = r#"raw "panic!" body"# ;"###);
        assert!(!l.toks.iter().any(|t| t.is_ident("unwrap")));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(
            l.toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let l = lex("a\n/* one /* two */ still */\nb");
        assert_eq!(idents("a\n/* one /* two */ still */\nb"), vec!["a", "b"]);
        assert_eq!(l.toks[1].line, 3);
        assert_eq!(l.comments[0].line_start, 2);
    }

    #[test]
    fn raw_identifiers_and_byte_strings() {
        let l = lex(r##"let r#fn = b"panic!"; let x = br#"x"#;"##);
        assert!(l.toks.iter().any(|t| t.is_ident("fn")));
        assert!(!l.toks.iter().any(|t| t.is_ident("panic")));
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let l = lex("let a = \"line\nline\nline\";\nlet b = 1;");
        let b_tok = l.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 4);
    }
}
