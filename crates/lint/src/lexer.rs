//! A token-level lexer for Rust source, sufficient for rule matching.
//!
//! This is deliberately not a parser: the rules in [`crate::rules`] match
//! on token shapes (`.` `unwrap` `(`, `Instant` `::` `now`, …), so all the
//! lexer must get right is *what is and is not a token* — strings (plain,
//! raw, byte), char literals vs. lifetimes, nested block comments, raw
//! identifiers, and multi-character operators. Everything a rule should
//! never look inside (string contents, comment bodies) arrives as a single
//! opaque token, which is exactly what makes the rules regex-proof.

/// Kinds of token the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#fn`).
    Ident,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// String literal: plain, raw, byte, or raw-byte.
    Str,
    /// Character or byte-character literal.
    Char,
    /// Lifetime (`'a`, `'static`) or loop label.
    Lifetime,
    /// Operator or delimiter, possibly multi-character (`==`, `::`, `..=`).
    Punct,
    /// Line or block comment, including doc comments, with full text.
    Comment,
}

/// One lexed token with its position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Multi-character operators, longest first so maximal munch works by
/// trying them in order.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "&&", "||", "::", "..", "->", "=>", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lexes `src` into tokens, comments included. Never fails: unterminated
/// constructs are closed at end of input (rules still see their prefix).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    toks: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            toks: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advances one byte, tracking line/col.
    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        b
    }

    fn emit(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.toks.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let (line, col, start) = (self.line, self.col, self.pos);
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => {
                    while self.pos < self.src.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    self.emit(TokKind::Comment, start, line, col);
                }
                b'/' if self.peek(1) == b'*' => {
                    self.block_comment();
                    self.emit(TokKind::Comment, start, line, col);
                }
                b'"' => {
                    self.string();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'r' if self.raw_string_ahead(1) => {
                    self.bump(); // r
                    self.raw_string();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'"' => {
                    self.bump(); // b
                    self.string();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'r' && self.raw_string_ahead(2) => {
                    self.bump(); // b
                    self.bump(); // r
                    self.raw_string();
                    self.emit(TokKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.bump(); // b
                    self.bump(); // '
                    self.char_body();
                    self.emit(TokKind::Char, start, line, col);
                }
                b'r' if self.peek(1) == b'#' && is_ident_start(self.peek(2)) => {
                    // Raw identifier r#match.
                    self.bump();
                    self.bump();
                    while is_ident_continue(self.peek(0)) {
                        self.bump();
                    }
                    self.emit(TokKind::Ident, start, line, col);
                }
                b'\'' => {
                    self.bump(); // '
                    if self.lifetime_ahead() {
                        while is_ident_continue(self.peek(0)) {
                            self.bump();
                        }
                        self.emit(TokKind::Lifetime, start, line, col);
                    } else {
                        self.char_body();
                        self.emit(TokKind::Char, start, line, col);
                    }
                }
                _ if is_ident_start(b) => {
                    while is_ident_continue(self.peek(0)) {
                        self.bump();
                    }
                    self.emit(TokKind::Ident, start, line, col);
                }
                _ if b.is_ascii_digit() => {
                    self.number();
                    self.emit(TokKind::Num, start, line, col);
                }
                _ => {
                    self.punct();
                    self.emit(TokKind::Punct, start, line, col);
                }
            }
        }
        self.toks
    }

    /// After the opening `/*`: consumes through the matching `*/`,
    /// honouring nesting.
    fn block_comment(&mut self) {
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
            } else {
                self.bump();
            }
        }
    }

    /// At the opening quote: consumes a plain (escaped) string literal.
    fn string(&mut self) {
        self.bump(); // "
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Whether `r` (at offset-1 before `at`) begins a raw string: zero or
    /// more `#` then `"`.
    fn raw_string_ahead(&self, at: usize) -> bool {
        let mut i = at;
        while self.peek(i) == b'#' {
            i += 1;
        }
        self.peek(i) == b'"'
    }

    /// After the `r` (and optional `b`): consumes `#…#"…"#…#`.
    fn raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            self.bump();
            hashes += 1;
        }
        self.bump(); // "
        loop {
            if self.pos >= self.src.len() {
                return;
            }
            if self.bump() == b'"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(0) == b'#' {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    return;
                }
            }
        }
    }

    /// After a `'`: true when this is a lifetime/label rather than a char
    /// literal (`'a)` or `'a,` vs `'a'`).
    fn lifetime_ahead(&self) -> bool {
        if !is_ident_start(self.peek(0)) {
            return false;
        }
        let mut i = 0;
        while is_ident_continue(self.peek(i)) {
            i += 1;
        }
        self.peek(i) != b'\''
    }

    /// After the opening `'`: consumes the body and closing quote.
    fn char_body(&mut self) {
        if self.peek(0) == b'\\' {
            self.bump();
            self.bump();
            // \x7f and \u{…} escapes.
            while self.pos < self.src.len() && self.peek(0) != b'\'' {
                self.bump();
            }
        } else if self.pos < self.src.len() {
            self.bump();
        }
        if self.peek(0) == b'\'' {
            self.bump();
        }
    }

    /// Consumes a numeric literal: digits, `_`, base prefixes, suffixes,
    /// and a fractional part — without eating a `..` range operator.
    fn number(&mut self) {
        self.bump();
        loop {
            let b = self.peek(0);
            if b.is_ascii_alphanumeric() || b == b'_' {
                // 1e-3 / 0x, suffixes like u64 — all alphanumeric.
                if (b == b'e' || b == b'E')
                    && (self.peek(1) == b'+' || self.peek(1) == b'-')
                    && self.peek(2).is_ascii_digit()
                {
                    self.bump();
                    self.bump();
                }
                self.bump();
            } else if b == b'.' && self.peek(1).is_ascii_digit() {
                self.bump();
            } else {
                return;
            }
        }
    }

    /// Consumes one operator, longest-match first.
    fn punct(&mut self) {
        for op in OPS {
            let bytes = op.as_bytes();
            if self.src[self.pos..].starts_with(bytes) {
                for _ in 0..bytes.len() {
                    self.bump();
                }
                return;
            }
        }
        self.bump();
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "a.unwrap() // not code";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"quote " inside"#; x"###);
        assert_eq!(toks.last().unwrap().1, "x");
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ real");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokKind::Ident, "real".into()));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let q = '\\''; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#fn"));
    }

    #[test]
    fn multi_char_operators_munch_longest() {
        let toks = kinds("a == b != c ..= d :: e");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "..=", "::"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = kinds("0..10");
        assert_eq!(toks[0], (TokKind::Num, "0".into()));
        assert_eq!(toks[1], (TokKind::Punct, "..".into()));
        assert_eq!(toks[2], (TokKind::Num, "10".into()));
    }

    #[test]
    fn line_and_column_positions() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
