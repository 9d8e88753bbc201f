//! A small hand-rolled Rust tokenizer.
//!
//! The analyzer deliberately avoids `syn` (the workspace builds with no
//! crates.io access), and the rules it enforces are lexical properties:
//! which identifiers appear where and what string literals are passed
//! to which methods. For those questions a faithful token stream is enough — no AST, no
//! macro expansion — as long as the lexer gets the hard cases right:
//! nested block comments, raw strings, char literals vs. lifetimes, and
//! doc comments vs. plain comments.
//!
//! Tokens carry their line/column so findings can report exact spans,
//! and comments are kept *in* the stream: the allow-directive scanner
//! needs them.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident,
    /// A lifetime such as `'a` (not a char literal).
    Lifetime,
    /// Numeric literal (integer or float, suffixes included).
    Number,
    /// String literal of any flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`.
    Str,
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// A single punctuation character (`.`, `(`, `{`, `!`, …).
    Punct,
    /// `// …` comment that is *not* a doc comment.
    LineComment,
    /// `/* … */` comment that is *not* a doc comment.
    BlockComment,
    /// Outer doc comment: `/// …` or `/** … */`.
    DocComment,
    /// Inner doc comment: `//! …` or `/*! … */`.
    InnerDocComment,
}

/// One lexeme with its source position (1-based line and column).
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// The kind of lexeme.
    pub kind: TokenKind,
    /// The raw source text of the lexeme.
    pub text: &'a str,
    /// 1-based line of the first character.
    pub line: u32,
    /// 1-based column (in bytes) of the first character.
    pub col: u32,
}

impl Token<'_> {
    /// True for comment tokens of any flavor.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment
                | TokenKind::BlockComment
                | TokenKind::DocComment
                | TokenKind::InnerDocComment
        )
    }
}

/// Tokenize `src`, returning every lexeme including comments.
///
/// The lexer is resilient: malformed input (an unterminated string, a
/// stray byte) never panics — it produces a best-effort token and moves
/// on, because a linter that dies on the file it is checking is worse
/// than one that misses a token.
pub fn tokenize(src: &str) -> Vec<Token<'_>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token<'a>>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advance one byte, maintaining the line/column counters. A no-op
    /// at end of input, so multi-byte consumers (escape sequences,
    /// comment closers) can never push the cursor past the end of the
    /// source — an escape at EOF (`"\`) used to do exactly that and
    /// panic the span slice in `emit`.
    fn bump(&mut self) {
        if self.pos >= self.bytes.len() {
            return;
        }
        if self.peek(0) == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn emit(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            text: &self.src[start..self.pos],
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token<'a>> {
        while self.pos < self.bytes.len() {
            let (start, line, col) = (self.pos, self.line, self.col);
            let c = self.peek(0);
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == b'/' => {
                    let kind = match (self.peek(2), self.peek(3)) {
                        // `////…` is a plain comment by convention.
                        (b'/', b'/') => TokenKind::LineComment,
                        (b'/', _) => TokenKind::DocComment,
                        (b'!', _) => TokenKind::InnerDocComment,
                        _ => TokenKind::LineComment,
                    };
                    while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
                        self.bump();
                    }
                    self.emit(kind, start, line, col);
                }
                b'/' if self.peek(1) == b'*' => {
                    let kind = match self.peek(2) {
                        // `/**/` is empty, `/***` is decoration: plain.
                        b'*' if self.peek(3) != b'/' && self.peek(3) != b'*' => {
                            TokenKind::DocComment
                        }
                        b'!' => TokenKind::InnerDocComment,
                        _ => TokenKind::BlockComment,
                    };
                    self.bump_n(2);
                    let mut depth = 1u32;
                    while self.pos < self.bytes.len() && depth > 0 {
                        if self.peek(0) == b'/' && self.peek(1) == b'*' {
                            depth += 1;
                            self.bump_n(2);
                        } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                            depth -= 1;
                            self.bump_n(2);
                        } else {
                            self.bump();
                        }
                    }
                    self.emit(kind, start, line, col);
                }
                b'r' if self.peek(1) == b'"' || (self.peek(1) == b'#' && self.raw_str_ahead(1)) => {
                    self.bump(); // r
                    self.lex_raw_string();
                    self.emit(TokenKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'"' => {
                    self.bump(); // b
                    self.lex_quoted(b'"');
                    self.emit(TokenKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'r'
                    && (self.peek(2) == b'"'
                        || (self.peek(2) == b'#' && self.raw_str_ahead(2))) =>
                {
                    self.bump_n(2); // br
                    self.lex_raw_string();
                    self.emit(TokenKind::Str, start, line, col);
                }
                b'b' if self.peek(1) == b'\'' => {
                    self.bump(); // b
                    self.lex_quoted(b'\'');
                    self.emit(TokenKind::Char, start, line, col);
                }
                b'"' => {
                    self.lex_quoted(b'"');
                    self.emit(TokenKind::Str, start, line, col);
                }
                b'\'' => {
                    // Lifetime or char literal. A lifetime is `'ident`
                    // NOT followed by a closing quote; `'a'` is a char.
                    // The quote test looks past the whole first char, so
                    // a multi-byte `'é'` is a char too.
                    let first = self.peek(1);
                    if is_ident_start(first) && self.peek(1 + utf8_len(first)) != b'\'' {
                        self.bump(); // '
                        while is_ident_continue(self.peek(0)) {
                            self.bump();
                        }
                        self.emit(TokenKind::Lifetime, start, line, col);
                    } else {
                        self.lex_quoted(b'\'');
                        self.emit(TokenKind::Char, start, line, col);
                    }
                }
                b'0'..=b'9' => {
                    self.lex_number();
                    self.emit(TokenKind::Number, start, line, col);
                }
                c if is_ident_start(c) => {
                    // Raw identifiers (`r#match`) reach here via the
                    // `r` branch guard failing (no `"` after `#`).
                    if c == b'r' && self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
                        self.bump_n(2);
                    }
                    while is_ident_continue(self.peek(0)) {
                        self.bump();
                    }
                    self.emit(TokenKind::Ident, start, line, col);
                }
                _ => {
                    self.bump();
                    self.emit(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    /// After an `r` at offset `at`, is `#…#"` ahead (a raw string with
    /// hash guards rather than a raw identifier)?
    fn raw_str_ahead(&self, at: usize) -> bool {
        let mut i = at;
        while self.peek(i) == b'#' {
            i += 1;
        }
        self.peek(i) == b'"'
    }

    /// Lex a `"…"`-or-`'…'` literal with escapes; cursor on the opening
    /// quote.
    fn lex_quoted(&mut self, quote: u8) {
        self.bump(); // opening quote
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => self.bump_n(2),
                c if c == quote => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Lex `#…#"…"#…#`; cursor on the first `#` or the `"`.
    fn lex_raw_string(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        while self.pos < self.bytes.len() {
            if self.peek(0) == b'"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek(1 + i) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }

    fn lex_number(&mut self) {
        // Integer part: digits, radix prefixes, `_`, hex letters, and
        // type suffixes all fall under "alphanumeric or underscore".
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        // Fractional part only when a digit follows the dot — `1.max()`
        // and `0..n` must not swallow the dot.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.bump();
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
        }
        // Exponent sign (`1e-9`): the `e` was consumed above; a sign
        // followed by digits continues the literal.
        if (self.peek(0) == b'+' || self.peek(0) == b'-')
            && self.peek(1).is_ascii_digit()
            && self.src[..self.pos]
                .bytes()
                .last()
                .is_some_and(|b| b == b'e' || b == b'E')
        {
            self.bump();
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Byte length of the UTF-8 char whose first byte is `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let toks = kinds("let x = 42;");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "="),
                (TokenKind::Number, "42"),
                (TokenKind::Punct, ";"),
            ]
        );
    }

    #[test]
    fn method_on_number_does_not_eat_dot() {
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokenKind::Number, "1"));
        assert_eq!(toks[1], (TokenKind::Punct, "."));
        assert_eq!(toks[2], (TokenKind::Ident, "max"));
    }

    #[test]
    fn floats_and_exponents() {
        let toks = kinds("3.25 1e-9 0x1f 1_000u64");
        assert_eq!(
            toks.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![TokenKind::Number; 4]
        );
        assert_eq!(toks[1].1, "1e-9");
    }

    #[test]
    fn comment_flavors() {
        let toks = kinds("// c\n/// d\n//! i\n/* b */ /** db */ code");
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::DocComment);
        assert_eq!(toks[2].0, TokenKind::InnerDocComment);
        assert_eq!(toks[3].0, TokenKind::BlockComment);
        assert_eq!(toks[4].0, TokenKind::DocComment);
        assert_eq!(toks[5], (TokenKind::Ident, "code"));
    }

    #[test]
    fn nested_block_comment() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }

    #[test]
    fn strings_with_escapes_and_raw() {
        let toks = kinds(r####""a\"b" r"c" r#"d"e"# b"f" 'g' '\n' b'h'"####);
        assert_eq!(
            toks.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![
                TokenKind::Str,
                TokenKind::Str,
                TokenKind::Str,
                TokenKind::Str,
                TokenKind::Char,
                TokenKind::Char,
                TokenKind::Char,
            ]
        );
        assert_eq!(toks[2].1, r##"r#"d"e"#"##);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("&'a str 'x' '_'");
        assert_eq!(toks[1], (TokenKind::Lifetime, "'a"));
        assert_eq!(toks[3], (TokenKind::Char, "'x'"));
        // `'_'` is a char-sized token; either reading is fine for the
        // rules, but it must not panic or desync the stream.
        assert!(toks.len() >= 4);
    }

    #[test]
    fn multibyte_char_literals_are_chars() {
        // `'é'` is two UTF-8 bytes and `'→'` three: the closing quote
        // sits past the first char, not at byte offset 2.
        let toks = kinds("'é' '→' x");
        assert_eq!(toks[0], (TokenKind::Char, "'é'"));
        assert_eq!(toks[1], (TokenKind::Char, "'→'"));
        assert_eq!(toks[2], (TokenKind::Ident, "x"));
        let toks = kinds("&'a T &'static str '_'");
        assert_eq!(toks[1], (TokenKind::Lifetime, "'a"));
        assert_eq!(toks[4], (TokenKind::Lifetime, "'static"));
        assert_eq!(toks[6], (TokenKind::Char, "'_'"));
    }

    #[test]
    fn comment_containing_code_is_inert() {
        // A doc example mentioning `.unwrap()` must stay inside the
        // comment token, not leak `unwrap` into the ident stream.
        let toks = kinds("/// let x = y.unwrap();\nfn f() {}");
        assert_eq!(toks[0].0, TokenKind::DocComment);
        assert_eq!(toks[1], (TokenKind::Ident, "fn"));
    }

    #[test]
    fn positions_track_lines_and_columns() {
        let toks = tokenize("a\n  bb\ncc");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!((toks[2].line, toks[2].col), (3, 1));
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let toks = kinds("\"never closed");
        assert_eq!(toks[0].0, TokenKind::Str);
    }

    #[test]
    fn escape_at_eof_does_not_panic() {
        // `"\` — the escape consumes two bytes but only one remains.
        for src in ["\"\\", "'\\", "b\"\\", "fn f() { let s = \"abc\\"] {
            let toks = tokenize(src);
            assert!(!toks.is_empty(), "no tokens for {src:?}");
            for t in &toks {
                assert!(t.text.len() <= src.len());
            }
        }
    }

    #[test]
    fn raw_string_contents_stay_inside_the_token() {
        // Sink-looking text inside raw strings must never leak into the
        // ident stream where a rule could see it.
        let src = r####"let a = r"Instant::now()"; let b = r#"x.unwrap() /* { "#; let c = 1;"####;
        let toks = tokenize(src);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(idents, vec!["let", "a", "let", "b", "let", "c"]);
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(strs.len(), 2, "{strs:?}");
        assert!(strs[0].contains("Instant"));
        assert!(strs[1].contains("unwrap"));
    }

    #[test]
    fn raw_string_with_more_hashes_than_needed() {
        let src = r#####"r###"a "# b "## c"### x"#####;
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }

    #[test]
    fn nested_block_comment_with_quotes_inside() {
        // Block comments nest regardless of quote characters inside
        // them (rustc behaves the same way): the `"` before the inner
        // `/*` must not suspend depth tracking.
        let toks = kinds("/* \" /* \" */ still comment */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokenKind::Ident, "code"));
    }

    #[test]
    fn byte_raw_string() {
        let toks = kinds(r###"br#"x " y"# z"###);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1], (TokenKind::Ident, "z"));
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("r#match x");
        assert_eq!(toks[0], (TokenKind::Ident, "r#match"));
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }
}
