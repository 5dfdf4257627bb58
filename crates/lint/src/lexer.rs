//! A minimal Rust lexer: just enough to lint reliably.
//!
//! The workspace has no registry crates, so `nls-lint` cannot use
//! `syn` and carries its own tokenizer. It does *not* parse Rust — it
//! produces a flat token stream in which comments and literal contents
//! can no longer be confused with code, which is the property every
//! rule in [`crate::rules`] depends on. Handled: line and (nested)
//! block comments, string/char/byte/raw-string literals, raw
//! identifiers, lifetimes vs. char literals, and numeric literals
//! (including `1.0..2.0`, where the second `.` must not be eaten).

/// What a token is; rules match on this plus the token text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `as`, `fn`, `mod`, ...).
    Ident,
    /// Numeric literal, with any suffix (`0xff_u32`, `1.5e3`).
    Number,
    /// String-ish literal: `"…"`, `b"…"`, `r#"…"#`, `br"…"`. The
    /// token text is the literal's raw content (quotes stripped,
    /// escapes left as written) so checks can match paths mentioned
    /// in strings (`fs-durability`'s `results/`); it is never an
    /// `Ident`, so no code-matching rule can confuse it with code.
    Str,
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// Lifetime: `'a` (also the loop-label form).
    Lifetime,
    /// A single punctuation character (`.`, `[`, `!`, `&`, ...).
    Punct,
    /// A whole comment, text included (`// …` or `/* … */`).
    Comment,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True for a punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct
            && self.text.len() == c.len_utf8()
            && self.text.starts_with(c)
    }

    /// True for an identifier token equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// Tokenizes `src`, keeping comments (rules that parse suppression
/// annotations need them; code-matching rules skip them).
pub fn tokenize(src: &str) -> Vec<Tok> {
    Lexer { chars: src.char_indices().collect(), pos: 0, line: 1, toks: Vec::new() }.run(src)
}

struct Lexer {
    chars: Vec<(usize, char)>,
    pos: usize,
    line: u32,
    toks: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.toks.push(Tok { kind, text, line });
    }

    fn run(mut self, src: &str) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, '"'),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line, '"');
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_lit(line);
                }
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(line),
                '\'' => self.lifetime_or_char(line),
                _ if c == '_' || c.is_alphabetic() => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        let _ = src;
        self.toks
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Comment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::Comment, text, line);
    }

    fn string(&mut self, line: u32, quote: char) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
            } else if c == quote {
                break;
            } else {
                text.push(c);
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// At `r`/`b`: is this the start of `r"`, `r#"`, `br"`, `br#"`?
    fn raw_string_ahead(&self) -> bool {
        let mut i = 1;
        if self.peek(0) == Some('b') {
            if self.peek(1) != Some('r') {
                return false;
            }
            i = 2;
        }
        loop {
            match self.peek(i) {
                Some('#') => i += 1,
                Some('"') => return true,
                _ => return false,
            }
        }
    }

    fn raw_string(&mut self, line: u32) {
        // Consume r/br, count hashes, then scan to `"` + same hashes.
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        text.push('"');
                        for _ in 0..k {
                            text.push('#');
                            self.bump();
                        }
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_lit(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '\'' {
                break;
            }
        }
        self.push(TokKind::Char, String::new(), line);
    }

    fn lifetime_or_char(&mut self, line: u32) {
        // `'a` / `'static` are lifetimes unless a closing quote
        // follows ( `'a'` ), which makes it a char literal.
        let next = self.peek(1);
        let is_lifetime = matches!(next, Some(c) if c == '_' || c.is_alphabetic())
            && self.peek(2) != Some('\'');
        if !is_lifetime {
            self.char_lit(line);
            return;
        }
        self.bump(); // '
        let mut text = String::from("'");
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Lifetime, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        // Raw identifier prefix `r#foo` (the `#` case only arises via
        // `raw_string_ahead` returning false, i.e. `r#ident`).
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '.' {
                // `1.5` continues the number; `1..n` does not.
                if self.peek(1) == Some('.') {
                    break;
                }
                if !matches!(self.peek(1), Some(d) if d.is_ascii_digit()) {
                    break;
                }
                text.push(c);
                self.bump();
            } else if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Number, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let toks = kinds(r#"let s = "x.unwrap()"; // y.unwrap()"#);
        assert!(
            !toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unwrap"),
            "no unwrap ident may leak from literals or comments: {toks:?}"
        );
    }

    #[test]
    fn nested_block_comments_terminate() {
        let toks = kinds("/* a /* b */ c */ fn x() {}");
        assert_eq!(toks[0].0, TokKind::Comment);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "fn"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"a " b.unwrap()"# ; done"###);
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "done"));
        assert!(!toks.iter().any(|(_, t)| t == "unwrap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Char));
    }

    #[test]
    fn float_range_splits_correctly() {
        let toks = kinds("0.6..=1.6");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Number)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(nums, ["0.6", "1.6"]);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = tokenize("a\nb\n  c");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 3]);
    }

    #[test]
    fn byte_and_escaped_literals() {
        let toks = kinds(r#"(b"magic\"x", b'\'', '\u{1F600}')"#);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }
}
