//! The Qutes lexer (hand-written; replaces the ANTLR-generated lexer of
//! the reference implementation).
//!
//! Quantum literal forms handled here:
//! * `5q` — quantum integer ([`TokenKind::Quint`]),
//! * `"0101"q` — quantum bitstring ([`TokenKind::Qustring`]),
//! * `|0> |1> |+> |->` — ket literals,
//! * `]q` — closes a quantum array literal `[a, b, ...]q`.

use crate::diag::Diagnostic;
use crate::span::Span;
use crate::token::{KetState, Token, TokenKind};

/// Lexes a full source file. Returns all tokens (ending with `Eof`) or the
/// first lexical error.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<u8> {
        self.src.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// The source text from `start` to the current position.
    fn text(&self, start: usize) -> Result<&'a str, Diagnostic> {
        let span = Span::new(start, self.pos);
        let bytes = self.src.get(start..self.pos);
        bytes
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| Diagnostic::error("token is not valid UTF-8", span))
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let open = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(Diagnostic::error(
                                    "unterminated block comment",
                                    Span::new(open, self.pos),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn run(mut self) -> Result<Vec<Token>, Diagnostic> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::point(self.pos),
                });
                return Ok(out);
            };
            let kind = match b {
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(start)?,
                b'|' => {
                    // Ket literal `|x>` or logical-or `||`.
                    if let Some(k) = self.try_ket() {
                        k
                    } else if self.peek2() == Some(b'|') {
                        self.pos += 2;
                        TokenKind::OrOr
                    } else {
                        return Err(Diagnostic::error(
                            "expected ket literal (|0>, |1>, |+>, |->) or '||'",
                            Span::new(start, start + 1),
                        ));
                    }
                }
                b'&' if self.peek2() == Some(b'&') => {
                    self.pos += 2;
                    TokenKind::AndAnd
                }
                b'(' => {
                    self.pos += 1;
                    TokenKind::LParen
                }
                b')' => {
                    self.pos += 1;
                    TokenKind::RParen
                }
                b'{' => {
                    self.pos += 1;
                    TokenKind::LBrace
                }
                b'}' => {
                    self.pos += 1;
                    TokenKind::RBrace
                }
                b'[' => {
                    self.pos += 1;
                    TokenKind::LBracket
                }
                b']' => {
                    // `]q` closes a quantum array literal when the `q` is
                    // not the start of a longer identifier.
                    if self.peek2() == Some(b'q')
                        && !self
                            .peek3()
                            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.pos += 2;
                        TokenKind::RBracketQ
                    } else {
                        self.pos += 1;
                        TokenKind::RBracket
                    }
                }
                b',' => {
                    self.pos += 1;
                    TokenKind::Comma
                }
                b';' => {
                    self.pos += 1;
                    TokenKind::Semicolon
                }
                b'=' => {
                    if self.peek2() == Some(b'=') {
                        self.pos += 2;
                        TokenKind::Eq
                    } else {
                        self.pos += 1;
                        TokenKind::Assign
                    }
                }
                b'!' => {
                    if self.peek2() == Some(b'=') {
                        self.pos += 2;
                        TokenKind::Ne
                    } else {
                        self.pos += 1;
                        TokenKind::Bang
                    }
                }
                b'<' => match (self.peek2(), self.peek3()) {
                    (Some(b'<'), Some(b'=')) => {
                        self.pos += 3;
                        TokenKind::ShlAssign
                    }
                    (Some(b'<'), _) => {
                        self.pos += 2;
                        TokenKind::Shl
                    }
                    (Some(b'='), _) => {
                        self.pos += 2;
                        TokenKind::Le
                    }
                    _ => {
                        self.pos += 1;
                        TokenKind::Lt
                    }
                },
                b'>' => match (self.peek2(), self.peek3()) {
                    (Some(b'>'), Some(b'=')) => {
                        self.pos += 3;
                        TokenKind::ShrAssign
                    }
                    (Some(b'>'), _) => {
                        self.pos += 2;
                        TokenKind::Shr
                    }
                    (Some(b'='), _) => {
                        self.pos += 2;
                        TokenKind::Ge
                    }
                    _ => {
                        self.pos += 1;
                        TokenKind::Gt
                    }
                },
                b'+' => {
                    if self.peek2() == Some(b'=') {
                        self.pos += 2;
                        TokenKind::PlusAssign
                    } else {
                        self.pos += 1;
                        TokenKind::Plus
                    }
                }
                b'-' => {
                    if self.peek2() == Some(b'=') {
                        self.pos += 2;
                        TokenKind::MinusAssign
                    } else {
                        self.pos += 1;
                        TokenKind::Minus
                    }
                }
                b'*' => {
                    self.pos += 1;
                    TokenKind::Star
                }
                b'/' => {
                    self.pos += 1;
                    TokenKind::Slash
                }
                b'%' => {
                    self.pos += 1;
                    TokenKind::Percent
                }
                other => {
                    return Err(Diagnostic::error(
                        format!("unexpected character '{}'", other as char),
                        Span::new(start, start + 1),
                    ))
                }
            };
            out.push(Token {
                kind,
                span: Span::new(start, self.pos),
            });
        }
    }

    /// Attempts to lex `|0>`, `|1>`, `|+>`, `|->`. Leaves `pos` untouched
    /// on failure.
    fn try_ket(&mut self) -> Option<TokenKind> {
        let state = match self.peek2()? {
            b'0' => KetState::Zero,
            b'1' => KetState::One,
            b'+' => KetState::Plus,
            b'-' => KetState::Minus,
            _ => return None,
        };
        if self.peek3() == Some(b'>') {
            self.pos += 3;
            Some(TokenKind::Ket(state))
        } else {
            None
        }
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, Diagnostic> {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        // Float: digits '.' digits
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let text = self.text(start)?;
            let v: f64 = text.parse().map_err(|_| {
                Diagnostic::error(
                    format!("invalid float literal '{text}'"),
                    Span::new(start, self.pos),
                )
            })?;
            return Ok(TokenKind::Float(v));
        }
        let text = self.text(start)?;
        // Quantum integer: digits immediately followed by a lone 'q'.
        if self.peek() == Some(b'q')
            && !self
                .peek2()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
            let v: u64 = text.parse().map_err(|_| {
                Diagnostic::error(
                    format!("quint literal '{text}q' out of range"),
                    Span::new(start, self.pos),
                )
            })?;
            return Ok(TokenKind::Quint(v));
        }
        if self
            .peek()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
        {
            return Err(Diagnostic::error(
                format!("invalid suffix on number literal '{text}'"),
                Span::new(start, self.pos + 1),
            ));
        }
        let v: i64 = text.parse().map_err(|_| {
            Diagnostic::error(
                format!("integer literal '{text}' out of range"),
                Span::new(start, self.pos),
            )
        })?;
        Ok(TokenKind::Int(v))
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, Diagnostic> {
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => value.push('\n'),
                    Some(b't') => value.push('\t'),
                    Some(b'\\') => value.push('\\'),
                    Some(b'"') => value.push('"'),
                    Some(other) => {
                        return Err(Diagnostic::error(
                            format!("unknown escape '\\{}'", other as char),
                            Span::new(self.pos - 2, self.pos),
                        ))
                    }
                    None => {
                        return Err(Diagnostic::error(
                            "unterminated string literal",
                            Span::new(start, self.pos),
                        ))
                    }
                },
                Some(b'\n') | None => {
                    return Err(Diagnostic::error(
                        "unterminated string literal",
                        Span::new(start, self.pos),
                    ))
                }
                Some(other) => value.push(other as char),
            }
        }
        // Quantum bitstring: closing quote immediately followed by lone 'q'.
        if self.peek() == Some(b'q')
            && !self
                .peek2()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
            if !value.chars().all(|c| c == '0' || c == '1') {
                return Err(Diagnostic::error(
                    "qustring literals are restricted to bitstrings of 0s and 1s \
                     (current hardware constraint, paper §4)",
                    Span::new(start, self.pos),
                ));
            }
            return Ok(TokenKind::Qustring(value));
        }
        Ok(TokenKind::Str(value))
    }

    fn ident(&mut self, start: usize) -> Result<TokenKind, Diagnostic> {
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        let word = self.text(start)?;
        Ok(TokenKind::keyword(word).unwrap_or_else(|| TokenKind::Ident(word.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .filter(|k| *k != Eof)
            .collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![KwInt, Ident("x".into()), Assign, Int(42), Semicolon]
        );
    }

    #[test]
    fn lexes_quantum_literals() {
        assert_eq!(kinds("5q"), vec![Quint(5)]);
        assert_eq!(kinds("0q 1q"), vec![Quint(0), Quint(1)]);
        assert_eq!(kinds("\"0101\"q"), vec![Qustring("0101".into())]);
        assert_eq!(
            kinds("|0> |1> |+> |->"),
            vec![
                Ket(KetState::Zero),
                Ket(KetState::One),
                Ket(KetState::Plus),
                Ket(KetState::Minus)
            ]
        );
    }

    #[test]
    fn quantum_array_literal_close() {
        assert_eq!(
            kinds("[1, 2]q"),
            vec![LBracket, Int(1), Comma, Int(2), RBracketQ]
        );
        // `]qx` is a plain bracket followed by identifier `qx`.
        assert_eq!(
            kinds("[1]qx"),
            vec![LBracket, Int(1), RBracket, Ident("qx".into())]
        );
    }

    #[test]
    fn q_suffix_requires_word_boundary() {
        // `5quack` is an error (invalid suffix), not Quint(5) + "uack".
        assert!(lex("5quack").is_err());
        // `q5` is just an identifier.
        assert_eq!(kinds("q5"), vec![Ident("q5".into())]);
    }

    #[test]
    fn floats_and_ints() {
        assert_eq!(kinds("1.5 2 0.25"), vec![Float(1.5), Int(2), Float(0.25)]);
    }

    #[test]
    fn dot_alone_is_error() {
        assert!(lex(".").is_err());
        assert!(lex("1 .").is_err());
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("<<= >>= << >> <= >= < > == != = ! && ||"),
            vec![
                ShlAssign, ShrAssign, Shl, Shr, Le, Ge, Lt, Gt, Eq, Ne, Assign, Bang, AndAnd, OrOr
            ]
        );
        assert_eq!(
            kinds("+= -= + -"),
            vec![PlusAssign, MinusAssign, Plus, Minus]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("int x; // comment\n/* block\ncomment */ int y;"),
            vec![
                KwInt,
                Ident("x".into()),
                Semicolon,
                KwInt,
                Ident("y".into()),
                Semicolon
            ]
        );
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds(r#""a\nb\"c""#), vec![Str("a\nb\"c".into())]);
        assert!(lex("\"unterminated").is_err());
        assert!(lex(r#""bad \x escape""#).is_err());
    }

    #[test]
    fn qustring_must_be_bits() {
        assert!(lex("\"01a\"q").is_err());
        assert_eq!(kinds("\"0011\"q"), vec![Qustring("0011".into())]);
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("quint quintx hadamard hadamards"),
            vec![
                KwQuint,
                Ident("quintx".into()),
                KwHadamard,
                Ident("hadamards".into())
            ]
        );
    }

    #[test]
    fn lone_pipe_is_error_but_oror_ok() {
        assert!(lex("a | b").is_err());
        assert_eq!(kinds("a || b").len(), 3);
    }

    #[test]
    fn spans_are_correct() {
        let toks = lex("int  xy = 3;").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(5, 7));
        assert_eq!(toks[3].span, Span::new(10, 11));
    }

    #[test]
    fn unexpected_character_reports_position() {
        let err = lex("int x = @;").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.span.start, 8);
    }

    #[test]
    fn ket_in_expression_context() {
        // `a|0>` would be ket after ident — ensure the ket lexes.
        assert_eq!(
            kinds("qubit k = |+>;"),
            vec![
                KwQubit,
                Ident("k".into()),
                Assign,
                Ket(KetState::Plus),
                Semicolon
            ]
        );
    }
}
