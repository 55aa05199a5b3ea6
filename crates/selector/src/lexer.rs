//! Tokenizer for the JMS message selector syntax.
//!
//! Keywords are case-insensitive (`AND`, `and`, `And` are equivalent);
//! identifiers are case-sensitive Java identifiers; string literals use
//! single quotes with `''` as the embedded-quote escape; numeric literals
//! follow Java syntax (decimal integers, decimal floats with optional
//! exponent).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character in the input.
    pub offset: usize,
}

/// The kinds of tokens in the selector language.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Property / header identifier.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (already unescaped).
    Str(String),
    /// A reserved keyword.
    Keyword(Keyword),
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Str(s) => write!(f, "string '{s}'"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::Ne => f.write_str("`<>`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::Le => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::Ge => f.write_str("`>=`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Comma => f.write_str("`,`"),
        }
    }
}

/// Reserved words of the selector language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Keyword {
    And,
    Or,
    Not,
    Between,
    In,
    Like,
    Escape,
    Is,
    Null,
    True,
    False,
}

impl Keyword {
    /// Parses a keyword case-insensitively; `None` for ordinary identifiers.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        // JMS reserves these words regardless of case.
        const RESERVED: [(&str, Keyword); 11] = [
            ("AND", Keyword::And),
            ("OR", Keyword::Or),
            ("NOT", Keyword::Not),
            ("BETWEEN", Keyword::Between),
            ("IN", Keyword::In),
            ("LIKE", Keyword::Like),
            ("ESCAPE", Keyword::Escape),
            ("IS", Keyword::Is),
            ("NULL", Keyword::Null),
            ("TRUE", Keyword::True),
            ("FALSE", Keyword::False),
        ];
        RESERVED.iter().find(|(word, _)| s.eq_ignore_ascii_case(word)).map(|(_, keyword)| *keyword)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::Between => "BETWEEN",
            Keyword::In => "IN",
            Keyword::Like => "LIKE",
            Keyword::Escape => "ESCAPE",
            Keyword::Is => "IS",
            Keyword::Null => "NULL",
            Keyword::True => "TRUE",
            Keyword::False => "FALSE",
        };
        f.write_str(s)
    }
}

/// Error raised while tokenizing a selector string.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Splits a selector string into tokens.
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated string literals, malformed numbers
/// and characters outside the selector alphabet.
///
/// # Examples
///
/// ```
/// use rjms_selector::lexer::{tokenize, TokenKind};
/// let toks = tokenize("price >= 10.5").unwrap();
/// assert_eq!(toks.len(), 3);
/// assert_eq!(toks[1].kind, TokenKind::Ge);
/// ```
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;

    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '(' => {
                tokens.push(Token { kind: TokenKind::LParen, offset: start });
                i += 1;
            }
            ')' => {
                tokens.push(Token { kind: TokenKind::RParen, offset: start });
                i += 1;
            }
            ',' => {
                tokens.push(Token { kind: TokenKind::Comma, offset: start });
                i += 1;
            }
            '+' => {
                tokens.push(Token { kind: TokenKind::Plus, offset: start });
                i += 1;
            }
            '-' => {
                tokens.push(Token { kind: TokenKind::Minus, offset: start });
                i += 1;
            }
            '*' => {
                tokens.push(Token { kind: TokenKind::Star, offset: start });
                i += 1;
            }
            '/' => {
                tokens.push(Token { kind: TokenKind::Slash, offset: start });
                i += 1;
            }
            '=' => {
                tokens.push(Token { kind: TokenKind::Eq, offset: start });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token { kind: TokenKind::Ne, offset: start });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Le, offset: start });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Lt, offset: start });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token { kind: TokenKind::Ge, offset: start });
                    i += 2;
                } else {
                    tokens.push(Token { kind: TokenKind::Gt, offset: start });
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token { kind: TokenKind::Str(s), offset: start });
                i = next;
            }
            '0'..='9' | '.' => {
                let (kind, next) = lex_number(input, i)?;
                tokens.push(Token { kind, offset: start });
                i = next;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < bytes.len() && is_ident_continue(bytes[j] as char) {
                    j += 1;
                }
                let word = &input[i..j];
                let kind = match Keyword::from_ident(word) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(word.to_owned()),
                };
                tokens.push(Token { kind, offset: start });
                i = j;
            }
            other => {
                return Err(LexError {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(tokens)
}

/// Java identifier start: letter, `_` or `$`.
fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == '$'
}

/// Java identifier continuation: start characters plus digits.
fn is_ident_continue(c: char) -> bool {
    is_ident_start(c) || c.is_ascii_digit()
}

/// Lexes a single-quoted string literal starting at `start`; `''` is an
/// escaped quote. Returns the unescaped contents and the index just past the
/// closing quote.
fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    debug_assert_eq!(bytes[start], b'\'');
    let mut out = String::new();
    let mut i = start + 1;
    loop {
        match bytes.get(i) {
            None => {
                return Err(LexError {
                    offset: start,
                    message: "unterminated string literal".to_owned(),
                })
            }
            Some(b'\'') => {
                if bytes.get(i + 1) == Some(&b'\'') {
                    out.push('\'');
                    i += 2;
                } else {
                    return Ok((out, i + 1));
                }
            }
            Some(_) => {
                // Copy the full UTF-8 character.
                let ch = input[i..].chars().next().expect("in-bounds char");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
}

/// Lexes an integer or float literal starting at `start`.
fn lex_number(input: &str, start: usize) -> Result<(TokenKind, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    let mut saw_exp = false;
    let mut saw_digit = false;

    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => {
                saw_digit = true;
                i += 1;
            }
            b'.' if !saw_dot && !saw_exp => {
                saw_dot = true;
                i += 1;
            }
            b'e' | b'E' if saw_digit && !saw_exp => {
                saw_exp = true;
                i += 1;
                if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &input[start..i];
    if !saw_digit {
        return Err(LexError {
            offset: start,
            message: format!("malformed numeric literal `{text}`"),
        });
    }
    if saw_dot || saw_exp {
        text.parse::<f64>()
            .map(|v| (TokenKind::Float(v), i))
            .map_err(|e| LexError { offset: start, message: format!("bad float `{text}`: {e}") })
    } else {
        // Fall back to float on i64 overflow (JMS has no arbitrary precision).
        match text.parse::<i64>() {
            Ok(v) => Ok((TokenKind::Int(v), i)),
            Err(_) => text.parse::<f64>().map(|v| (TokenKind::Float(v), i)).map_err(|e| LexError {
                offset: start,
                message: format!("bad number `{text}`: {e}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_operators() {
        assert_eq!(
            kinds("= <> < <= > >= + - * / ( ) ,"),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::Comma,
            ]
        );
    }

    #[test]
    fn tokenizes_keywords_case_insensitively() {
        assert_eq!(
            kinds("and OR Not beTWEEN"),
            vec![
                TokenKind::Keyword(Keyword::And),
                TokenKind::Keyword(Keyword::Or),
                TokenKind::Keyword(Keyword::Not),
                TokenKind::Keyword(Keyword::Between),
            ]
        );
    }

    #[test]
    fn identifiers_are_case_sensitive_and_allow_underscores() {
        assert_eq!(
            kinds("Color _private $dollar x9"),
            vec![
                TokenKind::Ident("Color".into()),
                TokenKind::Ident("_private".into()),
                TokenKind::Ident("$dollar".into()),
                TokenKind::Ident("x9".into()),
            ]
        );
    }

    #[test]
    fn string_literal_with_escaped_quote() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
        assert_eq!(kinds("''"), vec![TokenKind::Str(String::new())]);
    }

    #[test]
    fn string_literal_unicode() {
        assert_eq!(kinds("'héllo→'"), vec![TokenKind::Str("héllo→".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        let err = tokenize("'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(kinds("42"), vec![TokenKind::Int(42)]);
        assert_eq!(kinds("2.5"), vec![TokenKind::Float(2.5)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("1.5E-2"), vec![TokenKind::Float(0.015)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Float(0.5)]);
    }

    #[test]
    fn huge_integer_falls_back_to_float() {
        assert_eq!(kinds("99999999999999999999"), vec![TokenKind::Float(1e20)]);
    }

    #[test]
    fn bare_dot_is_error() {
        assert!(tokenize(".").is_err());
    }

    #[test]
    fn unexpected_character_is_error() {
        let err = tokenize("a ; b").unwrap_err();
        assert_eq!(err.offset, 2);
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = tokenize("ab >= 1").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
        assert_eq!(toks[2].offset, 6);
    }

    #[test]
    fn whole_selector_example() {
        let toks = kinds("JMSPriority > 5 AND color IN ('red', 'blue')");
        assert_eq!(toks.len(), 11);
        assert_eq!(toks[0], TokenKind::Ident("JMSPriority".into()));
        assert_eq!(toks[5], TokenKind::Keyword(Keyword::In));
    }
}
