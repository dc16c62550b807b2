//! SQL lexer.
//!
//! The lexer runs once per statement a session has not seen before (and
//! on every op of the cold-planning paths), so it copies nothing out of
//! the statement: a keyword is matched in place against the keyword
//! table and carried as that table's `&'static str`, an identifier is a
//! slice of the input, a string literal is a slice of the input too
//! unless it contains a `''` escape (only then is the unescaped text
//! allocated), and every other token is a plain value. The tokens, and
//! the AST the parser builds from them, borrow the statement text.

use crate::sql::error::ParseError;
use std::borrow::Cow;

/// A lexical token, borrowing from the statement text. Keywords are
/// recognised case-insensitively and carried as the upper-case spelling
/// in the keyword table; identifiers preserve their original case.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Reserved word, as spelled (upper-case) in the keyword table:
    /// SELECT, FROM, WHERE, AND, AS, GROUP, BY, COUNT, SUM, MIN, MAX,
    /// AVG.
    Keyword(&'static str),
    /// Identifier (table, alias, or column name).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal (finite).
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(Cow<'a, str>),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semicolon,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "COUNT", "SUM", "MIN", "MAX", "AVG",
];

/// Tokenizes a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    // Always a character boundary: the loop steps over ASCII bytes and
    // whole characters.
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let next = bytes.get(i + 1).copied();
        let (token, len) = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b',' => (Token::Comma, 1),
            b'.' => (Token::Dot, 1),
            b'*' => (Token::Star, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b';' => (Token::Semicolon, 1),
            b'=' => (Token::Eq, 1),
            b'!' if next == Some(b'=') => (Token::Neq, 2),
            b'<' => match next {
                Some(b'=') => (Token::Le, 2),
                Some(b'>') => (Token::Neq, 2),
                _ => (Token::Lt, 1),
            },
            b'>' if next == Some(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'\'' => {
                let (s, end) = lex_string(input, i)?;
                (Token::Str(s), end - i)
            }
            b if b.is_ascii_digit() || (b == b'-' && next.is_some_and(|n| n.is_ascii_digit())) => {
                let (token, end) = lex_number(input, i)?;
                (token, end - i)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                    .unwrap_or(bytes.len() - i);
                let word = &input[i..i + len];
                let token = match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                    Some(&keyword) => Token::Keyword(keyword),
                    None => Token::Ident(word),
                };
                (token, len)
            }
            _ => {
                // The character that starts here, not its first byte.
                let c = input[i..].chars().next().unwrap_or('\u{FFFD}');
                return Err(ParseError::UnexpectedChar(c, i));
            }
        };
        tokens.push(token);
        i += len;
    }
    Ok(tokens)
}

/// The string literal whose opening quote is at `start`, and the offset
/// just past its closing quote. Borrowed unless it contains `''`.
fn lex_string(input: &str, start: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = input.as_bytes();
    let body = start + 1;
    let mut i = body;
    let mut escaped = false;
    // Quotes are ASCII, so a byte scan never stops inside a character.
    while let Some(q) = bytes[i..].iter().position(|&b| b == b'\'') {
        i += q;
        if bytes.get(i + 1) == Some(&b'\'') {
            // `''` escapes a single quote.
            escaped = true;
            i += 2;
        } else {
            let text = &input[body..i];
            let text = if escaped {
                Cow::Owned(text.replace("''", "'"))
            } else {
                Cow::Borrowed(text)
            };
            return Ok((text, i + 1));
        }
    }
    Err(ParseError::UnterminatedString(start))
}

fn lex_number(input: &str, start: usize) -> Result<(Token<'_>, usize), ParseError> {
    let bytes = input.as_bytes();
    let digits_from = |i: usize| {
        i + bytes[i..]
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(bytes.len() - i)
    };
    let mut i = digits_from(start + usize::from(bytes[start] == b'-'));
    let is_float = bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
    if is_float {
        i = digits_from(i + 1);
    }
    let text = &input[start..i];
    let bad = || ParseError::BadNumber(text.to_string());
    let tok = if is_float {
        // A literal too long for `f64` parses to infinity, which no
        // literal can spell: refused, like an `i64` overflow.
        let v: f64 = text.parse().map_err(|_| bad())?;
        if !v.is_finite() {
            return Err(bad());
        }
        Token::Float(v)
    } else {
        Token::Int(text.parse().map_err(|_| bad())?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = tokenize("SELECT * FROM t WHERE a.x = 3;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Star,
                Token::Keyword("FROM"),
                Token::Ident("t"),
                Token::Keyword("WHERE"),
                Token::Ident("a"),
                Token::Dot,
                Token::Ident("x"),
                Token::Eq,
                Token::Int(3),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select From wHeRe").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT"),
                Token::Keyword("FROM"),
                Token::Keyword("WHERE"),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = tokenize("< <= > >= = <> !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Neq,
                Token::Neq
            ]
        );
    }

    #[test]
    fn numbers_and_negatives() {
        let toks = tokenize("42 -7 3.25 -0.5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Float(3.25),
                Token::Float(-0.5)
            ]
        );
    }

    #[test]
    fn string_literals_with_escape() {
        let toks = tokenize("'hello' 'it''s'").unwrap();
        assert_eq!(
            toks,
            vec![Token::Str("hello".into()), Token::Str("it's".into())]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(
            tokenize("'oops"),
            Err(ParseError::UnterminatedString(0))
        ));
    }

    #[test]
    fn unexpected_char_errors() {
        assert!(matches!(
            tokenize("SELECT #"),
            Err(ParseError::UnexpectedChar('#', _))
        ));
    }

    /// A non-ASCII character is reported as itself, at the byte where
    /// it starts — not as its first byte read as a Latin-1 character.
    #[test]
    fn unexpected_non_ascii_char_is_reported_whole() {
        let err = tokenize("SELECT é FROM t").unwrap_err();
        assert_eq!(err, ParseError::UnexpectedChar('é', 7));
        assert_eq!(err.to_string(), "unexpected character `é` at byte 7");
        assert_eq!(
            tokenize("'ü' 🦀").unwrap_err(),
            ParseError::UnexpectedChar('🦀', 5)
        );
    }

    /// Identifiers and plain string literals are slices of the input;
    /// only a literal with a `''` escape owns its text.
    #[test]
    fn tokens_borrow_the_input() {
        let sql = String::from("t 'plain' 'it''s' 'ünï'");
        let toks = tokenize(&sql).unwrap();
        let Token::Ident(ident) = toks[0] else {
            panic!("an identifier: {:?}", toks[0]);
        };
        assert!(std::ptr::eq(ident, &sql[0..1]));
        assert!(matches!(&toks[1], Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[2], Token::Str(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&toks[3], Token::Str(Cow::Borrowed("ünï"))));
    }

    /// A float literal that overflows `f64` is malformed, like an `i64`
    /// overflow; one that only loses precision is not.
    #[test]
    fn overflowing_numbers_are_malformed() {
        let huge = format!("{}.5", "9".repeat(400));
        assert_eq!(tokenize(&huge), Err(ParseError::BadNumber(huge.clone())));
        assert!(matches!(
            tokenize("99999999999999999999"),
            Err(ParseError::BadNumber(_))
        ));
        assert_eq!(
            tokenize("100000000000000000000.5").unwrap(),
            vec![Token::Float(1e20)]
        );
    }

    #[test]
    fn identifiers_preserve_case() {
        let toks = tokenize("Movie_Info mi2").unwrap();
        assert_eq!(toks, vec![Token::Ident("Movie_Info"), Token::Ident("mi2")]);
    }
}
