//! SQL lexer.
//!
//! The lexer runs once per statement template a session has not seen
//! before (and on every op of the cold-planning paths), so it copies
//! nothing out of the statement: a keyword is matched in place against
//! the keyword table and carried as that table's `&'static str`, an
//! identifier is a slice of the input, a string literal is a slice of
//! the input too unless it contains a `''` escape (only then is the
//! unescaped text allocated), and every other token is a plain value.
//! The tokens, and the AST the parser builds from them, borrow the
//! statement text. The statement cache's key, the text's shape
//! ([`tokenize_with_shape`]), is written down in the same pass; a text's
//! spelling ([`blank_literals`]) needs no lex at all.

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

/// Whether a byte may start a literal: a digit, a quote or `-`.
static LITERAL: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_digit() || c == b'\'' || c == b'-';
        b += 1;
    }
    table
};

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "COUNT", "SUM", "MIN", "MAX", "AVG",
];

/// Whether a byte continues a word: an identifier or a keyword.
fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, ParseError> {
    lex(input, &mut ())
}

/// [`tokenize`], and the text's *shape*: its token stream with every
/// literal reduced to its kind, written down as it is lexed. Each token
/// is one tag byte below `b'0'`, followed, for a keyword or an
/// identifier, by its bytes (a keyword's upper-case spelling). Words are
/// ASCII letters, digits and `_`, so a word ends where the next tag
/// starts: two texts have one shape exactly when their tokens are equal
/// but for literal values. Whitespace and keyword case never reach it;
/// identifiers (aliases included), operators, punctuation, predicate
/// order and each literal's kind all do.
pub fn tokenize_with_shape(input: &str) -> Result<(Vec<Token<'_>>, Vec<u8>), ParseError> {
    // A tag and one byte for `a.b`-like runs: at most two bytes a byte.
    let mut shape = Vec::with_capacity(2 * input.len());
    let tokens = lex(input, &mut shape)?;
    Ok((tokens, shape))
}

/// A text's *spelling* and its literal tokens, found without lexing
/// the rest of the text: the text's bytes with every literal replaced
/// by `0xFF` and its kind (`0` int, `1` float, `2` string), and the
/// literals in order. `0xFF` is in no UTF-8 text, so the spelling tells
/// where each literal was. A literal starts where the lexer starts one:
/// at a quote, at `-` before a digit, and at a digit that does not
/// continue a word; strings and numbers are read as the lexer reads
/// them. So when a text lexes, this finds exactly its literal tokens,
/// and any text with the same spelling lexes to the same tokens but for
/// literal values. The shape ([`tokenize_with_shape`]) also forgets
/// spacing and keyword case; a spelling is exact, and costs one pass
/// over the bytes instead of a lex.
///
/// An error here is a literal the lexer would refuse too, unless it
/// stops earlier: ask [`tokenize`] what is wrong with the text.
pub fn blank_literals(input: &str) -> Result<(Vec<u8>, Vec<Token<'_>>), ParseError> {
    let bytes = input.as_bytes();
    let mut spelling = Vec::with_capacity(input.len() + 8);
    let mut literals = Vec::new();
    // `bytes[copied..i]` is yet to be copied into `spelling`.
    let (mut copied, mut i) = (0, 0);
    while let Some(&b) = bytes.get(i) {
        // Most of a text is words, spaces and punctuation: eight bytes
        // with no digit, quote or `-` are passed over at once.
        if let Some(chunk) = bytes.get(i..i + 8) {
            if !chunk
                .iter()
                .fold(false, |any, &b| any | LITERAL[usize::from(b)])
            {
                i += 8;
                continue;
            }
        }
        // A number's digits are all read with it, so a digit after a
        // word byte continues a word.
        let number = (b.is_ascii_digit() && !(i > 0 && is_word(bytes[i - 1])))
            || (b == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        if !(number || b == b'\'') {
            i += 1;
            continue;
        }
        let (token, end, kind) = if number {
            let (token, end) = lex_number(input, i)?;
            let kind = if matches!(token, Token::Int(_)) { 0 } else { 1 };
            (token, end, kind)
        } else {
            let (s, end) = lex_string(input, i)?;
            (Token::Str(s), end, 2)
        };
        spelling.extend_from_slice(&bytes[copied..i]);
        spelling.extend_from_slice(&[0xFF, kind]);
        literals.push(token);
        (copied, i) = (end, end);
    }
    spelling.extend_from_slice(&bytes[copied..]);
    Ok((spelling, literals))
}

/// Where the lexer writes a text's shape: nowhere, for [`tokenize`], or
/// into bytes, for [`tokenize_with_shape`]. The lexer calls it where it
/// already knows which token it made, so a shape costs no second pass
/// over the tokens.
trait Shape {
    fn token(&mut self, tag: u8, word: &str);
}

impl Shape for () {
    #[inline(always)]
    fn token(&mut self, _: u8, _: &str) {}
}

impl Shape for Vec<u8> {
    #[inline(always)]
    fn token(&mut self, tag: u8, word: &str) {
        self.push(tag);
        self.extend_from_slice(word.as_bytes());
    }
}

/// The tokens of `input`, with each one's tag and word handed to
/// `shape` as it is made.
#[inline(always)]
fn lex<'a>(input: &'a str, shape: &mut impl Shape) -> Result<Vec<Token<'a>>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    // Always a character boundary: the loop steps over ASCII bytes and
    // whole characters.
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let next = bytes.get(i + 1).copied();
        // (token, bytes it spans, shape tag, shape word)
        let (token, len, tag, word) = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
                continue;
            }
            b',' => (Token::Comma, 1, 5, ""),
            b'.' => (Token::Dot, 1, 6, ""),
            b'*' => (Token::Star, 1, 7, ""),
            b'(' => (Token::LParen, 1, 8, ""),
            b')' => (Token::RParen, 1, 9, ""),
            b';' => (Token::Semicolon, 1, 10, ""),
            b'=' => (Token::Eq, 1, 11, ""),
            b'!' if next == Some(b'=') => (Token::Neq, 2, 12, ""),
            b'<' => match next {
                Some(b'=') => (Token::Le, 2, 14, ""),
                Some(b'>') => (Token::Neq, 2, 12, ""),
                _ => (Token::Lt, 1, 13, ""),
            },
            b'>' if next == Some(b'=') => (Token::Ge, 2, 16, ""),
            b'>' => (Token::Gt, 1, 15, ""),
            b'\'' => {
                let (s, end) = lex_string(input, i)?;
                (Token::Str(s), end - i, 4, "")
            }
            b if b.is_ascii_digit() || (b == b'-' && next.is_some_and(|n| n.is_ascii_digit())) => {
                let (token, end) = lex_number(input, i)?;
                let tag = if matches!(token, Token::Int(_)) { 2 } else { 3 };
                (token, end - i, tag, "")
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !is_word(b))
                    .unwrap_or(bytes.len() - i);
                let word = &input[i..i + len];
                match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                    Some(&keyword) => (Token::Keyword(keyword), len, 0, keyword),
                    None => (Token::Ident(word), len, 1, word),
                }
            }
            _ => {
                // The character that starts here, not its first byte.
                let c = input[i..].chars().next().unwrap_or('\u{FFFD}');
                return Err(ParseError::UnexpectedChar(c, i));
            }
        };
        shape.token(tag, word);
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

    /// The shape forgets literal values, spacing and keyword case, and
    /// keeps everything else; the tokens are [`tokenize`]'s.
    #[test]
    fn the_shape_is_blind_to_literal_values_spacing_and_keyword_case_only() {
        let shape = |sql: &str| {
            let (tokens, shape) = tokenize_with_shape(sql).unwrap();
            assert_eq!(tokens, tokenize(sql).unwrap(), "{sql}");
            shape
        };
        let sql = "SELECT COUNT(*) FROM t a WHERE a.x = 3 AND a.y < 2.5 AND a.z = 'p'";
        for same in [
            "SELECT COUNT(*) FROM t a WHERE a.x = -70 AND a.y < 0.0 AND a.z = 'it''s'",
            "select count ( * )\n from t a\twhere a.x=3 and a.y<2.5 and a.z='p'",
        ] {
            assert_eq!(shape(same), shape(sql), "{same}");
        }
        for other in [
            "SELECT COUNT(*) FROM t b WHERE b.x = 3 AND b.y < 2.5 AND b.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.w = 3 AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.x = 3.0 AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.x = '3' AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.x <= 3 AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.x <> 3 AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM T a WHERE a.x = 3 AND a.y < 2.5 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.y < 2.5 AND a.x = 3 AND a.z = 'p'",
            "SELECT COUNT(*) FROM t a WHERE a.x = 3 AND a.y < 2.5 AND a.z = 'p';",
            "SELECT MIN(a.x) FROM t a WHERE a.x = 3 AND a.y < 2.5 AND a.z = 'p'",
        ] {
            assert_ne!(shape(other), shape(sql), "{other}");
        }
        // `<>` and `!=` are one token; adjacent words cannot run
        // together into another shape.
        assert_eq!(shape("a <> 1"), shape("a != 2"));
        assert_ne!(shape("ab c"), shape("a bc"));
        assert_ne!(shape("AS x"), shape("ASx"));
        assert_eq!(shape(""), Vec::<u8>::new());
        assert!(tokenize_with_shape("a #").is_err());
    }

    /// The literals `tokenize` finds, in order.
    fn literal_tokens(sql: &str) -> Vec<Token<'_>> {
        tokenize(sql)
            .unwrap()
            .into_iter()
            .filter(|t| matches!(t, Token::Int(_) | Token::Float(_) | Token::Str(_)))
            .collect()
    }

    /// The spelling blanks exactly the lexer's literals — numbers after
    /// words, strings and other numbers, and not the digits of an
    /// identifier — and keeps every other byte.
    #[test]
    fn the_spelling_blanks_exactly_the_lexers_literals() {
        for sql in [
            "SELECT COUNT(*) FROM t a0 WHERE a0.x = 3 AND a0.y < -2.5 AND a0.z = 'p''q'",
            "a1.b2=3",
            "x-4",
            "3-4",
            "12ab3 1.x 1.5.6 .5",
            "'x'5 '' 'a''' -7",
            "_9 'é' 9",
            "",
        ] {
            let (spelling, literals) = blank_literals(sql).unwrap();
            assert_eq!(literals, literal_tokens(sql), "{sql}");
            let marks = spelling.iter().filter(|&&b| b == 0xFF).count();
            assert_eq!(marks, literals.len(), "{sql}");
        }
        let (spelling, _) = blank_literals("a.x = 3 AND a.y < 2.5 AND a.z = 'p'").unwrap();
        assert_eq!(
            spelling,
            b"a.x = \xff\x00 AND a.y < \xff\x01 AND a.z = \xff\x02".to_vec()
        );
        let spelled = |sql| blank_literals(sql).unwrap().0;
        assert_eq!(
            spelled("a = 1 AND b = 'x'"),
            spelled("a = -20 AND b = 'it''s'")
        );
        assert_ne!(spelled("a = 1"), spelled("a = 1.0"));
        assert_ne!(spelled("a = 1"), spelled("a  = 1"), "spacing is spelling");
        assert_ne!(spelled("a = 1"), spelled("A = 1"));
        // Refused literals are refused here too.
        assert!(blank_literals("a = 'open").is_err());
        assert!(blank_literals("a = 99999999999999999999").is_err());
    }

    #[test]
    fn identifiers_preserve_case() {
        let toks = tokenize("Movie_Info mi2").unwrap();
        assert_eq!(toks, vec![Token::Ident("Movie_Info"), Token::Ident("mi2")]);
    }
}
