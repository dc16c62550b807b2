//! SQL lexer.
//!
//! The lexer runs once per statement a session has not seen before (and
//! on every op of the cold-planning paths), so it allocates only what
//! the parser goes on to own: a keyword is matched in place against
//! the keyword table and carried as that table's `&'static str`, an
//! identifier or string literal is copied out of the input exactly once
//! (the parser moves that `String` into the AST), and every other token
//! is a plain value.

use crate::error::ParseError;

/// A lexical token. Keywords are recognised case-insensitively and carried
/// as the upper-case spelling in the keyword table; identifiers preserve
/// their original case.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Reserved word, as spelled (upper-case) in the keyword table:
    /// SELECT, FROM, WHERE, AND, AS, GROUP, BY, COUNT, SUM, MIN, MAX,
    /// AVG.
    Keyword(&'static str),
    /// Identifier (table, alias, or column name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
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
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Neq);
                    i += 2;
                } else {
                    return Err(ParseError::UnexpectedChar('!', i));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token::Le);
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token::Neq);
                    i += 2;
                }
                _ => {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            c if c.is_ascii_digit() || (c == '-' && starts_number(bytes, i)) => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                tokens.push(
                    match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(word)) {
                        Some(&keyword) => Token::Keyword(keyword),
                        None => Token::Ident(word.to_string()),
                    },
                );
            }
            other => return Err(ParseError::UnexpectedChar(other, i)),
        }
    }
    Ok(tokens)
}

fn starts_number(bytes: &[u8], i: usize) -> bool {
    bytes
        .get(i + 1)
        .is_some_and(|b| (*b as char).is_ascii_digit())
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            // `''` escapes a single quote.
            if bytes.get(i + 1) == Some(&b'\'') {
                s.push('\'');
                i += 2;
            } else {
                return Ok((s, i + 1));
            }
        } else {
            // Push the whole UTF-8 character, not just the byte.
            let ch = input[i..]
                .chars()
                .next()
                .ok_or(ParseError::UnterminatedString(start))?;
            s.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(ParseError::UnterminatedString(start))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    let mut is_float = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !is_float && starts_number(bytes, i) {
            is_float = true;
            i += 1;
        } else {
            break;
        }
    }
    let text = &input[start..i];
    let tok = if is_float {
        Token::Float(
            text.parse()
                .map_err(|_| ParseError::BadNumber(text.to_string()))?,
        )
    } else {
        Token::Int(
            text.parse()
                .map_err(|_| ParseError::BadNumber(text.to_string()))?,
        )
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
                Token::Ident("t".into()),
                Token::Keyword("WHERE"),
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("x".into()),
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

    #[test]
    fn identifiers_preserve_case() {
        let toks = tokenize("Movie_Info mi2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("Movie_Info".into()),
                Token::Ident("mi2".into())
            ]
        );
    }
}
