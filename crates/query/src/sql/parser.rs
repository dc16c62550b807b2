//! Recursive-descent parser.

use crate::sql::ast::{
    AggFunc, ColumnName, CompareOp, Literal, SelectItem, SelectStmt, TableRef, WherePred,
};
use crate::sql::error::ParseError;
use crate::sql::token::{tokenize, Token};

/// Parses one SELECT statement (with optional trailing `;`). The
/// statement borrows its names and string literals from `input`.
pub fn parse_select(input: &str) -> Result<SelectStmt<'_>, ParseError> {
    parse_tokens(tokenize(input)?)
}

/// [`parse_select`] from the tokens [`tokenize`] made of a text, for a
/// caller that has already lexed it. The parser branches on a literal
/// token's kind, never on its value, so two token streams that differ
/// only in literal values parse to statements that differ only there.
pub fn parse_tokens(tokens: Vec<Token<'_>>) -> Result<SelectStmt<'_>, ParseError> {
    let mut p = Parser {
        tokens: tokens.into_iter(),
    };
    let stmt = p.select_stmt()?;
    p.accept(&Token::Semicolon);
    p.expect_end()?;
    Ok(stmt)
}

/// The token stream is consumed front to back and never revisited, so
/// the parser owns it as an iterator: a string literal that had to be
/// unescaped is moved into the AST, not cloned.
struct Parser<'a> {
    tokens: std::vec::IntoIter<Token<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.as_slice().first()
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        self.tokens.next()
    }

    fn accept(&mut self, tok: &Token<'_>) -> bool {
        if self.peek() == Some(tok) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token<'_>, what: &str) -> Result<(), ParseError> {
        if self.accept(tok) {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if *k == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(kw))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::Unexpected {
                expected: expected.to_string(),
                found: format!("{t:?}"),
            },
            None => ParseError::UnexpectedEnd(expected.to_string()),
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.peek().is_none() {
            Ok(())
        } else {
            Err(self.unexpected("end of statement"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek() {
            Some(&Token::Ident(s)) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt<'a>, ParseError> {
        self.expect_keyword("SELECT")?;
        let items = self.select_list()?;
        self.expect_keyword("FROM")?;
        let from = self.from_list()?;
        let predicates = if self.keyword("WHERE") {
            self.predicate_list()?
        } else {
            Vec::new()
        };
        let group_by = if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            self.column_list()?
        } else {
            Vec::new()
        };
        Ok(SelectStmt {
            items,
            from,
            predicates,
            group_by,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem<'a>>, ParseError> {
        let mut items = vec![self.select_item()?];
        while self.accept(&Token::Comma) {
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem<'a>, ParseError> {
        if self.accept(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        if let Some(&Token::Keyword(kw)) = self.peek() {
            let func = match kw {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "AVG" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = func {
                self.bump();
                self.expect(&Token::LParen, "(")?;
                let column = if self.accept(&Token::Star) {
                    if func != AggFunc::Count {
                        return Err(ParseError::Unexpected {
                            expected: "a column argument".into(),
                            found: format!("{}(*)", func.sql()),
                        });
                    }
                    None
                } else {
                    Some(self.column_name()?)
                };
                self.expect(&Token::RParen, ")")?;
                return Ok(SelectItem::Aggregate { func, column });
            }
        }
        Ok(SelectItem::Column(self.column_name()?))
    }

    fn column_name(&mut self) -> Result<ColumnName<'a>, ParseError> {
        let qualifier = self.ident("a qualified column (alias.column)")?;
        self.expect(&Token::Dot, ".")?;
        let column = self.ident("a column name")?;
        Ok(ColumnName { qualifier, column })
    }

    fn column_list(&mut self) -> Result<Vec<ColumnName<'a>>, ParseError> {
        let mut cols = vec![self.column_name()?];
        while self.accept(&Token::Comma) {
            cols.push(self.column_name()?);
        }
        Ok(cols)
    }

    // `from_list` parses the FROM clause; the `from_*` naming lint does
    // not apply to this domain name.
    #[allow(clippy::wrong_self_convention)]
    fn from_list(&mut self) -> Result<Vec<TableRef<'a>>, ParseError> {
        let mut tables = vec![self.table_ref()?];
        while self.accept(&Token::Comma) {
            tables.push(self.table_ref()?);
        }
        Ok(tables)
    }

    fn table_ref(&mut self) -> Result<TableRef<'a>, ParseError> {
        let table = self.ident("a table name")?;
        let alias = if self.keyword("AS") {
            self.ident("an alias")?
        } else if let Some(Token::Ident(_)) = self.peek() {
            // Implicit alias: `FROM title t`.
            self.ident("an alias")?
        } else {
            table
        };
        Ok(TableRef { table, alias })
    }

    fn predicate_list(&mut self) -> Result<Vec<WherePred<'a>>, ParseError> {
        let mut preds = vec![self.predicate()?];
        while self.keyword("AND") {
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }

    fn predicate(&mut self) -> Result<WherePred<'a>, ParseError> {
        let left = self.column_name()?;
        let op = self.compare_op()?;
        match self.peek() {
            Some(Token::Int(_)) | Some(Token::Float(_)) | Some(Token::Str(_)) => {
                let lit = match self.bump() {
                    Some(Token::Int(v)) => Literal::Int(v),
                    Some(Token::Float(v)) => Literal::Float(v),
                    Some(Token::Str(s)) => Literal::Str(s),
                    _ => unreachable!("peeked literal"),
                };
                Ok(WherePred::ColLit { left, op, lit })
            }
            _ => {
                let right = self.column_name()?;
                Ok(WherePred::ColCol { left, op, right })
            }
        }
    }

    fn compare_op(&mut self) -> Result<CompareOp, ParseError> {
        let op = match self.peek() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Neq) => CompareOp::Neq,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.bump();
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal() {
        let s = parse_select("SELECT * FROM t").unwrap();
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].alias, "t");
        assert!(s.predicates.is_empty());
    }

    #[test]
    fn parse_join_query() {
        let s = parse_select(
            "SELECT COUNT(*) FROM title AS t, cast_info ci \
             WHERE t.id = ci.movie_id AND t.production_year > 1990;",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[1].alias, "ci");
        assert_eq!(s.predicates.len(), 2);
        assert!(matches!(&s.predicates[0], WherePred::ColCol { .. }));
        assert!(matches!(
            &s.predicates[1],
            WherePred::ColLit {
                lit: Literal::Int(1990),
                ..
            }
        ));
    }

    #[test]
    fn parse_aggregates_and_group_by() {
        let s = parse_select(
            "SELECT MIN(t.year), COUNT(ci.id) FROM title t, cast_info ci \
             WHERE t.id = ci.movie_id GROUP BY t.kind_id",
        )
        .unwrap();
        assert_eq!(s.items.len(), 2);
        assert!(matches!(
            &s.items[0],
            SelectItem::Aggregate {
                func: AggFunc::Min,
                column: Some(_)
            }
        ));
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.group_by[0].column, "kind_id");
    }

    #[test]
    fn sum_star_rejected() {
        assert!(parse_select("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn string_predicates() {
        let s = parse_select("SELECT * FROM t WHERE t.note = 'actor'").unwrap();
        assert!(matches!(
            &s.predicates[0],
            WherePred::ColLit {
                lit: Literal::Str(v),
                ..
            } if v == "actor"
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_select("SELECT * FROM t WHERE t.a = 1 GROUP").is_err());
        assert!(parse_select("SELECT * FROM t extra.token").is_err());
    }

    #[test]
    fn missing_from_rejected() {
        let err = parse_select("SELECT *").unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEnd(_)));
    }

    #[test]
    fn display_roundtrip() {
        for sql in [
            "SELECT COUNT(*) FROM title AS t, cast_info \
             WHERE t.id = cast_info.movie_id AND t.year > 1990;",
            // Whole floats keep their point, so they re-parse as floats.
            "SELECT * FROM t WHERE t.a = 2.0 AND t.b < 100000000000000000000.5;",
        ] {
            let s = parse_select(sql).unwrap();
            let printed = s.to_string();
            let reparsed = parse_select(&printed).unwrap();
            assert_eq!(s, reparsed, "{printed}");
        }
    }

    #[test]
    fn all_operators_parse() {
        for op in ["=", "<>", "!=", "<", "<=", ">", ">="] {
            let sql = format!("SELECT * FROM t WHERE t.a {op} 5");
            assert!(parse_select(&sql).is_ok(), "op {op}");
        }
    }
}
