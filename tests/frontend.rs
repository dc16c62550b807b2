//! The SQL front end over the texts the system actually serves — the
//! 113 JOB-like queries and a few hundred `template_zipf`-shaped chain
//! counts over the synthetic schema — rather than one hand-written
//! statement: printing and re-parsing is the identity on the AST,
//! keyword case is invisible to the lexer while identifier case is
//! kept, and a statement and its re-printed spelling bind to one
//! plan-cache key.

use hfqo::prelude::*;
use hfqo::query::BoundColumn;
use hfqo::sql::{blank_literals, tokenize, tokenize_with_shape, Literal, Token};
use hfqo::workload::imdb::build_imdb;
use hfqo::workload::job::generate_job_suite;
use hfqo::workload::synth::{SynthConfig, SynthDb};
use hfqo_storage::catalog::Catalog;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The JOB-like suite's texts with the catalog they bind against.
fn job_texts() -> (Catalog, Vec<String>) {
    let (db, _) = build_imdb(ImdbConfig {
        base_rows: 20,
        seed: 21,
    });
    let texts: Vec<String> = generate_job_suite(db.catalog(), 21)
        .into_iter()
        .map(|q| q.sql)
        .collect();
    assert_eq!(texts.len(), 113);
    (db.catalog().clone(), texts)
}

/// Chain counts over `s{i}(id, fk, val)` ending in an equality on the
/// driving relation — the shape `template_zipf` serves — plus range and
/// text-free variants so every comparison operator appears.
fn synth_texts(want: usize) -> (Catalog, Vec<String>) {
    const TABLES: usize = 12;
    let synth = SynthDb::build(SynthConfig {
        tables: TABLES,
        rows: 20,
        seed: 31,
    });
    let mut rng = StdRng::seed_from_u64(0x7E3);
    let ops = ["=", "<>", "!=", "<", "<=", ">", ">="];
    let texts = (0..want)
        .map(|k| {
            let n = rng.gen_range(2..=8usize);
            let mut picked: Vec<usize> = Vec::with_capacity(n);
            while picked.len() < n {
                let t = rng.gen_range(0..TABLES);
                if !picked.contains(&t) {
                    picked.push(t);
                }
            }
            let from: Vec<String> = picked
                .iter()
                .enumerate()
                .map(|(i, t)| format!("s{t} a{i}"))
                .collect();
            let joins: Vec<String> = (1..n).map(|i| format!("a{}.id = a{i}.fk", i - 1)).collect();
            format!(
                "SELECT COUNT(*) FROM {} WHERE {} AND a0.val {} {}",
                from.join(", "),
                joins.join(" AND "),
                ops[k % ops.len()],
                rng.gen_range(-5..200i64)
            )
        })
        .collect();
    (synth.db.catalog().clone(), texts)
}

const KEYWORDS: [&str; 12] = [
    "SELECT", "FROM", "WHERE", "AND", "AS", "GROUP", "BY", "COUNT", "SUM", "MIN", "MAX", "AVG",
];

/// `sql` with the case of every keyword's letters alternated (starting
/// lower or upper by `phase`) and every other byte — identifiers,
/// literals, string contents — untouched.
fn with_mixed_case_keywords(sql: &str, phase: usize) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut rest = sql;
    let mut quoted = false;
    while let Some(c) = rest.chars().next() {
        if c == '\'' {
            quoted = !quoted;
        }
        if quoted || !(c.is_ascii_alphabetic() || c == '_') {
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let word = &rest[..end];
        if KEYWORDS.contains(&word.to_ascii_uppercase().as_str()) {
            out.extend(word.chars().enumerate().map(|(i, c)| {
                if (i + phase).is_multiple_of(2) {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            }));
        } else {
            out.push_str(word);
        }
        rest = &rest[end..];
    }
    out
}

fn check_front_end(catalog: &Catalog, texts: &[String]) {
    for sql in texts {
        let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));

        // Print → parse is the identity on the AST …
        let printed = stmt.to_string();
        assert_eq!(parse_select(&printed).as_ref(), Ok(&stmt), "{sql}");
        // … and the printed spelling is the same query to the plan cache.
        let graph = bind_select(&stmt, catalog).unwrap_or_else(|e| panic!("{e}: {sql}"));
        let reprinted = bind_select(&parse_select(&printed).unwrap(), catalog).unwrap();
        assert_eq!(PlanKey::of(&reprinted), PlanKey::of(&graph), "{sql}");

        // Keyword case does not reach the token stream.
        let tokens = tokenize(sql).unwrap();
        assert!(tokens.contains(&Token::Keyword("SELECT")));
        for phase in [0, 1] {
            let mixed = with_mixed_case_keywords(sql, phase);
            assert_ne!(&mixed, sql);
            assert_eq!(tokenize(&mixed).unwrap(), tokens, "{mixed}");
            assert_eq!(parse_select(&mixed).as_ref(), Ok(&stmt), "{mixed}");
        }
    }
}

#[test]
fn job_suite_texts_round_trip_through_the_front_end() {
    let (catalog, texts) = job_texts();
    check_front_end(&catalog, &texts);
}

#[test]
fn synthetic_template_texts_round_trip_through_the_front_end() {
    let (catalog, texts) = synth_texts(300);
    check_front_end(&catalog, &texts);
}

/// Identifiers keep the case they were written in — next to keywords in
/// any case — and a keyword is the static upper-case spelling whatever
/// was written. String contents and floats survive the round trip.
#[test]
fn identifiers_keep_their_case_and_keywords_lose_theirs() {
    let sql = "sElEcT Min(T.Year), cOuNt(*) fRoM Title aS T, Cast_Info \
               wHeRe T.Id = Cast_Info.Movie_Id aNd T.Name <> 'select From ''x''' \
               AnD T.Score >= 2.5 gRoUp bY T.Kind";
    let tokens = tokenize(sql).unwrap();
    let keywords: Vec<&str> = tokens
        .iter()
        .filter_map(|t| match t {
            Token::Keyword(k) => Some(*k),
            _ => None,
        })
        .collect();
    assert_eq!(
        keywords,
        ["SELECT", "MIN", "COUNT", "FROM", "AS", "WHERE", "AND", "AND", "GROUP", "BY"]
    );
    let idents: Vec<&str> = tokens
        .iter()
        .filter_map(|t| match t {
            Token::Ident(s) => Some(*s),
            _ => None,
        })
        .collect();
    assert_eq!(
        idents,
        [
            "T",
            "Year",
            "Title",
            "T",
            "Cast_Info",
            "T",
            "Id",
            "Cast_Info",
            "Movie_Id",
            "T",
            "Name",
            "T",
            "Score",
            "T",
            "Kind"
        ]
    );
    assert!(tokens.contains(&Token::Str("select From 'x'".into())));
    let stmt = parse_select(sql).unwrap();
    assert_eq!(stmt.from[0].table, "Title");
    assert_eq!(stmt.from[1].alias, "Cast_Info");
    assert_eq!(parse_select(&stmt.to_string()), Ok(stmt));
}

/// One line per bound graph: relations as `table:alias`, joins and
/// selections as `rel.column op rel.column|literal`, aggregates and
/// grouping columns. Literals print with their type, so `Int(2)` and
/// `Float(2.0)` differ.
fn graph_line(g: &QueryGraph) -> String {
    let col = |c: &BoundColumn| format!("{}.{}", c.rel.0, c.column.0);
    let list = |items: Vec<String>| items.join(" ");
    format!(
        "from [{}] join [{}] where [{}] agg [{}] group [{}]",
        list(
            g.relations()
                .iter()
                .map(|r| format!("{}:{}", r.table.0, r.alias))
                .collect()
        ),
        list(
            g.joins()
                .iter()
                .map(|j| format!("{}{}{}", col(&j.left), j.op.sql(), col(&j.right)))
                .collect()
        ),
        list(
            g.selections()
                .iter()
                .map(|s| format!("{}{}{:?}", col(&s.column), s.op.sql(), s.value))
                .collect()
        ),
        list(
            g.aggregates()
                .iter()
                .map(|a| {
                    let arg = a.column.as_ref().map_or("*".to_string(), col);
                    format!("{}({arg})", a.func.sql())
                })
                .collect()
        ),
        list(g.group_by().iter().map(col).collect()),
    )
}

/// Every JOB-like text binds to the graph the front end bound it to
/// before tokens and the AST borrowed from the text: the golden was cut
/// from that front end, one line per query in suite order.
#[test]
fn job_suite_graphs_equal_the_golden() {
    let (catalog, texts) = job_texts();
    let golden = include_str!("golden/frontend_graphs_job_seed21.txt");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), texts.len());
    for (i, (sql, want)) in texts.iter().zip(want).enumerate() {
        let graph = bind_select(&parse_select(sql).unwrap(), &catalog).unwrap();
        assert_eq!(graph_line(&graph), want, "query {i}: {sql}");
    }
}

/// `tokens` printed back to SQL, one space between tokens. With
/// `respell`, keyword case and the whitespace between tokens are drawn
/// (none where a dot or a comma allows it), and with `redraw` every
/// literal is drawn afresh in its own kind: ints down to negatives,
/// floats whole and fractional, and strings that quote `'`.
fn print(tokens: &[Token<'_>], rng: &mut StdRng, respell: bool, redraw: bool) -> String {
    const PIECES: [&str; 6] = ["a", "'", "é", " ", "x'y", "0"];
    let mut out = String::new();
    let mut prev: Option<&Token<'_>> = None;
    for token in tokens {
        if let Some(prev) = prev {
            let tight = matches!((prev, token), (Token::Ident(_), Token::Dot))
                || matches!((prev, token), (Token::Dot, Token::Ident(_)))
                || matches!(token, Token::Comma);
            out += match respell {
                false => " ",
                true if tight => "",
                true => [" ", "  ", "\n", "\t", " \t\n "][rng.gen_range(0..5usize)],
            };
        }
        let text = match token {
            Token::Keyword(k) if respell => k
                .chars()
                .map(|c| {
                    if rng.gen_range(0..2u8) == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect(),
            Token::Keyword(k) => k.to_string(),
            Token::Ident(s) => s.to_string(),
            Token::Int(_) if redraw => rng.gen_range(-1_000_000..1_000_000i64).to_string(),
            Token::Int(v) => v.to_string(),
            Token::Float(_) if redraw => {
                Literal::Float(rng.gen_range(-80_000..80_000i64) as f64 / 8.0).to_string()
            }
            Token::Float(v) => Literal::Float(*v).to_string(),
            Token::Str(_) if redraw => {
                let s: String = (0..rng.gen_range(0..5usize))
                    .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                    .collect();
                Literal::Str(s.into()).to_string()
            }
            Token::Str(s) => Literal::Str(s.clone()).to_string(),
            Token::Comma => ",".into(),
            Token::Dot => ".".into(),
            Token::Star => "*".into(),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Semicolon => ";".into(),
            Token::Eq => "=".into(),
            Token::Neq => "<>".into(),
            Token::Lt => "<".into(),
            Token::Le => "<=".into(),
            Token::Gt => ">".into(),
            Token::Ge => ">=".into(),
        };
        out += &text;
        prev = Some(token);
    }
    out
}

/// The texts a statement-cache key must tell from `tokens`'s: an alias
/// renamed, a predicate's column changed, and one literal of another
/// kind (`3` → `3.0`) — whether or not they still bind.
fn other_templates(tokens: &[Token<'_>], rng: &mut StdRng) -> Vec<String> {
    let mut others = Vec::new();
    let qualifier = tokens
        .windows(2)
        .find_map(|w| matches!(w[1], Token::Dot).then_some(&w[0]));
    if let Some(alias) = qualifier.cloned() {
        let renamed: Vec<Token<'_>> = tokens
            .iter()
            .map(|t| {
                if *t == alias {
                    Token::Ident("zz_alias")
                } else {
                    t.clone()
                }
            })
            .collect();
        others.push(print(&renamed, rng, false, false));
    }
    let mut column = tokens.to_vec();
    let after_where = tokens.iter().position(|t| *t == Token::Keyword("WHERE"));
    if let Some(at) = after_where
        .and_then(|w| (w..tokens.len() - 2).find(|&i| matches!(tokens[i + 1], Token::Dot) && i > w))
    {
        let Token::Ident(old) = tokens[at + 2] else {
            panic!("a column after the dot")
        };
        column[at + 2] = Token::Ident(if old == "id" { "kind_id" } else { "id" });
        others.push(print(&column, rng, false, false));
    }
    let mut kind = tokens.to_vec();
    if let Some(lit) = kind
        .iter_mut()
        .find(|t| matches!(t, Token::Int(_) | Token::Float(_) | Token::Str(_)))
    {
        *lit = match lit {
            Token::Int(v) => Token::Float(*v as f64),
            Token::Float(v) => Token::Int(*v as i64),
            _ => Token::Int(0),
        };
        others.push(print(&kind, rng, false, false));
    }
    others
}

/// The statement cache keys a text by its template: over every JOB-like
/// and synthetic text, a copy with every literal drawn afresh — keyword
/// case and whitespace re-spelled, or spelled one way twice, so that
/// the second is found by its spelling — is a statement hit on a
/// session warmed with the original, bound to the graph and plan-cache
/// key binding the copy gives; a renamed alias, another column or a
/// literal of another kind is a statement miss.
#[test]
fn other_constants_and_spellings_of_a_template_are_one_statement() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 20,
        seed: 21,
    });
    let job: Vec<String> = job_texts().1;
    let synth = SynthDb::build(SynthConfig {
        tables: 12,
        rows: 20,
        seed: 31,
    });
    let mut rng = StdRng::seed_from_u64(46);
    let worlds = [
        (db, stats, job),
        (synth.db, synth.stats, synth_texts(120).1),
    ];
    for (db, stats, texts) in worlds {
        for sql in &texts {
            let tokens = tokenize(sql).unwrap();
            let session = QuerySession::traditional(db.clone(), stats.clone());
            session.serve(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
            for respell in [true, false, false] {
                let variant = print(&tokens, &mut rng, respell, true);
                let served = session
                    .serve(&variant)
                    .unwrap_or_else(|e| panic!("{e}: {variant}"));
                assert!(served.statement_hit, "{variant}");
                let fresh = bind_select(&parse_select(&variant).unwrap(), session.catalog());
                let fresh = fresh.unwrap();
                assert_eq!(*served.graph, fresh, "{variant}");
                assert_eq!(served.key, PlanKey::of(&fresh), "{variant}");
            }
            let others = other_templates(&tokens, &mut rng);
            assert!(others.len() >= 2, "{sql}");
            for other in others {
                let misses = session.cache_metrics().statement_misses;
                let served = session.serve(&other);
                assert!(served.is_err() || !served.unwrap().statement_hit, "{other}");
                assert_eq!(
                    session.cache_metrics().statement_misses,
                    misses + 1,
                    "{other}"
                );
            }
        }
    }
}

/// Pieces of SQL-like text: keywords, IMDB table, alias and column
/// names, qualified columns, operators and punctuation, numbers (whole,
/// fractional, negative, overflowing), quotes and string literals, and
/// whitespace and non-ASCII characters.
const FRAGMENTS: &[&str] = &[
    "SELECT ",
    "select ",
    " FROM ",
    " WHERE ",
    " AND ",
    " AS ",
    " GROUP BY ",
    "COUNT(*)",
    "MIN(",
    "SUM(*)",
    "(",
    ")",
    ", ",
    ",",
    ".",
    "*",
    ";",
    " = ",
    "=",
    "<>",
    "!=",
    "!",
    " < ",
    "<=",
    ">",
    ">=",
    "'",
    "''",
    "'x'",
    "'it''s'",
    "'é'",
    "-",
    "0",
    "7",
    "-3",
    "12.5",
    "2.0",
    "1.",
    ".5",
    "99999999999999999999",
    "100000000000000000000.5",
    "title",
    "movie_companies",
    "cast_info",
    " t",
    " mc",
    " ci",
    "t",
    "mc",
    "t.id",
    "t.kind_id",
    "mc.movie_id",
    "mc.note",
    "ci.note",
    "ci.movie_id",
    "t.production_year",
    "id",
    " ",
    "\t",
    "\n",
    "é",
    "ü",
    "🦀",
    "ß",
    "#",
    "_",
    "a1",
    "\u{0}",
];

/// Arbitrary text: a mix of [`FRAGMENTS`] and arbitrary characters.
fn arbitrary_text(pieces: &[(u8, &str, u32)]) -> String {
    pieces
        .iter()
        .map(|&(kind, fragment, c)| match kind {
            0 => char::from_u32(c).unwrap_or('\u{FFFD}').to_string(),
            _ => fragment.to_string(),
        })
        .collect()
}

fn imdb_catalog() -> &'static Catalog {
    static CATALOG: std::sync::OnceLock<Catalog> = std::sync::OnceLock::new();
    CATALOG.get_or_init(|| job_texts().0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// On arbitrary text the lexer, the parser and the binder return
    /// `Ok` or `Err`, never panic; and whatever parses prints back to a
    /// text that parses to the same statement.
    #[test]
    fn front_end_never_panics_on_arbitrary_text(
        head in prop::sample::select(&[
            "",
            "SELECT * FROM title t WHERE t.",
            "SELECT COUNT(*) FROM title t, movie_companies mc WHERE ",
        ][..]),
        pieces in prop::collection::vec(
            (0u8..4, prop::sample::select(FRAGMENTS), 0u32..0x1_1000),
            0..40,
        ),
    ) {
        let sql = format!("{head}{}", arbitrary_text(&pieces));
        let tokens = tokenize(&sql);
        // On any text that lexes, the shape comes with the same tokens
        // and the spelling scan finds exactly the lexer's literals.
        if let Ok(tokens) = &tokens {
            prop_assert_eq!(&tokenize_with_shape(&sql).unwrap().0, tokens);
            let literals: Vec<&Token<'_>> = tokens
                .iter()
                .filter(|t| matches!(t, Token::Int(_) | Token::Float(_) | Token::Str(_)))
                .collect();
            let spelled = blank_literals(&sql);
            prop_assert!(spelled.is_ok(), "{sql:?}");
            let spelled = spelled.unwrap().1;
            prop_assert_eq!(spelled.iter().collect::<Vec<_>>(), literals, "{sql:?}");
        }
        if let Ok(stmt) = parse_select(&sql) {
            prop_assert!(tokens.is_ok(), "{sql:?}");
            let printed = stmt.to_string();
            prop_assert_eq!(parse_select(&printed).as_ref(), Ok(&stmt), "{sql:?}");
            let _ = bind_select(&stmt, imdb_catalog());
        }
    }
}

/// `whole.fraction` as SQL spells it.
fn float_text(whole: i64, power: u8, fraction: &str) -> String {
    if power > 0 {
        let sign = if whole < 0 { "-" } else { "" };
        format!("{sign}1{}.{fraction}", "0".repeat(power as usize))
    } else {
        format!("{whole}.{fraction}")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A generated statement — one to four aliased IMDB tables, integer,
    /// float and string predicates under every operator, an aggregate
    /// or a column list, and an optional GROUP BY — prints to a text that
    /// parses to the same statement and binds to the same graph. Floats
    /// include whole values and ones too large for an `i64`.
    #[test]
    fn printed_statements_parse_to_themselves(
        tables in prop::collection::vec(0usize..4, 1..5),
        predicates in prop::collection::vec(
            (0u8..3, prop::sample::select(&["=", "<>", "!=", "<", "<=", ">", ">="][..]),
             (-1_000_000i64..1_000_000, 0u8..30), prop::sample::select(&["0", "5", "25", "0001"][..])),
            0..6,
        ),
        shape in (0u8..4, 0usize..4),
    ) {
        const TABLES: [(&str, &str, &str); 4] = [
            ("title", "production_year", "id"),
            ("movie_companies", "company_id", "movie_id"),
            ("cast_info", "person_id", "movie_id"),
            ("keyword", "phonetic_code", "id"),
        ];
        let from: Vec<String> = tables
            .iter()
            .enumerate()
            .map(|(i, &t)| match i % 3 {
                0 => format!("{} AS a{i}", TABLES[t].0),
                1 => format!("{} a{i}", TABLES[t].0),
                _ => format!("{} AS A_{i}", TABLES[t].0),
            })
            .collect();
        let alias = |i: usize| if i % 3 == 2 { format!("A_{i}") } else { format!("a{i}") };
        let mut wheres: Vec<String> = (1..tables.len())
            .map(|i| format!("{}.{} = {}.id", alias(i), TABLES[tables[i]].2, alias(i - 1)))
            .collect();
        for (k, &(kind, op, (whole, power), fraction)) in predicates.iter().enumerate() {
            let i = k % tables.len();
            let (t, a) = (TABLES[tables[i]], alias(i));
            wheres.push(match kind {
                0 => format!("{a}.{} {op} {whole}", t.1),
                1 => format!("{a}.{} {op} {}", t.1, float_text(whole, power, fraction)),
                _ if t.0 == "cast_info" => format!("{a}.note {op} 'n''{whole} é'"),
                _ => format!("{a}.{} {op} {}", t.2, -whole.abs()),
            });
        }
        let (items, group) = shape;
        let g = alias(group % tables.len());
        let select = match items {
            0 => "*".to_string(),
            1 => "COUNT(*)".to_string(),
            2 => format!("MIN({g}.id), COUNT({g}.id)"),
            _ => format!("{g}.id, MAX({g}.id)"),
        };
        let mut sql = format!("SELECT {select} FROM {}", from.join(", "));
        if !wheres.is_empty() {
            sql += &format!(" WHERE {}", wheres.join(" AND "));
        }
        if items == 3 {
            sql += &format!(" GROUP BY {g}.id");
        }
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
        let printed = stmt.to_string();
        prop_assert_eq!(parse_select(&printed).as_ref(), Ok(&stmt), "{sql}");
        let catalog = imdb_catalog();
        let graph = bind_select(&stmt, catalog).unwrap_or_else(|e| panic!("{e}: {sql}"));
        let reprinted = bind_select(&parse_select(&printed).unwrap(), catalog).unwrap();
        prop_assert_eq!(graph_line(&reprinted), graph_line(&graph), "{sql}");
    }
}
