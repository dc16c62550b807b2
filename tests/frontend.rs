//! The SQL front end over the texts the system actually serves — the
//! 113 JOB-like queries and a few hundred `template_zipf`-shaped chain
//! counts over the synthetic schema — rather than one hand-written
//! statement: printing and re-parsing is the identity on the AST,
//! keyword case is invisible to the lexer while identifier case is
//! kept, and a statement and its re-printed spelling bind to one
//! plan-cache key.

use hfqo::prelude::*;
use hfqo::sql::{tokenize, Token};
use hfqo::workload::imdb::build_imdb;
use hfqo::workload::job::generate_job_suite;
use hfqo::workload::synth::{SynthConfig, SynthDb};
use hfqo_storage::catalog::Catalog;
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
            Token::Ident(s) => Some(s.as_str()),
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
