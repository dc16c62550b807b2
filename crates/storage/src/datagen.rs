//! Deterministic synthetic data generation.
//!
//! The experiments need data with three properties the paper's IMDB workload
//! has: *skew* (zipfian popularity, so join orders matter), *foreign-key
//! structure* (star/snowflake join graphs), and *correlation between
//! columns* (which breaks the optimizer's independence assumption and makes
//! the cost model systematically wrong — the premise of §5.2's latency
//! fine-tuning). Every generator takes a seeded RNG, so datasets are fully
//! reproducible.

use crate::catalog::TableSchema;
use crate::error::StorageError;
use crate::table::Table;
use crate::value::Value;
use rand::rngs::StdRng;
use rand::Rng;

/// How to generate values for one column.
#[derive(Debug, Clone)]
pub enum Distribution {
    /// Row number (0-based): primary keys.
    Sequential,
    /// Uniform integer in `[lo, hi]`.
    UniformInt {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Zipf-distributed integer in `[0, n)` with exponent `s` (s=0 is
    /// uniform; s≈1 is classic web-like skew).
    Zipf {
        /// Number of distinct values.
        n: u64,
        /// Skew exponent.
        s: f64,
    },
    /// Uniform foreign key into a table with `target_rows` rows.
    FkUniform {
        /// Row count of the referenced table.
        target_rows: u64,
    },
    /// Zipf-skewed foreign key: a few referenced rows are very popular.
    FkZipf {
        /// Row count of the referenced table.
        target_rows: u64,
        /// Skew exponent.
        s: f64,
    },
    /// Value correlated with an earlier column in the same table: with
    /// probability `1 - noise` the value is `source_value % levels`,
    /// otherwise a uniform level. High correlation (low noise) makes
    /// multi-predicate selectivity estimates based on independence wrong.
    Correlated {
        /// Index of the source column (must precede this column).
        source: usize,
        /// Number of distinct levels.
        levels: u64,
        /// Probability of breaking the correlation.
        noise: f64,
    },
    /// Uniform float in `[lo, hi)`.
    UniformFloat {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Strings drawn from a pool of `pool` values named `{prefix}{i}`,
    /// zipf-skewed with exponent `s`.
    TextPool {
        /// Prefix of generated strings.
        prefix: &'static str,
        /// Pool size.
        pool: u64,
        /// Skew exponent.
        s: f64,
    },
}

/// A column generator: a distribution plus a NULL fraction.
#[derive(Debug, Clone)]
pub struct ColumnGen {
    /// Value distribution.
    pub(crate) dist: Distribution,
    /// Fraction of rows set to NULL (the column must be nullable).
    pub null_frac: f64,
}

impl ColumnGen {
    /// A generator with no NULLs.
    pub fn new(dist: Distribution) -> Self {
        Self {
            dist,
            null_frac: 0.0,
        }
    }

    /// A generator producing NULLs at the given rate.
    #[cfg(test)]
    fn with_nulls(dist: Distribution, null_frac: f64) -> Self {
        Self { dist, null_frac }
    }
}

/// A whole-table generator.
#[derive(Debug, Clone)]
pub struct TableGen {
    /// Per-column generators, one per schema column.
    pub columns: Vec<ColumnGen>,
    /// Number of rows to generate.
    pub rows: usize,
}

/// Precomputed zipf CDF sampler over `[0, n)`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: u64, s: f64) -> Self {
        let n = n.max(1) as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        // partition_point: first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

enum Sampler {
    Sequential,
    UniformInt(i64, i64),
    Zipf(ZipfSampler),
    UniformFloat(f64, f64),
    Text(&'static str, ZipfSampler),
    Correlated {
        source: usize,
        levels: u64,
        noise: f64,
        fallback: ZipfSampler,
    },
}

impl Sampler {
    fn from_dist(dist: &Distribution) -> Self {
        match dist {
            Distribution::Sequential => Sampler::Sequential,
            Distribution::UniformInt { lo, hi } => Sampler::UniformInt(*lo, *hi),
            Distribution::Zipf { n, s } => Sampler::Zipf(ZipfSampler::new(*n, *s)),
            Distribution::FkUniform { target_rows } => {
                Sampler::UniformInt(0, (*target_rows as i64 - 1).max(0))
            }
            Distribution::FkZipf { target_rows, s } => {
                Sampler::Zipf(ZipfSampler::new(*target_rows, *s))
            }
            Distribution::UniformFloat { lo, hi } => Sampler::UniformFloat(*lo, *hi),
            Distribution::TextPool { prefix, pool, s } => {
                Sampler::Text(prefix, ZipfSampler::new(*pool, *s))
            }
            Distribution::Correlated {
                source,
                levels,
                noise,
            } => Sampler::Correlated {
                source: *source,
                levels: (*levels).max(1),
                noise: *noise,
                fallback: ZipfSampler::new(*levels, 0.0),
            },
        }
    }

    fn sample(&self, row: usize, earlier: &[Value], rng: &mut StdRng) -> Value {
        match self {
            Sampler::Sequential => Value::Int(row as i64),
            Sampler::UniformInt(lo, hi) => Value::Int(rng.gen_range(*lo..=*hi)),
            Sampler::Zipf(z) => Value::Int(z.sample(rng) as i64),
            Sampler::UniformFloat(lo, hi) => Value::Float(rng.gen_range(*lo..*hi)),
            Sampler::Text(prefix, z) => Value::str(format!("{prefix}{}", z.sample(rng))),
            Sampler::Correlated {
                source,
                levels,
                noise,
                fallback,
            } => {
                let broke: f64 = rng.gen();
                if broke < *noise {
                    Value::Int(fallback.sample(rng) as i64)
                } else {
                    let src = earlier.get(*source).and_then(Value::as_int).unwrap_or(0);
                    Value::Int(src.rem_euclid(*levels as i64))
                }
            }
        }
    }
}

impl TableGen {
    /// Generates a table shaped to `schema`.
    ///
    /// Fails if the generator arity does not match the schema, or a NULL
    /// fraction targets a non-nullable column.
    pub fn generate(&self, schema: &TableSchema, rng: &mut StdRng) -> Result<Table, StorageError> {
        if self.columns.len() != schema.arity() {
            return Err(StorageError::SchemaMismatch(format!(
                "generator for `{}` has {} columns, schema has {}",
                schema.name(),
                self.columns.len(),
                schema.arity()
            )));
        }
        for (gen, col) in self.columns.iter().zip(schema.columns()) {
            if gen.null_frac > 0.0 && !col.is_nullable() {
                return Err(StorageError::SchemaMismatch(format!(
                    "null_frac on non-nullable column `{}.{}`",
                    schema.name(),
                    col.name()
                )));
            }
        }
        let samplers: Vec<Sampler> = self
            .columns
            .iter()
            .map(|c| Sampler::from_dist(&c.dist))
            .collect();
        let mut table = Table::with_capacity(schema.clone(), self.rows);
        let mut row_buf: Vec<Value> = Vec::with_capacity(schema.arity());
        for row in 0..self.rows {
            row_buf.clear();
            for (i, sampler) in samplers.iter().enumerate() {
                let null_roll: f64 = rng.gen();
                let v = if null_roll < self.columns[i].null_frac {
                    Value::Null
                } else {
                    sampler.sample(row, &row_buf, rng)
                };
                row_buf.push(v);
            }
            table.append_row(&row_buf)?;
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, ColumnId, ColumnType};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn gen_table(gen: TableGen, schema: TableSchema) -> Table {
        gen.generate(&schema, &mut rng()).unwrap()
    }

    #[test]
    fn sequential_is_row_number() {
        let schema = TableSchema::new("t", vec![Column::new("id", ColumnType::Int)]);
        let t = gen_table(
            TableGen {
                columns: vec![ColumnGen::new(Distribution::Sequential)],
                rows: 5,
            },
            schema,
        );
        for i in 0..5 {
            assert_eq!(t.value_at(i, ColumnId(0)), Value::Int(i as i64));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_zero() {
        let schema = TableSchema::new("t", vec![Column::new("v", ColumnType::Int)]);
        let t = gen_table(
            TableGen {
                columns: vec![ColumnGen::new(Distribution::Zipf { n: 100, s: 1.2 })],
                rows: 2000,
            },
            schema,
        );
        let zeros = (0..2000)
            .filter(|&r| t.value_at(r, ColumnId(0)) == Value::Int(0))
            .count();
        // Rank-0 should dominate: far more than the uniform 20/2000.
        assert!(zeros > 200, "zipf head count was {zeros}");
    }

    #[test]
    fn uniform_int_within_bounds() {
        let schema = TableSchema::new("t", vec![Column::new("v", ColumnType::Int)]);
        let t = gen_table(
            TableGen {
                columns: vec![ColumnGen::new(Distribution::UniformInt { lo: 5, hi: 9 })],
                rows: 500,
            },
            schema,
        );
        for r in 0..500 {
            let v = t.value_at(r, ColumnId(0)).as_int().unwrap();
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn correlated_column_tracks_source() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        );
        let t = gen_table(
            TableGen {
                columns: vec![
                    ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 999 }),
                    ColumnGen::new(Distribution::Correlated {
                        source: 0,
                        levels: 10,
                        noise: 0.0,
                    }),
                ],
                rows: 300,
            },
            schema,
        );
        for r in 0..300 {
            let a = t.value_at(r, ColumnId(0)).as_int().unwrap();
            let b = t.value_at(r, ColumnId(1)).as_int().unwrap();
            assert_eq!(b, a % 10);
        }
    }

    #[test]
    fn null_fraction_respected_and_validated() {
        let schema = TableSchema::new("t", vec![Column::nullable("v", ColumnType::Int)]);
        let t = gen_table(
            TableGen {
                columns: vec![ColumnGen::with_nulls(
                    Distribution::UniformInt { lo: 0, hi: 9 },
                    0.5,
                )],
                rows: 1000,
            },
            schema,
        );
        let nulls = (0..1000)
            .filter(|&r| t.value_at(r, ColumnId(0)).is_null())
            .count();
        assert!((350..=650).contains(&nulls), "null count was {nulls}");

        // NULLs into a non-nullable column are rejected up front.
        let strict = TableSchema::new("t", vec![Column::new("v", ColumnType::Int)]);
        let err = TableGen {
            columns: vec![ColumnGen::with_nulls(Distribution::Sequential, 0.1)],
            rows: 1,
        }
        .generate(&strict, &mut rng());
        assert!(err.is_err());
    }

    #[test]
    fn determinism_under_same_seed() {
        let schema = TableSchema::new("t", vec![Column::new("v", ColumnType::Int)]);
        let gen = TableGen {
            columns: vec![ColumnGen::new(Distribution::Zipf { n: 50, s: 1.0 })],
            rows: 100,
        };
        let a = gen.generate(&schema, &mut rng()).unwrap();
        let b = gen.generate(&schema, &mut rng()).unwrap();
        for r in 0..100 {
            assert_eq!(a.value_at(r, ColumnId(0)), b.value_at(r, ColumnId(0)));
        }
    }

    #[test]
    fn text_pool_values() {
        let schema = TableSchema::new("t", vec![Column::new("v", ColumnType::Text)]);
        let t = gen_table(
            TableGen {
                columns: vec![ColumnGen::new(Distribution::TextPool {
                    prefix: "kw_",
                    pool: 10,
                    s: 0.5,
                })],
                rows: 50,
            },
            schema,
        );
        for r in 0..50 {
            let v = t.value_at(r, ColumnId(0));
            assert!(v.as_str().unwrap().starts_with("kw_"));
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("b", ColumnType::Int),
            ],
        );
        let err = TableGen {
            columns: vec![ColumnGen::new(Distribution::Sequential)],
            rows: 1,
        }
        .generate(&schema, &mut rng());
        assert!(err.is_err());
    }
}
