//! Correctness checks, run outside the timed loop.
//!
//! A read is compared with `Database::execute_plan_unoptimized` of the
//! same statement on the same data. A result without LIMIT must match
//! the reference as a multiset. A LIMIT page may break ties either way,
//! so it must be a sub-multiset of the reference without the LIMIT, hold
//! `min(limit, n)` rows, and carry the same ORDER BY keys, row by row, as
//! the first rows of the ordered reference.
//!
//! References keep row hashes, not rows, so they stay small while the
//! workload runs.

use crate::setup::inline_params;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use vdm_core::Database;
use vdm_storage::Batch;
use vdm_types::{Result, Value, VdmError};

/// What a read must return.
pub enum Reference {
    /// The exact multiset (by `multiset_digest`) and its row count.
    Exact { digest: u64, rows: usize },
    /// What a LIMIT page must satisfy.
    Page {
        limit: usize,
        /// Hashes of the un-limited reference's rows, with multiplicities.
        rows: HashMap<u64, usize>,
        total: usize,
        /// Output columns of the ORDER BY keys (empty without ORDER BY).
        key_columns: Vec<usize>,
        /// The ORDER BY keys of the reference's first `min(limit, total)`
        /// rows, in order.
        keys: Vec<Vec<Value>>,
    },
}

/// One checked read: the statement as the workload sends it, and what it
/// must return.
pub struct Case {
    pub sql: String,
    pub params: Vec<Value>,
    pub prepared: bool,
    pub reference: Reference,
}

/// Computes the reference for `sql` with `params` by executing its bound,
/// unoptimized plan.
pub fn case(db: &Database, sql: &str, params: &[Value], prepared: bool) -> Result<Case> {
    let literal = inline_params(sql, params);
    let (body, limit) = split_limit(&literal);
    let (batch, _) = db.execute_plan_unoptimized(&db.plan(body)?)?;
    let reference = match limit {
        None => {
            Reference::Exact { digest: vdm_cache::multiset_digest(&batch), rows: batch.num_rows() }
        }
        Some(limit) => {
            let key_columns = order_by(body)
                .iter()
                .map(|name| {
                    batch.schema.index_of(name).ok_or_else(|| {
                        VdmError::Bind(format!("ORDER BY key {name:?} is not an output column"))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            Reference::page(limit, &batch, key_columns)
        }
    };
    Ok(Case { sql: sql.to_string(), params: params.to_vec(), prepared, reference })
}

impl Reference {
    /// What a LIMIT page over `ordered`, the un-limited result in its
    /// ORDER BY order, must satisfy; `key_columns` are the ORDER BY keys.
    pub fn page(limit: usize, ordered: &Batch, key_columns: Vec<usize>) -> Reference {
        let first = limit.min(ordered.num_rows());
        let keys = (0..first).map(|i| key(&ordered.row(i), &key_columns)).collect();
        Reference::Page {
            limit,
            rows: multiset(ordered),
            total: ordered.num_rows(),
            key_columns,
            keys,
        }
    }
}

/// Splits a trailing `limit N` off a statement.
pub fn split_limit(sql: &str) -> (&str, Option<usize>) {
    if let Some((body, tail)) = sql.rsplit_once(" limit ") {
        if let Ok(n) = tail.trim().parse() {
            return (body, Some(n));
        }
    }
    (sql, None)
}

/// The column names of a statement's trailing ORDER BY (ascending keys
/// named by output column, as the workloads write them).
pub fn order_by(sql: &str) -> Vec<&str> {
    sql.rsplit_once(" order by ")
        .map(|(_, keys)| {
            keys.split(',').map(|k| k.trim().trim_end_matches(" asc").trim()).collect()
        })
        .unwrap_or_default()
}

fn key(row: &[Value], columns: &[usize]) -> Vec<Value> {
    columns.iter().map(|&c| row[c].clone()).collect()
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

fn multiset(batch: &Batch) -> HashMap<u64, usize> {
    let mut rows = HashMap::new();
    for i in 0..batch.num_rows() {
        *rows.entry(row_hash(&batch.row(i))).or_insert(0) += 1;
    }
    rows
}

/// `Ok` when `got` satisfies the reference, else what differs.
pub fn verify(reference: &Reference, got: &Batch) -> std::result::Result<(), String> {
    match reference {
        Reference::Exact { digest, rows } => {
            if vdm_cache::multiset_digest(got) == *digest && got.num_rows() == *rows {
                Ok(())
            } else {
                Err(format!("{} rows differ from the {rows}-row reference", got.num_rows()))
            }
        }
        Reference::Page { limit, rows, total, key_columns, keys } => {
            let want = (*limit).min(*total);
            if got.num_rows() != want {
                return Err(format!("page has {} rows, expected {want}", got.num_rows()));
            }
            let mut left = rows.clone();
            for (i, row) in got.to_rows().into_iter().enumerate() {
                match left.get_mut(&row_hash(&row)) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => return Err(format!("page row {row:?} is not in the reference")),
                }
                let got_key = key(&row, key_columns);
                if got_key != keys[i] {
                    return Err(format!(
                        "page row {i} has ORDER BY key {got_key:?}, the reference {:?}",
                        keys[i]
                    ));
                }
            }
            Ok(())
        }
    }
}

/// `Ok` when two batches hold the same multiset of rows.
pub fn same_rows(a: &Batch, b: &Batch) -> std::result::Result<(), String> {
    verify(&Reference::Exact { digest: vdm_cache::multiset_digest(b), rows: b.num_rows() }, a)
}
