//! Building the database a workload runs against: generate the ERP data,
//! merge every table to main, register the Fig. 3 browser view and the
//! DCV, and hand back what the workloads need to generate inputs.

use std::time::Instant;
use vdm_core::{CacheMode, Database, Profile};
use vdm_data::erp::{journal_entry_item_browser, Erp};
use vdm_types::{Result, Value};

/// The Fig. 3 browser, registered under its paper name.
pub const BROWSER: &str = "journal_entry_item_browser";
/// The dynamic cached view every workload registers.
pub const DCV: &str = "gl_totals";
/// The DCV's definition.
pub const DCV_SQL: &str = "select CompanyCode, FiscalYear, count(*) as n, \
     sum(AmountInCompanyCodeCurrency) as amount from journal_entry_item_browser \
     group by CompanyCode, FiscalYear";

/// The ERP generator's seed: every run pages through the same journal.
pub const DATA_SEED: u64 = 4711;

/// A freshly built database and what building it cost.
pub struct Built {
    pub db: Database,
    /// Output column names of the browser view.
    pub browser_columns: Vec<String>,
    /// Column names of `acdoca`, in storage order (for posting rows).
    pub acdoca_columns: Vec<String>,
    /// `Erp::build`.
    pub generate_s: f64,
    /// `merge_delta` over every table.
    pub merge_s: f64,
    /// Everything: generate, merge, register views, materialize the DCV.
    pub build_s: f64,
}

/// Builds the ERP database at `journal_rows` from `data_seed`.
pub fn build(journal_rows: usize, data_seed: u64) -> Result<Built> {
    let started = Instant::now();
    let mut db = Database::new(Profile::hana());
    let (catalog, engine) = db.catalog_and_engine();
    let schema = Erp { journal_rows, seed: data_seed }.build(catalog, engine)?;
    let generate_s = started.elapsed().as_secs_f64();

    let merge_started = Instant::now();
    for table in db.engine().table_names() {
        db.engine().merge_delta(&table)?;
    }
    let merge_s = merge_started.elapsed().as_secs_f64();

    db.invalidate_plans();
    let browser = journal_entry_item_browser(&schema)?;
    let browser_columns =
        browser.protected.schema().fields().iter().map(|f| f.name.clone()).collect();
    db.register_view(BROWSER, browser.protected);
    db.create_cached_view(DCV, DCV_SQL, CacheMode::Dynamic)?;
    let acdoca_columns =
        schema.table("acdoca").schema.fields().iter().map(|f| f.name.clone()).collect();
    Ok(Built {
        db,
        browser_columns,
        acdoca_columns,
        generate_s,
        merge_s,
        build_s: started.elapsed().as_secs_f64(),
    })
}

/// Renders `sql` with each `?` replaced by its parameter as a literal, for
/// reference runs that bind without parameters. Parameters here are
/// integers only.
pub fn inline_params(sql: &str, params: &[Value]) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut values = params.iter();
    for c in sql.chars() {
        if c == '?' {
            match values.next() {
                Some(Value::Int(v)) => out.push_str(&v.to_string()),
                other => panic!("inline_params supports integer parameters only, got {other:?}"),
            }
        } else {
            out.push(c);
        }
    }
    out
}
