//! How a client thread reaches the program under test.
//!
//! Untraced runs go through the shipped serving path: `vdm-serve`
//! sessions and prepared statements. Traced runs replay that path from
//! outside, one public call at a time, so each layer's time lands in its
//! own span: shape, `PlanCache::get`; on a miss bind, optimize, estimate,
//! digest and `PlanCache::insert`; then `bind_params` and
//! `execute_select` on a worker pool, as the server does. The replay
//! leaves out what is private to the program: the server's state lock
//! and gauges, and feedback re-optimization on a cache hit.

use crate::spans::Tracer;
use std::collections::HashMap;
use std::sync::Arc;
use vdm_core::feedback::{self, EngineStats};
use vdm_core::{
    execute_select, param_types_of, CacheOutcome, CachedPlan, Database, MaintainOutcome, PlanCache,
    PlanCacheKey, ResolvedPlan,
};
use vdm_exec::{with_worker_pool, Metrics, ParallelConfig, WorkerPool};
use vdm_plan::PlanRef;
use vdm_serve::{Prepared, Server, Session};
use vdm_sql::{SelectStmt, Statement};
use vdm_storage::{Batch, Snapshot, StorageEngine};
use vdm_types::{Result, Value, VdmError};

/// The program as one run drives it.
pub enum Target {
    /// The serving layer (untraced runs).
    Served(Server),
    /// The database facade plus a worker pool like the server's (traced
    /// runs replay the select path over its public parts).
    Replayed { db: Box<Database>, pool: WorkerPool },
}

impl Target {
    /// Serves `db` the way a deployment would, or keeps it for replay.
    pub fn new(db: Database, replay: bool) -> Target {
        if replay {
            let pool = WorkerPool::new(db.parallelism().threads.max(1));
            Target::Replayed { db: Box::new(db), pool }
        } else {
            Target::Served(Server::from_database(db))
        }
    }

    pub fn engine(&self) -> &StorageEngine {
        match self {
            Target::Served(server) => server.engine(),
            Target::Replayed { db, .. } => db.engine(),
        }
    }

    pub fn plan_cache(&self) -> &PlanCache {
        match self {
            Target::Served(server) => server.plan_cache(),
            Target::Replayed { db, .. } => db.plan_cache(),
        }
    }

    pub fn parallelism(&self) -> ParallelConfig {
        match self {
            Target::Served(server) => server.parallelism(),
            Target::Replayed { db, .. } => db.parallelism(),
        }
    }

    /// A client thread's handle, recording into `tracer`.
    pub fn client(&self, tracer: Tracer) -> Client<'_> {
        let session = match self {
            Target::Served(server) => Some(server.session()),
            Target::Replayed { .. } => None,
        };
        Client {
            target: self,
            session,
            prepared: HashMap::new(),
            parsed: HashMap::new(),
            tracer,
            facts: Facts::default(),
        }
    }
}

/// Per-layer counts a client observes, merged over clients at the end.
#[derive(Debug, Default)]
pub struct Facts {
    /// Rewrite events per optimization (cache misses).
    pub rewrites: Vec<f64>,
    /// Joins left in each executed plan.
    pub joins_after: Vec<f64>,
    /// Executor metrics and result rows of each shadow execution.
    pub exec: Vec<(Metrics, usize)>,
    /// Incremental maintenance passes and the delta rows they folded.
    pub incremental: Vec<usize>,
    /// Full refreshes.
    pub full_refreshes: usize,
}

impl Facts {
    pub fn merge(&mut self, other: Facts) {
        self.rewrites.extend(other.rewrites);
        self.joins_after.extend(other.joins_after);
        self.exec.extend(other.exec);
        self.incremental.extend(other.incremental);
        self.full_refreshes += other.full_refreshes;
    }
}

/// A SELECT the replay has resolved and executed, kept for the shadow
/// execution that follows it outside the read's root span.
pub struct Executed {
    bound: PlanRef,
    /// The snapshot current just before `execute_select` took its own.
    snapshot: Snapshot,
}

/// One client thread's handle on a [`Target`].
pub struct Client<'a> {
    target: &'a Target,
    session: Option<Session>,
    prepared: HashMap<String, Prepared>,
    parsed: HashMap<String, (SelectStmt, String)>,
    pub tracer: Tracer,
    pub facts: Facts,
}

impl Client<'_> {
    /// Runs `f` as a root span for operation `op`.
    pub fn root<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tracer.set_op(op);
        let open = self.tracer.begin(name);
        let out = f(self);
        self.tracer.end(open);
        out
    }

    pub fn engine(&self) -> &StorageEngine {
        self.target.engine()
    }

    /// Runs a SELECT. `prepared` statements are parsed once per client
    /// and then only executed, as `Session::prepare` does; others are
    /// parsed and shaped on every call, as `Session::query_with_params`.
    pub fn select(&mut self, sql: &str, params: &[Value], prepared: bool) -> Result<Batch> {
        Ok(self.select_executed(sql, params, prepared)?.0)
    }

    /// [`Client::select`], also returning what a shadow execution needs
    /// (replay only).
    pub fn select_executed(
        &mut self,
        sql: &str,
        params: &[Value],
        prepared: bool,
    ) -> Result<(Batch, Option<Executed>)> {
        match self.target {
            Target::Served(_) => {
                let session = self.session.as_ref().expect("served clients hold a session");
                let batch = if prepared {
                    if !self.prepared.contains_key(sql) {
                        self.prepared.insert(sql.to_string(), session.prepare(sql)?);
                    }
                    self.prepared[sql].execute(params)?
                } else {
                    session.query_with_params(sql, params)?
                };
                Ok((batch, None))
            }
            Target::Replayed { db, pool } => {
                let (batch, executed) = self.replay_select(db, pool, sql, params, prepared)?;
                Ok((batch, Some(executed)))
            }
        }
    }

    fn replay_select(
        &mut self,
        db: &Database,
        pool: &WorkerPool,
        sql: &str,
        params: &[Value],
        prepared: bool,
    ) -> Result<(Batch, Executed)> {
        let tr = &mut self.tracer;
        let (sel, shape) = match self.parsed.get(sql) {
            Some(parsed) if prepared => parsed.clone(),
            _ => {
                let (stmt, _) = tr.span("sql.parse", |_| vdm_sql::parse_one_with_params(sql))?;
                let Statement::Select(sel) = stmt else {
                    return Err(VdmError::Bind("the benchmark sends SELECTs only".into()));
                };
                let shape = tr.span("sql.shape", |_| vdm_sql::canonical_shape(sql))?;
                if prepared {
                    self.parsed.insert(sql.to_string(), (sel.clone(), shape.clone()));
                }
                (sel, shape)
            }
        };
        let (state, engine, cache) = (db.state(), db.engine(), db.plan_cache());
        let types = param_types_of(params);
        let key = PlanCacheKey {
            shape: shape.clone(),
            profile: state.profile_fingerprint(),
            param_types: types.clone(),
        };
        let version = state.version();
        let resolved = match tr.span("core.plan_cache_lookup", |_| cache.get(&key, version)) {
            Some(hit) => ResolvedPlan {
                plan: hit.plan.clone(),
                trace: hit.trace.clone(),
                outcome: CacheOutcome::Hit,
                digest: hit.digest,
                shape,
                estimates: hit.estimates.clone(),
            },
            None => {
                let bound = tr.span("sql.bind", |_| {
                    state.binder().with_param_types(&types).bind_select(&sel)
                })?;
                let stats = EngineStats::new(engine);
                let (plan, trace) = tr.span("optimizer.optimize", |_| {
                    state.optimizer.optimize_traced_with(&bound, Some(&stats), None)
                })?;
                let opts = state.optimizer.profile().derive_options();
                let estimates = tr
                    .span("plan.estimate", |_| feedback::estimates_with(&plan, &stats, opts, None));
                let digest = tr.span("plan.digest", |_| vdm_plan::plan_digest_canonical(&plan));
                self.facts.rewrites.push(trace.events.len() as f64);
                let cached = Arc::new(CachedPlan {
                    plan: plan.clone(),
                    trace: trace.clone(),
                    version,
                    digest,
                    estimates: estimates.clone(),
                });
                tr.span("core.plan_cache_insert", |_| cache.insert(key, cached));
                ResolvedPlan { plan, trace, outcome: CacheOutcome::Miss, digest, shape, estimates }
            }
        };
        let bound =
            tr.span("plan.bind_params", |_| vdm_plan::bind_params(&resolved.plan, params))?;
        let parallel = db.parallelism();
        let snapshot = engine.snapshot();
        let batch = tr.span("core.execute_select", |_| {
            with_worker_pool(pool, || execute_select(&resolved, params, engine, parallel))
        })?;
        Ok((batch, Executed { bound, snapshot }))
    }

    /// Re-executes a replayed SELECT's bound plan with
    /// `execute_parallel_at` alone, as its own root span for `op`: the
    /// executor's share of `execute_select` and its metrics. Runs after the
    /// read's root span closed, so it is not part of read latency.
    pub fn shadow(&mut self, op: u64, executed: &Executed) -> Result<()> {
        let Target::Replayed { db, pool } = self.target else {
            return Ok(());
        };
        let (engine, parallel) = (db.engine(), db.parallelism());
        let (batch, metrics) = self.root("exec.shadow", op, |c| {
            c.tracer.span("exec.execute", |_| {
                with_worker_pool(pool, || {
                    vdm_exec::execute_parallel_at(
                        &executed.bound,
                        engine,
                        executed.snapshot,
                        parallel,
                    )
                })
            })
        })?;
        self.facts.joins_after.push(vdm_plan::plan_stats(&executed.bound).joins as f64);
        self.facts.exec.push((metrics, batch.num_rows()));
        Ok(())
    }

    /// Reads a cached view (DCV maintenance first).
    pub fn read_view(&mut self, name: &str) -> Result<Arc<Batch>> {
        let (batch, outcome) = match self.target {
            Target::Served(_) => self
                .session
                .as_ref()
                .expect("served clients hold a session")
                .read_cached_with_outcome(name)?,
            Target::Replayed { db, .. } => {
                let view = db
                    .cached_view(name)
                    .ok_or_else(|| VdmError::Catalog(format!("unknown cached view {name:?}")))?;
                self.tracer.span("cache.maintain", |_| view.read_with_outcome(db.engine()))?
            }
        };
        match outcome {
            MaintainOutcome::Incremental { delta_rows } => self.facts.incremental.push(delta_rows),
            MaintainOutcome::Full => self.facts.full_refreshes += 1,
            MaintainOutcome::Fresh => {}
        }
        Ok(batch)
    }

    /// Posts one document with `StorageEngine::insert`, then merges the
    /// table's delta when `merge` is set.
    pub fn post(&mut self, table: &str, rows: Vec<Vec<Value>>, merge: bool) -> Result<usize> {
        let engine = self.target.engine();
        let n = self.tracer.span("storage.insert", |_| engine.insert(table, rows))?;
        if merge {
            self.merge(table)?;
        }
        Ok(n)
    }

    /// Merges a table's delta into its main fragment.
    pub fn merge(&mut self, table: &str) -> Result<()> {
        let engine = self.target.engine();
        self.tracer.span("storage.merge", |_| engine.merge_delta(table))
    }
}
