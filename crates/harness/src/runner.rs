//! Shared measurement machinery: build a dataset, load it into the stores,
//! run all queries, collect the grid that Tables 4–6 render.

use crate::Result;
use serde::Serialize;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, FsyncMode, ModelKind, PartitionedStore,
    Placement, PolicyKind, StoreConfig,
};
use starfish_cost::QueryId;
use starfish_nf2::station::Station;
use starfish_workload::{
    generate, DatasetParams, DatasetStats, Executor, PlanOutcome, QueryOutcome, QueryRunner,
    WorkloadSpec,
};

/// Configuration for the experiment harness.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HarnessConfig {
    /// Objects in the default dataset (paper: 1500).
    pub n_objects: usize,
    /// Buffer capacity in pages (paper: 1200).
    pub buffer_pages: usize,
    /// Buffer-replacement policy (paper: LRU).
    pub policy: PolicyKind,
    /// Dataset seed.
    pub dataset_seed: u64,
    /// Query-sequence seed.
    pub query_seed: u64,
    /// WAL fsync mode restriction for the durability experiment: `None`
    /// sweeps both per-commit and group commit, `Some(mode)` measures only
    /// that mode (the CLI's `--fsync`). Every other experiment runs with
    /// the WAL off and ignores this.
    pub fsync: Option<FsyncMode>,
    /// Cap on the queue depths the concurrency experiment's batched-I/O
    /// sweep drives (`None` = the default cap of 8; the CLI's
    /// `--queue-depth`). Every other experiment runs with the engine off
    /// and ignores this.
    pub queue_depth: Option<usize>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            n_objects: 1500,
            buffer_pages: 1200,
            policy: PolicyKind::Lru,
            dataset_seed: 4242,
            query_seed: 1993,
            fsync: None,
            queue_depth: None,
        }
    }
}

impl HarnessConfig {
    /// A scaled-down configuration for quick runs and tests (same buffer /
    /// database *ratio* as the paper, so cache-overflow behaviour is
    /// preserved qualitatively).
    pub fn fast() -> Self {
        HarnessConfig {
            n_objects: 300,
            buffer_pages: 240,
            ..Default::default()
        }
    }

    /// Dataset parameters at this scale.
    pub fn dataset(&self) -> DatasetParams {
        DatasetParams {
            n_objects: self.n_objects,
            seed: self.dataset_seed,
            ..Default::default()
        }
    }
}

/// Parses the numeric value of `flag` out of a CLI argument list — the one
/// body behind every count-valued flag.
///
/// Returns `Ok(None)` when the flag is absent, `Ok(Some(n))` for a valid
/// `flag n` with `n >= min`, and `Err` with a user-facing message naming
/// `what` for a missing, non-numeric or too-small value.
fn parse_flag_value<T>(
    args: &[String],
    flag: &str,
    what: &str,
    min: T,
) -> std::result::Result<Option<T>, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let need = format!("{flag} needs {what} >= {min}");
    match args.get(i + 1).map(|s| (s, s.parse::<T>())) {
        Some((_, Ok(n))) if n >= min => Ok(Some(n)),
        Some((_, Ok(n))) => Err(format!("{need} (got {n})")),
        Some((raw, Err(_))) => Err(format!("{need} (got '{raw}')")),
        None => Err(need),
    }
}

/// Parses the `--threads` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (callers sweep the default
/// client counts), `Ok(Some(n))` for a valid `--threads n`, and `Err` with
/// a user-facing message for a missing, non-numeric or **zero** value —
/// zero clients cannot serve anything, and letting it through used to
/// reach `SharedBufferPool::new(_, 0)`'s "need at least one shard"
/// panic deep in the stack instead of a clean CLI error.
pub fn parse_threads(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_flag_value(args, "--threads", "a client count", 1)
}

/// Parses the `--nodes` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (workload runs use the
/// single-store surfaces), `Ok(Some(n))` for a valid `--nodes n`, and
/// `Err` with a user-facing message for a missing, non-numeric or
/// **zero** value — a zero-node cluster can own no object.
pub fn parse_nodes(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_flag_value(args, "--nodes", "a node count", 1)
}

/// Parses the `--queue-depth` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (the concurrency experiment
/// sweeps up to its default depth cap), `Ok(Some(n))` for a valid
/// `--queue-depth n`, and `Err` with a user-facing message for a missing,
/// non-numeric or **zero** value — a zero-depth queue can hold no request.
pub fn parse_queue_depth(args: &[String]) -> std::result::Result<Option<usize>, String> {
    parse_flag_value(args, "--queue-depth", "a depth", 1)
}

/// Parses the `--seed` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (the default dataset seed
/// applies), `Ok(Some(seed))` for any unsigned 64-bit `--seed seed` (0
/// included), and `Err` with a user-facing message for a missing or
/// non-numeric value.
pub fn parse_seed(args: &[String]) -> std::result::Result<Option<u64>, String> {
    parse_flag_value(args, "--seed", "a dataset seed", 0)
}

/// Parses the `--fsync` argument out of a CLI argument list.
///
/// Returns `Ok(None)` when the flag is absent (the durability experiment
/// sweeps both modes), `Ok(Some(mode))` for a valid `--fsync per|group`,
/// and `Err` with a user-facing message otherwise.
pub fn parse_fsync(args: &[String]) -> std::result::Result<Option<FsyncMode>, String> {
    let Some(i) = args.iter().position(|a| a == "--fsync") else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(s) => s.parse::<FsyncMode>().map(Some),
        None => Err("--fsync needs a mode: per or group".into()),
    }
}

/// One measured cell: per-unit pages/calls/fixes, or `None` where the model
/// does not support the query.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MeasuredCell {
    /// Pages read per unit.
    pub reads: f64,
    /// Pages written per unit.
    pub writes: f64,
    /// Pages read+written per unit (Table 4).
    pub pages: f64,
    /// I/O calls per unit (Table 5).
    pub calls: f64,
    /// Buffer fixes per unit (Table 6).
    pub fixes: f64,
}

impl MeasuredCell {
    /// The one place counter deltas become per-unit ratios — shared by the
    /// query grid, the single-query sweeps and the workload measurements.
    pub fn per_unit(snapshot: &starfish_core::IoSnapshot, units: u64) -> MeasuredCell {
        let per = |v: u64| v as f64 / units.max(1) as f64;
        MeasuredCell {
            reads: per(snapshot.pages_read),
            writes: per(snapshot.pages_written),
            pages: per(snapshot.pages_io()),
            calls: per(snapshot.io_calls()),
            fixes: per(snapshot.fixes),
        }
    }
}

/// The measured model × query grid behind Tables 4–6.
#[derive(Clone, Debug)]
pub struct MeasuredGrid {
    /// Configuration used.
    pub config: HarnessConfig,
    /// Observed dataset statistics.
    pub stats: DatasetStats,
    /// Rows: one per model, cells in [`QueryId::all`] order.
    pub rows: Vec<(ModelKind, [Option<MeasuredCell>; 7])>,
}

impl MeasuredGrid {
    /// The cell for `(model, query)`, if present.
    pub fn cell(&self, model: ModelKind, query: QueryId) -> Option<MeasuredCell> {
        let qi = QueryId::all().iter().position(|q| *q == query)?;
        self.rows
            .iter()
            .find(|(m, _)| *m == model)
            .and_then(|(_, cells)| cells[qi])
    }
}

/// Builds a store of `kind`, loads `db`, and returns it with its runner.
pub fn load_store(
    kind: ModelKind,
    db: &[Station],
    config: &HarnessConfig,
) -> Result<(Box<dyn ComplexObjectStore>, QueryRunner)> {
    let mut store = make_store(
        kind,
        StoreConfig::with_buffer_pages(config.buffer_pages).policy(config.policy),
    );
    let refs = store.load(db)?;
    let runner = QueryRunner::new(refs, config.query_seed);
    Ok((store, runner))
}

/// Runs every query of the benchmark against every model in `models` on the
/// dataset described by `params`.
pub fn measure_grid(
    params: &DatasetParams,
    config: &HarnessConfig,
    models: &[ModelKind],
) -> Result<MeasuredGrid> {
    measure_grid_on(&generate(params), config, models)
}

/// [`measure_grid`] over an already-generated dataset — use this when
/// measuring the same database under several configurations (e.g. the
/// policy sweep) to avoid regenerating it per run.
pub fn measure_grid_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
) -> Result<MeasuredGrid> {
    let stats = DatasetStats::compute(db);
    let mut rows = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, runner) = load_store(kind, db, config)?;
        let mut cells: [Option<MeasuredCell>; 7] = Default::default();
        for (i, q) in QueryId::all().into_iter().enumerate() {
            cells[i] = match runner.run(store.as_mut(), q)? {
                QueryOutcome::Measured(m) => Some(MeasuredCell::per_unit(&m.snapshot, m.units)),
                QueryOutcome::Unsupported => None,
            };
        }
        rows.push((kind, cells));
    }
    Ok(MeasuredGrid {
        config: *config,
        stats,
        rows,
    })
}

/// Runs a single query for a set of models (used by the sweeps of Figures
/// 5/6 and Table 7). Returns per-unit cells in `models` order.
pub fn measure_query(
    params: &DatasetParams,
    config: &HarnessConfig,
    models: &[ModelKind],
    query: QueryId,
) -> Result<Vec<(ModelKind, Option<MeasuredCell>)>> {
    let db = generate(params);
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, runner) = load_store(kind, &db, config)?;
        let cell = match runner.run(store.as_mut(), query)? {
            QueryOutcome::Measured(m) => Some(MeasuredCell::per_unit(&m.snapshot, m.units)),
            QueryOutcome::Unsupported => None,
        };
        out.push((kind, cell));
    }
    Ok(out)
}

/// One model's measurement of a declarative workload spec: the per-unit
/// I/O cell plus the model-invariant observation counts (units, per-hop
/// navigation cardinalities, scanned objects) that every model must agree
/// on — the spec-level analogue of the paper's "shared database" guarantee.
#[derive(Clone, Debug)]
pub struct WorkloadRow {
    /// The storage model measured.
    pub model: ModelKind,
    /// Per-unit counters (`None` where the model does not support an op of
    /// the plan — e.g. OID access under pure NSM).
    pub cell: Option<MeasuredCell>,
    /// Normalization denominator the cell was divided by.
    pub units: u64,
    /// Objects seen per navigation hop, summed over units.
    pub nav_seen: Vec<u64>,
    /// Objects materialized by scans.
    pub scanned: u64,
    /// Update ops that actually ran (after mix gating).
    pub updates: u64,
}

impl WorkloadRow {
    /// `kind`'s row for one plan outcome: per-unit counters when the plan
    /// ran, an empty row when the model does not support an op of it.
    fn new(model: ModelKind, outcome: PlanOutcome) -> WorkloadRow {
        match outcome {
            PlanOutcome::Measured(run) => WorkloadRow {
                model,
                cell: Some(MeasuredCell::per_unit(&run.snapshot, run.units)),
                units: run.units,
                nav_seen: run.nav_seen,
                scanned: run.scanned,
                updates: run.updates_applied,
            },
            PlanOutcome::Unsupported => WorkloadRow {
                model,
                cell: None,
                units: 0,
                nav_seen: Vec::new(),
                scanned: 0,
                updates: 0,
            },
        }
    }
}

/// Runs a declarative [`WorkloadSpec`] serially against every model in
/// `models` over an already-generated dataset, under the usual measurement
/// protocol (cold start, disconnect flush, per-unit normalization).
pub fn measure_workload_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
) -> Result<Vec<WorkloadRow>> {
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let (mut store, runner) = load_store(kind, db, config)?;
        out.push(WorkloadRow::new(
            kind,
            runner.executor().run(store.as_mut(), spec)?,
        ));
    }
    Ok(out)
}

/// [`measure_workload_on`] over the concurrent surface: every model runs
/// the plan with `threads` client threads sharing a pool of `threads`
/// lock-striped shards. Answers and fix counts are thread-count invariant
/// (the executor's contract); with 1 thread the counters reproduce the
/// serial measurement exactly. A plan shape the concurrent executor
/// rejects (a loop body consuming the previous iteration's selection)
/// surfaces as `Err`.
pub fn measure_workload_concurrent_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
    threads: usize,
) -> Result<Vec<WorkloadRow>> {
    let threads = threads.max(1);
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let mut store = make_shared_store(
            kind,
            StoreConfig::with_buffer_pages(config.buffer_pages).policy(config.policy),
            threads,
        );
        let refs = store.load(db)?;
        let runner = QueryRunner::new(refs, config.query_seed);
        let run = runner
            .executor()
            .run_concurrent(store.as_mut(), spec, threads)?;
        out.push(WorkloadRow::new(kind, run.outcome));
    }
    Ok(out)
}

/// [`measure_workload_on`] over a routed cluster: every model runs the
/// plan on a [`PartitionedStore`] of `nodes` nodes (round-robin
/// whole-object placement, a proportional buffer share per node,
/// `workers_per_node` lock-striped shards each) served by
/// `workers_per_node` reactor workers per node and `clients` client
/// threads ([`Executor::run_cluster`]). Answers, fix counts and per-node
/// disk bytes are (clients × workers)-invariant — the routed analogue of
/// the shared surface's thread-count invariance.
pub fn measure_workload_cluster_on(
    db: &[Station],
    config: &HarnessConfig,
    models: &[ModelKind],
    spec: &WorkloadSpec,
    nodes: usize,
    clients: usize,
    workers_per_node: usize,
) -> Result<Vec<WorkloadRow>> {
    let nodes = nodes.max(1);
    let per_node_buffer = (config.buffer_pages / nodes).max(16);
    let mut out = Vec::with_capacity(models.len());
    for &kind in models {
        let mut cluster = PartitionedStore::with_shards(
            kind,
            nodes,
            Placement::RoundRobin,
            StoreConfig::with_buffer_pages(per_node_buffer).policy(config.policy),
            workers_per_node.max(1),
        );
        let refs = cluster.load(db)?;
        let exec = Executor::new(refs, config.query_seed);
        let run = exec.run_cluster(&mut cluster, spec, clients, workers_per_node)?;
        out.push(WorkloadRow::new(kind, run.run.outcome));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_grid_measures_all_models() {
        let config = HarnessConfig::fast();
        let grid = measure_grid(&config.dataset(), &config, &ModelKind::measured_models()).unwrap();
        assert_eq!(grid.rows.len(), 4);
        // NSM has no q1a; everything else is measured.
        let missing: usize = grid
            .rows
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .filter(|c| c.is_none())
            .count();
        assert_eq!(missing, 1);
        // DSM must read more pages than DASDBS-NSM on navigation (2a).
        let dsm = grid.cell(ModelKind::Dsm, QueryId::Q2a).unwrap();
        let dnsm = grid.cell(ModelKind::DasdbsNsm, QueryId::Q2a).unwrap();
        assert!(dsm.pages > dnsm.pages, "{} vs {}", dsm.pages, dnsm.pages);
    }

    #[test]
    fn parse_threads_accepts_positive_counts_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_threads(&args(&["--threads", "4"])), Ok(Some(4)));
        assert_eq!(
            parse_threads(&args(&["--fast", "--threads", "1"])),
            Ok(Some(1))
        );
        // Zero clients is a clean CLI error, not a downstream panic.
        let err = parse_threads(&args(&["--threads", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_threads(&args(&["--threads"])).is_err());
        assert!(parse_threads(&args(&["--threads", "many"])).is_err());
        assert!(parse_threads(&args(&["--threads", "-2"])).is_err());
    }

    #[test]
    fn parse_nodes_accepts_positive_counts_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_nodes(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_nodes(&args(&["--nodes", "3"])), Ok(Some(3)));
        assert_eq!(parse_nodes(&args(&["--fast", "--nodes", "1"])), Ok(Some(1)));
        let err = parse_nodes(&args(&["--nodes", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_nodes(&args(&["--nodes"])).is_err());
        assert!(parse_nodes(&args(&["--nodes", "all"])).is_err());
        assert!(parse_nodes(&args(&["--nodes", "-3"])).is_err());
    }

    #[test]
    fn parse_queue_depth_accepts_positive_depths_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_queue_depth(&args(&["--fast"])), Ok(None));
        assert_eq!(
            parse_queue_depth(&args(&["--queue-depth", "8"])),
            Ok(Some(8))
        );
        assert_eq!(
            parse_queue_depth(&args(&["--fast", "--queue-depth", "1"])),
            Ok(Some(1))
        );
        let err = parse_queue_depth(&args(&["--queue-depth", "0"])).unwrap_err();
        assert!(err.contains(">= 1"), "{err}");
        assert!(parse_queue_depth(&args(&["--queue-depth"])).is_err());
        assert!(parse_queue_depth(&args(&["--queue-depth", "deep"])).is_err());
        assert!(parse_queue_depth(&args(&["--queue-depth", "-4"])).is_err());
    }

    #[test]
    fn parse_seed_accepts_any_unsigned_seed() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_seed(&args(&["--fast"])), Ok(None));
        assert_eq!(parse_seed(&args(&["--seed", "7"])), Ok(Some(7)));
        assert_eq!(parse_seed(&args(&["--fast", "--seed", "0"])), Ok(Some(0)));
        let err = parse_seed(&args(&["--seed", "abc"])).unwrap_err();
        assert!(err.contains("--seed") && err.contains("'abc'"), "{err}");
        assert!(parse_seed(&args(&["--seed"])).is_err());
        assert!(parse_seed(&args(&["--seed", "-1"])).is_err());
    }

    #[test]
    fn parse_fsync_accepts_known_modes_only() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_fsync(&args(&["--fast"])), Ok(None));
        assert_eq!(
            parse_fsync(&args(&["--fsync", "per"])),
            Ok(Some(FsyncMode::PerCommit))
        );
        assert_eq!(
            parse_fsync(&args(&["--fast", "--fsync", "group"])),
            Ok(Some(FsyncMode::Group))
        );
        let err = parse_fsync(&args(&["--fsync", "always"])).unwrap_err();
        assert!(err.contains("fsync mode"), "{err}");
        assert!(parse_fsync(&args(&["--fsync"])).is_err());
    }

    #[test]
    fn measure_query_single() {
        let config = HarnessConfig::fast();
        let out = measure_query(
            &config.dataset(),
            &config,
            &[ModelKind::DasdbsNsm],
            QueryId::Q2b,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.unwrap().pages > 0.0);
    }
}
