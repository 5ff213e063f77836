//! The streaming plan executor: one interpreter behind every run mode.
//!
//! [`Executor`] interprets a [`WorkloadSpec`] against a store. The same op
//! semantics (one `match` in [`exec_linear`]) back three entry points:
//!
//! * [`Executor::run`] — the serial measurement protocol of the paper
//!   (§5.1): cold start, stream the ops against the `&mut` surface, flush
//!   deferred writes at "database disconnect", snapshot the counter deltas.
//! * [`Executor::run_concurrent`] — the multi-client measurement protocol:
//!   a planning pass walks the plan with the spec's RNG and pre-draws every
//!   pick onto per-unit tapes (the *identical* selections the serial run
//!   makes — same stream, same order), top-level loop iterations are dealt
//!   whole — scans, key lookups and nested loops included — round-robin to
//!   N threads over the `&self` [`ConcurrentObjectStore`] surface, the op
//!   runs between loops execute on the coordinator with carried state,
//!   per-unit observations are merged back in plan order, and
//!   `update_roots` ops are **deferred**: applied after the read phase, per
//!   unit in plan order, partitioned by object across the same N threads
//!   (so writers never race on an object).
//! * [`Executor::run_stream`] — the mixed read/write throughput protocol:
//!   same dealing, but updates run **inline** in the serving threads
//!   (requests race by design; per-page latches keep every observation
//!   untorn), and nothing is recorded beyond the counters.
//!
//! Determinism contract (pinned by `tests/plan_equivalence.rs` and the
//! golden-counter tests): a plan's *access sequence* — the picks, the
//! navigation hops, the per-hop cardinalities, the update gating — is a
//! function of (spec, seed, database) only. Storage models and replacement
//! policies change physical I/O, never the sequence; thread counts change
//! interleaving (and therefore physical I/O and latch waits), never the
//! answers or the fix totals.

use crate::plan::{Drift, Op, PatchSpec, WorkloadSpec, STREAM_STRIDE};
use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use starfish_core::{
    with_cluster_router, ClusterRouter, ComplexObjectStore, ConcurrentObjectStore, CoreError,
    ObjRef, PartitionedStore, QueryResponse, RootPatch,
};
use starfish_nf2::{Oid, Tuple};
use starfish_pagestore::IoSnapshot;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A unit's deferred updates: the selection at each `update_roots` op, its
/// patch recipe and the top-level loop number the op ran at (which feeds
/// [`PatchSpec::materialize`]), applied after the concurrent read phase.
type DeferredUpdates = Vec<(Vec<ObjRef>, PatchSpec, u64)>;

/// The measured result of one plan run.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanRun {
    /// Counter deltas for the whole run, disconnect flush included.
    pub snapshot: IoSnapshot,
    /// Normalization denominator per the spec's [`crate::NormUnit`].
    pub units: u64,
    /// Objects seen per navigation hop (index 0 = first hop = "children",
    /// index 1 = "grand-children", …), summed over all units.
    pub nav_seen: Vec<u64>,
    /// Objects materialized by `scan_all` ops.
    pub scanned: u64,
    /// `update_roots` executions that actually ran (after mix gating).
    pub updates_applied: u64,
}

impl PlanRun {
    /// Objects seen at navigation hop `d` (0 where the plan never got
    /// that deep).
    pub fn nav_hop(&self, d: usize) -> u64 {
        self.nav_seen.get(d).copied().unwrap_or(0)
    }
}

/// A plan run, or the paper's "not relevant" marker (an op the storage
/// model cannot execute — query 1a's OID access under pure NSM).
#[derive(Clone, Debug, PartialEq)]
// `Measured` dwarfs the unit variant, but outcomes are created once per
// plan run and immediately destructured — never stored in bulk — so the
// indirection a `Box` buys is pure overhead here.
#[allow(clippy::large_enum_variant)]
pub enum PlanOutcome {
    /// The plan ran and was measured.
    Measured(PlanRun),
    /// The storage model does not support an op of the plan.
    Unsupported,
}

impl PlanOutcome {
    /// The run, if the plan executed.
    pub fn run(&self) -> Option<&PlanRun> {
        match self {
            PlanOutcome::Measured(r) => Some(r),
            PlanOutcome::Unsupported => None,
        }
    }
}

/// What one concurrent unit (a top-level loop iteration) observed — the
/// raw material for answer-equivalence differentials across thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitObservation {
    /// The unit's root pick.
    pub root: ObjRef,
    /// Tuples materialized by `get_by_oid` ops, in op order.
    pub retrieved: Vec<Tuple>,
    /// Selection after each navigation hop, in hop order.
    pub hops: Vec<Vec<ObjRef>>,
    /// Root records fetched by `fetch_roots` ops, concatenated.
    pub records: Vec<Tuple>,
}

/// The result of a concurrent plan run.
#[derive(Clone, Debug)]
pub struct ConcurrentPlanRun {
    /// Counters and normalization, exactly like the serial protocol's.
    pub outcome: PlanOutcome,
    /// Per-unit observations in plan order (empty when unsupported).
    pub observations: Vec<UnitObservation>,
    /// Wall-clock of the concurrent read phase (excludes the update tail
    /// and the disconnect flush).
    pub elapsed: Duration,
    /// Client threads that executed the plan.
    pub threads: usize,
}

/// The result of one routed cluster serving run ([`Executor::run_cluster`]):
/// the usual concurrent measurement plus the router-level serving metrics.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Counters, observations and read-phase wall-clock — exactly the
    /// [`Executor::run_concurrent`] shape (`threads` is the client count).
    pub run: ConcurrentPlanRun,
    /// Reactor worker threads serving each node.
    pub workers_per_node: usize,
    /// Per-node submission-queue high-water marks, ascending node order.
    pub queue_high_water: Vec<u64>,
}

impl ClusterRun {
    /// Units served per second of the concurrent read phase.
    pub fn units_per_sec(&self) -> f64 {
        let secs = self.run.elapsed.as_secs_f64();
        let units = match &self.run.outcome {
            PlanOutcome::Measured(r) => r.units,
            PlanOutcome::Unsupported => 0,
        };
        if secs <= 0.0 {
            return 0.0;
        }
        units as f64 / secs
    }
}

/// The result of one mixed read/write serving run ([`Executor::run_stream`]).
#[derive(Clone, Debug)]
pub struct MixedRun {
    /// Requests served (top-level plan units).
    pub requests: u64,
    /// Requests that applied an update (after mix gating).
    pub updates: u64,
    /// Wall-clock of the serving phase (excludes the final disconnect
    /// flush).
    pub elapsed: Duration,
    /// Client threads.
    pub threads: usize,
    /// Counter deltas for the whole run, disconnect flush included — the
    /// `latch_*` fields surface the contention the mix produced.
    pub snapshot: IoSnapshot,
}

impl MixedRun {
    /// Requests served per second of the serving phase.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }
}

/// Interprets workload specs against stores: the object universe (`refs`
/// as returned by [`ComplexObjectStore::load`]) plus the measurement seed.
#[derive(Clone, Debug)]
pub struct Executor {
    refs: Vec<ObjRef>,
    seed: u64,
}

// ---- the op interpreter -----------------------------------------------------

/// The storage surface a plan streams over — the serial `&mut` trait, the
/// concurrent `&self` trait and the routed cluster behind one vocabulary,
/// so the interpreter cannot drift between modes. The two `&self` surfaces
/// are plain shared references, so one value is copied into every client
/// thread.
trait Surface {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple>;
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple>;
    fn scan_count(&mut self) -> Result<u64>;
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>>;
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>>;
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()>;
    fn clear_cache(&mut self) -> Result<()>;
}

fn proj_of(op: &Op) -> starfish_nf2::Projection {
    match op {
        Op::GetByOid { proj } | Op::GetByKey { proj } => proj.to_projection(),
        _ => unreachable!("proj_of is only called for retrieval ops"),
    }
}

impl Surface for &mut (dyn ComplexObjectStore + '_) {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        (**self).get_by_oid(r.oid, &proj_of(proj))
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        (**self).get_by_key(r.key, &proj_of(proj))
    }
    fn scan_count(&mut self) -> Result<u64> {
        let mut n = 0u64;
        (**self).scan_all(&mut |_| n += 1)?;
        Ok(n)
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        (**self).children_of(refs)
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        (**self).root_records(refs)
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        (**self).update_roots(refs, patch)
    }
    fn clear_cache(&mut self) -> Result<()> {
        (**self).clear_cache()
    }
}

/// Direct calls into one shared store (the single-pool protocol).
impl Surface for &dyn ConcurrentObjectStore {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.shared_get_by_oid(r.oid, &proj_of(proj))
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        self.shared_get_by_key(r.key, &proj_of(proj))
    }
    fn scan_count(&mut self) -> Result<u64> {
        let mut n = 0u64;
        self.shared_scan_all(&mut |_| n += 1)?;
        Ok(n)
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        self.shared_children_of(refs)
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        self.shared_root_records(refs)
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        self.shared_update_roots(refs, patch)
    }
    fn clear_cache(&mut self) -> Result<()> {
        self.shared_clear_cache()
    }
}

/// Completion-type mismatch guard for the routed surface — unreachable by
/// construction (each submit pairs with exactly one response shape), kept
/// as an error instead of a panic so a router bug cannot take down a
/// worker pool.
fn routed_mismatch(what: &str, got: &QueryResponse) -> CoreError {
    CoreError::NotFound {
        what: format!("router protocol violation: {what} completed with {got:?}"),
    }
}

/// The routed [`Surface`]: every op becomes one ticket (or one per ref /
/// per node) on the owning node's reactor, and waiting on the tickets in
/// submission order rebuilds the serial answer — so dealt units stream
/// over a cluster exactly like they stream over one shared store, while
/// the per-node worker pools overlap execution across nodes.
impl Surface for &ClusterRouter<'_> {
    fn get_by_oid(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        let t = self.submit_get_by_oid(r.oid, proj_of(proj))?;
        match self.wait(t)? {
            QueryResponse::Tuple(tup) => Ok(tup),
            other => Err(routed_mismatch("get_by_oid", &other)),
        }
    }
    fn get_by_key(&mut self, r: ObjRef, proj: &Op) -> Result<Tuple> {
        let t = self.submit_get_by_key(r.key, proj_of(proj))?;
        match self.wait(t)? {
            QueryResponse::Tuple(tup) => Ok(tup),
            other => Err(routed_mismatch("get_by_key", &other)),
        }
    }
    fn scan_count(&mut self) -> Result<u64> {
        // Fan out to every node; waiting in ascending node order merges
        // deterministically.
        let mut n = 0u64;
        for t in self.submit_scan_all() {
            match self.wait(t)? {
                QueryResponse::ScanCount(k) => n += k as u64,
                other => return Err(routed_mismatch("scan_all", &other)),
            }
        }
        Ok(n)
    }
    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        // One ticket per parent, all in flight at once; waiting in input
        // order preserves the serial answer order (responses are global
        // refs, so the next hop routes directly).
        let tickets: Vec<_> = refs
            .iter()
            .map(|r| self.submit_children_of(*r))
            .collect::<Result<_>>()?;
        let mut out = Vec::new();
        for t in tickets {
            match self.wait(t)? {
                QueryResponse::Refs(r) => out.extend(r),
                other => return Err(routed_mismatch("children_of", &other)),
            }
        }
        Ok(out)
    }
    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        let tickets: Vec<_> = refs
            .iter()
            .map(|r| self.submit_root_record(*r))
            .collect::<Result<_>>()?;
        let mut out = Vec::new();
        for t in tickets {
            match self.wait(t)? {
                QueryResponse::Tuples(ts) => out.extend(ts),
                other => return Err(routed_mismatch("root_records", &other)),
            }
        }
        Ok(out)
    }
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        for t in self.submit_update_roots(refs, patch)? {
            match self.wait(t)? {
                QueryResponse::Done => {}
                other => return Err(routed_mismatch("update_roots", &other)),
            }
        }
        Ok(())
    }
    fn clear_cache(&mut self) -> Result<()> {
        self.clear_cache_all()
    }
}

/// Mutable interpreter state: the selection the ops stream over plus the
/// observation counters.
#[derive(Default)]
struct Ctx {
    /// The working set of object references.
    sel: Vec<ObjRef>,
    /// Objects seen per navigation hop, summed over units.
    nav_seen: Vec<u64>,
    /// Navigation hop index within the current unit.
    iter_depth: usize,
    /// Objects materialized by scans.
    scanned: u64,
    /// Updates that actually ran.
    updates: u64,
    /// Top-level loop iterations executed.
    top_iters: u64,
    /// Current top-level loop iteration (feeds patches and mix gating).
    loop_nr: u64,
    /// Loop nesting depth.
    depth: u32,
}

impl Ctx {
    fn record_hop(&mut self, seen: usize) {
        if self.iter_depth >= self.nav_seen.len() {
            self.nav_seen.resize(self.iter_depth + 1, 0);
        }
        self.nav_seen[self.iter_depth] += seen as u64;
        self.iter_depth += 1;
    }
}

/// What happens at `update_roots` ops and what gets recorded.
enum Mode<'a> {
    /// Updates run inline through the surface (serial and mixed-stream
    /// execution); nothing recorded beyond the counters.
    Inline,
    /// Concurrent read phase: record what each unit observed, defer
    /// updates (selection + patch) for the post-merge write phase.
    Record {
        obs: &'a mut UnitObservation,
        deferred: &'a mut DeferredUpdates,
    },
}

/// Where a unit's random picks come from: a live RNG (serial execution and
/// the concurrent planning pass) or a pre-drawn tape (concurrent unit
/// execution — the planner already consumed the RNG in serial order, so
/// units replay their picks and thread counts cannot move the sequence).
enum PickSource<'a> {
    /// Draw live from the spec's RNG stream.
    Rng(&'a mut StdRng),
    /// Replay pre-drawn selections, in plan order.
    Tape(&'a mut VecDeque<Vec<ObjRef>>),
}

impl PickSource<'_> {
    fn draw(&mut self, refs: &[ObjRef], op: &Op, loop_nr: u64) -> Result<Vec<ObjRef>> {
        match self {
            PickSource::Rng(rng) => draw_for_op(refs, rng, op, loop_nr),
            PickSource::Tape(tape) => tape.pop_front().ok_or_else(|| CoreError::NotFound {
                what: "a pre-drawn pick (planner/executor traversal mismatch)".into(),
            }),
        }
    }
}

/// Draws the selection a pick-like op (`pick_random`, `pick_skewed`,
/// `phase`) produces at top-level iteration `loop_nr`. The one place pick
/// semantics live — the serial interpreter and the concurrent planner both
/// call it, so they cannot disagree on RNG consumption.
fn draw_for_op(refs: &[ObjRef], rng: &mut StdRng, op: &Op, loop_nr: u64) -> Result<Vec<ObjRef>> {
    match op {
        Op::PickRandom { n } => (0..*n).map(|_| pick_uniform(refs, rng)).collect(),
        Op::PickSkewed {
            hot,
            pct_hot,
            drift,
        } => Ok(vec![pick_skewed(
            refs, rng, *hot, *pct_hot, *drift, loop_nr,
        )?]),
        Op::Phase { every, picks } => {
            let active = &picks[((loop_nr / (*every).max(1)) as usize) % picks.len().max(1)];
            draw_for_op(refs, rng, active, loop_nr)
        }
        _ => unreachable!("draw_for_op is only called for pick-like ops"),
    }
}

/// Streams `ops` over `surf`. The single place op semantics live.
fn exec_linear<S: Surface>(
    refs: &[ObjRef],
    spec: &WorkloadSpec,
    surf: &mut S,
    picks: &mut PickSource<'_>,
    ctx: &mut Ctx,
    mode: &mut Mode<'_>,
    ops: &[Op],
) -> Result<()> {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                ctx.sel = picks.draw(refs, op, ctx.loop_nr)?;
            }
            Op::ScanAll => {
                ctx.scanned += surf.scan_count()?;
            }
            Op::GetByOid { .. } => {
                for r in ctx.sel.clone() {
                    let t = surf.get_by_oid(r, op)?;
                    if let Mode::Record { obs, .. } = mode {
                        obs.retrieved.push(t);
                    }
                }
            }
            Op::GetByKey { .. } => {
                for r in ctx.sel.clone() {
                    let t = surf.get_by_key(r, op)?;
                    if let Mode::Record { obs, .. } = mode {
                        obs.retrieved.push(t);
                    }
                }
            }
            Op::NavigateChildren { depth } => {
                for _ in 0..*depth {
                    ctx.sel = surf.children_of(&ctx.sel)?;
                    ctx.record_hop(ctx.sel.len());
                    if let Mode::Record { obs, .. } = mode {
                        obs.hops.push(ctx.sel.clone());
                    }
                }
            }
            Op::FetchRoots => {
                let records = surf.root_records(&ctx.sel)?;
                debug_assert_eq!(records.len(), ctx.sel.len());
                if let Mode::Record { obs, .. } = mode {
                    obs.records.extend(records);
                }
            }
            Op::UpdateRoots { patch } => {
                if spec.updates_at(ctx.loop_nr as usize) {
                    ctx.updates += 1;
                    match mode {
                        Mode::Inline => {
                            let patch = RootPatch {
                                new_name: patch.materialize(ctx.loop_nr),
                            };
                            surf.update_roots(&ctx.sel, &patch)?;
                        }
                        Mode::Record { deferred, .. } => {
                            deferred.push((ctx.sel.clone(), patch.clone(), ctx.loop_nr));
                        }
                    }
                }
            }
            Op::ColdRestart => {
                surf.clear_cache()?;
            }
            Op::Loop { count, body } => {
                let n = count.resolve(refs.len());
                ctx.depth += 1;
                for i in 0..n {
                    if ctx.depth == 1 {
                        ctx.loop_nr = i;
                        ctx.iter_depth = 0;
                        ctx.top_iters += 1;
                    }
                    exec_linear(refs, spec, surf, picks, ctx, mode, body)?;
                }
                ctx.depth -= 1;
            }
        }
    }
    Ok(())
}

fn pick_uniform(refs: &[ObjRef], rng: &mut StdRng) -> Result<ObjRef> {
    if refs.is_empty() {
        return Err(CoreError::NotFound {
            what: "objects to pick from (empty database)".into(),
        });
    }
    Ok(refs[rng.random_range(0..refs.len())])
}

fn pick_skewed(
    refs: &[ObjRef],
    rng: &mut StdRng,
    hot: u64,
    pct_hot: u8,
    drift: Option<Drift>,
    loop_nr: u64,
) -> Result<ObjRef> {
    if refs.is_empty() {
        return Err(CoreError::NotFound {
            what: "objects to pick from (empty database)".into(),
        });
    }
    // Two draws per pick, in a fixed order, so the sequence is identical
    // wherever the plan runs — drift only remaps hot draws onto a sliding
    // window, it never adds or removes a draw (offset 0 ≡ no drift,
    // byte for byte).
    let in_hot = rng.random_range(0u8..100) < pct_hot;
    let bound = if in_hot {
        (hot as usize).clamp(1, refs.len())
    } else {
        refs.len()
    };
    let idx = rng.random_range(0..bound);
    if in_hot {
        let offset = drift.map(|d| d.offset(loop_nr, refs.len())).unwrap_or(0);
        Ok(refs[(offset + idx) % refs.len()])
    } else {
        Ok(refs[idx])
    }
}

// ---- shared concurrent helpers ---------------------------------------------

/// Splits `refs` into `threads` disjoint partitions **by object**: every
/// occurrence of an object (duplicates included) goes to the thread that
/// owns the object, objects dealt round-robin in first-seen order. No two
/// partitions ever contain the same object, so concurrent writers never
/// race on an object-level read-modify-write; per-thread relative order is
/// the serial order. Total occurrences are preserved, which is what keeps
/// fix totals thread-count-invariant.
pub(crate) fn partition_by_object(refs: &[ObjRef], threads: usize) -> Vec<Vec<ObjRef>> {
    let mut rank: HashMap<Oid, usize> = HashMap::new();
    for r in refs {
        let next = rank.len();
        rank.entry(r.oid).or_insert(next);
    }
    let mut parts = vec![Vec::new(); threads];
    for r in refs {
        parts[rank[&r.oid] % threads].push(*r);
    }
    parts
}

/// Applies `patch` to `refs` from `threads` writer threads over disjoint
/// object partitions (single-threaded: the plain serial-order call, so a
/// one-thread run is operation-for-operation the serial update path).
fn apply_updates_concurrent(
    store: &dyn ConcurrentObjectStore,
    refs: &[ObjRef],
    patch: &RootPatch,
    threads: usize,
) -> Result<()> {
    if threads <= 1 || refs.len() <= 1 {
        return store.shared_update_roots(refs, patch);
    }
    let parts = partition_by_object(refs, threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|part| s.spawn(move || store.shared_update_roots(part, patch)))
            .collect();
        for h in handles {
            h.join().expect("writer thread panicked")?;
        }
        Ok(())
    })
}

/// How a run of ops first touches the selection — the shareability test
/// for dealing loop iterations to threads whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SelUse {
    /// A pick-like op establishes the selection before anything reads it.
    Establishes,
    /// A retrieval/navigation/update op reads the selection first — the
    /// iteration depends on state left by the *previous* iteration, so it
    /// cannot run on another thread.
    Consumes,
    /// Nothing in the run touches the selection.
    Neither,
}

fn first_sel_use(ops: &[Op]) -> SelUse {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                return SelUse::Establishes
            }
            Op::GetByOid { .. }
            | Op::GetByKey { .. }
            | Op::NavigateChildren { .. }
            | Op::FetchRoots
            | Op::UpdateRoots { .. } => return SelUse::Consumes,
            Op::ScanAll | Op::ColdRestart => {}
            Op::Loop { body, .. } => match first_sel_use(body) {
                SelUse::Neither => {}
                u => return u,
            },
        }
    }
    SelUse::Neither
}

/// A top-level slice of the plan, for concurrent execution: every
/// top-level `loop` becomes a [`Segment::Units`] whose iterations are
/// dealt to threads whole; the (possibly empty) runs of non-loop ops
/// between them are [`Segment::Serial`] and run on the coordinator; a plan
/// with no top-level loop at all is one [`Segment::Whole`] unit.
enum Segment<'s> {
    /// Coordinator-run ops between top-level loops.
    Serial(&'s [Op]),
    /// One top-level loop: `n` units of `body`, dealt round-robin.
    Units {
        /// One iteration of the loop.
        body: &'s [Op],
        /// Resolved iteration count.
        n: u64,
    },
    /// The entire (loop-free) plan as a single unit.
    Whole(&'s [Op]),
}

/// Splits `spec.ops` into segments and checks every dealt body establishes
/// its selection before consuming it (else iterations would depend on the
/// previous iteration's selection and could not move to another thread).
fn segments_of<'s>(spec: &'s WorkloadSpec, n_objects: usize) -> Result<Vec<Segment<'s>>> {
    let ops = spec.ops.as_slice();
    if !ops.iter().any(|op| matches!(op, Op::Loop { .. })) {
        return Ok(vec![Segment::Whole(ops)]);
    }
    let mut out = Vec::new();
    let mut run_start = 0usize;
    for (i, op) in ops.iter().enumerate() {
        if let Op::Loop { count, body } = op {
            if run_start < i {
                out.push(Segment::Serial(&ops[run_start..i]));
            }
            run_start = i + 1;
            if first_sel_use(body) == SelUse::Consumes {
                return Err(CoreError::Unsupported {
                    model: "plan executor",
                    op: "concurrent execution of a loop whose body consumes the selection \
                         before establishing it",
                });
            }
            out.push(Segment::Units {
                body,
                n: count.resolve(n_objects),
            });
        }
    }
    if run_start < ops.len() {
        out.push(Segment::Serial(&ops[run_start..]));
    }
    Ok(out)
}

/// The picks of one dealt unit (or one serial segment), pre-drawn by the
/// planning pass in serial order.
struct UnitPlan {
    /// The unit's top-level loop number (feeds patches, mix gating and
    /// drift offsets).
    loop_nr: u64,
    /// Pre-drawn selections, in traversal order.
    tape: VecDeque<Vec<ObjRef>>,
}

/// Mirrors [`exec_linear`]'s traversal, drawing only the pick-like ops —
/// the RNG consumes exactly what the serial interpreter would, so the
/// tapes replay the identical access sequence.
fn plan_picks(
    refs: &[ObjRef],
    rng: &mut StdRng,
    loop_nr: &mut u64,
    depth: u32,
    ops: &[Op],
    out: &mut VecDeque<Vec<ObjRef>>,
) -> Result<()> {
    for op in ops {
        match op {
            Op::PickRandom { .. } | Op::PickSkewed { .. } | Op::Phase { .. } => {
                out.push_back(draw_for_op(refs, rng, op, *loop_nr)?);
            }
            Op::Loop { count, body } => {
                let n = count.resolve(refs.len());
                for i in 0..n {
                    if depth == 0 {
                        *loop_nr = i;
                    }
                    plan_picks(refs, rng, loop_nr, depth + 1, body, out)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// One segment with its pre-drawn pick tapes.
struct PlannedSegment<'s> {
    seg: Segment<'s>,
    /// One plan per dealt unit ([`Segment::Units`]/[`Segment::Whole`]), or
    /// exactly one for the coordinator ([`Segment::Serial`]).
    units: Vec<UnitPlan>,
}

/// The concurrent execution plan: segments with tapes, drawn by one serial
/// RNG walk — a pure function of (spec, seed, database), independent of
/// thread count.
struct ConcurrentPlan<'s> {
    segments: Vec<PlannedSegment<'s>>,
    /// Total dealt units (requests) across all segments.
    requests: u64,
    /// Total top-level loop iterations (the `loops` normalization count).
    top_iters: u64,
}

fn plan_concurrent<'s>(
    refs: &[ObjRef],
    spec: &'s WorkloadSpec,
    rng: &mut StdRng,
) -> Result<ConcurrentPlan<'s>> {
    let segs = segments_of(spec, refs.len())?;
    let mut planned = Vec::with_capacity(segs.len());
    let mut loop_nr = 0u64;
    let mut requests = 0u64;
    let mut top_iters = 0u64;
    for seg in segs {
        let units = match &seg {
            Segment::Serial(ops) => {
                let mut tape = VecDeque::new();
                plan_picks(refs, rng, &mut loop_nr, 0, ops, &mut tape)?;
                vec![UnitPlan { loop_nr, tape }]
            }
            Segment::Units { body, n } => {
                requests += n;
                top_iters += n;
                let mut units = Vec::with_capacity(*n as usize);
                for i in 0..*n {
                    loop_nr = i;
                    let mut tape = VecDeque::new();
                    plan_picks(refs, rng, &mut loop_nr, 1, body, &mut tape)?;
                    units.push(UnitPlan { loop_nr: i, tape });
                }
                units
            }
            Segment::Whole(ops) => {
                requests += 1;
                let mut tape = VecDeque::new();
                plan_picks(refs, rng, &mut loop_nr, 0, ops, &mut tape)?;
                vec![UnitPlan { loop_nr: 0, tape }]
            }
        };
        planned.push(PlannedSegment { seg, units });
    }
    Ok(ConcurrentPlan {
        segments: planned,
        requests,
        top_iters,
    })
}

/// Interpreter state carried across segments on the coordinator, so the
/// concurrent walk replicates the serial `Ctx` persistence exactly (the
/// selection and navigation hop index a serial run would have after the
/// same prefix of the plan).
#[derive(Default)]
struct Carried {
    sel: Vec<ObjRef>,
    iter_depth: usize,
}

/// What one dealt unit produced, beyond its public observation.
struct UnitOutcome {
    obs: UnitObservation,
    deferred: DeferredUpdates,
    nav_seen: Vec<u64>,
    scanned: u64,
    updates: u64,
    final_sel: Vec<ObjRef>,
    final_iter_depth: usize,
}

/// The sentinel root for units whose plan draws no picks (a pure scan
/// unit): a fixed reference so observations stay comparable across thread
/// counts.
fn root_of_tape(tape: &VecDeque<Vec<ObjRef>>) -> ObjRef {
    tape.front()
        .and_then(|sel| sel.first())
        .copied()
        .unwrap_or(ObjRef {
            oid: Oid(0),
            key: 0,
        })
}

/// One unit of work for [`run_unit`]: the ops to execute, its pre-drawn
/// pick tape, and the interpreter state it starts from. `record` selects
/// the concurrent measurement protocol (observations + deferred updates)
/// vs the mixed-stream protocol (inline updates, nothing recorded).
struct UnitRun<'a> {
    body: &'a [Op],
    unit: &'a UnitPlan,
    depth: u32,
    init: Carried,
    record: bool,
}

/// Runs one dealt unit over a shareable surface (direct shared store or
/// routed cluster dispatch).
fn run_unit<S: Surface>(
    mut surf: S,
    refs: &[ObjRef],
    spec: &WorkloadSpec,
    run: UnitRun<'_>,
) -> Result<UnitOutcome> {
    let UnitRun {
        body,
        unit,
        depth,
        init,
        record,
    } = run;
    let mut tape = unit.tape.clone();
    let mut obs = UnitObservation {
        root: root_of_tape(&tape),
        retrieved: Vec::new(),
        hops: Vec::new(),
        records: Vec::new(),
    };
    let mut deferred = Vec::new();
    let mut ctx = Ctx {
        sel: init.sel,
        iter_depth: init.iter_depth,
        loop_nr: unit.loop_nr,
        depth,
        ..Ctx::default()
    };
    let mut picks = PickSource::Tape(&mut tape);
    let mut mode = if record {
        Mode::Record {
            obs: &mut obs,
            deferred: &mut deferred,
        }
    } else {
        Mode::Inline
    };
    exec_linear(refs, spec, &mut surf, &mut picks, &mut ctx, &mut mode, body)?;
    Ok(UnitOutcome {
        obs,
        deferred,
        nav_seen: ctx.nav_seen,
        scanned: ctx.scanned,
        updates: ctx.updates,
        final_sel: ctx.sel,
        final_iter_depth: ctx.iter_depth,
    })
}

/// Aggregate of one full shared-surface walk of a plan's segments.
struct SharedExec {
    observations: Vec<UnitObservation>,
    deferred: DeferredUpdates,
    nav_seen: Vec<u64>,
    scanned: u64,
    updates: u64,
    top_iters: u64,
    requests: u64,
    elapsed: Duration,
}

// ---- the executor -----------------------------------------------------------

impl Executor {
    /// Creates an executor over the loaded objects (`refs` as returned by
    /// [`ComplexObjectStore::load`]) with a measurement seed.
    pub fn new(refs: Vec<ObjRef>, seed: u64) -> Executor {
        Executor { refs, seed }
    }

    /// Number of loaded objects.
    pub fn n_objects(&self) -> usize {
        self.refs.len()
    }

    /// The loaded object references, in load (OID) order.
    pub fn refs(&self) -> &[ObjRef] {
        &self.refs
    }

    /// The measurement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec's deterministic RNG: seed + stream·stride, so every
    /// storage model (and every run mode) draws the identical sequence.
    fn spec_rng(&self, spec: &WorkloadSpec) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_add(spec.stream.wrapping_mul(STREAM_STRIDE)),
        )
    }

    /// How many units (top-level loop iterations) `spec` executes against
    /// this database — the `loops` normalization denominator [`run`](Self::run)
    /// will report: the summed resolved counts of every top-level `Loop`
    /// op, or 1 for loop-free plans.
    pub fn units_of(&self, spec: &WorkloadSpec) -> u64 {
        spec.ops
            .iter()
            .map(|op| match op {
                Op::Loop { count, .. } => count.resolve(self.refs.len()),
                _ => 0,
            })
            .sum::<u64>()
            .max(1)
    }

    /// Runs `spec` serially under the paper's measurement protocol: cold
    /// start, stream the ops, count the disconnect flush, normalize per
    /// the spec's unit.
    pub fn run(
        &self,
        mut store: &mut dyn ComplexObjectStore,
        spec: &WorkloadSpec,
    ) -> Result<PlanOutcome> {
        let mut rng = self.spec_rng(spec);
        store.clear_cache()?;
        store.reset_stats();
        let before = store.snapshot();

        let mut ctx = Ctx::default();
        let mut picks = PickSource::Rng(&mut rng);
        match exec_linear(
            &self.refs,
            spec,
            &mut store,
            &mut picks,
            &mut ctx,
            &mut Mode::Inline,
            &spec.ops,
        ) {
            Ok(()) => {}
            // The model cannot execute an op of the plan — the paper's
            // "not relevant" marker (query 1a under pure NSM).
            Err(CoreError::Unsupported { .. }) => return Ok(PlanOutcome::Unsupported),
            Err(e) => return Err(e),
        }

        // Database disconnect: deferred writes reach the disk and count.
        store.flush()?;
        let snapshot = store.snapshot() - before;
        Ok(PlanOutcome::Measured(PlanRun {
            snapshot,
            units: spec.unit.resolve_units(ctx.top_iters, ctx.scanned),
            nav_seen: ctx.nav_seen,
            scanned: ctx.scanned,
            updates_applied: ctx.updates,
        }))
    }

    /// Walks the plan's segments over the shared surface: serial segments
    /// and the planning pass on the coordinator, dealt units round-robin
    /// across `threads`, outcomes merged back in plan order. `Ok(None)` is
    /// the paper's "not relevant" marker (an op the model cannot execute).
    fn exec_shared<S: Surface + Copy + Sync>(
        &self,
        target: S,
        spec: &WorkloadSpec,
        threads: usize,
        record: bool,
    ) -> Result<Option<SharedExec>> {
        let mut rng = self.spec_rng(spec);
        let plan = plan_concurrent(&self.refs, spec, &mut rng)?;

        let mut agg = SharedExec {
            observations: Vec::new(),
            deferred: Vec::new(),
            nav_seen: Vec::new(),
            scanned: 0,
            updates: 0,
            top_iters: plan.top_iters,
            requests: plan.requests,
            elapsed: Duration::ZERO,
        };
        let mut carried = Carried::default();

        let t0 = Instant::now();
        for ps in &plan.segments {
            let outcomes: Vec<UnitOutcome> = match &ps.seg {
                // Coordinator-run: inherits the selection / hop index the
                // serial interpreter would carry into these ops.
                Segment::Serial(ops) | Segment::Whole(ops) => {
                    let init = std::mem::take(&mut carried);
                    let unit = UnitRun {
                        body: ops,
                        unit: &ps.units[0],
                        depth: 0,
                        init,
                        record,
                    };
                    match run_unit(target, &self.refs, spec, unit) {
                        Ok(o) => vec![o],
                        Err(CoreError::Unsupported { .. }) => return Ok(None),
                        Err(e) => return Err(e),
                    }
                }
                // Dealt units: each iteration establishes (or never reads)
                // its selection, so it starts from a fresh context.
                Segment::Units { body, .. } => {
                    let units = &ps.units;
                    let exec_one = |i: usize| {
                        run_unit(
                            target,
                            &self.refs,
                            spec,
                            UnitRun {
                                body,
                                unit: &units[i],
                                depth: 1,
                                init: Carried::default(),
                                record,
                            },
                        )
                    };
                    type Batch = Result<Vec<(usize, UnitOutcome)>>;
                    let batches: Vec<Batch> = if threads == 1 {
                        vec![(0..units.len()).map(|i| Ok((i, exec_one(i)?))).collect()]
                    } else {
                        std::thread::scope(|s| {
                            let handles: Vec<_> = (0..threads)
                                .map(|t| {
                                    let exec_one = &exec_one;
                                    s.spawn(move || -> Batch {
                                        let mut out = Vec::new();
                                        for i in (t..units.len()).step_by(threads) {
                                            out.push((i, exec_one(i)?));
                                        }
                                        Ok(out)
                                    })
                                })
                                .collect();
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("client thread panicked"))
                                .collect()
                        })
                    };
                    let mut slots: Vec<Option<UnitOutcome>> =
                        (0..units.len()).map(|_| None).collect();
                    for b in batches {
                        match b {
                            Ok(items) => {
                                for (i, o) in items {
                                    slots[i] = Some(o);
                                }
                            }
                            Err(CoreError::Unsupported { .. }) => return Ok(None),
                            Err(e) => return Err(e),
                        }
                    }
                    slots
                        .into_iter()
                        .map(|s| s.expect("every unit executed"))
                        .collect()
                }
            };
            // Merge in plan order; the last unit's interpreter state is
            // what a serial run would carry into the next segment.
            for out in outcomes {
                for (d, n) in out.nav_seen.iter().enumerate() {
                    if d >= agg.nav_seen.len() {
                        agg.nav_seen.resize(d + 1, 0);
                    }
                    agg.nav_seen[d] += n;
                }
                agg.scanned += out.scanned;
                agg.updates += out.updates;
                agg.deferred.extend(out.deferred);
                carried = Carried {
                    sel: out.final_sel,
                    iter_depth: out.final_iter_depth,
                };
                agg.observations.push(out.obs);
            }
        }
        agg.elapsed = t0.elapsed();
        Ok(Some(agg))
    }

    /// Runs `spec` with `threads` client threads sharing `store` under the
    /// measurement protocol. Top-level loop iterations are dealt to threads
    /// whole — scans, key selections and nested loops included; the only
    /// rejected shape is a loop whose body consumes the previous
    /// iteration's selection before establishing its own
    /// ([`CoreError::Unsupported`]).
    pub fn run_concurrent(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        spec: &WorkloadSpec,
        threads: usize,
    ) -> Result<ConcurrentPlanRun> {
        let threads = threads.max(1);
        store.clear_cache()?;
        store.reset_stats();
        let before = store.snapshot();

        let exec = match self.exec_shared(&*store, spec, threads, true)? {
            Some(exec) => exec,
            // The model does not support an op of the plan (query 1a
            // under pure NSM) — the paper's "not relevant" marker.
            None => {
                return Ok(ConcurrentPlanRun {
                    outcome: PlanOutcome::Unsupported,
                    observations: Vec::new(),
                    elapsed: Duration::ZERO,
                    threads,
                })
            }
        };

        // Deferred write phase: each unit's updates, in plan order, applied
        // by N threads over disjoint object partitions through the latched
        // `&self` write surface. Every occurrence carries the same per-unit
        // patch, so the final bytes are partition-order-independent.
        let mut updates_applied = 0u64;
        for (sel, patch, loop_nr) in &exec.deferred {
            let patch = RootPatch {
                new_name: patch.materialize(*loop_nr),
            };
            apply_updates_concurrent(&*store, sel, &patch, threads)?;
            updates_applied += 1;
        }

        // Database disconnect: deferred writes reach the disk and count
        // (the shared flush quiesces writers through the pool's gate).
        store.shared_flush()?;
        let snapshot = store.snapshot() - before;
        let units = spec.unit.resolve_units(exec.top_iters, exec.scanned);
        Ok(ConcurrentPlanRun {
            outcome: PlanOutcome::Measured(PlanRun {
                snapshot,
                units,
                nav_seen: exec.nav_seen,
                scanned: exec.scanned,
                updates_applied,
            }),
            observations: exec.observations,
            elapsed: exec.elapsed,
            threads,
        })
    }

    /// Runs `spec` against a [`PartitionedStore`] through the routed
    /// dispatch front-end: `clients` client threads deal units exactly like
    /// [`run_concurrent`](Self::run_concurrent), but every op is submitted
    /// as a ticket to its owning node's reactor and served by
    /// `workers_per_node` worker threads per node
    /// ([`with_cluster_router`]). The measurement protocol is unchanged
    /// (cold start, read phase, deferred updates in plan order, disconnect
    /// flush), so:
    ///
    /// * answers, fix totals and per-node disk bytes are invariant across
    ///   `clients` × `workers_per_node`, and equal to a serially-driven
    ///   cluster's;
    /// * with 1 node × 1 worker × 1 client the whole `Measurement` replays
    ///   the serial run counter for counter (read-only plans; plans with
    ///   updates defer them like `run_concurrent`, which can move physical
    ///   write timing but never the final bytes).
    pub fn run_cluster(
        &self,
        cluster: &mut PartitionedStore,
        spec: &WorkloadSpec,
        clients: usize,
        workers_per_node: usize,
    ) -> Result<ClusterRun> {
        let clients = clients.max(1);
        cluster.clear_cache()?;
        cluster.reset_stats();
        let before = cluster.snapshot();

        let served = with_cluster_router(&*cluster, workers_per_node, |router| {
            let exec = match self.exec_shared(router, spec, clients, true)? {
                Some(exec) => exec,
                None => return Ok(None),
            };

            // Deferred write phase: each unit's updates in plan order.
            // Waiting out every node's ticket before the next unit keeps
            // same-object updates in unit order; within a unit the
            // involved nodes apply their partitions in parallel.
            let mut updates_applied = 0u64;
            for (sel, patch, loop_nr) in &exec.deferred {
                let patch = RootPatch {
                    new_name: patch.materialize(*loop_nr),
                };
                for t in router.submit_update_roots(sel, &patch)? {
                    match router.wait(t)? {
                        QueryResponse::Done => {}
                        other => return Err(routed_mismatch("update_roots", &other)),
                    }
                }
                updates_applied += 1;
            }

            // Database disconnect through every node's queue.
            for t in router.submit_flush() {
                match router.wait(t)? {
                    QueryResponse::Done => {}
                    other => return Err(routed_mismatch("flush", &other)),
                }
            }
            Ok(Some((exec, updates_applied, router.queue_high_water())))
        })?;

        let Some((exec, updates_applied, queue_high_water)) = served else {
            // The model does not support an op of the plan — the paper's
            // "not relevant" marker.
            return Ok(ClusterRun {
                run: ConcurrentPlanRun {
                    outcome: PlanOutcome::Unsupported,
                    observations: Vec::new(),
                    elapsed: Duration::ZERO,
                    threads: clients,
                },
                workers_per_node,
                queue_high_water: vec![0; cluster.node_count()],
            });
        };

        let snapshot = cluster.snapshot() - before;
        let units = spec.unit.resolve_units(exec.top_iters, exec.scanned);
        Ok(ClusterRun {
            run: ConcurrentPlanRun {
                outcome: PlanOutcome::Measured(PlanRun {
                    snapshot,
                    units,
                    nav_seen: exec.nav_seen,
                    scanned: exec.scanned,
                    updates_applied,
                }),
                observations: exec.observations,
                elapsed: exec.elapsed,
                threads: clients,
            },
            workers_per_node,
            queue_high_water,
        })
    }

    /// Serves `spec` as a mixed read/write request stream from `threads`
    /// clients over `store`: same unit dealing as
    /// [`run_concurrent`](Self::run_concurrent), but updates run **inline**
    /// in the serving threads and nothing is recorded beyond the counters.
    ///
    /// This is a **throughput harness**, not a differential: requests race
    /// by design (a read may observe either side of a concurrent update),
    /// but per-page latches guarantee every observation is a consistent,
    /// untorn object, and updates to the same object serialize. The final
    /// flush runs through the writer-quiescing shared surface.
    pub fn run_stream(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        spec: &WorkloadSpec,
        threads: usize,
    ) -> Result<MixedRun> {
        let threads = threads.max(1);
        store.clear_cache()?;
        store.reset_stats();
        let before = store.snapshot();

        let exec =
            self.exec_shared(&*store, spec, threads, false)?
                .ok_or(CoreError::Unsupported {
                    model: "plan executor",
                    op: "mixed-stream execution of an op the storage model rejects",
                })?;

        store.shared_flush()?;
        Ok(MixedRun {
            requests: exec.requests,
            updates: exec.updates,
            elapsed: exec.elapsed,
            threads,
            snapshot: store.snapshot() - before,
        })
    }
}

impl crate::plan::NormUnit {
    /// The normalization denominator of a run that executed `top_iters`
    /// top-level loop iterations and scanned `scanned` objects (at least 1).
    fn resolve_units(self, top_iters: u64, scanned: u64) -> u64 {
        match self {
            crate::plan::NormUnit::Loops => top_iters.max(1),
            crate::plan::NormUnit::ScannedObjects => scanned.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Count, MixKind, NormUnit, ProjSpec};
    use crate::{generate, DatasetParams};
    use starfish_core::{make_shared_store, make_store, ModelKind, StoreConfig};
    use starfish_nf2::Key;

    fn small_db() -> Vec<starfish_nf2::station::Station> {
        generate(&DatasetParams {
            n_objects: 60,
            seed: 99,
            ..Default::default()
        })
    }

    fn serial_setup(kind: ModelKind) -> (Box<dyn ComplexObjectStore>, Executor) {
        let db = small_db();
        let mut store = make_store(kind, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        (store, Executor::new(refs, 7))
    }

    #[test]
    fn partition_by_object_is_disjoint_and_occurrence_preserving() {
        let r = |o: u32| ObjRef {
            oid: Oid(o),
            key: o as Key,
        };
        // Object 1 appears three times, spread through the list.
        let refs = vec![r(1), r(2), r(1), r(3), r(4), r(1)];
        for threads in [1, 2, 3, 4, 8] {
            let parts = partition_by_object(&refs, threads);
            assert_eq!(parts.len(), threads);
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, refs.len(), "occurrences preserved");
            // Disjointness: each object's occurrences live in one partition.
            for oid in [1u32, 2, 3, 4] {
                let holders = parts
                    .iter()
                    .filter(|p| p.iter().any(|x| x.oid == Oid(oid)))
                    .count();
                assert_eq!(holders, 1, "oid {oid} split across {threads} threads");
            }
        }
        // One thread keeps the serial order exactly.
        assert_eq!(partition_by_object(&refs, 1)[0], refs);
    }

    #[test]
    fn deep_nav_records_every_hop() {
        let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
        let spec = WorkloadSpec::deep_nav();
        let run = exec
            .run(store.as_mut(), &spec)
            .unwrap()
            .run()
            .cloned()
            .unwrap();
        assert_eq!(run.units, 6, "60/10 loops");
        assert_eq!(run.nav_seen.len(), 4, "4 hops recorded");
        assert!(run.nav_seen[0] > 0);
        assert!(run.snapshot.fixes > 0);
    }

    #[test]
    fn access_sequence_is_model_invariant() {
        // Same spec + same seed ⇒ identical units / hop counts / scans on
        // every model, whatever the physical layout does.
        for spec in [
            WorkloadSpec::deep_nav(),
            WorkloadSpec::hot_set(),
            WorkloadSpec::scan_then_update(),
        ] {
            let mut shapes = Vec::new();
            for kind in ModelKind::all() {
                let (mut store, exec) = serial_setup(kind);
                let run = exec
                    .run(store.as_mut(), &spec)
                    .unwrap()
                    .run()
                    .cloned()
                    .unwrap();
                shapes.push((
                    run.units,
                    run.nav_seen.clone(),
                    run.scanned,
                    run.updates_applied,
                ));
            }
            for w in shapes.windows(2) {
                assert_eq!(
                    w[0], w[1],
                    "{}: access sequence moved across models",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn hot_set_concentrates_picks() {
        let db = small_db();
        let mut store = make_store(ModelKind::Dsm, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs.clone(), 7);
        // Draw the hot-set pick through the shared pick interpreter and
        // check the skew is real.
        let spec = WorkloadSpec::hot_set();
        let pick = Op::PickSkewed {
            hot: 16,
            pct_hot: 90,
            drift: None,
        };
        let mut rng = exec.spec_rng(&spec);
        let roots: Vec<ObjRef> = (0..2400u64)
            .map(|l| draw_for_op(&refs, &mut rng, &pick, l).unwrap()[0])
            .collect();
        let hot_hits = roots.iter().filter(|r| (r.oid.0 as u64) < 16).count();
        assert!(
            hot_hits * 10 > roots.len() * 7,
            "expected ≥70% hot picks, got {hot_hits}/{}",
            roots.len()
        );
    }

    #[test]
    fn drift_slides_the_hot_window() {
        // With drift, late iterations concentrate on a *shifted* window;
        // without, the window never moves. Same stream, same draws.
        let db = small_db();
        let mut store = make_store(ModelKind::Dsm, StoreConfig::default());
        let refs = store.load(&db).unwrap();
        let n = refs.len();
        let drifting = Op::PickSkewed {
            hot: 8,
            pct_hot: 100,
            drift: Some(Drift {
                shift: 10,
                period: 1,
            }),
        };
        let mut rng = StdRng::seed_from_u64(5);
        for t in [0u64, 3] {
            let offset = (t as usize * 10) % n;
            for _ in 0..40 {
                let r = draw_for_op(&refs, &mut rng, &drifting, t).unwrap()[0];
                let pos = refs.iter().position(|x| x == &r).unwrap();
                let rel = (pos + n - offset) % n;
                assert!(
                    rel < 8,
                    "t={t}: pick at {pos} outside window of offset {offset}"
                );
            }
        }
    }

    #[test]
    fn units_of_agrees_with_the_interpreter() {
        // The pre-computed denominator must equal what run() reports, also
        // for loop-free and multi-op plans (loop preceded by a scan).
        for spec in [
            WorkloadSpec::q1b(),
            WorkloadSpec::q2b(),
            WorkloadSpec::deep_nav(),
            WorkloadSpec::scan_then_update(),
        ] {
            let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
            let run = exec
                .run(store.as_mut(), &spec)
                .unwrap()
                .run()
                .cloned()
                .unwrap();
            assert_eq!(exec.units_of(&spec), run.units, "{}", spec.name);
        }
    }

    #[test]
    fn scan_then_update_writes_and_counts() {
        let (mut store, exec) = serial_setup(ModelKind::DasdbsNsm);
        let spec = WorkloadSpec::scan_then_update();
        let run = exec
            .run(store.as_mut(), &spec)
            .unwrap()
            .run()
            .cloned()
            .unwrap();
        assert_eq!(run.units, 24);
        assert_eq!(run.scanned, 60);
        assert_eq!(run.updates_applied, 24);
        assert!(run.snapshot.pages_written > 0, "updates must write");
    }

    #[test]
    fn mix_gating_controls_stream_updates() {
        let db = small_db();
        for mix in MixKind::all() {
            let mut store = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
            let refs = store.load(&db).unwrap();
            let exec = Executor::new(refs, 7);
            let spec = WorkloadSpec::mixed(mix);
            let run = exec.run_stream(store.as_mut(), &spec, 2).unwrap();
            assert_eq!(run.requests, 12);
            let want = (0..12).filter(|&i| mix.is_update(i)).count() as u64;
            assert_eq!(run.updates, want, "{}", mix.name());
            if mix == MixKind::ReadOnly {
                assert_eq!(run.snapshot.pages_written, 0);
            } else {
                assert!(run.snapshot.pages_written > 0);
            }
        }
    }

    #[test]
    fn concurrent_accepts_scan_key_and_nested_loop_plans() {
        // The shapes the pre-drift executor rejected: key selection, full
        // scans and nested loops all deal to threads now, with serial-equal
        // answers at any thread count (read-only, so exact equality holds).
        let nested = WorkloadSpec {
            name: "nested".into(),
            description: String::new(),
            stream: 91,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(5),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::Loop {
                        count: Count::Fixed(2),
                        body: vec![
                            Op::PickRandom { n: 2 },
                            Op::GetByOid {
                                proj: ProjSpec::All,
                            },
                        ],
                    },
                ],
            }],
        };
        let db = small_db();
        for spec in [WorkloadSpec::q1b(), WorkloadSpec::q1c(), nested] {
            let mut serial = make_store(ModelKind::Dsm, StoreConfig::default());
            let refs = serial.load(&db).unwrap();
            let want = Executor::new(refs, 7).run(serial.as_mut(), &spec).unwrap();

            let mut base: Option<Vec<UnitObservation>> = None;
            for threads in [1usize, 4] {
                let mut shared = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
                let refs = shared.load(&db).unwrap();
                let got = Executor::new(refs, 7)
                    .run_concurrent(shared.as_mut(), &spec, threads)
                    .unwrap();
                assert_eq!(got.outcome, want, "{}@{threads}", spec.name);
                match &base {
                    None => base = Some(got.observations),
                    Some(w) => assert_eq!(&got.observations, w, "{}@{threads}", spec.name),
                }
            }
        }
    }

    #[test]
    fn concurrent_rejects_consume_before_establish_loops() {
        // A loop body that reads the selection before establishing one
        // depends on the previous iteration — the one undealable shape.
        let spec = WorkloadSpec {
            name: "carry".into(),
            description: String::new(),
            stream: 92,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![
                Op::PickRandom { n: 1 },
                Op::Loop {
                    count: Count::Fixed(3),
                    body: vec![Op::NavigateChildren { depth: 1 }],
                },
            ],
        };
        let db = small_db();
        let mut store = make_shared_store(ModelKind::Dsm, StoreConfig::default(), 2);
        let refs = store.load(&db).unwrap();
        let exec = Executor::new(refs, 7);
        assert!(matches!(
            exec.run_concurrent(store.as_mut(), &spec, 2),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn concurrent_matches_serial_for_custom_plans() {
        // A non-paper plan measured concurrently at 1 thread × 1 shard must
        // equal its serial measurement, exactly like the paper queries.
        let spec = WorkloadSpec {
            name: "custom".into(),
            description: String::new(),
            stream: 77,
            unit: NormUnit::Loops,
            mix: None,
            ops: vec![Op::Loop {
                count: Count::Fixed(9),
                body: vec![
                    Op::PickRandom { n: 1 },
                    Op::GetByOid {
                        proj: ProjSpec::All,
                    },
                    Op::NavigateChildren { depth: 3 },
                    Op::FetchRoots,
                ],
            }],
        };
        let db = small_db();
        for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
            let mut serial = make_store(kind, StoreConfig::default());
            let refs = serial.load(&db).unwrap();
            let want = Executor::new(refs, 7).run(serial.as_mut(), &spec).unwrap();

            let mut shared = make_shared_store(kind, StoreConfig::default(), 1);
            let refs = shared.load(&db).unwrap();
            let got = Executor::new(refs, 7)
                .run_concurrent(shared.as_mut(), &spec, 1)
                .unwrap();
            assert_eq!(got.outcome, want, "{kind}");
            assert_eq!(got.observations.len(), 9);
        }
    }

    #[test]
    fn concurrent_observations_are_thread_count_invariant() {
        let spec = WorkloadSpec::deep_nav();
        let db = small_db();
        let mut base: Option<Vec<UnitObservation>> = None;
        for threads in [1usize, 3] {
            let mut store =
                make_shared_store(ModelKind::NsmIndexed, StoreConfig::default(), threads);
            let refs = store.load(&db).unwrap();
            let got = Executor::new(refs, 7)
                .run_concurrent(store.as_mut(), &spec, threads)
                .unwrap();
            match &base {
                None => base = Some(got.observations),
                Some(want) => assert_eq!(&got.observations, want, "{threads} threads"),
            }
        }
    }
}
