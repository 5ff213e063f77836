//! The three workloads and the clients that drive them.
//!
//! A *request* is one navigation unit of query 2b: pick a root,
//! `children_of`, `children_of` again, `root_records` of the
//! grand-children; in `nav-update` every second request of each client
//! also rewrites the grand-children's `Name` (the query-3a patch). Stores
//! are driven only through the public `ComplexObjectStore` /
//! `ConcurrentObjectStore` calls.
//!
//! A run is a sequence of rounds; each round runs one *episode* per model:
//! a fixed number of requests from that model's tape, with the workload's
//! background steps (checkpoints, placement passes, crash and recovery) on
//! a fixed request schedule. Rounds repeat until `--seconds` have passed.
//! Latencies are taken over every round, next to samples of the host's
//! speed (see `speed`); the count metrics over the first
//! [`WINDOW_EPISODES`] episodes of each model, which are the same requests
//! on every run of a seed.

use crate::speed::Reference;
use crate::tape::{parse_patch, patch_name, Oracle, Picker, Tape, DRIFT_SUDDEN};
use crate::trace::{self, Layers, TracedPool};
use starfish_core::{
    make_shared_store, ComplexObjectStore, ConcurrentObjectStore, CoreError, DasdbsNsmStore,
    DirectStore, FsyncMode, HeatConfig, IoSnapshot, ModelKind, NsmStore, ObjRef, ReorgReport,
    RootPatch, SharedPoolHandle, StoreConfig, WalConfig,
};
use starfish_nf2::station::{attr, Station};
use starfish_nf2::{Tuple, Value};
use starfish_pagestore::{BufferStats, PageCache, SimDisk};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The five models, in report order.
pub const MODELS: [ModelKind; 5] = [
    ModelKind::Dsm,
    ModelKind::DasdbsDsm,
    ModelKind::Nsm,
    ModelKind::NsmIndexed,
    ModelKind::DasdbsNsm,
];

/// Position of `kind` in [`MODELS`].
pub fn model_index(kind: ModelKind) -> usize {
    MODELS.iter().position(|&m| m == kind).expect("known model")
}

/// A model's name in metric names.
pub fn slug(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::Dsm => "dsm",
        ModelKind::DasdbsDsm => "dasdbs-dsm",
        ModelKind::Nsm => "nsm",
        ModelKind::NsmIndexed => "nsm-index",
        ModelKind::DasdbsNsm => "dasdbs-nsm",
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper configuration: uniform read-only navigation, warm 1200-page pool.
    NavRead,
    /// Two clients, half the requests update, WAL with group commit,
    /// checkpoints, crash and recovery.
    NavUpdate,
    /// Drifting hot set, 150-page pool, heat tracking, placement passes.
    DriftReorg,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "nav-read" => Some(Workload::NavRead),
            "nav-update" => Some(Workload::NavUpdate),
            "drift-reorg" => Some(Workload::DriftReorg),
            _ => None,
        }
    }

    /// The workload's fixed shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::NavRead => Spec {
                pool_pages: 1200,
                clients: 1,
                picker: Picker::Uniform,
                heat: false,
                updates: false,
                wal: false,
                checkpoint_every: 0,
                reorg_passes: 0,
                fresh_episodes: false,
                crash: false,
                warm: Warm::Requests([500, 500, 20, 2000, 2000]),
                episode: [400, 600, 200, 4000, 4000],
            },
            Workload::NavUpdate => Spec {
                pool_pages: 6000,
                clients: 2,
                picker: Picker::Uniform,
                heat: false,
                updates: true,
                wal: true,
                checkpoint_every: 200,
                reorg_passes: 0,
                fresh_episodes: false,
                crash: true,
                warm: Warm::Scan,
                episode: [400, 600, 300, 2000, 2000],
            },
            Workload::DriftReorg => Spec {
                pool_pages: 150,
                clients: 1,
                picker: DRIFT_SUDDEN,
                heat: true,
                updates: false,
                wal: false,
                checkpoint_every: 0,
                reorg_passes: 3,
                fresh_episodes: true,
                crash: false,
                warm: Warm::Requests([100, 100, 20, 300, 300]),
                episode: [400, 600, 200, 3000, 3000],
            },
        }
    }
}

/// How a store is warmed before it is timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warm {
    /// Requests from a separate warm-up tape, per model in [`MODELS`]
    /// order: enough to bring the pool to its steady state.
    Requests([usize; 5]),
    /// One full scan, which caches the whole database.
    Scan,
}

/// A workload's fixed parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// Closed-loop clients per model.
    pub clients: usize,
    /// Root distribution.
    pub picker: Picker,
    /// Page-heat tracking.
    pub heat: bool,
    /// Every second request of each client updates.
    pub updates: bool,
    /// Write-ahead log with group commit (shared pool only).
    pub wal: bool,
    /// A checkpoint (`flush`) after every this many requests; 0 = none.
    pub checkpoint_every: usize,
    /// Placement passes per episode, evenly spaced.
    pub reorg_passes: usize,
    /// Every episode starts from a freshly loaded store and replays the
    /// same tape (placement passes grow the database, so episodes must not
    /// accumulate them).
    pub fresh_episodes: bool,
    /// Crash, recover and check durability at the end of every episode.
    pub crash: bool,
    /// Warm-up before timing.
    pub warm: Warm,
    /// Requests per episode, per model in [`MODELS`] order, summed over
    /// clients.
    pub episode: [usize; 5],
}

impl Spec {
    /// The store configuration of this workload.
    pub fn config(&self) -> StoreConfig {
        let mut cfg = StoreConfig::with_buffer_pages(self.pool_pages);
        if self.heat {
            cfg = cfg.heat(HeatConfig::enabled());
        }
        if self.wal {
            cfg = cfg.wal(WalConfig::enabled(FsyncMode::Group));
        }
        cfg
    }

    /// Requests per episode of `kind`.
    pub fn episode_len(&self, kind: ModelKind) -> usize {
        self.episode[model_index(kind)]
    }
}

/// A failure the benchmark injects on purpose, to prove it is caught.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// One answer is altered after the store returned it.
    WrongAnswer,
    /// One store call is replaced by an error.
    StoreError,
}

/// Request number (per store) at which an injection fires.
const INJECT_AT: u64 = 7;

/// Shared, read-only context of a run.
pub struct Ctx {
    /// The workload shape.
    pub spec: Spec,
    /// The generated database.
    pub db: Vec<Station>,
    /// Expected answers.
    pub oracle: Oracle,
    /// Tape seed.
    pub seed: u64,
    /// Injected failure, if any (applies to the first model's primary store).
    pub inject: Option<Inject>,
}

/// Time spent in each store call, summed over requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    /// Inside `children_of` (two per request).
    pub children_ns: u64,
    /// Inside `root_records`.
    pub roots_ns: u64,
    /// Inside `update_roots`.
    pub update_ns: u64,
    /// Whole requests, as timed by the request loop.
    pub request_ns: u64,
}

impl Calls {
    fn add(&mut self, o: &Calls) {
        self.children_ns += o.children_ns;
        self.roots_ns += o.roots_ns;
        self.update_ns += o.update_ns;
        self.request_ns += o.request_ns;
    }

    /// Time inside store calls.
    pub fn store_ns(&self) -> u64 {
        self.children_ns + self.roots_ns + self.update_ns
    }
}

/// One placement pass.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Wall time of `reorganize()`.
    pub ns: u64,
    /// What the pass reported.
    pub report: ReorgReport,
    /// Database pages added by the pass.
    pub growth: u64,
}

/// Episodes in the count window. Every run makes at least this many
/// rounds, so the window covers the same requests on every run of a seed.
pub const WINDOW_EPISODES: usize = 4;

/// Counters of a store's first episodes: the deterministic count window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// I/O of the episodes, background steps included.
    pub io: IoSnapshot,
    /// Requests in the episodes.
    pub requests: u64,
    /// Database size at the end of the last episode.
    pub db_pages: u32,
}

/// Everything measured on one store over a run.
#[derive(Default)]
pub struct Side {
    /// Request latencies, per episode.
    pub episode_lat: Vec<Vec<u64>>,
    /// Reference-kernel times sampled between the requests, per episode.
    pub episode_ref: Vec<Vec<u64>>,
    /// Serving wall time, per episode.
    pub episode_serve_ns: Vec<u64>,
    /// Wall time of serving: requests, checkpoints and placement passes.
    pub serve_ns: u64,
    /// Requests completed.
    pub requests: u64,
    /// Requests or checks that failed.
    pub failed: u64,
    /// Durability checks made (one per object per crash).
    pub durability_checks: u64,
    /// Counters of the first [`WINDOW_EPISODES`] episodes.
    pub window: Option<Window>,
    /// I/O per episode.
    pub episode_io: Vec<IoSnapshot>,
    /// Buffer counters summed over episodes (evictions).
    pub buf: BufferStats,
    /// Store-call spans.
    pub calls: Calls,
    /// Layer spans inside requests.
    pub req_layers: Layers,
    /// Layer spans of background steps.
    pub bg_layers: Layers,
    /// Placement passes.
    pub passes: Vec<Pass>,
    /// Recovery durations.
    pub recover_ns: Vec<u64>,
    /// `disk_checksum` after the final flush.
    pub checksum: u64,
}

impl Side {
    /// Adds episode `episode` to the count window if it is one of the first
    /// [`WINDOW_EPISODES`].
    fn add_to_window(&mut self, episode: usize, io: IoSnapshot, requests: u64, db_pages: u32) {
        if episode >= WINDOW_EPISODES {
            return;
        }
        let w = self.window.get_or_insert(Window {
            io: IoSnapshot::default(),
            requests: 0,
            db_pages,
        });
        w.io.accumulate(&io);
        w.requests += requests;
        w.db_pages = db_pages;
    }

    /// Summed I/O over every episode.
    pub fn io(&self) -> IoSnapshot {
        let mut t = IoSnapshot::default();
        for s in &self.episode_io {
            t.accumulate(s);
        }
        t
    }
}

/// Builds an empty store of `kind` over `pool`.
fn build<P: PageCache + 'static>(
    kind: ModelKind,
    cfg: &StoreConfig,
    pool: P,
) -> Box<dyn ComplexObjectStore> {
    match kind {
        ModelKind::Dsm => Box::new(DirectStore::with_pool(false, cfg, pool)),
        ModelKind::DasdbsDsm => Box::new(DirectStore::with_pool(true, cfg, pool)),
        ModelKind::Nsm => Box::new(NsmStore::with_pool(false, cfg, pool)),
        ModelKind::NsmIndexed => Box::new(NsmStore::with_pool(true, cfg, pool)),
        ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::with_pool(cfg, pool)),
    }
}

/// Which pool a serial store runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// The exclusive `BufferPool` (`make_store`).
    Exclusive,
    /// A 2-shard shared pool driven through the `&mut` trait.
    Shared,
}

fn loaded_refs_ok(refs: &[ObjRef], oracle: &Oracle) -> bool {
    refs.len() == oracle.len() && refs.iter().enumerate().all(|(i, r)| *r == oracle.obj(i))
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn name_of(t: &Tuple) -> Option<&str> {
    t.attr(attr::NAME).and_then(Value::as_str)
}

fn key_of(t: &Tuple) -> Option<i32> {
    t.attr(attr::KEY).and_then(Value::as_int)
}

/// The answers of one request.
struct Answer {
    children: Vec<ObjRef>,
    grand: Vec<ObjRef>,
    records: Vec<Tuple>,
}

/// Runs one request's store calls over the exclusive surface.
fn nav_mut(
    store: &mut dyn ComplexObjectStore,
    root: ObjRef,
    patch: Option<&RootPatch>,
    calls: &mut Calls,
) -> Result<Answer, CoreError> {
    let t = Instant::now();
    let children = store.children_of(&[root])?;
    let grand = store.children_of(&children)?;
    calls.children_ns += ns(t);
    let t = Instant::now();
    let records = store.root_records(&grand)?;
    calls.roots_ns += ns(t);
    if let Some(p) = patch {
        let t = Instant::now();
        store.update_roots(&grand, p)?;
        calls.update_ns += ns(t);
    }
    Ok(Answer {
        children,
        grand,
        records,
    })
}

/// Runs one request's store calls over the concurrent surface.
fn nav_shared(
    store: &dyn ConcurrentObjectStore,
    root: ObjRef,
    patch: Option<&RootPatch>,
    calls: &mut Calls,
) -> Result<Answer, CoreError> {
    let t = Instant::now();
    let children = store.shared_children_of(&[root])?;
    let grand = store.shared_children_of(&children)?;
    calls.children_ns += ns(t);
    let t = Instant::now();
    let records = store.shared_root_records(&grand)?;
    calls.roots_ns += ns(t);
    if let Some(p) = patch {
        let t = Instant::now();
        store.shared_update_roots(&grand, p)?;
        calls.update_ns += ns(t);
    }
    Ok(Answer {
        children,
        grand,
        records,
    })
}

/// Applies an injected failure to request `n` of a store.
fn inject(
    what: Option<Inject>,
    n: u64,
    ans: Result<Answer, CoreError>,
) -> Result<Answer, CoreError> {
    if n != INJECT_AT {
        return ans;
    }
    match (what, ans) {
        (Some(Inject::StoreError), _) => Err(CoreError::NotFound {
            what: "injected store error".into(),
        }),
        (Some(Inject::WrongAnswer), Ok(mut a)) => {
            a.grand.push(ObjRef {
                oid: starfish_nf2::Oid(u32::MAX),
                key: -1,
            });
            Ok(a)
        }
        (_, ans) => ans,
    }
}

/// Checks structure and keys of an answer; names are checked by `name_ok`.
fn check(
    oracle: &Oracle,
    root: ObjRef,
    a: &Answer,
    mut name_ok: impl FnMut(usize, &str) -> bool,
) -> bool {
    let children = oracle.children_of(&[root]);
    if a.children != children || a.grand != oracle.children_of(&children) {
        return false;
    }
    a.records.len() == a.grand.len()
        && a.records.iter().zip(&a.grand).all(|(t, r)| {
            key_of(t) == Some(r.key) && name_of(t).is_some_and(|n| name_ok(r.oid.0 as usize, n))
        })
}

/// Reads every object's name back, checking its key.
fn read_all(
    oracle: &Oracle,
    mut read: impl FnMut(&[ObjRef]) -> Result<Vec<Tuple>, CoreError>,
) -> Option<Vec<String>> {
    let all: Vec<ObjRef> = (0..oracle.len()).map(|i| oracle.obj(i)).collect();
    let mut names = Vec::with_capacity(all.len());
    for chunk in all.chunks(100) {
        let recs = read(chunk).ok()?;
        if recs.len() != chunk.len() {
            return None;
        }
        for (t, r) in recs.iter().zip(chunk) {
            if key_of(t) != Some(r.key) {
                return None;
            }
            names.push(name_of(t)?.to_string());
        }
    }
    Some(names)
}

fn reorg_probe_roots(n: usize) -> [usize; 4] {
    [0, n / 4, n / 2, 3 * n / 4]
}

/// Builds an empty store of `kind` for a serial client, and the shared
/// pool handle it runs on, if any.
fn open(
    ctx: &Ctx,
    kind: ModelKind,
    pool: PoolKind,
    traced: bool,
) -> (Box<dyn ComplexObjectStore>, Option<SharedPoolHandle>) {
    let cfg = ctx.spec.config();
    match (pool, traced) {
        (PoolKind::Exclusive, false) => (build(kind, &cfg, cfg.buffer.build(SimDisk::new())), None),
        (PoolKind::Exclusive, true) => (
            build(
                kind,
                &cfg,
                TracedPool::new(cfg.buffer.build(SimDisk::new())),
            ),
            None,
        ),
        (PoolKind::Shared, false) => {
            let h = SharedPoolHandle::new(cfg.buffer, 2);
            (build(kind, &cfg, h.clone()), Some(h))
        }
        (PoolKind::Shared, true) => {
            let h = SharedPoolHandle::new(cfg.buffer, 2);
            (build(kind, &cfg, TracedPool::new(h.clone())), Some(h))
        }
    }
}

/// One store driven by one thread through the `&mut` trait.
pub struct Serial {
    /// The model.
    pub kind: ModelKind,
    pool: PoolKind,
    traced: bool,
    primary: bool,
    store: Box<dyn ComplexObjectStore>,
    handle: Option<SharedPoolHandle>,
    tapes: Vec<Tape>,
    names: Vec<String>,
    episode: usize,
    reference: Reference,
    /// What was measured.
    pub side: Side,
}

/// Set-up time of one store: bulk load and warm-up, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Bulk load.
    pub load_ns: u64,
    /// Warm-up.
    pub warm_ns: u64,
}

impl Serial {
    /// Builds, loads and warms a store. `primary` stores receive injected
    /// failures.
    pub fn new(
        ctx: &Ctx,
        kind: ModelKind,
        pool: PoolKind,
        traced: bool,
        primary: bool,
    ) -> (Serial, SetupTimes) {
        let t = Instant::now();
        let (store, handle) = open(ctx, kind, pool, traced);
        let mut s = Serial {
            kind,
            pool,
            traced,
            primary,
            store,
            handle,
            tapes: Vec::new(),
            names: Vec::new(),
            episode: 0,
            reference: Reference::default(),
            side: Side::default(),
        };
        let times = s.load_and_warm(ctx, t);
        (s, times)
    }

    fn load_and_warm(&mut self, ctx: &Ctx, t: Instant) -> SetupTimes {
        match self.store.load(&ctx.db) {
            Ok(refs) if loaded_refs_ok(&refs, &ctx.oracle) => {}
            _ => self.side.failed += 1,
        }
        let load_ns = ns(t);
        self.names = ctx.oracle.names.clone();
        self.tapes = (0..ctx.spec.clients)
            .map(|c| Tape::new(ctx.seed, 10 + c as u64, ctx.spec.picker, ctx.oracle.len()))
            .collect();
        let t = Instant::now();
        self.warm(ctx);
        let warm_ns = ns(t);
        self.drain_bg();
        SetupTimes { load_ns, warm_ns }
    }

    /// Replaces the store with a freshly loaded and warmed one.
    fn reload(&mut self, ctx: &Ctx) {
        let t = Instant::now();
        (self.store, self.handle) = open(ctx, self.kind, self.pool, self.traced);
        self.load_and_warm(ctx, t);
    }

    fn drain_bg(&mut self) {
        if self.traced {
            self.side.bg_layers.add(&trace::drain());
        }
    }

    fn warm(&mut self, ctx: &Ctx) {
        match ctx.spec.warm {
            Warm::Scan => {
                let mut seen = 0usize;
                if self.store.scan_all(&mut |_| seen += 1).is_err() || seen != ctx.oracle.len() {
                    self.side.failed += 1;
                }
            }
            Warm::Requests(n) => {
                let n = n[model_index(self.kind)];
                let roots = Tape::new(ctx.seed, 1, ctx.spec.picker, ctx.oracle.len()).take(n);
                for root in roots {
                    let root = ctx.oracle.obj(root);
                    let names = &self.names;
                    let ok = nav_mut(&mut *self.store, root, None, &mut Calls::default())
                        .map(|a| check(&ctx.oracle, root, &a, |o, n| names[o] == n))
                        .unwrap_or(false);
                    if !ok {
                        self.side.failed += 1;
                    }
                }
            }
        }
    }

    fn counters(&self) -> (IoSnapshot, BufferStats) {
        (self.store.snapshot(), self.store.buffer_stats())
    }

    /// Runs one episode.
    pub fn episode(&mut self, ctx: &Ctx) {
        if ctx.spec.fresh_episodes && self.episode > 0 {
            self.reload(ctx);
        }
        let len = ctx.spec.episode_len(self.kind);
        let clients = ctx.spec.clients;
        let per_client = len / clients;
        let segs: Vec<Vec<usize>> = self.tapes.iter_mut().map(|t| t.take(per_client)).collect();
        let pass_at: Vec<usize> = (1..=ctx.spec.reorg_passes)
            .map(|p| p * len / (ctx.spec.reorg_passes + 1))
            .collect();
        let (io0, buf0) = self.counters();
        self.side.episode_lat.push(Vec::with_capacity(len));
        self.reference.begin();
        let serve = Instant::now();
        let mut done = 0usize;
        for j in 0..per_client {
            for (c, seg) in segs.iter().enumerate() {
                if pass_at.contains(&done) {
                    self.pass(ctx);
                }
                let update = ctx.spec.updates && j % 2 == 1;
                self.request(ctx, seg[j], update.then(|| patch_name(c, self.episode, j)));
                self.reference.tick();
                done += 1;
                if ctx.spec.checkpoint_every > 0 && done.is_multiple_of(ctx.spec.checkpoint_every) {
                    if self.store.flush().is_err() {
                        self.side.failed += 1;
                    }
                    self.drain_bg();
                }
            }
        }
        let serve_ns = ns(serve);
        self.side.serve_ns += serve_ns;
        self.side.episode_serve_ns.push(serve_ns);
        self.side.episode_ref.push(self.reference.end());
        if ctx.spec.crash {
            self.crash_and_verify(ctx);
        }
        let (io1, buf1) = self.counters();
        let io = io1 - io0;
        self.side.episode_io.push(io);
        self.side.buf.evictions += buf1.evictions - buf0.evictions;
        self.side.buf.dirty_evictions += buf1.dirty_evictions - buf0.dirty_evictions;
        let db_pages = self.store.database_pages();
        self.side
            .add_to_window(self.episode, io, done as u64, db_pages);
        self.episode += 1;
    }

    fn request(&mut self, ctx: &Ctx, root: usize, update: Option<String>) {
        let root = ctx.oracle.obj(root);
        let patch = update.map(|new_name| RootPatch { new_name });
        let mut calls = Calls::default();
        let t = Instant::now();
        let ans = nav_mut(&mut *self.store, root, patch.as_ref(), &mut calls);
        calls.request_ns = ns(t);
        if let Some(lat) = self.side.episode_lat.last_mut() {
            lat.push(calls.request_ns);
        }
        self.side.requests += 1;
        if self.traced {
            self.side.req_layers.add(&trace::drain());
        }
        self.side.calls.add(&calls);
        let what = if self.primary { ctx.inject } else { None };
        let ans = inject(what, self.side.requests, ans);
        let names = &self.names;
        let ok = ans
            .map(|a| {
                let ok = check(&ctx.oracle, root, &a, |o, n| names[o] == n);
                (ok, a.grand)
            })
            .ok();
        match (ok, patch) {
            (Some((true, grand)), Some(p)) => {
                for g in grand {
                    self.names[g.oid.0 as usize] = p.new_name.clone();
                }
            }
            (Some((true, _)), None) => {}
            _ => self.side.failed += 1,
        }
    }

    /// A placement pass, with the answers checked before and after.
    fn pass(&mut self, ctx: &Ctx) {
        self.probe(ctx);
        let before = self.store.database_pages();
        let t = Instant::now();
        match self.store.reorganize() {
            Ok(report) => self.side.passes.push(Pass {
                ns: ns(t),
                report,
                growth: u64::from(self.store.database_pages().saturating_sub(before)),
            }),
            Err(_) => self.side.failed += 1,
        }
        self.probe(ctx);
        self.drain_bg();
    }

    fn probe(&mut self, ctx: &Ctx) {
        for root in reorg_probe_roots(ctx.oracle.len()) {
            let root = ctx.oracle.obj(root);
            let names = &self.names;
            let ok = nav_mut(&mut *self.store, root, None, &mut Calls::default())
                .map(|a| check(&ctx.oracle, root, &a, |o, n| names[o] == n))
                .unwrap_or(false);
            if !ok {
                self.side.failed += 1;
            }
        }
    }

    fn crash_and_verify(&mut self, ctx: &Ctx) {
        let Some(h) = self.handle.clone() else {
            self.side.failed += 1;
            return;
        };
        h.pool().crash_volatile();
        let t = Instant::now();
        if h.pool().recover().is_err() {
            self.side.failed += 1;
        }
        self.side.recover_ns.push(ns(t));
        self.side.durability_checks += self.names.len() as u64;
        let store = &mut *self.store;
        match read_all(&ctx.oracle, |chunk| store.root_records(chunk)) {
            Some(got) => {
                self.side.failed +=
                    got.iter().zip(&self.names).filter(|(a, b)| a != b).count() as u64;
            }
            None => self.side.failed += self.names.len() as u64,
        }
        self.drain_bg();
        self.warm(ctx);
        self.drain_bg();
    }

    /// Flushes and records the on-disk checksum.
    pub fn finish(&mut self) {
        if self.store.flush().is_err() {
            self.side.failed += 1;
        }
        trace::drain();
        self.side.checksum = self.store.disk_checksum();
    }
}

/// One shared store served by `clients` threads through the concurrent trait.
pub struct Concurrent {
    /// The model.
    pub kind: ModelKind,
    primary: bool,
    store: Box<dyn ConcurrentObjectStore>,
    tapes: Vec<Tape>,
    names: Vec<String>,
    episode: usize,
    /// One per client.
    references: Vec<Reference>,
    /// What was measured.
    pub side: Side,
}

/// What one client thread measured in an episode.
#[derive(Default)]
struct ClientOut {
    lat_ns: Vec<u64>,
    ref_ns: Vec<u64>,
    calls: Calls,
    failed: u64,
    requests: u64,
    /// Object → index of this client's last acknowledged update of it.
    last: HashMap<usize, usize>,
}

impl Concurrent {
    /// Builds, loads and warms a shared store.
    pub fn new(ctx: &Ctx, kind: ModelKind, primary: bool) -> (Concurrent, SetupTimes) {
        let t = Instant::now();
        let mut store = make_shared_store(kind, ctx.spec.config(), 2);
        let mut failed = 0;
        match store.load(&ctx.db) {
            Ok(refs) if loaded_refs_ok(&refs, &ctx.oracle) => {}
            _ => failed += 1,
        }
        let load_ns = ns(t);
        let mut s = Concurrent {
            kind,
            primary,
            store,
            tapes: (0..ctx.spec.clients)
                .map(|c| Tape::new(ctx.seed, 10 + c as u64, ctx.spec.picker, ctx.oracle.len()))
                .collect(),
            names: ctx.oracle.names.clone(),
            episode: 0,
            references: (0..ctx.spec.clients)
                .map(|_| Reference::default())
                .collect(),
            side: Side::default(),
        };
        s.side.failed = failed;
        let t = Instant::now();
        s.warm(ctx);
        (
            s,
            SetupTimes {
                load_ns,
                warm_ns: ns(t),
            },
        )
    }

    fn warm(&mut self, ctx: &Ctx) {
        let mut seen = 0usize;
        if self.store.shared_scan_all(&mut |_| seen += 1).is_err() || seen != ctx.oracle.len() {
            self.side.failed += 1;
        }
    }

    /// Runs one episode: the clients serve, then the store crashes and
    /// recovers, and every object's name is checked against what was
    /// acknowledged.
    pub fn episode(&mut self, ctx: &Ctx) {
        let clients = ctx.spec.clients;
        let per_client = ctx.spec.episode_len(self.kind) / clients;
        let segs: Vec<Vec<usize>> = self.tapes.iter_mut().map(|t| t.take(per_client)).collect();
        let io0 = self.store.snapshot();
        let buf0 = self.store.buffer_stats();
        let done = AtomicU64::new(0);
        let serve = Instant::now();
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let (segs, done, store, names) = (&segs, &done, &*self.store, &self.names);
            let handles: Vec<_> = self
                .references
                .iter_mut()
                .enumerate()
                .map(|(c, reference)| {
                    let episode = self.episode;
                    let first = self.primary && c == 0 && episode == 0;
                    let inject = if first { ctx.inject } else { None };
                    let cl = Client {
                        c,
                        episode,
                        segs,
                        names,
                        done,
                        what: inject,
                    };
                    s.spawn(move || client(ctx, store, cl, reference))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let serve_ns = ns(serve);
        self.side.serve_ns += serve_ns;
        self.side.episode_serve_ns.push(serve_ns);
        let mut lat = Vec::with_capacity(per_client * clients);
        let mut refs = Vec::new();
        let mut expected: Vec<Vec<String>> = self.names.iter().map(|n| vec![n.clone()]).collect();
        let mut touched = vec![false; expected.len()];
        for (c, out) in outs.iter().enumerate() {
            lat.extend_from_slice(&out.lat_ns);
            refs.extend_from_slice(&out.ref_ns);
            self.side.calls.add(&out.calls);
            self.side.failed += out.failed;
            self.side.requests += out.requests;
            for (&oid, &j) in &out.last {
                if !touched[oid] {
                    expected[oid].clear();
                    touched[oid] = true;
                }
                expected[oid].push(patch_name(c, self.episode, j));
            }
        }
        self.side.episode_lat.push(lat);
        self.side.episode_ref.push(refs);
        // Crash with every client stopped: all issued updates were
        // acknowledged, so each object must read back as the last value
        // one of the clients wrote to it (or its old value if none did).
        self.store.simulate_crash();
        let t = Instant::now();
        if self.store.recover().is_err() {
            self.side.failed += 1;
        }
        self.side.recover_ns.push(ns(t));
        self.side.durability_checks += expected.len() as u64;
        let store = &*self.store;
        match read_all(&ctx.oracle, |chunk| store.shared_root_records(chunk)) {
            Some(got) => {
                self.side.failed += got
                    .iter()
                    .zip(&expected)
                    .filter(|(g, e)| !e.contains(g))
                    .count() as u64;
                self.names = got;
            }
            None => self.side.failed += expected.len() as u64,
        }
        let io = self.store.snapshot() - io0;
        let buf1 = self.store.buffer_stats();
        self.side.episode_io.push(io);
        self.side.buf.evictions += buf1.evictions - buf0.evictions;
        self.side.buf.dirty_evictions += buf1.dirty_evictions - buf0.dirty_evictions;
        self.side.buf.latch_waits += buf1.latch_waits - buf0.latch_waits;
        let db_pages = self.store.database_pages();
        self.side
            .add_to_window(self.episode, io, (per_client * clients) as u64, db_pages);
        self.warm(ctx);
        self.episode += 1;
    }

    /// Flushes and records the on-disk checksum.
    pub fn finish(&mut self) {
        if self.store.shared_flush().is_err() {
            self.side.failed += 1;
        }
        self.side.checksum = self.store.disk_checksum();
    }
}

/// What one client of a [`Concurrent`] episode serves.
struct Client<'a> {
    /// Client number.
    c: usize,
    episode: usize,
    /// Every client's roots for the episode.
    segs: &'a [Vec<usize>],
    /// Every object's name before the episode.
    names: &'a [String],
    /// Requests completed by all clients, for the checkpoint schedule.
    done: &'a AtomicU64,
    /// Injected failure, if any.
    what: Option<Inject>,
}

/// One closed-loop client of a [`Concurrent`] episode.
fn client(
    ctx: &Ctx,
    store: &dyn ConcurrentObjectStore,
    cl: Client<'_>,
    reference: &mut Reference,
) -> ClientOut {
    let Client {
        c,
        episode,
        segs,
        names,
        done,
        what,
    } = cl;
    let mut out = ClientOut::default();
    reference.begin();
    // A name read back is valid if it is the object's value from before the
    // episode, or one this episode's update requests wrote to that object.
    let valid = |oid: usize, name: &str| {
        name == names[oid]
            || parse_patch(name).is_some_and(|(pc, pe, pj)| {
                pe == episode
                    && pc < segs.len()
                    && pj % 2 == 1
                    && pj < segs[pc].len()
                    && ctx
                        .oracle
                        .grand_children(segs[pc][pj])
                        .iter()
                        .any(|r| r.oid.0 as usize == oid)
            })
    };
    for (j, &root) in segs[c].iter().enumerate() {
        let root = ctx.oracle.obj(root);
        let patch = (j % 2 == 1).then(|| RootPatch {
            new_name: patch_name(c, episode, j),
        });
        let mut calls = Calls::default();
        let t = Instant::now();
        let ans = nav_shared(store, root, patch.as_ref(), &mut calls);
        calls.request_ns = ns(t);
        out.lat_ns.push(calls.request_ns);
        out.requests += 1;
        out.calls.add(&calls);
        let ans = inject(what, out.requests, ans);
        match ans {
            Ok(a) if check(&ctx.oracle, root, &a, valid) => {
                if patch.is_some() {
                    for g in &a.grand {
                        out.last.insert(g.oid.0 as usize, j);
                    }
                }
            }
            _ => out.failed += 1,
        }
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        let checkpoint =
            ctx.spec.checkpoint_every > 0 && n.is_multiple_of(ctx.spec.checkpoint_every as u64);
        if checkpoint && store.shared_flush().is_err() {
            out.failed += 1;
        }
        reference.tick();
    }
    out.ref_ns = reference.end();
    out
}
