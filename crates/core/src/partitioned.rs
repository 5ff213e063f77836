//! Multi-node partitioning: the paper's closing hypothesis, §5.5.
//!
//! > "Notice, however, that in a distributed system the data skew might
//! > cause more effects, which could possibly be distinguishing for the
//! > storage models as well. For, with data skew the disk I/Os are likely
//! > to be less equally distributed over the nodes if we store a single
//! > object on a single node."
//!
//! [`PartitionedStore`] implements exactly that setup: a shared-nothing
//! cluster of `n` nodes, each running its own store of the same model over
//! its own disk and buffer, with **every object placed whole on one node**.
//! Navigation routes each object access to its owner; per-node I/O counters
//! expose the load distribution the paper speculates about (see the
//! `ext_distributed` harness experiment).
//!
//! # Concurrent serving
//!
//! Every node is a [`ConcurrentObjectStore`] over its own sharded
//! [`SharedBufferPool`](starfish_pagestore::SharedBufferPool) (optionally
//! with a per-node WAL and batched I/O engine — whatever the
//! [`StoreConfig`] carries applies to each node). The cluster itself
//! implements both surfaces:
//!
//! * the serial [`ComplexObjectStore`] methods route each op to its owner
//!   and run it to completion — with one shard per node this replays the
//!   paper's serial measurements counter for counter;
//! * the `&self` [`ConcurrentObjectStore`] methods do the same routing but
//!   are callable from N client threads at once; cross-node ops (scans,
//!   flushes) fan out and merge in ascending node order, so answers are
//!   deterministic.
//!
//! [`with_cluster_router`] adds the serving topology on top: one
//! [`Reactor`] worker pool **per node**, with [`ClusterRouter`] mapping
//! each request to its owning node's queue by [`PartitionedStore::node_of`]
//! — the shared-nothing analogue of the single-store reactor. Lock order is
//! unchanged (gate → shards ascending → disk → log, per node); the router
//! and reactor mutexes are client-side and are never held across a store
//! call, so they sit outside (above) the per-node order and cannot
//! participate in a cycle.

use crate::concurrent::{
    make_shared_store, ConcurrentObjectStore, QueryRequest, QueryResponse, Reactor, ShutdownGuard,
    Ticket,
};
use crate::traits::{ComplexObjectStore, ObjRef, RelationInfo, RootPatch};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::Station;
use starfish_nf2::{Key, Oid, Projection, Tuple};
use starfish_pagestore::{BufferStats, IoSnapshot};
use std::collections::HashMap;

/// Object-to-node placement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Object `i` goes to node `i mod n` (the balanced baseline).
    RoundRobin,
    /// Object goes to node `hash(key) mod n` (placement by key).
    HashKey,
}

impl Placement {
    fn node_of(&self, ordinal: usize, key: Key, nodes: usize) -> usize {
        match self {
            Placement::RoundRobin => ordinal % nodes,
            Placement::HashKey => {
                // FNV-1a over the key bytes: deterministic and spread-out.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in key.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
                (h % nodes as u64) as usize
            }
        }
    }
}

/// A shared-nothing cluster of single-model stores with whole-object
/// placement. Each node serves concurrently from its own sharded pool;
/// object ops route to the owning node, and cross-node ops (scans,
/// flushes) fan out and merge in ascending node order.
pub struct PartitionedStore {
    kind: ModelKind,
    placement: Placement,
    nodes: Vec<Box<dyn ConcurrentObjectStore>>,
    /// Global ordinal → (node, node-local ref).
    locate: Vec<(usize, ObjRef)>,
    key_to_global: HashMap<Key, usize>,
    refs: Vec<ObjRef>,
}

impl PartitionedStore {
    /// Builds an empty cluster of `n_nodes` stores of `kind`, one pool
    /// shard per node — the configuration that replays serial measurements
    /// counter for counter. Each node gets its own buffer of
    /// `config.buffer.pages` pages — pass a per-node budget (e.g. total/n)
    /// for memory-fair comparisons against a single node.
    pub fn new(kind: ModelKind, n_nodes: usize, placement: Placement, config: StoreConfig) -> Self {
        Self::with_shards(kind, n_nodes, placement, config, 1)
    }

    /// Builds an empty cluster whose nodes each run `shards_per_node`
    /// lock-striped pool shards — the concurrent-serving configuration.
    /// Whatever `config` enables (WAL, batched I/O engine) applies to
    /// every node independently.
    pub fn with_shards(
        kind: ModelKind,
        n_nodes: usize,
        placement: Placement,
        config: StoreConfig,
        shards_per_node: usize,
    ) -> Self {
        assert!(n_nodes > 0, "need at least one node");
        PartitionedStore {
            kind,
            placement,
            nodes: (0..n_nodes)
                .map(|_| make_shared_store(kind, config.clone(), shards_per_node.max(1)))
                .collect(),
            locate: Vec::new(),
            key_to_global: HashMap::new(),
            refs: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Which node owns global object `oid`.
    pub fn node_of(&self, oid: Oid) -> Result<usize> {
        self.locate
            .get(oid.0 as usize)
            .map(|(n, _)| *n)
            .ok_or_else(|| self.unknown_object(oid))
    }

    /// Per-node I/O snapshots — the load-distribution view of §5.5.
    pub fn node_snapshots(&self) -> Vec<IoSnapshot> {
        self.nodes.iter().map(|n| n.snapshot()).collect()
    }

    /// Per-node on-disk fingerprints, for byte-identity checks against a
    /// serially-driven oracle cluster (node order is placement order, so
    /// two equally-configured clusters compare element for element).
    pub fn node_checksums(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.disk_checksum()).collect()
    }

    /// The out-of-range error for `oid`, naming the cluster shape so a
    /// mis-routed request is debuggable from the message alone.
    fn unknown_object(&self, oid: Oid) -> CoreError {
        CoreError::NotFound {
            what: format!(
                "object {oid}: cluster of {} nodes holds {} objects (#0..#{})",
                self.nodes.len(),
                self.locate.len(),
                self.locate.len().saturating_sub(1),
            ),
        }
    }

    fn local(&self, r: &ObjRef) -> Result<(usize, ObjRef)> {
        self.locate
            .get(r.oid.0 as usize)
            .copied()
            .ok_or_else(|| self.unknown_object(r.oid))
    }
}

impl ComplexObjectStore for PartitionedStore {
    fn model(&self) -> ModelKind {
        self.kind
    }

    fn load(&mut self, stations: &[Station]) -> Result<Vec<ObjRef>> {
        let n = self.nodes.len();
        let mut per_node: Vec<Vec<Station>> = vec![Vec::new(); n];
        let mut node_and_local_ordinal = Vec::with_capacity(stations.len());
        self.key_to_global.clear();
        self.refs.clear();
        for (i, s) in stations.iter().enumerate() {
            let node = self.placement.node_of(i, s.key, n);
            node_and_local_ordinal.push((node, per_node[node].len()));
            per_node[node].push(s.clone());
            self.key_to_global.insert(s.key, i);
            self.refs.push(ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            });
        }
        let mut local_refs: Vec<Vec<ObjRef>> = Vec::with_capacity(n);
        for (node, store) in self.nodes.iter_mut().enumerate() {
            local_refs.push(store.load(&per_node[node])?);
        }
        self.locate = node_and_local_ordinal
            .iter()
            .map(|&(node, ord)| (node, local_refs[node][ord]))
            .collect();
        Ok(self.refs.clone())
    }

    fn object_count(&self) -> usize {
        self.refs.len()
    }

    // The serial surface routes exactly like the shared one — one code
    // path, so serial runs and 1-client routed runs are the same ops in
    // the same order.

    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        self.shared_get_by_oid(oid, proj)
    }

    fn get_by_key(&mut self, key: Key, proj: &Projection) -> Result<Tuple> {
        self.shared_get_by_key(key, proj)
    }

    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        self.shared_scan_all(f)
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

    fn flush(&mut self) -> Result<()> {
        self.shared_flush()
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.shared_clear_cache()
    }

    fn reset_stats(&mut self) {
        for n in self.nodes.iter_mut() {
            n.reset_stats();
        }
    }

    fn snapshot(&self) -> IoSnapshot {
        // Every counter folds (WAL and engine counters included); the
        // queue-depth high-water keeps the max across nodes.
        self.nodes
            .iter()
            .map(|n| n.snapshot())
            .fold(IoSnapshot::default(), |mut acc, s| {
                acc.accumulate(&s);
                acc
            })
    }

    fn buffer_stats(&self) -> BufferStats {
        self.nodes
            .iter()
            .map(|n| n.buffer_stats())
            .fold(BufferStats::default(), |mut acc, s| {
                acc.accumulate(&s);
                acc
            })
    }

    fn relation_info(&self) -> Vec<RelationInfo> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| {
                n.relation_info().into_iter().map(move |mut ri| {
                    ri.name = format!("node{i}/{}", ri.name);
                    ri
                })
            })
            .collect()
    }

    fn database_pages(&self) -> u32 {
        self.nodes.iter().map(|n| n.database_pages()).sum()
    }

    fn disk_checksum(&self) -> u64 {
        // Order-sensitive combination of the per-node fingerprints.
        self.nodes
            .iter()
            .fold(0u64, |acc, n| acc.rotate_left(1) ^ n.disk_checksum())
    }
}

impl ConcurrentObjectStore for PartitionedStore {
    fn shared_get_by_oid(&self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        let (node, local) = self.local(&ObjRef { oid, key: 0 })?;
        self.nodes[node].shared_get_by_oid(local.oid, proj)
    }

    fn shared_get_by_key(&self, key: Key, proj: &Projection) -> Result<Tuple> {
        // A global catalog (uncounted, like the paper's address tables)
        // routes the value selection to the owning node; the node still
        // pays its model's local lookup cost.
        let global = *self
            .key_to_global
            .get(&key)
            .ok_or_else(|| CoreError::NotFound {
                what: format!("key {key}"),
            })?;
        let (node, _) = self.locate[global];
        self.nodes[node].shared_get_by_key(key, proj)
    }

    fn shared_scan_all(&self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        // Fan out (each node scans once, ascending node order), then emit
        // in global object order — the deterministic cross-node merge.
        let n = self.nodes.len();
        let mut per_node: Vec<Vec<Tuple>> = Vec::with_capacity(n);
        for store in &self.nodes {
            let mut acc = Vec::new();
            store.shared_scan_all(&mut |t| acc.push(t.clone()))?;
            per_node.push(acc);
        }
        let mut cursors = vec![0usize; n];
        for &(node, _) in &self.locate {
            let t = &per_node[node][cursors[node]];
            cursors[node] += 1;
            f(t);
        }
        Ok(())
    }

    fn shared_children_of(&self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        // Route each object to its owner, preserving input order — in a
        // shared-nothing cluster every object access is a per-node request.
        let mut out = Vec::new();
        for r in refs {
            let (node, local) = self.local(r)?;
            out.extend(self.nodes[node].shared_children_of(&[local])?);
        }
        Ok(out)
    }

    fn shared_root_records(&self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        refs.iter()
            .map(|r| {
                let (node, local) = self.local(r)?;
                let mut rec = self.nodes[node].shared_root_records(&[local])?;
                rec.pop().ok_or_else(|| self.unknown_object(r.oid))
            })
            .collect()
    }

    fn shared_update_roots(&self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        for r in refs {
            let (node, local) = self.local(r)?;
            self.nodes[node].shared_update_roots(&[local], patch)?;
        }
        Ok(())
    }

    fn shared_flush(&self) -> Result<()> {
        for n in &self.nodes {
            n.shared_flush()?;
        }
        Ok(())
    }

    fn shared_clear_cache(&self) -> Result<()> {
        for n in &self.nodes {
            n.shared_clear_cache()?;
        }
        Ok(())
    }

    fn shard_stats(&self) -> Vec<BufferStats> {
        // Ascending node order, each node's shards in shard order.
        self.nodes.iter().flat_map(|n| n.shard_stats()).collect()
    }

    fn simulate_crash(&self) {
        for n in &self.nodes {
            n.simulate_crash();
        }
    }

    fn recover(&self) -> Result<usize> {
        let mut replayed = 0;
        for n in &self.nodes {
            replayed += n.recover()?;
        }
        Ok(replayed)
    }

    fn damage_log_tail(&self, bytes: u32) {
        for n in &self.nodes {
            n.damage_log_tail(bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// The cluster router: per-node reactor pools behind one dispatch surface
// ---------------------------------------------------------------------------

/// A completion token from the [`ClusterRouter`]'s `submit_*` calls: which
/// node's reactor holds the completion, plus its local ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterTicket {
    node: usize,
    ticket: Ticket,
}

impl ClusterTicket {
    /// The node whose reactor will complete this request.
    pub fn node(&self) -> usize {
        self.node
    }
}

/// The routed request-dispatch front-end over a [`PartitionedStore`]: one
/// [`Reactor`] (with its own worker pool) per node, requests mapped to
/// their owning node by [`PartitionedStore::node_of`] and translated into
/// node-local refs on the way in. Cross-node operations (scans, flushes,
/// grouped updates) fan out one ticket per node; waiting on the returned
/// tickets in order merges completions in ascending node order, which
/// keeps the answers deterministic.
///
/// Built by [`with_cluster_router`], which owns the worker lifetimes.
pub struct ClusterRouter<'a> {
    cluster: &'a PartitionedStore,
    reactors: Vec<Reactor<'a>>,
}

impl ClusterRouter<'_> {
    /// Number of nodes (= per-node reactors).
    pub fn node_count(&self) -> usize {
        self.reactors.len()
    }

    /// Submits a query-1a retrieval to the owning node.
    pub fn submit_get_by_oid(&self, oid: Oid, proj: Projection) -> Result<ClusterTicket> {
        let (node, local) = self.cluster.local(&ObjRef { oid, key: 0 })?;
        Ok(self.submit_to(
            node,
            QueryRequest::GetByOid {
                oid: local.oid,
                proj,
            },
        ))
    }

    /// Submits a query-1b retrieval to the owning node (global catalog
    /// lookup, like [`PartitionedStore::get_by_key`]).
    pub fn submit_get_by_key(&self, key: Key, proj: Projection) -> Result<ClusterTicket> {
        let global = *self
            .cluster
            .key_to_global
            .get(&key)
            .ok_or_else(|| CoreError::NotFound {
                what: format!("key {key}"),
            })?;
        let (node, _) = self.cluster.locate[global];
        Ok(self.submit_to(node, QueryRequest::GetByKey { key, proj }))
    }

    /// Submits one navigation step for `r` to its owning node. The
    /// completed [`QueryResponse::Refs`] are **global** refs (connection
    /// OIDs live in the global space), directly submittable for the next
    /// hop.
    pub fn submit_children_of(&self, r: ObjRef) -> Result<ClusterTicket> {
        let (node, local) = self.cluster.local(&r)?;
        Ok(self.submit_to(node, QueryRequest::ChildrenOf { refs: vec![local] }))
    }

    /// Submits the root-record fetch for `r` to its owning node.
    pub fn submit_root_record(&self, r: ObjRef) -> Result<ClusterTicket> {
        let (node, local) = self.cluster.local(&r)?;
        Ok(self.submit_to(node, QueryRequest::RootRecords { refs: vec![local] }))
    }

    /// Groups `refs` by owning node (preserving relative order) and
    /// submits one `UpdateRoots` per involved node. Wait on every returned
    /// ticket before depending on the patch.
    pub fn submit_update_roots(
        &self,
        refs: &[ObjRef],
        patch: &RootPatch,
    ) -> Result<Vec<ClusterTicket>> {
        let mut per_node: Vec<Vec<ObjRef>> = vec![Vec::new(); self.reactors.len()];
        for r in refs {
            let (node, local) = self.cluster.local(r)?;
            per_node[node].push(local);
        }
        Ok(per_node
            .into_iter()
            .enumerate()
            .filter(|(_, refs)| !refs.is_empty())
            .map(|(node, refs)| {
                self.submit_to(
                    node,
                    QueryRequest::UpdateRoots {
                        refs,
                        patch: patch.clone(),
                    },
                )
            })
            .collect())
    }

    /// Fans a full scan out to every node (one ticket per node, ascending
    /// node order). Each completes with its node-local
    /// [`QueryResponse::ScanCount`]; the cluster count is their sum.
    pub fn submit_scan_all(&self) -> Vec<ClusterTicket> {
        (0..self.reactors.len())
            .map(|node| self.submit_to(node, QueryRequest::ScanAll))
            .collect()
    }

    /// Fans a disconnect flush out to every node, ascending node order.
    pub fn submit_flush(&self) -> Vec<ClusterTicket> {
        (0..self.reactors.len())
            .map(|node| self.submit_to(node, QueryRequest::Flush))
            .collect()
    }

    /// Cold restart across the cluster, bypassing the queues: each node's
    /// pool quiesces its own writers, so this is safe while requests are
    /// in flight — they just go cold.
    pub fn clear_cache_all(&self) -> Result<()> {
        self.cluster.shared_clear_cache()
    }

    /// Redeems `t` if completed (`None` while queued or executing).
    pub fn poll_complete(&self, t: ClusterTicket) -> Option<Result<QueryResponse>> {
        self.reactors[t.node].poll_complete(t.ticket)
    }

    /// Blocks until `t` completes and redeems it.
    pub fn wait(&self, t: ClusterTicket) -> Result<QueryResponse> {
        self.reactors[t.node].wait(t.ticket)
    }

    /// Per-node submission-queue high-water marks (ascending node order) —
    /// how far clients ran ahead of each node's worker pool.
    pub fn queue_high_water(&self) -> Vec<u64> {
        self.reactors.iter().map(|r| r.queue_high_water()).collect()
    }

    fn submit_to(&self, node: usize, req: QueryRequest) -> ClusterTicket {
        ClusterTicket {
            node,
            ticket: self.reactors[node].submit(req),
        }
    }
}

/// Runs `f` against a [`ClusterRouter`] serving `cluster` with
/// `workers_per_node` event-loop threads **per node** (at least one each).
/// Requests still queued when `f` returns are drained before teardown;
/// unredeemed completions are dropped.
///
/// ```
/// use starfish_core::{
///     with_cluster_router, ComplexObjectStore, ModelKind, PartitionedStore, Placement,
///     QueryResponse, StoreConfig,
/// };
/// use starfish_nf2::{station::Station, Projection};
///
/// let mut cluster = PartitionedStore::new(
///     ModelKind::DasdbsNsm, 2, Placement::RoundRobin, StoreConfig::default(),
/// );
/// let db: Vec<Station> = (0..4)
///     .map(|k| Station { key: k, name: format!("S{k}"), platforms: vec![], sightseeings: vec![] })
///     .collect();
/// let refs = cluster.load(&db)?;
/// let answer = with_cluster_router(&cluster, 2, |router| {
///     let t = router.submit_get_by_oid(refs[3].oid, Projection::All)?;
///     router.wait(t)
/// })?;
/// assert!(matches!(answer, QueryResponse::Tuple(_)));
/// # Ok::<(), starfish_core::CoreError>(())
/// ```
pub fn with_cluster_router<R>(
    cluster: &PartitionedStore,
    workers_per_node: usize,
    f: impl FnOnce(&ClusterRouter<'_>) -> R,
) -> R {
    let router = ClusterRouter {
        cluster,
        reactors: cluster
            .nodes
            .iter()
            .map(|n| Reactor::new(n.as_ref()))
            .collect(),
    };
    std::thread::scope(|s| {
        for r in &router.reactors {
            for _ in 0..workers_per_node.max(1) {
                s.spawn(move || r.worker());
            }
        }
        let guards: Vec<_> = router.reactors.iter().map(ShutdownGuard).collect();
        let out = f(&router);
        drop(guards);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::make_store;
    use starfish_nf2::station::{Connection, Platform};

    fn station(key: Key, children: &[u32]) -> Station {
        Station {
            key,
            name: format!("{key:0100}"),
            platforms: vec![Platform {
                platform_nr: 1,
                no_line: 1,
                ticket_code: 0,
                information: "i".repeat(100),
                connections: children
                    .iter()
                    .map(|&c| Connection {
                        line_nr: 1,
                        key_connection: 100 + c as i32,
                        oid_connection: Oid(c),
                        departure_times: "t".repeat(100),
                    })
                    .collect(),
            }],
            sightseeings: vec![],
        }
    }

    fn db() -> Vec<Station> {
        (0..10)
            .map(|i| station(100 + i, &[(i as u32 + 1) % 10, (i as u32 + 5) % 10]))
            .collect()
    }

    fn cluster(kind: ModelKind, nodes: usize) -> PartitionedStore {
        let mut s = PartitionedStore::new(
            kind,
            nodes,
            Placement::RoundRobin,
            StoreConfig::with_buffer_pages(256),
        );
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn round_robin_places_evenly() {
        let s = cluster(ModelKind::DasdbsNsm, 3);
        let mut counts = [0usize; 3];
        for i in 0..10 {
            counts[s.node_of(Oid(i)).unwrap()] += 1;
        }
        assert_eq!(counts, [4, 3, 3]);
    }

    #[test]
    fn behaves_like_a_single_store_logically() {
        for kind in [ModelKind::Dsm, ModelKind::DasdbsDsm, ModelKind::DasdbsNsm] {
            let mut part = cluster(kind, 3);
            let mut single = make_store(kind, StoreConfig::with_buffer_pages(256));
            let refs = single.load(&db()).unwrap();
            // Same objects by OID and by key.
            for r in &refs {
                let a = part.get_by_oid(r.oid, &Projection::All).unwrap();
                let b = single.get_by_oid(r.oid, &Projection::All).unwrap();
                assert_eq!(a, b, "{kind} oid {}", r.oid);
                let a = part.get_by_key(r.key, &Projection::All).unwrap();
                assert_eq!(a, b, "{kind} key {}", r.key);
            }
            // Same navigation.
            let a = part.children_of(&refs).unwrap();
            let b = single.children_of(&refs).unwrap();
            assert_eq!(a, b, "{kind}");
            // Same root records.
            let a = part.root_records(&refs[..4]).unwrap();
            let b = single.root_records(&refs[..4]).unwrap();
            assert_eq!(a, b, "{kind}");
            // Same scan order.
            let mut sa = Vec::new();
            part.scan_all(&mut |t| sa.push(t.clone())).unwrap();
            let mut sb = Vec::new();
            single.scan_all(&mut |t| sb.push(t.clone())).unwrap();
            assert_eq!(sa, sb, "{kind}");
        }
    }

    #[test]
    fn updates_route_to_owners_and_persist() {
        let mut part = cluster(ModelKind::DasdbsNsm, 4);
        let refs = part.refs.clone();
        let new_name = "Z".repeat(100);
        part.update_roots(
            &refs[..5],
            &RootPatch {
                new_name: new_name.clone(),
            },
        )
        .unwrap();
        part.clear_cache().unwrap();
        for r in &refs[..5] {
            let t = part.get_by_oid(r.oid, &Projection::All).unwrap();
            assert_eq!(
                Station::from_tuple(&t).unwrap().name,
                new_name,
                "object {}",
                r.oid
            );
        }
    }

    #[test]
    fn per_node_counters_sum_to_the_aggregate() {
        let mut part = cluster(ModelKind::Dsm, 3);
        let refs = part.refs.clone();
        part.clear_cache().unwrap();
        part.reset_stats();
        part.children_of(&refs).unwrap();
        let per_node = part.node_snapshots();
        let total = part.snapshot();
        assert_eq!(
            per_node.iter().map(|s| s.pages_read).sum::<u64>(),
            total.pages_read
        );
        assert_eq!(per_node.iter().map(|s| s.fixes).sum::<u64>(), total.fixes);
        assert!(per_node.iter().filter(|s| s.pages_read > 0).count() >= 2);
    }

    #[test]
    fn hash_placement_is_deterministic_and_complete() {
        let mut a = PartitionedStore::new(
            ModelKind::DasdbsNsm,
            5,
            Placement::HashKey,
            StoreConfig::with_buffer_pages(128),
        );
        a.load(&db()).unwrap();
        let mut b = PartitionedStore::new(
            ModelKind::DasdbsNsm,
            5,
            Placement::HashKey,
            StoreConfig::with_buffer_pages(128),
        );
        b.load(&db()).unwrap();
        for i in 0..10 {
            assert_eq!(a.node_of(Oid(i)).unwrap(), b.node_of(Oid(i)).unwrap());
        }
        // Every object is reachable.
        for r in a.refs.clone() {
            a.get_by_oid(r.oid, &Projection::All).unwrap();
        }
    }

    #[test]
    fn single_node_cluster_degenerates_cleanly() {
        let mut part = cluster(ModelKind::DasdbsDsm, 1);
        assert_eq!(part.node_count(), 1);
        let refs = part.refs.clone();
        assert_eq!(part.children_of(&refs[..1]).unwrap().len(), 2);
        assert!(part.database_pages() > 0);
    }

    #[test]
    fn missing_objects_error() {
        let mut part = cluster(ModelKind::DasdbsNsm, 2);
        assert!(matches!(
            part.get_by_oid(Oid(99), &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
        assert!(matches!(
            part.get_by_key(9999, &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }

    /// The out-of-range message names the offending OID *and* the cluster
    /// shape, so a mis-routed request is debuggable from the error alone.
    #[test]
    fn node_of_error_names_oid_and_cluster_shape() {
        let part = cluster(ModelKind::DasdbsNsm, 3);
        let msg = part.node_of(Oid(99)).unwrap_err().to_string();
        assert!(msg.contains("object #99"), "missing oid: {msg}");
        assert!(msg.contains("3 nodes"), "missing node count: {msg}");
        assert!(msg.contains("10 objects"), "missing object count: {msg}");
    }

    /// The shared surface answers exactly like the serial one, from plain
    /// `&self` (as N client threads would call it).
    #[test]
    fn shared_surface_matches_serial_routing() {
        let mut part = cluster(ModelKind::DasdbsNsm, 3);
        let refs = part.refs.clone();
        let serial_children = part.children_of(&refs).unwrap();
        let serial_roots = part.root_records(&refs).unwrap();
        let shared = &part;
        assert_eq!(shared.shared_children_of(&refs).unwrap(), serial_children);
        assert_eq!(shared.shared_root_records(&refs).unwrap(), serial_roots);
        let mut n = 0usize;
        shared.shared_scan_all(&mut |_| n += 1).unwrap();
        assert_eq!(n, 10);
    }

    /// Routed dispatch: answers come back from the owning nodes, global
    /// refs stay valid across hops, fan-outs merge deterministically, and
    /// the per-node queue high-water is populated.
    #[test]
    fn router_matches_serial_cluster() {
        let mut part = cluster(ModelKind::DasdbsNsm, 3);
        let refs = part.refs.clone();
        let want_children = part.children_of(&refs).unwrap();
        let want_tuples: Vec<Tuple> = refs
            .iter()
            .map(|r| part.get_by_oid(r.oid, &Projection::All).unwrap())
            .collect();
        with_cluster_router(&part, 2, |router| {
            assert_eq!(router.node_count(), 3);
            // Retrieval by OID, many in flight at once.
            let tickets: Vec<ClusterTicket> = refs
                .iter()
                .map(|r| router.submit_get_by_oid(r.oid, Projection::All).unwrap())
                .collect();
            for (t, want) in tickets.into_iter().zip(&want_tuples) {
                assert_eq!(router.wait(t).unwrap(), QueryResponse::Tuple(want.clone()));
            }
            // Navigation: per-ref tickets waited in input order rebuild the
            // serial answer; the refs that come back are global.
            let mut got = Vec::new();
            let hops: Vec<ClusterTicket> = refs
                .iter()
                .map(|r| router.submit_children_of(*r).unwrap())
                .collect();
            for t in hops {
                match router.wait(t).unwrap() {
                    QueryResponse::Refs(r) => got.extend(r),
                    other => panic!("unexpected response {other:?}"),
                }
            }
            assert_eq!(got, want_children);
            // Cross-node scan fan-out sums to the cluster count.
            let mut scanned = 0usize;
            for t in router.submit_scan_all() {
                match router.wait(t).unwrap() {
                    QueryResponse::ScanCount(n) => scanned += n,
                    other => panic!("unexpected response {other:?}"),
                }
            }
            assert_eq!(scanned, 10);
            let hw = router.queue_high_water();
            assert_eq!(hw.len(), 3);
            assert!(hw.iter().any(|&d| d >= 1));
        });
    }

    /// Routed updates group by owning node, persist, and survive a flush —
    /// and an out-of-range submission fails fast with the shaped error.
    #[test]
    fn router_updates_and_errors() {
        let mut part = cluster(ModelKind::DasdbsNsm, 4);
        let refs = part.refs.clone();
        let new_name = "Y".repeat(100);
        with_cluster_router(&part, 1, |router| {
            let tickets = router
                .submit_update_roots(
                    &refs[..6],
                    &RootPatch {
                        new_name: new_name.clone(),
                    },
                )
                .unwrap();
            assert!(tickets.len() >= 2, "6 round-robin refs span >= 2 nodes");
            for t in tickets {
                assert_eq!(router.wait(t).unwrap(), QueryResponse::Done);
            }
            for t in router.submit_flush() {
                assert_eq!(router.wait(t).unwrap(), QueryResponse::Done);
            }
            let err = router.submit_children_of(ObjRef {
                oid: Oid(99),
                key: 0,
            });
            assert!(err.is_err());
        });
        part.clear_cache().unwrap();
        for r in &refs[..6] {
            let t = part.get_by_oid(r.oid, &Projection::All).unwrap();
            assert_eq!(Station::from_tuple(&t).unwrap().name, new_name);
        }
    }

    /// A concurrently-served cluster (N shards per node) leaves every node
    /// disk byte-identical to the serially-driven single-shard cluster.
    #[test]
    fn sharded_nodes_leave_disks_byte_identical() {
        let config = StoreConfig::with_buffer_pages(256);
        let mut serial = PartitionedStore::new(
            ModelKind::DasdbsNsm,
            3,
            Placement::RoundRobin,
            config.clone(),
        );
        serial.load(&db()).unwrap();
        let mut sharded = PartitionedStore::with_shards(
            ModelKind::DasdbsNsm,
            3,
            Placement::RoundRobin,
            config,
            4,
        );
        sharded.load(&db()).unwrap();
        let refs = serial.refs.clone();
        let patch = RootPatch {
            new_name: "W".repeat(100),
        };
        serial.update_roots(&refs[..7], &patch).unwrap();
        serial.flush().unwrap();
        sharded.update_roots(&refs[..7], &patch).unwrap();
        sharded.flush().unwrap();
        assert_eq!(serial.node_checksums(), sharded.node_checksums());
        assert_eq!(serial.node_checksums().len(), 3);
    }
}
