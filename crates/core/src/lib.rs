//! # starfish-core — the five complex-object storage models
//!
//! Implements §3 of the ICDE 1993 paper behind one trait,
//! [`ComplexObjectStore`]:
//!
//! | Model | Paper § | Type | Idea |
//! |-------|---------|------|------|
//! | [`ModelKind::Dsm`] | §3.1 | direct | whole nested tuple stored contiguously; every access reads the whole object |
//! | [`ModelKind::DasdbsDsm`] | §3.2 | direct | same layout, but an *object header* enables fetching only the pages a query's projection needs |
//! | [`ModelKind::Nsm`] | §3.3 | normalized | four flat relations with foreign keys; no addresses, so lookups scan; joins in memory |
//! | [`ModelKind::NsmIndexed`] | §3.3 | normalized | NSM plus a memory-resident index `key → RIDs`: a page is read iff a tuple on it is requested |
//! | [`ModelKind::DasdbsNsm`] | §3.4 | normalized | relations nested on the foreign keys (one tuple per relation per object) plus the in-memory *transformation table* `key → addresses` |
//!
//! All models store the same logical objects and answer the same queries;
//! they differ exactly where the paper says they do — in which pages they
//! touch. The substrate ([`starfish_pagestore`]) counts pages, I/O calls and
//! buffer fixes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod concurrent;
mod dasdbs_nsm;
mod direct;
mod error;
mod nsm;
mod object_file;
mod partitioned;
mod placement;
mod traits;

pub use concurrent::{
    make_shared_store, with_reactor, ConcurrentObjectStore, QueryRequest, QueryResponse, Reactor,
    Ticket,
};
pub use dasdbs_nsm::DasdbsNsmStore;
pub use direct::DirectStore;
pub use error::CoreError;
pub use nsm::{nsm_connection_schema, NsmStore, RootKeyFilter};
pub use object_file::{subtuple_page_plan, ObjAddr, ObjectFile, ReadPayload};
pub use partitioned::{
    with_cluster_router, ClusterRouter, ClusterTicket, PartitionedStore, Placement,
};
pub use placement::{PlacementStats, ReorgReport};
pub use traits::{ComplexObjectStore, ObjRef, RelationInfo, RootPatch};

// Buffer construction knobs and the counter snapshot, re-exported so
// higher layers (harness, repro binary) can select a replacement policy
// and consume measurements without depending on the substrate crate
// directly.
pub use starfish_pagestore::{
    BufferConfig, FsyncMode, HeatConfig, IoEngineConfig, IoSnapshot, PolicyKind, SharedPoolHandle,
    WalConfig,
};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Which storage model a store implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Direct storage model (§3.1).
    Dsm,
    /// Direct model with DASDBS object headers and partial reads (§3.2).
    DasdbsDsm,
    /// Normalized storage model, pure (§3.3).
    Nsm,
    /// Normalized storage model with the in-memory index (§3.3, "NSM+index").
    NsmIndexed,
    /// Normalized model with nesting on foreign keys and the transformation
    /// table (§3.4).
    DasdbsNsm,
}

impl ModelKind {
    /// The paper's name for the model.
    pub fn paper_name(self) -> &'static str {
        match self {
            ModelKind::Dsm => "DSM",
            ModelKind::DasdbsDsm => "DASDBS-DSM",
            ModelKind::Nsm => "NSM",
            ModelKind::NsmIndexed => "NSM+index",
            ModelKind::DasdbsNsm => "DASDBS-NSM",
        }
    }

    /// The four models measured in the paper's Tables 4–6 (NSM+index only
    /// appears in the analytical Table 3).
    pub fn measured_models() -> [ModelKind; 4] {
        [
            ModelKind::Dsm,
            ModelKind::DasdbsDsm,
            ModelKind::Nsm,
            ModelKind::DasdbsNsm,
        ]
    }

    /// All five model variants.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::Dsm,
            ModelKind::DasdbsDsm,
            ModelKind::Nsm,
            ModelKind::NsmIndexed,
            ModelKind::DasdbsNsm,
        ]
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Store construction parameters.
#[derive(Clone, Debug, Default)]
pub struct StoreConfig {
    /// Buffer-pool configuration: capacity in pages (paper: 1200) plus
    /// replacement policy (paper: LRU).
    pub buffer: BufferConfig,
    /// Direct models only: keep sub-tuples whole on data pages (DASDBS's
    /// layout, which produces alignment waste — the "unprimed" behaviour of
    /// the paper's Tables 2/3). Default `false` = packed pages, the paper's
    /// primed variants.
    pub aligned_subtuples: bool,
}

impl StoreConfig {
    /// Config with a specific buffer capacity (and the default LRU policy).
    pub fn with_buffer_pages(buffer_pages: usize) -> Self {
        Self::with_buffer(BufferConfig::with_pages(buffer_pages))
    }

    /// Config with an explicit buffer configuration.
    pub fn with_buffer(buffer: BufferConfig) -> Self {
        StoreConfig {
            buffer,
            ..Default::default()
        }
    }

    /// Sets the buffer-replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.buffer.policy = policy;
        self
    }

    /// Enables the sub-tuple-aligned (wasteful, DASDBS-faithful) layout.
    pub fn aligned(mut self) -> Self {
        self.aligned_subtuples = true;
        self
    }

    /// Sets the write-ahead-log configuration. Only shared pools
    /// ([`make_shared_store`]) act on it; the exclusive [`make_store`]
    /// surface never logs, keeping the serial measurements byte-identical.
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.buffer.wal = wal;
        self
    }

    /// Sets the batched-I/O-engine configuration. Like the WAL, only
    /// shared pools ([`make_shared_store`]) act on it; disabled (the
    /// default) every miss stays on the synchronous path and all engine
    /// counters read zero.
    pub fn io_engine(mut self, io: IoEngineConfig) -> Self {
        self.buffer.io = io;
        self
    }

    /// Sets the page-heat tracking configuration (adaptive placement's
    /// access signal). Off by default: every golden counter stays
    /// byte-identical and [`ComplexObjectStore::reorganize`] degenerates to
    /// an identity rewrite.
    pub fn heat(mut self, heat: HeatConfig) -> Self {
        self.buffer.heat = heat;
        self
    }
}

/// Builds an empty store of the given model.
///
/// ```
/// use starfish_core::{make_store, ComplexObjectStore, ModelKind, StoreConfig};
/// use starfish_nf2::{station::Station, Projection};
///
/// let mut store = make_store(ModelKind::DasdbsNsm, StoreConfig::default());
/// let db = vec![Station { key: 1, name: "A".into(), platforms: vec![], sightseeings: vec![] }];
/// let refs = store.load(&db)?;
/// let tuple = store.get_by_oid(refs[0].oid, &Projection::All)?;
/// assert_eq!(Station::from_tuple(&tuple).unwrap(), db[0]);
/// // Every page the lookup touched was counted:
/// assert!(store.snapshot().fixes > 0);
/// # Ok::<(), starfish_core::CoreError>(())
/// ```
pub fn make_store(kind: ModelKind, config: StoreConfig) -> Box<dyn ComplexObjectStore> {
    match kind {
        ModelKind::Dsm => Box::new(DirectStore::new(false, config)),
        ModelKind::DasdbsDsm => Box::new(DirectStore::new(true, config)),
        ModelKind::Nsm => Box::new(NsmStore::new(false, config)),
        ModelKind::NsmIndexed => Box::new(NsmStore::new(true, config)),
        ModelKind::DasdbsNsm => Box::new(DasdbsNsmStore::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_match_paper() {
        assert_eq!(ModelKind::Dsm.paper_name(), "DSM");
        assert_eq!(ModelKind::DasdbsDsm.paper_name(), "DASDBS-DSM");
        assert_eq!(ModelKind::Nsm.paper_name(), "NSM");
        assert_eq!(ModelKind::NsmIndexed.paper_name(), "NSM+index");
        assert_eq!(ModelKind::DasdbsNsm.paper_name(), "DASDBS-NSM");
        assert_eq!(format!("{}", ModelKind::DasdbsNsm), "DASDBS-NSM");
    }

    #[test]
    fn factory_builds_every_model() {
        for kind in ModelKind::all() {
            let store = make_store(kind, StoreConfig::default());
            assert_eq!(store.model(), kind);
            assert_eq!(store.object_count(), 0);
        }
    }
}
