//! The normalized storage model **NSM** (§3.3), with its optional in-memory
//! index ("NSM+index").
//!
//! The complex object is unnested into four flat relations (Figure 3),
//! with foreign-key attributes added to preserve the object structure
//! (superfluous keys omitted exactly as in the paper):
//!
//! ```text
//! NSM-Station     [ Key | NoPlatform | NoSeeing | Name ]
//! NSM-Platform    [ RootKey | OwnKey | PlatformNr | NoLine | TicketCode | Information ]
//! NSM-Connection  [ RootKey | ParentKey | LineNr | KeyConnection | OidConnection | DepartureTimes ]
//! NSM-Sightseeing [ RootKey | SeeingNr | Description | Location | History | Remarks ]
//! ```
//!
//! Pure NSM has "no efficient addressing mechanism": every lookup is a
//! set-oriented relation scan, and object reassembly joins in main memory
//! (the paper's explicit best-case assumption). With the index enabled, a
//! memory-resident map `key → RIDs` lets NSM read a page "then and only then
//! if a tuple it stores is requested" (§4).

use crate::concurrent::SharedModel;
use crate::placement::{self, ObjectHeat, PlacementStats, Published, ReorgReport};
use crate::traits::{
    apply_station_proj, avg, key_of_oid, per_object, ComplexObjectStore, ObjRef, RelationInfo,
    RootPatch,
};
use crate::{CoreError, ModelKind, Result, StoreConfig};
use starfish_nf2::station::Station;
use starfish_nf2::{
    decode, encode, AttrDef, AttrType, Key, Oid, Projection, RelSchema, Tuple, Value,
};
use starfish_pagestore::{
    BufferPool, BufferStats, HeapFile, IoSnapshot, LatchMode, PageCache, PageId, Rid,
    SharedBufferPool, SharedPoolHandle, SimDisk,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Flat schema of `NSM-Station`.
pub fn nsm_station_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Station",
        vec![
            AttrDef::new("Key", AttrType::Int),
            AttrDef::new("NoPlatform", AttrType::Int),
            AttrDef::new("NoSeeing", AttrType::Int),
            AttrDef::new("Name", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Platform`.
pub fn nsm_platform_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Platform",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("OwnKey", AttrType::Int),
            AttrDef::new("PlatformNr", AttrType::Int),
            AttrDef::new("NoLine", AttrType::Int),
            AttrDef::new("TicketCode", AttrType::Int),
            AttrDef::new("Information", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Connection`.
pub fn nsm_connection_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Connection",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("ParentKey", AttrType::Int),
            AttrDef::new("LineNr", AttrType::Int),
            AttrDef::new("KeyConnection", AttrType::Int),
            AttrDef::new("OidConnection", AttrType::Link),
            AttrDef::new("DepartureTimes", AttrType::Str),
        ],
    )
}

/// Flat schema of `NSM-Sightseeing`.
pub fn nsm_sightseeing_schema() -> RelSchema {
    RelSchema::new(
        "NSM-Sightseeing",
        vec![
            AttrDef::new("RootKey", AttrType::Int),
            AttrDef::new("SeeingNr", AttrType::Int),
            AttrDef::new("Description", AttrType::Str),
            AttrDef::new("Location", AttrType::Str),
            AttrDef::new("History", AttrType::Str),
            AttrDef::new("Remarks", AttrType::Str),
        ],
    )
}

/// Per-object RIDs kept by the NSM+index variant.
#[derive(Clone, Debug, Default)]
struct ObjRids {
    station: Option<Rid>,
    platforms: Vec<Rid>,
    connections: Vec<Rid>,
    sightseeings: Vec<Rid>,
}

#[derive(Clone)]
struct RelationBytes {
    total_bytes: u64,
    count: u64,
}

/// One published placement of the NSM database: the four heap files, the
/// address tables that point into them and the load-time metadata.
/// Published whole, so the adaptive-placement pass can build a fresh copy
/// off to the side and swap it in atomically (racing readers keep their
/// old `Arc`; the old extents stay on disk, merely orphaned).
struct NsmState {
    station: HeapFile,
    platform: HeapFile,
    connection: HeapFile,
    sightseeing: HeapFile,
    /// Memory-resident addresses of root tuples, kept so updates can write
    /// back the tuples just read without a second scan (matching the paper's
    /// measured query-3 overheads); never used for *read* paths in pure NSM.
    station_rids: HashMap<Key, Rid>,
    /// NSM+index only: `key → RIDs of all the object's tuples`.
    index: HashMap<Key, ObjRids>,
    /// The loaded objects, in OID order.
    refs: Vec<ObjRef>,
    sizes: Vec<RelationBytes>,
}

/// The NSM store (pure or indexed), generic over the buffer pool it runs
/// on ([`BufferPool`] by default; [`SharedPoolHandle`] for concurrent
/// serving via [`crate::make_shared_store`]).
pub struct NsmStore<P: PageCache = BufferPool> {
    indexed: bool,
    pool: P,
    state: Published<NsmState>,
}

impl NsmStore {
    /// Creates an empty NSM store; `indexed` selects the NSM+index variant.
    pub fn new(indexed: bool, config: StoreConfig) -> Self {
        let pool = config.buffer.build(SimDisk::new());
        Self::with_pool(indexed, &config, pool)
    }
}

impl<P: PageCache> NsmStore<P> {
    /// Creates an empty NSM store over an externally built pool.
    pub fn with_pool(indexed: bool, _config: &StoreConfig, pool: P) -> Self {
        NsmStore {
            indexed,
            pool,
            state: Published::empty(),
        }
    }

    /// The current placement snapshot (cheap `Arc` clone), or the
    /// empty-database error.
    fn state(&self) -> Result<Arc<NsmState>> {
        self.state.current()
    }
}

impl SharedModel for NsmStore<SharedPoolHandle> {
    fn handle(&self) -> Self {
        NsmStore {
            pool: self.pool.clone(),
            state: self.state.clone(),
            ..*self
        }
    }

    fn shared_pool(&self) -> &SharedBufferPool {
        self.pool.pool()
    }
}

/// Assembles the nested `Station` tuple for `key` from flat state.
fn assemble(
    key: Key,
    station: &Tuple,
    platforms: &[Tuple],
    connections: &[Tuple],
    sightseeings: &[Tuple],
) -> Tuple {
    let mut conns_by_parent: HashMap<i32, Vec<Tuple>> = HashMap::new();
    for c in connections {
        let parent = c.attr(1).and_then(Value::as_int).unwrap_or(0);
        // Strip RootKey + ParentKey: (LineNr, KeyConnection, Oid, Times).
        conns_by_parent
            .entry(parent)
            .or_default()
            .push(Tuple::new(c.values[2..].to_vec()));
    }
    let platform_tuples: Vec<Tuple> = platforms
        .iter()
        .map(|p| {
            let own = p.attr(1).and_then(Value::as_int).unwrap_or(0);
            let mut vals = p.values[2..].to_vec(); // PNr, NoLine, TCode, Inform
            vals.push(Value::Rel(conns_by_parent.remove(&own).unwrap_or_default()));
            Tuple::new(vals)
        })
        .collect();
    let seeing_tuples: Vec<Tuple> = sightseeings
        .iter()
        .map(|s| Tuple::new(s.values[1..].to_vec()))
        .collect();
    let _ = key;
    Tuple::new(vec![
        station.values[0].clone(),
        station.values[1].clone(),
        station.values[2].clone(),
        station.values[3].clone(),
        Value::Rel(platform_tuples),
        Value::Rel(seeing_tuples),
    ])
}

/// Scans a relation, decoding tuples whose `RootKey` (attribute 0) is in
/// `keys`, grouped per key in encounter order. Always reads the whole
/// relation (set-oriented selection).
fn scan_matching(
    pool: &mut impl PageCache,
    file: &HeapFile,
    schema: &RelSchema,
    keys: &HashSet<Key>,
) -> Result<HashMap<Key, Vec<Tuple>>> {
    let mut out: HashMap<Key, Vec<Tuple>> = HashMap::new();
    let mut err = None;
    file.scan(pool, |_, bytes| {
        if err.is_some() {
            return;
        }
        match peek_root_key(bytes) {
            Ok(k) if keys.contains(&k) => match decode(bytes, schema) {
                Ok(t) => out.entry(k).or_default().push(t),
                Err(e) => err = Some(CoreError::from(e)),
            },
            Ok(_) => {}
            Err(e) => err = Some(e),
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Reads tuples by RID (NSM+index path): a page is fixed iff a tuple on
/// it is requested.
fn read_rids(
    pool: &mut impl PageCache,
    file: &HeapFile,
    schema: &RelSchema,
    rids: &[Rid],
) -> Result<Vec<Tuple>> {
    rids.iter()
        .map(|rid| {
            let bytes = file.read(pool, *rid)?;
            Ok(decode(&bytes, schema)?)
        })
        .collect()
}

/// Materializes one full object by key: pure NSM scans all relations,
/// NSM+index reads the root by scan/index depending on `root_by_scan` and
/// the sub-tuples by RID.
fn materialize(
    state: &NsmState,
    indexed: bool,
    pool: &mut impl PageCache,
    key: Key,
    root_by_scan: bool,
) -> Result<Tuple> {
    let station_schema = nsm_station_schema();
    let root = if root_by_scan {
        let keys: HashSet<Key> = [key].into();
        let found = scan_matching(pool, &state.station, &station_schema, &keys)?;
        found
            .get(&key)
            .and_then(|v| v.first())
            .cloned()
            .ok_or_else(|| CoreError::NotFound {
                what: format!("key {key}"),
            })?
    } else {
        let rid = state
            .index
            .get(&key)
            .and_then(|r| r.station)
            .ok_or_else(|| CoreError::NotFound {
                what: format!("key {key}"),
            })?;
        let bytes = state.station.read(pool, rid)?;
        decode(&bytes, &station_schema)?
    };
    let (platforms, connections, sightseeings) = if indexed {
        let rids = state.index.get(&key).cloned().unwrap_or_default();
        (
            read_rids(
                pool,
                &state.platform,
                &nsm_platform_schema(),
                &rids.platforms,
            )?,
            read_rids(
                pool,
                &state.connection,
                &nsm_connection_schema(),
                &rids.connections,
            )?,
            read_rids(
                pool,
                &state.sightseeing,
                &nsm_sightseeing_schema(),
                &rids.sightseeings,
            )?,
        )
    } else {
        let keys: HashSet<Key> = [key].into();
        let mut p = scan_matching(pool, &state.platform, &nsm_platform_schema(), &keys)?;
        let mut c = scan_matching(pool, &state.connection, &nsm_connection_schema(), &keys)?;
        let mut s = scan_matching(pool, &state.sightseeing, &nsm_sightseeing_schema(), &keys)?;
        (
            p.remove(&key).unwrap_or_default(),
            c.remove(&key).unwrap_or_default(),
            s.remove(&key).unwrap_or_default(),
        )
    };
    Ok(assemble(
        key,
        &root,
        &platforms,
        &connections,
        &sightseeings,
    ))
}

/// Decodes attribute 0 (`Key`/`RootKey`, always an INT at a fixed offset) of
/// a flat NSM tuple without decoding the rest.
fn peek_root_key(bytes: &[u8]) -> Result<Key> {
    match starfish_nf2::decode_attr(bytes, &AttrType::Int, root_key_offset(bytes)?)? {
        Value::Int(k) => Ok(k),
        _ => unreachable!("decode_attr(Int) yields Int"),
    }
}

fn root_key_offset(bytes: &[u8]) -> Result<usize> {
    // Attribute offsets start right after the 20-byte tuple header; offset 0
    // entry is little-endian u32 relative to the tuple start.
    let raw = bytes
        .get(20..24)
        .ok_or(CoreError::Nf2(starfish_nf2::Nf2Error::Corrupt {
            offset: 20,
            detail: "flat tuple too short".into(),
        }))?;
    Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
}

/// Rebuilds the NSM+index map from per-relation `(owner key, RID)` pairs —
/// shared by `load` and the reorganization pass so the two can never drift.
/// Empty for pure NSM.
fn build_index(
    indexed: bool,
    owners: [&Vec<Key>; 4],
    rids: [&Vec<Rid>; 4],
) -> HashMap<Key, ObjRids> {
    let mut index: HashMap<Key, ObjRids> = HashMap::new();
    if indexed {
        for (k, rid) in owners[0].iter().zip(rids[0]) {
            index.entry(*k).or_default().station = Some(*rid);
        }
        for (k, rid) in owners[1].iter().zip(rids[1]) {
            index.entry(*k).or_default().platforms.push(*rid);
        }
        for (k, rid) in owners[2].iter().zip(rids[2]) {
            index.entry(*k).or_default().connections.push(*rid);
        }
        for (k, rid) in owners[3].iter().zip(rids[3]) {
            index.entry(*k).or_default().sightseeings.push(*rid);
        }
    }
    index
}

/// One relation's raw records grouped per root key (encounter order within
/// a key), plus the pages each key's records sit on — the reorganization's
/// working set, collected in one counted sequential scan.
#[derive(Default)]
struct GroupedRelation {
    recs: HashMap<Key, Vec<Vec<u8>>>,
    pages: HashMap<Key, Vec<PageId>>,
}

fn scan_grouped(pool: &mut impl PageCache, file: &HeapFile) -> Result<GroupedRelation> {
    let mut g = GroupedRelation::default();
    let mut err = None;
    file.scan(pool, |rid, bytes| {
        if err.is_some() {
            return;
        }
        match peek_root_key(bytes) {
            Ok(k) => {
                g.recs.entry(k).or_default().push(bytes.to_vec());
                g.pages.entry(k).or_default().push(rid.page);
            }
            Err(e) => err = Some(e),
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok(g),
    }
}

/// Current pages-per-tuple density of each relation — what one tuple costs
/// inside a packed region (`1/k` of a page for these page-sharing tuples).
fn densities(state: &NsmState) -> [f64; 4] {
    let files = [
        &state.station,
        &state.platform,
        &state.connection,
        &state.sightseeing,
    ];
    std::array::from_fn(|i| match state.sizes.get(i) {
        Some(sz) if sz.count > 0 => files[i].page_count() as f64 / sz.count as f64,
        _ => 0.0,
    })
}

/// Per-object heat from the memory-resident index alone (NSM+index): no
/// I/O, the addresses already name every page each object touches.
fn object_heats_indexed(state: &NsmState, heat: &HashMap<PageId, u64>) -> Vec<ObjectHeat> {
    let dens = densities(state);
    state
        .refs
        .iter()
        .enumerate()
        .map(|(ord, r)| {
            let rids = state.index.get(&r.key).cloned().unwrap_or_default();
            let mut pages: Vec<PageId> = Vec::new();
            pages.extend(rids.station.iter().map(|x| x.page));
            pages.extend(rids.platforms.iter().map(|x| x.page));
            pages.extend(rids.connections.iter().map(|x| x.page));
            pages.extend(rids.sightseeings.iter().map(|x| x.page));
            let packed = dens[0]
                + dens[1] * rids.platforms.len() as f64
                + dens[2] * rids.connections.len() as f64
                + dens[3] * rids.sightseeings.len() as f64;
            ObjectHeat::new(ord, pages, heat, packed)
        })
        .collect()
}

/// Per-object heat from grouped relation scans (pure NSM has no addresses,
/// so locating tuples costs the usual counted relation scans).
fn object_heats_grouped(
    groups: &[GroupedRelation; 4],
    refs: &[ObjRef],
    dens: [f64; 4],
    heat: &HashMap<PageId, u64>,
) -> Vec<ObjectHeat> {
    refs.iter()
        .enumerate()
        .map(|(ord, r)| {
            let mut pages: Vec<PageId> = Vec::new();
            let mut packed = 0.0;
            for (g, d) in groups.iter().zip(dens) {
                if let Some(ps) = g.pages.get(&r.key) {
                    pages.extend(ps.iter().copied());
                }
                packed += d * g.recs.get(&r.key).map(Vec::len).unwrap_or(0) as f64;
            }
            ObjectHeat::new(ord, pages, heat, packed)
        })
        .collect()
}

/// The adaptive-placement rewrite: scans all four relations (counted I/O),
/// ranks objects by tracked heat, bulk-loads fresh extents with the hot set
/// first, and rebuilds the address tables. Logically invisible — within an
/// object every record keeps its encounter order, so grouped answers are
/// bit-for-bit what they were; only the page placement changes. The old
/// extents stay on disk, orphaned, so concurrent readers holding the old
/// [`NsmState`] snapshot stay correct.
fn rebuild_nsm(
    indexed: bool,
    state: &NsmState,
    pool: &mut impl PageCache,
) -> Result<(NsmState, ReorgReport)> {
    let refs = &state.refs;
    let before = pool.snapshot();
    let heat = placement::heat_map(pool.page_heat());
    let dens = densities(state);
    let files = [
        &state.station,
        &state.platform,
        &state.connection,
        &state.sightseeing,
    ];
    let mut groups: [GroupedRelation; 4] = Default::default();
    for (g, f) in groups.iter_mut().zip(files) {
        *g = scan_grouped(pool, f)?;
    }
    let heats = object_heats_grouped(&groups, refs, dens, &heat);
    let ranking = placement::rank(&heats);

    // Re-emit every relation with whole objects in heat order.
    let mut recs: [Vec<Vec<u8>>; 4] = Default::default();
    let mut owners: [Vec<Key>; 4] = Default::default();
    for &ord in &ranking.order {
        let key = refs[ord].key;
        for ((g, out), own) in groups.iter().zip(recs.iter_mut()).zip(owners.iter_mut()) {
            if let Some(rs) = g.recs.get(&key) {
                out.extend(rs.iter().cloned());
                own.extend(std::iter::repeat_n(key, rs.len()));
            }
        }
    }
    let (st, st_rids) = HeapFile::bulk_load(pool, "NSM-Station", &recs[0])?;
    let (pl, pl_rids) = HeapFile::bulk_load(pool, "NSM-Platform", &recs[1])?;
    let (co, co_rids) = HeapFile::bulk_load(pool, "NSM-Connection", &recs[2])?;
    let (se, se_rids) = HeapFile::bulk_load(pool, "NSM-Sightseeing", &recs[3])?;
    pool.flush_all()?;
    let spent = pool.snapshot() - before;

    let new_rids = [&st_rids, &pl_rids, &co_rids, &se_rids];
    let mut pages_after: HashMap<Key, Vec<PageId>> = HashMap::new();
    for (own, rids) in owners.iter().zip(new_rids) {
        for (k, rid) in own.iter().zip(rids) {
            pages_after.entry(*k).or_default().push(rid.page);
        }
    }
    let hot_pages_after = placement::distinct_pages(ranking.hot_ordinals().iter().map(|&o| {
        pages_after
            .get(&refs[o].key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }));
    let report = ReorgReport {
        objects: refs.len(),
        moved: ranking
            .order
            .iter()
            .enumerate()
            .filter(|&(i, &o)| i != o)
            .count(),
        heat_total: ranking.stats.heat_total,
        hot_objects: ranking.stats.hot_objects,
        hot_pages_before: ranking.stats.hot_pages,
        hot_pages_after,
        pages_read: spent.pages_read,
        pages_written: spent.pages_written,
    };
    let station_rids: HashMap<Key, Rid> = owners[0]
        .iter()
        .zip(&st_rids)
        .map(|(k, r)| (*k, *r))
        .collect();
    let index = build_index(
        indexed,
        [&owners[0], &owners[1], &owners[2], &owners[3]],
        [&st_rids, &pl_rids, &co_rids, &se_rids],
    );
    Ok((
        NsmState {
            station: st,
            platform: pl,
            connection: co,
            sightseeing: se,
            station_rids,
            index,
            refs: refs.clone(),
            sizes: state.sizes.clone(),
        },
        report,
    ))
}

impl<P: PageCache> ComplexObjectStore for NsmStore<P> {
    fn model(&self) -> ModelKind {
        if self.indexed {
            ModelKind::NsmIndexed
        } else {
            ModelKind::Nsm
        }
    }

    fn load(&mut self, stations: &[Station]) -> Result<Vec<ObjRef>> {
        let mut st_recs = Vec::new();
        let mut pl_recs = Vec::new();
        let mut co_recs = Vec::new();
        let mut se_recs = Vec::new();
        // Bookkeeping to map bulk-load RIDs back to objects.
        let mut pl_owner: Vec<Key> = Vec::new();
        let mut co_owner: Vec<Key> = Vec::new();
        let mut se_owner: Vec<Key> = Vec::new();
        let mut refs = Vec::with_capacity(stations.len());
        for (i, s) in stations.iter().enumerate() {
            refs.push(ObjRef {
                oid: Oid(i as u32),
                key: s.key,
            });
            st_recs.push(encode(
                &Tuple::new(vec![
                    Value::Int(s.key),
                    Value::Int(s.platforms.len() as i32),
                    Value::Int(s.sightseeings.len() as i32),
                    Value::Str(s.name.clone()),
                ]),
                &nsm_station_schema(),
            )?);
            for (pi, p) in s.platforms.iter().enumerate() {
                pl_owner.push(s.key);
                pl_recs.push(encode(
                    &Tuple::new(vec![
                        Value::Int(s.key),
                        Value::Int(pi as i32),
                        Value::Int(p.platform_nr),
                        Value::Int(p.no_line),
                        Value::Int(p.ticket_code),
                        Value::Str(p.information.clone()),
                    ]),
                    &nsm_platform_schema(),
                )?);
                for c in &p.connections {
                    co_owner.push(s.key);
                    co_recs.push(encode(
                        &Tuple::new(vec![
                            Value::Int(s.key),
                            Value::Int(pi as i32),
                            Value::Int(c.line_nr),
                            Value::Int(c.key_connection),
                            Value::Link(c.oid_connection),
                            Value::Str(c.departure_times.clone()),
                        ]),
                        &nsm_connection_schema(),
                    )?);
                }
            }
            for g in &s.sightseeings {
                se_owner.push(s.key);
                se_recs.push(encode(
                    &Tuple::new(vec![
                        Value::Int(s.key),
                        Value::Int(g.seeing_nr),
                        Value::Str(g.description.clone()),
                        Value::Str(g.location.clone()),
                        Value::Str(g.history.clone()),
                        Value::Str(g.remarks.clone()),
                    ]),
                    &nsm_sightseeing_schema(),
                )?);
            }
        }
        let (st, st_rids) = HeapFile::bulk_load(&mut self.pool, "NSM-Station", &st_recs)?;
        let (pl, pl_rids) = HeapFile::bulk_load(&mut self.pool, "NSM-Platform", &pl_recs)?;
        let (co, co_rids) = HeapFile::bulk_load(&mut self.pool, "NSM-Connection", &co_recs)?;
        let (se, se_rids) = HeapFile::bulk_load(&mut self.pool, "NSM-Sightseeing", &se_recs)?;
        let station_rids: HashMap<Key, Rid> = stations
            .iter()
            .zip(&st_rids)
            .map(|(s, r)| (s.key, *r))
            .collect();
        let owner_keys: Vec<Key> = stations.iter().map(|s| s.key).collect();
        let index = build_index(
            self.indexed,
            [&owner_keys, &pl_owner, &co_owner, &se_owner],
            [&st_rids, &pl_rids, &co_rids, &se_rids],
        );
        let sizes = [&st_recs, &pl_recs, &co_recs, &se_recs]
            .iter()
            .map(|recs| RelationBytes {
                total_bytes: recs.iter().map(|r| r.len() as u64).sum(),
                count: recs.len() as u64,
            })
            .collect();
        self.state.publish(NsmState {
            station: st,
            platform: pl,
            connection: co,
            sightseeing: se,
            station_rids,
            index,
            refs: refs.clone(),
            sizes,
        });
        self.pool.clear_cache()?;
        self.pool.reset_stats();
        Ok(refs)
    }

    fn object_count(&self) -> usize {
        self.state().map_or(0, |st| st.refs.len())
    }

    fn get_by_oid(&mut self, oid: Oid, proj: &Projection) -> Result<Tuple> {
        if !self.indexed {
            // "With NSM we have no identifiers, so query 1a is not relevant."
            return Err(CoreError::Unsupported {
                model: "NSM",
                op: "access by OID (query 1a)",
            });
        }
        let state = self.state()?;
        let key = key_of_oid(&state.refs, oid)?;
        let t = materialize(&state, self.indexed, &mut self.pool, key, false)?;
        Ok(apply_station_proj(t, proj))
    }

    fn get_by_key(&mut self, key: Key, proj: &Projection) -> Result<Tuple> {
        // Value selection: the root relation is always scanned; the
        // sub-relations are scanned (pure) or read by RID (indexed).
        let state = self.state()?;
        let t = materialize(&state, self.indexed, &mut self.pool, key, true)?;
        Ok(apply_station_proj(t, proj))
    }

    /// The NSM full scan: one set-oriented pass over each of the four
    /// relations, objects reassembled in OID order.
    fn scan_all(&mut self, f: &mut dyn FnMut(&Tuple)) -> Result<()> {
        let state = self.state()?;
        let pool = &mut self.pool;
        let refs = &state.refs;
        let keys: HashSet<Key> = refs.iter().map(|r| r.key).collect();
        let roots = scan_matching(pool, &state.station, &nsm_station_schema(), &keys)?;
        let mut platforms = scan_matching(pool, &state.platform, &nsm_platform_schema(), &keys)?;
        let mut connections =
            scan_matching(pool, &state.connection, &nsm_connection_schema(), &keys)?;
        let mut sightseeings =
            scan_matching(pool, &state.sightseeing, &nsm_sightseeing_schema(), &keys)?;
        for r in refs {
            let root =
                roots
                    .get(&r.key)
                    .and_then(|v| v.first())
                    .ok_or_else(|| CoreError::NotFound {
                        what: format!("key {}", r.key),
                    })?;
            let t = assemble(
                r.key,
                root,
                &platforms.remove(&r.key).unwrap_or_default(),
                &connections.remove(&r.key).unwrap_or_default(),
                &sightseeings.remove(&r.key).unwrap_or_default(),
            );
            f(&t);
        }
        Ok(())
    }

    fn children_of(&mut self, refs: &[ObjRef]) -> Result<Vec<ObjRef>> {
        let state = self.state()?;
        let indexed = self.indexed;
        let pool = &mut self.pool;
        let schema = nsm_connection_schema();
        let to_ref = |c: &Tuple| ObjRef {
            key: c.attr(3).and_then(Value::as_int).unwrap_or(0),
            oid: c.attr(4).and_then(Value::as_link).unwrap_or(Oid(0)),
        };
        if indexed {
            let mut out = Vec::new();
            for r in refs {
                let rids = state
                    .index
                    .get(&r.key)
                    .map(|x| x.connections.clone())
                    .unwrap_or_default();
                let tuples = read_rids(pool, &state.connection, &schema, &rids)?;
                out.extend(tuples.iter().map(to_ref));
            }
            Ok(out)
        } else {
            // One set-oriented scan of NSM-Connection for the whole ref set.
            let keys: HashSet<Key> = refs.iter().map(|r| r.key).collect();
            let mut by_key = scan_matching(pool, &state.connection, &schema, &keys)?;
            // Preserve per-ref order (and duplicate refs duplicate output).
            let mut out = Vec::new();
            for r in refs {
                if let Some(ts) = by_key.get(&r.key) {
                    out.extend(ts.iter().map(to_ref));
                }
            }
            let _ = by_key.drain();
            Ok(out)
        }
    }

    fn root_records(&mut self, refs: &[ObjRef]) -> Result<Vec<Tuple>> {
        let state = self.state()?;
        let indexed = self.indexed;
        let pool = &mut self.pool;
        let schema = nsm_station_schema();
        let to_root = |t: &Tuple| {
            Tuple::new(vec![
                t.values[0].clone(),
                t.values[1].clone(),
                t.values[2].clone(),
                t.values[3].clone(),
                Value::Rel(vec![]),
                Value::Rel(vec![]),
            ])
        };
        if indexed {
            refs.iter()
                .map(|r| {
                    let rid = state
                        .index
                        .get(&r.key)
                        .and_then(|x| x.station)
                        .ok_or_else(|| CoreError::NotFound {
                            what: format!("key {}", r.key),
                        })?;
                    let bytes = state.station.read(pool, rid)?;
                    Ok(to_root(&decode(&bytes, &schema)?))
                })
                .collect()
        } else {
            let keys: HashSet<Key> = refs.iter().map(|r| r.key).collect();
            let by_key = scan_matching(pool, &state.station, &schema, &keys)?;
            refs.iter()
                .map(|r| {
                    by_key
                        .get(&r.key)
                        .and_then(|v| v.first())
                        .map(to_root)
                        .ok_or_else(|| CoreError::NotFound {
                            what: format!("key {}", r.key),
                        })
                })
                .collect()
        }
    }

    /// Each root record's read-modify-write happens under an **exclusive
    /// latch** on its page, so concurrent writers on root records sharing a
    /// page serialize and never lose updates (root tuples are small — "there
    /// are many on a single page", §5.3).
    fn update_roots(&mut self, refs: &[ObjRef], patch: &RootPatch) -> Result<()> {
        let state = self.state()?;
        let (station, station_rids) = (&state.station, &state.station_rids);
        let pool = &mut self.pool;
        let schema = nsm_station_schema();
        for r in refs {
            let rid = *station_rids
                .get(&r.key)
                .ok_or_else(|| CoreError::NotFound {
                    what: format!("key {}", r.key),
                })?;
            let res = pool.with_latched(&[rid.page], LatchMode::Exclusive, |pool| {
                let bytes = station.read(pool, rid)?;
                let mut t = decode(&bytes, &schema)?;
                let old = t.values[3].as_str().map(str::len).unwrap_or(0);
                if old != patch.new_name.len() {
                    return Err(CoreError::Store(
                        starfish_pagestore::StoreError::SizeChanged {
                            old,
                            new: patch.new_name.len(),
                        },
                    ));
                }
                t.values[3] = Value::Str(patch.new_name.clone());
                Ok(station.update(pool, rid, &encode(&t, &schema)?)?)
            });
            // Each root RMW is one op: commit (durable on WAL pools) or drop
            // its buffered images.
            match res {
                Ok(()) => pool.log_commit()?,
                Err(e) => {
                    pool.log_abort();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        self.pool.flush_all().map_err(Into::into)
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.pool.clear_cache().map_err(Into::into)
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats();
    }

    fn snapshot(&self) -> IoSnapshot {
        self.pool.snapshot()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.pool.buffer_stats()
    }

    fn relation_info(&self) -> Vec<RelationInfo> {
        let Ok(state) = self.state() else {
            return Vec::new();
        };
        let files = [
            &state.station,
            &state.platform,
            &state.connection,
            &state.sightseeing,
        ];
        let objects = state.refs.len();
        files
            .iter()
            .zip(&state.sizes)
            .map(|(f, sz)| {
                let s_tuple =
                    avg(sz.total_bytes, sz.count) + starfish_pagestore::SLOT_ENTRY_SIZE as f64;
                RelationInfo {
                    name: f.name().trim_end_matches("-heap").to_string(),
                    tuples_per_object: per_object(sz.count, objects),
                    total_tuples: sz.count,
                    avg_tuple_bytes: s_tuple,
                    k: if sz.count > 0 {
                        Some((starfish_pagestore::EFFECTIVE_PAGE_SIZE as f64 / s_tuple) as u32)
                    } else {
                        None
                    },
                    p: None,
                    m: f.page_count(),
                }
            })
            .collect()
    }

    fn database_pages(&self) -> u32 {
        self.pool.database_pages()
    }

    fn disk_checksum(&self) -> u64 {
        self.pool.disk_checksum()
    }

    fn placement_stats(&mut self) -> Result<PlacementStats> {
        let state = self.state()?;
        let heat = placement::heat_map(self.pool.page_heat());
        let heats = if self.indexed {
            // The memory-resident index names every page: metadata only.
            object_heats_indexed(&state, &heat)
        } else {
            // Pure NSM has no addresses: locating tuples costs the usual
            // counted relation scans.
            let files = [
                &state.station,
                &state.platform,
                &state.connection,
                &state.sightseeing,
            ];
            let mut groups: [GroupedRelation; 4] = Default::default();
            for (g, f) in groups.iter_mut().zip(files) {
                *g = scan_grouped(&mut self.pool, f)?;
            }
            object_heats_grouped(&groups, &state.refs, densities(&state), &heat)
        };
        Ok(placement::rank(&heats).stats)
    }

    fn reorganize(&mut self) -> Result<ReorgReport> {
        let state = self.state()?;
        let (new_state, report) = rebuild_nsm(self.indexed, &state, &mut self.pool)?;
        self.state.publish(new_state);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_nf2::station::{attr, Connection, Platform, Sightseeing};

    fn station(key: i32, children: &[(Key, u32)]) -> Station {
        Station {
            key,
            name: format!("{key:0100}"),
            platforms: children
                .chunks(2)
                .enumerate()
                .map(|(i, chunk)| Platform {
                    platform_nr: i as i32,
                    no_line: 2,
                    ticket_code: 3,
                    information: "i".repeat(100),
                    connections: chunk
                        .iter()
                        .map(|&(k, o)| Connection {
                            line_nr: 7,
                            key_connection: k,
                            oid_connection: Oid(o),
                            departure_times: "t".repeat(100),
                        })
                        .collect(),
                })
                .collect(),
            sightseeings: (0..(key % 4))
                .map(|i| Sightseeing {
                    seeing_nr: i,
                    description: "d".repeat(100),
                    location: "l".repeat(100),
                    history: "h".repeat(100),
                    remarks: "r".repeat(100),
                })
                .collect(),
        }
    }

    fn db() -> Vec<Station> {
        vec![
            station(10, &[(11, 1), (12, 2), (13, 3)]),
            station(11, &[(12, 2)]),
            station(12, &[(10, 0), (13, 3)]),
            station(13, &[]),
        ]
    }

    fn make(indexed: bool) -> NsmStore {
        let mut s = NsmStore::new(indexed, StoreConfig::default());
        s.load(&db()).unwrap();
        s
    }

    #[test]
    fn pure_nsm_rejects_oid_access() {
        let mut s = make(false);
        assert!(matches!(
            s.get_by_oid(Oid(0), &Projection::All),
            Err(CoreError::Unsupported { .. })
        ));
    }

    #[test]
    fn get_by_key_reassembles_object() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let t = s.get_by_key(10, &Projection::All).unwrap();
            let back = Station::from_tuple(&t).unwrap();
            assert_eq!(back, db()[0], "indexed={indexed}");
        }
    }

    #[test]
    fn indexed_get_by_oid_reassembles() {
        let mut s = make(true);
        let t = s.get_by_oid(Oid(2), &Projection::All).unwrap();
        assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
    }

    #[test]
    fn scan_all_rebuilds_every_object_in_oid_order() {
        let mut s = make(false);
        let mut seen = Vec::new();
        s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db());
    }

    #[test]
    fn children_of_matches_object_structure() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let out = s
                .children_of(&[
                    ObjRef {
                        oid: Oid(0),
                        key: 10,
                    },
                    ObjRef {
                        oid: Oid(1),
                        key: 11,
                    },
                ])
                .unwrap();
            let expect: Vec<ObjRef> = db()[0]
                .child_refs()
                .into_iter()
                .chain(db()[1].child_refs())
                .map(|(key, oid)| ObjRef { oid, key })
                .collect();
            assert_eq!(out, expect, "indexed={indexed}");
        }
    }

    #[test]
    fn duplicate_refs_duplicate_children() {
        let mut s = make(false);
        let r = ObjRef {
            oid: Oid(1),
            key: 11,
        };
        let out = s.children_of(&[r, r]).unwrap();
        assert_eq!(out.len(), 2 * db()[1].child_refs().len());
    }

    #[test]
    fn pure_children_of_costs_one_relation_scan() {
        let mut s = make(false);
        s.clear_cache().unwrap();
        s.reset_stats();
        s.children_of(&[ObjRef {
            oid: Oid(0),
            key: 10,
        }])
        .unwrap();
        let m = s.state().unwrap().connection.page_count() as u64;
        let snap = s.snapshot();
        assert_eq!(snap.pages_read, m, "whole connection relation scanned");
        assert_eq!(snap.fixes, m);
    }

    #[test]
    fn indexed_children_of_reads_only_needed_pages() {
        let mut s = make(true);
        s.clear_cache().unwrap();
        s.reset_stats();
        s.children_of(&[ObjRef {
            oid: Oid(0),
            key: 10,
        }])
        .unwrap();
        let m = s.state().unwrap().connection.page_count() as u64;
        let snap = s.snapshot();
        assert!(snap.pages_read <= m);
        assert!(snap.pages_read >= 1);
        assert!(snap.fixes >= 3, "one fix per requested tuple");
    }

    #[test]
    fn root_records_and_update() {
        for indexed in [false, true] {
            let mut s = make(indexed);
            let refs = [ObjRef {
                oid: Oid(3),
                key: 13,
            }];
            let recs = s.root_records(&refs).unwrap();
            assert_eq!(recs[0].attr(attr::KEY).unwrap().as_int(), Some(13));
            let new_name = "Q".repeat(100);
            s.update_roots(
                &refs,
                &RootPatch {
                    new_name: new_name.clone(),
                },
            )
            .unwrap();
            s.clear_cache().unwrap();
            let t = s.get_by_key(13, &Projection::All).unwrap();
            assert_eq!(
                t.attr(attr::NAME).unwrap().as_str(),
                Some(new_name.as_str())
            );
        }
    }

    #[test]
    fn update_rejects_wrong_length() {
        let mut s = make(false);
        assert!(s
            .update_roots(
                &[ObjRef {
                    oid: Oid(0),
                    key: 10
                }],
                &RootPatch {
                    new_name: "tiny".into()
                }
            )
            .is_err());
    }

    #[test]
    fn relation_info_reports_four_relations() {
        let s = make(false);
        let info = s.relation_info();
        assert_eq!(info.len(), 4);
        assert_eq!(info[0].name, "NSM-Station");
        assert_eq!(info[0].total_tuples, 4);
        assert_eq!(info[2].name, "NSM-Connection");
        assert_eq!(info[2].total_tuples, 6);
        // Station tuple: 150 encoded + 4 slot = 154 ⇒ k = 13 (Table 2).
        assert_eq!(info[0].k, Some(13));
        assert!((info[0].avg_tuple_bytes - 154.0).abs() < 1e-9);
        // Connection tuple: 166 + 4 = 170 ⇒ k = 11 (Table 2, exact).
        assert_eq!(info[2].k, Some(11));
        assert!((info[2].avg_tuple_bytes - 170.0).abs() < 1e-9);
    }

    #[test]
    fn missing_key_errors() {
        let mut s = make(false);
        assert!(matches!(
            s.get_by_key(999, &Projection::All),
            Err(CoreError::NotFound { .. })
        ));
    }

    #[test]
    fn reorganize_is_logically_invisible() {
        for indexed in [false, true] {
            let mut s = NsmStore::new(
                indexed,
                StoreConfig::default().heat(starfish_pagestore::HeatConfig::enabled()),
            );
            s.load(&db()).unwrap();
            // Skew the heat towards one object, then reorganize.
            for _ in 0..8 {
                s.get_by_key(12, &Projection::All).unwrap();
            }
            let stats = s.placement_stats().unwrap();
            assert!(stats.heat_total > 0, "indexed={indexed}: heat tracked");
            assert!(stats.hot_objects >= 1);
            let report = s.reorganize().unwrap();
            assert_eq!(report.objects, 4);
            assert!(report.pages_written > 0, "fresh extents were written");
            // Same answers, same OIDs, same keys, after the rewrite.
            let mut seen = Vec::new();
            s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
                .unwrap();
            assert_eq!(seen, db(), "indexed={indexed}");
            let t = s.get_by_key(12, &Projection::All).unwrap();
            assert_eq!(Station::from_tuple(&t).unwrap(), db()[2]);
            if indexed {
                let t = s.get_by_oid(Oid(1), &Projection::All).unwrap();
                assert_eq!(Station::from_tuple(&t).unwrap(), db()[1]);
            }
        }
    }

    #[test]
    fn reorganize_without_heat_is_identity_rewrite() {
        let mut s = make(true);
        let report = s.reorganize().unwrap();
        assert_eq!(report.moved, 0, "no heat: placement order is unchanged");
        assert_eq!(report.heat_total, 0);
        assert_eq!(report.hot_objects, 0);
        let mut seen = Vec::new();
        s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap()))
            .unwrap();
        assert_eq!(seen, db());
    }
}
