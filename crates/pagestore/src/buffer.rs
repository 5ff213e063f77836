use crate::disk::DiskOps;
use crate::heat::{HeatConfig, HeatTracker};
use crate::ioengine::IoEngineConfig;
use crate::latch::{distinct_pids, LatchMode};
use crate::policy::{PolicyKind, ReplacementPolicy};
use crate::stats::{BufferStats, IoSnapshot};
use crate::wal::WalConfig;
use crate::DEFAULT_BUFFER_PAGES;
use crate::{PageId, Result, SimDisk, StoreError, PAGE_SIZE};
use std::collections::HashMap;

/// Maximum pages per grouped I/O call: flush-time writes, WAL replay and
/// the batched read engine's coalesced reads.
///
/// DASDBS batches deferred writes into multi-page calls; the paper observed
/// "on the average respectively 30 and 20 pages per write for query 3"
/// (§5.2). We cap grouped runs at 32 pages so call counts land in the same
/// regime instead of degenerating into one giant call.
pub const MAX_PAGES_PER_WRITE_CALL: u32 = 32;

/// Splits `pids` (sorted ascending, distinct) into maximal contiguous runs
/// of at most [`MAX_PAGES_PER_WRITE_CALL`] pages, as `(first, len)` pairs in
/// page order. The one place a page list becomes I/O calls: flushes, WAL
/// replay and the batched read engine all group through it.
pub(crate) fn page_runs(pids: &[PageId]) -> impl Iterator<Item = (PageId, u32)> + '_ {
    let mut i = 0;
    std::iter::from_fn(move || {
        let &first = pids.get(i)?;
        let mut len = 1u32;
        while len < MAX_PAGES_PER_WRITE_CALL
            && pids.get(i + len as usize) == Some(&first.offset(len))
        {
            len += 1;
        }
        i += len as usize;
        Some((first, len))
    })
}

/// Buffer-pool construction parameters: capacity plus replacement policy.
///
/// The five storage models of `starfish-core` accept this through their
/// `StoreConfig`; the defaults reproduce the paper's buffer exactly
/// (1200 pages, LRU — §5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferConfig {
    /// Capacity in pages (paper: [`DEFAULT_BUFFER_PAGES`] = 1200).
    pub pages: usize,
    /// Replacement policy (paper: LRU).
    pub policy: PolicyKind,
    /// Write-ahead-log configuration (default: disabled). Only the shared
    /// pool acts on it; the exclusive [`BufferPool`] is measurement-only
    /// and never logs, so pre-WAL counters stay byte-identical.
    pub wal: WalConfig,
    /// Batched-read-engine configuration (default: disabled). Like the
    /// WAL, only the shared pool acts on it: the exclusive [`BufferPool`]
    /// serves exactly one client and has nothing to batch across.
    pub io: IoEngineConfig,
    /// Page-heat tracking configuration (default: disabled). Honored by
    /// *both* pool flavours — heat is observation-only bookkeeping, so it
    /// changes no counter the paper's tables report.
    pub heat: HeatConfig,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            pages: DEFAULT_BUFFER_PAGES,
            policy: PolicyKind::Lru,
            wal: WalConfig::default(),
            io: IoEngineConfig::default(),
            heat: HeatConfig::default(),
        }
    }
}

impl BufferConfig {
    /// Config with a specific capacity and the default (LRU) policy.
    pub fn with_pages(pages: usize) -> Self {
        BufferConfig {
            pages,
            ..Default::default()
        }
    }

    /// Sets the replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the write-ahead-log configuration.
    pub fn wal(mut self, wal: WalConfig) -> Self {
        self.wal = wal;
        self
    }

    /// Sets the batched-read-engine configuration.
    pub fn io(mut self, io: IoEngineConfig) -> Self {
        self.io = io;
        self
    }

    /// Sets the heat-tracking configuration.
    pub fn heat(mut self, heat: HeatConfig) -> Self {
        self.heat = heat;
        self
    }

    /// Builds a [`BufferPool`] over `disk` with this configuration.
    pub fn build(self, disk: SimDisk) -> BufferPool {
        BufferPool {
            disk,
            core: PoolCore::new(self.pages, self.policy, self.heat),
        }
    }
}

/// One resident page: its identity, image, and bookkeeping bits.
pub(crate) struct Frame {
    pub(crate) pid: PageId,
    pub(crate) data: [u8; PAGE_SIZE],
    pub(crate) dirty: bool,
    /// Pin count: pinned frames are never eviction victims.
    pub(crate) pins: u32,
    /// LSN of the last WAL-logged mutation of this frame (0 = never
    /// logged; always 0 when the WAL is disabled).
    pub(crate) lsn: u64,
}

/// The disk-agnostic heart of a buffer pool: frame slots, the resident-page
/// table, the replacement policy, and fix/eviction accounting.
///
/// [`BufferPool`] wraps exactly one core over an exclusively-owned
/// [`SimDisk`]; [`crate::SharedBufferPool`] wraps one core per lock-striped
/// shard over a `SimDisk` behind a mutex. Every page-I/O decision that
/// spans pages — run loads, prefetch, flush — is written once, in
/// [`PoolCores`], over "the cores that own these pages": the exclusive pool
/// passes its single core, the shared pool its locked shard guards. That
/// one code path is what makes a one-shard shared pool counter-for-counter
/// indistinguishable from the single-threaded pool
/// (`tests/prop_shared_buffer.rs` pins that down).
pub(crate) struct PoolCore {
    capacity: usize,
    /// Frame slots; `None` entries are free and listed in `free`.
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    /// Resident-page table: page id → slot index.
    table: HashMap<PageId, usize>,
    policy: Box<dyn ReplacementPolicy>,
    pub(crate) stats: BufferStats,
    /// Per-page heat counters; `None` while tracking is disabled.
    heat: Option<HeatTracker>,
}

impl PoolCore {
    /// An empty core of `capacity` frames running `policy`, tracking page
    /// heat when `heat.track` is on.
    pub(crate) fn new(capacity: usize, policy: PolicyKind, heat: HeatConfig) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        PoolCore {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            table: HashMap::with_capacity(capacity.min(1 << 20)),
            policy: policy.build(),
            stats: BufferStats::default(),
            heat: heat.track.then(|| HeatTracker::new(heat)),
        }
    }

    /// The tracked heat map, sorted by page id; empty with tracking off.
    pub(crate) fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.heat.as_ref().map(|h| h.snapshot()).unwrap_or_default()
    }

    /// Records one counted access in the heat tracker, if enabled.
    fn record_heat(&mut self, pid: PageId) {
        if let Some(heat) = self.heat.as_mut() {
            self.stats.heat_records += 1;
            if heat.record(pid) {
                self.stats.heat_decays += 1;
            }
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    pub(crate) fn cached_pages(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn pinned_pages(&self) -> usize {
        self.table
            .values()
            .filter(|&&s| self.frame(s).pins > 0)
            .count()
    }

    pub(crate) fn is_cached(&self, pid: PageId) -> bool {
        self.table.contains_key(&pid)
    }

    pub(crate) fn frame(&self, slot: usize) -> &Frame {
        self.frames[slot].as_ref().expect("slot occupied")
    }

    pub(crate) fn frame_mut(&mut self, slot: usize) -> &mut Frame {
        self.frames[slot].as_mut().expect("slot occupied")
    }

    /// Slot of `pid`, if resident.
    pub(crate) fn slot_of(&self, pid: PageId) -> Option<usize> {
        self.table.get(&pid).copied()
    }

    /// Bumps the policy's access bookkeeping for a resident page (a
    /// prefetch touch — not a counted fix). Returns false when not cached.
    pub(crate) fn touch(&mut self, pid: PageId) -> bool {
        match self.table.get(&pid) {
            Some(&slot) => {
                self.policy.on_access(slot);
                true
            }
            None => false,
        }
    }

    /// Fixes `pid`: one counted access, loading the page on a miss. Returns
    /// the frame slot.
    pub(crate) fn fix<D: DiskOps>(
        &mut self,
        disk: &mut D,
        pid: PageId,
        dirty: bool,
    ) -> Result<usize> {
        self.stats.fixes += 1;
        self.record_heat(pid);
        let slot = match self.table.get(&pid) {
            Some(&slot) => {
                self.stats.hits += 1;
                self.policy.on_access(slot);
                slot
            }
            None => {
                self.stats.misses += 1;
                self.load(disk, pid, 1)?;
                self.table[&pid]
            }
        };
        if dirty {
            self.frame_mut(slot).dirty = true;
        }
        Ok(slot)
    }

    /// Counts a fix that the batched I/O engine satisfied: the access
    /// triggered a physical read (through the drain batch), so it is a
    /// miss, exactly as [`PoolCore::fix`]'s miss arm counts one — and like
    /// that arm it does **not** bump the policy (the frame's `on_insert`
    /// from the install is its access event, keeping LRU-2/CLOCK histories
    /// identical to the synchronous path).
    pub(crate) fn fix_engine_miss(&mut self, slot: usize, dirty: bool) {
        self.stats.fixes += 1;
        self.stats.misses += 1;
        let pid = self.frame(slot).pid;
        self.record_heat(pid);
        if dirty {
            self.frame_mut(slot).dirty = true;
        }
    }

    /// Releases one pin on `pid`. Returns `false` (and does nothing) if the
    /// page is not cached or not pinned.
    pub(crate) fn unpin(&mut self, pid: PageId) -> bool {
        match self.table.get(&pid) {
            Some(&slot) if self.frame(slot).pins > 0 => {
                self.frame_mut(slot).pins -= 1;
                true
            }
            _ => false,
        }
    }

    /// Installs a page image in a fresh frame (the page must not be
    /// resident).
    pub(crate) fn insert_frame(&mut self, pid: PageId, data: [u8; PAGE_SIZE]) {
        debug_assert!(!self.table.contains_key(&pid));
        let slot = self.alloc_slot();
        self.frames[slot] = Some(Frame {
            pid,
            data,
            dirty: false,
            pins: 0,
            lsn: 0,
        });
        self.table.insert(pid, slot);
        self.policy.on_insert(slot);
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.frames.push(None);
                self.frames.len() - 1
            }
        }
    }

    /// Evicts until `incoming` more pages fit, or nothing evictable is
    /// left (transient overflow — e.g. a run larger than the buffer, or
    /// everything pinned).
    pub(crate) fn make_room<D: DiskOps>(&mut self, disk: &mut D, incoming: usize) -> Result<()> {
        while self.table.len() + incoming > self.capacity {
            let frames = &self.frames;
            let victim = self
                .policy
                .victim(&|slot| frames[slot].as_ref().is_some_and(|f| f.pins == 0));
            let Some(slot) = victim else {
                break; // nothing evictable; allow transient overflow
            };
            self.evict_slot(disk, slot)?;
        }
        Ok(())
    }

    fn evict_slot<D: DiskOps>(&mut self, disk: &mut D, slot: usize) -> Result<()> {
        let frame = self.frames[slot].take().expect("victim slot occupied");
        debug_assert_eq!(frame.pins, 0, "evicting a pinned frame");
        self.policy.on_remove(slot);
        let mapped = self.table.remove(&frame.pid);
        debug_assert_eq!(mapped, Some(slot));
        self.free.push(slot);
        self.stats.evictions += 1;
        if frame.dirty {
            self.stats.dirty_evictions += 1;
            disk.write_run_dyn(frame.pid, 1, &mut |_| frame.data)?;
        }
        Ok(())
    }

    /// Resident dirty page ids, unsorted.
    pub(crate) fn dirty_pages(&self) -> Vec<PageId> {
        self.table
            .iter()
            .filter(|(_, &slot)| self.frame(slot).dirty)
            .map(|(&pid, _)| pid)
            .collect()
    }

    /// Counts a group-latch acquisition of `n` pages — the accounting half
    /// of [`crate::PageCache::latch_pages`], shared by both pool flavours so
    /// the same storage code reports identical latch totals on either.
    pub(crate) fn note_group_latch(&mut self, mode: LatchMode, n: u64) {
        match mode {
            LatchMode::Shared => self.stats.latch_shared += n,
            LatchMode::Exclusive => self.stats.latch_exclusive += n,
        }
    }

    /// Drops every cached frame without writing anything (callers flush
    /// first). Pins do not survive.
    pub(crate) fn drop_all(&mut self) {
        for (_, slot) in self.table.drain() {
            self.policy.on_remove(slot);
            self.frames[slot] = None;
            self.free.push(slot);
        }
        debug_assert!(self.policy.is_empty());
    }
}

/// The pool cores that own a set of pages, and the page-I/O path written
/// once over them.
///
/// [`BufferPool`] passes its single [`PoolCore`]; the shared pool passes the
/// guards of the shards it locked, in ascending shard order. Each
/// multi-page decision — which pages form a read call, which victims make
/// room and in what order, how dirty pages group into write calls — lives
/// in the provided methods below, so both pools make it identically.
pub(crate) trait PoolCores {
    /// Number of cores in the set.
    fn count(&self) -> usize;

    /// Position of the core owning `pid` (it must be in the set).
    fn owner(&self, pid: PageId) -> usize;

    /// Core at position `c`.
    fn core(&self, c: usize) -> &PoolCore;

    /// Core at position `c`, mutably.
    fn core_mut(&mut self, c: usize) -> &mut PoolCore;

    /// The core owning `pid`.
    fn at(&mut self, pid: PageId) -> &mut PoolCore {
        let c = self.owner(pid);
        self.core_mut(c)
    }

    /// Makes room for the pages of `[first, first+n)` that `wanted`
    /// selects, core by core in ascending order (evictions may write).
    fn make_room_for<D: DiskOps>(
        &mut self,
        disk: &mut D,
        first: PageId,
        n: u32,
        wanted: impl Fn(u32) -> bool,
    ) -> Result<()> {
        for c in 0..self.count() {
            let m = (0..n)
                .filter(|&j| wanted(j) && self.owner(first.offset(j)) == c)
                .count();
            if m > 0 {
                self.core_mut(c).make_room(disk, m)?;
            }
        }
        Ok(())
    }

    /// Loads the run `[first, first+n)`, none of it resident, in one read
    /// call: room first, then each image straight into its owning core.
    /// Counts no fixes.
    fn load<D: DiskOps>(&mut self, disk: &mut D, first: PageId, n: u32) -> Result<()> {
        self.make_room_for(disk, first, n, |_| true)?;
        disk.read_run_dyn(first, n, &mut |j, data| {
            let pid = first.offset(j);
            self.at(pid).insert_frame(pid, *data);
        })
    }

    /// Ensures the run `[first, first+n)` is cached, one read call per
    /// maximal contiguous missing sub-run. Walks the run in page order:
    /// a resident page gets a policy touch, a missing stretch is loaded
    /// as far as it reaches (uncapped), and residency is re-checked after
    /// every load because its evictions may take later pages of the run.
    /// Counts no fixes.
    fn prefetch<D: DiskOps>(&mut self, disk: &mut D, first: PageId, n: u32) -> Result<()> {
        let mut i = 0;
        while i < n {
            let pid = first.offset(i);
            if self.at(pid).touch(pid) {
                i += 1;
                continue;
            }
            let mut len = 1;
            while i + len < n {
                let q = first.offset(i + len);
                if self.core(self.owner(q)).is_cached(q) {
                    break;
                }
                len += 1;
            }
            self.load(disk, pid, len)?;
            i += len;
        }
        Ok(())
    }

    /// Writes every dirty page back, grouped by [`page_runs`].
    fn flush<D: DiskOps>(&mut self, disk: &mut D) -> Result<()> {
        let mut dirty: Vec<PageId> = (0..self.count())
            .flat_map(|c| self.core(c).dirty_pages())
            .collect();
        dirty.sort_unstable();
        self.write_back(disk, &dirty)
    }

    /// Writes the pages of `dirty` (sorted, distinct) back, one call per
    /// [`page_runs`] run, then marks them clean.
    ///
    /// A listed page that is not resident is a bookkeeping fault; it
    /// surfaces as [`StoreError::DirtyNotResident`] before any page of its
    /// run is written. Dirty bits are cleared only after every run reached
    /// the disk, so a failed flush leaves all pages dirty and retryable.
    fn write_back<D: DiskOps>(&mut self, disk: &mut D, dirty: &[PageId]) -> Result<()> {
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for (first, n) in page_runs(dirty) {
            frames.clear();
            for pid in (0..n).map(|j| first.offset(j)) {
                let c = self.owner(pid);
                let slot = self
                    .core(c)
                    .slot_of(pid)
                    .ok_or(StoreError::DirtyNotResident { page: pid })?;
                frames.push((c, slot));
            }
            disk.write_run_dyn(first, n, &mut |j| {
                let (c, slot) = frames[j as usize];
                self.core(c).frame(slot).data
            })?;
        }
        for &pid in dirty {
            let core = self.at(pid);
            if let Some(slot) = core.slot_of(pid) {
                core.frame_mut(slot).dirty = false;
            }
        }
        Ok(())
    }
}

impl PoolCores for PoolCore {
    fn count(&self) -> usize {
        1
    }

    fn owner(&self, _: PageId) -> usize {
        0
    }

    fn core(&self, _: usize) -> &PoolCore {
        self
    }

    fn core_mut(&mut self, _: usize) -> &mut PoolCore {
        self
    }
}

/// A page cache over the simulated disk with a pluggable replacement policy.
///
/// Reproduces the paper's buffer-manager behaviour:
///
/// * capacity of [`DEFAULT_BUFFER_PAGES`] = 1200 pages by default (§5.1);
/// * **fix accounting**: every page access counts one fix, hit or miss
///   (Table 6's CPU-load indicator);
/// * **write-back**: dirty pages are written only when evicted on overflow
///   or at [`BufferPool::flush_all`] ("database disconnect") — §5.2: "pages
///   are written to the database relations only then if either the query
///   execution has been finished ... or the page buffer overflows";
/// * **grouped I/O calls**: contiguous misses prefetched via
///   [`BufferPool::prefetch_run`] cost one read call per contiguous missing
///   run; flushes group dirty pages into contiguous runs of at most
///   [`MAX_PAGES_PER_WRITE_CALL`] pages per call.
///
/// Replacement is delegated to a [`ReplacementPolicy`] over dense frame
/// slots (see [`crate::policy`]); [`BufferPool::new`] runs the paper's LRU,
/// now an O(1) intrusive-list implementation — every `with_page` /
/// `with_page_mut` is one hash probe plus three pointer swaps, where the
/// seed paid a `BTreeMap` insert + remove per fix. Frames pinned via
/// [`BufferPool::pin`] are never evicted; if nothing is evictable the pool
/// overflows transiently rather than failing.
pub struct BufferPool {
    disk: SimDisk,
    core: PoolCore,
}

impl BufferPool {
    /// Creates a pool of `capacity` pages over `disk` with the paper's LRU
    /// policy.
    pub fn new(disk: SimDisk, capacity: usize) -> Self {
        Self::with_policy(disk, capacity, PolicyKind::Lru)
    }

    /// Creates a pool of `capacity` pages over `disk` with an explicit
    /// replacement policy.
    pub fn with_policy(disk: SimDisk, capacity: usize, policy: PolicyKind) -> Self {
        BufferConfig::with_pages(capacity)
            .policy(policy)
            .build(disk)
    }

    /// Creates a pool with the paper's default capacity (1200 pages).
    pub fn with_default_capacity(disk: SimDisk) -> Self {
        Self::new(disk, DEFAULT_BUFFER_PAGES)
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Which replacement policy this pool runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.core.policy_kind()
    }

    /// Number of pages currently cached.
    pub fn cached_pages(&self) -> usize {
        self.core.cached_pages()
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.core.pinned_pages()
    }

    /// Allocates `n` contiguous pages on the underlying disk.
    pub fn alloc_extent(&mut self, n: u32) -> PageId {
        self.disk.alloc_extent(n)
    }

    /// Total pages allocated on the underlying disk.
    pub fn database_pages(&self) -> u32 {
        self.disk.allocated_pages()
    }

    /// Fixes `pid` for reading and passes its content to `f`.
    pub fn with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let slot = self.core.fix(&mut self.disk, pid, false)?;
        Ok(f(&self.core.frame(slot).data))
    }

    /// Fixes `pid` for writing, passes its content to `f`, marks it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let slot = self.core.fix(&mut self.disk, pid, true)?;
        Ok(f(&mut self.core.frame_mut(slot).data))
    }

    /// Fixes `pid` (a counted access, hit or miss, like any other) and pins
    /// its frame: a pinned frame is never chosen as an eviction victim
    /// until [`BufferPool::unpin`] balances the pin. Pins nest.
    pub fn pin(&mut self, pid: PageId) -> Result<()> {
        let slot = self.core.fix(&mut self.disk, pid, false)?;
        self.core.frame_mut(slot).pins += 1;
        Ok(())
    }

    /// Releases one pin on `pid`. Returns `false` (and does nothing) if the
    /// page is not cached or not pinned.
    pub fn unpin(&mut self, pid: PageId) -> bool {
        self.core.unpin(pid)
    }

    /// Ensures the run `[first, first+n)` is cached, issuing **one read call
    /// per maximal contiguous missing sub-run** — the DASDBS multi-page read
    /// (e.g. one call for a large object's data pages). Does not count fixes;
    /// follow with [`BufferPool::with_page`] per page actually accessed.
    pub fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        self.core.prefetch(&mut self.disk, first, n)
    }

    /// True if `pid` is currently cached (no side effects, no accounting).
    pub fn is_cached(&self, pid: PageId) -> bool {
        self.core.is_cached(pid)
    }

    /// Writes all dirty pages back, grouped into contiguous runs of at most
    /// [`MAX_PAGES_PER_WRITE_CALL`] pages per call — the "database
    /// disconnect" of the paper's measurement protocol.
    pub fn flush_all(&mut self) -> Result<()> {
        self.core.flush(&mut self.disk)
    }

    /// Flushes and drops every cached page: a cold restart between
    /// measurement runs. Pins do not survive the restart.
    pub fn clear_cache(&mut self) -> Result<()> {
        self.flush_all()?;
        self.core.drop_all();
        Ok(())
    }

    /// Issues a write call of `n` contiguous pages that carries no content
    /// change — models DASDBS's page-pool writes during `change attribute`
    /// operations (§5.3).
    pub fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        self.disk.write_run_noop(first, n)
    }

    /// Combined disk + buffer counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot::combine(self.disk.stats(), self.core.stats)
    }

    /// Buffer counters only.
    pub fn buffer_stats(&self) -> BufferStats {
        self.core.stats
    }

    /// Resets disk and buffer counters (cache content — dirty pages
    /// included — is kept).
    pub fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.core.stats = BufferStats::default();
    }

    /// Counts a group-latch acquisition over the distinct pages of `pids`.
    ///
    /// An exclusively-owned pool has no concurrent accessors, so latching is
    /// pure bookkeeping here — but it is the *same* bookkeeping the sharded
    /// [`crate::SharedBufferPool`] performs for real acquisitions, which is
    /// what keeps serial and one-client-shared measurements identical over
    /// the latched write surface.
    pub fn note_group_latch(&mut self, pids: &[PageId], mode: LatchMode) {
        let n = distinct_pids(pids).len() as u64;
        self.core.note_group_latch(mode, n);
    }

    /// FNV-1a checksum of the underlying disk's page array (uncounted).
    pub fn disk_checksum(&self) -> u64 {
        self.disk.checksum()
    }

    /// The tracked per-page heat map, sorted by page id. Empty unless the
    /// pool was built with [`HeatConfig::track`] on. Uncounted: reading
    /// heat is metadata access, not page access. The map survives
    /// [`BufferPool::reset_stats`] and [`BufferPool::clear_cache`] — it is
    /// workload state (like cache content), not a measurement counter.
    pub fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.core.page_heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize, pages: u32) -> BufferPool {
        let mut disk = SimDisk::new();
        disk.alloc_extent(pages);
        BufferPool::new(disk, cap)
    }

    fn pool_with(policy: PolicyKind, cap: usize, pages: u32) -> BufferPool {
        let mut disk = SimDisk::new();
        disk.alloc_extent(pages);
        BufferPool::with_policy(disk, cap, policy)
    }

    #[test]
    fn fix_counts_hits_and_misses() {
        let mut p = pool(10, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        let s = p.buffer_stats();
        assert_eq!(s.fixes, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(p.snapshot().read_calls, 2);
        assert_eq!(p.snapshot().pages_read, 2);
    }

    #[test]
    fn prefetch_groups_contiguous_misses() {
        let mut p = pool(10, 8);
        p.with_page(PageId(2), |_| {}).unwrap(); // cache page 2
        p.reset_stats();
        p.prefetch_run(PageId(0), 6).unwrap();
        // Missing runs: [0,1] and [3,4,5] -> 2 calls, 5 pages.
        let s = p.snapshot();
        assert_eq!(s.read_calls, 2);
        assert_eq!(s.pages_read, 5);
        assert_eq!(s.fixes, 0, "prefetch is not a fix");
        // Everything is now cached; subsequent fixes are hits.
        p.with_page(PageId(4), |_| {}).unwrap();
        assert_eq!(p.buffer_stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = pool(2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // 1 is now LRU
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 1
        assert!(p.is_cached(PageId(0)));
        assert!(!p.is_cached(PageId(1)));
        assert!(p.is_cached(PageId(2)));
        assert_eq!(p.buffer_stats().evictions, 1);
    }

    #[test]
    fn mru_evicts_most_recently_used() {
        let mut p = pool_with(PolicyKind::Mru, 2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // 0 is now MRU
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 0
        assert!(!p.is_cached(PageId(0)));
        assert!(p.is_cached(PageId(1)));
        assert!(p.is_cached(PageId(2)));
    }

    #[test]
    fn fifo_evicts_in_residency_order() {
        let mut p = pool_with(PolicyKind::Fifo, 2, 4);
        p.with_page(PageId(0), |_| {}).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap();
        p.with_page(PageId(0), |_| {}).unwrap(); // hit; FIFO ignores it
        p.with_page(PageId(2), |_| {}).unwrap(); // evicts 0 regardless
        assert!(!p.is_cached(PageId(0)));
        assert!(p.is_cached(PageId(1)));
    }

    #[test]
    fn every_policy_keeps_capacity_and_contents() {
        for kind in PolicyKind::all() {
            let mut p = pool_with(kind, 3, 20);
            for i in 0..20 {
                p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            }
            assert!(p.cached_pages() <= 3, "{kind}");
            assert_eq!(p.policy_kind(), kind);
            p.flush_all().unwrap();
            for i in 0..20 {
                p.with_page(PageId(i), |b| assert_eq!(b[0], i as u8, "{kind}"))
                    .unwrap();
            }
        }
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        for kind in PolicyKind::all() {
            let mut p = pool_with(kind, 2, 10);
            p.pin(PageId(0)).unwrap();
            for i in 1..10 {
                p.with_page(PageId(i), |_| {}).unwrap();
            }
            assert!(p.is_cached(PageId(0)), "{kind}: pinned page evicted");
            assert_eq!(p.pinned_pages(), 1, "{kind}");
            assert!(p.unpin(PageId(0)), "{kind}");
            assert!(!p.unpin(PageId(0)), "{kind}: double unpin");
            for i in 1..10 {
                p.with_page(PageId(i), |_| {}).unwrap();
            }
            // Once unpinned, the page is ordinary again. Every policy except
            // MRU drains the cold page 0; MRU keeps it by design (it always
            // evicts the hottest frame).
            if kind == PolicyKind::Mru {
                assert!(p.is_cached(PageId(0)), "MRU keeps the coldest frame");
            } else {
                assert!(!p.is_cached(PageId(0)), "{kind}: unpinned page kept");
            }
        }
    }

    #[test]
    fn all_pinned_overflows_transiently() {
        let mut p = pool(2, 4);
        p.pin(PageId(0)).unwrap();
        p.pin(PageId(1)).unwrap();
        p.with_page(PageId(2), |_| {}).unwrap(); // nothing evictable
        assert_eq!(p.cached_pages(), 3, "transient overflow");
        p.unpin(PageId(0));
        p.with_page(PageId(3), |_| {}).unwrap();
        assert!(p.cached_pages() <= 3);
        assert!(!p.is_cached(PageId(0)) || !p.is_cached(PageId(2)));
    }

    #[test]
    fn dirty_eviction_writes_one_page() {
        let mut p = pool(1, 3);
        p.with_page_mut(PageId(0), |b| b[100] = 9).unwrap();
        p.with_page(PageId(1), |_| {}).unwrap(); // evicts dirty 0
        let s = p.snapshot();
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 1);
        assert_eq!(p.buffer_stats().dirty_evictions, 1);
        // Content survived the round trip.
        p.with_page(PageId(0), |b| assert_eq!(b[100], 9)).unwrap();
    }

    #[test]
    fn flush_groups_contiguous_dirty_pages() {
        let mut p = pool(10, 10);
        for i in [0u32, 1, 2, 5, 6, 9] {
            p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        p.reset_stats();
        p.flush_all().unwrap();
        let s = p.snapshot();
        // Runs: [0..3), [5..7), [9] -> 3 calls, 6 pages.
        assert_eq!(s.write_calls, 3);
        assert_eq!(s.pages_written, 6);
        // Second flush writes nothing.
        p.flush_all().unwrap();
        assert_eq!(p.snapshot().write_calls, 3);
    }

    #[test]
    fn flush_respects_max_run_length() {
        let n = MAX_PAGES_PER_WRITE_CALL + 8;
        let mut p = pool(n as usize + 1, n);
        for i in 0..n {
            p.with_page_mut(PageId(i), |b| b[0] = 1).unwrap();
        }
        p.reset_stats();
        p.flush_all().unwrap();
        let s = p.snapshot();
        assert_eq!(s.pages_written, n as u64);
        assert_eq!(s.write_calls, 2, "40 dirty pages -> calls of 32 + 8");
    }

    #[test]
    fn clear_cache_flushes_then_drops() {
        let mut p = pool(10, 4);
        p.with_page_mut(PageId(3), |b| b[7] = 42).unwrap();
        p.clear_cache().unwrap();
        assert_eq!(p.cached_pages(), 0);
        assert_eq!(p.snapshot().pages_written, 1);
        p.reset_stats();
        // Re-reading is a miss (cold) and sees the flushed content.
        p.with_page(PageId(3), |b| assert_eq!(b[7], 42)).unwrap();
        assert_eq!(p.buffer_stats().misses, 1);
    }

    #[test]
    fn write_pool_pages_counts_without_mutating() {
        let mut p = pool(4, 4);
        p.with_page_mut(PageId(0), |b| b[0] = 5).unwrap();
        p.flush_all().unwrap();
        p.reset_stats();
        p.write_pool_pages(PageId(0), 2).unwrap();
        let s = p.snapshot();
        assert_eq!(s.write_calls, 1);
        assert_eq!(s.pages_written, 2);
        p.with_page(PageId(0), |b| assert_eq!(b[0], 5)).unwrap();
    }

    #[test]
    fn eviction_pressure_stays_within_capacity() {
        let mut p = pool(3, 20);
        for i in 0..20 {
            p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        assert!(p.cached_pages() <= 3);
        p.flush_all().unwrap();
        // All contents must survive eviction + flush.
        p.reset_stats();
        for i in 0..20 {
            p.with_page(PageId(i), |b| assert_eq!(b[0], i as u8))
                .unwrap();
        }
    }

    #[test]
    fn buffer_config_builds_configured_pools() {
        let cfg = BufferConfig::with_pages(8).policy(PolicyKind::Clock);
        let mut disk = SimDisk::new();
        disk.alloc_extent(4);
        let pool = cfg.build(disk);
        assert_eq!(pool.capacity(), 8);
        assert_eq!(pool.policy_kind(), PolicyKind::Clock);
        let d = BufferConfig::default();
        assert_eq!(d.pages, DEFAULT_BUFFER_PAGES);
        assert_eq!(d.policy, PolicyKind::Lru);
    }
}
