//! [`SharedBufferPool`] — a thread-safe, lock-striped buffer pool with
//! per-page latches for concurrent writers.
//!
//! The paper measures a *single* client behind one 1200-page LRU buffer.
//! Serving N concurrent clients from the same buffer turns the pool itself
//! into the bottleneck: one global lock would serialize every fix. This
//! module shards the pool by `PageId` hash into K lock-striped shards, each
//! a full [`PoolCore`] — the exact frame-slot/replacement-policy/accounting
//! engine behind [`BufferPool`] — protected by its own mutex:
//!
//! * a fix takes exactly **one shard lock** (plus the disk mutex on a
//!   miss), so fixes to different shards never contend;
//! * each shard runs its **own replacement policy instance** over its own
//!   frames and keeps its own [`BufferStats`], so victim selection needs no
//!   cross-shard coordination and per-shard load imbalance is observable
//!   ([`SharedBufferPool::shard_stats`]);
//! * the data disk is the same [`SimDisk`] the exclusive pool owns, behind
//!   one mutex that each I/O call takes for its duration;
//!   [`SharedBufferPool::snapshot`] merges the shard counters with its
//!   counters, so every per-unit metric of the measurement protocol works
//!   unchanged;
//! * multi-shard operations (run loads, prefetch, flush, cold restart)
//!   acquire shard locks in **ascending shard order**, and the disk mutex
//!   only ever after shard locks — a total lock order, so the pool cannot
//!   deadlock.
//!
//! # One page-I/O path
//!
//! The pool writes no page-I/O logic of its own. Each multi-page decision
//! — which missing pages form one read call, which victims make room in
//! which shard, how dirty pages group into write calls — is a provided
//! method of [`PoolCores`] in `buffer.rs`, run over the locked shard guards
//! exactly as [`BufferPool`] runs it over its single core. Page lists
//! become I/O calls in one place, `page_runs` (maximal contiguous runs of
//! at most [`MAX_PAGES_PER_WRITE_CALL`](crate::MAX_PAGES_PER_WRITE_CALL)
//! pages), which flush, WAL replay and the batched read engine share. So a
//! pool with **one shard** runs, operation for operation, the code
//! [`BufferPool`] runs: identical eviction decisions, identical call
//! grouping, identical counters; with more shards the calls still group
//! across shard boundaries (`tests/prop_shared_buffer.rs` checks both
//! per step). That is what makes a one-client run over the shared pool
//! reproduce the serial measurements exactly.
//!
//! Capacity is split across shards (`total/K` each, remainder to the lowest
//! shards); a shard may transiently overflow its slice exactly like
//! [`BufferPool`] overflows when nothing is evictable.
//!
//! # Concurrent writes
//!
//! Since the latch layer ([`crate::latch`]), mutations no longer assume a
//! quiesced pool:
//!
//! * single-page accesses stay atomic under the shard mutex, and
//!   additionally wait for conflicting *foreign* latches;
//! * multi-page operations (an object's read or read-modify-write) take
//!   **group latches** via [`SharedBufferPool::latch_pages`] — shared for
//!   readers, exclusive for writers — acquired in the global
//!   (shard, page) order described in [`crate::latch`], so torn multi-page
//!   observations are impossible and writers on disjoint objects proceed
//!   in parallel;
//! * [`SharedBufferPool::flush_all`] and
//!   [`SharedBufferPool::clear_cache`] **quiesce writers** through a gate
//!   (in-flight exclusive groups finish, new ones are held off) instead of
//!   assuming them absent, then flush under all shard locks — concurrent
//!   readers keep running and simply go cold after a restart.
//!
//! # Batched reads
//!
//! With [`IoEngineConfig::enabled`](crate::IoEngineConfig::enabled),
//! buffer misses route through the `ioengine` submission/completion
//! layer: the missing fixer releases its shard mutex and parks on a
//! completion token while a drain leader coalesces queued misses into
//! multi-page `read_run` calls and fills the frames with the synchronous
//! load's make-room-then-insert step (shard locks held only for the
//! install, never across the disk read). The engine mutex sits outside
//! the lock order — it is never held while a shard mutex is acquired.
//! Disabled (default), the miss path is the synchronous one,
//! byte-identical in code and counters to the pre-engine pool.
//!
//! # Lock poisoning
//!
//! Every mutex/condvar acquisition here recovers from poisoning
//! (`unwrap_or_else(|e| e.into_inner())`) instead of propagating the panic.
//! Shard, gate, and disk state are kept consistent by this module's own
//! invariants — critical sections never leave frames half-installed — and
//! the latched write surface already unwinds cleanly
//! ([`PageCache::with_latched`] releases latches on panic). Propagating
//! poison would turn one panicked client into a pool-wide panic storm and
//! leave threads parked in `Condvar::wait` wedged forever.

use crate::buffer::{page_runs, PoolCore, PoolCores};
use crate::cache::PageCache;
use crate::disk::lock_disk;
use crate::ioengine::IoEngine;
use crate::latch::{distinct_pids, LatchMode, LatchTable};
use crate::stats::{BufferStats, IoSnapshot};
use crate::wal::Wal;
use crate::{BufferConfig, PageId, PolicyKind, Result, SimDisk, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One lock-striped shard: the pool engine plus its latch table, behind one
/// mutex, with a condvar for latch-conflict waiting.
struct Shard {
    state: Mutex<ShardState>,
    /// Notified whenever a latch in this shard is released.
    cond: Condvar,
}

struct ShardState {
    core: PoolCore,
    latches: LatchTable,
}

/// The writer gate: flushes and cold restarts quiesce in-flight exclusive
/// latch groups through this before touching any shard mutex.
///
/// The gate is **re-entrant per thread**: the thread holding the drain may
/// quiesce again (depth counts up) without waiting on itself. The
/// reorganizer relies on this — its rewrite runs inside
/// [`SharedBufferPool::with_writers_quiesced`] and ends with a
/// [`SharedBufferPool::flush_all`], which quiesces on its own.
#[derive(Default)]
struct GateState {
    /// Exclusive latch groups currently between latch and unlatch.
    active_exclusive: usize,
    /// Nesting depth of the drain; 0 = nobody is draining.
    draining: u32,
    /// The thread holding the drain (set iff `draining > 0`).
    owner: Option<std::thread::ThreadId>,
}

/// A thread-safe buffer pool sharded by `PageId` hash into K lock-striped
/// shards, each running the exclusive [`crate::BufferPool`]'s engine and
/// page-I/O path behind its own mutex, over one [`SimDisk`] behind a disk
/// mutex. Lock order: writer gate → shard mutexes (ascending) → disk
/// mutex → log mutex.
///
/// All methods take `&self`; share the pool across threads through
/// [`SharedPoolHandle`] (an `Arc` wrapper that also implements
/// [`PageCache`], so the storage layers run over it unchanged).
pub struct SharedBufferPool {
    /// The data disk: the same [`SimDisk`] the exclusive pool owns, locked
    /// per I/O call (always after any shard mutex).
    disk: Mutex<SimDisk>,
    shards: Vec<Shard>,
    gate: Mutex<GateState>,
    gate_cond: Condvar,
    /// Waits spent quiescing writers at flush/restart (merged into
    /// [`BufferStats::latch_waits`]).
    gate_waits: AtomicU64,
    policy: PolicyKind,
    capacity: usize,
    /// The write-ahead log, when durability is enabled
    /// ([`crate::WalConfig`]).
    /// `None` keeps every code path and counter byte-identical to the
    /// pre-WAL pool.
    wal: Option<Wal>,
    /// The batched read engine, when enabled ([`crate::IoEngineConfig`]).
    /// `None` keeps the synchronous miss path and its counters
    /// byte-identical to the pre-engine pool.
    engine: Option<IoEngine>,
}

impl SharedBufferPool {
    /// Creates a pool of `config.pages` total pages split over `shards`
    /// shards, each running its own `config.policy` instance and heat
    /// tracker. `config.wal` and `config.io` switch on the write-ahead log
    /// (every latched update is redo-logged and survives
    /// [`Self::crash_volatile`] + [`Self::recover`]) and the batched read
    /// engine.
    ///
    /// `config.pages` must be at least `shards` so every shard can hold a
    /// page.
    pub fn new(config: BufferConfig, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let capacity = config.pages;
        assert!(
            capacity >= shards,
            "capacity ({capacity}) must be >= shard count ({shards})"
        );
        SharedBufferPool {
            disk: Mutex::new(SimDisk::new()),
            shards: (0..shards)
                .map(|i| {
                    let per = capacity / shards + usize::from(i < capacity % shards);
                    Shard {
                        state: Mutex::new(ShardState {
                            core: PoolCore::new(per, config.policy, config.heat),
                            latches: LatchTable::default(),
                        }),
                        cond: Condvar::new(),
                    }
                })
                .collect(),
            gate: Mutex::new(GateState::default()),
            gate_cond: Condvar::new(),
            gate_waits: AtomicU64::new(0),
            policy: config.policy,
            capacity,
            wal: config.wal.enabled.then(|| Wal::new(config.wal)),
            engine: config.io.enabled.then(|| IoEngine::new(shards)),
        }
    }

    /// The tracked per-page heat map merged over all shards, sorted by page
    /// id. Empty unless the pool was built with [`crate::HeatConfig::track`]
    /// on. Uncounted
    /// metadata access: no I/O, no counter changes.
    pub fn page_heat(&self) -> Vec<(PageId, u64)> {
        let mut all: Vec<(PageId, u64)> = Vec::new();
        for i in 0..self.shards.len() {
            all.extend(self.shard(i).core.page_heat());
        }
        // Shards partition the page-id space, so concatenation has no
        // duplicate keys — a sort yields the global map.
        all.sort_unstable_by_key(|&(p, _)| p);
        all
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity in pages (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Which replacement policy every shard runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy
    }

    /// The shard owning `pid`: a Fibonacci multiplicative hash, so
    /// contiguous extents spread across shards instead of piling onto one.
    fn shard_of(&self, pid: PageId) -> usize {
        let h = (pid.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.shards.len() as u64) as usize
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, ShardState> {
        self.shards[i]
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Locks `pid`'s shard and waits until no *foreign* latch blocks a read
    /// of `pid` (see [`LatchTable::blocks_read`]). Leaf wait: the caller
    /// holds no other lock or latch.
    fn lock_for_read(&self, pid: PageId) -> MutexGuard<'_, ShardState> {
        let sh = &self.shards[self.shard_of(pid)];
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut waited = false;
        while st.latches.blocks_read(pid) {
            if !waited {
                st.core.stats.latch_waits += 1;
                waited = true;
            }
            st = sh.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    /// Like [`Self::lock_for_read`] but for a write access: also waits out
    /// shared latches.
    fn lock_for_write(&self, pid: PageId) -> MutexGuard<'_, ShardState> {
        let sh = &self.shards[self.shard_of(pid)];
        let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut waited = false;
        while st.latches.blocks_write(pid) {
            if !waited {
                st.core.stats.latch_waits += 1;
                waited = true;
            }
            st = sh.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    /// Locks every shard, in ascending order (the global lock order). The
    /// caller holds the writer gate, so no exclusive latch group is open.
    fn lock_all(&self) -> ShardGuards<'_> {
        let cores = self.lock_shards(0..self.shards.len());
        debug_assert!(
            cores
                .guards
                .iter()
                .all(|(_, g)| g.latches.exclusive_latched() == 0),
            "whole-pool operations require quiesced writers (the gate guarantees this)"
        );
        cores
    }

    /// Allocates `n` contiguous pages on the shared disk.
    pub fn alloc_extent(&self, n: u32) -> PageId {
        lock_disk(&self.disk).alloc_extent(n)
    }

    /// Total pages allocated on the shared disk.
    pub fn database_pages(&self) -> u32 {
        lock_disk(&self.disk).allocated_pages()
    }

    /// FNV-1a checksum of the shared disk's page array (uncounted).
    pub fn disk_checksum(&self) -> u64 {
        lock_disk(&self.disk).checksum()
    }

    /// Fixes `pid` under its shard lock, routing misses through the
    /// batched read engine when one is enabled. Returns the owning shard's
    /// guard plus the frame slot, with the fix counted.
    ///
    /// Engine off, this is the synchronous path verbatim: one shard lock,
    /// and a miss reads under it. Engine on, a miss **releases the shard
    /// mutex** and parks on the engine ([`IoEngine::read_page`]); once the
    /// completion fires, the shard is re-locked and the (engine-installed)
    /// frame is counted as a miss. An eviction can beat the re-lock, in
    /// which case the request is simply resubmitted.
    fn fix_in_shard(
        &self,
        pid: PageId,
        write: bool,
    ) -> Result<(MutexGuard<'_, ShardState>, usize)> {
        let mut st = self.lock_for_mode(pid, write);
        let Some(engine) = &self.engine else {
            let slot = st.core.fix(&mut &self.disk, pid, write)?;
            return Ok((st, slot));
        };
        loop {
            if st.core.is_cached(pid) {
                // Resident: the ordinary (hit-counting) fix.
                let slot = st.core.fix(&mut &self.disk, pid, write)?;
                return Ok((st, slot));
            }
            drop(st);
            engine.read_page(self.shard_of(pid), pid, |runs| self.install_runs(runs))?;
            st = self.lock_for_mode(pid, write);
            if let Some(slot) = st.core.slot_of(pid) {
                st.core.fix_engine_miss(slot, write);
                return Ok((st, slot));
            }
            // Evicted between completion and re-lock: go around again. The
            // next round's residency check keeps this loop from spinning —
            // either the page is back (someone re-read it) or we resubmit.
        }
    }

    /// Leader-side completion fill for a drained batch: for each coalesced
    /// run, read it from the disk in **one call with no shard mutex held**,
    /// then install the frames that are still missing under their shard
    /// locks — the same room-then-insert step as a synchronous load (pages
    /// that raced into the cache keep their authoritative frames; the
    /// freshly read image is dropped).
    fn install_runs(&self, runs: &[(PageId, u32)]) -> Result<()> {
        for &(first, n) in runs {
            let mut images: Vec<[u8; PAGE_SIZE]> = Vec::with_capacity(n as usize);
            lock_disk(&self.disk).read_run(first, n, |_, data| images.push(*data))?;
            let mut cores = self.lock_involved(first, n);
            let missing: Vec<bool> = (0..n)
                .map(|j| {
                    let pid = first.offset(j);
                    !cores.core(cores.owner(pid)).is_cached(pid)
                })
                .collect();
            cores.make_room_for(&mut &self.disk, first, n, |j| missing[j as usize])?;
            for (j, data) in (0..n).zip(images) {
                if missing[j as usize] {
                    let pid = first.offset(j);
                    cores.at(pid).insert_frame(pid, data);
                }
            }
        }
        Ok(())
    }

    /// Fixes `pid` for reading and passes its content to `f`. One shard
    /// lock; concurrent fixes to other shards proceed in parallel. Waits
    /// for a conflicting foreign exclusive latch. With the batched read
    /// engine enabled, a miss parks on a completion token instead of
    /// reading under the shard mutex.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let (st, slot) = self.fix_in_shard(pid, false)?;
        Ok(f(&st.core.frame(slot).data))
    }

    /// Fixes `pid` for writing, passes its content to `f`, marks it dirty.
    /// The mutation is atomic under the shard mutex; conflicting foreign
    /// latches (exclusive by another thread, or any shared group) are
    /// waited out first.
    ///
    /// With the WAL enabled, the page's after-image is buffered into the
    /// calling thread's active op (made durable at [`Self::log_commit`])
    /// and the frame is stamped with the image's LSN. The log mutex is
    /// taken *after* the shard mutex — last in the lock order.
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let (mut st, slot) = self.fix_in_shard(pid, true)?;
        let r = f(&mut st.core.frame_mut(slot).data);
        if let Some(wal) = &self.wal {
            let frame = st.core.frame_mut(slot);
            frame.lsn = wal.note_page_write(pid, &frame.data);
        }
        Ok(r)
    }

    /// Fixes and pins `pid` in its shard; pinned frames are never eviction
    /// victims until [`SharedBufferPool::unpin`]. Pins nest.
    pub fn pin(&self, pid: PageId) -> Result<()> {
        let (mut st, slot) = self.fix_in_shard(pid, false)?;
        st.core.frame_mut(slot).pins += 1;
        Ok(())
    }

    /// Releases one pin on `pid`; `false` if not cached or not pinned.
    pub fn unpin(&self, pid: PageId) -> bool {
        self.shard(self.shard_of(pid)).core.unpin(pid)
    }

    /// True if `pid` is currently cached in its shard.
    pub fn is_cached(&self, pid: PageId) -> bool {
        self.shard(self.shard_of(pid)).core.is_cached(pid)
    }

    /// Acquires a group latch on the distinct pages of `pids` in `mode`:
    /// shared for multi-page readers, exclusive for writers. Pages are
    /// latched in ascending (shard, page) order, one shard mutex at a time
    /// (released before crossing to the next shard — latches persist,
    /// mutexes do not), waiting on the shard condvar for conflicts.
    /// Exclusive groups additionally register with the writer gate so
    /// flushes can quiesce them. Groups must not nest.
    pub fn latch_pages(&self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        let pids = distinct_pids(pids);
        if pids.is_empty() {
            return Ok(());
        }
        if mode == LatchMode::Exclusive {
            self.enter_exclusive_group();
        }
        let mut ordered: Vec<(usize, PageId)> =
            pids.iter().map(|&p| (self.shard_of(p), p)).collect();
        ordered.sort_unstable();
        let mut i = 0;
        while i < ordered.len() {
            let s = ordered[i].0;
            let sh = &self.shards[s];
            let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
            let mut granted = 0u64;
            while i < ordered.len() && ordered[i].0 == s {
                let pid = ordered[i].1;
                let mut waited = false;
                while !st.latches.can_grant(pid, mode) {
                    if !waited {
                        st.core.stats.latch_waits += 1;
                        waited = true;
                    }
                    st = sh.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st.latches.grant(pid, mode);
                granted += 1;
                i += 1;
            }
            st.core.note_group_latch(mode, granted);
        }
        Ok(())
    }

    /// Releases a group latch previously acquired with [`Self::latch_pages`]
    /// (same pages, same mode, same thread), waking conflict waiters.
    pub fn unlatch_pages(&self, pids: &[PageId], mode: LatchMode) {
        let pids = distinct_pids(pids);
        if pids.is_empty() {
            return;
        }
        let mut ordered: Vec<(usize, PageId)> =
            pids.iter().map(|&p| (self.shard_of(p), p)).collect();
        ordered.sort_unstable();
        let mut i = 0;
        while i < ordered.len() {
            let s = ordered[i].0;
            let sh = &self.shards[s];
            let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
            while i < ordered.len() && ordered[i].0 == s {
                st.latches.release(ordered[i].1, mode);
                i += 1;
            }
            drop(st);
            sh.cond.notify_all();
        }
        if mode == LatchMode::Exclusive {
            self.exit_exclusive_group();
        }
    }

    /// Total pages currently group-latched (any mode) across shards.
    pub fn latched_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).latches.latched_pages())
            .sum()
    }

    /// Total pages currently exclusively latched across shards.
    pub fn exclusive_latched_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).latches.exclusive_latched())
            .sum()
    }

    fn enter_exclusive_group(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        while g.draining > 0 {
            g = self.gate_cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.active_exclusive += 1;
    }

    fn exit_exclusive_group(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.active_exclusive > 0, "unbalanced exclusive group");
        g.active_exclusive = g.active_exclusive.saturating_sub(1);
        drop(g);
        self.gate_cond.notify_all();
    }

    /// Quiesces writers: waits for in-flight exclusive groups to finish and
    /// holds off new ones until [`Self::release_quiesce`]. Never called
    /// while holding a shard mutex, so draining writers can complete.
    fn quiesce_writers(&self) {
        let me = std::thread::current().id();
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if g.draining > 0 && g.owner == Some(me) {
            // Re-entrant: this thread already holds the drain (a flush
            // inside a reorganization window) — writers are quiesced.
            g.draining += 1;
            return;
        }
        while g.draining > 0 {
            // Another flush/restart is draining; take over afterwards.
            g = self.gate_cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.draining = 1;
        g.owner = Some(me);
        let mut waited = false;
        while g.active_exclusive > 0 {
            if !waited {
                self.gate_waits.fetch_add(1, Ordering::Relaxed);
                waited = true;
            }
            g = self.gate_cond.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release_quiesce(&self) {
        let mut g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.draining > 0, "unbalanced quiesce");
        g.draining = g.draining.saturating_sub(1);
        if g.draining > 0 {
            return;
        }
        g.owner = None;
        drop(g);
        self.gate_cond.notify_all();
    }

    /// Runs `f` inside a writer-quiesce window: in-flight exclusive latch
    /// groups drain first, and no new one starts until `f` returns. This is
    /// the reorganizer's hook — a physically consistent window in which it
    /// can rewrite extents while plain reads keep flowing.
    ///
    /// Lock order: the closure may fix pages, take *shared* latch groups,
    /// flush, and allocate freely — none of those touch the gate. It must
    /// **not** acquire an exclusive latch group ([`LatchMode::Exclusive`]
    /// via `latch_pages`/`with_latched`): exclusive groups wait on the very
    /// drain this window holds, which would self-deadlock.
    pub fn with_writers_quiesced<R>(&self, f: impl FnOnce() -> R) -> R {
        self.quiesce_writers();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        self.release_quiesce();
        match r {
            Ok(v) => v,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// [`Self::lock_for_read`] or [`Self::lock_for_write`], by flag.
    fn lock_for_mode(&self, pid: PageId, write: bool) -> MutexGuard<'_, ShardState> {
        if write {
            self.lock_for_write(pid)
        } else {
            self.lock_for_read(pid)
        }
    }

    /// Locks every shard owning a page of `[first, first+n)`, in ascending
    /// shard order (the global lock order).
    fn lock_involved(&self, first: PageId, n: u32) -> ShardGuards<'_> {
        let mut involved: Vec<usize> = (0..n).map(|i| self.shard_of(first.offset(i))).collect();
        involved.sort_unstable();
        involved.dedup();
        self.lock_shards(involved)
    }

    /// Locks the shards `ids` (ascending) as one [`PoolCores`] set.
    fn lock_shards(&self, ids: impl IntoIterator<Item = usize>) -> ShardGuards<'_> {
        ShardGuards {
            pool: self,
            guards: ids.into_iter().map(|s| (s, self.shard(s))).collect(),
        }
    }

    /// Ensures the run `[first, first+n)` is cached: one read call per
    /// maximal contiguous missing sub-run — disk-adjacent missing fragments
    /// merge into a single call even when their pages hash to different
    /// shards. Does not count fixes.
    ///
    /// Every involved shard is locked up front (ascending, the lock order),
    /// so residency is decided **coherently for the whole run**, and the
    /// walk itself is `PoolCores::prefetch` — the code
    /// `BufferPool::prefetch_run` runs over its single core, which is what
    /// keeps a 1-shard pool counter-exact against the serial pool.
    pub fn prefetch_run(&self, first: PageId, n: u32) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        self.lock_involved(first, n)
            .prefetch(&mut &self.disk, first, n)
    }

    /// Issues a content-free write call of `n` contiguous pages (DASDBS
    /// page-pool writes during `change attribute`, §5.3).
    pub fn write_pool_pages(&self, first: PageId, n: u32) -> Result<()> {
        lock_disk(&self.disk).write_run_noop(first, n)
    }

    /// Writes all dirty pages back, grouped into contiguous runs of at most
    /// [`MAX_PAGES_PER_WRITE_CALL`](crate::MAX_PAGES_PER_WRITE_CALL) pages
    /// per call across shard boundaries — `PoolCores::flush`, the code
    /// [`BufferPool::flush_all`](crate::BufferPool::flush_all) runs.
    /// **Quiesces in-flight exclusive latch groups first** (the writer
    /// gate), so a mid-update object is never flushed half-written;
    /// concurrent readers are unaffected.
    pub fn flush_all(&self) -> Result<()> {
        self.flush_quiesced(false)
    }

    /// Flushes and drops every cached page in every shard: a cold restart
    /// between measurement runs. Pins do not survive. Quiesces writers
    /// like [`SharedBufferPool::flush_all`]; concurrent readers keep
    /// running and simply go cold (latches survive — they live beside the
    /// frames, not in them).
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_quiesced(true)
    }

    /// Flush under the writer gate and all shard locks, optionally dropping
    /// every frame afterwards, then checkpoint the WAL (no-op when
    /// disabled): after a successful flush every committed image is on the
    /// data disk, so the log tail can be discarded. The gate guarantees no
    /// latched update is mid-op; un-gated single-page writers (the
    /// single-threaded load phase) must not race a flush.
    fn flush_quiesced(&self, drop_frames: bool) -> Result<()> {
        self.quiesce_writers();
        let result = {
            let mut cores = self.lock_all();
            let r = cores.flush(&mut &self.disk);
            if r.is_ok() && drop_frames {
                cores.drop_all();
            }
            r
        };
        if let (Ok(()), Some(wal)) = (&result, &self.wal) {
            wal.checkpoint();
        }
        self.release_quiesce();
        result
    }

    /// Commits the calling thread's active WAL op: its buffered page
    /// after-images become durable (flushed immediately under
    /// [`FsyncMode::PerCommit`](crate::FsyncMode::PerCommit), or as part
    /// of a group flush under
    /// [`FsyncMode::Group`](crate::FsyncMode::Group)). Returns once the op
    /// is durable. A no-op (and the only behavior) with the WAL disabled.
    /// Must be called while holding **no** shard mutex or latch.
    pub fn log_commit(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.commit(),
            None => Ok(()),
        }
    }

    /// Discards the calling thread's active WAL op buffer (failed update):
    /// its images never reach the log. A no-op with the WAL disabled.
    pub fn log_abort(&self) {
        if let Some(wal) = &self.wal {
            wal.abort();
        }
    }

    /// True when this pool carries a write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// Crash-test hook: tears `bytes` record bytes off the end of the
    /// durable log, as a crash that interrupted the final flush mid-record
    /// would leave it. The torn record must read back as end-of-log during
    /// [`recover`](Self::recover), not as corruption. No-op with the WAL
    /// disabled.
    #[doc(hidden)]
    pub fn truncate_log_tail(&self, bytes: u32) {
        if let Some(wal) = &self.wal {
            wal.truncate_log_tail(bytes);
        }
    }

    /// LSN stamped on `pid`'s resident frame by its last logged mutation
    /// (`None` if not cached; `0` if cached but never logged).
    pub fn page_lsn(&self, pid: PageId) -> Option<u64> {
        let st = self.shard(self.shard_of(pid));
        st.core.slot_of(pid).map(|slot| st.core.frame(slot).lsn)
    }

    /// Simulated crash: drops every cached frame **without flushing** and
    /// discards the WAL's volatile state (active op buffers, unflushed
    /// group-commit queue). The data disk and the durable log content
    /// survive — exactly the state a process kill leaves behind. Writers
    /// are quiesced first so no latched update is torn mid-op; ops that
    /// committed before the crash are recoverable, uncommitted ones are
    /// gone.
    pub fn crash_volatile(&self) {
        self.quiesce_writers();
        self.lock_all().drop_all();
        if let Some(wal) = &self.wal {
            wal.crash();
        }
        self.release_quiesce();
    }

    /// Recovery-on-open: scans the durable log tail past the last
    /// checkpoint (counted log reads), replays the final committed image
    /// of every logged page onto the data disk in contiguous runs of at
    /// most [`MAX_PAGES_PER_WRITE_CALL`](crate::MAX_PAGES_PER_WRITE_CALL)
    /// pages (counted data writes, grouped by the same run builder a flush
    /// uses), then checkpoints. Returns the
    /// number of pages replayed. Intended for a freshly
    /// [crashed](Self::crash_volatile) (or newly opened) pool: the cache
    /// must hold no dirty pre-crash frames.
    pub fn recover(&self) -> Result<usize> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        self.quiesce_writers();
        let result = (|| {
            // One image per page, in page order (the log keeps the last
            // committed image of each page).
            let images = wal.recovered_images()?;
            let pids: Vec<PageId> = images.iter().map(|im| im.0).collect();
            let mut disk = lock_disk(&self.disk);
            let mut i = 0;
            for (first, n) in page_runs(&pids) {
                disk.write_run(first, n, |j| *images[i + j as usize].2)?;
                i += n as usize;
            }
            drop(disk);
            wal.checkpoint();
            Ok(images.len())
        })();
        self.release_quiesce();
        result
    }

    /// Combined disk + merged shard counters — drop-in compatible with
    /// [`BufferPool::snapshot`](crate::BufferPool::snapshot), so every
    /// existing per-unit metric works over the shared pool. With the WAL
    /// enabled the `log_*`/`commits` fields carry its counters; disabled,
    /// they stay zero and the snapshot is byte-identical to the pre-WAL
    /// pool's.
    pub fn snapshot(&self) -> IoSnapshot {
        // Read the disk counters into a local first: a guard still alive
        // while `buffer_stats` locks the shards would invert the lock order.
        let disk = lock_disk(&self.disk).stats();
        let mut s = IoSnapshot::combine(disk, self.buffer_stats());
        if let Some(wal) = &self.wal {
            let w = wal.stats();
            s.log_write_calls = w.log_write_calls;
            s.log_pages_written = w.log_pages_written;
            s.log_read_calls = w.log_read_calls;
            s.log_pages_read = w.log_pages_read;
            s.commits = w.commits;
        }
        if let Some(engine) = &self.engine {
            let c = engine.counters();
            s.batched_read_calls = c.batched_read_calls;
            s.coalesced_pages = c.coalesced_pages;
            s.max_queue_depth = c.max_queue_depth;
        }
        s
    }

    /// Merged buffer counters over all shards, including the latch
    /// counters (gate waits fold into `latch_waits`).
    pub fn buffer_stats(&self) -> BufferStats {
        let mut sum = BufferStats::default();
        for shard in 0..self.shards.len() {
            sum.accumulate(&self.shard(shard).core.stats);
        }
        sum.latch_waits += self.gate_waits.load(Ordering::Relaxed);
        sum
    }

    /// Per-shard buffer counters, for load-imbalance analysis (the
    /// `ext_concurrency` experiment reports max/mean and cv over these).
    pub fn shard_stats(&self) -> Vec<BufferStats> {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.stats)
            .collect()
    }

    /// Per-shard `(cached pages, capacity)`, for occupancy invariants.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        (0..self.shards.len())
            .map(|i| {
                let g = self.shard(i);
                (g.core.cached_pages(), g.core.capacity())
            })
            .collect()
    }

    /// Total pages currently cached across shards.
    pub fn cached_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.cached_pages())
            .sum()
    }

    /// Total pinned pages across shards.
    pub fn pinned_pages(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).core.pinned_pages())
            .sum()
    }

    /// Resets disk, shard, and WAL counters (cache and log content kept).
    pub fn reset_stats(&self) {
        lock_disk(&self.disk).reset_stats();
        self.gate_waits.store(0, Ordering::Relaxed);
        for i in 0..self.shards.len() {
            self.shard(i).core.stats = BufferStats::default();
        }
        if let Some(wal) = &self.wal {
            wal.reset_stats();
        }
        if let Some(engine) = &self.engine {
            engine.reset_counters();
        }
    }

    /// True when this pool routes misses through the batched read engine.
    pub fn io_engine_enabled(&self) -> bool {
        self.engine.is_some()
    }
}

/// Locked shards as a [`PoolCores`] set: `(shard index, guard)` pairs in
/// ascending shard order, so the pool's page-I/O path runs over them
/// exactly as it runs over `BufferPool`'s single core.
struct ShardGuards<'a> {
    pool: &'a SharedBufferPool,
    guards: Vec<(usize, MutexGuard<'a, ShardState>)>,
}

impl ShardGuards<'_> {
    /// Drops every cached frame of the locked shards without writing.
    fn drop_all(&mut self) {
        for (_, g) in &mut self.guards {
            g.core.drop_all();
        }
    }
}

impl PoolCores for ShardGuards<'_> {
    fn count(&self) -> usize {
        self.guards.len()
    }

    fn owner(&self, pid: PageId) -> usize {
        let s = self.pool.shard_of(pid);
        self.guards
            .iter()
            .position(|&(i, _)| i == s)
            .expect("owning shard locked")
    }

    fn core(&self, c: usize) -> &PoolCore {
        &self.guards[c].1.core
    }

    fn core_mut(&mut self, c: usize) -> &mut PoolCore {
        &mut self.guards[c].1.core
    }
}

/// A cloneable handle to a [`SharedBufferPool`].
///
/// Implements [`PageCache`], so heap files, spanned stores and the storage
/// models of `starfish-core` run over the shared pool unchanged; cloning
/// the handle (an `Arc` clone) is how a `&self` read path obtains the
/// `&mut`-shaped receiver the trait asks for.
#[derive(Clone)]
pub struct SharedPoolHandle {
    pool: Arc<SharedBufferPool>,
}

impl SharedPoolHandle {
    /// Builds a fresh shared pool with [`SharedBufferPool::new`].
    pub fn new(config: BufferConfig, shards: usize) -> Self {
        SharedPoolHandle {
            pool: Arc::new(SharedBufferPool::new(config, shards)),
        }
    }

    /// The underlying shared pool.
    pub fn pool(&self) -> &SharedBufferPool {
        &self.pool
    }
}

impl PageCache for SharedPoolHandle {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.pool.with_page(pid, f)
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.pool.with_page_mut(pid, f)
    }

    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        self.pool.prefetch_run(first, n)
    }

    fn pin(&mut self, pid: PageId) -> Result<()> {
        self.pool.pin(pid)
    }

    fn unpin(&mut self, pid: PageId) -> bool {
        self.pool.unpin(pid)
    }

    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.pool.alloc_extent(n)
    }

    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        self.pool.write_pool_pages(first, n)
    }

    fn flush_all(&mut self) -> Result<()> {
        self.pool.flush_all()
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.pool.clear_cache()
    }

    fn reset_stats(&mut self) {
        self.pool.reset_stats()
    }

    fn is_cached(&self, pid: PageId) -> bool {
        self.pool.is_cached(pid)
    }

    fn snapshot(&self) -> IoSnapshot {
        self.pool.snapshot()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.pool.buffer_stats()
    }

    fn database_pages(&self) -> u32 {
        self.pool.database_pages()
    }

    fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    fn policy_kind(&self) -> PolicyKind {
        self.pool.policy_kind()
    }

    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        self.pool.latch_pages(pids, mode)
    }

    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode) {
        self.pool.unlatch_pages(pids, mode)
    }

    fn disk_checksum(&self) -> u64 {
        self.pool.disk_checksum()
    }

    fn log_commit(&mut self) -> Result<()> {
        self.pool.log_commit()
    }

    fn log_abort(&mut self) {
        self.pool.log_abort()
    }

    fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.pool.page_heat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncMode, IoEngineConfig, StoreError, WalConfig, MAX_PAGES_PER_WRITE_CALL};
    use std::thread;

    fn pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        let p = SharedBufferPool::new(BufferConfig::with_pages(cap), shards);
        p.alloc_extent(pages);
        p
    }

    #[test]
    fn fix_counts_hits_and_misses() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 10, 4);
            p.with_page(PageId(0), |_| {}).unwrap();
            p.with_page(PageId(0), |_| {}).unwrap();
            p.with_page(PageId(1), |_| {}).unwrap();
            let s = p.buffer_stats();
            assert_eq!(s.fixes, 3, "{shards} shards");
            assert_eq!(s.hits, 1);
            assert_eq!(s.misses, 2);
            assert_eq!(p.snapshot().read_calls, 2);
            assert_eq!(p.snapshot().pages_read, 2);
        }
    }

    #[test]
    fn capacity_splits_with_remainder_to_low_shards() {
        let p = SharedBufferPool::new(BufferConfig::with_pages(10), 4);
        let caps: Vec<usize> = p.shard_occupancy().iter().map(|&(_, c)| c).collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(p.capacity(), 10);
        assert_eq!(p.shard_count(), 4);
    }

    #[test]
    fn prefetch_groups_contiguous_misses_across_shards() {
        for shards in [1, 3] {
            let p = pool(shards, 16, 8);
            p.with_page(PageId(2), |_| {}).unwrap(); // cache page 2
            p.reset_stats();
            p.prefetch_run(PageId(0), 6).unwrap();
            // Missing runs: [0,1] and [3,4,5] -> 2 calls, 5 pages.
            let s = p.snapshot();
            assert_eq!(s.read_calls, 2, "{shards} shards");
            assert_eq!(s.pages_read, 5);
            assert_eq!(s.fixes, 0, "prefetch is not a fix");
            p.with_page(PageId(4), |_| {}).unwrap();
            assert_eq!(p.buffer_stats().hits, 1);
        }
    }

    #[test]
    fn flush_groups_contiguous_dirty_pages_across_shards() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 16, 10);
            for i in [0u32, 1, 2, 5, 6, 9] {
                p.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            }
            p.reset_stats();
            p.flush_all().unwrap();
            let s = p.snapshot();
            // Runs: [0..3), [5..7), [9] -> 3 calls, 6 pages, regardless of
            // which shard holds which page.
            assert_eq!(s.write_calls, 3, "{shards} shards");
            assert_eq!(s.pages_written, 6);
            p.flush_all().unwrap();
            assert_eq!(p.snapshot().write_calls, 3, "second flush writes nothing");
        }
    }

    #[test]
    fn contents_survive_eviction_pressure_in_every_shard() {
        for shards in [1, 2, 4] {
            let p = pool(shards, 4, 40);
            for i in 0..40 {
                p.with_page_mut(PageId(i), |b| b[7] = i as u8).unwrap();
            }
            let occ = p.shard_occupancy();
            for (i, &(cached, cap)) in occ.iter().enumerate() {
                assert!(cached <= cap, "shard {i}: {cached} > {cap}");
            }
            p.flush_all().unwrap();
            for i in 0..40 {
                p.with_page(PageId(i), |b| assert_eq!(b[7], i as u8))
                    .unwrap();
            }
        }
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2, 4, 20);
        p.pin(PageId(0)).unwrap();
        for i in 1..20 {
            p.with_page(PageId(i), |_| {}).unwrap();
        }
        assert!(p.is_cached(PageId(0)), "pinned page evicted");
        assert_eq!(p.pinned_pages(), 1);
        assert!(p.unpin(PageId(0)));
        assert!(!p.unpin(PageId(0)));
    }

    #[test]
    fn clear_cache_flushes_then_drops_everywhere() {
        let p = pool(3, 12, 6);
        for i in 0..6 {
            p.with_page_mut(PageId(i), |b| b[1] = 9).unwrap();
        }
        p.clear_cache().unwrap();
        assert_eq!(p.cached_pages(), 0);
        assert!(p.snapshot().pages_written >= 6);
        p.reset_stats();
        p.with_page(PageId(3), |b| assert_eq!(b[1], 9)).unwrap();
        assert_eq!(p.buffer_stats().misses, 1, "cold after restart");
    }

    #[test]
    fn write_pool_pages_counts_without_mutating() {
        let p = pool(2, 4, 4);
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
    fn concurrent_readers_see_consistent_pages() {
        let handle = SharedPoolHandle::new(BufferConfig::with_pages(32).policy(PolicyKind::Lru), 4);
        let first = handle.pool().alloc_extent(64);
        // Seed every page with its own id (single writer).
        for i in 0..64 {
            handle
                .pool()
                .with_page_mut(first.offset(i), |b| b[100] = i as u8)
                .unwrap();
        }
        handle.pool().flush_all().unwrap();
        // Hammer the pool from 8 reader threads; every read must see the
        // seeded byte whatever the interleaving of evictions and reloads.
        thread::scope(|s| {
            for t in 0..8u32 {
                let h = handle.clone();
                s.spawn(move || {
                    for round in 0..200u32 {
                        let i = (t * 7 + round * 13) % 64;
                        h.pool()
                            .with_page(first.offset(i), |b| assert_eq!(b[100], i as u8))
                            .unwrap();
                    }
                });
            }
        });
        let s = handle.pool().snapshot();
        assert_eq!(s.fixes, 8 * 200 + 64);
        assert_eq!(s.fixes, s.hits + s.misses);
    }

    #[test]
    fn shard_stats_expose_per_shard_load() {
        let p = pool(4, 16, 16);
        for i in 0..16 {
            p.with_page(PageId(i), |_| {}).unwrap();
        }
        let per = p.shard_stats();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().map(|s| s.fixes).sum::<u64>(), 16);
        assert!(per.iter().filter(|s| s.fixes > 0).count() >= 2, "spread");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_below_shards_is_rejected() {
        SharedBufferPool::new(BufferConfig::with_pages(2), 4);
    }

    #[test]
    fn group_latches_count_and_release() {
        let p = pool(3, 12, 12);
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        p.latch_pages(&pages, LatchMode::Shared).unwrap();
        assert_eq!(p.latched_pages(), 6);
        assert_eq!(p.exclusive_latched_pages(), 0);
        p.unlatch_pages(&pages, LatchMode::Shared);
        assert_eq!(p.latched_pages(), 0);
        p.latch_pages(&pages, LatchMode::Exclusive).unwrap();
        assert_eq!(p.exclusive_latched_pages(), 6);
        p.unlatch_pages(&pages, LatchMode::Exclusive);
        let s = p.buffer_stats();
        assert_eq!(s.latch_shared, 6);
        assert_eq!(s.latch_exclusive, 6);
        assert_eq!(s.latch_waits, 0, "uncontended");
        // Latching never touches fixes or physical I/O.
        assert_eq!(s.fixes, 0);
        assert_eq!(p.snapshot().pages_read, 0);
    }

    #[test]
    fn own_exclusive_latch_is_reentrant_for_page_access() {
        let p = pool(2, 8, 8);
        let pages = [PageId(0), PageId(1), PageId(2)];
        p.latch_pages(&pages, LatchMode::Exclusive).unwrap();
        // The latch-holding thread reads and writes its own pages freely.
        for pid in pages {
            p.with_page_mut(pid, |b| b[0] = 7).unwrap();
            p.with_page(pid, |b| assert_eq!(b[0], 7)).unwrap();
        }
        p.unlatch_pages(&pages, LatchMode::Exclusive);
    }

    #[test]
    fn latched_pages_survive_eviction_and_reload() {
        // Latch state is residency-independent: evicting a latched page
        // must neither lose the latch nor corrupt the content.
        let p = pool(1, 2, 10);
        p.with_page_mut(PageId(0), |b| b[0] = 42).unwrap();
        p.latch_pages(&[PageId(0)], LatchMode::Exclusive).unwrap();
        for i in 1..10 {
            p.with_page(PageId(i), |_| {}).unwrap(); // evicts page 0
        }
        assert!(!p.is_cached(PageId(0)), "page 0 evicted while latched");
        assert_eq!(p.exclusive_latched_pages(), 1, "latch survived eviction");
        p.with_page(PageId(0), |b| assert_eq!(b[0], 42)).unwrap();
        p.unlatch_pages(&[PageId(0)], LatchMode::Exclusive);
        assert_eq!(p.latched_pages(), 0);
    }

    #[test]
    fn foreign_exclusive_latch_blocks_readers_until_released() {
        let p = pool(2, 8, 8);
        p.latch_pages(&[PageId(3)], LatchMode::Exclusive).unwrap();
        thread::scope(|s| {
            let reader = s.spawn(|| {
                // Blocks until the writer unlatches, then sees the new byte.
                p.with_page(PageId(3), |b| b[0]).unwrap()
            });
            // Give the reader a moment to hit the latch conflict.
            thread::sleep(std::time::Duration::from_millis(30));
            p.with_page_mut(PageId(3), |b| b[0] = 99).unwrap();
            p.unlatch_pages(&[PageId(3)], LatchMode::Exclusive);
            assert_eq!(reader.join().unwrap(), 99, "reader saw the write");
        });
        // The reader's blocked episode was counted (scheduling permitting,
        // the sleep makes this deterministic in practice).
        assert!(p.buffer_stats().latch_waits >= 1);
    }

    #[test]
    fn exclusive_groups_exclude_each_other_on_overlap() {
        let p = pool(4, 16, 16);
        let overlap: Vec<PageId> = (0..8).map(PageId).collect();
        let counter = std::sync::atomic::AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        p.latch_pages(&overlap, LatchMode::Exclusive).unwrap();
                        // Critical section: exactly one group at a time.
                        let v = counter.fetch_add(1, Ordering::SeqCst);
                        for pid in &overlap {
                            p.with_page_mut(*pid, |b| b[0] = (v % 251) as u8).unwrap();
                        }
                        for pid in &overlap {
                            p.with_page(*pid, |b| assert_eq!(b[0], (v % 251) as u8))
                                .unwrap();
                        }
                        p.unlatch_pages(&overlap, LatchMode::Exclusive);
                    }
                });
            }
        });
        assert_eq!(p.latched_pages(), 0);
        assert_eq!(p.buffer_stats().latch_exclusive, 4 * 25 * 8);
    }

    #[test]
    fn flush_quiesces_inflight_writers() {
        let p = pool(2, 8, 8);
        p.latch_pages(&[PageId(0), PageId(1)], LatchMode::Exclusive)
            .unwrap();
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        thread::scope(|s| {
            let flusher = s.spawn(|| p.flush_all().unwrap());
            thread::sleep(std::time::Duration::from_millis(30));
            // The flush is parked at the gate; finish the update.
            p.with_page_mut(PageId(1), |b| b[0] = 2).unwrap();
            p.unlatch_pages(&[PageId(0), PageId(1)], LatchMode::Exclusive);
            flusher.join().unwrap();
        });
        // Both pages of the group reached the disk in the flush.
        assert!(p.snapshot().pages_written >= 2);
        assert!(p.buffer_stats().latch_waits >= 1, "gate wait counted");
        p.reset_stats();
        p.clear_cache().unwrap();
        p.with_page(PageId(0), |b| assert_eq!(b[0], 1)).unwrap();
        p.with_page(PageId(1), |b| assert_eq!(b[0], 2)).unwrap();
    }

    #[test]
    fn with_latched_releases_latches_when_the_closure_panics() {
        use crate::cache::PageCache;
        let mut handle = SharedPoolHandle::new(BufferConfig::with_pages(8), 2);
        handle.pool().alloc_extent(8);
        let pages = [PageId(0), PageId(1)];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<()> = handle.with_latched(&pages, LatchMode::Exclusive, |_| {
                panic!("mid-update failure")
            });
        }));
        assert!(panicked.is_err(), "panic must propagate");
        // The latches and the writer-gate registration were released: other
        // accessors and flushes proceed instead of wedging forever.
        assert_eq!(handle.pool().latched_pages(), 0, "leaked latches");
        handle
            .pool()
            .with_page_mut(PageId(0), |b| b[0] = 1)
            .unwrap();
        handle.pool().flush_all().unwrap();
        handle
            .pool()
            .latch_pages(&pages, LatchMode::Exclusive)
            .unwrap();
        handle.pool().unlatch_pages(&pages, LatchMode::Exclusive);
    }

    #[test]
    fn disk_checksum_tracks_flushed_content_only() {
        let p = pool(2, 8, 8);
        let before = p.disk_checksum();
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        assert_eq!(p.disk_checksum(), before, "dirty page not on disk yet");
        p.flush_all().unwrap();
        assert_ne!(p.disk_checksum(), before, "flush changed the disk");
    }

    /// Regression: a dirty page whose frame is missing at flush time used
    /// to hit `expect("dirty page resident")` *inside* the disk write-call
    /// source closure, aborting the process. The write-back now reports
    /// `DirtyNotResident` before writing a byte of the affected run.
    #[test]
    fn flush_with_nonresident_dirty_page_errors_instead_of_panicking() {
        let p = pool(3, 12, 4);
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        p.with_page_mut(PageId(2), |b| b[0] = 1).unwrap();
        p.reset_stats();
        // A dirty list naming page 1, which no shard holds.
        let dirty = [PageId(0), PageId(1), PageId(2)];
        let err = p.lock_all().write_back(&mut &p.disk, &dirty).unwrap_err();
        assert_eq!(err, StoreError::DirtyNotResident { page: PageId(1) });
        assert_eq!(
            p.snapshot().pages_written,
            0,
            "no byte of the broken run was written"
        );
        // The healthy path still groups into MAX_PAGES_PER_WRITE_CALL runs.
        let many: Vec<PageId> = (0..MAX_PAGES_PER_WRITE_CALL + 3).map(PageId).collect();
        assert_eq!(
            page_runs(&many).collect::<Vec<_>>(),
            vec![
                (PageId(0), MAX_PAGES_PER_WRITE_CALL),
                (PageId(MAX_PAGES_PER_WRITE_CALL), 3)
            ]
        );
    }

    /// WAL replay writes the recovered images back in the runs a flush
    /// would use: 35 contiguous pages plus one isolated page are three data
    /// write calls (32 + 3 + 1) carrying 36 pages.
    #[test]
    fn recovery_groups_replayed_pages_into_capped_runs() {
        let p = wal_pool(2, 64, 48);
        for i in (0..35).chain([40]) {
            p.with_page_mut(PageId(i), |b| b[0] = i as u8 + 1).unwrap();
        }
        p.log_commit().unwrap();
        p.crash_volatile();
        p.reset_stats();
        assert_eq!(p.recover().unwrap(), 36);
        let s = p.snapshot();
        assert_eq!(s.write_calls, 3, "runs of 32, 3 and 1 pages");
        assert_eq!(s.pages_written, 36);
        for i in (0..35).chain([40]) {
            p.with_page(PageId(i), |b| assert_eq!(b[0], i as u8 + 1))
                .unwrap();
        }
    }

    /// Regression: poisoned shard/gate mutexes used to cascade — one
    /// panicked client turned every later `expect("... poisoned")` into a
    /// panic and left `cond.wait`ers wedged. Poison is now recovered
    /// (`unwrap_or_else(|e| e.into_inner())`): a second thread's fix, a
    /// mutation, and a flush all proceed after a closure panic.
    #[test]
    fn panicked_client_does_not_wedge_other_fixes() {
        // One shard, so the panicking fix poisons the same mutex every
        // later operation needs.
        let p = pool(1, 8, 8);
        p.with_page_mut(PageId(1), |b| b[0] = 7).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<u8> = p.with_page(PageId(0), |_| panic!("client died mid-read"));
        }));
        assert!(panicked.is_err(), "panic must propagate to the dead client");
        thread::scope(|s| {
            let reader = s.spawn(|| p.with_page(PageId(1), |b| b[0]).unwrap());
            assert_eq!(reader.join().unwrap(), 7, "second thread's fix wedged");
        });
        p.with_page_mut(PageId(2), |b| b[0] = 9).unwrap();
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.with_page(PageId(2), |b| assert_eq!(b[0], 9)).unwrap();
    }

    fn engine_pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        let p = SharedBufferPool::new(
            BufferConfig::with_pages(cap).io(IoEngineConfig::enabled()),
            shards,
        );
        p.alloc_extent(pages);
        p
    }

    /// Single-threaded, the engine path must reproduce the synchronous
    /// pool's legacy counters exactly (every miss is a solo batch of one
    /// page) while populating the new engine counters — the differential
    /// the golden-identity suites rely on, in miniature.
    #[test]
    fn engine_on_single_thread_matches_engine_off_counters() {
        let tape: Vec<u32> = vec![0, 1, 2, 1, 5, 0, 7, 6, 5, 3, 3, 9, 0];
        let on = engine_pool(2, 4, 10);
        let off = pool(2, 4, 10);
        assert!(on.io_engine_enabled() && !off.io_engine_enabled());
        for &i in &tape {
            on.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
            off.with_page_mut(PageId(i), |b| b[0] = i as u8).unwrap();
        }
        on.flush_all().unwrap();
        off.flush_all().unwrap();
        let (a, b) = (on.snapshot(), off.snapshot());
        assert_eq!((a.fixes, a.hits, a.misses), (b.fixes, b.hits, b.misses));
        assert_eq!(a.read_calls, b.read_calls);
        assert_eq!(a.pages_read, b.pages_read);
        assert_eq!(a.write_calls, b.write_calls);
        assert_eq!(a.pages_written, b.pages_written);
        assert_eq!(on.disk_checksum(), off.disk_checksum());
        assert_eq!(a.batched_read_calls, a.misses, "each miss = one solo batch");
        assert_eq!(a.max_queue_depth, 1, "never more than one request queued");
        assert_eq!(a.coalesced_pages, 0, "solo batches coalesce nothing");
        assert_eq!(
            (b.batched_read_calls, b.coalesced_pages, b.max_queue_depth),
            (0, 0, 0),
            "engine-off pool must report zero engine counters"
        );
    }

    /// Concurrent misses through the engine stay correct (every read sees
    /// its page's content), keep `fixes = hits + misses`, and the drain
    /// path accounts its calls.
    #[test]
    fn engine_serves_concurrent_misses_correctly() {
        let p = engine_pool(4, 96, 64);
        for i in 0..64 {
            p.with_page_mut(PageId(i), |b| b[100] = i as u8).unwrap();
        }
        p.flush_all().unwrap();
        p.clear_cache().unwrap();
        p.reset_stats();
        thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                s.spawn(move || {
                    for round in 0..100u32 {
                        let i = (t * 11 + round * 7) % 64;
                        p.with_page(PageId(i), |b| assert_eq!(b[100], i as u8))
                            .unwrap();
                    }
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.fixes, 800);
        assert_eq!(snap.fixes, snap.hits + snap.misses);
        assert!(
            snap.batched_read_calls >= 1,
            "misses went through the engine"
        );
        assert!(snap.max_queue_depth >= 1);
        // Every page was read at least once; overlapping batches may read a
        // page a second time (the install then skips the resident frame).
        assert!(snap.pages_read >= 64);
        p.reset_stats();
        assert_eq!(p.snapshot().batched_read_calls, 0, "reset clears engine");
    }

    fn wal_pool(shards: usize, cap: usize, pages: u32) -> SharedBufferPool {
        let p = SharedBufferPool::new(
            BufferConfig::with_pages(cap).wal(WalConfig::enabled(FsyncMode::PerCommit)),
            shards,
        );
        p.alloc_extent(pages);
        p
    }

    #[test]
    fn committed_updates_survive_a_crash() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(3), |b| b[0] = 7).unwrap();
        p.with_page_mut(PageId(5), |b| b[0] = 9).unwrap();
        p.log_commit().unwrap();
        assert!(p.page_lsn(PageId(3)).unwrap() > 0, "frame stamped");
        let before = p.disk_checksum();
        p.crash_volatile();
        assert_eq!(p.cached_pages(), 0, "crash dropped the cache");
        assert_eq!(p.disk_checksum(), before, "crash never touches the disk");
        assert_eq!(p.recover().unwrap(), 2);
        p.with_page(PageId(3), |b| assert_eq!(b[0], 7)).unwrap();
        p.with_page(PageId(5), |b| assert_eq!(b[0], 9)).unwrap();
        let s = p.snapshot();
        assert_eq!(s.commits, 1);
        assert!(s.log_write_calls >= 1, "commit flushed the log");
        assert!(s.log_read_calls >= 1, "recovery scanned the log");
    }

    #[test]
    fn uncommitted_updates_are_lost_at_crash() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(1), |b| b[0] = 7).unwrap();
        p.log_commit().unwrap();
        p.with_page_mut(PageId(2), |b| b[0] = 8).unwrap(); // never committed
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 1, "only the committed page replays");
        p.with_page(PageId(1), |b| assert_eq!(b[0], 7)).unwrap();
        p.with_page(PageId(2), |b| assert_eq!(b[0], 0)).unwrap();
    }

    #[test]
    fn flush_checkpoints_and_truncates_the_log() {
        let p = wal_pool(2, 8, 8);
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        p.log_commit().unwrap();
        p.flush_all().unwrap();
        // The image is on the data disk; the log tail was discarded, so a
        // crash + recovery replays nothing and loses nothing.
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 0);
        p.with_page(PageId(0), |b| assert_eq!(b[0], 1)).unwrap();
    }

    #[test]
    fn wal_off_pool_reports_zero_log_counters_and_recovers_nothing() {
        let p = pool(2, 8, 8);
        assert!(!p.wal_enabled());
        p.with_page_mut(PageId(0), |b| b[0] = 1).unwrap();
        p.log_commit().unwrap();
        p.log_abort();
        p.flush_all().unwrap();
        assert_eq!(p.recover().unwrap(), 0);
        let s = p.snapshot();
        assert_eq!(s.log_write_calls, 0);
        assert_eq!(s.log_pages_written, 0);
        assert_eq!(s.log_read_calls, 0);
        assert_eq!(s.log_pages_read, 0);
        assert_eq!(s.commits, 0);
    }

    #[test]
    fn group_commit_pool_survives_concurrent_writer_crash() {
        let p = SharedBufferPool::new(
            BufferConfig::with_pages(32).wal(WalConfig::enabled(FsyncMode::Group)),
            4,
        );
        let first = p.alloc_extent(32);
        thread::scope(|s| {
            for t in 0..8u32 {
                let p = &p;
                s.spawn(move || {
                    for k in 0..4u32 {
                        let pid = first.offset(t * 4 + k);
                        p.latch_pages(&[pid], LatchMode::Exclusive).unwrap();
                        p.with_page_mut(pid, |b| b[0] = (t * 4 + k) as u8).unwrap();
                        p.unlatch_pages(&[pid], LatchMode::Exclusive);
                        p.log_commit().unwrap();
                    }
                });
            }
        });
        let s = p.snapshot();
        assert_eq!(s.commits, 32);
        assert!(
            s.log_write_calls <= s.commits,
            "group commit never flushes more than once per commit"
        );
        p.crash_volatile();
        assert_eq!(p.recover().unwrap(), 32);
        for i in 0..32 {
            p.with_page(first.offset(i), |b| assert_eq!(b[0], i as u8))
                .unwrap();
        }
    }
}
