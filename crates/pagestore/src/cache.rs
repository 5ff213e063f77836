//! [`PageCache`] — the buffer-pool interface the storage layers build on.
//!
//! Heap files, spanned records and the storage models of `starfish-core`
//! only ever need a small, fixed set of pool operations. Abstracting them
//! behind one trait lets the *same* storage code run over either
//!
//! * the single-threaded, exclusively-owned [`BufferPool`] (`&mut`
//!   everywhere — the configuration every original paper measurement uses),
//!   or
//! * a [`SharedPoolHandle`](crate::SharedPoolHandle), a cloneable `Arc`
//!   handle to a lock-striped [`crate::SharedBufferPool`] that N client
//!   threads fix pages through concurrently.
//!
//! The trait keeps the `&mut self` receivers of `BufferPool` so existing
//! call sites compile unchanged; the shared handle satisfies them through
//! interior mutability (its `&mut` receivers never actually need the
//! exclusivity).

use crate::latch::LatchMode;
use crate::stats::{BufferStats, IoSnapshot};
use crate::{BufferPool, PageId, PolicyKind, Result, PAGE_SIZE};

/// The buffer-pool operations the storage layers need.
///
/// The same storage code runs over the exclusive [`BufferPool`] or a
/// [`SharedPoolHandle`](crate::SharedPoolHandle) through it. Implementations must
/// preserve the accounting contract of [`BufferPool`]: every
/// [`with_page`](PageCache::with_page) / [`with_page_mut`](PageCache::with_page_mut)
/// is one counted fix (hit or miss); [`prefetch_run`](PageCache::prefetch_run)
/// issues one read call per maximal contiguous missing sub-run and counts no
/// fixes; writes are deferred until eviction or [`flush_all`](PageCache::flush_all).
pub trait PageCache {
    /// Fixes `pid` for reading and passes its content to `f`.
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R>;

    /// Fixes `pid` for writing, passes its content to `f`, marks it dirty.
    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R>;

    /// Ensures the run `[first, first+n)` is cached — one read call per
    /// maximal contiguous missing sub-run, no fixes counted.
    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()>;

    /// Fixes and pins `pid`; pinned frames are never eviction victims.
    fn pin(&mut self, pid: PageId) -> Result<()>;

    /// Releases one pin on `pid`; `false` if not cached or not pinned.
    fn unpin(&mut self, pid: PageId) -> bool;

    /// Allocates `n` contiguous pages on the underlying disk.
    fn alloc_extent(&mut self, n: u32) -> PageId;

    /// Issues a content-free write call of `n` contiguous pages (DASDBS
    /// page-pool writes, §5.3).
    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()>;

    /// Writes all dirty pages back in grouped calls (database disconnect).
    fn flush_all(&mut self) -> Result<()>;

    /// Flushes and drops every cached page (cold restart).
    fn clear_cache(&mut self) -> Result<()>;

    /// Resets disk and buffer counters; cache content is kept.
    fn reset_stats(&mut self);

    /// True if `pid` is currently cached (no accounting side effects).
    fn is_cached(&self, pid: PageId) -> bool;

    /// Combined disk + buffer counters.
    fn snapshot(&self) -> IoSnapshot;

    /// Buffer counters only.
    fn buffer_stats(&self) -> BufferStats;

    /// Total pages allocated on the underlying disk.
    fn database_pages(&self) -> u32;

    /// Pool capacity in pages (summed over shards for sharded pools).
    fn capacity(&self) -> usize;

    /// Which replacement policy the pool runs.
    fn policy_kind(&self) -> PolicyKind;

    /// Acquires a group latch on `pids` (deduplicated) in `mode` — the
    /// multi-page atomicity primitive of the concurrent write path (see
    /// [`crate::latch`]). On the exclusive [`BufferPool`] this is a counted
    /// no-op (single owner ⇒ no conflicts possible); on the shared pool it
    /// acquires real per-page latches in the global (shard, page) order,
    /// blocking on conflicts. Latch groups must not nest.
    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()>;

    /// Releases a group latch previously acquired with the same `pids` and
    /// `mode` by the same thread.
    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode);

    /// Runs `f` with `pids` group-latched in `mode`, releasing the latches
    /// on every exit path — success, error, **and panic** (a leaked latch
    /// would wedge every conflicting accessor and all future flushes, so
    /// an unwinding closure must not skip the release; the panic is
    /// re-raised after it). Generic over the closure's error type so
    /// higher storage layers can use their own error enums inside a latch
    /// scope.
    fn with_latched<R, E>(
        &mut self,
        pids: &[PageId],
        mode: LatchMode,
        f: impl FnOnce(&mut Self) -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E>
    where
        Self: Sized,
        E: From<crate::StoreError>,
    {
        self.latch_pages(pids, mode)?;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        self.unlatch_pages(pids, mode);
        match r {
            Ok(v) => v,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// FNV-1a checksum of the entire on-disk page array — the differential
    /// tests' "final on-disk bytes" fingerprint. Reads the disk directly
    /// (no counters touched); call after a flush for a meaningful value.
    fn disk_checksum(&self) -> u64;

    /// Commits the calling thread's active write-ahead-log op: the update
    /// helpers call this at each op boundary (after the exclusive latched
    /// closure succeeds), and the call returns only once the op is durable.
    /// A no-op on pools without a WAL (the exclusive [`BufferPool`], or a
    /// shared pool with the WAL disabled) — which is what keeps every
    /// pre-WAL measurement byte-identical.
    fn log_commit(&mut self) -> Result<()> {
        Ok(())
    }

    /// Discards the calling thread's active write-ahead-log op buffer: the
    /// update helpers call this when the latched closure fails after
    /// possibly buffering images, so a failed op cannot leak into the next
    /// commit. A no-op on pools without a WAL.
    fn log_abort(&mut self) {}

    /// The tracked per-page heat map, sorted by page id (summed over shards
    /// for sharded pools). Empty unless the pool was built with
    /// [`crate::HeatConfig::track`] on. Uncounted metadata access: reading
    /// heat issues no I/O and bumps no counter.
    fn page_heat(&self) -> Vec<(PageId, u64)> {
        Vec::new()
    }
}

impl PageCache for BufferPool {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        BufferPool::with_page(self, pid, f)
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        BufferPool::with_page_mut(self, pid, f)
    }

    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        BufferPool::prefetch_run(self, first, n)
    }

    fn pin(&mut self, pid: PageId) -> Result<()> {
        BufferPool::pin(self, pid)
    }

    fn unpin(&mut self, pid: PageId) -> bool {
        BufferPool::unpin(self, pid)
    }

    fn alloc_extent(&mut self, n: u32) -> PageId {
        BufferPool::alloc_extent(self, n)
    }

    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        BufferPool::write_pool_pages(self, first, n)
    }

    fn flush_all(&mut self) -> Result<()> {
        BufferPool::flush_all(self)
    }

    fn clear_cache(&mut self) -> Result<()> {
        BufferPool::clear_cache(self)
    }

    fn reset_stats(&mut self) {
        BufferPool::reset_stats(self)
    }

    fn is_cached(&self, pid: PageId) -> bool {
        BufferPool::is_cached(self, pid)
    }

    fn snapshot(&self) -> IoSnapshot {
        BufferPool::snapshot(self)
    }

    fn buffer_stats(&self) -> BufferStats {
        BufferPool::buffer_stats(self)
    }

    fn database_pages(&self) -> u32 {
        BufferPool::database_pages(self)
    }

    fn capacity(&self) -> usize {
        BufferPool::capacity(self)
    }

    fn policy_kind(&self) -> PolicyKind {
        BufferPool::policy_kind(self)
    }

    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        BufferPool::note_group_latch(self, pids, mode);
        Ok(())
    }

    fn unlatch_pages(&mut self, _pids: &[PageId], _mode: LatchMode) {}

    fn disk_checksum(&self) -> u64 {
        BufferPool::disk_checksum(self)
    }

    fn page_heat(&self) -> Vec<(PageId, u64)> {
        BufferPool::page_heat(self)
    }
}
