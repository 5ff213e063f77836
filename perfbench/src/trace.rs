//! Outside-in layer spans.
//!
//! [`TracedPool`] wraps any [`PageCache`] and times every call the storage
//! models make into the pool: page fixes (split into the pool's own hit or
//! miss path and the model code running inside the page callback),
//! multi-page run reads, flushes, group latches and WAL commits. The spans
//! accumulate in a per-thread [`Layers`] record that the request loop
//! drains at each boundary, so every nanosecond lands in exactly one
//! bucket: the request that caused it, or the background step (warm-up,
//! checkpoint, placement pass, recovery) that did.
//!
//! The wrapper only observes: it forwards every call unchanged, so the
//! traced store issues the same I/O as the plain one (the benchmark checks
//! this on every traced run).

use starfish_pagestore::{
    BufferStats, IoSnapshot, LatchMode, PageCache, PageId, PolicyKind, Result, PAGE_SIZE,
};
use std::cell::RefCell;
use std::time::Instant;

/// Nanoseconds and counts per layer, accumulated per thread.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Pool time of fixes that hit, callback excluded.
    pub hit_ns: u64,
    /// Pool time of fixes that missed (disk read included), callback excluded.
    pub miss_ns: u64,
    /// Time inside page callbacks: model and codec code reading page bytes.
    pub callback_ns: u64,
    /// Time in `prefetch_run` (multi-page run reads).
    pub prefetch_ns: u64,
    /// Time in `flush_all`.
    pub flush_ns: u64,
    /// Time in `latch_pages` (acquisition, waits included).
    pub latch_ns: u64,
    /// Time in `log_commit`.
    pub commit_ns: u64,
    /// Fixes seen by the wrapper.
    pub fixes: u64,
    /// Of which cached before the fix.
    pub hits: u64,
    /// `flush_all` calls.
    pub flushes: u64,
    /// `log_commit` calls.
    pub commits: u64,
    /// Spans recorded (a fix with its callback counts two).
    pub spans: u64,
    /// Duration of each commit, for the commit-latency tail.
    pub commit_samples: Vec<u64>,
}

impl Layers {
    /// Time covered by the pool, latch and WAL spans.
    pub fn inner_ns(&self) -> u64 {
        self.hit_ns
            + self.miss_ns
            + self.callback_ns
            + self.prefetch_ns
            + self.flush_ns
            + self.latch_ns
            + self.commit_ns
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, o: &Layers) {
        self.hit_ns += o.hit_ns;
        self.miss_ns += o.miss_ns;
        self.callback_ns += o.callback_ns;
        self.prefetch_ns += o.prefetch_ns;
        self.flush_ns += o.flush_ns;
        self.latch_ns += o.latch_ns;
        self.commit_ns += o.commit_ns;
        self.fixes += o.fixes;
        self.hits += o.hits;
        self.flushes += o.flushes;
        self.commits += o.commits;
        self.spans += o.spans;
        self.commit_samples.extend_from_slice(&o.commit_samples);
    }
}

thread_local! {
    static ACC: RefCell<Layers> = RefCell::new(Layers::default());
}

/// Takes this thread's accumulated spans, leaving it empty.
pub fn drain() -> Layers {
    ACC.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

fn record(f: impl FnOnce(&mut Layers)) {
    ACC.with(|a| f(&mut a.borrow_mut()));
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The cost of one empty span (two clock reads and one accumulation), in
/// nanoseconds: the median of 31 batches of 20 000.
pub fn calibrate_span_ns() -> f64 {
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..20_000 {
                let s = Instant::now();
                let d = ns_since(s);
                record(|l| {
                    l.prefetch_ns += std::hint::black_box(d);
                    l.spans += 1;
                });
            }
            ns_since(t) as f64 / 20_000.0
        })
        .collect();
    drain();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// A [`PageCache`] that times every call into the wrapped pool.
pub struct TracedPool<P> {
    inner: P,
}

impl<P: PageCache> TracedPool<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TracedPool { inner }
    }

    fn fix<R>(
        &mut self,
        pid: PageId,
        fix: impl FnOnce(&mut P, &mut u64) -> Result<R>,
    ) -> Result<R> {
        let hit = self.inner.is_cached(pid);
        let mut callback = 0u64;
        let t = Instant::now();
        let r = fix(&mut self.inner, &mut callback);
        let total = ns_since(t);
        record(|l| {
            let own = total.saturating_sub(callback);
            if hit {
                l.hit_ns += own;
                l.hits += 1;
            } else {
                l.miss_ns += own;
            }
            l.callback_ns += callback;
            l.fixes += 1;
            l.spans += 2;
        });
        r
    }
}

impl<P: PageCache> PageCache for TracedPool<P> {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        self.fix(pid, |p, cb| {
            p.with_page(pid, |page| {
                let t = Instant::now();
                let r = f(page);
                *cb = ns_since(t);
                r
            })
        })
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        self.fix(pid, |p, cb| {
            p.with_page_mut(pid, |page| {
                let t = Instant::now();
                let r = f(page);
                *cb = ns_since(t);
                r
            })
        })
    }

    fn prefetch_run(&mut self, first: PageId, n: u32) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.prefetch_run(first, n);
        let d = ns_since(t);
        record(|l| {
            l.prefetch_ns += d;
            l.spans += 1;
        });
        r
    }

    fn pin(&mut self, pid: PageId) -> Result<()> {
        self.inner.pin(pid)
    }

    fn unpin(&mut self, pid: PageId) -> bool {
        self.inner.unpin(pid)
    }

    fn alloc_extent(&mut self, n: u32) -> PageId {
        self.inner.alloc_extent(n)
    }

    fn write_pool_pages(&mut self, first: PageId, n: u32) -> Result<()> {
        self.inner.write_pool_pages(first, n)
    }

    fn flush_all(&mut self) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.flush_all();
        let d = ns_since(t);
        record(|l| {
            l.flush_ns += d;
            l.flushes += 1;
            l.spans += 1;
        });
        r
    }

    fn clear_cache(&mut self) -> Result<()> {
        self.inner.clear_cache()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn is_cached(&self, pid: PageId) -> bool {
        self.inner.is_cached(pid)
    }

    fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.inner.buffer_stats()
    }

    fn database_pages(&self) -> u32 {
        self.inner.database_pages()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn policy_kind(&self) -> PolicyKind {
        self.inner.policy_kind()
    }

    fn latch_pages(&mut self, pids: &[PageId], mode: LatchMode) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.latch_pages(pids, mode);
        let d = ns_since(t);
        record(|l| {
            l.latch_ns += d;
            l.spans += 1;
        });
        r
    }

    fn unlatch_pages(&mut self, pids: &[PageId], mode: LatchMode) {
        self.inner.unlatch_pages(pids, mode)
    }

    fn disk_checksum(&self) -> u64 {
        self.inner.disk_checksum()
    }

    fn log_commit(&mut self) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.log_commit();
        let d = ns_since(t);
        record(|l| {
            l.commit_ns += d;
            l.commits += 1;
            l.spans += 1;
            l.commit_samples.push(d);
        });
        r
    }

    fn log_abort(&mut self) {
        self.inner.log_abort()
    }

    fn page_heat(&self) -> Vec<(PageId, u64)> {
        self.inner.page_heat()
    }
}
