//! The batched read engine: an io_uring-style submission/completion layer
//! for buffer-pool misses.
//!
//! The synchronous miss path reads one page per fix, under the missing
//! page's shard mutex — N clients in a miss storm serialize on the disk
//! lock one page at a time. This module replaces that with a
//! **submission queue + leader-drain completion** protocol, the same shape
//! as the WAL's group commit:
//!
//! 1. a fixer that misses **submits** its page id and parks on the engine's
//!    condvar — holding *no* shard mutex, so it cannot block hits, other
//!    misses, or the drain itself;
//! 2. the first submitter to find no drain in flight elects itself
//!    **leader**: it yields once (the batching window — concurrent misses
//!    pile into the queue behind it), then takes the whole queue;
//! 3. the leader **coalesces** the batch: sorts and deduplicates the page
//!    ids and groups them with the pool's one run builder (maximal
//!    contiguous runs of at most [`crate::MAX_PAGES_PER_WRITE_CALL`]
//!    pages, the cap flush writes use), so a storm of single-page misses
//!    over one extent becomes a handful of multi-page `read_run` calls —
//!    DASDBS's multi-page I/O applied to demand misses;
//! 4. the pool-provided callback performs each run read and the
//!    **completion-driven frame fill** (the same make-room-then-insert
//!    step a synchronous run load uses, into the owning shards); the
//!    leader then marks every drained token complete and wakes all
//!    waiters.
//!
//! The engine is *only* a request/completion state machine plus counters —
//! it owns no pages and takes no shard locks, which keeps the lock order
//! acyclic: an engine mutex is never held while a shard mutex is
//! acquired, and waiters hold nothing at all.
//!
//! The engine keeps **one queue per pool shard**: a drain leader working
//! one shard's batch never serializes submissions for pages that hash to
//! other shards — each queue elects its own leader and drains
//! independently, so miss storms scale with the shard count instead of
//! funnelling through a single submission lock. With one shard this
//! degenerates to exactly the original single-queue protocol. Counters
//! stay additive across queues ([`EngineCounters::accumulate`]); the
//! queue-depth high-water is the max over queues, matching how the
//! cluster folds per-node depths.
//!
//! Disabled (the default), the pool never constructs an engine and every
//! code path and counter is byte-identical to the synchronous pool — the
//! paper's golden tables stay pinned.

use crate::buffer::page_runs;
use crate::{PageId, Result};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Configuration for the batched read engine.
///
/// Carried by [`crate::BufferConfig::io`]; the default (`enabled: false`)
/// keeps the shared pool on the synchronous miss path with counters
/// byte-identical to the paper's serial measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoEngineConfig {
    /// Route buffer misses through the submission/completion engine.
    pub enabled: bool,
}

impl IoEngineConfig {
    /// An enabled engine.
    pub fn enabled() -> Self {
        IoEngineConfig { enabled: true }
    }
}

/// Counters the engine accumulates across drains; folded into
/// [`crate::IoSnapshot`] by the shared pool. All zero when the engine is
/// disabled (it then never exists).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct EngineCounters {
    /// Physical read calls issued by drain batches.
    pub(crate) batched_read_calls: u64,
    /// Pages in drained runs that merged ≥ 2 distinct requested pages.
    pub(crate) coalesced_pages: u64,
    /// High-water mark of queued requests (per queue; folds take the max).
    pub(crate) max_queue_depth: u64,
}

impl EngineCounters {
    /// Folds one queue's counters into a total: read calls and coalesced
    /// pages add, the queue-depth high-water keeps the max (depths on
    /// different queues never stack).
    fn accumulate(&mut self, c: &EngineCounters) {
        self.batched_read_calls += c.batched_read_calls;
        self.coalesced_pages += c.coalesced_pages;
        self.max_queue_depth = self.max_queue_depth.max(c.max_queue_depth);
    }
}

/// One queued read request: a unique completion token plus the page.
struct Request {
    token: u64,
    pid: PageId,
}

struct EngineState {
    next_token: u64,
    queue: Vec<Request>,
    /// A leader is between taking the queue and posting completions.
    draining: bool,
    /// Completions not yet observed by their waiters: token → batch result.
    done: HashMap<u64, Result<()>>,
    counters: EngineCounters,
}

/// One independent submission queue (state machine + wakeup channel).
struct EngineQueue {
    state: Mutex<EngineState>,
    cond: Condvar,
}

impl EngineQueue {
    fn new() -> Self {
        EngineQueue {
            state: Mutex::new(EngineState {
                next_token: 0,
                queue: Vec::new(),
                draining: false,
                done: HashMap::new(),
                counters: EngineCounters::default(),
            }),
            cond: Condvar::new(),
        }
    }
}

/// The submission/completion engine. See the [module docs](self).
///
/// Holds one [`EngineQueue`] per pool shard so concurrent drains on
/// different shards never serialize on each other; one shard is the
/// original single-queue engine.
pub(crate) struct IoEngine {
    queues: Vec<EngineQueue>,
}

impl IoEngine {
    /// An engine with one submission queue per pool shard.
    pub(crate) fn new(shards: usize) -> Self {
        IoEngine {
            queues: (0..shards.max(1)).map(|_| EngineQueue::new()).collect(),
        }
    }

    /// Submits a read request for `pid` on its owning shard's queue and
    /// blocks until a drain batch containing it completes. `read_runs` is
    /// invoked by whichever submitter drains the batch — with the engine
    /// lock **released** — and must read each `(first, len)` run and
    /// install the frames (the completion-driven fill). Returns that
    /// batch's result.
    ///
    /// Completion does not guarantee residency: the installed frame can be
    /// evicted before the waiter re-locks its shard. Callers re-check and
    /// resubmit (the same loop the synchronous path needs for latch waits).
    pub(crate) fn read_page(
        &self,
        shard: usize,
        pid: PageId,
        read_runs: impl FnOnce(&[(PageId, u32)]) -> Result<()>,
    ) -> Result<()> {
        let q = &self.queues[shard % self.queues.len()];
        let mut st = q.state.lock().unwrap_or_else(|e| e.into_inner());
        let token = st.next_token;
        st.next_token += 1;
        st.queue.push(Request { token, pid });
        let depth = st.queue.len() as u64;
        st.counters.max_queue_depth = st.counters.max_queue_depth.max(depth);
        loop {
            if let Some(result) = st.done.remove(&token) {
                return result;
            }
            if !st.draining {
                return self.drain(q, st, token, read_runs);
            }
            st = q.cond.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Leader path: takes one queue's batch (after one yield as a batching
    /// window), coalesces it, runs the reads, posts completions, wakes that
    /// queue's waiters, and returns `token`'s own result.
    fn drain<'a>(
        &'a self,
        q: &'a EngineQueue,
        mut st: std::sync::MutexGuard<'a, EngineState>,
        token: u64,
        read_runs: impl FnOnce(&[(PageId, u32)]) -> Result<()>,
    ) -> Result<()> {
        st.draining = true;
        drop(st);
        // Batching window: give concurrently-missing threads one scheduling
        // slot to enqueue behind us (the group-commit trick).
        std::thread::yield_now();
        st = q.state.lock().unwrap_or_else(|e| e.into_inner());
        let batch = std::mem::take(&mut st.queue);
        let runs = coalesce(batch.iter().map(|r| r.pid));
        st.counters.batched_read_calls += runs.len() as u64;
        st.counters.coalesced_pages += runs
            .iter()
            .filter(|&&(_, len)| len >= 2)
            .map(|&(_, len)| len as u64)
            .sum::<u64>();
        drop(st);
        let result = read_runs(&runs);
        st = q.state.lock().unwrap_or_else(|e| e.into_inner());
        st.draining = false;
        for req in &batch {
            if req.token != token {
                st.done.insert(req.token, result.clone());
            }
        }
        drop(st);
        q.cond.notify_all();
        result
    }

    /// Current counter totals over every queue (additive fields sum, the
    /// queue-depth high-water is the max over queues).
    pub(crate) fn counters(&self) -> EngineCounters {
        let mut total = EngineCounters::default();
        for q in &self.queues {
            total.accumulate(&q.state.lock().unwrap_or_else(|e| e.into_inner()).counters);
        }
        total
    }

    /// Resets every queue's counters (queued requests and completions are
    /// kept).
    pub(crate) fn reset_counters(&self) {
        for q in &self.queues {
            q.state.lock().unwrap_or_else(|e| e.into_inner()).counters = EngineCounters::default();
        }
    }
}

/// Coalesces requested page ids into the [`page_runs`] of their distinct
/// pages. Duplicate requests (two fixers missing the same page) fold into
/// one transfer.
fn coalesce(pids: impl Iterator<Item = PageId>) -> Vec<(PageId, u32)> {
    let mut pids: Vec<PageId> = pids.collect();
    pids.sort_unstable();
    pids.dedup();
    page_runs(&pids).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn coalesce_merges_adjacent_and_dedups() {
        let pids = [7u32, 3, 4, 4, 5, 9, 0].map(PageId);
        assert_eq!(
            coalesce(pids.into_iter()),
            vec![
                (PageId(0), 1),
                (PageId(3), 3),
                (PageId(7), 1),
                (PageId(9), 1)
            ]
        );
        // The cap splits long runs.
        let long = (0u32..70).map(PageId);
        assert_eq!(
            coalesce(long),
            vec![(PageId(0), 32), (PageId(32), 32), (PageId(64), 6)]
        );
        assert_eq!(coalesce([].into_iter()), vec![]);
    }

    #[test]
    fn solo_submit_drains_itself_one_run() {
        let e = IoEngine::new(1);
        let runs_seen = std::cell::RefCell::new(Vec::new());
        e.read_page(0, PageId(5), |runs| {
            runs_seen.borrow_mut().extend_from_slice(runs);
            Ok(())
        })
        .unwrap();
        assert_eq!(runs_seen.into_inner(), vec![(PageId(5), 1)]);
        let c = e.counters();
        assert_eq!(c.batched_read_calls, 1);
        assert_eq!(c.coalesced_pages, 0, "a 1-page run coalesces nothing");
        assert_eq!(c.max_queue_depth, 1);
        e.reset_counters();
        assert_eq!(e.counters(), EngineCounters::default());
    }

    #[test]
    fn concurrent_submits_complete_and_count_depth() {
        let e = IoEngine::new(1);
        let reads = AtomicU64::new(0);
        thread::scope(|s| {
            for t in 0u32..8 {
                let (e, reads) = (&e, &reads);
                s.spawn(move || {
                    for k in 0..16 {
                        e.read_page(0, PageId(t * 16 + k), |runs| {
                            reads.fetch_add(
                                runs.iter().map(|&(_, n)| n as u64).sum::<u64>(),
                                Ordering::Relaxed,
                            );
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        // Every requested page was transferred exactly once (dedup can only
        // fold *concurrent* duplicates; all 128 pids here are distinct).
        assert_eq!(reads.load(Ordering::Relaxed), 128);
        let c = e.counters();
        assert!(c.batched_read_calls >= 1);
        assert!(c.max_queue_depth >= 1);
    }

    #[test]
    fn batch_errors_fan_out_to_every_waiter() {
        let e = IoEngine::new(1);
        let err = e
            .read_page(0, PageId(0), |_| {
                Err(crate::StoreError::PageOutOfBounds {
                    page: PageId(0),
                    allocated: 0,
                })
            })
            .unwrap_err();
        assert!(matches!(err, crate::StoreError::PageOutOfBounds { .. }));
        // The engine is reusable after a failed batch.
        e.read_page(0, PageId(1), |_| Ok(())).unwrap();
    }

    /// The per-shard queues drain independently: a leader stuck mid-drain
    /// on shard 0 must not serialize a submission on shard 1. The shard-0
    /// callback refuses to finish until the shard-1 read completes — a
    /// single shared queue would deadlock here.
    #[test]
    fn drains_on_different_shards_do_not_serialize() {
        use std::sync::mpsc;
        let e = IoEngine::new(2);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let eng = &e;
            s.spawn(move || {
                eng.read_page(0, PageId(0), |_| {
                    // Parked mid-drain on shard 0 until shard 1 finishes.
                    done_rx
                        .recv_timeout(std::time::Duration::from_secs(10))
                        .expect("shard 1 was blocked behind shard 0's drain");
                    Ok(())
                })
                .unwrap();
            });
            e.read_page(1, PageId(1), |_| Ok(())).unwrap();
            done_tx.send(()).unwrap();
        });
        let c = e.counters();
        assert_eq!(c.batched_read_calls, 2);
        assert_eq!(c.max_queue_depth, 1, "each queue saw one solo request");
    }

    /// Counters stay additive across queues; the depth high-water folds as
    /// a max, exactly like the cluster's per-node fold.
    #[test]
    fn counters_sum_across_shard_queues() {
        let e = IoEngine::new(4);
        for shard in 0..4usize {
            for k in 0..3u32 {
                e.read_page(shard, PageId(shard as u32 * 8 + k), |_| Ok(()))
                    .unwrap();
            }
        }
        let c = e.counters();
        assert_eq!(
            c.batched_read_calls, 12,
            "3 solo drains on each of 4 queues"
        );
        assert_eq!(c.coalesced_pages, 0);
        assert_eq!(c.max_queue_depth, 1);
        e.reset_counters();
        assert_eq!(e.counters(), EngineCounters::default());
    }
}
