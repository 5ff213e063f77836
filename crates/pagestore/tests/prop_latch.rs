//! Property battery for the per-page latch layer of the shared pool —
//! shard-level invariants under random latch/access tapes, mirroring the
//! shape of `prop_shared_buffer.rs`.
//!
//! Random tapes of plain accesses and balanced latch groups (shared and
//! exclusive, arbitrary page sets) against a byte-level model must
//! preserve, for every policy and 1–4 shards:
//!
//! * **balance**: once every group on the tape is released, no page is
//!   latched anywhere (`latched_pages() == 0`);
//! * **latch accounting**: `latch_shared`/`latch_exclusive` equal the sum
//!   of distinct-page group sizes by mode; single-threaded tapes never
//!   wait (`latch_waits == 0`, gate included);
//! * **counter independence**: latching touches neither fixes nor
//!   physical I/O — the tape's fix/IO counters equal those of the same
//!   tape with all latch ops removed;
//! * **content**: latched writes round-trip through flush and cold
//!   restart byte-exactly, even when eviction pressure cycles latched
//!   pages out and back in (latch state lives beside the frames);
//! * **keystone**: a one-shard pool replays `BufferPool`'s counters —
//!   latch counters now included — after every operation.

use proptest::prelude::*;
use starfish_pagestore::{
    BufferConfig, BufferPool, LatchMode, PageId, PolicyKind, SharedBufferPool, SimDisk,
};
use std::collections::HashMap;

const DB_PAGES: u32 = 24;

#[derive(Clone, Debug)]
enum LatchOp {
    Read(u32),
    Write(u32, u8),
    /// Latch the page set shared, read every page, release.
    SharedGroup(Vec<u32>),
    /// Latch the page set exclusive, write every page, release.
    ExclusiveGroup(Vec<u32>, u8),
    Flush,
    ClearCache,
}

fn arb_pages() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..DB_PAGES, 1..6)
}

fn arb_latch_op() -> impl Strategy<Value = LatchOp> {
    prop_oneof![
        (0u32..DB_PAGES).prop_map(LatchOp::Read),
        ((0u32..DB_PAGES), any::<u8>()).prop_map(|(p, v)| LatchOp::Write(p, v)),
        arb_pages().prop_map(LatchOp::SharedGroup),
        (arb_pages(), any::<u8>()).prop_map(|(ps, v)| LatchOp::ExclusiveGroup(ps, v)),
        Just(LatchOp::Flush),
        Just(LatchOp::ClearCache),
    ]
}

fn pids(pages: &[u32]) -> Vec<PageId> {
    pages.iter().map(|&p| PageId(p)).collect()
}

fn distinct(pages: &[u32]) -> u64 {
    let mut v = pages.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len() as u64
}

fn fresh_shared(kind: PolicyKind, cap: usize, shards: usize) -> SharedBufferPool {
    let p = SharedBufferPool::new(BufferConfig::with_pages(cap).policy(kind), shards);
    p.alloc_extent(DB_PAGES);
    p
}

/// Applies one op to the shared pool and the byte model; returns the
/// number of distinct pages latched (shared, exclusive) by this op.
fn apply(pool: &SharedBufferPool, op: &LatchOp, model: &mut HashMap<u32, u8>) -> (u64, u64) {
    match op {
        LatchOp::Read(p) => {
            let expect = model.get(p).copied().unwrap_or(0);
            pool.with_page(PageId(*p), |b| assert_eq!(b[40], expect))
                .unwrap();
            (0, 0)
        }
        LatchOp::Write(p, v) => {
            pool.with_page_mut(PageId(*p), |b| b[40] = *v).unwrap();
            model.insert(*p, *v);
            (0, 0)
        }
        LatchOp::SharedGroup(pages) => {
            let ids = pids(pages);
            pool.latch_pages(&ids, LatchMode::Shared).unwrap();
            for id in &ids {
                let expect = model.get(&id.0).copied().unwrap_or(0);
                pool.with_page(*id, |b| assert_eq!(b[40], expect)).unwrap();
            }
            pool.unlatch_pages(&ids, LatchMode::Shared);
            (distinct(pages), 0)
        }
        LatchOp::ExclusiveGroup(pages, v) => {
            let ids = pids(pages);
            pool.latch_pages(&ids, LatchMode::Exclusive).unwrap();
            for id in &ids {
                pool.with_page_mut(*id, |b| b[40] = *v).unwrap();
                model.insert(id.0, *v);
            }
            pool.unlatch_pages(&ids, LatchMode::Exclusive);
            (0, distinct(pages))
        }
        LatchOp::Flush => {
            pool.flush_all().unwrap();
            (0, 0)
        }
        LatchOp::ClearCache => {
            pool.clear_cache().unwrap();
            (0, 0)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Balance, accounting and content invariants after every operation,
    /// for every policy and shard count.
    #[test]
    fn latch_tapes_balance_count_and_preserve_content(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_latch_op(), 1..120),
    ) {
        for kind in PolicyKind::all() {
            let pool = fresh_shared(kind, cap, shards);
            let mut model: HashMap<u32, u8> = HashMap::new();
            let (mut want_shared, mut want_excl) = (0u64, 0u64);
            for op in &ops {
                let (s, e) = apply(&pool, op, &mut model);
                want_shared += s;
                want_excl += e;
                // Every group on the tape is balanced, so nothing stays
                // latched between ops.
                prop_assert_eq!(pool.latched_pages(), 0, "{} leaked latches", kind);
                let st = pool.buffer_stats();
                prop_assert_eq!(st.latch_shared, want_shared, "{} shared count", kind);
                prop_assert_eq!(st.latch_exclusive, want_excl, "{} exclusive count", kind);
                prop_assert_eq!(st.latch_waits, 0, "{} single-threaded tape waited", kind);
                prop_assert_eq!(st.fixes, st.hits + st.misses, "{} fix accounting", kind);
                for (i, (cached, shard_cap)) in pool.shard_occupancy().into_iter().enumerate() {
                    prop_assert!(cached <= shard_cap, "{}: shard {} over capacity", kind, i);
                }
            }
            // Epilogue: flush + cold restart rereads exactly the model.
            pool.flush_all().unwrap();
            pool.clear_cache().unwrap();
            for (&p, &v) in &model {
                pool.with_page(PageId(p), |b| assert_eq!(b[40], v, "{kind} page {p}"))
                    .unwrap();
            }
        }
    }

    /// Latching is invisible to fixes and physical I/O: the same tape with
    /// all latch scopes stripped (group accesses become plain accesses)
    /// produces identical fix/IO counters.
    #[test]
    fn latches_never_touch_fix_or_io_counters(
        cap in 4usize..9,
        shards in 1usize..5,
        ops in proptest::collection::vec(arb_latch_op(), 1..100),
    ) {
        let latched = fresh_shared(PolicyKind::Lru, cap, shards);
        let plain = fresh_shared(PolicyKind::Lru, cap, shards);
        let mut model_a: HashMap<u32, u8> = HashMap::new();
        let mut model_b: HashMap<u32, u8> = HashMap::new();
        for op in &ops {
            apply(&latched, op, &mut model_a);
            // The stripped twin: identical page accesses, no latch ops.
            match op {
                LatchOp::SharedGroup(pages) => {
                    for p in pages {
                        let expect = model_b.get(p).copied().unwrap_or(0);
                        plain.with_page(PageId(*p), |b| assert_eq!(b[40], expect)).unwrap();
                    }
                }
                LatchOp::ExclusiveGroup(pages, v) => {
                    for p in pages {
                        plain.with_page_mut(PageId(*p), |b| b[40] = *v).unwrap();
                        model_b.insert(*p, *v);
                    }
                }
                other => { apply(&plain, other, &mut model_b); }
            }
            let (a, b) = (latched.snapshot(), plain.snapshot());
            prop_assert_eq!(a.fixes, b.fixes);
            prop_assert_eq!(a.hits, b.hits);
            prop_assert_eq!(a.misses, b.misses);
            prop_assert_eq!(a.read_calls, b.read_calls);
            prop_assert_eq!(a.pages_read, b.pages_read);
            prop_assert_eq!(a.write_calls, b.write_calls);
            prop_assert_eq!(a.pages_written, b.pages_written);
        }
    }

    /// The keystone, extended to the latched surface: a one-shard shared
    /// pool replays `BufferPool`'s counters — latch counters included —
    /// after every operation of a latched tape.
    #[test]
    fn one_shard_latched_tape_is_counter_identical_to_buffer_pool(
        cap in 2usize..7,
        ops in proptest::collection::vec(arb_latch_op(), 1..120),
    ) {
        use starfish_pagestore::PageCache;
        for kind in PolicyKind::all() {
            let shared = fresh_shared(kind, cap, 1);
            let mut disk = SimDisk::new();
            disk.alloc_extent(DB_PAGES);
            let mut serial = BufferPool::with_policy(disk, cap, kind);
            let mut model: HashMap<u32, u8> = HashMap::new();
            for op in &ops {
                apply(&shared, op, &mut model);
                match op {
                    LatchOp::Read(p) => {
                        serial.with_page(PageId(*p), |_| {}).unwrap();
                    }
                    LatchOp::Write(p, v) => {
                        serial.with_page_mut(PageId(*p), |b| b[40] = *v).unwrap();
                    }
                    LatchOp::SharedGroup(pages) => {
                        let ids = pids(pages);
                        PageCache::latch_pages(&mut serial, &ids, LatchMode::Shared).unwrap();
                        for id in &ids {
                            serial.with_page(*id, |_| {}).unwrap();
                        }
                        PageCache::unlatch_pages(&mut serial, &ids, LatchMode::Shared);
                    }
                    LatchOp::ExclusiveGroup(pages, v) => {
                        let ids = pids(pages);
                        PageCache::latch_pages(&mut serial, &ids, LatchMode::Exclusive).unwrap();
                        for id in &ids {
                            serial.with_page_mut(*id, |b| b[40] = *v).unwrap();
                        }
                        PageCache::unlatch_pages(&mut serial, &ids, LatchMode::Exclusive);
                    }
                    LatchOp::Flush => serial.flush_all().unwrap(),
                    LatchOp::ClearCache => serial.clear_cache().unwrap(),
                }
                prop_assert_eq!(
                    shared.snapshot(), serial.snapshot(),
                    "{}: one-shard latched pool diverged from BufferPool after {:?}", kind, op
                );
                prop_assert_eq!(shared.disk_checksum(), serial.disk_checksum(), "{}", kind);
            }
        }
    }
}
