#![allow(clippy::single_range_in_vec_init)] // &[Range] is the API shape

//! Property-based tests for the storage substrate: slotted pages never
//! corrupt under random operation sequences, the buffer pool preserves
//! contents under pressure and keeps its accounting identities, heap files
//! and spanned records round-trip arbitrary payloads.

use proptest::prelude::*;
use starfish_pagestore::{
    slotted, BufferPool, HeapFile, PageId, SimDisk, SpannedStore, EFFECTIVE_PAGE_SIZE, PAGE_SIZE,
};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, u8),
    Compact,
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..200).prop_map(PageOp::Insert),
        (0usize..32).prop_map(PageOp::Delete),
        ((0usize..32), any::<u8>()).prop_map(|(i, b)| PageOp::Update(i, b)),
        Just(PageOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Model-based test: a slotted page behaves like a map slot -> bytes.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(arb_page_op(), 0..120)) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        slotted::init(&mut page);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(body) => {
                    match slotted::insert(&mut page, &body) {
                        Ok(slot) => {
                            prop_assert!(!model.contains_key(&slot), "slot reuse of live slot");
                            model.insert(slot, body);
                            live.push(slot);
                        }
                        Err(_) => {
                            // Must only fail when the content budget is short.
                            let used: usize = model.values().map(|b| b.len() + 4).sum();
                            prop_assert!(used + body.len() + 4 > EFFECTIVE_PAGE_SIZE);
                        }
                    }
                }
                PageOp::Delete(i) if !live.is_empty() => {
                    let slot = live[i % live.len()];
                    slotted::delete(&mut page, slot).unwrap();
                    model.remove(&slot);
                    live.retain(|&s| s != slot);
                }
                PageOp::Update(i, b) if !live.is_empty() => {
                    let slot = live[i % live.len()];
                    let new = vec![b; model[&slot].len()];
                    slotted::update_in_place(&mut page, slot, &new).unwrap();
                    model.insert(slot, new);
                }
                PageOp::Compact => slotted::compact(&mut page),
                _ => {}
            }
            // Invariants after every op.
            let used: usize = model.values().map(|b| b.len() + 4).sum();
            prop_assert_eq!(slotted::content_used(&page), used);
            for (&slot, body) in &model {
                slotted::read(&page, slot, |b| assert_eq!(b, &body[..])).unwrap();
            }
            prop_assert_eq!(slotted::live_records(&page).count(), model.len());
        }
    }

    /// The `live_records` walk yields exactly what reading every slot one by
    /// one yields: the live `(slot, body)` pairs in slot order, tombstones
    /// skipped.
    #[test]
    fn live_records_matches_per_slot_reads(ops in proptest::collection::vec(arb_page_op(), 0..120)) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        slotted::init(&mut page);
        let mut live: Vec<u16> = Vec::new();
        for op in ops {
            match op {
                PageOp::Insert(body) => {
                    if let Ok(slot) = slotted::insert(&mut page, &body) {
                        live.push(slot);
                    }
                }
                PageOp::Delete(i) if !live.is_empty() => {
                    let slot = live.swap_remove(i % live.len());
                    slotted::delete(&mut page, slot).unwrap();
                }
                PageOp::Update(i, b) if !live.is_empty() => {
                    let slot = live[i % live.len()];
                    let len = slotted::read(&page, slot, <[u8]>::len).unwrap();
                    slotted::update_in_place(&mut page, slot, &vec![b; len]).unwrap();
                }
                PageOp::Compact => slotted::compact(&mut page),
                _ => {}
            }
            let walked: Vec<(u16, Vec<u8>)> = slotted::live_records(&page)
                .map(|(slot, body)| (slot, body.to_vec()))
                .collect();
            let read: Vec<(u16, Vec<u8>)> = (0..slotted::slot_count(&page))
                .filter_map(|slot| slotted::read(&page, slot, |b| (slot, b.to_vec())).ok())
                .collect();
            prop_assert_eq!(read.len(), live.len());
            prop_assert_eq!(walked, read);
        }
    }

    /// Buffer pool under pressure: contents survive, accounting identities
    /// hold (fixes = hits + misses; cache never exceeds capacity).
    #[test]
    fn buffer_pool_preserves_contents(
        cap in 1usize..8,
        accesses in proptest::collection::vec((0u32..24, any::<bool>(), any::<u8>()), 1..200),
    ) {
        let mut disk = SimDisk::new();
        disk.alloc_extent(24);
        let mut pool = BufferPool::new(disk, cap);
        let mut model: HashMap<u32, u8> = HashMap::new();
        for (pid, write, val) in accesses {
            if write {
                pool.with_page_mut(PageId(pid), |p| p[40] = val).unwrap();
                model.insert(pid, val);
            } else {
                let expect = model.get(&pid).copied().unwrap_or(0);
                pool.with_page(PageId(pid), |p| assert_eq!(p[40], expect)).unwrap();
            }
            prop_assert!(pool.cached_pages() <= cap);
            let s = pool.buffer_stats();
            prop_assert_eq!(s.fixes, s.hits + s.misses);
        }
        pool.flush_all().unwrap();
        pool.clear_cache().unwrap();
        for (pid, val) in model {
            pool.with_page(PageId(pid), |p| assert_eq!(p[40], val)).unwrap();
        }
    }

    /// Heap files round-trip arbitrary record sets and report the greedy
    /// page plan.
    #[test]
    fn heap_file_roundtrip(
        lens in proptest::collection::vec(1usize..600, 0..60),
    ) {
        let recs: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(i, &l)| vec![(i % 251) as u8; l]).collect();
        let mut pool = BufferPool::new(SimDisk::new(), 64);
        let (file, rids) = HeapFile::bulk_load(&mut pool, "r", &recs).unwrap();
        // Greedy plan: simulate.
        let mut pages = 0u32;
        let mut free = 0usize;
        for rec in &recs {
            let need = rec.len() + 4;
            if need > free {
                pages += 1;
                free = EFFECTIVE_PAGE_SIZE;
            }
            free -= need;
        }
        prop_assert_eq!(file.page_count(), pages.max(1));
        for (rec, rid) in recs.iter().zip(&rids) {
            prop_assert_eq!(&file.read(&mut pool, *rid).unwrap(), rec);
        }
        // Scan yields exactly the loaded records in order.
        let mut seen = Vec::new();
        file.scan(&mut pool, |rid, b| seen.push((rid, b.to_vec()))).unwrap();
        prop_assert_eq!(seen.len(), recs.len());
        for ((rid, body), (erid, erec)) in seen.iter().zip(rids.iter().zip(&recs)) {
            prop_assert_eq!(rid, erid);
            prop_assert_eq!(body, erec);
        }
    }

    /// Spanned records round-trip and range reads match slices.
    #[test]
    fn spanned_roundtrip_and_ranges(
        hlen in 1usize..3000,
        dlen in 1usize..9000,
        seed in any::<u8>(),
    ) {
        let header: Vec<u8> = (0..hlen).map(|i| (i as u8).wrapping_add(seed)).collect();
        let data: Vec<u8> = (0..dlen).map(|i| (i as u8).wrapping_mul(17) ^ seed).collect();
        let mut pool = BufferPool::new(SimDisk::new(), 64);
        let rec = SpannedStore::store(&mut pool, &header, &data).unwrap();
        prop_assert_eq!(rec.header_pages, (hlen.div_ceil(EFFECTIVE_PAGE_SIZE)).max(1) as u32);
        prop_assert_eq!(rec.data_pages, (dlen.div_ceil(EFFECTIVE_PAGE_SIZE)).max(1) as u32);
        pool.clear_cache().unwrap();
        prop_assert_eq!(SpannedStore::read_header(&mut pool, &rec).unwrap(), header);
        prop_assert_eq!(SpannedStore::read_data(&mut pool, &rec).unwrap(), data.clone());
        // A random sub-range read returns the right bytes.
        let lo = (dlen / 3) as u32;
        let hi = (dlen - dlen / 4).max(dlen / 3 + 1) as u32;
        pool.clear_cache().unwrap();
        pool.reset_stats();
        let sparse = SpannedStore::read_data_ranges(&mut pool, &rec, &[lo..hi]).unwrap();
        prop_assert_eq!(&sparse[lo as usize..hi as usize], &data[lo as usize..hi as usize]);
        // Never reads more pages than the record has.
        prop_assert!(pool.snapshot().pages_read <= rec.data_pages as u64);
    }
}
