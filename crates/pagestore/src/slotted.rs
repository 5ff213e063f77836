//! Slotted-page record layout.
//!
//! A slotted page keeps small records together with a slot table so records
//! can be addressed stably by `(page, slot)` (a RID) while the page reorders
//! bytes internally. Layout within the 2048-byte page:
//!
//! ```text
//! [0 .. 36)        page header (magic, kind, slot count, free-space info)
//! [36 .. 36+4*n)   slot table, 4 bytes per slot: record offset u16, len u16
//! [hi .. 2048)     record bodies, growing downward from the page end
//! ```
//!
//! The content budget is [`EFFECTIVE_PAGE_SIZE`] = 2012 bytes; a record of
//! `L` bytes consumes `L + 4` of it (body + slot entry). This reproduces the
//! paper's tuples-per-page figure `k = ⌊2012 / S_tuple⌋` with `S_tuple`
//! including the slot entry (Table 2; DESIGN.md §6).
//!
//! All functions operate on raw page buffers so they can be used inside
//! [`crate::BufferPool::with_page`]/[`with_page_mut`](crate::BufferPool::with_page_mut)
//! closures.

use crate::{
    Result, StoreError, EFFECTIVE_PAGE_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE,
};

const MAGIC: u16 = 0x5350; // "SP"
const OFF_MAGIC: usize = 0;
const OFF_KIND: usize = 2;
const OFF_NSLOTS: usize = 4;
const OFF_CONTENT_USED: usize = 6;
const OFF_RECORD_LOW: usize = 8;

/// Page kind tag stored in the page header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// Slotted page holding small records.
    Slotted = 1,
    /// Header page of a spanned (large-object) record.
    SpannedHeader = 2,
    /// Data page of a spanned record.
    SpannedData = 3,
}

/// Initializes `page` as an empty slotted page.
pub fn init(page: &mut [u8; PAGE_SIZE]) {
    page.fill(0);
    put_u16(page, OFF_MAGIC, MAGIC);
    page[OFF_KIND] = PageKind::Slotted as u8;
    put_u16(page, OFF_NSLOTS, 0);
    put_u16(page, OFF_CONTENT_USED, 0);
    put_u16(page, OFF_RECORD_LOW, PAGE_SIZE as u16);
}

/// True if the page carries the slotted-page magic.
pub fn is_slotted(page: &[u8; PAGE_SIZE]) -> bool {
    get_u16(page, OFF_MAGIC) == MAGIC && page[OFF_KIND] == PageKind::Slotted as u8
}

/// Number of slots (live + tombstoned) on the page.
pub fn slot_count(page: &[u8; PAGE_SIZE]) -> u16 {
    get_u16(page, OFF_NSLOTS)
}

/// Content bytes used: Σ over live records of (body + slot entry).
pub fn content_used(page: &[u8; PAGE_SIZE]) -> usize {
    get_u16(page, OFF_CONTENT_USED) as usize
}

/// Content bytes still available for new records (body + slot entry).
pub fn free_content_bytes(page: &[u8; PAGE_SIZE]) -> usize {
    EFFECTIVE_PAGE_SIZE - content_used(page)
}

/// True if a record of `len` body bytes fits on the page.
pub fn fits(page: &[u8; PAGE_SIZE], len: usize) -> bool {
    len + SLOT_ENTRY_SIZE <= free_content_bytes(page)
}

/// Inserts a record, returning its slot id.
///
/// Fails with [`StoreError::RecordTooLarge`] if the content budget is
/// exceeded. Compacts the page first if it is fragmented by deletions.
pub fn insert(page: &mut [u8; PAGE_SIZE], rec: &[u8]) -> Result<u16> {
    if !fits(page, rec.len()) {
        return Err(StoreError::RecordTooLarge {
            len: rec.len(),
            available: free_content_bytes(page).saturating_sub(SLOT_ENTRY_SIZE),
        });
    }
    let nslots = slot_count(page);
    // Reuse a tombstoned slot if one exists, else append a new slot entry.
    let slot = (0..nslots)
        .find(|&s| slot_entry(page, s) == (0, 0))
        .unwrap_or(nslots);
    let new_nslots = nslots.max(slot + 1);
    let table_end = PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * new_nslots as usize;
    if (get_u16(page, OFF_RECORD_LOW) as usize) < table_end + rec.len() {
        compact(page);
    }
    let record_low = get_u16(page, OFF_RECORD_LOW) as usize;
    debug_assert!(
        record_low >= table_end + rec.len(),
        "content accounting guarantees physical fit after compaction"
    );
    let off = record_low - rec.len();
    page[off..off + rec.len()].copy_from_slice(rec);
    put_u16(page, OFF_RECORD_LOW, off as u16);
    set_slot_entry(page, slot, off as u16, rec.len() as u16);
    if slot == nslots {
        put_u16(page, OFF_NSLOTS, nslots + 1);
    }
    let used = (content_used(page) + rec.len() + SLOT_ENTRY_SIZE) as u16;
    put_u16(page, OFF_CONTENT_USED, used);
    Ok(slot)
}

/// Reads the record in `slot`, passing its bytes to `f`.
pub fn read<R>(page: &[u8; PAGE_SIZE], slot: u16, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
    let (off, len) = live_entry(page, slot)?;
    Ok(f(&page[off as usize..off as usize + len as usize]))
}

/// Overwrites the record in `slot` with a same-sized body.
pub fn update_in_place(page: &mut [u8; PAGE_SIZE], slot: u16, rec: &[u8]) -> Result<()> {
    let (off, len) = live_entry(page, slot)?;
    if rec.len() != len as usize {
        return Err(StoreError::SizeChanged {
            old: len as usize,
            new: rec.len(),
        });
    }
    page[off as usize..off as usize + rec.len()].copy_from_slice(rec);
    Ok(())
}

/// Deletes the record in `slot` (tombstones the slot; space is reclaimed by
/// compaction on a later insert).
pub fn delete(page: &mut [u8; PAGE_SIZE], slot: u16) -> Result<()> {
    let (_, len) = live_entry(page, slot)?;
    set_slot_entry(page, slot, 0, 0);
    let used = (content_used(page) - len as usize - SLOT_ENTRY_SIZE) as u16;
    put_u16(page, OFF_CONTENT_USED, used);
    Ok(())
}

/// Yields `(slot, body)` for every live record, in slot order.
pub fn live_records(page: &[u8; PAGE_SIZE]) -> impl Iterator<Item = (u16, &[u8])> {
    (0..slot_count(page)).filter_map(move |s| {
        let (off, len) = slot_entry(page, s);
        if off == 0 && len == 0 {
            None
        } else {
            Some((s, &page[off as usize..(off + len) as usize]))
        }
    })
}

/// Rewrites record bodies to remove fragmentation from deletions. Slot ids
/// (RIDs) are preserved.
pub fn compact(page: &mut [u8; PAGE_SIZE]) {
    let entries: Vec<(u16, Vec<u8>)> = live_records(page).map(|(s, b)| (s, b.to_vec())).collect();
    let mut low = PAGE_SIZE;
    for (s, body) in &entries {
        low -= body.len();
        page[low..low + body.len()].copy_from_slice(body);
        set_slot_entry(page, *s, low as u16, body.len() as u16);
    }
    put_u16(page, OFF_RECORD_LOW, low as u16);
}

// ----- header/slot primitives ----------------------------------------------

fn slot_entry(page: &[u8; PAGE_SIZE], slot: u16) -> (u16, u16) {
    let base = PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * slot as usize;
    (get_u16(page, base), get_u16(page, base + 2))
}

fn live_entry(page: &[u8; PAGE_SIZE], slot: u16) -> Result<(u16, u16)> {
    if slot >= slot_count(page) {
        return Err(StoreError::BadSlot { slot });
    }
    let (off, len) = slot_entry(page, slot);
    if off == 0 && len == 0 {
        return Err(StoreError::BadSlot { slot });
    }
    Ok((off, len))
}

fn set_slot_entry(page: &mut [u8; PAGE_SIZE], slot: u16, off: u16, len: u16) {
    let base = PAGE_HEADER_SIZE + SLOT_ENTRY_SIZE * slot as usize;
    put_u16(page, base, off);
    put_u16(page, base + 2, len);
}

fn get_u16(page: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([page[at], page[at + 1]])
}

fn put_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes the page-kind tag (used by the spanned store for its pages).
pub fn set_kind(page: &mut [u8; PAGE_SIZE], kind: PageKind) {
    put_u16(page, OFF_MAGIC, MAGIC);
    page[OFF_KIND] = kind as u8;
}

/// Reads the page-kind tag, if the page carries the magic.
pub fn kind(page: &[u8; PAGE_SIZE]) -> Option<PageKind> {
    if get_u16(page, OFF_MAGIC) != MAGIC {
        return None;
    }
    match page[OFF_KIND] {
        1 => Some(PageKind::Slotted),
        2 => Some(PageKind::SpannedHeader),
        3 => Some(PageKind::SpannedData),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        let mut p = Box::new([0u8; PAGE_SIZE]);
        init(&mut p);
        p
    }

    #[test]
    fn init_and_empty_state() {
        let p = fresh();
        assert!(is_slotted(&p));
        assert_eq!(slot_count(&p), 0);
        assert_eq!(free_content_bytes(&p), EFFECTIVE_PAGE_SIZE);
        assert!(live_records(&p).next().is_none());
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut p = fresh();
        let s0 = insert(&mut p, b"hello").unwrap();
        let s1 = insert(&mut p, b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        read(&p, s0, |b| assert_eq!(b, b"hello")).unwrap();
        read(&p, s1, |b| assert_eq!(b, b"world!")).unwrap();
        assert_eq!(content_used(&p), 5 + 6 + 2 * SLOT_ENTRY_SIZE);
    }

    #[test]
    fn k_records_per_page_matches_table2() {
        // NSM-Connection: S_tuple = 170 (166-byte body + 4-byte slot) ⇒ k = 11.
        let mut p = fresh();
        let body = vec![0xABu8; 166];
        let mut n = 0;
        while fits(&p, body.len()) {
            insert(&mut p, &body).unwrap();
            n += 1;
        }
        assert_eq!(n, 11, "⌊2012/170⌋ = 11 connection tuples per page");
        // NSM-Station: S_tuple = 154 (150 + 4) ⇒ k = 13.
        let mut p = fresh();
        let body = vec![0xCDu8; 150];
        let mut n = 0;
        while fits(&p, body.len()) {
            insert(&mut p, &body).unwrap();
            n += 1;
        }
        assert_eq!(n, 13, "⌊2012/154⌋ = 13 station tuples per page");
    }

    #[test]
    fn rejects_oversized() {
        let mut p = fresh();
        let too_big = vec![0u8; EFFECTIVE_PAGE_SIZE - SLOT_ENTRY_SIZE + 1];
        assert!(matches!(
            insert(&mut p, &too_big),
            Err(StoreError::RecordTooLarge { .. })
        ));
        // Exactly fitting is fine.
        let fits_exactly = vec![0u8; EFFECTIVE_PAGE_SIZE - SLOT_ENTRY_SIZE];
        insert(&mut p, &fits_exactly).unwrap();
        assert_eq!(free_content_bytes(&p), 0);
    }

    #[test]
    fn update_in_place_same_size_only() {
        let mut p = fresh();
        let s = insert(&mut p, b"aaaa").unwrap();
        update_in_place(&mut p, s, b"bbbb").unwrap();
        read(&p, s, |b| assert_eq!(b, b"bbbb")).unwrap();
        assert!(matches!(
            update_in_place(&mut p, s, b"ccc"),
            Err(StoreError::SizeChanged { old: 4, new: 3 })
        ));
    }

    #[test]
    fn delete_tombstones_and_insert_reuses() {
        let mut p = fresh();
        let s0 = insert(&mut p, b"one").unwrap();
        let s1 = insert(&mut p, b"two").unwrap();
        delete(&mut p, s0).unwrap();
        assert!(read(&p, s0, |_| ()).is_err());
        read(&p, s1, |b| assert_eq!(b, b"two")).unwrap();
        // Reuses the tombstoned slot id.
        let s2 = insert(&mut p, b"three").unwrap();
        assert_eq!(s2, s0);
        assert_eq!(live_records(&p).count(), 2);
    }

    #[test]
    fn bad_slot_errors() {
        let p = fresh();
        assert!(matches!(
            read(&p, 0, |_| ()),
            Err(StoreError::BadSlot { slot: 0 })
        ));
        let mut p = fresh();
        assert!(matches!(
            delete(&mut p, 3),
            Err(StoreError::BadSlot { slot: 3 })
        ));
    }

    #[test]
    fn compaction_reclaims_space() {
        let mut p = fresh();
        // Fill with 100-byte records, delete every other one, then insert a
        // record that only fits after compaction.
        let body = vec![1u8; 100];
        let mut slots = Vec::new();
        while fits(&p, body.len()) {
            slots.push(insert(&mut p, &body).unwrap());
        }
        for s in slots.iter().step_by(2) {
            delete(&mut p, *s).unwrap();
        }
        let big = vec![2u8; 400];
        let s = insert(&mut p, &big).unwrap();
        read(&p, s, |b| assert_eq!(b, &big[..])).unwrap();
        // Survivors intact.
        for s in slots.iter().skip(1).step_by(2) {
            read(&p, *s, |b| assert_eq!(b, &body[..])).unwrap();
        }
    }

    #[test]
    fn kind_tagging() {
        let mut p = fresh();
        assert_eq!(kind(&p), Some(PageKind::Slotted));
        set_kind(&mut p, PageKind::SpannedData);
        assert_eq!(kind(&p), Some(PageKind::SpannedData));
        assert!(!is_slotted(&p));
        let z = [0u8; PAGE_SIZE];
        assert_eq!(kind(&z), None);
    }
}
