//! Allocation regression guard for the pure-NSM read path.
//!
//! A pure-NSM `children_of` scans the whole `NSM-Connection` relation and
//! tests every tuple's root key. That per-tuple work (slot walk, key peek,
//! key filter) must not allocate: only the few matching tuples are decoded.
//! A counting global allocator measures one warm call.

use starfish_core::{make_store, ModelKind, StoreConfig};
use starfish_nf2::station::{Connection, Platform, Sightseeing, Station};
use starfish_nf2::Oid;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations made by threads that switched counting on.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic and a
// const-initialized `Cell` thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

const N_OBJECTS: usize = 1500;
const CONNECTIONS_PER_PLATFORM: usize = 2;

/// A paper-shaped database: two platforms of two connections and one
/// sightseeing per station; connections point at the next stations.
fn stations() -> Vec<Station> {
    (0..N_OBJECTS)
        .map(|i| Station {
            key: i as i32,
            name: format!("{i:0100}"),
            platforms: (0..2)
                .map(|p| Platform {
                    platform_nr: p,
                    no_line: CONNECTIONS_PER_PLATFORM as i32,
                    ticket_code: 0,
                    information: "i".repeat(100),
                    connections: (0..CONNECTIONS_PER_PLATFORM)
                        .map(|c| {
                            let to = (i + 1 + 2 * p as usize + c) % N_OBJECTS;
                            Connection {
                                line_nr: c as i32,
                                key_connection: to as i32,
                                oid_connection: Oid(to as u32),
                                departure_times: "t".repeat(100),
                            }
                        })
                        .collect(),
                })
                .collect(),
            sightseeings: vec![Sightseeing {
                seeing_nr: 0,
                description: "d".repeat(100),
                location: "l".repeat(100),
                history: "h".repeat(100),
                remarks: "r".repeat(100),
            }],
        })
        .collect()
}

#[test]
fn warm_pure_nsm_children_of_allocates_per_match_not_per_tuple() {
    let mut store = make_store(ModelKind::Nsm, StoreConfig::default());
    let refs = store.load(&stations()).unwrap();
    let connection = store
        .relation_info()
        .into_iter()
        .find(|r| r.name == "NSM-Connection")
        .expect("pure NSM stores NSM-Connection");
    let tuples = connection.total_tuples as usize;
    assert_eq!(tuples, N_OBJECTS * 2 * CONNECTIONS_PER_PLATFORM);

    // Warm: the whole relation is buffered before the measured call.
    let root = refs[N_OBJECTS / 2];
    store.children_of(&[root]).unwrap();
    let before = store.snapshot();
    let (children, allocs) = allocations(|| store.children_of(&[root]).unwrap());
    let after = store.snapshot();

    assert_eq!(children.len(), 2 * CONNECTIONS_PER_PLATFORM);
    assert_eq!(after.pages_read, before.pages_read, "the call runs warm");
    assert_eq!(
        after.fixes - before.fixes,
        connection.m as u64,
        "one fix per relation page"
    );
    assert!(
        allocs < tuples / 10,
        "{allocs} allocations for one children_of scanning {tuples} tuples"
    );
}
