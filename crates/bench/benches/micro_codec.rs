//! Micro-benchmarks of the read hot path, bottom up.
//!
//! * `codec/decode_station` — decoding one paper `Station` (the DSM read
//!   of a whole object).
//! * `nsm/connection_page_filter` — walking one full `NSM-Connection` page
//!   with the root-key filter and decoding the matches: the per-page work
//!   of a pure-NSM relation scan.
//! * `nsm/children_of_warm` — one pure-NSM `children_of` of a single root
//!   at paper scale (1500 objects, default 1200-page buffer), every page
//!   buffered: one full relation scan.

mod common;

use criterion::Criterion;
use starfish_core::{make_store, nsm_connection_schema, ModelKind, RootKeyFilter, StoreConfig};
use starfish_nf2::station::station_schema;
use starfish_nf2::{decode, encode, Tuple, Value};
use starfish_pagestore::{slotted, PAGE_SIZE};
use starfish_workload::{generate, DatasetParams};
use std::hint::black_box;

fn main() {
    let mut c: Criterion = common::criterion();
    let db = generate(&DatasetParams::default());

    let schema = station_schema();
    let station = db
        .iter()
        .max_by_key(|s| s.platforms.len())
        .expect("non-empty dataset");
    let bytes = encode(&station.to_tuple(), &schema).unwrap();
    c.bench_function("codec/decode_station", |b| {
        b.iter(|| black_box(decode(&bytes, &schema).unwrap()))
    });

    // One NSM-Connection page, filled in load order with flat connection
    // tuples (k = 11), and a filter selecting the page's first owner.
    let conn_schema = nsm_connection_schema();
    let mut page = Box::new([0u8; PAGE_SIZE]);
    slotted::init(&mut page);
    let flat = db.iter().flat_map(|s| {
        s.platforms.iter().enumerate().flat_map(move |(pi, p)| {
            p.connections.iter().map(move |c| {
                Tuple::new(vec![
                    Value::Int(s.key),
                    Value::Int(pi as i32),
                    Value::Int(c.line_nr),
                    Value::Int(c.key_connection),
                    Value::Link(c.oid_connection),
                    Value::Str(c.departure_times.clone()),
                ])
            })
        })
    });
    let mut first_owner = None;
    for t in flat {
        let rec = encode(&t, &conn_schema).unwrap();
        if !slotted::fits(&page, rec.len()) {
            break;
        }
        first_owner.get_or_insert_with(|| t.values[0].as_int().unwrap());
        slotted::insert(&mut page, &rec).unwrap();
    }
    let filter = RootKeyFilter::new(first_owner);
    c.bench_function("nsm/connection_page_filter", |b| {
        b.iter(|| {
            let mut matches = Vec::new();
            for (_, rec) in slotted::live_records(&page) {
                if filter.select(rec).unwrap().is_some() {
                    matches.push(decode(rec, &conn_schema).unwrap());
                }
            }
            black_box(matches)
        })
    });

    let mut store = make_store(ModelKind::Nsm, StoreConfig::default());
    let refs = store.load(&db).unwrap();
    let root = refs[refs.len() / 2];
    store.children_of(&[root]).unwrap();
    c.bench_function("nsm/children_of_warm", |b| {
        b.iter(|| black_box(store.children_of(&[root]).unwrap()))
    });

    c.final_summary();
}
