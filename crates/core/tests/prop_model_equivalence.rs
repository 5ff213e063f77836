//! Cross-model equivalence: all five storage-model variants must expose
//! exactly the same logical database — identical objects from every access
//! path, identical navigation, identical update results. The models may only
//! differ in *which pages they touch*, never in *what they return*.

use proptest::prelude::*;
use starfish_core::{
    make_shared_store, make_store, ComplexObjectStore, ConcurrentObjectStore, CoreError,
    HeatConfig, ModelKind, ObjRef, RootPatch, StoreConfig,
};
use starfish_nf2::station::{proj_root_record, Connection, Platform, Sightseeing, Station};
use starfish_nf2::{Oid, Projection, Tuple};

/// Builds a consistent random database of `n` stations whose connections
/// reference stations in the same database.
fn arb_db(max_n: usize) -> impl Strategy<Value = Vec<Station>> {
    (2usize..=max_n).prop_flat_map(|n| {
        (0..n)
            .map(move |i| arb_station(i as i32, n as u32))
            .collect::<Vec<_>>()
    })
}

fn arb_station(idx: i32, n: u32) -> impl Strategy<Value = Station> {
    let key = 1000 + idx;
    (
        proptest::collection::vec(
            (
                0u32..n,
                proptest::collection::vec((0u32..n, any::<u8>()), 0..4),
            ),
            0..3,
        ),
        0usize..6,
        any::<u8>(),
    )
        .prop_map(move |(platform_specs, n_seeing, salt)| Station {
            key,
            name: format!("{key:08}-{salt:03}-{}", "n".repeat(88)),
            platforms: platform_specs
                .iter()
                .enumerate()
                .map(|(pi, (_, conns))| Platform {
                    platform_nr: pi as i32,
                    no_line: (pi as i32) + 1,
                    ticket_code: idx,
                    information: "i".repeat(100),
                    connections: conns
                        .iter()
                        .map(|&(target, line)| Connection {
                            line_nr: line as i32,
                            key_connection: 1000 + target as i32,
                            oid_connection: Oid(target),
                            departure_times: "t".repeat(100),
                        })
                        .collect(),
                })
                .collect(),
            sightseeings: (0..n_seeing)
                .map(|i| Sightseeing {
                    seeing_nr: i as i32,
                    description: "d".repeat(100),
                    location: "l".repeat(100),
                    history: "h".repeat(100),
                    remarks: "r".repeat(100),
                })
                .collect(),
        })
}

fn all_stores(db: &[Station]) -> Vec<Box<dyn ComplexObjectStore>> {
    ModelKind::all()
        .into_iter()
        .map(|kind| {
            let mut s = make_store(kind, StoreConfig::default());
            s.load(db).unwrap();
            s
        })
        .collect()
}

/// Drives one op pair over the two twin stores: `exclusive` through the
/// `&mut` trait, `shared` through its `&self` twin. Both must return the
/// same answer or the same error (compared by message, which names the
/// variant), and spend the same counters.
struct Twins {
    exclusive: Box<dyn ConcurrentObjectStore>,
    shared: Box<dyn ConcurrentObjectStore>,
}

impl Twins {
    fn load(kind: ModelKind, db: &[Station]) -> Twins {
        let config = || StoreConfig::default().heat(HeatConfig::enabled());
        let mut exclusive = make_shared_store(kind, config(), 1);
        let mut shared = make_shared_store(kind, config(), 1);
        exclusive.load(db).unwrap();
        shared.load(db).unwrap();
        Twins { exclusive, shared }
    }

    fn pair<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        on_mut: impl FnOnce(&mut dyn ConcurrentObjectStore) -> starfish_core::Result<T>,
        on_shared: impl FnOnce(&dyn ConcurrentObjectStore) -> starfish_core::Result<T>,
    ) -> Result<starfish_core::Result<T>, TestCaseError> {
        let kind = self.exclusive.model();
        let a = on_mut(self.exclusive.as_mut());
        let b = on_shared(self.shared.as_ref());
        let msg = |r: &starfish_core::Result<T>| r.as_ref().err().map(ToString::to_string);
        prop_assert_eq!(msg(&a), msg(&b), "{} {}: errors differ", kind, what);
        if let (Ok(x), Ok(y)) = (&a, &b) {
            prop_assert_eq!(x, y, "{} {}: answers differ", kind, what);
        }
        prop_assert_eq!(
            self.exclusive.snapshot(),
            self.shared.snapshot(),
            "{} {}: counters differ",
            kind,
            what
        );
        Ok(a)
    }

    /// [`Self::pair`] for an op both twins must complete.
    fn ok<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        on_mut: impl FnOnce(&mut dyn ConcurrentObjectStore) -> starfish_core::Result<T>,
        on_shared: impl FnOnce(&dyn ConcurrentObjectStore) -> starfish_core::Result<T>,
    ) -> Result<T, TestCaseError> {
        let kind = self.exclusive.model();
        self.pair(what, on_mut, on_shared)?
            .map_err(|e| TestCaseError::fail(format!("{kind} {what}: {e}")))
    }
}

fn scan(
    f: impl FnOnce(&mut dyn FnMut(&Tuple)) -> starfish_core::Result<()>,
) -> starfish_core::Result<Vec<Tuple>> {
    let mut out = Vec::new();
    f(&mut |t| out.push(t.clone()))?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_models_return_identical_objects(db in arb_db(6)) {
        let mut stores = all_stores(&db);
        for (i, expect) in db.iter().enumerate() {
            let mut answers = Vec::new();
            for s in &mut stores {
                let t = s.get_by_key(expect.key, &Projection::All).unwrap();
                answers.push((s.model(), Station::from_tuple(&t).unwrap()));
            }
            for (model, got) in &answers {
                prop_assert_eq!(got, &db[i], "model {} object {}", model, i);
            }
        }
    }

    #[test]
    fn all_models_navigate_identically(db in arb_db(6)) {
        let mut stores = all_stores(&db);
        let refs: Vec<ObjRef> = db
            .iter()
            .enumerate()
            .map(|(i, s)| ObjRef { oid: Oid(i as u32), key: s.key })
            .collect();
        let expected: Vec<Vec<ObjRef>> = stores
            .iter_mut()
            .map(|s| s.children_of(&refs).unwrap())
            .collect();
        for w in expected.windows(2) {
            prop_assert_eq!(&w[0], &w[1]);
        }
        // And the root records agree (key + name fields).
        let roots: Vec<Vec<(Option<i32>, String)>> = stores
            .iter_mut()
            .map(|s| {
                s.root_records(&refs)
                    .unwrap()
                    .iter()
                    .map(|t| {
                        (
                            t.attr(0).and_then(starfish_nf2::Value::as_int),
                            t.attr(3)
                                .and_then(starfish_nf2::Value::as_str)
                                .unwrap_or_default()
                                .to_string(),
                        )
                    })
                    .collect()
            })
            .collect();
        for w in roots.windows(2) {
            prop_assert_eq!(&w[0], &w[1]);
        }
    }

    #[test]
    fn updates_converge_across_models(db in arb_db(5), victim in 0usize..5) {
        let victim = victim % db.len();
        let mut stores = all_stores(&db);
        let r = ObjRef { oid: Oid(victim as u32), key: db[victim].key };
        let new_name = format!("{:07}", victim + 7)
            + &"X".repeat(db[victim].name.len().saturating_sub(7));
        for s in &mut stores {
            s.update_roots(&[r], &RootPatch { new_name: new_name.clone() }).unwrap();
            s.clear_cache().unwrap();
            let t = s.get_by_key(r.key, &Projection::All).unwrap();
            let got = Station::from_tuple(&t).unwrap();
            prop_assert_eq!(&got.name, &new_name, "model {}", s.model());
            // Everything else unchanged.
            let mut expect = db[victim].clone();
            expect.name = new_name.clone();
            prop_assert_eq!(got, expect, "model {}", s.model());
        }
    }

    #[test]
    fn scan_all_agrees_with_point_lookups(db in arb_db(5)) {
        for kind in ModelKind::all() {
            let mut s = make_store(kind, StoreConfig::default());
            s.load(&db).unwrap();
            let mut seen = Vec::new();
            s.scan_all(&mut |t| seen.push(Station::from_tuple(t).unwrap())).unwrap();
            prop_assert_eq!(&seen, &db, "model {}", kind);
        }
    }

    #[test]
    fn shared_surface_matches_its_mut_twin_op_for_op(db in arb_db(5), victim in 0usize..5) {
        let victim = victim % db.len();
        let refs: Vec<ObjRef> = db
            .iter()
            .enumerate()
            .map(|(i, s)| ObjRef { oid: Oid(i as u32), key: s.key })
            .collect();
        let good = RootPatch { new_name: "P".repeat(db[victim].name.len()) };
        let short = RootPatch { new_name: "short".into() };
        for kind in ModelKind::all() {
            let mut t = Twins::load(kind, &db);
            for proj in [Projection::All, proj_root_record()] {
                for r in &refs {
                    let got = t.pair(
                        "get_by_oid",
                        |s| s.get_by_oid(r.oid, &proj),
                        |s| s.shared_get_by_oid(r.oid, &proj),
                    )?;
                    // Pure NSM has no identifiers: query 1a is "not relevant".
                    match kind {
                        ModelKind::Nsm => prop_assert!(
                            matches!(got, Err(CoreError::Unsupported { .. })),
                            "{}",
                            kind
                        ),
                        _ => prop_assert!(got.is_ok(), "{}", kind),
                    }
                    t.ok(
                        "get_by_key",
                        |s| s.get_by_key(r.key, &proj),
                        |s| s.shared_get_by_key(r.key, &proj),
                    )?;
                }
            }
            let missing_oid = Oid(db.len() as u32 + 3);
            let got = t.pair(
                "get_by_oid (unknown)",
                |s| s.get_by_oid(missing_oid, &Projection::All),
                |s| s.shared_get_by_oid(missing_oid, &Projection::All),
            )?;
            prop_assert!(got.is_err(), "{}", kind);
            let got = t.pair(
                "get_by_key (unknown)",
                |s| s.get_by_key(-1, &Projection::All),
                |s| s.shared_get_by_key(-1, &Projection::All),
            )?;
            prop_assert!(matches!(got, Err(CoreError::NotFound { .. })), "{}", kind);
            t.ok(
                "scan_all",
                |s| scan(|f| s.scan_all(f)),
                |s| scan(|f| s.shared_scan_all(f)),
            )?;
            t.ok(
                "children_of",
                |s| s.children_of(&refs),
                |s| s.shared_children_of(&refs),
            )?;
            t.ok(
                "root_records",
                |s| s.root_records(&refs),
                |s| s.shared_root_records(&refs),
            )?;
            let target = [refs[victim]];
            let got = t.pair(
                "update_roots (wrong length)",
                |s| s.update_roots(&target, &short),
                |s| s.shared_update_roots(&target, &short),
            )?;
            prop_assert!(matches!(got, Err(CoreError::Store(_))), "{}", kind);
            t.ok(
                "update_roots",
                |s| s.update_roots(&target, &good),
                |s| s.shared_update_roots(&target, &good),
            )?;
            t.ok("flush", |s| s.flush(), |s| s.shared_flush())?;
            prop_assert_eq!(t.exclusive.disk_checksum(), t.shared.disk_checksum(), "{}", kind);
            t.ok("clear_cache", |s| s.clear_cache(), |s| s.shared_clear_cache())?;
            t.ok("reorganize", |s| s.reorganize(), |s| s.shared_reorganize())?;
            t.ok(
                "scan_all (reorganized)",
                |s| scan(|f| s.scan_all(f)),
                |s| scan(|f| s.shared_scan_all(f)),
            )?;
            t.ok("flush (reorganized)", |s| s.flush(), |s| s.shared_flush())?;
            prop_assert_eq!(t.exclusive.disk_checksum(), t.shared.disk_checksum(), "{}", kind);
        }
    }
}
