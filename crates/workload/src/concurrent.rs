//! Multi-client query execution — the query-labelled wrappers over the
//! plan executor's concurrent and mixed-stream modes.
//!
//! [`QueryRunner::run_concurrent`] builds the query's built-in
//! [`WorkloadSpec`] and hands it to [`crate::Executor::run_concurrent`], which
//! drives the *same* deterministic object sequences as the serial run from
//! N client threads over one [`ConcurrentObjectStore`]:
//!
//! 1. the spec's RNG stream produces the full unit-root plan up front (the
//!    identical picks the serial run makes — same seed, same stream);
//! 2. the plan's units are dealt round-robin to N scoped threads, which
//!    execute retrievals/navigations through the `&self` shared surface;
//! 3. per-unit observations are merged back **in serial plan order**, so
//!    the merged answer sequence is bit-identical to the serial run
//!    whatever the thread interleaving was;
//! 4. `update_roots` ops (query 3a) are applied **concurrently by the same
//!    N threads** over disjoint object partitions through the latched
//!    `&self` write surface
//!    ([`ConcurrentObjectStore::shared_update_roots`]): every occurrence
//!    of an object goes to the thread owning that object, so no two
//!    threads ever write the same object, and per-page latches keep
//!    writers on shared pages serialized. The disconnect flush then runs
//!    through [`ConcurrentObjectStore::shared_flush`] and counters are
//!    snapshotted exactly as in the serial protocol.
//!
//! Invariants (pinned by `tests/concurrent_differential.rs` and
//! `tests/concurrent_writer_differential.rs`): answers, total buffer fixes
//! and the post-flush on-disk bytes are independent of the thread count;
//! with one thread and one shard, the whole [`Measurement`] — physical
//! reads included — is identical to the serial runner's. Only physical I/O
//! may move when threads race on the cache, mirroring the cross-policy
//! differential's invariant shape.
//!
//! Every read query runs concurrently — 1a/1b/1c/2a/2b — plus the
//! single-loop update query 3a. Only the bulk-update query 3b stays on the
//! serial surface: its per-loop updates interleave with reads, and the
//! concurrent protocol's deferred update tail would reorder its physical
//! I/O against the serial oracle. For sustained mixed read/write serving,
//! [`QueryRunner::run_mixed`] drives a [`MixKind`] request stream through
//! [`crate::Executor::run_stream`] instead.

use crate::executor::{MixedRun, PlanOutcome, UnitObservation};
use crate::plan::{MixKind, WorkloadSpec};
use crate::queries::{Measurement, QueryOutcome, QueryRunner};
use crate::Result;
use starfish_core::{ConcurrentObjectStore, CoreError, ObjRef};
use starfish_cost::QueryId;
use starfish_nf2::Tuple;
use std::time::Duration;

/// What one unit of concurrent work (a query-1a retrieval or one
/// navigation loop) observed. Comparing these across thread counts — and
/// against a serial run — is the concurrent differential test's job.
#[derive(Clone, Debug, PartialEq)]
pub enum UnitAnswer {
    /// Queries 1a/1b: the retrieved (full-projection) object.
    Retrieval(Tuple),
    /// Query 1c: the full scan ran as one set-oriented unit (its answer is
    /// the scanned-object count in the measurement).
    Scan,
    /// Queries 2a/2b/3a: one navigation loop's full observation.
    Navigation {
        /// The loop's root object.
        root: ObjRef,
        /// Its children references, in order.
        children: Vec<ObjRef>,
        /// The grand-children references, in order.
        grandchildren: Vec<ObjRef>,
        /// The grand-children's root records, in order.
        root_records: Vec<Tuple>,
    },
}

impl UnitAnswer {
    /// Re-labels a plan-level observation as the query's answer shape.
    fn from_observation(query: QueryId, obs: UnitObservation) -> UnitAnswer {
        let UnitObservation {
            root,
            mut retrieved,
            mut hops,
            records,
        } = obs;
        match query {
            QueryId::Q1a | QueryId::Q1b => {
                UnitAnswer::Retrieval(retrieved.pop().expect("retrieval units fetch one object"))
            }
            QueryId::Q1c => UnitAnswer::Scan,
            _ => {
                let children = if hops.is_empty() {
                    Vec::new()
                } else {
                    hops.remove(0)
                };
                let grandchildren = if hops.is_empty() {
                    Vec::new()
                } else {
                    hops.remove(0)
                };
                UnitAnswer::Navigation {
                    root,
                    children,
                    grandchildren,
                    root_records: records,
                }
            }
        }
    }
}

/// The result of a multi-client run: the usual measurement plus the merged
/// per-unit answers (in serial plan order) and the wall-clock of the
/// client phase (for throughput reporting).
#[derive(Clone, Debug)]
pub struct ConcurrentRun {
    /// Counter deltas and normalization, exactly like the serial runner's.
    pub outcome: QueryOutcome,
    /// Per-unit answers in serial plan order (empty when unsupported).
    pub answers: Vec<UnitAnswer>,
    /// Wall-clock time of the concurrent read phase (excludes load, the
    /// update tail and the disconnect flush).
    pub elapsed: Duration,
    /// How many client threads executed the plan.
    pub threads: usize,
}

impl ConcurrentRun {
    /// Read units completed per second of the client phase.
    pub fn units_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.answers.len() as f64 / secs
    }
}

impl QueryRunner {
    /// Which queries the concurrent runner executes: every read query
    /// (1a, 1b, 1c, 2a, 2b) plus the single-loop update query 3a, whose
    /// navigation *and* update phases both run concurrently (the updates
    /// over disjoint object partitions through the latched write surface).
    /// Only the bulk-update query 3b stays serial.
    pub fn supports_concurrent(query: QueryId) -> bool {
        !matches!(query, QueryId::Q3b)
    }

    /// Runs `query` under the measurement protocol with `threads` client
    /// threads sharing `store`: the query's built-in [`WorkloadSpec`] run
    /// through [`crate::Executor::run_concurrent`], whose answers, total
    /// fixes and post-flush disk bytes do not depend on `threads`.
    pub fn run_concurrent(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        query: QueryId,
        threads: usize,
    ) -> Result<ConcurrentRun> {
        if !Self::supports_concurrent(query) {
            return Err(CoreError::Unsupported {
                model: "concurrent runner",
                op: "the bulk-update query 3b (serial-surface only)",
            });
        }
        let spec = WorkloadSpec::for_query(query);
        let run = self.executor().run_concurrent(store, &spec, threads)?;
        Ok(match run.outcome {
            PlanOutcome::Unsupported => ConcurrentRun {
                outcome: QueryOutcome::Unsupported,
                answers: Vec::new(),
                elapsed: run.elapsed,
                threads: run.threads,
            },
            PlanOutcome::Measured(plan_run) => ConcurrentRun {
                outcome: QueryOutcome::Measured(Measurement::from_plan(query, &plan_run)),
                answers: run
                    .observations
                    .into_iter()
                    .map(|obs| UnitAnswer::from_observation(query, obs))
                    .collect(),
                elapsed: run.elapsed,
                threads: run.threads,
            },
        })
    }

    /// Serves a mixed read/write request stream from `threads` clients
    /// over `store`: the query-2b navigation plan (same seed ⇒ same roots
    /// for every mix and thread count), with `mix` deciding per request
    /// index whether the loop's grand-children get the query-3a root patch
    /// (unique per request). A thin wrapper over [`crate::Executor::run_stream`]
    /// with [`WorkloadSpec::mixed`].
    pub fn run_mixed(
        &self,
        store: &mut dyn ConcurrentObjectStore,
        mix: MixKind,
        threads: usize,
    ) -> Result<MixedRun> {
        self.executor()
            .run_stream(store, &WorkloadSpec::mixed(mix), threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetParams};
    use starfish_core::{make_shared_store, ModelKind, StoreConfig};
    use starfish_nf2::Oid;

    fn shared_setup(
        kind: ModelKind,
        shards: usize,
    ) -> (Box<dyn ConcurrentObjectStore>, QueryRunner) {
        let params = DatasetParams {
            n_objects: 60,
            seed: 99,
            ..Default::default()
        };
        let db = generate(&params);
        let mut store = make_shared_store(kind, StoreConfig::default(), shards);
        let refs = store.load(&db).unwrap();
        (store, QueryRunner::new(refs, 7))
    }

    #[test]
    fn one_thread_one_shard_matches_serial_runner() {
        use starfish_core::make_store;
        let params = DatasetParams {
            n_objects: 60,
            seed: 99,
            ..Default::default()
        };
        let db = generate(&params);
        for kind in [ModelKind::Dsm, ModelKind::DasdbsNsm] {
            for q in [
                QueryId::Q1a,
                QueryId::Q1b,
                QueryId::Q1c,
                QueryId::Q2a,
                QueryId::Q2b,
                QueryId::Q3a,
            ] {
                let mut serial = make_store(kind, StoreConfig::default());
                let refs = serial.load(&db).unwrap();
                let runner = QueryRunner::new(refs, 7);
                let want = runner.run(serial.as_mut(), q).unwrap();

                let (mut store, runner) = shared_setup(kind, 1);
                let got = runner.run_concurrent(store.as_mut(), q, 1).unwrap();
                assert_eq!(
                    got.outcome, want,
                    "{kind}/{q}: 1 thread × 1 shard must equal the serial run"
                );
            }
        }
    }

    #[test]
    fn answers_and_fixes_independent_of_thread_count() {
        for kind in [ModelKind::DasdbsDsm, ModelKind::NsmIndexed] {
            let (mut store, runner) = shared_setup(kind, 1);
            let base = runner
                .run_concurrent(store.as_mut(), QueryId::Q2b, 1)
                .unwrap();
            let base_m = *base.outcome.measurement().unwrap();
            for threads in [2, 4] {
                let (mut store, runner) = shared_setup(kind, threads);
                let got = runner
                    .run_concurrent(store.as_mut(), QueryId::Q2b, threads)
                    .unwrap();
                assert_eq!(got.answers, base.answers, "{kind}: answers moved");
                let m = got.outcome.measurement().unwrap();
                assert_eq!(m.snapshot.fixes, base_m.snapshot.fixes, "{kind}");
                assert_eq!(m.units, base_m.units);
                assert_eq!(got.threads, threads);
            }
        }
    }

    #[test]
    fn pure_nsm_q1a_is_unsupported_concurrently_too() {
        let (mut store, runner) = shared_setup(ModelKind::Nsm, 2);
        let got = runner
            .run_concurrent(store.as_mut(), QueryId::Q1a, 2)
            .unwrap();
        assert_eq!(got.outcome, QueryOutcome::Unsupported);
        assert!(got.answers.is_empty());
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        let (mut store, runner) = shared_setup(ModelKind::Dsm, 2);
        assert!(!QueryRunner::supports_concurrent(QueryId::Q3b));
        assert!(runner
            .run_concurrent(store.as_mut(), QueryId::Q3b, 2)
            .is_err());
    }

    #[test]
    fn q3a_updates_apply_identically_for_any_thread_count() {
        use starfish_nf2::station::Station;
        let mut checksums = Vec::new();
        for threads in [1usize, 2, 4] {
            let (mut store, runner) = shared_setup(ModelKind::Dsm, threads);
            runner
                .run_concurrent(store.as_mut(), QueryId::Q3a, threads)
                .unwrap();
            checksums.push(store.disk_checksum());
            // And the logical content matches too.
            store.clear_cache().unwrap();
            let mut names = Vec::new();
            store
                .scan_all(&mut |t| {
                    names.push(Station::from_tuple(t).unwrap().name);
                })
                .unwrap();
            assert!(names.iter().any(|n| n.starts_with("updated-")), "{threads}");
        }
        assert_eq!(checksums[0], checksums[1], "2 writers diverged from 1");
        assert_eq!(checksums[0], checksums[2], "4 writers diverged from 1");
    }

    #[test]
    fn navigation_answers_carry_real_refs() {
        let (mut store, runner) = shared_setup(ModelKind::DasdbsNsm, 2);
        let got = runner
            .run_concurrent(store.as_mut(), QueryId::Q2b, 2)
            .unwrap();
        assert_eq!(got.answers.len(), runner.loops() as usize);
        for a in &got.answers {
            match a {
                UnitAnswer::Navigation {
                    root,
                    grandchildren,
                    root_records,
                    ..
                } => {
                    assert!(root.oid != Oid(u32::MAX));
                    assert_eq!(grandchildren.len(), root_records.len());
                }
                UnitAnswer::Retrieval(_) | UnitAnswer::Scan => {
                    panic!("2b units are navigations")
                }
            }
        }
    }

    #[test]
    fn mixed_stream_composition_is_deterministic() {
        assert!(!MixKind::ReadOnly.is_update(0));
        assert!(!MixKind::ReadOnly.is_update(7));
        assert!(MixKind::Mixed5050.is_update(1));
        assert!(!MixKind::Mixed5050.is_update(2));
        let heavy = (0..8)
            .filter(|&i| MixKind::UpdateHeavy.is_update(i))
            .count();
        assert_eq!(heavy, 6, "update-heavy is 3 of 4");
        assert_eq!(MixKind::all().len(), 3);
    }

    #[test]
    fn run_mixed_serves_and_counts_every_mix() {
        for kind in [ModelKind::DasdbsNsm, ModelKind::Dsm] {
            for mix in MixKind::all() {
                for threads in [1usize, 3] {
                    let (mut store, runner) = shared_setup(kind, threads.max(1));
                    let run = runner.run_mixed(store.as_mut(), mix, threads).unwrap();
                    assert_eq!(run.requests, runner.loops(), "{kind}/{threads}");
                    assert_eq!(
                        run.updates,
                        (0..runner.loops() as usize)
                            .filter(|&i| mix.is_update(i))
                            .count() as u64
                    );
                    assert!(run.snapshot.fixes > 0);
                    if mix == MixKind::ReadOnly {
                        assert_eq!(run.snapshot.pages_written, 0, "reads never write");
                        assert_eq!(run.snapshot.latch_exclusive, 0);
                    } else {
                        assert!(run.snapshot.pages_written > 0, "updates must write");
                        assert!(run.snapshot.latch_exclusive > 0, "writers latch");
                    }
                    assert_eq!(run.threads, threads.max(1));
                }
            }
        }
    }

    #[test]
    fn mixed_requests_and_fixes_are_thread_count_invariant() {
        // The stream composition (and therefore total fixes) must not
        // depend on how many clients serve it.
        let mut base: Option<u64> = None;
        for threads in [1usize, 2, 4] {
            let (mut store, runner) = shared_setup(ModelKind::DasdbsNsm, threads);
            let run = runner
                .run_mixed(store.as_mut(), MixKind::Mixed5050, threads)
                .unwrap();
            match base {
                None => base = Some(run.snapshot.fixes),
                Some(want) => assert_eq!(run.snapshot.fixes, want, "{threads} threads"),
            }
        }
    }
}
