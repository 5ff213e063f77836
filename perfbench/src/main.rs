//! Wall-clock benchmark of the five complex-object storage models.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nav-read|nav-update|drift-reorg --seed N --seconds S --trace 0|1
//!     [--data-seed N] [--inject wrong-answer|store-error]
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 if any answer, durability check or trace
//! identity check failed, 2 on bad arguments. See `README.md` for the
//! workloads and the definition of every metric.

mod bench;
mod report;
mod speed;
mod tape;
mod trace;

use bench::{Concurrent, Ctx, Inject, PoolKind, Serial, Workload, MODELS};
use starfish_workload::{generate, DatasetParams};
use std::time::Instant;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Tape seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Objects in the generated database: the paper's 1500 on the command
    /// line; the package tests use smaller databases.
    pub objects: usize,
    /// Dataset seed.
    pub data_seed: u64,
    /// Deliberate failure, for the self-test.
    pub inject: Option<Inject>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::NavRead,
        seed: 1,
        seconds: 10.0,
        trace: false,
        objects: DatasetParams::default().n_objects,
        data_seed: DatasetParams::default().seed,
        inject: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or_else(|| {
                    format!("unknown workload {val} (nav-read, nav-update, drift-reorg)")
                })?)
            }
            "--seed" => args.seed = num(val)?,
            "--seconds" => {
                args.seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {val}")),
                }
            }
            "--data-seed" => args.data_seed = num(val)?,
            "--inject" => {
                args.inject = Some(match val.as_str() {
                    "wrong-answer" => Inject::WrongAnswer,
                    "store-error" => Inject::StoreError,
                    _ => return Err(format!("--inject: unknown failure {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The stores of one model.
pub struct Lane {
    /// Serial store: the measured store of `nav-read` and `drift-reorg`;
    /// in a traced `nav-update` run, the untraced one-client replay.
    pub serial: Option<Serial>,
    /// The two-client store of `nav-update`.
    pub conc: Option<Concurrent>,
    /// Traced twin of `serial` (traced runs only).
    pub traced: Option<Serial>,
}

impl Lane {
    /// The side the end-to-end metrics come from.
    pub fn primary(&self) -> &bench::Side {
        match (&self.conc, &self.serial) {
            (Some(c), _) => &c.side,
            (None, Some(s)) => &s.side,
            (None, None) => unreachable!("a lane has a primary store"),
        }
    }

    fn sides(&self) -> impl Iterator<Item = &bench::Side> {
        let s = self.serial.as_ref().map(|s| &s.side);
        let c = self.conc.as_ref().map(|c| &c.side);
        let t = self.traced.as_ref().map(|t| &t.side);
        s.into_iter().chain(c).chain(t)
    }
}

/// Set-up measurements.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    /// Whole set-up (generate, load every model, warm), one per repetition,
    /// scaled to the host's nominal speed (see `speed`).
    pub total_s: Vec<f64>,
    /// The same, as measured.
    pub wall_s: Vec<f64>,
    /// Dataset generation of the last repetition.
    pub generate_s: f64,
    /// Bulk load of each model's measured store.
    pub load_s: [f64; 5],
    /// Warm-up of the measured stores, summed.
    pub warm_s: f64,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

fn build_lanes(args: &Args, setup: &mut Setup) -> (Ctx, Vec<Lane>) {
    let mut reference = speed::Reference::default();
    reference.begin();
    let t = Instant::now();
    let params = DatasetParams {
        n_objects: args.objects,
        seed: args.data_seed,
        ..Default::default()
    };
    let db = generate(&params);
    let oracle = tape::Oracle::new(&db);
    setup.generate_s = t.elapsed().as_secs_f64();
    let ctx = Ctx {
        spec: args.workload.spec(),
        db,
        oracle,
        seed: args.seed,
        inject: args.inject,
    };
    setup.warm_s = 0.0;
    let lanes = MODELS
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let primary = i == 0;
            let (lane, times) = if args.workload == Workload::NavUpdate {
                let (c, times) = Concurrent::new(&ctx, kind, primary);
                let lane = Lane {
                    conc: Some(c),
                    serial: args
                        .trace
                        .then(|| Serial::new(&ctx, kind, PoolKind::Shared, false, false).0),
                    traced: args
                        .trace
                        .then(|| Serial::new(&ctx, kind, PoolKind::Shared, true, false).0),
                };
                (lane, times)
            } else {
                let (s, times) = Serial::new(&ctx, kind, PoolKind::Exclusive, false, primary);
                let lane = Lane {
                    serial: Some(s),
                    conc: None,
                    traced: args
                        .trace
                        .then(|| Serial::new(&ctx, kind, PoolKind::Exclusive, true, false).0),
                };
                (lane, times)
            };
            setup.load_s[i] = times.load_ns as f64 / 1e9;
            setup.warm_s += times.warm_ns as f64 / 1e9;
            reference.tick();
            lane
        })
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    setup.wall_s.push(wall_s);
    setup.total_s.push(wall_s * speed::factor(&reference.end()));
    (ctx, lanes)
}

/// Runs the benchmark.
pub fn run(args: &Args) -> report::Outcome {
    let span_ns = if args.trace {
        trace::calibrate_span_ns()
    } else {
        0.0
    };
    let mut setup = Setup::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut ctx, mut lanes) = build_lanes(args, &mut setup);
    for _ in 1..reps {
        drop(lanes);
        (ctx, lanes) = build_lanes(args, &mut setup);
    }
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < bench::WINDOW_EPISODES || start.elapsed().as_secs_f64() < args.seconds {
        for lane in &mut lanes {
            if let Some(c) = &mut lane.conc {
                c.episode(&ctx);
            }
            if let Some(s) = &mut lane.serial {
                s.episode(&ctx);
            }
            if let Some(t) = &mut lane.traced {
                t.episode(&ctx);
            }
        }
        rounds += 1;
    }
    let measured_s = start.elapsed().as_secs_f64();
    for lane in &mut lanes {
        if let Some(c) = &mut lane.conc {
            c.finish();
        }
        if let Some(s) = &mut lane.serial {
            s.finish();
        }
        if let Some(t) = &mut lane.traced {
            t.finish();
        }
    }
    let attempted: u64 = lanes.iter().flat_map(Lane::sides).map(|s| s.requests).sum();
    let durability: u64 = lanes
        .iter()
        .flat_map(Lane::sides)
        .map(|s| s.durability_checks)
        .sum();
    let mut failed: u64 = lanes.iter().flat_map(|l| l.sides()).map(|s| s.failed).sum();
    let mut notes = vec![format!(
        "{rounds} rounds in {measured_s:.2} s; {durability} durability checks; available parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )];
    for (lane, kind) in lanes.iter().zip(MODELS) {
        let p = lane.primary();
        let medians: Vec<String> = p
            .episode_lat
            .iter()
            .zip(&p.episode_ref)
            .map(|(l, r)| {
                let mut r = r.clone();
                format!(
                    "{:.0}/{:.2}",
                    report::percentile(&mut l.clone(), 0.5) / 1e3,
                    report::percentile(&mut r, 0.5) / 1e3
                )
            })
            .collect();
        notes.push(format!(
            "{kind}: {} requests; per round, median latency / median reference-kernel time (us): {}",
            p.requests,
            medians.join(" ")
        ));
        if let (Some(s), Some(t)) = (&lane.serial, &lane.traced) {
            if s.side.episode_io != t.side.episode_io || s.side.checksum != t.side.checksum {
                failed += 1;
                notes.push(format!(
                    "TRACE IDENTITY FAILED for {kind}: I/O or disk checksum differ between the plain and traced stores"
                ));
            } else {
                notes.push(format!(
                    "trace identity ok for {kind}: {} identical episode I/O deltas, disk checksum {:016x}",
                    s.side.episode_io.len(),
                    s.side.checksum
                ));
            }
        }
    }
    let user_bytes: usize = ctx
        .db
        .iter()
        .map(|s| starfish_nf2::encoded_len(&s.to_tuple()))
        .sum();
    report::Outcome::new(
        args, &lanes, &setup, user_bytes, span_ns, attempted, failed, notes,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    outcome.print();
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: &str, seed: u64, trace: bool, inject: Option<Inject>) -> report::Outcome {
        sized(workload, seed, trace, inject, 120)
    }

    fn sized(
        workload: &str,
        seed: u64,
        trace: bool,
        inject: Option<Inject>,
        objects: usize,
    ) -> report::Outcome {
        run(&Args {
            workload: Workload::parse(workload).expect("known workload"),
            seed,
            seconds: 0.001,
            trace,
            objects,
            data_seed: 4242,
            inject,
        })
    }

    #[test]
    fn every_workload_runs_clean_untraced_and_traced() {
        for w in ["nav-read", "nav-update", "drift-reorg"] {
            for trace in [false, true] {
                let o = small(w, 1, trace, None);
                assert!(
                    o.correct && o.failed == 0,
                    "{w} trace={trace}: {:?}",
                    o.notes
                );
                assert!(o.attempted > 0);
                if !trace {
                    // Times and rates; at 120 objects every database fits
                    // the pool, so some counts are 0 here.
                    let timed = |u: &str| ["us", "s", "1/s"].contains(&u);
                    for x in o.metrics.iter().filter(|x| x.gated && timed(x.unit)) {
                        assert!(x.value > 0.0, "{w}: {} is {}", x.name, x.value);
                    }
                }
            }
        }
    }

    #[test]
    fn injected_failures_are_counted_and_fail_the_run() {
        for w in ["nav-read", "nav-update", "drift-reorg"] {
            for inject in [Inject::WrongAnswer, Inject::StoreError] {
                let o = small(w, 1, false, Some(inject));
                assert!(!o.correct, "{w} {inject:?} went unnoticed");
                assert_eq!(o.failed, 1, "{w} {inject:?}: {:?}", o.notes);
            }
        }
    }

    #[test]
    fn count_metrics_repeat_exactly_for_a_seed_on_one_client_workloads() {
        let counts = |o: &report::Outcome| -> Vec<f64> {
            [
                "pages_read_per_req",
                "io_calls_per_req",
                "bytes_stored_per_user_byte",
            ]
            .iter()
            .map(|n| o.metric(n).expect("count metric reported"))
            .collect()
        };
        // 600 objects: DSM no longer fits the 1200-page pool of nav-read.
        for w in ["nav-read", "drift-reorg"] {
            let a = counts(&sized(w, 3, false, None, 600));
            assert!(a.iter().all(|&x| x > 0.0), "{w}: {a:?}");
            assert_eq!(a, counts(&sized(w, 3, false, None, 600)), "{w}");
            assert_ne!(
                a,
                counts(&sized(w, 4, false, None, 600)),
                "{w}: seed has no effect"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&argv("--workload nav-read --seed 2 --seconds 3 --trace 1")).is_ok());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload nav-read --trace 2")).is_err());
        assert!(parse_args(&argv("--workload nav-read --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload nav-read --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload nav-read --objects 100")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
