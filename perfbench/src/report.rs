//! Metric definitions and the printed report.

use crate::bench::{slug, Side, MODELS};
use crate::speed;
use crate::{Args, Lane, Setup};
use starfish_core::IoSnapshot;
use starfish_pagestore::PAGE_SIZE;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Which run the value comes from.
    pub source: &'static str,
    /// Listed in `BENCHMARK.json` and in the JSON result. Metrics that are
    /// not gated are printed for the record only.
    pub gated: bool,
}

/// The result of a run.
pub struct Outcome {
    /// No request, durability check or identity check failed.
    pub correct: bool,
    /// Requests attempted, over every store of the run.
    pub attempted: u64,
    /// Failed requests and checks.
    pub failed: u64,
    /// The metrics of this run's kind.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// The per-layer table (traced runs).
    pub table: Vec<String>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Nearest-rank percentile of `v` (sorted in place), `p` in (0, 1].
pub fn percentile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// A store's latency samples over every round, each scaled by its round's
/// host-speed factor (see [`crate::speed`]); with `scaled` false, as
/// measured.
pub fn samples(side: &Side, scaled: bool) -> Vec<u64> {
    side.episode_lat
        .iter()
        .zip(&side.episode_ref)
        .flat_map(|(lat, r)| {
            let f = if scaled { speed::factor(r) } else { 1.0 };
            lat.iter().map(move |&ns| (ns as f64 * f) as u64)
        })
        .collect()
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

impl Outcome {
    /// Computes the run's metrics.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        args: &Args,
        lanes: &[Lane],
        setup: &Setup,
        user_bytes: usize,
        span_ns: f64,
        attempted: u64,
        failed: u64,
        mut notes: Vec<String>,
    ) -> Outcome {
        let mut m = Vec::new();
        let mut table = Vec::new();
        if args.trace {
            per_layer(lanes, setup, span_ns, &mut m, &mut table);
        } else {
            end_to_end(lanes, setup, user_bytes, &mut m);
        }
        notes.push(format!("{failed} failed of {attempted} attempted"));
        if !args.trace {
            let failed_frac = ratio(failed as f64, attempted as f64);
            m.push(Metric {
                name: "failed_frac".into(),
                value: failed_frac,
                unit: "frac",
                source: "all stores",
                gated: false,
            });
        }
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: m,
            notes,
            table,
        }
    }

    /// The value of metric `name`, if this run reports it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints the report; the last line is the JSON result.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for line in &self.table {
            println!("{line}");
        }
        for x in &self.metrics {
            let gated = if x.gated { "" } else { ", not gated" };
            println!(
                "{:<36} {:>16.4} {:<10} [{}{gated}]",
                x.name, x.value, x.unit, x.source
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|x| x.gated)
            .map(|x| {
                let v = if x.value.is_finite() { x.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    x.name, v, x.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn push(
    m: &mut Vec<Metric>,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    source: &'static str,
) {
    m.push(Metric {
        name: name.into(),
        value,
        unit,
        source,
        gated: true,
    });
}

fn end_to_end(lanes: &[Lane], setup: &Setup, user_bytes: usize, m: &mut Vec<Metric>) {
    const SRC: &str = "untraced run";
    push(
        m,
        "setup_s",
        median(&setup.total_s),
        "s",
        "median of set-ups",
    );
    m.push(Metric {
        name: "setup_wall_s".into(),
        value: median(&setup.wall_s),
        unit: "s",
        source: "median of set-ups, as measured",
        gated: false,
    });
    // Latencies and throughput are scaled to the host's nominal speed,
    // episode by episode (see `speed`); the p50 as measured is printed too.
    for (lane, kind) in lanes.iter().zip(MODELS) {
        let side = lane.primary();
        let mut scaled = samples(side, true);
        // The tail is printed but not gated: preemption bursts on the shared
        // host triple it for minutes at a time (see README).
        for (p, name, gated) in [(0.50, "req_p50_us", true), (0.99, "req_p99_us", false)] {
            m.push(Metric {
                name: format!("{name}.{}", slug(kind)),
                value: percentile(&mut scaled, p) / 1e3,
                unit: "us",
                source: SRC,
                gated,
            });
        }
        m.push(Metric {
            name: format!("req_p50_wall_us.{}", slug(kind)),
            value: percentile(&mut samples(side, false), 0.5) / 1e3,
            unit: "us",
            source: "untraced run, as measured",
            gated: false,
        });
    }
    let sides: Vec<&Side> = lanes.iter().map(Lane::primary).collect();
    let rounds = sides
        .iter()
        .map(|s| s.episode_serve_ns.len())
        .min()
        .unwrap_or(0);
    let rates: Vec<f64> = (0..rounds)
        .map(|r| {
            let requests: usize = sides.iter().map(|s| s.episode_lat[r].len()).sum();
            let serve_ns: f64 = sides
                .iter()
                .map(|s| s.episode_serve_ns[r] as f64 * speed::factor(&s.episode_ref[r]))
                .sum();
            ratio(requests as f64, serve_ns / 1e9)
        })
        .collect();
    push(m, "req_per_s", median(&rates), "1/s", SRC);
    let mut io = IoSnapshot::default();
    let mut window_requests = 0u64;
    let mut stored = 0f64;
    for s in &sides {
        let w = s.window.expect("every store ran an episode");
        io.accumulate(&w.io);
        window_requests += w.requests;
        stored += f64::from(w.db_pages) * PAGE_SIZE as f64;
    }
    let per_req = |x: u64| ratio(x as f64, window_requests as f64);
    push(
        m,
        "pages_read_per_req",
        per_req(io.pages_read),
        "pages/req",
        "first episodes",
    );
    push(
        m,
        "io_calls_per_req",
        per_req(io.io_calls()),
        "calls/req",
        "first episodes",
    );
    push(
        m,
        "bytes_stored_per_user_byte",
        ratio(stored, (user_bytes * sides.len()) as f64),
        "B/B",
        "first episodes",
    );
    // The pooled counts weight each model by its episode length; the
    // per-model values show which model moved (see README for how large a
    // single-model change the pooled value detects).
    for (s, kind) in sides.iter().zip(MODELS) {
        let w = s.window.expect("every store ran an episode");
        let per_req = |x: u64| ratio(x as f64, w.requests as f64);
        for (name, value, unit) in [
            ("pages_read_per_req", per_req(w.io.pages_read), "pages/req"),
            ("io_calls_per_req", per_req(w.io.io_calls()), "calls/req"),
        ] {
            m.push(Metric {
                name: format!("{name}.{}", slug(kind)),
                value,
                unit,
                source: "first episodes",
                gated: false,
            });
        }
    }
}

fn per_layer(
    lanes: &[Lane],
    setup: &Setup,
    span_ns: f64,
    m: &mut Vec<Metric>,
    table: &mut Vec<String>,
) {
    const TRACED: &str = "traced serial run";
    // Counts and call spans come from the measured store: the 2-client
    // store on nav-update, the untraced serial store otherwise.
    let src = if lanes[0].conc.is_some() {
        "2-client run"
    } else {
        "untraced serial run"
    };
    fn traced(l: &Lane) -> &Side {
        &l.traced.as_ref().expect("traced run").side
    }
    fn untraced(l: &Lane) -> &Side {
        &l.serial.as_ref().expect("traced run").side
    }

    table.push("| model | req µs | core | callbacks | pool hit | pool miss | prefetch/flush | latch | WAL | trace | gap |".into());
    table.push("|---|---|---|---|---|---|---|---|---|---|---|".into());
    let (mut traced_ns, mut plain_ns) = (0u64, 0u64);
    for (lane, kind) in lanes.iter().zip(MODELS) {
        let s = slug(kind);
        let t = traced(lane);
        let c = lane.primary();
        let req = t.requests.max(1) as f64;
        let us = |ns: f64| ns / req / 1e3;
        let l = &t.req_layers;
        // Each span costs `span_ns`, paid inside its parent's interval: a
        // callback span inside its fix, every other span inside the store
        // call (core).
        let trace_ns = l.spans as f64 * span_ns;
        let hit_ns = l.hit_ns as f64 - l.hits as f64 * span_ns;
        let miss_ns = l.miss_ns as f64 - (l.fixes - l.hits) as f64 * span_ns;
        let core_ns =
            t.calls.store_ns() as f64 - l.inner_ns() as f64 - (l.spans - l.fixes) as f64 * span_ns;
        let gap_ns = t.calls.request_ns as f64 - t.calls.store_ns() as f64;
        traced_ns += t.calls.request_ns;
        plain_ns += untraced(lane).calls.request_ns;
        let creq = c.requests.max(1) as f64;
        push(m, format!("core.self_us.{s}"), us(core_ns), "us", TRACED);
        push(
            m,
            format!("core.children_of_us.{s}"),
            c.calls.children_ns as f64 / creq / 1e3,
            "us",
            src,
        );
        push(
            m,
            format!("core.root_records_us.{s}"),
            c.calls.roots_ns as f64 / creq / 1e3,
            "us",
            src,
        );
        push(
            m,
            format!("core.update_roots_us.{s}"),
            c.calls.update_ns as f64 / creq / 1e3,
            "us",
            src,
        );
        push(m, format!("pool.hit_us.{s}"), us(hit_ns), "us", TRACED);
        push(m, format!("pool.miss_us.{s}"), us(miss_ns), "us", TRACED);
        push(
            m,
            format!("pool.callback_us.{s}"),
            us(l.callback_ns as f64),
            "us",
            TRACED,
        );
        push(
            m,
            format!("pool.prefetch_us.{s}"),
            us(l.prefetch_ns as f64),
            "us",
            TRACED,
        );
        push(
            m,
            format!("pool.fixes_per_req.{s}"),
            l.fixes as f64 / req,
            "fixes/req",
            TRACED,
        );
        push(
            m,
            format!("pool.hit_ratio.{s}"),
            ratio(l.hits as f64, l.fixes as f64),
            "frac",
            TRACED,
        );
        push(
            m,
            format!("latch.acquire_us.{s}"),
            us(l.latch_ns as f64),
            "us",
            TRACED,
        );
        push(
            m,
            format!("wal.commit_us.{s}"),
            us(l.commit_ns as f64),
            "us",
            TRACED,
        );
        let u = untraced(lane);
        let pass_ms = ratio(
            u.passes.iter().map(|p| p.ns as f64).sum(),
            u.passes.len() as f64,
        ) / 1e6;
        push(
            m,
            format!("placement.pass_ms.{s}"),
            pass_ms,
            "ms",
            "untraced serial run",
        );
        push(m, format!("trace.gap_us.{s}"), us(gap_ns), "us", TRACED);
        let total = t.calls.request_ns as f64;
        let cell = |ns: f64| format!("{:.1} ({:.0}%)", us(ns), 100.0 * ratio(ns, total));
        table.push(format!(
            "| {} | {:.1} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            kind,
            us(total),
            cell(core_ns),
            cell(l.callback_ns as f64),
            cell(hit_ns),
            cell(miss_ns),
            cell((l.prefetch_ns + l.flush_ns) as f64),
            cell(l.latch_ns as f64),
            cell(l.commit_ns as f64),
            cell(trace_ns),
            cell(gap_ns),
        ));
    }

    let counted_sides: Vec<&Side> = lanes.iter().map(Lane::primary).collect();
    let requests: u64 = counted_sides.iter().map(|s| s.requests).sum();
    let mut io = IoSnapshot::default();
    let (mut evictions, mut dirty, mut waits) = (0u64, 0u64, 0u64);
    for s in &counted_sides {
        io.accumulate(&s.io());
        evictions += s.buf.evictions;
        dirty += s.buf.dirty_evictions;
        waits += s.buf.latch_waits;
    }
    let per_req = |x: u64| ratio(x as f64, requests as f64);
    let mut bg = crate::trace::Layers::default();
    let mut commits = Vec::new();
    for l in lanes {
        bg.add(&traced(l).bg_layers);
        commits.extend_from_slice(&traced(l).req_layers.commit_samples);
    }
    push(
        m,
        "pool.flush_ms",
        ratio(bg.flush_ns as f64, bg.flushes as f64) / 1e6,
        "ms",
        TRACED,
    );
    push(
        m,
        "pool.evictions_per_req",
        per_req(evictions),
        "pages/req",
        src,
    );
    push(
        m,
        "pool.dirty_evictions_per_req",
        per_req(dirty),
        "pages/req",
        src,
    );
    push(
        m,
        "disk.pages_per_read_call",
        ratio(io.pages_read as f64, io.read_calls as f64),
        "pages/call",
        src,
    );
    push(
        m,
        "disk.write_calls_per_req",
        per_req(io.write_calls),
        "calls/req",
        src,
    );
    push(
        m,
        "disk.pages_written_per_req",
        per_req(io.pages_written),
        "pages/req",
        src,
    );
    push(m, "latch.waits_per_req", per_req(waits), "waits/req", src);
    push(
        m,
        "wal.commit_p99_us",
        crate::report::percentile(&mut commits, 0.99) / 1e3,
        "us",
        TRACED,
    );
    push(
        m,
        "wal.commits_per_req",
        per_req(io.commits),
        "commits/req",
        src,
    );
    push(
        m,
        "wal.log_writes_per_commit",
        ratio(io.log_write_calls as f64, io.commits as f64),
        "writes/commit",
        src,
    );
    push(
        m,
        "wal.log_pages_per_commit",
        ratio(io.log_pages_written as f64, io.commits as f64),
        "pages/commit",
        src,
    );
    let recover: Vec<u64> = counted_sides
        .iter()
        .flat_map(|s| s.recover_ns.iter().copied())
        .collect();
    push(
        m,
        "wal.recover_ms",
        ratio(recover.iter().sum::<u64>() as f64, recover.len() as f64) / 1e6,
        "ms",
        src,
    );
    let passes: Vec<_> = lanes
        .iter()
        .flat_map(|l| untraced(l).passes.iter())
        .collect();
    let n = passes.len() as f64;
    let per_pass =
        |f: &dyn Fn(&crate::bench::Pass) -> f64| ratio(passes.iter().map(|p| f(p)).sum(), n);
    push(
        m,
        "placement.pages_read_per_pass",
        per_pass(&|p| p.report.pages_read as f64),
        "pages/pass",
        "untraced serial run",
    );
    push(
        m,
        "placement.pages_written_per_pass",
        per_pass(&|p| p.report.pages_written as f64),
        "pages/pass",
        "untraced serial run",
    );
    push(
        m,
        "placement.db_pages_growth_per_pass",
        per_pass(&|p| p.growth as f64),
        "pages/pass",
        "untraced serial run",
    );
    push(
        m,
        "placement.moved_per_pass",
        per_pass(&|p| p.report.moved as f64),
        "objects/pass",
        "untraced serial run",
    );
    push(
        m,
        "heat.records_per_req",
        per_req(io.heat_records),
        "records/req",
        src,
    );
    push(m, "setup.generate_s", setup.generate_s, "s", "set-up");
    for (i, kind) in MODELS.iter().enumerate() {
        push(
            m,
            format!("setup.load_s.{}", slug(*kind)),
            setup.load_s[i],
            "s",
            "set-up",
        );
    }
    push(m, "setup.warm_s", setup.warm_s, "s", "set-up");
    push(
        m,
        "trace.overhead_frac",
        ratio(traced_ns as f64, plain_ns as f64) - 1.0,
        "frac",
        "traced vs untraced serial run",
    );
    push(m, "trace.span_ns", span_ns, "ns", "calibration");
}
