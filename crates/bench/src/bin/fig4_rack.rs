//! Rack-scale remote-paging sweep on the sharded engine (Fig. 4 class).
//!
//! Scales the paper's remote-memory paging scenario to whole racks —
//! 256 to 1024 hosts, 50–200× the host counts of the chaos and figure
//! harnesses — by running `memory_disaggregation::rack` on the
//! epoch-barrier sharded engine. Every table cell is *virtual* (latency
//! quantiles, fault counts, digests), so the CSV is byte-identical at
//! every `--shards` level and on every machine; wall-clock numbers go
//! only to stderr and to the perf JSON.
//!
//! Modes:
//!
//! * default — host sweep at 256/512/1024, table + `results/fig4_rack.csv`;
//! * `--smoke` — one small scenario, `results/fig4_rack_smoke.csv`; the
//!   stdout of two runs at different `--shards` must byte-match (CI gate);
//! * `--shards N` — worker-thread count (the scenario's logical shard
//!   partition is fixed by its config; this only fans it across threads);
//! * `--perf` — wall-clock scaling measurement at 1 vs 4 workers,
//!   written to `results/BENCH_rack.json`, with each worker thread's
//!   busy / barrier-wait / routing split on stderr; on a 4+ core machine
//!   the 4-worker run must be ≥ 2x faster (exit 1 otherwise; skipped
//!   with a note on smaller machines);
//! * `--check BASELINE` — with `--perf`: fail on a > 3x wall-clock
//!   regression against the named baseline JSON;
//! * `--trace-out FILE` — write the merged shard trace (JSONL) of the
//!   last run;
//! * `--timeline-out FILE` — write the merged per-window metric timeline
//!   (CSV) of the last run.

use memory_disaggregation::rack::{run_rack_timed, RackConfig, RackReport};
use memory_disaggregation::sim::EngineTiming;
use std::fmt::Write as _;
use std::time::Instant;

/// Gross-regression tolerance for `--check`, matching `perf.rs`.
const TOLERANCE: f64 = 3.0;
/// Required parallel speedup at 4 workers on a 4+ core machine.
const REQUIRED_SPEEDUP: f64 = 2.0;

fn usage() -> ! {
    eprintln!(
        "usage: fig4_rack [--smoke] [--shards N] [--perf] [--check BASELINE] [--trace-out FILE] \
         [--timeline-out FILE]"
    );
    std::process::exit(2);
}

fn report_row(table: &mut dmem_bench::Table, r: &RackReport) {
    table.row([
        r.hosts.to_string(),
        r.shards.to_string(),
        r.accesses.to_string(),
        r.hits.to_string(),
        r.remote_reads.to_string(),
        r.writebacks.to_string(),
        r.failovers.to_string(),
        r.probes.to_string(),
        r.cross_messages.to_string(),
        r.epochs.to_string(),
        r.fault_p50_ns.to_string(),
        r.fault_p99_ns.to_string(),
        r.digest.clone(),
    ]);
}

const HEADER: &[&str] = &[
    "hosts",
    "shards",
    "accesses",
    "hits",
    "remote_reads",
    "writebacks",
    "failovers",
    "probes",
    "cross_msgs",
    "epochs",
    "fault_p50_ns",
    "fault_p99_ns",
    "digest",
];

/// Times one run, returning the report, the engine's per-worker
/// host-time split and wall milliseconds.
fn timed(config: &RackConfig, workers: usize) -> (RackReport, EngineTiming, f64) {
    let t0 = Instant::now();
    let (report, timing) = run_rack_timed(config, workers);
    (report, timing, t0.elapsed().as_secs_f64() * 1e3)
}

/// Prints each worker thread's busy / barrier-wait / routing split.
fn print_split(timing: &EngineTiming) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let wall = timing.wall_ns.max(1) as f64;
    eprintln!(
        "rack perf: workers={} engine {:.1} ms, barrier {}",
        timing.workers.len(),
        ms(timing.wall_ns),
        if timing.spinning {
            "spin-then-block"
        } else {
            "block"
        },
    );
    for (i, w) in timing.workers.iter().enumerate() {
        eprintln!(
            "  worker {i}: busy {:.1} ms ({:.0}%), wait {:.1} ms, route {:.1} ms, {} shard-epochs",
            ms(w.busy_ns),
            w.busy_ns as f64 * 100.0 / wall,
            ms(w.wait_ns),
            ms(w.route_ns),
            w.shard_epochs,
        );
    }
}

fn perf_mode(workers_hi: usize, check: Option<&str>) -> i32 {
    let config = {
        let mut c = RackConfig::rack_default(256);
        c.accesses_per_host = 400;
        c
    };
    // Best of two per worker level: absorbs one-off scheduler noise.
    let (base, t1a, w1a) = timed(&config, 1);
    let (_, t1b, w1b) = timed(&config, 1);
    let (hi, tna, wna) = timed(&config, workers_hi);
    let (_, tnb, wnb) = timed(&config, workers_hi);
    let (wall1, split1) = if w1a <= w1b { (w1a, t1a) } else { (w1b, t1b) };
    let (walln, splitn) = if wna <= wnb { (wna, tna) } else { (wnb, tnb) };
    assert_eq!(
        base.csv_row(),
        hi.csv_row(),
        "perf runs must stay byte-identical across worker counts"
    );
    let ratio = wall1 / walln.max(1e-9);
    eprintln!(
        "rack perf: workers=1 {wall1:.1} ms, workers={workers_hi} {walln:.1} ms ({ratio:.2}x)"
    );
    print_split(&split1);
    print_split(&splitn);

    let mut json = String::from("[\n");
    let _ = writeln!(
        json,
        "  {{\"scenario\": \"rack_fabric_workers1\", \"wall_ms\": {wall1:.1}, \"faults_per_s\": {:.0}, \"pages_per_s\": {:.0}}},",
        base.remote_reads as f64 / (wall1 / 1e3).max(1e-9),
        base.accesses as f64 / (wall1 / 1e3).max(1e-9),
    );
    let _ = writeln!(
        json,
        "  {{\"scenario\": \"rack_fabric_workers{workers_hi}\", \"wall_ms\": {walln:.1}, \"faults_per_s\": {:.0}, \"pages_per_s\": {:.0}}}",
        hi.remote_reads as f64 / (walln / 1e3).max(1e-9),
        hi.accesses as f64 / (walln / 1e3).max(1e-9),
    );
    json.push_str("]\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_rack.json", &json).expect("write rack perf json");
    println!("[written results/BENCH_rack.json]");

    let mut failed = false;
    let cores = scoped_pool::available_parallelism();
    if cores >= 4 && workers_hi >= 4 {
        if ratio < REQUIRED_SPEEDUP {
            eprintln!(
                "rack perf: SPEEDUP REGRESSION — {ratio:.2}x < required {REQUIRED_SPEEDUP:.1}x \
                 at {workers_hi} workers on {cores} cores"
            );
            failed = true;
        } else {
            eprintln!("rack perf: speedup gate ok ({ratio:.2}x >= {REQUIRED_SPEEDUP:.1}x)");
        }
    } else {
        eprintln!(
            "rack perf: speedup gate skipped ({cores} cores available, need >= 4)"
        );
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        for (scenario, wall) in [
            ("rack_fabric_workers1", wall1),
            (&format!("rack_fabric_workers{workers_hi}"), walln),
        ] {
            match baseline_wall_ms(&text, scenario) {
                Some(base_ms) => {
                    let factor = wall / base_ms.max(1e-9);
                    let verdict = if factor > TOLERANCE { "REGRESSION" } else { "ok" };
                    println!(
                        "check {scenario}: {wall:.1} ms vs baseline {base_ms:.1} ms (limit {TOLERANCE}x): {verdict}"
                    );
                    failed |= factor > TOLERANCE;
                }
                None => println!("check {scenario}: no baseline entry, skipping"),
            }
        }
    }
    i32::from(failed)
}

/// Pulls one scenario's `wall_ms` out of a `BENCH_rack.json`-shaped file
/// (one object per line, `"scenario"` before `"wall_ms"`).
fn baseline_wall_ms(text: &str, scenario: &str) -> Option<f64> {
    for line in text.lines() {
        if !line.contains(&format!("\"{scenario}\"")) {
            continue;
        }
        let after = &line[line.find("\"wall_ms\"")? + "\"wall_ms\"".len()..];
        let number: String = after
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        return number.parse().ok();
    }
    None
}

fn main() {
    let mut smoke = false;
    let mut perf = false;
    let mut workers: Option<usize> = None;
    let mut check: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut timeline_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--perf" => perf = true,
            "--shards" => {
                workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--timeline-out" => timeline_out = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    if perf {
        let code = perf_mode(workers.unwrap_or(4), check.as_deref());
        std::process::exit(code);
    }

    let workers = workers.unwrap_or_else(dmem_bench::bench_jobs);
    let mut table = dmem_bench::Table::new(
        if smoke {
            "fig4_rack (smoke) — rack-scale remote paging, sharded engine"
        } else {
            "fig4_rack — rack-scale remote paging, sharded engine"
        },
        HEADER,
    );

    let configs: Vec<RackConfig> = if smoke {
        vec![RackConfig::smoke()]
    } else {
        vec![
            RackConfig::rack_default(256),
            RackConfig::rack_default(512),
            RackConfig::rack_default(1024),
        ]
    };

    let mut last: Option<RackReport> = None;
    for config in &configs {
        let (report, _, wall_ms) = timed(config, workers);
        eprintln!(
            "fig4_rack: {} hosts / {} shards done in {wall_ms:.1} ms (workers={workers})",
            report.hosts, report.shards
        );
        report_row(&mut table, &report);
        last = Some(report);
    }
    table.emit(if smoke { "fig4_rack_smoke" } else { "fig4_rack" });

    if let (Some(path), Some(report)) = (trace_out.as_deref(), last.as_ref()) {
        std::fs::write(path, &report.trace_jsonl).expect("write trace jsonl");
        println!("[written {path}]");
    }
    if let (Some(path), Some(report)) = (timeline_out.as_deref(), last.as_ref()) {
        std::fs::write(path, report.timeline.to_csv()).expect("write timeline csv");
        println!("[written {path}]");
    }
}
