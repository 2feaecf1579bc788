//! Host-time benchmark of the memory-disaggregation simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paging --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload (`paging`, `rdd_spill`, `rack`)
//! for `--seconds` seconds as a sequence of passes. Every pass rebuilds
//! its inputs and its simulated system from empty, runs the timed phase
//! and checks the outputs; all passes of a run see the same inputs, so
//! every simulated statistic must repeat exactly from pass to pass.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics.
//! With `--trace 1` the run splits its time between untraced passes and
//! traced passes (host spans around each layer call plus the simulator's
//! own virtual-time tracer) and the last line carries the per-layer
//! metrics. The line before it, `{"bench_meta": ...}`, records the host,
//! the build, the seed, the simulated results and their digest. The exit
//! code is 1 when an output check failed and 2 on a usage error.

mod calib;
mod dm;
mod paging;
mod rack;
mod rdd;
mod report;
mod spans;
mod stats;

use calib::Calibrator;
use report::{Class, Metrics, Outcome};
use spans::Recorder;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of set-up spent generating the inputs.
    pub gen_s: f64,
    /// Host seconds of set-up spent building the simulated cluster or
    /// engine.
    pub build_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Workload operations completed in the timed phase.
    pub ops: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Simulated completion time of the pass, in seconds.
    pub sim_s: f64,
    /// Digest over every simulated statistic of the pass.
    pub digest: u64,
}

/// A workload the benchmark drives.
pub trait Workload {
    /// Runs one pass from empty. `traced` turns on the per-call host
    /// spans and the simulator's virtual-time tracer and makes the pass
    /// feed [`Workload::layer_metrics`].
    fn pass(&mut self, traced: bool, rec: &mut Recorder) -> Pass;

    /// Per-layer metrics gathered over the traced passes so far.
    fn layer_metrics(&mut self, m: &mut Metrics);

    /// Threads the timed phase uses.
    fn threads(&self) -> usize {
        1
    }

    /// Sample counts and percentiles behind the reported tails, as
    /// `name -> "n=.. p=.."` notes.
    fn sample_notes(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

/// Problem size: the benchmark's own, or a tiny one for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size `BENCHMARK.json` describes.
    Bench,
    /// Seconds-scale inputs for `cargo test`.
    Test,
}

/// Builds the named workload for `seed`.
pub fn workload(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paging" => Box::new(paging::Paging::new(seed, size)),
        "rdd_spill" => Box::new(rdd::RddSpill::new(seed, size)),
        "rack" => Box::new(rack::Rack::new(seed, size)),
        _ => return None,
    })
}

/// FNV-1a over `text`: the digest every workload folds its simulated
/// statistics into.
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// SplitMix64 step: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs passes until `budget` has elapsed and at least `min` passes ran,
/// sampling host speed before each. Also returns the process's memory
/// high-water mark after the first pass.
fn passes(
    w: &mut dyn Workload,
    traced: bool,
    rec: &mut Recorder,
    calib: &mut Calibrator,
    budget: Duration,
    min: usize,
) -> (Vec<Pass>, Option<f64>) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut first_rss = None;
    while out.len() < min || start.elapsed() < budget {
        // Traced passes are stored whole until the span cap is reached.
        rec.set_keep(traced && rec.spans().len() < spans::SPAN_CAP);
        calib.sample();
        out.push(w.pass(traced, rec));
        if out.len() == 1 {
            first_rss = peak_rss_mib();
        }
    }
    (out, first_rss)
}

/// Fails every pass whose simulated results differ from the first
/// pass's: the same inputs must give the same simulation.
fn check_repeatable(all: &mut [&mut Pass]) {
    let Some((first, rest)) = all.split_first_mut() else {
        return;
    };
    for p in rest {
        if p.digest != first.digest || p.sim_s != first.sim_s {
            eprintln!(
                "check failed: simulated results changed between passes \
                 (digest {:016x} vs {:016x}, sim {} s vs {} s)",
                first.digest, p.digest, first.sim_s, p.sim_s
            );
            p.failed = p.ops;
        }
    }
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn medians(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Everything one run produced.
pub struct RunResult {
    /// Counts and metrics.
    pub outcome: Outcome,
    /// The first pass's simulated completion time (s).
    pub sim_s: f64,
    /// The first pass's simulation digest.
    pub digest: u64,
    /// Host speed relative to the calibration reference.
    pub host_speed: f64,
    /// Calibration kernel runs behind `host_speed`.
    pub calib_samples: usize,
    /// Unscaled host-time end-to-end values.
    pub raw: Vec<(&'static str, f64)>,
    /// Passes run, untraced and traced.
    pub passes: (usize, usize),
    /// Threads the timed phase used.
    pub threads: usize,
    /// Sample-count notes for the reported tails.
    pub notes: Vec<(String, String)>,
    /// Stored host spans as JSONL (traced runs).
    pub spans_jsonl: String,
}

/// Runs `w` for `seconds`: untraced passes only, or (with `trace`) a
/// share of untraced passes followed by traced ones.
pub fn run(w: &mut dyn Workload, seconds: f64, trace: bool) -> RunResult {
    let mut rec = Recorder::new(false);
    let mut calib = Calibrator::default();
    let budget = Duration::from_secs_f64(seconds);
    let (mut plain, rss) = passes(
        w,
        false,
        &mut rec,
        &mut calib,
        budget.mul_f64(if trace { 0.35 } else { 1.0 }),
        3,
    );
    let (mut traced, _) = if trace {
        passes(w, true, &mut rec, &mut calib, budget.mul_f64(0.65), 2)
    } else {
        (Vec::new(), None)
    };
    let mut all: Vec<&mut Pass> = plain.iter_mut().chain(traced.iter_mut()).collect();
    check_repeatable(&mut all);
    let first = all[0].clone();
    let attempted = all.iter().map(|p| p.ops).sum();
    let failed = all.iter().map(|p| p.failed).sum();
    let host_speed = calib.speed();
    let mut raw = Vec::new();

    let mut metrics = Metrics::new();
    if trace {
        let overhead = medians(&traced, |p| p.timed_s) / medians(&plain, |p| p.timed_s);
        let every: Vec<Pass> = plain.iter().chain(&traced).cloned().collect();
        metrics.insert("bench.trace_overhead_ratio", overhead);
        metrics.insert("workloads.gen_s", medians(&every, |p| p.gen_s));
        if every.iter().any(|p| p.build_s > 0.0) {
            metrics.insert("core.build_s", medians(&every, |p| p.build_s));
        }
        // Host self time per layer, as a share of the traced passes'
        // timed phases (the root `bench` spans).
        let spans = rec.spans();
        let root_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        for (layer, ns) in spans::self_by_layer(spans) {
            let name = match layer {
                "bench" => "bench.host_self_share",
                "swap" => "swap.host_self_share",
                "rdd" => "rdd.host_self_share",
                "rack" => "rack.host_self_share",
                _ => continue,
            };
            metrics.insert(name, ns as f64 / root_ns.max(1) as f64);
        }
        w.layer_metrics(&mut metrics);
    } else {
        // Host-time metrics are scaled to the reference host speed.
        let setup_s = medians(&plain, |p| p.gen_s + p.build_s);
        metrics.insert("setup_s", setup_s * host_speed);
        let mut rates: Vec<f64> = plain.iter().map(|p| p.ops as f64 / p.timed_s).collect();
        rates.sort_by(f64::total_cmp);
        eprintln!(
            "ops_per_s over {} passes: min {:.1} p25 {:.1} median {:.1} p75 {:.1} max {:.1}",
            rates.len(),
            rates[0],
            stats::percentile(&rates, 25.0),
            stats::percentile(&rates, 50.0),
            stats::percentile(&rates, 75.0),
            rates[rates.len() - 1]
        );
        let ops_per_s = stats::median(&rates);
        metrics.insert("ops_per_s", ops_per_s / host_speed);
        raw = vec![("setup_s", setup_s), ("ops_per_s", ops_per_s)];
        metrics.insert("sim_completion_s", first.sim_s);
        if let Some(rss) = rss {
            metrics.insert("peak_rss_mib", rss);
        }
    }
    RunResult {
        outcome: Outcome {
            attempted,
            failed,
            metrics,
        },
        sim_s: first.sim_s,
        digest: first.digest,
        host_speed,
        calib_samples: calib.samples(),
        raw,
        passes: (plain.len(), traced.len()),
        threads: w.threads(),
        notes: w.sample_notes(),
        spans_jsonl: if trace { rec.to_jsonl() } else { String::new() },
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paging|rdd_spill|rack> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn meta_line(args: &Args, result: &RunResult) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = String::new();
    for (name, note) in &result.notes {
        if !notes.is_empty() {
            notes.push_str(", ");
        }
        let _ = write!(notes, "\"{name}\": \"{note}\"");
    }
    let mut raw = String::new();
    for (name, value) in &result.raw {
        let _ = write!(raw, "\"raw_{name}\": {value}, ");
    }
    format!(
        "{{\"bench_meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"passes_untraced\": {}, \"passes_traced\": {}, \"host_speed\": {}, \"calib_samples\": {}, {raw}\
         \"sim_completion_s\": {}, \"sim_digest\": \"{:016x}\", \"samples\": {{{notes}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        result.threads,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        result.passes.0,
        result.passes.1,
        result.host_speed,
        result.calib_samples,
        result.sim_s,
        result.digest,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = workload(&args.workload, args.seed, Size::Bench) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = run(w.as_mut(), args.seconds, args.trace);
    let class = if args.trace {
        Class::Layer
    } else {
        Class::EndToEnd
    };
    let line = match report::result_line(&args.workload, class, &result.outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &result.outcome.metrics {
        if let Some(s) = report::find(name).filter(|s| s.class == class) {
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            eprintln!(
                "{name:<34} {value:>18.6} {:<6} ({better} is better)",
                s.unit
            );
        }
    }
    eprintln!(
        "attempted {} failed {}",
        result.outcome.attempted, result.outcome.failed
    );
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.jsonl", args.workload, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &result.spans_jsonl))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", meta_line(&args, &result));
    println!("{line}");
    if result.outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::CATALOG;

    /// Every metric the catalog assigns to a workload is measured by
    /// that workload's own run, in the run class that emits it.
    #[test]
    fn every_metric_is_emitted_for_its_workloads() {
        for name in report::WORKLOADS {
            for trace in [false, true] {
                let mut w = workload(name, 7, Size::Test).expect("known workload");
                let result = run(w.as_mut(), 0.01, trace);
                let class = if trace { Class::Layer } else { Class::EndToEnd };
                assert_eq!(result.outcome.failed, 0, "{name}: output checks failed");
                assert!(result.outcome.attempted > 0, "{name}: nothing attempted");
                for s in CATALOG.iter().filter(|s| s.class == class) {
                    if s.workloads.contains(&name) {
                        let value = result.outcome.metrics.get(s.name);
                        assert!(
                            value.is_some(),
                            "{name} (trace={trace}) did not measure {}",
                            s.name
                        );
                        if class == Class::EndToEnd {
                            assert!(value > Some(&0.0), "{name}: {} reads 0", s.name);
                        }
                    }
                }
                report::result_line(name, class, &result.outcome).expect("complete result line");
            }
        }
    }

    /// The traced run leaves the simulation untouched: its digest and
    /// simulated time equal the untraced run's.
    #[test]
    fn tracing_leaves_simulated_results_unchanged() {
        for name in report::WORKLOADS {
            let mut plain = workload(name, 3, Size::Test).unwrap();
            let mut traced = workload(name, 3, Size::Test).unwrap();
            let mut rec = Recorder::new(true);
            let a = plain.pass(false, &mut rec);
            let b = traced.pass(true, &mut rec);
            assert_eq!(a.digest, b.digest, "{name}");
            assert_eq!(a.sim_s, b.sim_s, "{name}");
            assert!(a.sim_s > 0.0, "{name}: no simulated time");
        }
    }

    /// Every workload's seed reaches its inputs.
    #[test]
    fn seeds_change_inputs() {
        for name in report::WORKLOADS {
            let mut rec = Recorder::new(false);
            let a = workload(name, 1, Size::Test).unwrap().pass(false, &mut rec);
            let b = workload(name, 2, Size::Test).unwrap().pass(false, &mut rec);
            assert_ne!(a.digest, b.digest, "{name}: seed has no effect");
        }
    }

    /// `BENCHMARK.json` lists exactly the catalog's metrics, with the
    /// same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        use memory_disaggregation::sim::jsonlite::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("valid JSON");
        let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or_else(|| panic!("missing {k}"));
        let mut listed = Vec::new();
        for (key, class) in [("end_to_end", Class::EndToEnd), ("per_layer", Class::Layer)] {
            for m in field(&doc, key).as_array().expect("array") {
                let name = field(m, "name").as_str().unwrap().to_string();
                let s = report::find(&name).unwrap_or_else(|| panic!("{name} not in catalog"));
                assert_eq!(s.class, class, "{name}");
                assert_eq!(field(m, "unit").as_str().unwrap(), s.unit, "{name}");
                let better = field(m, "better").as_str().unwrap().to_string();
                assert_eq!(better == "higher", s.higher_is_better, "{name}");
                listed.push(name);
            }
        }
        let catalog: Vec<String> = CATALOG.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(listed, catalog);
        let workloads: Vec<String> = field(&doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| field(w, "name").as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, report::WORKLOADS);
    }
}
