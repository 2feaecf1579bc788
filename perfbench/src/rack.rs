//! `rack`: the sharded rack engine (`run_rack`) on fig4_rack's faulted
//! perf scenario, at up to two workers.

use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{fnv1a, mix, Pass, Size, Workload};
use memory_disaggregation::net::ShardFaultSchedule;
use memory_disaggregation::rack::{run_rack, RackConfig, RackReport};
use memory_disaggregation::sim::SimDuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub struct Rack {
    config: RackConfig,
    workers: usize,
    /// Timed walls (s) of traced passes at `workers` and at one worker.
    wall_n: Vec<f64>,
    wall_1: Vec<f64>,
    last: Option<RackReport>,
    outages: usize,
}

impl Rack {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut config = RackConfig::rack_default(256);
        config.accesses_per_host = 400;
        if size == Size::Test {
            config = RackConfig::smoke();
        }
        config.seed = mix(seed, 0x7ac4);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Rack {
            config,
            workers: nproc.min(2),
            wall_n: Vec::new(),
            wall_1: Vec::new(),
            last: None,
            outages: 0,
        }
    }

    /// Runs the rack once; `None` when an invariant check inside the
    /// engine panicked.
    fn timed(&self, workers: usize, rec: &mut Recorder) -> (Option<RackReport>, f64) {
        let open = rec.enter("rack", "run_rack");
        let report = catch_unwind(AssertUnwindSafe(|| run_rack(&self.config, workers))).ok();
        (report, rec.exit(open) as f64 * 1e-9)
    }
}

/// Every simulated statistic of a rack report.
fn digest(report: &RackReport) -> u64 {
    fnv1a(&format!(
        "{} {} {} {}",
        report.csv_row(),
        report.horizon.nanos(),
        report.metrics_line,
        report.timeline.to_csv()
    ))
}

impl Workload for Rack {
    fn pass(&mut self, traced: bool, rec: &mut Recorder) -> Pass {
        // Set-up: the scenario's outage windows. `run_rack` derives the
        // same schedule from the config (seed ^ 0xfa over a horizon of
        // one µs per access); the benchmark generates it up front to know
        // how many hosts go down.
        let t0 = Instant::now();
        self.outages = ShardFaultSchedule::generate(
            self.config.seed ^ 0xfa,
            self.config.hosts,
            SimDuration::from_micros(self.config.accesses_per_host.max(1)),
            self.config.outage_fraction,
        )
        .len();
        let gen_s = t0.elapsed().as_secs_f64();

        let expected = self.config.hosts as u64 * self.config.accesses_per_host;
        let pass_span = rec.enter("bench", "pass");
        let (report, timed_s) = self.timed(self.workers, rec);
        let single = traced.then(|| self.timed(1, rec));
        rec.exit(pass_span);

        let mut pass = Pass {
            gen_s,
            timed_s,
            ops: expected,
            ..Pass::default()
        };
        let Some(report) = report else {
            eprintln!("check failed: run_rack panicked");
            pass.failed = expected;
            return pass;
        };
        // `rack.access.total` also counts accesses that stalled (every
        // replica suspect) and were issued again.
        let stalled: u64 = report
            .metrics_line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("rack.read.stalled="))
            .map_or(0, |v| v.parse().unwrap_or(u64::MAX));
        if report.accesses.checked_sub(stalled) != Some(expected) {
            eprintln!(
                "check failed: rack completed {} accesses ({stalled} stalled) of {expected}",
                report.accesses
            );
            pass.failed = expected;
        }
        pass.sim_s = report.horizon.nanos() as f64 * 1e-9;
        pass.digest = digest(&report);
        if let Some((single, wall_1)) = single {
            if single.as_ref().map(digest) != Some(pass.digest) {
                eprintln!(
                    "check failed: rack digest differs between 1 and {} workers",
                    self.workers
                );
                pass.failed = expected;
            }
            self.wall_n.push(timed_s);
            self.wall_1.push(wall_1);
            self.last = Some(report);
        }
        pass
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        let Some(r) = &self.last else { return };
        let epochs = r.epochs.max(1) as f64;
        m.insert("sim.epochs", r.epochs as f64);
        m.insert("sim.cross_messages", r.cross_messages as f64);
        m.insert(
            "sim.msgs_per_epoch",
            (r.cross_messages + r.local_messages) as f64 / epochs,
        );
        m.insert("sim.host_ns_per_epoch", median(&self.wall_n) * 1e9 / epochs);
        m.insert(
            "sim.parallel_speedup",
            median(&self.wall_1) / median(&self.wall_n),
        );
        m.insert("rack.hit_ratio", r.hits as f64 / r.accesses.max(1) as f64);
        m.insert("rack.remote_reads", r.remote_reads as f64);
        m.insert("rack.writebacks", r.writebacks as f64);
        m.insert("rack.failovers", r.failovers as f64);
    }

    fn threads(&self) -> usize {
        self.workers
    }

    fn sample_notes(&self) -> Vec<(String, String)> {
        vec![
            (
                "sim.parallel_speedup".into(),
                format!("n={} workers={} vs 1", self.wall_n.len(), self.workers),
            ),
            (
                "rack.outages".into(),
                format!("hosts down={}", self.outages),
            ),
        ]
    }
}
