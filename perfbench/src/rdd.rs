//! `rdd_spill`: fig10's iterative jobs at the medium dataset size on the
//! DAHI spill tier, driven through `BlockManager::put/get` on a
//! disaggregated-memory cluster the benchmark builds itself.

use crate::dm::{digest_text, CoreLayers};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::{fnv1a, mix, Pass, Size, Workload};
use memory_disaggregation::core::DisaggregatedMemory;
use memory_disaggregation::rdd::job::executor_capacity;
use memory_disaggregation::rdd::{
    BlockId, BlockManager, BlockStats, DatasetSize, JobSpec, Rdd, Record, SpillBackend,
};
use memory_disaggregation::sim::CostModel;
use memory_disaggregation::types::{ByteSize, ClusterConfig, DonationPolicy};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Order-sensitive checksum of a partition's records.
fn checksum(records: &[Record]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    fold(records.len() as u64);
    for r in records {
        fold(r.key);
        fold(r.values.len() as u64);
        for v in &r.values {
            fold(v.to_bits());
        }
    }
    h
}

/// fig10's DAHI cluster: six nodes with a well-provisioned shared pool.
fn dahi_cluster(seed: u64) -> DisaggregatedMemory {
    let mut config = ClusterConfig::small();
    config.nodes = 6;
    config.group_size = 6;
    config.server.memory = ByteSize::from_mib(8);
    config.server.donation = DonationPolicy::fixed(0.4);
    config.node.dram = ByteSize::from_mib(128);
    config.node.recv_pool = ByteSize::from_mib(32);
    config.seed = seed;
    DisaggregatedMemory::new(config).expect("the DAHI cluster configuration is valid")
}

/// Per-layer statistics of one traced pass, summed over its jobs.
#[derive(Default)]
struct Traced {
    cache: BlockStats,
    layers: CoreLayers,
    ops: u64,
}

pub struct RddSpill {
    jobs: Vec<JobSpec>,
    size: DatasetSize,
    put_ns: Vec<f64>,
    get_mem_ns: Vec<f64>,
    get_spill_ns: Vec<f64>,
    last: Option<Traced>,
}

impl RddSpill {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut jobs = JobSpec::fig10_suite();
        for (i, job) in jobs.iter_mut().enumerate() {
            job.seed = mix(seed, 0x0dd0 + i as u64);
            if size == Size::Test {
                job.base_records = 200;
                job.iterations = 2;
            }
        }
        if size == Size::Test {
            jobs.truncate(1);
        }
        RddSpill {
            jobs,
            size: DatasetSize::Medium,
            put_ns: Vec::new(),
            get_mem_ns: Vec::new(),
            get_spill_ns: Vec::new(),
            last: None,
        }
    }
}

impl Workload for RddSpill {
    fn pass(&mut self, traced: bool, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let mut text = String::new();
        let mut layer = Traced::default();
        for (index, spec) in self.jobs.clone().iter().enumerate() {
            // Set-up: the dataset's partitions and their checksums, then
            // the cluster and the executor's block manager.
            let t0 = Instant::now();
            // Partitions are skewed by up to 2% fewer records, drawn from
            // the seed, so the seed shapes the dataset and not only its
            // values.
            let full = spec.base_records * self.size.scale();
            let (seed, width) = (spec.seed, spec.values_per_record);
            let dataset = Rdd::source(spec.partitions, seed, move |p, rng| {
                let skew = mix(seed, p as u64) % (full as u64 / 50 + 1);
                (0..full - skew as usize)
                    .map(|i| {
                        let values = (0..width).map(|_| rng.unit()).collect();
                        Record::new((p * full + i) as u64, values)
                    })
                    .collect()
            });
            let no_cache = |_: u64, _: usize| None;
            let mut parts: Vec<Vec<Record>> = (0..spec.partitions)
                .map(|p| dataset.compute(p, &no_cache))
                .collect();
            let sums: Vec<u64> = parts.iter().map(|r| checksum(r)).collect();
            let gen_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let dm = Arc::new(dahi_cluster(spec.seed));
            let server = dm.servers()[0];
            let clock = dm.clock().clone();
            let cost = CostModel::paper_default();
            let backend = SpillBackend::Dahi {
                dm: Arc::clone(&dm),
                server,
            };
            let mut bm = BlockManager::new(executor_capacity(spec), clock.clone(), cost, backend);
            pass.build_s += t1.elapsed().as_secs_f64();
            pass.gen_s += gen_s;
            if traced {
                clock.tracer().enable();
            }

            // Timed phase: materialize, then read every partition each
            // iteration. Virtual compute is charged as fig10 does; the
            // checksum comparison is host time outside the layer calls.
            let start = clock.now();
            let rdd = index as u64 + 1;
            let pass_span = rec.enter("bench", "pass");
            for (p, part) in parts.drain(..).enumerate() {
                clock.advance(spec.compute_per_record * part.len() as u64);
                let open = rec.enter("rdd", "put");
                let put = bm.put(BlockId::new(rdd, p), part);
                let ns = rec.exit(open);
                pass.timed_s += ns as f64 * 1e-9;
                pass.ops += 1;
                match put {
                    Ok(r) if checksum(&r) == sums[p] => {}
                    _ => {
                        eprintln!("check failed: put of {}/{p} in {}", rdd, spec.name);
                        pass.failed += 1;
                    }
                }
                if traced {
                    self.put_ns.push(ns as f64);
                }
            }
            for _ in 0..spec.iterations {
                for (p, &sum) in sums.iter().enumerate() {
                    let spills = bm.stats().spill_hits;
                    let open = rec.enter("rdd", "get");
                    let got = bm.get(BlockId::new(rdd, p));
                    let ns = rec.exit(open);
                    pass.timed_s += ns as f64 * 1e-9;
                    pass.ops += 1;
                    match got {
                        Ok(Some(r)) if checksum(&r) == sum => {
                            clock.advance(spec.compute_per_record * r.len() as u64);
                        }
                        _ => {
                            eprintln!("check failed: read of {rdd}/{p} in {}", spec.name);
                            pass.failed += 1;
                        }
                    }
                    if traced {
                        if bm.stats().spill_hits > spills {
                            self.get_spill_ns.push(ns as f64);
                        } else {
                            self.get_mem_ns.push(ns as f64);
                        }
                    }
                }
                // The driver-side reduce: one cache-line-scale DRAM access.
                clock.advance(cost.dram.transfer(width * 8));
            }
            rec.exit(pass_span);

            let completion = clock.now() - start;
            pass.sim_s += completion.as_secs_f64();
            let cache = bm.stats();
            let _ = write!(
                text,
                "{} {cache:?} completion_ns={} ",
                spec.name,
                completion.as_nanos()
            );
            digest_text(&dm, &mut text);
            if traced {
                clock.tracer().disable();
                layer.layers.add(&dm, &clock.tracer().finish(), completion);
                layer.cache.memory_hits += cache.memory_hits;
                layer.cache.spill_hits += cache.spill_hits;
                layer.cache.misses += cache.misses;
                layer.cache.spills += cache.spills;
                layer.cache.evictions += cache.evictions;
            }
        }
        if traced {
            layer.ops = pass.ops;
            self.last = Some(layer);
        }
        pass.digest = fnv1a(&text);
        pass
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        let Some(t) = &self.last else { return };
        let spill = Summary::of(&self.get_spill_ns);
        let put = Summary::of(&self.put_ns);
        m.insert("rdd.get_spill_ns.p50", spill.p50);
        m.insert("rdd.get_spill_ns.ptop", spill.top);
        m.insert("rdd.get_mem_ns.p50", Summary::of(&self.get_mem_ns).p50);
        m.insert("rdd.put_ns.p50", put.p50);
        m.insert("rdd.put_ns.ptop", put.top);
        let reads = t.cache.memory_hits + t.cache.spill_hits;
        m.insert(
            "rdd.spill_hit_ratio",
            t.cache.spill_hits as f64 / reads.max(1) as f64,
        );
        m.insert("rdd.spills", t.cache.spills as f64);
        m.insert("rdd.evictions", t.cache.evictions as f64);
        t.layers.write(m, t.ops);
    }

    fn sample_notes(&self) -> Vec<(String, String)> {
        let note = |v: &[f64]| {
            let s = Summary::of(v);
            format!("n={} ptop=p{}", s.n, s.top_p)
        };
        vec![
            ("rdd.get_spill_ns".into(), note(&self.get_spill_ns)),
            ("rdd.get_mem_ns".into(), note(&self.get_mem_ns)),
            ("rdd.put_ns".into(), note(&self.put_ns)),
        ]
    }
}
