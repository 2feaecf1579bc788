//! `paging`: FastSwap pages the LogisticRegression trace (fig4's hot
//! path) with half the working set resident and overflow going remote.

use crate::dm::{digest_text, CoreLayers};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::{fnv1a, mix, Pass, Size, Workload};
use memory_disaggregation::swap::{build_system_with_pages, EngineStats, SwapScale, SystemKind};
use memory_disaggregation::types::{ByteSize, CompressionMode, DistributionRatio};
use memory_disaggregation::workloads::{catalog, TraceConfig};
use std::time::Instant;

/// Mean page compressibility: fig4's traced 3.0x cell.
const COMPRESS_MEAN: f64 = 3.0;
const COMPRESS_SPREAD: f64 = 0.4;

/// The simulated statistics of one traced pass.
struct Traced {
    stats: EngineStats,
    layers: CoreLayers,
}

pub struct Paging {
    scale: SwapScale,
    fault_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    last: Option<Traced>,
}

impl Paging {
    pub fn new(seed: u64, size: Size) -> Self {
        // fig4 (a): a small shared pool that fills at once and a tight
        // remote pool behind it.
        let mut scale = SwapScale::bench();
        scale.memory_fraction = 0.5;
        scale.shared_donation = 0.25;
        scale.remote_pool = ByteSize::from_mib(1);
        scale.seed = mix(seed, 0x9a61);
        if size == Size::Test {
            scale.working_set_pages = 256;
        }
        Paging {
            scale,
            fault_ns: Vec::new(),
            hit_ns: Vec::new(),
            last: None,
        }
    }
}

impl Workload for Paging {
    fn pass(&mut self, traced: bool, rec: &mut Recorder) -> Pass {
        let t0 = Instant::now();
        let profile = catalog::by_name("LogisticRegression").expect("LogisticRegression profile");
        let trace: Vec<(u64, bool)> =
            TraceConfig::scaled_from(profile, self.scale.working_set_pages)
                .generate(self.scale.seed)
                .map(|a| (a.page.pfn(), a.write))
                .collect();
        let gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let kind = SystemKind::FastSwap {
            ratio: DistributionRatio::FS_SM,
            compression: CompressionMode::FourGranularity,
            pbs: true,
        };
        let mut engine = build_system_with_pages(kind, &self.scale, COMPRESS_MEAN, COMPRESS_SPREAD)
            .expect("the paging cluster configuration is valid");
        let build_s = t1.elapsed().as_secs_f64();
        if traced {
            engine.clock().tracer().enable();
        }

        let mut failed = 0u64;
        let start = engine.now();
        let pass_span = rec.enter("bench", "pass");
        let timer = Instant::now();
        if traced {
            for &(pfn, write) in &trace {
                let faults = engine.stats().major_faults;
                let open = rec.enter("swap", "access");
                let ok = engine.access(pfn, write).is_ok();
                let ns = rec.exit(open) as f64;
                if engine.stats().major_faults > faults {
                    self.fault_ns.push(ns);
                } else {
                    self.hit_ns.push(ns);
                }
                failed += u64::from(!ok);
            }
        } else {
            for &(pfn, write) in &trace {
                failed += u64::from(engine.access(pfn, write).is_err());
            }
        }
        // The final write-back flush: `run` over no accesses.
        let open = rec.enter("swap", "flush");
        let flushed = engine.run(std::iter::empty());
        rec.exit(open);
        let timed_s = timer.elapsed().as_secs_f64();
        rec.exit(pass_span);

        let ops = trace.len() as u64;
        let stats = engine.stats();
        if flushed.is_err() || stats.accesses != ops {
            eprintln!(
                "check failed: paging flush {} with {} of {ops} accesses",
                if flushed.is_ok() { "ok" } else { "failed" },
                stats.accesses
            );
            failed = ops;
        }
        let total = engine.now() - start;
        let dm = engine.cluster().expect("FastSwap runs on a cluster");
        let mut text = format!("{stats:?} completion_ns={}", total.as_nanos());
        digest_text(dm, &mut text);
        if traced {
            engine.clock().tracer().disable();
            let mut layers = CoreLayers::default();
            layers.add(dm, &engine.clock().tracer().finish(), total);
            self.last = Some(Traced { stats, layers });
        }
        Pass {
            gen_s,
            build_s,
            timed_s,
            ops,
            failed,
            sim_s: total.as_secs_f64(),
            digest: fnv1a(&text),
        }
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        let Some(t) = &self.last else { return };
        let faults = Summary::of(&self.fault_ns);
        m.insert("swap.access_fault_ns.p50", faults.p50);
        m.insert("swap.access_fault_ns.ptop", faults.top);
        m.insert("swap.access_hit_ns.p50", Summary::of(&self.hit_ns).p50);
        let kacc = t.stats.accesses as f64 / 1000.0;
        m.insert(
            "swap.major_faults_per_kacc",
            t.stats.major_faults as f64 / kacc,
        );
        m.insert("swap.swap_outs_per_kacc", t.stats.swap_outs as f64 / kacc);
        m.insert(
            "swap.prefetch_hit_ratio",
            t.stats.prefetch_hits as f64 / t.stats.swap_ins.max(1) as f64,
        );
        t.layers.write(m, t.stats.accesses);
    }

    fn sample_notes(&self) -> Vec<(String, String)> {
        let faults = Summary::of(&self.fault_ns);
        let hits = Summary::of(&self.hit_ns);
        vec![
            (
                "swap.access_fault_ns".into(),
                format!("n={} ptop=p{}", faults.n, faults.top_p),
            ),
            ("swap.access_hit_ns".into(), format!("n={}", hits.n)),
        ]
    }
}
