//! The core, node, compress and net layers seen through a
//! `DisaggregatedMemory`: its counter registries and the attribution of
//! its virtual-time trace. Shared by the two workloads that enter them.

use crate::report::Metrics;
use memory_disaggregation::core::DisaggregatedMemory;
use memory_disaggregation::sim::{MetricsRegistry, SimDuration, Trace};
use std::collections::BTreeSet;
use std::fmt::Write as _;

const CORE_COUNTERS: [&str; 3] = [
    "core.put.shared",
    "core.put.remote_batched",
    "core.put.disk",
];
const NODE_COUNTERS: [&str; 2] = ["node.put.shared", "node.put.overflow"];
const NET_COUNTERS: [&str; 6] = [
    "net.read.ops",
    "net.write.ops",
    "net.send.ops",
    "net.read.bytes",
    "net.write.bytes",
    "net.send.bytes",
];

/// Layer statistics summed over one or more clusters.
#[derive(Default)]
pub struct CoreLayers {
    counters: Metrics,
    /// Virtual self time (µs) of the `core`, `compress` and `net` spans.
    sim_self_us: [f64; 3],
    compress_ops: u64,
}

impl CoreLayers {
    /// Adds `dm`'s counters and the attribution of `trace`, the cluster's
    /// finished virtual-time trace over a run of `total`.
    pub fn add(&mut self, dm: &DisaggregatedMemory, trace: &Trace, total: SimDuration) {
        self.add_counters(dm.metrics(), &CORE_COUNTERS);
        let nodes: BTreeSet<_> = dm.servers().iter().map(|s| s.node()).collect();
        for node in nodes {
            self.add_counters(dm.node_manager(node).metrics(), &NODE_COUNTERS);
        }
        self.add_counters(dm.fabric().metrics(), &NET_COUNTERS);
        let attr = trace.attribution(total);
        for (acc, category) in self.sim_self_us.iter_mut().zip(["core", "compress", "net"]) {
            *acc += attr.category_ns(category) as f64 / 1e3;
        }
        self.compress_ops += attr
            .rows
            .iter()
            .filter(|r| r.category == "compress")
            .map(|r| r.count)
            .sum::<u64>();
    }

    fn add_counters(&mut self, registry: &MetricsRegistry, names: &[&'static str]) {
        let snapshot = registry.counter_snapshot();
        for &name in names {
            let v = snapshot
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v);
            *self.counters.entry(name).or_insert(0.0) += v as f64;
        }
    }

    /// Writes the per-layer metrics, counts normalised per 1000 of the
    /// workload's `ops` operations.
    pub fn write(&self, m: &mut Metrics, ops: u64) {
        let c = |name: &str| self.counters.get(name).copied().unwrap_or(0.0);
        let kops = ops as f64 / 1000.0;
        m.insert("core.put.shared_per_kop", c("core.put.shared") / kops);
        m.insert(
            "core.put.remote_batched_per_kop",
            c("core.put.remote_batched") / kops,
        );
        m.insert("core.put.disk_per_kop", c("core.put.disk") / kops);
        let node_puts = c("node.put.shared") + c("node.put.overflow");
        m.insert(
            "node.put.overflow_ratio",
            c("node.put.overflow") / node_puts.max(1.0),
        );
        m.insert("core.sim_self_us", self.sim_self_us[0]);
        m.insert("compress.sim_self_us", self.sim_self_us[1]);
        m.insert("net.sim_self_us", self.sim_self_us[2]);
        m.insert("compress.ops_per_kacc", self.compress_ops as f64 / kops);
        let net_ops = c("net.read.ops") + c("net.write.ops") + c("net.send.ops");
        let net_bytes = c("net.read.bytes") + c("net.write.bytes") + c("net.send.bytes");
        m.insert("net.ops_per_kacc", net_ops / kops);
        m.insert("net.bytes_per_access", net_bytes / ops as f64);
    }
}

/// Appends `dm`'s tier census and every counter of its core and fabric
/// registries, as text for the simulation digest.
pub fn digest_text(dm: &DisaggregatedMemory, out: &mut String) {
    let _ = write!(out, "{:?}", dm.stats());
    for (k, v) in dm.metrics().counter_snapshot() {
        let _ = write!(out, " {k}={v}");
    }
    for (k, v) in dm.fabric().metrics().counter_snapshot() {
        let _ = write!(out, " {k}={v}");
    }
}
