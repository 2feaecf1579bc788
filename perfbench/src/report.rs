//! The metric catalog and the result line.
//!
//! Every metric the benchmark can emit is declared here with its unit,
//! its class (end-to-end or per-layer), which way is better, and the
//! workloads it belongs to. A run emits every metric of its class: a
//! per-layer metric of a layer the workload bypasses reads 0, which is
//! the "no change" prediction for that pairing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paging", "rdd_spill", "rack"];

const ALL: &[&str] = &WORKLOADS;
const PAGING: &[&str] = &["paging"];
const RDD: &[&str] = &["rdd_spill"];
const RACK: &[&str] = &["rack"];
const CORE_USERS: &[&str] = &["paging", "rdd_spill"];

/// End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Emitted with `--trace 0`.
    EndToEnd,
    /// Emitted with `--trace 1`.
    Layer,
}

/// One catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which run emits it.
    pub class: Class,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Workloads whose runs measure it (others report 0).
    pub workloads: &'static [&'static str],
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    class: Class,
    higher_is_better: bool,
    workloads: &'static [&'static str],
) -> Spec {
    Spec {
        name,
        unit,
        class,
        higher_is_better,
        workloads,
    }
}

use Class::{EndToEnd as E2E, Layer};

/// Every metric, end-to-end first.
pub const CATALOG: &[Spec] = &[
    spec("setup_s", "s", E2E, false, ALL),
    spec("peak_rss_mib", "MiB", E2E, false, ALL),
    spec("ops_per_s", "1/s", E2E, true, ALL),
    spec("sim_completion_s", "s", E2E, false, ALL),
    // dmem-swap
    spec("swap.access_fault_ns.p50", "ns", Layer, false, PAGING),
    spec("swap.access_fault_ns.ptop", "ns", Layer, false, PAGING),
    spec("swap.access_hit_ns.p50", "ns", Layer, false, PAGING),
    spec("swap.major_faults_per_kacc", "count", Layer, false, PAGING),
    spec("swap.swap_outs_per_kacc", "count", Layer, false, PAGING),
    spec("swap.prefetch_hit_ratio", "ratio", Layer, true, PAGING),
    spec("swap.host_self_share", "ratio", Layer, false, PAGING),
    // dmem-core / dmem-node
    spec("core.put.shared_per_kop", "count", Layer, true, CORE_USERS),
    spec(
        "core.put.remote_batched_per_kop",
        "count",
        Layer,
        false,
        CORE_USERS,
    ),
    spec("core.put.disk_per_kop", "count", Layer, false, CORE_USERS),
    spec("node.put.overflow_ratio", "ratio", Layer, false, CORE_USERS),
    spec("core.sim_self_us", "us", Layer, false, CORE_USERS),
    spec("core.build_s", "s", Layer, false, CORE_USERS),
    // dmem-compress
    spec("compress.ops_per_kacc", "count", Layer, false, CORE_USERS),
    spec("compress.sim_self_us", "us", Layer, false, CORE_USERS),
    // dmem-net
    spec("net.ops_per_kacc", "count", Layer, false, CORE_USERS),
    spec("net.bytes_per_access", "B", Layer, false, CORE_USERS),
    spec("net.sim_self_us", "us", Layer, false, CORE_USERS),
    // dmem-rdd
    spec("rdd.get_spill_ns.p50", "ns", Layer, false, RDD),
    spec("rdd.get_spill_ns.ptop", "ns", Layer, false, RDD),
    spec("rdd.get_mem_ns.p50", "ns", Layer, false, RDD),
    spec("rdd.put_ns.p50", "ns", Layer, false, RDD),
    spec("rdd.put_ns.ptop", "ns", Layer, false, RDD),
    spec("rdd.spill_hit_ratio", "ratio", Layer, false, RDD),
    spec("rdd.spills", "count", Layer, false, RDD),
    spec("rdd.evictions", "count", Layer, false, RDD),
    spec("rdd.host_self_share", "ratio", Layer, false, RDD),
    // dmem-sim shard engine and rack
    spec("sim.epochs", "count", Layer, false, RACK),
    spec("sim.cross_messages", "count", Layer, false, RACK),
    spec("sim.msgs_per_epoch", "count", Layer, true, RACK),
    spec("sim.host_ns_per_epoch", "ns", Layer, false, RACK),
    spec("sim.parallel_speedup", "ratio", Layer, true, RACK),
    spec("rack.hit_ratio", "ratio", Layer, true, RACK),
    spec("rack.remote_reads", "count", Layer, false, RACK),
    spec("rack.writebacks", "count", Layer, false, RACK),
    spec("rack.failovers", "count", Layer, false, RACK),
    spec("rack.host_self_share", "ratio", Layer, false, RACK),
    // set-up and the harness itself
    spec("workloads.gen_s", "s", Layer, false, ALL),
    spec("bench.trace_overhead_ratio", "ratio", Layer, false, ALL),
    spec("bench.host_self_share", "ratio", Layer, false, ALL),
];

/// Looks up a catalog entry.
pub fn find(name: &str) -> Option<&'static Spec> {
    CATALOG.iter().find(|s| s.name == name)
}

/// Metric values a run measured, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Measured values, both classes.
    pub metrics: Metrics,
}

/// Renders the result line for `class`: every catalog metric of that
/// class, with the workload's measured value or 0 for a layer the
/// workload bypasses.
///
/// # Errors
///
/// Returns the name of a metric that is missing for its own workload or
/// is not a finite number.
pub fn result_line(workload: &str, class: Class, outcome: &Outcome) -> Result<String, String> {
    let mut body = String::new();
    for s in CATALOG.iter().filter(|s| s.class == class) {
        let value = match outcome.metrics.get(s.name) {
            Some(&v) => v,
            None if s.workloads.contains(&workload) => {
                return Err(format!("{} not measured on {workload}", s.name));
            }
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", s.name));
        }
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `true` for a valid metric or workload name: starts with a letter or
    /// digit, at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `true` for a valid unit: 1-16 of letters, digits, `_`, `/`, `%`, `.`
    /// and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_charset() {
        let mut seen = BTreeSet::new();
        for s in CATALOG {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(!s.workloads.is_empty(), "{} belongs to no workload", s.name);
            for w in s.workloads {
                assert!(
                    WORKLOADS.contains(w),
                    "{} names unknown workload {w}",
                    s.name
                );
            }
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(valid_unit("1/s"));
    }

    #[test]
    fn result_line_fills_bypassed_layers_and_rejects_gaps() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Metrics::new(),
        };
        for s in CATALOG.iter().filter(|s| s.class == Class::Layer) {
            if s.workloads.contains(&"rack") {
                outcome.metrics.insert(s.name, 1.5);
            }
        }
        let line = result_line("rack", Class::Layer, &outcome).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"sim.epochs\": {\"value\": 1.5, \"unit\": \"count\"}"));
        assert!(
            line.contains("\"swap.major_faults_per_kacc\": {\"value\": 0, \"unit\": \"count\"}")
        );
        assert!(result_line("paging", Class::Layer, &outcome).is_err());
        outcome.metrics.insert("sim.epochs", f64::NAN);
        assert!(result_line("rack", Class::Layer, &outcome).is_err());
    }
}
