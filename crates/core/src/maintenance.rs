//! Background maintenance: the periodic coordination work the paper's
//! architecture assumes is "monitored" and handled "preemptively"
//! (§IV-F) — run here as discrete events on the virtual clock.
//!
//! A [`Maintenance`] driver owns a schedule of recurring tasks:
//!
//! * **repair scans** re-replicate degraded remote entries (§IV-D's
//!   triple modularity is an invariant, not a one-shot property);
//! * **eviction scans** run the remote slab eviction handler so hosts
//!   whose pools run hot get their DRAM back (§IV-F);
//! * **advertisement refreshes** re-publish free-memory gauges so
//!   placement and election act on fresh data.
//!
//! Drive it with [`Maintenance::run_until`]: the driver advances the
//! shared clock to each due task, performs it, and reschedules — exactly
//! like a timer wheel in the real system's node agent.

use crate::system::DisaggregatedMemory;
use dmem_cluster::{Placer, RemoteSlabEvictor};
use dmem_sim::{EventQueue, SimDuration, SimInstant};
use dmem_types::{ByteSize, DmemResult};
use std::sync::Arc;

/// Intervals for the recurring tasks. Zero disables a task.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// How often degraded replica sets are repaired.
    pub repair_interval: SimDuration,
    /// How often the eviction handler scans for pressured hosts.
    pub eviction_interval: SimDuration,
    /// How often free-memory advertisements are refreshed.
    pub advertise_interval: SimDuration,
    /// How often balloon advice (§IV-F policies) is applied.
    pub balloon_interval: SimDuration,
    /// Donation-fraction step applied per balloon adjustment.
    pub balloon_step: f64,
    /// How often the QoS controller ticks. Only scheduled when a QoS
    /// engine is installed on the cluster, so QoS-disabled runs execute
    /// an identical event sequence to pre-QoS builds.
    pub qos_interval: SimDuration,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            repair_interval: SimDuration::from_millis(100),
            eviction_interval: SimDuration::from_millis(50),
            advertise_interval: SimDuration::from_millis(10),
            balloon_interval: SimDuration::from_millis(200),
            balloon_step: 0.05,
            qos_interval: SimDuration::from_millis(200),
        }
    }
}

/// What a maintenance window accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaintenanceReport {
    /// Repair scans run.
    pub repair_scans: u64,
    /// Entries re-replicated.
    pub repaired_entries: u64,
    /// Eviction scans run.
    pub eviction_scans: u64,
    /// Entries migrated by eviction.
    pub evicted_entries: u64,
    /// Capacity handed back to pressured hosts.
    pub reclaimed: ByteSize,
    /// Advertisement refreshes run.
    pub advertise_refreshes: u64,
    /// Balloon adjustments applied (donations shrunk for pressured
    /// servers, §IV-F policy (2)).
    pub balloon_adjustments: u64,
    /// QoS controller ticks run (zero unless a QoS engine is installed).
    pub qos_ticks: u64,
    /// Control actions (donation rebalances) the QoS controller applied.
    pub qos_actions: u64,
    /// Telemetry sampling passes that captured a metric window.
    pub telemetry_windows: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Repair,
    Eviction,
    Advertise,
    Balloon,
    QosTick,
    Telemetry,
}

impl Task {
    const ALL: [Task; 6] = [
        Task::Repair,
        Task::Eviction,
        Task::Advertise,
        Task::Balloon,
        Task::QosTick,
        Task::Telemetry,
    ];

    /// How often the task recurs; zero means it never runs. The QoS
    /// tick exists only with an installed engine, and the telemetry
    /// sampler only with an installed hub, ticking on the hub's own
    /// window width so every capture lands exactly on a grid boundary:
    /// unobserved runs schedule nothing and execute identical event
    /// sequences.
    fn interval(self, dm: &DisaggregatedMemory, config: &MaintenanceConfig) -> SimDuration {
        match self {
            Task::Repair => config.repair_interval,
            Task::Eviction => config.eviction_interval,
            Task::Advertise => config.advertise_interval,
            Task::Balloon => config.balloon_interval,
            Task::QosTick => dm.qos().map(|_| config.qos_interval).unwrap_or_default(),
            Task::Telemetry => dm.telemetry().map(|hub| hub.window()).unwrap_or_default(),
        }
    }
}

/// The periodic-maintenance driver. See the module docs.
pub struct Maintenance {
    dm: Arc<DisaggregatedMemory>,
    config: MaintenanceConfig,
    evictor: RemoteSlabEvictor,
    placer: Placer,
    queue: EventQueue<Task>,
}

impl Maintenance {
    /// Creates a driver and schedules the first round of tasks.
    pub fn new(
        dm: Arc<DisaggregatedMemory>,
        config: MaintenanceConfig,
        evictor: RemoteSlabEvictor,
        placer: Placer,
    ) -> Self {
        let mut queue = EventQueue::new();
        let now = dm.clock().now();
        for task in Task::ALL {
            let interval = task.interval(&dm, &config);
            if !interval.is_zero() {
                queue.schedule(now + interval, task);
            }
        }
        Maintenance {
            dm,
            config,
            evictor,
            placer,
            queue,
        }
    }

    /// Virtual time of the next pending task, if any.
    pub fn next_task_at(&self) -> Option<SimInstant> {
        self.queue.next_at()
    }

    /// Runs every task due up to `until`, advancing the clock to each
    /// task's scheduled time (like an idle node agent waking on timers).
    ///
    /// Every window closes with one extra repair scan (when repair is
    /// enabled): eviction migrations late in the window can lower an
    /// entry's replica degree after the last interval-scheduled repair
    /// ran, and the closing scan guarantees no window ever ends with a
    /// repairable entry still degraded. The chaos harness checks exactly
    /// this bound.
    ///
    /// # Errors
    ///
    /// Propagates eviction-scan failures; repair failures are per-entry
    /// and absorbed (they retry at the next scan).
    pub fn run_until(&mut self, until: SimInstant) -> DmemResult<MaintenanceReport> {
        let mut report = MaintenanceReport::default();
        while let Some(at) = self.queue.next_at() {
            if at > until {
                break;
            }
            self.dm.clock().advance_to(at);
            for (_, task) in self.queue.pop_due(at) {
                match task {
                    Task::Repair => {
                        report.repair_scans += 1;
                        report.repaired_entries += self.dm.repair_replicas() as u64;
                    }
                    Task::Eviction => {
                        report.eviction_scans += 1;
                        let outcome = match self.dm.run_eviction(&self.evictor, &self.placer) {
                            Ok(outcome) => outcome,
                            Err(e) => {
                                // An aborted window must still resolve
                                // read-failover suspicions — the closing
                                // repair scan below won't run. No-op (and
                                // metric-free) without fault injection.
                                self.dm.resolve_suspects();
                                return Err(e);
                            }
                        };
                        report.evicted_entries += outcome.moves.len() as u64;
                        report.reclaimed += outcome.reclaimed;
                    }
                    Task::Advertise => {
                        report.advertise_refreshes += 1;
                        for &node in self.dm.membership().nodes() {
                            if let Some(stats) = self.dm.remote_store().stats(node) {
                                self.dm.membership().advertise_free(node, stats.free);
                            }
                        }
                    }
                    Task::Balloon => {
                        // §IV-F policy (2): a server that overflows the
                        // shared pool repeatedly gets DRAM ballooned back
                        // by shrinking its donation.
                        for &server in self.dm.servers() {
                            let manager = self.dm.node_manager(server.node());
                            if manager
                                .apply_recommendation(server, self.config.balloon_step)
                                .applied
                            {
                                report.balloon_adjustments += 1;
                            }
                        }
                    }
                    Task::QosTick => {
                        report.qos_ticks += 1;
                        report.qos_actions += self.dm.qos_tick() as u64;
                    }
                    Task::Telemetry => {
                        report.telemetry_windows += self.dm.telemetry_tick() as u64;
                    }
                }
                let interval = task.interval(&self.dm, &self.config);
                if !interval.is_zero() {
                    self.queue.schedule(self.dm.clock().now() + interval, task);
                }
            }
        }
        if !self.config.repair_interval.is_zero() {
            report.repair_scans += 1;
            report.repaired_entries += self.dm.repair_replicas() as u64;
        }
        Ok(report)
    }
}

impl std::fmt::Debug for Maintenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintenance")
            .field("config", &self.config)
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{DetRng, FailureEvent};
    use dmem_types::{ClusterConfig, DonationPolicy, EntryLocation, PlacementStrategy};

    fn remote_cluster() -> Arc<DisaggregatedMemory> {
        let mut config = ClusterConfig::small();
        config.nodes = 6;
        config.group_size = 6;
        config.server.donation = DonationPolicy::fixed(0.0);
        Arc::new(DisaggregatedMemory::new(config).unwrap())
    }

    fn driver(dm: &Arc<DisaggregatedMemory>, threshold_kib: u64) -> Maintenance {
        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(threshold_kib), 16);
        let placer = Placer::new(
            PlacementStrategy::WeightedRoundRobin,
            dm.membership().clone(),
            DetRng::new(11),
        );
        Maintenance::new(
            Arc::clone(dm),
            MaintenanceConfig::default(),
            evictor,
            placer,
        )
    }

    #[test]
    fn schedules_initial_tasks() {
        let dm = remote_cluster();
        let m = driver(&dm, 1);
        assert!(m.next_task_at().is_some());
    }

    #[test]
    fn repairs_degraded_replicas_automatically() {
        let dm = remote_cluster();
        let server = dm.servers()[0];
        for key in 0..4 {
            dm.put(server, key, vec![key as u8; 1024]).unwrap();
        }
        // Crash and restart one replica host: its copies are lost.
        let victim = match &dm.record(server, 0).unwrap().location {
            EntryLocation::Remote { replicas } => replicas[0],
            other => panic!("expected remote, got {other:?}"),
        };
        dm.failures().inject_now(FailureEvent::NodeDown(victim));
        dm.failures().inject_now(FailureEvent::NodeUp(victim));
        dm.handle_node_restart(victim).unwrap();

        let mut m = driver(&dm, 1);
        let horizon = dm.clock().now() + SimDuration::from_secs(1);
        let report = m.run_until(horizon).unwrap();
        assert!(report.repair_scans >= 1);
        assert!(report.repaired_entries >= 1, "{report:?}");
        // Every entry is back at full degree.
        for key in 0..4 {
            if let EntryLocation::Remote { replicas } = &dm.record(server, key).unwrap().location {
                assert_eq!(replicas.len(), 3, "key {key}");
            }
        }
    }

    #[test]
    fn eviction_scans_relieve_pressure() {
        let mut config = ClusterConfig::small();
        config.nodes = 6;
        config.group_size = 6;
        config.server.donation = DonationPolicy::fixed(0.0);
        config.node.recv_pool = ByteSize::from_kib(64);
        config.compression = dmem_types::CompressionMode::Off;
        let dm = Arc::new(DisaggregatedMemory::new(config).unwrap());
        let server = dm.servers()[0];
        for key in 0..12 {
            dm.put(server, key, vec![key as u8; 4096]).unwrap();
        }
        let mut m = driver(&dm, 40);
        let report = m
            .run_until(dm.clock().now() + SimDuration::from_secs(1))
            .unwrap();
        assert!(report.eviction_scans >= 1);
        assert!(report.evicted_entries >= 1, "{report:?}");
        // Everything stays readable after background migration.
        for key in 0..12 {
            assert_eq!(dm.get(server, key).unwrap(), vec![key as u8; 4096]);
        }
    }

    #[test]
    fn repair_picks_live_non_duplicate_hosts_after_permanent_loss() {
        // A replica host dies and never comes back. The repair scan must
        // restore full degree using a fresh host: alive, not the corpse,
        // and not a duplicate of a surviving replica.
        let dm = remote_cluster();
        let server = dm.servers()[0];
        for key in 0..4 {
            dm.put(server, key, vec![key as u8; 1024]).unwrap();
        }
        let victim = match &dm.record(server, 0).unwrap().location {
            EntryLocation::Remote { replicas } => replicas[0],
            other => panic!("expected remote, got {other:?}"),
        };
        dm.failures().inject_now(FailureEvent::NodeDown(victim));

        let mut m = driver(&dm, 1);
        m.run_until(dm.clock().now() + SimDuration::from_secs(1))
            .unwrap();
        for key in 0..4 {
            if let EntryLocation::Remote { replicas } = &dm.record(server, key).unwrap().location {
                assert_eq!(replicas.len(), 3, "key {key}: {replicas:?}");
                let distinct: std::collections::HashSet<_> = replicas.iter().collect();
                assert_eq!(distinct.len(), 3, "key {key} duplicates: {replicas:?}");
                assert!(
                    !replicas.contains(&victim),
                    "key {key} still references dead {victim}: {replicas:?}"
                );
                for &n in replicas {
                    assert!(dm.membership().is_alive(n), "key {key}: {n} not alive");
                }
            }
            // Fail-over reads keep working with the victim gone.
            assert_eq!(dm.get(server, key).unwrap(), vec![key as u8; 1024]);
        }
    }

    #[test]
    fn advertisements_refresh() {
        let dm = remote_cluster();
        let mut m = driver(&dm, 1);
        let report = m
            .run_until(dm.clock().now() + SimDuration::from_millis(100))
            .unwrap();
        assert!(report.advertise_refreshes >= 9, "{report:?}");
    }

    #[test]
    fn run_until_respects_horizon() {
        let dm = remote_cluster();
        let mut m = driver(&dm, 1);
        let start = dm.clock().now();
        let horizon = start + SimDuration::from_millis(25);
        m.run_until(horizon).unwrap();
        assert!(dm.clock().now() <= horizon + SimDuration::from_millis(1));
        let next = m.next_task_at().expect("tasks rescheduled");
        assert!(next + SimDuration::from_millis(10) > horizon);
    }

    #[test]
    fn balloon_task_returns_dram_to_pressured_servers() {
        use crate::system::TierPreference;
        let mut config = ClusterConfig::small();
        // Ballooning room: the paper's default policy (10% initial,
        // shrinkable to 0%).
        config.server.donation = DonationPolicy::paper_default();
        config.server.memory = ByteSize::from_kib(512);
        config.node.dram = ByteSize::from_mib(16);
        let dm = Arc::new(DisaggregatedMemory::new(config).unwrap());
        let server = dm.servers()[0];
        let manager = dm.node_manager(server.node());
        // Overflows spread across disk-speed fallbacks; widen the advice
        // window so the pressure signal accumulates.
        manager.set_advice_policy(SimDuration::from_secs(10), 16);
        let before = manager.capacity();

        // Hammer the shared pool until it overflows repeatedly.
        for key in 0..128 {
            let _ = dm.put_pref(server, key, vec![1u8; 4096], TierPreference::NodeShared);
        }
        let mut m = driver(&dm, 1);
        let report = m
            .run_until(dm.clock().now() + SimDuration::from_secs(1))
            .unwrap();
        assert!(report.balloon_adjustments >= 1, "{report:?}");
        assert!(
            manager.capacity() < before,
            "donation should shrink: {} !< {}",
            manager.capacity(),
            before
        );
    }

    #[test]
    fn disabled_tasks_never_fire() {
        let dm = remote_cluster();
        let evictor = RemoteSlabEvictor::new(ByteSize::from_kib(1), 4);
        let placer = Placer::new(
            PlacementStrategy::Random,
            dm.membership().clone(),
            DetRng::new(1),
        );
        let config = MaintenanceConfig {
            repair_interval: SimDuration::ZERO,
            eviction_interval: SimDuration::ZERO,
            balloon_interval: SimDuration::ZERO,
            advertise_interval: SimDuration::from_millis(10),
            ..MaintenanceConfig::default()
        };
        let mut m = Maintenance::new(Arc::clone(&dm), config, evictor, placer);
        let report = m
            .run_until(dm.clock().now() + SimDuration::from_millis(100))
            .unwrap();
        assert_eq!(report.repair_scans, 0);
        assert_eq!(report.eviction_scans, 0);
        assert!(report.advertise_refreshes > 0);
    }
}
