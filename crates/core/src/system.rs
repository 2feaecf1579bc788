//! The assembled disaggregated memory system.

use crate::disk::DiskTier;
use crate::memmap::MemoryMap;
use crate::tier::{Put, Tier, DISK_ONLY};
use dmem_cluster::{
    ClusterMembership, EvictionOutcome, GroupTable, LeaderElection, Placer, RemoteSlabEvictor,
    RemoteStore, Replicator,
};
use dmem_compress::{CompressMemo, CompressedPage, PageCodec};
use dmem_net::{CxlPool, Fabric, ShardRouter};
use dmem_node::NodeManager;
use dmem_qos::{AdmitDecision, ControlAction, QosEngine};
use dmem_sim::shard::ShardMap;
use dmem_sim::{
    CostModel, DetRng, FailureInjector, MetricsRegistry, SimClock, SimDuration, TelemetryHub,
};
use dmem_types::{
    checksum, ByteSize, ClusterConfig, DmemError, DmemResult, EntryId, EntryLocation, EntryRecord,
    NodeId, ServerId, SizeClass, TenantId, PAGE_SIZE,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Where a `put` is allowed to land: each preference names a static
/// ladder of [`Tier`]s (see [`crate::tier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPreference {
    /// Tier through shared memory → CXL → NVM → remote → disk (the
    /// paper's design plus the §VI rungs, each only when configured).
    Auto,
    /// Node shared memory; spills to disk when the pool is full.
    NodeShared,
    /// Local byte-addressable NVM (the §VI extension tier); spills to
    /// disk when the NVM pool is full or absent.
    Nvm,
    /// The CXL pooled-memory tier (load/store far memory behind a
    /// switch); spills to disk when the pool is full, down, or absent.
    Cxl,
    /// Remote cluster memory (the FS-RDMA configuration of Fig. 8);
    /// spills to disk when the group cannot host the entry.
    Remote,
    /// Local disk only (the Linux-baseline path).
    Disk,
}

/// Aggregate system statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmStats {
    /// Entries tracked across all memory maps.
    pub entries: usize,
    /// Entries resident in node shared pools.
    pub shared: usize,
    /// Entries in local NVM.
    pub nvm: usize,
    /// Entries in the CXL pooled-memory tier.
    pub cxl: usize,
    /// Entries in remote cluster memory.
    pub remote: usize,
    /// Entries spilled to disk.
    pub disk: usize,
    /// Total shared-pool capacity across nodes.
    pub shared_capacity: ByteSize,
    /// Total advertised free remote pool capacity.
    pub remote_free: ByteSize,
}

/// The QoS view of one caller: the installed engine, if any, and the
/// tenant the caller's server belongs to.
#[derive(Clone, Copy)]
pub(crate) struct Tenancy<'a> {
    pub(crate) qos: Option<&'a Arc<QosEngine>>,
    pub(crate) tenant: TenantId,
}

/// The paper's two-level disaggregated memory system over one simulated
/// cluster. See the crate docs for an overview and example.
pub struct DisaggregatedMemory {
    config: ClusterConfig,
    clock: SimClock,
    cost: CostModel,
    failures: FailureInjector,
    fabric: Fabric,
    membership: ClusterMembership,
    groups: Mutex<GroupTable>,
    election: LeaderElection,
    managers: HashMap<NodeId, Arc<NodeManager>>,
    remote: Arc<RemoteStore>,
    replicator: Replicator,
    disk: DiskTier,
    nvm: DiskTier,
    /// NVM bytes in use per node, kept by the NVM rung in `tier`.
    pub(crate) nvm_used: Mutex<HashMap<NodeId, u64>>,
    /// The CXL memory pool, present only when `ClusterConfig::cxl`
    /// enables it — absent, no `cxl.*` metric keys exist and the tiering
    /// order is exactly the pre-CXL one.
    cxl: Option<Arc<CxlPool>>,
    /// The `Auto` placement ladder, fixed by which tiers are configured.
    auto_ladder: Vec<Tier>,
    codec: PageCodec,
    /// Byte-guarded compressed-page memo keyed by `(server, key)`. Hits
    /// skip the LZ matcher; the simulated compression cost is charged
    /// either way, so virtual-time results are unchanged.
    compress_memo: Mutex<CompressMemo>,
    maps: Mutex<HashMap<ServerId, MemoryMap>>,
    servers: Vec<ServerId>,
    metrics: MetricsRegistry,
    /// Optional multi-tenant QoS control plane. `OnceLock` keeps the
    /// no-QoS hot path lock-free: an uninstalled engine is one relaxed
    /// atomic load per operation, so single-tenant runs stay byte- and
    /// cycle-identical to the pre-QoS system.
    qos: OnceLock<Arc<QosEngine>>,
    /// Optional host→shard partition + fabric router. Uninstalled (the
    /// default) the fabric skips routing entirely, so unsharded runs
    /// stay byte-identical to builds that predate sharding.
    sharding: OnceLock<Arc<ShardRouter>>,
    /// Optional windowed telemetry hub (timeline sampler + alert engine
    /// + flight recorder). Same opt-in contract as `qos`: uninstalled,
    /// nothing samples and nothing is scheduled.
    telemetry: OnceLock<Arc<TelemetryHub>>,
}

impl DisaggregatedMemory {
    /// Builds the full system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] for invalid configurations and
    /// propagates substrate construction failures.
    pub fn new(config: ClusterConfig) -> DmemResult<Self> {
        config.validate()?;
        let clock = SimClock::new();
        let cost = CostModel::paper_default();
        let failures = FailureInjector::new(clock.clone());
        let fabric = Fabric::new(clock.clone(), cost, failures.clone());
        let nodes: Vec<NodeId> = (0..config.nodes as u32).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes.clone(), failures.clone());
        let groups = GroupTable::partition(&nodes, config.group_size)?;
        let election = LeaderElection::new(
            membership.clone(),
            clock.clone(),
            SimDuration::from_millis(50),
        );
        let rng = DetRng::new(config.seed);

        let mut managers = HashMap::new();
        let mut servers = Vec::new();
        for &node in &nodes {
            let manager = Arc::new(NodeManager::new(
                node,
                config.node.slab_size,
                clock.clone(),
                cost,
            ));
            for local in 0..config.servers_per_node as u32 {
                let server = ServerId::new(node, local);
                manager.register_server(server, config.server.memory, config.server.donation);
                servers.push(server);
            }
            managers.insert(node, manager);
        }

        let remote = Arc::new(RemoteStore::new(
            fabric.clone(),
            membership.clone(),
            config.node.recv_pool,
        )?);
        let placer = Placer::new(config.placement, membership.clone(), rng.fork("placement"));
        let replicator = Replicator::new(Arc::clone(&remote), placer, config.replication);
        let disk = DiskTier::new(clock.clone(), cost);
        let nvm = DiskTier::with_device_labeled(clock.clone(), cost.nvm, "nvm");
        let codec = PageCodec::new(config.compression);
        let metrics = MetricsRegistry::new();
        let cxl = config.cxl.enabled().then(|| {
            Arc::new(CxlPool::new(
                clock.clone(),
                cost,
                metrics.clone(),
                config.cxl.pool_nodes as u16,
                config.cxl.capacity_per_node,
            ))
        });

        let auto_ladder = Tier::auto_ladder(cxl.is_some(), config.node.nvm_pool.as_u64() > 0);
        let maps = servers.iter().map(|&s| (s, MemoryMap::new())).collect();

        Ok(DisaggregatedMemory {
            config,
            clock,
            cost,
            failures,
            fabric,
            membership,
            groups: Mutex::new(groups),
            election,
            managers,
            remote,
            replicator,
            disk,
            nvm,
            nvm_used: Mutex::new(HashMap::new()),
            cxl,
            auto_ladder,
            codec,
            compress_memo: Mutex::new(CompressMemo::with_default_capacity()),
            maps: Mutex::new(maps),
            servers,
            metrics,
            qos: OnceLock::new(),
            sharding: OnceLock::new(),
            telemetry: OnceLock::new(),
        })
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The failure injector (schedule crashes and link failures here).
    pub fn failures(&self) -> &FailureInjector {
        &self.failures
    }

    /// All virtual servers, in configuration order.
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster membership view.
    pub fn membership(&self) -> &ClusterMembership {
        &self.membership
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The underlying RDMA fabric (for advanced wiring, e.g. batch senders).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Partitions this cluster's nodes into `shards` contiguous
    /// host-groups and installs the shard router on the fabric: from
    /// then on every verb is checked against the inter-shard mailbox
    /// ordering contract (`(virtual_time, shard_id, seq)` strictly
    /// increasing per directed pair) and counted as cross- or
    /// intra-shard. Placement, tiering and verb semantics are untouched
    /// — the router is an observer, so sharded runs stay byte-identical
    /// to unsharded ones.
    ///
    /// # Panics
    ///
    /// Panics if sharding is already installed.
    pub fn install_sharding(&self, shards: usize) {
        let map = ShardMap::grouped(self.config.nodes, shards);
        let router = Arc::new(ShardRouter::new(map));
        self.fabric.install_shard_router(Arc::clone(&router));
        if self.sharding.set(router).is_err() {
            panic!("sharding already installed");
        }
    }

    /// The installed shard router, if any.
    pub fn shard_router(&self) -> Option<&Arc<ShardRouter>> {
        self.sharding.get()
    }

    /// Installs the multi-tenant QoS control plane (quota admission,
    /// priority eviction, fabric rate limiting, SLO controller). May be
    /// called at most once; the engine is wired to this system's metrics
    /// registry so `qos.*` counters and per-tenant latency histograms
    /// land next to the core ones.
    ///
    /// # Panics
    ///
    /// Panics if an engine is already installed.
    pub fn install_qos(&self, engine: Arc<QosEngine>) {
        engine.attach_metrics(self.metrics.clone());
        if self.qos.set(engine).is_err() {
            panic!("QoS engine already installed");
        }
    }

    /// The installed QoS engine, if any.
    pub fn qos(&self) -> Option<&Arc<QosEngine>> {
        self.qos.get()
    }

    /// Installs the windowed telemetry hub (time-series sampler, alert
    /// engine, flight recorder) and points it at this system's metrics
    /// registry plus the fabric's. May be called at most once; nothing
    /// installs one by default, so unobserved runs never even schedule
    /// the sampling task.
    ///
    /// # Panics
    ///
    /// Panics if a hub is already installed.
    pub fn install_telemetry(&self, hub: Arc<TelemetryHub>) {
        hub.add_registry(self.metrics.clone());
        hub.add_registry(self.fabric.metrics().clone());
        if self.telemetry.set(hub).is_err() {
            panic!("telemetry hub already installed");
        }
    }

    /// The installed telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.telemetry.get()
    }

    /// One telemetry sampling pass at the current virtual time: captures
    /// a metric window (and evaluates alert rules on it) if a window
    /// boundary has been crossed. Returns the number of windows captured.
    /// No-op without an installed hub.
    pub fn telemetry_tick(&self) -> usize {
        let Some(hub) = self.telemetry.get() else {
            return 0;
        };
        hub.tick(self.clock.now())
    }

    /// A tenant-priority resolver for [`RemoteSlabEvictor::with_priority`],
    /// backed by the installed engine. `None` when QoS is off, so default
    /// eviction order is untouched.
    pub fn qos_priority_resolver(&self) -> Option<dmem_cluster::PriorityResolver> {
        let engine = Arc::clone(self.qos.get()?);
        Some(Arc::new(move |entry: EntryId| {
            engine.tenant_priority(engine.tenant_of(entry.owner()))
        }))
    }

    /// One closed-loop QoS controller pass: reads the latency histograms,
    /// lets the engine decide, and applies every donation recommendation
    /// through the node managers' ballooning path. Returns how many
    /// control actions were applied. No-op without an installed engine.
    pub fn qos_tick(&self) -> usize {
        let Some(engine) = self.qos.get() else {
            return 0;
        };
        let mut applied = 0;
        for action in engine.controller_tick(&self.metrics) {
            let ControlAction::AdjustDonation { server, delta } = action;
            if let Some(manager) = self.managers.get(&server.node()) {
                // Honor local memory pressure first (ballooning advice);
                // only grow the donation when the node is not squeezed.
                let balloon = manager.apply_recommendation(server, delta.abs());
                if !balloon.applied {
                    let _ = manager.adjust_donation(server, delta);
                }
                applied += 1;
            }
        }
        applied
    }

    /// The QoS view of a caller on `server`.
    fn tenancy(&self, server: ServerId) -> Tenancy<'_> {
        let qos = self.qos.get();
        let tenant = qos.map_or(TenantId::SYSTEM, |q| q.tenant_of(server));
        Tenancy { qos, tenant }
    }

    /// Meters `bytes` of fabric traffic for `who` through the QoS token
    /// buckets (waiting out any throttle delay on the virtual clock),
    /// then runs `f` with the fabric's per-tenant verb accounting scoped
    /// to the tenant. Without an engine this is exactly `f()`.
    pub(crate) fn metered<T>(&self, who: Tenancy<'_>, bytes: u64, f: impl FnOnce() -> T) -> T {
        let Some(engine) = who.qos else {
            return f();
        };
        let wait = engine.fabric_acquire(who.tenant, bytes, self.clock.now());
        if !wait.is_zero() {
            let span = self.clock.tracer().span("qos", "throttle");
            span.tag("bytes", bytes);
            self.clock.advance(wait);
        }
        self.fabric.set_tenant_scope(Some(who.tenant));
        let out = f();
        self.fabric.set_tenant_scope(None);
        out
    }

    /// Charges fast-tier residency for an entry landed on `tier` (no-op
    /// for disk, or without an engine).
    fn note_landed(&self, who: Tenancy<'_>, entry: EntryId, stored_len: u64, tier: Tier) {
        if let (Some(engine), Some(resident)) = (who.qos, tier.resident(entry)) {
            engine.note_fast_resident(who.tenant, entry, stored_len, resident);
        }
    }

    /// The node manager of `node`.
    ///
    /// # Panics
    ///
    /// Panics for nodes outside the configured cluster.
    pub fn node_manager(&self, node: NodeId) -> &Arc<NodeManager> {
        self.managers
            .get(&node)
            .expect("node is part of the configured cluster")
    }

    /// The remote memory store.
    pub fn remote_store(&self) -> &Arc<RemoteStore> {
        &self.remote
    }

    /// The disk tier.
    pub fn disk_tier(&self) -> &DiskTier {
        &self.disk
    }

    /// The NVM tier (empty unless `NodeConfig::nvm_pool` is nonzero).
    pub fn nvm_tier(&self) -> &DiskTier {
        &self.nvm
    }

    /// NVM bytes in use on `node`.
    pub fn nvm_used(&self, node: NodeId) -> ByteSize {
        ByteSize::new(self.nvm_used.lock().get(&node).copied().unwrap_or(0))
    }

    /// The CXL memory pool, present when `ClusterConfig::cxl` enables it.
    /// Remote atomics ([`CxlPool::fetch_add`], [`CxlPool::cas`]) and
    /// pool-node outage control go through this handle.
    pub fn cxl_pool(&self) -> Option<&Arc<CxlPool>> {
        self.cxl.as_ref()
    }

    /// The leader of `node`'s sharing group (§IV-C election).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NoLeader`] when the whole group is down.
    pub fn group_leader(&self, node: NodeId) -> DmemResult<NodeId> {
        let groups = self.groups.lock();
        let gid = groups.group_of(node)?;
        self.election.leader(&groups, gid)
    }

    /// The alive group peers of `node` — the candidate hosts for its
    /// remote entries (group-based sharing, §IV-C).
    pub fn group_peers(&self, node: NodeId) -> DmemResult<Vec<NodeId>> {
        let groups = self.groups.lock();
        Ok(groups
            .peers(node)?
            .into_iter()
            .filter(|&n| self.membership.is_alive(n))
            .collect())
    }

    pub(crate) fn memo_key(entry: EntryId) -> (u64, u64) {
        let server = entry.owner();
        let server_key = (u64::from(server.node().index()) << 32) | u64::from(server.local_index());
        (server_key, entry.key())
    }

    fn recover(&self, record: &EntryRecord, stored: Vec<u8>) -> DmemResult<Vec<u8>> {
        let class = match record.class {
            Some(class) => {
                let span = self.clock.tracer().span("compress", "decompress");
                span.tag("bytes", record.len);
                self.clock.advance(self.cost.decompress_page);
                class
            }
            // Raw entries verify the same way via the memo: a previously
            // verified identical blob is confirmed with a vectorized
            // `memcmp` instead of re-walking the byte-serial FNV, and
            // handed back without a copy — this is the hot path for
            // incompressible pages (random payloads of the RDD and chaos
            // workloads).
            None => SizeClass::C4K,
        };
        let page = CompressedPage {
            data: stored,
            class,
            original_len: record.len as usize,
            is_compressed: record.class.is_some(),
            checksum: record.checksum,
        };
        self.compress_memo
            .lock()
            .get_or_decompress(&self.codec, page)
    }

    /// Forgets `entry` and releases whatever its tier holds for it.
    /// Returns `false` when the entry was not tracked.
    fn remove(&self, entry: EntryId) -> bool {
        let removed = self
            .maps
            .lock()
            .get_mut(&entry.owner())
            .and_then(|m| m.remove(entry.key()));
        let Some(record) = removed else {
            return false;
        };
        if let Some(engine) = self.qos.get() {
            engine.note_dropped(engine.tenant_of(entry.owner()), entry);
        }
        Tier::release(self, entry, &record.location);
        true
    }

    /// Releases the previous incarnation of `(server, key)` (replace
    /// semantics) and compresses `data` into a put ready for a ladder.
    fn prepare<'a>(&self, who: Tenancy<'a>, server: ServerId, key: u64, data: Vec<u8>) -> Put<'a> {
        let entry = EntryId::new(server, key);
        self.remove(entry);
        let len = data.len() as u64;
        let (stored, class, checksum) = if data.len() <= PAGE_SIZE {
            let mut memo = self.compress_memo.lock();
            let page = memo.get_or_compress(Self::memo_key(entry), &self.codec, &data);
            drop(memo);
            if page.is_compressed {
                let span = self.clock.tracer().span("compress", "compress");
                span.tag("bytes", page.original_len);
                self.clock.advance(self.cost.compress_page);
            }
            let class = page.is_compressed.then_some(page.class);
            (page.data, class, page.checksum)
        } else {
            let sum = checksum(&data);
            (data, None, sum)
        };
        let record = EntryRecord {
            location: EntryLocation::Disk, // placeholder, set on landing
            len,
            stored_len: stored.len() as u64,
            class,
            version: 0,
            checksum,
        };
        Put {
            entry,
            record,
            stored,
            who,
        }
    }

    /// Walks `pref`'s ladder for `put`, offering it to each rung in turn
    /// until one takes it; a rung that fails for any reason passes it
    /// down. QoS admission comes first: over-quota and shed tenants
    /// degrade to disk instead of taking fast-tier space (graceful
    /// degradation, never a hard failure), and disk-only puts skip the
    /// check, the disk tier being unmetered. A `windowed` walk stops
    /// short of the remote rung, returning `None` when it gets there.
    fn place(&self, pref: TierPreference, put: &Put<'_>, windowed: bool) -> Option<EntryLocation> {
        let mut ladder = Tier::ladder(pref, &self.auto_ladder);
        let bytes = put.stored.len() as u64;
        let denied = |engine: &Arc<QosEngine>| {
            engine.admit_fast(put.who.tenant, bytes) != AdmitDecision::Admit
        };
        if ladder != DISK_ONLY && put.who.qos.is_some_and(denied) {
            ladder = DISK_ONLY;
        }
        ladder
            .iter()
            .take_while(|&&tier| !(windowed && tier == Tier::Remote))
            .find_map(|tier| tier.store(self, put))
    }

    /// Records `put` landed at `location`: charges its residency and
    /// upserts its map record.
    fn land(&self, put: Put<'_>, location: EntryLocation) {
        let (entry, mut record) = (put.entry, put.record);
        self.note_landed(put.who, entry, record.stored_len, Tier::of(&location));
        record.location = location;
        self.maps
            .lock()
            .get_mut(&entry.owner())
            .expect("server registered at construction")
            .upsert(entry.key(), record);
    }

    /// Repoints the map record of `entry`, if still tracked, at
    /// `location` (bumping its version). Returns whether it was tracked.
    pub(crate) fn relocate(&self, entry: EntryId, location: EntryLocation) -> bool {
        let mut maps = self.maps.lock();
        let Some(map) = maps.get_mut(&entry.owner()) else {
            return false;
        };
        let Some(mut record) = map.get(entry.key()).cloned() else {
            return false;
        };
        record.location = location;
        map.upsert(entry.key(), record);
        true
    }

    /// Stores `data` under `(server, key)`, tiering automatically.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] if the owner is down.
    pub fn put(&self, server: ServerId, key: u64, data: Vec<u8>) -> DmemResult<()> {
        self.put_pref(server, key, data, TierPreference::Auto)
    }

    /// Stores `data` with an explicit tier preference (used by the swap
    /// backends to realize the Fig. 8 distribution-ratio sweep). Every
    /// preference but `Disk` tries its own tier (`Auto`: the whole
    /// ladder) and spills to disk, the paper's last resort.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] if the owner is down.
    pub fn put_pref(
        &self,
        server: ServerId,
        key: u64,
        data: Vec<u8>,
        pref: TierPreference,
    ) -> DmemResult<()> {
        if !self.failures.is_server_up(server) {
            return Err(DmemError::ServerUnavailable(server));
        }
        let span = self.clock.tracer().span("core", "put");
        let t0 = self.clock.now();
        let put = self.prepare(self.tenancy(server), server, key, data);
        let location = self
            .place(pref, &put, false)
            .expect("every ladder ends at disk, which cannot fail");
        span.tag("tier", Tier::of(&location).name());
        self.metrics
            .histogram("core.put.ns")
            .record((self.clock.now() - t0).as_nanos());
        self.land(put, location);
        Ok(())
    }

    /// Reads the entry back, wherever it lives, verifying integrity.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] for unknown keys,
    /// [`DmemError::Corrupt`] on checksum mismatch, and path errors when
    /// every replica of a remote entry is unreachable.
    pub fn get(&self, server: ServerId, key: u64) -> DmemResult<Vec<u8>> {
        let entry = EntryId::new(server, key);
        let record = self
            .record(server, key)
            .ok_or(DmemError::EntryNotFound(entry))?;
        let span = self.clock.tracer().span("core", "get");
        span.tag("tier", Tier::of(&record.location).name());
        let t0 = self.clock.now();
        let who = self.tenancy(server);
        let stored = Tier::load(self, who, entry, &record)?;
        let out = self.recover(&record, stored);
        let elapsed = (self.clock.now() - t0).as_nanos();
        self.metrics.histogram("core.get.ns").record(elapsed);
        if let Some(engine) = who.qos {
            self.metrics
                .histogram(&format!("qos.{}.get.ns", engine.tenant_name(who.tenant)))
                .record(elapsed);
        }
        out
    }

    /// Reads several entries, batching remote and disk fetches per
    /// location (this is the data path behind proactive batch swap-in).
    ///
    /// Results are returned in `keys` order.
    ///
    /// # Errors
    ///
    /// Fails on the first unreadable entry, with no partial results.
    pub fn get_batch(&self, server: ServerId, keys: &[u64]) -> DmemResult<Vec<Vec<u8>>> {
        let span = self.clock.tracer().span("core", "get_batch");
        span.tag("entries", keys.len());
        let mut records = Vec::with_capacity(keys.len());
        {
            let maps = self.maps.lock();
            let map = maps
                .get(&server)
                .ok_or(DmemError::ServerUnavailable(server))?;
            for &key in keys {
                let missing = DmemError::EntryNotFound(EntryId::new(server, key));
                records.push(map.get(key).cloned().ok_or(missing)?);
            }
        }
        let mut out: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        // Remote entries batch per primary replica and disk entries in one
        // batch; the rest are read alone. Batches are keyed `(is_disk,
        // host)` in a BTreeMap, so remote hosts are read in node order and
        // disk last: virtual totals are order-independent, but span
        // boundaries (and thus trace exports) must not vary run-to-run.
        let mut batches: BTreeMap<(bool, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, record) in records.iter().enumerate() {
            match &record.location {
                EntryLocation::Remote { replicas } if !replicas.is_empty() => {
                    batches.entry((false, replicas[0])).or_default().push(i);
                }
                EntryLocation::Disk => batches.entry((true, server.node())).or_default().push(i),
                _ => out[i] = Some(self.get(server, keys[i])?),
            }
        }
        let who = self.tenancy(server);
        for ((disk, host), slots) in batches {
            let ids: Vec<EntryId> = slots
                .iter()
                .map(|&i| EntryId::new(server, keys[i]))
                .collect();
            let blobs = if disk {
                self.disk.load_batch(host, &ids)?
            } else {
                let bytes = slots.iter().map(|&i| records[i].stored_len).sum();
                match self.metered(who, bytes, || {
                    self.remote.load_batch(server.node(), host, &ids)
                }) {
                    Ok(blobs) => blobs,
                    Err(_) => {
                        // Primary unreachable: fall back to per-entry failover.
                        for &i in &slots {
                            out[i] = Some(self.get(server, keys[i])?);
                        }
                        continue;
                    }
                }
            };
            for (&slot, blob) in slots.iter().zip(blobs) {
                out[slot] = Some(self.recover(&records[slot], blob)?);
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("all slots filled"))
            .collect())
    }

    /// Stores a batch of entries with one remote replica-set per batch and
    /// windowed transfers (FastSwap's batched swap-out, §IV-H). Each entry
    /// walks the same ladder as [`DisaggregatedMemory::put_pref`], except
    /// that the remote rung is deferred: every entry reaching it joins one
    /// window, written to a single replica set, or to disk in one batched
    /// write when the group cannot host it.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] if the owner is down.
    pub fn put_batch(
        &self,
        server: ServerId,
        batch: Vec<(u64, Vec<u8>)>,
        pref: TierPreference,
    ) -> DmemResult<()> {
        if !self.failures.is_server_up(server) {
            return Err(DmemError::ServerUnavailable(server));
        }
        let span = self.clock.tracer().span("core", "put_batch");
        span.tag("entries", batch.len());
        let who = self.tenancy(server);
        // The remote window: payloads in `window`, the rest of each put
        // in `deferred`.
        let mut window: Vec<(EntryId, Vec<u8>)> = Vec::new();
        let mut deferred: Vec<Put<'_>> = Vec::new();
        for (key, data) in batch {
            let mut put = self.prepare(who, server, key, data);
            match self.place(pref, &put, true) {
                Some(location) => self.land(put, location),
                None => {
                    // Reserve residency now: later entries in this batch
                    // are admitted against a quota that already includes
                    // this one.
                    self.note_landed(who, put.entry, put.record.stored_len, Tier::Remote);
                    window.push((put.entry, std::mem::take(&mut put.stored)));
                    deferred.push(put);
                }
            }
        }
        if window.is_empty() {
            return Ok(());
        }
        let node = server.node();
        let peers = self.group_peers(node)?;
        self.node_manager(node).record_remote_escalation();
        let bytes = window.iter().map(|(_, d)| d.len() as u64).sum();
        let location = match self.metered(who, bytes, || {
            self.replicator
                .store_batch_replicated(node, &window, &peers)
        }) {
            Ok(set) => {
                self.metrics
                    .counter("core.put.remote_batched")
                    .add(set.nodes.len() as u64);
                EntryLocation::Remote {
                    replicas: set.nodes,
                }
            }
            Err(_) => {
                self.metrics
                    .counter("core.put.disk")
                    .add(window.len() as u64);
                self.disk.store_batch(node, window);
                // Credit the residency reserved above: the window fell
                // through to disk, an unmetered tier.
                if let Some(engine) = who.qos {
                    for put in &deferred {
                        engine.note_dropped(who.tenant, put.entry);
                    }
                }
                EntryLocation::Disk
            }
        };
        for put in deferred {
            self.land(put, location.clone());
        }
        Ok(())
    }

    /// Deletes `(server, key)` from its current tier and the memory map.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::EntryNotFound`] for unknown keys.
    pub fn delete(&self, server: ServerId, key: u64) -> DmemResult<()> {
        let entry = EntryId::new(server, key);
        self.remove(entry)
            .then_some(())
            .ok_or(DmemError::EntryNotFound(entry))
    }

    /// The memory-map record of `(server, key)`, if tracked.
    pub fn record(&self, server: ServerId, key: u64) -> Option<EntryRecord> {
        self.maps
            .lock()
            .get(&server)
            .and_then(|m| m.get(key).cloned())
    }

    /// The replication manager, exposed so invariant checkers can probe
    /// live replica degree without re-deriving cluster state.
    pub fn replicator(&self) -> &Replicator {
        &self.replicator
    }

    /// A point-in-time copy of every tracked entry across all memory
    /// maps, as `(owner, key, record)` triples sorted by owner and key.
    ///
    /// This is the invariant-probe API: external checkers (the chaos
    /// harness, debugging tools) sweep the whole map without holding the
    /// map lock across their own per-entry work.
    pub fn entries_snapshot(&self) -> Vec<(ServerId, u64, EntryRecord)> {
        let maps = self.maps.lock();
        let mut out: Vec<(ServerId, u64, EntryRecord)> = maps
            .iter()
            .flat_map(|(server, map)| {
                map.iter()
                    .map(move |(key, record)| (*server, key, record.clone()))
            })
            .collect();
        out.sort_by_key(|(server, key, _)| (*server, *key));
        out
    }

    /// Runs one eviction scan (§IV-F) and applies the resulting moves to
    /// every affected memory map.
    ///
    /// # Errors
    ///
    /// Propagates evictor-level failures.
    pub fn run_eviction(
        &self,
        evictor: &RemoteSlabEvictor,
        placer: &Placer,
    ) -> DmemResult<EvictionOutcome> {
        let span = self.clock.tracer().span("cluster", "evict_scan");
        let outcome = evictor.scan(&self.remote, placer)?;
        span.tag("moves", outcome.moves.len());
        let mut maps = self.maps.lock();
        for (entry, from, to) in &outcome.moves {
            if let Some(map) = maps.get_mut(&entry.owner()) {
                map.relocate_replica(entry.key(), *from, *to);
            }
        }
        Ok(outcome)
    }

    /// Repairs every degraded remote replica set (after node failures),
    /// returning how many entries were re-replicated.
    pub fn repair_replicas(&self) -> usize {
        let span = self.clock.tracer().span("cluster", "repair");
        let mut repaired = 0;
        // Repair in (server, key) snapshot order, not map order: repair
        // order feeds the placement RNG and every host's allocator, so map
        // order would make all downstream placement — and the per-seed
        // metrics digest — vary run-to-run.
        for (server, key, record) in self.entries_snapshot() {
            let EntryLocation::Remote { replicas } = record.location else {
                continue;
            };
            let entry = EntryId::new(server, key);
            let set = dmem_cluster::ReplicaSet { nodes: replicas };
            if self.replicator.live_degree(entry, &set) >= self.replicator.factor().get() {
                continue;
            }
            if let Ok(new_set) = self.replicator.re_replicate(server.node(), entry, &set) {
                let location = EntryLocation::Remote {
                    replicas: new_set.nodes,
                };
                if self.relocate(entry, location) {
                    repaired += 1;
                }
            }
        }
        span.tag("repaired", repaired);
        self.resolve_suspects();
        repaired
    }

    /// Resolves read-failover suspicions at the end of a repair scan:
    /// an alive suspect reachable from every alive peer is probed
    /// healthy and cleared; a dead suspect no longer referenced by any
    /// replica set has been fully repaired around and is evicted from
    /// the suspect list. Anything else stays suspect for the next scan.
    ///
    /// Suspects exist only under fault injection ([`Fabric::faults_installed`]),
    /// so fault-free runs take the empty early-return and create no
    /// metric keys.
    pub(crate) fn resolve_suspects(&self) {
        let suspects = self.membership.suspects();
        if suspects.is_empty() {
            return;
        }
        let referenced: HashSet<NodeId> = self
            .entries_snapshot()
            .into_iter()
            .filter_map(|(_, _, record)| match record.location {
                EntryLocation::Remote { replicas } => Some(replicas),
                _ => None,
            })
            .flatten()
            .collect();
        let alive = self.membership.alive_nodes();
        for node in suspects {
            if self.membership.is_alive(node) {
                let reachable = alive
                    .iter()
                    .all(|&peer| peer == node || self.fabric.is_path_up(peer, node));
                if reachable && self.membership.clear_suspect(node) {
                    self.metrics.counter("cluster.suspect.cleared").inc();
                }
            } else if !referenced.contains(&node) && self.membership.clear_suspect(node) {
                self.metrics.counter("cluster.suspect.evicted").inc();
            }
        }
    }

    /// Handles a crashed-and-restarted node: hosted remote entries are
    /// lost, the receive pool is re-registered, local servers' maps and
    /// shared-pool contents are purged (same failure semantics as losing
    /// OS swap, §IV-D). Returns `(lost_remote_entries, purged_local_entries)`.
    ///
    /// # Errors
    ///
    /// Propagates region re-registration failures if the node is still down.
    pub fn handle_node_restart(&self, node: NodeId) -> DmemResult<(usize, usize)> {
        let lost_remote = self.remote.reset_node(node)?;
        let mut purged = 0;
        let mut maps = self.maps.lock();
        let manager = self.node_manager(node);
        for (&server, map) in maps.iter_mut().filter(|(server, _)| server.node() == node) {
            purged += map.len();
            // The map is cleared wholesale below, bypassing `remove`:
            // release what would otherwise leak and credit residency entry
            // by entry, so pool capacity and quota accounting survive the
            // crash.
            let who = self.tenancy(server);
            for (key, record) in map.iter() {
                let entry = EntryId::new(server, key);
                Tier::release_purged(self, entry, &record.location);
                if let Some(engine) = who.qos {
                    engine.note_dropped(who.tenant, entry);
                }
            }
            *map = MemoryMap::new();
            manager.deregister_server(server);
            let (memory, donation) = (self.config.server.memory, self.config.server.donation);
            manager.register_server(server, memory, donation);
        }
        Ok((lost_remote, purged))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DmStats {
        let mut stats = DmStats::default();
        let mut census = [0; Tier::ALL.len()];
        for map in self.maps.lock().values() {
            stats.entries += map.len();
            for (total, n) in census.iter_mut().zip(map.tier_census()) {
                *total += n;
            }
        }
        [stats.shared, stats.cxl, stats.nvm, stats.remote, stats.disk] = census;
        stats.shared_capacity = self.managers.values().map(|m| m.capacity()).sum();
        let nodes = self.membership.nodes().iter();
        stats.remote_free = nodes.map(|&node| self.membership.free_of(node)).sum();
        stats
    }
}

impl fmt::Debug for DisaggregatedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DisaggregatedMemory")
            .field("nodes", &self.config.nodes)
            .field("servers", &self.servers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::FailureEvent;
    use dmem_types::{CompressionMode, PlacementStrategy};

    fn system() -> DisaggregatedMemory {
        DisaggregatedMemory::new(ClusterConfig::small()).unwrap()
    }

    #[test]
    fn config_is_validated() {
        let mut bad = ClusterConfig::small();
        bad.nodes = 0;
        assert!(DisaggregatedMemory::new(bad).is_err());
    }

    #[test]
    fn put_lands_in_shared_pool_first() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(record.location.is_node_local());
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn compression_is_transparent() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![0u8; 4096]).unwrap(); // highly compressible
        let record = dm.record(server, 1).unwrap();
        assert!(record.class.is_some());
        assert!(record.stored_len < 4096);
        assert!(record.compression_ratio() > 2.0);
        assert_eq!(dm.get(server, 1).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn overflow_tiers_to_remote_then_disk() {
        let mut config = ClusterConfig::small();
        // Tiny donations so the shared pool fills immediately, and no
        // compression so each page really occupies 4 KiB remotely.
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.node.recv_pool = ByteSize::from_kib(64);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        // Shared pool has zero capacity: entries go remote.
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(record.location.is_remote(), "got {:?}", record.location);
        assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 4096]);

        // Exhaust remote pools too: spills to disk. Incompressible pages
        // of 4 KiB × enough keys to overrun 3 × 64 KiB of replicas.
        for k in 2..60 {
            dm.put(server, k, vec![k as u8; 4096]).unwrap();
        }
        let stats = dm.stats();
        assert!(stats.disk > 0, "disk tier must absorb the overflow");
        // Everything still readable.
        for k in 2..60 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
    }

    #[test]
    fn explicit_tier_preferences() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 512], TierPreference::Disk)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_disk());
        dm.put_pref(server, 2, vec![2u8; 512], TierPreference::Remote)
            .unwrap();
        assert!(dm.record(server, 2).unwrap().location.is_remote());
        dm.put_pref(server, 3, vec![3u8; 512], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_node_local());
        for k in 1..=3 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 512]);
        }
    }

    #[test]
    fn replace_updates_version_and_frees_old_tier() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 256], TierPreference::Disk)
            .unwrap();
        dm.put_pref(server, 1, vec![2u8; 256], TierPreference::Remote)
            .unwrap();
        let record = dm.record(server, 1).unwrap();
        assert_eq!(
            record.version, 1,
            "fresh key after remove: version restarts"
        );
        assert!(record.location.is_remote());
        assert!(!dm
            .disk_tier()
            .contains(server.node(), EntryId::new(server, 1)));
        assert_eq!(dm.get(server, 1).unwrap(), vec![2u8; 256]);
    }

    #[test]
    fn delete_removes_everywhere() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 128]).unwrap();
        dm.delete(server, 1).unwrap();
        assert!(dm.record(server, 1).is_none());
        assert!(matches!(
            dm.get(server, 1),
            Err(DmemError::EntryNotFound(_))
        ));
        assert!(matches!(
            dm.delete(server, 1),
            Err(DmemError::EntryNotFound(_))
        ));
    }

    #[test]
    fn remote_read_survives_replica_failures() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![9u8; 2048]).unwrap();
        let record = dm.record(server, 1).unwrap();
        let replicas = match &record.location {
            EntryLocation::Remote { replicas } => replicas.clone(),
            other => panic!("expected remote, got {other:?}"),
        };
        assert_eq!(replicas.len(), 3);
        // Two of three replicas die; read still succeeds.
        dm.failures()
            .inject_now(FailureEvent::NodeDown(replicas[0]));
        dm.failures()
            .inject_now(FailureEvent::NodeDown(replicas[1]));
        assert_eq!(dm.get(server, 1).unwrap(), vec![9u8; 2048]);
    }

    #[test]
    fn repair_restores_replication_degree() {
        let mut config = ClusterConfig::small();
        config.nodes = 6;
        config.group_size = 6;
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![3u8; 1024]).unwrap();
        let replicas = match dm.record(server, 1).unwrap().location {
            EntryLocation::Remote { replicas } => replicas,
            other => panic!("expected remote, got {other:?}"),
        };
        let victim = replicas[0];
        dm.failures().inject_now(FailureEvent::NodeDown(victim));
        dm.failures().inject_now(FailureEvent::NodeUp(victim));
        dm.handle_node_restart(victim).unwrap();

        let repaired = dm.repair_replicas();
        assert_eq!(repaired, 1);
        let new_replicas = match dm.record(server, 1).unwrap().location {
            EntryLocation::Remote { replicas } => replicas,
            other => panic!("expected remote, got {other:?}"),
        };
        assert_eq!(new_replicas.len(), 3);
        assert_eq!(dm.get(server, 1).unwrap(), vec![3u8; 1024]);
    }

    #[test]
    fn node_restart_loses_local_maps() {
        let dm = system();
        let server = dm.servers()[0]; // on node 0
        dm.put(server, 1, vec![1u8; 64]).unwrap();
        let (_, purged) = dm.handle_node_restart(server.node()).unwrap();
        assert_eq!(purged, 1);
        assert!(dm.record(server, 1).is_none(), "map gone with the node");
    }

    #[test]
    fn batch_roundtrip_and_batching_speedup() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let batch: Vec<(u64, Vec<u8>)> = (0..16).map(|k| (k, vec![k as u8; 4096])).collect();
        let t0 = dm.clock().now();
        dm.put_batch(server, batch, TierPreference::Remote).unwrap();
        let batched_cost = dm.clock().now() - t0;

        let keys: Vec<u64> = (0..16).collect();
        let loaded = dm.get_batch(server, &keys).unwrap();
        for (k, data) in loaded.iter().enumerate() {
            assert_eq!(data, &vec![k as u8; 4096]);
        }

        // Singleton puts of the same volume cost strictly more.
        let t1 = dm.clock().now();
        for k in 16..32u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let single_cost = dm.clock().now() - t1;
        assert!(
            batched_cost < single_cost,
            "batched {batched_cost} >= single {single_cost}"
        );
    }

    #[test]
    fn large_entries_bypass_shared_pool() {
        let dm = system();
        let server = dm.servers()[0];
        let big = vec![5u8; 64 * 1024];
        dm.put(server, 1, big.clone()).unwrap();
        let record = dm.record(server, 1).unwrap();
        assert!(!record.location.is_node_local());
        assert_eq!(dm.get(server, 1).unwrap(), big);
    }

    #[test]
    fn group_leadership_is_exposed() {
        let dm = system();
        let leader = dm.group_leader(NodeId::new(0)).unwrap();
        assert!(dm.membership().is_alive(leader));
        let peers = dm.group_peers(NodeId::new(0)).unwrap();
        assert!(!peers.contains(&NodeId::new(0)));
    }

    #[test]
    fn dead_server_cannot_put() {
        let dm = system();
        let server = dm.servers()[0];
        dm.failures().inject_now(FailureEvent::ServerDown(server));
        assert!(matches!(
            dm.put(server, 1, vec![1]),
            Err(DmemError::ServerUnavailable(_))
        ));
    }

    #[test]
    fn stats_track_census() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 64], TierPreference::NodeShared)
            .unwrap();
        dm.put_pref(server, 2, vec![2u8; 64], TierPreference::Remote)
            .unwrap();
        dm.put_pref(server, 3, vec![3u8; 64], TierPreference::Disk)
            .unwrap();
        let stats = dm.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!((stats.shared, stats.remote, stats.disk), (1, 1, 1));
        assert!(stats.shared_capacity > ByteSize::ZERO);
        assert_eq!(dm.metrics().counter("core.put.shared").get(), 1);
    }

    #[test]
    fn placement_strategies_all_construct() {
        for placement in [
            PlacementStrategy::Random,
            PlacementStrategy::RoundRobin,
            PlacementStrategy::WeightedRoundRobin,
            PlacementStrategy::PowerOfTwoChoices,
        ] {
            let mut config = ClusterConfig::small();
            config.placement = placement;
            let dm = DisaggregatedMemory::new(config).unwrap();
            let server = dm.servers()[0];
            dm.put_pref(server, 1, vec![1u8; 64], TierPreference::Remote)
                .unwrap();
            assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 64]);
        }
    }

    #[test]
    fn nvm_tier_disabled_by_default() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 512], TierPreference::Nvm)
            .unwrap();
        // Without an NVM pool the preference spills to disk.
        assert!(dm.record(server, 1).unwrap().location.is_disk());
    }

    #[test]
    fn nvm_tier_roundtrip_and_capacity() {
        let mut config = ClusterConfig::small();
        config.node.nvm_pool = ByteSize::from_kib(8);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 4096], TierPreference::Nvm)
            .unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Nvm)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_nvm());
        assert_eq!(dm.nvm_used(server.node()), ByteSize::from_kib(8));
        // Pool full: the third entry spills to disk.
        dm.put_pref(server, 3, vec![3u8; 4096], TierPreference::Nvm)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_disk());
        // Reads are tier-transparent; deleting releases capacity.
        assert_eq!(dm.get(server, 1).unwrap(), vec![1u8; 4096]);
        dm.delete(server, 1).unwrap();
        assert_eq!(dm.nvm_used(server.node()), ByteSize::from_kib(4));
        let stats = dm.stats();
        assert_eq!(stats.nvm, 1);
        assert_eq!(stats.disk, 1);
    }

    #[test]
    fn node_restart_releases_nvm_capacity() {
        let mut config = ClusterConfig::small();
        config.node.nvm_pool = ByteSize::from_kib(8);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        for k in 1..=2u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Nvm)
                .unwrap();
        }
        assert_eq!(dm.nvm_used(server.node()), ByteSize::from_kib(8));
        dm.handle_node_restart(server.node()).unwrap();
        assert_eq!(dm.stats().entries, 0);
        assert_eq!(
            dm.nvm_used(server.node()),
            ByteSize::new(0),
            "purged entries free their NVM"
        );
        dm.put_pref(server, 3, vec![3u8; 4096], TierPreference::Nvm)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_nvm());
    }

    /// `put_pref` and `put_batch` walk the same ladders: for every
    /// preference, plus a full shared pool and a QoS-denied tenant, four
    /// single puts and one batch of the same four pages land in the same
    /// tier and bump the same per-tier counters. Remote is the one
    /// intended difference: single puts count `core.put.remote`, the
    /// batch one `core.put.remote_batched` per replica of its window.
    #[test]
    fn put_and_put_batch_land_alike() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        #[derive(Clone, Copy)]
        enum Setup {
            AllTiers,
            FullSharedPool,
            QosDenied,
        }
        let build = |setup: Setup| {
            let mut config = ClusterConfig::small();
            config.compression = CompressionMode::Off;
            config.node.nvm_pool = ByteSize::from_mib(1);
            config.cxl = dmem_types::CxlPoolConfig::new(2, ByteSize::from_mib(1));
            if let Setup::FullSharedPool = setup {
                config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
            }
            let dm = DisaggregatedMemory::new(config).unwrap();
            if let Setup::QosDenied = setup {
                let engine = Arc::new(QosEngine::new(QosConfig::default()));
                dm.install_qos(Arc::clone(&engine));
                let tenant =
                    engine.register_tenant(TenantSpec::new("capped", 50, ByteSize::new(0)));
                engine.assign_server(dm.servers()[0], tenant);
            }
            dm
        };
        let cases = [
            (Setup::AllTiers, TierPreference::Auto, Tier::Shared),
            (Setup::AllTiers, TierPreference::NodeShared, Tier::Shared),
            (Setup::AllTiers, TierPreference::Cxl, Tier::Cxl),
            (Setup::AllTiers, TierPreference::Nvm, Tier::Nvm),
            (Setup::AllTiers, TierPreference::Remote, Tier::Remote),
            (Setup::AllTiers, TierPreference::Disk, Tier::Disk),
            (
                Setup::FullSharedPool,
                TierPreference::NodeShared,
                Tier::Disk,
            ),
            (Setup::FullSharedPool, TierPreference::Auto, Tier::Cxl),
            (Setup::QosDenied, TierPreference::Auto, Tier::Disk),
            (Setup::QosDenied, TierPreference::Remote, Tier::Disk),
        ];
        for (setup, pref, expected) in cases {
            let (single, batched) = (build(setup), build(setup));
            let server = single.servers()[0];
            let pages: Vec<(u64, Vec<u8>)> =
                (0..4u64).map(|k| (k, vec![k as u8 + 1; 4096])).collect();
            for (key, page) in pages.clone() {
                single.put_pref(server, key, page, pref).unwrap();
            }
            batched.put_batch(server, pages.clone(), pref).unwrap();
            for (key, page) in &pages {
                let tiers = [&single, &batched]
                    .map(|dm| Tier::of(&dm.record(server, *key).unwrap().location));
                assert_eq!(tiers, [expected; 2], "{pref:?} key {key}");
                assert_eq!(&batched.get(server, *key).unwrap(), page);
            }
            for counter in [
                "core.put.shared",
                "core.put.cxl",
                "core.put.nvm",
                "core.put.disk",
            ] {
                let counts = [&single, &batched].map(|dm| dm.metrics().counter(counter).get());
                assert_eq!(counts[0], counts[1], "{pref:?}: {counter}");
            }
            let remote =
                |dm: &DisaggregatedMemory, counter: &str| dm.metrics().counter(counter).get();
            let is_remote = expected == Tier::Remote;
            assert_eq!(
                remote(&single, "core.put.remote"),
                if is_remote { 4 } else { 0 }
            );
            assert_eq!(remote(&batched, "core.put.remote"), 0);
            assert_eq!(remote(&batched, "core.put.remote_batched") > 0, is_remote);
        }
    }

    fn cxl_system(pool_nodes: usize, cap: ByteSize) -> DisaggregatedMemory {
        let mut config = ClusterConfig::small();
        config.cxl = dmem_types::CxlPoolConfig::new(pool_nodes, cap);
        config.compression = CompressionMode::Off;
        DisaggregatedMemory::new(config).unwrap()
    }

    #[test]
    fn cxl_tier_roundtrip_capacity_and_stats() {
        // One pool node so capacity arithmetic is placement-independent.
        let dm = cxl_system(1, ByteSize::from_kib(16));
        let server = dm.servers()[0];
        for k in 1..=4u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Cxl)
                .unwrap();
            assert!(dm.record(server, k).unwrap().location.is_cxl());
        }
        let pool = dm.cxl_pool().expect("configured");
        assert_eq!(pool.used_total(), ByteSize::from_kib(16));
        // Pool full (16 KiB): the fifth entry spills to disk.
        dm.put_pref(server, 5, vec![5u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 5).unwrap().location.is_disk());
        // Reads are tier-transparent; deleting releases pool capacity
        // and drops the write-behind shadow.
        for k in 1..=5u64 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
        dm.delete(server, 1).unwrap();
        assert_eq!(pool.used_total(), ByteSize::from_kib(12));
        assert!(!dm
            .disk_tier()
            .contains(server.node(), EntryId::new(server, 1)));
        let stats = dm.stats();
        assert_eq!(stats.cxl, 3, "stats {stats:?}");
        assert_eq!(stats.disk, 1);
        assert!(dm.metrics().counter("cxl.store.ops").get() >= 4);
    }

    #[test]
    fn cxl_outage_fails_over_to_the_disk_shadow() {
        let dm = cxl_system(1, ByteSize::from_kib(64));
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![6u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 1).unwrap().location.is_cxl());
        let pool = Arc::clone(dm.cxl_pool().unwrap());
        pool.set_pool_node_down(0);
        // The pool is unreachable, but the read degrades to the shadow
        // copy — correct bytes, checksum-verified, at disk cost.
        let t0 = dm.clock().now();
        assert_eq!(dm.get(server, 1).unwrap(), vec![6u8; 4096]);
        assert!((dm.clock().now() - t0).as_millis_f64() > 3.0, "paid disk");
        assert_eq!(dm.metrics().counter("cxl.failover.reads").get(), 1);
        pool.set_pool_node_up(0);
        let t1 = dm.clock().now();
        assert_eq!(dm.get(server, 1).unwrap(), vec![6u8; 4096]);
        assert!(
            (dm.clock().now() - t1).as_micros_f64() < 100.0,
            "recovered reads go back to the pool"
        );
        // New puts during an outage of the only pool node spill to disk.
        pool.set_pool_node_down(0);
        dm.put_pref(server, 2, vec![7u8; 4096], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 2).unwrap().location.is_disk());
    }

    #[test]
    fn auto_prefers_cxl_before_nvm_and_remote() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0); // no shared pool
        config.node.nvm_pool = ByteSize::from_mib(1);
        config.cxl = dmem_types::CxlPoolConfig::new(2, ByteSize::from_kib(64));
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let t0 = dm.clock().now();
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let put_cost = dm.clock().now() - t0;
        assert!(
            dm.record(server, 1).unwrap().location.is_cxl(),
            "cxl outranks nvm and remote in the Auto hierarchy"
        );
        assert!(put_cost.as_micros_f64() < 10.0, "cxl put cost {put_cost}");
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn cxl_remote_atomics_through_the_pool_handle() {
        let dm = cxl_system(2, ByteSize::from_kib(8));
        let pool = dm.cxl_pool().unwrap();
        let cell = pool.alloc_counter(42).unwrap();
        assert_eq!(pool.fetch_add(cell, 5).unwrap(), 0);
        assert_eq!(pool.cas(cell, 5, 11).unwrap(), 5);
        assert_eq!(pool.counter_value(cell).unwrap(), 11);
        assert_eq!(pool.counter_ops(cell), 2);
        assert!(dm.metrics().counter("cxl.atomic.ops").get() == 2);
    }

    #[test]
    fn no_cxl_metrics_without_a_pool() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Remote)
            .unwrap();
        dm.get(server, 1).unwrap();
        assert!(dm.cxl_pool().is_none());
        // An explicit Cxl preference without a pool degrades to disk.
        dm.put_pref(server, 3, vec![3u8; 512], TierPreference::Cxl)
            .unwrap();
        assert!(dm.record(server, 3).unwrap().location.is_disk());
        let dump = dm.metrics().to_string();
        assert!(!dump.contains("cxl."), "cxl keys leaked: {dump}");
    }

    #[test]
    fn auto_prefers_nvm_over_remote_when_configured() {
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0); // no shared pool
        config.node.nvm_pool = ByteSize::from_mib(1);
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        let t0 = dm.clock().now();
        dm.put(server, 1, vec![7u8; 4096]).unwrap();
        let put_cost = dm.clock().now() - t0;
        assert!(dm.record(server, 1).unwrap().location.is_nvm());
        // NVM absorbs the overflow more cheaply than a triple-replicated
        // remote write would.
        assert!(put_cost.as_micros_f64() < 15.0, "nvm put cost {put_cost}");
        assert_eq!(dm.get(server, 1).unwrap(), vec![7u8; 4096]);
    }

    #[test]
    fn no_qos_metrics_without_engine() {
        let dm = system();
        let server = dm.servers()[0];
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        dm.put_pref(server, 2, vec![2u8; 4096], TierPreference::Remote)
            .unwrap();
        dm.get(server, 1).unwrap();
        dm.get(server, 2).unwrap();
        assert_eq!(dm.qos_tick(), 0);
        assert!(dm.qos().is_none());
        assert!(dm.qos_priority_resolver().is_none());
        let dump = dm.metrics().to_string();
        assert!(!dump.contains("qos."), "qos keys leaked: {dump}");
        assert!(!dump.contains("net.tenant-"), "tenant keys leaked: {dump}");
    }

    #[test]
    fn qos_quota_denial_degrades_to_disk() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let capped = engine.register_tenant(TenantSpec::new("capped", 50, ByteSize::from_kib(4)));
        engine.assign_server(server, capped);
        for k in 0..4u64 {
            dm.put(server, k, vec![k as u8; 4096]).unwrap();
        }
        // One page fits the 4 KiB quota; the rest degrade to disk — no
        // hard failure, every entry still readable.
        let stats = dm.stats();
        assert_eq!(stats.disk, 3, "stats {stats:?}");
        for k in 0..4u64 {
            assert_eq!(dm.get(server, k).unwrap(), vec![k as u8; 4096]);
        }
        assert!(dm.metrics().counter("qos.capped.rejected.bytes").get() > 0);
        assert!(dm.metrics().counter("qos.capped.admitted.bytes").get() > 0);
        // Deleting the resident entry frees the quota again.
        dm.delete(server, 0).unwrap();
        dm.put(server, 9, vec![9u8; 4096]).unwrap();
        assert!(!dm.record(server, 9).unwrap().location.is_disk());
    }

    #[test]
    fn qos_priority_eviction_reclaims_low_priority_pages() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        // One 8 KiB slab of donation per node: room for exactly two pages.
        config.node.slab_size = ByteSize::from_kib(8);
        config.server.donation = dmem_types::DonationPolicy::fixed(0.000244140625);
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let low_server = dm.servers()[0];
        let high_server = dm.servers()[1]; // same node
        assert_eq!(low_server.node(), high_server.node());
        let low = engine.register_tenant(TenantSpec::new("batch", 10, ByteSize::from_mib(4)));
        let high = engine.register_tenant(TenantSpec::new("kv", 200, ByteSize::from_mib(4)));
        engine.assign_server(low_server, low);
        engine.assign_server(high_server, high);
        // The low-priority tenant fills the node's two-page shared pool.
        for k in 1..=2u64 {
            dm.put_pref(
                low_server,
                k,
                vec![k as u8; 4096],
                TierPreference::NodeShared,
            )
            .unwrap();
            assert!(dm.record(low_server, k).unwrap().location.is_node_local());
        }
        // A high-priority put reclaims one of those pages instead of
        // spilling to a slower tier.
        dm.put_pref(high_server, 7, vec![7u8; 4096], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(high_server, 7).unwrap().location.is_node_local());
        let evictions = engine.evictions();
        assert_eq!(evictions.len(), 1);
        assert!(evictions[0].victim_priority <= evictions[0].beneficiary_priority);
        // Exactly one victim was demoted to disk — and not lost.
        let demoted = (1..=2u64)
            .filter(|&k| dm.record(low_server, k).unwrap().location.is_disk())
            .count();
        assert_eq!(demoted, 1);
        for k in 1..=2u64 {
            assert_eq!(dm.get(low_server, k).unwrap(), vec![k as u8; 4096]);
        }
        // The reverse direction must not hold: the low-priority tenant
        // cannot evict the high-priority page.
        dm.put_pref(low_server, 3, vec![3u8; 4096], TierPreference::NodeShared)
            .unwrap();
        assert!(dm.record(high_server, 7).unwrap().location.is_node_local());
    }

    #[test]
    fn qos_fabric_rate_limit_throttles_remote_traffic() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let mut config = ClusterConfig::small();
        config.server.donation = dmem_types::DonationPolicy::fixed(0.0);
        config.compression = CompressionMode::Off;

        let baseline = DisaggregatedMemory::new(config.clone()).unwrap();
        let s = baseline.servers()[0];
        let t0 = baseline.clock().now();
        for k in 0..8u64 {
            baseline
                .put_pref(s, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let base_cost = baseline.clock().now() - t0;

        let dm = DisaggregatedMemory::new(config).unwrap();
        let engine = Arc::new(QosEngine::new(QosConfig {
            burst: ByteSize::from_kib(4),
            ..QosConfig::default()
        }));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let slow = engine.register_tenant(
            TenantSpec::new("slow", 10, ByteSize::from_mib(16)).with_fabric_rate(1_000_000),
        );
        engine.assign_server(server, slow);
        let t1 = dm.clock().now();
        for k in 0..8u64 {
            dm.put_pref(server, k, vec![k as u8; 4096], TierPreference::Remote)
                .unwrap();
        }
        let limited_cost = dm.clock().now() - t1;
        assert!(
            limited_cost > base_cost,
            "rate limit must slow the tenant: {limited_cost} <= {base_cost}"
        );
        assert!(
            dm.metrics().counter("qos.slow.tokens_waited.ns").get() > 0,
            "waits must be accounted"
        );
        let raw = slow.index();
        let net = dm.fabric().metrics();
        assert!(net.counter(&format!("net.tenant-{raw}.ops")).get() > 0);
        assert!(net.counter(&format!("net.tenant-{raw}.bytes")).get() > 0);
        // Scope never leaks past the metered section.
        assert!(dm.fabric().tenant_scope().is_none());
    }

    #[test]
    fn qos_node_restart_credits_residency() {
        use dmem_qos::{QosConfig, QosEngine, TenantSpec};
        let dm = system();
        let engine = Arc::new(QosEngine::new(QosConfig::default()));
        dm.install_qos(Arc::clone(&engine));
        let server = dm.servers()[0];
        let tenant = engine.register_tenant(TenantSpec::new("t", 50, ByteSize::from_mib(1)));
        engine.assign_server(server, tenant);
        dm.put(server, 1, vec![1u8; 4096]).unwrap();
        let resident_before = engine
            .tenants_snapshot()
            .iter()
            .find(|t| t.id == tenant)
            .unwrap()
            .resident;
        assert!(resident_before > 0);
        dm.handle_node_restart(server.node()).unwrap();
        let resident_after = engine
            .tenants_snapshot()
            .iter()
            .find(|t| t.id == tenant)
            .unwrap()
            .resident;
        assert_eq!(resident_after, 0, "crash must credit the quota");
    }

    #[test]
    fn corruption_is_detected() {
        // White-box: store raw (uncompressed) on disk, then flip bytes by
        // re-storing via the disk tier directly.
        let mut config = ClusterConfig::small();
        config.compression = CompressionMode::Off;
        let dm = DisaggregatedMemory::new(config).unwrap();
        let server = dm.servers()[0];
        dm.put_pref(server, 1, vec![1u8; 64], TierPreference::Disk)
            .unwrap();
        dm.disk_tier()
            .store(server.node(), EntryId::new(server, 1), vec![2u8; 64]);
        assert!(matches!(dm.get(server, 1), Err(DmemError::Corrupt(_))));
    }
}
