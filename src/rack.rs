//! Rack-scale disaggregated-memory simulation on the sharded engine.
//!
//! The paper's headline scenarios — whole racks serving far memory to
//! whole clusters — need simulations two orders of magnitude past the
//! tens-of-hosts figures. This model runs them: hundreds to thousands of
//! hosts, each with a bounded local frame cache faulting 4 KiB pages
//! from replicated remote memory over the fabric, with host outages,
//! read failover and suspect probing, executed by
//! [`ShardedEngine`] so the work spreads across cores
//! while every output byte stays independent of the worker count.
//!
//! Page *contents* are never materialized: both sides compute a
//! deterministic checksum from `(page, version)`
//! ([`page_checksum`]), so a 4 TiB logical address space costs no
//! memory, every read is verified end-to-end (a wrong or torn read
//! panics), and the checksum work itself is the per-shard compute that
//! parallelises.
//!
//! Consistency model: remote writes (dirty-page writebacks) bump the
//! page version and fan out to every replica; the *expectation* a
//! reader holds is raised only after **all** replicas acknowledged, so
//! a version older than expected can never be observed — the no-stale-
//! read invariant, checked on every fault. Outages model *reachability*
//! loss (reads and probes fail, failover engages), not data loss:
//! replica memory keeps applying writes while unreachable, as a
//! suspected-but-live memory server would.

use dmem_cluster::spread_replicas;
use dmem_net::{HostOutage, ShardFaultSchedule};
use dmem_sim::shard::{shard_rng, EngineTiming, EpochCtx, ShardWorker, ShardedEngine};
use dmem_sim::{
    splitmix64, CostModel, DetRng, EventQueue, FlightRecorder, IntMap, LocalMetrics, ShardClock,
    ShardEventLog, ShardId, ShardMap, ShardSampler, SimDuration, SimInstant, Timeline,
};
use std::fmt;

/// Configuration of one rack-scale run. All fields shape the *scenario*;
/// the worker count is a separate argument to [`run_rack`] and never
/// changes the output.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// Hosts in the rack.
    pub hosts: usize,
    /// Logical far-memory pages per host (never materialized).
    pub pages_per_host: u64,
    /// Local cache frames per host.
    pub frames_per_host: usize,
    /// Accesses each host issues (closed loop, one outstanding fault).
    pub accesses_per_host: u64,
    /// Replica copies per page (≥ 1).
    pub replicas: usize,
    /// Hosts per shard (the logical partition; fixed by the scenario).
    pub hosts_per_shard: usize,
    /// Fraction of accesses that dirty the page (trigger writeback on
    /// eviction).
    pub write_fraction: f64,
    /// Fraction of each host's pages forming its hot set.
    pub hot_fraction: f64,
    /// Probability an access lands in the hot set.
    pub hot_weight: f64,
    /// Whether hosts suffer outage windows (failover + probes engage).
    pub faults: bool,
    /// Fraction of hosts that suffer one outage (when `faults`).
    pub outage_fraction: f64,
    /// Keep one trace event in this many (0 disables the trace).
    pub trace_sample: u64,
    /// Telemetry sampling window: each shard captures its metric deltas
    /// on this virtual-time grid, merged post-run into
    /// [`RackReport::timeline`] in `(window, shard)` order — so the
    /// timeline is byte-identical at every worker count.
    /// `SimDuration::ZERO` disables sampling.
    pub timeline_window: SimDuration,
    /// Root seed; everything derives from it.
    pub seed: u64,
}

impl RackConfig {
    /// The `fig4_rack` sweep shape: replicated, faulted, traced.
    pub fn rack_default(hosts: usize) -> Self {
        RackConfig {
            hosts,
            pages_per_host: 4096,
            frames_per_host: 64,
            accesses_per_host: 200,
            replicas: 2,
            hosts_per_shard: 32,
            write_fraction: 0.3,
            hot_fraction: 0.02,
            hot_weight: 0.8,
            faults: true,
            outage_fraction: 0.05,
            trace_sample: 4096,
            timeline_window: SimDuration::from_micros(10),
            seed: 0x00d1_5a66,
        }
    }

    /// A small, fast shape for tests and the CI smoke.
    pub fn smoke() -> Self {
        RackConfig {
            hosts: 64,
            pages_per_host: 256,
            frames_per_host: 8,
            accesses_per_host: 60,
            hosts_per_shard: 8,
            trace_sample: 64,
            ..RackConfig::rack_default(64)
        }
    }

    /// The logical shard partition this configuration fixes.
    pub fn shard_map(&self) -> ShardMap {
        ShardMap::grouped(self.hosts, self.hosts.div_ceil(self.hosts_per_shard.max(1)))
    }

    /// The outage horizon estimate: long enough that every outage ends
    /// while traffic still flows, short enough that faults overlap the
    /// measured window.
    fn outage_horizon(&self) -> SimDuration {
        // Roughly half the expected virtual run length.
        SimDuration::from_micros(self.accesses_per_host.max(1))
    }
}

/// Deterministic checksum of the synthetic content of `(page, version)`.
///
/// Stands in for hashing a real 4 KiB page: 512 word-mixing rounds, so
/// serving and verifying a page costs real CPU on the owning shard and
/// the faulting shard — the per-shard compute that makes worker scaling
/// measurable. Any disagreement between the serving replica and the
/// reader means a wrong/torn read and panics the run.
pub fn page_checksum(page: u64, version: u32) -> u64 {
    let seed = splitmix64(page.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(version) << 40));
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for word in 0..512u64 {
        acc = (acc ^ splitmix64(seed ^ word)).wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

/// Cross-shard messages of the rack model. Every variant is a fabric
/// verb class: one-sided-read RPCs, replication writes, failover probes.
#[derive(Debug, Clone, Copy)]
enum RackMsg {
    /// Remote page fault: `requester` asks replica `replica_idx` of
    /// `page` for its content.
    ReadReq {
        page: u64,
        requester: usize,
        target: usize,
        replica_idx: usize,
    },
    /// Successful read: version + content checksum.
    ReadResp {
        page: u64,
        requester: usize,
        version: u32,
        checksum: u64,
    },
    /// The target was unreachable; the requester fails over.
    ReadNack {
        page: u64,
        requester: usize,
        target: usize,
        replica_idx: usize,
    },
    /// Replication write of a dirty page (writeback), new `version`.
    WriteReq {
        page: u64,
        target: usize,
        requester: usize,
        version: u32,
    },
    /// Replica acknowledged the write.
    WriteAck {
        page: u64,
        requester: usize,
        version: u32,
    },
    /// Failover probe: is `target` reachable again?
    ProbeReq { target: usize, requester: usize },
    /// Probe answer.
    ProbeAck {
        target: usize,
        requester: usize,
        up: bool,
    },
}

/// Local (intra-shard) events.
enum LocalEvent {
    /// A host issues its next access.
    Access { host: usize },
    /// A mailbox envelope came due.
    Deliver { msg: RackMsg },
}

/// A page fault in flight: what was asked for, when, and the version
/// floor any answer must satisfy.
#[derive(Debug, Clone, Copy)]
struct InflightFault {
    page: u64,
    /// The triggering access wants the page dirty once it lands.
    dirty: bool,
    started: SimInstant,
    /// `expected[page]` when the *current* read was issued: every
    /// writeback fully acknowledged before the read left must be
    /// visible at whichever replica answers — the no-stale-read
    /// invariant. (A writeback still in flight at issue time may
    /// legitimately be missed.)
    floor: u32,
}

/// One cached frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    version: u32,
    dirty: bool,
}

/// Per-host state, owned by the host's shard.
struct HostState {
    rng: DetRng,
    /// Resident pages (global ids) with their version + dirty bit.
    frames: IntMap<u64, Frame>,
    /// FIFO eviction order of resident pages.
    fifo: std::collections::VecDeque<u64>,
    /// Lower bound a read of each page must satisfy (raised only after
    /// all replicas acked the writeback).
    expected: IntMap<u64, u32>,
    /// Writebacks awaiting replica acks: (page, version) → acks left.
    pending_writes: IntMap<(u64, u32), usize>,
    /// Replica hosts currently suspected unreachable.
    suspects: Vec<usize>,
    /// The fault currently in flight (one outstanding per host).
    inflight: Option<InflightFault>,
    issued: u64,
    done: bool,
}

/// One shard of the rack: its hosts, replica store, outage windows.
struct RackShard {
    shard: ShardId,
    cfg: RackConfig,
    map: ShardMap,
    cost: CostModel,
    clock: ShardClock,
    queue: EventQueue<LocalEvent>,
    /// First host this shard owns; `hosts[i]` is host `first_host + i`.
    first_host: usize,
    /// State of the shard's contiguous host range.
    hosts: Vec<HostState>,
    /// Replica memory hosted here: (host, page) → version.
    store: IntMap<(usize, u64), u32>,
    /// Outage windows of this shard's hosts.
    outages: Vec<HostOutage>,
    metrics: LocalMetrics,
    log: ShardEventLog,
    sampler: ShardSampler,
}

impl RackShard {
    fn new(shard: ShardId, cfg: &RackConfig, map: &ShardMap, outages: Vec<HostOutage>) -> Self {
        let owned = map.hosts_of(shard);
        let mut rack = RackShard {
            shard,
            cfg: cfg.clone(),
            map: map.clone(),
            cost: CostModel::paper_default(),
            clock: ShardClock::new(),
            queue: EventQueue::new(),
            first_host: owned.start,
            hosts: Vec::with_capacity(owned.len()),
            store: IntMap::default(),
            outages,
            metrics: LocalMetrics::new(),
            log: ShardEventLog::new(shard.0, cfg.trace_sample),
            sampler: ShardSampler::new(shard.0, cfg.timeline_window),
        };
        // The shard owns its hosts' streams: all derive from the shard's
        // own (root_seed, shard_id)-split stream, never from a shared one.
        let stream = shard_rng(cfg.seed, shard);
        for host in owned {
            let mut rng = stream.fork_indexed("rack.host", host as u64);
            let kickoff = SimInstant::from_nanos(rng.below(2_000) as u64);
            rack.hosts.push(HostState {
                rng,
                frames: IntMap::default(),
                fifo: std::collections::VecDeque::new(),
                expected: IntMap::default(),
                pending_writes: IntMap::default(),
                suspects: Vec::new(),
                inflight: None,
                issued: 0,
                done: false,
            });
            rack.queue.schedule(kickoff, LocalEvent::Access { host });
        }
        rack
    }

    /// State of `host`, which this shard must own.
    fn host_mut(&mut self, host: usize) -> &mut HostState {
        &mut self.hosts[host - self.first_host]
    }

    /// Whether `host` (owned by this shard) is inside an outage window.
    fn host_down(&self, host: usize, now: SimInstant) -> bool {
        self.outages
            .iter()
            .any(|o| o.host == host && o.from <= now && now < o.until)
    }

    /// Small fixed-size control message latency.
    fn msg_lat(&self) -> SimDuration {
        self.cost.rdma.transfer(64)
    }

    /// 4 KiB payload latency.
    fn page_lat(&self) -> SimDuration {
        self.cost.rdma.transfer(4096 + 64)
    }

    /// The replica set of `page` for `owner` (pure, shard-local).
    fn replicas_of(&self, page: u64, owner: usize) -> Vec<usize> {
        spread_replicas(page, owner, self.cfg.hosts, self.cfg.replicas, &self.map)
    }

    fn send(&self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, to_host: usize, lat: SimDuration, msg: RackMsg) {
        let dest = self.map.shard_of(to_host);
        ctx.send(dest, now, now + lat, msg);
    }

    /// Issues the read of `page` for `host` to replica `replica_idx`,
    /// failing over past suspects. Returns `false` when every replica is
    /// suspect (the caller stalls and retries).
    fn issue_read(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        from_idx: usize,
    ) -> bool {
        let replicas = self.replicas_of(page, host);
        let chosen = {
            let state = self.host_mut(host);
            let idx =
                (from_idx..replicas.len()).find(|&i| !state.suspects.contains(&replicas[i]));
            if idx.is_some() {
                // Snapshot the stale-read floor at issue time: every
                // writeback fully acked *before now* must be visible to
                // this read, wherever it lands.
                let floor = state.expected.get(&page).copied().unwrap_or(0);
                if let Some(fault) = state.inflight.as_mut() {
                    fault.floor = floor;
                }
            }
            idx
        };
        let Some(idx) = chosen else { return false };
        let target = replicas[idx];
        let lat = self.msg_lat();
        self.send(
            ctx,
            now,
            target,
            lat,
            RackMsg::ReadReq {
                page,
                requester: host,
                target,
                replica_idx: idx,
            },
        );
        true
    }

    /// One access of `host`'s workload loop.
    fn access(&mut self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, host: usize) {
        let cfg_pages = self.cfg.pages_per_host;
        let (hot_fraction, hot_weight) = (self.cfg.hot_fraction, self.cfg.hot_weight);
        let write_fraction = self.cfg.write_fraction;
        let hit_cost = self.cost.dram.transfer(4096);
        let accesses_per_host = self.cfg.accesses_per_host;
        let state = self.host_mut(host);
        if state.issued >= accesses_per_host {
            state.done = true;
            return;
        }
        state.issued += 1;
        // Hot-set skew: a small set of pages absorbs most accesses.
        let hot_pages = ((cfg_pages as f64 * hot_fraction) as u64).max(1);
        let local = if state.rng.chance(hot_weight) {
            state.rng.below(hot_pages as usize) as u64
        } else {
            state.rng.below(cfg_pages as usize) as u64
        };
        let page = host as u64 * cfg_pages + local;
        let dirty = state.rng.chance(write_fraction);
        let think = SimDuration::from_nanos(200 + state.rng.below(200) as u64);
        let hit = match state.frames.get_mut(&page) {
            Some(frame) => {
                frame.dirty |= dirty;
                true
            }
            None => {
                // One outstanding fault per host; the dirty intent lands
                // with the frame when the response arrives. The floor is
                // stamped by `issue_read` when the read actually leaves.
                state.inflight = Some(InflightFault {
                    page,
                    dirty,
                    started: now,
                    floor: 0,
                });
                false
            }
        };
        self.metrics.inc("rack.access.total");
        if hit {
            self.metrics.inc("rack.access.hit");
            self.queue
                .schedule(now + hit_cost + think, LocalEvent::Access { host });
            return;
        }
        // Miss: remote fault.
        self.metrics.inc("rack.access.miss");
        self.log.push(now.nanos(), "fault", host as u64, page);
        if !self.issue_read(ctx, now, host, page, 0) {
            // Every replica suspect: stall and retry the whole access.
            self.metrics.inc("rack.read.stalled");
            let state = self.host_mut(host);
            state.inflight = None;
            state.issued -= 1;
            self.queue
                .schedule(now + STALL_RETRY, LocalEvent::Access { host });
        }
    }

    /// Installs a faulted-in page, evicting (and writing back) if full.
    fn install_frame(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        version: u32,
        dirty: bool,
    ) {
        let frames_cap = self.cfg.frames_per_host;
        let victim = {
            let state = self.host_mut(host);
            state.frames.insert(page, Frame { version, dirty });
            state.fifo.push_back(page);
            if state.frames.len() > frames_cap {
                let victim = state.fifo.pop_front().expect("fifo tracks frames");
                state.frames.remove(&victim).map(|f| (victim, f))
            } else {
                None
            }
        };
        if let Some((vpage, vframe)) = victim {
            if vframe.dirty {
                self.writeback(ctx, now, host, vpage, vframe.version + 1);
            }
        }
    }

    /// Replicated writeback of a dirty page at `version`.
    fn writeback(
        &mut self,
        ctx: &mut EpochCtx<RackMsg>,
        now: SimInstant,
        host: usize,
        page: u64,
        version: u32,
    ) {
        let replicas = self.replicas_of(page, host);
        self.metrics.inc("rack.writeback.pages");
        self.log.push(now.nanos(), "writeback", host as u64, page);
        *self
            .host_mut(host)
            .pending_writes
            .entry((page, version))
            .or_insert(0) += replicas.len();
        for target in replicas {
            let lat = self.page_lat();
            self.send(
                ctx,
                now,
                target,
                lat,
                RackMsg::WriteReq {
                    page,
                    target,
                    requester: host,
                    version,
                },
            );
        }
    }

    fn deliver(&mut self, ctx: &mut EpochCtx<RackMsg>, now: SimInstant, msg: RackMsg) {
        match msg {
            RackMsg::ReadReq {
                page,
                requester,
                target,
                replica_idx,
            } => {
                if self.cfg.faults && self.host_down(target, now) {
                    // The requester learns after the RC retransmit budget
                    // burns: a penalty on top of the message flight.
                    self.metrics.inc("rack.read.nacked");
                    let lat = self.msg_lat() * 4;
                    self.send(
                        ctx,
                        now,
                        requester,
                        lat,
                        RackMsg::ReadNack {
                            page,
                            requester,
                            target,
                            replica_idx,
                        },
                    );
                    return;
                }
                let version = self
                    .store
                    .get(&(target, page))
                    .copied()
                    .unwrap_or(0);
                // Serving reads the replica memory and hashes the page:
                // the owning shard's share of the per-fault compute.
                let checksum = page_checksum(page, version);
                self.metrics.inc("rack.read.served");
                let lat = self.cost.dram.transfer(4096) + self.page_lat();
                self.send(
                    ctx,
                    now,
                    requester,
                    lat,
                    RackMsg::ReadResp {
                        page,
                        requester,
                        version,
                        checksum,
                    },
                );
            }
            RackMsg::ReadResp {
                page,
                requester,
                version,
                checksum,
            } => {
                // End-to-end verification: recompute the content hash.
                assert_eq!(
                    checksum,
                    page_checksum(page, version),
                    "host {requester} page {page}: wrong read (content mismatch at v{version})"
                );
                let state = self.host_mut(requester);
                let fault = state.inflight.take().expect("fault in flight");
                assert_eq!(fault.page, page, "response matches the in-flight fault");
                assert!(
                    version >= fault.floor,
                    "host {requester} page {page}: stale read (v{version} < acked floor v{})",
                    fault.floor
                );
                self.metrics.inc("rack.read.remote");
                self.metrics
                    .record("rack.fault.ns", (now - fault.started).as_nanos());
                self.install_frame(ctx, now, requester, page, version, fault.dirty);
                let state = self.host_mut(requester);
                let think = SimDuration::from_nanos(200 + state.rng.below(200) as u64);
                self.queue
                    .schedule(now + think, LocalEvent::Access { host: requester });
            }
            RackMsg::ReadNack {
                page,
                requester,
                target,
                replica_idx,
            } => {
                self.metrics.inc("rack.read.failover");
                self.log.push(now.nanos(), "failover", requester as u64, target as u64);
                {
                    let state = self.host_mut(requester);
                    if !state.suspects.contains(&target) {
                        state.suspects.push(target);
                    }
                }
                // Arm the probe loop for the suspect.
                self.metrics.inc("rack.probe.sent");
                self.send(
                    ctx,
                    now,
                    target,
                    PROBE_INTERVAL,
                    RackMsg::ProbeReq { target, requester },
                );
                // Fail the read over to the next replica.
                if !self.issue_read(ctx, now, requester, page, replica_idx + 1) {
                    self.metrics.inc("rack.read.stalled");
                    let state = self.host_mut(requester);
                    state.inflight = None;
                    state.issued -= 1;
                    self.queue
                        .schedule(now + STALL_RETRY, LocalEvent::Access { host: requester });
                }
            }
            RackMsg::WriteReq {
                page,
                target,
                requester,
                version,
            } => {
                // Replica memory applies writes even while unreachable:
                // outages model reachability, not data loss.
                let slot = self.store.entry((target, page)).or_insert(0);
                *slot = (*slot).max(version);
                self.metrics.inc("rack.write.applied");
                let lat = self.cost.dram.transfer(4096) + self.msg_lat();
                self.send(
                    ctx,
                    now,
                    requester,
                    lat,
                    RackMsg::WriteAck {
                        page,
                        requester,
                        version,
                    },
                );
            }
            RackMsg::WriteAck {
                page,
                requester,
                version,
            } => {
                let state = self.host_mut(requester);
                let left = state
                    .pending_writes
                    .get_mut(&(page, version))
                    .expect("ack matches a pending writeback");
                *left -= 1;
                if *left == 0 {
                    state.pending_writes.remove(&(page, version));
                    // All replicas hold `version`: raise the floor.
                    let slot = state.expected.entry(page).or_insert(0);
                    *slot = (*slot).max(version);
                    self.metrics.inc("rack.writeback.acked");
                }
            }
            RackMsg::ProbeReq { target, requester } => {
                let up = !(self.cfg.faults && self.host_down(target, now));
                let lat = self.msg_lat();
                self.send(
                    ctx,
                    now,
                    requester,
                    lat,
                    RackMsg::ProbeAck {
                        target,
                        requester,
                        up,
                    },
                );
            }
            RackMsg::ProbeAck {
                target,
                requester,
                up,
            } => {
                if up {
                    self.metrics.inc("rack.probe.cleared");
                    self.log.push(now.nanos(), "suspect.cleared", requester as u64, target as u64);
                    let state = self.host_mut(requester);
                    state.suspects.retain(|&s| s != target);
                } else {
                    // Still down: keep probing.
                    self.metrics.inc("rack.probe.sent");
                    self.send(
                        ctx,
                        now,
                        target,
                        PROBE_INTERVAL,
                        RackMsg::ProbeReq { target, requester },
                    );
                }
            }
        }
    }
}

/// Backoff before retrying an access whose replicas are all suspect.
const STALL_RETRY: SimDuration = SimDuration::from_micros(20);
/// Delay between failover probes of a suspect host.
const PROBE_INTERVAL: SimDuration = SimDuration::from_micros(50);

impl ShardWorker for RackShard {
    type Msg = RackMsg;

    fn run_epoch(&mut self, ctx: &mut EpochCtx<RackMsg>) {
        debug_assert_eq!(ctx.shard(), self.shard, "worker bound to its shard");
        for env in ctx.take_inbox() {
            self.queue
                .schedule(env.deliver_at, LocalEvent::Deliver { msg: env.msg });
        }
        while let Some((t, event)) = self.queue.pop_before(ctx.epoch_end()) {
            self.clock.advance_to(t);
            // Sample before handling: whatever this event increments is
            // attributed to the window containing `t`. Event times are
            // worker-count independent, so capture points are too.
            self.sampler.tick(t.nanos(), &self.metrics);
            match event {
                LocalEvent::Access { host } => self.access(ctx, t, host),
                LocalEvent::Deliver { msg } => self.deliver(ctx, t, msg),
            }
        }
    }

    fn next_local_at(&self) -> Option<SimInstant> {
        self.queue.next_at()
    }
}

/// Aggregate result of one rack run. Every field is a function of the
/// [`RackConfig`] only — reruns and different worker counts reproduce it
/// byte for byte.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// Hosts simulated.
    pub hosts: usize,
    /// Logical shards (host-groups).
    pub shards: u32,
    /// Total accesses issued.
    pub accesses: u64,
    /// Frame-cache hits.
    pub hits: u64,
    /// Remote faults completed.
    pub remote_reads: u64,
    /// Dirty pages written back (replicated).
    pub writebacks: u64,
    /// Reads failed over to another replica.
    pub failovers: u64,
    /// Failover probes sent.
    pub probes: u64,
    /// Envelopes exchanged between distinct shards.
    pub cross_messages: u64,
    /// Envelopes that stayed within one shard.
    pub local_messages: u64,
    /// Epochs the engine executed.
    pub epochs: u64,
    /// Virtual end of the run.
    pub horizon: SimInstant,
    /// Median fault latency (ns, histogram bucket bound).
    pub fault_p50_ns: u64,
    /// Tail fault latency (ns, histogram bucket bound).
    pub fault_p99_ns: u64,
    /// FNV digest of the full merged counter snapshot.
    pub digest: String,
    /// Merged, canonically ordered trace export (JSONL).
    pub trace_jsonl: String,
    /// Name-sorted `key=value` pairs of all nonzero counters.
    pub metrics_line: String,
    /// Per-window counter/histogram timeline, merged from the per-shard
    /// samplers in `(window, shard)` order. Empty when
    /// [`RackConfig::timeline_window`] is zero.
    pub timeline: Timeline,
}

impl RackReport {
    /// CSV header matching [`RackReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "hosts,shards,accesses,hits,remote_reads,writebacks,failovers,probes,\
         cross_msgs,local_msgs,epochs,fault_p50_ns,fault_p99_ns,digest"
    }

    /// One CSV row of this report (virtual metrics only — never
    /// wall-clock, so the file is byte-identical at every worker count).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.hosts,
            self.shards,
            self.accesses,
            self.hits,
            self.remote_reads,
            self.writebacks,
            self.failovers,
            self.probes,
            self.cross_messages,
            self.local_messages,
            self.epochs,
            self.fault_p50_ns,
            self.fault_p99_ns,
            self.digest,
        )
    }
}

impl fmt::Display for RackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hosts={} shards={} accesses={} hits={} remote_reads={} writebacks={} \
             failovers={} probes={} cross={} local={} epochs={} p50={}ns p99={}ns digest={}",
            self.hosts,
            self.shards,
            self.accesses,
            self.hits,
            self.remote_reads,
            self.writebacks,
            self.failovers,
            self.probes,
            self.cross_messages,
            self.local_messages,
            self.epochs,
            self.fault_p50_ns,
            self.fault_p99_ns,
            self.digest,
        )
    }
}

fn fnv1a_str(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Runs one rack scenario with `workers` OS threads.
///
/// The scenario — including its logical shard partition — is fixed by
/// `config`; `workers` only fans the shards across threads. Output is
/// byte-identical for every worker count.
///
/// # Panics
///
/// Panics if an invariant breaks mid-run (wrong read, stale read,
/// mailbox misorder) or the run ends unquiesced (unfinished hosts,
/// unacked writebacks, unresolved suspects).
pub fn run_rack(config: &RackConfig, workers: usize) -> RackReport {
    run_rack_timed(config, workers).0
}

/// [`run_rack`], plus the engine's per-worker host-time split (busy,
/// barrier wait, routing). The report is the same at every worker count;
/// the timing is wall-clock and varies from run to run.
pub fn run_rack_timed(config: &RackConfig, workers: usize) -> (RackReport, EngineTiming) {
    let map = config.shard_map();
    let schedule = if config.faults {
        ShardFaultSchedule::generate(
            config.seed ^ 0xfau64,
            config.hosts,
            config.outage_horizon(),
            config.outage_fraction,
        )
    } else {
        ShardFaultSchedule::generate(0, 0, SimDuration::from_nanos(1), 0.0)
    };
    let shards: Vec<RackShard> = (0..map.shards())
        .map(|s| {
            let shard = ShardId(s);
            RackShard::new(shard, config, &map, schedule.for_hosts(map.hosts_of(shard)))
        })
        .collect();

    // Conservative lookahead: every rack message rides the RDMA fabric,
    // so the minimum cross-shard latency is one small-message transfer.
    let min_latency = CostModel::paper_default().rdma.transfer(64);
    let epoch = min_latency;
    let (mut shards, engine, timing) = ShardedEngine::run(workers, shards, epoch, min_latency);

    // Deterministic post-run: merge shard-local state in shard order.
    let mut merged = LocalMetrics::new();
    let mut logs = Vec::with_capacity(shards.len());
    let mut shard_windows = Vec::new();
    let mut quiescence_failures: Vec<String> = Vec::new();
    for shard in shards.iter_mut() {
        merged.merge_from(&shard.metrics);
        logs.push(shard.log.clone());
        let sampler = std::mem::replace(
            &mut shard.sampler,
            ShardSampler::new(0, SimDuration::ZERO),
        );
        shard_windows.extend(sampler.finish(engine.horizon.nanos(), &shard.metrics));
        // Quiescence invariants, per host. Failures are collected instead
        // of asserted inline so a broken run can dump the flight recorder
        // (recent trace events + metric windows) before panicking.
        for (i, state) in shard.hosts.iter().enumerate() {
            let host = shard.first_host + i;
            if !(state.done && state.issued == config.accesses_per_host) {
                quiescence_failures.push(format!(
                    "host {host} finished {}/{} accesses",
                    state.issued, config.accesses_per_host
                ));
            }
            if !state.pending_writes.is_empty() {
                quiescence_failures.push(format!("host {host} ended with unacked writebacks"));
            }
            if !state.suspects.is_empty() {
                quiescence_failures.push(format!(
                    "host {host} ended with unresolved suspects {:?}",
                    state.suspects
                ));
            }
            if state.inflight.is_some() {
                quiescence_failures.push(format!("host {host} ended mid-fault"));
            }
        }
    }
    let timeline = Timeline::merge_shards(config.timeline_window.as_nanos(), shard_windows);
    if !quiescence_failures.is_empty() {
        // Recent merged trace events in canonical (at_ns, shard, seq)
        // order, plus the last metric windows — same dump format the
        // chaos harness emits on invariant violations.
        let mut events: Vec<_> = shards
            .iter()
            .flat_map(|s| s.log.events().iter().map(|e| (e.at_ns, s.shard.0, e)))
            .collect();
        events.sort_by_key(|(at, shard, e)| (*at, *shard, e.seq));
        let mut recorder = FlightRecorder::new();
        for (at, shard, event) in events {
            recorder.note(
                at,
                event.kind,
                format!("shard={shard} host={} detail={}", event.host, event.detail),
            );
        }
        for window in &timeline.windows {
            recorder.push_window(window);
        }
        eprintln!("{}", recorder.dump("rack quiescence assert"));
        panic!(
            "rack run ended unquiesced ({} failures): {}",
            quiescence_failures.len(),
            quiescence_failures.join("; ")
        );
    }

    let metrics_line = merged
        .counter_snapshot()
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    let digest = format!("{:016x}", fnv1a_str(&metrics_line));

    let report = RackReport {
        hosts: config.hosts,
        shards: map.shards(),
        accesses: merged.counter("rack.access.total"),
        hits: merged.counter("rack.access.hit"),
        remote_reads: merged.counter("rack.read.remote"),
        writebacks: merged.counter("rack.writeback.pages"),
        failovers: merged.counter("rack.read.failover"),
        probes: merged.counter("rack.probe.sent"),
        cross_messages: engine.cross_messages,
        local_messages: engine.local_messages,
        epochs: engine.epochs,
        horizon: engine.horizon,
        fault_p50_ns: merged.quantile("rack.fault.ns", 0.5),
        fault_p99_ns: merged.quantile("rack.fault.ns", 0.99),
        digest,
        trace_jsonl: ShardEventLog::merge_to_jsonl(&logs),
        metrics_line,
        timeline,
    };
    (report, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RackConfig {
        RackConfig {
            hosts: 16,
            pages_per_host: 64,
            frames_per_host: 16,
            accesses_per_host: 20,
            hosts_per_shard: 4,
            trace_sample: 16,
            ..RackConfig::rack_default(16)
        }
    }

    #[test]
    fn rack_is_worker_count_independent() {
        let cfg = tiny();
        let base = run_rack(&cfg, 1);
        assert!(base.cross_messages > 0, "vacuous: no cross-shard traffic");
        assert!(base.remote_reads > 0, "vacuous: no remote faults");
        assert!(!base.timeline.windows.is_empty(), "vacuous: no timeline");
        for workers in [2, 4] {
            let other = run_rack(&cfg, workers);
            assert_eq!(base.csv_row(), other.csv_row(), "workers={workers}");
            assert_eq!(base.metrics_line, other.metrics_line, "workers={workers}");
            assert_eq!(base.trace_jsonl, other.trace_jsonl, "workers={workers}");
            assert_eq!(
                base.timeline.to_csv(),
                other.timeline.to_csv(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn rack_faults_engage_failover() {
        let mut cfg = tiny();
        cfg.outage_fraction = 0.5;
        cfg.accesses_per_host = 60;
        let report = run_rack(&cfg, 2);
        assert!(report.failovers > 0, "outages must force failovers");
        assert!(report.probes > 0, "failovers must arm probes");
        // run_rack asserted quiescence: suspects resolved, writes acked.
    }

    #[test]
    fn rack_fault_free_mode_is_quiet() {
        let mut cfg = tiny();
        cfg.faults = false;
        let report = run_rack(&cfg, 1);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.probes, 0);
        assert!(report.remote_reads > 0);
    }

    #[test]
    fn page_checksum_distinguishes_versions() {
        assert_ne!(page_checksum(7, 0), page_checksum(7, 1));
        assert_ne!(page_checksum(7, 0), page_checksum(8, 0));
        assert_eq!(page_checksum(7, 3), page_checksum(7, 3));
    }
}
