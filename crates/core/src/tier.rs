//! The tier ladder (paper §IV, extended with the §VI CXL and NVM rungs).
//!
//! A `put` walks a static ladder of [`Tier`]s, fastest first, and lands
//! on the first rung that takes it; every rung but the last falls
//! through on any error, and the last is always disk, which cannot
//! fail. Every per-tier decision lives here: how a rung stores, loads
//! and releases an entry, its name and counter, its QoS residency
//! class, and NVM capacity accounting. Adding a tier means one variant
//! plus its arms in this module.

use crate::system::{DisaggregatedMemory, Tenancy, TierPreference};
use dmem_cluster::ReplicaSet;
use dmem_net::CxlAddr;
use dmem_qos::ResidentTier;
use dmem_types::{
    DmemError, DmemResult, EntryId, EntryLocation, EntryRecord, SizeClass, PAGE_SIZE,
};

/// One rung of the placement ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The owner node's donation-funded shared memory pool.
    Shared,
    /// The CXL pooled-memory tier, with a write-behind disk shadow.
    Cxl,
    /// The owner node's byte-addressable NVM.
    Nvm,
    /// Replicated remote memory in the owner's sharing group.
    Remote,
    /// The owner node's disk: the terminal rung.
    Disk,
}

/// The ladder of a QoS-denied put: over-quota tenants degrade to the
/// unmetered disk tier instead of failing.
pub(crate) const DISK_ONLY: &[Tier] = &[Tier::Disk];

/// One prepared entry on its way down a ladder.
pub(crate) struct Put<'a> {
    pub(crate) entry: EntryId,
    pub(crate) record: EntryRecord,
    /// The (possibly compressed) payload as stored.
    pub(crate) stored: Vec<u8>,
    pub(crate) who: Tenancy<'a>,
}

impl Tier {
    /// Every tier, in ladder order.
    pub const ALL: [Tier; 5] = [Tier::Shared, Tier::Cxl, Tier::Nvm, Tier::Remote, Tier::Disk];

    /// The tier an entry at `location` lives in.
    pub fn of(location: &EntryLocation) -> Tier {
        match location {
            EntryLocation::NodeShared { .. } => Tier::Shared,
            EntryLocation::Cxl { .. } => Tier::Cxl,
            EntryLocation::Nvm => Tier::Nvm,
            EntryLocation::Remote { .. } => Tier::Remote,
            EntryLocation::Disk => Tier::Disk,
        }
    }

    /// Short name, as tagged on `core.put`/`core.get` trace spans.
    pub fn name(self) -> &'static str {
        ["shared", "cxl", "nvm", "remote", "disk"][self as usize]
    }

    /// The counter a single landing on this rung bumps.
    fn put_counter(self) -> &'static str {
        [
            "core.put.shared",
            "core.put.cxl",
            "core.put.nvm",
            "core.put.remote",
            "core.put.disk",
        ][self as usize]
    }

    /// The QoS residency class of an entry of `entry`'s owner landing
    /// here; `None` for the unmetered disk tier.
    pub(crate) fn resident(self, entry: EntryId) -> Option<ResidentTier> {
        let node = entry.owner().node();
        match self {
            Tier::Shared => Some(ResidentTier::Shared(node)),
            Tier::Cxl => Some(ResidentTier::Cxl),
            Tier::Nvm => Some(ResidentTier::Nvm(node)),
            Tier::Remote => Some(ResidentTier::Remote),
            Tier::Disk => None,
        }
    }

    /// The `Auto` ladder: shared → CXL → NVM → remote → disk, leaving out
    /// the CXL and NVM rungs when they are not configured.
    pub(crate) fn auto_ladder(cxl: bool, nvm: bool) -> Vec<Tier> {
        let configured = |tier| (tier != Tier::Cxl || cxl) && (tier != Tier::Nvm || nvm);
        Tier::ALL
            .into_iter()
            .filter(|&tier| configured(tier))
            .collect()
    }

    /// The static ladder of `pref`; `auto` is the configured `Auto` one.
    /// Every explicit preference tries its own rung, then disk.
    pub(crate) fn ladder(pref: TierPreference, auto: &[Tier]) -> &[Tier] {
        match pref {
            TierPreference::Auto => auto,
            TierPreference::NodeShared => &[Tier::Shared, Tier::Disk],
            TierPreference::Cxl => &[Tier::Cxl, Tier::Disk],
            TierPreference::Nvm => &[Tier::Nvm, Tier::Disk],
            TierPreference::Remote => &[Tier::Remote, Tier::Disk],
            TierPreference::Disk => DISK_ONLY,
        }
    }

    /// Stores `put` on this rung alone and bumps its `core.put.*`
    /// counter, or returns `None` when the rung declines it: full, down,
    /// not configured, or failed for any other reason. Fabric bytes to
    /// the CXL pool and to remote memory are metered against the
    /// tenant's QoS token bucket.
    pub(crate) fn store(self, dm: &DisaggregatedMemory, put: &Put<'_>) -> Option<EntryLocation> {
        let (entry, stored) = (put.entry, &put.stored[..]);
        let node = entry.owner().node();
        let location = match self {
            Tier::Shared => {
                // The entry's compressed size class, or the smallest class
                // that fits it raw; multi-page entries never fit the pool.
                let class = (put.record.class)
                    .or_else(|| SizeClass::fitting(stored.len()))
                    .filter(|_| stored.len() <= PAGE_SIZE)?;
                let manager = dm.node_manager(node);
                let block = match manager.put(entry, put.stored.clone(), class) {
                    Err(DmemError::CapacityExhausted { .. }) if make_room(dm, put) => {
                        manager.put(entry, put.stored.clone(), class)
                    }
                    other => other,
                }
                .ok()?;
                EntryLocation::NodeShared {
                    slab: block.slab,
                    offset: block.offset,
                }
            }
            Tier::Cxl => {
                let pool = dm.cxl_pool()?;
                let addr = dm
                    .metered(put.who, stored.len() as u64, || {
                        let addr = pool.alloc(cxl_key(entry), stored.len())?;
                        if let Err(e) = pool.store(addr, stored) {
                            let _ = pool.free(addr);
                            return Err(e);
                        }
                        Ok(addr)
                    })
                    .ok()?;
                // Write-behind shadow: pool-node loss degrades to disk
                // instead of losing the entry.
                dm.disk_tier().store_behind(node, entry, stored.to_vec());
                EntryLocation::Cxl { addr: addr.raw() }
            }
            Tier::Nvm => {
                let capacity = dm.config().node.nvm_pool.as_u64();
                let mut used = dm.nvm_used.lock();
                let used = used.entry(node).or_insert(0);
                if capacity == 0 || *used + stored.len() as u64 > capacity {
                    return None;
                }
                *used += stored.len() as u64;
                dm.nvm_tier().store(node, entry, stored.to_vec());
                EntryLocation::Nvm
            }
            Tier::Remote => {
                let set = dm
                    .metered(put.who, stored.len() as u64, || {
                        let peers = dm.group_peers(node)?;
                        dm.node_manager(node).record_remote_escalation();
                        dm.replicator()
                            .store_replicated(node, entry, stored, Some(&peers))
                    })
                    .ok()?;
                EntryLocation::Remote {
                    replicas: set.nodes,
                }
            }
            Tier::Disk => {
                dm.disk_tier().store(node, entry, stored.to_vec());
                EntryLocation::Disk
            }
        };
        dm.metrics().counter(self.put_counter()).inc();
        Some(location)
    }

    /// Loads the stored bytes of `entry`, described by `record`. A CXL
    /// read during a pool-node outage fails over to the disk shadow,
    /// paying the full device cost; the caller's checksum verification
    /// still guards it against wrong or stale bytes.
    pub(crate) fn load(
        dm: &DisaggregatedMemory,
        who: Tenancy<'_>,
        entry: EntryId,
        record: &EntryRecord,
    ) -> DmemResult<Vec<u8>> {
        let node = entry.owner().node();
        match &record.location {
            EntryLocation::NodeShared { .. } => dm.node_manager(node).get(entry),
            EntryLocation::Cxl { addr } => {
                let pool = dm.cxl_pool().expect("cxl entries exist only with a pool");
                match dm.metered(who, record.stored_len, || {
                    pool.load(CxlAddr::from_raw(*addr))
                }) {
                    Err(DmemError::CxlPoolNodeDown { .. }) => {
                        dm.metrics().counter("cxl.failover.reads").inc();
                        dm.disk_tier().load(node, entry)
                    }
                    loaded => loaded,
                }
            }
            EntryLocation::Nvm => dm.nvm_tier().load(node, entry),
            EntryLocation::Remote { replicas } => {
                let set = ReplicaSet {
                    nodes: replicas.clone(),
                };
                dm.metered(who, record.stored_len, || {
                    dm.replicator().load_replicated(node, entry, &set)
                })
            }
            EntryLocation::Disk => dm.disk_tier().load(node, entry),
        }
    }

    /// Frees whatever `entry` holds at `location`: the pool block, the
    /// CXL block and its shadow, NVM capacity, the remote replicas, or
    /// the disk copy.
    pub(crate) fn release(dm: &DisaggregatedMemory, entry: EntryId, location: &EntryLocation) {
        let node = entry.owner().node();
        match location {
            EntryLocation::NodeShared { .. } => {
                let _ = dm.node_manager(node).delete(entry);
            }
            EntryLocation::Cxl { addr } => {
                if let Some(pool) = dm.cxl_pool() {
                    let _ = pool.free(CxlAddr::from_raw(*addr));
                }
                let _ = dm.disk_tier().delete(node, entry);
            }
            EntryLocation::Nvm => {
                if let Ok(freed) = dm.nvm_tier().delete(node, entry) {
                    if let Some(used) = dm.nvm_used.lock().get_mut(&node) {
                        *used = used.saturating_sub(freed as u64);
                    }
                }
            }
            EntryLocation::Remote { replicas } => {
                let set = ReplicaSet {
                    nodes: replicas.clone(),
                };
                dm.replicator().delete_replicated(node, entry, &set);
            }
            EntryLocation::Disk => {
                let _ = dm.disk_tier().delete(node, entry);
            }
        }
    }

    /// Releases an entry purged by a node restart from the tiers whose
    /// capacity would otherwise leak once its map is gone: CXL blocks
    /// (with their shadows) and NVM. Shared-pool blocks go with the
    /// servers' re-registration; remote replicas are left in place,
    /// since deleting them would issue fabric verbs; disk is unbounded.
    pub(crate) fn release_purged(dm: &DisaggregatedMemory, entry: EntryId, at: &EntryLocation) {
        if matches!(Tier::of(at), Tier::Cxl | Tier::Nvm) {
            Tier::release(dm, entry, at);
        }
    }
}

/// Deterministic placement key of `entry` on the CXL ring: mixes the
/// owning server into the entry key so tenants spread across pool nodes
/// instead of clustering by key range.
fn cxl_key(entry: EntryId) -> u64 {
    let (server_key, key) = DisaggregatedMemory::memo_key(entry);
    server_key
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key)
}

/// QoS priority eviction for a put that found the shared pool full: when
/// the engine names a victim on the same node of lower priority than the
/// put's tenant, the victim moves to its owner's disk and its map record
/// follows. Returns whether room was made, so the put is retried once;
/// a failed step leaves the victim alone.
fn make_room(dm: &DisaggregatedMemory, put: &Put<'_>) -> bool {
    let Some(engine) = put.who.qos else {
        return false;
    };
    let node = put.entry.owner().node();
    let Some(victim) = engine.pick_victim(put.who.tenant, node, put.entry) else {
        return false;
    };
    let (entry, node) = (victim.entry, victim.entry.owner().node());
    let manager = dm.node_manager(node);
    let Ok(bytes) = manager.get(entry) else {
        return false;
    };
    if manager.delete(entry).is_err() {
        return false;
    }
    dm.disk_tier().store(node, entry, bytes);
    dm.relocate(entry, EntryLocation::Disk);
    engine.note_dropped(victim.tenant, entry);
    dm.metrics().counter("qos.evict.demotions").inc();
    engine.note_eviction(put.who.tenant, &victim);
    true
}
