//! The disaggregated memory system (paper §IV).
//!
//! [`DisaggregatedMemory`] is the paper's full per-cluster architecture
//! assembled from the substrate crates: every node runs a node manager
//! with a donation-funded shared memory pool ([`dmem_node`]), donates an
//! RDMA receive buffer pool to the cluster ([`dmem_cluster`]), and keeps a
//! per-virtual-server *disaggregated memory map* tracking where every data
//! entry lives. A `put` tiers through
//!
//! 1. the **node shared memory pool** (DRAM speed),
//! 2. the **CXL memory pool** when configured — cacheline load/store far
//!    memory one switch hop away, with a write-behind disk shadow for
//!    pool-node loss,
//! 3. local **NVM** when configured (the §VI extension tier),
//! 4. **remote memory** in the owner's group, triple-replicated over the
//!    simulated RDMA fabric,
//! 5. local **disk**, the last resort,
//!
//! and a `get` follows the map back, failing over across replicas and
//! verifying integrity end to end. Pages are transparently compressed into
//! size classes on the way out (§IV-H).
//!
//! # Examples
//!
//! ```
//! use dmem_core::DisaggregatedMemory;
//! use dmem_types::ClusterConfig;
//!
//! let dm = DisaggregatedMemory::new(ClusterConfig::small())?;
//! let server = dm.servers()[0];
//! dm.put(server, 1, vec![42u8; 4096])?;
//! assert_eq!(dm.get(server, 1)?, vec![42u8; 4096]);
//! let record = dm.record(server, 1).expect("tracked in the memory map");
//! assert!(record.location.is_node_local(), "first stop is the shared pool");
//! # Ok::<(), dmem_types::DmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod disk;
pub mod maintenance;
pub mod memmap;
pub mod system;
pub mod tier;

pub use disk::DiskTier;
pub use maintenance::{Maintenance, MaintenanceConfig, MaintenanceReport};
pub use memmap::MemoryMap;
pub use system::{DisaggregatedMemory, DmStats, TierPreference};
pub use tier::Tier;
