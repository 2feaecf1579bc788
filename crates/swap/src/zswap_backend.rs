//! zswap: a compressed RAM cache in front of the disk swap device.
//!
//! The Fig. 3 baseline (paper reference \[32\]). Pages are compressed and
//! parked in a zbud pool; pool overflow and poorly compressible pages go
//! to disk. Compression happens on the local CPU and is charged to the
//! clock; pool hits avoid the disk entirely.

use crate::backend::SwapBackend;
use dmem_compress::{zswap::ZswapInsert, CompressMemo, PageCodec, ZswapCache, ZswapStats};
use dmem_core::DiskTier;
use dmem_sim::{CostModel, SimClock};
use dmem_types::{CompressionMode, DmemResult, EntryId, ServerId};

/// The zswap backend: compressed RAM pool with disk writeback.
pub struct ZswapBackend {
    server: ServerId,
    clock: SimClock,
    cost: CostModel,
    codec: PageCodec,
    /// Byte-guarded memo: engine page content is a pure function of the
    /// pfn, so steady-state re-stores skip the LZ matcher. Simulated
    /// compression cost is still charged per store, so virtual-time
    /// results are unchanged.
    memo: CompressMemo,
    cache: ZswapCache,
    disk: DiskTier,
}

impl ZswapBackend {
    /// Creates a zswap backend with a pool of `pool_frames` 4 KiB frames.
    pub fn new(server: ServerId, pool_frames: usize, clock: SimClock, cost: CostModel) -> Self {
        ZswapBackend {
            server,
            clock: clock.clone(),
            cost,
            // zswap compresses to exact bytes; the 4-granularity codec's
            // underlying LZ stream is reused, zbud does the accounting.
            codec: PageCodec::new(CompressionMode::FourGranularity),
            memo: CompressMemo::with_default_capacity(),
            cache: ZswapCache::new(pool_frames),
            disk: DiskTier::new(clock, cost),
        }
    }

    fn entry(&self, pfn: u64) -> EntryId {
        EntryId::new(self.server, pfn)
    }

    /// Pool statistics (the Fig. 3 effective-ratio accounting).
    pub fn pool_stats(&self) -> ZswapStats {
        self.cache.stats()
    }
}

impl SwapBackend for ZswapBackend {
    fn name(&self) -> &'static str {
        "zswap"
    }

    fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
        for (pfn, data) in pages {
            let span = self.clock.tracer().span("swap", "zswap.store");
            self.clock.advance(self.cost.compress_page);
            let compressed = self.memo.get_or_compress((0, *pfn), &self.codec, data);
            match self.cache.insert(*pfn, compressed) {
                ZswapInsert::Stored { evicted } => {
                    span.tag("tier", if evicted.is_empty() { "zswap" } else { "zswap+disk" });
                    for (victim_pfn, victim) in evicted {
                        // Writeback decompresses and writes the raw page.
                        self.clock.advance(self.cost.decompress_page);
                        let raw = self.memo.get_or_decompress(&self.codec, victim)?;
                        self.disk.store(self.server.node(), self.entry(victim_pfn), raw);
                    }
                }
                ZswapInsert::Rejected(_) => {
                    span.tag("tier", "disk");
                    self.disk
                        .store(self.server.node(), self.entry(*pfn), data.clone());
                }
            }
        }
        Ok(())
    }

    fn load_batch(&mut self, pfns: &[u64]) -> DmemResult<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(pfns.len());
        for pfn in pfns {
            let span = self.clock.tracer().span("swap", "zswap.load");
            if let Some(stored) = self.cache.get(*pfn) {
                span.tag("tier", "zswap");
                let stored = stored.clone();
                // Pool hit: DRAM access plus decompression.
                self.clock.advance(self.cost.dram.transfer(stored.data.len()));
                self.clock.advance(self.cost.decompress_page);
                out.push(self.memo.get_or_decompress(&self.codec, stored)?);
            } else {
                span.tag("tier", "disk");
                out.push(self.disk.load(self.server.node(), self.entry(*pfn))?);
            }
        }
        Ok(out)
    }

    fn contains(&self, pfn: u64) -> bool {
        self.cache.contains(pfn) || self.disk.contains(self.server.node(), self.entry(pfn))
    }

    fn invalidate(&mut self, pfn: u64) {
        self.cache.remove(pfn);
        let _ = self.disk.delete(self.server.node(), self.entry(pfn));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{load_one, store_one};
    use dmem_compress::synth;
    use dmem_sim::DetRng;
    use dmem_types::NodeId;
    use rand::SeedableRng;

    fn backend(frames: usize) -> (SimClock, ZswapBackend) {
        let clock = SimClock::new();
        let server = ServerId::new(NodeId::new(0), 0);
        let b = ZswapBackend::new(server, frames, clock.clone(), CostModel::paper_default());
        (clock, b)
    }

    fn compressible_page(seed: u64) -> Vec<u8> {
        let mut rng = DetRng::new(seed);
        synth::page_with_ratio(6.0, &mut rng)
    }

    #[test]
    fn pool_hit_avoids_disk_latency() {
        let (clock, mut b) = backend(16);
        store_one(&mut b, 1, compressible_page(1)).unwrap();
        let t0 = clock.now();
        let loaded = load_one(&mut b, 1).unwrap();
        let elapsed = clock.now() - t0;
        assert_eq!(loaded, compressible_page(1));
        assert!(
            elapsed.as_micros_f64() < 100.0,
            "pool hit must be micro-scale, got {elapsed}"
        );
    }

    #[test]
    fn incompressible_pages_go_to_disk() {
        let (clock, mut b) = backend(16);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        use rand::RngCore;
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        store_one(&mut b, 1, page.clone()).unwrap();
        assert_eq!(b.pool_stats().rejected, 1);
        let t0 = clock.now();
        assert_eq!(load_one(&mut b, 1).unwrap(), page);
        assert!((clock.now() - t0).as_millis_f64() > 3.0, "disk path");
    }

    #[test]
    fn pool_overflow_writes_back_to_disk() {
        let (_, mut b) = backend(2); // 2 frames = at most 4 buddies
        for pfn in 0..8 {
            store_one(&mut b, pfn, compressible_page(pfn)).unwrap();
        }
        assert!(b.pool_stats().evicted > 0);
        // Every page remains loadable, pool or disk.
        for pfn in 0..8 {
            assert_eq!(load_one(&mut b, pfn).unwrap(), compressible_page(pfn));
            assert!(b.contains(pfn));
        }
    }

    #[test]
    fn invalidate_clears_both_tiers() {
        let (_, mut b) = backend(4);
        store_one(&mut b, 1, compressible_page(1)).unwrap();
        b.invalidate(1);
        assert!(!b.contains(1));
        assert!(b.load_batch(&[1]).is_err());
    }
}
