//! Compressed-page memoization, both directions.
//!
//! The swap engine's page contents are a pure function of `(seed, pfn)`
//! ([`PageSource`](../../dmem_swap/engine/struct.PageSource.html)): every
//! time a page is swapped out, the engine regenerates the *same* bytes and
//! the backend recompresses them to the *same* token stream. A
//! [`CompressMemo`] caches the compressed form per key so steady-state
//! swap-outs skip the LZ matcher entirely.
//!
//! The read path is memoized too: [`CompressMemo::get_or_decompress`]
//! maps a stored [`CompressedPage`] back to its original bytes with a
//! `memcmp` of the (small) compressed stream instead of an LZ decode plus
//! a full-page checksum pass. Compressing a page seeds the decompress
//! side, so even the *first* read of an entry is a hit — in the fault
//! loop (fig4) and the RDD get path (fig10), decompression dominated the
//! real CPU profile before this.
//!
//! **Layout.** Each memoized page is one reference-counted record that
//! both directions share: the compress side finds it by key, the
//! decompress side by checksum. A raw (incompressible) page is held once,
//! because its stored bytes *are* the original; a compressed page holds
//! its stream plus the original bytes. [`CompressMemo::get_or_decompress`]
//! takes the stored page by value, so a raw hit hands the caller's own
//! bytes back without a copy.
//!
//! **Soundness.** A compress hit is only taken when the record's original
//! bytes are equal to the incoming page (a 4 KiB `memcmp`, far cheaper
//! than the matcher), so the memo is transparent even for callers whose
//! values mutate under a key (the chaos harness, KV overwrites): changed
//! bytes miss and replace the record. A decompress hit requires the whole
//! `CompressedPage` (stream bytes, class, lengths, checksum) to equal one
//! that previously decoded successfully; decompression is a pure
//! function, so equal inputs are guaranteed the equal — already
//! checksum-verified — output, and corrupted streams can never match a
//! good record. Simulated compression/decompression *cost* is charged by
//! the caller exactly as before — the memo elides real CPU work, never
//! virtual time — so completion times and CSV outputs are bit-identical
//! with or without it.

use crate::codec::{CompressedPage, PageCodec};
use dmem_types::DmemResult;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Default capacity: covers the bench working sets (the fig10 RDD spill
/// set peaks around 7.5k live pages). A record costs about 4 KiB for a
/// raw page and up to 6 KiB (original plus a stream of at most 2 KiB)
/// for a compressed one, so a full direction holds 64-96 MiB; the two
/// directions share a record whenever they hold the same page. Sized with
/// headroom: a FIFO memo smaller than a sequentially-scanned working set
/// degrades to a 0% hit rate.
pub const DEFAULT_MEMO_CAPACITY: usize = 16384;

/// One memoized page, shared by both directions.
#[derive(Debug)]
struct MemoRecord {
    page: CompressedPage,
    /// Original bytes of a compressed page; `None` for a raw page, whose
    /// original is `page.data`.
    original: Option<Vec<u8>>,
}

impl MemoRecord {
    fn new(page: CompressedPage, original: &[u8]) -> Arc<Self> {
        let original = page.is_compressed.then(|| original.to_vec());
        Arc::new(MemoRecord { page, original })
    }

    fn original(&self) -> &[u8] {
        self.original.as_deref().unwrap_or(&self.page.data)
    }
}

/// Aggregate hit/miss counters of a [`CompressMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Compress lookups answered from the cache (compression skipped).
    pub hits: u64,
    /// Compress lookups that ran the compressor (first sight or changed
    /// bytes).
    pub misses: u64,
    /// Decompress lookups answered from the cache (LZ decode and
    /// checksum pass skipped).
    pub decompress_hits: u64,
    /// Decompress lookups that ran the decoder.
    pub decompress_misses: u64,
}

/// A bounded memo of compressed pages keyed by a caller-chosen `(u64,
/// u64)` key — `(server, pfn)` for the disaggregated store, `(0, pfn)`
/// for single-server backends.
///
/// Eviction is FIFO by first insertion: the memo is a transparent cache,
/// so eviction order affects only the hit rate, never any output.
///
/// # Examples
///
/// ```
/// use dmem_compress::{CompressMemo, PageCodec};
/// use dmem_types::CompressionMode;
///
/// let codec = PageCodec::new(CompressionMode::FourGranularity);
/// let mut memo = CompressMemo::new(64);
/// let page = vec![7u8; 4096];
/// let a = memo.get_or_compress((0, 1), &codec, &page);
/// let b = memo.get_or_compress((0, 1), &codec, &page);
/// assert_eq!(a, b);
/// assert_eq!(memo.stats().hits, 1);
/// assert_eq!(memo.get_or_decompress(&codec, b).unwrap(), page);
/// assert_eq!(memo.stats().decompress_hits, 1);
/// ```
#[derive(Debug)]
pub struct CompressMemo {
    map: HashMap<(u64, u64), Arc<MemoRecord>>,
    order: VecDeque<(u64, u64)>,
    /// Decompress direction, keyed by the original page's checksum (the
    /// one field present in both the compressed and decompressed form);
    /// a hit additionally requires full `CompressedPage` equality.
    decomp: HashMap<u64, Arc<MemoRecord>>,
    decomp_order: VecDeque<u64>,
    capacity: usize,
    stats: MemoStats,
}

impl CompressMemo {
    /// Creates a memo holding at most `capacity` entries per direction. A
    /// capacity of zero disables memoization (every lookup runs the
    /// codec).
    pub fn new(capacity: usize) -> Self {
        CompressMemo {
            map: HashMap::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            order: VecDeque::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            decomp: HashMap::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            decomp_order: VecDeque::with_capacity(capacity.min(DEFAULT_MEMO_CAPACITY)),
            capacity,
            stats: MemoStats::default(),
        }
    }

    /// A memo with [`DEFAULT_MEMO_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        CompressMemo::new(DEFAULT_MEMO_CAPACITY)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns the compressed form of `data`, reusing the cached result
    /// when the key was last compressed with identical bytes, and running
    /// `codec` otherwise. The returned page is byte-identical to
    /// `codec.compress(data)` in every case.
    pub fn get_or_compress(
        &mut self,
        key: (u64, u64),
        codec: &PageCodec,
        data: &[u8],
    ) -> CompressedPage {
        if self.capacity == 0 {
            self.stats.misses += 1;
            return codec.compress(data);
        }
        if let Some(record) = self.map.get(&key) {
            if record.original() == data {
                self.stats.hits += 1;
                return record.page.clone();
            }
        }
        self.stats.misses += 1;
        let page = codec.compress(data);
        let record = MemoRecord::new(page.clone(), data);
        // Same key, new bytes (a versioned overwrite) replaces the record
        // in place, keeping the FIFO position.
        if self.map.insert(key, Arc::clone(&record)).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(victim) = self.order.pop_front() {
                    self.map.remove(&victim);
                } else {
                    break;
                }
            }
        }
        self.remember_decompressed(record);
        page
    }

    /// Returns the original bytes of `stored`, reusing the cached result
    /// when an identical `CompressedPage` was compressed or decoded
    /// before, and running `codec.decompress` otherwise. Decompression is
    /// a pure function, so the result (including checksum verification)
    /// is identical to `codec.decompress(&stored)` in every case. A raw
    /// page that hits is returned as its own `data`, without a copy.
    ///
    /// # Errors
    ///
    /// Propagates [`codec.decompress`](PageCodec::decompress) errors on a
    /// miss; a corrupted page can never equal a cached good one, so it
    /// always takes the miss path and fails exactly as without the memo.
    pub fn get_or_decompress(
        &mut self,
        codec: &PageCodec,
        stored: CompressedPage,
    ) -> DmemResult<Vec<u8>> {
        if self.capacity == 0 {
            self.stats.decompress_misses += 1;
            return codec.decompress(&stored);
        }
        if let Some(record) = self.decomp.get(&stored.checksum) {
            if record.page == stored {
                self.stats.decompress_hits += 1;
                return Ok(match &record.original {
                    Some(original) => original.clone(),
                    None => stored.data,
                });
            }
        }
        self.stats.decompress_misses += 1;
        let original = codec.decompress(&stored)?;
        self.remember_decompressed(MemoRecord::new(stored, &original));
        Ok(original)
    }

    /// Records a known (compressed, original) pair on the decompress
    /// side. Compressing seeds this too, so the first read of a freshly
    /// written entry is already a hit.
    fn remember_decompressed(&mut self, record: Arc<MemoRecord>) {
        let key = record.page.checksum;
        match self.decomp.entry(key) {
            Entry::Occupied(mut occupied) => {
                // Checksum collision or re-learned pair: replace in
                // place, keeping the FIFO position.
                *occupied.get_mut() = record;
            }
            Entry::Vacant(vacant) => {
                vacant.insert(record);
                self.decomp_order.push_back(key);
                while self.decomp.len() > self.capacity {
                    if let Some(victim) = self.decomp_order.pop_front() {
                        self.decomp.remove(&victim);
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Drops a cached entry (e.g. when the caller knows the key's content
    /// is gone for good). Stale entries are harmless — the byte guard
    /// catches them — so calling this is an optimization, not a
    /// correctness requirement.
    pub fn invalidate(&mut self, key: (u64, u64)) {
        self.map.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use dmem_types::CompressionMode;
    use rand::SeedableRng;

    fn codec() -> PageCodec {
        PageCodec::new(CompressionMode::FourGranularity)
    }

    #[test]
    fn memo_matches_direct_compression() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for pfn in 0..4u64 {
            let page = synth::page_around_ratio(3.0, 0.5, &mut rng);
            for _ in 0..3 {
                assert_eq!(
                    memo.get_or_compress((0, pfn), &codec, &page),
                    codec.compress(&page)
                );
            }
        }
        assert_eq!(memo.stats().misses, 4);
        assert_eq!(memo.stats().hits, 8);
    }

    #[test]
    fn changed_bytes_under_same_key_recompress() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let a = vec![1u8; 4096];
        let b = vec![2u8; 4096];
        memo.get_or_compress((0, 7), &codec, &a);
        let out = memo.get_or_compress((0, 7), &codec, &b);
        assert_eq!(out, codec.compress(&b), "stale entry must not be served");
        assert_eq!(memo.stats().hits, 0);
        // And the replacement is now servable.
        memo.get_or_compress((0, 7), &codec, &b);
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn capacity_bounds_entries() {
        let codec = codec();
        let mut memo = CompressMemo::new(4);
        for pfn in 0..32u64 {
            memo.get_or_compress((0, pfn), &codec, &vec![pfn as u8; 4096]);
            assert!(memo.len() <= 4);
        }
    }

    #[test]
    fn zero_capacity_disables() {
        let codec = codec();
        let mut memo = CompressMemo::new(0);
        let page = vec![3u8; 4096];
        memo.get_or_compress((0, 1), &codec, &page);
        memo.get_or_compress((0, 1), &codec, &page);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().misses, 2);
        // Compressing seeded nothing on the decompress side either.
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert_eq!(memo.get_or_decompress(&codec, stored).unwrap(), page);
        assert_eq!(memo.stats().decompress_hits, 0);
        assert_eq!(memo.stats().decompress_misses, 1);
    }

    #[test]
    fn decompress_memo_matches_direct_decode() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for _ in 0..4 {
            let page = synth::page_around_ratio(3.0, 0.5, &mut rng);
            let stored = codec.compress(&page);
            for _ in 0..3 {
                assert_eq!(memo.get_or_decompress(&codec, stored.clone()).unwrap(), page);
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.decompress_misses, 4);
        assert_eq!(stats.decompress_hits, 8);
    }

    #[test]
    fn compressing_seeds_the_decompress_side() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![6u8; 4096];
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert_eq!(memo.get_or_decompress(&codec, stored).unwrap(), page);
        assert_eq!(memo.stats().decompress_hits, 1, "first read must hit");
        assert_eq!(memo.stats().decompress_misses, 0);
    }

    #[test]
    fn corrupt_stream_never_matches_cached_entry() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![0u8; 4096];
        let mut stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(stored.is_compressed);
        stored.data[0] ^= 0xFF;
        assert!(memo.get_or_decompress(&codec, stored).is_err());
    }

    #[test]
    fn zero_capacity_disables_decompress_memo() {
        let codec = codec();
        let mut memo = CompressMemo::new(0);
        let stored = codec.compress(&vec![4u8; 4096]);
        memo.get_or_decompress(&codec, stored.clone()).unwrap();
        memo.get_or_decompress(&codec, stored).unwrap();
        assert_eq!(memo.stats().decompress_hits, 0);
        assert_eq!(memo.stats().decompress_misses, 2);
    }

    fn raw_page() -> Vec<u8> {
        use rand::RngCore;
        let mut page = vec![0u8; 4096];
        rand::rngs::SmallRng::seed_from_u64(17).fill_bytes(&mut page);
        page
    }

    #[test]
    fn raw_page_decompresses_by_value_and_hits() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = raw_page();
        let stored = memo.get_or_compress((0, 1), &codec, &page);
        assert!(!stored.is_compressed, "noise page must be stored raw");
        assert_eq!(memo.get_or_decompress(&codec, stored.clone()).unwrap(), page);
        assert_eq!(memo.get_or_decompress(&codec, stored).unwrap(), page);
        assert_eq!(memo.stats().decompress_hits, 2);
        assert_eq!(memo.stats().decompress_misses, 0);
    }

    #[test]
    fn raw_page_with_flipped_byte_misses_and_is_corrupt() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let mut stored = memo.get_or_compress((0, 1), &codec, &raw_page());
        assert!(!stored.is_compressed);
        // Same checksum field, one flipped data byte.
        stored.data[1234] ^= 0x01;
        assert!(matches!(
            memo.get_or_decompress(&codec, stored),
            Err(dmem_types::DmemError::Corrupt(_))
        ));
        assert_eq!(memo.stats().decompress_hits, 0);
        assert_eq!(memo.stats().decompress_misses, 1);
    }

    #[test]
    fn changed_bytes_replace_the_record_in_both_directions() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let old = raw_page();
        let new = vec![9u8; 4096];
        memo.get_or_compress((0, 7), &codec, &old);
        let stored = memo.get_or_compress((0, 7), &codec, &new);
        assert_eq!(memo.len(), 1, "replaced in place");
        // Compress side: the new bytes hit, the old ones miss.
        assert_eq!(memo.get_or_compress((0, 7), &codec, &new), stored);
        assert_eq!(memo.stats().hits, 1);
        memo.get_or_compress((0, 7), &codec, &new);
        assert_eq!(memo.stats().hits, 2);
        // Decompress side: the new stream is already known.
        assert_eq!(memo.get_or_decompress(&codec, stored).unwrap(), new);
        assert_eq!(memo.stats().decompress_hits, 1);
        assert_eq!(memo.stats().decompress_misses, 0);
        memo.get_or_compress((0, 7), &codec, &old);
        assert_eq!(memo.stats().misses, 3, "old bytes no longer cached under the key");
    }

    #[test]
    fn invalidate_forces_miss() {
        let codec = codec();
        let mut memo = CompressMemo::new(8);
        let page = vec![5u8; 4096];
        memo.get_or_compress((0, 1), &codec, &page);
        memo.invalidate((0, 1));
        memo.get_or_compress((0, 1), &codec, &page);
        assert_eq!(memo.stats().misses, 2);
    }
}
