//! An LZ77-family byte codec.
//!
//! The format is a simplified LZ4-style token stream tuned for 4 KiB
//! pages:
//!
//! * control byte with high bit **clear**: a literal run of
//!   `(control + 1)` bytes (1..=128) follows;
//! * control byte with high bit **set**: a back-reference of length
//!   `(control & 0x7f) + MIN_MATCH` (4..=131) at the 16-bit little-endian
//!   offset that follows (1..=65535, within the already-decoded output).
//!
//! The compressor uses a greedy hash-chain matcher over 4-byte prefixes.
//! It is deliberately small and allocation-light rather than maximally
//! tight: the experiments depend on *relative* compressibility across
//! workloads, which this codec preserves.

/// Minimum back-reference length; shorter matches are emitted as literals.
pub const MIN_MATCH: usize = 4;
/// Maximum back-reference length encodable in one token.
pub const MAX_MATCH: usize = MIN_MATCH + 0x7f;
/// Maximum literal run per token.
const MAX_LITERAL_RUN: usize = 128;
/// Window: the full page (offsets are 16-bit).
const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 12;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Multiplicative hash of a 4-byte prefix `v` down to `bits` bits.
#[inline]
fn hash4(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

#[inline]
fn read_u32(input: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(input[pos..pos + 4].try_into().expect("4 bytes in bounds"))
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped at
/// `limit`. Both `a + limit` and `b + limit` must be in bounds.
#[inline]
fn match_len(input: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut len = 0;
    while len + 8 <= limit {
        let x = u64::from_le_bytes(input[a + len..a + len + 8].try_into().expect("8 bytes"));
        let y = u64::from_le_bytes(input[b + len..b + len + 8].try_into().expect("8 bytes"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && input[a + len] == input[b + len] {
        len += 1;
    }
    len
}

/// Bits of the pre-scan's 4-gram hash: a 2^16-bit (8 KiB) seen-set.
const NOVEL_HASH_BITS: u32 = 16;
/// Positions per pre-scan block (between its exit checks).
const NOVEL_BLOCK: usize = 32;

/// Matcher and pre-scan state reused across calls.
struct Scratch {
    /// `head[h]` = most recent position with hash `h`, or `NONE`.
    head: Vec<u32>,
    /// `prev[i]` = previous position in the chain of position `i`.
    prev: Vec<u32>,
    /// Seen-set of 16-bit 4-gram hashes for [`provably_longer`].
    seen: SeenSet,
}

/// Words of the pre-scan's seen-set.
const SEEN_WORDS: usize = 1 << (NOVEL_HASH_BITS - 6);

/// A 2^16-bit set, one bit per 16-bit hash.
type SeenSet = [u64; SEEN_WORDS];

/// Empty hash-chain link.
const NONE: u32 = u32::MAX;

std::thread_local! {
    // `head` is reset per call; `prev[x]` is only ever read for positions
    // inserted during the same call (chains start at `head`), so stale
    // entries from earlier inputs are unreachable and `prev` only needs
    // resizing, not clearing. Positions are held as `u32`, which halves
    // the per-call `head` reset (16 KiB) and the matcher's cache
    // footprint.
    static SCRATCH: std::cell::RefCell<Scratch> = const {
        std::cell::RefCell::new(Scratch {
            head: Vec::new(),
            prev: Vec::new(),
            seen: [0; SEEN_WORDS],
        })
    };
}

/// Compresses `input`, returning the token stream.
///
/// The output may be longer than the input for incompressible data;
/// callers that need a bound should compare lengths and keep the raw
/// bytes instead (as [`crate::PageCodec`] does). Inputs of 4 GiB or more
/// panic (see [`compress_within`]).
///
/// # Examples
///
/// ```
/// use dmem_compress::lz;
///
/// let data = b"abcabcabcabcabcabc".to_vec();
/// let packed = lz::compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(lz::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut out);
    out
}

/// [`compress`] into a caller-provided buffer, reusing its capacity.
///
/// The buffer is cleared first; on return it holds exactly the token
/// stream. Together with the thread-local matcher scratch this makes
/// steady-state compression allocation-free once buffers have grown to
/// their working size.
pub fn compress_into(input: &[u8], out: &mut Vec<u8>) {
    compress_within(input, usize::MAX, out);
}

/// Compresses `input` only if the token stream fits in `max_len` bytes.
///
/// Returns `true` with the complete stream in `out` (byte-identical to
/// [`compress`]) when it fits, and `false` as soon as the stream is
/// provably longer — without finishing the match search. Callers that
/// fall back to raw storage above a size threshold (the page codec, for
/// which any stream over the largest sub-page size class means "store
/// raw") use this to stop paying the matcher for incompressible input;
/// the accept/reject decision is exactly that of running [`compress`] to
/// completion and comparing lengths.
///
/// Two bounds prove a stream too long. Before matching, a pre-scan
/// counts *novel* positions, whose 4-gram occurs nowhere earlier in the
/// input; when there are more than `max_len` of them the input is
/// rejected without running the matcher (see [`provably_longer`]).
/// During matching, emitted bytes plus pending literals bound the final
/// length from below.
///
/// # Panics
///
/// Panics if `input` is 4 GiB or longer: chain positions are `u32`.
pub fn compress_within(input: &[u8], max_len: usize, out: &mut Vec<u8>) -> bool {
    out.clear();
    assert!(input.len() < NONE as usize, "LZ input of {} bytes exceeds 4 GiB", input.len());
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        if provably_longer(input, max_len, &mut scratch.seen) {
            return false;
        }
        scratch.head.clear();
        scratch.head.resize(HASH_SIZE, NONE);
        if scratch.prev.len() < input.len() {
            scratch.prev.resize(input.len(), NONE);
        }
        compress_with(input, out, &mut scratch.head, &mut scratch.prev, max_len)
    })
}

/// `true` when the token stream of `input` is provably longer than
/// `max_len` bytes, counted from its novel positions alone.
///
/// A position `p` is novel when the 16-bit hash of `input[p..p + 4]` is
/// not yet in `seen`, so that 4-gram occurs at no earlier position. No
/// match can start at `p`, and a match starting at `s < p` can cover `p`
/// only in its last three bytes (otherwise `input[p..p + 4]` would lie
/// inside the match and repeat earlier). So every novel position is a
/// literal, costing at least its own byte, or a tail byte of a match
/// token, whose three bytes pay for at most three novel positions: the
/// stream is at least as long as the novel count. Hash collisions only
/// hide novel positions, so the bound stays sound.
///
/// The scan works in blocks of [`NOVEL_BLOCK`] positions and gives
/// up, answering `false`, once even an all-novel remainder could not push
/// the count past `max_len`, or as soon as a block is mostly repeats —
/// content the matcher will compress, so proving the bound is unlikely
/// and the rest of the scan would be wasted. Giving up only hands the
/// decision to the matcher, which is exact on its own.
fn provably_longer(input: &[u8], max_len: usize, seen: &mut SeenSet) -> bool {
    let positions = input.len().saturating_sub(MIN_MATCH - 1);
    if positions <= max_len {
        return false;
    }
    seen.fill(0);
    let mut novel = 0usize;
    let mut p = 0usize;
    while novel + (positions - p) > max_len {
        let end = (p + NOVEL_BLOCK).min(positions);
        let block_start = novel;
        for q in p..end {
            let h = hash4(read_u32(input, q), NOVEL_HASH_BITS);
            let word = &mut seen[h >> 6];
            let marked = *word | 1 << (h & 63);
            novel += usize::from(marked != *word);
            *word = marked;
        }
        if novel > max_len {
            return true;
        }
        if (novel - block_start) * 4 < end - p {
            return false;
        }
        p = end;
    }
    false
}

fn compress_with(
    input: &[u8],
    out: &mut Vec<u8>,
    head: &mut [u32],
    prev: &mut [u32],
    max_len: usize,
) -> bool {
    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, input: &[u8]| {
        let mut start = from;
        while start < to {
            let run = (to - start).min(MAX_LITERAL_RUN);
            out.push((run - 1) as u8);
            out.extend_from_slice(&input[start..start + run]);
            start += run;
        }
    };

    while i + MIN_MATCH <= input.len() {
        // Emitted bytes plus pending literals (everything before `i` not
        // covered by a match is committed to literal emission) is a lower
        // bound on the final stream length — once past the budget, stop
        // searching.
        if out.len() + (i - literal_start) > max_len {
            return false;
        }
        // Walk the chain looking for the longest match.
        let cur4 = read_u32(input, i);
        let h = hash4(cur4, HASH_BITS);
        let mut best_len = 0usize;
        let mut best_pos = 0usize;
        let mut candidate = head[h];
        let mut probes = 16; // bounded effort per position
        while candidate != NONE && probes > 0 {
            let cand = candidate as usize;
            if i - cand <= MAX_OFFSET {
                // An accepted match needs at least MIN_MATCH = 4 leading
                // bytes; a candidate failing the 4-byte probe could only
                // score a sub-minimum length, which never changes the
                // emitted stream — skip its byte scan.
                if read_u32(input, cand) == cur4 {
                    let limit = (input.len() - i).min(MAX_MATCH);
                    let len = match_len(input, cand, i, limit);
                    if len > best_len {
                        best_len = len;
                        best_pos = cand;
                        if len == limit {
                            break;
                        }
                    }
                }
            } else {
                break; // chains are position-ordered; older is farther
            }
            candidate = prev[cand];
            probes -= 1;
        }

        if best_len >= MIN_MATCH {
            flush_literals(out, literal_start, i, input);
            let offset = (i - best_pos) as u16;
            out.push(0x80 | (best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&offset.to_le_bytes());
            // Insert the covered positions into the hash chains so later
            // matches can reference them.
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            for (p, link) in (i..end).zip(&mut prev[i..end]) {
                let hp = hash4(read_u32(input, p), HASH_BITS);
                *link = head[hp];
                head[hp] = p as u32;
            }
            i += best_len;
            literal_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i as u32;
            i += 1;
        }
    }
    flush_literals(out, literal_start, input.len(), input);
    out.len() <= max_len
}

/// Errors produced by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadOffset {
        /// The offending offset.
        offset: usize,
        /// Output length at that point.
        have: usize,
    },
    /// The stream decoded to a different length than expected.
    LengthMismatch {
        /// Expected output length.
        expected: usize,
        /// Actual decoded length.
        actual: usize,
    },
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Truncated => write!(f, "compressed stream truncated"),
            LzError::BadOffset { offset, have } => {
                write!(f, "back-reference offset {offset} exceeds decoded length {have}")
            }
            LzError::LengthMismatch { expected, actual } => {
                write!(f, "decoded {actual} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LzError {}

/// Decompresses a token stream produced by [`compress`].
///
/// `expected_len` is the original input length (stored out-of-band by the
/// page codec, since pages have a fixed size).
///
/// # Errors
///
/// Returns an [`LzError`] if the stream is truncated, contains an invalid
/// back-reference, or does not decode to `expected_len` bytes.
pub fn decompress(stream: &[u8], expected_len: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::with_capacity(expected_len);
    decompress_into(stream, expected_len, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-provided buffer, reusing its capacity.
///
/// The buffer is cleared first; on success it holds exactly the decoded
/// bytes. On error the buffer contents are unspecified.
///
/// # Errors
///
/// Same as [`decompress`].
pub fn decompress_into(
    stream: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), LzError> {
    out.clear();
    let mut i = 0usize;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        if control & 0x80 == 0 {
            let run = control as usize + 1;
            if i + run > stream.len() {
                return Err(LzError::Truncated);
            }
            out.extend_from_slice(&stream[i..i + run]);
            i += run;
        } else {
            if i + 2 > stream.len() {
                return Err(LzError::Truncated);
            }
            let len = (control & 0x7f) as usize + MIN_MATCH;
            let offset = u16::from_le_bytes([stream[i], stream[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > out.len() {
                return Err(LzError::BadOffset {
                    offset,
                    have: out.len(),
                });
            }
            // Overlapping copies are legal (e.g. offset 1 repeats a byte).
            let start = out.len() - offset;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() != expected_len {
        return Err(LzError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        decompress(&compress(data), data.len()).expect("roundtrip")
    }

    #[test]
    fn empty_input() {
        assert_eq!(compress(&[]), Vec::<u8>::new());
        assert_eq!(decompress(&[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bounded_compress_matches_unbounded_when_within_budget() {
        let mut page = vec![0u8; 4096];
        for (i, byte) in page.iter_mut().enumerate() {
            *byte = (i / 64) as u8; // long runs: highly compressible
        }
        let full = compress(&page);
        assert!(full.len() <= 2048, "test page must fit the budget");
        let mut bounded = Vec::new();
        assert!(compress_within(&page, 2048, &mut bounded));
        assert_eq!(bounded, full, "bounded stream must be byte-identical");
    }

    #[test]
    fn bounded_compress_bails_on_incompressible_input() {
        // A simple xorshift fills the page with incompressible noise.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut page = vec![0u8; 4096];
        for byte in page.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = state as u8;
        }
        assert!(compress(&page).len() > 2048, "noise page must overflow");
        let mut bounded = Vec::new();
        assert!(!compress_within(&page, 2048, &mut bounded));
        // The rejection comes from the pre-scan, before any matching.
        assert!(provably_longer(&page, 2048, &mut [0; SEEN_WORDS]));
    }

    /// Novel-position count by definition: positions whose 4-gram hash
    /// occurs at no earlier position.
    fn novel_positions(input: &[u8]) -> usize {
        let mut seen = std::collections::HashSet::new();
        input
            .windows(MIN_MATCH)
            .filter(|w| seen.insert(hash4(read_u32(w, 0), NOVEL_HASH_BITS)))
            .count()
    }

    /// `compress_within` agrees exactly with a full run at every budget.
    fn assert_within_exact(input: &[u8]) -> Result<(), TestCaseError> {
        let full = compress(input);
        let mut out = Vec::new();
        for budget in [0, 512, 1024, 2048, 3072, input.len(), usize::MAX] {
            let fits = compress_within(input, budget, &mut out);
            prop_assert_eq!(fits, full.len() <= budget, "budget {}", budget);
            if fits {
                prop_assert_eq!(&out, &full, "budget {}", budget);
            }
        }
        Ok(())
    }

    fn noise(seed: u64, len: usize) -> Vec<u8> {
        use rand::{RngCore, SeedableRng};
        let mut page = vec![0u8; len];
        rand::rngs::SmallRng::seed_from_u64(seed).fill_bytes(&mut page);
        page
    }

    #[test]
    fn novel_count_at_budget_is_not_a_proof() {
        // 1 KiB of noise, then the same bytes again: the second half
        // repeats every 4-gram, so only the first half (and the three
        // 4-grams straddling the seam) can be novel.
        let mut input = noise(5, 1024);
        input.extend_from_within(..);
        let novel = novel_positions(&input);
        assert!(novel > 900 && novel <= 1024, "novel = {novel}");
        let full = compress(&input).len();
        assert!(novel <= full, "novel count {novel} bounds the stream {full}");

        let mut seen = [0; SEEN_WORDS];
        assert!(!provably_longer(&input, novel, &mut seen), "count == budget");
        assert!(provably_longer(&input, novel - 1, &mut seen), "count == budget + 1");
        let mut out = Vec::new();
        for budget in [novel - 1, novel, novel + 1, full - 1, full] {
            assert_eq!(compress_within(&input, budget, &mut out), full <= budget, "budget {budget}");
        }
        assert_eq!(out, compress(&input));
    }

    #[test]
    fn zero_page_compresses_hard() {
        let page = vec![0u8; 4096];
        let packed = compress(&page);
        assert!(packed.len() < 200, "zero page packed to {}", packed.len());
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn repeated_motif() {
        let page: Vec<u8> = (0..4096).map(|i| b"hello world! "[i % 13]).collect();
        let packed = compress(&page);
        assert!(packed.len() < page.len() / 4);
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn random_data_still_roundtrips() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let packed = compress(&page);
        // Incompressible: expansion is bounded by the per-run control byte.
        assert!(packed.len() <= page.len() + page.len() / MAX_LITERAL_RUN + 1);
        assert_eq!(roundtrip(&page), page);
    }

    #[test]
    fn overlapping_match_offset_one() {
        let mut data = vec![7u8];
        data.extend(std::iter::repeat_n(7u8, 300));
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_literal_rejected() {
        // Control byte promises 4 literals, stream has 1.
        assert_eq!(decompress(&[3, 0xAA], 4), Err(LzError::Truncated));
    }

    #[test]
    fn truncated_match_rejected() {
        assert_eq!(decompress(&[0x80, 1], 10), Err(LzError::Truncated));
    }

    #[test]
    fn bad_offset_rejected() {
        // One literal, then a match at offset 5 with only 1 byte decoded.
        let stream = vec![0, 0xAA, 0x80, 5, 0];
        assert!(matches!(
            decompress(&stream, 5),
            Err(LzError::BadOffset { offset: 5, have: 1 })
        ));
    }

    #[test]
    fn zero_offset_rejected() {
        let stream = vec![0, 0xAA, 0x80, 0, 0];
        assert!(matches!(decompress(&stream, 5), Err(LzError::BadOffset { .. })));
    }

    #[test]
    fn length_mismatch_detected() {
        let packed = compress(b"abcd");
        assert!(matches!(
            decompress(&packed, 5),
            Err(LzError::LengthMismatch { expected: 5, actual: 4 })
        ));
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_api() {
        let mut packed = Vec::new();
        let mut out = Vec::new();
        for rep in 1..6usize {
            let data: Vec<u8> = (0..512 * rep).map(|i| (i / 7) as u8).collect();
            compress_into(&data, &mut packed);
            assert_eq!(packed, compress(&data), "rep {rep}");
            decompress_into(&packed, data.len(), &mut out).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            LzError::Truncated,
            LzError::BadOffset { offset: 9, have: 1 },
            LzError::LengthMismatch {
                expected: 1,
                actual: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn prop_roundtrip_structured(motif in proptest::collection::vec(any::<u8>(), 1..32), reps in 1usize..256) {
            let data: Vec<u8> = motif.iter().cycle().take(motif.len() * reps).copied().collect();
            prop_assert_eq!(roundtrip(&data), data);
        }

        #[test]
        fn prop_within_exact_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            assert_within_exact(&data)?;
        }

        #[test]
        fn prop_within_exact_motif(
            motif in proptest::collection::vec(any::<u8>(), 1..64),
            len in 0usize..=4096,
            seed in any::<u64>(),
            flips in 0usize..1024,
        ) {
            // A repeated motif with `flips` noise bytes sprinkled in spans
            // everything from highly compressible to incompressible.
            let mut data: Vec<u8> = motif.iter().cycle().take(len).copied().collect();
            let noise = noise(seed, flips * 2);
            for pair in noise.chunks(2) {
                if !data.is_empty() {
                    let at = usize::from(u16::from_le_bytes([pair[0], pair[1]])) % data.len();
                    data[at] = pair[0];
                }
            }
            assert_within_exact(&data)?;
        }

        #[test]
        fn prop_within_exact_f64_records(seed in any::<u64>(), records in 0usize..=256, spread in 0u32..64) {
            // (u64 key, f64 value) records: sequential keys, values drawn
            // from a range whose width sets how many mantissa bits vary.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut data = Vec::with_capacity(records * 16);
            for key in 0..records as u64 {
                let value = 100.0 + rng.gen_range(0..(1u64 << spread)) as f64 / 1024.0;
                data.extend_from_slice(&key.to_le_bytes());
                data.extend_from_slice(&value.to_le_bytes());
            }
            assert_within_exact(&data)?;
        }

        #[test]
        fn prop_structured_beats_random_size(seed in 0u64..100) {
            use rand::{RngCore, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut random = vec![0u8; 1024];
            rng.fill_bytes(&mut random);
            let structured: Vec<u8> = (0..1024).map(|i| (i / 64) as u8).collect();
            prop_assert!(compress(&structured).len() < compress(&random).len());
        }
    }
}
