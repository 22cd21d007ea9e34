//! Instruction-cache model.
//!
//! The paper's §5 is built around one hardware reality: "GPUs are built
//! assuming all threads run the same code", and a naïve top-level switch on
//! warp ID "begins thrashing the instruction cache at six different warp
//! code paths" (Figure 9), costing an order of magnitude. We model a
//! set-associative LRU instruction cache fed by the *interleaved* fetch
//! trace of all warps in an SM: when warps execute disjoint code blocks
//! whose combined footprint exceeds capacity, the round-robin interleaving
//! causes continual eviction — the thrash. Overlaid code keeps the warps on
//! shared addresses and the footprint small.
//!
//! The model reads each warp's trace through [`FetchStream`], a slice of at
//! most a prefetch run at a time: a plain `&[u32]` is one, and so is the
//! walker over a flattened program's rolled streams, where a loop body's
//! addresses are stored once and handed out again for every trip. The
//! inner loop walks slices either way.

/// Set-associative LRU instruction cache.
#[derive(Debug, Clone)]
pub struct ICache {
    line_bytes: usize,
    sets: usize,
    assoc: usize,
    /// `ways[set]` holds resident tags in LRU order.
    ways: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Build from capacity / line size / associativity.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> ICache {
        let lines = (capacity_bytes / line_bytes).max(assoc);
        let sets = (lines / assoc).max(1);
        ICache {
            line_bytes,
            sets,
            assoc,
            ways: vec![Vec::new(); sets],
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch the line containing `byte_addr`; returns true on hit.
    pub fn fetch(&mut self, byte_addr: u64) -> bool {
        let line = byte_addr / self.line_bytes as u64;
        let set = (line % self.sets as u64) as usize;
        let ways = &mut self.ways[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            ways.remove(pos);
            ways.insert(0, line);
            self.hits += 1;
            true
        } else {
            ways.insert(0, line);
            if ways.len() > self.assoc {
                ways.pop();
            }
            self.misses += 1;
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Result of an interleaved fetch-trace simulation, with misses broken
/// down per warp so the profiler can attribute icache penalties.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchProfile {
    /// Total instruction fetches across all warps.
    pub fetches: u64,
    /// Total cache misses.
    pub misses: u64,
    /// Misses attributed to each warp's stream.
    pub per_warp_misses: Vec<u64>,
}

/// One warp's fetch-address stream, handed to the model a slice at a time,
/// so a stream that is stored rolled (a loop body's addresses once, see
/// [`crate::interp::FlatProgram`]) is replayed without being expanded and
/// the model's inner loop still walks plain slices.
pub trait FetchStream {
    /// The next addresses of the stream, at most `n` of them; fewer than
    /// `n` does not mean the stream ended, an empty slice does.
    fn next_addrs(&mut self, n: usize) -> &[u32];

    /// Whether every address has been handed out.
    fn is_done(&self) -> bool;
}

impl FetchStream for &[u32] {
    fn next_addrs(&mut self, n: usize) -> &[u32] {
        let (head, rest) = self.split_at(n.min(self.len()));
        *self = rest;
        head
    }

    fn is_done(&self) -> bool {
        self.is_empty()
    }
}

/// Simulate an interleaved round-robin fetch of per-warp instruction
/// address streams, the way an SM's scheduler rotates among resident
/// warps, attributing each miss to the warp whose fetch missed. One stream
/// per warp, consumed.
///
/// Each stream entry is a static instruction address (index); addresses are
/// scaled by `instr_bytes`. `group` controls how many consecutive
/// instructions a warp fetches before the scheduler rotates (prefetch
/// granularity — paper §5.1 notes the prefetcher handles divergence for
/// code regions up to a few hundred instructions).
pub fn interleaved_fetch_profile(
    streams: &mut [impl FetchStream],
    instr_bytes: usize,
    capacity_bytes: usize,
    line_bytes: usize,
    assoc: usize,
    group: usize,
) -> FetchProfile {
    let mut cache = ICache::new(capacity_bytes, line_bytes, assoc);
    let mut per_warp = vec![0u64; streams.len()];
    let group = group.max(1);
    let mut live = true;
    while live {
        live = false;
        for (w, stream) in streams.iter_mut().enumerate() {
            let mut wanted = group;
            while wanted > 0 {
                let addrs = stream.next_addrs(wanted);
                if addrs.is_empty() {
                    break;
                }
                for &addr in addrs {
                    if !cache.fetch(addr as u64 * instr_bytes as u64) {
                        per_warp[w] += 1;
                    }
                }
                wanted -= addrs.len();
            }
            live |= !stream.is_done();
        }
    }
    FetchProfile {
        fetches: cache.hits() + cache.misses(),
        misses: cache.misses(),
        per_warp_misses: per_warp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(fetches, misses)` of the simulation over plain address vectors.
    fn interleaved_fetch_trace(
        streams: &[Vec<u32>],
        instr_bytes: usize,
        capacity_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        group: usize,
    ) -> (u64, u64) {
        let mut streams: Vec<&[u32]> = streams.iter().map(Vec::as_slice).collect();
        let p = interleaved_fetch_profile(
            &mut streams, instr_bytes, capacity_bytes, line_bytes, assoc, group,
        );
        (p.fetches, p.misses)
    }

    #[test]
    fn shared_code_paths_hit() {
        // 8 warps all fetching the same 256-instruction block: after the
        // first warp's cold misses, everyone hits.
        let stream: Vec<u32> = (0..256).collect();
        let streams = vec![stream; 8];
        let (fetches, misses) = interleaved_fetch_trace(&streams, 8, 8192, 64, 4, 64);
        assert_eq!(fetches, 8 * 256);
        // 256 instrs * 8 bytes = 2 KB = 32 lines of cold misses.
        assert_eq!(misses, 32);
    }

    #[test]
    fn disjoint_code_paths_thrash_beyond_capacity() {
        // 8 warps, each with a disjoint 512-instruction block: total
        // footprint 32 KB >> 8 KB, fine interleaving causes thrash.
        let streams: Vec<Vec<u32>> = (0..8u32)
            .map(|w| (w * 512..(w + 1) * 512).collect())
            .collect();
        let (fetches, misses) = interleaved_fetch_trace(&streams, 8, 8192, 64, 4, 8);
        let ratio = misses as f64 / fetches as f64;
        assert!(ratio > 0.10, "expected thrashing, miss ratio {ratio}");
    }

    #[test]
    fn few_disjoint_paths_fit() {
        // 2 warps with disjoint 256-instruction blocks: 4 KB total, fits.
        let streams: Vec<Vec<u32>> = (0..2u32)
            .map(|w| (w * 256..(w + 1) * 256).collect())
            .collect();
        let (_, misses) = interleaved_fetch_trace(&streams, 8, 8192, 64, 4, 8);
        // Only cold misses: 512 instrs * 8B / 64B = 64 lines.
        assert_eq!(misses, 64);
    }

    #[test]
    fn per_warp_misses_sum_to_total() {
        let streams: Vec<Vec<u32>> = (0..8u32)
            .map(|w| (w * 512..(w + 1) * 512).collect())
            .collect();
        let mut slices: Vec<&[u32]> = streams.iter().map(Vec::as_slice).collect();
        let p = interleaved_fetch_profile(&mut slices, 8, 8192, 64, 4, 8);
        assert_eq!(p.per_warp_misses.len(), 8);
        assert_eq!(p.per_warp_misses.iter().sum::<u64>(), p.misses);
        let (fetches, misses) = interleaved_fetch_trace(&streams, 8, 8192, 64, 4, 8);
        assert_eq!((fetches, misses), (p.fetches, p.misses));
    }

    #[test]
    fn loops_amortize_cold_misses() {
        // One warp executing a 128-instruction loop 10 times.
        let body: Vec<u32> = (0..128).collect();
        let mut stream = Vec::new();
        for _ in 0..10 {
            stream.extend_from_slice(&body);
        }
        let (fetches, misses) = interleaved_fetch_trace(&[stream], 8, 8192, 64, 4, 8);
        assert_eq!(fetches, 1280);
        assert_eq!(misses, 16); // 128*8/64
    }
}
