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
//!
//! Most fetches are to the line the fetch before touched — eight or more
//! instructions share a line, and a warp fetches a run of them. That line
//! is the most recent of its set, so such a fetch is a hit that moves
//! nothing: [`ICache::fetch`] counts it and returns before the set is
//! looked at. The sets themselves are one flat array of `assoc` tags each,
//! rotated in place.

/// Set-associative LRU instruction cache.
#[derive(Debug, Clone)]
pub struct ICache {
    line_bytes: usize,
    sets: usize,
    assoc: usize,
    /// Set `s` is `tags[s * assoc..][..assoc]`: its first `filled[s]` ways
    /// hold resident tags, most recently used first.
    tags: Vec<u64>,
    filled: Vec<usize>,
    /// The line the previous fetch touched, if any.
    last: Option<u64>,
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
            tags: vec![0; sets * assoc],
            filled: vec![0; sets],
            last: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch the line containing `byte_addr`; returns true on hit.
    #[inline]
    pub fn fetch(&mut self, byte_addr: u64) -> bool {
        let line = byte_addr / self.line_bytes as u64;
        if self.last == Some(line) {
            // Already the most recent way of its set: a hit that changes
            // no LRU state.
            self.hits += 1;
            return true;
        }
        self.last = Some(line);
        let set = (line % self.sets as u64) as usize;
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        let filled = &mut self.filled[set];
        // The way that goes to the front: the hit, else the first free way,
        // else the least recently used — which the miss evicts.
        let (hit, at) = match ways[..*filled].iter().position(|&t| t == line) {
            Some(at) => (true, at),
            None if *filled < self.assoc => {
                *filled += 1;
                (false, *filled - 1)
            }
            None => (false, self.assoc - 1),
        };
        ways[..=at].rotate_right(1);
        ways[0] = line;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
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

    /// The cache as first written, kept as the oracle of [`ICache`]: a
    /// `Vec` of tags per set in LRU order, every fetch looked up in its set.
    struct RefICache {
        line_bytes: usize,
        sets: usize,
        assoc: usize,
        ways: Vec<Vec<u64>>,
    }

    impl RefICache {
        fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> RefICache {
            let lines = (capacity_bytes / line_bytes).max(assoc);
            let sets = (lines / assoc).max(1);
            RefICache { line_bytes, sets, assoc, ways: vec![Vec::new(); sets] }
        }

        fn fetch(&mut self, byte_addr: u64) -> bool {
            let line = byte_addr / self.line_bytes as u64;
            let set = (line % self.sets as u64) as usize;
            let ways = &mut self.ways[set];
            if let Some(pos) = ways.iter().position(|&t| t == line) {
                ways.remove(pos);
                ways.insert(0, line);
                true
            } else {
                ways.insert(0, line);
                if ways.len() > self.assoc {
                    ways.pop();
                }
                false
            }
        }
    }

    /// [`interleaved_fetch_profile`] spelled out over the reference cache:
    /// `group` fetches a warp, round-robin, until every stream is spent.
    /// Also returns how many fetches touched the line the previous fetch
    /// did, when that fetch was another warp's.
    fn reference_profile(
        streams: &[Vec<u32>],
        instr_bytes: usize,
        capacity_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        group: usize,
    ) -> (FetchProfile, u64) {
        let mut cache = RefICache::new(capacity_bytes, line_bytes, assoc);
        let mut p = FetchProfile { per_warp_misses: vec![0; streams.len()], ..Default::default() };
        let mut pos = vec![0; streams.len()];
        let (mut prev, mut straddles) = (None, 0);
        while pos.iter().zip(streams).any(|(&at, s)| at < s.len()) {
            for (w, s) in streams.iter().enumerate() {
                let end = (pos[w] + group).min(s.len());
                for &addr in &s[pos[w]..end] {
                    let byte = u64::from(addr) * instr_bytes as u64;
                    let line = byte / line_bytes as u64;
                    straddles += u64::from(prev.is_some_and(|(pw, pl)| pw != w && pl == line));
                    prev = Some((w, line));
                    p.fetches += 1;
                    if !cache.fetch(byte) {
                        p.misses += 1;
                        p.per_warp_misses[w] += 1;
                    }
                }
                pos[w] = end;
            }
        }
        (p, straddles)
    }

    /// Seeded xorshift: a value below `n`.
    fn below(x: &mut u64, n: usize) -> usize {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        (*x % n as u64) as usize
    }

    /// Random per-warp streams the way kernels fetch: straight runs of
    /// 1-300 instructions, each starting at a fresh place in a small
    /// footprint, at another warp's current place (shared code, so a run
    /// of one line often straddles a rotation), or back where the warp's
    /// previous run began (a loop).
    fn random_streams(x: &mut u64) -> Vec<Vec<u32>> {
        let warps = 1 + below(x, 8);
        let footprint = 16 + below(x, 4096);
        let mut streams: Vec<Vec<u32>> = vec![Vec::new(); warps];
        let mut run_start = vec![0u32; warps];
        for _ in 0..(1 + below(x, 12)) {
            for w in 0..warps {
                let start = match below(x, 3) {
                    0 => below(x, footprint) as u32,
                    1 => streams[below(x, warps)].last().map_or(0, |&a| a + 1),
                    _ => run_start[w],
                };
                run_start[w] = start;
                let len = 1 + below(x, 300) as u32;
                streams[w].extend(start..start + len);
            }
        }
        streams
    }

    #[test]
    fn the_flat_cache_is_the_reference_lru_on_random_streams() {
        // Associativity 1-8, lines of 16-128 B, 8- and 16-byte
        // instructions, 1-16 sets and a capacity that is not always a
        // multiple of them, and prefetch runs of 1-256 instructions.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut straddles = 0;
        for case in 0..400 {
            let streams = random_streams(&mut x);
            let assoc = 1 + below(&mut x, 8);
            let line_bytes = 16 << below(&mut x, 4);
            let instr_bytes = [8, 16][below(&mut x, 2)];
            let capacity = line_bytes * (assoc * (1 + below(&mut x, 16)) + below(&mut x, assoc));
            let group = match case % 4 {
                0 => 1,
                1 => 256,
                _ => 1 + below(&mut x, 256),
            };
            let (want, s) =
                reference_profile(&streams, instr_bytes, capacity, line_bytes, assoc, group);
            straddles += s;
            let mut slices: Vec<&[u32]> = streams.iter().map(Vec::as_slice).collect();
            let got = interleaved_fetch_profile(
                &mut slices, instr_bytes, capacity, line_bytes, assoc, group,
            );
            assert_eq!(
                got, want,
                "case {case}: assoc {assoc}, {line_bytes} B lines, {instr_bytes} B instrs, \
                 {capacity} B, group {group}"
            );
        }
        // The corpus does reach a same-line fetch across a rotation.
        assert!(straddles > 1000, "{straddles} straddling fetches");
    }

    #[test]
    fn a_same_line_fetch_after_a_rotation_is_a_hit() {
        // Two warps in one 64-byte line (8-byte instructions), a rotation
        // every 3: warp 1's first fetch follows warp 0's into the same
        // line, and the second pass over warp 0's line, after warp 1
        // touched another line, is looked up again and hits.
        let streams = [vec![0, 1, 2, 3, 4, 5], vec![6, 7, 8, 9]];
        let mut slices: Vec<&[u32]> = streams.iter().map(Vec::as_slice).collect();
        let got = interleaved_fetch_profile(&mut slices, 8, 128, 64, 1, 3);
        // Lines: 0 0 0 | 0 0 1 | 0 0 0 | 1. The cache is direct-mapped
        // with two sets, so line 1 (set 1) leaves line 0 (set 0) resident.
        assert_eq!(got, FetchProfile { fetches: 10, misses: 2, per_warp_misses: vec![1, 1] });
        assert_eq!(reference_profile(&streams, 8, 128, 64, 1, 3).0, got);
    }

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
