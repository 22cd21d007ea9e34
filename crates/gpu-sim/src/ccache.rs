//! Constant-cache model: a small fully-associative LRU cache over constant
//! memory, 8 KB on both Fermi and Kepler (paper §3.2: "GPUs only have 8 KB
//! of on-chip constant cache" — the DME and heptane viscosity constants at
//! 13.9 / 42.4 KB cannot fit, which is a core motivation for the
//! register-resident constant scheme of §5.2).

/// Fully-associative LRU constant cache with 64-byte lines.
#[derive(Debug, Clone)]
pub struct ConstCache {
    line_bytes: usize,
    lines: usize,
    /// Resident line tags in LRU order (front = most recent).
    resident: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl ConstCache {
    /// Build a cache of `capacity_bytes` with 64-byte lines.
    pub fn new(capacity_bytes: usize) -> ConstCache {
        let line_bytes = 64;
        ConstCache {
            line_bytes,
            lines: capacity_bytes / line_bytes,
            resident: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Access a byte address in constant space; returns true on hit.
    pub fn access(&mut self, byte_addr: u64) -> bool {
        let tag = byte_addr / self.line_bytes as u64;
        if let Some(pos) = self.resident.iter().position(|&t| t == tag) {
            self.resident.remove(pos);
            self.resident.insert(0, tag);
            self.hits += 1;
            true
        } else {
            self.resident.insert(0, tag);
            if self.resident.len() > self.lines {
                self.resident.pop();
            }
            self.misses += 1;
            false
        }
    }

    /// Replay a pre-resolved line-tag script (one entry per cache access,
    /// in access order) in a single pass. Used by the segment engine,
    /// which hoists the per-access LRU walk out of its inner loop by
    /// recording each segment's line sequence at lowering time; hit/miss
    /// totals and the final LRU state are identical to issuing the same
    /// accesses one at a time through [`ConstCache::access`]. Returns the
    /// misses the script took.
    pub fn access_script(&mut self, line_tags: &[u64]) -> u64 {
        let before = self.misses;
        for &tag in line_tags {
            self.access(tag * self.line_bytes as u64);
        }
        self.misses - before
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = ConstCache::new(8192);
        // 4 KB working set: first pass misses, second pass hits.
        for pass in 0..2 {
            for addr in (0..4096u64).step_by(8) {
                let hit = c.access(addr);
                if pass == 1 {
                    assert!(hit, "addr {addr} should hit on pass 2");
                }
            }
        }
        assert_eq!(c.misses(), 64); // 4096/64 lines
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes() {
        let mut c = ConstCache::new(8192);
        // 16 KB streamed repeatedly with LRU => every access misses.
        for _ in 0..3 {
            for addr in (0..16384u64).step_by(64) {
                c.access(addr);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 3 * 256);
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = ConstCache::new(128); // 2 lines
        c.access(0); // line A
        c.access(64); // line B
        c.access(0); // A hot again
        c.access(128); // line C evicts B
        assert!(c.access(0), "A should still be resident");
        assert!(!c.access(64), "B was evicted");
    }
}
