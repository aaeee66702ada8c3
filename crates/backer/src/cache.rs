//! A per-processor word cache with dirty bits and LRU eviction.
//!
//! BACKER's three primitive operations on a cached location
//! (\[BFJ+96a\]): *fetch* (copy main memory → cache), *reconcile* (copy a
//! dirty cache line → main memory and mark it clean), and *flush*
//! (reconcile if dirty, then drop the line). Eviction under capacity
//! pressure is a flush of the least-recently-used line.
//!
//! [`Cache`] stores only its resident lines, so a whole-cache reconcile
//! or flush costs O(occupancy), not O(number of locations): the same
//! cache serves the small replays of [`crate::sim`] and the
//! million-node streams of [`crate::stream`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::memory::{MainMemory, Token};
use crate::stats::Stats;
use ccmm_core::Location;

/// The protocol surface shared by word-granular ([`Cache`]) and
/// page-granular ([`crate::paged::PagedCache`]) caches; the protocol
/// step ([`crate::protocol::step`]) is generic over it.
pub trait CacheOps {
    /// A processor read: hit, or fetch from main memory.
    fn read(&mut self, l: Location, mem: &mut MainMemory, stats: &mut Stats) -> Token;
    /// A processor write: install the token dirty.
    fn write(&mut self, l: Location, t: Token, mem: &mut MainMemory, stats: &mut Stats);
    /// Write back every dirty word, marking it clean.
    fn reconcile_all(&mut self, mem: &mut MainMemory, stats: &mut Stats);
    /// Reconcile, then drop everything.
    fn flush_all(&mut self, mem: &mut MainMemory, stats: &mut Stats);
    /// Non-perturbing lookup (no LRU update, no fetch).
    fn peek(&self, l: Location) -> Option<Token>;
}

/// Hashes a location index with one multiply by an odd constant: the
/// keys are small integers, so nothing needs SipHash's resistance to
/// chosen keys, and the product spreads consecutive indices over both
/// the low (bucket) and high (tag) bits.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Only `write_usize` is reached for `usize` keys; other input is
    /// folded byte by byte so the hasher stays total.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    value: Token,
    dirty: bool,
    /// LRU clock stamp of the most recent touch.
    stamp: u64,
}

/// A processor-local cache holding at most `capacity` lines.
#[derive(Debug)]
pub struct Cache {
    lines: HashMap<usize, Line, BuildHasherDefault<IndexHasher>>,
    capacity: usize,
    clock: u64,
}

impl Cache {
    /// An empty cache holding at most `capacity` lines.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Cache { lines: HashMap::default(), capacity, clock: 0 }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Evicts the least-recently-used line (reconciling it if dirty).
    fn evict_lru(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        let victim = self
            .lines
            .iter()
            .min_by_key(|&(_, line)| line.stamp)
            .map(|(&i, _)| i)
            .expect("evict called on empty cache");
        let line = self.lines.remove(&victim).expect("victim resident");
        stats.evictions += 1;
        if line.dirty {
            mem.store(Location::new(victim), line.value);
            stats.reconciles += 1;
        }
    }

    fn make_room(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        while self.lines.len() >= self.capacity {
            self.evict_lru(mem, stats);
        }
    }
}

impl CacheOps for Cache {
    fn read(&mut self, l: Location, mem: &mut MainMemory, stats: &mut Stats) -> Token {
        self.clock += 1;
        let clock = self.clock;
        if let Some(line) = self.lines.get_mut(&l.index()) {
            stats.hits += 1;
            line.stamp = clock;
            return line.value;
        }
        stats.misses += 1;
        stats.fetches += 1;
        self.make_room(mem, stats);
        let value = mem.load(l);
        self.lines.insert(l.index(), Line { value, dirty: false, stamp: clock });
        value
    }

    /// Write-allocate: no fetch, as a whole line is a single value.
    fn write(&mut self, l: Location, t: Token, mem: &mut MainMemory, stats: &mut Stats) {
        if !self.lines.contains_key(&l.index()) {
            self.make_room(mem, stats);
        }
        self.clock += 1;
        self.lines.insert(l.index(), Line { value: t, dirty: true, stamp: self.clock });
        stats.writes += 1;
    }

    fn reconcile_all(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        for (&i, line) in self.lines.iter_mut().filter(|(_, line)| line.dirty) {
            mem.store(Location::new(i), line.value);
            line.dirty = false;
            stats.reconciles += 1;
        }
    }

    fn flush_all(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        self.reconcile_all(mem, stats);
        self.lines.clear();
        stats.flushes += 1;
    }

    fn peek(&self, l: Location) -> Option<Token> {
        self.lines.get(&l.index()).map(|line| line.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn read_miss_fetches_then_hits() {
        let mut mem = MainMemory::new(2);
        mem.store(l(0), 7);
        let mut c = Cache::new(2);
        let mut s = Stats::default();
        assert_eq!(c.read(l(0), &mut mem, &mut s), 7);
        assert_eq!(s.misses, 1);
        assert_eq!(c.read(l(0), &mut mem, &mut s), 7);
        assert_eq!(s.hits, 1);
        assert_eq!(s.fetches, 1);
    }

    #[test]
    fn write_is_dirty_until_reconcile() {
        let mut mem = MainMemory::new(1);
        let mut c = Cache::new(1);
        let mut s = Stats::default();
        c.write(l(0), 5, &mut mem, &mut s);
        assert_eq!(mem.load(l(0)), 0, "write not visible before reconcile");
        c.reconcile_all(&mut mem, &mut s);
        assert_eq!(mem.load(l(0)), 5);
        assert_eq!(s.reconciles, 1);
        // Reconciling again writes nothing (clean).
        c.reconcile_all(&mut mem, &mut s);
        assert_eq!(s.reconciles, 1);
    }

    #[test]
    fn flush_drops_lines() {
        let mut mem = MainMemory::new(2);
        let mut c = Cache::new(2);
        let mut s = Stats::default();
        c.write(l(0), 3, &mut mem, &mut s);
        c.flush_all(&mut mem, &mut s);
        assert_eq!(c.peek(l(0)), None);
        assert_eq!(mem.load(l(0)), 3, "flush reconciles dirty data");
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn lru_eviction_reconciles_dirty_victim() {
        let mut mem = MainMemory::new(3);
        let mut c = Cache::new(2);
        let mut s = Stats::default();
        c.write(l(0), 1, &mut mem, &mut s);
        c.write(l(1), 2, &mut mem, &mut s);
        // Touch l0 so l1 is LRU.
        c.read(l(0), &mut mem, &mut s);
        c.write(l(2), 3, &mut mem, &mut s); // evicts l1
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.peek(l(0)), Some(1));
        assert_eq!(c.peek(l(1)), None);
        assert_eq!(c.peek(l(2)), Some(3));
        assert_eq!(mem.load(l(1)), 2, "dirty victim written back");
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn stale_cached_value_survives_memory_update() {
        // The heart of relaxed behaviour: a clean cached copy does not see
        // later main-memory updates until flushed.
        let mut mem = MainMemory::new(1);
        let mut c = Cache::new(1);
        let mut s = Stats::default();
        assert_eq!(c.read(l(0), &mut mem, &mut s), 0);
        mem.store(l(0), 9); // another processor reconciled
        assert_eq!(c.read(l(0), &mut mem, &mut s), 0, "stale but legal");
        c.flush_all(&mut mem, &mut s);
        assert_eq!(c.read(l(0), &mut mem, &mut s), 9);
    }

    #[test]
    fn peek_does_not_perturb() {
        let mut mem = MainMemory::new(2);
        let mut c = Cache::new(1);
        let mut s = Stats::default();
        c.write(l(0), 4, &mut mem, &mut s);
        assert_eq!(c.peek(l(0)), Some(4));
        assert_eq!(c.peek(l(1)), None);
        let (hits, misses) = (s.hits, s.misses);
        let _ = c.peek(l(1));
        assert_eq!((s.hits, s.misses), (hits, misses));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Cache::new(0);
    }
}
