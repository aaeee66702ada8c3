//! Page-granularity caching with per-word dirty masks.
//!
//! The real BACKER cached *pages*, not single words — fetching a page
//! pulls in its neighbours (spatial locality) and two processors writing
//! different words of one page share it falsely. Write-backs use per-word
//! dirty masks (only words this processor wrote are stored), the
//! diff-style trick that keeps false sharing from losing writes: BACKER
//! tolerates concurrent dirty copies of a page as long as their dirty
//! word sets are disjoint — which is exactly the race-free case.
//!
//! [`PagedCache`] implements the same [`CacheOps`] protocol surface as the
//! word-granular [`crate::cache::Cache`], so the simulator runs over
//! either; experiment E10's page-size sweep shows the fetch-traffic /
//! false-sharing trade-off the Cilk papers measured.

use crate::cache::CacheOps;
use crate::memory::{MainMemory, Token};
use crate::stats::Stats;
use ccmm_core::Location;

/// Per-word state inside a cached page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Word {
    /// Not present (page was write-allocated without a fetch).
    Absent,
    /// Present and matching what we fetched.
    Clean(Token),
    /// Written locally, not yet reconciled.
    Dirty(Token),
}

#[derive(Clone, Debug)]
struct Page {
    words: Vec<Word>,
    stamp: u64,
}

impl Page {
    fn has_dirty(&self) -> bool {
        self.words.iter().any(|w| matches!(w, Word::Dirty(_)))
    }
}

/// A processor cache holding whole pages of `page_size` consecutive
/// locations, with capacity counted in pages.
#[derive(Debug)]
pub struct PagedCache {
    pages: Vec<Option<Page>>,
    page_size: usize,
    capacity_pages: usize,
    occupancy: usize,
    clock: u64,
}

impl PagedCache {
    /// An empty cache over `num_locations` locations grouped into pages of
    /// `page_size` words, holding at most `capacity_pages` pages.
    pub fn new(num_locations: usize, page_size: usize, capacity_pages: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        assert!(capacity_pages > 0, "capacity must be positive");
        let npages = num_locations.div_ceil(page_size).max(1);
        PagedCache { pages: vec![None; npages], page_size, capacity_pages, occupancy: 0, clock: 0 }
    }

    fn page_of(&self, l: Location) -> usize {
        l.index() / self.page_size
    }

    fn word_of(&self, l: Location) -> usize {
        l.index() % self.page_size
    }

    /// Number of resident pages.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn write_back(
        page_idx: usize,
        page: &mut Page,
        page_size: usize,
        mem: &mut MainMemory,
        stats: &mut Stats,
    ) {
        for (w, word) in page.words.iter_mut().enumerate() {
            if let Word::Dirty(t) = *word {
                let loc = Location::new(page_idx * page_size + w);
                if loc.index() < mem.len() {
                    mem.store(loc, t);
                }
                *word = Word::Clean(t);
                stats.reconciles += 1;
            }
        }
    }

    fn evict_lru(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        let victim = self
            .pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|pg| (i, pg.stamp)))
            .min_by_key(|&(_, s)| s)
            .map(|(i, _)| i)
            .expect("evict on empty cache");
        let mut page = self.pages[victim].take().expect("victim resident");
        self.occupancy -= 1;
        stats.evictions += 1;
        if page.has_dirty() {
            Self::write_back(victim, &mut page, self.page_size, mem, stats);
        }
    }

    fn install_fetched(&mut self, pi: usize, mem: &MainMemory) -> &mut Page {
        let words = (0..self.page_size)
            .map(|w| {
                let loc = pi * self.page_size + w;
                if loc < mem.len() {
                    Word::Clean(mem.load(Location::new(loc)))
                } else {
                    Word::Absent
                }
            })
            .collect();
        self.clock += 1;
        self.occupancy += 1;
        self.pages[pi] = Some(Page { words, stamp: self.clock });
        self.pages[pi].as_mut().expect("just installed")
    }
}

impl CacheOps for PagedCache {
    fn read(&mut self, l: Location, mem: &mut MainMemory, stats: &mut Stats) -> Token {
        let pi = self.page_of(l);
        let wi = self.word_of(l);
        self.clock += 1;
        let clock = self.clock;
        if let Some(page) = &mut self.pages[pi] {
            page.stamp = clock;
            match page.words[wi] {
                Word::Clean(t) | Word::Dirty(t) => {
                    stats.hits += 1;
                    return t;
                }
                Word::Absent => {
                    // Present page but absent word (write-allocated): fill
                    // this word from memory. One word, one fetch.
                    let t = mem.load(l);
                    page.words[wi] = Word::Clean(t);
                    stats.misses += 1;
                    stats.fetches += 1;
                    return t;
                }
            }
        }
        stats.misses += 1;
        stats.fetches += 1; // one fetch transfers the whole page
        while self.occupancy >= self.capacity_pages {
            self.evict_lru(mem, stats);
        }
        let page = self.install_fetched(pi, mem);
        match page.words[wi] {
            Word::Clean(t) => t,
            _ => unreachable!("fetched word is clean"),
        }
    }

    fn write(&mut self, l: Location, t: Token, mem: &mut MainMemory, stats: &mut Stats) {
        let pi = self.page_of(l);
        let wi = self.word_of(l);
        self.clock += 1;
        let clock = self.clock;
        if let Some(page) = &mut self.pages[pi] {
            page.stamp = clock;
            page.words[wi] = Word::Dirty(t);
        } else {
            while self.occupancy >= self.capacity_pages {
                self.evict_lru(mem, stats);
            }
            // Write-allocate without fetching: other words stay Absent.
            let mut words = vec![Word::Absent; self.page_size];
            words[wi] = Word::Dirty(t);
            self.occupancy += 1;
            self.pages[pi] = Some(Page { words, stamp: clock });
        }
        stats.writes += 1;
    }

    fn reconcile_all(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        let page_size = self.page_size;
        for (pi, slot) in self.pages.iter_mut().enumerate() {
            if let Some(page) = slot {
                if page.has_dirty() {
                    Self::write_back(pi, page, page_size, mem, stats);
                }
            }
        }
    }

    fn flush_all(&mut self, mem: &mut MainMemory, stats: &mut Stats) {
        self.reconcile_all(mem, stats);
        for slot in &mut self.pages {
            *slot = None;
        }
        self.occupancy = 0;
        stats.flushes += 1;
    }

    fn peek(&self, l: Location) -> Option<Token> {
        let page = self.pages[self.page_of(l)].as_ref()?;
        match page.words[self.word_of(l)] {
            Word::Clean(t) | Word::Dirty(t) => Some(t),
            Word::Absent => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn fetch_brings_whole_page() {
        let mut mem = MainMemory::new(8);
        mem.store(l(0), 10);
        mem.store(l(1), 11);
        let mut c = PagedCache::new(8, 4, 2);
        let mut s = Stats::default();
        assert_eq!(c.read(l(0), &mut mem, &mut s), 10);
        assert_eq!(s.fetches, 1);
        // Neighbour in the same page: hit, no new fetch.
        assert_eq!(c.read(l(1), &mut mem, &mut s), 11);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.hits, 1);
        // Different page: new fetch.
        let _ = c.read(l(4), &mut mem, &mut s);
        assert_eq!(s.fetches, 2);
    }

    #[test]
    fn write_allocate_does_not_fetch() {
        let mut mem = MainMemory::new(4);
        mem.store(l(1), 99);
        let mut c = PagedCache::new(4, 4, 1);
        let mut s = Stats::default();
        c.write(l(0), 5, &mut mem, &mut s);
        assert_eq!(s.fetches, 0);
        assert_eq!(c.peek(l(0)), Some(5));
        // The page-mate is absent, not a stale garbage value.
        assert_eq!(c.peek(l(1)), None);
        // Reading it fills just that word.
        assert_eq!(c.read(l(1), &mut mem, &mut s), 99);
    }

    #[test]
    fn reconcile_writes_only_dirty_words() {
        let mut mem = MainMemory::new(4);
        mem.store(l(1), 42);
        let mut c = PagedCache::new(4, 4, 1);
        let mut s = Stats::default();
        let _ = c.read(l(1), &mut mem, &mut s); // page now cached clean
        c.write(l(0), 7, &mut mem, &mut s);
        // Someone else updates word 1 in memory.
        mem.store(l(1), 43);
        c.reconcile_all(&mut mem, &mut s);
        assert_eq!(mem.load(l(0)), 7, "dirty word written");
        assert_eq!(mem.load(l(1)), 43, "clean word NOT overwritten — no false-sharing clobber");
    }

    #[test]
    fn disjoint_dirty_words_merge_across_caches() {
        // Two caches write different words of one page; both reconcile;
        // both writes survive.
        let mut mem = MainMemory::new(4);
        let mut a = PagedCache::new(4, 4, 1);
        let mut b = PagedCache::new(4, 4, 1);
        let mut s = Stats::default();
        a.write(l(0), 1, &mut mem, &mut s);
        b.write(l(1), 2, &mut mem, &mut s);
        a.reconcile_all(&mut mem, &mut s);
        b.reconcile_all(&mut mem, &mut s);
        assert_eq!(mem.load(l(0)), 1);
        assert_eq!(mem.load(l(1)), 2);
    }

    #[test]
    fn eviction_prefers_lru_page() {
        let mut mem = MainMemory::new(8);
        let mut c = PagedCache::new(8, 2, 2);
        let mut s = Stats::default();
        let _ = c.read(l(0), &mut mem, &mut s); // page 0
        let _ = c.read(l(2), &mut mem, &mut s); // page 1
        let _ = c.read(l(0), &mut mem, &mut s); // touch page 0
        let _ = c.read(l(4), &mut mem, &mut s); // page 2 evicts page 1
        assert!(c.peek(l(0)).is_some());
        assert!(c.peek(l(2)).is_none());
        assert!(c.peek(l(4)).is_some());
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn flush_drops_everything_after_writeback() {
        let mut mem = MainMemory::new(4);
        let mut c = PagedCache::new(4, 2, 2);
        let mut s = Stats::default();
        c.write(l(3), 9, &mut mem, &mut s);
        c.flush_all(&mut mem, &mut s);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(mem.load(l(3)), 9);
        assert_eq!(c.peek(l(3)), None);
    }

    #[test]
    fn page_size_one_behaves_like_word_cache() {
        use crate::cache::Cache;
        let mut mem1 = MainMemory::new(4);
        let mut mem2 = MainMemory::new(4);
        let mut paged = PagedCache::new(4, 1, 2);
        let mut word = Cache::new(2);
        let mut s1 = Stats::default();
        let mut s2 = Stats::default();
        let script: Vec<(bool, usize, Token)> =
            vec![(true, 0, 5), (false, 0, 0), (true, 1, 6), (false, 2, 0), (false, 1, 0)];
        for (is_write, loc, t) in script {
            if is_write {
                paged.write(l(loc), t, &mut mem1, &mut s1);
                word.write(l(loc), t, &mut mem2, &mut s2);
            } else {
                let a = paged.read(l(loc), &mut mem1, &mut s1);
                let b = word.read(l(loc), &mut mem2, &mut s2);
                assert_eq!(a, b, "loc {loc}");
            }
        }
        assert_eq!(s1.fetches, s2.fetches);
        assert_eq!(s1.hits, s2.hits);
    }
}
