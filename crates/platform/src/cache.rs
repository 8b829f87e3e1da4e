//! Timing-only set-associative cache model.
//!
//! Section II argues for distributed memory with *"L1 and L2 cache / local
//! memory bound to cores"*. The platform gives every core a private L1 over
//! the shared-memory region. The cache is a **timing model only**: data is
//! always functionally read from and written to the backing RAM
//! (write-through), so the model never introduces incoherence into the
//! functional state — it only decides whether an access pays the local hit
//! latency or the full interconnect + memory round trip.
//!
//! This separation keeps the simulator deterministic and lets the Section VII
//! debugger inspect one authoritative memory image, while still exposing the
//! performance cliffs (cold misses, capacity misses, sharing misses) that the
//! paper's scheduling arguments rely on.

/// Outcome of a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present: the access pays only the hit latency.
    Hit,
    /// The line was absent and has been filled: full miss penalty.
    Miss,
}

/// A set-associative, LRU, write-through, write-allocate cache tag store.
///
/// Addresses are word addresses; a line holds `line_words` consecutive words.
///
/// # Examples
///
/// ```
/// use mpsoc_platform::cache::{Cache, CacheOutcome};
/// let mut c = Cache::new(4, 2, 4); // 4 sets, 2-way, 4-word lines
/// assert_eq!(c.access(0x100), CacheOutcome::Miss);
/// assert_eq!(c.access(0x101), CacheOutcome::Hit); // same line
/// ```
#[derive(Debug)]
pub struct Cache {
    /// `(tag, last-use tick)` per way, `None` = invalid way; set-major: set
    /// `s` owns `ways[s * assoc..(s + 1) * assoc]`. One buffer, so a restore
    /// decodes over it instead of building a vector per set.
    ways: Vec<Option<(u32, u64)>>,
    /// Power of two, non-zero.
    num_sets: u32,
    /// Non-zero.
    assoc: usize,
    line_words: u32,
    hits: u64,
    misses: u64,
    tick: u64,
}

impl Cache {
    /// Creates a cache with `num_sets` sets of `assoc` ways, each line
    /// covering `line_words` words.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or `num_sets`/`line_words` is not a
    /// power of two (required for bit-sliced indexing).
    pub fn new(num_sets: u32, assoc: u32, line_words: u32) -> Self {
        assert!(
            num_sets > 0 && assoc > 0 && line_words > 0,
            "cache dims must be non-zero"
        );
        assert!(
            num_sets.is_power_of_two(),
            "num_sets must be a power of two"
        );
        assert!(
            line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        Cache {
            ways: vec![None; num_sets as usize * assoc as usize],
            num_sets,
            assoc: assoc as usize,
            line_words,
            hits: 0,
            misses: 0,
            tick: 0,
        }
    }

    /// Looks up (and on miss, fills) the line containing word address `addr`.
    pub fn access(&mut self, addr: u32) -> CacheOutcome {
        self.tick += 1;
        let line = addr / self.line_words;
        let set_idx = (line & (self.num_sets - 1)) as usize;
        let tag = line / self.num_sets;
        let set = &mut self.ways[set_idx * self.assoc..][..self.assoc];

        // Hit?
        for (t, used) in set.iter_mut().flatten() {
            if *t == tag {
                *used = self.tick;
                self.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        // Miss: fill LRU (preferring an invalid way; the first of equals).
        self.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.map_or(0, |(_, used)| used + 1));
        if let Some(way) = victim {
            *way = Some((tag, self.tick));
        }
        CacheOutcome::Miss
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over the cache's lifetime (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Clone for Cache {
    fn clone(&self) -> Self {
        let mut c = Cache::new(1, 1, 1);
        c.clone_from(self);
        c
    }
    fn clone_from(&mut self, src: &Self) {
        let Cache {
            ways,
            num_sets,
            assoc,
            line_words,
            hits,
            misses,
            tick,
        } = src;
        self.ways.clone_from(ways);
        self.num_sets = *num_sets;
        self.assoc = *assoc;
        self.line_words = *line_words;
        self.hits = *hits;
        self.misses = *misses;
        self.tick = *tick;
    }
}

impl mpsoc_snapshot::Snapshot for Cache {
    // The wire form is a vector of sets, each a vector of ways (what the
    // store was before it went flat). The LRU `tick` and per-way use stamps
    // are serialized too: replacement decisions after restore must match an
    // uncheckpointed run exactly.
    fn save(&self, w: &mut mpsoc_snapshot::Writer) {
        w.put_u64(u64::from(self.num_sets));
        for set in self.ways.chunks_exact(self.assoc) {
            w.put_usize(set.len());
            for way in set {
                way.save(w);
            }
        }
        w.put_u32(self.line_words);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        w.put_u64(self.tick);
    }
    fn load(r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<Self> {
        let mut c = Cache::new(1, 1, 1);
        c.load_into(r)?;
        Ok(c)
    }
    fn load_into(&mut self, r: &mut mpsoc_snapshot::Reader<'_>) -> mpsoc_snapshot::SnapResult<()> {
        use mpsoc_snapshot::SnapError::Malformed;
        // A set is at least its own way count and one way.
        let sets = r.get_len(9)?;
        self.num_sets = match u32::try_from(sets) {
            Ok(n) if n.is_power_of_two() => n,
            _ => {
                return Err(Malformed(format!(
                    "cache set count {sets} is not a non-zero power of two that fits 32 bits"
                )))
            }
        };
        // `access` slices `assoc` ways per set and fills one of them: zero
        // ways, or sets of different widths, would have it index out of
        // bounds. Bounded by the bytes left, so the resize cannot be talked
        // up either.
        let assoc = r.get_len(1)?;
        if assoc == 0 || sets.checked_mul(assoc).is_none_or(|n| n > r.remaining()) {
            return Err(Malformed(format!(
                "cache associativity {assoc} is zero or exceeds the image ({sets} sets)"
            )));
        }
        self.assoc = assoc;
        self.ways.resize(sets * assoc, None);
        for (i, set) in self.ways.chunks_exact_mut(assoc).enumerate() {
            if i > 0 {
                let ways = r.get_usize()?;
                if ways != assoc {
                    return Err(Malformed(format!(
                        "cache set {i} has {ways} ways, set 0 has {assoc}"
                    )));
                }
            }
            for way in set {
                way.load_into(r)?;
            }
        }
        self.line_words = r.get_u32()?;
        if self.line_words == 0 || !self.line_words.is_power_of_two() {
            return Err(Malformed(format!(
                "cache line_words {} is not a non-zero power of two",
                self.line_words
            )));
        }
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        self.tick = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_line_hits_after_fill() {
        let mut c = Cache::new(8, 2, 4);
        assert_eq!(c.access(100), CacheOutcome::Miss);
        assert_eq!(c.access(101), CacheOutcome::Hit);
        assert_eq!(c.access(103), CacheOutcome::Hit);
        assert_eq!(c.access(104), CacheOutcome::Miss); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways, 1-word lines: three distinct addresses thrash.
        let mut c = Cache::new(1, 2, 1);
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(1), CacheOutcome::Miss);
        assert_eq!(c.access(0), CacheOutcome::Hit); // 1 is now LRU
        assert_eq!(c.access(2), CacheOutcome::Miss); // evicts 1
        assert_eq!(c.access(1), CacheOutcome::Miss); // 1 was evicted; evicts 0 (LRU)
        assert_eq!(c.access(2), CacheOutcome::Hit); // 2 survived (MRU before 1's fill)
    }

    #[test]
    fn stats_accumulate() {
        let mut c = Cache::new(4, 1, 1);
        c.access(0);
        c.access(0);
        c.access(1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Total capacity in words.
    fn capacity_words(c: &Cache) -> u32 {
        c.ways.len() as u32 * c.line_words
    }

    #[test]
    fn capacity_words_computed() {
        assert_eq!(capacity_words(&Cache::new(8, 2, 4)), 64);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(2, 1, 1);
        assert_eq!(c.access(0), CacheOutcome::Miss); // set 0
        assert_eq!(c.access(1), CacheOutcome::Miss); // set 1
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(1), CacheOutcome::Hit);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = Cache::new(3, 1, 1);
    }

    /// The tag store as it was before it went flat — one `Vec` of ways per
    /// set, serialized as a vector of vectors — kept as the reference the
    /// flat store is compared against.
    struct NestedCache {
        sets: Vec<Vec<Option<(u32, u64)>>>,
        line_words: u32,
        hits: u64,
        misses: u64,
        tick: u64,
    }

    impl NestedCache {
        fn new(num_sets: u32, assoc: u32, line_words: u32) -> Self {
            NestedCache {
                sets: vec![vec![None; assoc as usize]; num_sets as usize],
                line_words,
                hits: 0,
                misses: 0,
                tick: 0,
            }
        }

        fn access(&mut self, addr: u32) -> CacheOutcome {
            self.tick += 1;
            let line = addr / self.line_words;
            let set_idx = (line as usize) & (self.sets.len() - 1);
            let tag = line / self.sets.len() as u32;
            let set = &mut self.sets[set_idx];
            for (t, used) in set.iter_mut().flatten() {
                if *t == tag {
                    *used = self.tick;
                    self.hits += 1;
                    return CacheOutcome::Hit;
                }
            }
            self.misses += 1;
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.map_or(0, |(_, used)| used + 1))
                .map(|(i, _)| i)
                .expect("cache has at least one way");
            set[victim] = Some((tag, self.tick));
            CacheOutcome::Miss
        }

        fn save(&self, w: &mut mpsoc_snapshot::Writer) {
            use mpsoc_snapshot::Snapshot as _;
            self.sets.save(w);
            w.put_u32(self.line_words);
            w.put_u64(self.hits);
            w.put_u64(self.misses);
            w.put_u64(self.tick);
        }
    }

    #[test]
    fn flat_store_matches_the_nested_reference() {
        use mpsoc_snapshot::{Reader, Snapshot as _, Writer};
        let mut rng = mpsoc_obs::XorShift64Star::new(0xCAC4E);
        let mut recycled = Cache::new(1, 1, 1);
        for round in 0..200 {
            let num_sets = 1u32 << rng.u64_in(0, 6);
            let assoc = rng.u64_in(1, 8) as u32;
            let line_words = 1u32 << rng.u64_in(0, 3);
            let mut flat = Cache::new(num_sets, assoc, line_words);
            let mut nested = NestedCache::new(num_sets, assoc, line_words);
            assert_eq!(capacity_words(&flat), num_sets * assoc * line_words);
            // Addresses over a few times the capacity, so sets fill, evict
            // and re-hit.
            let span = u64::from(capacity_words(&flat)) * 3;
            for _ in 0..rng.usize_in(0, 600) {
                let addr = rng.u64_in(0, span) as u32;
                assert_eq!(flat.access(addr), nested.access(addr), "round {round}");
            }
            assert_eq!((flat.hits(), flat.misses()), (nested.hits, nested.misses));
            let (mut a, mut b) = (Writer::new(), Writer::new());
            flat.save(&mut a);
            nested.save(&mut b);
            let bytes = a.into_bytes();
            assert_eq!(bytes, b.into_bytes(), "round {round}: wire bytes differ");
            // Fresh, and over whatever the previous round left behind.
            let fresh = Cache::load(&mut Reader::new(&bytes)).unwrap();
            recycled.load_into(&mut Reader::new(&bytes)).unwrap();
            for c in [&fresh, &recycled] {
                let mut w = Writer::new();
                c.save(&mut w);
                assert_eq!(w.into_bytes(), bytes, "round {round}: round trip");
            }
        }
    }

    #[test]
    fn ragged_empty_and_oversized_way_tables_are_malformed() {
        use mpsoc_snapshot::{Reader, Snapshot as _, Writer};
        // (ways per set) as the nested wire form, then the trailer.
        let encode = |sets: &[usize]| {
            let mut w = Writer::new();
            w.put_usize(sets.len());
            for &ways in sets {
                vec![None::<(u32, u64)>; ways].save(&mut w);
            }
            w.put_u32(4);
            for _ in 0..3 {
                w.put_u64(0);
            }
            w.into_bytes()
        };
        assert!(Cache::load(&mut Reader::new(&encode(&[2, 2]))).is_ok());
        for (sets, needle) in [
            (&[0usize, 0][..], "associativity 0"),
            (&[2, 1], "set 1 has 1 ways"),
            (&[1, 2], "set 1 has 2 ways"),
            (&[2, 2, 2], "set count 3"),
        ] {
            let err = Cache::load(&mut Reader::new(&encode(sets))).unwrap_err();
            assert!(err.to_string().contains(needle), "{sets:?}: {err}");
        }
        // A way count the remaining bytes cannot hold is refused before
        // anything is reserved for it.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        assert!(Cache::load(&mut Reader::new(&bytes)).is_err());
    }
}
