//! Memory map and storage: shared RAM, per-core local stores.
//!
//! The platform address space is word-addressed (each address names one
//! 64-bit [`Word`]) and split into three windows:
//!
//! | Window | Base | Contents |
//! |---|---|---|
//! | shared | `0x0000_0000` | shared RAM, reachable by every initiator over the interconnect |
//! | local  | `0x1000_0000 + core * 0x1_0000` | the private local store (scratchpad) of one core |
//! | periph | `0xF000_0000 + page * 0x100` | memory-mapped peripheral registers |
//!
//! A core reaches its own local store at local-store latency and another
//! core's over the interconnect, like shared RAM.

use crate::error::{Error, Result};
use crate::isa::Word;

/// Base word address of the local-store window.
pub(crate) const LOCAL_BASE: u32 = 0x1000_0000;
/// Word-address stride between consecutive cores' local stores.
pub(crate) const LOCAL_STRIDE: u32 = 0x1_0000;
/// Base word address of the peripheral window.
pub(crate) const PERIPH_BASE: u32 = 0xF000_0000;
/// Words of register space per peripheral page.
pub(crate) const PERIPH_PAGE: u32 = 0x100;

/// Classification of a word address by the platform memory map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// Offset into shared RAM.
    Shared(u32),
    /// Offset into a specific core's local store.
    Local {
        /// Core that owns the store.
        owner: usize,
        /// Word offset within the store.
        offset: u32,
    },
    /// Register within a peripheral page.
    Periph {
        /// Peripheral page index.
        page: usize,
        /// Register offset within the page.
        offset: u32,
    },
}

/// Decodes a word address into its [`Region`].
///
/// # Errors
///
/// Returns [`Error::UnmappedAddress`] for addresses in none of the windows.
pub fn decode(addr: u32, shared_words: u32, num_cores: usize) -> Result<Region> {
    if addr < shared_words {
        return Ok(Region::Shared(addr));
    }
    if (LOCAL_BASE..PERIPH_BASE).contains(&addr) {
        let rel = addr - LOCAL_BASE;
        let owner = (rel / LOCAL_STRIDE) as usize;
        let offset = rel % LOCAL_STRIDE;
        if owner < num_cores {
            return Ok(Region::Local { owner, offset });
        }
        return Err(Error::UnmappedAddress { addr });
    }
    if addr >= PERIPH_BASE {
        let rel = addr - PERIPH_BASE;
        return Ok(Region::Periph {
            page: (rel / PERIPH_PAGE) as usize,
            offset: rel % PERIPH_PAGE,
        });
    }
    Err(Error::UnmappedAddress { addr })
}

/// The word address of `offset` within core `core`'s local store.
pub fn local_addr(core: usize, offset: u32) -> u32 {
    LOCAL_BASE + core as u32 * LOCAL_STRIDE + offset
}

/// The word address of register `offset` within peripheral page `page`.
pub fn periph_addr(page: usize, offset: u32) -> u32 {
    PERIPH_BASE + page as u32 * PERIPH_PAGE + offset
}

/// Words per dirty-tracking page (see [`Ram`]). 64 words = 512 bytes per
/// page: small enough that a sparse-write workload dirties only a few
/// hundred bytes per checkpoint interval, large enough that the bitmap
/// stays one `u64` per 4096 words and page iteration is cheap.
pub(crate) const PAGE_WORDS: usize = 64;

/// A flat word-addressable RAM with dirty-page tracking.
///
/// Reads of never-written cells return 0, mirroring zero-initialised SRAM.
///
/// Every write path marks the containing fixed-size page (of
/// [`PAGE_WORDS`] words) dirty in a bitmap. The snapshot layer clears the
/// bitmap when a base checkpoint is captured or restored, so at any later
/// point "dirty" means *modified since the base image* — exactly the set
/// of pages a delta checkpoint must carry. The bitmap is host-side
/// bookkeeping, never serialized: two RAMs with equal words are
/// bit-identical on the wire regardless of their dirty state.
#[derive(Clone, Debug)]
pub(crate) struct Ram {
    words: Vec<Word>,
    /// One bit per [`PAGE_WORDS`]-word page; bit set = page written since
    /// the last [`clear_dirty`](Ram::clear_dirty).
    dirty: Vec<u64>,
}

/// Number of `u64` bitmap limbs needed for `words` cells.
fn dirty_limbs(words: usize) -> usize {
    words.div_ceil(PAGE_WORDS).div_ceil(64)
}

impl Ram {
    /// Allocates a zeroed RAM of `words` cells.
    pub(crate) fn new(words: u32) -> Self {
        Ram {
            words: vec![0; words as usize],
            dirty: vec![0; dirty_limbs(words as usize)],
        }
    }

    /// Builds a RAM holding exactly `words`, with a clear dirty bitmap
    /// (the contents are the new baseline).
    pub(crate) fn from_words(words: Vec<Word>) -> Self {
        let limbs = dirty_limbs(words.len());
        Ram {
            words,
            dirty: vec![0; limbs],
        }
    }

    #[inline]
    fn mark_page(&mut self, page: usize) {
        self.dirty[page / 64] |= 1u64 << (page % 64);
    }

    /// Marks every page overlapping `[start, start + len)` dirty — the
    /// bulk-write path (DMA) calls this after writing through
    /// [`words_mut`](Ram::words_mut).
    pub(crate) fn mark_dirty_range(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = start / PAGE_WORDS;
        let last = (start + len - 1) / PAGE_WORDS;
        for page in first..=last {
            self.mark_page(page);
        }
    }

    /// Clears the dirty bitmap: the current contents become the baseline
    /// future deltas are computed against.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Number of pages currently marked dirty.
    #[cfg(test)]
    pub(crate) fn dirty_page_count(&self) -> usize {
        self.dirty.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Word length of page `page` (the last page may be partial).
    pub(crate) fn page_len(&self, page: usize) -> usize {
        let start = page * PAGE_WORDS;
        PAGE_WORDS.min(self.words.len() - start)
    }

    /// The words of page `page`.
    pub(crate) fn page_words(&self, page: usize) -> &[Word] {
        let start = page * PAGE_WORDS;
        &self.words[start..start + self.page_len(page)]
    }

    /// Iterates the indices of dirty pages in ascending order.
    pub(crate) fn dirty_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter().enumerate().flat_map(|(limb, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(limb * 64 + bit)
            })
        })
    }

    /// Overwrites page `page` with `data` (exactly the page's length) and
    /// marks it dirty — the delta-restore commit path.
    pub(crate) fn write_page(&mut self, page: usize, data: &[Word]) {
        let start = page * PAGE_WORDS;
        self.words[start..start + data.len()].copy_from_slice(data);
        self.mark_page(page);
    }

    /// Copies every dirty page back from `baseline` (same-shaped words) and
    /// clears the bitmap: the RAM equals its base again, at the cost of the
    /// pages written since, and without allocating.
    pub(crate) fn roll_back(&mut self, baseline: &[Word]) {
        for limb in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[limb]);
            while bits != 0 {
                let start = (limb * 64 + bits.trailing_zeros() as usize) * PAGE_WORDS;
                let end = self.words.len().min(start + PAGE_WORDS);
                self.words[start..end].copy_from_slice(&baseline[start..end]);
                bits &= bits - 1;
            }
        }
    }

    /// Capacity in words.
    pub(crate) fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// Reads the word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnmappedAddress`] past the end of the RAM.
    pub(crate) fn read(&self, offset: u32) -> Result<Word> {
        self.words
            .get(offset as usize)
            .copied()
            .ok_or(Error::UnmappedAddress { addr: offset })
    }

    /// Writes the word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnmappedAddress`] past the end of the RAM.
    pub(crate) fn write(&mut self, offset: u32, value: Word) -> Result<()> {
        match self.words.get_mut(offset as usize) {
            Some(w) => {
                *w = value;
                self.mark_page(offset as usize / PAGE_WORDS);
                Ok(())
            }
            None => Err(Error::UnmappedAddress { addr: offset }),
        }
    }

    /// Bulk-loads `data` starting at `offset` (for test fixtures and DMA).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnmappedAddress`] if the slice does not fit.
    pub(crate) fn load(&mut self, offset: u32, data: &[Word]) -> Result<()> {
        let start = offset as usize;
        let end = start + data.len();
        if end > self.words.len() {
            return Err(Error::UnmappedAddress { addr: end as u32 });
        }
        self.words[start..end].copy_from_slice(data);
        self.mark_dirty_range(start, data.len());
        Ok(())
    }

    /// A read-only view of the whole RAM (debugger use).
    pub(crate) fn as_slice(&self) -> &[Word] {
        &self.words
    }

    /// A mutable view of the whole RAM, for batched transfers (DMA) that
    /// have already bounds-checked their range. Does NOT mark pages dirty —
    /// the caller must follow up with [`mark_dirty_range`](Ram::mark_dirty_range)
    /// for whatever it wrote.
    pub(crate) fn words_mut(&mut self) -> &mut [Word] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_shared() {
        assert_eq!(decode(0, 1024, 2).unwrap(), Region::Shared(0));
        assert_eq!(decode(1023, 1024, 2).unwrap(), Region::Shared(1023));
        assert!(decode(1024, 1024, 2).is_err());
    }

    #[test]
    fn decode_local_per_core() {
        assert_eq!(
            decode(LOCAL_BASE + 5, 1024, 2).unwrap(),
            Region::Local {
                owner: 0,
                offset: 5
            }
        );
        assert_eq!(
            decode(LOCAL_BASE + LOCAL_STRIDE + 7, 1024, 2).unwrap(),
            Region::Local {
                owner: 1,
                offset: 7
            }
        );
        // Core 2 does not exist on a 2-core platform.
        assert!(decode(LOCAL_BASE + 2 * LOCAL_STRIDE, 1024, 2).is_err());
    }

    #[test]
    fn decode_periph_pages() {
        assert_eq!(
            decode(PERIPH_BASE, 1024, 1).unwrap(),
            Region::Periph { page: 0, offset: 0 }
        );
        assert_eq!(
            decode(periph_addr(3, 0x10), 1024, 1).unwrap(),
            Region::Periph {
                page: 3,
                offset: 0x10
            }
        );
    }

    #[test]
    fn addr_helpers_roundtrip() {
        let a = local_addr(1, 42);
        assert_eq!(
            decode(a, 16, 4).unwrap(),
            Region::Local {
                owner: 1,
                offset: 42
            }
        );
        let p = periph_addr(2, 3);
        assert_eq!(
            decode(p, 16, 4).unwrap(),
            Region::Periph { page: 2, offset: 3 }
        );
    }

    #[test]
    fn ram_reads_zero_initialised() {
        let r = Ram::new(8);
        assert_eq!(r.read(7).unwrap(), 0);
        assert!(r.read(8).is_err());
    }

    #[test]
    fn ram_write_read_roundtrip() {
        let mut r = Ram::new(4);
        r.write(2, -99).unwrap();
        assert_eq!(r.read(2).unwrap(), -99);
        assert!(r.write(4, 0).is_err());
    }

    #[test]
    fn ram_bulk_load() {
        let mut r = Ram::new(6);
        r.load(2, &[1, 2, 3]).unwrap();
        assert_eq!(r.as_slice(), &[0, 0, 1, 2, 3, 0]);
        assert!(r.load(5, &[1, 2]).is_err());
    }

    #[test]
    fn dirty_pages_track_writes() {
        let mut r = Ram::new(4 * PAGE_WORDS as u32);
        assert_eq!(r.dirty_page_count(), 0);
        r.write(0, 1).unwrap();
        r.write((2 * PAGE_WORDS) as u32, 2).unwrap();
        assert_eq!(r.dirty_pages().collect::<Vec<_>>(), vec![0, 2]);
        // Re-dirtying the same page is idempotent.
        r.write(1, 3).unwrap();
        assert_eq!(r.dirty_page_count(), 2);
        r.clear_dirty();
        assert_eq!(r.dirty_page_count(), 0);
    }

    #[test]
    fn dirty_range_spans_pages() {
        let mut r = Ram::new(4 * PAGE_WORDS as u32);
        // A load straddling the page-1/page-2 boundary dirties both.
        r.load(
            (2 * PAGE_WORDS - 2) as u32,
            &[7; 4], // 2 words in page 1, 2 in page 2
        )
        .unwrap();
        assert_eq!(r.dirty_pages().collect::<Vec<_>>(), vec![1, 2]);
        r.clear_dirty();
        r.mark_dirty_range(0, 0); // empty range marks nothing
        assert_eq!(r.dirty_page_count(), 0);
    }

    #[test]
    fn partial_last_page_has_short_len() {
        let r = Ram::new(PAGE_WORDS as u32 + 10);
        assert_eq!(r.words.len().div_ceil(PAGE_WORDS), 2);
        assert_eq!(r.page_len(0), PAGE_WORDS);
        assert_eq!(r.page_len(1), 10);
        assert_eq!(r.page_words(1).len(), 10);
    }
}
