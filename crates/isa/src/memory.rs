//! Byte-addressable data memory with an undo journal.
//!
//! The out-of-order frontend executes uops *speculatively* — including down
//! the wrong path of a mispredicted branch — so the emulator's memory must
//! support rollback. [`JournaledMemory`] records an undo entry for every
//! store; a [`JournalMark`] taken at a branch identifies the rollback point,
//! and [`JournaledMemory::rollback_to`] restores the pre-branch contents.
//! Marks older than the oldest in-flight branch are released with
//! [`JournaledMemory::release_before`], which lets the journal stay small.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::uop::Width;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one multiply by 2^64/φ and a shift folding
/// the high product bits into the low ones the table indexes by. Page
/// numbers come from the simulator, not from an adversary, so SipHash's
/// flooding resistance buys nothing here.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Splits the `len` bytes at `addr` into per-page pieces: the page
/// number, the offset in the page, and the piece's range within the
/// access.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let a = addr + done as u64;
            let off = (a as usize) & (PAGE_SIZE - 1);
            let n = (PAGE_SIZE - off).min(len - done);
            done += n;
            (a >> PAGE_SHIFT, off, done - n..done)
        })
    })
}

/// The sparse page map behind both [`MemoryImage`] and
/// [`JournaledMemory`]: 4 KiB zero-initialised pages keyed by page
/// number, created by the first write that touches them. Every access
/// looks the map up once per page it touches.
#[derive(Clone, Default)]
struct PageStore {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl PageStore {
    fn page_mut(&mut self, number: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(number)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `width` bytes at `addr` (little-endian, zero-extended);
    /// unmapped bytes read zero.
    fn read(&self, addr: u64, width: Width) -> u64 {
        let mut bytes = [0u8; 8];
        for (number, off, range) in pieces(addr, width.bytes() as usize) {
            let dst = &mut bytes[range];
            if let Some(p) = self.pages.get(&number) {
                dst.copy_from_slice(&p[off..off + dst.len()]);
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Copies `bytes` to `addr`.
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (number, off, range) in pieces(addr, bytes.len()) {
            let src = &bytes[range];
            self.page_mut(number)[off..off + src.len()].copy_from_slice(src);
        }
    }

    /// Exchanges `bytes` with the bytes at `addr`: memory takes the new
    /// bytes and `bytes` receives the old ones.
    fn swap(&mut self, addr: u64, bytes: &mut [u8]) {
        for (number, off, range) in pieces(addr, bytes.len()) {
            let buf = &mut bytes[range];
            buf.swap_with_slice(&mut self.page_mut(number)[off..off + buf.len()]);
        }
    }

    /// Writes `values` back to back from `addr`, each encoded as its `N`
    /// bytes: the values that fit in a page are encoded straight into it
    /// under one lookup, and only a value straddling a page edge takes
    /// the two-piece [`Self::write`].
    fn write_values<T: Copy, const N: usize>(
        &mut self,
        mut addr: u64,
        mut values: &[T],
        encode: impl Fn(T) -> [u8; N],
    ) {
        while let Some(&first) = values.first() {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let fit = ((PAGE_SIZE - off) / N).min(values.len());
            if fit == 0 {
                self.write(addr, &encode(first));
                (addr, values) = (addr + N as u64, &values[1..]);
                continue;
            }
            let page = &mut self.page_mut(addr >> PAGE_SHIFT)[off..off + fit * N];
            for (dst, &v) in page.chunks_exact_mut(N).zip(&values[..fit]) {
                dst.copy_from_slice(&encode(v));
            }
            (addr, values) = (addr + (fit * N) as u64, &values[fit..]);
        }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    /// The pages in ascending page-number order.
    fn sorted(&self) -> Vec<(u64, &[u8])> {
        let mut pages: Vec<_> = self.pages.iter().map(|(&n, p)| (n, &p[..])).collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        pages
    }
}

/// A builder for initial memory contents, used by workload generators.
#[derive(Clone, Default)]
pub struct MemoryImage {
    pages: PageStore,
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryImage")
            .field("pages", &self.pages.len())
            .finish()
    }
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a value of the given width at `addr`.
    pub fn write(&mut self, addr: u64, width: Width, value: u64) {
        self.pages
            .write(addr, &value.to_le_bytes()[..width.bytes() as usize]);
    }

    /// Writes a slice of bytes starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.pages.write(addr, bytes);
    }

    /// Writes a slice of 64-bit values starting at `addr` (8 bytes apart).
    pub fn write_u64_slice(&mut self, addr: u64, values: &[u64]) {
        self.pages.write_values(addr, values, u64::to_le_bytes);
    }

    /// The touched pages in ascending page-number order, each as its page
    /// number (address >> 12) and its 4 KiB of contents.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.sorted().into_iter()
    }

    /// Converts the image into a journaled memory ready for execution.
    #[must_use]
    pub fn into_memory(self) -> JournaledMemory {
        JournaledMemory {
            pages: self.pages,
            journal: VecDeque::new(),
            base: 0,
        }
    }

    /// Builds a journaled memory from a shared image without consuming it,
    /// copying the touched pages. This is what lets one built workload
    /// image seed many independent simulation runs: the page copy is far
    /// cheaper than re-running the workload generator.
    #[must_use]
    pub fn to_memory(&self) -> JournaledMemory {
        self.clone().into_memory()
    }
}

/// A position in the store journal; rollback target for speculation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct JournalMark(u64);

#[derive(Clone, Debug)]
struct UndoEntry {
    addr: u64,
    width: Width,
    old: u64,
}

/// Byte-addressable sparse memory with store journaling for speculative
/// execution. See the module docs for the checkpoint/rollback protocol.
pub struct JournaledMemory {
    pages: PageStore,
    journal: VecDeque<UndoEntry>,
    /// Journal position of `journal[0]`.
    base: u64,
}

impl fmt::Debug for JournaledMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournaledMemory")
            .field("pages", &self.pages.len())
            .field("journal_len", &self.journal.len())
            .finish()
    }
}

impl JournaledMemory {
    /// Creates an empty memory.
    #[must_use]
    pub(crate) fn new() -> Self {
        MemoryImage::new().into_memory()
    }

    /// Reads `width` bytes at `addr` (little-endian, zero-extended).
    #[must_use]
    pub fn read(&self, addr: u64, width: Width) -> u64 {
        self.pages.read(addr, width)
    }

    /// Writes `width` bytes at `addr`, journaling the previous contents.
    pub(crate) fn write(&mut self, addr: u64, width: Width, value: u64) {
        let mut bytes = value.to_le_bytes();
        bytes[width.bytes() as usize..].fill(0);
        self.pages.swap(addr, &mut bytes[..width.bytes() as usize]);
        let old = u64::from_le_bytes(bytes);
        self.journal.push_back(UndoEntry { addr, width, old });
    }

    /// The current journal position; stores after this call can be undone
    /// by rolling back to the returned mark.
    #[must_use]
    pub(crate) fn mark(&self) -> JournalMark {
        JournalMark(self.base + self.journal.len() as u64)
    }

    /// Undoes every store performed after `mark` was taken.
    ///
    /// # Panics
    ///
    /// Panics if `mark` has been released by [`Self::release_before`] —
    /// that would mean rolling back past committed state, which is a
    /// simulator bug.
    pub(crate) fn rollback_to(&mut self, mark: JournalMark) {
        assert!(
            mark.0 >= self.base,
            "rollback target {mark:?} was already released (base {})",
            self.base
        );
        while self.base + self.journal.len() as u64 > mark.0 {
            let e = self
                .journal
                .pop_back()
                .expect("journal length accounted above");
            self.pages
                .write(e.addr, &e.old.to_le_bytes()[..e.width.bytes() as usize]);
        }
    }

    /// Releases journal entries older than `mark`; they can no longer be
    /// rolled back. Call with the mark of the oldest in-flight branch as
    /// instructions retire.
    pub(crate) fn release_before(&mut self, mark: JournalMark) {
        while self.base < mark.0 && !self.journal.is_empty() {
            self.journal.pop_front();
            self.base += 1;
        }
    }
}

impl Default for JournaledMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemoryImage {
        /// Writes one byte.
        pub(crate) fn write_byte(&mut self, addr: u64, b: u8) {
            self.pages.write(addr, &[b]);
        }

        /// Writes a slice of 32-bit values starting at `addr` (4 bytes apart).
        pub(crate) fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
            self.pages.write_values(addr, values, u32::to_le_bytes);
        }

        /// Reads back a value.
        #[must_use]
        pub(crate) fn read(&self, addr: u64, width: Width) -> u64 {
            self.pages.read(addr, width)
        }

        /// Number of touched 4 KiB pages.
        #[must_use]
        pub(crate) fn page_count(&self) -> usize {
            self.pages.len()
        }
    }

    #[test]
    fn image_round_trip() {
        let mut img = MemoryImage::new();
        img.write(0x1000, Width::B8, 0xdead_beef_cafe_f00d);
        img.write_u32_slice(0x2000, &[1, 2, 3]);
        assert_eq!(img.read(0x1000, Width::B8), 0xdead_beef_cafe_f00d);
        assert_eq!(img.read(0x1004, Width::B4), 0xdead_beef);
        assert_eq!(img.read(0x2004, Width::B4), 2);
        let mem = img.into_memory();
        assert_eq!(mem.read(0x1000, Width::B8), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn unmapped_reads_zero() {
        let mem = JournaledMemory::new();
        assert_eq!(mem.read(0xffff_0000, Width::B8), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = JournaledMemory::new();
        let addr = (1 << PAGE_SHIFT) - 2;
        mem.write(addr, Width::B8, 0x1122_3344_5566_7788);
        assert_eq!(mem.read(addr, Width::B8), 0x1122_3344_5566_7788);
        assert_eq!(mem.read(addr + 4, Width::B4), 0x1122_3344);
    }

    #[test]
    fn rollback_restores_old_values() {
        let mut mem = JournaledMemory::new();
        mem.write(0x10, Width::B8, 111);
        let mark = mem.mark();
        mem.write(0x10, Width::B8, 222);
        mem.write(0x18, Width::B4, 333);
        assert_eq!(mem.read(0x10, Width::B8), 222);
        mem.rollback_to(mark);
        assert_eq!(mem.read(0x10, Width::B8), 111);
        assert_eq!(mem.read(0x18, Width::B4), 0);
    }

    #[test]
    fn nested_marks_roll_back_in_order() {
        let mut mem = JournaledMemory::new();
        let m0 = mem.mark();
        mem.write(0x0, Width::B1, 1);
        let m1 = mem.mark();
        mem.write(0x0, Width::B1, 2);
        mem.rollback_to(m1);
        assert_eq!(mem.read(0x0, Width::B1), 1);
        mem.rollback_to(m0);
        assert_eq!(mem.read(0x0, Width::B1), 0);
    }

    #[test]
    fn release_bounds_journal_growth() {
        let mut mem = JournaledMemory::new();
        for i in 0..100 {
            mem.write(i * 8, Width::B8, i);
            let m = mem.mark();
            mem.release_before(m);
        }
        assert!(mem.journal.is_empty());
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn rollback_past_release_panics() {
        let mut mem = JournaledMemory::new();
        let m0 = mem.mark();
        mem.write(0, Width::B1, 1);
        let m1 = mem.mark();
        mem.release_before(m1);
        mem.rollback_to(m0);
    }

    /// Random reads, writes, marks and rollbacks around page edges, on
    /// mapped and unmapped pages: every read agrees with reading its bytes
    /// one at a time and with a byte-map model of the writes and rollbacks.
    #[test]
    fn single_page_paths_match_bytewise_paths() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let widths = [Width::B1, Width::B2, Width::B4, Width::B8];
        let page = 1u64 << PAGE_SHIFT;
        let mut mem = JournaledMemory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut marks = Vec::new();
        let (mut crossing, mut unmapped) = (0, 0);
        for _ in 0..50_000 {
            let r = next();
            let width = widths[(r % 4) as usize];
            let n = width.bytes();
            // Pages 0 and 1 take writes (which may spill into page 2);
            // page 3 is never written. Offsets cluster at page ends.
            let writing = (r >> 8) % 8 < 3;
            let base = ((r >> 16) % if writing { 2 } else { 4 }) * page;
            let off = if (r >> 24) % 2 == 0 {
                page - 8 + (r >> 32) % 8
            } else {
                (r >> 32) % page
            };
            let addr = base + off;
            crossing += u64::from(off + n > page);
            match (r >> 8) % 8 {
                0..=2 => {
                    let v = next();
                    mem.write(addr, width, v);
                    for i in 0..n {
                        model.insert(addr + i, (v >> (8 * i)) as u8);
                    }
                }
                3 if marks.len() < 8 => marks.push((mem.mark(), model.clone())),
                4 => {
                    if let Some((m, snapshot)) = marks.pop() {
                        mem.rollback_to(m);
                        model = snapshot;
                    }
                }
                _ => {
                    let want = (0..n).fold(0u64, |v, i| {
                        v | u64::from(model.get(&(addr + i)).copied().unwrap_or(0)) << (8 * i)
                    });
                    unmapped += u64::from(base == 3 * page);
                    assert_eq!(mem.read(addr, width), want, "read {addr:#x} {width:?}");
                    let bytewise =
                        (0..n).fold(0u64, |v, i| v | mem.read(addr + i, Width::B1) << (8 * i));
                    assert_eq!(bytewise, want);
                }
            }
        }
        assert!(
            crossing > 1000 && unmapped > 1000,
            "{crossing} crossing, {unmapped} unmapped"
        );
    }

    #[test]
    fn rollback_to_current_mark_is_noop() {
        let mut mem = JournaledMemory::new();
        mem.write(0, Width::B8, 42);
        let m = mem.mark();
        mem.rollback_to(m);
        assert_eq!(mem.read(0, Width::B8), 42);
    }
}
