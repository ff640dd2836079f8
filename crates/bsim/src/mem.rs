//! A sparse, byte-addressable backing store.
//!
//! [`SparseMemory`] is the *functional* half of the memory system: the DRAM
//! model in `bdram` decides *when* a request completes; this store decides
//! *what data* it returns. It is also reused by the host runtime as the
//! device memory image on discrete platforms.

use std::collections::BTreeMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A sparse byte-addressable memory over a 64-bit address space.
///
/// Reads of never-written bytes return zero, matching the paper's simulation
/// platform (DRAMSim3-backed Verilator runs initialize memory to zero).
///
/// ```rust
/// let mut mem = bsim::SparseMemory::new();
/// mem.write(0x1000, &[1, 2, 3, 4]);
/// assert_eq!(mem.read_vec(0x1000, 4), vec![1, 2, 3, 4]);
/// assert_eq!(mem.read_vec(0x2000, 2), vec![0, 0]); // untouched => zero
/// ```
#[derive(Default, Clone)]
pub struct SparseMemory {
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Writes `data` starting at `addr`, crossing pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut cursor = addr;
        let mut remaining = data;
        while !remaining.is_empty() {
            let page = cursor >> PAGE_SHIFT;
            let offset = (cursor & (PAGE_SIZE - 1)) as usize;
            let chunk = remaining.len().min(PAGE_SIZE as usize - offset);
            let page_data = self
                .pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE as usize]));
            page_data[offset..offset + chunk].copy_from_slice(&remaining[..chunk]);
            cursor += chunk as u64;
            remaining = &remaining[chunk..];
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = cursor >> PAGE_SHIFT;
            let offset = (cursor & (PAGE_SIZE - 1)) as usize;
            let chunk = (buf.len() - filled).min(PAGE_SIZE as usize - offset);
            match self.pages.get(&page) {
                Some(page_data) => {
                    buf[filled..filled + chunk].copy_from_slice(&page_data[offset..offset + chunk]);
                }
                None => {
                    buf[filled..filled + chunk].fill(0);
                }
            }
            cursor += chunk as u64;
            filled += chunk;
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf);
        buf
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a slice of little-endian `u32`s starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, values: &[u32]) {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(addr, &bytes);
    }

    /// Reads `count` little-endian `u32`s starting at `addr`.
    pub fn read_u32_slice(&self, addr: u64, count: usize) -> Vec<u32> {
        let bytes = self.read_vec(addr, count * 4);
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Writes a slice of `i8`s starting at `addr`.
    pub fn write_i8_slice(&mut self, addr: u64, values: &[i8]) {
        // i8 and u8 share a representation.
        let bytes: Vec<u8> = values.iter().map(|&v| v as u8).collect();
        self.write(addr, &bytes);
    }

    /// Reads `count` `i8`s starting at `addr`.
    pub fn read_i8_slice(&self, addr: u64, count: usize) -> Vec<i8> {
        self.read_vec(addr, count)
            .into_iter()
            .map(|b| b as i8)
            .collect()
    }

    /// Makes `[addr, addr + len)` of this memory equal to the same range of
    /// `src`, touching only pages resident in either: covered pages `src`
    /// lacks read as zero afterwards (whole ones are released), and `src`'s
    /// resident pages are copied. Copying from an empty memory therefore
    /// clears the range.
    pub fn copy_range(&mut self, src: &SparseMemory, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        let pages = (addr >> PAGE_SHIFT)..=((end - 1) >> PAGE_SHIFT);
        // The part of `page` inside the range, as in-page byte offsets.
        let span = |page: u64| {
            let base = page << PAGE_SHIFT;
            (addr.max(base) - base) as usize..(end.min(base + PAGE_SIZE) - base) as usize
        };
        let stale: Vec<u64> = self.pages.range(pages.clone()).map(|(&p, _)| p).collect();
        for page in stale {
            let span = span(page);
            if span.len() == PAGE_SIZE as usize {
                self.pages.remove(&page);
            } else if let Some(data) = self.pages.get_mut(&page) {
                data[span].fill(0);
            }
        }
        for (&page, data) in src.pages.range(pages) {
            let span = span(page);
            self.write((page << PAGE_SHIFT) + span.start as u64, &data[span]);
        }
    }

    /// Releases all pages, returning the memory to the all-zero state.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read_vec(0xDEAD_0000, 8), vec![0u8; 8]);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_within_page() {
        let mut mem = SparseMemory::new();
        mem.write(0x100, b"hello");
        assert_eq!(mem.read_vec(0x100, 5), b"hello");
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn roundtrip_across_page_boundary() {
        let mut mem = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        let addr = PAGE_SIZE - 100;
        mem.write(addr, &data);
        assert_eq!(mem.read_vec(addr, 256), data);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn partial_read_straddles_written_and_zero() {
        let mut mem = SparseMemory::new();
        mem.write(0, &[0xAA; 4]);
        let out = mem.read_vec(2, 4);
        assert_eq!(out, vec![0xAA, 0xAA, 0, 0]);
    }

    #[test]
    fn u32_and_u64_accessors() {
        let mut mem = SparseMemory::new();
        mem.write_u32(0x40, 0xDEADBEEF);
        assert_eq!(mem.read_u32(0x40), 0xDEADBEEF);
        mem.write_u64(0x48, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(0x48), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn u32_slice_roundtrip() {
        let mut mem = SparseMemory::new();
        let vals: Vec<u32> = (0..1000).map(|i| i * 3).collect();
        mem.write_u32_slice(0x1_0000, &vals);
        assert_eq!(mem.read_u32_slice(0x1_0000, 1000), vals);
    }

    #[test]
    fn i8_slice_roundtrip() {
        let mut mem = SparseMemory::new();
        let vals: Vec<i8> = (-64..64).collect();
        mem.write_i8_slice(0x2000, &vals);
        assert_eq!(mem.read_i8_slice(0x2000, vals.len()), vals);
    }

    #[test]
    fn clear_releases_pages() {
        let mut mem = SparseMemory::new();
        mem.write(0, &[1]);
        mem.clear();
        assert_eq!(mem.resident_pages(), 0);
        assert_eq!(mem.read_vec(0, 1), vec![0]);
    }

    #[test]
    fn copy_range_mirrors_src_and_clears_what_src_lacks() {
        let mut src = SparseMemory::new();
        src.write(PAGE_SIZE + 10, &[7, 8]);
        let mut dst = SparseMemory::new();
        dst.write(0, &[1; 3 * PAGE_SIZE as usize]);
        // Mirror [5, 2 pages + 5): the page `src` lacks is released, the
        // partial edge pages are zeroed only inside the range.
        dst.copy_range(&src, 5, 2 * PAGE_SIZE);
        assert_eq!(dst.read_vec(0, 6), vec![1, 1, 1, 1, 1, 0]);
        assert_eq!(dst.read_vec(PAGE_SIZE + 9, 4), vec![0, 7, 8, 0]);
        assert_eq!(dst.read_vec(2 * PAGE_SIZE + 4, 2), vec![0, 1]);
        // Copying from an empty memory clears a whole-page range.
        dst.copy_range(&SparseMemory::new(), 0, 3 * PAGE_SIZE);
        assert_eq!(dst.resident_pages(), 0);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut mem = SparseMemory::new();
        mem.write(10, &[1, 2, 3]);
        mem.write(11, &[9]);
        assert_eq!(mem.read_vec(10, 3), vec![1, 9, 3]);
    }
}
