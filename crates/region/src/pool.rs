//! The memory pool: per-device arenas with real backing bytes.
//!
//! Every simulated memory device gets an *arena* that tracks offset-based
//! allocations against the device's capacity with a coalescing first-fit
//! free list — so capacity pressure and fragmentation are real, measurable
//! effects. The *contents* of each allocation live in host memory, so
//! tasks compute on real bytes while capacities can be terabytes without
//! reserving terabytes of host RAM.
//!
//! # Page store
//!
//! A region's bytes are one page table of refcounted 64 KiB pages. A
//! `None` entry is the shared zero page, and the table itself is
//! allocated on the first write, so a never-written region holds nothing
//! and reads as zeros without a lookup. [`MemoryPool::copy_between`]
//! clones page handles for whole pages and memcpy's only a partial tail
//! page, so a handover copy is metadata, as Figure 4 of the paper has it.
//! A write to a page another region still shares copies that page first
//! (copy on write). There are no contiguous views of a region: callers
//! read and write through offsets, a page at a time underneath.
//!
//! # Hot-path layout
//!
//! [`RegionId`]s are issued from a monotone counter and never reused, so
//! per-region state (placement + page table) lives in one dense slab
//! `Vec` indexed by the id — no hashing on the allocate/free/read/write
//! paths, and `live()` iterates in id order, which is deterministic. A
//! byte offset finds its page by division.

use std::sync::Arc;

use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::topology::Topology;

/// Identifies one allocation (and later, one region) in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No free extent of the requested size exists on the device.
    OutOfMemory {
        /// The device that could not satisfy the request.
        dev: MemDeviceId,
        /// Requested bytes.
        requested: u64,
        /// Bytes still free (possibly fragmented).
        free: u64,
    },
    /// Zero-sized allocations are rejected.
    ZeroSize,
    /// The id is unknown or already freed.
    UnknownRegion(RegionId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory { dev, requested, free } => {
                write!(f, "{dev} cannot fit {requested} bytes ({free} free)")
            }
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
            AllocError::UnknownRegion(id) => write!(f, "unknown or freed region {id}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Where an allocation lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Backing device.
    pub dev: MemDeviceId,
    /// Byte offset within the device arena.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

#[derive(Debug)]
struct Arena {
    capacity: u64,
    /// Free extents `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(u64, u64)>,
    allocated: u64,
    peak: u64,
}

impl Arena {
    fn new(capacity: u64) -> Self {
        Arena {
            capacity,
            free: if capacity > 0 { vec![(0, capacity)] } else { Vec::new() },
            allocated: 0,
            peak: 0,
        }
    }

    fn free_bytes(&self) -> u64 {
        self.capacity - self.allocated
    }

    fn alloc(&mut self, size: u64) -> Option<u64> {
        // First fit.
        let idx = self.free.iter().position(|&(_, len)| len >= size)?;
        let (off, len) = self.free[idx];
        if len == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + size, len - size);
        }
        self.allocated += size;
        self.peak = self.peak.max(self.allocated);
        Some(off)
    }

    fn dealloc(&mut self, offset: u64, size: u64) {
        let pos = self.free.partition_point(|&(o, _)| o < offset);
        self.free.insert(pos, (offset, size));
        // Coalesce with neighbours.
        if pos + 1 < self.free.len() {
            let (o, l) = self.free[pos];
            let (no, nl) = self.free[pos + 1];
            if o + l == no {
                self.free[pos] = (o, l + nl);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (po, pl) = self.free[pos - 1];
            let (o, l) = self.free[pos];
            if po + pl == o {
                self.free[pos - 1] = (po, pl + l);
                self.free.remove(pos);
            }
        }
        self.allocated -= size;
    }

    /// `1 - largest_free / total_free`; 0 when unfragmented or full.
    fn fragmentation(&self) -> f64 {
        let total: u64 = self.free.iter().map(|&(_, l)| l).sum();
        if total == 0 {
            return 0.0;
        }
        let largest = self.free.iter().map(|&(_, l)| l).max().unwrap_or(0);
        1.0 - largest as f64 / total as f64
    }
}

/// Page size of the byte store.
pub const PAGE_SIZE: u64 = 64 << 10;

/// The bytes every fresh page starts from.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// One refcounted page. Regions that copied from each other share it
/// until one of them writes.
type Page = Arc<[u8]>;

/// Per-region state in the slab.
#[derive(Debug)]
struct RegionSlot {
    placement: Placement,
    /// One entry per page; `None` is the shared zero page. Empty until
    /// the first write, so a never-written region holds no table.
    pages: Vec<Option<Page>>,
}

/// Splits a byte position into its page index and offset within the page.
fn split(pos: u64) -> (usize, usize) {
    ((pos / PAGE_SIZE) as usize, (pos % PAGE_SIZE) as usize)
}

/// Makes page `i` of a `size`-byte region writable: materialises the
/// zero page, cut short at the region's end so a small region holds a
/// small page, or copies a page another region still shares (adding its
/// length to `copied`).
fn page_mut<'a>(
    pages: &'a mut [Option<Page>],
    i: usize,
    size: u64,
    copied: &mut u64,
) -> &'a mut [u8] {
    let p = pages[i].get_or_insert_with(|| {
        let len = (size - i as u64 * PAGE_SIZE).min(PAGE_SIZE);
        Arc::from(&ZERO_PAGE[..len as usize])
    });
    if Arc::strong_count(p) > 1 {
        *copied += p.len() as u64;
    }
    Arc::make_mut(p)
}

impl RegionSlot {
    fn check_range(&self, offset: u64, len: u64) {
        let size = self.placement.size;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= size),
            "access [{offset}, +{len}) past the end of a {size}-byte region"
        );
    }

    /// Allocates the page table on the first write.
    fn table(&mut self) -> &mut Vec<Option<Page>> {
        if self.pages.is_empty() {
            self.pages = vec![None; self.placement.size.div_ceil(PAGE_SIZE) as usize];
        }
        &mut self.pages
    }

    fn read(&self, offset: u64, buf: &mut [u8]) {
        self.check_range(offset, buf.len() as u64);
        if self.pages.is_empty() || buf.is_empty() {
            buf.fill(0);
            return;
        }
        let (mut page, mut within) = split(offset);
        let mut done = 0;
        loop {
            let take = (PAGE_SIZE as usize - within).min(buf.len() - done);
            let out = &mut buf[done..done + take];
            match &self.pages[page] {
                Some(p) => out.copy_from_slice(&p[within..within + take]),
                None => out.fill(0),
            }
            done += take;
            if done == buf.len() {
                return;
            }
            page += 1;
            within = 0;
        }
    }

    /// Writes `data` at `offset`; returns the bytes copy-on-write copied.
    fn write(&mut self, offset: u64, data: &[u8]) -> u64 {
        self.check_range(offset, data.len() as u64);
        if data.is_empty() {
            return 0;
        }
        let size = self.placement.size;
        let pages = self.table();
        let (mut page, mut within) = split(offset);
        let (mut done, mut copied) = (0, 0);
        loop {
            let take = (PAGE_SIZE as usize - within).min(data.len() - done);
            page_mut(pages, page, size, &mut copied)[within..within + take]
                .copy_from_slice(&data[done..done + take]);
            done += take;
            if done == data.len() {
                return copied;
            }
            page += 1;
            within = 0;
        }
    }
}

/// The pool of all memory devices in a topology.
#[derive(Debug)]
pub struct MemoryPool {
    arenas: Vec<Arena>,
    /// Dense slab indexed by `RegionId`; ids are monotone and never
    /// reused, so a freed region leaves a `None` tombstone.
    slots: Vec<Option<RegionSlot>>,
    live: usize,
    /// Bytes memcpy'd by tail copies and copy-on-write faults.
    copied: u64,
}

impl MemoryPool {
    /// Builds a pool with one arena per memory device in the topology.
    pub fn new(topo: &Topology) -> Self {
        MemoryPool {
            arenas: topo.mem_devices().iter().map(|m| Arena::new(m.capacity)).collect(),
            slots: Vec::new(),
            live: 0,
            copied: 0,
        }
    }

    fn slot(&self, id: RegionId) -> Result<&RegionSlot, AllocError> {
        self.slots
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(AllocError::UnknownRegion(id))
    }

    fn slot_mut(&mut self, id: RegionId) -> Result<&mut RegionSlot, AllocError> {
        self.slots
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(AllocError::UnknownRegion(id))
    }

    /// Allocates `size` bytes on `dev`, zero-initialized.
    pub fn alloc(&mut self, dev: MemDeviceId, size: u64) -> Result<RegionId, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let arena = &mut self.arenas[dev.index()];
        let offset = arena.alloc(size).ok_or(AllocError::OutOfMemory {
            dev,
            requested: size,
            free: arena.free_bytes(),
        })?;
        let id = RegionId(self.slots.len() as u64);
        self.slots.push(Some(RegionSlot {
            placement: Placement { dev, offset, size },
            pages: Vec::new(),
        }));
        self.live += 1;
        Ok(id)
    }

    /// Frees an allocation, returning its former placement.
    pub fn free(&mut self, id: RegionId) -> Result<Placement, AllocError> {
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(AllocError::UnknownRegion(id))?;
        let placement = slot.placement;
        self.arenas[placement.dev.index()].dealloc(placement.offset, placement.size);
        self.live -= 1;
        Ok(placement)
    }

    /// The placement of a live allocation.
    pub fn placement(&self, id: RegionId) -> Result<Placement, AllocError> {
        Ok(self.slot(id)?.placement)
    }

    /// True if the id refers to a live allocation.
    pub fn is_live(&self, id: RegionId) -> bool {
        self.slot(id).is_ok()
    }

    /// Reads `buf.len()` bytes at `offset`. Never-written bytes read
    /// zero; a range past the end of the allocation panics.
    pub fn read_at(&self, id: RegionId, offset: u64, buf: &mut [u8]) -> Result<(), AllocError> {
        self.slot(id)?.read(offset, buf);
        Ok(())
    }

    /// Writes `data` at `offset`, copying any page another region still
    /// shares first.
    pub fn write_at(&mut self, id: RegionId, offset: u64, data: &[u8]) -> Result<(), AllocError> {
        let copied = self.slot_mut(id)?.write(offset, data);
        self.copied += copied;
        Ok(())
    }

    /// Copies the first `len` bytes of `src` into `dst` (used by handover
    /// copies and replication). Whole pages are shared, not copied: only a
    /// partial tail page is memcpy'd, and a never-written source copies in
    /// O(1). Both regions must be at least `len` bytes long.
    pub fn copy_between(
        &mut self,
        src: RegionId,
        dst: RegionId,
        len: u64,
    ) -> Result<(), AllocError> {
        if src == dst {
            self.slot(src)?.check_range(0, len);
            return Ok(());
        }
        let (s, d) = self.two_slots(src, dst)?;
        s.check_range(0, len);
        d.check_range(0, len);
        if s.pages.is_empty() && d.pages.is_empty() {
            return Ok(());
        }
        let (full, tail) = split(len);
        let size = d.placement.size;
        let to = d.table();
        if s.pages.is_empty() {
            to[..full].fill(None);
        } else {
            to[..full].clone_from_slice(&s.pages[..full]);
        }
        let mut copied = 0;
        if tail > 0 {
            match s.pages.get(full).and_then(Option::as_ref) {
                Some(from) => {
                    page_mut(to, full, size, &mut copied)[..tail].copy_from_slice(&from[..tail]);
                    copied += tail as u64;
                }
                None if to[full].is_some() => page_mut(to, full, size, &mut copied)[..tail].fill(0),
                None => {}
            }
        }
        self.copied += copied;
        Ok(())
    }

    /// Borrows two distinct live slots, `src` shared and `dst` mutably.
    fn two_slots(
        &mut self,
        src: RegionId,
        dst: RegionId,
    ) -> Result<(&RegionSlot, &mut RegionSlot), AllocError> {
        self.slot(src)?;
        self.slot(dst)?;
        let (si, di) = (src.0 as usize, dst.0 as usize);
        let (s, d) = if si < di {
            let (lo, hi) = self.slots.split_at_mut(di);
            (&lo[si], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(si);
            (&hi[0], &mut lo[di])
        };
        Ok((s.as_ref().expect("checked live"), d.as_mut().expect("checked live")))
    }

    /// Bytes this pool has physically memcpy'd: partial tail pages of
    /// [`MemoryPool::copy_between`] and pages copied on write because
    /// another region shared them. Shared whole pages count nothing.
    pub fn bytes_copied(&self) -> u64 {
        self.copied
    }

    /// Moves an allocation's backing to another device (the physical part
    /// of a migration). Contents are preserved; the id stays the same.
    pub fn rebind(&mut self, id: RegionId, to: MemDeviceId) -> Result<Placement, AllocError> {
        let old = self.placement(id)?;
        if old.dev == to {
            return Ok(old);
        }
        let arena = &mut self.arenas[to.index()];
        let offset = arena.alloc(old.size).ok_or(AllocError::OutOfMemory {
            dev: to,
            requested: old.size,
            free: arena.free_bytes(),
        })?;
        self.arenas[old.dev.index()].dealloc(old.offset, old.size);
        let new = Placement {
            dev: to,
            offset,
            size: old.size,
        };
        self.slot_mut(id)?.placement = new;
        Ok(new)
    }

    /// Bytes currently allocated on a device.
    pub fn allocated(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].allocated
    }

    /// Peak bytes ever allocated on a device.
    pub fn peak(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].peak
    }

    /// Capacity of a device arena.
    pub fn capacity(&self, dev: MemDeviceId) -> u64 {
        self.arenas[dev.index()].capacity
    }

    /// Fraction of a device's capacity currently allocated.
    pub fn utilization(&self, dev: MemDeviceId) -> f64 {
        let a = &self.arenas[dev.index()];
        if a.capacity == 0 {
            0.0
        } else {
            a.allocated as f64 / a.capacity as f64
        }
    }

    /// Fragmentation of a device arena (`1 - largest_free/total_free`).
    pub fn fragmentation(&self, dev: MemDeviceId) -> f64 {
        self.arenas[dev.index()].fragmentation()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Iterates over live allocations in id (allocation) order.
    pub fn live(&self) -> impl Iterator<Item = (RegionId, Placement)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (RegionId(i as u64), s.placement)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::compute::{ComputeKind, ComputeModel};
    use disagg_hwsim::device::{MemDeviceKind, MemDeviceModel};
    use disagg_hwsim::topology::{LinkKind, Topology};

    fn pool_with_capacity(cap: u64) -> (MemoryPool, MemDeviceId) {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let dram = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, cap));
        b.link(cpu, dram, LinkKind::MemBus);
        let topo = b.build().unwrap();
        (MemoryPool::new(&topo), dram)
    }

    #[test]
    fn alloc_free_round_trip_restores_capacity() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 512).unwrap();
        assert_eq!(pool.allocated(dev), 512);
        assert!(pool.is_live(id));
        pool.free(id).unwrap();
        assert_eq!(pool.allocated(dev), 0);
        assert!(!pool.is_live(id));
        // The full extent is available again.
        let id2 = pool.alloc(dev, 1024).unwrap();
        assert_eq!(pool.placement(id2).unwrap().offset, 0);
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut pool, dev) = pool_with_capacity(1024);
        pool.alloc(dev, 1000).unwrap();
        let err = pool.alloc(dev, 100).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { free: 24, .. }));
    }

    #[test]
    fn zero_size_rejected() {
        let (mut pool, dev) = pool_with_capacity(1024);
        assert_eq!(pool.alloc(dev, 0).unwrap_err(), AllocError::ZeroSize);
    }

    #[test]
    fn double_free_is_an_error() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 64).unwrap();
        pool.free(id).unwrap();
        assert_eq!(pool.free(id).unwrap_err(), AllocError::UnknownRegion(id));
    }

    #[test]
    fn buffers_are_zero_initialized_and_writable() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 16).unwrap();
        assert_eq!(read(&pool, id, 0, 16), [0; 16]);
        pool.write_at(id, 0, &[0xAB]).unwrap();
        assert_eq!(read(&pool, id, 0, 2), [0xAB, 0]);
    }

    #[test]
    fn freeing_middle_block_coalesces() {
        let (mut pool, dev) = pool_with_capacity(300);
        let a = pool.alloc(dev, 100).unwrap();
        let b = pool.alloc(dev, 100).unwrap();
        let c = pool.alloc(dev, 100).unwrap();
        pool.free(a).unwrap();
        pool.free(c).unwrap();
        // Free list: [0,100) and [200,300) → fragmented.
        assert!(pool.fragmentation(dev) > 0.0);
        pool.free(b).unwrap();
        // Fully coalesced again.
        assert_eq!(pool.fragmentation(dev), 0.0);
        let big = pool.alloc(dev, 300).unwrap();
        assert_eq!(pool.placement(big).unwrap().offset, 0);
    }

    #[test]
    fn fragmentation_blocks_large_allocations_even_with_enough_total_free() {
        let (mut pool, dev) = pool_with_capacity(300);
        let a = pool.alloc(dev, 100).unwrap();
        let _b = pool.alloc(dev, 100).unwrap();
        let c = pool.alloc(dev, 100).unwrap();
        pool.free(a).unwrap();
        pool.free(c).unwrap();
        // 200 bytes free but no contiguous 150-byte extent.
        let err = pool.alloc(dev, 150).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { free: 200, .. }));
    }

    #[test]
    fn rebind_moves_between_devices_preserving_contents() {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1024));
        let d1 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Pmem, 1024));
        b.link(cpu, d0, LinkKind::MemBus);
        b.link(cpu, d1, LinkKind::MemBus);
        let topo = b.build().unwrap();
        let mut pool = MemoryPool::new(&topo);

        let id = pool.alloc(d0, 64).unwrap();
        pool.write_at(id, 7, &[42]).unwrap();
        let new = pool.rebind(id, d1).unwrap();
        assert_eq!(new.dev, d1);
        assert_eq!(pool.allocated(d0), 0);
        assert_eq!(pool.allocated(d1), 64);
        assert_eq!(read(&pool, id, 7, 1), [42]);
    }

    #[test]
    fn rebind_to_same_device_is_a_no_op() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let id = pool.alloc(dev, 64).unwrap();
        let before = pool.placement(id).unwrap();
        let after = pool.rebind(id, dev).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn rebind_fails_when_target_is_full_and_keeps_origin() {
        let mut b = Topology::builder();
        let n = b.node("host");
        let cpu = b.compute(n, ComputeModel::preset(ComputeKind::Cpu));
        let d0 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Dram, 1024));
        let d1 = b.mem(n, MemDeviceModel::preset_with_capacity(MemDeviceKind::Pmem, 32));
        b.link(cpu, d0, LinkKind::MemBus);
        b.link(cpu, d1, LinkKind::MemBus);
        let topo = b.build().unwrap();
        let mut pool = MemoryPool::new(&topo);

        let id = pool.alloc(d0, 64).unwrap();
        assert!(pool.rebind(id, d1).is_err());
        assert_eq!(pool.placement(id).unwrap().dev, d0);
        assert_eq!(pool.allocated(d0), 64);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let a = pool.alloc(dev, 400).unwrap();
        let b = pool.alloc(dev, 400).unwrap();
        pool.free(a).unwrap();
        pool.free(b).unwrap();
        assert_eq!(pool.peak(dev), 800);
        assert_eq!(pool.allocated(dev), 0);
    }

    #[test]
    fn utilization_reflects_allocated_fraction() {
        let (mut pool, dev) = pool_with_capacity(1000);
        pool.alloc(dev, 250).unwrap();
        assert!((pool.utilization(dev) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn live_iterates_all_allocations() {
        let (mut pool, dev) = pool_with_capacity(1024);
        let a = pool.alloc(dev, 10).unwrap();
        let b = pool.alloc(dev, 20).unwrap();
        let mut ids: Vec<RegionId> = pool.live().map(|(id, _)| id).collect();
        ids.sort();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(pool.live_count(), 2);
    }

    #[test]
    fn huge_regions_cost_nothing_until_written() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let id = pool.alloc(dev, 512 << 20).unwrap();
        assert!(pool.slot(id).unwrap().pages.is_empty());
        // Offset I/O works anywhere, and unwritten bytes read zero.
        pool.write_at(id, 400 << 20, b"far out").unwrap();
        assert_eq!(read(&pool, id, 400 << 20, 7), b"far out");
        assert_eq!(read(&pool, id, 100 << 20, 4), [0; 4]);
    }

    #[test]
    fn a_region_ending_mid_page_holds_a_short_last_page() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let id = pool.alloc(dev, PAGE_SIZE + 100).unwrap();
        pool.write_at(id, PAGE_SIZE, &[1]).unwrap();
        let pages = &pool.slot(id).unwrap().pages;
        assert!(pages[0].is_none(), "an unwritten page stays the zero page");
        assert_eq!(pages[1].as_ref().map(|p| p.len()), Some(100));
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn access_past_the_end_panics() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let id = pool.alloc(dev, 100).unwrap();
        pool.write_at(id, 98, &[1, 2, 3]).unwrap();
    }

    #[test]
    fn sparse_writes_spanning_page_boundaries_round_trip() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let id = pool.alloc(dev, 512 << 20).unwrap();
        // 64 KiB pages: straddle the boundary at page 1.
        let off = (64 << 10) - 3;
        let payload: Vec<u8> = (0..9).collect();
        pool.write_at(id, off, &payload).unwrap();
        assert_eq!(read(&pool, id, off, 9), payload);
    }

    #[test]
    fn copy_between_rejects_unknown_regions() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let a = pool.alloc(dev, 4096).unwrap();
        assert!(pool.copy_between(RegionId(999), a, 1).is_err());
        assert!(pool.copy_between(a, RegionId(999), 1).is_err());
    }

    const PAGE: usize = PAGE_SIZE as usize;

    fn read(pool: &MemoryPool, id: RegionId, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0xEE; len];
        pool.read_at(id, offset, &mut buf).unwrap();
        buf
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn copies_share_pages_until_either_side_writes() {
        let (mut pool, dev) = pool_with_capacity(1 << 24);
        let len = 3 * PAGE;
        let a = pool.alloc(dev, len as u64).unwrap();
        let b = pool.alloc(dev, len as u64).unwrap();
        let data = pattern(len, 1);
        pool.write_at(a, 0, &data).unwrap();
        pool.copy_between(a, b, len as u64).unwrap();
        assert_eq!(pool.bytes_copied(), 0, "whole pages are shared");
        assert_eq!(read(&pool, b, 0, len), data);

        // Writing the destination leaves the source alone…
        pool.write_at(b, 10, b"dst").unwrap();
        assert_eq!(read(&pool, a, 0, len), data);
        assert_eq!(read(&pool, b, 10, 3), b"dst");
        assert_eq!(pool.bytes_copied(), PAGE_SIZE, "one copy-on-write fault");
        // …and writing the source leaves the destination alone.
        pool.write_at(a, PAGE as u64 + 5, b"src").unwrap();
        assert_eq!(read(&pool, b, PAGE as u64, PAGE), data[PAGE..2 * PAGE]);
        assert_eq!(read(&pool, a, PAGE as u64 + 5, 3), b"src");
        assert_eq!(pool.bytes_copied(), 2 * PAGE_SIZE);
        // A page written again after its fault is private: no more copies.
        pool.write_at(b, 20, b"again").unwrap();
        assert_eq!(pool.bytes_copied(), 2 * PAGE_SIZE);
    }

    #[test]
    fn unaligned_copies_memcpy_only_the_tail_page() {
        let (mut pool, dev) = pool_with_capacity(1 << 24);
        let len = 2 * PAGE + 1000;
        let a = pool.alloc(dev, len as u64).unwrap();
        // A larger destination keeps its bytes beyond the copied range.
        let b = pool.alloc(dev, (4 * PAGE) as u64).unwrap();
        let data = pattern(len, 7);
        pool.write_at(a, 0, &data).unwrap();
        pool.write_at(b, 0, &pattern(4 * PAGE, 9)).unwrap();
        pool.copy_between(a, b, len as u64).unwrap();
        assert_eq!(pool.bytes_copied(), 1000);
        assert_eq!(read(&pool, b, 0, len), data);
        assert_eq!(read(&pool, b, len as u64, 4 * PAGE - len), pattern(4 * PAGE, 9)[len..]);
        // The tail page is the destination's own: writing it copies nothing.
        pool.write_at(b, len as u64 - 1, &[0]).unwrap();
        assert_eq!(pool.bytes_copied(), 1000);
        assert_eq!(read(&pool, a, len as u64 - 1, 1), [data[len - 1]]);
    }

    #[test]
    fn never_written_source_copies_zeros_in_constant_time() {
        let (mut pool, dev) = pool_with_capacity(1 << 30);
        let big = 128 << 20;
        let a = pool.alloc(dev, big).unwrap();
        let b = pool.alloc(dev, big).unwrap();
        pool.copy_between(a, b, big).unwrap();
        assert!(pool.slot(b).unwrap().pages.is_empty(), "no table materialised");
        assert_eq!(pool.bytes_copied(), 0);

        // Into a written destination, the copied range reads zero again.
        let len = PAGE + 100;
        let src = pool.alloc(dev, len as u64).unwrap();
        let dst = pool.alloc(dev, (2 * PAGE) as u64).unwrap();
        pool.write_at(dst, 0, &[0xFF; 2 * PAGE]).unwrap();
        pool.copy_between(src, dst, len as u64).unwrap();
        assert_eq!(read(&pool, dst, 0, len), vec![0; len]);
        assert_eq!(read(&pool, dst, len as u64, PAGE - 100), vec![0xFF; PAGE - 100]);
    }

    #[test]
    fn freeing_one_sharer_keeps_the_others_pages() {
        let (mut pool, dev) = pool_with_capacity(1 << 24);
        let len = 2 * PAGE;
        let a = pool.alloc(dev, len as u64).unwrap();
        let b = pool.alloc(dev, len as u64).unwrap();
        let data = pattern(len, 3);
        pool.write_at(a, 0, &data).unwrap();
        pool.copy_between(a, b, len as u64).unwrap();
        pool.free(a).unwrap();
        assert_eq!(read(&pool, b, 0, len), data);
        // The survivor is the pages' only holder: writing copies nothing.
        pool.write_at(b, 0, b"mine").unwrap();
        assert_eq!(pool.bytes_copied(), 0);
    }

    #[test]
    fn copying_a_region_onto_itself_is_a_no_op() {
        let (mut pool, dev) = pool_with_capacity(1 << 20);
        let a = pool.alloc(dev, 300).unwrap();
        pool.write_at(a, 0, &[4; 300]).unwrap();
        pool.copy_between(a, a, 300).unwrap();
        assert_eq!(read(&pool, a, 0, 300), [4; 300]);
    }
}
