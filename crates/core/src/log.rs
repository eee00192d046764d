//! Log-structured data pools and the overall NVM layout.
//!
//! Objects are allocated strictly append-only (out-of-place updates), which
//! gives the paper's two properties for free: remote writes never overwrite
//! live data (atomic update), and superseded versions remain available for
//! recovery until log cleaning reclaims them (§4.2.1).
//!
//! The registered NVM region is laid out as:
//!
//! ```text
//! [ hash table | data pool A | data pool B ]
//! ```
//!
//! Pool B exists for log cleaning (the "new data pool"); deployments that
//! disable cleaning can size it to zero. One memory registration covers the
//! whole region — the paper registers the hash table and data pool at
//! initialization and registers the new pool when cleaning starts; with a
//! single MR covering both pools that re-registration is a no-op here.

use std::sync::atomic::{AtomicU64, Ordering};

use efactory_pmem::PmemPool;

use crate::hashtable::HashTable;
use crate::layout::{object_size, value_intact, ObjHeader, MAX_KLEN, MAX_VLEN};

/// An append-only allocation region inside the pool.
#[derive(Debug)]
pub struct LogRegion {
    base: usize,
    len: usize,
    /// Next free absolute offset.
    head: AtomicU64,
}

impl LogRegion {
    /// Region covering `[base, base+len)`.
    pub fn new(base: usize, len: usize) -> Self {
        assert_eq!(base % 8, 0);
        LogRegion {
            base,
            len,
            head: AtomicU64::new(base as u64),
        }
    }

    /// First byte of the region.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Region capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region has zero capacity (cleaning disabled).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Next free absolute offset.
    pub fn head(&self) -> usize {
        self.head.load(Ordering::Relaxed) as usize
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.head() - self.base
    }

    /// Fraction of the region consumed.
    pub fn fill_frac(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.used() as f64 / self.len as f64
        }
    }

    /// Whether `off` lies inside this region.
    pub fn contains(&self, off: usize) -> bool {
        off >= self.base && off < self.base + self.len
    }

    /// Allocate `size` bytes (must be 8-aligned). Returns the absolute
    /// offset, or `None` when the region is full.
    pub fn alloc(&self, size: usize) -> Option<usize> {
        assert_eq!(size % 8, 0, "allocations must be 8-byte aligned");
        let off = self.head.fetch_add(size as u64, Ordering::Relaxed) as usize;
        if off + size <= self.base + self.len {
            Some(off)
        } else {
            // Roll back so `used()` stays meaningful.
            self.head.fetch_sub(size as u64, Ordering::Relaxed);
            None
        }
    }

    /// Reset to empty (after log cleaning zeroes the region, or at format).
    pub fn reset(&self) {
        self.head.store(self.base as u64, Ordering::Relaxed);
    }

    /// Force the head (recovery, after a scan established the real end).
    pub fn set_head(&self, head: usize) {
        assert!(head >= self.base && head <= self.base + self.len);
        self.head.store(head as u64, Ordering::Relaxed);
    }

    /// Walk object offsets from `base` by following header sizes, over the
    /// whole region (recovery does not know the head yet), and return the
    /// rebuilt head.
    ///
    /// While the cleaner's merge phase is in flight, the handler and the
    /// cleaner allocate from the same region, so a crash can leave a *hole*
    /// mid-log: a torn client write whose header never reached media, with
    /// fully-persisted relocations (and decide-path commit records) sitting
    /// above it. A scan that stopped at the first implausible header would
    /// silently drop everything past the hole, so after losing the size
    /// chain this scan re-synchronizes: it strides forward 8 bytes at a
    /// time until it finds a header whose sizes are sane *and* whose value
    /// CRC verifies, then resumes the normal size walk from there. The CRC
    /// requirement keeps value bytes inside the hole from aliasing as
    /// headers.
    pub fn scan_for_recovery(&self, pool: &PmemPool) -> (Vec<usize>, usize) {
        self.scan_tolerant(pool, self.base + self.len)
    }

    /// Walk object offsets from `base` to `head`, the boundary the cleaner
    /// snapshots before scanning (the handler keeps appending behind it).
    /// Hole-tolerant, for a pool that has been through a mid-clean crash
    /// recovery: such a pool can hold holes *below* its rebuilt head (the
    /// crashed pass's reserved-but-never-written terminal record slot, a
    /// torn client write under persisted relocations); a scan that stopped
    /// at the first hole would relocate nothing, and the finish pass would
    /// then drop every key anchored above it. Same resync rule as
    /// [`scan_for_recovery`](Self::scan_for_recovery).
    pub fn scan_until_tolerant(&self, pool: &PmemPool, head: usize) -> Vec<usize> {
        self.scan_tolerant(pool, head).0
    }

    fn scan_tolerant(&self, pool: &PmemPool, end: usize) -> (Vec<usize>, usize) {
        let mut offs = Vec::new();
        let mut cur = self.base;
        let mut head = self.base;
        let mut synced = true;
        // A crash leaves at most one in-flight unpersisted object per
        // allocator (handler + cleaner), so a genuine hole is bounded by a
        // few max-sized objects. Past that, the blank space is the
        // unwritten tail and the scan is done.
        let max_hole = 4 * object_size(MAX_KLEN, MAX_VLEN);
        let mut strided = 0usize;
        while cur + crate::layout::HDR_LEN <= end {
            let hdr = ObjHeader::read_from(pool, cur);
            let blank = hdr.klen == 0 && hdr.vlen == 0;
            let plausible = !blank && hdr.plausible() && cur + hdr.object_size() <= end;
            if synced && plausible {
                // In sync: trust the size chain (a torn *value* is still
                // walkable — intactness is judged later, per candidate).
                offs.push(cur);
                cur += hdr.object_size();
                head = cur;
            } else if !synced
                && plausible
                && hdr.has(crate::layout::flags::VALID)
                && hdr.has(crate::layout::flags::DURABLE)
                && value_intact(pool, cur, &hdr)
            {
                // Re-synchronized on a verified object past the hole.
                synced = true;
                strided = 0;
                offs.push(cur);
                cur += hdr.object_size();
                head = cur;
            } else {
                // Lost the chain: torn header or unwritten space.
                synced = false;
                strided += 8;
                if strided > max_hole {
                    break;
                }
                cur += 8;
            }
        }
        (offs, head)
    }
}

/// Geometry of the registered NVM region.
#[derive(Debug, Clone, Copy)]
pub struct StoreLayout {
    /// Hash-table base offset (always 0).
    pub ht_base: usize,
    /// Hash-table bucket count.
    pub ht_buckets: usize,
    /// Data pool A: `(base, len)`.
    pub pool_a: (usize, usize),
    /// Data pool B: `(base, len)`; `len == 0` when cleaning is disabled.
    pub pool_b: (usize, usize),
}

impl StoreLayout {
    /// Compute a layout. `pool_len` is the per-pool capacity; pass
    /// `two_pools = false` to elide pool B.
    pub fn new(ht_buckets: usize, pool_len: usize, two_pools: bool) -> Self {
        let ht_len = HashTable::region_len(ht_buckets);
        let a_base = ht_len.div_ceil(64) * 64;
        let pool_len = pool_len.div_ceil(64) * 64;
        let b_base = a_base + pool_len;
        StoreLayout {
            ht_base: 0,
            ht_buckets,
            pool_a: (a_base, pool_len),
            pool_b: (b_base, if two_pools { pool_len } else { 0 }),
        }
    }

    /// Total bytes of NVM the layout needs.
    pub fn total_len(&self) -> usize {
        self.pool_b.0 + self.pool_b.1
    }

    /// The hash-table view.
    pub fn hashtable(&self) -> HashTable {
        HashTable::new(self.ht_base, self.ht_buckets)
    }

    /// Build the two log regions.
    pub fn regions(&self) -> [LogRegion; 2] {
        [
            LogRegion::new(self.pool_a.0, self.pool_a.1),
            LogRegion::new(self.pool_b.0, self.pool_b.1),
        ]
    }

    /// Size a layout for a workload: `keys` distinct keys, `updates` total
    /// PUTs of `klen`/`vlen`-sized records, with `slack` multiplicative
    /// headroom.
    pub fn for_workload(
        keys: usize,
        updates: usize,
        klen: usize,
        vlen: usize,
        slack: f64,
        two_pools: bool,
    ) -> Self {
        let obj = object_size(klen, vlen);
        let need = (keys + updates) * obj;
        let pool_len = ((need as f64 * slack) as usize).max(64 * 1024);
        // Fill factor ≤ 0.25: linear probing within an NPROBE window must
        // essentially never exhaust it. That holds to ~10^5 keys, but the
        // expected count of full 16-bucket windows scales linearly with
        // table size (probe-run clustering on top of ρ^NPROBE), and at a
        // million keys a 0.25-fill table does overflow in practice — so
        // large tables halve the fill again. The threshold leaves every
        // paper-scale layout (≤64K keys) byte-identical.
        let per_key = if keys >= 256 * 1024 { 8 } else { 4 };
        let buckets = (keys * per_key).max(crate::hashtable::NPROBE * 8);
        Self::new(buckets, pool_len, two_pools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{flags, HDR_LEN, NIL};

    #[test]
    fn alloc_bumps_and_respects_capacity() {
        let r = LogRegion::new(64, 256);
        assert_eq!(r.alloc(64), Some(64));
        assert_eq!(r.alloc(128), Some(128));
        assert_eq!(r.used(), 192);
        assert_eq!(r.alloc(128), None, "would exceed capacity");
        assert_eq!(r.used(), 192, "failed alloc must roll back");
        assert_eq!(r.alloc(64), Some(256));
        assert!((r.fill_frac() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn unaligned_alloc_panics() {
        LogRegion::new(0, 256).alloc(33);
    }

    #[test]
    fn scan_walks_written_objects() {
        let pool = PmemPool::new(1 << 16);
        let r = LogRegion::new(0, 1 << 16);
        let mut expect = Vec::new();
        for i in 0..10u32 {
            let klen = 8;
            let vlen = 16 + i * 8;
            let size = object_size(klen, vlen as usize);
            let off = r.alloc(size).unwrap();
            let hdr = ObjHeader {
                klen: klen as u16,
                vlen,
                flags: flags::VALID,
                pre_ptr: NIL,
                next_ptr: NIL,
                crc: 0,
                seq: i,
                alloc_time: 0,
            };
            hdr.write_to(&pool, off);
            expect.push(off);
        }
        assert_eq!(r.scan_until_tolerant(&pool, r.head()), expect);
    }

    #[test]
    fn scan_stops_at_unwritten_space() {
        let pool = PmemPool::new(4096);
        let r = LogRegion::new(0, 4096);
        let off = r.alloc(object_size(8, 8)).unwrap();
        ObjHeader {
            klen: 8,
            vlen: 8,
            flags: flags::VALID,
            pre_ptr: NIL,
            next_ptr: NIL,
            crc: 0,
            seq: 0,
            alloc_time: 0,
        }
        .write_to(&pool, off);
        // Allocated (head moved) but never written: the scan finds only
        // the first object.
        r.alloc(object_size(8, 8)).unwrap();
        assert_eq!(r.scan_until_tolerant(&pool, r.head()).len(), 1);
    }

    #[test]
    fn recovery_scan_rebuilds_head_and_rejects_garbage() {
        let pool = PmemPool::new(1 << 14);
        let r = LogRegion::new(0, 1 << 14);
        let size = object_size(8, 32);
        for i in 0..5u32 {
            let off = r.alloc(size).unwrap();
            ObjHeader {
                klen: 8,
                vlen: 32,
                flags: flags::VALID,
                pre_ptr: NIL,
                next_ptr: NIL,
                crc: 0,
                seq: i,
                alloc_time: 0,
            }
            .write_to(&pool, off);
        }
        let end = r.head();
        // Write garbage beyond the log end: implausible klen.
        pool.write_u64(end, u64::MAX);
        let fresh = LogRegion::new(0, 1 << 14);
        let (objs, head) = fresh.scan_for_recovery(&pool);
        assert_eq!(objs.len(), 5);
        assert_eq!(head, end);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let l = StoreLayout::new(1024, 1 << 20, true);
        let ht_end = HashTable::region_len(1024);
        assert!(l.pool_a.0 >= ht_end);
        assert_eq!(l.pool_b.0, l.pool_a.0 + l.pool_a.1);
        assert_eq!(l.total_len(), l.pool_b.0 + l.pool_b.1);
        let [a, b] = l.regions();
        assert!(!a.contains(b.base()));
        assert!(!a.is_empty() && !b.is_empty());
    }

    #[test]
    fn single_pool_layout_has_empty_pool_b() {
        let l = StoreLayout::new(1024, 1 << 20, false);
        let [_, b] = l.regions();
        assert!(b.is_empty());
        assert_eq!(l.total_len(), l.pool_a.0 + l.pool_a.1);
    }

    #[test]
    fn workload_sizing_fits_the_workload() {
        let l = StoreLayout::for_workload(1000, 10_000, 32, 1024, 1.2, true);
        let [a, _] = l.regions();
        assert!(a.len() >= 11_000 * object_size(32, 1024));
        assert!(l.ht_buckets >= 2000);
    }

    #[test]
    fn workload_sizing_widens_million_key_tables() {
        // Paper-scale layouts keep the historical 0.25 fill exactly (any
        // change would shift pool offsets and re-time every committed
        // baseline); the scale sweep's million-key tables get 0.125 so
        // NPROBE windows survive probe-run clustering.
        let small = StoreLayout::for_workload(100_000, 0, 32, 64, 1.3, false);
        assert_eq!(small.ht_buckets, 400_000);
        let large = StoreLayout::for_workload(1_000_000, 0, 32, 64, 1.3, false);
        assert_eq!(large.ht_buckets, 8_000_000);
    }

    #[test]
    fn header_len_constant_matches_layout() {
        assert_eq!(HDR_LEN, 40);
    }
}
