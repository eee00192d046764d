//! Property-based tests over the core on-NVM data structures.

use efactory::hashtable::{find_in_window, fingerprint, Ctl, HashTable, BUCKET_LEN, NPROBE};
use efactory::layout::{self, flags, ObjHeader, NIL};
use efactory::log::{LogRegion, StoreLayout};
use efactory_pmem::PmemPool;
use proptest::prelude::*;

proptest! {
    /// Header encode/decode is the identity for arbitrary field values.
    #[test]
    fn header_roundtrips_arbitrary_fields(
        klen in any::<u16>(),
        vlen in any::<u32>(),
        fl in any::<u8>(),
        pre in any::<u64>(),
        next in any::<u64>(),
        crc in any::<u32>(),
        seq in any::<u32>(),
        t in any::<u64>(),
    ) {
        let hdr = ObjHeader {
            klen, vlen, flags: fl, pre_ptr: pre, next_ptr: next, crc, seq, alloc_time: t,
        };
        let pool = PmemPool::new(256);
        hdr.write_to(&pool, 0);
        prop_assert_eq!(ObjHeader::read_from(&pool, 0), hdr);
        let mut raw = vec![0u8; layout::HDR_LEN];
        pool.read(0, &mut raw);
        prop_assert_eq!(ObjHeader::decode(&raw), Some(hdr));
    }

    /// Flag updates touch flags only, for arbitrary set/clear masks.
    #[test]
    fn flag_updates_preserve_sizes(
        klen in any::<u16>(),
        vlen in any::<u32>(),
        initial in any::<u8>(),
        set in any::<u8>(),
        clear in any::<u8>(),
    ) {
        let pool = PmemPool::new(256);
        let hdr = ObjHeader {
            klen, vlen, flags: initial,
            pre_ptr: NIL, next_ptr: NIL, crc: 0, seq: 0, alloc_time: 0,
        };
        hdr.write_to(&pool, 0);
        layout::update_flags(&pool, 0, set, clear);
        let h2 = ObjHeader::read_from(&pool, 0);
        prop_assert_eq!(h2.klen, klen);
        prop_assert_eq!(h2.vlen, vlen);
        prop_assert_eq!(h2.flags, (initial & !clear) | set);
    }

    /// Insert-then-lookup works for any set of distinct keys that fits the
    /// table, and window scans agree with server-side lookups.
    #[test]
    fn hashtable_lookup_agrees_with_window_scan(
        keys in proptest::collection::hash_set("[a-z]{1,12}", 1..40),
    ) {
        let buckets = 512;
        let pool = PmemPool::new(HashTable::region_len(buckets));
        let ht = HashTable::new(0, buckets);
        let keys: Vec<String> = keys.into_iter().collect();
        for (i, k) in keys.iter().enumerate() {
            let fp = fingerprint(k.as_bytes());
            let (idx, _) = ht.lookup_or_claim(&pool, fp).expect("claim");
            ht.set_slot(&pool, idx, 0, (i as u64 + 1) * 64);
            ht.set_sizes(&pool, idx, k.len() as u16, i as u32);
            ht.set_ctl(&pool, idx, Ctl::default().bumped());
        }
        for (i, k) in keys.iter().enumerate() {
            let fp = fingerprint(k.as_bytes());
            let (idx, e) = ht.lookup(&pool, fp).expect("must find");
            prop_assert_eq!(e.current(), (i as u64 + 1) * 64);
            prop_assert_eq!(e.vlen, i as u32);
            // Client-side: the one-shot window read sees the same entry.
            let home = ht.home(fp);
            let mut window = vec![0u8; NPROBE * BUCKET_LEN];
            pool.read(ht.entry_off(home), &mut window);
            let (rel, e2) = find_in_window(&window, fp).expect("window hit");
            prop_assert_eq!(home + rel, idx);
            prop_assert_eq!(e2, e);
        }
    }

    /// A log full of arbitrary-size objects scans back exactly, and the
    /// recovery scan rebuilds the same head.
    #[test]
    fn log_scan_reconstructs_arbitrary_objects(
        sizes in proptest::collection::vec((1usize..40, 0usize..300), 1..25),
    ) {
        let pool = PmemPool::new(1 << 16);
        let region = LogRegion::new(0, 1 << 16);
        let mut expect = Vec::new();
        for (i, &(klen, vlen)) in sizes.iter().enumerate() {
            let size = layout::object_size(klen, vlen);
            let Some(off) = region.alloc(size) else { break };
            ObjHeader {
                klen: klen as u16,
                vlen: vlen as u32,
                flags: flags::VALID,
                pre_ptr: NIL,
                next_ptr: NIL,
                crc: 0,
                seq: i as u32,
                alloc_time: 0,
            }
            .write_to(&pool, off);
            expect.push(off);
        }
        prop_assert_eq!(region.scan_until_tolerant(&pool, region.head()), expect.clone());
        let fresh = LogRegion::new(0, 1 << 16);
        let (objs, head) = fresh.scan_for_recovery(&pool);
        prop_assert_eq!(objs, expect);
        prop_assert_eq!(head, region.head());
    }

    /// Layout geometry invariants hold for arbitrary parameters.
    #[test]
    fn layout_geometry_invariants(
        buckets in 32usize..4096,
        pool_len in 1usize..(8 << 20),
        two in any::<bool>(),
    ) {
        let buckets = buckets.max(NPROBE + 1);
        let l = StoreLayout::new(buckets, pool_len, two);
        // Regions are ordered, 64-aligned, and non-overlapping.
        prop_assert!(l.pool_a.0 >= HashTable::region_len(buckets));
        prop_assert_eq!(l.pool_a.0 % 64, 0);
        prop_assert_eq!(l.pool_a.1 % 64, 0);
        prop_assert_eq!(l.pool_b.0, l.pool_a.0 + l.pool_a.1);
        prop_assert_eq!(l.total_len(), l.pool_b.0 + l.pool_b.1);
        if !two {
            prop_assert_eq!(l.pool_b.1, 0);
        }
        // The pool can actually be constructed at this size.
        let pool = PmemPool::new(l.total_len());
        prop_assert!(pool.len() >= l.total_len());
    }

    /// Fingerprints are stable and non-zero for arbitrary keys.
    #[test]
    fn fingerprint_stable_nonzero(key in proptest::collection::vec(any::<u8>(), 0..64)) {
        let fp = fingerprint(&key);
        prop_assert_ne!(fp, 0);
        prop_assert_eq!(fp, fingerprint(&key));
    }
}
