//! On-NVM object layout (paper Figure 4).
//!
//! Every object is stored in the log-structured data pool as:
//!
//! ```text
//! ┌──────────── 40-byte header (five 8-byte words) ────────────┐
//! │ w0: klen:u16 | vlen:u32 | flags:u8 | pad:u8                │
//! │ w1: pre_ptr  — absolute pool offset of the previous        │
//! │     version (NIL if none)                                  │
//! │ w2: next_ptr — absolute pool offset of the next (newer)    │
//! │     version (maintained for log cleaning)                  │
//! │ w3: crc:u32 | seq:u32                                      │
//! │ w4: alloc_time — virtual ns, for the verifier timeout      │
//! ├────────────────────────────────────────────────────────────┤
//! │ key bytes, zero-padded to 8                                │
//! │ value bytes, zero-padded to 8                              │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! This merges the paper's "object" (key, value, durability flag) and its
//! colocated "object metadata" (vlen, PrePTR, NextPTR, valid, Trans, CRC) —
//! the colocated variant is the one the authors implemented (§4.2.2).
//!
//! The **durability flag** lives in the flags byte of word 0, so a client
//! that fetches the whole object with a single RDMA read gets the flag for
//! free (the key of the hybrid read scheme). Flag updates rewrite word 0
//! in full — an 8-byte atomic store, the NVM failure-atomicity unit.
//!
//! This module is the one home of the format: besides the header codec it
//! holds the read check a client runs on fetched bytes ([`Fetched`]), the
//! value-CRC check on pool or fetched bytes ([`value_intact`],
//! [`ObjHeader::intact_in`]), the header plausibility bound
//! ([`ObjHeader::plausible`]), and the codec of the unlinked, CRC-protected
//! records recovery scans for ([`write_record`] / [`read_record`]).

use efactory_checksum::crc32c;
use efactory_pmem::PmemPool;

/// "No version" marker for `pre_ptr` / `next_ptr`.
pub const NIL: u64 = u64::MAX;

/// Header length in bytes.
pub const HDR_LEN: usize = 40;

/// Sanity bound on a key's length when scanning or validating a log
/// object's header (recovery, cleaning, scrubbing, mirroring).
pub const MAX_KLEN: usize = 256;

/// Sanity bound on a value's length, for the same header checks.
pub const MAX_VLEN: usize = 16 << 20;

/// Object flag bits (in word 0).
pub mod flags {
    /// The version is live (cleared when the verifier times an object out).
    pub const VALID: u8 = 1 << 0;
    /// The object (value + metadata) is fully persisted in NVM.
    pub const DURABLE: u8 = 1 << 1;
    /// A delete marker: `vlen == 0` and the key is logically absent.
    pub const TOMBSTONE: u8 = 1 << 2;
    /// The previous version of this object has been relocated to the other
    /// pool by log cleaning (paper's `Trans` identifier).
    pub const TRANS: u8 = 1 << 3;
    /// The scrubber found this (durable) object bit-rotted and could not
    /// repair it: the version is dead (VALID is cleared alongside) and the
    /// flag records *why* for diagnostics. Reads fall through to the
    /// previous version; cleaning reclaims the space.
    pub const QUARANTINED: u8 = 1 << 4;
    /// Staged by an in-doubt transaction: the version is fully persisted
    /// and linked into its chain but not yet published. Readers skip it
    /// (or wait, for snapshot reads); writers back off. Publish clears the
    /// bit in a single word-0 store; recovery clears it iff a durable
    /// commit record names the object, else the version is dead.
    pub const PENDING: u8 = 1 << 5;
}

/// Round `n` up to a multiple of 8 (layout padding).
#[inline]
pub const fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Total on-pool size of an object with the given key/value lengths.
#[inline]
pub const fn object_size(klen: usize, vlen: usize) -> usize {
    HDR_LEN + pad8(klen) + pad8(vlen)
}

/// A decoded object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjHeader {
    /// Key length in bytes.
    pub klen: u16,
    /// Value length in bytes (0 for tombstones).
    pub vlen: u32,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Absolute pool offset of the previous version ([`NIL`] if none).
    pub pre_ptr: u64,
    /// Absolute pool offset of the next (newer) version ([`NIL`] if none).
    pub next_ptr: u64,
    /// CRC32C of the value bytes.
    pub crc: u32,
    /// Monotonic per-key version sequence (diagnostics).
    pub seq: u32,
    /// Virtual time the server allocated this object (verifier timeout).
    pub alloc_time: u64,
}

impl ObjHeader {
    /// Flag check helper.
    #[inline]
    pub fn has(&self, bit: u8) -> bool {
        self.flags & bit != 0
    }

    /// Size of the whole object on the pool.
    #[inline]
    pub fn object_size(&self) -> usize {
        object_size(self.klen as usize, self.vlen as usize)
    }

    /// Whether the sizes are within [`MAX_KLEN`] / [`MAX_VLEN`], so the
    /// header can be trusted to size the object it heads.
    #[inline]
    pub fn plausible(&self) -> bool {
        self.klen as usize <= MAX_KLEN && self.vlen as usize <= MAX_VLEN
    }

    /// Offset of the key relative to the object start.
    #[inline]
    pub fn key_off(&self) -> usize {
        HDR_LEN
    }

    /// Offset of the value relative to the object start.
    #[inline]
    pub fn value_off(&self) -> usize {
        HDR_LEN + pad8(self.klen as usize)
    }

    /// The value bytes of `obj`, the whole object this header heads.
    #[inline]
    pub fn value_in<'a>(&self, obj: &'a [u8]) -> &'a [u8] {
        &obj[self.value_off()..self.value_off() + self.vlen as usize]
    }

    /// Whether the value bytes of `obj`, the whole object this header heads
    /// (as fetched with one RDMA read), match its CRC. Pure computation:
    /// callers charge the CRC themselves.
    pub fn intact_in(&self, obj: &[u8]) -> bool {
        crc32c(self.value_in(obj)) == self.crc
    }

    /// Pack word 0 (sizes + flags).
    #[inline]
    pub fn word0(&self) -> u64 {
        (self.klen as u64) | ((self.vlen as u64) << 16) | ((self.flags as u64) << 48)
    }

    /// Unpack word 0.
    #[inline]
    pub fn from_word0(w: u64) -> (u16, u32, u8) {
        (w as u16, (w >> 16) as u32, (w >> 48) as u8)
    }

    /// Write the full header at absolute pool offset `off` (working image;
    /// caller decides what to flush).
    pub fn write_to(&self, pool: &PmemPool, off: usize) {
        pool.write_u64(off, self.word0());
        pool.write_u64(off + 8, self.pre_ptr);
        pool.write_u64(off + 16, self.next_ptr);
        pool.write_u64(off + 24, (self.crc as u64) | ((self.seq as u64) << 32));
        pool.write_u64(off + 32, self.alloc_time);
    }

    /// Read a header from absolute pool offset `off`.
    pub fn read_from(pool: &PmemPool, off: usize) -> ObjHeader {
        let mut buf = [0u8; HDR_LEN];
        pool.read(off, &mut buf);
        Self::decode(&buf).expect("a whole header")
    }

    /// Decode a header from a raw byte slice (what a client sees after an
    /// RDMA read of the object).
    pub fn decode(buf: &[u8]) -> Option<ObjHeader> {
        if buf.len() < HDR_LEN {
            return None;
        }
        let w = |i: usize| u64::from_le_bytes(buf[i * 8..(i + 1) * 8].try_into().unwrap());
        let (klen, vlen, flags) = Self::from_word0(w(0));
        Some(ObjHeader {
            klen,
            vlen,
            flags,
            pre_ptr: w(1),
            next_ptr: w(2),
            crc: w(3) as u32,
            seq: (w(3) >> 32) as u32,
            alloc_time: w(4),
        })
    }
}

/// Atomically update the flags byte of the object at `off` (read-modify-
/// write of word 0; single 8-byte store).
pub fn update_flags(pool: &PmemPool, off: usize, set: u8, clear: u8) {
    let w0 = pool.read_u64(off);
    let (klen, vlen, flags) = ObjHeader::from_word0(w0);
    let new_flags = (flags & !clear) | set;
    let new_w0 = (klen as u64) | ((vlen as u64) << 16) | ((new_flags as u64) << 48);
    pool.write_u64(off, new_w0);
}

/// Set `next_ptr` (word 2) of the object at `off`.
pub fn set_next_ptr(pool: &PmemPool, off: usize, next: u64) {
    pool.write_u64(off + 16, next);
}

/// Set `pre_ptr` (word 1) of the object at `off`.
pub fn set_pre_ptr(pool: &PmemPool, off: usize, pre: u64) {
    pool.write_u64(off + 8, pre);
}

/// Read the key bytes of the object whose header is `hdr`, at pool offset
/// `off`.
pub fn read_key(pool: &PmemPool, off: usize, hdr: &ObjHeader) -> Vec<u8> {
    let mut key = vec![0u8; hdr.klen as usize];
    pool.read(off + hdr.key_off(), &mut key);
    key
}

/// Read the value bytes of the object whose header is `hdr`.
pub fn read_value(pool: &PmemPool, off: usize, hdr: &ObjHeader) -> Vec<u8> {
    let mut value = vec![0u8; hdr.vlen as usize];
    pool.read(off + hdr.value_off(), &mut value);
    value
}

/// Whether the value bytes of the object at `off` match the CRC in its
/// header `hdr` (pure computation: callers charge the CRC themselves).
pub fn value_intact(pool: &PmemPool, off: usize, hdr: &ObjHeader) -> bool {
    crc32c(&read_value(pool, off, hdr)) == hdr.crc
}

/// An object fetched with one RDMA read whose header decoded and whose
/// sizes and key bytes are the ones the reader asked for.
pub struct Fetched<'a> {
    /// The decoded header.
    pub hdr: ObjHeader,
    obj: &'a [u8],
}

/// What the read rule (§4.3.3) makes of a [`Fetched`] object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read<'a> {
    /// Valid, durable, published and CRC-verified: serve these bytes.
    Value(&'a [u8]),
    /// A valid, durable, published delete marker: the key is absent.
    Tombstone,
    /// The offset no longer holds a servable version: invalidated, or the
    /// value fails its CRC (torn, mid-clean or bit-rotted).
    Stale,
    /// Not servable yet: the value is not durable, or an in-doubt
    /// transaction staged the version.
    NotYet,
}

impl<'a> Fetched<'a> {
    /// Parse `obj`, fetched as the object of `key` with a `vlen`-byte value
    /// from a location that advertised key length `klen`. `None` when the
    /// bytes are too short or hold some other object.
    pub fn parse(obj: &'a [u8], key: &[u8], klen: u16, vlen: u32) -> Option<Fetched<'a>> {
        let hdr = ObjHeader::decode(obj)?;
        if hdr.klen != klen
            || hdr.vlen != vlen
            || klen as usize != key.len()
            || obj.len() < hdr.object_size()
            || obj[hdr.key_off()..hdr.key_off() + key.len()] != *key
        {
            return None;
        }
        Some(Fetched { hdr, obj })
    }

    /// The value bytes, unchecked.
    pub fn value(&self) -> &'a [u8] {
        self.hdr.value_in(self.obj)
    }

    /// The read rule: serve a version only when it is valid, durable, not
    /// in doubt, and its value matches its CRC.
    pub fn read(&self) -> Read<'a> {
        let hdr = &self.hdr;
        if !hdr.has(flags::VALID) {
            Read::Stale
        } else if !hdr.has(flags::DURABLE) || hdr.has(flags::PENDING) {
            Read::NotYet
        } else if hdr.has(flags::TOMBSTONE) {
            Read::Tombstone
        } else if !hdr.intact_in(self.obj) {
            Read::Stale
        } else {
            Read::Value(self.value())
        }
    }
}

/// Key length of an unlinked record: an 8-byte magic, then a u64 id.
const RECORD_KLEN: usize = 16;

/// On-pool size of an unlinked record with a `vlen`-byte value.
pub const fn record_size(vlen: usize) -> usize {
    object_size(RECORD_KLEN, vlen)
}

/// Write and persist an unlinked record into the allocated slot at `off`:
/// a `VALID | DURABLE` object that is never linked into the hash table,
/// whose key is `magic` followed by `id` and whose value is CRC-protected.
/// Recovery scans the log for these (transaction commit records, cleaning
/// progress records). Returns the lines flushed; the caller charges them.
pub fn write_record(
    pool: &PmemPool,
    off: usize,
    magic: &[u8; 8],
    id: u64,
    value: &[u8],
    now: u64,
) -> usize {
    let mut key = [0u8; RECORD_KLEN];
    key[..8].copy_from_slice(magic);
    key[8..].copy_from_slice(&id.to_le_bytes());
    let hdr = ObjHeader {
        klen: RECORD_KLEN as u16,
        vlen: value.len() as u32,
        flags: flags::VALID | flags::DURABLE,
        pre_ptr: NIL,
        next_ptr: NIL,
        crc: crc32c(value),
        seq: 0,
        alloc_time: now,
    };
    hdr.write_to(pool, off);
    pool.write(off + hdr.key_off(), &key);
    pool.write(off + hdr.value_off(), value);
    let lines = pool.flush(off, hdr.object_size());
    pool.drain();
    lines
}

/// Read the object at `off` back as a `magic` record: its id and value.
/// `None` when it is not a valid `magic` record, or when its value fails
/// the CRC — a torn record, so the step it guards never happened.
pub fn read_record(pool: &PmemPool, off: usize, magic: &[u8; 8]) -> Option<(u64, Vec<u8>)> {
    let hdr = ObjHeader::read_from(pool, off);
    if hdr.klen as usize != RECORD_KLEN || !hdr.has(flags::VALID) {
        return None;
    }
    let key = read_key(pool, off, &hdr);
    if key[..8] != magic[..] {
        return None;
    }
    let value = read_value(pool, off, &hdr);
    let id = u64::from_le_bytes(key[8..].try_into().expect("a 16-byte record key"));
    (crc32c(&value) == hdr.crc).then_some((id, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjHeader {
        ObjHeader {
            klen: 32,
            vlen: 2048,
            flags: flags::VALID | flags::DURABLE,
            pre_ptr: 0x1234_5678,
            next_ptr: NIL,
            crc: 0xDEAD_BEEF,
            seq: 42,
            alloc_time: 1_000_000,
        }
    }

    #[test]
    fn header_roundtrip_via_pool() {
        let pool = PmemPool::new(4096);
        let h = sample();
        h.write_to(&pool, 64);
        assert_eq!(ObjHeader::read_from(&pool, 64), h);
    }

    #[test]
    fn header_roundtrip_via_decode() {
        let pool = PmemPool::new(4096);
        let h = sample();
        h.write_to(&pool, 0);
        let mut buf = vec![0u8; HDR_LEN];
        pool.read(0, &mut buf);
        assert_eq!(ObjHeader::decode(&buf), Some(h));
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert_eq!(ObjHeader::decode(&[0u8; 39]), None);
    }

    #[test]
    fn object_size_includes_padding() {
        assert_eq!(object_size(32, 2048), 40 + 32 + 2048);
        assert_eq!(object_size(5, 3), 40 + 8 + 8);
        assert_eq!(object_size(0, 0), 40);
    }

    #[test]
    fn flag_update_is_isolated_to_flags() {
        let pool = PmemPool::new(4096);
        let h = sample();
        h.write_to(&pool, 0);
        update_flags(&pool, 0, flags::TRANS, flags::DURABLE);
        let h2 = ObjHeader::read_from(&pool, 0);
        assert_eq!(h2.klen, h.klen);
        assert_eq!(h2.vlen, h.vlen);
        assert!(h2.has(flags::VALID));
        assert!(h2.has(flags::TRANS));
        assert!(!h2.has(flags::DURABLE));
    }

    #[test]
    fn value_and_key_offsets_are_padded() {
        let h = ObjHeader {
            klen: 5,
            vlen: 100,
            ..sample()
        };
        assert_eq!(h.key_off(), 40);
        assert_eq!(h.value_off(), 48);
        assert_eq!(h.object_size(), 40 + 8 + 104);
    }

    #[test]
    fn key_value_accessors() {
        let pool = PmemPool::new(4096);
        let key = b"hello-key";
        let value = b"world-value-bytes";
        let h = ObjHeader {
            klen: key.len() as u16,
            vlen: value.len() as u32,
            ..sample()
        };
        h.write_to(&pool, 128);
        pool.write(128 + h.key_off(), key);
        pool.write(128 + h.value_off(), value);
        assert_eq!(read_key(&pool, 128, &h), key);
        assert_eq!(read_value(&pool, 128, &h), value);
    }
}
