//! # efactory-pmem — simulated persistent memory
//!
//! A byte-addressable memory pool with an explicit **volatility/persistence
//! boundary**, standing in for the PMDK-emulated NVM of the paper's testbed.
//!
//! The pool models two images:
//!
//! * the **working image** — what CPU loads/stores and NIC DMA observe; this
//!   models data sitting anywhere in the volatile domain (CPU caches, PCIe
//!   buffers, the memory controller's write pending queue);
//! * the **media image** — what survives a crash.
//!
//! A [`write`](PmemPool::write) touches only the working image and marks the
//! affected 64-byte cache lines *dirty*. [`flush`](PmemPool::flush) (the
//! CLWB/CLFLUSH analogue) makes dirty lines' working bytes their media;
//! [`drain`](PmemPool::drain) is the SFENCE analogue (flushes here are
//! synchronous, so it only participates in the accounting — but call sites
//! keep the `flush; drain` discipline of real pmem code).
//!
//! [`crash`](PmemPool::crash) models power failure: dirty lines either revert
//! to media or — under a [`CrashSpec`] with survivors — persist partially, at
//! **8-byte granularity**, the failure-atomicity unit the paper assumes for
//! NVM. After a crash the working image equals the media image, exactly like
//! a reboot.
//!
//! Only the working image is stored in full. A clean line's media equals its
//! working bytes, so the pool keeps media only for dirty lines: when a clean
//! line is first written, its bytes (its media) are copied aside, or noted
//! as all-zero without a copy. A flush drops the copy; a crash reverts the
//! lost words of each dirty line from it.
//!
//! Working words are `AtomicU64` so the pool is `Sync`; the discrete-event
//! executor serializes process execution, so `Relaxed` ordering suffices —
//! the atomics exist for soundness, and to make 8-byte stores indivisible by
//! construction.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use efactory_obs::{Counter, Registry, Subsystem, Tracer};
use rand::Rng;

#[cfg(test)]
mod oracle;

/// Cache-line size: flush and crash granularity for line-level decisions.
pub const LINE: usize = 64;
/// Words (8 B) per cache line.
const WORDS_PER_LINE: usize = LINE / 8;

/// One cache line as words.
type LineWords = [u64; WORDS_PER_LINE];

/// Line slot of a clean line: its media is its working bytes.
const CLEAN: u32 = 0;
/// Line slot of a dirty line whose media is all zeros (a fresh line, the
/// common case for log appends), kept without a copy.
const ZERO_MEDIA: u32 = 1;
/// Line slots from here on are dirty lines whose media is
/// `MediaCopies::slab[slot - FIRST_COPY]`.
const FIRST_COPY: u32 = 2;

/// How a crash treats dirty (unflushed) cache lines.
///
/// Flushed data always survives; the spec only governs the volatile domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrashSpec {
    /// No dirty data survives: every unflushed line reverts to media. The
    /// most adversarial power failure.
    DropAll,
    /// Every dirty line survives (as if all caches were evicted just in
    /// time). Models Erda's "dirty updates become durable through natural
    /// eviction" best case.
    KeepAll,
    /// Each dirty *line* independently survives with probability `p`.
    Lines(f64),
    /// Each dirty *word* (8 B) independently survives with probability `p` —
    /// the finest-grained torn write the 8-byte atomicity unit allows.
    Words(f64),
}

/// Outcome of a [`PmemPool::crash`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Dirty lines at the moment of the crash.
    pub dirty_lines: usize,
    /// Dirty words that survived (were promoted to media).
    pub words_persisted: usize,
    /// Dirty words that reverted to the media image.
    pub words_lost: usize,
}

/// Running counters, readable at any time (benchmarks and tests). Each
/// field is a shareable [`Counter`] so the same values can be surfaced
/// through a metrics [`Registry`] (see [`PmemStats::register`]).
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Bytes written to the working image.
    pub bytes_written: Counter,
    /// `flush` calls.
    pub flushes: Counter,
    /// Lines copied to media by flushes.
    pub lines_flushed: Counter,
    /// `drain` calls.
    pub drains: Counter,
    /// Crashes injected.
    pub crashes: Counter,
    /// Bytes flipped by [`PmemPool::corrupt_range`] (media-fault injection).
    pub corruptions: Counter,
}

impl PmemStats {
    /// Attach every counter to `reg` under `pmem.*` names (sharing the
    /// underlying values, so the registry always reads live).
    pub fn register(&self, reg: &Registry) {
        self.register_prefixed(reg, "");
    }

    /// Like [`register`](Self::register) but under `{prefix}pmem.*` names,
    /// so each pool of a sharded store gets its own counters (e.g.
    /// `shard1.pmem.flushes`) in one shared registry.
    pub fn register_prefixed(&self, reg: &Registry, prefix: &str) {
        reg.attach_counter(&format!("{prefix}pmem.bytes_written"), &self.bytes_written);
        reg.attach_counter(&format!("{prefix}pmem.flushes"), &self.flushes);
        reg.attach_counter(&format!("{prefix}pmem.lines_flushed"), &self.lines_flushed);
        reg.attach_counter(&format!("{prefix}pmem.drains"), &self.drains);
        reg.attach_counter(&format!("{prefix}pmem.crashes"), &self.crashes);
        reg.attach_counter(&format!("{prefix}pmem.corruptions"), &self.corruptions);
    }
}

/// Media copies of the dirty lines whose media is not all zeros: a slab of
/// lines plus the free list of its released entries.
#[derive(Default)]
struct MediaCopies {
    slab: Vec<LineWords>,
    free: Vec<u32>,
}

impl MediaCopies {
    /// Keep `media` and return the line slot naming it.
    fn keep(&mut self, media: LineWords) -> u32 {
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = media;
                i as usize
            }
            None => {
                self.slab.push(media);
                self.slab.len() - 1
            }
        };
        u32::try_from(i + FIRST_COPY as usize).expect("media copies overflow a u32 line slot")
    }

    /// Drop the copy a dirty line's `slot` names.
    fn release(&mut self, slot: u32) {
        self.free.push(slot - FIRST_COPY);
    }

    /// The media of a dirty line with `slot`.
    fn media(&self, slot: u32) -> LineWords {
        match slot {
            ZERO_MEDIA => [0; WORDS_PER_LINE],
            _ => self.slab[(slot - FIRST_COPY) as usize],
        }
    }

    /// XOR `mask` into word `w` of a dirty line's media; returns the line's
    /// slot, which changes when all-zero media gets a copy to hold the rot.
    fn xor(&mut self, slot: u32, w: usize, mask: u64) -> u32 {
        let slot = match slot {
            ZERO_MEDIA => self.keep([0; WORDS_PER_LINE]),
            _ => slot,
        };
        self.slab[(slot - FIRST_COPY) as usize][w] ^= mask;
        slot
    }
}

/// A simulated persistent-memory pool. See the [crate docs](crate).
pub struct PmemPool {
    len: usize,
    working: Box<[AtomicU64]>,
    /// One slot per cache line: [`CLEAN`], or dirty with its media in
    /// [`ZERO_MEDIA`] or a `copies` entry.
    lines: Box<[AtomicU32]>,
    copies: Mutex<MediaCopies>,
    stats: PmemStats,
    /// Optional tracer for discrete device events (crash injection).
    tracer: Mutex<Option<Tracer>>,
}

/// The `copies` lock, taken on first use: most calls never need it.
type LazyGuard<'a> = Option<MutexGuard<'a, MediaCopies>>;

impl PmemPool {
    /// Allocate a pool of `len` bytes (rounded up to a whole cache line),
    /// zero-filled and fully persistent (no dirty lines).
    pub fn new(len: usize) -> Self {
        let len = len.div_ceil(LINE) * LINE;
        PmemPool {
            len,
            working: (0..len / 8).map(|_| AtomicU64::new(0)).collect(),
            lines: (0..len / LINE).map(|_| AtomicU32::new(CLEAN)).collect(),
            copies: Mutex::default(),
            stats: PmemStats::default(),
            tracer: Mutex::new(None),
        }
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-sized pool (never in practice; `clippy` symmetry).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the counters.
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    /// Install a tracer; subsequent device events (crash injection) are
    /// recorded under [`Subsystem::Pmem`].
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock().unwrap() = Some(tracer);
    }

    #[inline]
    fn check_range(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "pmem access out of range: off={off} len={len} pool={}",
            self.len
        );
    }

    /// The media copies through `guard`, locked on first use.
    fn lock<'p, 'g>(&'p self, guard: &'g mut LazyGuard<'p>) -> &'g mut MediaCopies {
        guard.get_or_insert_with(|| self.copies())
    }

    fn copies(&self) -> MutexGuard<'_, MediaCopies> {
        self.copies
            .lock()
            .expect("a thread panicked while changing pmem media copies")
    }

    /// Mark lines `first..=last` dirty **before** their working bytes
    /// change: each clean one keeps its current bytes as its media.
    fn mark_dirty(&self, first: usize, last: usize) {
        let mut guard = None;
        let words = &self.working[first * WORDS_PER_LINE..(last + 1) * WORDS_PER_LINE];
        for (slot, words) in self.lines[first..=last]
            .iter()
            .zip(words.chunks_exact(WORDS_PER_LINE))
        {
            if slot.load(Ordering::Relaxed) != CLEAN {
                continue;
            }
            let media: LineWords = std::array::from_fn(|i| words[i].load(Ordering::Relaxed));
            // OR-fold, not `==`: an array compare calls out to `bcmp`.
            let kept = if media.iter().fold(0, |acc, w| acc | w) == 0 {
                ZERO_MEDIA
            } else {
                self.lock(&mut guard).keep(media)
            };
            slot.store(kept, Ordering::Relaxed);
        }
    }

    /// Mark a line clean, dropping its media copy; whether it was dirty.
    fn make_clean<'p>(&'p self, slot: &AtomicU32, guard: &mut LazyGuard<'p>) -> bool {
        let s = slot.load(Ordering::Relaxed);
        if s == CLEAN {
            return false;
        }
        slot.store(CLEAN, Ordering::Relaxed);
        if s >= FIRST_COPY {
            self.lock(guard).release(s);
        }
        true
    }

    /// Whether the line containing byte `off` is dirty (unflushed).
    pub fn is_dirty(&self, off: usize) -> bool {
        self.lines[off / LINE].load(Ordering::Relaxed) != CLEAN
    }

    /// Number of dirty lines.
    pub fn dirty_line_count(&self) -> usize {
        self.lines
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != CLEAN)
            .count()
    }

    // -- byte-granularity access to the working image -----------------------

    /// Read `buf.len()` bytes at `off` from the working image (a CPU load or
    /// an inbound RDMA-read DMA).
    pub fn read(&self, off: usize, buf: &mut [u8]) {
        self.check_range(off, buf.len());
        let mut i = 0;
        // Head: partial word.
        while i < buf.len() && !(off + i).is_multiple_of(8) {
            let addr = off + i;
            buf[i] = self.working[addr / 8].load(Ordering::Relaxed).to_le_bytes()[addr % 8];
            i += 1;
        }
        // Body: whole words (mirrors `write`; one load per 8 bytes).
        while buf.len() - i >= 8 {
            let word = self.working[(off + i) / 8].load(Ordering::Relaxed);
            buf[i..i + 8].copy_from_slice(&word.to_le_bytes());
            i += 8;
        }
        // Tail: partial word.
        while i < buf.len() {
            let addr = off + i;
            buf[i] = self.working[addr / 8].load(Ordering::Relaxed).to_le_bytes()[addr % 8];
            i += 1;
        }
    }

    /// Write `data` at `off` into the working image (a CPU store or an
    /// inbound RDMA-write DMA). Marks the touched lines dirty; does **not**
    /// persist anything.
    pub fn write(&self, off: usize, data: &[u8]) {
        self.check_range(off, data.len());
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        if data.is_empty() {
            return;
        }
        self.mark_dirty(off / LINE, (off + data.len() - 1) / LINE);
        let mut i = 0;
        // Head: partial word.
        while i < data.len() && !(off + i).is_multiple_of(8) {
            self.write_byte(off + i, data[i]);
            i += 1;
        }
        // Body: whole words, each stored atomically (8-byte atomicity unit).
        while data.len() - i >= 8 {
            let addr = off + i;
            let word = u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte chunk"));
            self.working[addr / 8].store(word, Ordering::Relaxed);
            i += 8;
        }
        // Tail: partial word.
        while i < data.len() {
            self.write_byte(off + i, data[i]);
            i += 1;
        }
    }

    #[inline]
    fn write_byte(&self, addr: usize, byte: u8) {
        let word = &self.working[addr / 8];
        let cur = word.load(Ordering::Relaxed);
        let mut bytes = cur.to_le_bytes();
        bytes[addr % 8] = byte;
        word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
    }

    /// Atomically read the aligned u64 at `off` from the working image.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        self.check_range(off, 8);
        assert_eq!(off % 8, 0, "read_u64 requires 8-byte alignment");
        self.working[off / 8].load(Ordering::Relaxed)
    }

    /// Atomically store the aligned u64 at `off` (8-byte failure-atomic once
    /// flushed: a crash sees the old or new value, never a mix).
    #[inline]
    pub fn write_u64(&self, off: usize, value: u64) {
        self.check_range(off, 8);
        assert_eq!(off % 8, 0, "write_u64 requires 8-byte alignment");
        // An aligned u64 never crosses a cache line.
        self.mark_dirty(off / LINE, off / LINE);
        self.working[off / 8].store(value, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(8, Ordering::Relaxed);
    }

    // -- persistence ---------------------------------------------------------

    /// Flush every cache line overlapping `[off, off+len)` to media
    /// (CLWB loop). Lines that are not dirty are skipped. Returns the number
    /// of lines actually flushed, so callers can charge NVM write cost only
    /// for real work (eFactory's "selective durability guarantee").
    ///
    /// A flushed line's media becomes its working bytes, which is what a
    /// clean line means, so flushing only drops the line's media copy.
    pub fn flush(&self, off: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.check_range(off, len);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        let mut guard = None;
        let flushed = self.lines[off / LINE..=(off + len - 1) / LINE]
            .iter()
            .filter(|slot| self.make_clean(slot, &mut guard))
            .count();
        if flushed > 0 {
            self.stats
                .lines_flushed
                .fetch_add(flushed as u64, Ordering::Relaxed);
        }
        flushed
    }

    /// Ordering fence (SFENCE analogue). Flushes are synchronous in this
    /// model, so this only counts; call sites keep the real discipline.
    pub fn drain(&self) {
        self.stats.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// `flush` + `drain`.
    pub fn persist(&self, off: usize, len: usize) {
        self.flush(off, len);
        self.drain();
    }

    /// Whether `[off, off+len)` is identical in working and media images —
    /// i.e. guaranteed to survive a crash with its current contents.
    pub fn is_persisted(&self, off: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        self.check_range(off, len);
        let mut guard = None;
        let end = off + len;
        for line in off / LINE..=(end - 1) / LINE {
            let s = self.lines[line].load(Ordering::Relaxed);
            if s == CLEAN {
                continue;
            }
            let media = self.lock(&mut guard).media(s);
            let base = line * LINE;
            for addr in off.max(base)..end.min(base + LINE) {
                let i = addr - base;
                let working =
                    self.working[addr / 8].load(Ordering::Relaxed).to_le_bytes()[addr % 8];
                if working != media[i / 8].to_le_bytes()[i % 8] {
                    return false;
                }
            }
        }
        true
    }

    // -- crash ----------------------------------------------------------------

    /// Simulate a power failure + reboot: dirty data survives according to
    /// `spec`, then the working image is reset to the (new) media image and
    /// all lines are clean.
    ///
    /// The RNG is drawn over the dirty lines in ascending order: once per
    /// line under [`CrashSpec::Lines`], once per word of the line under
    /// [`CrashSpec::Words`].
    pub fn crash<R: Rng>(&self, spec: CrashSpec, rng: &mut R) -> CrashReport {
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
        let mut report = CrashReport::default();
        let mut copies = self.copies();
        for (line, slot) in self.lines.iter().enumerate() {
            let s = slot.load(Ordering::Relaxed);
            if s == CLEAN {
                continue;
            }
            report.dirty_lines += 1;
            let keep_line = match spec {
                CrashSpec::DropAll => false,
                CrashSpec::KeepAll => true,
                CrashSpec::Lines(p) => rng.gen_bool(p),
                CrashSpec::Words(_) => true, // decided per word below
            };
            let words = &self.working[line * WORDS_PER_LINE..][..WORDS_PER_LINE];
            for (word, media) in words.iter().zip(copies.media(s)) {
                let keep = match spec {
                    CrashSpec::Words(p) => rng.gen_bool(p),
                    _ => keep_line,
                };
                if word.load(Ordering::Relaxed) == media {
                    continue; // clean word inside a dirty line
                }
                if keep {
                    report.words_persisted += 1;
                } else {
                    // Reboot: the lost word reads back its media.
                    word.store(media, Ordering::Relaxed);
                    report.words_lost += 1;
                }
            }
            slot.store(CLEAN, Ordering::Relaxed);
        }
        *copies = MediaCopies::default();
        drop(copies);
        if let Some(t) = self.tracer.lock().unwrap().as_ref() {
            t.event_args(
                Subsystem::Pmem,
                "crash",
                &[
                    ("dirty_lines", report.dirty_lines as u64),
                    ("words_lost", report.words_lost as u64),
                ],
            );
        }
        report
    }

    /// Zero `[off, off+len)` in **both** images and clear the dirty bits —
    /// models freeing/unmapping a region (log cleaning zeroes the retired
    /// data pool). `off` and `len` must be cache-line aligned.
    pub fn zero_region(&self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_range(off, len);
        assert_eq!(off % LINE, 0, "zero_region requires line alignment");
        assert_eq!(len % LINE, 0, "zero_region requires line-sized length");
        let mut guard = None;
        for slot in &self.lines[off / LINE..(off + len) / LINE] {
            self.make_clean(slot, &mut guard);
        }
        for w in &self.working[off / 8..(off + len) / 8] {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Flip bits in `[off, off+len)` by XOR-ing each byte with `pattern` —
    /// models a latent media error (silent bit-rot). The flip hits **both**
    /// images: the device returns the rotted bytes now *and* after any
    /// crash, exactly like real NVM whose cells decayed. Dirty bits are
    /// untouched, so [`is_persisted`](Self::is_persisted) still reports
    /// true — the corruption is invisible to the persistence machinery and
    /// only detectable end-to-end (CRC verification / scrubbing).
    ///
    /// `pattern` must be non-zero (a zero XOR would corrupt nothing).
    pub fn corrupt_range(&self, off: usize, len: usize, pattern: u8) {
        if len == 0 {
            return;
        }
        assert_ne!(pattern, 0, "corrupt_range needs a non-zero XOR pattern");
        self.check_range(off, len);
        let mut guard = None;
        for i in off..off + len {
            let word = i / 8;
            let mask = (pattern as u64) << ((i % 8) * 8);
            self.working[word].fetch_xor(mask, Ordering::Relaxed);
            // A clean line's media is its working bytes, rotted just now; a
            // dirty line's media copy rots too.
            let slot = &self.lines[i / LINE];
            let s = slot.load(Ordering::Relaxed);
            if s != CLEAN {
                let s = self.lock(&mut guard).xor(s, word % WORDS_PER_LINE, mask);
                slot.store(s, Ordering::Relaxed);
            }
        }
        self.stats.corruptions.add(len as u64);
        if let Some(t) = self.tracer.lock().unwrap().as_ref() {
            t.event_args(
                Subsystem::Pmem,
                "corrupt",
                &[("off", off as u64), ("len", len as u64)],
            );
        }
    }

    /// Copy of the working image (tests / recovery tooling).
    pub fn working_snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.read(0, &mut out);
        out
    }

    /// Copy of the media image (what a crash right now would leave behind
    /// under [`CrashSpec::DropAll`]).
    pub fn media_snapshot(&self) -> Vec<u8> {
        let mut out = self.working_snapshot();
        let copies = self.copies();
        for (line, slot) in self.lines.iter().enumerate() {
            let s = slot.load(Ordering::Relaxed);
            if s == CLEAN {
                continue;
            }
            let bytes = out[line * LINE..][..LINE].chunks_mut(8);
            for (chunk, word) in bytes.zip(copies.media(s)) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
        }
        out
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("len", &self.len)
            .field("dirty_lines", &self.dirty_line_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn new_pool_is_zeroed_and_clean() {
        let p = PmemPool::new(1024);
        assert_eq!(p.len(), 1024);
        assert_eq!(p.dirty_line_count(), 0);
        let mut buf = [0xFFu8; 64];
        p.read(0, &mut buf);
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn len_rounds_up_to_cache_line() {
        assert_eq!(PmemPool::new(1).len(), 64);
        assert_eq!(PmemPool::new(65).len(), 128);
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let p = PmemPool::new(4096);
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        p.write(131, &data); // deliberately unaligned offset and length
        let mut back = vec![0u8; 777];
        p.read(131, &mut back);
        assert_eq!(back, data);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        p.read(130, &mut edge);
        assert_eq!(edge[0], 0);
        p.read(131 + 777, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn write_marks_exactly_the_touched_lines_dirty() {
        let p = PmemPool::new(4096);
        p.write(100, &[1u8; 30]); // spans lines 1 and 2 (bytes 100..130)
        assert!(!p.is_dirty(0));
        assert!(p.is_dirty(64));
        assert!(p.is_dirty(128));
        assert!(!p.is_dirty(192));
        assert_eq!(p.dirty_line_count(), 2);
    }

    #[test]
    fn unflushed_write_is_lost_on_drop_all_crash() {
        let p = PmemPool::new(1024);
        p.write(0, b"hello world");
        assert!(!p.is_persisted(0, 11));
        let report = p.crash(CrashSpec::DropAll, &mut rng());
        assert_eq!(report.dirty_lines, 1);
        assert_eq!(report.words_persisted, 0);
        let mut buf = [0u8; 11];
        p.read(0, &mut buf);
        assert_eq!(&buf, &[0u8; 11], "unflushed write must not survive");
    }

    #[test]
    fn flushed_write_survives_any_crash() {
        let p = PmemPool::new(1024);
        p.write(64, b"durable");
        p.persist(64, 7);
        assert!(p.is_persisted(64, 7));
        p.crash(CrashSpec::DropAll, &mut rng());
        let mut buf = [0u8; 7];
        p.read(64, &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn keep_all_crash_persists_dirty_data() {
        let p = PmemPool::new(1024);
        p.write(0, b"evicted");
        p.crash(CrashSpec::KeepAll, &mut rng());
        let mut buf = [0u8; 7];
        p.read(0, &mut buf);
        assert_eq!(&buf, b"evicted");
    }

    #[test]
    fn word_granular_crash_never_tears_inside_a_word() {
        let p = PmemPool::new(4096);
        // Old contents, persisted.
        p.write(0, &[0x11u8; 256]);
        p.persist(0, 256);
        // New contents, unflushed.
        p.write(0, &[0x22u8; 256]);
        p.crash(CrashSpec::Words(0.5), &mut rng());
        let mut buf = [0u8; 256];
        p.read(0, &mut buf);
        let mut saw_old = false;
        let mut saw_new = false;
        for word in buf.chunks(8) {
            if word == [0x11u8; 8] {
                saw_old = true;
            } else if word == [0x22u8; 8] {
                saw_new = true;
            } else {
                panic!("torn word: {word:?}");
            }
        }
        assert!(saw_old && saw_new, "p=0.5 over 32 words should mix");
    }

    #[test]
    fn line_granular_crash_keeps_lines_whole() {
        let p = PmemPool::new(4096);
        p.write(0, &[0x33u8; 1024]);
        p.crash(CrashSpec::Lines(0.5), &mut rng());
        let mut buf = [0u8; 1024];
        p.read(0, &mut buf);
        for line in buf.chunks(LINE) {
            assert!(
                line == [0x33u8; LINE] || line == [0u8; LINE],
                "line must survive or revert as a unit"
            );
        }
    }

    #[test]
    fn working_equals_media_after_crash() {
        let p = PmemPool::new(2048);
        p.write(0, &[9u8; 2048]);
        p.flush(0, 512); // persist only the first quarter
        p.crash(CrashSpec::DropAll, &mut rng());
        assert_eq!(p.working_snapshot(), p.media_snapshot());
        assert_eq!(p.dirty_line_count(), 0);
        let snap = p.working_snapshot();
        assert_eq!(&snap[..512], &[9u8; 512][..]);
        assert_eq!(&snap[512..], &vec![0u8; 1536][..]);
    }

    #[test]
    fn write_u64_is_word_atomic_across_crash() {
        let p = PmemPool::new(128);
        p.write_u64(8, 0x1111_1111_1111_1111);
        p.persist(8, 8);
        p.write_u64(8, 0x2222_2222_2222_2222);
        // Not flushed: crash reverts the whole word (8B atomicity).
        p.crash(CrashSpec::DropAll, &mut rng());
        assert_eq!(p.read_u64(8), 0x1111_1111_1111_1111);
    }

    #[test]
    fn flush_skips_clean_lines() {
        let p = PmemPool::new(1024);
        p.write(0, &[1u8; 64]);
        p.flush(0, 1024); // only line 0 dirty
        assert_eq!(p.stats().lines_flushed.load(Ordering::Relaxed), 1);
        p.flush(0, 1024); // nothing dirty now
        assert_eq!(p.stats().lines_flushed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn is_persisted_reflects_flush_state() {
        let p = PmemPool::new(256);
        p.write(0, &[5u8; 100]);
        assert!(!p.is_persisted(0, 100));
        p.flush(0, 50);
        // flush works on whole lines: bytes 0..64 persisted, 64..100 not.
        assert!(p.is_persisted(0, 64));
        assert!(!p.is_persisted(0, 100));
        p.flush(64, 36);
        assert!(p.is_persisted(0, 100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let p = PmemPool::new(64);
        let mut buf = [0u8; 8];
        p.read(60, &mut buf);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn unaligned_read_u64_panics() {
        let p = PmemPool::new(64);
        p.read_u64(4);
    }

    #[test]
    fn zero_region_clears_both_images_and_dirty_bits() {
        let p = PmemPool::new(1024);
        p.write(0, &[0xEEu8; 512]);
        p.persist(0, 256); // half persisted, half dirty
        p.zero_region(0, 512);
        assert_eq!(p.dirty_line_count(), 0);
        let snap = p.working_snapshot();
        assert_eq!(&snap[..512], &[0u8; 512][..]);
        assert_eq!(&p.media_snapshot()[..512], &[0u8; 512][..]);
        // A crash after zeroing changes nothing.
        p.crash(CrashSpec::KeepAll, &mut rng());
        assert_eq!(p.working_snapshot()[..512], [0u8; 512][..]);
    }

    #[test]
    fn zero_region_leaves_neighbours_untouched() {
        let p = PmemPool::new(1024);
        p.write(0, &[1u8; 1024]);
        p.persist(0, 1024);
        p.zero_region(256, 256);
        let snap = p.working_snapshot();
        assert_eq!(&snap[..256], &[1u8; 256][..]);
        assert_eq!(&snap[256..512], &[0u8; 256][..]);
        assert_eq!(&snap[512..], &[1u8; 512][..]);
    }

    #[test]
    #[should_panic(expected = "line alignment")]
    fn zero_region_requires_alignment() {
        PmemPool::new(256).zero_region(8, 64);
    }

    #[test]
    fn corrupt_range_rots_both_images_silently() {
        let p = PmemPool::new(1024);
        p.write(0, &[0xAAu8; 256]);
        p.persist(0, 256);
        p.corrupt_range(100, 17, 0xFF);
        // Reads return the rotted bytes, yet the range still looks persisted.
        let snap = p.working_snapshot();
        assert_eq!(&snap[..100], &[0xAAu8; 100][..]);
        assert_eq!(&snap[100..117], &[0x55u8; 17][..]);
        assert_eq!(&snap[117..256], &[0xAAu8; 139][..]);
        assert!(p.is_persisted(0, 256), "bit-rot must be invisible to flush");
        assert_eq!(p.dirty_line_count(), 0);
        // The rot is in media too: a crash does not heal it.
        p.crash(CrashSpec::DropAll, &mut rng());
        assert_eq!(&p.working_snapshot()[100..117], &[0x55u8; 17][..]);
        assert_eq!(p.stats().corruptions.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn corrupt_range_is_exactly_invertible() {
        // XOR-ing the same pattern twice restores the original bytes —
        // handy for tests that inject then repair.
        let p = PmemPool::new(256);
        p.write(0, &[0x12u8; 64]);
        p.corrupt_range(0, 64, 0x80);
        p.corrupt_range(0, 64, 0x80);
        assert_eq!(&p.working_snapshot()[..64], &[0x12u8; 64][..]);
    }

    #[test]
    fn stats_track_writes_flushes_and_crashes() {
        let p = PmemPool::new(1024);
        p.write(0, &[1u8; 100]);
        p.persist(0, 100);
        p.crash(CrashSpec::DropAll, &mut rng());
        let s = p.stats();
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 100);
        assert_eq!(s.flushes.load(Ordering::Relaxed), 1);
        assert_eq!(s.lines_flushed.load(Ordering::Relaxed), 2);
        assert_eq!(s.drains.load(Ordering::Relaxed), 1);
        assert_eq!(s.crashes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn crash_report_counts_words() {
        let p = PmemPool::new(1024);
        p.write(0, &[7u8; 128]); // 16 dirty words in 2 lines
        let report = p.crash(CrashSpec::KeepAll, &mut rng());
        assert_eq!(report.dirty_lines, 2);
        assert_eq!(report.words_persisted, 16);
        assert_eq!(report.words_lost, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_arbitrary_writes(
                ops in proptest::collection::vec(
                    (0usize..4096, proptest::collection::vec(any::<u8>(), 1..128)),
                    1..20
                )
            ) {
                let p = PmemPool::new(8192);
                let mut model = vec![0u8; 8192];
                for (off, data) in &ops {
                    let off = off % (8192 - data.len());
                    p.write(off, data);
                    model[off..off + data.len()].copy_from_slice(data);
                }
                prop_assert_eq!(p.working_snapshot(), model);
            }

            #[test]
            fn flushed_ranges_survive_and_unflushed_revert(
                seed in any::<u64>(),
                flush_upto in 0usize..2048,
            ) {
                let p = PmemPool::new(2048);
                p.write(0, &[0xAAu8; 2048]);
                if flush_upto > 0 {
                    p.flush(0, flush_upto);
                }
                let mut r = StdRng::seed_from_u64(seed);
                p.crash(CrashSpec::DropAll, &mut r);
                let snap = p.working_snapshot();
                // Whole lines containing flushed bytes survive.
                let flushed_lines = flush_upto.div_ceil(LINE);
                for (i, &b) in snap.iter().enumerate() {
                    if i < flushed_lines * LINE {
                        prop_assert_eq!(b, 0xAA, "flushed byte {} lost", i);
                    } else {
                        prop_assert_eq!(b, 0, "unflushed byte {} survived", i);
                    }
                }
            }

            #[test]
            fn word_crash_yields_old_or_new_per_word(seed in any::<u64>(), p_keep in 0.0f64..=1.0) {
                let pool = PmemPool::new(1024);
                pool.write(0, &[0x0Fu8; 1024]);
                pool.persist(0, 1024);
                pool.write(0, &[0xF0u8; 1024]);
                let mut r = StdRng::seed_from_u64(seed);
                pool.crash(CrashSpec::Words(p_keep), &mut r);
                let snap = pool.working_snapshot();
                for word in snap.chunks(8) {
                    prop_assert!(word == [0x0Fu8; 8] || word == [0xF0u8; 8]);
                }
            }
        }
    }
}
