//! Reference model for [`PmemPool`]: the two-image pool it replaced, which
//! stores the full media image next to the working image and a dirty bit
//! per line. A property test drives both with the same random op sequences
//! and requires every observable to agree after each op.

use rand::Rng;

use super::*;

/// Full working and media images plus a dirty bit per line.
struct TwoImagePool {
    working: Vec<u64>,
    media: Vec<u64>,
    dirty: Vec<bool>,
    stats: [u64; 6],
}

/// `stats` slots, in [`PmemStats`] field order.
const BYTES_WRITTEN: usize = 0;
const FLUSHES: usize = 1;
const LINES_FLUSHED: usize = 2;
const DRAINS: usize = 3;
const CRASHES: usize = 4;
const CORRUPTIONS: usize = 5;

impl TwoImagePool {
    fn new(len: usize) -> Self {
        let len = len.div_ceil(LINE) * LINE;
        TwoImagePool {
            working: vec![0; len / 8],
            media: vec![0; len / 8],
            dirty: vec![false; len / LINE],
            stats: [0; 6],
        }
    }

    fn len(&self) -> usize {
        self.working.len() * 8
    }

    fn byte(words: &[u64], addr: usize) -> u8 {
        words[addr / 8].to_le_bytes()[addr % 8]
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        self.stats[BYTES_WRITTEN] += data.len() as u64;
        for (i, &b) in data.iter().enumerate() {
            let addr = off + i;
            let mut bytes = self.working[addr / 8].to_le_bytes();
            bytes[addr % 8] = b;
            self.working[addr / 8] = u64::from_le_bytes(bytes);
            self.dirty[addr / LINE] = true;
        }
    }

    fn write_u64(&mut self, off: usize, value: u64) {
        self.working[off / 8] = value;
        self.stats[BYTES_WRITTEN] += 8;
        self.dirty[off / LINE] = true;
    }

    fn flush(&mut self, off: usize, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.stats[FLUSHES] += 1;
        let mut copied = 0;
        for line in off / LINE..=(off + len - 1) / LINE {
            if std::mem::take(&mut self.dirty[line]) {
                copied += 1;
                let w0 = line * WORDS_PER_LINE;
                self.media[w0..w0 + WORDS_PER_LINE]
                    .copy_from_slice(&self.working[w0..w0 + WORDS_PER_LINE]);
            }
        }
        self.stats[LINES_FLUSHED] += copied as u64;
        copied
    }

    fn persist(&mut self, off: usize, len: usize) {
        self.flush(off, len);
        self.stats[DRAINS] += 1;
    }

    fn is_persisted(&self, off: usize, len: usize) -> bool {
        (off..off + len)
            .all(|addr| Self::byte(&self.working, addr) == Self::byte(&self.media, addr))
    }

    fn crash<R: Rng>(&mut self, spec: CrashSpec, rng: &mut R) -> CrashReport {
        self.stats[CRASHES] += 1;
        let mut report = CrashReport::default();
        for line in 0..self.dirty.len() {
            if !self.dirty[line] {
                continue;
            }
            report.dirty_lines += 1;
            let keep_line = match spec {
                CrashSpec::DropAll => false,
                CrashSpec::KeepAll => true,
                CrashSpec::Lines(p) => rng.gen_bool(p),
                CrashSpec::Words(_) => true,
            };
            let w0 = line * WORDS_PER_LINE;
            for w in w0..w0 + WORDS_PER_LINE {
                let keep = match spec {
                    CrashSpec::Words(p) => rng.gen_bool(p),
                    _ => keep_line,
                };
                if self.working[w] == self.media[w] {
                    continue;
                }
                if keep {
                    self.media[w] = self.working[w];
                    report.words_persisted += 1;
                } else {
                    report.words_lost += 1;
                }
            }
        }
        self.working.copy_from_slice(&self.media);
        self.dirty.fill(false);
        report
    }

    fn zero_region(&mut self, off: usize, len: usize) {
        self.working[off / 8..(off + len) / 8].fill(0);
        self.media[off / 8..(off + len) / 8].fill(0);
        self.dirty[off / LINE..(off + len) / LINE].fill(false);
    }

    fn corrupt_range(&mut self, off: usize, len: usize, pattern: u8) {
        for i in off..off + len {
            let mask = (pattern as u64) << ((i % 8) * 8);
            self.working[i / 8] ^= mask;
            self.media[i / 8] ^= mask;
        }
        self.stats[CORRUPTIONS] += len as u64;
    }

    fn snapshot(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }
}

fn stats_of(p: &PmemPool) -> [u64; 6] {
    let s = p.stats();
    [
        &s.bytes_written,
        &s.flushes,
        &s.lines_flushed,
        &s.drains,
        &s.crashes,
        &s.corruptions,
    ]
    .map(|c| c.load(Ordering::Relaxed))
}

mod properties {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Small enough that random ops keep hitting the same lines.
    const POOL: usize = 1024;

    #[derive(Debug, Clone)]
    enum Op {
        Write(usize, Vec<u8>),
        WriteU64(usize, u64),
        Flush(usize, usize),
        Persist(usize, usize),
        ZeroRegion(usize, usize),
        Corrupt(usize, usize, u8),
        Crash(CrashSpec, u64),
    }

    /// A byte run: all zeros, one repeated byte, or random bytes.
    fn bytes() -> impl Strategy<Value = Vec<u8>> {
        let len = 1usize..200;
        prop_oneof![
            len.clone().prop_map(|n| vec![0; n]),
            (len.clone(), any::<u8>()).prop_map(|(n, b)| vec![b; n]),
            proptest::collection::vec(any::<u8>(), len),
        ]
    }

    fn range() -> impl Strategy<Value = (usize, usize)> {
        (0usize..POOL, 0usize..300).prop_map(|(off, len)| (off, len.min(POOL - off)))
    }

    fn op() -> impl Strategy<Value = Op> {
        let spec = prop_oneof![
            Just(CrashSpec::DropAll),
            Just(CrashSpec::KeepAll),
            (0.0f64..=1.0).prop_map(CrashSpec::Lines),
            (0.0f64..=1.0).prop_map(CrashSpec::Words),
        ];
        prop_oneof![
            (0usize..POOL, bytes()).prop_map(|(off, data)| {
                let off = off.min(POOL - data.len());
                Op::Write(off, data)
            }),
            (0usize..POOL / 8, prop_oneof![Just(0u64), any::<u64>()])
                .prop_map(|(w, v)| Op::WriteU64(w * 8, v)),
            range().prop_map(|(off, len)| Op::Flush(off, len)),
            range().prop_map(|(off, len)| Op::Persist(off, len)),
            (0usize..POOL / LINE, 0usize..6).prop_map(|(line, n)| {
                let n = n.min(POOL / LINE - line);
                Op::ZeroRegion(line * LINE, n * LINE)
            }),
            (range(), 1u8..=255).prop_map(|((off, len), pat)| Op::Corrupt(off, len, pat)),
            (spec, any::<u64>()).prop_map(|(spec, seed)| Op::Crash(spec, seed)),
        ]
    }

    fn apply(pool: &PmemPool, model: &mut TwoImagePool, op: &Op) {
        match *op {
            Op::Write(off, ref data) => {
                pool.write(off, data);
                model.write(off, data);
            }
            Op::WriteU64(off, v) => {
                pool.write_u64(off, v);
                model.write_u64(off, v);
            }
            Op::Flush(off, len) => assert_eq!(pool.flush(off, len), model.flush(off, len)),
            Op::Persist(off, len) => {
                pool.persist(off, len);
                model.persist(off, len);
            }
            Op::ZeroRegion(off, len) => {
                pool.zero_region(off, len);
                model.zero_region(off, len);
            }
            Op::Corrupt(off, len, pat) => {
                pool.corrupt_range(off, len, pat);
                model.corrupt_range(off, len, pat);
            }
            Op::Crash(spec, seed) => {
                let got = pool.crash(spec, &mut StdRng::seed_from_u64(seed));
                let want = model.crash(spec, &mut StdRng::seed_from_u64(seed));
                assert_eq!(got, want, "crash report under {spec:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sparse_media_matches_the_two_image_pool(
            ops in proptest::collection::vec(op(), 1..60),
            probes in proptest::collection::vec(range(), 8..9),
        ) {
            let pool = PmemPool::new(POOL);
            let mut model = TwoImagePool::new(POOL);
            prop_assert_eq!(pool.len(), model.len());
            for (step, op) in ops.iter().enumerate() {
                apply(&pool, &mut model, op);
                prop_assert_eq!(
                    pool.working_snapshot(),
                    TwoImagePool::snapshot(&model.working),
                    "working image after step {} ({:?})", step, op
                );
                prop_assert_eq!(
                    pool.media_snapshot(),
                    TwoImagePool::snapshot(&model.media),
                    "media image after step {} ({:?})", step, op
                );
                prop_assert_eq!(
                    pool.dirty_line_count(),
                    model.dirty.iter().filter(|&&d| d).count()
                );
                for line in 0..POOL / LINE {
                    prop_assert_eq!(pool.is_dirty(line * LINE), model.dirty[line]);
                }
                for &(off, len) in &probes {
                    prop_assert_eq!(
                        pool.is_persisted(off, len),
                        model.is_persisted(off, len),
                        "is_persisted({}, {}) after step {}", off, len, step
                    );
                }
                prop_assert_eq!(stats_of(&pool), model.stats);
            }
        }
    }
}
