//! Offline store inspection: walk a (possibly post-crash) NVM image and
//! report its structure — live keys, version-chain depths, durability and
//! persistence ratios, space accounting. The `store_inspect` example and
//! several tests use it; it is also the debugging tool you want first when
//! a consistency test fails.
//!
//! Inspection is read-only and does not require a running server.

use std::collections::HashMap;

use efactory_pmem::PmemPool;

use crate::layout::{self, flags, ObjHeader, NIL};
use crate::log::StoreLayout;

/// Classification of one object version found in a data pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VersionState {
    /// Durability flag set; bytes identical in working and media images.
    DurablePersisted,
    /// Durability flag set but bytes not yet on media — only legal
    /// transiently (between flag write and flush it is a bug; after a
    /// clean shutdown it must not appear).
    DurableVolatile,
    /// CRC matches but the flag is clear: landed, awaiting verification.
    IntactUnverified,
    /// Valid but CRC mismatch: value still in flight (or torn).
    Incomplete,
    /// Invalidated by the verifier timeout.
    Invalid,
    /// Tombstone (deleted key marker).
    Tombstone,
}

/// Full report over a store image.
#[derive(Debug, Clone, Default)]
pub struct StoreReport {
    /// Occupied hash buckets (live keys, including tombstoned ones).
    pub keys: usize,
    /// Keys whose current version is a tombstone.
    pub tombstoned: usize,
    /// Version-state histogram over every reachable version.
    pub versions: HashMap<VersionState, usize>,
    /// Total reachable versions (sum of the histogram).
    pub total_versions: usize,
    /// Longest version chain.
    pub max_chain: usize,
    /// Bytes used in each pool.
    pub pool_used: [usize; 2],
    /// Reachable live bytes (current versions only).
    pub live_bytes: usize,
    /// Problems found (entry → description). Empty on a healthy image.
    pub violations: Vec<String>,
}

impl StoreReport {
    /// Count for one state.
    pub fn count(&self, s: VersionState) -> usize {
        self.versions.get(&s).copied().unwrap_or(0)
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "keys: {} ({} tombstoned)\nversions: {} (max chain {})\n",
            self.keys, self.tombstoned, self.total_versions, self.max_chain
        ));
        let mut states: Vec<_> = self.versions.iter().collect();
        states.sort_by_key(|(s, _)| format!("{s:?}"));
        for (s, n) in states {
            out.push_str(&format!("  {s:?}: {n}\n"));
        }
        out.push_str(&format!(
            "pool A used: {} B, pool B used: {} B, live bytes: {}\n",
            self.pool_used[0], self.pool_used[1], self.live_bytes
        ));
        if self.violations.is_empty() {
            out.push_str("no violations\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Classify the version at `off`.
fn classify(pool: &PmemPool, off: usize, hdr: &ObjHeader) -> VersionState {
    if hdr.has(flags::TOMBSTONE) {
        return VersionState::Tombstone;
    }
    if !hdr.has(flags::VALID) {
        return VersionState::Invalid;
    }
    if hdr.has(flags::DURABLE) {
        if pool.is_persisted(off, hdr.object_size()) {
            VersionState::DurablePersisted
        } else {
            VersionState::DurableVolatile
        }
    } else if layout::value_intact(pool, off, hdr) {
        VersionState::IntactUnverified
    } else {
        VersionState::Incomplete
    }
}

/// Inspect the image in `pool` under `layout`. `heads` bounds the data-pool
/// scan (pass the live server's `logs[i].head()`, or rebuild via
/// `LogRegion::scan_for_recovery` on a cold image).
pub fn inspect(pool: &PmemPool, layout: &StoreLayout, heads: [usize; 2]) -> StoreReport {
    let ht = layout.hashtable();
    let regions = layout.regions();
    let mut report = StoreReport {
        pool_used: [
            heads[0].saturating_sub(regions[0].base()),
            heads[1].saturating_sub(regions[1].base()),
        ],
        ..StoreReport::default()
    };

    let in_bounds = |off: u64| {
        let off = off as usize;
        regions
            .iter()
            .enumerate()
            .any(|(i, r)| off >= r.base() && off + layout::HDR_LEN <= heads[i] && !r.is_empty())
    };

    ht.for_each_occupied(pool, |idx, e| {
        report.keys += 1;
        let mut off = e.current();
        if off == 0 {
            report
                .violations
                .push(format!("bucket {idx}: occupied with zero offset"));
            return;
        }
        let mut chain = 0usize;
        let mut first = true;
        while off != 0 && off != NIL {
            if !in_bounds(off) {
                // Dangling pre_ptr into a freed pool — expected after log
                // cleaning; only the *head* must be in bounds.
                if first {
                    report
                        .violations
                        .push(format!("bucket {idx}: head out of bounds ({off:#x})"));
                }
                break;
            }
            let hdr = ObjHeader::read_from(pool, off as usize);
            let key = layout::read_key(pool, off as usize, &hdr);
            if crate::hashtable::fingerprint(&key) != e.fp {
                if first {
                    report
                        .violations
                        .push(format!("bucket {idx}: head key mismatch"));
                }
                break;
            }
            let state = classify(pool, off as usize, &hdr);
            *report.versions.entry(state).or_default() += 1;
            report.total_versions += 1;
            chain += 1;
            if first {
                if state == VersionState::Tombstone {
                    report.tombstoned += 1;
                } else {
                    report.live_bytes += hdr.vlen as usize;
                }
                first = false;
            }
            off = hdr.pre_ptr;
        }
        report.max_chain = report.max_chain.max(chain);
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use crate::server::{Server, ServerConfig};
    use efactory_rnic::{CostModel, Fabric};
    use efactory_sim as sim;
    use efactory_sim::Sim;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};

    fn report_after(ops: impl FnOnce(&Client) + Send + 'static, settle: u64) -> StoreReport {
        report_after_cfg(ops, settle, ServerConfig::default())
    }

    fn report_after_cfg(
        ops: impl FnOnce(&Client) + Send + 'static,
        settle: u64,
        cfg: ServerConfig,
    ) -> StoreReport {
        let mut simu = Sim::new(83);
        let fabric = Fabric::new(CostModel::default());
        let server_node = fabric.add_node("server");
        let layout = StoreLayout::new(256, 1 << 20, true);
        let server = Server::format(&fabric, &server_node, layout, cfg);
        let out: Arc<Mutex<StoreReport>> = Arc::default();
        let out2 = Arc::clone(&out);
        let f = Arc::clone(&fabric);
        simu.spawn("main", move || {
            let shared = server.start(&f);
            let c = Client::connect(
                &f,
                &f.add_node("c"),
                &server_node,
                server.desc(),
                ClientConfig::default(),
            )
            .unwrap();
            ops(&c);
            sim::sleep(sim::micros(settle));
            let heads = [shared.logs[0].head(), shared.logs[1].head()];
            *out2.lock().unwrap() = inspect(&shared.pool, &layout, heads);
            server.shutdown();
        });
        simu.run().expect_ok();
        let r = out.lock().unwrap().clone();
        r
    }

    #[test]
    fn healthy_store_reports_all_durable() {
        let r = report_after(
            |c| {
                for i in 0..10u32 {
                    c.put(format!("k{i}").as_bytes(), b"value").unwrap();
                }
            },
            500, // verifier drains
        );
        assert_eq!(r.keys, 10);
        assert_eq!(r.count(VersionState::DurablePersisted), 10);
        assert_eq!(r.count(VersionState::DurableVolatile), 0, "{}", r.render());
        assert!(r.violations.is_empty(), "{}", r.render());
        assert_eq!(r.live_bytes, 50);
    }

    #[test]
    fn fresh_writes_show_as_unverified() {
        // Verifier slowed so it provably has not verified the object yet.
        let cfg = ServerConfig {
            verify_idle: sim::millis(10),
            ..ServerConfig::default()
        };
        let r = report_after_cfg(
            |c| {
                c.put(b"k", b"freshly-written").unwrap();
            },
            0,
            cfg,
        );
        assert_eq!(r.count(VersionState::IntactUnverified), 1, "{}", r.render());
    }

    #[test]
    fn overwrites_grow_chains_and_tombstones_count() {
        let r = report_after(
            |c| {
                for i in 0..5u32 {
                    c.put(b"k", format!("v{i}").as_bytes()).unwrap();
                }
                c.put(b"gone", b"x").unwrap();
                c.del(b"gone").unwrap();
            },
            500,
        );
        assert_eq!(r.keys, 2);
        assert_eq!(r.tombstoned, 1);
        assert_eq!(r.max_chain, 5);
        assert!(r.count(VersionState::Tombstone) >= 1);
        assert!(r.total_versions >= 7, "{}", r.render());
    }

    #[test]
    fn render_is_stable_and_complete() {
        let r = report_after(|c| c.put(b"a", b"b").unwrap(), 500);
        let s = r.render();
        assert!(s.contains("keys: 1"));
        assert!(s.contains("DurablePersisted"));
        assert!(s.contains("no violations"));
    }

    #[test]
    fn abandoned_allocation_reports_incomplete_then_invalid() {
        // Use the server plumbing directly (no client value write).
        let mut simu = Sim::new(89);
        let fabric = Fabric::new(CostModel::default());
        let server_node = fabric.add_node("server");
        let layout = StoreLayout::new(256, 1 << 20, true);
        let cfg = ServerConfig {
            verify_timeout: sim::micros(40),
            ..ServerConfig::default()
        };
        let server = Server::format(&fabric, &server_node, layout, cfg);
        let f = Arc::clone(&fabric);
        simu.spawn("main", move || {
            let shared = server.start(&f);
            let qp = f.connect(&f.add_node("z"), &server_node).unwrap();
            let req = crate::protocol::Request::Put {
                key: b"zombie".to_vec(),
                vlen: 64,
                crc: 1,
            };
            qp.rpc(req.encode()).unwrap();
            let heads = [shared.logs[0].head(), shared.logs[1].head()];
            let r1 = inspect(&shared.pool, &layout, heads);
            assert_eq!(r1.count(VersionState::Incomplete), 1, "{}", r1.render());
            sim::sleep(sim::millis(1)); // timeout passes
            let r2 = inspect(&shared.pool, &layout, heads);
            assert_eq!(r2.count(VersionState::Invalid), 1, "{}", r2.render());
            assert_eq!(shared.stats.bg_timeouts.load(Ordering::Relaxed), 1);
            server.shutdown();
        });
        simu.run().expect_ok();
    }
}
