//! Named counters in a deterministic registry.
//!
//! [`Counter`] deliberately mirrors the `AtomicU64` read/update surface
//! (`fetch_add` / `load` with an ignored ordering argument), so stats
//! structs migrating from ad-hoc atomics keep their call sites unchanged —
//! the simulator serializes execution, making `Relaxed` semantics exact.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::Obj;

/// A monotonically increasing counter. Cloning is cheap and clones share
/// the value, so a counter can live in a stats struct *and* a [`Registry`].
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// `AtomicU64`-compatible increment (ordering ignored; execution is
    /// serialized by the simulator).
    pub fn fetch_add(&self, n: u64, _order: Ordering) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// `AtomicU64`-compatible read (ordering ignored).
    pub fn load(&self, _order: Ordering) -> u64 {
        self.get()
    }

    /// `AtomicU64`-compatible overwrite (used when mirroring externally
    /// maintained counters into a registry).
    pub fn store(&self, v: u64, _order: Ordering) {
        self.0.store(v, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A named-counter registry. Iteration order is lexicographic (`BTreeMap`),
/// so snapshots and JSON output are deterministic.
#[derive(Clone, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Counter>>>);

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<String, Counter>> {
        self.0
            .lock()
            .expect("a thread panicked while holding the registry")
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.map().entry(name.to_string()).or_default().clone()
    }

    /// Register an existing counter under `name` (sharing its value).
    /// Re-attaching a name replaces the previous binding.
    pub fn attach_counter(&self, name: &str, c: &Counter) {
        self.map().insert(name.to_string(), c.clone());
    }

    /// Every counter as `(name, value)`, in lexicographic order.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.map()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Render the snapshot as one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        for (name, v) in self.snapshot() {
            o = o.u64(&name, v);
        }
        o.finish()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.add(3);
        c2.fetch_add(2, Ordering::Relaxed);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn registry_get_or_create_and_attach() {
        let r = Registry::new();
        let a = r.counter("z.second");
        a.inc();
        let pre = Counter::new();
        pre.add(7);
        r.attach_counter("a.first", &pre);
        assert_eq!(
            r.snapshot(),
            vec![("a.first".to_string(), 7), ("z.second".to_string(), 1)]
        );
        // Same name returns the same underlying counter.
        r.counter("z.second").inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn snapshot_json_is_sorted_and_flat() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        assert_eq!(r.to_json(), r#"{"a":1,"b":2}"#);
    }
}
