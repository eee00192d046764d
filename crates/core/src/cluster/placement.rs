//! The placement map: the one routing implementation.
//!
//! Routing happens in two layers that this module keeps separate on
//! purpose:
//!
//! * **key → shard** is *static*: [`key_shard`] hashes the key through a
//!   second splitmix64 round (decorrelated from the in-shard bucket
//!   [`fingerprint`]), and the shard count never changes over the life
//!   of a store. The routed
//!   [`StoreClient`](crate::store::StoreClient) and the transaction
//!   drivers route here, so a key maps to the same shard on every client,
//!   every connection, and every run.
//! * **shard → node** is *dynamic*: a [`PlacementMap`] assigns each shard
//!   to a cluster node and carries an **epoch** that the replicated
//!   metadata service bumps on every reassignment (migration flip,
//!   failover). Clients learn of a move from a sealed source's
//!   `WrongEpoch` or a retired source's transport error, and tag their
//!   location-cache entries with the epoch.
//!
//! A [`Store`](crate::store::Store) without backups on one data node has
//! no placement map: its shards never move, so it never sees an epoch.

use crate::hashtable::fingerprint;

/// Deterministic, total key → shard routing: `hash(key) % shards`.
///
/// The hash re-mixes the table fingerprint through a second splitmix64
/// round with an odd salt, decorrelating the shard choice from the bucket
/// choice inside each shard.
pub fn key_shard(key: &[u8], shards: usize) -> usize {
    assert!(shards >= 1, "a store has at least one shard");
    if shards == 1 {
        return 0;
    }
    let mut z = fingerprint(key) ^ 0xA076_1D64_78BD_642F;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// An epoch-tagged shard → node assignment. Owned by the metadata
/// service; clients hold snapshots and treat the epoch as the cache tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    /// Bumped by the metadata service on every reassignment. No request
    /// carries it: clients tag their location-cache entries with it.
    pub epoch: u64,
    /// `assignment[shard]` = index of the cluster node hosting it.
    pub assignment: Vec<u32>,
}

impl PlacementMap {
    /// The initial deterministic placement: shard `g` on node `g % nodes`
    /// (round-robin), epoch 0.
    pub fn initial(shards: usize, nodes: usize) -> PlacementMap {
        assert!(shards >= 1 && nodes >= 1);
        PlacementMap {
            epoch: 0,
            assignment: (0..shards).map(|g| (g % nodes) as u32).collect(),
        }
    }

    /// Number of shards (fixed for the life of the store).
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// The node hosting `shard` under this map.
    pub fn node_of_shard(&self, shard: usize) -> usize {
        self.assignment[shard] as usize
    }

    /// Reassign `shard` to `node` and bump the epoch (metadata-service
    /// apply path for migration flips and promotions).
    pub fn reassign(&mut self, shard: usize, node: usize) {
        self.assignment[shard] = node as u32;
        self.epoch += 1;
    }

    /// Wire encoding: `epoch | shards | assignment...` (u64 LE each slot
    /// padded to u32). Carried in metadata-service replies.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 * self.assignment.len());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.assignment.len() as u32).to_le_bytes());
        for a in &self.assignment {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// Decode the [`encode`](Self::encode) form. `None` on malformed or
    /// truncated input.
    pub fn decode(buf: &[u8]) -> Option<PlacementMap> {
        if buf.len() < 12 {
            return None;
        }
        let epoch = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        let n = u32::from_le_bytes(buf[8..12].try_into().ok()?) as usize;
        // Trailing bytes are allowed: containing encodings (e.g.
        // `MetaState`) lay further fields after the map.
        if n == 0 || buf.len() < 12 + 4 * n {
            return None;
        }
        let assignment = (0..n)
            .map(|i| u32::from_le_bytes(buf[12 + 4 * i..16 + 4 * i].try_into().unwrap()))
            .collect();
        Some(PlacementMap { epoch, assignment })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_round_robin() {
        let m = PlacementMap::initial(8, 3);
        assert_eq!(m.epoch, 0);
        assert_eq!(m.assignment, vec![0, 1, 2, 0, 1, 2, 0, 1]);
    }

    #[test]
    fn reassign_bumps_epoch() {
        let mut m = PlacementMap::initial(4, 2);
        m.reassign(2, 1);
        assert_eq!(m.epoch, 1);
        assert_eq!(m.node_of_shard(2), 1);
    }

    #[test]
    fn encode_roundtrip() {
        let mut m = PlacementMap::initial(5, 4);
        m.reassign(3, 0);
        m.reassign(0, 2);
        assert_eq!(PlacementMap::decode(&m.encode()), Some(m));
        assert_eq!(PlacementMap::decode(&[]), None);
        assert_eq!(PlacementMap::decode(&[0; 11]), None);
    }

    #[test]
    fn routing_is_total_and_spread() {
        // Every key lands in-range, and a modest key set touches every
        // shard for every shard count the acceptance sweep uses.
        for shards in [1usize, 2, 4, 8] {
            let mut hit = vec![0usize; shards];
            for i in 0..512u32 {
                let s = key_shard(format!("user{i:08}").as_bytes(), shards);
                assert!(s < shards);
                hit[s] += 1;
            }
            assert!(hit.iter().all(|&c| c > 0), "unused shard: {hit:?}");
        }
    }

    #[test]
    fn routing_decorrelated_from_bucket_home() {
        // Keys of one shard must not collapse onto every N-th fingerprint
        // residue (which would waste (N-1)/N of the shard's bucket homes).
        let shards = 4;
        let mut residues = std::collections::HashSet::new();
        for i in 0..256u32 {
            let key = format!("user{i:08}");
            if key_shard(key.as_bytes(), shards) == 0 {
                residues.insert(fingerprint(key.as_bytes()) % shards as u64);
            }
        }
        assert!(residues.len() > 1, "shard 0 keys share a fp residue class");
    }
}
